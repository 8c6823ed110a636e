"""The scripts under scripts/ and the leakguard command run end to end
against the package.

Each runs in a fresh interpreter, as a user runs it, so a rename of any
name a script imports or reads fails here.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from leakguard.cli import format_table
from leakguard.dataset import CREDITCARD_SCHEMA, TabularDataset, save_csv
from leakguard.experiment import ScenarioResult, Verdict, compare_scenarios

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_reproduce_leakage_inflation_at_its_defaults():
    done = run_script("reproduce_leakage_inflation.py")
    assert done.returncode == 0, done.stderr
    ran = re.findall(r"^ran (\S+): verdict=(\w+), synthetic rows in test=(\d+)", done.stdout, re.M)
    assert ran == [
        ("baseline", "clean", "0"),
        ("smote-post-split", "clean", "0"),
        ("smote-pre-split", "leaky", "3922"),
    ]
    assert "smote-pre-split vs smote-post-split: accuracy=" in done.stdout


def test_creditcard_baseline_on_a_small_file(tmp_path):
    rng = np.random.default_rng(0)
    n_rows = 600
    labels = (np.arange(n_rows) % 20 == 0).astype(np.int64)
    v = rng.standard_normal((n_rows, 28))
    v[labels == 1, :14] += 1.5
    features = np.column_stack(
        [np.sort(rng.integers(0, 2 * 86400, n_rows)).astype(np.float64), v,
         np.round(rng.lognormal(3.0, 1.6, n_rows), 2)]
    )
    csv = tmp_path / "creditcard.csv"
    save_csv(TabularDataset(features, CREDITCARD_SCHEMA[:-1], labels, np.zeros(n_rows, np.int8)), csv)
    out = tmp_path / "result.json"

    done = run_script("creditcard_baseline.py", "--csv", str(csv), "--rounds", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert f"{n_rows} rows, 30 fraud" in done.stdout
    result = ScenarioResult.from_dict(json.loads(out.read_text()))
    assert result.scenario.model.n_estimators == 2
    assert result.leakage.verdict == Verdict.CLEAN
    assert sum(result.test_class_counts.values()) == 120


def test_leakguard_command_generate_run_compare(tmp_path):
    csv = tmp_path / "data.csv"
    done = run_python(
        "-m", "leakguard", "generate", "--n-rows", "600", "--positive-fraction", "0.05",
        "--n-features", "4", "--seed", "3", "--output", str(csv),
    )
    assert done.returncode == 0, done.stderr
    smote = [{"kind": "smote", "sampling_strategy": 1.0, "k_neighbors": 5, "seed": 7}]
    common = {
        "pipeline": smote,
        "split": {"test_fraction": 0.2, "seed": 42, "stratified": True},
        "model": {"n_estimators": 3, "max_depth": 2},
    }
    config = {
        "data": {"csv": str(csv)},
        "out_dir": str(tmp_path / "results"),
        "scenarios": [
            {"name": "pre", "placement": "sampling_before_split", **common},
            {"name": "post", "placement": "sampling_after_split", **common},
        ],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    done = run_python("-m", "leakguard", "run", str(config_path), "--allow-presplit-sampling")
    assert done.returncode == 0, done.stderr

    paths = [tmp_path / "results" / f"{name}-42.result.json" for name in ("pre", "post")]
    cmp_dir = tmp_path / "cmp"
    done = run_python("-m", "leakguard", "compare", *map(str, paths), "--out-dir", str(cmp_dir))
    assert done.returncode == 0, done.stderr
    results = [ScenarioResult.from_dict(json.loads(p.read_text())) for p in paths]
    expected = compare_scenarios(results)
    assert json.loads((cmp_dir / "comparison.json").read_text()) == expected
    assert (cmp_dir / "comparison.txt").read_text() == format_table(expected)
    assert done.stdout == format_table(expected)
