"""Self-check of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
It runs every workload at toy size through the same orchestrator and
worker code, checks the output-check logic against fabricated results,
and checks the self-time arithmetic on synthetic span trees.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(sid, parent, start, end, name="x", **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, **attrs}


def test_self_time_subtracts_children_and_clips_to_parent():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 5.0, 9.0),
        _span(4, 3, 6.0, 7.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),
        _span(4, 1, 9.0, 12.0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_partition_an_operation():
    spans = [
        _span(1, None, 0.0, 20.0, "bench.op"),
        _span(2, 1, 0.5, 19.0, "cli.main"),
        _span(3, 2, 1.0, 2.0, "dataset.load_csv", rows=100),
        _span(4, 2, 2.0, 18.0, "experiment.run_scenario"),
        _span(5, 4, 2.5, 3.0, "experiment.fingerprint"),
        _span(6, 4, 3.0, 4.0, "sampling.apply_pipeline"),
        _span(7, 6, 3.2, 3.8, "sampling.resample", kind="smote", minority_rows=8, rows_created=92),
        _span(8, 4, 4.0, 14.0, "boosting.train", rows=150, rounds=4, tree_nodes=28),
        _span(9, 4, 14.0, 16.0, "boosting.bin_probe"),
        _span(10, 4, 16.0, 17.0, "experiment.audit", rows=200),
    ]
    m = tracing.layer_metrics(spans)
    assert sum(m[k] for k in tracing.PARTITION) == pytest.approx(20.0)
    assert m["boosting.round_s"] == pytest.approx((10.0 - 2.0) / 4)
    assert m["boosting.row_rounds"] == 600
    assert m["sampling.resample_s.smote"] == m["sampling.resample_s"] == pytest.approx(0.6)
    assert m["sampling.resample_s.random_over"] == 0
    assert m["sampling.apply_pipeline.self_s"] == pytest.approx(0.4)
    assert m["dataset.load_s"] == m["dataset.load_csv_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(18.5 - 1.0 - 16.0)
    assert m["experiment.run_scenario.self_s"] == pytest.approx(16.0 - 0.5 - 1.0 - 10.0 - 2.0 - 1.0)


def test_helper_thread_spans_nest_under_the_waiting_span():
    tracer = tracing.Tracer()
    def job():
        with tracer.span("experiment.run_scenario"):
            pass

    with tracer.span("cli.main") as outer:
        worker = threading.Thread(target=job)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    inner = next(s for s in tracer.spans if s["name"] == "experiment.run_scenario")
    assert inner["parent"] == outer["id"]


def _facts_for(config, reference):
    facts = {"scenarios": {}, "comparison": None}
    for s in config["scenarios"]:
        want = reference["scenarios"][s["name"]]
        created = want["synthetic_rows_in_test"]
        facts["scenarios"][s["name"]] = {
            **want,
            "test_provenance_counts": {"original": 100, "duplicate": 0, "synthetic": created},
            "metrics": {"f1": 0.5},
        }
    facts["comparison"] = {
        "names": [s["name"] for s in config["scenarios"]],
        "leaky_outperforming_clean": ["smote-pre-split"],
        "f1_inflation": {"smote-pre-split vs smote-post-split": 0.3},
    }
    return facts


def test_output_checks_accept_the_reference_and_reject_mismatches():
    config = workloads._demo_config(42, toy=False)
    reference = workloads.load_reference("demo20k", 0)
    good = _facts_for(config, reference)
    assert workloads.check("demo20k", config, good, reference) == {}

    cases = {
        "smote-pre-split": lambda f: f["scenarios"]["smote-pre-split"].update(
            synthetic_rows_in_test=3921,
            test_provenance_counts={"original": 100, "duplicate": 0, "synthetic": 3921},
        ),
        "baseline": lambda f: f["scenarios"]["baseline"].update(verdict="leaky"),
        "smote-post-split": lambda f: f["scenarios"].pop("smote-post-split"),
        "comparison": lambda f: f["comparison"].update(leaky_outperforming_clean=[]),
    }
    for op, mutate in cases.items():
        facts = copy.deepcopy(good)
        mutate(facts)
        assert list(workloads.check("demo20k", config, facts, reference)) == [op]

    weak = copy.deepcopy(good)
    weak["comparison"]["f1_inflation"] = {"smote-pre-split vs smote-post-split": 0.019}
    assert "comparison" in workloads.check("demo20k", config, weak, None)


def test_reference_covers_every_data_seed_and_pins_the_demo_headline():
    table = json.loads(workloads.REFERENCE_PATH.read_text())
    for name in workloads.WORKLOADS:
        assert sorted(table[name], key=int) == [str(s) for s in workloads.DATA_SEEDS]
    demo = table["demo20k"]["42"]["scenarios"]
    assert [demo[n]["verdict"] for n in ("baseline", "smote-post-split", "smote-pre-split")] == [
        "clean", "clean", "leaky"
    ]
    assert demo["smote-pre-split"]["synthetic_rows_in_test"] == 3922


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_prints_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer"] if trace == "1" else declared["end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "1":
        assert "layer self times account for 100.00% of traced wall" in proc.stdout
        jsonl = ROOT / ".bench_out" / f"{workload}-seed3-trace1" / "trace.jsonl"
        spans = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert {"bench.op", "cli.main", "boosting.train"} <= {s["name"] for s in spans}
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_leakguard_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "demo20k", "--seed", "0", "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
