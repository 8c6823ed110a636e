"""The benchmark's workloads: inputs built from a seed, and output checks.

Each workload is one leakguard experiment config, run through the public
CLI as ``leakguard run`` (plus ``leakguard compare`` when it has more
than one scenario). Inputs depend only on the workload seed, which is
derived from the benchmark's ``--seed``: ten data seeds are used, and
``reference.json`` pins the verdict and leakage counts the unmodified
program produced for each of them.

This module imports numpy and leakguard only inside functions, so the
orchestrator can load it without paying for either.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("demo20k", "creditcard-shaped", "resample-sweep")

DATA_SEEDS = tuple(range(42, 52))

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Wall time of one operation at the seed commit on a 2-vCPU box. A run
# makes as many operations as a closed loop would start within --seconds at
# that speed, and at least two. The count is fixed per workload, so every
# run's median has the same number of samples however fast the shared host
# happens to be; a faster program simply finishes its run sooner.
NOMINAL_OPERATION_S = {"demo20k": 6.5, "creditcard-shaped": 16.0, "resample-sweep": 8.0}

# Acceptance criterion 1 of the demo: pre-split SMOTE inflates test F1 by
# at least two points over post-split SMOTE.
MIN_F1_INFLATION = 0.02


def data_seed(seed: int) -> int:
    """The data seed a benchmark ``--seed`` selects; seeds wrap modulo 10."""
    return DATA_SEEDS[seed % len(DATA_SEEDS)]


def operation_count(workload: str, seconds: float) -> int:
    return max(2, int(seconds // NOMINAL_OPERATION_S[workload]) + 1)


def _split(seed: int) -> dict:
    return {"test_fraction": 0.2, "seed": seed, "stratified": True}


def _demo_config(seed: int, toy: bool) -> dict:
    """The README / reproduce_leakage_inflation.py experiment."""
    model = {"learning_rate": 0.3, "n_estimators": 10 if toy else 100, "max_depth": 4}
    smote = [{"kind": "smote", "sampling_strategy": 1.0, "k_neighbors": 5, "seed": 7}]
    split = _split(seed)
    return {
        "data": {
            "synthetic": {
                "n_rows": 4000 if toy else 20000,
                "positive_fraction": 0.01,
                "n_features": 10,
                "class_separation": 1.2,
                "seed": seed,
            }
        },
        "scenarios": [
            {"name": "baseline", "placement": "no_sampling", "split": split, "model": model},
            {
                "name": "smote-post-split",
                "placement": "sampling_after_split",
                "pipeline": smote,
                "split": split,
                "model": model,
            },
            {
                "name": "smote-pre-split",
                "placement": "sampling_before_split",
                "pipeline": smote,
                "split": split,
                "model": model,
            },
        ],
    }


def _resample_config(seed: int, toy: bool) -> dict:
    """Three sampler placements and kinds, each for three sampler seeds."""
    model = {"learning_rate": 0.3, "n_estimators": 2 if toy else 5, "max_depth": 3}
    split = _split(seed)
    scenarios = []
    for placement, kind, label in (
        ("sampling_after_split", "smote", "smote-post"),
        ("sampling_before_split", "smote", "smote-pre"),
        ("sampling_before_split", "random_over", "over-pre"),
    ):
        for sampler_seed in (7, 8, 9):
            step = {"kind": kind, "sampling_strategy": 0.5, "k_neighbors": 5, "seed": sampler_seed}
            scenarios.append(
                {
                    "name": f"{label}-{sampler_seed}",
                    "placement": placement,
                    "pipeline": [step],
                    "split": split,
                    "model": model,
                }
            )
    return {
        "data": {
            "synthetic": {
                "n_rows": 3000 if toy else 30000,
                "positive_fraction": 0.08,
                "n_features": 16,
                "class_separation": 1.2,
                "seed": seed,
            }
        },
        "scenarios": scenarios,
    }


def _creditcard_config(csv_path: str, seed: int, toy: bool) -> dict:
    """The credit-card baseline script's scenario, cut to 10 rounds."""
    model = {
        "learning_rate": 0.4,
        "n_estimators": 2 if toy else 10,
        "max_depth": 6,
        "n_bins": 256,
    }
    return {
        "data": {"csv": csv_path, "schema": "creditcard"},
        "scenarios": [
            {
                "name": "creditcard-baseline",
                "placement": "no_sampling",
                "split": _split(seed),
                "model": model,
                "threshold": 0.5,
            }
        ],
    }


def creditcard_shaped(seed: int, n_rows: int, n_positive: int):
    """A stand-in for the Kaggle credit-card file with the same shape.

    Columns follow ``CREDITCARD_SCHEMA``: ``Time`` is whole elapsed
    seconds over two days in ascending order, V1..V28 are centred
    Gaussians of falling spread with positives shifted by 0.5 to 1.5
    standard deviations on V1..V14, and ``Amount`` is a non-negative
    log-normal rounded to cents.
    """
    import numpy as np
    from leakguard import dataset as ds

    rng = np.random.default_rng(seed)
    time_s = np.sort(rng.integers(0, 2 * 86400, size=n_rows)).astype(np.float64)
    labels = np.zeros(n_rows, dtype=np.int64)
    labels[rng.choice(n_rows, size=n_positive, replace=False)] = 1
    spread = np.linspace(2.0, 0.3, 28)
    v = rng.standard_normal((n_rows, 28)) * spread
    # A fixed, overlapping class shift keeps tree shapes (and so training
    # time) alike across seeds; only the noise depends on the seed.
    shift = np.linspace(1.5, 0.5, 14) * np.where(np.arange(14) % 2, -1.0, 1.0)
    v[labels == 1, :14] += shift * spread[:14]
    amount = np.round(rng.lognormal(3.0, 1.6, size=n_rows), 2)
    names = ds.CREDITCARD_SCHEMA[:-1]
    return ds.TabularDataset(
        features=np.column_stack([time_s, v, amount]),
        feature_names=names,
        labels=labels,
        provenance=tuple(ds.RowProvenance.original(i) for i in range(n_rows)),
    )


def build_inputs(workload: str, seed: int, inputs_dir: Path, toy: bool = False, tracer=None) -> Path:
    """Write the workload's inputs for ``seed`` and return the config path.

    The creditcard-shaped CSV is written with leakguard's own
    ``save_csv``, so its cost is part of the measured set-up.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs_dir.mkdir(parents=True, exist_ok=True)
    s = data_seed(seed)
    if workload == "demo20k":
        config = _demo_config(s, toy)
    elif workload == "resample-sweep":
        config = _resample_config(s, toy)
    else:
        import leakguard.dataset

        csv_path = inputs_dir / "creditcard.csv"
        n_rows, n_positive = (5000, 40) if toy else (284807, 492)
        if tracer is None:
            data = creditcard_shaped(s, n_rows, n_positive)
        else:
            with tracer.span("bench.generate"):
                data = creditcard_shaped(s, n_rows, n_positive)
        leakguard.dataset.save_csv(data, csv_path)
        config = _creditcard_config(str(csv_path.resolve()), s, toy)
    config_path = inputs_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path


def result_name(scenario: dict) -> str:
    """File name ``leakguard run`` gives a scenario's result."""
    return f"{scenario['name']}-{scenario['split']['seed']}.result.json"


def observe(config: dict, out_dir: Path) -> dict:
    """Read back what one operation wrote: the facts the checks look at.

    Missing or unreadable files leave their entry out, which the checks
    count as a failed operation.
    """
    facts: dict = {"scenarios": {}, "comparison": None}
    for scenario in config["scenarios"]:
        path = out_dir / result_name(scenario)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        leakage = doc["leakage"]
        facts["scenarios"][scenario["name"]] = {
            "verdict": leakage["verdict"],
            "synthetic_rows_in_test": leakage["synthetic_rows_in_test"],
            "duplicate_pairs_across_split": leakage["duplicate_pairs_across_split"],
            "test_provenance_counts": doc["test_provenance_counts"],
            "metrics": {
                k: doc["metrics"][k]
                for k in ("accuracy", "precision", "recall", "f1", "mcc", "auc")
            },
        }
    path = out_dir / "comparison.json"
    if len(config["scenarios"]) > 1 and path.exists():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            doc = None
        if doc is not None:
            facts["comparison"] = {
                "names": doc["names"],
                "leaky_outperforming_clean": doc["leaky_outperforming_clean"],
                "f1_inflation": {
                    f"{e['minuend']} vs {e['subtrahend']}": e["deltas"]["f1"]
                    for e in doc["inflation"]
                },
            }
    return facts


def operations(config: dict) -> list[str]:
    """Operation names of one run: each scenario, then the comparison."""
    names = [s["name"] for s in config["scenarios"]]
    return names + (["comparison"] if len(names) > 1 else [])


def check(workload: str, config: dict, facts: dict, reference: dict | None) -> dict[str, list[str]]:
    """Failure messages per operation; an empty dict means all passed.

    Invariants hold at any size. With a ``reference`` (one data seed's
    entry from reference.json) every verdict and leakage count must also
    equal the pinned value. Headline metrics are not pinned.
    """
    failures: dict[str, list[str]] = {}

    def fail(op, message):
        failures.setdefault(op, []).append(message)

    for scenario in config["scenarios"]:
        name = scenario["name"]
        got = facts["scenarios"].get(name)
        if got is None:
            fail(name, "no result file")
            continue
        prov = got["test_provenance_counts"]
        created = prov.get("duplicate", 0) + prov.get("synthetic", 0)
        if got["synthetic_rows_in_test"] != created:
            fail(name, f"synthetic_rows_in_test {got['synthetic_rows_in_test']} "
                       f"!= created test rows {created}")
        if scenario["placement"] == "sampling_before_split":
            if got["verdict"] != "leaky" or got["synthetic_rows_in_test"] == 0:
                fail(name, f"pre-split sampling must be leaky with created test rows, got {got}")
        elif (got["verdict"], got["synthetic_rows_in_test"], got["duplicate_pairs_across_split"]) != ("clean", 0, 0):
            fail(name, f"guarded scenario must be clean with zero counts, got {got}")
        if reference is not None:
            want = reference["scenarios"].get(name)
            have = {k: got[k] for k in ("verdict", "synthetic_rows_in_test", "duplicate_pairs_across_split")}
            if want != have:
                fail(name, f"leakage {have} != reference {want}")

    if len(config["scenarios"]) > 1:
        comparison = facts["comparison"]
        if comparison is None:
            fail("comparison", "no comparison file")
        else:
            names = [s["name"] for s in config["scenarios"]]
            if comparison["names"] != names:
                fail("comparison", f"names {comparison['names']} != {names}")
            if workload == "demo20k":
                flagged = comparison["leaky_outperforming_clean"]
                if flagged != ["smote-pre-split"]:
                    fail("comparison", f"leaky_outperforming_clean {flagged} != ['smote-pre-split']")
                for pair, delta in comparison["f1_inflation"].items():
                    if delta < MIN_F1_INFLATION:
                        fail("comparison", f"f1 inflation {pair} {delta:+.4f} < {MIN_F1_INFLATION}")
                if not comparison["f1_inflation"]:
                    fail("comparison", "no pre-split vs post-split inflation entry")
    return failures


def load_reference(workload: str, seed: int) -> dict:
    table = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return table[workload][str(data_seed(seed))]


def reference_entry(facts: dict) -> dict:
    """What reference.json pins for one data seed, plus F1 for information."""
    return {
        "scenarios": {
            name: {k: got[k] for k in ("verdict", "synthetic_rows_in_test", "duplicate_pairs_across_split")}
            for name, got in facts["scenarios"].items()
        },
        "headline_f1_not_pinned": {
            name: got["metrics"]["f1"] for name, got in facts["scenarios"].items()
        },
    }
