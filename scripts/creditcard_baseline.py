#!/usr/bin/env python3
"""Train the no-sampling baseline on the real credit card fraud CSV.

Needs the Kaggle "Credit Card Fraud Detection" dataset (creditcard.csv,
284,807 rows), which is not redistributable with this repository. Download
it from kaggle.com/datasets/mlg-ulb/creditcardfraud and point --csv at it,
or place it at data/creditcard.csv.

Expect 1000 boosting rounds on 227,845 training rows to take roughly
five minutes: one round takes about 0.29 s on the benchmark's
creditcard-shaped stand-in on a 2-vCPU host (unverified on the real file).

Usage: python scripts/creditcard_baseline.py [--csv PATH] [--rounds N]
"""

import argparse
from pathlib import Path

from leakguard import (
    CREDITCARD_SCHEMA,
    GbdtParams,
    Placement,
    ScenarioSpec,
    SplitSpec,
    load_csv,
    run_scenario,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default="data/creditcard.csv")
    parser.add_argument("--rounds", type=int, default=1000)
    parser.add_argument("--out", default=None, help="optional result JSON path")
    args = parser.parse_args()

    path = Path(args.csv)
    if not path.exists():
        print(f"{path} not found; see the module docstring for download steps")
        return 1

    print(f"loading {path} ...")
    data = load_csv(path, schema=CREDITCARD_SCHEMA)
    counts = {int(c): int((data.labels == c).sum()) for c in (0, 1)}
    print(f"{data.n_rows} rows, {counts[1]} fraud ({counts[1] / data.n_rows:.4%})")

    spec = ScenarioSpec(
        name="creditcard-baseline",
        placement=Placement.NO_SAMPLING,
        split=SplitSpec(test_fraction=0.2, seed=42, stratified=True),
        model=GbdtParams(
            learning_rate=0.4, n_estimators=args.rounds, max_depth=6, n_bins=256
        ),
        threshold=0.5,
    )
    print(f"training {args.rounds} rounds ...")
    result = run_scenario(data, spec)
    m = result.metrics
    print(
        f"accuracy={m.accuracy:.5f} precision={m.precision:.4f} "
        f"recall={m.recall:.4f} f1={m.f1:.4f} mcc={m.mcc:.4f} auc={m.auc:.4f}"
    )
    print(f"leakage verdict: {result.leakage.verdict.value} ({result.wall_time:.0f}s)")

    if args.out:
        import json

        Path(args.out).write_text(json.dumps(result.to_dict(), indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
