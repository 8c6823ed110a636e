#!/usr/bin/env python3
"""Run the headline experiment: identical SMOTE + boosted trees under three
protocols (no sampling, sampling after the split, sampling before the split)
on a synthetic rare-positive dataset, then print the side-by-side metrics.

The before-split run is deliberately unsound; the point is to measure how
far it inflates the test metrics relative to the guarded runs.

Usage: python scripts/reproduce_leakage_inflation.py [--seed N]
"""

import argparse

from leakguard import (
    GbdtParams,
    Placement,
    SamplerKind,
    SamplerPipeline,
    SamplerSpec,
    ScenarioSpec,
    SplitSpec,
    compare_scenarios,
    generate_synthetic_imbalanced,
    run_scenario,
)
from leakguard.cli import format_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    data = generate_synthetic_imbalanced(
        n_rows=20000,
        positive_fraction=0.01,
        n_features=10,
        class_separation=1.2,
        seed=args.seed,
    )
    split = SplitSpec(test_fraction=0.2, seed=args.seed, stratified=True)
    model = GbdtParams(learning_rate=0.3, n_estimators=100, max_depth=4)
    pipeline = SamplerPipeline(steps=(SamplerSpec(SamplerKind.SMOTE, 1.0, 5, 7),))

    scenarios = [
        ScenarioSpec(name="baseline", placement=Placement.NO_SAMPLING,
                     split=split, model=model),
        ScenarioSpec(name="smote-post-split", placement=Placement.SAMPLING_AFTER_SPLIT,
                     pipeline=pipeline, split=split, model=model),
        ScenarioSpec(name="smote-pre-split", placement=Placement.SAMPLING_BEFORE_SPLIT,
                     pipeline=pipeline, split=split, model=model),
    ]

    results = []
    for spec in scenarios:
        result = run_scenario(data, spec)
        results.append(result)
        print(
            f"ran {spec.name}: verdict={result.leakage.verdict.value}, "
            f"synthetic rows in test={result.leakage.synthetic_rows_in_test}, "
            f"{result.wall_time:.1f}s"
        )

    print()
    print(format_table(compare_scenarios(results)), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
