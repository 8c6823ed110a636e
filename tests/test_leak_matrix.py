"""The leak matrix: every placement, sampler, preprocessing and split cell.

The expected verdict comes from the configuration, never from the audit:
a cell is leaky exactly when a sampler changed the data before the split,
or preprocessing is paper_faithful (the scaler sees the test rows). The
audit must measure that verdict from the data, and the count that trips it
must be the one the cell's leak feeds. Every cell also runs on loaded data
that holds exact duplicate rows, which straddle any split and so must not
change a verdict.
"""

import json

import numpy as np
import pytest

from leakguard.boosting import GbdtParams
from leakguard.dataset import SplitSpec, TabularDataset, generate_synthetic_imbalanced
from leakguard.experiment import (
    Placement,
    Preprocessing,
    ScenarioResult,
    ScenarioSpec,
    Verdict,
    run_scenario,
)
from leakguard.sampling import SamplerKind, SamplerPipeline, SamplerSpec, apply_pipeline

MODEL = GbdtParams(learning_rate=0.3, n_estimators=3, max_depth=2)
SEEDS = (0, 1, 2)
STRATEGY = 1.0
# 40 positives and 360 negatives already sit at this ratio, so a sampler
# with it adds and removes no row.
FIXED_POINT = 40 / 360
# Near fixed points: random_under keeps 359 or 358 of the 360 negatives,
# and an oversampler adds one positive. Neither moves a test class count
# that round_half_up(n * 0.2) gives, so only an exact count sees them.
NEAR_FIXED_POINTS = {40 / 359: "-under-1", 40 / 358: "-under-2", 41 / 360: "-over-1"}

CELLS = (
    [(Placement.NO_SAMPLING, None, STRATEGY)]
    + [
        (placement, kind, STRATEGY)
        for placement in (Placement.SAMPLING_AFTER_SPLIT, Placement.SAMPLING_BEFORE_SPLIT)
        for kind in SamplerKind
    ]
    + [(Placement.SAMPLING_BEFORE_SPLIT, kind, FIXED_POINT) for kind in SamplerKind]
    + [
        (Placement.SAMPLING_BEFORE_SPLIT, SamplerKind.RANDOM_UNDER, 40 / 359),
        (Placement.SAMPLING_BEFORE_SPLIT, SamplerKind.RANDOM_UNDER, 40 / 358),
    ]
    + [
        (Placement.SAMPLING_BEFORE_SPLIT, kind, 41 / 360)
        for kind in (SamplerKind.RANDOM_OVER, SamplerKind.SMOTE, SamplerKind.GAUSSIAN_SYNTH)
    ]
)


def copy_within_class(data, seed):
    """``data`` with 5% of each class (at least one row) overwritten by
    copies of other rows of that class, so the class counts stay."""
    rng = np.random.default_rng(seed)
    features = data.features.copy()
    for cls in (0, 1):
        rows = rng.permutation(np.flatnonzero(data.labels == cls))
        n_copies = max(1, round(0.05 * rows.size))
        features[rows[:n_copies]] = features[rows[n_copies : 2 * n_copies]]
    return TabularDataset(features, data.feature_names, data.labels, data.provenance)


def cell_id(cell):
    placement, kind, strategy = cell
    name = placement.value if kind is None else f"{kind.value}-{placement.value}"
    suffix = {FIXED_POINT: "-fixed-point", **NEAR_FIXED_POINTS}.get(strategy, "")
    return name + suffix


@pytest.mark.parametrize("copies", [False, True], ids=["no-copies", "copies"])
@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "unstratified"])
@pytest.mark.parametrize("preprocessing", list(Preprocessing), ids=lambda p: p.value)
@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_audit_measures_the_configured_verdict(cell, preprocessing, stratified, copies):
    placement, kind, strategy = cell
    changes_data = placement == Placement.SAMPLING_BEFORE_SPLIT and strategy != FIXED_POINT
    faithful = preprocessing == Preprocessing.PAPER_FAITHFUL
    expected = Verdict.LEAKY if changes_data or faithful else Verdict.CLEAN

    pairs_per_seed = []
    for seed in SEEDS:
        data = generate_synthetic_imbalanced(400, 0.1, 3, 1.5, seed)
        if copies:
            # Not the split's seed: drawn from the same stream, the copies
            # would all land in the stratified test partition.
            data = copy_within_class(data, 100 + seed)
        assert data.labels.sum() == 40
        pipeline = None
        if kind is not None:
            step = SamplerSpec(kind, strategy, k_neighbors=3, seed=seed)
            pipeline = SamplerPipeline(steps=(step,))
        spec = ScenarioSpec(
            name="cell",
            placement=placement,
            pipeline=pipeline,
            preprocessing=preprocessing,
            split=SplitSpec(0.2, seed, stratified),
            model=MODEL,
        )
        result = run_scenario(data, spec)
        # A result file is read by rebuilding it from its primary facts, so
        # every cell's own output must read back as exactly itself.
        doc = result.to_dict()
        assert ScenarioResult.from_dict(json.loads(json.dumps(doc))).to_dict() == doc
        leakage = result.leakage

        assert leakage.verdict == expected, (seed, leakage)
        assert leakage.scaler_fitted_on_full_data == faithful
        created = leakage.synthetic_rows_in_test
        if changes_data:
            # The split keeps the class counts of the sample it is handed,
            # so the change is exactly the rows the pipeline added or removed.
            changed = abs(apply_pipeline(data, pipeline).n_rows - data.n_rows)
            assert leakage.class_count_change == changed > 0, (seed, leakage)
            if strategy == STRATEGY:
                # Adding 320 rows puts some of them into the test partition.
                assert (created > 0) == (kind != SamplerKind.RANDOM_UNDER), (seed, leakage)
        else:
            assert (created, leakage.class_count_change) == (0, 0), (seed, leakage)
            pairs_per_seed.append(leakage.duplicate_pairs_across_split)

    if not changes_data:
        # Without copies no pair crosses the split; with them, some run must
        # really put one across it, or the axis tests nothing.
        assert (max(pairs_per_seed) > 0) == copies, pairs_per_seed

