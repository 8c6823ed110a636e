"""The leak matrix: every placement, sampler, preprocessing and split cell.

The expected verdict comes from the configuration, never from the audit:
a cell is leaky exactly when a sampler changed the data before the split,
or preprocessing is paper_faithful (the scaler sees the test rows). The
audit must measure that verdict from the data, and the count that trips it
must be the one the cell's leak feeds.
"""

import json

import pytest

from leakguard.boosting import GbdtParams
from leakguard.dataset import SplitSpec, generate_synthetic_imbalanced
from leakguard.experiment import (
    Placement,
    Preprocessing,
    ScenarioResult,
    ScenarioSpec,
    Verdict,
    run_scenario,
)
from leakguard.sampling import SamplerKind, SamplerPipeline, SamplerSpec

MODEL = GbdtParams(learning_rate=0.3, n_estimators=3, max_depth=2)
SEEDS = (0, 1, 2)
STRATEGY = 1.0
# 40 positives and 360 negatives already sit at this ratio, so a sampler
# with it adds and removes no row.
FIXED_POINT = 40 / 360

CELLS = (
    [(Placement.NO_SAMPLING, None, STRATEGY)]
    + [
        (placement, kind, STRATEGY)
        for placement in (Placement.SAMPLING_AFTER_SPLIT, Placement.SAMPLING_BEFORE_SPLIT)
        for kind in SamplerKind
    ]
    + [(Placement.SAMPLING_BEFORE_SPLIT, kind, FIXED_POINT) for kind in SamplerKind]
)


def cell_id(cell):
    placement, kind, strategy = cell
    name = placement.value if kind is None else f"{kind.value}-{placement.value}"
    return name + ("-fixed-point" if strategy == FIXED_POINT else "")


@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "unstratified"])
@pytest.mark.parametrize("preprocessing", list(Preprocessing), ids=lambda p: p.value)
@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_audit_measures_the_configured_verdict(cell, preprocessing, stratified):
    placement, kind, strategy = cell
    changes_data = placement == Placement.SAMPLING_BEFORE_SPLIT and strategy != FIXED_POINT
    faithful = preprocessing == Preprocessing.PAPER_FAITHFUL
    expected = Verdict.LEAKY if changes_data or faithful else Verdict.CLEAN

    for seed in SEEDS:
        data = generate_synthetic_imbalanced(400, 0.1, 3, 1.5, seed)
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
            # Every pre-split sampler moves the test class counts; the
            # oversamplers also put created rows into the test partition.
            assert leakage.test_class_count_shift > 0, (seed, leakage)
            assert (created > 0) == (kind != SamplerKind.RANDOM_UNDER), (seed, leakage)
        else:
            counts = (created, leakage.duplicate_pairs_across_split, leakage.test_class_count_shift)
            assert counts == (0, 0, 0), (seed, leakage)

