"""ProvenanceColumns: its rules, and an oracle per producer.

The oracle functions below build provenance the way the package did when
each row was a RowProvenance object in a tuple. Every producer's columns
must equal the columns of exactly that tuple.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from leakguard.boosting import GbdtParams
from leakguard.dataset import (
    HourMode,
    SYNTHETIC_METHODS,
    ProvenanceColumns,
    RowProvenance,
    SplitSpec,
    TabularDataset,
    apply_standardizer,
    engineer_time_features,
    fit_standardizer,
    generate_synthetic_imbalanced,
    load_csv,
    round_half_up,
    save_csv,
    stratified_split,
)
from leakguard.experiment import Placement, ScenarioSpec, run_scenario
from leakguard.sampling import SamplerKind, SamplerPipeline, SamplerSpec, apply_pipeline, resample

# --- the tuple-building oracle ---------------------------------------------


def old_original(n):
    return tuple(RowProvenance.original(i) for i in range(n))


def old_select(prov, indices):
    return tuple(prov[i] for i in np.asarray(indices, dtype=np.int64))


def old_split_indices(labels, spec):
    rng = np.random.default_rng(spec.seed)
    test_idx = []
    if spec.stratified:
        for cls in (0, 1):
            cls_idx = np.flatnonzero(labels == cls)
            n_test = round_half_up(cls_idx.size * spec.test_fraction)
            test_idx.append(rng.permutation(cls_idx)[:n_test])
    else:
        n_test = round_half_up(labels.size * spec.test_fraction)
        test_idx.append(rng.permutation(labels.size)[:n_test])
    test_set = np.sort(np.concatenate(test_idx))
    mask = np.zeros(labels.size, dtype=bool)
    mask[test_set] = True
    return np.flatnonzero(~mask), test_set


def old_resample(prov, labels, spec):
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    min_idx, maj_idx = (pos, neg) if pos.size <= neg.size else (neg, pos)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == SamplerKind.RANDOM_UNDER:
        target_maj = round_half_up(min_idx.size / spec.sampling_strategy)
        if target_maj == maj_idx.size:
            return prov
        survivors = rng.choice(maj_idx, size=target_maj, replace=False)
        return old_select(prov, np.sort(np.concatenate([min_idx, survivors])))
    n_new = round_half_up(spec.sampling_strategy * maj_idx.size) - min_idx.size
    if n_new == 0:
        return prov
    if spec.kind == SamplerKind.RANDOM_OVER:
        sources = rng.choice(min_idx, size=n_new, replace=True)
        return prov + tuple(RowProvenance.duplicate(int(s)) for s in sources)
    method = "smote" if spec.kind == SamplerKind.SMOTE else "gaussian"
    return prov + (RowProvenance.synthetic(method),) * n_new


def columns(oracle):
    return ProvenanceColumns.from_rows(oracle)


# --- the producers against the oracle --------------------------------------


def data(seed=3, n=300):
    return generate_synthetic_imbalanced(n, 0.1, 3, 1.5, seed)


ALL_SAMPLERS = [
    SamplerSpec(SamplerKind.RANDOM_OVER, 0.6, seed=4),
    SamplerSpec(SamplerKind.RANDOM_UNDER, 0.5, seed=4),
    SamplerSpec(SamplerKind.SMOTE, 0.8, 3, seed=4),
    SamplerSpec(SamplerKind.GAUSSIAN_SYNTH, 0.7, seed=4),
]


def test_generate_and_load_give_originals(tmp_path):
    generated = data()
    assert isinstance(generated.provenance, ProvenanceColumns)
    assert generated.provenance == columns(old_original(300))
    save_csv(generated, tmp_path / "d.csv")
    assert load_csv(tmp_path / "d.csv").provenance == columns(old_original(300))


@pytest.mark.parametrize("stratified", [True, False])
def test_split_and_select_rows_match_the_oracle(stratified):
    d = data()
    spec = SplitSpec(0.25, 9, stratified)
    train, test = stratified_split(d, spec)
    train_idx, test_idx = old_split_indices(d.labels, spec)
    assert train.provenance == columns(old_select(old_original(300), train_idx))
    assert test.provenance == columns(old_select(old_original(300), test_idx))
    picks = [5, 0, 5, 299, 17]
    assert d.select_rows(picks).provenance == columns(old_select(old_original(300), picks))
    twice = train.select_rows([3, 1, 1])
    assert twice.provenance == columns(old_select(old_select(old_original(300), train_idx), [3, 1, 1]))


@pytest.mark.parametrize("spec", ALL_SAMPLERS, ids=lambda s: s.kind.value)
def test_each_sampler_matches_the_oracle(spec):
    d = data()
    # Run on a split partition, so sources are not just row numbers.
    split = SplitSpec(0.25, 9, True)
    train, _ = stratified_split(d, split)
    train_oracle = old_select(old_original(300), old_split_indices(d.labels, split)[0])
    oracle = old_resample(train_oracle, train.labels, spec)
    out = resample(train, spec)
    assert out.provenance == columns(oracle)
    # Resampling a resampled dataset duplicates created rows too.
    again_spec = SamplerSpec(SamplerKind.RANDOM_OVER, 1.0, seed=5)
    again = resample(out, again_spec)
    assert again.provenance == columns(old_resample(oracle, out.labels, again_spec))


def test_pipeline_of_mixed_methods_matches_the_oracle():
    d = data()
    steps = (
        SamplerSpec(SamplerKind.SMOTE, 0.3, 3, seed=1),
        SamplerSpec(SamplerKind.GAUSSIAN_SYNTH, 0.6, seed=2),
        SamplerSpec(SamplerKind.RANDOM_OVER, 0.9, seed=3),
    )
    out = apply_pipeline(d, SamplerPipeline(steps=steps))
    oracle, current = old_original(300), d
    for spec in steps:
        oracle = old_resample(oracle, current.labels, spec)
        current = resample(current, spec)
    assert out.provenance == columns(oracle)
    assert set(out.provenance.methods.tolist()) == {-1, 0, 1}


def test_preprocessing_carries_provenance_through():
    d = data()
    train, _ = stratified_split(d, SplitSpec(0.25, 9, True))
    prov = train.provenance
    scaled = apply_standardizer(train, fit_standardizer(train, train.feature_names))
    assert scaled.provenance == prov
    timed = TabularDataset(
        features=np.column_stack([np.arange(train.n_rows) * 900.0, train.features]),
        feature_names=("Time",) + train.feature_names,
        labels=train.labels,
        provenance=train.provenance,
    )
    params = fit_standardizer(timed, ["Time"])
    assert engineer_time_features(timed, HourMode.CORRECTED, params).provenance == prov


@pytest.mark.parametrize("placement", [Placement.SAMPLING_BEFORE_SPLIT, Placement.SAMPLING_AFTER_SPLIT])
@pytest.mark.parametrize("spec", ALL_SAMPLERS, ids=lambda s: s.kind.value)
def test_placements_count_the_oracle_kinds(placement, spec):
    d = data()
    split = SplitSpec(0.25, 9, True)
    pipeline = SamplerPipeline(steps=(spec,))
    if placement == Placement.SAMPLING_BEFORE_SPLIT:
        sampled = apply_pipeline(d, pipeline)
        oracle = old_resample(old_original(300), d.labels, spec)
        _, test_idx = old_split_indices(sampled.labels, split)
        oracle_test = old_select(oracle, test_idx)
        assert stratified_split(sampled, split)[1].provenance == columns(oracle_test)
    else:
        _, test_idx = old_split_indices(d.labels, split)
        oracle_test = old_select(old_original(300), test_idx)
    result = run_scenario(
        d,
        ScenarioSpec(
            name="p",
            placement=placement,
            pipeline=pipeline,
            split=split,
            model=GbdtParams(learning_rate=0.3, n_estimators=2, max_depth=2),
        ),
    )
    kinds = Counter(p.kind for p in oracle_test)
    assert result.test_provenance_counts == {k: kinds[k] for k in RowProvenance.KINDS}


# --- the columns themselves ------------------------------------------------


MIXED = (
    RowProvenance.original(4),
    RowProvenance.synthetic("smote"),
    RowProvenance.duplicate(0),
    RowProvenance.synthetic("gaussian"),
    RowProvenance("synthetic", source_index=2, method="smote"),
    RowProvenance.original(7),
)


def test_concatenation_joins_columns_only():
    cols = columns(MIXED)
    head, tail = columns(MIXED[:2]), columns(MIXED[2:])
    assert head + tail == cols
    assert len(cols + cols) == 12 and (cols + cols).take(np.arange(6, 12)) == cols
    assert cols + columns(()) == cols
    for other in ((RowProvenance.original(0),), [RowProvenance.original(0)], ()):
        with pytest.raises(TypeError):
            cols + other
        with pytest.raises(TypeError):
            other + cols


def test_equality():
    cols = columns(MIXED)
    assert cols == columns(MIXED) and cols.take(np.arange(6)) == cols
    assert cols != columns(MIXED[:-1])
    assert cols != columns(MIXED[:-1] + (RowProvenance.original(8),))
    assert cols != columns(MIXED[:-1] + (RowProvenance.duplicate(7),))
    assert cols != columns(MIXED[:3] + (RowProvenance.synthetic("smote"),) + MIXED[4:])
    # Columns equal only columns, never the rows they were built from.
    assert cols != MIXED and cols != list(MIXED)
    with pytest.raises(TypeError):
        hash(cols)


def test_columns_are_immutable():
    cols = ProvenanceColumns.original(3)
    for values in (cols.kinds, cols.sources, cols.methods):
        with pytest.raises(ValueError):
            values[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cols.kinds = np.zeros(3, np.int8)


def test_dtypes_and_codes():
    cols = columns(MIXED)
    assert (cols.kinds.dtype, cols.sources.dtype, cols.methods.dtype) == (np.int8, np.int64, np.int8)
    assert cols.kinds.tolist() == [0, 2, 1, 2, 2, 0]
    assert cols.sources.tolist() == [4, -1, 0, -1, 2, 7]
    assert SYNTHETIC_METHODS == ("smote", "gaussian")
    assert cols.methods.tolist() == [-1, 0, -1, 1, 0, -1]


@pytest.mark.parametrize(
    "kinds, sources, methods, message",
    [
        ([3], [0], [-1], "kinds"),
        ([0], [-2], [-1], "sources"),
        ([0], [-1], [-1], "source_index"),
        ([1], [-1], [-1], "source_index"),
        ([2], [-1], [-1], "method code"),
        ([0], [0], [0], "cannot name a method"),
        ([2], [-1], [len(SYNTHETIC_METHODS)], "methods"),
        ([0, 0], [0], [-1], "one entry per row"),
        ([True], [0], [-1], "integer"),
        ([0.0], [0], [-1], "integer"),
        ([[0]], [0], [-1], "1-D"),
    ],
    ids=[
        "kind-range", "source-range", "original-source", "duplicate-source", "synthetic-method",
        "original-method", "method-range", "lengths", "bool", "float", "2-D",
    ],
)
def test_invalid_columns_refused(kinds, sources, methods, message):
    with pytest.raises(ValueError, match=message):
        ProvenanceColumns(np.array(kinds), np.array(sources), np.array(methods))


def test_tuple_provenance_validates_as_before():
    features, labels = np.zeros((2, 1)), np.array([0, 1])
    made = TabularDataset(features, ("a",), labels, (RowProvenance.original(0), RowProvenance.duplicate(0)))
    assert isinstance(made.provenance, ProvenanceColumns)
    with pytest.raises(ValueError, match="provenance length"):
        TabularDataset(features, ("a",), labels, (RowProvenance.original(0),))
    with pytest.raises(TypeError, match="RowProvenance"):
        TabularDataset(features, ("a",), labels, (RowProvenance.original(0), "original"))
    with pytest.raises(ValueError, match="source_index cannot be negative"):
        RowProvenance("synthetic", source_index=-1, method="smote")
    for method in ("tagged", "", None):
        with pytest.raises(ValueError, match="synthetic provenance needs a method from"):
            RowProvenance("synthetic", method=method)
    for kind in ("original", "duplicate"):
        with pytest.raises(ValueError, match=f"{kind} provenance cannot name a method"):
            RowProvenance(kind, source_index=0, method="smote")
