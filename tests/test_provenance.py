"""ProvenanceColumns: the sequence it presents, and an oracle per producer.

The oracle functions below build provenance the way the package did when
each row was a RowProvenance object in a tuple. Every producer's columns
must read back as exactly that tuple.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from leakguard.boosting import GbdtParams
from leakguard.dataset import (
    HourMode,
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
    assert generated.provenance == old_original(300)
    save_csv(generated, tmp_path / "d.csv")
    assert load_csv(tmp_path / "d.csv").provenance == old_original(300)


@pytest.mark.parametrize("stratified", [True, False])
def test_split_and_select_rows_match_the_oracle(stratified):
    d = data()
    spec = SplitSpec(0.25, 9, stratified)
    train, test = stratified_split(d, spec)
    train_idx, test_idx = old_split_indices(d.labels, spec)
    assert train.provenance == old_select(old_original(300), train_idx)
    assert test.provenance == old_select(old_original(300), test_idx)
    picks = [5, 0, 5, 299, 17]
    assert d.select_rows(picks).provenance == old_select(old_original(300), picks)
    twice = train.select_rows([3, 1, 1])
    assert twice.provenance == old_select(old_select(old_original(300), train_idx), [3, 1, 1])


@pytest.mark.parametrize("spec", ALL_SAMPLERS, ids=lambda s: s.kind.value)
def test_each_sampler_matches_the_oracle(spec):
    d = data()
    # Run on a split partition, so sources are not just row numbers.
    train, _ = stratified_split(d, SplitSpec(0.25, 9, True))
    out = resample(train, spec)
    assert out.provenance == old_resample(tuple(train.provenance), train.labels, spec)
    # Resampling a resampled dataset duplicates created rows too.
    again_spec = SamplerSpec(SamplerKind.RANDOM_OVER, 1.0, seed=5)
    again = resample(out, again_spec)
    assert again.provenance == old_resample(tuple(out.provenance), out.labels, again_spec)


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
    assert out.provenance == oracle
    assert out.provenance.method_names == ("smote", "gaussian")


def test_preprocessing_carries_provenance_through():
    d = data()
    train, _ = stratified_split(d, SplitSpec(0.25, 9, True))
    prov = tuple(train.provenance)
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
        assert stratified_split(sampled, split)[1].provenance == oracle_test
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


# --- the sequence it presents ----------------------------------------------


MIXED = (
    RowProvenance.original(4),
    RowProvenance.synthetic("smote"),
    RowProvenance.duplicate(0),
    RowProvenance.synthetic("gaussian"),
    RowProvenance("synthetic", source_index=2, method="smote"),
    RowProvenance("original", source_index=7, method="tagged"),
)


def test_sequence_reads_back_the_rows():
    cols = ProvenanceColumns.from_rows(MIXED)
    assert len(cols) == 6
    assert tuple(cols) == MIXED
    assert [cols[i] for i in range(-6, 6)] == list(MIXED + MIXED)
    assert cols[np.int64(2)] == MIXED[2]
    with pytest.raises(IndexError):
        cols[6]
    with pytest.raises(TypeError):
        cols["1"]
    for item in (slice(1, 4), slice(None, None, -2), slice(10, 20), slice(None)):
        part = cols[item]
        assert isinstance(part, ProvenanceColumns)
        assert part == MIXED[item]
    assert MIXED[1] in cols and cols.count(MIXED[1]) == 1 and cols.index(MIXED[2]) == 2


def test_concatenation_with_tuples_and_columns():
    cols = ProvenanceColumns.from_rows(MIXED)
    extra = (RowProvenance.synthetic("new"), RowProvenance.original(1))
    for joined, expected in (
        (cols + extra, MIXED + extra),
        (extra + cols, extra + MIXED),
        (cols[3:] + cols[:3], MIXED[3:] + MIXED[:3]),
        (ProvenanceColumns.from_rows(extra) + cols, extra + MIXED),
        (cols + (), MIXED),
        (() + cols, MIXED),
    ):
        assert isinstance(joined, ProvenanceColumns)
        assert tuple(joined) == expected
    with pytest.raises(TypeError):
        cols + [RowProvenance.original(0)]


def test_equality():
    cols = ProvenanceColumns.from_rows(MIXED)
    assert cols == MIXED and MIXED == cols
    assert cols != MIXED[:-1]
    assert cols != MIXED[:-1] + (RowProvenance.original(8),)
    assert cols != MIXED[:-1] + ("not a row",)
    assert cols != list(MIXED)
    # Same rows under a different method table order are equal.
    reordered = ProvenanceColumns.from_rows(MIXED[3:]) + ProvenanceColumns.from_rows(MIXED[:3])
    assert reordered.method_names != cols.method_names
    assert reordered[3:] + reordered[:3] == cols
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
    cols = ProvenanceColumns.from_rows(MIXED)
    assert (cols.kinds.dtype, cols.sources.dtype, cols.methods.dtype) == (np.int8, np.int64, np.int8)
    assert cols.kinds.tolist() == [0, 2, 1, 2, 2, 0]
    assert cols.sources.tolist() == [4, -1, 0, -1, 2, 7]
    assert cols.method_names == ("smote", "gaussian", "tagged")
    assert cols.methods.tolist() == [-1, 0, -1, 1, 0, 2]


@pytest.mark.parametrize(
    "kinds, sources, methods, names, message",
    [
        ([3], [0], [-1], (), "kinds"),
        ([0], [-2], [-1], (), "sources"),
        ([0], [-1], [-1], (), "source_index"),
        ([1], [-1], [-1], (), "source_index"),
        ([2], [-1], [-1], (), "method name"),
        ([2], [-1], [0], ("",), "method name"),
        ([0], [0], [1], ("a",), "methods"),
        ([0, 0], [0], [-1], (), "one entry per row"),
        ([True], [0], [-1], (), "integer"),
        ([0.0], [0], [-1], (), "integer"),
        ([[0]], [0], [-1], (), "1-D"),
        ([2], [-1], [0], ("a", "a"), "distinct"),
    ],
)
def test_invalid_columns_refused(kinds, sources, methods, names, message):
    with pytest.raises(ValueError, match=message):
        ProvenanceColumns(np.array(kinds), np.array(sources), np.array(methods), names)


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
