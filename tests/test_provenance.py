"""Row provenance kinds: the array's rules, and an oracle per producer.

The oracle functions below build provenance the way the package did when
each row was a provenance object in a tuple, as a tuple of kind names.
Every producer's kind codes must equal the codes of exactly that tuple.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from leakguard.boosting import GbdtParams
from leakguard.dataset import (
    DUPLICATE,
    KINDS,
    ORIGINAL,
    SYNTHETIC,
    RowProvenance,
    SplitSpec,
    TabularDataset,
    apply_standardizer,
    engineer_time_features,
    fit_standardizer,
    frozen,
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
    return ("original",) * n


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
    kind = "duplicate" if spec.kind == SamplerKind.RANDOM_OVER else "synthetic"
    return prov + (kind,) * n_new


def codes(oracle):
    """The kind codes of a tuple of kind names."""
    return np.array([KINDS.index(kind) for kind in oracle], np.int8)


def assert_kinds(provenance, oracle):
    assert provenance.dtype == np.int8
    assert np.array_equal(provenance, codes(oracle))


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
    assert_kinds(generated.provenance, old_original(300))
    save_csv(generated, tmp_path / "d.csv")
    assert_kinds(load_csv(tmp_path / "d.csv").provenance, old_original(300))


@pytest.mark.parametrize("stratified", [True, False])
def test_split_and_select_rows_match_the_oracle(stratified):
    d = data()
    spec = SplitSpec(0.25, 9, stratified)
    train, test = stratified_split(d, spec)
    train_idx, test_idx = old_split_indices(d.labels, spec)
    assert_kinds(train.provenance, old_select(old_original(300), train_idx))
    assert_kinds(test.provenance, old_select(old_original(300), test_idx))
    # A resampled dataset mixes kinds, so selecting from it moves them.
    smote = SamplerSpec(SamplerKind.SMOTE, 0.5, 3, seed=1)
    mixed = resample(d, smote)
    mixed_oracle = old_resample(old_original(300), d.labels, smote)
    picks = [5, 0, 5, 299, 17, mixed.n_rows - 1, 300]
    assert_kinds(mixed.select_rows(picks).provenance, old_select(mixed_oracle, picks))
    train, test = stratified_split(mixed, spec)
    train_idx, test_idx = old_split_indices(mixed.labels, spec)
    assert_kinds(train.provenance, old_select(mixed_oracle, train_idx))
    assert_kinds(test.provenance, old_select(mixed_oracle, test_idx))
    picks = [3, 1, 1, train.n_rows - 1]
    assert_kinds(train.select_rows(picks).provenance, old_select(old_select(mixed_oracle, train_idx), picks))


@pytest.mark.parametrize("spec", ALL_SAMPLERS, ids=lambda s: s.kind.value)
def test_each_sampler_matches_the_oracle(spec):
    d = data()
    split = SplitSpec(0.25, 9, True)
    train, _ = stratified_split(d, split)
    train_oracle = old_select(old_original(300), old_split_indices(d.labels, split)[0])
    oracle = old_resample(train_oracle, train.labels, spec)
    out = resample(train, spec)
    assert_kinds(out.provenance, oracle)
    # Resampling a resampled dataset duplicates created rows too.
    again_spec = SamplerSpec(SamplerKind.RANDOM_OVER, 1.0, seed=5)
    again = resample(out, again_spec)
    assert_kinds(again.provenance, old_resample(oracle, out.labels, again_spec))


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
    assert_kinds(out.provenance, oracle)
    assert set(out.provenance.tolist()) == {0, 1, 2}


def test_preprocessing_carries_provenance_through():
    d = data()
    train, _ = stratified_split(d, SplitSpec(0.25, 9, True))
    prov = train.provenance
    scaled = apply_standardizer(train, fit_standardizer(train, train.feature_names))
    assert np.array_equal(scaled.provenance, prov)
    timed = TabularDataset(
        features=np.column_stack([np.arange(train.n_rows) * 900.0, train.features]),
        feature_names=("Time",) + train.feature_names,
        labels=train.labels,
        provenance=train.provenance,
    )
    params = fit_standardizer(timed, ["Time"])
    assert np.array_equal(engineer_time_features(timed, True, params).provenance, prov)


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
        assert_kinds(stratified_split(sampled, split).test.provenance, oracle_test)
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
    kinds = Counter(oracle_test)
    assert result.test_provenance_counts == {k: kinds[k] for k in KINDS}


# --- the kind array itself -------------------------------------------------


MIXED = (
    RowProvenance.original(4),
    SYNTHETIC,
    DUPLICATE,
    SYNTHETIC,
    RowProvenance.SYNTHETIC,
    RowProvenance.original(7),
)


def test_rows_are_stored_as_kind_codes():
    made = TabularDataset(np.zeros((6, 1)), ("a",), np.zeros(6, np.int64), MIXED)
    assert made.provenance.dtype == np.int8
    assert made.provenance.tolist() == [0, 2, 1, 2, 2, 0]
    assert KINDS == ("original", "duplicate", "synthetic")
    assert (ORIGINAL, DUPLICATE, SYNTHETIC) == tuple(RowProvenance) == (0, 1, 2)
    assert TabularDataset(np.zeros((0, 1)), ("a",), [], ()).provenance.dtype == np.int8


def test_kinds_are_immutable():
    data = generate_synthetic_imbalanced(20, 0.2, 1, 1.0, 0)
    with pytest.raises(ValueError):
        data.provenance[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.provenance = np.zeros(20, np.int8)


RANGE_MESSAGE = r"^provenance must be integer kind codes in \[0, 2\]$"


@pytest.mark.parametrize(
    "kinds, message",
    [
        ([3], RANGE_MESSAGE),
        ([-1], RANGE_MESSAGE),
        ([256], RANGE_MESSAGE),
        ([0, 0], "provenance length"),
        ([True], RANGE_MESSAGE),
        ([0.0], RANGE_MESSAGE),
        ([[0]], "provenance length"),
        (np.array([200], np.uint8), RANGE_MESSAGE),
        (np.array(["original"]), RANGE_MESSAGE),
    ],
    ids=["kind-range", "negative", "wraps-in-int8", "lengths", "bool", "float", "2-D",
         "unsigned-range", "kind-name"],
)
def test_invalid_kinds_refused(kinds, message):
    # An array and a plain list go through one check.
    for given in (np.array(kinds), np.asarray(kinds).tolist()):
        with pytest.raises(ValueError, match=message):
            TabularDataset(np.zeros((1, 1)), ("a",), [0], given)


def test_kind_codes_of_another_dtype_are_copied():
    given = np.array([0, 2, 1], dtype=np.int64)
    data = TabularDataset(np.zeros((3, 1)), ("a",), [0, 1, 0], given)
    assert data.provenance.dtype == np.int8 and not data.provenance.flags.writeable
    given[0] = 1
    assert data.provenance.tolist() == [0, 2, 1]
    kept = frozen(np.array([0, 2, 1], np.int8))
    assert TabularDataset(np.zeros((3, 1)), ("a",), [0, 1, 0], kept).provenance is kept


def test_tuple_provenance_validates_as_before():
    """A tuple of members, a list of codes and an int8 array are one input,
    checked by one rule."""
    features, labels = np.zeros((2, 1)), np.array([0, 1])
    for given in ((RowProvenance.original(0), DUPLICATE), [0, 1], np.array([0, 1], np.int8)):
        assert TabularDataset(features, ("a",), labels, given).provenance.tolist() == [0, 1]
    with pytest.raises(ValueError, match="provenance length"):
        TabularDataset(features, ("a",), labels, (RowProvenance.original(0),))
    with pytest.raises(ValueError, match=RANGE_MESSAGE):
        TabularDataset(features, ("a",), labels, (RowProvenance.original(0), "original"))
