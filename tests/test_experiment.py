import dataclasses
import functools
import hashlib
import json
import struct
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from leakguard import dataset as dataset_module
from leakguard import experiment
from leakguard.boosting import GbdtParams
from leakguard.dataset import (
    ORIGINAL,
    SYNTHETIC,
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
from leakguard.experiment import (
    Placement,
    Preprocessing,
    ScenarioError,
    ScenarioResult,
    ScenarioSpec,
    Verdict,
    compare_scenarios,
    dataset_fingerprint,
    detect_leakage,
    matching_row_pairs,
    run_scenario,
)
from leakguard.sampling import SamplerKind, SamplerPipeline, SamplerSpec, apply_pipeline, resample
from test_leak_matrix import copy_within_class

FAST_MODEL = GbdtParams(learning_rate=0.3, n_estimators=8, max_depth=3)


def smote_pipeline(strategy=1.0, seed=7):
    return SamplerPipeline(steps=(SamplerSpec(SamplerKind.SMOTE, strategy, 5, seed),))


def small_data(seed=11):
    return generate_synthetic_imbalanced(800, 0.05, 4, 1.5, seed)


def scenario(name, placement, pipeline=None, preprocessing=Preprocessing.GUARDED,
             split_seed=42, threshold=0.5, model=FAST_MODEL):
    return ScenarioSpec(
        name=name,
        placement=placement,
        pipeline=pipeline,
        preprocessing=preprocessing,
        split=SplitSpec(0.2, split_seed, True),
        model=model,
        threshold=threshold,
    )


def brute_force_duplicate_pairs(train, test):
    count = 0
    for i in range(test.n_rows):
        for j in range(train.n_rows):
            if np.array_equal(test.features[i], train.features[j]):
                count += 1
    return count


def counter_duplicate_pairs(train_features, test_features):
    """The audit's former count: a Counter keyed by each train row's bytes."""
    train_counts = Counter(row.tobytes() for row in train_features)
    return sum(train_counts[row.tobytes()] for row in test_features)


def sides_left_without_a_class(data, split):
    """(side, class) for each class a side of the split would lack, from a
    replay of the split's draw: one seeded permutation per class when
    stratified, else one of all rows, each moving round-half-up(size *
    fraction) rows to test."""
    rng = np.random.default_rng(split.seed)
    if split.stratified:
        groups = [np.flatnonzero(data.labels == c) for c in (0, 1)]
    else:
        groups = [np.arange(data.n_rows)]
    fraction = split.test_fraction
    test = np.concatenate([rng.permutation(g)[: round_half_up(g.size * fraction)] for g in groups])
    train = np.setdiff1d(np.arange(data.n_rows), test)
    return [
        (side, c)
        for side, rows in (("train", train), ("test", test))
        for c in (0, 1)
        if c not in data.labels[rows]
    ]


def nan_with_payload(payload):
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def pre_split_random_over():
    """A pre-split random_over sample's partitions: copies of one minority
    row on both sides, so each test copy matches many train rows."""
    data = resample(small_data(), SamplerSpec(SamplerKind.RANDOM_OVER, 1.0, 5, 3))
    train, test = stratified_split(data, SplitSpec(0.2, 1, True))
    return train.features, test.features


def matching_cases():
    rng = np.random.default_rng(17)
    signed = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0]])
    nans = np.array([[nan_with_payload(1), 2.0], [nan_with_payload(2), 2.0], [np.nan, 2.0]])
    small_ints = rng.integers(0, 3, size=(300, 3)).astype(float)
    one_column = rng.integers(0, 5, size=(200, 1)).astype(float)
    distinct = rng.standard_normal((500, 4))
    return {
        "signed-zeros": (signed, signed[[1, 1, 2]]),
        "nan-payloads": (nans, nans[[0, 2, 2, 1]]),
        "pre-split-random-over": pre_split_random_over(),
        "all-identical": (np.full((40, 3), 0.25), np.full((15, 3), 0.25)),
        "one-column": (one_column[:150], one_column[150:]),
        "zero-columns": (np.empty((7, 0)), np.empty((3, 0))),
        "small-integers": (small_ints[:220], small_ints[220:]),
        "no-matches": (distinct[:400], distinct[400:]),
        "several-query-blocks": (small_ints[:100, :2], rng.integers(0, 4, (9000, 2)).astype(float)),
    }


class TestMatchingRowPairs:
    """matching_row_pairs against the Counter over row bytes it replaced."""

    @pytest.mark.parametrize("case", list(matching_cases()))
    def test_matches_the_counter_over_row_bytes(self, case):
        reference, queries = matching_cases()[case]
        expected = counter_duplicate_pairs(reference, queries)
        assert matching_row_pairs(reference, queries) == expected
        assert matching_row_pairs(queries, reference) == expected
        if case in ("pre-split-random-over", "all-identical", "small-integers",
                    "several-query-blocks"):
            assert expected > queries.shape[0]
        if case == "no-matches":
            assert expected == 0

    def test_bytes_not_values_decide(self):
        signed, nans = matching_cases()["signed-zeros"][0], matching_cases()["nan-payloads"][0]
        assert matching_row_pairs(signed[:1], signed[1:2]) == 0  # 0.0 == -0.0 as values
        assert matching_row_pairs(nans[:1], nans[:1]) == 1  # nan != nan as values
        assert matching_row_pairs(nans[:1], nans[1:]) == 0

    def test_zero_columns_match_every_pair(self):
        assert matching_row_pairs(np.empty((7, 0)), np.empty((3, 0))) == 21


class TestDetectLeakage:
    def test_disjoint_original_partitions_are_clean(self):
        data = small_data()
        split = SplitSpec(0.2, 1, True)
        train, test = stratified_split(data, split)
        report = detect_leakage(train, test, False, data)
        assert report.verdict == Verdict.CLEAN
        assert report.synthetic_rows_in_test == 0
        assert report.duplicate_pairs_across_split == 0

    def test_planted_duplicate_detected(self):
        data = small_data()
        split = SplitSpec(0.2, 1, True)
        train, test = stratified_split(data, split)
        polluted = TabularDataset(
            features=np.vstack([test.features, train.features[:1]]),
            feature_names=test.feature_names,
            labels=np.concatenate([test.labels, train.labels[:1]]),
            provenance=np.append(test.provenance, ORIGINAL),
        )
        report = detect_leakage(train, polluted, False, data)
        assert report.duplicate_pairs_across_split >= 1
        assert report.class_count_change == 1
        assert report.verdict == Verdict.LEAKY

    def test_duplicate_count_matches_brute_force_scan(self):
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 3, size=(40, 2)).astype(float)  # forced collisions
        labels = rng.integers(0, 2, 40)
        labels[:2] = (0, 1)
        prov = tuple(RowProvenance.original(i) for i in range(40))
        data = TabularDataset(pool, ("a", "b"), labels, prov)
        train = data.select_rows(range(25))
        test = data.select_rows(range(25, 40))
        report = detect_leakage(train, test, False, data)
        assert report.duplicate_pairs_across_split == brute_force_duplicate_pairs(train, test)
        assert report.duplicate_pairs_across_split > 0

    def test_synthetic_provenance_in_test_counted(self):
        data = small_data()
        split = SplitSpec(0.2, 1, True)
        train, test = stratified_split(data, split)
        tainted = TabularDataset(
            features=test.features,
            feature_names=test.feature_names,
            labels=test.labels,
            provenance=np.append(SYNTHETIC, test.provenance[1:]),
        )
        report = detect_leakage(train, tainted, False, data)
        # A tag on an unchanged row is bookkeeping: the rows are still a
        # split of the loaded data.
        assert report.synthetic_rows_in_test == 1
        assert report.class_count_change == 0
        assert report.verdict == Verdict.CLEAN

    @pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "unstratified"])
    def test_duplicates_in_the_loaded_data_do_not_make_a_split_leaky(self, stratified):
        copied = copy_within_class(small_data(), 3)
        train, test = stratified_split(copied, SplitSpec(0.2, 1, stratified))
        report = detect_leakage(train, test, False, copied)
        assert report.duplicate_pairs_across_split > 0
        assert (report.synthetic_rows_in_test, report.class_count_change) == (0, 0)
        assert report.verdict == Verdict.CLEAN

    def test_full_data_scaler_flag_forces_leaky(self):
        data = small_data()
        split = SplitSpec(0.2, 1, True)
        train, test = stratified_split(data, split)
        report = detect_leakage(train, test, True, data)
        assert report.scaler_fitted_on_full_data
        assert report.verdict == Verdict.LEAKY


class TestClassCountChange:
    @pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "unstratified"])
    @pytest.mark.parametrize("fraction", [0.1, 0.2, 0.25, 0.5, 0.9])
    def test_a_split_of_the_loaded_data_changes_nothing(self, stratified, fraction):
        for seed in range(5):
            data = generate_synthetic_imbalanced(403, 0.07, 3, 1.5, seed)
            split = SplitSpec(fraction, seed, stratified)
            left_out = sides_left_without_a_class(data, split)
            if left_out:
                side, cls = left_out[0]
                with pytest.raises(ValueError, match=f"leaves class {cls} out of the {side} side"):
                    stratified_split(data, split)
                continue
            train, test = stratified_split(data, split)
            assert detect_leakage(train, test, False, data).class_count_change == 0

    def test_each_added_or_removed_row_counts_once(self):
        data = small_data()
        train, test = stratified_split(data, SplitSpec(0.2, 1, True))
        dropped = train.select_rows(range(1, train.n_rows))
        assert detect_leakage(dropped, test, False, data).class_count_change == 1
        labels = test.labels.copy()
        labels[np.flatnonzero(labels == 1)[0]] = 0  # one positive fewer, one negative more
        relabelled = TabularDataset(test.features, test.feature_names, labels, test.provenance)
        assert detect_leakage(train, relabelled, False, data).class_count_change == 2

    @pytest.mark.parametrize("stratified", [True, False])
    def test_pre_split_undersampling_is_leaky(self, stratified):
        # The demo data: undersampled to 0.5 before the split, the test set
        # holds 120 rows instead of 4,000, with a third of them positive.
        data = generate_synthetic_imbalanced(20000, 0.01, 10, 1.2, 42)
        pipeline = SamplerPipeline(steps=(SamplerSpec(SamplerKind.RANDOM_UNDER, 0.5, seed=7),))
        spec = dataclasses.replace(
            scenario("under-pre", Placement.SAMPLING_BEFORE_SPLIT, pipeline),
            split=SplitSpec(0.2, 42, stratified),
        )
        result = run_scenario(data, spec)
        assert len(result.test_labels) == 120
        assert result.leakage.synthetic_rows_in_test == 0
        assert result.leakage.duplicate_pairs_across_split == 0
        # 19,800 negatives undersampled to 400; the split moves none of them.
        assert result.leakage.class_count_change == 19400
        assert result.leakage.verdict == Verdict.LEAKY
        spec = dataclasses.replace(spec, placement=Placement.SAMPLING_AFTER_SPLIT)
        clean = run_scenario(data, spec).leakage
        assert (clean.class_count_change, clean.verdict) == (0, Verdict.CLEAN)


def check_overflowing_scaling_fails_in_preprocessing(schema):
    # Fitted on the train partition alone, the column's std_dev is about
    # 4e-152, so the last test row's 1e200 scales past the float range.
    data = small_data()
    features = data.features.copy()
    names, column, scaled = data.feature_names, 2, "f3"
    if schema == "time":
        names, column, scaled = ("Time", "V1", "V2", "Amount"), 3, "Amount_Scaled"
        features[:, 0] = np.arange(data.n_rows) * 60.0
    train, test = stratified_split(data, scenario("x", Placement.NO_SAMPLING).split)
    features[:, column] = 0.0
    for part, value in ((train, 1e-150), (test, 1e200)):
        features[np.flatnonzero((data.features == part.features[-1]).all(axis=1)), column] = value
    data = TabularDataset(features, names, data.labels, data.provenance)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(
            ScenarioError,
            match=f"^stage 'preprocessing': column '{scaled}' holds a non-finite value",
        ):
            run_scenario(data, scenario("overflow", Placement.NO_SAMPLING))


class TestRunScenario:
    def test_after_split_is_clean_by_construction(self):
        result = run_scenario(
            small_data(), scenario("post", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline())
        )
        assert result.leakage.synthetic_rows_in_test == 0
        assert result.leakage.verdict == Verdict.CLEAN
        assert result.test_provenance_counts["original"] == sum(
            result.test_class_counts.values()
        )

    def test_before_split_leaks_synthetic_rows_into_test(self):
        result = run_scenario(
            small_data(), scenario("pre", Placement.SAMPLING_BEFORE_SPLIT, smote_pipeline())
        )
        assert result.leakage.synthetic_rows_in_test > 0
        assert result.leakage.verdict == Verdict.LEAKY

    def test_no_sampling_guarded_depends_only_on_train_rows(self):
        data = small_data()
        spec = scenario("baseline", Placement.NO_SAMPLING)
        # Identify the test rows, then corrupt their features: the trained
        # model (and hence the persisted scores on the same rows) only
        # changes through leakage, which the guarded path must not have.
        # Replay the stratified split's draws to find the test rows.
        rng = np.random.default_rng(spec.split.seed)
        test_rows = set()
        for cls in (0, 1):
            cls_idx = np.flatnonzero(data.labels == cls)
            n_test = round_half_up(cls_idx.size * spec.split.test_fraction)
            test_rows.update(rng.permutation(cls_idx)[:n_test].tolist())
        _, test = stratified_split(data, spec.split)
        assert np.array_equal(test.features, data.features[sorted(test_rows)])
        mutated_features = data.features.copy()
        for i in range(data.n_rows):
            if i in test_rows:
                mutated_features[i] = mutated_features[i] + 123.0
        mutated = TabularDataset(
            features=mutated_features,
            feature_names=data.feature_names,
            labels=data.labels,
            provenance=data.provenance,
        )
        from leakguard.boosting import train as train_model
        from leakguard.dataset import apply_standardizer, fit_standardizer

        def train_side_model(source):
            tr, _ = stratified_split(source, spec.split)
            params = fit_standardizer(tr, list(tr.feature_names))
            return train_model(apply_standardizer(tr, params), spec.model).to_json()

        assert train_side_model(data) == train_side_model(mutated)

    def test_paper_faithful_scaler_marks_result_leaky(self):
        result = run_scenario(
            small_data(),
            scenario("faithful", Placement.NO_SAMPLING, preprocessing=Preprocessing.PAPER_FAITHFUL),
        )
        assert result.leakage.scaler_fitted_on_full_data
        assert result.leakage.verdict == Verdict.LEAKY

    def test_deterministic_except_wall_time(self):
        data = small_data()
        spec = scenario("post", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline())
        a = run_scenario(data, spec)
        b = run_scenario(data, spec)
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db

    def test_metrics_recompute_exactly_from_persisted_values(self):
        result = run_scenario(
            small_data(), scenario("post", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline())
        )
        doc = json.loads(json.dumps(result.to_dict()))
        restored = ScenarioResult.from_dict(doc)
        # from_dict derives the metrics from the labels, scores and
        # threshold; equality with the run's own report is exact.
        assert restored.metrics == result.metrics
        assert restored.test_class_counts == result.test_class_counts
        assert restored.to_dict() == doc

    def test_result_dict_round_trip(self):
        result = run_scenario(
            small_data(), scenario("post", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline())
        )
        text = json.dumps(result.to_dict())
        restored = ScenarioResult.from_dict(json.loads(text))
        assert restored.metrics == result.metrics
        assert restored.leakage == result.leakage
        assert restored.scenario == result.scenario
        assert restored.data_fingerprint == result.data_fingerprint

    def test_stage_annotation_on_failure(self):
        bad_pipeline = SamplerPipeline(
            steps=(SamplerSpec(SamplerKind.SMOTE, 1.0, k_neighbors=200, seed=1),)
        )
        with pytest.raises(ScenarioError, match="sampling after split"):
            run_scenario(small_data(), scenario("boom", Placement.SAMPLING_AFTER_SPLIT, bad_pipeline))

    def test_infinite_feature_fails_before_the_run(self):
        data = small_data()
        features = data.features.copy()
        features[::10, 1] = np.inf
        with pytest.raises(ValueError, match="^column 'f2' holds a non-finite value$"):
            TabularDataset(features, data.feature_names, data.labels, data.provenance)

    @pytest.mark.parametrize("schema", ["plain", "time"])
    def test_overflowing_guarded_scaling_fails_in_preprocessing(self, schema):
        check_overflowing_scaling_fails_in_preprocessing(schema)

    def test_overflowing_sampler_fails_in_its_sampling_stage(self):
        # Positives of +-1e200 have a finite mean, but their squared
        # deviations overflow: the Gaussian's std_dev, and so every draw, is
        # infinite.
        data = small_data()
        features = data.features.copy()
        positives = np.flatnonzero(data.labels == 1)
        features[positives, 0] = np.where(np.arange(positives.size) % 2, 1e200, -1e200)
        data = TabularDataset(features, data.feature_names, data.labels, data.provenance)
        pipeline = SamplerPipeline(steps=(SamplerSpec(SamplerKind.GAUSSIAN_SYNTH, 1.0, seed=3),))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(
                ScenarioError,
                match="^stage 'sampling after split': pipeline step 0 .gaussian_synth.: "
                "column 'f1' holds a non-finite value",
            ):
                run_scenario(data, scenario("overflow", Placement.SAMPLING_AFTER_SPLIT, pipeline))

    def test_a_split_without_a_class_on_one_side_fails_before_training(self, monkeypatch):
        def untrainable(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("leakguard.boosting.train", untrainable)
        data = generate_synthetic_imbalanced(2000, 0.004, 5, 1.5, 3)
        spec = dataclasses.replace(
            scenario("one-class-test", Placement.NO_SAMPLING), split=SplitSpec(0.2, 2, False)
        )
        assert sides_left_without_a_class(data, spec.split) == [("test", 1)]
        with pytest.raises(
            ScenarioError,
            match="^stage 'train/test split': the split leaves class 1 out of the test side$",
        ):
            run_scenario(data, spec)

    def test_interrupt_is_not_wrapped_as_stage_failure(self, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("leakguard.boosting.train", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_scenario(small_data(), scenario("stop", Placement.NO_SAMPLING))

    def test_pipeline_required_unless_no_sampling(self):
        with pytest.raises(ValueError, match="pipeline"):
            scenario("bad", Placement.SAMPLING_AFTER_SPLIT, None)
        with pytest.raises(ValueError, match="pipeline"):
            scenario("bad", Placement.NO_SAMPLING, smote_pipeline())

    def test_time_column_gets_hour_and_scaled_preprocessing(self):
        rng = np.random.default_rng(3)
        n = 400
        features = np.column_stack(
            [
                rng.uniform(0, 48 * 3600, n),  # Time: two days of seconds
                rng.normal(size=n),
                rng.uniform(1, 500, n),  # Amount
            ]
        )
        labels = (rng.random(n) < 0.2).astype(int)
        labels[:2] = (0, 1)
        data = TabularDataset(
            features=features,
            feature_names=("Time", "V1", "Amount"),
            labels=labels,
            provenance=tuple(RowProvenance.original(i) for i in range(n)),
        )
        result = run_scenario(data, scenario("cc", Placement.NO_SAMPLING))
        assert result.metrics.confusion.total == sum(result.test_class_counts.values())


def time_data(seed=11):
    """small_data with raw Time and Amount columns."""
    base = small_data(seed)
    rng = np.random.default_rng(seed)
    features = base.features.copy()
    features[:, 0] = np.floor(rng.uniform(0, 2 * 86400, base.n_rows))
    features[:, 3] = np.round(np.exp(features[:, 3] + 3.0), 2)
    return TabularDataset(features, ("Time", "V1", "V2", "Amount"), base.labels, base.provenance)


def whole_partition_preparation(data, spec):
    """The oracle: sample, split and audit as run_scenario does, then
    prepare each whole partition with prepare(partition)."""
    guarded = spec.preprocessing == Preprocessing.GUARDED
    working = data
    if spec.placement == Placement.SAMPLING_BEFORE_SPLIT:
        working = apply_pipeline(working, spec.pipeline)
    train, test = stratified_split(working, spec.split)
    leakage = detect_leakage(train, test, not guarded, data)
    if spec.placement == Placement.SAMPLING_AFTER_SPLIT:
        train = apply_pipeline(train, spec.pipeline)
    fit_source = train if guarded else data
    if "Time" in data.feature_names:
        params = fit_standardizer(fit_source, ["Time", "Amount"])
        prepare = functools.partial(engineer_time_features, wrap_hours=guarded, standardizer=params)
    else:
        params = fit_standardizer(fit_source, data.feature_names)
        prepare = functools.partial(apply_standardizer, params=params)
    return leakage, prepare(train), prepare(test)


class TestBlockedPreparation:
    @pytest.mark.parametrize("blocks", ["below one block", "exactly one block", "ragged"])
    @pytest.mark.parametrize("make_data", [small_data, time_data], ids=["plain", "time"])
    @pytest.mark.parametrize("preprocessing", list(Preprocessing))
    @pytest.mark.parametrize("placement", list(Placement))
    def test_blocks_give_the_whole_partition_bits(
        self, monkeypatch, placement, preprocessing, make_data, blocks
    ):
        """Sides prepared in row blocks, from the loaded data or from their
        own partition, equal the whole partition prepared at once, bit for
        bit. The block holds more rows than any side, exactly the test
        side's rows, or 7 rows, which divides no side."""
        data = make_data()
        pipeline = None if placement == Placement.NO_SAMPLING else smote_pipeline()
        spec = scenario("blocks", placement, pipeline, preprocessing)
        want = whole_partition_preparation(data, spec)
        block_rows = {
            "below one block": 4 * data.n_rows,
            "exactly one block": want[2].n_rows,
            "ragged": 7,
        }[blocks]
        assert all(side.n_rows % 7 for side in want[1:])
        monkeypatch.setattr(experiment, "_PREPARE_BLOCK_ROWS", block_rows)
        got = experiment._prepared_partitions(data, spec)
        assert got[0] == want[0]
        for side, oracle in zip(got[1:], want[1:]):
            assert side.equals(oracle)
            assert side.features.tobytes() == oracle.features.tobytes()
            assert not side.features.flags.writeable

    @pytest.mark.parametrize("schema", ["plain", "time"])
    def test_overflow_in_a_later_block_fails_in_preprocessing(self, monkeypatch, schema):
        """An infinity made by scaling the test side's last row, prepared
        in its last 3-row block, still fails naming the column."""
        monkeypatch.setattr(experiment, "_PREPARE_BLOCK_ROWS", 3)
        check_overflowing_scaling_fails_in_preprocessing(schema)


def test_zero_separation_data_scores_near_chance_auc():
    # Identically distributed classes leave nothing to learn: held-out
    # AUC sits at coin-flip level no matter what the model memorizes.
    data = generate_synthetic_imbalanced(2000, 0.5, 4, 0.0, seed=77)
    result = run_scenario(data, scenario("chance", Placement.NO_SAMPLING))
    assert 0.35 < result.metrics.auc < 0.65


class TestFingerprint:
    def test_order_independent(self):
        data = small_data()
        shuffled = data.select_rows(np.random.default_rng(0).permutation(data.n_rows))
        assert dataset_fingerprint(data) == dataset_fingerprint(shuffled)

    def test_sensitive_to_values_and_multiplicity(self):
        data = small_data()
        bumped = TabularDataset(
            features=np.vstack([data.features, data.features[:1]]),
            feature_names=data.feature_names,
            labels=np.concatenate([data.labels, data.labels[:1]]),
            provenance=np.append(data.provenance, ORIGINAL),
        )
        assert dataset_fingerprint(data) != dataset_fingerprint(bumped)

    def test_derived_datasets_hash_their_own_rows(self):
        data = small_data()
        loaded = dataset_fingerprint(data)
        subset = data.select_rows(np.arange(0, data.n_rows, 2))
        sampled = apply_pipeline(data, smote_pipeline())
        for derived in (subset, sampled):
            assert dataset_fingerprint(derived) == self.per_row_sum(derived) != loaded
        assert dataset_fingerprint(data) == loaded == self.per_row_sum(data)

    @staticmethod
    def per_row_sum(dataset):
        """The fingerprint's definition, one row and one big int at a time."""
        total = 0
        for i in range(dataset.n_rows):
            digest = hashlib.sha256(
                dataset.features[i].tobytes() + bytes([int(dataset.labels[i])])
            ).digest()
            total = (total + int.from_bytes(digest, "big")) % (1 << 256)
        return f"{total:064x}"

    @pytest.mark.parametrize(
        "n_rows,n_features", [(0, 3), (1, 1), (3, 0), (300, 5), (2000, 30), (9000, 2)]
    )
    def test_matches_per_row_sum(self, n_rows, n_features):
        rng = np.random.default_rng(n_rows + n_features)
        unique = rng.standard_normal((max(n_rows // 3, 1), n_features))
        # Rows drawn with replacement, so most occur more than once.
        picks = rng.integers(0, unique.shape[0], n_rows)
        data = TabularDataset(
            features=unique[picks],
            feature_names=tuple(f"f{j}" for j in range(n_features)),
            labels=picks % 2,
            provenance=tuple(RowProvenance.original(i) for i in range(n_rows)),
        )
        assert dataset_fingerprint(data) == self.per_row_sum(data)

    @staticmethod
    def hash_in_small_ranges(monkeypatch, processes):
        """Ranges of 10 rows in blocks of 4, so a range's last block is
        short, hashed in ``processes`` processes."""
        monkeypatch.setattr(dataset_module, "_BLOCK_ROWS", 4)
        monkeypatch.setattr(dataset_module, "_FINGERPRINT_ROWS", 10)
        monkeypatch.setattr(dataset_module, "_parallelism", lambda n_tasks: processes)

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_same_digits_for_any_process_count(self, monkeypatch, processes):
        """Row counts at and one past each range and block boundary."""
        self.hash_in_small_ranges(monkeypatch, processes)
        rng = np.random.default_rng(processes)
        for n_rows in (0, 1, 4, 5, 10, 11, 20, 21, 30, 31):
            data = TabularDataset(
                features=rng.standard_normal((n_rows, 3)),
                feature_names=("a", "b", "c"),
                labels=rng.integers(0, 2, n_rows),
                provenance=np.zeros(n_rows, np.int8),
            )
            assert dataset_fingerprint(data) == self.per_row_sum(data), n_rows

    def test_row_by_row_load_gives_the_same_digits(self, tmp_path, monkeypatch):
        self.hash_in_small_ranges(monkeypatch, 2)
        source = generate_synthetic_imbalanced(37, 0.3, 3, 1.0, seed=4)
        path = tmp_path / "data.csv"
        save_csv(source, path)
        bulk = load_csv(path)
        monkeypatch.setattr(dataset_module, "_parse_bulk", lambda *args: None)
        with pytest.warns(RuntimeWarning, match="loaded row by row"):
            row_by_row = load_csv(path)
        assert dataset_fingerprint(row_by_row) == dataset_fingerprint(bulk)
        assert dataset_fingerprint(bulk) == dataset_fingerprint(source) == self.per_row_sum(source)


class TestCompareScenarios:
    def run_pair(self):
        data = small_data()
        pre = run_scenario(
            data, scenario("pre", Placement.SAMPLING_BEFORE_SPLIT, smote_pipeline())
        )
        post = run_scenario(
            data, scenario("post", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline())
        )
        return pre, post

    def test_inflation_deltas(self):
        pre, post = self.run_pair()
        report = compare_scenarios([pre, post])
        assert report["names"] == ["pre", "post"]
        assert len(report["inflation"]) == 1
        entry = report["inflation"][0]
        assert entry["minuend"] == "pre" and entry["subtrahend"] == "post"
        expected = pre.metrics.recall - post.metrics.recall
        assert abs(entry["deltas"]["recall"] - expected) < 1e-15

    def test_self_comparison_gives_zero_deltas(self):
        _, post = self.run_pair()
        report = compare_scenarios([post, post])
        for entry in report["metric_deltas"]:
            assert all(v == 0.0 for v in entry["deltas"].values())

    def test_leaky_outperforming_clean_flagged(self):
        pre, post = self.run_pair()
        report = compare_scenarios([pre, post])
        if pre.metrics.f1 > post.metrics.f1:
            assert "pre" in report["leaky_outperforming_clean"]

    def test_mismatched_fingerprints_refused(self):
        pre, _ = self.run_pair()
        other = run_scenario(
            small_data(seed=99),
            scenario("other", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline()),
        )
        with pytest.raises(ValueError, match="different source"):
            compare_scenarios([pre, other])

    def test_mismatched_split_seeds_refused(self):
        data = small_data()
        a = run_scenario(
            data, scenario("a", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline(), split_seed=1)
        )
        b = run_scenario(
            data, scenario("b", Placement.SAMPLING_AFTER_SPLIT, smote_pipeline(), split_seed=2)
        )
        with pytest.raises(ValueError, match="seed"):
            compare_scenarios([a, b])

    def test_mismatched_split_fields_named(self):
        data = small_data()
        stratified = run_scenario(data, scenario("a", Placement.NO_SAMPLING))
        spec = scenario("b", Placement.NO_SAMPLING)
        unstratified = run_scenario(data, dataclasses.replace(spec, split=SplitSpec(0.5, 42, False)))
        assert unstratified.metrics.positive_count + unstratified.metrics.negative_count == 400
        with pytest.raises(ValueError, match="split specs differ in: test_fraction, stratified$"):
            compare_scenarios([stratified, unstratified])

    def test_document_is_what_comparison_json_holds(self):
        pre, post = self.run_pair()
        report = compare_scenarios([pre, post])
        assert list(report) == [
            "names", "table", "metric_deltas", "inflation", "leaky_outperforming_clean",
            "convention",
        ]
        assert json.loads(json.dumps(report)) == report
        assert report["inflation"] == [
            d for d in report["metric_deltas"] if (d["minuend"], d["subtrahend"]) == ("pre", "post")
        ]

    def test_needs_two_results(self):
        pre, _ = self.run_pair()
        with pytest.raises(ValueError, match="two"):
            compare_scenarios([pre])


class TestResultFileChecks:
    """A result file is refused when a stored copy of a fact disagrees
    with the labels, scores, threshold and provenance it was derived from."""

    @pytest.fixture(scope="class")
    def docs(self):
        data = small_data()
        clean = run_scenario(data, scenario("baseline", Placement.NO_SAMPLING))
        leaky = run_scenario(
            data, scenario("pre", Placement.SAMPLING_BEFORE_SPLIT, smote_pipeline())
        )
        return json.dumps(clean.to_dict()), json.dumps(leaky.to_dict())

    def tamper(self, text, edit):
        doc = json.loads(text)
        edit(doc)
        return doc

    def test_untampered_files_read(self, docs):
        clean, leaky = (ScenarioResult.from_dict(json.loads(t)) for t in docs)
        assert (clean.leakage.verdict, leaky.leakage.verdict) == (Verdict.CLEAN, Verdict.LEAKY)
        reordered = json.loads(json.dumps(json.loads(docs[1]), sort_keys=True))
        assert ScenarioResult.from_dict(reordered).to_dict() == leaky.to_dict()
        report = compare_scenarios([clean, leaky])
        assert leaky.metrics.f1 > clean.metrics.f1
        assert report["leaky_outperforming_clean"] == ["pre"]

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda d: d["metrics"].update(f1=0.999), "metrics.f1"),
            (lambda d: d["metrics"].update(threshold=0.9), "metrics.threshold"),
            (lambda d: d["metrics"].update(extra=1), "metrics"),
            (lambda d: d.update(test_class_counts={"0": 1, "1": 1}), "test_class_counts.0"),
            (lambda d: d.update(test_class_counts=[]), "test_class_counts"),
            (lambda d: d["test_provenance_counts"].update(original=1), "test_provenance_counts"),
        ],
        ids=["f1", "threshold", "extra-key", "class-counts", "list-class-counts", "provenance-sum"],
    )
    def test_clean_file_contradicting_itself_refused(self, docs, edit, field):
        with pytest.raises(ValueError, match=field):
            ScenarioResult.from_dict(self.tamper(docs[0], edit))

    def test_zeroed_synthetic_count_refused(self, docs):
        def edit(d):
            assert d["test_provenance_counts"]["synthetic"] > 0
            d["leakage"].update(synthetic_rows_in_test=0, verdict="clean")

        with pytest.raises(ValueError, match="synthetic_rows_in_test"):
            ScenarioResult.from_dict(self.tamper(docs[1], edit))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("synthetic_rows_in_test", -5),
            ("synthetic_rows_in_test", "1"),
            ("synthetic_rows_in_test", float),  # the stored count, as a JSON real
            ("duplicate_pairs_across_split", -1),
            ("duplicate_pairs_across_split", True),
            ("scaler_fitted_on_full_data", "no"),
            ("scaler_fitted_on_full_data", 0),
            ("class_count_change", -1),
            ("class_count_change", "0"),
            ("verdict", "clean"),
        ],
    )
    def test_stored_leakage_field_refused(self, docs, key, value):
        def edit(d):
            old = d["leakage"][key]
            d["leakage"][key] = value(old) if callable(value) else value

        with pytest.raises(ValueError, match=key):
            ScenarioResult.from_dict(self.tamper(docs[1], edit))

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d["seeds"].update(split=43), "seeds.split"),
            (lambda d: d["seeds"].update(samplers=[8]), "seeds.samplers.0"),
            (lambda d: d.update(note="hand-edited"), "note"),
            (lambda d: d["scenario"].update(preprocessing="paper_faithful"),
             "leakage.scaler_fitted_on_full_data"),
            (lambda d: d["scenario"]["split"].pop("stratified"), "scenario.split.stratified"),
            (lambda d: d.update({"metrics.f1": d["metrics"].pop("f1")}), "metrics.f1"),
        ],
        ids=["split-seed", "sampler-seed", "unknown-key", "preprocessing", "missing-split-key",
             "dotted-key"],
    )
    def test_first_differing_path_named(self, docs, edit, path):
        with pytest.raises(ValueError, match=f"^{path}: "):
            ScenarioResult.from_dict(self.tamper(docs[1], edit))

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d["metrics"].update(f1=0.999), "metrics.f1"),
            (lambda d: d.update(test_weights=[1.0] * len(d["test_labels"])), "test_weights.0"),
        ],
        ids=["f1", "extra-per-row-key"],
    )
    def test_refused_beside_the_per_row_arrays(self, docs, edit, path):
        # The per-row arrays are left out of the text check; every other
        # field, and any key beside them, is still compared.
        doc = self.tamper(docs[1], edit)
        stored = json.dumps(doc)
        with pytest.raises(ValueError, match=f"^{path}: stored value is not"):
            ScenarioResult.from_dict(doc)
        assert json.dumps(doc) == stored

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("test_labels", 0, True),
            ("test_labels", 3, 1.0),
            ("test_labels", 2, 2),
            ("test_labels", 1, "0"),
            ("test_labels", 4, None),
            ("test_scores", 0, False),
            ("test_scores", 5, float("nan")),
            ("test_scores", 2, float("-inf")),
            ("test_scores", 1, 10**400),
            ("test_scores", 3, [0.5]),
        ],
    )
    def test_stored_label_and_score_types_checked(self, docs, field, index, value):
        with pytest.raises(ValueError, match=rf"^{field}\.{index} must be "):
            ScenarioResult.from_dict(self.tamper(docs[1], lambda d: d[field].__setitem__(index, value)))

    @pytest.mark.parametrize(
        "field, wrong",
        [("scenario", []), ("leakage", []), ("train_class_counts", []),
         ("test_provenance_counts", []), ("test_labels", {}), ("test_scores", "0.5")],
    )
    def test_wrong_json_container_names_the_field(self, docs, field, wrong):
        with pytest.raises(ValueError, match=f"^{field} must be a JSON "):
            ScenarioResult.from_dict(self.tamper(docs[0], lambda d: d.update({field: wrong})))

    def test_previous_format_version_refused_naming_it(self, docs):
        # A version 4 file's stored verdict follows the rule that also read
        # the created-row and duplicate-pair counts.
        doc = self.tamper(docs[0], lambda d: d.update(format_version=4))
        with pytest.raises(ValueError, match="unsupported result format version 4"):
            ScenarioResult.from_dict(doc)

    def test_string_threshold_refused(self, docs):
        def edit(d):
            d["scenario"]["threshold"] = "0.5"

        with pytest.raises(ValueError, match="threshold"):
            ScenarioResult.from_dict(self.tamper(docs[0], edit))


class TestScenarioSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = scenario("x", Placement.SAMPLING_BEFORE_SPLIT, smote_pipeline(0.8, 3))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_no_sampling_round_trip(self):
        spec = scenario("y", Placement.NO_SAMPLING)
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.pipeline is None

    @pytest.mark.parametrize("value", ["0.5", True, float("nan"), None])
    def test_threshold_must_be_a_finite_real(self, value):
        with pytest.raises(ValueError, match="threshold"):
            scenario("z", Placement.NO_SAMPLING, threshold=value)


@pytest.mark.parametrize(
    "obj, from_dict",
    [
        (GbdtParams(learning_rate=0.1, n_estimators=3, n_bins=32), GbdtParams.from_dict),
        (SplitSpec(0.25, 9, False), SplitSpec.from_dict),
        (SamplerSpec(SamplerKind.SMOTE, 0.8, 3, 11), SamplerSpec.from_dict),
    ],
    ids=["GbdtParams", "SplitSpec", "SamplerSpec"],
)
def test_to_dict_keys_are_the_declared_fields_in_order(obj, from_dict):
    d = obj.to_dict()
    assert list(d) == [f.name for f in fields(obj)]
    assert from_dict(json.loads(json.dumps(d))) == obj
