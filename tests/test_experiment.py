import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from leakguard.boosting import GbdtParams
from leakguard.dataset import (
    ProvenanceColumns,
    RowProvenance,
    SplitSpec,
    TabularDataset,
    class_distribution,
    generate_synthetic_imbalanced,
    stratified_split,
)
from leakguard.experiment import (
    CLASS_COUNT_TAIL,
    Placement,
    Preprocessing,
    ScenarioError,
    ScenarioResult,
    ScenarioSpec,
    Verdict,
    class_count_shift,
    compare_scenarios,
    dataset_fingerprint,
    detect_leakage,
    hypergeometric_interval,
    run_scenario,
)
from leakguard.metrics import ConfusionMatrix
from leakguard.sampling import SamplerKind, SamplerPipeline, SamplerSpec, apply_pipeline

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


class TestDetectLeakage:
    def test_disjoint_original_partitions_are_clean(self):
        data = small_data()
        split = SplitSpec(0.2, 1, True)
        train, test = stratified_split(data, split)
        report = detect_leakage(train, test, False, class_distribution(data)[0], split)
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
            provenance=test.provenance + ProvenanceColumns.from_rows([RowProvenance.original(0)]),
        )
        report = detect_leakage(train, polluted, False, class_distribution(data)[0], split)
        assert report.duplicate_pairs_across_split >= 1
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
        report = detect_leakage(
            train, test, False, class_distribution(data)[0], SplitSpec(0.375, 0, False)
        )
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
            provenance=ProvenanceColumns.synthetic("smote", 1)
            + test.provenance.take(np.arange(1, test.n_rows)),
        )
        report = detect_leakage(train, tainted, False, class_distribution(data)[0], split)
        assert report.synthetic_rows_in_test == 1
        assert report.verdict == Verdict.LEAKY

    def test_full_data_scaler_flag_forces_leaky(self):
        data = small_data()
        split = SplitSpec(0.2, 1, True)
        train, test = stratified_split(data, split)
        report = detect_leakage(train, test, True, class_distribution(data)[0], split)
        assert report.scaler_fitted_on_full_data
        assert report.verdict == Verdict.LEAKY


def brute_force_interval(population, successes, draws, tail):
    """hypergeometric_interval from exact rational tail sums."""
    total = math.comb(population, draws)
    support = range(max(0, draws + successes - population), min(draws, successes) + 1)
    ways = [math.comb(successes, k) * math.comb(population - successes, draws - k) for k in support]
    at_most = list(itertools.accumulate(ways))
    at_least = list(itertools.accumulate(ways[::-1]))[::-1]
    lo = min(k for k, w in zip(support, at_most) if Fraction(w, total) > tail)
    hi = max(k for k, w in zip(support, at_least) if Fraction(w, total) > tail)
    return lo, hi


class TestClassCountShift:
    @pytest.mark.parametrize(
        "population, successes, draws",
        [(60, 6, 12), (150, 75, 30), (40, 39, 10), (30, 0, 6), (25, 25, 5), (500, 5, 499),
         (80, 10, 1), (2000, 200, 400), (1000, 500, 300), (5000, 50, 1000), (4000, 3990, 3000)],
    )
    def test_interval_matches_exact_tails(self, population, successes, draws):
        got = hypergeometric_interval(population, successes, draws)
        if population in (1000, 2000, 5000):
            support = (max(0, draws + successes - population), min(draws, successes))
            assert got != support  # the tails are cut
        assert got == brute_force_interval(population, successes, draws, Fraction(CLASS_COUNT_TAIL))

    def test_stratified_shift_is_the_distance_to_the_exact_counts(self):
        split = SplitSpec(0.2, 0, True)
        loaded = {0: 396, 1: 4}  # 79.2 -> 79 and 0.8 -> 1 test rows
        labels = np.array([0] * 79 + [1])
        assert class_count_shift(loaded, labels, split) == 0
        assert class_count_shift(loaded, labels[1:], split) == 1
        assert class_count_shift(loaded, np.array([0] * 78 + [1, 1]), split) == 2

    def test_unstratified_shift_counts_size_and_interval(self):
        split = SplitSpec(0.2, 0, False)
        loaded = {0: 19800, 1: 200}
        lo, hi = hypergeometric_interval(20000, 200, 4000)
        assert lo < 40 < hi
        for positives in (lo, 40, hi):
            labels = np.array([0] * (4000 - positives) + [1] * positives)
            assert class_count_shift(loaded, labels, split) == 0
        assert class_count_shift(loaded, np.array([0] * (4000 - hi - 3) + [1] * (hi + 3)), split) == 3
        assert class_count_shift(loaded, np.array([0] * (3999 - lo) + [1] * lo), split) == 1

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
        assert result.leakage.test_class_count_shift >= 3880
        assert result.leakage.verdict == Verdict.LEAKY
        spec = dataclasses.replace(spec, placement=Placement.SAMPLING_AFTER_SPLIT)
        clean = run_scenario(data, spec).leakage
        assert (clean.test_class_count_shift, clean.verdict) == (0, Verdict.CLEAN)


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
        train, test = stratified_split(data, spec.split)
        test_rows = set(test.provenance.sources.tolist())
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
            provenance=data.provenance + ProvenanceColumns.from_rows([RowProvenance.original(0)]),
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

    @pytest.mark.parametrize("n_rows,n_features", [(0, 3), (1, 1), (3, 0), (300, 5), (2000, 30)])
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
        assert report.names == ("pre", "post")
        assert len(report.inflation) == 1
        entry = report.inflation[0]
        assert entry["minuend"] == "pre" and entry["subtrahend"] == "post"
        expected = pre.metrics.recall - post.metrics.recall
        assert abs(entry["deltas"]["recall"] - expected) < 1e-15

    def test_self_comparison_gives_zero_deltas(self):
        _, post = self.run_pair()
        report = compare_scenarios([post, post])
        for entry in report.metric_deltas:
            assert all(v == 0.0 for v in entry["deltas"].values())

    def test_leaky_outperforming_clean_flagged(self):
        pre, post = self.run_pair()
        report = compare_scenarios([pre, post])
        if pre.metrics.f1 > post.metrics.f1:
            assert "pre" in report.leaky_outperforming_clean

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
        assert report.leaky_outperforming_clean == ("pre",)

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
            ("test_class_count_shift", -1),
            ("test_class_count_shift", "0"),
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
        (ConfusionMatrix(tp=1, fp=2, tn=3, fn=4), lambda d: ConfusionMatrix(**d)),
    ],
    ids=["GbdtParams", "SplitSpec", "SamplerSpec", "ConfusionMatrix"],
)
def test_to_dict_keys_are_the_declared_fields_in_order(obj, from_dict):
    d = obj.to_dict()
    assert list(d) == [f.name for f in fields(obj)]
    assert from_dict(json.loads(json.dumps(d))) == obj
