import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakguard import sampling
from leakguard.dataset import (
    DUPLICATE,
    ORIGINAL,
    SYNTHETIC,
    RowProvenance,
    TabularDataset,
    round_half_up,
)
from leakguard.sampling import (
    SamplerKind,
    SamplerPipeline,
    SamplerSpec,
    SamplingError,
    apply_pipeline,
    gaussian_synthesize,
    random_oversample,
    random_undersample,
    resample,
    smote,
)


def imbalanced(n_min, n_maj, dims=2, seed=0):
    rng = np.random.default_rng(seed)
    features = np.vstack(
        [rng.standard_normal((n_maj, dims)), rng.standard_normal((n_min, dims)) + 2.0]
    )
    labels = np.array([0] * n_maj + [1] * n_min)
    return TabularDataset(
        features=features,
        feature_names=tuple(f"x{i}" for i in range(dims)),
        labels=labels,
        provenance=tuple(RowProvenance.original(i) for i in range(n_min + n_maj)),
    )


def counts(data):
    return int((data.labels == 1).sum()), int((data.labels == 0).sum())


def brute_force_neighbors(points, k):
    """Independent O(n^2) nearest-neighbor oracle, ties to lower index."""
    n = points.shape[0]
    out = []
    for i in range(n):
        dist = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        order = sorted(j for j in range(n) if j != i)
        order.sort(key=lambda j: (dist[j], j))
        out.append(order[:k])
    return out


class TestRandomOversample:
    def test_ratio_arithmetic(self):
        data = imbalanced(50, 1000)
        out = random_oversample(data, SamplerSpec(SamplerKind.RANDOM_OVER, 0.8, seed=1))
        n_min, n_maj = counts(out)
        assert (n_min, n_maj) == (800, 1000)
        assert np.count_nonzero(out.provenance == DUPLICATE) == 750

    def test_fixed_point(self):
        data = imbalanced(80, 100)
        out = random_oversample(data, SamplerSpec(SamplerKind.RANDOM_OVER, 0.8, seed=1))
        assert out is data

    def test_below_current_ratio_errors(self):
        data = imbalanced(80, 100)
        with pytest.raises(SamplingError, match="below the current"):
            random_oversample(data, SamplerSpec(SamplerKind.RANDOM_OVER, 0.5, seed=1))

    def test_single_class_errors(self):
        data = imbalanced(50, 1000)
        only_maj = data.select_rows(np.flatnonzero(data.labels == 0))
        with pytest.raises(SamplingError, match="both classes"):
            random_oversample(only_maj, SamplerSpec(SamplerKind.RANDOM_OVER, 0.8, seed=1))

    @settings(deadline=None, max_examples=25)
    @given(
        n_min=st.integers(3, 20),
        n_maj=st.integers(30, 80),
        strategy=st.floats(0.3, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_duplicates_are_bit_identical_to_source(self, n_min, n_maj, strategy, seed):
        data = imbalanced(n_min, n_maj, seed=seed)
        if round_half_up(strategy * n_maj) < n_min:
            return
        out = random_oversample(data, SamplerSpec(SamplerKind.RANDOM_OVER, strategy, seed=seed))
        # Replay the sampler's one draw: the sources of the appended copies.
        n_new = round_half_up(strategy * n_maj) - n_min
        min_idx = np.flatnonzero(data.labels == 1)
        sources = np.random.default_rng(seed).choice(min_idx, size=n_new, replace=True)
        copies = np.flatnonzero(out.provenance == DUPLICATE)
        assert copies.tolist() == list(range(data.n_rows, data.n_rows + n_new))
        assert np.array_equal(out.features[copies], data.features[sources])
        assert (out.labels[copies] == 1).all()

    def test_majority_rows_untouched(self):
        data = imbalanced(10, 50)
        out = random_oversample(data, SamplerSpec(SamplerKind.RANDOM_OVER, 0.5, seed=3))
        maj_before = data.features[data.labels == 0]
        maj_after = out.features[out.labels == 0]
        assert np.array_equal(maj_before, maj_after)

    def test_deterministic(self):
        data = imbalanced(10, 50)
        spec = SamplerSpec(SamplerKind.RANDOM_OVER, 0.9, seed=5)
        assert random_oversample(data, spec).equals(random_oversample(data, spec))


class TestRandomUndersample:
    def test_round_half_up_target(self):
        data = imbalanced(800, 1000)
        out = random_undersample(data, SamplerSpec(SamplerKind.RANDOM_UNDER, 0.9, seed=1))
        n_min, n_maj = counts(out)
        assert (n_min, n_maj) == (800, 889)  # round(800 / 0.9)

    def test_fixed_point_on_balanced_data(self):
        data = imbalanced(100, 100)
        out = random_undersample(data, SamplerSpec(SamplerKind.RANDOM_UNDER, 1.0, seed=1))
        assert out is data

    def test_ratio_below_current_errors(self):
        data = imbalanced(90, 100)
        with pytest.raises(SamplingError, match="minority"):
            random_undersample(data, SamplerSpec(SamplerKind.RANDOM_UNDER, 0.5, seed=1))

    @settings(deadline=None, max_examples=25)
    @given(
        n_min=st.integers(5, 30),
        n_maj=st.integers(40, 120),
        strategy=st.floats(0.5, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_survivors_are_subset_of_input_majority(self, n_min, n_maj, strategy, seed):
        data = imbalanced(n_min, n_maj, seed=seed)
        if round_half_up(n_min / strategy) > n_maj:
            return
        out = random_undersample(data, SamplerSpec(SamplerKind.RANDOM_UNDER, strategy, seed=seed))
        input_maj = {data.features[i].tobytes() for i in range(data.n_rows) if data.labels[i] == 0}
        for i in range(out.n_rows):
            if out.labels[i] == 0:
                assert out.features[i].tobytes() in input_maj
            assert out.provenance[i] == ORIGINAL

    def test_minority_rows_never_altered(self):
        data = imbalanced(40, 100)
        out = random_undersample(data, SamplerSpec(SamplerKind.RANDOM_UNDER, 0.8, seed=2))
        assert np.array_equal(
            data.features[data.labels == 1], out.features[out.labels == 1]
        )


class TestSmote:
    def test_synthetic_points_lie_on_segments(self):
        # Three corner points with k=1: every synthetic row must sit on a
        # segment between a point and its single nearest neighbor.
        features = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] + [[5.0, 5.0]] * 9)
        labels = np.array([1, 1, 1] + [0] * 9)
        data = TabularDataset(
            features=features,
            feature_names=("x0", "x1"),
            labels=labels,
            provenance=tuple(RowProvenance.original(i) for i in range(12)),
        )
        out = smote(data, SamplerSpec(SamplerKind.SMOTE, 1.0, k_neighbors=1, seed=11))
        minority = features[:3]
        for i in range(data.n_rows, out.n_rows):
            s = out.features[i]
            on_some_segment = False
            for a in minority:
                for b in minority:
                    gap = np.linalg.norm(a - s) + np.linalg.norm(s - b) - np.linalg.norm(a - b)
                    if not np.array_equal(a, b) and abs(gap) < 1e-9:
                        on_some_segment = True
            assert on_some_segment

    def test_fixed_point(self):
        data = imbalanced(50, 100)
        out = smote(data, SamplerSpec(SamplerKind.SMOTE, 0.5, seed=1))
        assert out is data

    def test_k_too_large_reports_minimum(self):
        data = imbalanced(4, 100)
        with pytest.raises(SamplingError, match="at least 6"):
            smote(data, SamplerSpec(SamplerKind.SMOTE, 0.5, k_neighbors=5, seed=1))

    def test_provenance_and_labels(self):
        data = imbalanced(20, 100)
        out = smote(data, SamplerSpec(SamplerKind.SMOTE, 0.5, seed=9))
        created = np.flatnonzero(out.provenance != ORIGINAL)
        assert len(created) == 30
        for i in created:
            assert out.provenance[i] == SYNTHETIC
            assert out.labels[i] == 1

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000), n_min=st.integers(8, 25), dims=st.integers(2, 5))
    def test_collinearity_against_brute_force_oracle(self, seed, n_min, dims):
        data = imbalanced(n_min, 3 * n_min, dims=dims, seed=seed)
        k = 5
        if n_min <= k:
            return
        out = smote(data, SamplerSpec(SamplerKind.SMOTE, 1.0, k_neighbors=k, seed=seed))
        minority = data.features[data.labels == 1]
        neighbor_table = brute_force_neighbors(minority, k)
        for i in range(data.n_rows, out.n_rows):
            s = out.features[i]
            found = False
            for ai in range(minority.shape[0]):
                a = minority[ai]
                for bi in neighbor_table[ai]:
                    b = minority[bi]
                    gap = (
                        np.linalg.norm(a - s)
                        + np.linalg.norm(s - b)
                        - np.linalg.norm(a - b)
                    )
                    if abs(gap) < 1e-9:
                        found = True
                        break
                if found:
                    break
            assert found, f"synthetic row {i} is not between any (a, k-neighbor) pair"

    def test_deterministic(self):
        data = imbalanced(15, 60)
        spec = SamplerSpec(SamplerKind.SMOTE, 0.9, seed=4)
        assert smote(data, spec).equals(smote(data, spec))


def one_shot_neighbor_table(points, k):
    """The unblocked m x m x d kernel, kept verbatim as the oracle."""
    diffs = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(dist2, np.inf)
    order = np.argsort(dist2, axis=1, kind="stable")
    return order[:, :k]


def tied_points(m, d, seed):
    """Values rounded to integers, and every fourth row repeating its
    predecessor, so distances tie both ways."""
    points = np.round(np.random.default_rng(seed).standard_normal((m, d)))
    points[1::4] = points[0::4][: points[1::4].shape[0]]
    return points


class TestNearestNeighborTable:
    @pytest.mark.parametrize("block_rows", [1, 3])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_blocks_equal_one_shot(self, monkeypatch, block_rows, tied):
        m, d, k = 100, 6, 5  # blocks of 3 rows leave a last block of 1
        points = tied_points(m, d, 1) if tied else np.random.default_rng(1).standard_normal((m, d))
        monkeypatch.setattr(sampling, "_KNN_BLOCK_ELEMENTS", block_rows * m * d)
        table = sampling._nearest_neighbor_table(points, k)
        assert np.array_equal(table, one_shot_neighbor_table(points, k))

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("m, d", [(7, 3), (300, 30), (800, 8)])
    def test_default_block_equals_one_shot(self, m, d, tied):
        # 800 x 8 takes two blocks at the default size, the others one.
        points = tied_points(m, d, 2) if tied else np.random.default_rng(2).standard_normal((m, d))
        table = sampling._nearest_neighbor_table(points, 5)
        assert np.array_equal(table, one_shot_neighbor_table(points, 5))

    @pytest.mark.parametrize("block_rows", [1, 3, None], ids=["block-1", "block-3", "default"])
    @pytest.mark.parametrize("data", ["nan", "identical", "tied"])
    def test_selection_edge_cases_equal_one_shot(self, monkeypatch, block_rows, data):
        # A row with a NaN cell has NaN distances, which sort last, and an
        # all-NaN row's k-th distance is itself NaN. Identical rows tie every
        # off-diagonal distance at the k-th, so only the column order decides.
        m, d = 40, 3
        points = np.full((m, d), 2.5) if data == "identical" else tied_points(m, d, 4)
        if data == "nan":
            points[[2, 9, 10], 1] = np.nan
            points[17] = np.nan
        if block_rows is not None:
            monkeypatch.setattr(sampling, "_KNN_BLOCK_ELEMENTS", block_rows * m * d)
        for k in (1, 5, m - 1):
            table = sampling._nearest_neighbor_table(points, k)
            assert np.array_equal(table, one_shot_neighbor_table(points, k)), k

    def test_seeded_random_tied_cases_equal_one_shot(self, monkeypatch):
        rng = np.random.default_rng(6)
        for case in range(60):
            m = int(rng.integers(2, 40))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, m))
            points = np.round(rng.standard_normal((m, d)) * rng.choice([0.5, 1.0, 3.0]))
            block_rows = int(rng.integers(1, m + 1))
            monkeypatch.setattr(sampling, "_KNN_BLOCK_ELEMENTS", block_rows * m * d)
            table = sampling._nearest_neighbor_table(points, k)
            assert np.array_equal(table, one_shot_neighbor_table(points, k)), (case, m, d, k)

    def test_repeated_points_tie_to_lower_index(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        table = sampling._nearest_neighbor_table(points, 2)
        assert table.tolist() == [[2, 4], [3, 0], [0, 4], [1, 0], [0, 2]]

    def test_peak_memory_is_bounded(self):
        # The one-shot kernel peaks at about 791 MB on this shape.
        points = np.random.default_rng(3).standard_normal((2400, 16))
        tracemalloc.start()
        try:
            sampling._nearest_neighbor_table(points, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20

    # The screen keeps every cell whose Gram-form distance is within twice
    # its rounding bound of the row's k-th; these cases push that bound at
    # the ends of the float range, under cancellation and at full width.

    def test_seeded_random_scales_equal_one_shot(self, monkeypatch):
        rng = np.random.default_rng(15)
        for case in range(120):
            m = int(rng.integers(2, 60))
            d = int(rng.integers(1, 12))
            k = int(rng.integers(1, m))
            scale = 10.0 ** rng.uniform(-150, 150)
            points = rng.standard_normal((m, d))
            if case % 2:
                points = tied_points(m, d, case)
            points *= scale
            block_rows = int(rng.integers(1, m + 1))
            monkeypatch.setattr(sampling, "_KNN_BLOCK_ELEMENTS", block_rows * m * d)
            table = sampling._nearest_neighbor_table(points, k)
            assert np.array_equal(table, one_shot_neighbor_table(points, k)), (case, m, d, k)

    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e150])
    def test_extreme_scales_at_credit_card_widths_equal_one_shot(self, scale):
        for d in (30, 34):
            rng = np.random.default_rng(d)
            for points in (rng.standard_normal((300, d)), tied_points(300, d, d)):
                points = points * scale
                table = sampling._nearest_neighbor_table(points, 5)
                assert np.array_equal(table, one_shot_neighbor_table(points, 5)), d

    @pytest.mark.parametrize(
        "offset, spread", [(1e8, 1e-3), (-1e8, 1e-3), (1e15, 1.0), (1e12, 1e-9)]
    )
    def test_large_common_offset_equals_one_shot(self, offset, spread):
        # Uncentred, the Gram form would lose every digit of the spread.
        rng = np.random.default_rng(16)
        for d in (3, 16, 34):
            points = offset + spread * rng.standard_normal((200, d))
            table = sampling._nearest_neighbor_table(points, 5)
            assert np.array_equal(table, one_shot_neighbor_table(points, 5)), d

    @pytest.mark.parametrize("block_rows", [1, 7, None], ids=["block-1", "block-7", "default"])
    @pytest.mark.parametrize("cells", ["inf", "inf-row", "near-overflow"])
    def test_inf_cells_equal_one_shot_and_warn_alike(self, monkeypatch, block_rows, cells):
        m, d = 50, 4
        points = np.random.default_rng(17).standard_normal((m, d))
        if cells == "inf":
            points[[3, 8], 1] = np.inf
            points[20, 2] = -np.inf
        elif cells == "inf-row":
            points[11] = np.inf
        else:
            points[[5, 30]] *= 1e154  # their squared distances overflow
        if block_rows is not None:
            monkeypatch.setattr(sampling, "_KNN_BLOCK_ELEMENTS", block_rows * m * d)
        for k in (1, 5, m - 1):
            with warnings.catch_warnings(record=True) as ours:
                warnings.simplefilter("always")
                table = sampling._nearest_neighbor_table(points, k)
            with warnings.catch_warnings(record=True) as oracle:
                warnings.simplefilter("always")
                expected = one_shot_neighbor_table(points, k)
            assert np.array_equal(table, expected), k
            assert {str(w.message) for w in ours} <= {str(w.message) for w in oracle}

    def test_bench_shape_equals_one_shot(self):
        # 2,400 x 16 is resample-sweep's largest minority set; the oracle
        # holds a 737 MB difference tensor for it.
        points = np.random.default_rng(18).standard_normal((2400, 16))
        table = sampling._nearest_neighbor_table(points, 5)
        assert np.array_equal(table, one_shot_neighbor_table(points, 5))

    @pytest.mark.parametrize("data, limit_mb", [("offset", 16), ("identical", 128)])
    def test_peak_memory_is_bounded_when_cells_survive_the_screen(self, data, limit_mb):
        # Identical rows tie every cell with the row's k-th, so the screen
        # keeps them all and the refine holds a full block. Uncentred, the
        # offset input would do the same; centred, it keeps about as few
        # cells as unshifted data.
        if data == "identical":
            points = np.full((2400, 16), 2.5)
        else:
            points = 1e8 + 1e-3 * np.random.default_rng(19).standard_normal((2400, 16))
        tracemalloc.start()
        try:
            table = sampling._nearest_neighbor_table(points, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20
        if data == "identical":
            assert table[:3].tolist() == [[1, 2, 3, 4, 5], [0, 2, 3, 4, 5], [0, 1, 3, 4, 5]]


class TestGaussianSynthesize:
    def test_identical_minority_collapses_to_point(self):
        features = np.vstack([np.zeros((3, 2)) + 7.0, np.random.default_rng(0).normal(size=(20, 2))])
        data = TabularDataset(
            features=features,
            feature_names=("x0", "x1"),
            labels=np.array([1] * 3 + [0] * 20),
            provenance=tuple(RowProvenance.original(i) for i in range(23)),
        )
        out = gaussian_synthesize(data, SamplerSpec(SamplerKind.GAUSSIAN_SYNTH, 1.0, seed=2))
        created = out.features[out.provenance != ORIGINAL]
        assert np.array_equal(created, np.full_like(created, 7.0))

    def test_sample_mean_within_standard_error_bound(self):
        data = imbalanced(200, 10000, dims=3, seed=5)
        out = gaussian_synthesize(data, SamplerSpec(SamplerKind.GAUSSIAN_SYNTH, 1.0, seed=8))
        minority = data.features[data.labels == 1]
        fitted_mean = minority.mean(axis=0)
        fitted_std = minority.std(axis=0, ddof=0)
        created = out.features[out.provenance != ORIGINAL]
        assert created.shape[0] == 9800
        n = created.shape[0]
        bound = 4.0 * fitted_std / np.sqrt(n)
        assert np.all(np.abs(created.mean(axis=0) - fitted_mean) <= bound)

    def test_fixed_point(self):
        data = imbalanced(60, 100)
        out = gaussian_synthesize(data, SamplerSpec(SamplerKind.GAUSSIAN_SYNTH, 0.6, seed=2))
        assert out is data

    def test_needs_two_minority_rows(self):
        data = imbalanced(50, 100)
        keep = np.concatenate([np.flatnonzero(data.labels == 0), np.flatnonzero(data.labels == 1)[:1]])
        tiny = data.select_rows(np.sort(keep))
        with pytest.raises(SamplingError, match="at least 2"):
            gaussian_synthesize(tiny, SamplerSpec(SamplerKind.GAUSSIAN_SYNTH, 0.5, seed=2))


@pytest.mark.parametrize(
    "sampler, kind",
    [
        (random_oversample, SamplerKind.RANDOM_OVER),
        (smote, SamplerKind.SMOTE),
        (gaussian_synthesize, SamplerKind.GAUSSIAN_SYNTH),
    ],
    ids=["random_over", "smote", "gaussian_synth"],
)
class TestOversamplerSteps:
    """The steps all oversamplers share, checked for each of them."""

    def test_fixed_point_returns_the_input(self, sampler, kind):
        data = imbalanced(50, 100)
        assert sampler(data, SamplerSpec(kind, 0.5, seed=1)) is data

    def test_below_current_ratio_refused(self, sampler, kind):
        data = imbalanced(80, 100)
        with pytest.raises(SamplingError, match="below the current"):
            sampler(data, SamplerSpec(kind, 0.5, seed=1))

    def test_other_kind_refused(self, sampler, kind):
        data = imbalanced(30, 100)
        with pytest.raises(SamplingError, match=f"is not {kind.value}"):
            sampler(data, SamplerSpec(SamplerKind.RANDOM_UNDER, 0.8, seed=1))

    def test_single_class_refused(self, sampler, kind):
        data = imbalanced(50, 1000)
        only_maj = data.select_rows(np.flatnonzero(data.labels == 0))
        with pytest.raises(SamplingError, match="both classes"):
            sampler(only_maj, SamplerSpec(kind, 0.8, seed=1))


@pytest.mark.parametrize(
    "sampler, kind, n_min, fragment",
    [(smote, SamplerKind.SMOTE, 5, "at least 6"), (gaussian_synthesize, SamplerKind.GAUSSIAN_SYNTH, 1, "at least 2")],
    ids=["smote", "gaussian_synth"],
)
def test_too_few_minority_rows_refused(sampler, kind, n_min, fragment):
    with pytest.raises(SamplingError, match=fragment):
        sampler(imbalanced(n_min, 100), SamplerSpec(kind, 0.5, seed=1))


class TestPipeline:
    def hybrid_pipeline(self):
        return SamplerPipeline(
            steps=(
                SamplerSpec(SamplerKind.SMOTE, 0.8, k_neighbors=5, seed=1),
                SamplerSpec(SamplerKind.RANDOM_UNDER, 0.9, seed=1),
            )
        )

    def test_smote_then_undersample_counts(self):
        data = imbalanced(50, 1000)
        out = apply_pipeline(data, self.hybrid_pipeline())
        n_min, n_maj = counts(out)
        assert (n_min, n_maj) == (800, 889)
        assert abs(n_min / n_maj - 0.9) <= 1.0 / n_maj

    def test_single_step_equals_direct_call(self):
        data = imbalanced(30, 100)
        spec = SamplerSpec(SamplerKind.SMOTE, 0.8, seed=3)
        via_pipeline = apply_pipeline(data, SamplerPipeline(steps=(spec,)))
        direct = smote(data, spec)
        assert via_pipeline.equals(direct)

    def test_errors_carry_step_index(self):
        data = imbalanced(30, 100)
        pipeline = SamplerPipeline(
            steps=(
                SamplerSpec(SamplerKind.SMOTE, 0.8, seed=3),
                SamplerSpec(SamplerKind.RANDOM_OVER, 0.5, seed=3),
            )
        )
        with pytest.raises(SamplingError, match="step 1"):
            apply_pipeline(data, pipeline)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            SamplerPipeline(steps=())

    @settings(deadline=None, max_examples=20)
    @given(
        strategy1=st.floats(0.4, 0.9),
        strategy2=st.floats(0.9, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_final_ratio_tracks_last_step(self, strategy1, strategy2, seed):
        data = imbalanced(20, 200, seed=seed)
        pipeline = SamplerPipeline(
            steps=(
                SamplerSpec(SamplerKind.SMOTE, strategy1, seed=seed),
                SamplerSpec(SamplerKind.RANDOM_UNDER, strategy2, seed=seed),
            )
        )
        out = apply_pipeline(data, pipeline)
        n_min, n_maj = counts(out)
        assert abs(n_min / n_maj - strategy2) <= 1.0 / n_maj


class TestSpecValidation:
    def test_strategy_range(self):
        with pytest.raises(ValueError):
            SamplerSpec(SamplerKind.SMOTE, 0.0)
        with pytest.raises(ValueError):
            SamplerSpec(SamplerKind.SMOTE, 1.5)

    @pytest.mark.parametrize("kind", [SamplerKind.SMOTE, SamplerKind.RANDOM_OVER])
    @pytest.mark.parametrize("field", ["k_neighbors", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_integer_fields_reject_non_integers(self, kind, field, value):
        with pytest.raises(ValueError, match=field):
            SamplerSpec(kind, 0.5, **{field: value})

    @pytest.mark.parametrize("kind", list(SamplerKind))
    @pytest.mark.parametrize("k", [0, -7])
    def test_k_neighbors_below_one_refused_for_every_kind(self, kind, k):
        with pytest.raises(ValueError, match="k_neighbors must be at least 1"):
            SamplerSpec(kind, 0.5, k_neighbors=k)

    @pytest.mark.parametrize("value", [True, "0.5", float("nan"), None])
    def test_strategy_must_be_a_finite_real(self, value):
        with pytest.raises(ValueError, match="sampling_strategy"):
            SamplerSpec(SamplerKind.RANDOM_OVER, value, seed=1)

    def test_kind_mismatch_rejected(self):
        data = imbalanced(30, 100)
        with pytest.raises(SamplingError):
            smote(data, SamplerSpec(SamplerKind.RANDOM_OVER, 0.8))

    def test_resample_dispatch(self):
        data = imbalanced(30, 100)
        spec = SamplerSpec(SamplerKind.RANDOM_OVER, 0.5, seed=1)
        assert resample(data, spec).equals(random_oversample(data, spec))

    def test_round_trip_dict(self):
        spec = SamplerSpec(SamplerKind.SMOTE, 0.8, k_neighbors=3, seed=11)
        assert SamplerSpec.from_dict(spec.to_dict()) == spec
        pipeline = SamplerPipeline(steps=(spec,))
        assert SamplerPipeline.from_dict(pipeline.to_dict()) == pipeline


# Fingerprints of each sampler's output on one fixed input, recorded from
# the per-arm samplers before they shared one oversampling path. A change
# in what a sampler draws, or in which order, moves its fingerprint.
SAMPLER_FINGERPRINTS = {
    SamplerKind.RANDOM_OVER: "6040e4e33eb805e3411903b50e984a88c817b47bd0d848a840892a09a7da4a12",
    SamplerKind.RANDOM_UNDER: "2a07a6208205760135b0a715f170da8750c9ae0ebacfdaaf37490784c3b69758",
    SamplerKind.SMOTE: "d973ce57cd770ba24c3c2029b8c93541e85c2e4bbe599957e43989c1d9cd9995",
    SamplerKind.GAUSSIAN_SYNTH: "20c5547c41a3a3979d8f491a2ecfde656e4a48d2c693aaa30d40ad504fa1bebf",
}


@pytest.mark.parametrize("kind", list(SamplerKind), ids=lambda k: k.value)
def test_sampler_output_fingerprint_is_pinned(kind):
    data = imbalanced(30, 100, dims=3, seed=4)
    out = resample(data, SamplerSpec(kind, 0.6, seed=5))
    assert out.n_rows == (80 if kind == SamplerKind.RANDOM_UNDER else 160)
    assert out.fingerprint == SAMPLER_FINGERPRINTS[kind]
