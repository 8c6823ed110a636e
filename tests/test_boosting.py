import json
import math
import os
import signal
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakguard import boosting, dataset
from leakguard.boosting import (
    GbdtModel,
    GbdtParams,
    TreeNode,
    _score,
    apply_tree,
    candidate_thresholds,
    leaf_weight,
    predict_margin,
    predict_proba,
    soft_threshold,
    train,
    weighted_log_loss,
)
from leakguard.dataset import (
    RowProvenance,
    SplitSpec,
    TabularDataset,
    generate_synthetic_imbalanced,
)
from leakguard.experiment import Placement, ScenarioError, ScenarioSpec, run_scenario


def make_dataset(features, labels):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return TabularDataset(
        features=features,
        feature_names=tuple(f"x{i}" for i in range(features.shape[1])),
        labels=np.asarray(labels),
        provenance=tuple(RowProvenance.original(i) for i in range(features.shape[0])),
    )


def exhaustive_split_candidates(X, g, h, lam, alpha, min_child_weight):
    """Independent oracle: enumerate midpoints between consecutive distinct
    values of every feature, partition rows directly, apply the gain rule.
    Returns every feasible positive-gain (gain, feature, threshold)."""

    def s(v):
        return math.copysign(max(abs(v) - alpha, 0.0), v)

    def score(gs, hs):
        return s(gs) ** 2 / (hs + lam) if hs + lam > 0 else 0.0

    g_total, h_total = g.sum(), h.sum()
    parent = score(g_total, h_total)
    candidates = []
    for f in range(X.shape[1]):
        distinct = np.unique(X[:, f])
        for lo, hi in zip(distinct, distinct[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] < thr
            gl, hl = g[left].sum(), h[left].sum()
            gr, hr = g_total - gl, h_total - hl
            if hl < min_child_weight or hr < min_child_weight:
                continue
            gain = 0.5 * (score(gl, hl) + score(gr, hr) - parent)
            if gain > 0:
                candidates.append((gain, f, thr))
    return candidates


def round0_gradients(labels, positive_class_weight=1.0):
    """Gradients/hessians at the base score, derived from first principles."""
    y = labels.astype(np.float64)
    w = np.where(y == 1, positive_class_weight, 1.0)
    p_bar = (w * y).sum() / w.sum()
    p = np.full(y.size, p_bar)
    return w * (p - y), w * p * (1.0 - p), math.log(p_bar / (1.0 - p_bar))


class TestLeafWeight:
    def test_plain_newton_weight(self):
        assert leaf_weight(2.0, 4.0, 1.0, 0.0) == -0.4

    def test_soft_threshold_weight(self):
        assert abs(leaf_weight(2.0, 4.0, 1.0, 0.6) - (-0.28)) < 1e-15

    def test_l1_zeroes_small_gradients(self):
        assert leaf_weight(0.5, 4.0, 1.0, 0.6) == 0.0

    def test_random_tuples_match_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = float(rng.normal(scale=5))
            h = float(rng.uniform(0.1, 10))
            lam = float(rng.uniform(0, 5))
            alpha = float(rng.uniform(0, 2))
            s = math.copysign(max(abs(g) - alpha, 0.0), g)
            assert abs(leaf_weight(g, h, lam, alpha) - (-s / (h + lam))) < 1e-12

    def test_soft_threshold_vectorized(self):
        out = soft_threshold(np.array([-3.0, -0.5, 0.0, 0.5, 3.0]), 1.0)
        assert out.tolist() == [-2.0, 0.0, 0.0, 0.0, 2.0]


class TestSplitFinding:
    def test_depth1_separates_one_dimensional_classes(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(-2, -0.1, 10), rng.uniform(0.1, 2, 10)])
        y = np.array([0] * 10 + [1] * 10)
        data = make_dataset(x, y)
        params = GbdtParams(
            learning_rate=0.5, n_estimators=10, max_depth=1, min_child_weight=0.0
        )
        model = train(data, params)
        root = model.trees[0]
        assert not root.is_leaf
        assert -0.1 <= root.threshold <= 0.1
        assert np.array_equal(predict_proba(model, data.features) >= 0.5, y)

    def test_best_split_matches_exhaustive_enumeration(self):
        # The trained split must attain the gain an exhaustive enumeration
        # finds. Exact (feature, threshold) identity is only required when
        # the optimum is unique: exactly tied gains (they happen when the
        # class counts make subset sums equal) may resolve to any member
        # of the tie set once float noise orders them.
        rng = np.random.default_rng(42)
        for trial in range(100):
            X = rng.normal(size=(8, 2))
            y = rng.integers(0, 2, 8)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            lam = float(rng.uniform(0, 2))
            alpha = float(rng.uniform(0, 0.5))
            params = GbdtParams(
                learning_rate=1.0,
                n_estimators=1,
                max_depth=1,
                lambda_l2=lam,
                alpha_l1=alpha,
                min_child_weight=0.0,
            )
            data = make_dataset(X, y)
            model = train(data, params)
            g, h, _ = round0_gradients(data.labels)
            candidates = exhaustive_split_candidates(X, g, h, lam, alpha, 0.0)
            root = model.trees[0]
            if not candidates:
                assert root.is_leaf, f"trial {trial}"
                continue
            best_gain = max(gain for gain, _, _ in candidates)
            if root.is_leaf:
                assert best_gain <= 1e-9, f"trial {trial}: missed gain {best_gain}"
                continue
            chosen = [
                gain
                for gain, f, thr in candidates
                if f == root.feature_index and abs(thr - root.threshold) < 1e-12
            ]
            assert chosen, f"trial {trial}: chosen split not among oracle candidates"
            assert chosen[0] >= best_gain - 1e-9, f"trial {trial}"
            near_optimal = [c for c in candidates if abs(c[0] - best_gain) < 1e-9]
            if len(near_optimal) == 1:
                _, feature, threshold = near_optimal[0]
                assert root.feature_index == feature, f"trial {trial}"
                assert abs(root.threshold - threshold) < 1e-12

    def test_min_child_weight_blocks_small_children(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0, 0, 0, 1])
        data = make_dataset(x, y)
        loose = train(data, GbdtParams(n_estimators=1, max_depth=1, min_child_weight=0.0))
        assert not loose.trees[0].is_leaf
        # Each row's hessian is p(1-p) = 0.1875, so any single-row child
        # is infeasible once min_child_weight exceeds it.
        strict = train(data, GbdtParams(n_estimators=1, max_depth=1, min_child_weight=10.0))
        assert strict.trees[0].is_leaf

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(1)
        data = make_dataset(rng.normal(size=(200, 3)), rng.integers(0, 2, 200))
        model = train(data, GbdtParams(n_estimators=3, max_depth=2))

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert all(depth(t) <= 2 for t in model.trees)

    def test_histogram_mode_quantile_candidates(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=5000)
        cand = candidate_thresholds(values, 256)
        assert cand.size <= 255
        assert np.all(np.diff(cand) > 0)
        # exact mode on few distinct values: midpoints
        cand2 = candidate_thresholds(np.array([1.0, 2.0, 2.0, 4.0]), 256)
        assert cand2.tolist() == [1.5, 3.0]

    @staticmethod
    def unique_then_quantile(values, n_bins):
        """candidate_thresholds as first written: np.unique, then np.quantile
        on the unsorted values."""
        distinct = np.unique(values)
        if distinct.size <= 1:
            return np.empty(0, dtype=np.float64)
        if distinct.size <= n_bins:
            return (distinct[:-1] + distinct[1:]) / 2.0
        return np.unique(np.quantile(values, np.arange(1, n_bins) / n_bins))

    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            max_size=120,
        ),
        n_bins=st.integers(2, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_candidates_match_unique_then_quantile(self, values, n_bins):
        values = np.array(values, dtype=np.float64)
        got = candidate_thresholds(values, n_bins)
        want = self.unique_then_quantile(values, n_bins)
        # +0.0 and -0.0 compare equal, and so bin every value alike.
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0]),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            max_size=120,
        ),
        n_bins=st.integers(2, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_binning_matches_searchsorted_oracle(self, values, n_bins):
        """One argsort per column gives the thresholds candidate_thresholds
        gives and the bins searchsorted(thresholds, column, "right") gives.
        Columns: the drawn values (ties, +-0.0, 0 or 1 rows), few distinct
        values, and constant."""
        col = np.array(values, dtype=np.float64)
        X = np.column_stack([col, np.round(col / 1e6), np.full(col.size, 2.5)])
        thresholds, binned = boosting._bin_features(X, n_bins)
        # n_bins <= 40, so every code 0..n_bins-1 fits uint8.
        assert binned.shape == (3, col.size) and binned.dtype == np.uint8
        for f in range(3):
            want = candidate_thresholds(X[:, f], n_bins)
            # +0.0 and -0.0 compare equal, and so bin every value alike.
            np.testing.assert_array_equal(thresholds[f], want)
            np.testing.assert_array_equal(binned[f], np.searchsorted(want, X[:, f], side="right"))

    @pytest.mark.parametrize(
        "n_bins, n_distinct, dtype",
        [
            (128, 1000, np.uint8),
            (256, 1000, np.uint8),
            (257, 1000, np.uint16),
            (70_000, 66_000, np.uint32),
        ],
    )
    def test_bin_codes_take_the_narrowest_unsigned_dtype(self, n_bins, n_distinct, dtype):
        """Codes 0..n_bins-1 are stored in the narrowest unsigned dtype that
        holds them and still equal the searchsorted oracle, also where the
        top code is that dtype's maximum (255 at 256 bins) or needs the next
        width (256 at 257 bins, 65,999 from 66,000 distinct values)."""
        rng = np.random.default_rng(n_bins)
        col = rng.permutation(n_distinct).astype(np.float64)
        col = np.concatenate([col, col[:40]])
        X = np.column_stack([col, np.round(col / 100)])
        thresholds, binned = boosting._bin_features(X, n_bins)
        assert binned.dtype == dtype
        assert binned[0].max() == min(n_bins, n_distinct) - 1
        for f in range(2):
            want = candidate_thresholds(X[:, f], n_bins)
            np.testing.assert_array_equal(thresholds[f], want)
            np.testing.assert_array_equal(binned[f], np.searchsorted(want, X[:, f], side="right"))

    @pytest.mark.parametrize("n_bins", [256, 257])
    def test_narrow_codes_grow_the_int64_code_trees(self, monkeypatch, n_bins):
        """Codes enter only integer keys and comparisons, and the histogram
        key (code + node slot * width) stays int64, so trees grown from uint8
        or uint16 codes equal those grown from int64 codes, here with keys
        far past either type's range."""
        data = _oracle_dataset(np.random.default_rng(n_bins), 1000)
        params = GbdtParams(n_estimators=2, max_depth=5, n_bins=n_bins, min_child_weight=0.0)
        narrow = train(data, params).to_json()
        monkeypatch.setattr(boosting, "_code_dtype", lambda n_bins: np.dtype(np.int64))
        assert train(data, params).to_json() == narrow

    def test_constant_feature_never_split(self):
        data = make_dataset(np.ones((30, 1)), np.array([0, 1] * 15))
        model = train(data, GbdtParams(n_estimators=2, max_depth=3))
        assert all(t.is_leaf for t in model.trees)


class TestScore:
    def test_matches_the_sign_form(self):
        """max(|G| - alpha, 0) squared equals soft_threshold(G) squared bit
        for bit; a NaN stays NaN (its sign bit may differ)."""
        G = np.array([np.nan, -np.nan, 0.0, -0.0, 1.0, -1.0, 0.3, -0.3, 0.5, -0.5, 2.0, -7.25])
        H = np.array([1.0, 1.0, 0.5, 0.5, -1.0, 2.0, 0.0, 3.0, 1.0, 1.0, np.nan, 4.0])
        for alpha in (0.0, 0.5, 3.0):
            for lam in (0.0, 1.0):
                s = soft_threshold(G, alpha)
                with np.errstate(divide="ignore", invalid="ignore"):
                    want = np.where(H + lam > 0, s * s / (H + lam), 0.0)
                got = _score(G, H, lam, alpha)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestTrainingDynamics:
    def test_loss_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 4))
        y = (X[:, 0] + 0.5 * rng.normal(size=500) > 0).astype(int)
        data = make_dataset(X, y)
        model = train(data, GbdtParams(learning_rate=0.3, n_estimators=50, max_depth=3))
        losses = model.train_loss
        assert len(losses) == 51
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_base_score_is_weighted_prior_log_odds(self):
        y = np.array([0] * 90 + [1] * 10)
        data = make_dataset(np.arange(100, dtype=float), y)
        model = train(data, GbdtParams(n_estimators=0))
        assert abs(model.base_score - math.log(0.1 / 0.9)) < 1e-12
        weighted = train(data, GbdtParams(n_estimators=0, positive_class_weight=9.0))
        assert abs(weighted.base_score - math.log(0.5 / 0.5)) < 1e-12

    def test_zero_tree_model_predicts_base_rate(self):
        y = np.array([0] * 75 + [1] * 25)
        data = make_dataset(np.arange(100, dtype=float), y)
        model = train(data, GbdtParams(n_estimators=0))
        proba = predict_proba(model, np.array([[1.0], [50.0]]))
        assert np.allclose(proba, 0.25, atol=1e-12)

    def test_single_leaf_weight_matches_closed_form_and_scales_with_class_weight(self):
        # A constant feature forces a single-leaf tree, so the leaf must
        # carry -S(sum g)/(sum h + lambda) for the round-0 derivatives.
        y = np.array([0] * 30 + [1] * 10)
        data = make_dataset(np.ones(40), y)
        for pcw in (1.0, 3.5, 57.727):
            params = GbdtParams(
                n_estimators=1, max_depth=2, lambda_l2=2.0, alpha_l1=0.1,
                positive_class_weight=pcw,
            )
            model = train(data, params)
            root = model.trees[0]
            assert root.is_leaf
            g, h, _ = round0_gradients(data.labels, pcw)
            assert abs(root.weight - leaf_weight(g.sum(), h.sum(), 2.0, 0.1)) < 1e-12

    def test_huge_l2_drives_leaf_weights_to_zero(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] > 0.5).astype(int)
        data = make_dataset(X, y)
        model = train(data, GbdtParams(n_estimators=5, max_depth=3, lambda_l2=1e6))
        weights = [
            abs(node.weight)
            for tree in model.trees
            for node in _walk_nodes(tree)
            if node.is_leaf
        ]
        assert max(weights) < 1e-3

    def test_leaf_weights_recheck_by_replaying_rounds(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(120, 3))
        y = (X[:, 1] - 0.3 * X[:, 0] > 0).astype(int)
        data = make_dataset(X, y)
        params = GbdtParams(
            learning_rate=0.4, n_estimators=6, max_depth=3, lambda_l2=1.3, alpha_l1=0.2
        )
        model = train(data, params)
        margins = np.full(data.n_rows, model.base_score)
        w = np.ones(data.n_rows)
        for root in model.trees:
            p = 1.0 / (1.0 + np.exp(-margins))
            g = w * (p - y)
            h = w * p * (1.0 - p)
            for leaf, idx in _leaf_partition(root, X):
                expected = leaf_weight(g[idx].sum(), h[idx].sum(), 1.3, 0.2)
                assert abs(leaf.weight - expected) < 1e-9
            margins = margins + params.learning_rate * apply_tree(root, X)

    def test_single_class_rejected(self):
        data = make_dataset(np.arange(10, dtype=float), np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="both classes"):
            train(data, GbdtParams(n_estimators=1))

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(300, 4))
        y = (X.sum(axis=1) > 0).astype(int)
        data = make_dataset(X, y)
        params = GbdtParams(n_estimators=10, max_depth=3)
        a = train(data, params)
        b = train(data, params)
        assert a.to_json() == b.to_json()


# The per-node grower that training used before level-wise growth, kept
# verbatim as the oracle: the level-wise grower must build the same trees.
@dataclass(frozen=True)
class _Split:
    feature: int
    position: int
    threshold: float
    gain: float


def _find_best_split(
    binned: np.ndarray,
    idx: np.ndarray,
    thresholds: list[np.ndarray],
    g_node: np.ndarray,
    h_node: np.ndarray,
    g_total: float,
    h_total: float,
    params: GbdtParams,
) -> _Split | None:
    """Best (feature, threshold) by Newton gain.

    Gain ties break toward the lower feature index, then the lower
    threshold. Returns None when no candidate has positive gain and
    min_child_weight-feasible children.
    """
    lam, alpha, mcw = params.lambda_l2, params.alpha_l1, params.min_child_weight
    parent_score = _score(np.array(g_total), np.array(h_total), lam, alpha)
    best: _Split | None = None
    for f in range(binned.shape[0]):
        cand = thresholds[f]
        if cand.size == 0:
            continue
        bins = binned[f, idx]
        n_bins_f = cand.size + 1
        g_hist = np.bincount(bins, weights=g_node, minlength=n_bins_f)
        h_hist = np.bincount(bins, weights=h_node, minlength=n_bins_f)
        gl = np.cumsum(g_hist)[:-1]
        hl = np.cumsum(h_hist)[:-1]
        gr = g_total - gl
        hr = h_total - hl
        gains = 0.5 * (_score(gl, hl, lam, alpha) + _score(gr, hr, lam, alpha) - parent_score)
        feasible = (hl >= mcw) & (hr >= mcw)
        gains = np.where(feasible, gains, -np.inf)
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain > 0 and (best is None or gain > best.gain):
            best = _Split(feature=f, position=pos, threshold=float(cand[pos]), gain=gain)
    return best


def reference_grow_tree(
    binned: np.ndarray,
    thresholds: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
    histograms=None,
) -> tuple[TreeNode, np.ndarray]:
    """Grow one tree; returns the root and each row's raw leaf value.
    ``histograms``, _grow_tree's histogram builder, is not used."""
    leaf_values = np.empty(g.size, dtype=np.float64)

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        g_node = g[idx]
        h_node = h[idx]
        g_total = float(g_node.sum())
        h_total = float(h_node.sum())
        if depth < params.max_depth:
            split = _find_best_split(
                binned, idx, thresholds, g_node, h_node, g_total, h_total, params
            )
            if split is not None:
                left = binned[split.feature, idx] <= split.position
                return TreeNode.split(
                    feature_index=split.feature,
                    threshold=split.threshold,
                    left=build(idx[left], depth + 1),
                    right=build(idx[~left], depth + 1),
                )
        w = leaf_weight(g_total, h_total, params.lambda_l2, params.alpha_l1)
        leaf_values[idx] = w
        return TreeNode.leaf(w)

    root = build(np.arange(g.size), 0)
    return root, leaf_values


def _oracle_dataset(rng, n_rows):
    """Features with a duplicated column (ties go to the lower index), a
    constant column and a few-valued column."""
    x = rng.normal(size=(n_rows, 3))
    X = np.column_stack(
        [x[:, 0], x[:, 1], x[:, 1], np.full(n_rows, 2.5), np.round(x[:, 2] * 2), x[:, 2]]
    )
    logits = 1.5 * x[:, 0] - x[:, 1] + rng.normal(size=n_rows)
    y = (logits > np.quantile(logits, 0.7)).astype(int)
    y[:2] = [0, 1]
    return make_dataset(X, y)


ORACLE_CASES = [
    # (n_rows, params)
    (300, dict(n_estimators=3, max_depth=7)),
    (300, dict(n_estimators=3, max_depth=7, n_bins=16)),
    (200, dict(n_estimators=3, max_depth=3, n_bins=2)),
    (200, dict(n_estimators=3, max_depth=7, n_bins=3, lambda_l2=0.0, min_child_weight=0.0)),
    (300, dict(n_estimators=3, max_depth=4, alpha_l1=0.5, min_child_weight=3.0)),
    (300, dict(n_estimators=3, max_depth=1, positive_class_weight=7.0)),
    (100, dict(n_estimators=0)),
    (2, dict(n_estimators=2, max_depth=7, min_child_weight=0.0)),
    # 40 open nodes at depth 6 (TestCellBudget splits such levels into passes).
    (1000, dict(n_estimators=1, max_depth=7, min_child_weight=0.0)),
]


class TestLevelwiseMatchesPerNodeGrowth:
    @pytest.mark.parametrize("n_rows, kwargs", ORACLE_CASES)
    def test_model_json_byte_equal(self, monkeypatch, n_rows, kwargs):
        data = _oracle_dataset(np.random.default_rng(n_rows), n_rows)
        params = GbdtParams(**kwargs)
        levelwise = train(data, params).to_json()
        monkeypatch.setattr(boosting, "_grow_tree", reference_grow_tree)
        assert train(data, params).to_json() == levelwise

    def test_seeded_random_configs_byte_equal(self, monkeypatch):
        rng = np.random.default_rng(2024)
        configs = []
        for _ in range(12):
            data = _oracle_dataset(rng, int(rng.integers(2, 150)))
            params = GbdtParams(
                learning_rate=float(rng.uniform(0.1, 1.0)),
                n_estimators=2,
                max_depth=int(rng.integers(1, 8)),
                lambda_l2=float(rng.choice([0.0, 1.0, 5.0])),
                alpha_l1=float(rng.choice([0.0, 0.2])),
                positive_class_weight=float(rng.choice([1.0, 7.0])),
                n_bins=int(rng.choice([2, 3, 16, 256])),
                min_child_weight=float(rng.choice([0.0, 0.5, 3.0])),
            )
            configs.append((data, params, train(data, params).to_json()))
        monkeypatch.setattr(boosting, "_grow_tree", reference_grow_tree)
        for data, params, levelwise in configs:
            assert train(data, params).to_json() == levelwise, params


class TestCellBudget:
    @pytest.mark.parametrize("budget", [1, 700, 2000])
    def test_several_passes_give_the_one_pass_model(self, monkeypatch, budget):
        """A level whose nodes do not fit the cell budget is built over
        several passes, down to one node per pass, with the same trees."""
        data = _oracle_dataset(np.random.default_rng(1000), 1000)
        params = GbdtParams(n_estimators=2, max_depth=7, min_child_weight=0.0, n_bins=16)
        one_pass = train(data, params).to_json()
        monkeypatch.setattr(boosting, "_CELLS_PER_PASS", budget)
        assert train(data, params).to_json() == one_pass

    @pytest.mark.parametrize("score_cells, chunk_nodes", [(1, 1), (300, 3)])
    def test_score_chunks_give_the_whole_level_model(self, monkeypatch, score_cells, chunk_nodes):
        """Scoring a pass's nodes one at a time, or a few at a time, gives the
        trees of scoring each whole level at once, byte for byte."""
        data = _oracle_dataset(np.random.default_rng(1000), 1000)
        params = GbdtParams(n_estimators=2, max_depth=5, min_child_weight=0.0, n_bins=16)
        chunks = []
        best_splits = boosting._best_splits

        def spy(C, *args):
            chunks.append(C.shape[0])
            return best_splits(C, *args)

        monkeypatch.setattr(boosting, "_best_splits", spy)
        monkeypatch.setattr(boosting, "_CELLS_PER_SCORE", 1 << 30)
        whole_level = train(data, params).to_json()
        assert max(chunks) == 16  # depth 4's level, whole
        monkeypatch.setattr(boosting, "_CELLS_PER_SCORE", score_cells)
        chunks.clear()
        assert train(data, params).to_json() == whole_level
        assert max(chunks) == chunk_nodes


def _walk_nodes(node):
    yield node
    if not node.is_leaf:
        yield from _walk_nodes(node.left)
        yield from _walk_nodes(node.right)


def _leaf_partition(root, X):
    """(leaf node, row indices routed to it) pairs."""
    out = []

    def walk(node, idx):
        if node.is_leaf:
            out.append((node, idx))
            return
        left = X[idx, node.feature_index] < node.threshold
        walk(node.left, idx[left])
        walk(node.right, idx[~left])

    walk(root, np.arange(X.shape[0]))
    return out


class TestPrediction:
    def setup_method(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(400, 5))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        self.data = make_dataset(X, y)
        self.model = train(self.data, GbdtParams(n_estimators=15, max_depth=3))
        self.rows = rng.normal(size=(50, 5))

    def test_proba_is_sigmoid_of_margin(self):
        margins = predict_margin(self.model, self.rows)
        proba = predict_proba(self.model, self.rows)
        assert np.allclose(proba, 1.0 / (1.0 + np.exp(-margins)), atol=1e-12)

    def test_proba_sorts_like_margin(self):
        margins = predict_margin(self.model, self.rows)
        proba = predict_proba(self.model, self.rows)
        assert np.array_equal(np.argsort(margins), np.argsort(proba))

    def test_feature_count_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            predict_margin(self.model, np.zeros((3, 4)))

    @pytest.mark.parametrize(
        "value", [np.nan, -np.nan, np.inf, -np.inf], ids=["nan", "-nan", "inf", "-inf"]
    )
    def test_non_finite_cell_refused_naming_its_column(self, value):
        rows = self.rows.copy()
        rows[7, 3] = rows[2, 4] = value
        with pytest.raises(ValueError, match="^column 3 holds a non-finite value$"):
            predict_proba(self.model, rows)

    def test_margin_additivity(self):
        margins = predict_margin(self.model, self.rows)
        manual = np.full(50, self.model.base_score)
        for tree in self.model.trees:
            manual += self.model.params.learning_rate * apply_tree(tree, self.rows)
        assert np.allclose(margins, manual, atol=0)


class TestSerialization:
    def test_round_trip_preserves_margins_bit_exactly(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] > 0).astype(int)
        data = make_dataset(X, y)
        model = train(data, GbdtParams(n_estimators=12, max_depth=4, alpha_l1=0.05))
        restored = GbdtModel.from_json(model.to_json())
        test_rows = rng.normal(size=(100, 4))
        a = predict_margin(model, test_rows)
        b = predict_margin(restored, test_rows)
        assert np.array_equal(a, b)

    def test_round_trip_preserves_params(self):
        data = make_dataset(np.arange(20, dtype=float), np.array([0, 1] * 10))
        model = train(data, GbdtParams(n_estimators=2, max_depth=2, positive_class_weight=3.0))
        restored = GbdtModel.from_json(model.to_json())
        assert restored.params == model.params
        assert restored.base_score == model.base_score
        assert restored.train_loss == model.train_loss

    @pytest.mark.parametrize("version", [2, 99])
    def test_version_checked(self, version):
        """Version 2 trees carried a missing-value direction; they are
        refused rather than read without it."""
        data = make_dataset(np.arange(20, dtype=float), np.array([0, 1] * 10))
        doc = json.loads(train(data, GbdtParams(n_estimators=1, max_depth=1)).to_json())
        doc["format_version"] = version
        with pytest.raises(ValueError, match=f"^unsupported model format version {version}$"):
            GbdtModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("feature", 0.9),
            ("feature", True),
            ("feature", "0"),
            ("threshold", "0.5"),
            ("threshold", None),
            ("weight", "1.0"),
            ("weight", False),
            ("base_score", "0.5"),
            ("feature_count", 1.0),
            ("train_loss", "0.5"),
        ],
    )
    def test_mistyped_field_refused(self, field, value):
        data = make_dataset(np.arange(20, dtype=float), np.array([0, 1] * 10))
        doc = json.loads(train(data, GbdtParams(n_estimators=1, max_depth=1)).to_json())
        root = doc["trees"][0]
        assert "feature" in root
        holder = {"weight": root["left"], "base_score": doc, "feature_count": doc, "train_loss": doc}
        holder.get(field, root)[field] = value
        with pytest.raises(ValueError, match=field):
            GbdtModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["trees"][0].pop("left"), "missing key 'left'"),
            (lambda doc: doc["trees"].__setitem__(0, [1]), "trees.0 must be a JSON object"),
            (lambda doc: doc.pop("trees"), "missing key 'trees'"),
            (lambda doc: doc.update(params=[0.3]), "params must be a JSON object"),
            (lambda doc: doc.update(trees=3), "trees must be a JSON array, got 3"),
            (lambda doc: doc.update(trees={"0": {}}), "trees must be a JSON array"),
            (lambda doc: doc.update(train_loss=0.5), "train_loss must be a JSON array, got 0.5"),
        ],
        ids=[
            "missing-node-key", "list-tree", "missing-trees", "list-params",
            "number-trees", "object-trees", "number-train-loss",
        ],
    )
    def test_malformed_model_file_names_the_field(self, edit, message):
        data = make_dataset(np.arange(20, dtype=float), np.array([0, 1] * 10))
        doc = json.loads(train(data, GbdtParams(n_estimators=1, max_depth=1)).to_json())
        assert "left" in doc["trees"][0]
        edit(doc)
        with pytest.raises(ValueError, match=message):
            GbdtModel.from_json(json.dumps(doc))

    def test_feature_index_validation(self):
        for feature in (5, -1):
            bad = TreeNode.split(feature, 0.1, TreeNode.leaf(0.0), TreeNode.leaf(0.0))
            with pytest.raises(ValueError, match="feature"):
                GbdtModel(trees=(bad,), base_score=0.0, params=GbdtParams(), feature_count=2)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"max_depth": 0},
            {"lambda_l2": -1.0},
            {"alpha_l1": -0.1},
            {"positive_class_weight": 0.0},
            {"n_bins": 1},
            {"min_child_weight": -1.0},
            {"n_estimators": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GbdtParams(**kwargs)

    @pytest.mark.parametrize("name", ["n_estimators", "max_depth", "n_bins"])
    @pytest.mark.parametrize("value", [2.5, 16.0, True, "8", None])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(ValueError, match=name):
            GbdtParams(**{name: value})

    @pytest.mark.parametrize(
        "name",
        ["learning_rate", "lambda_l2", "alpha_l1", "positive_class_weight", "min_child_weight"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "0.3", None])
    def test_float_fields_reject_non_finite_or_non_real(self, name, value):
        with pytest.raises(ValueError, match=name):
            GbdtParams(**{name: value})

    def test_numpy_integers_stored_as_int(self):
        params = GbdtParams(n_estimators=np.int64(3), max_depth=np.int32(2), n_bins=np.uint8(16))
        assert [type(v) for v in (params.n_estimators, params.max_depth, params.n_bins)] == [int] * 3
        assert GbdtModel.from_json(train(make_dataset([0.0, 1.0], [0, 1]), params).to_json()).params == params

    def test_dict_round_trip(self):
        params = GbdtParams(learning_rate=0.4, n_estimators=1000, n_bins=256)
        assert GbdtParams.from_dict(params.to_dict()) == params


def test_weighted_log_loss_stable_at_extreme_margins():
    y = np.array([1.0, 0.0])
    m = np.array([500.0, -500.0])
    w = np.ones(2)
    assert weighted_log_loss(y, m, w) < 1e-200
    flipped = weighted_log_loss(y, -m, w)
    assert math.isfinite(flipped) and flipped > 100


def _processes(monkeypatch, count):
    """Have every parallel stage use ``count`` processes or threads, and
    return the pids of the processes os.fork starts."""
    monkeypatch.setattr(dataset, "_parallelism", lambda n_tasks: count)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _few_features_data():
    """One feature to split on and a constant column: fewer feature slots
    than processes."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=400)
    y = (x + rng.normal(size=400) > 0.8).astype(int)
    return make_dataset(np.column_stack([x, np.full(400, -1.5)]), y)


class TestHistogramProcesses:
    @pytest.mark.parametrize(
        "data, params",
        [
            # 256 bins, depth 6, five feature slots (one column is constant).
            (
                _oracle_dataset(np.random.default_rng(600), 600),
                GbdtParams(n_estimators=3, max_depth=6, min_child_weight=0.0),
            ),
            (_few_features_data(), GbdtParams(n_estimators=3, max_depth=4, n_bins=16)),
        ],
    )
    def test_model_json_byte_equal_for_any_process_count(self, monkeypatch, data, params):
        models = {}
        for processes in (1, 2, 3):
            pids = _processes(monkeypatch, processes)
            models[processes] = train(data, params).to_json()
            assert len(pids) == processes - 1
        assert models[2] == models[1] and models[3] == models[1]

    def test_bins_equal_for_any_thread_count(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = np.column_stack(
            [rng.normal(size=3000), np.round(rng.normal(size=3000)), np.full(3000, 2.5)]
            + [rng.permutation(3000).astype(np.float64) for _ in range(4)]
        )
        monkeypatch.setattr(dataset, "_parallelism", lambda n_tasks: 1)
        thresholds, binned = boosting._bin_features(X, 256)
        monkeypatch.setattr(dataset, "_parallelism", lambda n_tasks: 2)
        threaded_thresholds, threaded_binned = boosting._bin_features(X, 256)
        assert binned.tobytes() == threaded_binned.tobytes()
        for want, got in zip(thresholds, threaded_thresholds, strict=True):
            assert want.tobytes() == got.tobytes()

    def test_zero_rounds_fork_no_helper(self, monkeypatch):
        pids = _processes(monkeypatch, 2)
        train(_few_features_data(), GbdtParams(n_estimators=0))
        assert pids == []

    @staticmethod
    def assert_no_child():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_helper_outlives_training(self, monkeypatch):
        pids = _processes(monkeypatch, 3)
        train(_few_features_data(), GbdtParams(n_estimators=2, max_depth=3))
        assert len(pids) == 2
        self.assert_no_child()

    def test_no_helper_outlives_a_failed_round(self, monkeypatch):
        pids = _processes(monkeypatch, 2)
        rounds = []
        grow_tree, best_splits = boosting._grow_tree, boosting._best_splits

        def counting_grow_tree(*args):
            rounds.append(None)
            return grow_tree(*args)

        def failing_best_splits(*args):
            if len(rounds) == 2:
                raise RuntimeError("split search failed")
            return best_splits(*args)

        monkeypatch.setattr(boosting, "_grow_tree", counting_grow_tree)
        monkeypatch.setattr(boosting, "_best_splits", failing_best_splits)
        with pytest.raises(RuntimeError, match="split search failed"):
            train(_few_features_data(), GbdtParams(n_estimators=3, max_depth=3))
        assert len(pids) == 1 and len(rounds) == 2
        self.assert_no_child()

    def test_killed_helper_fails_the_training_stage(self, monkeypatch):
        """A helper killed between levels ends the scenario with an error
        naming the training stage, and does not hang it."""
        pids = _processes(monkeypatch, 2)
        # One process per task, so the fingerprint of these 2,000 rows (one
        # range) forks no pool, and the one pid recorded is the helper's.
        monkeypatch.setattr(dataset, "_parallelism", lambda n_tasks: min(2, n_tasks))
        best_splits = boosting._best_splits
        killed = []

        def killing_best_splits(*args):
            if not killed:
                (helper,) = pids
                os.kill(helper, signal.SIGKILL)
                killed.append(helper)
            return best_splits(*args)

        class Hung(BaseException):
            pass

        def hung(signum, frame):
            raise Hung("training did not end within 60 s of the helper's death")

        monkeypatch.setattr(boosting, "_best_splits", killing_best_splits)
        spec = ScenarioSpec(
            name="killed-helper",
            placement=Placement.NO_SAMPLING,
            split=SplitSpec(0.2, 42, True),
            model=GbdtParams(n_estimators=2, max_depth=3),
        )
        data = generate_synthetic_imbalanced(2000, 0.1, 4, 1.5, seed=3)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ScenarioError, match="stage 'model training': histogram helper"):
                run_scenario(data, spec)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert killed == pids
        self.assert_no_child()
