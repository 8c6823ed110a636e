import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakguard import boosting
from leakguard.boosting import (
    GbdtModel,
    GbdtParams,
    TreeNode,
    _score,
    apply_tree,
    candidate_thresholds,
    leaf_weight,
    predict,
    predict_margin,
    predict_proba,
    soft_threshold,
    train,
    weighted_log_loss,
)
from leakguard.dataset import RowProvenance, TabularDataset


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
        assert np.array_equal(predict(model, data.features, 0.5), y)

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
        finite = values[~np.isnan(values)]
        distinct = np.unique(finite)
        if distinct.size <= 1:
            return np.empty(0, dtype=np.float64)
        if distinct.size <= n_bins:
            return (distinct[:-1] + distinct[1:]) / 2.0
        return np.unique(np.quantile(finite, np.arange(1, n_bins) / n_bins))

    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([np.nan, 0.0, -0.0, 1.0, 2.5, -3.0]),
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

    def test_constant_feature_never_split(self):
        data = make_dataset(np.ones((30, 1)), np.array([0, 1] * 15))
        model = train(data, GbdtParams(n_estimators=2, max_depth=3))
        assert all(t.is_leaf for t in model.trees)


class TestMissingValues:
    def test_learned_direction_routes_with_informative_class(self):
        x = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, np.nan, np.nan, np.nan, np.nan])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
        data = make_dataset(x, y)
        params = GbdtParams(n_estimators=1, max_depth=1, min_child_weight=0.0)
        model = train(data, params)
        root = model.trees[0]
        assert not root.is_leaf
        assert 1.5 < root.threshold < 2.0
        assert root.missing_goes_left is False  # NaN rows are all positive
        missing_row = np.array([[np.nan]])
        finite_pos = np.array([[3.0]])
        assert predict_proba(model, missing_row)[0] == predict_proba(model, finite_pos)[0]

    def test_missing_direction_flips_with_labels(self):
        x = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, np.nan, np.nan, np.nan, np.nan])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0])
        data = make_dataset(x, y)
        model = train(data, GbdtParams(n_estimators=1, max_depth=1, min_child_weight=0.0))
        assert model.trees[0].missing_goes_left is True

    def test_infinite_values_rejected(self):
        data = make_dataset(np.array([0.0, np.inf]), np.array([0, 1]))
        with pytest.raises(ValueError, match="NaN"):
            train(data, GbdtParams(n_estimators=1))

    def test_prediction_follows_stored_direction(self):
        left_leaf = TreeNode.leaf(-1.0)
        right_leaf = TreeNode.leaf(2.0)
        root = TreeNode.split(0, 0.5, missing_goes_left=True, left=left_leaf, right=right_leaf)
        out = apply_tree(root, np.array([[np.nan], [0.0], [1.0]]))
        assert out.tolist() == [-1.0, -1.0, 2.0]


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
    missing_goes_left: bool
    gain: float


def _find_best_split(
    binned: np.ndarray,
    idx: np.ndarray,
    feature_has_missing: np.ndarray,
    thresholds: list[np.ndarray],
    g_node: np.ndarray,
    h_node: np.ndarray,
    g_total: float,
    h_total: float,
    params: GbdtParams,
) -> _Split | None:
    """Best (feature, threshold, missing direction) by Newton gain.

    Gain ties break toward the lower feature index, then the lower
    threshold; missing-direction ties break left. Returns None when no
    candidate has positive gain and min_child_weight-feasible children.
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
        if feature_has_missing[f]:
            present = bins >= 0
            g_hist = np.bincount(bins[present], weights=g_node[present], minlength=n_bins_f)
            h_hist = np.bincount(bins[present], weights=h_node[present], minlength=n_bins_f)
            g_missing = g_total - g_hist.sum()
            h_missing = h_total - h_hist.sum()
        else:
            g_hist = np.bincount(bins, weights=g_node, minlength=n_bins_f)
            h_hist = np.bincount(bins, weights=h_node, minlength=n_bins_f)
            g_missing = 0.0
            h_missing = 0.0
        g_left = np.cumsum(g_hist)[:-1]
        h_left = np.cumsum(h_hist)[:-1]

        def gains_for(gl, hl):
            gr = g_total - gl
            hr = h_total - hl
            gains = 0.5 * (_score(gl, hl, lam, alpha) + _score(gr, hr, lam, alpha) - parent_score)
            feasible = (hl >= mcw) & (hr >= mcw)
            return np.where(feasible, gains, -np.inf)

        if g_missing == 0.0 and h_missing == 0.0:
            # No missing mass here: both directions score identically and
            # the tie resolves left.
            gains = gains_for(g_left, h_left)
            pos = int(np.argmax(gains))
            gain = float(gains[pos])
            go_left_pos = True
        else:
            gains_ml = gains_for(g_left + g_missing, h_left + h_missing)
            gains_mr = gains_for(g_left, h_left)
            go_left = gains_ml >= gains_mr
            gains = np.where(go_left, gains_ml, gains_mr)
            pos = int(np.argmax(gains))
            gain = float(gains[pos])
            go_left_pos = bool(go_left[pos])
        if gain > 0 and (best is None or gain > best.gain):
            best = _Split(
                feature=f,
                position=pos,
                threshold=float(cand[pos]),
                missing_goes_left=go_left_pos,
                gain=gain,
            )
    return best


def reference_grow_tree(
    binned: np.ndarray,
    feature_has_missing: np.ndarray,
    thresholds: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
) -> tuple[TreeNode, np.ndarray]:
    """Grow one tree; returns the root and each row's raw leaf value."""
    leaf_values = np.empty(g.size, dtype=np.float64)

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        g_node = g[idx]
        h_node = h[idx]
        g_total = float(g_node.sum())
        h_total = float(h_node.sum())
        if depth < params.max_depth:
            split = _find_best_split(
                binned, idx, feature_has_missing, thresholds,
                g_node, h_node, g_total, h_total, params,
            )
            if split is not None:
                bins = binned[split.feature, idx]
                if feature_has_missing[split.feature]:
                    left = ((bins >= 0) & (bins <= split.position)) | (
                        (bins < 0) & split.missing_goes_left
                    )
                else:
                    left = bins <= split.position
                return TreeNode.split(
                    feature_index=split.feature,
                    threshold=split.threshold,
                    missing_goes_left=split.missing_goes_left,
                    left=build(idx[left], depth + 1),
                    right=build(idx[~left], depth + 1),
                )
        w = leaf_weight(g_total, h_total, params.lambda_l2, params.alpha_l1)
        leaf_values[idx] = w
        return TreeNode.leaf(w)

    root = build(np.arange(g.size), 0)
    return root, leaf_values


def _oracle_dataset(rng, n_rows, nan_fraction):
    """Features with a duplicated column (ties go to the lower index), a
    constant column, a few-valued column and, optionally, NaN cells."""
    x = rng.normal(size=(n_rows, 3))
    X = np.column_stack(
        [x[:, 0], x[:, 1], x[:, 1], np.full(n_rows, 2.5), np.round(x[:, 2] * 2), x[:, 2]]
    )
    if nan_fraction:
        X[rng.random(X.shape) < nan_fraction] = np.nan
        X[: n_rows // 3, 5] = np.nan
    logits = 1.5 * x[:, 0] - x[:, 1] + rng.normal(size=n_rows)
    y = (logits > np.quantile(logits, 0.7)).astype(int)
    y[:2] = [0, 1]
    return make_dataset(X, y)


ORACLE_CASES = [
    # (n_rows, nan_fraction, params)
    (300, 0.0, dict(n_estimators=3, max_depth=7)),
    (300, 0.2, dict(n_estimators=3, max_depth=7, n_bins=16)),
    (200, 0.1, dict(n_estimators=3, max_depth=3, n_bins=2)),
    (200, 0.1, dict(n_estimators=3, max_depth=7, n_bins=3, lambda_l2=0.0, min_child_weight=0.0)),
    (300, 0.1, dict(n_estimators=3, max_depth=4, alpha_l1=0.5, min_child_weight=3.0)),
    (300, 0.2, dict(n_estimators=3, max_depth=1, positive_class_weight=7.0)),
    (100, 0.1, dict(n_estimators=0)),
    (2, 0.0, dict(n_estimators=2, max_depth=7, min_child_weight=0.0)),
    # 42 open nodes at depth 6: more than one pass of _NODES_PER_PASS.
    (1000, 0.1, dict(n_estimators=1, max_depth=7, min_child_weight=0.0)),
]


class TestLevelwiseMatchesPerNodeGrowth:
    @pytest.mark.parametrize("n_rows, nan_fraction, kwargs", ORACLE_CASES)
    def test_model_json_byte_equal(self, monkeypatch, n_rows, nan_fraction, kwargs):
        data = _oracle_dataset(np.random.default_rng(n_rows), n_rows, nan_fraction)
        params = GbdtParams(**kwargs)
        levelwise = train(data, params).to_json()
        monkeypatch.setattr(boosting, "_grow_tree", reference_grow_tree)
        assert train(data, params).to_json() == levelwise

    def test_seeded_random_configs_byte_equal(self, monkeypatch):
        rng = np.random.default_rng(2024)
        configs = []
        for _ in range(12):
            data = _oracle_dataset(
                rng, int(rng.integers(2, 150)), float(rng.choice([0.0, 0.05, 0.3]))
            )
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
        col = X[idx, node.feature_index]
        left = np.where(np.isnan(col), node.missing_goes_left, col < node.threshold)
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

    def test_threshold_convention(self):
        proba = predict_proba(self.model, self.rows)
        labels = predict(self.model, self.rows, 0.5)
        assert np.array_equal(labels, (proba >= 0.5).astype(int))

    def test_feature_count_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            predict_margin(self.model, np.zeros((3, 4)))

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
        X[rng.random(X.shape) < 0.05] = np.nan
        y = (np.nan_to_num(X[:, 0]) > 0).astype(int)
        data = make_dataset(X, y)
        model = train(data, GbdtParams(n_estimators=12, max_depth=4, alpha_l1=0.05))
        restored = GbdtModel.from_json(model.to_json())
        test_rows = rng.normal(size=(100, 4))
        test_rows[rng.random(test_rows.shape) < 0.1] = np.nan
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

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            GbdtModel.from_json('{"format_version": 99, "trees": []}')

    @pytest.mark.parametrize(
        "field, value",
        [
            ("missing_left", "false"),
            ("missing_left", 0),
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
        ],
        ids=["missing-node-key", "list-tree", "missing-trees", "list-params"],
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
            bad = TreeNode.split(feature, 0.1, True, TreeNode.leaf(0.0), TreeNode.leaf(0.0))
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
