"""Newton-boosted decision trees for binary classification.

Trees are grown greedily, one level at a time, on first- and second-order
derivatives of the weighted logistic loss. Split candidates come from
per-feature quantile histograms (exact midpoints when a feature has few
distinct values). Each level's histograms are built exactly, with no
sibling subtraction, so the trees are identical to those of growing one
node at a time. Leaf values solve the L1/L2-regularized Newton step in
closed form, and each split learns which way rows with missing values
(NaN) should go.

Training is fully deterministic: there is no row or column subsampling,
and all tie-breaks are by lower feature index, then lower threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import TabularDataset, as_int, as_object, as_real

MODEL_FORMAT_VERSION = 2

# Nodes whose histograms are built and scored together. It bounds each of a
# pass's histogram and gain arrays to _NODES_PER_PASS * features * bins cells.
_NODES_PER_PASS = 32


@dataclass(frozen=True)
class GbdtParams:
    learning_rate: float = 0.3
    n_estimators: int = 100
    max_depth: int = 4
    lambda_l2: float = 1.0
    alpha_l1: float = 0.0
    positive_class_weight: float = 1.0
    n_bins: int = 256
    min_child_weight: float = 1.0

    def __post_init__(self):
        for name in ("n_estimators", "max_depth", "n_bins"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        for name in ("learning_rate", "lambda_l2", "alpha_l1", "positive_class_weight", "min_child_weight"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.n_estimators < 0:
            raise ValueError("n_estimators cannot be negative")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.lambda_l2 < 0 or self.alpha_l1 < 0:
            raise ValueError("regularization terms cannot be negative")
        if self.positive_class_weight <= 0:
            raise ValueError("positive_class_weight must be positive")
        if self.n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        if self.min_child_weight < 0:
            raise ValueError("min_child_weight cannot be negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GbdtParams":
        return cls(**d)


@dataclass(frozen=True)
class TreeNode:
    """Either an internal split or a leaf; leaves carry the Newton weight."""

    weight: float | None = None
    feature_index: int | None = None
    threshold: float | None = None
    missing_goes_left: bool | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @classmethod
    def leaf(cls, weight: float) -> "TreeNode":
        return cls(weight=weight)

    @classmethod
    def split(
        cls,
        feature_index: int,
        threshold: float,
        missing_goes_left: bool,
        left: "TreeNode",
        right: "TreeNode",
    ) -> "TreeNode":
        return cls(
            feature_index=feature_index,
            threshold=threshold,
            missing_goes_left=missing_goes_left,
            left=left,
            right=right,
        )

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"weight": self.weight}
        return {
            "feature": self.feature_index,
            "threshold": self.threshold,
            "missing_left": self.missing_goes_left,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict, path: str = "tree") -> "TreeNode":
        """The node a to_dict document at ``path`` describes; a field of the
        wrong type is a ValueError that names it, never a silent coercion."""
        d = as_object(path, d)
        if "weight" in d:
            return cls.leaf(as_real(f"{path}.weight", d["weight"]))
        if not isinstance(d["missing_left"], bool):
            raise ValueError(
                f"{path}.missing_left must be true or false, got {d['missing_left']!r}"
            )
        return cls.split(
            feature_index=as_int(f"{path}.feature", d["feature"]),
            threshold=as_real(f"{path}.threshold", d["threshold"]),
            missing_goes_left=d["missing_left"],
            left=cls.from_dict(d["left"], f"{path}.left"),
            right=cls.from_dict(d["right"], f"{path}.right"),
        )


@dataclass(frozen=True)
class GbdtModel:
    trees: tuple[TreeNode, ...]
    base_score: float
    params: GbdtParams
    feature_count: int
    train_loss: tuple[float, ...] = ()

    def __post_init__(self):
        for t, root in enumerate(self.trees):
            for node in _walk(root):
                if not node.is_leaf and not 0 <= node.feature_index < self.feature_count:
                    raise ValueError(
                        f"tree {t} splits on feature {node.feature_index}, "
                        f"model has features 0..{self.feature_count - 1}"
                    )

    def to_json(self) -> str:
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "params": self.params.to_dict(),
            "base_score": self.base_score,
            "feature_count": self.feature_count,
            "train_loss": list(self.train_loss),
            "trees": [t.to_dict() for t in self.trees],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GbdtModel":
        """The model a to_json document describes; a missing key or a field
        of the wrong type is a ValueError that names it."""
        doc = as_object("model", json.loads(text))
        version = doc.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}")
        try:
            return cls(
                trees=tuple(
                    TreeNode.from_dict(t, f"trees.{i}") for i, t in enumerate(doc["trees"])
                ),
                base_score=as_real("base_score", doc["base_score"]),
                params=GbdtParams.from_dict(as_object("params", doc["params"])),
                feature_count=as_int("feature_count", doc["feature_count"]),
                train_loss=tuple(as_real("train_loss", v) for v in doc.get("train_loss", ())),
            )
        except KeyError as exc:
            raise ValueError(f"model file is missing key {exc}") from exc


def _walk(node: TreeNode):
    yield node
    if not node.is_leaf:
        yield from _walk(node.left)
        yield from _walk(node.right)


def soft_threshold(g: float, alpha: float):
    """L1 shrinkage: sign(g) * max(|g| - alpha, 0). Works elementwise."""
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def leaf_weight(g_sum: float, h_sum: float, lambda_l2: float, alpha_l1: float) -> float:
    """Closed-form Newton leaf value -S(G) / (H + lambda)."""
    denom = h_sum + lambda_l2
    if denom <= 0:
        return 0.0
    return float(-soft_threshold(g_sum, alpha_l1) / denom)


def _sigmoid(m: np.ndarray) -> np.ndarray:
    out = np.empty_like(m, dtype=np.float64)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def weighted_log_loss(labels: np.ndarray, margins: np.ndarray, weights: np.ndarray) -> float:
    """Weighted mean logistic loss of raw margins, numerically stable."""
    z = np.where(labels == 1, -margins, margins)
    losses = np.logaddexp(0.0, z)
    return float((weights * losses).sum() / weights.sum())


def candidate_thresholds(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Split candidates for one feature column (NaN ignored).

    Features with at most n_bins distinct values get exact midpoints
    between consecutive distinct values; denser features get n_bins - 1
    interior quantiles, deduplicated.
    """
    ordered = np.sort(values[~np.isnan(values)])
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    if distinct.size <= 1:
        return np.empty(0, dtype=np.float64)
    if distinct.size <= n_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    qs = np.arange(1, n_bins) / n_bins
    return np.unique(np.quantile(ordered, qs))


def _bin_features(X: np.ndarray, thresholds: list[np.ndarray]) -> np.ndarray:
    """Bin index per cell, feature-major: count of thresholds <= value;
    -1 marks missing.

    A row goes left at threshold t exactly when its value < t, i.e. when
    its bin index is <= the threshold's position.
    """
    n, n_feat = X.shape
    binned = np.empty((n_feat, n), dtype=np.int32)
    for f in range(n_feat):
        col = X[:, f]
        missing = np.isnan(col)
        binned[f] = np.searchsorted(thresholds[f], col, side="right")
        binned[f, missing] = -1
    return binned


def _score(G: np.ndarray, H: np.ndarray, lam: float, alpha: float) -> np.ndarray:
    s = soft_threshold(G, alpha)
    denom = H + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(denom > 0, s * s / denom, 0.0)
    return out


def _grow_tree(
    binned: np.ndarray,
    feature_has_missing: np.ndarray,
    thresholds: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
) -> tuple[TreeNode, np.ndarray]:
    """Grow one tree level by level; returns the root and each row's raw leaf value.

    Each level's gradient and hessian histograms come from one keyed
    bincount per feature (key: node slot * width + bin + 1, so missing
    values fall in column 0), and every (node, feature, threshold) of the
    level is scored at once. A node's rows stay in ascending order, so
    each histogram cell adds the same values in the same order as a
    bincount over that node alone would: the trees are exactly those of
    greedy per-node growth.

    A node splits on the highest positive Newton gain whose children both
    meet min_child_weight. Gain ties break toward the lower feature index,
    then the lower threshold; missing-direction ties break left.
    """
    lam, alpha, mcw = params.lambda_l2, params.alpha_l1, params.min_child_weight
    feats = [f for f, cand in enumerate(thresholds) if cand.size]
    sizes = np.array([thresholds[f].size for f in feats], dtype=np.int64)
    width = int(sizes.max(initial=0)) + 2
    valid = np.arange(width - 2) < sizes[:, None]
    with_missing = [j for j, f in enumerate(feats) if feature_has_missing[f]]
    leaf_values = np.empty(g.size, dtype=np.float64)
    # Breadth-first: a leaf, or (feature, threshold, missing_left, left child's index).
    nodes: list = []
    level, depth = [np.arange(g.size)], 0
    while level:
        k = len(level)
        g_tot = np.array([g[idx].sum() for idx in level])
        h_tot = np.array([h[idx].sum() for idx in level])
        splits = [None] * k
        for lo in range(0, k if depth < params.max_depth and feats else 0, _NODES_PER_PASS):
            part = level[lo : lo + _NODES_PER_PASS]
            m = len(part)
            # Rows keep their original order; rows outside this pass's nodes
            # fill a spare slot m that is never read.
            base = np.full(g.size, m * width + 1)
            for slot, idx in enumerate(part):
                base[idx] = slot * width + 1
            G = np.empty((m, len(feats), width))
            H = np.empty_like(G)
            for j, f in enumerate(feats):
                key = binned[f] + base
                G[:, j] = np.bincount(key, g, (m + 1) * width).reshape(m + 1, width)[:m]
                H[:, j] = np.bincount(key, h, (m + 1) * width).reshape(m + 1, width)[:m]
            gt, ht = g_tot[lo : lo + m, None, None], h_tot[lo : lo + m, None, None]
            parent = _score(gt, ht, lam, alpha)

            def gains_for(gl, hl):
                gr, hr = gt - gl, ht - hl
                gains = 0.5 * (_score(gl, hl, lam, alpha) + _score(gr, hr, lam, alpha) - parent)
                return np.where(valid & (hl >= mcw) & (hr >= mcw), gains, -np.inf)

            g_left = np.cumsum(G[:, :, 1:-1], axis=2)
            h_left = np.cumsum(H[:, :, 1:-1], axis=2)
            gains = gains_for(g_left, h_left)
            go_left = np.ones(gains.shape, dtype=bool)
            if with_missing:
                # Missing mass is the node total less its present bins, so a
                # node without missing rows may keep a rounding residue; with
                # none at all both directions tie, and the tie goes left.
                g_miss = np.zeros((m, len(feats), 1))
                h_miss = np.zeros_like(g_miss)
                for j in with_missing:
                    present = slice(1, sizes[j] + 2)
                    g_miss[:, j, 0] = gt[:, 0, 0] - G[:, j, present].sum(axis=1)
                    h_miss[:, j, 0] = ht[:, 0, 0] - H[:, j, present].sum(axis=1)
                gains_ml = gains_for(g_left + g_miss, h_left + h_miss)
                go_left = gains_ml >= gains
                gains = np.where(go_left, gains_ml, gains)
            gains, go_left = gains.reshape(m, -1), go_left.reshape(m, -1)
            for i, b in enumerate(gains.argmax(axis=1)):
                if gains[i, b] > 0:
                    j, pos = divmod(int(b), width - 2)
                    splits[lo + i] = (feats[j], pos, bool(go_left[i, b]))
        next_level = []
        first_child = len(nodes) + k
        for idx, g_sum, h_sum, split in zip(level, g_tot, h_tot, splits):
            if split is None:
                w = leaf_weight(float(g_sum), float(h_sum), lam, alpha)
                leaf_values[idx] = w
                nodes.append(TreeNode.leaf(w))
                continue
            f, pos, missing_left = split
            bins = binned[f][idx]
            left = (bins <= pos) & (missing_left | (bins >= 0))
            nodes.append((f, float(thresholds[f][pos]), missing_left, first_child + len(next_level)))
            next_level += [idx[left], idx[~left]]
        level, depth = next_level, depth + 1
    for i in reversed(range(len(nodes))):
        if isinstance(nodes[i], tuple):
            f, threshold, missing_left, child = nodes[i]
            nodes[i] = TreeNode.split(f, threshold, missing_left, nodes[child], nodes[child + 1])
    return nodes[0], leaf_values


def train(train_data: TabularDataset, params: GbdtParams) -> GbdtModel:
    """Fit a boosted ensemble on the weighted logistic loss.

    Per round the margin m gives p = sigmoid(m), per-row gradient
    w * (p - y), and hessian w * p * (1 - p), where w is
    positive_class_weight for positive rows and 1 otherwise. The base
    score is the log-odds of the weighted positive rate, so even an empty
    ensemble is calibrated to the class balance. train_loss records the
    weighted log loss after each round, starting from the bare base score.
    """
    X = train_data.features
    y = train_data.labels.astype(np.float64)
    if X.shape[1] == 0:
        raise ValueError("training data has no feature columns")
    if np.isinf(X).any():
        raise ValueError("infinite feature values are not allowed; use NaN for missing")
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise ValueError("training data must contain both classes")

    w = np.where(y == 1, params.positive_class_weight, 1.0)
    p_bar = float((w * y).sum() / w.sum())
    base_score = math.log(p_bar / (1.0 - p_bar))

    thresholds = [candidate_thresholds(X[:, f], params.n_bins) for f in range(X.shape[1])]
    binned = _bin_features(X, thresholds)
    feature_has_missing = np.isnan(X).any(axis=0)

    margins = np.full(y.size, base_score, dtype=np.float64)
    losses = [weighted_log_loss(y, margins, w)]
    trees: list[TreeNode] = []
    for _ in range(params.n_estimators):
        p = _sigmoid(margins)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        root, leaf_values = _grow_tree(binned, feature_has_missing, thresholds, g, h, params)
        trees.append(root)
        margins = margins + params.learning_rate * leaf_values
        losses.append(weighted_log_loss(y, margins, w))

    return GbdtModel(
        trees=tuple(trees),
        base_score=base_score,
        params=params,
        feature_count=X.shape[1],
        train_loss=tuple(losses),
    )


def apply_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """Raw leaf value per row; NaN cells follow the stored direction."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.weight
            continue
        col = X[idx, node.feature_index]
        missing = np.isnan(col)
        left = np.where(missing, node.missing_goes_left, col < node.threshold)
        stack.append((node.left, idx[left]))
        stack.append((node.right, idx[~left]))
    return out


def _check_rows(model: GbdtModel, rows) -> np.ndarray:
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("rows must be a 2-D feature matrix")
    if X.shape[1] != model.feature_count:
        raise ValueError(
            f"model expects {model.feature_count} features, rows have {X.shape[1]}"
        )
    return X


def predict_margin(model: GbdtModel, rows) -> np.ndarray:
    """Raw additive margin: base score plus scaled leaf values."""
    X = _check_rows(model, rows)
    margins = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for root in model.trees:
        margins += model.params.learning_rate * apply_tree(root, X)
    return margins


def predict_proba(model: GbdtModel, rows) -> np.ndarray:
    """Positive-class probability per row."""
    return _sigmoid(predict_margin(model, rows))


def predict(model: GbdtModel, rows, threshold: float = 0.5) -> np.ndarray:
    """Hard labels: probability >= threshold maps to class 1."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    return (predict_proba(model, rows) >= threshold).astype(np.int64)
