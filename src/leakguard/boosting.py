"""Newton-boosted decision trees for binary classification.

Trees are grown greedily, one level at a time, on first- and second-order
derivatives of the weighted logistic loss. Split candidates come from
per-feature quantile histograms (exact midpoints when a feature has few
distinct values), each feature binned from one argsort. Each level's
gradient and hessian histograms are built together, as the real and
imaginary parts of one complex scatter-add per feature, exactly and with
no sibling subtraction, so the trees are identical to those of growing
one node at a time. Leaf values solve the L1/L2-regularized Newton step in
closed form. Every feature cell is finite: a dataset refuses NaN and
±inf when it is built, and prediction refuses rows that hold one.

Training is fully deterministic: there is no row or column subsampling,
and all tie-breaks are by lower feature index, then lower threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import TabularDataset, _refuse_cells, as_int, as_object, as_real

MODEL_FORMAT_VERSION = 3

# Histogram cells (node, feature, bin) built together: a pass takes as many
# of a level's nodes as fit, and at least one. Every pass scatters every
# row again, so this stays large: depth 6 at 256 bins on 34 features fills
# 279,616 cells, and a level of any shipped config is one pass.
_CELLS_PER_PASS = 1 << 19

# Histogram cells scored together: a pass's nodes are scored in chunks of
# as many nodes as fit, and at least one. It bounds the dozen gain-search
# temporaries, each 8 bytes a cell, to a few MB whatever the pass holds.
_CELLS_PER_SCORE = 1 << 16


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
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @classmethod
    def leaf(cls, weight: float) -> "TreeNode":
        return cls(weight=weight)

    @classmethod
    def split(
        cls, feature_index: int, threshold: float, left: "TreeNode", right: "TreeNode"
    ) -> "TreeNode":
        return cls(feature_index=feature_index, threshold=threshold, left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.weight is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"weight": self.weight}
        return {
            "feature": self.feature_index,
            "threshold": self.threshold,
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
        return cls.split(
            feature_index=as_int(f"{path}.feature", d["feature"]),
            threshold=as_real(f"{path}.threshold", d["threshold"]),
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
            trees, train_loss = doc["trees"], doc.get("train_loss", [])
            for name, value in (("trees", trees), ("train_loss", train_loss)):
                if not isinstance(value, list):
                    raise ValueError(f"{name} must be a JSON array, got {value!r}")
            return cls(
                trees=tuple(TreeNode.from_dict(t, f"trees.{i}") for i, t in enumerate(trees)),
                base_score=as_real("base_score", doc["base_score"]),
                params=GbdtParams.from_dict(as_object("params", doc["params"])),
                feature_count=as_int("feature_count", doc["feature_count"]),
                train_loss=tuple(as_real("train_loss", v) for v in train_loss),
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


def _thresholds_of_sorted(ordered: np.ndarray, n_bins: int) -> np.ndarray:
    """candidate_thresholds' rule, given a column's values sorted."""
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    if distinct.size <= 1:
        return np.empty(0, dtype=np.float64)
    if distinct.size <= n_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    qs = np.arange(1, n_bins) / n_bins
    return np.unique(np.quantile(ordered, qs))


def candidate_thresholds(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Split candidates for one feature column.

    Features with at most n_bins distinct values get exact midpoints
    between consecutive distinct values; denser features get n_bins - 1
    interior quantiles, deduplicated.
    """
    return _thresholds_of_sorted(np.sort(values), n_bins)


def _code_dtype(n_bins: int) -> np.dtype:
    """The narrowest unsigned integer dtype holding every bin code
    0..n_bins-1: uint8 up to 256 bins, uint16 up to 65,536, then uint32."""
    return np.min_scalar_type(n_bins - 1)


def _bin_features(X: np.ndarray, n_bins: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Each feature's candidate thresholds, and the bin index per cell
    (feature-major).

    A cell's bin is the count of thresholds <= its value:
    searchsorted(thresholds, column, "right"). A row goes left at
    threshold t exactly when its value < t, i.e. when its bin index is <=
    the threshold's position. Bins are stored in _code_dtype(n_bins):
    uint8 at the default 256 bins, a quarter of the bytes of int32.

    One argsort per column serves both: the sorted values give the
    thresholds, and searchsorted(sorted values, thresholds, "left") gives
    where each bin's run of sorted values starts, which the order scatters
    back to the rows. Temporaries are one column's worth.
    """
    n, n_feat = X.shape
    binned = np.empty((n_feat, n), dtype=_code_dtype(n_bins))
    thresholds = []
    for f in range(n_feat):
        col = np.ascontiguousarray(X[:, f])
        order = np.argsort(col)
        ordered = col[order]
        cand = _thresholds_of_sorted(ordered, n_bins)
        starts = np.searchsorted(ordered, cand, side="left")
        runs = np.diff(starts, prepend=0, append=n)
        binned[f, order] = np.repeat(np.arange(cand.size + 1, dtype=binned.dtype), runs)
        thresholds.append(cand)
    return thresholds, binned


def _score(G: np.ndarray, H: np.ndarray, lam: float, alpha: float) -> np.ndarray:
    """Newton score soft_threshold(G)**2 / (H + lambda), 0 where the
    denominator is not positive. The sign soft_threshold restores squares
    away, so max(|G| - alpha, 0) alone gives the same bits (a NaN stays
    NaN)."""
    s = np.maximum(np.abs(G) - alpha, 0.0)
    denom = H + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(denom > 0, s * s / denom, 0.0)
    return out


def _best_splits(
    C: np.ndarray,
    g_tot: np.ndarray,
    h_tot: np.ndarray,
    sizes: np.ndarray,
    params: GbdtParams,
) -> list[tuple[int, int] | None]:
    """Each node's best split, from its histograms, as (feature slot,
    threshold position), or None when no candidate gains.

    C is (nodes, feature slots, width) complex: the real part sums the
    gradients and the imaginary part the hessians, column b over bin b.
    Slot j has sizes[j] thresholds. Each node is scored on its own, so any
    grouping of nodes gives the same splits.
    """
    lam, alpha, mcw = params.lambda_l2, params.alpha_l1, params.min_child_weight
    m, _, width = C.shape
    valid = np.arange(width - 1) < sizes[:, None]
    gt, ht = g_tot[:, None, None], h_tot[:, None, None]
    gl = np.cumsum(C.real[:, :, :-1], axis=2)
    hl = np.cumsum(C.imag[:, :, :-1], axis=2)
    gr, hr = gt - gl, ht - hl
    gains = 0.5 * (
        _score(gl, hl, lam, alpha) + _score(gr, hr, lam, alpha) - _score(gt, ht, lam, alpha)
    )
    gains = np.where(valid & (hl >= mcw) & (hr >= mcw), gains, -np.inf).reshape(m, -1)
    found: list[tuple[int, int] | None] = [None] * m
    for i, b in enumerate(gains.argmax(axis=1)):
        if gains[i, b] > 0:
            found[i] = divmod(int(b), width - 1)
    return found


def _grow_tree(
    binned: np.ndarray,
    thresholds: list[np.ndarray],
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
) -> tuple[TreeNode, np.ndarray]:
    """Grow one tree level by level; returns the root and each row's raw leaf value.

    Each level's gradient and hessian histograms come from one keyed
    scatter-add per feature of the complex values g + i*h (key: node slot
    * width + bin): complex addition adds the real and imaginary parts
    apart, so the real part of a cell is its gradient sum and the imaginary
    part its hessian sum. Every (node, feature, threshold) of a pass is then
    scored by _best_splits, in chunks of at most _CELLS_PER_SCORE cells
    (one node at least). A node's rows stay in ascending order, so each
    histogram cell adds the same values in the same order as a bincount
    over that node alone would: the trees are exactly those of greedy
    per-node growth.

    A node splits on the highest positive Newton gain whose children both
    meet min_child_weight. Gain ties break toward the lower feature index,
    then the lower threshold.
    """
    lam, alpha = params.lambda_l2, params.alpha_l1
    feats = [f for f, cand in enumerate(thresholds) if cand.size]
    sizes = np.array([thresholds[f].size for f in feats], dtype=np.int64)
    width = int(sizes.max(initial=0)) + 1
    nodes_per_pass = max(1, _CELLS_PER_PASS // (len(feats) * width or 1))
    nodes_per_score = max(1, _CELLS_PER_SCORE // (len(feats) * width or 1))
    gh = np.empty(g.size, dtype=np.complex128)
    gh.real, gh.imag = g, h
    leaf_values = np.empty(g.size, dtype=np.float64)
    # Breadth-first: a leaf, or (feature, threshold, left child's index).
    nodes: list = []
    level, depth = [np.arange(g.size)], 0
    while level:
        k = len(level)
        g_tot = np.array([g[idx].sum() for idx in level])
        h_tot = np.array([h[idx].sum() for idx in level])
        splits = [None] * k
        for lo in range(0, k if depth < params.max_depth and feats else 0, nodes_per_pass):
            part = level[lo : lo + nodes_per_pass]
            m = len(part)
            # Rows keep their original order; rows outside this pass's nodes
            # fill a spare slot m that is never read.
            base = np.full(g.size, m * width)
            for slot, idx in enumerate(part):
                base[idx] = slot * width
            C = np.zeros((len(feats), (m + 1) * width), dtype=np.complex128)
            for j, f in enumerate(feats):
                np.add.at(C[j], binned[f] + base, gh)
            C = C.reshape(len(feats), m + 1, width).transpose(1, 0, 2)
            for c in range(0, m, nodes_per_score):
                end = min(c + nodes_per_score, m)
                at = slice(lo + c, lo + end)
                found = _best_splits(C[c:end], g_tot[at], h_tot[at], sizes, params)
                splits[at] = [s and (feats[s[0]], s[1]) for s in found]
        next_level = []
        first_child = len(nodes) + k
        for idx, g_sum, h_sum, split in zip(level, g_tot, h_tot, splits):
            if split is None:
                w = leaf_weight(float(g_sum), float(h_sum), lam, alpha)
                leaf_values[idx] = w
                nodes.append(TreeNode.leaf(w))
                continue
            f, pos = split
            left = binned[f][idx] <= pos
            nodes.append((f, float(thresholds[f][pos]), first_child + len(next_level)))
            next_level += [idx[left], idx[~left]]
        level, depth = next_level, depth + 1
    for i in reversed(range(len(nodes))):
        if isinstance(nodes[i], tuple):
            f, threshold, child = nodes[i]
            nodes[i] = TreeNode.split(f, threshold, nodes[child], nodes[child + 1])
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
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise ValueError("training data must contain both classes")

    w = np.where(y == 1, params.positive_class_weight, 1.0)
    p_bar = float((w * y).sum() / w.sum())
    base_score = math.log(p_bar / (1.0 - p_bar))

    thresholds, binned = _bin_features(X, params.n_bins)

    margins = np.full(y.size, base_score, dtype=np.float64)
    losses = [weighted_log_loss(y, margins, w)]
    trees: list[TreeNode] = []
    for _ in range(params.n_estimators):
        p = _sigmoid(margins)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        root, leaf_values = _grow_tree(binned, thresholds, g, h, params)
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
    """Raw leaf value per row: a row goes left where its value < threshold."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[TreeNode, np.ndarray]] = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.weight
            continue
        left = X[idx, node.feature_index] < node.threshold
        stack.append((node.left, idx[left]))
        stack.append((node.right, idx[~left]))
    return out


def _check_rows(model: GbdtModel, rows) -> np.ndarray:
    """rows as a float64 matrix; a ValueError unless it is 2-D, has the
    model's feature count and holds only finite cells, naming the first
    column (by index) that holds a NaN or ±inf."""
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("rows must be a 2-D feature matrix")
    if X.shape[1] != model.feature_count:
        raise ValueError(
            f"model expects {model.feature_count} features, rows have {X.shape[1]}"
        )
    _refuse_cells(X, range(X.shape[1]))
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

