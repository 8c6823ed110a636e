"""Class-rebalancing samplers with provenance tagging.

All samplers target a post-step minority/majority count ratio given by
``sampling_strategy`` and tag every row they create with its kind, a
duplicate or a synthetic row, which a result counts in its test
partition. The leakage verdict does not read those tags: a step only
adds minority rows or only removes majority rows, so a step placed
before the split shows in the class count change, and the verdict reads
that count and whether the scaler saw the full data. Samplers never
touch the partitioning of data; they transform exactly the dataset they
are handed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .dataset import DUPLICATE, SYNTHETIC, TabularDataset, as_int, as_real, frozen, round_half_up


class SamplingError(ValueError):
    """A sampler's preconditions were violated."""


class SamplerKind(str, Enum):
    RANDOM_OVER = "random_over"
    RANDOM_UNDER = "random_under"
    SMOTE = "smote"
    GAUSSIAN_SYNTH = "gaussian_synth"


@dataclass(frozen=True)
class SamplerSpec:
    """One resampling step.

    sampling_strategy is the minority/majority count ratio the step leaves
    behind, in (0, 1]. k_neighbors only matters for SMOTE, but every kind
    needs it to be at least 1.
    """

    kind: SamplerKind
    sampling_strategy: float
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", SamplerKind(self.kind))
        for name in ("k_neighbors", "seed"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        strategy = as_real("sampling_strategy", self.sampling_strategy)
        object.__setattr__(self, "sampling_strategy", strategy)
        if not 0.0 < self.sampling_strategy <= 1.0:
            raise ValueError("sampling_strategy must lie in (0, 1]")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value}

    @classmethod
    def from_dict(cls, d: dict) -> "SamplerSpec":
        return cls(**d)


@dataclass(frozen=True)
class SamplerPipeline:
    """Ordered resampling steps, applied left to right."""

    steps: tuple[SamplerSpec, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("pipeline needs at least one step")
        object.__setattr__(self, "steps", steps)

    def to_dict(self) -> list[dict]:
        return [s.to_dict() for s in self.steps]

    @classmethod
    def from_dict(cls, steps: list[dict]) -> "SamplerPipeline":
        return cls(steps=tuple(SamplerSpec.from_dict(s) for s in steps))


# Float64 difference cells that one block of _nearest_neighbor_table may
# refine (32 MB) when every cell survives its screen, as with identical
# rows; the block's screen itself holds 1/d of that. Memory stays bounded
# whatever the minority count.
_KNN_BLOCK_ELEMENTS = 1 << 22


def _class_split(train: TabularDataset) -> tuple[int, np.ndarray, np.ndarray]:
    """Resolve the minority label and per-class row indices.

    A tie names class 1, and which class it names is never seen: every
    strategy lies in (0, 1], so no step makes the minority the majority,
    and on exactly balanced data every step returns its input or refuses
    with a message that does not name a class.
    """
    pos = np.flatnonzero(train.labels == 1)
    neg = np.flatnonzero(train.labels == 0)
    if pos.size == 0 or neg.size == 0:
        raise SamplingError("resampling needs both classes present")
    if pos.size <= neg.size:
        return 1, pos, neg
    return 0, neg, pos


def _oversample(
    train: TabularDataset,
    spec: SamplerSpec,
    kind: SamplerKind,
    min_minority_rows: int,
    make_rows,
) -> TabularDataset:
    """Append new minority rows until minority/majority reaches the target.

    The steps every oversampler shares. Only ``make_rows(min_idx, n_new,
    rng)`` differs between them: it returns the n_new new feature rows,
    drawing from the rng seeded with ``spec.seed``. The new rows are
    duplicates for random_over and synthetic for every other kind. A
    dataset already at the target ratio is returned as is.
    """
    if spec.kind != kind:
        raise SamplingError(f"spec kind {spec.kind.value} is not {kind.value}")
    minority_label, min_idx, maj_idx = _class_split(train)
    if min_idx.size < min_minority_rows:
        raise SamplingError(
            f"{kind.value} needs at least {min_minority_rows} minority rows, "
            f"got {min_idx.size}"
        )
    target = round_half_up(spec.sampling_strategy * maj_idx.size)
    if target < min_idx.size:
        raise SamplingError(
            f"target ratio {spec.sampling_strategy} is below the current "
            f"ratio {min_idx.size / maj_idx.size:.6g}; oversampling cannot remove rows"
        )
    n_new = target - min_idx.size
    if n_new == 0:
        return train
    new_features = make_rows(min_idx, n_new, np.random.default_rng(spec.seed))
    new_kind = DUPLICATE if kind == SamplerKind.RANDOM_OVER else SYNTHETIC
    return TabularDataset(
        features=frozen(np.vstack([train.features, new_features])),
        feature_names=train.feature_names,
        labels=frozen(
            np.concatenate([train.labels, np.full(n_new, minority_label, dtype=np.int64)])
        ),
        provenance=frozen(np.concatenate([train.provenance, np.full(n_new, new_kind, np.int8)])),
    )


def random_oversample(train: TabularDataset, spec: SamplerSpec) -> TabularDataset:
    """Duplicate minority rows uniformly at random until the target ratio.

    New rows are exact copies tagged duplicate; majority rows are
    untouched.
    """

    def copies(min_idx, n_new, rng):
        return train.features[rng.choice(min_idx, size=n_new, replace=True)]

    return _oversample(train, spec, SamplerKind.RANDOM_OVER, 1, copies)


def random_undersample(train: TabularDataset, spec: SamplerSpec) -> TabularDataset:
    """Remove majority rows uniformly at random until the target ratio.

    Surviving rows keep their original provenance and input order.
    """
    if spec.kind != SamplerKind.RANDOM_UNDER:
        raise SamplingError(f"spec kind {spec.kind.value} is not random_under")
    _, min_idx, maj_idx = _class_split(train)
    target_maj = round_half_up(min_idx.size / spec.sampling_strategy)
    if target_maj > maj_idx.size:
        raise SamplingError(
            f"target ratio {spec.sampling_strategy} is below the current "
            f"ratio {min_idx.size / maj_idx.size:.6g}; undersampling would "
            "have to remove minority rows"
        )
    if target_maj == maj_idx.size:
        return train
    rng = np.random.default_rng(spec.seed)
    survivors = rng.choice(maj_idx, size=target_maj, replace=False)
    keep = np.sort(np.concatenate([min_idx, survivors]))
    return train.select_rows(keep)


def _nearest_neighbor_table(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of each float64 point's k nearest neighbors (self excluded).

    The table is the first k columns of a stable row-wise argsort of the
    difference-form squared distances t_ij = sum_l fl(p_il - p_jl)**2
    with the diagonal set to inf: distance ties break toward the lower
    row index and NaN distances sort last. Query rows go in blocks of
    _KNN_BLOCK_ELEMENTS // (m * d) rows, and each block takes two passes.

    Screen. With c = fl(p - mean) the centred rows and n_i = fl(|c_i|^2),
    one matrix product gives g_ij = n_i + n_j - 2 fl(c_i . c_j), with the
    diagonal set to inf. G_i is the row's k-th smallest g, and every cell
    with g_ij <= G_i + 2 E_i is kept, where E_i bounds |g_ij - t_ij| over
    the row. The k cells of smallest g then have t <= G_i + E_i, so the
    row's k-th smallest t, T_i, is at most G_i + E_i, and every cell with
    t_ij <= T_i has g_ij <= G_i + 2 E_i: the screen keeps every cell the
    table can hold.

    Refine. For the kept cells only, t_ij is computed from the original
    points by the same einsum reduction over d contiguous differences as
    in the one-shot kernel, so each value is bit-identical to it.
    Self-pairs are set to inf, the cells are ordered by (row, t, column),
    and each row's first k are its table row.

    The bound. Let u = 2**-53, eps = 2u, N = |c_i|^2 + |c_j|^2 and
    gamma_d = d u / (1 - d u). Every inner product below is bounded for
    any summation order, with or without FMA (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1): |fl(x.y) - x.y| <=
    gamma_d sum_l |x_l y_l| + d * 2**-1075, the last term for underflow
    in the products. A subtraction's error is relative even when its
    result is subnormal. To first order in u:
    - Centring: c_i = x_i + e_i with x_i = p_i - mean exact and
      |e_il| <= u |x_il|, whatever the mean's own rounding. So
      |x_i| <= (1 + 2u)|c_i| and |e_i - e_j| <= u sqrt(2N).
    - t against D = |p_i - p_j|^2: each difference is rounded once, then
      squared and summed, so |t - D| <= (d + 3) u D + d * 2**-1075, and
      D = |x_i - x_j|^2 <= 2N.
    - D against Dc = |c_i - c_j|^2: with a = x_i - x_j and e = e_i - e_j,
      |Dc - D| = |2 a.e + |e|^2| <= 2 sqrt(2N) u sqrt(2N) = 4u N.
    - g against Dc: the norms cost gamma_d N, the cross term
      2 gamma_d |c_i| |c_j| <= gamma_d N, the two additions, whose
      operands and results are at most 2N, u (2N + 2N), and the
      underflow terms 4d * 2**-1075.
    Summed, |g - t| <= (2d + 7) eps N + 5d * 2**-1075. With
    M = max_j n_j, N <= (n_i + M)(1 + gamma_d) + d * 2**-1074, so
    E_i = 4(d + 4) eps (n_i + M) + 4(d + 4) * 2**-1074 exceeds twice the
    relative term and 4/3 of the absolute one. The spare, at least
    (2d + 9) eps N, absorbs the O(d^2 u^2 N) terms and the rounding of
    E_i and of G_i + 2 E_i. The centring makes N, and so E_i,
    independent of a common offset in the data.

    Range. While n_i + M <= 2**1000 no quantity above overflows. Above
    that, or when n_i + M is inf or NaN (an inf or NaN anywhere in the
    points makes M NaN), E_i is inf: the threshold is inf or NaN, the
    comparison keeps the whole row and it is refined exactly as any
    other. The screen runs under np.errstate, so such input warns only
    from the refine, as the difference-form kernel warns.
    """
    m, d = points.shape
    rows = max(1, _KNN_BLOCK_ELEMENTS // max(1, m * d))
    table = np.empty((m, k), dtype=np.intp)
    with np.errstate(all="ignore"):
        centred = points - points.mean(axis=0)
        sq = np.einsum("ij,ij->i", centred, centred)
        scale = sq + sq.max()
        slack = 4.0 * (d + 4)
        err = np.where(
            scale <= 2.0**1000,
            slack * np.finfo(np.float64).eps * scale
            + slack * np.finfo(np.float64).smallest_subnormal,
            np.inf,
        )
    for s in range(0, m, rows):
        e = min(s + rows, m)
        with np.errstate(all="ignore"):
            screen = centred[s:e] @ centred.T
            screen *= -2.0
            screen += sq[s:e, None]
            screen += sq[None, :]
            screen[np.arange(e - s), np.arange(s, e)] = np.inf
            bound = np.partition(screen, k - 1, axis=1)[:, k - 1 : k] + 2.0 * err[s:e, None]
            r, c = np.nonzero(~(screen > bound))
        diffs = points[s + r]
        diffs -= points[c]
        dist2 = np.einsum("ij,ij->i", diffs, diffs)
        dist2[s + r == c] = np.inf
        order = np.lexsort((c, dist2, r))
        starts = np.searchsorted(r, np.arange(e - s))  # nonzero lists r ascending
        table[s:e] = c[order][starts[:, None] + np.arange(k)]
    return table


def smote(train: TabularDataset, spec: SamplerSpec) -> TabularDataset:
    """Create synthetic minority rows by interpolating toward neighbors.

    Each synthetic row is a + u * (b - a) for a uniformly chosen minority
    row a, one of its k nearest minority neighbors b (uniform), and
    u ~ U[0, 1) drawn per row.
    """

    def interpolations(min_idx, n_new, rng):
        points = train.features[min_idx]
        neighbors = _nearest_neighbor_table(points, spec.k_neighbors)
        base = rng.integers(0, min_idx.size, size=n_new)
        picks = rng.integers(0, spec.k_neighbors, size=n_new)
        u = rng.random(n_new)
        a = points[base]
        b = points[neighbors[base, picks]]
        return a + u[:, None] * (b - a)

    return _oversample(train, spec, SamplerKind.SMOTE, spec.k_neighbors + 1, interpolations)


def gaussian_synthesize(train: TabularDataset, spec: SamplerSpec) -> TabularDataset:
    """Sample synthetic minority rows from a diagonal Gaussian fit.

    A moment-matching stand-in for heavier conditional generators: fits a
    per-feature mean and variance on the minority rows and samples from
    that distribution until the target ratio.
    """

    def gaussian_draws(min_idx, n_new, rng):
        points = train.features[min_idx]
        mean = points.mean(axis=0)
        std = points.std(axis=0, ddof=0)
        return mean + rng.standard_normal((n_new, points.shape[1])) * std

    return _oversample(train, spec, SamplerKind.GAUSSIAN_SYNTH, 2, gaussian_draws)


_SAMPLERS = {
    SamplerKind.RANDOM_OVER: random_oversample,
    SamplerKind.RANDOM_UNDER: random_undersample,
    SamplerKind.SMOTE: smote,
    SamplerKind.GAUSSIAN_SYNTH: gaussian_synthesize,
}


def resample(train: TabularDataset, spec: SamplerSpec) -> TabularDataset:
    """Apply the sampler selected by ``spec.kind``."""
    return _SAMPLERS[spec.kind](train, spec)


def apply_pipeline(train: TabularDataset, pipeline: SamplerPipeline) -> TabularDataset:
    """Run the pipeline steps left to right, each consuming the last output."""
    current = train
    for i, step in enumerate(pipeline.steps):
        try:
            current = resample(current, step)
        except (SamplingError, ValueError) as exc:
            raise SamplingError(
                f"pipeline step {i} ({step.kind.value}): {exc}"
            ) from exc
    return current
