"""Class-rebalancing samplers with provenance tagging.

All samplers target a post-step minority/majority count ratio given by
``sampling_strategy`` and tag every row they create, so downstream leakage
checks can tell created rows from loaded ones. Samplers never touch the
partitioning of data; they transform exactly the dataset they are handed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .dataset import RowProvenance, TabularDataset, as_int, as_real, round_half_up


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
    behind, in (0, 1]. k_neighbors only matters for SMOTE.
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
        if self.kind == SamplerKind.SMOTE and self.k_neighbors < 1:
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


# Float64 cells in one block of _nearest_neighbor_table's difference tensor
# (32 MB), so its memory stays bounded whatever the minority count.
_KNN_BLOCK_ELEMENTS = 1 << 22


def _class_split(train: TabularDataset) -> tuple[int, np.ndarray, np.ndarray]:
    """Resolve the minority label and per-class row indices.

    Ties go to class 1 so the positive class stays the resampling target
    on exactly balanced data.
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
    rng)`` differs between them: it returns the n_new new feature rows and
    their provenance, drawing from the rng seeded with ``spec.seed``. A
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
    new_features, new_provenance = make_rows(min_idx, n_new, np.random.default_rng(spec.seed))
    return TabularDataset(
        features=np.vstack([train.features, new_features]),
        feature_names=train.feature_names,
        labels=np.concatenate([train.labels, np.full(n_new, minority_label, dtype=np.int64)]),
        provenance=train.provenance + tuple(new_provenance),
    )


def random_oversample(train: TabularDataset, spec: SamplerSpec) -> TabularDataset:
    """Duplicate minority rows uniformly at random until the target ratio.

    New rows are exact copies tagged Duplicate(source row index); majority
    rows are untouched.
    """

    def copies(min_idx, n_new, rng):
        sources = rng.choice(min_idx, size=n_new, replace=True)
        return train.features[sources], [RowProvenance.duplicate(int(s)) for s in sources]

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
    """Indices of each point's k nearest neighbors (self excluded).

    Exact brute-force Euclidean search; distance ties break toward the
    lower row index, NaN distances sort last, exactly as the first k
    columns of a stable row-wise argsort. Query rows go in blocks whose
    difference tensor holds at most _KNN_BLOCK_ELEMENTS cells. In each
    block, np.partition finds every row's k-th smallest distance; the
    cells not above it (NaN cells included, so rows with NaN stay exact)
    are ordered by (row, distance, column) and the first k per row kept.
    """
    m = points.shape[0]
    rows = max(1, _KNN_BLOCK_ELEMENTS // max(1, m * points.shape[1]))
    table = np.empty((m, k), dtype=np.intp)
    for s in range(0, m, rows):
        e = min(s + rows, m)
        diffs = points[s:e, None, :] - points[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diffs, diffs)
        dist2[np.arange(e - s), np.arange(s, e)] = np.inf
        kth = np.partition(dist2, k - 1, axis=1)[:, k - 1 : k]
        r, c = np.nonzero(~(dist2 > kth))
        order = np.lexsort((c, dist2[r, c], r))
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
        return a + u[:, None] * (b - a), [RowProvenance.synthetic("smote")] * n_new

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
        draws = mean + rng.standard_normal((n_new, points.shape[1])) * std
        return draws, [RowProvenance.synthetic("gaussian")] * n_new

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
