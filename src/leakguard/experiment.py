"""Scenario orchestration: where resampling sits relative to the split.

A scenario runs the same sampler, splitter, and model code regardless of
placement; the only thing placement changes is the order of operations.
Running the pipeline before the split is supported on purpose, clearly
marked leaky, because demonstrating the metric inflation it causes is the
point of this package. Every run audits the split's raw partitions
against the loaded data right after the split, before any post-split
sampling, preprocessing or training; the verdict reads only the class
count change and where the scaler was fitted.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from . import boosting, metrics, sampling
from .dataset import (
    ORIGINAL,
    RowProvenance,
    SplitSpec,
    TabularDataset,
    apply_standardizer,
    as_int,
    as_object,
    as_real,
    class_distribution,
    engineer_time_features,
    fit_standardizer,
    stratified_split,
)

RESULT_FORMAT_VERSION = 5

METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "mcc", "auc")


class ScenarioError(RuntimeError):
    """A scenario stage failed; the message names the stage."""


class Placement(str, Enum):
    NO_SAMPLING = "no_sampling"
    SAMPLING_AFTER_SPLIT = "sampling_after_split"
    SAMPLING_BEFORE_SPLIT = "sampling_before_split"


class Preprocessing(str, Enum):
    """GUARDED fits every transform on the train partition only and
    engineers time features with ``wrap_hours`` set, so hours wrap into
    [0, 24); PAPER_FAITHFUL fits transforms on the full dataset and keeps
    raw hour counts, reproducing the conventional notebook flow.
    """

    GUARDED = "guarded"
    PAPER_FAITHFUL = "paper_faithful"


class Verdict(str, Enum):
    CLEAN = "clean"
    LEAKY = "leaky"


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    placement: Placement
    split: SplitSpec
    model: boosting.GbdtParams
    pipeline: sampling.SamplerPipeline | None = None
    preprocessing: Preprocessing = Preprocessing.GUARDED
    threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "placement", Placement(self.placement))
        object.__setattr__(self, "preprocessing", Preprocessing(self.preprocessing))
        if not self.name:
            raise ValueError("scenario needs a name")
        if not isinstance(self.name, str) or "/" in self.name or "\\" in self.name:
            # run writes <name>-<seed>.result.json, which must stay in out_dir
            raise ValueError(f"scenario name must be a string without / or \\, got {self.name!r}")
        if self.placement == Placement.NO_SAMPLING:
            if self.pipeline is not None:
                raise ValueError("no_sampling scenarios cannot carry a pipeline")
        elif self.pipeline is None:
            raise ValueError(f"{self.placement.value} scenarios need a pipeline")
        object.__setattr__(self, "threshold", as_real("threshold", self.threshold))
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly between 0 and 1")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "placement": self.placement.value,
            "pipeline": self.pipeline.to_dict() if self.pipeline else None,
            "preprocessing": self.preprocessing.value,
            "split": self.split.to_dict(),
            "model": self.model.to_dict(),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        d = as_object("scenario", d)
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(
                f"scenario {d.get('name')!r} has unknown key(s): {', '.join(unknown)}"
            )
        pipeline = d.get("pipeline")
        steps = [] if pipeline is None else as_object("pipeline", pipeline, list)
        steps = [as_object(f"pipeline.{i}", step) for i, step in enumerate(steps)]
        return cls(
            name=d["name"],
            placement=Placement(d["placement"]),
            pipeline=sampling.SamplerPipeline.from_dict(steps) if steps else None,
            preprocessing=Preprocessing(d.get("preprocessing", "guarded")),
            split=SplitSpec.from_dict(as_object("split", d["split"])),
            model=boosting.GbdtParams.from_dict(as_object("model", d["model"])),
            threshold=d.get("threshold", 0.5),
        )


@dataclass(frozen=True)
class LeakageReport:
    """Audit of a split's raw train/test partitions.

    class_count_change is the sum over classes of |train count + test
    count - loaded count|; a split of the loaded data keeps it at 0. Each
    sampler step only adds minority rows or only removes majority rows, so
    a pre-split pipeline raises it by exactly the rows it changed: the
    partitions' excess plus deficit against the loaded rows as multisets.
    The verdict is derived, never read: Leaky exactly when that count is
    positive or the scaler saw the full dataset. synthetic_rows_in_test
    (non-Original test rows) and duplicate_pairs_across_split (exact
    feature-vector matches between the partitions) explain a verdict but
    do not decide it, since duplicates in the loaded data straddle any
    split. A result file supplies only the two measured counts."""

    synthetic_rows_in_test: int
    duplicate_pairs_across_split: int
    scaler_fitted_on_full_data: bool
    class_count_change: int

    def __post_init__(self):
        counts = ("synthetic_rows_in_test", "duplicate_pairs_across_split", "class_count_change")
        for name in counts:
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        flag = self.scaler_fitted_on_full_data
        if not isinstance(flag, bool):
            raise ValueError(f"scaler_fitted_on_full_data must be true or false, got {flag!r}")

    @property
    def verdict(self) -> Verdict:
        leaky = self.class_count_change > 0 or self.scaler_fitted_on_full_data
        return Verdict.LEAKY if leaky else Verdict.CLEAN

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict.value}


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's outcome. The scenario, fingerprint, train class counts,
    test provenance counts, wall time, test labels and scores and the two
    measured audit counts are its primary facts; to_dict derives the rest."""

    scenario: ScenarioSpec
    leakage: LeakageReport
    train_class_counts: dict[int, int]
    test_provenance_counts: dict[str, int]
    wall_time: float
    data_fingerprint: str
    test_labels: tuple[int, ...]
    test_scores: tuple[float, ...]

    @functools.cached_property
    def metrics(self) -> metrics.MetricsReport:
        return metrics.compute_report(self.test_labels, self.test_scores, self.scenario.threshold)

    @property
    def test_class_counts(self) -> dict[int, int]:
        return {0: self.metrics.negative_count, 1: self.metrics.positive_count}

    def to_dict(self) -> dict:
        return {
            "format_version": RESULT_FORMAT_VERSION,
            "scenario": self.scenario.to_dict(),
            "data_fingerprint": self.data_fingerprint,
            "metrics": self.metrics.to_dict(),
            "leakage": self.leakage.to_dict(),
            "train_class_counts": {str(k): v for k, v in self.train_class_counts.items()},
            "test_class_counts": {str(k): v for k, v in self.test_class_counts.items()},
            "test_provenance_counts": dict(self.test_provenance_counts),
            "wall_time": self.wall_time,
            "seeds": {
                "split": self.scenario.split.seed,
                "samplers": [s.seed for s in self.scenario.pipeline.steps]
                if self.scenario.pipeline
                else [],
            },
            "test_labels": list(self.test_labels),
            "test_scores": list(self.test_scores),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioResult":
        """Rebuild a stored result from its primary facts; a file that is not
        exactly its to_dict() is refused, naming the first path that differs."""
        version = d.get("format_version")
        if version != RESULT_FORMAT_VERSION:
            raise ValueError(f"unsupported result format version {version!r}")
        fingerprint = d["data_fingerprint"]
        hex_digits = isinstance(fingerprint, str) and set(fingerprint) <= set("0123456789abcdef")
        if not hex_digits or len(fingerprint) != 64:
            raise ValueError(f"data_fingerprint must be 64 lowercase hex digits, got {fingerprint!r}")
        train_counts = _read_counts(d, "train_class_counts", ("0", "1"))
        wall_time = as_real("wall_time", d["wall_time"])
        if wall_time < 0:
            raise ValueError("wall_time cannot be negative")
        prov = _read_counts(d, "test_provenance_counts", RowProvenance.KINDS)
        scenario = ScenarioSpec.from_dict(d["scenario"])
        leakage = as_object("leakage", d["leakage"])
        result = cls(
            scenario=scenario,
            leakage=LeakageReport(
                synthetic_rows_in_test=prov["duplicate"] + prov["synthetic"],
                duplicate_pairs_across_split=leakage["duplicate_pairs_across_split"],
                scaler_fitted_on_full_data=scenario.preprocessing == Preprocessing.PAPER_FAITHFUL,
                class_count_change=leakage["class_count_change"],
            ),
            train_class_counts={int(k): v for k, v in train_counts.items()},
            test_provenance_counts=prov,
            wall_time=wall_time,
            data_fingerprint=fingerprint,
            test_labels=_read_entries(
                d, "test_labels", {int}, lambda v: (v == 0) | (v == 1), "the integer 0 or 1"
            ),
            test_scores=_read_entries(
                d, "test_scores", {float, int}, np.isfinite, "a finite real number"
            ),
        )
        if sum(prov.values()) != len(result.test_labels):
            raise ValueError("test_provenance_counts do not add up to the number of test labels")
        rebuilt = result.to_dict()
        if json.dumps(d, sort_keys=True) != json.dumps(rebuilt, sort_keys=True):
            stored, wanted = dict(_json_leaves(d)), dict(_json_leaves(rebuilt))
            first = next(p for p in {**wanted, **stored} if stored.get(p) != wanted.get(p))
            field = ".".join(map(str, first))
            raise ValueError(f"{field}: stored value is not what the result's primary facts give")
        return result


def _json_leaves(doc, path: tuple = ()):
    """(key path, JSON text) of each leaf, so 1, 1.0 and true differ."""
    if isinstance(doc, (dict, list)) and doc:
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _json_leaves(value, (*path, key))
    else:
        yield path, json.dumps(doc)


def _read_counts(d: dict, field: str, keys: tuple[str, ...]) -> dict[str, int]:
    """A stored count table with exactly the given keys, each a non-negative
    integer; anything else is a ValueError that names the field."""
    counts = {k: as_int(f"{field}.{k}", v) for k, v in as_object(field, d[field]).items()}
    if counts.keys() != set(keys):
        raise ValueError(f"{field} must have exactly the keys {', '.join(map(repr, keys))}")
    negative = [f"{field}.{k}" for k, v in counts.items() if v < 0]
    if negative:
        raise ValueError(f"{', '.join(negative)} cannot be negative")
    return counts


def _read_entries(d: dict, field: str, types: set, valid, what: str) -> tuple:
    """A stored per-row JSON array whose entries all have a type in ``types``
    and float64 values that pass ``valid``; anything else is a ValueError
    that names the first bad entry. Types are checked once per distinct
    type and values in numpy, not one Python call per entry."""
    values = as_object(field, d[field], list)

    def good(entries: list) -> bool:
        if not set(map(type, entries)) <= types:
            return False
        try:
            return bool(valid(np.array(entries, dtype=np.float64)).all())
        except OverflowError:  # an integer too large for a float64
            return False

    if not good(values):
        i = next(i for i, v in enumerate(values) if not good([v]))
        raise ValueError(f"{field}.{i} must be {what}, got {values[i]!r}")
    return tuple(values)


def dataset_fingerprint(dataset: TabularDataset) -> str:
    """The dataset's order-independent row hash (see TabularDataset.fingerprint)."""
    return dataset.fingerprint


# Query rows that matching_row_pairs gathers and searches at a time.
_MATCH_BLOCK_ROWS = 4096


def matching_row_pairs(reference: np.ndarray, queries: np.ndarray) -> int:
    """Number of (reference row, query row) pairs whose float64 rows are
    byte-identical, so 0.0 and -0.0 differ and so do NaNs with different
    payloads; with zero columns every pair matches.

    Each row is viewed as one unstructured void item of 8·d bytes and the
    reference rows are argsorted. The query rows are argsorted too and
    searched _MATCH_BLOCK_ROWS at a time in that order, so successive
    binary searches walk nearly the same path through the reference rows.
    A query row's matches are the width of its equal range, found by two
    searchsorted calls. Extra memory is two sort orders and one block of
    query rows, with no per-row object.
    """
    width = reference.shape[1]
    if width == 0:
        return reference.shape[0] * queries.shape[0]
    row = np.dtype((np.void, 8 * width))
    ref = np.ascontiguousarray(reference, dtype=np.float64).view(row).ravel()
    qry = np.ascontiguousarray(queries, dtype=np.float64).view(row).ravel()
    order = np.argsort(ref, kind="stable")
    qry_order = np.argsort(qry, kind="stable")
    pairs = 0
    for start in range(0, qry.size, _MATCH_BLOCK_ROWS):
        block = qry[qry_order[start : start + _MATCH_BLOCK_ROWS]]
        matches = np.searchsorted(ref, block, side="right", sorter=order)
        matches -= np.searchsorted(ref, block, side="left", sorter=order)
        pairs += int(matches.sum())
    return pairs


def detect_leakage(
    train: TabularDataset,
    test: TabularDataset,
    scaler_fitted_on_full_data: bool,
    loaded: TabularDataset,
) -> LeakageReport:
    """Audit the raw partitions a split of ``loaded`` returned.

    Counts how far the partitions' class counts together lie from the
    loaded data's, non-Original provenance rows in the test partition and
    exact feature-vector matches across the partitions
    (matching_row_pairs), and records whether the standardizer saw the
    full dataset. Any split keeps the class counts of what it splits, so
    the change is 0 exactly when nothing before the split changed them;
    the report's verdict reads that change and the scaler flag only.
    """
    created = np.count_nonzero(test.provenance != ORIGINAL)
    train_n, test_n, loaded_n = (np.bincount(d.labels, minlength=2) for d in (train, test, loaded))
    return LeakageReport(
        synthetic_rows_in_test=created,
        duplicate_pairs_across_split=matching_row_pairs(train.features, test.features),
        scaler_fitted_on_full_data=scaler_fitted_on_full_data,
        class_count_change=int(np.abs(train_n + test_n - loaded_n).sum()),
    )


def _prepared_partitions(
    data: TabularDataset, spec: ScenarioSpec
) -> tuple[LeakageReport, TabularDataset, TabularDataset]:
    """Sample, split, audit and preprocess ``data`` as ``spec`` places
    them, and return the audit of the raw partitions with the prepared
    (train, test) pair. The raw partitions and any pre-split sample are
    freed on return, before training starts.

    Both partitions are standardized with parameters fitted on the train
    partition under GUARDED preprocessing, else on ``data``. Datasets with
    a raw Time column get the hour/day-segment treatment and scaled copies
    of Time and Amount; anything else is standardized across all feature
    columns.
    """
    guarded = spec.preprocessing == Preprocessing.GUARDED
    working = data
    if spec.placement == Placement.SAMPLING_BEFORE_SPLIT:
        with _stage("sampling before split"):
            working = sampling.apply_pipeline(working, spec.pipeline)

    with _stage("train/test split"):
        train_part, test_part = stratified_split(working, spec.split)
    del working  # the pre-split sample is not read again

    with _stage("leakage detection"):
        leakage = detect_leakage(train_part, test_part, not guarded, data)

    if spec.placement == Placement.SAMPLING_AFTER_SPLIT:
        with _stage("sampling after split"):
            train_part = sampling.apply_pipeline(train_part, spec.pipeline)

    fit_source = train_part if guarded else data
    with _stage("preprocessing"):
        if "Time" not in train_part.feature_names:
            params = fit_standardizer(fit_source, train_part.feature_names)
            prepare = functools.partial(apply_standardizer, params=params)
        else:
            cols = [c for c in ("Time", "Amount") if c in train_part.feature_names]
            params = fit_standardizer(fit_source, cols)
            prepare = functools.partial(
                engineer_time_features, wrap_hours=guarded, standardizer=params
            )
        return leakage, prepare(train_part), prepare(test_part)


@contextlib.contextmanager
def _stage(name: str):
    """Name the stage in any ordinary exception raised inside it; a
    ScenarioError, or a BaseException such as KeyboardInterrupt, passes."""
    try:
        yield
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"stage '{name}': {exc}") from exc


def run_scenario(data: TabularDataset, spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario end to end; the audit runs before training.

    The three placements share every code path; they differ only in when
    (or whether) the sampling pipeline runs relative to the split.
    """
    start = time.perf_counter()
    fingerprint = dataset_fingerprint(data)
    leakage, train_ready, test_ready = _prepared_partitions(data, spec)

    with _stage("model training"):
        model = boosting.train(train_ready, spec.model)

    kinds = np.bincount(test_ready.provenance, minlength=len(RowProvenance.KINDS))
    with _stage("evaluation"):
        scores = boosting.predict_proba(model, test_ready.features)
        result = ScenarioResult(
            scenario=spec,
            leakage=leakage,
            train_class_counts=class_distribution(train_ready)[0],
            test_provenance_counts=dict(zip(RowProvenance.KINDS, kinds.tolist())),
            wall_time=time.perf_counter() - start,
            data_fingerprint=fingerprint,
            test_labels=tuple(test_ready.labels.tolist()),
            test_scores=tuple(scores.tolist()),
        )
        result.metrics  # scored here, so a scoring error names this stage
    return result


def compare_scenarios(results: list[ScenarioResult]) -> dict:
    """The document ``leakguard compare`` writes as comparison.json: each
    result's metrics and verdict, every ordered pair's metric deltas
    (minuend - subtrahend), the pre-split minus post-split pairs among them
    (inflation), and the Leaky results that beat every Clean one on f1. The
    results must share the source dataset (by fingerprint) and split spec;
    anything else is refused, naming the split fields that differ."""
    if len(results) < 2:
        raise ValueError("comparison needs at least two results")
    if len({r.data_fingerprint for r in results}) != 1:
        raise ValueError("results come from different source datasets")
    splits = [r.scenario.split.to_dict() for r in results]
    differing = [k for k in splits[0] if len({s[k] for s in splits}) != 1]
    if differing:
        raise ValueError(f"results' split specs differ in: {', '.join(differing)}")

    table = [
        {
            "name": r.scenario.name,
            "placement": r.scenario.placement.value,
            **{k: getattr(r.metrics, k) for k in METRIC_KEYS},
            "verdict": r.leakage.verdict.value,
        }
        for r in results
    ]
    deltas = [
        {
            "minuend": a["name"],
            "minuend_index": i,
            "subtrahend": b["name"],
            "subtrahend_index": j,
            "deltas": {k: a[k] - b[k] for k in METRIC_KEYS},
        }
        for i, a in enumerate(table)
        for j, b in enumerate(table)
        if i != j
    ]
    clean_f1 = [row["f1"] for row in table if row["verdict"] == Verdict.CLEAN]
    return {
        "names": [row["name"] for row in table],
        "table": table,
        "metric_deltas": deltas,
        "inflation": [
            d
            for d in deltas
            if table[d["minuend_index"]]["placement"] == Placement.SAMPLING_BEFORE_SPLIT
            and table[d["subtrahend_index"]]["placement"] == Placement.SAMPLING_AFTER_SPLIT
        ],
        "leaky_outperforming_clean": [
            row["name"]
            for row in table
            if row["verdict"] == Verdict.LEAKY and clean_f1 and row["f1"] > max(clean_f1)
        ],
        "convention": metrics.CONVENTION,
    }
