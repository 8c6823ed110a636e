"""Scenario orchestration: where resampling sits relative to the split.

A scenario runs the same sampler, splitter, and model code regardless of
placement; the only thing placement changes is the order of operations.
Running the pipeline before the split is supported on purpose, clearly
marked leaky, because demonstrating the metric inflation it causes is the
point of this package. Every run ends with a leakage audit of the final
train/test pair.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from enum import Enum

import numpy as np

from . import boosting, metrics, sampling
from .dataset import (
    ORIGINAL,
    HourMode,
    RowProvenance,
    SplitSpec,
    TabularDataset,
    apply_standardizer,
    as_int,
    as_real,
    class_distribution,
    engineer_time_features,
    fit_standardizer,
    round_half_up,
    stratified_split,
)

RESULT_FORMAT_VERSION = 3

# Probability, on each side, that a clean unstratified split puts a test
# positive count outside the interval the audit accepts.
CLASS_COUNT_TAIL = 1e-9

METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "mcc", "auc")


class ScenarioError(RuntimeError):
    """A scenario stage failed; the message names the stage."""


class Placement(str, Enum):
    NO_SAMPLING = "no_sampling"
    SAMPLING_AFTER_SPLIT = "sampling_after_split"
    SAMPLING_BEFORE_SPLIT = "sampling_before_split"


class Preprocessing(str, Enum):
    """GUARDED fits every transform on the train partition only and wraps
    hours into [0, 24); PAPER_FAITHFUL fits transforms on the full dataset
    and keeps raw hour counts, reproducing the conventional notebook flow.
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
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(
                f"scenario {d.get('name')!r} has unknown key(s): {', '.join(unknown)}"
            )
        pipeline = d.get("pipeline")
        return cls(
            name=d["name"],
            placement=Placement(d["placement"]),
            pipeline=sampling.SamplerPipeline.from_dict(pipeline) if pipeline else None,
            preprocessing=Preprocessing(d.get("preprocessing", "guarded")),
            split=SplitSpec.from_dict(d["split"]),
            model=boosting.GbdtParams.from_dict(d["model"]),
            threshold=d.get("threshold", 0.5),
        )


@dataclass(frozen=True)
class LeakageReport:
    """Audit of a final train/test pair.

    synthetic_rows_in_test counts test rows whose provenance is not
    Original (sampler-created rows that ended up in the evaluation set);
    duplicate_pairs_across_split counts exact feature-vector matches
    between the partitions; test_class_count_shift counts how far the test
    partition's size and class counts lie from what the split spec allows
    for the loaded data (see class_count_shift). The verdict is derived,
    never read: Leaky exactly when any count is positive or the scaler saw
    the full dataset. A result file supplies only the two measured counts."""

    synthetic_rows_in_test: int
    duplicate_pairs_across_split: int
    scaler_fitted_on_full_data: bool
    test_class_count_shift: int

    def __post_init__(self):
        counts = ("synthetic_rows_in_test", "duplicate_pairs_across_split", "test_class_count_shift")
        for name in counts:
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        flag = self.scaler_fitted_on_full_data
        if not isinstance(flag, bool):
            raise ValueError(f"scaler_fitted_on_full_data must be true or false, got {flag!r}")

    @property
    def verdict(self) -> Verdict:
        leaky = (
            self.synthetic_rows_in_test > 0
            or self.duplicate_pairs_across_split > 0
            or self.test_class_count_shift > 0
            or self.scaler_fitted_on_full_data
        )
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
        result = cls(
            scenario=scenario,
            leakage=LeakageReport(
                synthetic_rows_in_test=prov["duplicate"] + prov["synthetic"],
                duplicate_pairs_across_split=d["leakage"]["duplicate_pairs_across_split"],
                scaler_fitted_on_full_data=scenario.preprocessing == Preprocessing.PAPER_FAITHFUL,
                test_class_count_shift=d["leakage"]["test_class_count_shift"],
            ),
            train_class_counts={int(k): v for k, v in train_counts.items()},
            test_provenance_counts=prov,
            wall_time=wall_time,
            data_fingerprint=fingerprint,
            test_labels=tuple(d["test_labels"]),
            test_scores=tuple(d["test_scores"]),
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
    counts = {k: as_int(f"{field}.{k}", v) for k, v in d[field].items()}
    if counts.keys() != set(keys):
        raise ValueError(f"{field} must have exactly the keys {', '.join(map(repr, keys))}")
    negative = [f"{field}.{k}" for k, v in counts.items() if v < 0]
    if negative:
        raise ValueError(f"{', '.join(negative)} cannot be negative")
    return counts


def dataset_fingerprint(dataset: TabularDataset) -> str:
    """The dataset's order-independent row hash (see TabularDataset.fingerprint)."""
    return dataset.fingerprint


def hypergeometric_interval(rows: int, positives: int, draws: int) -> tuple[int, int]:
    """Bounds [lo, hi] on X, the positives among ``draws`` rows drawn without
    replacement from ``rows`` rows that hold ``positives`` positives, with
    P(X < lo) and P(X > hi) each at most CLASS_COUNT_TAIL: lo is the least
    k with P(X <= k) above the tail, hi the greatest k with P(X >= k)
    above it."""
    low = max(0, draws + positives - rows)
    k = np.arange(low, min(draws, positives), dtype=np.float64)
    # pmf(k + 1) / pmf(k), so the log pmf, up to a constant, is a running sum.
    ratio = (positives - k) * (draws - k) / ((k + 1) * (rows - positives - draws + k + 1))
    log_pmf = np.concatenate([[0.0], np.cumsum(np.log(ratio))])
    pmf = np.exp(log_pmf - log_pmf.max())
    pmf /= pmf.sum()
    at_most = np.cumsum(pmf)
    at_least = np.cumsum(pmf[::-1])[::-1]
    return (
        low + int(np.flatnonzero(at_most > CLASS_COUNT_TAIL)[0]),
        low + int(np.flatnonzero(at_least > CLASS_COUNT_TAIL)[-1]),
    )


def class_count_shift(
    loaded_class_counts: dict[int, int], test_labels: np.ndarray, split: SplitSpec
) -> int:
    """How many rows the test partition's size and class counts lie outside
    what ``split`` draws from data with the loaded class counts.

    A stratified split takes exactly round_half_up(count * test_fraction)
    rows of each class, so the shift is the sum over classes of the
    distance to that count. An unstratified split takes exactly
    round_half_up(rows * test_fraction) rows, with a positive count that is
    hypergeometric, so the shift is the distance to that size plus the
    distance of the positive count to hypergeometric_interval. A split of
    the loaded data shifts nothing, except an unstratified one with
    probability at most 2 * CLASS_COUNT_TAIL; sampling before the split
    that changes the class counts shifts them.
    """
    counts = np.bincount(test_labels, minlength=2)
    if split.stratified:
        return sum(
            abs(int(counts[c]) - round_half_up(loaded_class_counts[c] * split.test_fraction))
            for c in (0, 1)
        )
    rows = loaded_class_counts[0] + loaded_class_counts[1]
    n_test = round_half_up(rows * split.test_fraction)
    lo, hi = hypergeometric_interval(rows, loaded_class_counts[1], n_test)
    positives = int(counts[1])
    return abs(int(counts.sum()) - n_test) + max(lo - positives, positives - hi, 0)


def detect_leakage(
    train: TabularDataset,
    test: TabularDataset,
    scaler_fitted_on_full_data: bool,
    loaded_class_counts: dict[int, int],
    split: SplitSpec,
) -> LeakageReport:
    """Audit a train/test pair for evaluation contamination.

    Counts non-Original provenance rows in the test partition, exact
    feature-vector matches across the partitions (hash-based) and the test
    class count shift against the loaded data's class counts under
    ``split``, and records whether the standardizer saw the full dataset;
    the report derives its verdict from those four facts.
    """
    if train.n_rows == 0 or test.n_rows == 0:
        raise ValueError("both partitions must be non-empty")
    created = np.count_nonzero(test.provenance.kinds != ORIGINAL)
    train_counts = Counter(
        train.features[i].tobytes() for i in range(train.n_rows)
    )
    duplicate_pairs = sum(
        train_counts[test.features[i].tobytes()] for i in range(test.n_rows)
    )
    return LeakageReport(
        synthetic_rows_in_test=created,
        duplicate_pairs_across_split=duplicate_pairs,
        scaler_fitted_on_full_data=scaler_fitted_on_full_data,
        test_class_count_shift=class_count_shift(loaded_class_counts, test.labels, split),
    )


def _preprocess(
    train: TabularDataset,
    test: TabularDataset,
    fit_source: TabularDataset,
    hour_mode: HourMode,
) -> tuple[TabularDataset, TabularDataset]:
    """Standardize both partitions with parameters fitted on fit_source.

    Datasets with a raw Time column get the hour/day-segment treatment and
    scaled copies of Time and Amount; anything else is standardized across
    all feature columns.
    """
    if "Time" in train.feature_names:
        cols = [c for c in ("Time", "Amount") if c in train.feature_names]
        params = fit_standardizer(fit_source, cols)
        return (
            engineer_time_features(train, hour_mode, params),
            engineer_time_features(test, hour_mode, params),
        )
    params = fit_standardizer(fit_source, train.feature_names)
    return apply_standardizer(train, params), apply_standardizer(test, params)


def _prepared_partitions(
    data: TabularDataset, spec: ScenarioSpec, guarded: bool
) -> tuple[TabularDataset, TabularDataset]:
    """Sample, split and preprocess ``data`` as ``spec`` places them, and
    return only the prepared (train, test) pair. The raw partitions and any
    pre-split sample are freed on return, before training starts."""
    working = data
    if spec.placement == Placement.SAMPLING_BEFORE_SPLIT:
        with _stage("sampling before split"):
            working = sampling.apply_pipeline(working, spec.pipeline)

    with _stage("train/test split"):
        train_part, test_part = stratified_split(working, spec.split)
    del working  # the pre-split sample is not read again

    if spec.placement == Placement.SAMPLING_AFTER_SPLIT:
        with _stage("sampling after split"):
            train_part = sampling.apply_pipeline(train_part, spec.pipeline)

    hour_mode = HourMode.CORRECTED if guarded else HourMode.PAPER_FAITHFUL
    fit_source = train_part if guarded else data
    with _stage("preprocessing"):
        return _preprocess(train_part, test_part, fit_source, hour_mode)


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
    """Execute one scenario end to end and audit the outcome.

    The three placements share every code path; they differ only in when
    (or whether) the sampling pipeline runs relative to the split.
    """
    start = time.perf_counter()
    fingerprint = dataset_fingerprint(data)
    guarded = spec.preprocessing == Preprocessing.GUARDED
    train_ready, test_ready = _prepared_partitions(data, spec, guarded)

    with _stage("model training"):
        model = boosting.train(train_ready, spec.model)

    with _stage("leakage detection"):
        leakage = detect_leakage(
            train_ready, test_ready, not guarded, class_distribution(data)[0], spec.split
        )

    kinds = np.bincount(test_ready.provenance.kinds, minlength=len(RowProvenance.KINDS))
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


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side metric view over scenario results.

    metric_deltas holds (minuend - subtrahend) per metric for every
    ordered pair of results; inflation is the subset where a pre-split
    scenario is measured against a post-split one. Scenarios listed in
    leaky_outperforming_clean beat every Clean scenario on f1 while
    carrying a Leaky verdict.
    """

    names: tuple[str, ...]
    table: tuple[dict, ...]
    metric_deltas: tuple[dict, ...]
    inflation: tuple[dict, ...]
    leaky_outperforming_clean: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "table": list(self.table),
            "metric_deltas": list(self.metric_deltas),
            "inflation": list(self.inflation),
            "leaky_outperforming_clean": list(self.leaky_outperforming_clean),
            "convention": "positive-class metrics (not macro-averaged)",
        }


def compare_scenarios(results: list[ScenarioResult]) -> ComparisonReport:
    """Tabulate metrics across results and quantify placement inflation.

    All results must come from the same source dataset (by fingerprint)
    and the same split seed; anything else is not a like-for-like
    comparison and is refused.
    """
    if len(results) < 2:
        raise ValueError("comparison needs at least two results")
    fingerprints = {r.data_fingerprint for r in results}
    if len(fingerprints) != 1:
        raise ValueError("results come from different source datasets")
    seeds = {r.scenario.split.seed for r in results}
    if len(seeds) != 1:
        raise ValueError("results use different split seeds")

    table = []
    for r in results:
        row = {"name": r.scenario.name, "placement": r.scenario.placement.value}
        row.update({k: getattr(r.metrics, k) for k in METRIC_KEYS})
        row["verdict"] = r.leakage.verdict.value
        table.append(row)

    deltas = []
    for i, a in enumerate(results):
        for j, b in enumerate(results):
            if i == j:
                continue
            deltas.append(
                {
                    "minuend": a.scenario.name,
                    "minuend_index": i,
                    "subtrahend": b.scenario.name,
                    "subtrahend_index": j,
                    "deltas": {
                        k: getattr(a.metrics, k) - getattr(b.metrics, k)
                        for k in METRIC_KEYS
                    },
                }
            )
    inflation = tuple(
        d
        for d in deltas
        if results[d["minuend_index"]].scenario.placement
        == Placement.SAMPLING_BEFORE_SPLIT
        and results[d["subtrahend_index"]].scenario.placement
        == Placement.SAMPLING_AFTER_SPLIT
    )

    clean_f1 = [
        r.metrics.f1 for r in results if r.leakage.verdict == Verdict.CLEAN
    ]
    flagged = tuple(
        r.scenario.name
        for r in results
        if r.leakage.verdict == Verdict.LEAKY
        and clean_f1
        and r.metrics.f1 > max(clean_f1)
    )

    return ComparisonReport(
        names=tuple(r.scenario.name for r in results),
        table=tuple(table),
        metric_deltas=tuple(deltas),
        inflation=inflation,
        leaky_outperforming_clean=flagged,
    )
