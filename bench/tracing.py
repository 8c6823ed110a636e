"""In-memory spans around leakguard's public functions.

The benchmark replaces module attributes with timing wrappers, in the
namespace where the calling code looks each function up, so the program
itself is not edited. A span records its name, start and end
(``time.perf_counter``), parent span, run id, the growth of the process
high-water RSS while it was open, and any counts its annotator adds.
Spans stay in memory until the caller writes them out as JSONL.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import resource
import threading
import time
from contextlib import contextmanager
from pathlib import Path


def max_rss_mb() -> float:
    """Process high-water resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans from the thread that created it and from helper threads.

    leakguard's ``run`` command executes scenarios on a worker thread while
    the creating thread waits inside ``cli.main``. A span opened on a thread
    with no open span of its own is therefore parented to the innermost span
    open on the creating thread. ``list.append`` and ``next`` on a counter
    are atomic under the interpreter lock, so no lock is needed.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        record = {
            "id": next(self._ids),
            "parent": parent,
            "run_id": self.run_id,
            "name": name,
            **attrs,
        }
        stack.append(record["id"])
        rss0 = max_rss_mb()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_growth_mb"] = max_rss_mb() - rss0
            stack.pop()
            self.spans.append(record)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(record) + "\n")


def _count_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


def _annotate_rows(record, args, result):
    record["rows"] = result.n_rows


def _annotate_resample(record, args, result):
    data, spec = args[0], args[1]
    positives = int(data.labels.sum())
    record["kind"] = spec.kind.value
    record["minority_rows"] = min(positives, data.n_rows - positives)
    record["rows_created"] = result.n_rows - data.n_rows


def _annotate_train(record, args, result):
    record["rows"] = args[0].n_rows
    record["rounds"] = len(result.trees)
    record["tree_nodes"] = sum(_count_nodes(t) for t in result.trees)


def _annotate_audit(record, args, result):
    record["rows"] = args[0].n_rows + args[1].n_rows


# (module, attribute, span name, annotator). Each attribute is replaced in
# the module whose code looks it up at call time: cli calls run_scenario
# from its own namespace, experiment calls the dataset helpers it imported,
# and cli calls the loaders through the dataset module.
TARGETS = (
    ("leakguard.cli", "run_scenario", "experiment.run_scenario", None),
    ("leakguard.cli", "compare_scenarios", "experiment.compare", None),
    ("leakguard.dataset", "load_csv", "dataset.load_csv", _annotate_rows),
    ("leakguard.dataset", "generate_synthetic_imbalanced", "dataset.generate", _annotate_rows),
    ("leakguard.dataset", "save_csv", "dataset.save_csv", None),
    ("leakguard.experiment", "stratified_split", "dataset.split", None),
    ("leakguard.experiment", "fit_standardizer", "dataset.preprocess", None),
    ("leakguard.experiment", "apply_standardizer", "dataset.preprocess", None),
    ("leakguard.experiment", "engineer_time_features", "dataset.preprocess", None),
    ("leakguard.experiment", "dataset_fingerprint", "experiment.fingerprint", None),
    ("leakguard.experiment", "detect_leakage", "experiment.audit", _annotate_audit),
    ("leakguard.sampling", "apply_pipeline", "sampling.apply_pipeline", None),
    ("leakguard.sampling", "resample", "sampling.resample", _annotate_resample),
    ("leakguard.boosting", "train", "boosting.train", _annotate_train),
    ("leakguard.boosting", "predict_proba", "boosting.predict", None),
    ("leakguard.metrics", "compute_report", "metrics.report", None),
)


def _wrap(tracer: Tracer, fn, name: str, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if annotate is not None:
            annotate(record, args, result)
        return result

    return wrapper


def _wrap_train(tracer: Tracer, fn):
    """Trace training, then time binning alone with a zero-round fit.

    The probe is a sibling span of ``boosting.train``, so it neither
    inflates the training span nor hides inside its parent's self time.
    """
    traced = _wrap(tracer, fn, "boosting.train", _annotate_train)

    @functools.wraps(fn)
    def wrapper(data, params):
        model = traced(data, params)
        with tracer.span("boosting.bin_probe"):
            fn(data, dataclasses.replace(params, n_estimators=0))
        return model

    return wrapper


def install(tracer: Tracer, targets=TARGETS):
    """Replace each target with a traced wrapper; returns an undo function."""
    originals = []
    for module_name, attr, name, annotate in targets:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if name == "boosting.train":
            wrapper = _wrap_train(tracer, fn)
        else:
            wrapper = _wrap(tracer, fn, name, annotate)
        originals.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def undo():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return undo


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures for the spans of one operation.

    Time metrics are self times summed over the layer's spans. Only spans
    that occurred are summed, so a layer the operation bypassed reads 0.
    """
    own = self_times(spans)

    def total(name, key=None, where=None):
        picked = [s for s in spans if s["name"] == name and (where is None or where(s))]
        if key is None:
            return sum(own[s["id"]] for s in picked)
        return sum(s.get(key, 0) for s in picked)

    train_s = total("boosting.train")
    bin_s = total("boosting.bin_probe")
    rounds = total("boosting.train", "rounds")
    return {
        "bench.self_s": total("bench.op"),
        "bench.generate_s": total("bench.generate"),
        "cli.self_s": total("cli.main"),
        "dataset.load_s": total("dataset.load_csv") + total("dataset.generate"),
        "dataset.load_rows": total("dataset.load_csv", "rows") + total("dataset.generate", "rows"),
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.load_csv_rows": total("dataset.load_csv", "rows"),
        "dataset.load_csv.rss_growth_mb": total("dataset.load_csv", "rss_growth_mb"),
        "dataset.generate_s": total("dataset.generate"),
        "dataset.save_csv_s": total("dataset.save_csv"),
        "dataset.split_s": total("dataset.split"),
        "dataset.preprocess_s": total("dataset.preprocess"),
        "experiment.fingerprint_s": total("experiment.fingerprint"),
        "experiment.audit_s": total("experiment.audit"),
        "experiment.audit_rows": total("experiment.audit", "rows"),
        "experiment.run_scenario.self_s": total("experiment.run_scenario"),
        "experiment.compare_s": total("experiment.compare"),
        "sampling.apply_pipeline.self_s": total("sampling.apply_pipeline"),
        "sampling.resample_s": total("sampling.resample"),
        "sampling.resample_s.smote": total(
            "sampling.resample", where=lambda s: s.get("kind") == "smote"
        ),
        "sampling.resample_s.random_over": total(
            "sampling.resample", where=lambda s: s.get("kind") == "random_over"
        ),
        "sampling.rows_created": total("sampling.resample", "rows_created"),
        "sampling.minority_rows": total("sampling.resample", "minority_rows"),
        "sampling.resample.rss_growth_mb": total("sampling.resample", "rss_growth_mb"),
        "boosting.train_s": train_s,
        "boosting.bin_s": bin_s,
        "boosting.round_s": (train_s - bin_s) / rounds if rounds else 0.0,
        "boosting.rounds": rounds,
        "boosting.row_rounds": sum(
            s.get("rows", 0) * s.get("rounds", 0)
            for s in spans
            if s["name"] == "boosting.train"
        ),
        "boosting.tree_nodes": total("boosting.train", "tree_nodes"),
        "boosting.predict_s": total("boosting.predict"),
        "metrics.report_s": total("metrics.report"),
    }


# Self-time metrics that partition an operation: every span name maps to
# exactly one of them, so their sum equals the traced operation's wall time.
PARTITION = (
    "bench.self_s",
    "bench.generate_s",
    "cli.self_s",
    "dataset.load_s",
    "dataset.save_csv_s",
    "dataset.split_s",
    "dataset.preprocess_s",
    "experiment.fingerprint_s",
    "experiment.audit_s",
    "experiment.run_scenario.self_s",
    "experiment.compare_s",
    "sampling.apply_pipeline.self_s",
    "sampling.resample_s",
    "boosting.train_s",
    "boosting.bin_s",
    "boosting.predict_s",
    "metrics.report_s",
)
