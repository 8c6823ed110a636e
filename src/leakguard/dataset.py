"""In-memory tabular datasets with per-row provenance.

Every row of a :class:`TabularDataset` knows what kind of row it is:
loaded from a file, duplicated from another row, or synthesized by a
sampler, and all loading, splitting, and preprocessing operations
preserve it. Provenance decides no leakage verdict, which reads only the
class count change across the split and whether the scaler saw the full
data (see ``experiment.LeakageReport``). It fills a result's
``test_provenance_counts`` and ``synthetic_rows_in_test``, which say what
a test partition holds.

A dataset holds its provenance as one read-only int8 array of kind codes,
each an index into ``RowProvenance.KINDS``. A :class:`RowProvenance`
describes one row; it is only for building provenance by hand, and a
dataset given a sequence of them stores their kinds.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import math
import os
import signal
import threading
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CREDITCARD_SCHEMA = ("Time",) + tuple(f"V{i}" for i in range(1, 29)) + ("Amount", "Class")

LABEL_COLUMN = "Class"


class SchemaError(ValueError):
    """Header row does not match the expected column set."""


class CsvParseError(ValueError):
    """A cell failed to parse; carries the offending row and column."""

    def __init__(self, message: str, row: int, column: str):
        super().__init__(message)
        self.row = row
        self.column = column


def round_half_up(x: float) -> int:
    """Round to nearest integer, halves away from zero toward +inf."""
    return int(math.floor(x + 0.5))


def as_int(name: str, value) -> int:
    """Return an integer field's value as int; anything else, bool included,
    is a ValueError that names the field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(name: str, value) -> float:
    """Return a real field's value as float; a bool, a non-number, NaN or an
    infinity is a ValueError that names the field."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not real or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def as_object(name: str, value, kind: type = dict):
    """Return a JSON object field's value, or a JSON array's if ``kind`` is
    list; anything else is a ValueError that names the field."""
    if not isinstance(value, kind):
        what = "array" if kind is list else "object"
        raise ValueError(f"{name} must be a JSON {what}, got {value!r}")
    return value


# Rows per block of TabularDataset.fingerprint and of _refuse_cells.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class RowProvenance:
    """Origin of one dataset row, for building provenance by hand.

    kind is one of KINDS: "original", "duplicate", "synthetic". Originals
    and duplicates name a source row index; a dataset given a sequence of
    these stores only their kind codes, so the index is checked but not
    kept.
    """

    kind: str
    source_index: int | None = None

    KINDS = ("original", "duplicate", "synthetic")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown provenance kind {self.kind!r}")
        if self.source_index is not None and self.source_index < 0:
            raise ValueError("source_index cannot be negative")
        if self.kind != "synthetic" and self.source_index is None:
            raise ValueError(f"{self.kind} provenance needs a valid source_index")

    @classmethod
    def original(cls, source_index: int) -> "RowProvenance":
        return cls("original", source_index=source_index)

    @classmethod
    def duplicate(cls, source_index: int) -> "RowProvenance":
        return cls("duplicate", source_index=source_index)

    @classmethod
    def synthetic(cls) -> "RowProvenance":
        return cls("synthetic")


# A row's kind code is its kind's index in RowProvenance.KINDS.
_KIND_CODES = {kind: code for code, kind in enumerate(RowProvenance.KINDS)}
ORIGINAL, DUPLICATE, SYNTHETIC = range(len(RowProvenance.KINDS))


def frozen(array: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only and return it.

    Only for an array its caller has just made and hands straight to a
    TabularDataset (features, labels or provenance kinds): it keeps such an
    array of its dtype as it is rather than copying it (see TabularDataset).
    """
    array.setflags(write=False)
    return array


def _refuse_cells(features: np.ndarray, names, test, what: str) -> None:
    """ValueError naming the first column with a cell where ``test`` (as
    np.isnan) holds, tested in row blocks so no n×d temporary is made."""
    found = np.zeros(features.shape[1], dtype=bool)
    for start in range(0, features.shape[0], _BLOCK_ROWS):
        found |= test(features[start : start + _BLOCK_ROWS]).any(axis=0)
    if found.any():
        raise ValueError(f"column {names[found.argmax()]!r} holds {what}")


def _owned_frozen(array, dtype) -> bool:
    """True for an array no one can write through: a read-only, C-contiguous
    ndarray of the given dtype that owns its data, so no writable view of it
    exists."""
    return (
        type(array) is np.ndarray
        and array.dtype == dtype
        and array.flags.c_contiguous
        and array.flags.owndata
        and not array.flags.writeable
    )


@dataclass(frozen=True, eq=False)
class TabularDataset:
    """Immutable feature matrix with binary labels and row provenance.

    Parameters
    ----------
    features : (n_rows, n_features) float64 array. A read-only,
        C-contiguous float64 ndarray that owns its data, as ``frozen``
        makes, is kept as it is; anything else (a list, a writable array, a
        view, another dtype) is copied, so the caller cannot change the
        dataset through it. NaN marks a missing value; ±inf is refused,
        naming its first column, so an overflow fails where it is made.
    feature_names : unique column labels, one per feature column
    labels : per-row class, 0 (negative) or 1 (positive); kept or copied
        by the rule for features, with int64 as the kept dtype
    provenance : per-row kind code, an integer array whose values index
        RowProvenance.KINDS, kept or copied by the rule for features with
        int8 as the kept dtype; or a sequence of RowProvenance, of which
        only the kinds are stored
    """

    features: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray
    provenance: np.ndarray

    def __post_init__(self):
        feats = self.features
        if not _owned_frozen(feats, np.float64):
            feats = np.array(feats, dtype=np.float64, copy=True)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        raw_labels = np.asarray(self.labels)
        names = tuple(self.feature_names)
        kinds = self.provenance
        if not isinstance(kinds, np.ndarray):
            rows = tuple(kinds)
            if not all(isinstance(p, RowProvenance) for p in rows):
                raise TypeError("provenance entries must be RowProvenance")
            kinds = frozen(np.fromiter((_KIND_CODES[p.kind] for p in rows), np.int8, len(rows)))
        if len(names) != feats.shape[1]:
            raise ValueError(
                f"{len(names)} feature names for {feats.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        if raw_labels.shape != (feats.shape[0],):
            raise ValueError("labels length must equal the row count")
        if kinds.shape != (feats.shape[0],):
            raise ValueError("provenance length must equal the row count")
        _refuse_cells(feats, names, np.isinf, "an infinite value; use NaN for missing")
        # Checked before the casts, which would truncate 0.5 to 0 and wrap
        # a kind code of 256 to 0.
        if raw_labels.size and not np.isin(raw_labels, (0, 1)).all():
            raise ValueError("labels must be exactly 0 or 1")
        if kinds.size and (
            kinds.dtype.kind not in "iu" or not 0 <= kinds.min() <= kinds.max() <= SYNTHETIC
        ):
            raise ValueError(f"provenance must be integer kind codes in [0, {SYNTHETIC}]")
        labels = raw_labels
        if not _owned_frozen(labels, np.int64):
            labels = frozen(raw_labels.astype(np.int64))
        if not _owned_frozen(kinds, np.int8):
            kinds = frozen(kinds.astype(np.int8))
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "provenance", kinds)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @functools.cached_property
    def fingerprint(self) -> str:
        """Order-independent hash of all (features, label) rows.

        The sum, mod 2**256, of the big-endian sha256 digest of each row's
        feature bytes followed by its label byte. The rows are laid out
        _BLOCK_ROWS at a time, and each block's digests are summed in numpy
        as eight big-endian 32-bit words, whose carries are joined in
        Python. The dataset is immutable, so the hash is computed at most
        once per object.
        """
        width = self.n_features * 8 + 1
        total = 0
        for start in range(0, self.n_rows, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            feats = np.ascontiguousarray(self.features[start:stop])
            rows = np.empty((feats.shape[0], width), dtype=np.uint8)
            rows[:, :-1] = feats.view(np.uint8).reshape(feats.shape[0], width - 1)
            rows[:, -1] = self.labels[start:stop]
            buf = memoryview(rows.reshape(-1))
            digests = b"".join(
                hashlib.sha256(buf[at : at + width]).digest() for at in range(0, len(buf), width)
            )
            # Each column sum stays below 2**44 for a block, so uint64 is exact.
            words = np.frombuffer(digests, dtype=">u4").reshape(-1, 8).sum(axis=0, dtype=np.uint64)
            total += sum(word << (224 - 32 * j) for j, word in enumerate(words.tolist()))
        return f"{total % (1 << 256):064x}"

    def column_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.features[:, self.column_index(name)]

    def select_rows(self, indices) -> "TabularDataset":
        """New dataset holding the rows at the given integer indices, in
        that order, provenance carried through. Anything but a 1-D integer
        array (a boolean mask or a scalar included), or an index outside
        [0, n_rows), is a ValueError."""
        idx = np.asarray(indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError(
                f"row indices must be a 1-D array of integers, got a {idx.dtype} "
                f"array of shape {idx.shape}"
            )
        outside = (idx < 0) | (idx >= self.n_rows)
        if outside.any():
            raise ValueError(
                f"row index {idx[outside][0]} is outside [0, {self.n_rows})"
            )
        idx = idx.astype(np.int64, copy=False)
        return TabularDataset(
            features=frozen(self.features[idx]),
            feature_names=self.feature_names,
            labels=frozen(self.labels[idx]),
            provenance=frozen(self.provenance[idx]),
        )

    def equals(self, other: "TabularDataset") -> bool:
        """Bit-level equality of features, labels, names, and provenance."""
        return (
            self.feature_names == other.feature_names
            and self.labels.shape == other.labels.shape
            and np.array_equal(self.features, other.features, equal_nan=True)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.provenance, other.provenance)
        )


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split configuration."""

    test_fraction: float = 0.2
    seed: int = 42
    stratified: bool = True

    def __post_init__(self):
        object.__setattr__(self, "test_fraction", as_real("test_fraction", self.test_fraction))
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
        if not isinstance(self.stratified, bool):
            raise ValueError(f"stratified must be true or false, got {self.stratified!r}")
        object.__setattr__(self, "seed", as_int("seed", self.seed))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SplitSpec":
        return cls(**d)


@dataclass(frozen=True)
class StandardizerParams:
    """Per-column centering/scaling parameters.

    Uses the population (divide-by-n) standard deviation. Columns that are
    constant on the fitting data are recorded with std_dev 0 and passed
    through unscaled when applied. Missing (NaN) values stay NaN.
    """

    columns: tuple[str, ...]
    means: tuple[float, ...]
    std_devs: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.columns) == len(self.means) == len(self.std_devs)):
            raise ValueError("columns, means, and std_devs must align")
        if not all(math.isfinite(v) for v in (*self.means, *self.std_devs)):
            raise ValueError("means and std_devs must be finite")
        if any(s < 0 for s in self.std_devs):
            raise ValueError("std_dev cannot be negative")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("standardizer columns must be unique")


def load_csv(
    path: str | Path, schema: tuple[str, ...] | list[str] | None = None
) -> TabularDataset:
    """Load a labeled dataset from a headered CSV file.

    The header is resolved by name, so column order does not matter. When
    ``schema`` is given the header must contain exactly that set of names.
    All cells must parse as finite reals; the label column, ``Class``, must
    hold 0/1.

    The data rows of a regular file are parsed in bulk: the file is cut
    into chunks of about ``_CSV_CHUNK_BYTES``, each ending at a line end,
    and each chunk is read by one ``np.loadtxt`` call, which reads
    double-quoted cells as the csv module does (Kaggle's creditcard.csv is
    reported to quote its labels). A chunk's result is kept only when it has
    one row per data line (counted from the raw bytes, as the csv module
    splits lines), one cell per header column, only finite cells and only
    0/1 labels. Any other file (a blank line, a quoted line end, a cell that
    ``float`` reads but ``loadtxt`` does not, such as ``1_000``, or a bad
    cell) is parsed again row by row. That loop gives the same values, or
    raises the error naming the row and column. A pipe or other non-regular
    file can be read only once, so it goes straight to the row loop.
    Whenever the row loop loads a file, one ``RuntimeWarning`` names the
    file and the reason.

    The chunks are parsed in one forked worker process per usable CPU, at
    most one per chunk, and copied into the result in file order as they
    arrive, so the whole file's cells are never held twice. With one CPU,
    one chunk, no ``"fork"`` start method, or other threads running in the
    calling process, which a fork could deadlock, they are parsed in the
    calling process. The values do not depend on the number of processes,
    and no worker outlives the call. A 284,807×31 file of 17-digit doubles
    (161 MB) loads in 1.85 s in two worker processes and 3.20 s in the
    calling process, against 2.90 s for one ``loadtxt`` call over the whole
    file (medians of five alternating runs), and in 5.3 s row by row from a
    pipe (one run); 2-vCPU host, numpy 2.4.6.

    Raises
    ------
    FileNotFoundError, SchemaError, CsvParseError, ValueError
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty, expected a header row") from None
        header = [h.strip() for h in header]
        if schema is not None:
            expected = set(schema)
            got = set(header)
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            if missing or extra:
                parts = []
                if missing:
                    parts.append(f"missing column(s): {', '.join(missing)}")
                if extra:
                    parts.append(f"unexpected column(s): {', '.join(extra)}")
                raise SchemaError(f"header mismatch in {path}: {'; '.join(parts)}")
        if LABEL_COLUMN not in header:
            raise SchemaError(f"{path} has no {LABEL_COLUMN!r} column")
        if len(set(header)) != len(header):
            raise SchemaError(f"duplicate column names in {path}")

        label_pos = header.index(LABEL_COLUMN)
        feature_names = tuple(h for h in header if h != LABEL_COLUMN)
        # A pipe or other non-regular file can be read only once, so only a
        # regular file is parsed in bulk.
        if path.is_file():
            parsed = _parse_bulk(path, len(header), label_pos)
            reason = "the bulk numeric parse refused this file"
        else:
            parsed = None
            reason = "not a regular file, so it cannot be parsed in bulk"
        if parsed is None:
            parsed = _parse_rows(reader, header, label_pos)
            warnings.warn(
                f"{path}: {reason}; it was loaded row by row",
                RuntimeWarning,
                stacklevel=2,
            )
    features, labels = parsed

    return TabularDataset(
        features=frozen(features),
        feature_names=feature_names,
        labels=frozen(labels),
        provenance=frozen(np.zeros(labels.size, np.int8)),
    )


def _count_lines(data: bytes) -> int:
    """Lines in ``data``: each ends at LF, CRLF or a lone CR, as both the
    csv module and ``np.loadtxt`` end them, and a last line may have no
    end."""
    ends = data.count(b"\n")
    if b"\r" in data:
        ends += data.count(b"\r") - data.count(b"\r\n")
    return ends + (data[-1:] not in (b"", b"\n", b"\r"))


def _data_chunks(path: Path) -> list[tuple[int, int]]:
    """(offset, data lines) of each chunk of the file that holds a data
    line, in file order.

    A chunk ends after the first LF at or past ``_CSV_CHUNK_BYTES`` of its
    bytes, or at the end of the file, so no line end is split between two
    chunks; a file whose lines all end at a lone CR is one chunk. The chunk
    at offset 0 starts with the header line, which is not counted.
    """
    chunks = []
    offset = 0
    with path.open("rb") as fh:
        while chunk := fh.read(_CSV_CHUNK_BYTES):
            if chunk[-1:] != b"\n":
                chunk += fh.readline()
            lines = _count_lines(chunk) - (offset == 0)
            if lines:
                chunks.append((offset, lines))
            offset += len(chunk)
    return chunks


def _parse_chunk(
    path: Path, n_columns: int, label_pos: int, offset: int, lines: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, int64 labels) of the ``lines`` data lines of the chunk at
    byte ``offset``, or None unless ``np.loadtxt`` reads one row of
    ``n_columns`` finite cells per line and every label is 0 or 1.

    The lines are read as the file is in text mode, UTF-8 with universal
    newlines, which end each line where ``_count_lines`` does. The chunk at
    offset 0 starts with the header line, which is skipped.
    """
    header = int(offset == 0)
    try:
        # loadtxt warns when every data line is blank; the row count below
        # refuses that chunk, so the warning carries nothing.
        with io.TextIOWrapper(path.open("rb"), encoding="utf-8") as text, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            text.buffer.seek(offset)
            cells = np.loadtxt(
                itertools.islice(text, header + lines),
                delimiter=",",
                comments=None,
                skiprows=header,
                ndmin=2,
                dtype=np.float64,
                quotechar='"',
            )
    except ValueError:
        return None
    if cells.shape != (lines, n_columns) or not np.isfinite(cells).all():
        return None
    labels = cells[:, label_pos]
    if not ((labels == 0.0) | (labels == 1.0)).all():
        return None
    return np.delete(cells, label_pos, axis=1), labels.astype(np.int64)


def _parse_bulk(
    path: Path, n_columns: int, label_pos: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, labels) of every data row, or None when the file needs the
    row-by-row parser to load it or to name its first bad cell.

    Each chunk is parsed by ``_parse_chunk`` and written straight into one
    matrix and one label array, so no chunk's cells outlive their copy. A
    refused chunk stops the parse, and the pool with it.
    """
    chunks = _data_chunks(path)
    n_rows = sum(lines for _, lines in chunks)
    features = np.empty((n_rows, n_columns - 1))
    labels = np.empty(n_rows, dtype=np.int64)
    shared = (path, n_columns, label_pos)
    parts = _map_ordered(_parse_chunk, shared, chunks, _csv_workers(len(chunks)))
    row = 0
    with contextlib.closing(parts):
        for part in parts:
            if part is None:
                return None
            stop = row + part[1].size
            features[row:stop], labels[row:stop] = part
            row = stop
            del part  # before the next chunk is parsed
    return features, labels


def _parse_rows(reader, header: list[str], label_pos: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse the remaining rows one at a time; raises on the first bad row."""
    rows: list[list[float]] = []
    labels: list[int] = []
    for data_row, raw in enumerate(reader, start=1):
        if len(raw) != len(header):
            raise CsvParseError(
                f"row {data_row}: expected {len(header)} cells, got {len(raw)}",
                row=data_row,
                column="",
            )
        try:
            values = [float(c) for c in raw]
        except ValueError:
            values = None
        if values is None or not all(math.isfinite(v) for v in values):
            for col_name, cell in zip(header, raw):
                try:
                    v = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"row {data_row}, column {col_name!r}: "
                        f"cannot parse {cell!r} as a number",
                        row=data_row,
                        column=col_name,
                    ) from None
                if not math.isfinite(v):
                    raise CsvParseError(
                        f"row {data_row}, column {col_name!r}: "
                        f"non-finite value {cell!r}",
                        row=data_row,
                        column=col_name,
                    )
        label = values.pop(label_pos)
        if label not in (0.0, 1.0):
            raise ValueError(
                f"row {data_row}: label {label!r} outside {{0, 1}}"
            )
        rows.append(values)
        labels.append(int(label))
    features = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.empty((0, len(header) - 1), dtype=np.float64)
    )
    return features, np.array(labels, dtype=np.int64)


# Rows that save_csv formats with one repr call, and one task's range.
_CSV_BLOCK_ROWS = 4096

# Bytes of the file that load_csv parses with one np.loadtxt call, and one
# task's range; a chunk runs on to the end of the line it stops in.
_CSV_CHUNK_BYTES = 4 << 20


def _format_rows(features: np.ndarray, labels: np.ndarray, start: int, stop: int) -> str:
    """CSV text of rows [start, stop): each row's features, then its label.

    The repr of a list of row lists, with the brackets and spaces taken
    out, is the same bytes as a csv.writer row of repr strings per row.
    """
    rows = features[start:stop].tolist()
    for row, label in zip(rows, labels[start:stop].tolist()):
        row.append(label)
    return repr(rows)[2:-2].replace("], [", "\n").replace(", ", ",") + "\n"


def _csv_workers(n_tasks: int) -> int:
    """Processes save_csv and load_csv work in: the usable CPUs, at most one
    per task; 1 in a process that runs other threads, which a fork could
    deadlock, or where there is no "fork" start method."""
    if threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    workers = max(1, min(cpus, n_tasks))
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


# A pool worker's task with its shared arguments bound, set once by its
# initializer.
_worker_task = None


def _init_pool_worker(task) -> None:
    global _worker_task
    _worker_task = task
    # An interrupt is the parent's to handle: it shuts the pool down.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_worker_task(*args):
    return _worker_task(*args)


def _map_ordered(task, shared: tuple, tasks, workers: int):
    """Yield ``task(*shared, *args)`` for each ``args`` in ``tasks``, in
    task order.

    With one worker the tasks run in the calling process. Otherwise they
    run in ``workers`` forked processes, which inherit ``task`` and
    ``shared`` rather than receive them pickled; at most two tasks per
    worker are in flight, and a task's error is raised here. The pool is
    shut down and its workers joined when the generator ends, raises or is
    closed.
    """
    if workers == 1:
        for args in tasks:
            yield task(*shared, *args)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_pool_worker,
        initargs=(functools.partial(task, *shared),),
    )
    try:
        in_flight = collections.deque()
        for args in tasks:
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(_run_worker_task, *args))
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def save_csv(dataset: TabularDataset, path: str | Path) -> None:
    """Write a dataset as CSV, features first and the label column last.

    Floats are written with repr so a reload is bit-identical. The header
    goes through csv.writer, which quotes names that need it. Data rows
    never need quoting, so each block of ``_CSV_BLOCK_ROWS`` rows is
    formatted by one ``_format_rows`` call, the same bytes as a csv.writer
    row of repr strings per row.

    The blocks are formatted in one forked worker process per usable CPU,
    at most one per block, and written in row order; at most two blocks per
    worker are in flight. With one CPU, one block, no ``"fork"`` start
    method, or other threads running in the calling process, which a fork
    could deadlock, they are formatted in the calling process. The bytes
    do not depend on the number of processes. The pool is shut down and its
    workers joined before this returns or raises. A 284,807×30 dataset
    (161 MB) is written in 4.6 s by two worker processes, against 6.9 s in
    one (medians of five alternating runs, 2-vCPU host).

    Raises
    ------
    ValueError
        if a feature column has the label column's name or holds a NaN,
        which load_csv refuses; raised before the file is created. A dataset
        holds no ±inf, so every cell written is finite.
    """
    if LABEL_COLUMN in dataset.feature_names:
        raise ValueError(f"feature column {LABEL_COLUMN!r} has the label column's name")
    what = "a missing (NaN) value, which load_csv refuses"
    _refuse_cells(dataset.features, dataset.feature_names, np.isnan, what)
    starts = range(0, dataset.n_rows, _CSV_BLOCK_ROWS)
    ranges = [(start, start + _CSV_BLOCK_ROWS) for start in starts]
    shared = (dataset.features, dataset.labels)
    blocks = _map_ordered(_format_rows, shared, ranges, _csv_workers(len(ranges)))
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh, contextlib.closing(blocks):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + [LABEL_COLUMN])
        fh.writelines(blocks)


def generate_synthetic_imbalanced(
    n_rows: int,
    positive_fraction: float,
    n_features: int,
    class_separation: float,
    seed: int,
) -> TabularDataset:
    """Generate a two-class Gaussian dataset with a rare positive class.

    Negatives are standard normal; positives are normal with every
    coordinate shifted by ``class_separation``. The positive count is
    round-half-up of ``n_rows * positive_fraction``. Row order is a seeded
    permutation, deterministic for a fixed seed.
    """
    n_rows = as_int("n_rows", n_rows)
    n_features = as_int("n_features", n_features)
    seed = as_int("seed", seed)
    positive_fraction = as_real("positive_fraction", positive_fraction)
    class_separation = as_real("class_separation", class_separation)
    if n_rows < 2:
        raise ValueError("n_rows must be at least 2")
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError("positive_fraction must lie strictly between 0 and 1")
    if n_features < 1:
        raise ValueError("n_features must be at least 1")
    if class_separation < 0:
        raise ValueError("class_separation cannot be negative")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n_pos = round_half_up(n_rows * positive_fraction)
    if not 1 <= n_pos <= n_rows - 1:
        raise ValueError(
            f"positive_fraction {positive_fraction} yields {n_pos} positives "
            f"out of {n_rows} rows; need at least one row of each class"
        )
    rng = np.random.default_rng(seed)
    n_neg = n_rows - n_pos
    negatives = rng.standard_normal((n_neg, n_features))
    positives = rng.standard_normal((n_pos, n_features)) + class_separation
    features = np.vstack([negatives, positives])
    labels = np.concatenate(
        [np.zeros(n_neg, dtype=np.int64), np.ones(n_pos, dtype=np.int64)]
    )
    order = rng.permutation(n_rows)
    return TabularDataset(
        features=frozen(features[order]),
        feature_names=tuple(f"f{i + 1}" for i in range(n_features)),
        labels=frozen(labels[order]),
        provenance=frozen(np.zeros(n_rows, np.int8)),
    )


@dataclass(frozen=True, eq=False)
class Split:
    """A split's row indices into the dataset it split, ascending per side,
    and the partitions gathered from them. It unpacks as (train, test)."""

    train_rows: np.ndarray
    test_rows: np.ndarray
    train: TabularDataset
    test: TabularDataset

    def __iter__(self):
        return iter((self.train, self.test))


def stratified_split(dataset: TabularDataset, spec: SplitSpec) -> Split:
    """Partition rows into train and test sets by one rule.

    The row groups are the two classes when stratified and all rows
    otherwise. In turn, each group moves round-half-up(group size *
    test_fraction) rows of a seeded permutation to the test side, so the
    split is deterministic per seed. A split that leaves a class out of
    either side is refused, naming the side and the class. The result
    keeps each side's row indices next to its partition, so a caller can
    gather those rows again from ``dataset`` once the partitions are gone.
    """
    rng = np.random.default_rng(spec.seed)
    labels = dataset.labels
    if spec.stratified:
        groups = [np.flatnonzero(labels == cls) for cls in (0, 1)]
    else:
        groups = [np.arange(labels.size)]
    in_test = np.zeros(labels.size, dtype=bool)
    for rows in groups:
        n_test = round_half_up(rows.size * spec.test_fraction)
        in_test[rng.permutation(rows)[:n_test]] = True
    sides = {"train": np.flatnonzero(~in_test), "test": np.flatnonzero(in_test)}
    for side, rows in sides.items():
        missing = np.flatnonzero(np.bincount(labels[rows], minlength=2) == 0)
        if missing.size:
            raise ValueError(f"the split leaves class {missing[0]} out of the {side} side")
    train_rows, test_rows = frozen(sides["train"]), frozen(sides["test"])
    return Split(
        train_rows, test_rows, dataset.select_rows(train_rows), dataset.select_rows(test_rows)
    )


def fit_standardizer(
    dataset: TabularDataset,
    columns: list[str] | tuple[str, ...],
) -> StandardizerParams:
    """Fit per-column mean and population std on the given dataset.

    NaN marks a missing value: a column's parameters come from its present
    values, and a column with none is recorded as mean 0, std_dev 0. A
    dataset refuses ±inf, but a mean or std_dev can still overflow to it.
    """
    if dataset.n_rows == 0:
        raise ValueError("cannot fit a standardizer on an empty dataset")
    means, stds = [], []
    for name in columns:
        values = dataset.column(name)
        missing = np.isnan(values)
        if missing.any():
            values = values[~missing]
        if values.size == 0:
            means.append(0.0)
            stds.append(0.0)
            continue
        means.append(float(values.mean()))
        stds.append(float(values.std(ddof=0)))
    return StandardizerParams(
        columns=tuple(columns),
        means=tuple(means),
        std_devs=tuple(stds),
    )


def _scaled_columns(dataset: TabularDataset, params: StandardizerParams):
    """Yield (name, values) for each fitted column, centred and scaled, or
    unchanged when its std_dev is 0; one column at a time."""
    missing = [c for c in params.columns if c not in dataset.feature_names]
    if missing:
        raise KeyError(
            f"standardizer columns not in dataset: {', '.join(missing)}"
        )
    for name, mean, std in zip(params.columns, params.means, params.std_devs):
        raw = dataset.column(name)
        yield name, (raw - mean) / std if std > 0 else raw


def apply_standardizer(
    dataset: TabularDataset, params: StandardizerParams
) -> TabularDataset:
    """Center and scale the fitted columns in place (same column names).

    Columns recorded with std_dev 0 pass through unchanged.
    """
    features = dataset.features.copy()
    for name, values in _scaled_columns(dataset, params):
        features[:, dataset.column_index(name)] = values
    return TabularDataset(
        features=frozen(features),
        feature_names=dataset.feature_names,
        labels=dataset.labels,
        provenance=dataset.provenance,
    )


# First category dropped alphabetically, so Afternoon has no column.
_SEGMENT_COLUMNS = ("Day_Segment_Evening", "Day_Segment_Morning", "Day_Segment_Night")


def engineer_time_features(
    dataset: TabularDataset,
    wrap_hours: bool,
    standardizer: StandardizerParams | None = None,
) -> TabularDataset:
    """Derive hour-of-day features from a raw elapsed-seconds Time column.

    Adds Hour = floor(Time / 3600) and one-hot day-segment columns
    (Morning [6,12), Afternoon [12,18), Evening [18,24), Night otherwise;
    the alphabetically first segment, Afternoon, is dropped). With
    ``wrap_hours`` the hour is wrapped mod 24 before segmenting; without
    it the raw hour count feeds the segmentation, so hours >= 24 land in
    Night as in the paper's notebook flow. A missing (NaN) Time leaves
    Hour and every segment column missing.

    When ``standardizer`` covers Time and/or Amount, scaled copies named
    ``<column>_Scaled`` are appended and the raw columns dropped, which is
    the preprocessing shape the rest of the pipeline expects.
    """
    if "Time" not in dataset.feature_names:
        raise KeyError("dataset has no Time column")
    time_seconds = dataset.column("Time")
    hour = np.floor(time_seconds / 3600.0)
    segment_hour = np.mod(hour, 24) if wrap_hours else hour

    new_names = list(dataset.feature_names)
    new_cols = [dataset.features[:, j] for j in range(dataset.n_features)]

    new_names.append("Hour")
    new_cols.append(hour)
    morning = (segment_hour >= 6) & (segment_hour < 12)
    afternoon = (segment_hour >= 12) & (segment_hour < 18)
    evening = (segment_hour >= 18) & (segment_hour < 24)
    night = ~(morning | afternoon | evening)
    unknown = np.isnan(hour)
    for seg_col, mask in zip(_SEGMENT_COLUMNS, (evening, morning, night)):
        new_cols.append(np.where(unknown, np.nan, mask))
        new_names.append(seg_col)

    if standardizer is not None:
        for name, scaled in _scaled_columns(dataset, standardizer):
            new_names.append(f"{name}_Scaled")
            new_cols.append(scaled)
        # Raw columns are dropped only once their scaled versions exist.
        keep = [i for i, n in enumerate(new_names) if n not in standardizer.columns]
        new_names = [new_names[i] for i in keep]
        new_cols = [new_cols[i] for i in keep]

    return TabularDataset(
        features=frozen(np.column_stack(new_cols)),
        feature_names=tuple(new_names),
        labels=dataset.labels,
        provenance=dataset.provenance,
    )


def class_distribution(dataset: TabularDataset) -> tuple[dict[int, int], float]:
    """Per-class row counts and the minority-class fraction."""
    if dataset.n_rows == 0:
        raise ValueError("empty dataset has no class distribution")
    counts = {
        0: int((dataset.labels == 0).sum()),
        1: int((dataset.labels == 1).sum()),
    }
    minority_fraction = min(counts.values()) / dataset.n_rows
    return counts, minority_fraction

