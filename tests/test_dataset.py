import csv
import multiprocessing
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakguard import dataset as dataset_module
from leakguard import sampling
from leakguard.dataset import (
    CREDITCARD_SCHEMA,
    CsvParseError,
    ORIGINAL,
    RowProvenance,
    SchemaError,
    SplitSpec,
    StandardizerParams,
    TabularDataset,
    apply_standardizer,
    class_distribution,
    engineer_time_features,
    fit_standardizer,
    generate_synthetic_imbalanced,
    load_csv,
    round_half_up,
    save_csv,
    stratified_split,
)


def make_dataset(features, labels):
    features = np.asarray(features, dtype=np.float64)
    return TabularDataset(
        features=features,
        feature_names=tuple(f"c{i}" for i in range(features.shape[1])),
        labels=np.asarray(labels),
        provenance=tuple(RowProvenance.original(i) for i in range(features.shape[0])),
    )


class TestTabularDataset:
    def test_rejects_label_outside_binary(self):
        for labels in ([0, 2], [0.5, 1.0]):
            with pytest.raises(ValueError, match="labels"):
                make_dataset([[1.0], [2.0]], labels)

    def test_rejects_duplicate_feature_names(self):
        with pytest.raises(ValueError, match="unique"):
            TabularDataset(
                features=np.zeros((1, 2)),
                feature_names=("a", "a"),
                labels=np.array([0]),
                provenance=(RowProvenance.original(0),),
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make_dataset([[1.0], [2.0]], [0])

    def test_features_are_immutable(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0

    @pytest.mark.parametrize(
        "value", [np.nan, -np.nan, np.inf, -np.inf], ids=["nan", "-nan", "inf", "-inf"]
    )
    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "copied"])
    def test_non_finite_feature_refused_naming_the_first_such_column(self, value, kept):
        # Three blocks: c3 holds one in the first block, c1 only in the last.
        n_rows = 2 * dataset_module._BLOCK_ROWS + 5
        features = np.zeros((n_rows, 4))
        features[0, 3] = value
        features[-1, 1] = value
        if kept:
            features = dataset_module.frozen(features)
        with pytest.raises(ValueError, match="^column 'c1' holds a non-finite value$"):
            TabularDataset(features, ("c0", "c1", "c2", "c3"), np.zeros(n_rows, np.int64),
                           np.zeros(n_rows, np.int8))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_matrices_build(self, shape):
        names = tuple(f"c{i}" for i in range(shape[1]))
        n_rows = shape[0]
        data = TabularDataset(np.zeros(shape), names, np.zeros(n_rows, np.int64), np.zeros(n_rows, np.int8))
        assert data.features.shape == shape

    def test_provenance_validation(self):
        for value in ("tagged", "duplicate", 3, -1):
            with pytest.raises(ValueError, match="is not a valid RowProvenance"):
                RowProvenance(value)
        with pytest.raises(ValueError, match="source_index cannot be negative"):
            RowProvenance.original(-1)
        assert RowProvenance.original(3) is RowProvenance.ORIGINAL == 0
        assert RowProvenance(2) is RowProvenance.SYNTHETIC

    def test_equals_compares_bits(self):
        zero, negative_zero = make_dataset([[0.0]], [0]), make_dataset([[-0.0]], [0])
        assert zero.fingerprint != negative_zero.fingerprint
        assert not zero.equals(negative_zero) and not negative_zero.equals(zero)
        assert zero.equals(make_dataset([[0.0]], [0]))

    def test_select_rows_takes_integer_indices_only(self):
        data = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        with pytest.raises(ValueError, match="integers"):
            data.select_rows(np.array([False, False, True, True]))
        with pytest.raises(ValueError, match="integers"):
            data.select_rows([0.0, 2.0])
        for indices in (3, [[0, 1]]):
            with pytest.raises(ValueError, match="1-D"):
                data.select_rows(indices)
        for indices, bad in (([-1], -1), ([4], 4), ([0, 9, -2], 9), (np.array([2, 200], np.uint8), 200)):
            with pytest.raises(ValueError, match=rf"row index {bad} is outside \[0, 4\)"):
                data.select_rows(indices)
        picked = data.select_rows(np.flatnonzero([False, False, True, True]))
        assert picked.features[:, 0].tolist() == [2.0, 3.0]
        assert picked.labels.tolist() == [0, 1]
        assert data.select_rows(np.array([3, 0], dtype=np.uint8)).features[:, 0].tolist() == [3.0, 0.0]
        assert data.select_rows([]).n_rows == 0


class TestNoSecondCopy:
    """A dataset keeps the fresh read-only matrix its producer hands it and
    copies anything a caller could still write to."""

    @staticmethod
    def source(n_rows=400):
        rng = np.random.default_rng(3)
        features = np.column_stack(
            [rng.uniform(0, 2 * 86400, n_rows), rng.standard_normal((n_rows, 3)),
             rng.lognormal(3.0, 1.0, n_rows)]
        )
        labels = (np.arange(n_rows) % 10 == 0).astype(np.int64)
        return TabularDataset(
            features, ("Time", "V1", "V2", "V3", "Amount"), labels, np.zeros(n_rows, np.int8)
        )

    def derived(self, data):
        train, test = stratified_split(data, SplitSpec(0.25, 0, True))
        params = fit_standardizer(train, ["Time", "Amount"])
        out = {
            "select_rows": data.select_rows(np.arange(data.n_rows)[::-1]),
            "split-train": train,
            "split-test": test,
            "apply_standardizer": apply_standardizer(train, params),
            "engineer_time_features": engineer_time_features(train, True, params),
        }
        for kind in sampling.SamplerKind:
            spec = sampling.SamplerSpec(kind, 0.5, 3, 1)
            out[kind.value] = sampling.resample(train, spec)
        return out

    def test_derived_datasets_own_their_features(self):
        data = self.source()
        before = data.features.copy()
        for name, derived in self.derived(data).items():
            feats = derived.features
            assert not np.shares_memory(feats, data.features), name
            assert feats.flags.owndata and not feats.flags.writeable, name
            with pytest.raises(ValueError):
                feats[0, 0] = 1.0
        assert np.array_equal(data.features, before)

    def test_frozen_owned_matrix_kept_as_is(self):
        features = dataset_module.frozen(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
        assert make_dataset(features, [0, 1, 0]).features is features

    @pytest.mark.parametrize(
        "make",
        [
            lambda base: base,
            lambda base: dataset_module.frozen(base[:, :]),
            lambda base: dataset_module.frozen(base.view()),
            lambda base: dataset_module.frozen(np.asfortranarray(base)),
            lambda base: dataset_module.frozen(base.astype(np.float32)),
            lambda base: base.tolist(),
        ],
        ids=["writable", "read-only-view", "read-only-whole-view", "fortran-order", "float32",
             "list"],
    )
    def test_anything_else_is_copied(self, make):
        base = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        given = make(base)
        data = TabularDataset(given, ("a", "b"), [0, 1, 0], np.zeros(3, np.int8))
        assert data.features is not given and data.features.dtype == np.float64
        assert not np.shares_memory(data.features, base)
        base[0, 0] = 99.0
        if isinstance(given, np.ndarray) and given.flags.writeable:
            given[1, 1] = 99.0
        assert data.features.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_derived_labels_and_provenance_are_read_only(self):
        data = self.source()
        for name, derived in self.derived(data).items():
            for array in (derived.labels, derived.provenance):
                assert array.flags.owndata and not array.flags.writeable, name
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_frozen_owned_labels_and_provenance_kept_as_is(self):
        labels = dataset_module.frozen(np.array([0, 1, 0], dtype=np.int64))
        kinds = dataset_module.frozen(np.array([0, 2, 1], np.int8))
        data = TabularDataset(np.zeros((3, 1)), ("a",), labels, kinds)
        assert data.labels is labels and data.provenance is kinds

    @pytest.mark.parametrize(
        "make",
        [
            lambda base: base,
            lambda base: dataset_module.frozen(base[:]),
            lambda base: dataset_module.frozen(base.astype(np.int32)),
            lambda base: base.tolist(),
        ],
        ids=["writable", "read-only-view", "int32", "list"],
    )
    def test_other_labels_and_provenance_are_copied(self, make):
        base = np.array([0, 1, 0], dtype=np.int64)
        kinds_base = np.array([0, 1, 0], dtype=np.int8)
        given, given_kinds = make(base), make(kinds_base)
        data = TabularDataset(np.zeros((3, 1)), ("a",), given, given_kinds)
        for kept, source, dtype in ((data.labels, base, np.int64), (data.provenance, kinds_base, np.int8)):
            assert kept.dtype == dtype and not kept.flags.writeable
            assert not np.shares_memory(kept, source)
        base[0] = kinds_base[0] = 1
        assert data.labels.tolist() == data.provenance.tolist() == [0, 1, 0]

    def test_select_rows_allocates_one_output_matrix(self):
        data = generate_synthetic_imbalanced(20_000, 0.05, 30, 1.0, 0)
        order = np.random.default_rng(0).permutation(data.n_rows)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            picked = data.select_rows(order)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # Features are 4.8 MB; labels and provenance kinds add 0.18 MB, each
        # made once, and index checks and validation temporaries about 0.4 MB:
        # 1.121 in all, against 1.155 with three provenance columns and 1.192
        # when labels and provenance were copied a second time.
        assert peak < 1.14 * picked.features.nbytes, peak / picked.features.nbytes


class TestLoadCsv:
    def creditcard_rows(self, n):
        rng = np.random.default_rng(0)
        header = ",".join(CREDITCARD_SCHEMA)
        lines = [header]
        for i in range(n):
            values = {name: rng.standard_normal() for name in CREDITCARD_SCHEMA}
            values["Time"] = float(i * 100)
            values["Amount"] = abs(values["Amount"]) * 50
            values["Class"] = 1 if i % 7 == 0 else 0
            lines.append(",".join(repr(values[c]) if c != "Class" else str(values[c]) for c in CREDITCARD_SCHEMA))
        return "\n".join(lines) + "\n"

    def test_loads_creditcard_schema(self, tmp_path):
        path = tmp_path / "cc.csv"
        path.write_text(self.creditcard_rows(10))
        data = load_csv(path, schema=CREDITCARD_SCHEMA)
        assert data.n_rows == 10
        assert data.n_features == 30
        assert "Class" not in data.feature_names
        assert data.provenance.dtype == np.int8 and (data.provenance == ORIGINAL).all()

    def test_column_order_resolved_by_name(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("Class,b,a\n1,2.0,3.0\n0,4.5,5.5\n")
        data = load_csv(path)
        assert data.feature_names == ("b", "a")
        assert data.column("a").tolist() == [3.0, 5.5]
        assert data.labels.tolist() == [1, 0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_header_mismatch_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = [c for c in CREDITCARD_SCHEMA if c != "V7"]
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(SchemaError, match="V7"):
            load_csv(path, schema=CREDITCARD_SCHEMA)

    def test_missing_label_column_named(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,class\n1.0,0\n")
        with pytest.raises(SchemaError, match=r"nolabel\.csv has no 'Class' column$"):
            load_csv(path)

    def test_empty_data_rows_is_valid(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,Class\n")
        data = load_csv(path)
        assert data.n_rows == 0
        with pytest.raises(ValueError):
            class_distribution(data)

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "cells.csv"
        lines = ["V7,V8,Class"]
        for i in range(1, 6):
            cell = "abc" if i == 3 else "1.5"
            lines.append(f"{cell},2.0,0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(path)
        assert err.value.row == 3
        assert err.value.column == "V7"
        assert "row 3" in str(err.value) and "V7" in str(err.value)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        for cell in ("inf", "-inf", "nan", "NaN", "-nan"):
            path.write_text(f"a,Class\n1.5,0\n{cell},1\n")
            with pytest.raises(CsvParseError, match=f"^row 2, column 'a': non-finite value '{cell}'$"):
                load_csv(path)

    def test_label_outside_binary(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("a,Class\n1.0,3\n")
        with pytest.raises(ValueError, match="outside"):
            load_csv(path)

    @pytest.mark.parametrize("special", [False, True], ids=["gaussian", "special-values"])
    def test_save_load_round_trip_is_bit_identical(self, tmp_path, special):
        data = generate_synthetic_imbalanced(50, 0.2, 4, 1.0, 9)
        if special:
            values = [-0.0, 5e-324, 1e16, -1e16, 0.1 + 0.2, 1e-300]
            features = np.resize(values, data.features.shape)
            data = TabularDataset(features, data.feature_names, data.labels, data.provenance)
        path = tmp_path / "rt.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        assert loaded.equals(data)
        assert loaded.features.tobytes() == data.features.tobytes()


def row_by_row_save_csv(dataset, path):
    """save_csv as it was before it wrote blocks: the byte oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.feature_names) + ["Class"])
        for i in range(dataset.n_rows):
            writer.writerow(
                [repr(v) for v in dataset.features[i].tolist()] + [int(dataset.labels[i])]
            )


class TestSaveCsvBytes:
    # repr switches to exponent notation below 1e-4 and from 1e16 on.
    SPECIAL = [-0.0, 0.0, 5e-324, 1e16, -1e16, 0.1 + 0.2, 1e-300, 123.0,
               1e-05, 0.0001, 1e15, 1.7976931348623157e308, -5e-324]

    @pytest.mark.parametrize(
        "n_rows, n_features",
        [(0, 3), (0, 0), (3, 0), (1, 1), (11, 2), (dataset_module._CSV_BLOCK_ROWS + 5, 2),
         (dataset_module._CSV_BLOCK_ROWS, 2), (2 * dataset_module._CSV_BLOCK_ROWS, 2)],
    )
    def test_matches_the_row_loop(self, tmp_path, n_rows, n_features):
        rng = np.random.default_rng(n_rows * 7 + n_features)
        features = rng.choice(self.SPECIAL, size=(n_rows, n_features))
        if n_rows and n_features:
            features[:, 0] = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
        names = ("plain", 'has "quotes", and a comma', "with space")[:n_features]
        names += tuple(f"c{i}" for i in range(len(names), n_features))
        data = TabularDataset(
            features=features.reshape(n_rows, n_features),
            feature_names=names,
            labels=rng.integers(0, 2, n_rows),
            provenance=tuple(RowProvenance.original(i) for i in range(n_rows)),
        )
        save_csv(data, tmp_path / "blocks.csv")
        row_by_row_save_csv(data, tmp_path / "rows.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_feature_named_like_the_label_column_refused_before_the_file(self, tmp_path):
        data = TabularDataset(np.zeros((2, 2)), ("Class", "x"), np.array([0, 1]), np.zeros(2, np.int8))
        with pytest.raises(ValueError, match="feature column 'Class' has the label column's name"):
            save_csv(data, tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()


class TestSaveCsvPool:
    """The blocks formatted in forked workers; the worker count is chosen
    by replacing the private helper, as it is no option. Blocks of 64 rows
    make 16 of them, so every worker count fills its in-flight bound."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset_module, "_CSV_BLOCK_ROWS", 64)

    @staticmethod
    def sixteen_block_data():
        n_rows = 15 * dataset_module._CSV_BLOCK_ROWS + 5
        rng = np.random.default_rng(23)
        features = rng.choice(TestSaveCsvBytes.SPECIAL, size=(n_rows, 3))
        features[:, 0] = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
        return TabularDataset(features, ("a", "b, c", "d"), rng.integers(0, 2, n_rows), np.zeros(n_rows, np.int8))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, workers):
        import multiprocessing

        monkeypatch.setattr(dataset_module, "_parallelism", lambda n_blocks: workers)
        data = self.sixteen_block_data()
        save_csv(data, tmp_path / "pool.csv")
        assert multiprocessing.active_children() == []
        row_by_row_save_csv(data, tmp_path / "rows.csv")
        assert (tmp_path / "pool.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
    def test_worker_error_reaches_the_caller_and_no_worker_outlives_it(
        self, tmp_path, monkeypatch, error
    ):
        import multiprocessing

        format_rows = dataset_module._format_rows

        def failing_format_rows(features, labels, start, stop):
            if start == 2 * dataset_module._CSV_BLOCK_ROWS:
                raise error("block 2")
            return format_rows(features, labels, start, stop)

        # The forked workers inherit both replacements.
        monkeypatch.setattr(dataset_module, "_format_rows", failing_format_rows)
        monkeypatch.setattr(dataset_module, "_parallelism", lambda n_blocks: 2)
        with pytest.raises(error, match="block 2"):
            save_csv(self.sixteen_block_data(), tmp_path / "pool.csv")
        assert multiprocessing.active_children() == []


SEVENTEEN_DIGITS = (
    "a,b,Class\n"
    + "".join(
        f"{x:.17g},{y:.17g},{i % 2}\n"
        for i, (x, y) in enumerate(
            [(0.1 + 0.2, 1 / 3), (5e-324, -1.7976931348623157e308), (np.pi, -2 / 3 * 1e-300)]
        )
    )
).encode()

# (id, file bytes, whether the bulk parse keeps its result)
BULK_CASES = [
    ("blank-line", b"a,Class\n1.5,0\n\n2.5,1\n", False),
    ("only-blank-line", b"a,Class\n\n", False),
    ("crlf", b"a,Class\r\n1.5,0\r\n2.5,1\r\n", True),
    ("no-trailing-newline", b"a,Class\n1.5,0\n2.5,1", True),
    ("quoted-cell", b'a,Class\n"1.5",0\n2.5,1\n', True),
    # Kaggle's creditcard.csv quotes its header names and its labels.
    ("kaggle-quoting", b'"Time","V1","Class"\n0,-1.3598071336738,"0"\n1,2.5,"1"\n', True),
    ("quoted-comma", b'a,Class\n"1,5",0\n2.5,1\n', False),
    ("quote-mid-cell", b'a,Class\n1"5",0\n2.5,1\n', False),
    ("space-before-quote", b'a,Class\n "1.5",0\n2.5,1\n', False),
    ("text-after-quote", b'a,Class\n"1"5,0\n2.5,1\n', True),
    # A quoted line end spans two lines but is one row: the row loop loads it.
    ("quoted-newline", b'a,Class\n"1.5\n",0\n2.5,1\n', False),
    ("quoted-newline-header", b'"a\n1",Class\n1.5,0\n', False),
    ("hash-cell", b"a,Class\n1.5,0\n#2.5,1\n", False),
    ("nan", b"a,Class\n1.5,0\nnan,1\n", False),
    ("NaN", b"a,Class\n1.5,0\nNaN,1\n", False),
    ("minus-nan", b"a,Class\n1.5,0\n-nan,1\n", False),
    ("empty-cell", b"a,Class\n,0\n", False),
    ("inf", b"a,Class\ninf,0\n2.5,1\n", False),
    ("label-3", b"a,Class\n1.5,3\n", False),
    ("label-minus-zero", b"a,Class\n1.5,-0.0\n2.5,1\n", True),
    ("underscore", b"a,Class\n1_000,0\n2.5,1\n", False),
    ("arabic-digits", "a,Class\n\u0661\u0662,0\n2.5,1\n".encode(), False),
    ("short-row", b"a,b,Class\n1,2,0\n1,0\n", False),
    ("long-row", b"a,b,Class\n1,2,0\n1,2,3,0\n", False),
    ("one-row", b"Class,a\n1,-2.5e-3\n", True),
    ("zero-rows", b"a,Class\n", True),
    ("minus-zero-features", b"a,b,Class\n-0.0,0.0,0\n0.0,-0.0,1\n", True),
    ("17-digit", SEVENTEEN_DIGITS, True),
    ("padded-cells", b"a,Class\n 1.5 ,\t0\n", True),
    # loadtxt skips the blank line and csv splits at the lone CR: the row
    # counts agree only if the lone CR counts as a line end.
    ("lone-cr-and-blank-line", b"a,Class\n1.5,0\r2.5,1\n\n", False),
]


def load_or_error(path):
    try:
        return load_csv(path), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


class TestBulkCsvParse:
    """The bulk parse against the row-by-row loop it falls back to."""

    @pytest.mark.parametrize(
        "content,bulk_keeps", [c[1:] for c in BULK_CASES], ids=[c[0] for c in BULK_CASES]
    )
    def test_matches_row_loop(self, tmp_path, monkeypatch, content, bulk_keeps):
        self.check_matches_row_loop(tmp_path, monkeypatch, content, bulk_keeps)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "content,bulk_keeps", [c[1:] for c in BULK_CASES], ids=[c[0] for c in BULK_CASES]
    )
    def test_line_chunks_match_row_loop(self, tmp_path, monkeypatch, content, bulk_keeps, workers):
        """Chunks of one byte end at every LF: each LF-ended line is a chunk
        of its own, parsed in the calling process or in a pool."""
        monkeypatch.setattr(dataset_module, "_CSV_CHUNK_BYTES", 1)
        monkeypatch.setattr(dataset_module, "_parallelism", lambda n_tasks: workers)
        self.check_matches_row_loop(tmp_path, monkeypatch, content, bulk_keeps)
        assert multiprocessing.active_children() == []
        starts = {offset for offset, _ in dataset_module._data_chunks(tmp_path / "data.csv")}
        after_lf = {i + 1 for i, byte in enumerate(content[:-1]) if byte == ord("\n")}
        # The chunk at 0 is left out when it holds only the header.
        assert starts | {0} == after_lf | {0}

    def test_quoted_line_end_that_ends_a_chunk_falls_back_once(self, tmp_path, monkeypatch):
        rows = [f"{i}.5,{i % 2}\n" for i in range(100)]
        rows[20] = '"20.5\n",0\n'
        content = "a,Class\n" + "".join(rows)
        path = tmp_path / "data.csv"
        path.write_text(content)
        # The first chunk ends at the first LF at or past this many bytes:
        # the one inside the quotes.
        after_quoted_lf = content.index('"20.5\n') + len('"20.5\n')
        monkeypatch.setattr(dataset_module, "_CSV_CHUNK_BYTES", after_quoted_lf)
        monkeypatch.setattr(dataset_module, "_parallelism", lambda n_tasks: 2)
        chunks = dataset_module._data_chunks(path)
        assert [offset for offset, _ in chunks][:2] == [0, after_quoted_lf] and len(chunks) > 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            data = load_csv(path)
        assert multiprocessing.active_children() == []
        message = f"{path}: the bulk numeric parse refused this file; it was loaded row by row"
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, message)]
        assert data.column("a").tolist() == [i + 0.5 for i in range(100)]

    @staticmethod
    def check_matches_row_loop(tmp_path, monkeypatch, content, bulk_keeps):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        header = next(csv.reader(content.decode().splitlines(keepends=True)))
        kept = dataset_module._parse_bulk(path, len(header), header.index("Class"))
        assert (kept is not None) == bulk_keeps
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded, error = load_or_error(path)

        monkeypatch.setattr(dataset_module, "_parse_bulk", lambda *args: None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference, reference_error = load_or_error(path)

        assert error == reference_error
        # The one warning a load may emit: the row loop loaded a refused file.
        fell_back = not bulk_keeps and error is None
        assert [w.category for w in caught] == ([RuntimeWarning] if fell_back else [])
        if reference is not None:
            assert loaded.equals(reference)
            assert loaded.features.tobytes() == reference.features.tobytes()
            assert loaded.features.shape == reference.features.shape

    def test_fallback_warns_with_file_name(self, tmp_path):
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('a,Class\n"1.5\n",0\n2.5,1\n')
        with pytest.warns(RuntimeWarning, match=re.escape(str(quoted))):
            data = load_csv(quoted)
        assert data.column("a").tolist() == [1.5, 2.5]

        plain = tmp_path / "plain.csv"
        plain.write_text("a,Class\n1.5,0\n2.5,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_csv(plain).equals(data)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_once_row_by_row(self, tmp_path):
        content = "a,Class\n" + "".join(f"{i}.25,{i % 2}\n" for i in range(20000))
        regular = tmp_path / "data.csv"
        regular.write_text(content)
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        loaded = []

        def read():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                data = load_csv(pipe)
            loaded.append((data, [str(w.message) for w in caught]))

        # A loader that reopens the pipe blocks forever, so it reads in a
        # thread that the test can abandon.
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        pipe.write_text(content)
        reader.join(timeout=60)
        assert not reader.is_alive(), "load_csv blocked reopening the pipe"
        data, messages = loaded[0]
        assert messages == [f"{pipe}: not a regular file, so it cannot be parsed in bulk; "
                            "it was loaded row by row"]
        assert data.equals(load_csv(regular))


class TestLoadCsvPool:
    """Chunks parsed in forked workers; the worker count is chosen by
    replacing the private helper, as it is no option. Chunks of 2,048 bytes
    cut the 965-row file into 16 or more, so every worker count fills its
    in-flight bound."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(dataset_module, "_CSV_BLOCK_ROWS", 64)
        monkeypatch.setattr(dataset_module, "_CSV_CHUNK_BYTES", 2048)

    @staticmethod
    def write_data(path):
        data = TestSaveCsvPool.sixteen_block_data()
        save_csv(data, path)
        assert len(dataset_module._data_chunks(path)) >= 16
        return data

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_values_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, workers):
        data = self.write_data(tmp_path / "data.csv")
        monkeypatch.setattr(dataset_module, "_parallelism", lambda n_tasks: workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_csv(tmp_path / "data.csv")
        assert multiprocessing.active_children() == []
        assert loaded.equals(data)
        assert loaded.features.tobytes() == data.features.tobytes()

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
    def test_worker_error_reaches_the_caller_and_no_worker_outlives_it(
        self, tmp_path, monkeypatch, error
    ):
        path = tmp_path / "data.csv"
        self.write_data(path)
        third_chunk = dataset_module._data_chunks(path)[2][0]
        parse_chunk = dataset_module._parse_chunk

        def failing_parse_chunk(path, n_columns, label_pos, offset, lines):
            if offset == third_chunk:
                raise error("chunk 2")
            return parse_chunk(path, n_columns, label_pos, offset, lines)

        # The forked workers inherit both replacements.
        monkeypatch.setattr(dataset_module, "_parse_chunk", failing_parse_chunk)
        monkeypatch.setattr(dataset_module, "_parallelism", lambda n_tasks: 2)
        with pytest.raises(error, match="chunk 2"):
            load_csv(path)
        assert multiprocessing.active_children() == []


class TestCsvWorkersWithThreads:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_no_process_is_forked_while_another_thread_runs(self, tmp_path, monkeypatch):
        """Forking a process that runs threads can deadlock the child, and
        Python 3.12 warns of it, so save_csv and load_csv then work in the
        calling process."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(dataset_module, "_CSV_BLOCK_ROWS", 64)
        monkeypatch.setattr(dataset_module, "_CSV_CHUNK_BYTES", 256)
        monkeypatch.setattr(
            dataset_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        data = TestSaveCsvPool.sixteen_block_data()
        stop = threading.Event()
        helper = threading.Thread(target=stop.wait, daemon=True)
        helper.start()
        try:
            assert dataset_module._parallelism(16) == 1
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                save_csv(data, tmp_path / "data.csv")
                loaded = load_csv(tmp_path / "data.csv")
        finally:
            stop.set()
            helper.join(timeout=10)
        assert not helper.is_alive()
        assert dataset_module._parallelism(16) == 4
        row_by_row_save_csv(data, tmp_path / "rows.csv")
        assert (tmp_path / "data.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert loaded.equals(data)
        assert loaded.features.tobytes() == data.features.tobytes()


class TestGenerateSynthetic:
    def test_exact_class_counts(self):
        data = generate_synthetic_imbalanced(20000, 0.01, 10, 1.5, 42)
        counts, fraction = class_distribution(data)
        assert counts == {0: 19800, 1: 200}
        assert fraction == 0.01

    def test_deterministic_per_seed(self):
        a = generate_synthetic_imbalanced(500, 0.1, 3, 1.0, 7)
        b = generate_synthetic_imbalanced(500, 0.1, 3, 1.0, 7)
        assert a.equals(b)
        c = generate_synthetic_imbalanced(500, 0.1, 3, 1.0, 8)
        assert not np.array_equal(a.features, c.features)

    def test_zero_separation_means_no_signal(self):
        # Identically distributed classes: class means should coincide
        # within sampling noise, far closer than any real separation.
        data = generate_synthetic_imbalanced(20000, 0.5, 4, 0.0, 3)
        pos = data.features[data.labels == 1].mean(axis=0)
        neg = data.features[data.labels == 0].mean(axis=0)
        assert np.abs(pos - neg).max() < 0.1

    def test_separation_shifts_positive_mean(self):
        data = generate_synthetic_imbalanced(20000, 0.5, 4, 2.0, 3)
        pos = data.features[data.labels == 1].mean(axis=0)
        neg = data.features[data.labels == 0].mean(axis=0)
        assert np.all(pos - neg > 1.8)

    def test_rejects_degenerate_fraction(self):
        with pytest.raises(ValueError):
            generate_synthetic_imbalanced(100, 0.001, 3, 1.0, 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_rows", 100.0),
            ("n_rows", True),
            ("n_features", 3.0),
            ("seed", True),
            ("seed", 1.5),
            ("seed", -1),
            ("positive_fraction", float("nan")),
            ("positive_fraction", True),
            ("class_separation", float("nan")),
            ("class_separation", float("inf")),
            ("class_separation", "1.0"),
        ],
    )
    def test_field_types_checked(self, field, value):
        kwargs = dict(n_rows=100, positive_fraction=0.1, n_features=3, class_separation=1.0, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            generate_synthetic_imbalanced(**kwargs)

    def test_numpy_scalars_accepted(self):
        a = generate_synthetic_imbalanced(np.int64(100), np.float64(0.1), np.int32(3), 1, np.int64(5))
        assert a.equals(generate_synthetic_imbalanced(100, 0.1, 3, 1.0, 5))


class TestStratifiedSplit:
    def test_per_class_counts(self):
        data = generate_synthetic_imbalanced(1000, 0.01, 3, 1.0, 5)
        train, test = stratified_split(data, SplitSpec(0.2, 1, True))
        assert class_distribution(test)[0] == {0: 198, 1: 2}
        assert class_distribution(train)[0] == {0: 792, 1: 8}

    def test_single_row_per_class_rejected(self):
        data = make_dataset([[0.0], [1.0]], [0, 1])
        with pytest.raises(ValueError, match="class"):
            stratified_split(data, SplitSpec(0.5, 0, True))

    def test_unstratified_split(self):
        data = generate_synthetic_imbalanced(100, 0.3, 2, 1.0, 5)
        train, test = stratified_split(data, SplitSpec(0.25, 3, stratified=False))
        assert test.n_rows == 25 and train.n_rows == 75

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.1, 0.9))
    def test_split_is_a_partition(self, seed, frac):
        base = generate_synthetic_imbalanced(200, 0.1, 2, 1.0, 11)
        # A row-id column tells the rows apart on each side.
        data = TabularDataset(
            np.column_stack([np.arange(200.0), base.features]),
            ("row",) + base.feature_names,
            base.labels,
            base.provenance,
        )
        train, test = stratified_split(data, SplitSpec(frac, seed, True))
        assert train.n_rows + test.n_rows == data.n_rows
        train_rows = set(train.column("row").tolist())
        test_rows = set(test.column("row").tolist())
        assert train_rows.isdisjoint(test_rows)
        assert train_rows | test_rows == set(range(data.n_rows))
        for part, rows in ((train, train_rows), (test, test_rows)):
            assert np.array_equal(part.labels, data.labels[sorted(int(r) for r in rows)])

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stratification_bound(self, seed):
        data = generate_synthetic_imbalanced(1000, 0.05, 2, 1.0, 13)
        _, test = stratified_split(data, SplitSpec(0.3, seed, True))
        dataset_fraction = 0.05
        test_fraction = (test.labels == 1).mean()
        assert abs(test_fraction - dataset_fraction) <= 1.0 / test.n_rows

    def test_deterministic_per_seed(self):
        data = generate_synthetic_imbalanced(300, 0.1, 2, 1.0, 17)
        a = stratified_split(data, SplitSpec(0.2, 9, True))
        b = stratified_split(data, SplitSpec(0.2, 9, True))
        assert a.train.equals(b.train) and a.test.equals(b.test)
        assert np.array_equal(a.train_rows, b.train_rows)
        assert np.array_equal(a.test_rows, b.test_rows)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"stratified": "false"}, "stratified"),
            ({"stratified": 0}, "stratified"),
            ({"stratified": None}, "stratified"),
            ({"seed": 1.5}, "seed"),
            ({"seed": 42.0}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": "42"}, "seed"),
            ({"test_fraction": "0.2"}, "test_fraction"),
            ({"test_fraction": True}, "test_fraction"),
            ({"test_fraction": float("nan")}, "test_fraction"),
        ],
    )
    def test_spec_field_types_checked(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SplitSpec(**kwargs)

    def test_numpy_integer_seed_stored_as_int(self):
        assert type(SplitSpec(seed=np.int64(7)).seed) is int


class TestStandardizer:
    def test_hand_computed_column(self):
        data = make_dataset([[2.0], [4.0], [6.0]], [0, 0, 1])
        params = fit_standardizer(data, ["c0"])
        assert params.means == (4.0,)
        assert params.std_devs == (1.632993161855452,)  # population sqrt(8/3)
        out = apply_standardizer(data, params)
        expected = [-1.224744871391589, 0.0, 1.224744871391589]
        assert np.allclose(out.column("c0"), expected, atol=1e-12)

    def test_fitting_data_becomes_standard(self):
        rng = np.random.default_rng(2)
        data = make_dataset(rng.normal(5, 3, size=(50, 2)), rng.integers(0, 2, 50))
        params = fit_standardizer(data, ["c0", "c1"])
        out = apply_standardizer(data, params)
        assert abs(out.column("c0").mean()) < 1e-9
        assert abs(out.column("c0").var(ddof=0) - 1.0) < 1e-9

    def test_constant_column_passes_through(self):
        data = make_dataset([[5.0], [5.0], [5.0]], [0, 1, 0])
        params = fit_standardizer(data, ["c0"])
        assert params.std_devs == (0.0,)
        out = apply_standardizer(data, params)
        assert out.column("c0").tolist() == [5.0, 5.0, 5.0]

    def test_test_column_mean_not_centered(self):
        train = make_dataset([[1.0], [2.0], [3.0]], [0, 0, 1])
        test = make_dataset([[10.0], [20.0]], [0, 1])
        params = fit_standardizer(train, ["c0"])
        out = apply_standardizer(test, params)
        assert abs(out.column("c0").mean()) > 1.0

    def test_missing_column_errors(self):
        data = make_dataset([[1.0]], [0])
        with pytest.raises(KeyError):
            fit_standardizer(data, ["nope"])
        params = fit_standardizer(data, ["c0"])
        other = TabularDataset(
            features=np.ones((1, 1)),
            feature_names=("different",),
            labels=np.array([0]),
            provenance=(RowProvenance.original(0),),
        )
        with pytest.raises(KeyError):
            apply_standardizer(other, params)

    def test_repeated_column_rejected(self):
        # Applied twice, a repeated column would be scaled twice.
        with pytest.raises(ValueError, match="unique"):
            StandardizerParams(columns=("c0", "c0"), means=(2.0, 2.0), std_devs=(1.0, 1.0))
        with pytest.raises(ValueError, match="unique"):
            fit_standardizer(make_dataset([[1.0], [3.0]], [0, 1]), ["c0", "c0"])

    def test_infinite_value_refused_naming_the_column(self):
        # The dataset refuses it when it is built, before any fit.
        with pytest.raises(ValueError, match="'c1' holds a non-finite value"):
            make_dataset([[1.0, 1000.0], [2.0, np.inf], [3.0, 1001.0]], [0, 1, 0])

    def test_overflowing_fit_refused(self):
        # Finite values whose squared deviations overflow give an infinite
        # std_dev, which the parameters refuse.
        data = make_dataset([[1.0, 1e300], [2.0, -1e300], [3.0, 0.0]], [0, 1, 0])
        fit_standardizer(data, ["c0"])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="means and std_devs must be finite"):
                fit_standardizer(data, ["c0", "c1"])

    @pytest.mark.parametrize(
        "means, std_devs", [((np.inf,), (1.0,)), ((0.0,), (np.nan,)), ((np.nan,), (np.inf,))]
    )
    def test_non_finite_params_refused(self, means, std_devs):
        with pytest.raises(ValueError, match="finite"):
            StandardizerParams(columns=("c0",), means=means, std_devs=std_devs)

    def test_train_only_params_ignore_test_rows(self):
        data = generate_synthetic_imbalanced(200, 0.2, 3, 1.0, 21)
        train, test = stratified_split(data, SplitSpec(0.25, 4, True))
        params = fit_standardizer(train, list(train.feature_names))
        # Perturbing test rows cannot matter: params come from train alone.
        perturbed = TabularDataset(
            features=test.features + 100.0,
            feature_names=test.feature_names,
            labels=test.labels,
            provenance=test.provenance,
        )
        params_again = fit_standardizer(train, list(train.feature_names))
        assert params == params_again
        assert perturbed.n_rows == test.n_rows


def time_dataset(hours, amounts=None):
    n = len(hours)
    amounts = amounts if amounts is not None else [10.0] * n
    features = np.column_stack(
        [np.array(hours, dtype=np.float64) * 3600.0, np.array(amounts, dtype=np.float64)]
    )
    return TabularDataset(
        features=features,
        feature_names=("Time", "Amount"),
        labels=np.zeros(n, dtype=np.int64) if n < 2 else np.array([0] * (n - 1) + [1]),
        provenance=tuple(RowProvenance.original(i) for i in range(n)),
    )


class TestEngineerTimeFeatures:
    def segments(self, data):
        cols = {}
        for name in ("Day_Segment_Evening", "Day_Segment_Morning", "Day_Segment_Night"):
            cols[name] = data.column(name)
        out = []
        for i in range(data.n_rows):
            hit = [n for n, v in cols.items() if v[i] == 1.0]
            out.append(hit[0].removeprefix("Day_Segment_") if hit else "Afternoon")
        return out

    def test_hour_30_paper_faithful_is_night(self):
        data = time_dataset([30.0, 2.0])
        out = engineer_time_features(data, False)
        assert out.column("Hour")[0] == 30.0
        assert self.segments(out)[0] == "Night"

    def test_hour_30_corrected_is_morning(self):
        data = time_dataset([30.0, 2.0])
        out = engineer_time_features(data, True)
        assert out.column("Hour")[0] == 30.0  # Hour column keeps the raw count
        assert self.segments(out)[0] == "Morning"

    def test_hour_zero_is_night_in_both_modes(self):
        data = time_dataset([0.0, 1.0])
        for wrap_hours in (False, True):
            assert self.segments(engineer_time_features(data, wrap_hours))[0] == "Night"

    @pytest.mark.parametrize(
        "hour,segment",
        [(6.0, "Morning"), (11.99, "Morning"), (12.0, "Afternoon"),
         (17.0, "Afternoon"), (18.0, "Evening"), (23.0, "Evening"),
         (2.0, "Night"), (5.0, "Night")],
    )
    def test_segment_boundaries(self, hour, segment):
        data = time_dataset([hour, 1.0])
        assert self.segments(engineer_time_features(data, True))[0] == segment

    @staticmethod
    def day_segment(hour):
        """The segment rule, one hour at a time."""
        if 6 <= hour < 12:
            return "Morning"
        elif 12 <= hour < 18:
            return "Afternoon"
        elif 18 <= hour < 24:
            return "Evening"
        return "Night"

    @pytest.mark.parametrize("wrap_hours", [True, False])
    def test_segments_match_per_hour_rule(self, wrap_hours):
        hours = np.arange(-3.0, 52.0, 0.5)
        out = engineer_time_features(time_dataset(hours.tolist()), wrap_hours)
        segment_hours = np.floor(hours) % 24 if wrap_hours else np.floor(hours)
        assert self.segments(out) == [self.day_segment(h) for h in segment_hours]

    def test_afternoon_dropped_as_first_category(self):
        data = time_dataset([13.0, 1.0])
        out = engineer_time_features(data, True)
        assert "Day_Segment_Afternoon" not in out.feature_names
        assert self.segments(out)[0] == "Afternoon"

    def test_raw_columns_dropped_once_scaled_versions_exist(self):
        data = time_dataset([30.0, 2.0], amounts=[5.0, 15.0])
        params = fit_standardizer(data, ["Time", "Amount"])
        out = engineer_time_features(data, True, standardizer=params)
        assert "Time" not in out.feature_names
        assert "Amount" not in out.feature_names
        assert "Time_Scaled" in out.feature_names
        assert "Amount_Scaled" in out.feature_names
        assert "Hour" in out.feature_names
        assert abs(out.column("Amount_Scaled").mean()) < 1e-12

    def test_without_standardizer_raw_columns_kept(self):
        data = time_dataset([30.0, 2.0])
        out = engineer_time_features(data, True)
        assert "Time" in out.feature_names and "Amount" in out.feature_names

    def test_missing_time_column_errors(self):
        data = make_dataset([[1.0]], [0])
        with pytest.raises(KeyError, match="Time"):
            engineer_time_features(data, True)

    def test_pure_function(self):
        data = time_dataset([30.0, 7.0, 19.0])
        a = engineer_time_features(data, False)
        b = engineer_time_features(data, False)
        assert a.equals(b)


def test_class_distribution():
    data = make_dataset([[0.0]] * 10, [0] * 9 + [1])
    counts, fraction = class_distribution(data)
    assert counts == {0: 9, 1: 1}
    assert fraction == 0.1


@pytest.mark.parametrize(
    "labels, counts, fraction",
    [
        ([1] * 9 + [0], {0: 1, 1: 9}, 0.1),
        ([0, 1] * 5, {0: 5, 1: 5}, 0.5),
        ([0] * 4, {0: 4, 1: 0}, 0.0),
    ],
    ids=["negative-minority", "balanced", "one-class"],
)
def test_class_distribution_minority_is_the_smaller_class(labels, counts, fraction):
    data = make_dataset([[0.0]] * len(labels), labels)
    assert class_distribution(data) == (counts, fraction)


@pytest.mark.parametrize(
    "value,expected",
    [(0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (0.49, 0), (888.888, 889)],
)
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected
