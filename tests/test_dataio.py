import csv
import gc
import sys
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupeffect import (Dataset, build_design, dataio, effect_report, fit_fwl, fit_monolithic,
                         histogram, load_column, load_csv)
from groupeffect.dataio import _parse_number, _read
from groupeffect.errors import (
    DataError,
    DuplicateColumnError,
    EmptyAfterFilteringError,
    MissingColumnError,
    NotBinaryGroupError,
    UnsortedEdgesError,
)

from conftest import student_csv_path, traced_peak


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC = (
    "id;grp;score;age\n"
    "1;A;10;20\n"
    "2;B;11.5;30\n"
    "3;A;9;25\n"
    "4;B;12;28\n"
    "5;A;.5;-1\n"
)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), response_col="score",
                      group_col="grp", covariate_cols=["age"])
        assert ds.n_rows == 5 and ds.dropped_rows == 0
        np.testing.assert_allclose(ds.response, [10, 11.5, 9, 12, 0.5])
        assert ds.covariates[0][0] == "age"
        np.testing.assert_allclose(ds.covariates[0][1], [20, 30, 25, 28, -1])
        assert sorted(set(ds.group_labels)) == ["A", "B"]

    def test_quoted_fields_and_custom_delimiter(self, tmp_path):
        text = 'g,y\n"A",1\n"B",2\n"A",3\n"B",4\n'
        ds = load_csv(write(tmp_path, text), response_col="y", group_col="g",
                      delimiter=",")
        assert ds.group_labels == ("A", "B", "A", "B")

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_of_other_than_one_character(self, tmp_path, delimiter):
        path = write(tmp_path, BASIC)
        for load in (lambda: load_csv(path, response_col="score", group_col="grp",
                                      delimiter=delimiter),
                     lambda: load_column(path, "score", delimiter=delimiter)):
            with pytest.raises(DataError, match="delimiter") as err:
                load()
            assert repr(delimiter) in str(err.value)

    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumnError) as err:
            load_csv(write(tmp_path, BASIC), response_col="nope", group_col="grp")
        assert err.value.name == "nope"

    def test_three_group_labels(self, tmp_path):
        text = "g;y\nA;1\nB;2\nC;3\nA;4\n"
        with pytest.raises(NotBinaryGroupError) as err:
            load_csv(write(tmp_path, text), response_col="y", group_col="g")
        assert err.value.labels == ("A", "B", "C")

    def test_rows_with_missing_cells_dropped_and_counted(self, tmp_path):
        text = (
            "g;y;x\n"
            "A;1;5\n"
            "A;;4\n"          # empty response
            "B;2;\n"          # empty covariate
            "B;3;oops\n"      # non-numeric covariate
            "A;4;1\n"
            "B;5;2\n"
            "A;2;0\n"
        )
        ds = load_csv(write(tmp_path, text), response_col="y", group_col="g",
                      covariate_cols=["x"])
        assert ds.n_rows == 4
        assert ds.dropped_rows == 3

    def test_numeric_forms(self, tmp_path):
        # integers, decimals and decimal exponents parse; inf/nan and a value
        # that overflows are treated as unparseable and drop the row
        text = "g;y\nA;3\nB;-2.5\nA;.75\nB;+4.\nA;1e5\nB;nan\nA;inf\nB;5\nA;1e999\n"
        ds = load_csv(write(tmp_path, text), response_col="y", group_col="g")
        np.testing.assert_allclose(ds.response, [3.0, -2.5, 0.75, 4.0, 1e5, 5.0])
        assert ds.dropped_rows == 3

    @pytest.mark.parametrize("cell, value", [
        ("1e0", 1.0), ("2.5E-3", 2.5e-3), ("1e+5", 1e5), ("-.5e1", -5.0), (" 3.E2 ", 300.0)])
    def test_exponent_cells(self, tmp_path, cell, value, monkeypatch):
        # they pass the block check, so no cell takes the per-cell path
        monkeypatch.setattr(dataio, "_parse_number", None)
        text = f"g;y\nA;{cell}\nB;2\nA;3\nB;4\nA;5\nB;6\n"
        ds = load_csv(write(tmp_path, text), response_col="y", group_col="g")
        assert ds.dropped_rows == 0
        np.testing.assert_array_equal(ds.response, [value, 2, 3, 4, 5, 6])

    @pytest.mark.parametrize("cell", ["1e999", "-1e999", "1E400"])
    @pytest.mark.parametrize("at", [0, 63, 64, 199])
    def test_overflowing_cells_drop_the_row(self, tmp_path, cell, at):
        # the cell passes the block check and reads as inf; beside "\x1f7",
        # which only the exact path accepts, its row takes that path instead
        for other in ("7", "\x1f7"):
            rows = [["A" if i % 2 else "B", str(i), "1"] for i in range(200)]
            rows[at][1:] = [cell, other]
            path = write_rows(tmp_path / "o.csv", ["g", "y", "x"], rows)
            ds = load_csv(path, response_col="y", group_col="g", covariate_cols=["x"])
            np.testing.assert_array_equal(ds.response, [i for i in range(200) if i != at])
            assert ds.dropped_rows == 1 and len(ds.group_labels) == 199
            values, dropped = load_column(path, "y")
            assert dropped == 1 and np.isfinite(values).all() and len(values) == 199

    def test_all_rows_filtered(self, tmp_path):
        text = "g;y\nA;x\nB;y\nA;z\nB;w\n"
        with pytest.raises(EmptyAfterFilteringError):
            load_csv(write(tmp_path, text), response_col="y", group_col="g")

    def test_too_few_usable_rows(self, tmp_path):
        text = "g;y\nA;1\nB;2\nA;3\n"
        with pytest.raises(EmptyAfterFilteringError):
            load_csv(write(tmp_path, text), response_col="y", group_col="g")

    def test_deterministic(self, tmp_path):
        path = write(tmp_path, BASIC)
        a = load_csv(path, response_col="score", group_col="grp",
                     covariate_cols=["age"])
        b = load_csv(path, response_col="score", group_col="grp",
                     covariate_cols=["age"])
        np.testing.assert_array_equal(a.response, b.response)
        assert a.group_labels == b.group_labels
        assert a.dropped_rows == b.dropped_rows

    def test_retained_plus_dropped_is_total(self, tmp_path):
        text = "g;y\n" + "".join(
            f"{'A' if i % 2 else 'B'};{i if i % 3 else 'bad'}\n" for i in range(30)
        )
        ds = load_csv(write(tmp_path, text), response_col="y", group_col="g")
        assert ds.n_rows + ds.dropped_rows == 30

    def test_student_file(self):
        ds = load_csv(student_csv_path(), response_col="G3", group_col="sex",
                      covariate_cols=["Fedu", "traveltime"])
        assert ds.n_rows == 649
        assert sorted(set(ds.group_labels)) == ["F", "M"]
        assert ds.n_covariates == 2

    def test_student_file_without_covariates(self):
        ds = load_csv(student_csv_path(), response_col="G3", group_col="sex")
        assert ds.n_covariates == 0
        assert ds.n_rows == 649


class TestLoadColumn:
    def test_reads_single_column(self, tmp_path):
        values, dropped = load_column(write(tmp_path, BASIC), "score")
        np.testing.assert_allclose(values, [10, 11.5, 9, 12, 0.5])
        assert dropped == 0

    def test_missing_column(self, tmp_path):
        with pytest.raises(MissingColumnError):
            load_column(write(tmp_path, BASIC), "zzz")


def reference_read(path, numeric_cols, group_col, delimiter=";"):
    """Row-by-row reader: every selected cell through _parse_number."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader)
        idx = [header.index(name) for name in numeric_cols]
        g = None if group_col is None else header.index(group_col)
        width = max(idx + ([] if g is None else [g])) + 1
        values, labels, dropped = [], [], 0
        for row in reader:
            vals = [_parse_number(row[j]) for j in idx] if len(row) >= width else [None]
            if None in vals or (g is not None and row[g] == ""):
                dropped += 1
                continue
            values.append(vals)
            if g is not None:
                labels.append(row[g])
    return np.array(values, dtype=float).reshape(-1, len(idx)), labels, dropped


def write_rows(path, header, rows, quote_all=False):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=";", lineterminator="\n",
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(header)
        writer.writerows(rows)
    return path


ADVERSARIAL = ["", " ", ".", "+-1", "1.2.3", "1e5", "nan", "1_0", "\u0661\u0662",
               "\x1f7", "\x0b8\x0c", "1|2", "+.5", "1E+2", "1e999", "-1e999",
               "1" + "0" * 400, "e5", "1e"]


@st.composite
def tables(draw):
    """A mostly clean table of (g, x0, ..) rows with adversarial cells, empty
    labels and short rows injected at drawn positions."""
    n = draw(st.integers(0, 300))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [
        ["A" if rng.uniform() < 0.5 else "B",
         *(f"{v:.{d}f}" for v, d in zip(rng.normal(0, 50, k), rng.integers(0, 4, k)))]
        for _ in range(n)
    ]
    if n:
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, k),
                          st.sampled_from(ADVERSARIAL))
        for r, c, cell in draw(st.lists(cells, max_size=12)):
            rows[r][c] = cell
        for r, keep in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                               st.integers(0, k)), max_size=3)):
            del rows[r][keep:]
    header = ["g", *(f"x{j}" for j in range(k))]
    return header, rows, draw(st.booleans()), draw(st.booleans())


class TestBlockReader:
    """The block reader must agree cell for cell with the per-cell path."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(table=tables())
    def test_matches_per_cell_reference(self, tmp_path_factory, table):
        header, rows, quote_all, grouped = table
        path = write_rows(tmp_path_factory.mktemp("t") / "t.csv", header, rows,
                          quote_all)
        numeric = header[1:][::-1]  # selection order differs from file order
        group = "g" if grouped else None
        values, labels, dropped = _read(path, numeric, group, ";")
        want_values, want_labels, want_dropped = reference_read(path, numeric, group)
        np.testing.assert_array_equal(values, want_values)
        assert labels == want_labels
        assert dropped == want_dropped
        assert len(values) + dropped == len(rows)
        # every run the reader passes on holds a row, and only finite values
        runs, run_labels = [], []

        def take(vals, row_labels):
            assert len(vals) > 0 and np.isfinite(vals).all()
            runs.append(vals)
            run_labels.extend(row_labels)

        dropped = dataio.scan_csv(path, numeric, group, ";", take)
        joined = np.concatenate(runs) if runs else np.empty(0)
        np.testing.assert_array_equal(joined.reshape(-1, len(numeric)), want_values)
        assert run_labels == want_labels
        assert dropped == want_dropped

    @pytest.mark.parametrize("bad", ["", "NA", " ", "1e999", "1|2", "+-1"])
    @pytest.mark.parametrize("column", ["y", "x"])
    def test_bad_rows_at_block_boundaries(self, tmp_path, bad, column):
        bad_at = {63, 64, 65, 128}
        rows = [["A" if i % 2 else "B", f"{i}.5", str(-i)] for i in range(200)]
        for i in bad_at:
            rows[i][1 if column == "y" else 2] = bad
        path = write_rows(tmp_path / "b.csv", ["g", "y", "x"], rows)
        kept = [i for i in range(200) if i not in bad_at]
        ds = load_csv(path, response_col="y", group_col="g", covariate_cols=["x"])
        np.testing.assert_array_equal(ds.response, [i + 0.5 for i in kept])
        np.testing.assert_array_equal(ds.covariates[0][1], [-i for i in kept])
        assert ds.group_labels == tuple(rows[i][0] for i in kept)
        assert ds.dropped_rows == 4
        values, dropped = load_column(path, column)
        assert len(values) == 196 and dropped == 4

    @pytest.mark.parametrize("cell, value", [
        ("\x1f7", 7.0), ("\u0661\u0662", 12.0), ("\x0b8\x0c", 8.0)])
    def test_cells_only_the_exact_path_accepts(self, tmp_path, cell, value):
        # str.strip() removes \x1f and float() reads Arabic-Indic digits, so
        # these rows are kept although the block check rejects them
        rows = [["A" if i % 2 else "B", str(i)] for i in range(200)]
        for i in (63, 64, 65, 128):
            rows[i][1] = cell
        path = write_rows(tmp_path / "s.csv", ["g", "y"], rows)
        want = [value if i in (63, 64, 65, 128) else i for i in range(200)]
        ds = load_csv(path, response_col="y", group_col="g")
        np.testing.assert_array_equal(ds.response, want)
        values, dropped = load_column(path, "y")
        np.testing.assert_array_equal(values, want)
        assert ds.dropped_rows == dropped == 0

    @pytest.mark.parametrize("bad", ["1e5", "", "1_0"])
    @pytest.mark.parametrize("k, same_row", [(1, False), (3, False), (3, True)])
    @pytest.mark.parametrize("at", [63, 64, 65])
    def test_pipe_cell_before_a_bad_cell(self, tmp_path, bad, k, same_row, at):
        # a cell holding the "|" that joins cells must not shift the index
        # the scan derives from counting them; one "|" too many moves a bad
        # last cell into the next row. "1e5" parses, so its row is kept.
        rows = [["A" if i % 2 else "B", *(f"{i}.{j}" for j in range(k))]
                for i in range(200)]
        rows[at][1] = "1|2"
        rows[at if same_row else at + 1][k] = bad
        path = write_rows(tmp_path / "p.csv", ["g", *(f"x{j}" for j in range(k))], rows)
        numeric = [f"x{j}" for j in range(k)]
        for group in ("g", None):
            values, labels, dropped = _read(path, numeric, group, ";")
            want_values, want_labels, want_dropped = reference_read(path, numeric, group)
            np.testing.assert_array_equal(values, want_values)
            assert labels == want_labels
            assert dropped == want_dropped == (
                1 if same_row or _parse_number(bad) is not None else 2)

    def test_one_exact_parse_per_cell_of_a_bad_row(self, tmp_path, monkeypatch):
        bad_at = [3, 63, 64, 65, 127, 128, 300, 301, 302]
        rows = [["A" if i % 2 else "B", str(i), f"{i}.5"] for i in range(400)]
        for n, i in enumerate(bad_at):
            rows[i][1 + n % 2] = ["NA", "", "1_0"][n % 3]
        path = write_rows(tmp_path / "n.csv", ["g", "y", "x"], rows)
        calls = []
        monkeypatch.setattr(dataio, "_parse_number",
                            lambda cell: calls.append(cell) or _parse_number(cell))
        values, labels, dropped = _read(path, ["y", "x"], "g", ";")
        assert dropped == len(bad_at) and len(values) == 400 - len(bad_at)
        assert sorted(calls) == sorted(c for i in bad_at for c in rows[i][1:])

    def test_float_rejected_cells_are_converted_at_most_twice(self, tmp_path,
                                                              monkeypatch):
        # " " passes the block check and float() alone rejects it; a scan that
        # restarted the rest of a run after each such row would convert the
        # block about 32 times over
        n = 1000
        rows = [["A" if i % 2 else "B", str(i), " " if i % 3 else f" {i} "]
                for i in range(n)]
        for i in range(0, n, 3):
            rows[i][1] = " "
        path = write_rows(tmp_path / "s.csv", ["g", "y", "x"], rows)
        counts = []
        fromiter = np.fromiter

        def counting_fromiter(iterable, dtype, count=-1):
            counts.append(count)
            return fromiter(iterable, dtype, count)

        monkeypatch.setattr(np, "fromiter", counting_fromiter)
        values, labels, dropped = _read(path, ["y", "x"], "g", ";")
        assert (len(values), dropped) == (0, n)
        assert 0 < sum(counts) <= 2 * 2 * n

    @pytest.mark.parametrize("numeric, group", [(["y"], None), (["y", "x"], "g")])
    def test_one_take_per_block(self, tmp_path, numeric, group):
        # rejected rows are deleted from their block before it is converted,
        # and short rows never enter it, so neither splits it: 200 rows make
        # 4 blocks and 4 calls
        rows = [["A" if i % 2 else "B", f"{i}.5", str(-i)] for i in range(200)]
        for n, i in enumerate([3, 63, 64, 65, 128]):
            rows[i][1 + n % len(numeric)] = ["", "NA", "1e999"][n % 3]
        rows[10], rows[100] = [], rows[100][:1]  # a blank line and a short row
        path = write_rows(tmp_path / "b.csv", ["g", "y", "x"], rows)
        calls, run_labels = [], []

        def take(vals, row_labels):
            calls.append(vals)
            run_labels.extend(row_labels)

        dropped = dataio.scan_csv(path, numeric, group, ";", take)
        want_values, want_labels, want_dropped = reference_read(path, numeric, group)
        assert len(calls) == 4 and dropped == want_dropped == 7
        np.testing.assert_array_equal(
            np.concatenate(calls).reshape(-1, len(numeric)), want_values)
        assert run_labels == want_labels

    @pytest.mark.parametrize("short_at, empty_at", [
        pytest.param([64], [], id="first-of-block"),
        pytest.param([127], [], id="last-of-block"),
        pytest.param(list(range(128, 192)), [], id="whole-block"),
        pytest.param([11, 64], [10, 63], id="after-empty-label"),
    ])
    @pytest.mark.parametrize("numeric, group", [(["x2"], None), (["x2", "x0", "x1"], "g")])
    def test_short_rows_anywhere_in_a_block(self, tmp_path, short_at, empty_at,
                                            numeric, group):
        # a short row raises IndexError as its cells are picked, after the
        # rows before it in its block are kept; the pick resumes with the
        # row after it. Rows are cut to 0 (a blank line) to 3 cells.
        rows = [["A" if i % 2 else "B", f"{i}.5", str(-i), f"{i}e-2"] for i in range(200)]
        for i in empty_at:
            rows[i][0] = ""
        for n, i in enumerate(short_at):
            del rows[i][n % 4:]
        path = write_rows(tmp_path / "s.csv", ["g", "x0", "x1", "x2"], rows)
        calls, run_labels = [], []

        def take(vals, row_labels):
            calls.append(vals)
            run_labels.extend(row_labels)

        dropped = dataio.scan_csv(path, numeric, group, ";", take)
        want_values, want_labels, want_dropped = reference_read(path, numeric, group)
        np.testing.assert_array_equal(
            np.concatenate(calls).reshape(-1, len(numeric)), want_values)
        assert run_labels == want_labels
        assert dropped == want_dropped == len(short_at) + len(empty_at) * (group is not None)
        assert len(calls) == (3 if len(short_at) == 64 else 4)

    def test_take_holds_no_cell_strings(self, tmp_path):
        # a block's cells and their joined text are released before take is
        # called, so 300-character cells raise the memory traced inside take
        # by under a quarter of one block of them over 3-character cells; the
        # block and its joined text would add about 1.7 blocks
        long_cell = "1." + "0" * 298
        inside = []
        for cell in ("1.0", long_cell):
            path = write_rows(tmp_path / f"c{len(cell)}.csv", list("abcd"),
                              [[cell] * 4] * 1000)
            traced = []

            def take(vals, labels):
                traced.append(tracemalloc.get_traced_memory()[0])

            dataio.scan_csv(path, list("abcd"), None, ";", lambda *_: None)  # warm-up
            tracemalloc.start()
            try:
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                dataio.scan_csv(path, list("abcd"), None, ";", take)
            finally:
                tracemalloc.stop()
            inside.append(max(traced) - before)
        block = dataio._BLOCK_ROWS * 4 * sys.getsizeof(long_cell)
        assert inside[1] - inside[0] < block / 4, (inside, block)

    def test_empty_labels_at_block_boundaries(self, tmp_path):
        rows = [["A" if i % 2 else "B", str(i)] for i in range(200)]
        for i in (63, 64, 65, 128):
            rows[i][0] = ""
        ds = load_csv(write_rows(tmp_path / "e.csv", ["g", "y"], rows),
                      response_col="y", group_col="g")
        assert ds.dropped_rows == 4 and ds.n_rows == 196
        assert "" not in ds.group_labels

    def test_short_rows_quoted_cells_and_empty_label(self, tmp_path):
        text = (
            "g;y;x\n"
            "A;1;2\n"
            'B;"3.5";" 4 "\n'
            "A;5\n"            # short row
            ";6;7\n"           # empty group label
            "\n"               # blank line
            "B;7;8\n"
            '"A";"9";10\n'
            "B;11;12\n"
        )
        path = write(tmp_path, text)
        ds = load_csv(path, response_col="y", group_col="g", covariate_cols=["x"])
        np.testing.assert_array_equal(ds.response, [1, 3.5, 7, 9, 11])
        np.testing.assert_array_equal(ds.covariates[0][1], [2, 4, 8, 10, 12])
        assert ds.group_labels == ("A", "B", "B", "A", "B")
        assert ds.dropped_rows == 3
        values, dropped = load_column(path, "x")
        np.testing.assert_array_equal(values, [2, 4, 7, 8, 10, 12])
        assert dropped == 2

    def test_quoted_numeric_cells_in_full_blocks(self, tmp_path):
        rows = [["A" if i % 2 else "B", f" {i}.25 ", f"+{i}"] for i in range(150)]
        path = write_rows(tmp_path / "q.csv", ["g", "y", "x"], rows, quote_all=True)
        ds = load_csv(path, response_col="y", group_col="g", covariate_cols=["x"])
        np.testing.assert_array_equal(ds.response, np.arange(150) + 0.25)
        np.testing.assert_array_equal(ds.covariates[0][1], np.arange(150))
        assert ds.dropped_rows == 0

    def test_columns_are_contiguous(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), response_col="score",
                      group_col="grp", covariate_cols=["age", "id"])
        for col in (ds.response, *(c for _, c in ds.covariates)):
            assert col.flags.c_contiguous and col.dtype == np.float64

    def test_load_column_memory_stays_below_a_float_list(self, tmp_path):
        # a Python list of 100k floats alone takes ~3.2 MB
        path = tmp_path / "tall.csv"
        rng = np.random.default_rng(7)
        grades = rng.integers(0, 21, 100_000).astype(str).astype(object)
        grades[rng.choice(100_000, 1000, replace=False)] = "NA"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("school;sex;age;G3\n")
            fh.writelines(f'"GP";"F";17;{g}\n' for g in grades)
        (values, dropped), peak, _ = traced_peak(lambda: load_column(path, "G3"))
        assert (len(values), dropped) == (99_000, 1000)
        assert peak < 3_000_000

    def test_scan_holds_one_block_of_strings(self, tmp_path):
        # a block's cells and labels are released before the next block is
        # read, so 2000-character labels raise the scan's peak by about one
        # 64-row block of them (130 KB) over one-character labels, which
        # Python caches; two blocks alive at once would add 260 KB
        peaks = []
        for width in (1, 2000):
            path = write_rows(tmp_path / f"labels{width}.csv", ["g", "y"],
                              [["ab"[i % 2] * width, str(i % 10)] for i in range(1000)])
            _, peak, _ = traced_peak(
                lambda: dataio.scan_csv(path, ["y"], "g", ";", lambda values, labels: None))
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 195e3, [f"{p / 1e3:.1f} KB" for p in peaks]


class TestHeaders:
    def test_utf8_bom_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASIC.encode("utf-8"))
        ds = load_csv(path, response_col="score", group_col="grp",
                      covariate_cols=["id"])
        np.testing.assert_array_equal(ds.covariates[0][1], [1, 2, 3, 4, 5])
        values, _ = load_column(path, "id")
        np.testing.assert_array_equal(values, [1, 2, 3, 4, 5])

    def test_selected_duplicate_raises(self, tmp_path):
        path = write(tmp_path, "g;y;y\nA;1;10\nB;2;20\nA;3;30\nB;4;40\n")
        with pytest.raises(DuplicateColumnError) as err:
            load_csv(path, response_col="y", group_col="g")
        assert (err.value.name, err.value.count) == ("y", 2)
        with pytest.raises(DuplicateColumnError):
            load_column(path, "y")

    def test_duplicate_group_or_covariate_raises(self, tmp_path):
        path = write(tmp_path, "g;y;x;g;x\nA;1;2;A;2\n")
        with pytest.raises(DuplicateColumnError) as err:
            load_csv(path, response_col="y", group_col="g")
        assert err.value.name == "g"
        path = write(tmp_path, "g;y;x;x\nA;1;2;2\n")
        with pytest.raises(DuplicateColumnError) as err:
            load_csv(path, response_col="y", group_col="g", covariate_cols=["x"])
        assert err.value.name == "x"

    def test_unselected_duplicate_allowed(self, tmp_path):
        path = write(tmp_path, "g;note;y;note\nA;a;1;b\nB;c;2;d\nA;e;3;f\nB;g;4;h\n")
        ds = load_csv(path, response_col="y", group_col="g")
        np.testing.assert_array_equal(ds.response, [1, 2, 3, 4])
        values, _ = load_column(path, "y")
        np.testing.assert_array_equal(values, [1, 2, 3, 4])

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyAfterFilteringError):
            load_column(write(tmp_path, ""), "y")
        with pytest.raises(EmptyAfterFilteringError):
            load_csv(write(tmp_path, "\ufeff"), response_col="y", group_col="g")


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(response=np.arange(4.0), group_labels=("a", "b", "a"))

    def test_not_binary(self):
        with pytest.raises(NotBinaryGroupError):
            Dataset(response=np.arange(4.0), group_labels=("a", "a", "a", "a"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["response", "x1", "x2"])
    def test_non_finite_column_raises_at_construction(self, column, bad):
        cols = {name: np.arange(6.0) ** (j + 1) for j, name in enumerate(["response", "x1", "x2"])}
        cols[column][4] = bad
        with pytest.raises(ValueError, match=f"^{column} contains NaN or Inf"):
            Dataset(response=cols["response"], group_labels=("a", "b") * 3,
                    covariates=(("x1", cols["x1"]), ("x2", cols["x2"])))

    @pytest.mark.parametrize("form", ["list", "int", "column"])
    def test_columns_are_stored_as_float_vectors(self, form):
        rng = np.random.default_rng(124)
        y, x = rng.integers(-50, 50, size=(2, 30))
        labels = tuple(rng.choice(["a", "b"], size=30).tolist())
        convert = {"list": lambda v: v.tolist(), "int": lambda v: v,
                   "column": lambda v: v.astype(float).reshape(-1, 1)}[form]
        got = Dataset(response=convert(y), group_labels=labels, covariates=(("x", convert(x)),))
        want = Dataset(response=y.astype(float), group_labels=labels,
                       covariates=(("x", x.astype(float)),))
        for col in (got.response, got.covariates[0][1]):
            assert col.dtype == np.float64 and col.ndim == 1
        for fit in (lambda ds: fit_fwl(build_design(ds)), fit_monolithic):
            a, b = fit(got), fit(want)
            assert [np.asarray(v).tobytes() for v in astuple(a)] == \
                [np.asarray(v).tobytes() for v in astuple(b)]
        assert effect_report(build_design(got), fit_fwl(build_design(got))) == \
            effect_report(build_design(want), fit_fwl(build_design(want)))

    def test_replace_codes_the_groups_anew(self):
        ds = Dataset(response=np.arange(4.0), group_labels=("b", "a", "a", "b"))
        assert ds.levels == ("a", "b")
        np.testing.assert_array_equal(ds.in_second, [True, False, False, True])
        swapped = replace(ds, group_labels=("b", "c", "c", "b"))
        assert swapped.levels == ("b", "c")
        np.testing.assert_array_equal(swapped.in_second, [False, True, True, False])


class TestHistogram:
    def test_hand_countable(self):
        assert histogram([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == [2, 1]

    def test_last_bin_closed(self):
        assert histogram([3.0], [1.0, 2.0, 3.0]) == [0, 1]

    def test_empty_input(self):
        assert histogram([], [0.0, 1.0, 2.0]) == [0, 0]

    def test_out_of_range_values_ignored(self):
        counts = histogram([-5.0, 0.5, 99.0], [0.0, 1.0])
        assert counts == [1]

    def test_unsorted_edges(self):
        with pytest.raises(UnsortedEdgesError):
            histogram([1.0], [0.0, 2.0, 1.0])
        with pytest.raises(UnsortedEdgesError):
            histogram([1.0], [0.0])

    def test_student_grades_unit_bins(self):
        values, _ = load_column(student_csv_path(), "G3")
        counts = histogram(values, list(range(0, 22)))
        assert len(counts) == 21
        assert sum(counts) == 649

    def test_streamed_unit_bins_rebase_as_the_range_grows(self, tmp_path):
        # each stage of values the counter takes reaches past the range of
        # the ones before it, below and above in turn, so every flush after
        # the first moves the counts into a wider array
        stage = dataio._HIST_STAGE
        rng = np.random.default_rng(5)
        spans = [(0, 5), (-10, 3), (2, 30), (-40.5, 50.25)]
        cells = [f"{v:.2f}" for lo, hi in spans for v in rng.uniform(lo, hi, stage)]
        path = write(tmp_path, "y\n" + "\n".join(cells) + "\n")
        values, dropped = load_column(path, "y")
        edges = [float(e) for e in range(-41, 52)]
        assert (edges[0], edges[-1]) == (np.floor(values.min()), np.floor(values.max()) + 1)
        assert dataio.stream_histogram(path, "y") == (
            edges, histogram(values, edges), len(values), dropped)
