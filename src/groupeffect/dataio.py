"""Ingestion of delimited text files into analysis-ready datasets.

Files are parsed with RFC-4180 quoting rules and a configurable delimiter
(default ';', which is what semicolon-delimited survey exports such as the
UCI student files use). The caller declares which columns are the response,
the binary group factor and the numeric covariates; nothing is inferred.
Numeric cells are decimal literals with an optional exponent ("2.5E-3").
Rows with a missing, non-numeric or overflowing ("1e999") cell in any
selected column are dropped and counted.

One reader, :func:`scan_csv`, serves both loaders here,
:func:`stream_histogram`, which counts a column's bins as the file is read
without holding the column, and ``regression.stream_design``, which builds
a design the same way. It reads the rows in blocks of 64 and picks each
row's selected cells as the row is read, so a block never holds an
unselected cell and its memory does not grow with the file's width. It
drops rows too short to reach a selected column or with an empty group
label. It then checks the block's selected cells at once on their
"|"-joined text. Where
the check fails, one scan of that text finds each row it stops at, and
that row alone goes through the per-cell regex: a rejected row leaves the
block, an accepted one stays as floats. The rest of the block is converted
with one np.fromiter, and one finiteness check drops the rows holding a
cell that overflowed to inf. The block's cell strings and their text are
released first, and then the block's kept rows go to the caller in one
call, so no caller checks finiteness or drops a row, and no block of
strings is alive while the caller works. The result is the same as
parsing cell by cell. A leading UTF-8 BOM is skipped. A selected column
name that occurs more than once in the header is an error, and so is a
column selected twice.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import itemgetter

import numpy as np

from .errors import (
    DataError,
    DuplicateColumnError,
    EmptyAfterFilteringError,
    MissingColumnError,
    NotBinaryGroupError,
    UnsortedEdgesError,
)
from .linalg import as_vector

__all__ = ["Dataset", "load_csv", "load_column", "histogram", "scan_csv",
           "stream_histogram"]

# integer and decimal literals with an optional decimal exponent; anything
# else (and a value that overflows to inf) drops the row
_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
# Over this alphabet float() accepts a cell exactly when _NUMERIC_RE accepts
# its strip(): no inf/nan or "_", and none of the U+001C-U+001F separators that
# str.strip() removes but float() rejects. "|" joins cells.
_BLOCK_RE = re.compile(r"[0-9eE+\-. \t\n\r\x0b\x0c|]+")
_BLOCK_ROWS = 64

_UNSORTED_EDGES = "bin edges must be a strictly increasing sequence of length >= 2"
# Default hist edges are unit bins over [floor(min), floor(max) + 1]; past
# this many bins the caller must pass edges.
MAX_DEFAULT_BINS = 10_000
# Integers up to this magnitude are exact floats; past it unit edges collide.
_EXACT_INT = 2 ** 53
# Values staged between two counting passes of stream_histogram: each pass
# costs a fixed ~10 numpy calls, and the stage's size adds to the peak. A
# flush holds the staged runs and their concatenation at once, 2 x 8 KB at
# this size; the reader holds no whole rows, so this sets hist's peak.
_HIST_STAGE = 1024


@dataclass(frozen=True)
class Dataset:
    """Parsed tabular data for a two-group comparison.

    ``covariates`` is an ordered tuple of (name, values) pairs; it may be
    empty, in which case the analysis reduces to the classic two-sample
    setting.

    Construction checks the columns once, so the analysis need not:
    ``response`` and each covariate are stored as 1-D float64 arrays (a
    list, an integer array or an (n, 1) column is converted), and a NaN or
    Inf in any of them raises ValueError naming the column. It also codes
    the groups once: ``levels`` holds the two labels in ascending order
    and ``in_second``, a read-only boolean array, is True for each row
    labelled ``levels[1]``. These two are derived, not arguments;
    ``dataclasses.replace`` derives them anew.
    """

    response: np.ndarray
    group_labels: tuple[str, ...]
    covariates: tuple[tuple[str, np.ndarray], ...] = ()
    dropped_rows: int = 0
    source: str = "<memory>"
    levels: tuple[str, str] = field(init=False, compare=False, repr=False)
    in_second: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.response)
        if len(self.group_labels) != n or any(
            len(col) != n for _, col in self.covariates
        ):
            raise ValueError("response, group and covariate columns differ in length")
        require_rows(n, self.source)
        labels = sorted(set(self.group_labels))
        if len(labels) != 2:
            raise NotBinaryGroupError(labels)
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "response", as_vector(self.response, "response"))
        set_field(self, "covariates",
                  tuple((name, as_vector(col, name)) for name, col in self.covariates))
        set_field(self, "levels", tuple(labels))
        # bytes() packs the 0/1 codes in C, at about half np.fromiter's cost
        codes = bytes(map({labels[0]: 0, labels[1]: 1}.__getitem__, self.group_labels))
        set_field(self, "in_second", np.frombuffer(codes, bool))

    @property
    def n_rows(self) -> int:
        return len(self.response)

    @property
    def n_covariates(self) -> int:
        return len(self.covariates)


def require_rows(n: int, source, dropped: int | None = None) -> None:
    """Raise EmptyAfterFilteringError unless ``source`` has 4 usable rows;
    for a file that kept none, the message counts the ``dropped`` rows."""
    if n == 0 and dropped is not None:
        raise EmptyAfterFilteringError(
            f"no usable rows in {source} after dropping {dropped} incomplete row(s)"
        )
    if n < 4:
        raise EmptyAfterFilteringError(f"only {n} usable row(s) in {source}; need at least 4")


def _parse_number(cell: str) -> float | None:
    cell = cell.strip()
    if not _NUMERIC_RE.match(cell):
        return None
    value = float(cell)
    return value if math.isfinite(value) else None  # "1e999"


def _float_or_nan(cell: str) -> float:
    # no cell over the _BLOCK_RE alphabet reads as nan, so nan marks a reject
    try:
        return float(cell)
    except ValueError:
        return float("nan")


def scan_csv(path, numeric_cols, group_col, delimiter, take) -> int:
    """The block reader behind every loader: parse the selected columns of
    ``path`` and pass the kept rows of each block, in file order, to
    ``take(values, labels)``. ``values`` is a flat float64 array, the
    ``numeric_cols`` cells of each row in turn; ``labels`` iterates over the
    rows' ``group_col`` cells (it is empty when ``group_col`` is None).
    Each call gets at least one row, and every value is finite. Returns
    the number of rows dropped, a row with a cell that overflows ("1e999")
    among them. Bytes that are not UTF-8 and rows the csv module rejects
    (such as a field over ``csv.field_size_limit()``) raise DataError.

    Rows are read in blocks of ``_BLOCK_ROWS``, and ``take`` is called once
    per block that keeps a row. Each row's selected cells, its group label
    last, are picked as ``csv.reader`` yields the row, so a block holds
    only selected cells and the row's other cells die with it. A row too
    short to reach a selected cell raises IndexError in the pick and is
    dropped, and the pick resumes at the next row. The labels are then
    split off, and rows with an empty label dropped. Each block's cells
    are joined once and
    scanned from left to right for the first cell outside the ``_BLOCK_RE``
    alphabet or empty; that cell's row alone goes through
    ``_parse_number``, which deletes it from the block or writes its floats
    back in place, and the scan resumes at the next row. The block is then
    converted with one np.fromiter; if it holds a cell float() rejects
    (" ", "+-1"), it is converted cell by cell once more, such a cell
    reading as NaN. One np.isfinite over the block then drops the rows
    holding a NaN or an inf. So each cell is scanned once and converted at
    most twice, and a row the scan stops at costs one ``_parse_number``
    call per cell. The cell list and the joined text are released before
    ``take`` is called.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DataError(f"delimiter must be one character, got {delimiter!r}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyAfterFilteringError(f"{path} is empty") from None
            selected = list(numeric_cols)
            if group_col is not None:
                selected.insert(1, group_col)  # checked as response, group, covariates
            for name in selected:
                if selected.count(name) > 1:
                    raise DataError(f"column {name!r} is selected more than once")
                count = header.count(name)
                if count == 0:
                    raise MissingColumnError(name)
                if count > 1:
                    raise DuplicateColumnError(name, count)
            idx = [header.index(name) for name in numeric_cols]
            if group_col is not None:
                idx.append(header.index(group_col))
            k = len(numeric_cols)
            pick = itemgetter(*idx)  # a bare cell when len(idx) == 1, else a tuple
            dropped = 0
            while True:
                rows, cells, short = islice(reader, _BLOCK_ROWS), [], 0
                while True:
                    try:
                        if len(idx) == 1:
                            cells.extend(map(pick, rows))
                        else:  # any() only drives the extends, each one row's tuple
                            any(map(cells.extend, map(pick, rows)))
                        break
                    except IndexError:  # a row too short to reach a selected
                        short += 1      # cell; the rows before it are in cells
                if not cells and not short:  # the reader is exhausted
                    break
                dropped += short
                labels = []
                if group_col is not None:
                    labels = cells[k::k + 1]
                    del cells[k::k + 1]
                    if not all(labels):  # an empty group label drops its row
                        for s in reversed(range(len(labels))):
                            if not labels[s]:
                                del cells[s * k:(s + 1) * k], labels[s]
                                dropped += 1
                n = len(cells) // k
                if not n:
                    continue
                # "|" before each cell and after the last, so an empty cell is
                # a "||"; a cell holding "|" is masked to keep the count exact
                text = "|".join(cells)
                if text.count("|") != len(cells) - 1:
                    text = "|".join([c.replace("|", "\0") for c in cells])
                text = f"|{text}|"
                rejected = []
                r = off = 0  # text[off] is the "|" before the first cell of row r
                while r < n:
                    # the first empty cell, else the first character outside
                    # the alphabet; s is its row, or n if there is none
                    end = _BLOCK_RE.match(text, off).end()
                    stop = text.find("||", off, end) + 1 or end
                    s = (n if stop == len(text)
                         else r + (text.count("|", off, stop) - 1) // k)
                    if s < n:
                        off += sum(map(len, cells[r * k:(s + 1) * k])) + (s + 1 - r) * k
                        row = list(map(_parse_number, cells[s * k:(s + 1) * k]))
                        if None in row:
                            rejected.append(s)
                        else:
                            cells[s * k:(s + 1) * k] = row
                    r = s + 1
                del text
                for s in reversed(rejected):
                    del cells[s * k:(s + 1) * k]
                    if group_col is not None:
                        del labels[s]
                dropped += len(rejected)
                if cells:
                    try:
                        vals = np.fromiter(map(float, cells), float, len(cells))
                    except ValueError:  # " ", "+-1", "1.2.3": float() alone rejects
                        vals = np.fromiter(map(_float_or_nan, cells), float, len(cells))
                    del cells  # no string of the block is alive through take
                    if np.isfinite(vals).all():
                        take(vals, labels)
                    else:  # a rejected cell (nan) or an overflowed one ("1e999")
                        vals = vals.reshape(-1, k)
                        ok = np.isfinite(vals).all(axis=1)
                        dropped += len(ok) - int(ok.sum())
                        if ok.any():
                            take(vals[ok].reshape(-1), compress(labels, ok))
                    del vals  # not alive while the next block is read
                del labels  # nor are the labels
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason} "
                        f"(byte 0x{exc.object[exc.start]:02x})") from None
    except csv.Error as exc:
        raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return dropped


def _read(path, numeric_cols, group_col, delimiter):
    """Shared reader behind load_csv and load_column.

    Returns (values, labels, dropped): ``values`` is an (m, k) float64 array
    of the k ``numeric_cols`` for the m kept rows, ``labels`` the kept rows'
    ``group_col`` cells (empty when ``group_col`` is None): the blocks
    :func:`scan_csv` passes on, joined at the end.
    """
    blocks, labels = [], []

    def take(vals, row_labels):
        blocks.append(vals)
        labels.extend(row_labels)

    dropped = scan_csv(path, numeric_cols, group_col, delimiter, take)
    k = len(numeric_cols)
    values = np.concatenate(blocks).reshape(-1, k) if blocks else np.empty((0, k))
    return values, labels, dropped


def load_csv(
    path,
    response_col: str,
    group_col: str,
    covariate_cols=(),
    delimiter: str = ";",
) -> Dataset:
    """Load selected columns of a delimited text file into a Dataset.

    Parameters
    ----------
    path : str or path-like
        File with a header row, UTF-8 encoded (a leading BOM is skipped).
    response_col, group_col : str
        Header names of the numeric response and the binary group factor.
    covariate_cols : sequence of str
        Header names of numeric covariate columns (may be empty).
    delimiter : str
        Field separator, default ';'.

    Rows with an empty or unparseable cell in any selected column are
    dropped; the count is recorded on the returned Dataset. A selected name
    that occurs more than once in the header raises DuplicateColumnError,
    and a name selected twice (as two covariates, or in two of the three
    roles) raises DataError.
    Loading is deterministic: identical bytes produce an identical Dataset.
    """
    covariate_cols = list(covariate_cols)
    values, labels, dropped = _read(
        path, [response_col, *covariate_cols], group_col, delimiter
    )
    require_rows(len(values), path, dropped)
    # contiguous columns: reductions over a strided view may sum in another order
    columns = [np.ascontiguousarray(values[:, j]) for j in range(values.shape[1])]
    return Dataset(
        response=columns[0],
        group_labels=tuple(labels),
        covariates=tuple(zip(covariate_cols, columns[1:])),
        dropped_rows=dropped,
        source=str(path),
    )


def load_column(path, column: str, delimiter: str = ";") -> tuple[np.ndarray, int]:
    """Read one numeric column, dropping unparseable cells.

    Returns (values, dropped_count). Same reader and parsing rules as
    load_csv.
    """
    values, _, dropped = _read(path, [column], None, delimiter)
    if not len(values):
        raise EmptyAfterFilteringError(
            f"no usable values in column {column!r} of {path}"
        )
    return values.reshape(-1), dropped


def histogram(values, bin_edges) -> list[int]:
    """Counts per half-open bin [e_i, e_i+1); the last bin is closed.

    ``bin_edges`` must be strictly increasing with at least two entries.
    The counts sum to the number of in-range values.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if not _increasing(edges):
        raise UnsortedEdgesError(_UNSORTED_EDGES)
    vals = np.asarray(values, dtype=float)
    counts, _ = np.histogram(vals, bins=edges)
    return [int(c) for c in counts]


def _increasing(edges: np.ndarray) -> bool:
    return edges.ndim == 1 and edges.size >= 2 and bool(np.all(np.diff(edges) > 0))


def _unit_bins_problem(lo: float, hi: float) -> str | None:
    """Why unit bins over [floor(lo), floor(hi) + 1] cannot be the default
    edges, or None if they can."""
    first, last = math.floor(lo), math.floor(hi)
    if last - first + 1 > MAX_DEFAULT_BINS:
        return (f"default unit bins over [{first}, {last + 1}] would make "
                f"{last - first + 1} bins (limit {MAX_DEFAULT_BINS}); pass --edges")
    if first < -_EXACT_INT or last + 1 > _EXACT_INT:
        return (f"default unit bins cannot be formed for values as large as "
                f"{max(-lo, hi)!r} in magnitude: past 2**53, consecutive integers "
                f"are not all floats; pass --edges")
    return None


class _BinCounter:
    """The bin counter of :func:`stream_histogram`, fed by the reader.

    :meth:`push` stages each block of values the reader passes; every
    ``_HIST_STAGE`` (1024) values :meth:`flush` concatenates the staged
    blocks and counts them into ``counts``: with
    np.histogram over ``edges`` or, when ``edges`` is None, by floor(v) into
    unit bins from ``base`` on, re-based as the range grows. A value's bin
    depends on no other value, so the counts are those of one np.histogram
    over the whole column, the unit bins' because their integer edges are
    exact floats. Unit bins are counted only while they can be the default
    edges; ``min`` and ``max`` are kept to the end.
    """

    def __init__(self, edges: np.ndarray | None):
        self.edges = edges
        self.counts = np.zeros(0 if edges is None else len(edges) - 1, np.int64)
        self.base = None
        self.runs, self.staged = [], 0
        self.n = 0
        self.min = self.max = None

    def push(self, values: np.ndarray, labels) -> None:
        self.runs.append(values)
        self.staged += len(values)
        if self.staged >= _HIST_STAGE:
            self.flush()

    def flush(self) -> None:
        if not self.runs:
            return
        part = np.concatenate(self.runs)
        self.runs, self.staged = [], 0
        self.n += len(part)
        if self.edges is not None:
            self.counts += np.histogram(part, self.edges)[0]
            return
        lo, hi = float(part.min()), float(part.max())
        self.min = lo if self.min is None else min(self.min, lo)
        self.max = hi if self.max is None else max(self.max, hi)
        if self.counts is None:
            return
        if _unit_bins_problem(self.min, self.max) is not None:
            self.counts = None
            return
        first, last = math.floor(self.min), math.floor(self.max)
        if self.base is None:
            self.base = first
        if first != self.base or last + 1 - first != len(self.counts):  # re-base
            counts = np.zeros(last + 1 - first, np.int64)
            at = self.base - first
            counts[at:at + len(self.counts)] = self.counts
            self.counts, self.base = counts, first
        np.floor(part, out=part)
        part -= first
        self.counts += np.bincount(part.astype(np.intp), minlength=len(self.counts))


def stream_histogram(path, column: str, bin_edges=None, delimiter: str = ";"):
    """:func:`histogram` of :func:`load_column` of the same arguments,
    counted as the file is read without holding the column.

    Returns (edges, counts, rows_used, dropped_rows), ``edges`` and
    ``counts`` as lists. With ``bin_edges`` None the edges are the default
    unit bins over [floor(min), floor(max) + 1]. The errors are those of
    load_column followed by histogram, in the same order: bad ``bin_edges``
    are reported only after the whole file has been read, and nothing is
    counted into them. Default bins that would number over
    ``MAX_DEFAULT_BINS``, or reach 2**53 in magnitude, where unit edges are
    not exact floats, raise DataError last.
    """
    edges = None if bin_edges is None else np.asarray(bin_edges, dtype=float)
    valid = edges is None or _increasing(edges)
    bins = _BinCounter(edges if valid else None)  # bad edges: read on, errors in order
    dropped = scan_csv(path, [column], None, delimiter, bins.push)
    bins.flush()
    if not bins.n:
        raise EmptyAfterFilteringError(f"no usable values in column {column!r} of {path}")
    if not valid:
        raise UnsortedEdgesError(_UNSORTED_EDGES)
    if edges is None:
        problem = _unit_bins_problem(bins.min, bins.max)
        if problem is not None:
            raise DataError(problem)
        edges = range(math.floor(bins.min), math.floor(bins.max) + 2)
    return [float(e) for e in edges], bins.counts.tolist(), bins.n, dropped
