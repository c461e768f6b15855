"""Ingestion of delimited text files into analysis-ready datasets.

Files are parsed with RFC-4180 quoting rules and a configurable delimiter
(default ';', which is what semicolon-delimited survey exports such as the
UCI student files use). The caller declares which columns are the response,
the binary group factor and the numeric covariates; nothing is inferred.
Numeric cells are decimal literals with an optional exponent ("2.5E-3").
Rows with a missing, non-numeric or overflowing ("1e999") cell in any
selected column are dropped and counted.

One reader, :func:`scan_csv`, serves both loaders here and
``regression.stream_design``, which builds a design as the file is read
without holding its rows. It takes the rows in blocks of 64 and drops rows
too short to reach a selected column or with an empty group label. It then
checks the block's selected cells at once on their "|"-joined text and
converts them with one np.fromiter. Where the check fails, one scan of that
text finds each row it rejects: the rows before it are converted at once,
that row alone goes through the per-cell regex, and the scan goes on from
the next row. Each run of kept rows goes to the caller as it is converted.
The loaders keep the runs and, at the end, drop the rows holding a cell
that overflowed to inf; the stream drops them as it stages them. The result
is the same as parsing cell by cell. A leading UTF-8 BOM is skipped. A
selected column name that occurs more than once in the header is an error,
and so is a column selected twice.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from itertools import chain, compress, islice
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

__all__ = ["Dataset", "load_csv", "load_column", "histogram", "scan_csv"]

# integer and decimal literals with an optional decimal exponent; anything
# else (and a value that overflows to inf) drops the row
_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
# Over this alphabet float() accepts a cell exactly when _NUMERIC_RE accepts
# its strip(): no inf/nan or "_", and none of the U+001C-U+001F separators that
# str.strip() removes but float() rejects. "|" joins cells.
_BLOCK_RE = re.compile(r"[0-9eE+\-. \t\n\r\x0b\x0c|]+")
_BLOCK_ROWS = 64


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
    ``path`` and pass each run of kept rows, in file order, to
    ``take(values, labels)``. ``values`` is a flat float64 array, the
    ``numeric_cols`` cells of each row in turn; ``labels`` iterates over the
    rows' ``group_col`` cells (it is empty when ``group_col`` is None).
    Returns the number of rows dropped. A cell that overflows ("1e999")
    passes as inf; dropping its row is the caller's. Bytes that are not
    UTF-8 and rows the csv module rejects (such as a field over
    ``csv.field_size_limit()``) raise DataError.

    Rows are read in blocks of ``_BLOCK_ROWS``, so a run holds at most that
    many rows. Each block's cells are joined once and scanned from left to
    right for the first cell outside the ``_BLOCK_RE`` alphabet or empty;
    the rows before it are converted with one np.fromiter, its row alone
    goes through ``_parse_number``, and the scan resumes at the next row. A
    run that passes the scan but holds a cell float() rejects (" ", "+-1")
    is converted cell by cell once, dropping the rows with such a cell. So
    each cell is scanned once and converted at most twice, and a row the
    scan stops at costs one ``_parse_number`` call per cell.
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
            label = None if group_col is None else itemgetter(header.index(group_col))
            width = max(map(header.index, selected)) + 1
            k = len(idx)
            pick = itemgetter(*idx)  # a bare cell when k == 1, else a tuple

            def cells_of(rows):
                picked = map(pick, rows)  # IndexError: a row too short
                return list(picked if k == 1 else chain.from_iterable(picked))

            def complete(row):
                return len(row) >= width and (label is None or label(row) != "")

            def exact(cells):
                vals = list(map(_parse_number, cells))
                return None if None in vals else np.array(vals)

            def labels_of(rows):
                return [] if label is None else list(map(label, rows))

            dropped = 0
            for rows in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
                try:
                    cells, labels = cells_of(rows), labels_of(rows)
                    all_complete = all(labels)
                except IndexError:
                    all_complete = False
                if not all_complete:  # drop short rows and empty labels first
                    read, rows = len(rows), list(filter(complete, rows))
                    dropped += read - len(rows)
                    cells, labels = cells_of(rows), labels_of(rows)
                n = len(rows)
                del rows  # the selected cells are all that is read from here on
                if not n:
                    continue
                # "|" before each cell and after the last, so an empty cell is
                # a "||"; a cell holding "|" is masked to keep the count exact
                text = "|".join(cells)
                if text.count("|") != len(cells) - 1:
                    text = "|".join([c.replace("|", "\0") for c in cells])
                text = f"|{text}|"
                r = off = 0  # text[off] is the "|" before the first cell of row r
                while r < n:
                    # the first empty cell, else the first character outside
                    # the alphabet; s is its row, or n if there is none
                    end = _BLOCK_RE.match(text, off).end()
                    stop = text.find("||", off, end) + 1 or end
                    s = (n if stop == len(text)
                         else r + (text.count("|", off, stop) - 1) // k)
                    if s > r:
                        run = cells[r * k:s * k]
                        try:
                            take(np.fromiter(map(float, run), float, len(run)), labels[r:s])
                        except ValueError:  # " ", "+-1", "1.2.3": float() alone rejects
                            vals = np.fromiter(map(_float_or_nan, run), float,
                                               len(run)).reshape(-1, k)
                            ok = ~np.isnan(vals).any(axis=1)
                            dropped += len(ok) - int(ok.sum())
                            take(vals[ok].reshape(-1), compress(labels[r:s], ok))
                    if s < n:
                        vals = exact(cells[s * k:(s + 1) * k])
                        if vals is None:
                            dropped += 1
                        else:
                            take(vals, labels[s:s + 1])
                        off += sum(map(len, cells[r * k:(s + 1) * k])) + (s + 1 - r) * k
                    r = s + 1
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
    ``group_col`` cells (empty when ``group_col`` is None). The runs
    :func:`scan_csv` passes on are joined at the end, and one np.isfinite
    over them drops the rows holding a cell that overflowed to inf.
    """
    blocks, labels = [], []

    def take(vals, row_labels):
        blocks.append(vals)
        labels.extend(row_labels)

    dropped = scan_csv(path, numeric_cols, group_col, delimiter, take)
    k = len(numeric_cols)
    values = np.concatenate(blocks).reshape(-1, k) if blocks else np.empty((0, k))
    blocks.clear()  # so the finiteness check's temporary does not raise the peak
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=1)
        dropped += len(finite) - int(finite.sum())
        values = values[finite]
        labels = list(compress(labels, finite))
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
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise UnsortedEdgesError(
            "bin edges must be a strictly increasing sequence of length >= 2"
        )
    vals = np.asarray(values, dtype=float)
    counts, _ = np.histogram(vals, bins=edges)
    return [int(c) for c in counts]
