"""Ingestion of delimited text files into analysis-ready datasets.

Files are parsed with RFC-4180 quoting rules and a configurable delimiter
(default ';', which is what semicolon-delimited survey exports such as the
UCI student files use). The caller declares which columns are the response,
the binary group factor and the numeric covariates; nothing is inferred.
Rows with a missing or non-numeric cell in any selected column are dropped
and counted.

Both loaders share one reader. It takes the rows in blocks of 64 and drops
rows too short to reach a selected column or with an empty group label. It
then checks the block's selected cells at once on their "|"-joined text and
converts them with one np.fromiter; a block that fails the check is halved
until single rows, which go through the per-cell regex. The result is the
same as parsing cell by cell. A leading UTF-8 BOM is skipped, and a selected
column name that occurs more than once in the header is an error.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from .errors import (
    DuplicateColumnError,
    EmptyAfterFilteringError,
    MissingColumnError,
    NotBinaryGroupError,
    UnsortedEdgesError,
)

__all__ = ["Dataset", "load_csv", "load_column", "histogram"]

# plain integer and decimal literals only; anything else drops the row
_NUMERIC_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)$")
# Over this alphabet float() accepts a cell exactly when _NUMERIC_RE accepts
# its strip(): no exponent, inf/nan or "_", and none of the \x1c-\x1f
# separators that str.strip() removes but float() rejects. "|" joins cells.
_BLOCK_RE = re.compile(r"[0-9+\-. \t\n\r\x0b\x0c|]+")
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class Dataset:
    """Parsed tabular data for a two-group comparison.

    ``covariates`` is an ordered tuple of (name, values) pairs; it may be
    empty, in which case the analysis reduces to the classic two-sample
    setting.
    """

    response: np.ndarray
    group_labels: tuple[str, ...]
    covariates: tuple[tuple[str, np.ndarray], ...] = ()
    dropped_rows: int = 0
    source: str = "<memory>"

    def __post_init__(self):
        n = len(self.response)
        if len(self.group_labels) != n or any(
            len(col) != n for _, col in self.covariates
        ):
            raise ValueError("response, group and covariate columns differ in length")
        if n < 4:
            raise EmptyAfterFilteringError(
                f"only {n} usable row(s) in {self.source}; need at least 4"
            )
        labels = sorted(set(self.group_labels))
        if len(labels) != 2:
            raise NotBinaryGroupError(labels)

    @property
    def n_rows(self) -> int:
        return len(self.response)

    @property
    def n_covariates(self) -> int:
        return len(self.covariates)


def _parse_number(cell: str) -> float | None:
    cell = cell.strip()
    if not _NUMERIC_RE.match(cell):
        return None
    return float(cell)


def _read(path, numeric_cols, group_col, delimiter):
    """Shared reader behind load_csv and load_column.

    Returns (values, labels, dropped): ``values`` is an (m, k) float64 array
    of the k ``numeric_cols`` for the m kept rows, ``labels`` the kept rows'
    ``group_col`` cells (empty when ``group_col`` is None).
    """
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

        def convert(cells):
            # all of the cells at once, or None if any needs a closer look
            text = "|".join(cells)
            if not (text.isascii() and _BLOCK_RE.fullmatch(text)
                    and text.count("|") == len(cells) - 1 and "||" not in text
                    and text[0] != "|" and text[-1] != "|"):
                return None
            try:
                return np.fromiter(map(float, cells), float, len(cells))
            except ValueError:  # e.g. "+-1", "1.2.3", " "
                return None

        def complete(row):
            return len(row) >= width and (label is None or label(row) != "")

        def exact(cells):
            vals = list(map(_parse_number, cells))
            return None if None in vals else np.array(vals)

        blocks, labels, dropped = [], [], 0
        for rows in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            try:
                cells = cells_of(rows)
                all_complete = label is None or all(map(label, rows))
            except IndexError:
                all_complete = False
            if not all_complete:  # drop short rows and empty labels first
                kept = list(filter(complete, rows))
                dropped += len(rows) - len(kept)
                rows, cells = kept, cells_of(kept)
            # cells that fail are found by halving the block down to single
            # rows, which take the exact per-cell path; the stack keeps order
            stack = [(rows, cells)] if rows else []
            while stack:
                rows, cells = stack.pop()
                vals = convert(cells) if len(rows) > 1 else exact(cells)
                if vals is not None:
                    blocks.append(vals)
                    if label is not None:
                        labels.extend(map(label, rows))
                elif len(rows) > 1:
                    half = len(rows) // 2
                    stack += [(rows[half:], cells[half * k:]),
                              (rows[:half], cells[:half * k])]
                else:
                    dropped += 1

    values = np.concatenate(blocks) if blocks else np.empty(0)
    return values.reshape(-1, k), labels, dropped


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
    that occurs more than once in the header raises DuplicateColumnError.
    Loading is deterministic: identical bytes produce an identical Dataset.
    """
    covariate_cols = list(covariate_cols)
    values, labels, dropped = _read(
        path, [response_col, *covariate_cols], group_col, delimiter
    )
    if not len(values):
        raise EmptyAfterFilteringError(
            f"no usable rows in {path} after dropping {dropped} incomplete row(s)"
        )
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
