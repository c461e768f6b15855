"""Partitioned linear regression for a two-group comparison with covariates.

The model is ``y = X1 d1 + X2 d2 + e`` where X1 holds the intercept and the
group dummy (0 for group 1, 1 for group 2) and X2 holds the covariate
columns. The same fit is available two ways:

* :func:`fit_monolithic` solves the full design of a dataset in one
  least-squares pass;
* :func:`fit_fwl` partials the covariates out first (regress y on the
  group-centered covariates, then read the group block off the group means).

Centering within groups is the annihilator M1 of X1, so the partialled-out
fit needs only, per group, its count, its means of [X2 | y] and the
triangular factor R_j of its centered [X2 | y]. These merge exactly: the
factor of two sets of rows is that of their R_j stacked over their scaled
mean difference (Chan, Golub & LeVeque 1983), so one accumulator,
:class:`_Group`, folds rows in blocks of any size, each fold one in-place
LAPACK dgeqrf. :func:`build_design` folds each group of a Dataset whole;
:func:`stream_design` folds a file's rows a staged block at a time as it
reads them, so its memory does not grow with the file. The design keeps
only these statistics and holds no n-row array. Stacking R_1 on R_2 and
re-triangularizing gives R, the (w+1) x (w+1) factor of the
group-centered [X2 | y]. From R follow the rank check of the design, the covariate
coefficients, sigma^2, gamma and every standard error; from the R_j each
group's summaries on the raw and the adjusted scale. Both R^2 values need
no further factorization: the total sum of squares is the within-group
part, from R, plus the between-group part n1 n2 / n (mean2 - mean1)^2, and
dropping the group dummy adds beta1^2 / gamma to the residual sum of
squares. Cost and memory are linear in n and no n x n matrix is formed.

The two routes agree to floating-point accuracy; the tests compare them,
and compare the factored summaries with their residual forms.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import compress

import numpy as np
from numpy.linalg import lapack_lite

from . import linalg
from .dataio import Dataset, require_rows, scan_csv
from .errors import (
    DegenerateResponseError,
    DimensionMismatchError,
    GroupTooSmallError,
    InsufficientRowsError,
    NonPositiveDfError,
    NotBinaryGroupError,
    RankDeficientDesignError,
    ZeroVarianceError,
)

__all__ = [
    "PartitionedDesign",
    "PartitionedFit",
    "GroupSummary",
    "build_design",
    "stream_design",
    "fit_monolithic",
    "fit_fwl",
    "group_summaries",
    "require_residual",
    "r_squared_pair",
    "coefficient_names",
    "standard_errors",
]

_EPS = sys.float_info.epsilon  # np.finfo(float).eps, without its first-call cost


@dataclass(frozen=True)
class PartitionedDesign:
    """Group statistics of the partitioned model: all that the fit, the
    report and the standard errors read, O(w^2) in size whatever n is.

    Group 1 has ``n1`` rows (dummy 0), group 2 ``n2`` rows (dummy 1).
    :func:`build_design` fills in the rest:

    * ``means``: per group, the means of [X2 | y];
    * ``diff``: group-2 minus group-1 means, taken before the first-row
      shift is added back (see :func:`build_design`);
    * ``factors``: per group, R_j, the upper-triangular factor of the
      group's centered [X2 | y], min(n_j, w+1) x (w+1): R_j' R_j is the
      group's centered cross-product matrix;
    * ``r``: the (w+1) x (w+1) factor of R_1 stacked on R_2. Its leading
      w x w block factors X2' M1 X2, its last column above the diagonal
      carries X2' M1 y, and r[w, w]^2 is the residual sum of squares of the
      full model;
    * ``norms``: the column norms of [X2 | y] less group 1's first row, the
      scale of the rank check.
    """

    n1: int
    n2: int
    group_labels: tuple[str, str]
    covariate_names: tuple[str, ...]
    means: tuple[np.ndarray, np.ndarray]
    diff: np.ndarray
    factors: tuple[np.ndarray, np.ndarray]
    r: np.ndarray
    norms: np.ndarray

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def w(self) -> int:
        return len(self.covariate_names)

    @property
    def df(self) -> int:
        return self.n - 2 - self.w


@dataclass(frozen=True)
class GroupSummary:
    """Per-group mean and centered sum of squares on both scales.

    ``ss_*`` are sums of squared deviations from the group mean, not divided
    by any degrees of freedom.
    """

    n_rows: int
    mean_raw: float
    ss_raw: float
    mean_adj: float
    ss_adj: float


@dataclass(frozen=True)
class PartitionedFit:
    """All estimates from fitting the partitioned model."""

    delta1_hat: np.ndarray  # (intercept, group coefficient)
    delta2_hat: np.ndarray  # covariate coefficients, length w
    sigma2_hat: float
    gamma: float  # scaled variance of the group coefficient
    se_beta1: float
    r_squared: float
    r0_squared: float  # reduced model without the group dummy
    df: int

    @property
    def beta0(self) -> float:
        return float(self.delta1_hat[0])

    @property
    def beta1(self) -> float:
        return float(self.delta1_hat[1])


def coefficient_names(design: PartitionedDesign) -> list[str]:
    """Column names of the full design, in fitting order."""
    return [
        "(intercept)",
        f"group[{design.group_labels[1]}]",
        *design.covariate_names,
    ]


def build_design(ds: Dataset, reference_level: str | None = None) -> PartitionedDesign:
    """Sort a dataset into the partitioned design.

    Group labels map to groups by ascending lexicographic order unless
    ``reference_level`` forces one label to be group 1. The mapping and the
    columns come checked from the dataset (see :class:`Dataset`), so no
    label is read here.

    Raises GroupTooSmallError if either group has fewer than 2 rows or
    ``reference_level`` is not one of the two labels,
    InsufficientRowsError if n <= 2 + w, and RankDeficientDesignError
    (naming the covariate) if the combined design is collinear. Centering
    within groups annihilates the intercept and the dummy, so the design
    has full rank exactly when the group-centered covariates have; the
    check reads the diagonal of their R factor.

    The selected columns are read once, into a local [X2 | y] with group 1's
    rows first, each group's in file order; the design keeps none of its
    rows. Each group's rows are shifted by the first row as they are read
    and folded whole, centered and factored in place, so no copy is made
    whatever the split. :func:`stream_design` folds a file's rows through
    the same :class:`_Group` a block at a time.

    The first row is subtracted before the group means and added back to
    the means kept: that subtraction is exact for a column far from zero,
    so the mean differences, and the rank check that reads r, keep the
    digits a large common offset would otherwise round away. The group
    means still round at the scale of the shifted columns, so the rank
    check measures r against ``norms``, not against r itself: a covariate
    that is constant within each group leaves a residue of that rounding,
    which r alone would take for a full-rank column.
    """
    g1, g2 = _group_order(ds.levels, reference_level)
    in_group2 = ds.in_second if g2 == ds.levels[1] else ~ds.in_second
    n = ds.n_rows
    order = np.argsort(in_group2, kind="stable")
    n1 = n - int(np.count_nonzero(in_group2))
    w = ds.n_covariates
    cols = [*(col for _, col in ds.covariates), ds.response]
    pivot = np.array([col[order[0]] for col in cols])
    buf = np.empty(n * (w + 1))
    groups = (_Group(w + 1), _Group(w + 1))
    for group, lo, hi in ((groups[0], 0, n1), (groups[1], n1, n)):
        stack, block = group.buffer(hi - lo, out=buf[lo * (w + 1):hi * (w + 1)])
        for row, col, shift in zip(block, cols, pivot):
            np.subtract(col[order[lo:hi]], shift, out=row)
        mean = block.sum(axis=1) / (hi - lo)
        for row, m in zip(block, mean):  # a broadcast -= would allocate a buffer
            row -= m
        group.fold(stack, mean)
    return _finish_design((g1, g2), groups, tuple(name for name, _ in ds.covariates), pivot)


def stream_design(path, response_col: str, group_col: str, covariate_cols=(),
                  delimiter: str = ";", reference_level: str | None = None):
    """The design :func:`build_design` gives for ``load_csv`` of the same
    arguments, built as the file is read without holding its rows.

    Returns (design, rows_used, dropped_rows). The reader
    (:func:`dataio.scan_csv`) passes its blocks of kept rows to a staging
    buffer of ``_STAGE_ROWS`` rows, which is folded into each label's
    :class:`_Group` whenever it fills (see :class:`_Stream`), so memory
    does not grow with the file. Every row is shifted by the first row
    kept, where build_design takes group 1's first. The group order and
    ``reference_level`` are settled at the end, and the errors are those
    of ``load_csv`` followed by ``build_design``, in the same order.
    """
    names = tuple(covariate_cols)
    stream = _Stream(len(names) + 1)
    dropped = scan_csv(path, [response_col, *names], group_col, delimiter, stream.push)
    design = stream.design(names, reference_level, path, dropped)
    return design, stream.n, dropped + stream.dropped


def _group_order(levels, reference_level):
    """(group 1, group 2): the two labels in ascending order, unless
    ``reference_level`` names the second."""
    g1, g2 = levels
    if reference_level is not None and reference_level != g1:
        if reference_level != g2:
            raise GroupTooSmallError(
                reference_level, 0, f"reference level {reference_level!r} is not a group "
                f"label; the labels are {g1!r} and {g2!r}")
        g1, g2 = g2, g1
    return g1, g2


def _finish_design(labels, groups, names, pivot) -> PartitionedDesign:
    """The design from group 1's and group 2's folded statistics, all
    shifted by ``pivot``: the size checks, the pooled factor, the norms
    and the rank check."""
    (g1, g2), (first, second) = labels, groups
    n1, n2 = first.n, second.n
    if n1 < 2:
        raise GroupTooSmallError(g1, n1)
    if n2 < 2:
        raise GroupTooSmallError(g2, n2)
    n, w = n1 + n2, len(names)
    if n <= 2 + w:
        raise InsufficientRowsError(
            f"{n} rows cannot support an intercept, a group dummy and {w} covariate(s)"
        )
    mean1, mean2 = first.mean, second.mean
    r = _qr_r(np.vstack([first.r, second.r]).T.copy())
    # a shifted column's sum of squares is its centered part plus n_j mean_j^2
    norms = np.sqrt(np.einsum("ij,ij->j", r, r) + n1 * mean1**2 + n2 * mean2**2)
    dependent = _first_negligible(r, n, norms, 0, w)
    if dependent is not None:
        raise RankDeficientDesignError(names[dependent])
    return PartitionedDesign(
        n1=n1, n2=n2, group_labels=(g1, g2), covariate_names=names,
        means=(mean1 + pivot, mean2 + pivot), diff=mean2 - mean1,
        factors=(first.r, second.r), r=r, norms=norms,
    )


class _Group:
    """One group's rows folded so far, each shifted by the same pivot row:
    their count ``n``, their ``mean`` and ``r``, the upper-triangular
    factor of the centered rows (r' r is their centered cross-product
    matrix). Both feeders, :func:`build_design` and :class:`_Stream`, take
    a :meth:`buffer`, write their rows into it centered, and :meth:`fold`
    it."""

    __slots__ = ("n", "mean", "r")

    def __init__(self, k: int):
        self.n, self.mean, self.r = 0, np.zeros(k), np.empty((0, k))

    def buffer(self, m: int, out=None):
        """(stack, block) for folding m rows: ``stack`` is a C-contiguous
        (k, len(r) + m + 1) array, (k, m) while the group is empty, and
        ``block`` its m columns the feeder fills with the rows, shifted and
        centered, column c of the rows in row c. ``out``, a flat array of
        the right size, is used in place of a new one."""
        k, done = self.r.shape[1], len(self.r)
        width = done + m + (self.n > 0)
        stack = (np.empty(k * width) if out is None else out).reshape(k, width)
        return stack, stack[:, done:done + m]

    def fold(self, stack: np.ndarray, mean: np.ndarray) -> None:
        """Fold the rows in the stack's block, centered on their ``mean``,
        into the group; ``stack`` is overwritten.

        A group that already holds rows stacks its r above them and, below,
        its mean difference scaled by sqrt(n_a n_b / n): the centered cross
        products of the union are those of the two parts plus n_a n_b / n
        times the outer product of that difference (Chan, Golub & LeVeque
        1983). One in-place factorization of the stack gives the new r.
        """
        done = len(self.r)
        m = stack.shape[1] - done - (self.n > 0)
        if self.n:
            n = self.n + m
            delta = mean - self.mean
            stack[:, :done] = self.r.T
            np.multiply(delta, math.sqrt(self.n * m / n), out=stack[:, -1])
            mean = self.mean + delta * (m / n)
        self.n, self.mean, self.r = self.n + m, mean, _qr_r(stack)


_STAGE_ROWS = 384  # rows held between the reader and the groups


class _Codes(dict):
    """Label -> code: 0 and 1 for the first two labels, 2 for any other."""

    def __missing__(self, label):
        self[label] = code = min(len(self), 2)
        return code


class _Stream:
    """The staging buffer of :func:`stream_design`, fed by the reader.

    :meth:`push` copies a block of rows ([y, X2] per row, the reader's
    order) and their labels in; :meth:`flush` drops the rows with an
    overflowed cell, codes the rest by label and folds each label's rows
    into its :class:`_Group`. Only kept rows are coded, so ``codes`` holds
    exactly the labels of kept rows. Once a third label turns up, no more
    rows are folded: the file cannot be analysed, and the rows are only
    counted for the error that follows.
    """

    def __init__(self, k: int):
        self.stage, self.ones = np.empty((_STAGE_ROWS, k)), np.ones(_STAGE_ROWS)
        self.fill, self.labels = 0, []
        self.codes = _Codes()
        self.groups = (_Group(k), _Group(k))
        self.pivot = None  # the first kept row, in the reader's order [y, X2]
        self.n = self.dropped = 0

    def push(self, values: np.ndarray, labels) -> None:
        """Stage a run of at most _STAGE_ROWS rows, as the reader passes
        them (at most its block of 64); flush first if they do not fit."""
        rows = values.reshape(-1, self.stage.shape[1])
        if self.fill + len(rows) > _STAGE_ROWS:
            self.flush()
        self.stage[self.fill:self.fill + len(rows)] = rows
        self.labels.extend(labels)
        self.fill += len(rows)

    def flush(self) -> None:
        rows, labels = self.stage[:self.fill], self.labels
        self.fill, self.labels = 0, []
        if not np.isfinite(rows).all():  # "1e999"
            finite = np.isfinite(rows).all(axis=1)
            self.dropped += len(rows) - int(finite.sum())
            rows, labels = rows[finite], list(compress(labels, finite))
        if not len(rows):
            return
        self.n += len(rows)
        codes = bytes(map(self.codes.__getitem__, labels))
        del labels
        if len(self.codes) > 2:
            return
        if self.pivot is None:
            self.pivot = rows[0].copy()
        rows -= self.pivot
        second = np.frombuffer(codes, bool)
        n2 = int(np.count_nonzero(second))
        # one label at a time, so that one label's copy is alive at most
        if n2 < len(rows):
            self._fold(self.groups[0], rows[~second] if n2 else rows)
        if n2:
            self._fold(self.groups[1], rows[second] if n2 < len(rows) else rows)

    def design(self, names, reference_level, source, dropped) -> PartitionedDesign:
        """The design of every row pushed, once the last is in; ``dropped``
        counts the rows the reader dropped before pushing."""
        self.flush()
        require_rows(self.n, source, dropped + self.dropped)
        labels = sorted(self.codes)
        if len(labels) != 2:
            raise NotBinaryGroupError(labels)
        order = _group_order(labels, reference_level)
        groups = tuple(self.groups[self.codes[label]] for label in order)
        pivot = np.concatenate((self.pivot[1:], self.pivot[:1]))  # as [X2 | y]
        return _finish_design(order, groups, names, pivot)

    def _fold(self, group: _Group, part: np.ndarray) -> None:
        """Fold ``part``, shifted rows in the reader's order [y, X2], into
        ``group`` as centered [X2 | y] columns."""
        mean = self.ones[:len(part)] @ part / len(part)  # a column sum costs more
        stack, block = group.buffer(len(part))
        np.subtract(part[:, 1:].T, mean[1:, None], out=block[:-1])
        np.subtract(part[:, 0], mean[0], out=block[-1])
        group.fold(stack, np.concatenate((mean[1:], mean[:1])))


def _first_negligible(r: np.ndarray, n: int, scale: np.ndarray, lo: int, hi: int) -> int | None:
    """The first i in [lo, hi) with |r[i, i]| <= max(n, k) * eps * scale[i],
    k = hi - lo, or None. This is the rank rule of linalg's QR solve applied
    to the diagonal block r[lo:hi, lo:hi] with a per-column scale, in a
    loop: numpy's diag/where machinery costs more than k <= w + 1 scalars."""
    tol = max(n, hi - lo) * _EPS
    for i in range(lo, hi):
        if abs(r[i, i]) <= tol * scale[i]:
            return i
    return None


def _qr_r(a: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(a.T, mode="r")`` bit for bit for a C-contiguous (k, m)
    float64 ``a``, which LAPACK dgeqrf overwrites where np.linalg.qr would
    copy it; any other layout raises LapackError."""
    k, m = a.shape
    tau, work = np.empty(min(m, k)), np.empty(max(k, 1))
    lapack_lite.dgeqrf(m, k, a, m, tau, work, len(work), 0)
    r = np.zeros((min(m, k), k))  # below the diagonal dgeqrf leaves its reflectors
    np.copyto(r, a[:, :min(m, k)].T, where=_upper_triangle(r.shape))
    return r


@functools.cache
def _upper_triangle(shape: tuple[int, int]) -> np.ndarray:
    """A read-only mask of the diagonal and above, one per shape _qr_r
    meets (at most w + 1 rows by w + 1 columns)."""
    mask = np.triu(np.ones(shape, dtype=bool))
    mask.flags.writeable = False
    return mask


def fit_monolithic(ds: Dataset, reference_level: str | None = None) -> PartitionedFit:
    """Fit by solving the full design [1 | dummy | X2] of ``ds``, rows in
    file order, in a single pass for the coefficients. The group mapping,
    the rank check, sigma^2, gamma and R^2 come from
    ``build_design(ds, reference_level)``."""
    design = build_design(ds, reference_level)
    dummy = ds.in_second if design.group_labels[1] == ds.levels[1] else ~ds.in_second
    x = np.column_stack([np.ones(ds.n_rows), dummy, *(col for _, col in ds.covariates)])
    coef = linalg.qr_least_squares(x, ds.response)
    return _finish_fit(design, coef[:2], coef[2:])


def fit_fwl(design: PartitionedDesign) -> PartitionedFit:
    """Fit by partialling out: covariate coefficients from the group-centered
    regression, then the group block from the group means of the adjusted
    response.

    With no covariates this is simply the two group means.
    """
    mean1, diff, r = design.means[0], design.diff, design.r
    w = design.w
    delta2 = _solve_r(r, r[:w, w])
    beta0 = mean1[w] - mean1[:w] @ delta2
    beta1 = diff[w] - diff[:w] @ delta2
    return _finish_fit(design, np.array([beta0, beta1]), delta2)


def _finish_fit(design, delta1, delta2) -> PartitionedFit:
    diff, r = design.diff, design.r
    w = design.w
    rss = float(r[w, w]) ** 2
    sig2 = rss / _residual_df(design)
    # Var(beta1) / sigma^2 = 1/n1 + 1/n2 + (xbar1 - xbar2)' (X2' M1 X2)^-1 (xbar1 - xbar2)
    v = _solve_r(r, diff[:w], transposed=True)
    gamma = 1.0 / design.n1 + 1.0 / design.n2 + float(v @ v)
    # about the grand mean: y's within-group sum of squares plus its between-group part
    total_ss = float(r[:, w] @ r[:, w]) + design.n1 * design.n2 / design.n * float(diff[w]) ** 2
    if total_ss == 0.0:
        raise DegenerateResponseError("response is constant")
    # FWL: dropping the dummy adds beta1^2 / gamma to the residual sum of squares
    rss0 = rss + float(delta1[1]) ** 2 / gamma
    return PartitionedFit(
        delta1_hat=np.asarray(delta1, dtype=float),
        delta2_hat=np.asarray(delta2, dtype=float),
        sigma2_hat=sig2,
        gamma=gamma,
        se_beta1=float(np.sqrt(sig2 * gamma)),
        r_squared=1.0 - rss / total_ss,
        r0_squared=1.0 - rss0 / total_ss,
        df=design.df,
    )


def _solve_r(r: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """x with R x = b, or R' x = b when ``transposed``, for R the leading
    len(b) x len(b) block of the upper-triangular ``r``, by substitution in
    Python floats: at w <= ~12 a general LU solve costs more in its calls
    than in its arithmetic."""
    w = len(b)
    a = r[:w, :w]
    rows, x = (a.T if transposed else a).tolist(), b.tolist()
    # R' is lower triangular, solved from the first row down; R from the last up
    for i in range(w) if transposed else reversed(range(w)):
        s = x[i]
        for j in range(i) if transposed else range(i + 1, w):
            s -= rows[i][j] * x[j]
        x[i] = s / rows[i][i]
    return np.array(x)


def _residual_df(design: PartitionedDesign) -> int:
    if design.df <= 0:
        raise NonPositiveDfError(
            f"no residual degrees of freedom (n={design.n}, w={design.w})"
        )
    return design.df


def group_summaries(design: PartitionedDesign, delta2) -> tuple[GroupSummary, GroupSummary]:
    """Means and centered sums of squares per group, on the raw scale and on
    the scale of y - X2 delta2, the response adjusted by the covariate
    coefficients ``delta2``.

    Read off the design's group factors in O(w^2). With v = [-delta2; 1],
    group j's adjusted values are its rows of [X2 | y] times v, so their
    mean is its means times v and their centered sum of squares
    ||R_j v||^2; the raw scale is v = [0; 1].
    """
    w = design.w
    delta2 = np.asarray(delta2, dtype=float)
    if delta2.ndim == 2 and delta2.shape[1] == 1:
        delta2 = delta2.ravel()
    if delta2.ndim != 1:
        raise DimensionMismatchError(f"delta2 must be 1-D, got shape {delta2.shape}")
    if len(delta2) != w:
        raise ValueError(f"delta2 has {len(delta2)} entries for {w} covariate(s)")
    if not np.isfinite(delta2).all():
        raise ValueError("delta2 contains NaN or Inf entries")
    v = np.empty(w + 1)
    np.negative(delta2, out=v[:w])
    v[w] = 1.0
    out = []
    for n_rows, mean, factor in zip((design.n1, design.n2), design.means, design.factors):
        raw, adj = factor[:, w], factor @ v
        out.append(GroupSummary(n_rows=n_rows, mean_raw=float(mean[w]), ss_raw=float(raw @ raw),
                                mean_adj=float(mean @ v), ss_adj=float(adj @ adj)))
    return tuple(out)


def require_residual(design: PartitionedDesign) -> None:
    """Raise ZeroVarianceError if the response is a linear function of the
    group and the covariates: |R_ww|, the root of the residual sum of
    squares, is at or below the rank check's rounding level for y."""
    w = design.w
    if _first_negligible(design.r, design.n, design.norms, w, w + 1) is not None:
        raise ZeroVarianceError("the response is a linear function of the group and "
                                "the covariates; no residual variance is left")


def r_squared_pair(design: PartitionedDesign) -> tuple[float, float]:
    """R^2 of the full model and of the reduced model without the group
    dummy, as :func:`fit_fwl` reports them, with no factorization."""
    fit = fit_fwl(design)
    return fit.r_squared, fit.r0_squared


def standard_errors(design: PartitionedDesign, fit: PartitionedFit) -> np.ndarray:
    """Standard errors of all 2 + w coefficients, in fitting order.

    Each is sigma times the square root of the coefficient's scaled
    variance, in the standard ANCOVA form with S = X2' M1 X2 = R_xx' R_xx:
    1/n1 + xbar1' S^-1 xbar1 for the intercept, gamma for the group term,
    and the diagonal of S^-1, the squared row norms of R_xx^-1, for the
    covariates.
    """
    mean1, r = design.means[0], design.r
    w = design.w
    rinv = np.linalg.inv(r[:w, :w])
    a = mean1[:w] @ rinv  # R_xx^-T xbar1
    scaled = np.concatenate([[1.0 / design.n1 + a @ a, fit.gamma],
                             np.sum(rinv**2, axis=1)])
    return np.sqrt(fit.sigma2_hat * scaled)
