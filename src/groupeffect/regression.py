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
triangular factor R_j of its centered [X2 | y]. :func:`build_design`
computes them, factoring each group in place with LAPACK dgeqrf, and keeps
them as the fields of the design, which holds no n-row array. Stacking R_1
on R_2 and re-triangularizing gives R, the (w+1) x (w+1) factor of the
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

from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from . import linalg
from .dataio import Dataset
from .errors import (
    DegenerateResponseError,
    GroupTooSmallError,
    InsufficientRowsError,
    NonPositiveDfError,
    RankDeficientDesignError,
    RankDeficientError,
    ZeroVarianceError,
)

__all__ = [
    "PartitionedDesign",
    "PartitionedFit",
    "GroupSummary",
    "build_design",
    "fit_monolithic",
    "fit_fwl",
    "group_summaries",
    "require_residual",
    "r_squared_pair",
    "coefficient_names",
    "standard_errors",
]


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
    ``reference_level`` forces one label to be group 1.

    Raises GroupTooSmallError if either group has fewer than 2 rows,
    InsufficientRowsError if n <= 2 + w, and RankDeficientDesignError
    (naming the covariate) if the combined design is collinear. Centering
    within groups annihilates the intercept and the dummy, so the design
    has full rank exactly when the group-centered covariates have; the
    check reads the diagonal of their R factor.

    The selected columns are read once, into a local [X2 | y] with group 1's
    rows first, each group's in file order; the design keeps none of its
    rows. Each group's rows are shifted by the first row as they are read,
    centered and factored in place, so no copy is made whatever the split.
    The first row is subtracted before the group means and added back to
    the means kept: that subtraction is exact for a column far from zero,
    so the mean differences, and the rank check that reads r, keep the
    digits a large common offset would otherwise round away. The group
    means still round at the scale of the shifted columns, so the rank
    check measures r against ``norms``, not against r itself: a covariate
    that is constant within each group leaves a residue of that rounding,
    which r alone would take for a full-rank column.
    """
    labels = sorted(set(ds.group_labels))
    if reference_level is not None:
        if reference_level not in labels:
            raise GroupTooSmallError(reference_level, 0)
        labels = [reference_level] + [l for l in labels if l != reference_level]
    g1, g2 = labels

    n = ds.n_rows
    in_group2 = np.fromiter(map(g2.__eq__, ds.group_labels), bool, n)
    order = np.argsort(in_group2, kind="stable")
    n2 = int(np.count_nonzero(in_group2))
    n1 = n - n2
    if n1 < 2:
        raise GroupTooSmallError(g1, n1)
    if n2 < 2:
        raise GroupTooSmallError(g2, n2)

    w = ds.n_covariates
    if n <= 2 + w:
        raise InsufficientRowsError(
            f"{n} rows cannot support an intercept, a group dummy and {w} covariate(s)"
        )

    cols = [linalg.as_vector(c, name) for name, c in (*ds.covariates, ("response", ds.response))]
    pivot = np.array([col[order[0]] for col in cols])
    buf = np.empty(n * (w + 1))
    means, factors = [], []
    for lo, hi in ((0, n1), (n1, n)):
        # column-major n_j x (w+1): row c of the (w+1, n_j) view is column c
        block = buf[lo * (w + 1):hi * (w + 1)].reshape(w + 1, hi - lo)
        for row, col, shift in zip(block, cols, pivot):
            np.subtract(col[order[lo:hi]], shift, out=row)
        mean = block.sum(axis=1) / (hi - lo)
        for row, m in zip(block, mean):  # a broadcast -= would allocate a buffer
            row -= m
        means.append(mean)
        factors.append(_qr_r(block))
    (mean1, mean2), (f1, f2) = means, factors
    r = _qr_r(np.vstack([f1, f2]).T.copy())
    # a shifted column's sum of squares is its centered part plus n_j mean_j^2
    norms = np.sqrt(np.einsum("ij,ij->j", r, r) + n1 * mean1**2 + n2 * mean2**2)
    names = tuple(name for name, _ in ds.covariates)
    try:
        linalg._check_r_diagonal(r[:w, :w], n, scale=norms[:w])
    except RankDeficientError as exc:
        raise RankDeficientDesignError(names[exc.column]) from None
    return PartitionedDesign(
        n1=n1, n2=n2, group_labels=(g1, g2), covariate_names=names,
        means=(mean1 + pivot, mean2 + pivot), diff=mean2 - mean1,
        factors=(f1, f2), r=r, norms=norms,
    )


def _qr_r(a: np.ndarray) -> np.ndarray:
    """``np.linalg.qr(a.T, mode="r")`` bit for bit for a C-contiguous (k, m)
    float64 ``a``, which LAPACK dgeqrf overwrites where np.linalg.qr would
    copy it; any other layout raises LapackError."""
    k, m = a.shape
    tau, work = np.empty(min(m, k)), np.empty(max(k, 1))
    lapack_lite.dgeqrf(m, k, a, m, tau, work, len(work), 0)
    r = a[:, :min(m, k)].T.copy()
    for i in range(1, len(r)):  # below the diagonal dgeqrf leaves its reflectors
        r[i, :i] = 0.0
    return r


def fit_monolithic(ds: Dataset, reference_level: str | None = None) -> PartitionedFit:
    """Fit by solving the full design [1 | dummy | X2] of ``ds``, rows in
    file order, in a single pass for the coefficients. The group mapping,
    the rank check, sigma^2, gamma and R^2 come from
    ``build_design(ds, reference_level)``."""
    design = build_design(ds, reference_level)
    dummy = [label == design.group_labels[1] for label in ds.group_labels]
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
    delta2 = np.linalg.solve(r[:w, :w], r[:w, w]) if w else np.empty(0)
    beta0 = mean1[w] - mean1[:w] @ delta2
    beta1 = diff[w] - diff[:w] @ delta2
    return _finish_fit(design, np.array([beta0, beta1]), delta2)


def _finish_fit(design, delta1, delta2) -> PartitionedFit:
    diff, r = design.diff, design.r
    w = design.w
    rss = float(r[w, w]) ** 2
    sig2 = rss / _residual_df(design)
    # Var(beta1) / sigma^2 = 1/n1 + 1/n2 + (xbar1 - xbar2)' (X2' M1 X2)^-1 (xbar1 - xbar2)
    v = np.linalg.solve(r[:w, :w].T, diff[:w]) if w else np.empty(0)
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
    v = np.append(-linalg.as_vector(delta2, "delta2"), 1.0)
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
    try:
        linalg._check_r_diagonal(design.r[w:, w:], design.n, scale=design.norms[w:])
    except RankDeficientError:
        raise ZeroVarianceError("the response is a linear function of the group and "
                                "the covariates; no residual variance is left") from None


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
