"""Partitioned linear regression for a two-group comparison with covariates.

The model is ``y = X1 d1 + X2 d2 + e`` where X1 holds the intercept and the
group dummy (0 for group 1, 1 for group 2) and X2 holds the covariate
columns. The same fit is available two ways:

* :func:`fit_monolithic` solves the full design of a dataset in one
  least-squares pass;
* :func:`fit_fwl` partials the covariates out first (regress y on the
  group-centered covariates, then read the group block off the group means).

Centering within groups is the annihilator M1 of X1, so the partialled-out
fit needs only, per group, its count, its means of [X2 | y] and a factor
R_j of its centered [X2 | y]. :func:`build_design` computes them and keeps
them as the fields of the design, which holds no n-row array. Stacking R_1
on R_2 and re-triangularizing gives R, the (w+1) x (w+1) factor of the
group-centered [X2 | y]. From R follow the rank check of the design, the covariate
coefficients, sigma^2, gamma, both R^2 values and every standard error;
from the R_j each group's summaries on the raw and the adjusted scale. Cost
and memory are linear in n and no n x n matrix is formed. Stacking R on
the between-group row sqrt(n1 n2 / n) (mean1 - mean2) and
re-triangularizing gives the factor of the overall-centered [X2 | y], i.e.
the reduced model without the group dummy (the pairwise update of Chan,
Golub & LeVeque).

The two routes agree to floating-point accuracy; the tests compare them,
and compare the factored summaries with their residual forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

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
    * ``factors``: per group, R_j with R_j' R_j the group's centered
      cross-product matrix: its triangular factor, min(n_j, w+1) rows, or
      for a group factored in two blocks (see :func:`build_design`) the
      blocks' factors stacked on their mean-difference row, 2w+3 rows;
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
    rows. Each group's rows are shifted by the first row, centered and
    factored in place; a group of over max(n/2, 128) rows in two blocks,
    then merged, so the factorization's copy stays within that many rows
    whatever the split. The first row is subtracted before the group means
    and added back to the means kept: that subtraction is exact for a
    column far from zero, so the mean differences, and the rank check that
    reads r, keep the digits a large common offset would otherwise round
    away. The group means still round at the scale of the shifted columns,
    so the rank check measures r against ``norms``, not against r itself: a
    covariate that is constant within each group leaves a residue of that
    rounding, which r alone would take for a full-rank column.
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

    data = np.empty((n, w + 1))
    for j, (name, col) in enumerate((*ds.covariates, ("response", ds.response))):
        np.take(linalg.as_vector(col, name), order, out=data[:, j])
    pivot = data[0].copy()
    size = max((n + 1) // 2, _MIN_BLOCK_ROWS)
    parts = [reduce(_merge, (_centered_factor(rows[i:i + size], pivot)
                             for i in range(0, len(rows), size)))
             for rows in (data[:n1], data[n1:])]
    (_, mean1, f1), (_, mean2, f2) = parts
    r = np.linalg.qr(np.vstack([f1, f2]), mode="r")
    # a shifted column's sum of squares is its centered part plus n_j mean_j^2
    norms = np.sqrt(sum(np.einsum("ij,ij->j", f, f) + c * m**2 for c, m, f in parts))
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


# build_design's blocks are at most half of n rows but never under this size,
# below which np.linalg.qr's cost per call outweighs the copies it saves
_MIN_BLOCK_ROWS = 128


def _centered_factor(rows, pivot):
    """Count, mean and triangular factor of ``rows - pivot`` once centered;
    overwrites ``rows`` with its centered values."""
    rows -= pivot
    mean = rows.sum(axis=0) / len(rows)
    rows -= mean
    return len(rows), mean, np.linalg.qr(rows, mode="r")


def _merge(a, b):
    """Pairwise update (Chan, Golub & LeVeque) of two (count, mean, factor)
    parts: the union's centered cross-product is the parts' plus
    n_a n_b / n (m_b - m_a)(m_b - m_a)'."""
    (na, ma, fa), (nb, mb, fb) = a, b
    n, step = na + nb, mb - ma
    return n, ma + nb / n * step, np.vstack([fa, fb, (na * nb / n) ** 0.5 * step])


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
    sig2 = float(r[w, w]) ** 2 / _residual_df(design)
    # Var(beta1) / sigma^2 = 1/n1 + 1/n2 + (xbar1 - xbar2)' (X2' M1 X2)^-1 (xbar1 - xbar2)
    v = np.linalg.solve(r[:w, :w].T, diff[:w]) if w else np.empty(0)
    gamma = 1.0 / design.n1 + 1.0 / design.n2 + float(v @ v)
    r2, r02 = r_squared_pair(design)
    return PartitionedFit(
        delta1_hat=np.asarray(delta1, dtype=float),
        delta2_hat=np.asarray(delta2, dtype=float),
        sigma2_hat=sig2,
        gamma=gamma,
        se_beta1=float(np.sqrt(sig2 * gamma)),
        r_squared=r2,
        r0_squared=r02,
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
    """Coefficients of determination of the full model and of the reduced
    model that drops the group dummy (intercept plus covariates only)."""
    diff, r = design.diff, design.r
    w = design.w
    between = np.sqrt(design.n1 * design.n2 / design.n) * diff
    r0 = np.linalg.qr(np.vstack([r, between]), mode="r")
    total_ss = float(r0[:, w] @ r0[:, w])
    if total_ss == 0.0:
        raise DegenerateResponseError("response is constant")
    r2 = 1.0 - float(r[w, w]) ** 2 / total_ss
    r02 = 1.0 - float(r0[w, w]) ** 2 / total_ss
    return r2, r02


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
