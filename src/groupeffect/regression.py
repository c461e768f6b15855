"""Partitioned linear regression for a two-group comparison with covariates.

The model is ``y = X1 d1 + X2 d2 + e`` where X1 holds the intercept and the
group dummy (group 1 rows first, dummy 0; group 2 rows last, dummy 1) and X2
holds the covariate columns. The same fit is available two ways:

* :func:`fit_monolithic` solves the full design in one least-squares pass;
* :func:`fit_fwl` partials the covariates out first (regress y on the
  group-centered covariates, then read the group block off the group means).

Centering within groups is the annihilator M1 of X1, so the partialled-out
fit needs only the group counts, the group means of [X2 | y] and R, the
(w+1) x (w+1) triangular factor of the group-centered [X2 | y]. Each design
computes them once, from one copy of [X2 | y] centered in place, and keeps
them. From R follow the rank check of the design, the covariate
coefficients, sigma^2, gamma, both R^2 values and every standard error;
cost and memory are linear in n and no n x n matrix is formed. Stacking R
on the between-group row sqrt(n1 n2 / n) (mean1 - mean2) and
re-triangularizing gives the factor of the overall-centered [X2 | y], i.e.
the reduced model without the group dummy (the pairwise update of Chan,
Golub & LeVeque).

The two routes agree to floating-point accuracy; keeping both makes that
equivalence testable instead of assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
)

__all__ = [
    "PartitionedDesign",
    "PartitionedFit",
    "GroupSummary",
    "build_design",
    "fit_monolithic",
    "fit_fwl",
    "sigma2_hat",
    "group_summaries",
    "r_squared_pair",
    "delta1_from_adjusted",
    "coefficient_names",
    "standard_errors",
]


@dataclass(frozen=True)
class PartitionedDesign:
    """Group-sorted design for the partitioned model.

    Rows 0..n1-1 belong to group 1 (dummy 0), the rest to group 2 (dummy 1).
    ``row_order[i]`` is the index of design row i in the original dataset.
    """

    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    n1: int
    n2: int
    row_order: np.ndarray
    group_labels: tuple[str, str]
    covariate_names: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def w(self) -> int:
        return self.x2.shape[1]

    @property
    def df(self) -> int:
        return self.n - 2 - self.w

    @cached_property
    def _core(self):
        """(mean1, diff, r, norms) of :func:`_group_core`, computed on first use.

        The design's arrays must not be modified after that.
        """
        return _group_core(self)


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
    y_star: np.ndarray  # response adjusted for the fitted covariate part
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
    ``reference_level`` forces one label to be group 1. Rows keep their
    within-group order; the permutation back to original row indices is
    recorded on the design.

    Raises GroupTooSmallError if either group has fewer than 2 rows,
    InsufficientRowsError if n <= 2 + w, and RankDeficientDesignError
    (naming the covariate) if the combined design is collinear. Centering
    within groups annihilates the intercept and the dummy, so the design
    has full rank exactly when the group-centered covariates have; the
    check reads the diagonal of their R factor.
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

    y = linalg.as_vector(ds.response, "response")[order]
    x1 = np.ones((n, 2))
    x1[:n1, 1] = 0.0
    if w:
        x2 = np.column_stack([linalg.as_vector(col, name)[order]
                              for name, col in ds.covariates])
    else:
        x2 = np.empty((n, 0))

    design = PartitionedDesign(
        y=y, x1=x1, x2=x2, n1=n1, n2=n2, row_order=order,
        group_labels=(g1, g2),
        covariate_names=tuple(name for name, _ in ds.covariates),
    )
    _, _, r, norms = design._core
    try:
        linalg._check_r_diagonal(r[:w, :w], n, scale=norms[:w])
    except RankDeficientError as exc:
        raise RankDeficientDesignError(design.covariate_names[exc.column]) from None
    return design


def delta1_from_adjusted(design: PartitionedDesign, y_star) -> np.ndarray:
    """Recover (intercept, group coefficient) by regressing the adjusted
    response on X1 alone; equals the full-design estimates."""
    return linalg.qr_least_squares(design.x1, y_star)


def _group_stats(design: PartitionedDesign, v: np.ndarray):
    """Per-group (mean, centered SS) of a vector in design row order."""
    out = []
    for sl in (slice(0, design.n1), slice(design.n1, design.n)):
        part = v[sl]
        mean = float(part.mean())
        out.append((mean, float(np.sum((part - mean) ** 2))))
    return out


def _group_core(design: PartitionedDesign):
    """Group means of [X2 | y] and the R factor of the group-centered [X2 | y].

    Returns (mean1, diff, r, norms): the group-1 means, the group-2 minus
    group-1 mean differences, r of shape (w+1, w+1), and the column norms of
    [X2 | y] less its first row. The leading w x w block of r factors
    X2' M1 X2, its last column above the diagonal carries X2' M1 y, and
    r[w, w]^2 is the residual sum of squares of the full model.

    [X2 | y] is copied once and centered in place. The first row is
    subtracted before the group means: that subtraction is exact for a
    column far from zero, so the mean differences, and the rank check that
    reads r, keep the digits a large common offset would otherwise round
    away. The group means still round at the scale of the shifted columns,
    so the rank check measures r against ``norms``, not against r itself: a
    covariate that is constant within each group leaves a residue of that
    rounding, which r alone would take for a full-rank column.
    """
    m = np.column_stack([design.x2, design.y])
    pivot = m[0].copy()
    m -= pivot
    norms = np.sqrt(np.einsum("ij,ij->j", m, m))
    g1, g2 = m[: design.n1], m[design.n1:]
    mean1, mean2 = g1.mean(axis=0), g2.mean(axis=0)
    g1 -= mean1
    g2 -= mean2
    r = np.linalg.qr(m, mode="r")
    return mean1 + pivot, mean2 - mean1, r, norms


def fit_monolithic(design: PartitionedDesign) -> PartitionedFit:
    """Fit by solving the full design (X1, X2) in a single pass."""
    x = np.hstack([design.x1, design.x2])
    coef = linalg.qr_least_squares(x, design.y)
    return _finish_fit(design, coef[:2], coef[2:])


def fit_fwl(design: PartitionedDesign) -> PartitionedFit:
    """Fit by partialling out: covariate coefficients from the group-centered
    regression, then the group block from the group means of the adjusted
    response.

    With no covariates this is simply the two group means.
    """
    mean1, diff, r, _ = design._core
    w = design.w
    delta2 = np.linalg.solve(r[:w, :w], r[:w, w]) if w else np.empty(0)
    beta0 = mean1[w] - mean1[:w] @ delta2
    beta1 = diff[w] - diff[:w] @ delta2
    return _finish_fit(design, np.array([beta0, beta1]), delta2)


def _finish_fit(design, delta1, delta2) -> PartitionedFit:
    _, diff, r, _ = design._core
    w = design.w
    y_star = design.y - design.x2 @ delta2
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
        y_star=y_star,
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


def sigma2_hat(design: PartitionedDesign, delta2_hat) -> float:
    """Unbiased error-variance estimate given fitted covariate coefficients.

    Equals r' M1 r / (n - 2 - w) with r = y - X2 d2_hat, evaluated here as
    the pooled within-group centered sum of squares of r (the two forms are
    algebraically identical). The fitters take sigma^2 from R instead; this
    residual form cross-checks it.
    """
    df = _residual_df(design)
    delta2_hat = np.asarray(delta2_hat, dtype=float)
    r = design.y - design.x2 @ delta2_hat
    (_, ss1), (_, ss2) = _group_stats(design, r)
    return (ss1 + ss2) / df


def group_summaries(design: PartitionedDesign, y_star) -> tuple[GroupSummary, GroupSummary]:
    """Means and centered sums of squares per group, on the raw and the
    covariate-adjusted scale."""
    y_star = linalg.as_vector(y_star, "y_star")
    raw = _group_stats(design, design.y)
    adj = _group_stats(design, y_star)
    sizes = (design.n1, design.n2)
    return tuple(
        GroupSummary(n_rows=sizes[j], mean_raw=raw[j][0], ss_raw=raw[j][1],
                     mean_adj=adj[j][0], ss_adj=adj[j][1])
        for j in (0, 1)
    )


def r_squared_pair(design: PartitionedDesign) -> tuple[float, float]:
    """Coefficients of determination of the full model and of the reduced
    model that drops the group dummy (intercept plus covariates only)."""
    if np.ptp(design.y) == 0.0:
        raise DegenerateResponseError("response is constant")
    _, diff, r, _ = design._core
    w = design.w
    between = np.sqrt(design.n1 * design.n2 / design.n) * diff
    r0 = np.linalg.qr(np.vstack([r, between]), mode="r")
    total_ss = float(r0[:, w] @ r0[:, w])
    if total_ss == 0.0:
        raise DegenerateResponseError("response has zero centered sum of squares")
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
    mean1, _, r, _ = design._core
    w = design.w
    rinv = np.linalg.inv(r[:w, :w])
    a = mean1[:w] @ rinv  # R_xx^-T xbar1
    scaled = np.concatenate([[1.0 / design.n1 + a @ a, fit.gamma],
                             np.sum(rinv**2, axis=1)])
    return np.sqrt(fit.sigma2_hat * scaled)
