"""Standardized effect sizes for two-group comparisons and the conversion
identities that connect them to t, F and f-squared statistics.

Sign convention: every d reported here has (group 1 mean) - (group 2 mean)
in the numerator, so a positive d means group 1 scores higher. Magnitude
labels are taken from |d|. When the effect is inferred from f-squared (which
loses sign), the sign is recovered from the group coefficient: beta1 is the
group-2-minus-group-1 difference, so d and beta1 have opposite signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import t_two_sided_p
from .errors import (
    NonPositiveDfError,
    NonPositiveGammaError,
    SaturatedModelError,
    ZeroSigmaError,
    ZeroVarianceError,
)
from .regression import (GroupSummary, PartitionedDesign, PartitionedFit, group_summaries,
                         require_residual)

__all__ = [
    "EffectReport",
    "cohens_d",
    "cohens_d_adjusted",
    "d_from_beta",
    "d_from_t",
    "t_from_d",
    "f_squared_from_r2",
    "f_squared_from_d",
    "f_stat",
    "magnitude_labels",
    "effect_report",
]

# conventional cut points; the label applies from the cut upward
_D_CUTS = ((0.8, "large"), (0.5, "medium"), (0.2, "small"))
_F2_CUTS = ((0.35, "large"), (0.15, "medium"), (0.02, "small"))


@dataclass(frozen=True)
class EffectReport:
    """Effect-size summary of one fitted two-group comparison.

    ``d`` is the covariate-adjusted standardized mean difference; with no
    covariates it is the classic Cohen's d. ``u`` is the number of tested
    predictors (always 1 here: the group dummy) and ``v`` the residual
    degrees of freedom, so ``v == df``. ``groups`` holds the (group 1,
    group 2) summaries the report was computed from.
    """

    d: float
    t: float
    f_squared: float
    f_stat: float
    gamma: float
    df: int
    w: int
    u: int
    v: int
    p_value: float
    magnitude_d: str
    magnitude_f2: str
    groups: tuple[GroupSummary, GroupSummary] | None = None


def cohens_d(g1: GroupSummary, g2: GroupSummary) -> float:
    """Classic Cohen's d from raw-scale group summaries.

    d = (mean1 - mean2) / sqrt((ss1 + ss2) / (n1 + n2 - 2)) with ss the
    centered sums of squares.
    """
    pooled = g1.ss_raw + g2.ss_raw
    dof = g1.n_rows + g2.n_rows - 2
    if dof <= 0:
        raise NonPositiveDfError(f"need more than 2 observations, got {dof + 2}")
    if pooled <= 0.0:
        raise ZeroVarianceError("pooled within-group sum of squares is zero")
    return (g1.mean_raw - g2.mean_raw) / math.sqrt(pooled / dof)


def cohens_d_adjusted(g1: GroupSummary, g2: GroupSummary, w: int) -> float:
    """Covariate-adjusted d from adjusted-scale group summaries.

    Same form as :func:`cohens_d` but on the adjusted response, with the
    denominator degrees of freedom reduced by the w fitted covariates.
    Reduces exactly to the classic d when w = 0.
    """
    pooled = g1.ss_adj + g2.ss_adj
    dof = g1.n_rows + g2.n_rows - 2 - w
    if dof <= 0:
        raise NonPositiveDfError(
            f"nonpositive degrees of freedom: n={g1.n_rows + g2.n_rows}, w={w}"
        )
    if pooled <= 0.0:
        raise ZeroVarianceError("pooled adjusted sum of squares is zero")
    return (g1.mean_adj - g2.mean_adj) / math.sqrt(pooled / dof)


def d_from_beta(beta1_hat: float, sigma_hat: float) -> float:
    """|d| from the group coefficient and residual scale: |beta1| / sigma."""
    if sigma_hat <= 0.0:
        raise ZeroSigmaError("residual scale must be positive")
    return abs(beta1_hat) / sigma_hat


def d_from_t(t: float, n1: int, n2: int) -> float:
    """Convert a two-sample t statistic to d: t * sqrt((n1 + n2)/(n1 n2))."""
    return t * math.sqrt((n1 + n2) / (n1 * n2))


def t_from_d(d: float, gamma: float) -> float:
    """t statistic for the group effect: d / sqrt(gamma).

    With no covariates gamma is (n1 + n2)/(n1 n2) and this inverts
    :func:`d_from_t`.
    """
    if gamma <= 0.0:
        raise NonPositiveGammaError(f"gamma must be positive, got {gamma}")
    return d / math.sqrt(gamma)


def f_squared_from_r2(r2: float, r0_2: float) -> float:
    """Cohen's f-squared from nested coefficients of determination:
    (R^2 - R0^2) / (1 - R^2)."""
    if r2 >= 1.0:
        raise SaturatedModelError("R^2 = 1 leaves no residual variation")
    return (r2 - r0_2) / (1.0 - r2)


def f_squared_from_d(d: float, gamma: float, n: int, w: int) -> float:
    """f-squared from the adjusted d: (d^2 / gamma) / (n - 2 - w).

    With w = 0 this reduces to d^2 * n1 n2 / (n (n - 2)).
    """
    if gamma <= 0.0:
        raise NonPositiveGammaError(f"gamma must be positive, got {gamma}")
    df = n - 2 - w
    if df <= 0:
        raise NonPositiveDfError(f"nonpositive degrees of freedom: n={n}, w={w}")
    return (d * d / gamma) / df


def f_stat(f_squared: float, u: int, v: int) -> float:
    """F statistic from f-squared: F = f^2 * v / u. With u = 1 the result
    equals the squared t statistic for the same hypothesis."""
    if u < 1 or v < 1:
        raise ValueError(f"u and v must be >= 1, got u={u}, v={v}")
    return f_squared * v / u


def _label(value: float, cuts) -> str:
    for cut, name in cuts:
        if value >= cut:
            return name
    return "negligible"


def magnitude_labels(d: float, f_squared: float) -> tuple[str, str]:
    """Qualitative labels for |d| (cuts 0.2 / 0.5 / 0.8) and f-squared
    (cuts 0.02 / 0.15 / 0.35); each cut is included in the larger label."""
    return _label(abs(d), _D_CUTS), _label(f_squared, _F2_CUTS)


def effect_report(design: PartitionedDesign, fit: PartitionedFit) -> EffectReport:
    """Assemble the full effect-size report for a fitted design.

    d is :func:`cohens_d_adjusted` with -beta1, which equals the adjusted
    mean difference (FWL), as its numerator: fit_fwl takes beta1 from
    differences of group means, which keep their digits under a covariate
    offset that each group's ``mean_adj`` carries.
    """
    g1, g2 = group_summaries(design, fit.delta2_hat)
    require_residual(design)
    d = -fit.beta1 / math.sqrt((g1.ss_adj + g2.ss_adj) / design.df)
    t = t_from_d(d, fit.gamma)
    f2 = f_squared_from_d(d, fit.gamma, design.n, design.w)
    f_value = f_stat(f2, 1, design.df)
    mag_d, mag_f2 = magnitude_labels(d, f2)
    return EffectReport(
        d=d,
        t=t,
        f_squared=f2,
        f_stat=f_value,
        gamma=fit.gamma,
        df=design.df,
        w=design.w,
        u=1,
        v=design.df,
        p_value=t_two_sided_p(t, design.df),
        magnitude_d=mag_d,
        magnitude_f2=mag_f2,
        groups=(g1, g2),
    )
