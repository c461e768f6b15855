"""Explicit n x n matrix and residual forms of the partitioned-regression
algebra.

The library never builds these: its fit, report and standard errors work
from per-group means and small triangular factors. The tests build them here
on purpose, straight from the textbook formulas, so that the factored
computation is checked against an independent route.
"""

import numpy as np

from groupeffect import linalg
from groupeffect.errors import (
    DimensionMismatchError,
    NonPositiveDfError,
    NonSquareError,
    NotPositiveDefiniteError,
)
from groupeffect.regression import GroupSummary


def _group_stats(design, v: np.ndarray):
    """Per-group (mean, centered SS) of a vector in design row order."""
    out = []
    for sl in (slice(0, design.n1), slice(design.n1, design.n)):
        part = v[sl]
        mean = float(part.mean())
        out.append((mean, float(np.sum((part - mean) ** 2))))
    return out


def group_summaries(design, y_star) -> tuple[GroupSummary, GroupSummary]:
    """Means and centered sums of squares per group of the raw response and
    of an adjusted response ``y_star`` (such as y - X2 delta2), each by a
    pass over its n rows."""
    y_star = linalg.as_vector(y_star, "y_star")
    raw = _group_stats(design, design.y)
    adj = _group_stats(design, y_star)
    sizes = (design.n1, design.n2)
    return tuple(
        GroupSummary(n_rows=sizes[j], mean_raw=raw[j][0], ss_raw=raw[j][1],
                     mean_adj=adj[j][0], ss_adj=adj[j][1])
        for j in (0, 1)
    )


def sigma2_hat(design, delta2_hat) -> float:
    """Unbiased error-variance estimate given fitted covariate coefficients.

    Equals r' M1 r / (n - 2 - w) with r = y - X2 d2_hat, evaluated here as
    the pooled within-group centered sum of squares of r (the two forms are
    algebraically identical). The fitters take sigma^2 from R instead; this
    residual form cross-checks it.
    """
    if design.df <= 0:
        raise NonPositiveDfError(
            f"no residual degrees of freedom (n={design.n}, w={design.w})"
        )
    delta2_hat = np.asarray(delta2_hat, dtype=float)
    r = design.y - design.x2 @ delta2_hat
    (_, ss1), (_, ss2) = _group_stats(design, r)
    return (ss1 + ss2) / design.df


def delta1_from_adjusted(design, y_star) -> np.ndarray:
    """Recover (intercept, group coefficient) by regressing the adjusted
    response on X1 alone; equals the full-design estimates."""
    return linalg.qr_least_squares(design.x1, y_star)


def annihilator_group(design) -> np.ndarray:
    """I_n minus the projector onto the intercept+dummy columns.

    Applying this matrix centers a vector within each group; it is block
    diagonal with blocks I - ones/n_j when rows are group-sorted.
    """
    n = design.n
    return np.eye(n) - linalg.projector(design.x1)


def annihilator_covariates(design) -> np.ndarray:
    """I_n minus the projector onto the covariate columns (identity if w=0)."""
    n = design.n
    if design.w == 0:
        return np.eye(n)
    return np.eye(n) - linalg.projector(design.x2)


def delta1_scaled_covariance(design) -> np.ndarray:
    """Inverse of X1' M2 X1: the covariance of the (intercept, group)
    estimates divided by the error variance.

    Its lower-right element is gamma, the scale factor in
    Var(beta1_hat) = sigma^2 * gamma.
    """
    m2 = annihilator_covariates(design)
    s = design.x1.T @ m2 @ design.x1
    s = (s + s.T) / 2.0  # symmetrize away rounding
    return sym_inverse_2x2(s)


def residual_quadratic_matrix(design) -> np.ndarray:
    """The symmetric idempotent L with y'Ly = residual sum of squares.

    L = M1 - M1 X2 (X2' M1 X2)^-1 X2' M1; it annihilates both X1 and X2 and
    has trace n - 2 - w.
    """
    m1 = annihilator_group(design)
    if design.w == 0:
        return m1
    b = m1 @ design.x2
    g = design.x2.T @ b
    return m1 - b @ np.linalg.solve(g, b.T)


def sym_inverse_2x2(s) -> np.ndarray:
    """Inverse of a symmetric positive definite 2x2 matrix, in closed form."""
    m = linalg.as_matrix(s, "S")
    if m.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 matrix, got {m.shape}")
    if abs(m[0, 1] - m[1, 0]) > 1e-8 * max(1.0, np.abs(m).max()):
        raise ValueError("matrix is not symmetric")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det <= 0.0 or m[0, 0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (det={det:.6g}, s11={m[0, 0]:.6g})"
        )
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def sym_inverse_2x2_lower_right(s) -> float:
    """Element (2, 2) of the inverse of a symmetric positive definite 2x2
    matrix, i.e. S_11 / det(S)."""
    return float(sym_inverse_2x2(s)[1, 1])


def trace(a) -> float:
    """Sum of the diagonal entries of a square matrix."""
    m = linalg.as_matrix(a, "A")
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"trace needs a square matrix, got {m.shape}")
    return float(np.trace(m))


def standard_errors_qr(design, fit) -> np.ndarray:
    """Standard errors of all 2 + w coefficients from the full n-row design:
    sigma times the square roots of the diagonal of (X'X)^-1, read off the
    inverse of its R factor."""
    x = np.hstack([design.x1, design.x2])
    r = np.linalg.qr(x, mode="r")
    rinv = np.linalg.inv(r)
    diag = np.sum(rinv**2, axis=1)  # diagonal of (X'X)^-1
    return np.sqrt(fit.sigma2_hat * diag)
