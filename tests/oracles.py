"""Explicit n x n matrix forms of the partitioned-regression algebra.

The library never builds these matrices: its fit works from group means and
a small triangular factor. The tests build them here on purpose, straight
from the textbook formulas, so that the factored computation is checked
against an independent route.
"""

import numpy as np

from groupeffect import linalg
from groupeffect.errors import (
    DimensionMismatchError,
    NonSquareError,
    NotPositiveDefiniteError,
)


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
