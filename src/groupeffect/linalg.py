"""Minimal dense linear algebra for partitioned least squares.

Everything here works on plain float64 numpy arrays: matrices are 2-D,
vectors are 1-D. Least-squares solves go through Householder QR (never the
normal equations) with an explicit rank check on the diagonal of R.

The production path does not use this module. Its remaining callers in
the package are ``Dataset``, which checks its columns once with
:func:`as_vector` when it is made, and ``regression.fit_monolithic``, the
cross-check fit, which solves through :func:`qr_least_squares`; the
benchmark's tracer also wraps names here. :func:`projector` (an explicit
n x n matrix) and :func:`require_full_column_rank` have no caller in the
package: the regression design applies the same diagonal rule to the R
factor it already has, in its own loop.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError

__all__ = [
    "as_matrix",
    "as_vector",
    "qr_least_squares",
    "projector",
    "require_full_column_rank",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite float64 2-D array."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return ``a`` as a finite float64 1-D array."""
    v = np.asarray(a, dtype=float)
    if v.ndim == 2 and v.shape[1] == 1:
        v = v.ravel()
    if v.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def _check_r_diagonal(r: np.ndarray, n_rows: int, scale=None) -> None:
    """Raise RankDeficientError at the first negligible diagonal entry of R.

    A column counts as dependent when |R_ii| <= max(n, k) * eps * scale,
    where scale is by default the largest absolute entry of R. The largest
    entry (not the largest diagonal entry) is the right yardstick: a
    dependent column of large norm leaves its scale in the off-diagonal
    part of R while its diagonal collapses to rounding noise. A caller
    whose R comes from transformed columns passes the scale of the columns
    before the transform, per column or as one number, because the
    transform's rounding is relative to that.
    """
    diag = np.abs(np.diag(r))
    k = diag.size
    if scale is None:
        scale = np.abs(r).max() if r.size else 0.0
    tol = max(n_rows, k) * np.finfo(float).eps * scale
    small = np.where(diag <= tol)[0]
    if small.size:
        raise RankDeficientError(int(small[0]))


def require_full_column_rank(a) -> None:
    """Raise RankDeficientError(column) unless ``a`` has full column rank."""
    m = as_matrix(a)
    n, k = m.shape
    if n < k:
        raise RankDeficientError(n, f"only {n} rows for {k} columns")
    r = np.linalg.qr(m, mode="r")
    _check_r_diagonal(r, n)


def qr_least_squares(a, b) -> np.ndarray:
    """Solve min ||b - A x||_2 for A with full column rank.

    Parameters
    ----------
    a : (n, k) array_like, n >= k, full column rank (checked, not assumed)
    b : (n,) array_like

    Returns
    -------
    (k,) ndarray, the unique least-squares solution.
    """
    m = as_matrix(a, "A")
    rhs = as_vector(b, "b")
    n, k = m.shape
    if rhs.shape[0] != n:
        raise DimensionMismatchError(
            f"A has {n} rows but b has {rhs.shape[0]} entries"
        )
    if n < k:
        raise RankDeficientError(n, f"only {n} rows for {k} columns")
    q, r = np.linalg.qr(m, mode="reduced")
    _check_r_diagonal(r, n)
    return np.linalg.solve(r, q.T @ rhs)


def projector(a) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``.

    Returns the explicit n x n matrix A (A'A)^-1 A', computed as Q Q' from a
    reduced QR factorization so it is symmetric and idempotent by
    construction. Callers form I_n - P for annihilators.
    """
    m = as_matrix(a, "A")
    n, k = m.shape
    if n < k:
        raise RankDeficientError(n, f"only {n} rows for {k} columns")
    q, r = np.linalg.qr(m, mode="reduced")
    _check_r_diagonal(r, n)
    return q @ q.T
