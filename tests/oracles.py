"""Explicit n x n matrix and residual forms of the partitioned-regression
algebra.

The library never builds these: its design holds only per-group means and
small factors, and its fit, report and standard errors read those. The
tests build them here on purpose, straight from the textbook formulas and
from the dataset's own rows (see :func:`design_rows`), so that the
factored computation is checked against an independent route. The
residual forms work in exact integer arithmetic and round only their
results, so their own error stays far below the tolerances they are
checked at, whatever offset the covariates carry.
"""

import operator

import numpy as np

from groupeffect import linalg
from groupeffect.errors import DimensionMismatchError, NonPositiveDfError, NumericError
from groupeffect.regression import GroupSummary


class NonSquareError(NumericError):
    pass


class NotPositiveDefiniteError(NumericError):
    pass


def design_rows(ds, design):
    """X2 and y of a dataset in its design's row order: group 1's rows
    first, then group 2's, each group's in file order."""
    in_group2 = [label == design.group_labels[1] for label in ds.group_labels]
    order = np.argsort(in_group2, kind="stable")
    x2 = np.reshape([col for _, col in ds.covariates], (design.w, ds.n_rows)).T
    return x2[order], ds.response[order]


def _exact(values):
    """Integers k_i and one power of two q with values_i == k_i / q."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    ratios = [v.as_integer_ratio() for v in values]
    q = max((d for _, d in ratios), default=1)
    return [p * (q // d) for p, d in ratios], q


def _residuals(x2, y, delta2):
    """y - x2 delta2 per row, exactly: integer numerators over one
    power-of-two denominator."""
    w = x2.shape[1]
    yk, qy = _exact(y)
    xk, qx = _exact(x2)
    dk, qd = _exact(delta2)
    q = max(qy, qx * qd)
    fitted = (sum(map(operator.mul, xk[i * w:(i + 1) * w], dk)) for i in range(len(yk)))
    return [a * (q // qy) - b * (q // (qx * qd)) for a, b in zip(yk, fitted)], q


def _group_stats(design, numerators, q):
    """Per-group (mean, centered SS) of the values numerators / q in design
    row order, in exact arithmetic; each result is rounded once (a quotient
    of Python ints is correctly rounded)."""
    out = []
    for part in (numerators[:design.n1], numerators[design.n1:]):
        m, total = len(part), sum(part)
        ss = sum((m * k - total) ** 2 for k in part)
        out.append((total / (m * q), ss / (m * m * q * q)))
    return out


def group_summaries(ds, design, delta2) -> tuple[GroupSummary, GroupSummary]:
    """Means and centered sums of squares per group of the raw response and
    of the adjusted response y - X2 delta2, each by a pass over the n rows
    of ``ds`` in exact arithmetic."""
    x2, y = design_rows(ds, design)
    raw = _group_stats(design, *_exact(y))
    adj = _group_stats(design, *_residuals(x2, y, delta2))
    sizes = (design.n1, design.n2)
    return tuple(
        GroupSummary(n_rows=sizes[j], mean_raw=raw[j][0], ss_raw=raw[j][1],
                     mean_adj=adj[j][0], ss_adj=adj[j][1])
        for j in (0, 1)
    )


def sigma2_hat(ds, design, delta2_hat) -> float:
    """Unbiased error-variance estimate given fitted covariate coefficients.

    Equals r' M1 r / (n - 2 - w) with r = y - X2 d2_hat, evaluated here as
    the pooled within-group centered sum of squares of r over the rows of
    ``ds``, in exact arithmetic (the two forms are algebraically
    identical). The fitters take sigma^2 from R instead; this residual form
    cross-checks it.
    """
    if design.df <= 0:
        raise NonPositiveDfError(
            f"no residual degrees of freedom (n={design.n}, w={design.w})"
        )
    x2, y = design_rows(ds, design)
    (_, ss1), (_, ss2) = _group_stats(design, *_residuals(x2, y, delta2_hat))
    return (ss1 + ss2) / design.df


def group_block(design) -> np.ndarray:
    """X1 of the design: the intercept and the group dummy, [1 | dummy],
    with group 1's n1 rows first (dummy 0) and group 2's n2 rows last."""
    return np.column_stack([np.ones(design.n), np.r_[np.zeros(design.n1), np.ones(design.n2)]])


def delta1_from_adjusted(design, y_star) -> np.ndarray:
    """Recover (intercept, group coefficient) by regressing the adjusted
    response on X1 alone; equals the full-design estimates."""
    return linalg.qr_least_squares(group_block(design), y_star)


def annihilator_group(design) -> np.ndarray:
    """I_n minus the projector onto the intercept+dummy columns.

    Applying this matrix centers a vector within each group; it is block
    diagonal with blocks I - ones/n_j when rows are group-sorted.
    """
    n = design.n
    return np.eye(n) - linalg.projector(group_block(design))


def annihilator_covariates(ds, design) -> np.ndarray:
    """I_n minus the projector onto the covariate columns (identity if w=0)."""
    n = design.n
    if design.w == 0:
        return np.eye(n)
    return np.eye(n) - linalg.projector(design_rows(ds, design)[0])


def delta1_scaled_covariance(ds, design) -> np.ndarray:
    """Inverse of X1' M2 X1: the covariance of the (intercept, group)
    estimates divided by the error variance.

    Its lower-right element is gamma, the scale factor in
    Var(beta1_hat) = sigma^2 * gamma.
    """
    m2 = annihilator_covariates(ds, design)
    x1 = group_block(design)
    s = x1.T @ m2 @ x1
    s = (s + s.T) / 2.0  # symmetrize away rounding
    return sym_inverse_2x2(s)


def residual_quadratic_matrix(ds, design) -> np.ndarray:
    """The symmetric idempotent L with y'Ly = residual sum of squares.

    L = M1 - M1 X2 (X2' M1 X2)^-1 X2' M1; it annihilates both X1 and X2 and
    has trace n - 2 - w.
    """
    m1 = annihilator_group(design)
    if design.w == 0:
        return m1
    x2, _ = design_rows(ds, design)
    b = m1 @ x2
    g = x2.T @ b
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


def standard_errors_qr(ds, design, fit) -> np.ndarray:
    """Standard errors of all 2 + w coefficients from the full n-row design:
    sigma times the square roots of the diagonal of (X'X)^-1, read off the
    inverse of its R factor."""
    x = np.hstack([group_block(design), design_rows(ds, design)[0]])
    r = np.linalg.qr(x, mode="r")
    rinv = np.linalg.inv(r)
    diag = np.sum(rinv**2, axis=1)  # diagonal of (X'X)^-1
    return np.sqrt(fit.sigma2_hat * diag)
