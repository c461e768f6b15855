"""Student-t and F tail probabilities via the regularized incomplete beta.

The incomplete beta function is evaluated with the standard continued
fraction (modified Lentz recurrence) and the log-gamma prefactor from the
standard library, so p-values need no external dependency. Accuracy is far
beyond reporting needs for the degrees of freedom this package sees (up to
a few thousand).
"""

from __future__ import annotations

import math

from .errors import NonConvergenceError

__all__ = [
    "regularized_incomplete_beta",
    "t_two_sided_p",
    "f_upper_p",
]

_MAX_ITER = 300
_CF_TOL = 1e-14


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by the modified Lentz
    method. Valid (and fast) for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction did not converge in {_MAX_ITER} "
        f"iterations (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function.

    Parameters
    ----------
    a, b : float, both > 0
    x : float in [0, 1]

    Uses the symmetry I_x(a, b) = 1 - I_(1-x)(b, a) so the continued
    fraction is always evaluated in its fast-converging regime.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability P(|T| >= |t|) for a central t variable
    with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    x = df / (df + float(t) * float(t))
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def f_upper_p(f_value: float, df1: int, df2: int) -> float:
    """Upper tail probability P(F >= f) for a central F variable with
    (df1, df2) degrees of freedom. For df1 = 1 this equals the two-sided
    t probability at sqrt(f)."""
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if f_value < 0.0:
        raise ValueError(f"F statistic must be nonnegative, got {f_value}")
    x = df2 / (df2 + df1 * float(f_value))
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)
