import gc
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from groupeffect import Dataset, build_design, fit_fwl, fit_monolithic

DATA_DIR = Path(__file__).parent / "data"


def student_csv_path() -> Path:
    """The 649-row student dataset used by the reproduction tests.

    Honors STUDENT_POR_CSV so the original UCI student-por.csv can be
    substituted; otherwise uses the bundled fixture, which carries the same
    sufficient statistics for the analyzed columns (see tests/data/README.md).
    """
    env = os.environ.get("STUDENT_POR_CSV")
    if env and Path(env).exists():
        return Path(env)
    return DATA_DIR / "student_por_649.csv"


@pytest.fixture(scope="session")
def student_csv() -> Path:
    return student_csv_path()


def traced_peak(fn):
    """(fn(), peak, kept): the largest traced memory while ``fn`` ran and
    what it left allocated, both in bytes above the traced memory after a
    gc.collect. This is how bench/run.py measures an op's peak."""
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, kept - before


def make_dataset(rng, n=None, w=None, noise=1.0, beta1=1.0, shuffle=True):
    """Well-conditioned random dataset: standard-normal covariates, O(1)
    coefficients, gaussian noise, labels interleaved in file order."""
    if n is None:
        n = int(rng.integers(10, 201))
    if w is None:
        w = int(rng.integers(0, 6))
    n = max(n, w + 6)
    n1 = int(rng.integers(2, n - 1))
    n2 = n - n1
    z = np.array([0.0] * n1 + [1.0] * n2)
    if shuffle:
        rng.shuffle(z)
    x2 = rng.standard_normal((n, w))
    coef = rng.uniform(-2.0, 2.0, size=w)
    y = 1.5 + beta1 * z + x2 @ coef + noise * rng.standard_normal(n)
    labels = tuple("a" if v == 0.0 else "b" for v in z)
    return Dataset(
        response=y,
        group_labels=labels,
        covariates=tuple((f"x{j + 1}", x2[:, j]) for j in range(w)),
        source="synthetic",
    )


def make_design(rng, n=None, w=None, noise=1.0, beta1=1.0):
    return build_design(make_dataset(rng, n=n, w=w, noise=noise, beta1=beta1))


def make_case(rng, n=None, w=None):
    """A random dataset (as ``make_dataset``) and its design."""
    ds = make_dataset(rng, n=n, w=w)
    return ds, build_design(ds)


def fwl(ds, reference_level=None):
    """``fit_fwl`` called as ``fit_monolithic`` is: on a dataset."""
    return fit_fwl(build_design(ds, reference_level))


# both fit routes, each called as fitter(ds, reference_level=None)
FITTERS = [pytest.param(fwl, id="fit_fwl"), fit_monolithic]


# --- independent oracles ---

def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _det4(m):
    total = 0.0
    for j in range(4):
        minor = [[m[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        total += (-1) ** j * m[0][j] * _det3(minor)
    return total


def cramer_least_squares(a, b):
    """Brute-force least squares: form the normal equations and solve them by
    Cramer's rule with explicit determinant expansions (k <= 4).

    Deliberately independent of the QR solve path it cross-checks.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    g = (a.T @ a).tolist()
    c = (a.T @ b).tolist()
    k = len(g)
    det = {2: _det2, 3: _det3, 4: _det4}[k]
    d0 = det(g)
    out = []
    for i in range(k):
        gi = [row[:] for row in g]
        for r in range(k):
            gi[r][i] = c[r]
        out.append(det(gi) / d0)
    return np.array(out)
