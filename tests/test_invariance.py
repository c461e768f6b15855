"""Invariance of the reported numbers under location shifts, positive
rescaling, label swaps and row permutations.

The first block pins the defects of a fit that cancelled raw quadratic
forms (R^2 drifting under a shift of y, gamma and t drifting under a large
covariate offset). The second block checks the same invariances as
properties over generated designs, for both fit routes.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupeffect import (
    Dataset,
    build_design,
    effect_report,
    fit_fwl,
    fit_monolithic,
    standard_errors,
)
from groupeffect.cli import main
from groupeffect.errors import RankDeficientDesignError, RankDeficientError

from conftest import FITTERS, make_dataset


def offset_dataset(y_shift=0.0, covariate_shift=None):
    """Fixed design: n=300, w=3, covariates on 10-100 scales."""
    rng = np.random.default_rng(2024)
    n = 300
    z = np.array([0.0] * 140 + [1.0] * 160)
    rng.shuffle(z)
    x = rng.standard_normal((n, 3)) * [10.0, 40.0, 100.0] + [50.0, 20.0, 100.0]
    y = 3.0 + 0.8 * z + x @ [0.05, -0.02, 0.01] + rng.standard_normal(n)
    if covariate_shift is not None:
        column, offset = covariate_shift
        x[:, column] += offset
    return Dataset(
        response=y + y_shift,
        group_labels=tuple("ab"[int(v)] for v in z),
        covariates=tuple((f"x{j + 1}", x[:, j]) for j in range(3)),
    )


def effect_json(ds, tmp_path, capsys):
    path = tmp_path / "data.csv"
    cols = [ds.response] + [col for _, col in ds.covariates]
    lines = ["g;y;x1;x2;x3"] + [
        ";".join([label] + [format(float(c[i]), ".17f") for c in cols])
        for i, label in enumerate(ds.group_labels)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["effect", "--data", str(path), "--response", "y", "--group", "g",
                 "--covariates", "x1,x2,x3", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


class TestShiftRegressions:
    @pytest.mark.parametrize("shift, r2_tol, d_rtol", [(1e6, 1e-9, 1e-9), (1e8, 1e-7, 1e-7)])
    def test_response_shift_leaves_r_squared_and_d(self, shift, r2_tol, d_rtol,
                                                    tmp_path, capsys):
        base = effect_json(offset_dataset(), tmp_path, capsys)
        shifted = effect_json(offset_dataset(y_shift=shift), tmp_path, capsys)
        for key in ("r_squared", "r0_squared"):
            assert abs(shifted["coefficients"][key] - base["coefficients"][key]) < r2_tol
        assert shifted["effect"]["d"] == pytest.approx(base["effect"]["d"], rel=d_rtol)
        routes, base_routes = shifted["effect"]["d_routes"], base["effect"]["d_routes"]
        assert abs(routes["from_f_squared"] - base_routes["from_f_squared"]) < r2_tol

    @pytest.mark.parametrize("fitter", FITTERS)
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_large_covariate_offset(self, fitter, column):
        base_ds = offset_dataset()
        base = effect_report(build_design(base_ds), fitter(base_ds))
        ds = offset_dataset(covariate_shift=(column, 1e9))
        report = effect_report(build_design(ds), fitter(ds))
        assert report.d == pytest.approx(base.d, rel=1e-6)
        assert report.t == pytest.approx(base.t, rel=1e-6)
        assert report.gamma == pytest.approx(base.gamma, rel=1e-6)


def two_group_dataset(covariates, n=2000):
    """n rows, about 40% in group b; y depends on the first covariate."""
    rng = np.random.default_rng(77)
    z = rng.uniform(size=n) < 0.4
    y = 2.0 + 0.5 * z + 0.7 * covariates[0][1] + rng.standard_normal(n)
    return Dataset(response=y, group_labels=tuple("ab"[int(v)] for v in z),
                   covariates=tuple(covariates))


def on_1e13_grid(n=2000):
    """Unit-spread values rounded to the spacing of floats near 1e13, so
    that adding 1e13 to them is exact."""
    return (np.random.default_rng(78).standard_normal(n) + 1e13) - 1e13


class TestRankCheckOffsets:
    def test_exact_1e13_offset_is_full_rank(self):
        x, other = on_1e13_grid(), np.random.default_rng(79).standard_normal(2000)
        base_ds = two_group_dataset([("x", x), ("other", other)])
        shifted_ds = replace(base_ds, covariates=(("x", x + 1e13), ("other", other)))
        results = []
        for ds in (base_ds, shifted_ds):
            design = build_design(ds)
            fit = fit_fwl(design)
            se = standard_errors(design, fit)
            results.append((fit, effect_report(design, fit), se))
        (base, base_report, base_se), (fit, report, se) = results
        # everything read off R and the group mean differences is offset-free
        assert fit.gamma == pytest.approx(base.gamma, rel=1e-9)
        np.testing.assert_allclose(fit.delta2_hat, base.delta2_hat, rtol=1e-9)
        np.testing.assert_allclose(se[1:], base_se[1:], rtol=1e-9)
        assert fit.r_squared == pytest.approx(base.r_squared, abs=1e-9)
        assert fit.r0_squared == pytest.approx(base.r0_squared, abs=1e-9)
        # the adjusted response y - X2 d2 itself rounds at about eps * 1e13
        # per row, against a unit noise scale
        assert report.d == pytest.approx(base_report.d, abs=10 * np.finfo(float).eps * 1e13)

    def test_fit_monolithic_rejects_1e13_offset_in_its_own_solve(self):
        # its least-squares solve checks the rank of the uncentered design,
        # where the offset column swamps the intercept
        ds = two_group_dataset([("x", on_1e13_grid() + 1e13)])
        build_design(ds)
        with pytest.raises(RankDeficientError) as err:
            fit_monolithic(ds)
        assert err.value.column == 0

    def test_offset_multiple_of_a_covariate_is_caught(self):
        # the group means of 3 x + 1e6 round at the scale of 1e6 unless the
        # offset is taken out first; the residue would then pass the check
        x = np.random.default_rng(80).integers(0, 20, size=2000).astype(float)
        with pytest.raises(RankDeficientDesignError) as err:
            build_design(two_group_dataset([("x", x), ("x3", 3.0 * x + 1e6)]))
        assert err.value.column == "x3"

    @pytest.mark.parametrize("n1", [2, 5, 37])
    def test_group_constant_covariate_is_caught(self, n1):
        # centering 0.3 - 0.1 by its rounded group mean can leave a residue
        # of about one ulp, far below the column's own scale
        rng = np.random.default_rng(81)
        for n2 in range(2, 200):
            x = np.array([0.1] * n1 + [0.3] * n2)
            ds = Dataset(response=rng.standard_normal(n1 + n2),
                         group_labels=("a",) * n1 + ("b",) * n2,
                         covariates=(("x", x),))
            with pytest.raises(RankDeficientDesignError) as err:
                build_design(ds)
            assert err.value.column == "x"


def summarize(ds, fitter, reference_level=None):
    design = build_design(ds, reference_level=reference_level)
    fit = fitter(ds, reference_level)
    report = effect_report(design, fit)
    return {"d": report.d, "t": report.t, "gamma": report.gamma,
            "r2": fit.r_squared, "r02": fit.r0_squared,
            "delta1": fit.delta1_hat, "delta2": fit.delta2_hat}


def rounding_floor(shift, scale):
    """Absolute error that rounding the transformed data alone can cause,
    in units of the untransformed data, with a safety factor of 100."""
    return 100 * np.finfo(float).eps * (1.0 + abs(shift) / scale)


def assert_invariants(got, want, sign=1.0, floor=1e-12):
    """d and t (up to ``sign``), gamma, R^2 and R0^2 unchanged."""
    assert got["d"] == pytest.approx(sign * want["d"], rel=1e-8, abs=floor)
    assert got["t"] == pytest.approx(sign * want["t"], rel=1e-8, abs=floor)
    assert got["gamma"] == pytest.approx(want["gamma"], rel=1e-10)
    assert got["r2"] == pytest.approx(want["r2"], abs=1e-9)
    assert got["r02"] == pytest.approx(want["r02"], abs=1e-9)


def log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
base_datasets = st.builds(
    lambda seed, n, w: make_dataset(np.random.default_rng(seed), n=n, w=w),
    st.integers(0, 2**32 - 1), st.integers(10, 120), st.integers(0, 4),
)


@pytest.mark.parametrize("fitter", FITTERS)
class TestProperties:
    @PROPERTY
    @given(ds=base_datasets, scale=log_uniform(-2, 2),
           shift=st.floats(min_value=-1e4, max_value=1e4))
    def test_response_affine(self, fitter, ds, scale, shift):
        base = summarize(ds, fitter)
        got = summarize(replace(ds, response=scale * ds.response + shift), fitter)
        floor = rounding_floor(shift, scale)
        assert_invariants(got, base, floor=floor)
        np.testing.assert_allclose(got["delta2"] / scale, base["delta2"],
                                   rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(got["delta1"][1] / scale, base["delta1"][1],
                                   rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose((got["delta1"][0] - shift) / scale, base["delta1"][0],
                                   rtol=1e-8, atol=floor)

    @PROPERTY
    @given(ds=base_datasets.filter(lambda ds: ds.n_covariates > 0),
           column=st.integers(0, 3), scale=log_uniform(-2, 2),
           shift=st.floats(min_value=-1e4, max_value=1e4))
    def test_covariate_affine(self, fitter, ds, column, scale, shift):
        column %= ds.n_covariates
        covs = list(ds.covariates)
        name, values = covs[column]
        covs[column] = (name, scale * values + shift)
        base = summarize(ds, fitter)
        got = summarize(replace(ds, covariates=tuple(covs)), fitter)
        floor = rounding_floor(shift, scale)
        assert_invariants(got, base, floor=floor)
        expected2 = base["delta2"].copy()
        expected2[column] /= scale
        np.testing.assert_allclose(got["delta2"], expected2, rtol=1e-8, atol=1e-9)
        expected1 = base["delta1"] - [expected2[column] * shift, 0.0]
        np.testing.assert_allclose(got["delta1"], expected1, rtol=1e-8, atol=floor)

    @PROPERTY
    @given(ds=base_datasets)
    def test_label_swap(self, fitter, ds):
        base = summarize(ds, fitter)
        got = summarize(ds, fitter, reference_level="b")
        assert_invariants(got, base, sign=-1.0)
        b0, b1 = base["delta1"]
        np.testing.assert_allclose(got["delta1"], [b0 + b1, -b1], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got["delta2"], base["delta2"], rtol=1e-9, atol=1e-9)

    @PROPERTY
    @given(ds=base_datasets, perm_seed=st.integers(0, 2**32 - 1))
    def test_row_permutation(self, fitter, ds, perm_seed):
        perm = np.random.default_rng(perm_seed).permutation(ds.n_rows)
        permuted = replace(
            ds,
            response=ds.response[perm],
            group_labels=tuple(ds.group_labels[i] for i in perm),
            covariates=tuple((name, col[perm]) for name, col in ds.covariates),
        )
        base = summarize(ds, fitter)
        got = summarize(permuted, fitter)
        assert_invariants(got, base)
        for key in ("delta1", "delta2"):
            np.testing.assert_allclose(got[key], base[key], rtol=1e-9, atol=1e-9)
