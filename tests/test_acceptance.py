"""End-to-end acceptance suite.

Each test covers one exit criterion at its stated tolerance; run with
``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Reference values for the student dataset are the ones produced
by R (lm, t.test and effectsize::cohens_d) on the same analysis.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from groupeffect import (
    Dataset,
    build_design,
    cohens_d_adjusted,
    d_from_beta,
    effect_report,
    f_squared_from_d,
    f_squared_from_r2,
    f_upper_p,
    fit_fwl,
    fit_monolithic,
    load_csv,
    standard_errors,
    t_from_d,
    t_two_sided_p,
)
from groupeffect.linalg import qr_least_squares

from conftest import make_case, make_design, student_csv_path
from oracles import (
    annihilator_group,
    delta1_from_adjusted,
    delta1_scaled_covariance,
    design_rows,
    group_block,
    group_summaries,
    residual_quadratic_matrix,
    sigma2_hat,
)

# Reference values computed with R on the student dataset (n = 649,
# response G3, groups sex with F first, covariates Fedu and traveltime).
REF = {
    "n1": 383,
    "n2": 266,
    "mean_group1": 12.25326,
    "mean_group2": 11.40602,
    "t_classic": 3.310938,
    "p_classic": 0.0009815287,
    "d_classic": 0.264261,
    # coefficient table: estimate, std. error, t value (p handled separately)
    "table": {
        "(intercept)": (11.4138, 0.4306, 26.507),
        "group[M]": (-0.9406, 0.2503, -3.759),
        "Fedu": (0.6096, 0.1144, 5.329),
        "traveltime": (-0.3369, 0.1676, -2.010),
    },
    "p_group": 0.000186,
    "p_fedu": 1.37e-07,
    "p_travel": 0.044826,
    "r_squared": 0.07238847,
    "r0_squared": 0.05207054,
    "f_squared": 0.0219035,
    "gamma": 0.006438624,
    "gamma_offdiag": -0.001591796,
    "gamma_topleft": 0.019062813,
    "sigma": 3.118756,
    "d_adjusted": 0.3016013,
}


def relclose(got, want, rel=1e-6):
    assert got == pytest.approx(want, rel=rel), f"{got} != {want} (rel {rel})"


def test_student_classic_analysis_reproduces_reference_values():
    """Two-group analysis without covariates: group means, t, p and d."""
    start = time.perf_counter()
    ds = load_csv(student_csv_path(), response_col="G3", group_col="sex")
    design = build_design(ds)
    fit = fit_fwl(design)
    report = effect_report(design, fit)
    elapsed = time.perf_counter() - start

    assert (design.n1, design.n2) == (REF["n1"], REF["n2"])
    # the report's summaries and their residual form over the n rows
    for g1, g2 in (report.groups,
                   group_summaries(ds, design, fit.delta2_hat)):
        relclose(g1.mean_raw, REF["mean_group1"])
        relclose(g2.mean_raw, REF["mean_group2"])
    relclose(report.t, REF["t_classic"])
    relclose(report.p_value, REF["p_classic"])
    relclose(report.d, REF["d_classic"])
    assert elapsed < 1.0, f"classic analysis took {elapsed:.3f}s"


def test_student_adjusted_analysis_reproduces_reference_values():
    """Analysis with the two covariates: full coefficient table at printed
    precision plus R^2, f^2, the scaled covariance matrix, sigma and d."""
    start = time.perf_counter()
    ds = load_csv(student_csv_path(), response_col="G3", group_col="sex",
                  covariate_cols=["Fedu", "traveltime"])
    design = build_design(ds)
    fit = fit_monolithic(ds)
    report = effect_report(design, fit)
    elapsed = time.perf_counter() - start

    names = ["(intercept)", "group[M]", "Fedu", "traveltime"]
    estimates = np.concatenate([fit.delta1_hat, fit.delta2_hat])
    ses = standard_errors(design, fit)
    tvals = estimates / ses
    for name, est, se, tv in zip(names, estimates, ses, tvals):
        ref_est, ref_se, ref_t = REF["table"][name]
        assert abs(est - ref_est) < 5e-5, f"{name} estimate {est} vs {ref_est}"
        assert abs(se - ref_se) < 5e-5, f"{name} std.error {se} vs {ref_se}"
        assert abs(tv - ref_t) < 5e-4, f"{name} t value {tv} vs {ref_t}"
    pvals = [t_two_sided_p(float(tv), design.df) for tv in tvals]
    assert pvals[0] < 2e-16
    relclose(pvals[1], REF["p_group"], rel=5e-3)
    relclose(pvals[2], REF["p_fedu"], rel=5e-3)
    relclose(pvals[3], REF["p_travel"], rel=5e-3)

    relclose(fit.r_squared, REF["r_squared"])
    relclose(fit.r0_squared, REF["r0_squared"])
    relclose(report.f_squared, REF["f_squared"])
    cov = delta1_scaled_covariance(ds, design)
    relclose(cov[1, 1], REF["gamma"])
    relclose(cov[0, 1], REF["gamma_offdiag"])
    relclose(cov[0, 0], REF["gamma_topleft"])
    relclose(math.sqrt(fit.sigma2_hat), REF["sigma"])
    relclose(report.d, REF["d_adjusted"])
    assert elapsed < 1.0, f"adjusted analysis took {elapsed:.3f}s"


def test_partialled_and_monolithic_fits_agree_on_random_designs():
    """200 random well-conditioned designs: both fit routes and the
    back-substitution recovery give the same coefficients to 1e-9."""
    rng = np.random.default_rng(3003)
    for _ in range(200):
        ds, design = make_case(rng, n=int(rng.integers(10, 201)),
                               w=int(rng.integers(0, 6)))
        fwl = fit_fwl(design)
        mono = fit_monolithic(ds)
        c_fwl = np.concatenate([fwl.delta1_hat, fwl.delta2_hat])
        c_mono = np.concatenate([mono.delta1_hat, mono.delta2_hat])
        np.testing.assert_allclose(c_fwl, c_mono, rtol=1e-9, atol=1e-12)
        # recovering the first block from the monolithic covariate estimates
        x2, y = design_rows(ds, design)
        y_star = y - x2 @ mono.delta2_hat
        back = delta1_from_adjusted(design, y_star)
        np.testing.assert_allclose(back, mono.delta1_hat, rtol=1e-9, atol=1e-12)


def test_variance_estimator_algebra_and_unbiasedness():
    """(a) the two closed forms of the variance estimator agree and the
    residual quadratic matrix has the advertised algebra on 100 random
    designs; (b) the estimator's mean over 10000 simulations at sigma^2 = 4
    stays within 2%."""
    start = time.perf_counter()
    rng = np.random.default_rng(4004)
    for _ in range(100):
        ds, design = make_case(rng, n=int(rng.integers(10, 80)))
        fit = fit_monolithic(ds)
        m1 = annihilator_group(design)
        x2, y = design_rows(ds, design)
        r = y - x2 @ fit.delta2_hat
        quadratic_form = (r @ m1 @ r) / design.df  # explicit projector route
        pooled = sigma2_hat(ds, design, fit.delta2_hat)  # pooled adjusted-SS route
        assert pooled == pytest.approx(quadratic_form, rel=1e-10)

        ell = residual_quadratic_matrix(ds, design)
        assert round(np.trace(ell)) == design.df
        assert abs(np.trace(ell) - design.df) < 1e-8
        assert np.max(np.abs(ell @ ell - ell)) < 1e-9
        assert np.max(np.abs(ell @ group_block(design))) < 1e-8
        if design.w:
            assert np.max(np.abs(ell @ x2)) < 1e-8

    # (b) unbiasedness at a fixed design; group a's rows come first in the
    # file, so file order is design row order
    sim_rng = np.random.default_rng(4104)
    n, w, n1 = 30, 2, 14
    x2 = sim_rng.standard_normal((n, w))
    base_ds = Dataset(
        response=np.zeros(n) + sim_rng.standard_normal(n),
        group_labels=tuple("a" if i < n1 else "b" for i in range(n)),
        covariates=(("x1", x2[:, 0]), ("x2", x2[:, 1])),
    )
    base = build_design(base_ds)
    x = np.hstack([group_block(base), design_rows(base_ds, base)[0]])
    truth = np.array([1.0, 0.7, -0.4, 1.2])
    sigma = 2.0
    draws = np.empty(10_000)
    for i in range(draws.size):
        y = x @ truth + sigma * sim_rng.standard_normal(n)
        coef = qr_least_squares(x, y)
        draws[i] = sigma2_hat(replace(base_ds, response=y), base, coef[2:])
    assert 3.92 <= draws.mean() <= 4.08, f"mean sigma2_hat = {draws.mean():.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"variance suite took {elapsed:.1f}s"


def test_null_rejection_rate_is_calibrated():
    """20000 simulations with no group effect (n=40, w=2): the two-sided
    5%-level test built from the standardized difference rejects at a rate
    inside [0.045, 0.055]."""
    start = time.perf_counter()
    rng = np.random.default_rng(5005)
    n, w, n1 = 40, 2, 22
    x2 = rng.standard_normal((n, w))
    base_ds = Dataset(
        response=rng.standard_normal(n),
        group_labels=tuple("a" if i < n1 else "b" for i in range(n)),
        covariates=(("x1", x2[:, 0]), ("x2", x2[:, 1])),
    )
    base = build_design(base_ds)  # file order is design row order
    x2 = design_rows(base_ds, base)[0]
    x = np.hstack([group_block(base), x2])
    gamma = float(delta1_scaled_covariance(base_ds, base)[1, 1])
    covariate_effect = np.array([0.5, -1.0])  # group coefficient is zero
    intercept = 2.0
    mean = intercept + x2 @ covariate_effect
    rejections = 0
    n_sims = 20_000
    for _ in range(n_sims):
        y = mean + rng.standard_normal(n)
        coef = qr_least_squares(x, y)
        g1, g2 = group_summaries(replace(base_ds, response=y), base, coef[2:])
        d = cohens_d_adjusted(g1, g2, w)
        t = t_from_d(d, gamma)
        if t_two_sided_p(t, base.df) < 0.05:
            rejections += 1
    rate = rejections / n_sims
    assert 0.045 <= rate <= 0.055, f"rejection rate {rate:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"calibration suite took {elapsed:.1f}s"


def test_conversion_identities_hold_on_fitted_instances():
    """Three routes to |d| agree to 1e-9 relative, t^2 equals F to 1e-9, and
    with no covariates the closed-form f^2 identity holds to 1e-12, on the
    student analyses and on random designs."""
    fitted = []
    for covs in ([], ["Fedu", "traveltime"]):
        ds = load_csv(student_csv_path(), response_col="G3", group_col="sex",
                      covariate_cols=covs)
        design = build_design(ds)
        fitted.append((design, fit_fwl(design)))
    rng = np.random.default_rng(6006)
    for _ in range(60):
        design = make_design(rng)
        fitted.append((design, fit_fwl(design)))

    for design, fit in fitted:
        report = effect_report(design, fit)
        via_beta = d_from_beta(fit.beta1, math.sqrt(fit.sigma2_hat))
        f2_nested = f_squared_from_r2(fit.r_squared, fit.r0_squared)
        via_f2 = math.sqrt(f2_nested * fit.gamma * design.df)
        assert abs(report.d) == pytest.approx(via_beta, rel=1e-9)
        assert abs(report.d) == pytest.approx(via_f2, rel=1e-9)
        assert report.t**2 == pytest.approx(report.f_stat, rel=1e-9)
        if design.w == 0:
            n, n1, n2 = design.n, design.n1, design.n2
            closed_form = report.d**2 * n1 * n2 / (n * (n - 2))
            assert f_squared_from_d(report.d, fit.gamma, n, 0) == pytest.approx(
                closed_form, rel=1e-12
            )


def test_tail_probabilities_match_quadrature():
    """t and F tail probabilities agree with adaptive quadrature of the
    densities to 1e-8 absolute on a 50-point grid including df = 647."""

    def t_tail(t, df):
        ln_norm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
                   - 0.5 * math.log(df * math.pi))

        def density(u):
            return math.exp(ln_norm - (df + 1) / 2.0 * math.log1p(u * u / df))

        value, _ = integrate.quad(density, abs(t), np.inf, limit=400,
                                  epsabs=1e-12, epsrel=1e-12)
        return 2.0 * value

    def f_tail(f_value, df1, df2):
        ln_norm = (math.lgamma((df1 + df2) / 2.0) - math.lgamma(df1 / 2.0)
                   - math.lgamma(df2 / 2.0) + (df1 / 2.0) * math.log(df1 / df2))

        def density(u):
            return math.exp(ln_norm + (df1 / 2.0 - 1.0) * math.log(u)
                            - (df1 + df2) / 2.0 * math.log1p(df1 * u / df2))

        value, _ = integrate.quad(density, f_value, np.inf, limit=400,
                                  epsabs=1e-12, epsrel=1e-12)
        return value

    dfs = [1, 2, 5, 12, 30, 80, 200, 400, 647]
    t_values = [0.0, 0.5, 1.3, 2.2, 3.3109377, 4.5]
    grid = [(t, df) for df in dfs for t in t_values]
    assert len(grid) >= 50
    for t, df in grid:
        assert t_two_sided_p(t, df) == pytest.approx(t_tail(t, df), abs=1e-8)
    for df1 in (1, 2, 5):
        for df2 in (10, 120, 647):
            for f_value in (0.4, 2.7, 9.0):
                assert f_upper_p(f_value, df1, df2) == pytest.approx(
                    f_tail(f_value, df1, df2), abs=1e-8
                )


def test_scale_invariance_and_label_swap():
    """Rescaling the response leaves every scale-free quantity unchanged to
    1e-9 relative; exchanging the two group labels negates d and t while
    preserving f^2, F and the p-value."""
    ds = load_csv(student_csv_path(), response_col="G3", group_col="sex",
                  covariate_cols=["Fedu", "traveltime"])
    design = build_design(ds)
    ref = effect_report(design, fit_fwl(design))

    for c in (0.1, 3.0, 1000.0):
        scaled = Dataset(
            response=ds.response * c,
            group_labels=ds.group_labels,
            covariates=ds.covariates,
            source=ds.source,
        )
        sdesign = build_design(scaled)
        srep = effect_report(sdesign, fit_fwl(sdesign))
        assert srep.d == pytest.approx(ref.d, rel=1e-9)
        assert srep.t == pytest.approx(ref.t, rel=1e-9)
        assert srep.f_squared == pytest.approx(ref.f_squared, rel=1e-9)
        assert srep.p_value == pytest.approx(ref.p_value, rel=1e-9)

    swapped_design = build_design(ds, reference_level="M")
    srep = effect_report(swapped_design, fit_fwl(swapped_design))
    assert srep.d == pytest.approx(-ref.d, rel=1e-10)
    assert srep.t == pytest.approx(-ref.t, rel=1e-10)
    assert srep.f_squared == pytest.approx(ref.f_squared, rel=1e-10)
    assert srep.f_stat == pytest.approx(ref.f_stat, rel=1e-10)
    assert srep.p_value == pytest.approx(ref.p_value, rel=1e-10)
