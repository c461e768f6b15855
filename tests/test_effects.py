import math

import numpy as np
import pytest

from groupeffect import (
    Dataset,
    build_design,
    cohens_d,
    cohens_d_adjusted,
    d_from_beta,
    d_from_t,
    effect_report,
    f_squared_from_d,
    f_squared_from_r2,
    f_stat,
    fit_fwl,
    group_summaries,
    magnitude_labels,
    t_from_d,
)
from groupeffect.errors import (
    NonPositiveGammaError,
    SaturatedModelError,
    ZeroSigmaError,
    ZeroVarianceError,
)
from groupeffect.regression import GroupSummary

from conftest import make_dataset, make_design


def summary(n, mean, ss):
    return GroupSummary(n_rows=n, mean_raw=mean, ss_raw=ss,
                        mean_adj=mean, ss_adj=ss)


class TestCohensD:
    def test_two_point_groups_hand_value(self):
        # groups (0,2) and (1,3): means 1 and 2, each ss = 2, pooled scale
        # sqrt((2+2)/2) = sqrt(2)
        g1 = summary(2, 1.0, 2.0)
        g2 = summary(2, 2.0, 2.0)
        assert cohens_d(g1, g2) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-14)

    def test_identical_means(self):
        assert cohens_d(summary(5, 3.0, 4.0), summary(5, 3.0, 6.0)) == 0.0

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            cohens_d(summary(3, 1.0, 0.0), summary(3, 2.0, 0.0))

    def test_adjusted_reduces_to_classic_when_w0(self):
        rng = np.random.default_rng(1)
        design = make_design(rng, n=24, w=0)
        fit = fit_fwl(design)
        g1, g2 = group_summaries(design, fit.delta2_hat)
        assert cohens_d_adjusted(g1, g2, 0) == pytest.approx(
            cohens_d(g1, g2), rel=1e-14
        )


class TestConversions:
    def test_d_from_t_trivia(self):
        assert d_from_t(0.0, 10, 12) == 0.0
        assert d_from_t(1.0, 2, 2) == pytest.approx(1.0, rel=1e-15)

    def test_student_values_convert_both_ways(self):
        # reference t and d from the student analysis (R t.test / cohens_d)
        n1, n2 = 383, 266
        assert d_from_t(3.310938, n1, n2) == pytest.approx(0.264261, rel=1e-6)
        gamma0 = (n1 + n2) / (n1 * n2)
        assert t_from_d(0.264261, gamma0) == pytest.approx(3.310938, rel=1e-6)
        # adjusted-scale counterpart: |t| from d and the scaled variance
        assert t_from_d(0.3016013, 0.006438624) == pytest.approx(3.759, abs=5e-4)

    def test_round_trip_without_covariates(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n1, n2 = rng.integers(2, 50, size=2)
            gamma0 = (n1 + n2) / (n1 * n2)
            d = float(rng.uniform(-2, 2))
            assert d_from_t(t_from_d(d, gamma0), n1, n2) == pytest.approx(
                d, abs=1e-12
            )

    def test_t_from_d_requires_positive_gamma(self):
        with pytest.raises(NonPositiveGammaError):
            t_from_d(1.0, 0.0)

    def test_d_from_beta(self):
        assert d_from_beta(0.0, 2.0) == 0.0
        assert d_from_beta(-0.9406209, 3.118756) == pytest.approx(
            0.3016013, rel=1e-6
        )
        with pytest.raises(ZeroSigmaError):
            d_from_beta(1.0, 0.0)

    def test_f_squared_from_r2(self):
        assert f_squared_from_r2(0.5, 0.25) == pytest.approx(0.5, rel=1e-15)
        assert f_squared_from_r2(0.3, 0.3) == 0.0
        with pytest.raises(SaturatedModelError):
            f_squared_from_r2(1.0, 0.5)

    def test_f_squared_from_d_zero(self):
        assert f_squared_from_d(0.0, 0.1, 20, 2) == 0.0

    def test_f_squared_w0_closed_form(self):
        # with no covariates: f^2 = d^2 n1 n2 / (n (n-2))
        rng = np.random.default_rng(3)
        for _ in range(20):
            n1, n2 = (int(v) for v in rng.integers(2, 60, size=2))
            n = n1 + n2
            gamma0 = (n1 + n2) / (n1 * n2)
            d = float(rng.uniform(-2, 2))
            direct = d * d * n1 * n2 / (n * (n - 2))
            assert f_squared_from_d(d, gamma0, n, 0) == pytest.approx(
                direct, rel=1e-12
            )

    def test_f_stat(self):
        assert f_stat(0.0, 1, 10) == 0.0
        assert f_stat(0.37, 9, 9) == pytest.approx(0.37, rel=1e-15)
        assert f_stat(0.0219035, 1, 645) == pytest.approx(14.128, rel=1e-3)
        with pytest.raises(ValueError):
            f_stat(0.1, 0, 4)


class TestMagnitudeLabels:
    @pytest.mark.parametrize(
        "d,expected",
        [(0.0, "negligible"), (0.19, "negligible"), (0.2, "small"),
         (-0.3016013, "small"), (0.5, "medium"), (0.79, "medium"),
         (0.8, "large"), (-2.4, "large")],
    )
    def test_d_cuts(self, d, expected):
        assert magnitude_labels(d, 0.0)[0] == expected

    @pytest.mark.parametrize(
        "f2,expected",
        [(0.0, "negligible"), (0.0199, "negligible"), (0.02, "small"),
         (0.0219035, "small"), (0.15, "medium"), (0.35, "large")],
    )
    def test_f2_cuts(self, f2, expected):
        assert magnitude_labels(0.0, f2)[1] == expected


class TestReportInvariants:
    def test_three_route_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            design = make_design(rng)
            fit = fit_fwl(design)
            report = effect_report(design, fit)
            via_beta = d_from_beta(fit.beta1, math.sqrt(fit.sigma2_hat))
            f2 = f_squared_from_r2(fit.r_squared, fit.r0_squared)
            via_f2 = math.sqrt(f2 * fit.gamma * design.df)
            assert abs(report.d) == pytest.approx(via_beta, rel=1e-9)
            assert abs(report.d) == pytest.approx(via_f2, rel=1e-9)

    def test_report_internal_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            design = make_design(rng)
            report = effect_report(design, fit_fwl(design))
            assert report.t == pytest.approx(
                report.d / math.sqrt(report.gamma), rel=1e-10
            )
            assert report.f_stat == pytest.approx(report.t**2, rel=1e-9)
            assert report.f_squared == pytest.approx(
                (report.d**2 / report.gamma) / report.df, rel=1e-10
            )
            assert report.v == report.df
            assert report.u == 1
            assert 0.0 < report.p_value <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        base = make_dataset(rng, n=60, w=3)
        ref = effect_report(*_fit(base))
        for c in (0.1, 3.0, 1000.0):
            scaled = Dataset(
                response=base.response * c,
                group_labels=base.group_labels,
                covariates=base.covariates,
            )
            rep = effect_report(*_fit(scaled))
            assert rep.d == pytest.approx(ref.d, rel=1e-9)
            assert rep.t == pytest.approx(ref.t, rel=1e-9)
            assert rep.f_squared == pytest.approx(ref.f_squared, rel=1e-9)
            assert rep.p_value == pytest.approx(ref.p_value, rel=1e-9)

    def test_label_swap_negates_d_and_t(self):
        rng = np.random.default_rng(7)
        base = make_dataset(rng, n=50, w=2)
        ref = effect_report(*_fit(base))
        swapped = Dataset(
            response=base.response,
            group_labels=tuple("b" if l == "a" else "a" for l in base.group_labels),
            covariates=base.covariates,
        )
        rep = effect_report(*_fit(swapped))
        assert rep.d == pytest.approx(-ref.d, rel=1e-10)
        assert rep.t == pytest.approx(-ref.t, rel=1e-10)
        assert rep.f_squared == pytest.approx(ref.f_squared, rel=1e-10)
        assert rep.f_stat == pytest.approx(ref.f_stat, rel=1e-10)
        assert rep.p_value == pytest.approx(ref.p_value, rel=1e-10)


def _fit(ds):
    design = build_design(ds)
    return design, fit_fwl(design)
