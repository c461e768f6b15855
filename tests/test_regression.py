import tracemalloc
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
    group_summaries,
    r_squared_pair,
    standard_errors,
)
from groupeffect import linalg
from groupeffect.errors import (
    DegenerateResponseError,
    GroupTooSmallError,
    InsufficientRowsError,
    NonPositiveDfError,
    RankDeficientDesignError,
)
from groupeffect.regression import coefficient_names

from conftest import cramer_least_squares, make_dataset, make_design
from oracles import (
    annihilator_covariates,
    annihilator_group,
    delta1_from_adjusted,
    delta1_scaled_covariance,
    residual_quadratic_matrix,
    sigma2_hat,
    standard_errors_qr,
)
from oracles import group_summaries as residual_group_summaries


def small_dataset(labels=("B", "A", "A", "B"), y=(4.0, 1.0, 2.0, 3.0), covs=()):
    return Dataset(response=np.array(y), group_labels=tuple(labels), covariates=covs)


class TestBuildDesign:
    def test_sorts_groups_lexicographically(self):
        d = build_design(small_dataset())
        assert d.group_labels == ("A", "B")
        assert d.n1 == 2 and d.n2 == 2
        np.testing.assert_array_equal(d.x1[:, 1], [0.0, 0.0, 1.0, 1.0])
        # stable within groups: A rows were at positions 1, 2; B rows at 0, 3
        np.testing.assert_array_equal(d.row_order, [1, 2, 0, 3])
        np.testing.assert_allclose(d.y, [1.0, 2.0, 4.0, 3.0])

    def test_reference_level_override(self):
        d = build_design(small_dataset(), reference_level="B")
        assert d.group_labels == ("B", "A")
        np.testing.assert_allclose(d.y, [4.0, 3.0, 1.0, 2.0])

    def test_unknown_reference_level(self):
        with pytest.raises(GroupTooSmallError):
            build_design(small_dataset(), reference_level="Z")

    def test_group_too_small(self):
        with pytest.raises(GroupTooSmallError) as err:
            build_design(small_dataset(labels=("A", "B", "B", "B")))
        assert err.value.label == "A" and err.value.count == 1

    def test_insufficient_rows(self):
        covs = tuple((f"x{j}", np.arange(4.0) * (j + 1) + np.array([0, 1, 3, 7]) ** j)
                     for j in range(2))
        with pytest.raises(InsufficientRowsError):
            build_design(small_dataset(covs=covs))

    def test_constant_covariate_collides_with_intercept(self):
        ds = Dataset(
            response=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            group_labels=("a", "a", "a", "b", "b", "b"),
            covariates=(("flat", np.ones(6)),),
        )
        with pytest.raises(RankDeficientDesignError) as err:
            build_design(ds)
        assert err.value.column == "flat"

    def test_coefficient_names(self):
        ds = Dataset(
            response=np.arange(6.0),
            group_labels=("a", "a", "a", "b", "b", "b"),
            covariates=(("age", np.array([1.0, 2, 3, 4, 5, 7])),),
        )
        d = build_design(ds)
        assert coefficient_names(d) == ["(intercept)", "group[b]", "age"]


class TestFits:
    def test_exact_fit_two_group_means(self):
        ds = Dataset(response=np.array([1.0, 1.0, 3.0, 3.0]),
                     group_labels=("1", "1", "2", "2"))
        fit = fit_monolithic(build_design(ds))
        assert fit.beta0 == pytest.approx(1.0, abs=1e-12)
        assert fit.beta1 == pytest.approx(2.0, abs=1e-12)
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-24)
        assert fit.se_beta1 == pytest.approx(0.0, abs=1e-12)

    def test_monolithic_matches_cramer_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            design = make_design(rng, n=10, w=2)
            fit = fit_monolithic(design)
            x = np.hstack([design.x1, design.x2])
            expected = cramer_least_squares(x, design.y)
            got = np.concatenate([fit.delta1_hat, fit.delta2_hat])
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_fwl_equals_monolithic(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            design = make_design(rng)
            a = fit_fwl(design)
            b = fit_monolithic(design)
            ca = np.concatenate([a.delta1_hat, a.delta2_hat])
            cb = np.concatenate([b.delta1_hat, b.delta2_hat])
            np.testing.assert_allclose(ca, cb, rtol=1e-9, atol=1e-12)
            assert a.sigma2_hat == pytest.approx(b.sigma2_hat, rel=1e-9)
            # both fitters read sigma^2 off R; tie it to the monolithic residual
            assert a.sigma2_hat == pytest.approx(sigma2_hat(design, b.delta2_hat), rel=1e-9)

    def test_back_substitution_recovers_group_block(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            design = make_design(rng, w=3)
            mono = fit_monolithic(design)
            y_star = design.y - design.x2 @ mono.delta2_hat
            d1 = delta1_from_adjusted(design, y_star)
            np.testing.assert_allclose(d1, mono.delta1_hat, rtol=1e-9, atol=1e-12)

    def test_no_covariates_reduces_to_group_means(self):
        rng = np.random.default_rng(103)
        design = make_design(rng, n=30, w=0)
        fit = fit_fwl(design)
        y1 = design.y[: design.n1]
        y2 = design.y[design.n1:]
        assert fit.beta0 == pytest.approx(y1.mean(), rel=1e-12)
        assert fit.beta1 == pytest.approx(y2.mean() - y1.mean(), rel=1e-12)
        # with no covariates the adjusted scale is the raw scale
        for g in group_summaries(design, fit.delta2_hat):
            assert g.mean_adj == g.mean_raw and g.ss_adj == g.ss_raw

    def test_adjusted_group_mean_identity(self):
        # intercept = group-1 mean of the adjusted response; group coefficient
        # = adjusted group-mean difference, in the residual form and as the
        # design's factors give it
        rng = np.random.default_rng(104)
        for _ in range(15):
            design = make_design(rng)
            fit = fit_fwl(design)
            y_star = design.y - design.x2 @ fit.delta2_hat
            for g1, g2 in (residual_group_summaries(design, y_star),
                           group_summaries(design, fit.delta2_hat)):
                assert fit.beta0 == pytest.approx(g1.mean_adj, abs=1e-10)
                assert fit.beta1 == pytest.approx(g2.mean_adj - g1.mean_adj, abs=1e-10)

    def test_r0_never_exceeds_r_squared(self):
        rng = np.random.default_rng(105)
        for _ in range(15):
            fit = fit_fwl(make_design(rng))
            assert fit.r0_squared <= fit.r_squared + 1e-12
            assert -1e-12 <= fit.r0_squared and fit.r_squared <= 1.0 + 1e-12

    @pytest.mark.parametrize("fitter", [fit_fwl, fit_monolithic])
    def test_gamma_and_r_squared_match_projector_oracles(self, fitter):
        rng = np.random.default_rng(118)
        for _ in range(20):
            design = make_design(rng, n=int(rng.integers(10, 60)))
            fit = fitter(design)
            assert fit.gamma == pytest.approx(
                delta1_scaled_covariance(design)[1, 1], rel=1e-9
            )
            y = design.y
            centered = y - y.mean()
            reduced = np.hstack([np.ones((design.n, 1)), design.x2])
            for x, got in ((np.hstack([design.x1, design.x2]), fit.r_squared),
                           (reduced, fit.r0_squared)):
                resid = y - linalg.projector(x) @ y
                assert got == pytest.approx(
                    1.0 - (resid @ resid) / (centered @ centered), abs=1e-10
                )

    def test_se_beta1_definition(self):
        rng = np.random.default_rng(106)
        design = make_design(rng, n=40, w=2)
        fit = fit_fwl(design)
        assert fit.se_beta1 == pytest.approx(
            np.sqrt(fit.sigma2_hat * fit.gamma), rel=1e-14
        )
        # and equals the corresponding entry of the full-design SE vector
        assert standard_errors(design, fit)[1] == pytest.approx(
            fit.se_beta1, rel=1e-9
        )


class TestStandardErrors:
    @pytest.mark.parametrize("fitter", [fit_fwl, fit_monolithic])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 120), w=st.integers(0, 5),
           offsets=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                            min_size=5, max_size=5))
    def test_match_full_design_qr(self, fitter, seed, n, w, offsets):
        ds = make_dataset(np.random.default_rng(seed), n=n, w=w)
        design = build_design(replace(ds, covariates=tuple(
            (name, col + offset) for (name, col), offset in zip(ds.covariates, offsets)
        )))
        fit = fitter(design)
        np.testing.assert_allclose(standard_errors(design, fit),
                                   standard_errors_qr(design, fit), rtol=1e-9)

    def test_one_n_row_qr_from_design_to_coefficient_table(self, monkeypatch):
        # the rank check, the fit, gamma, R^2, the group summaries and the
        # standard errors all come from one factorization of each group's
        # rows of [X2 | y]; no QR runs over all n rows
        design_rows = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            design_rows.append(np.shape(a)[0])
            return qr(a, *args, **kwargs)

        ds = make_dataset(np.random.default_rng(119), n=200, w=3)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        design = build_design(ds)
        fit = fit_fwl(design)
        effect_report(design, fit)
        standard_errors(design, fit)
        n1, n2 = design.n1, design.n2
        # the other QRs factor stacks of 2(w+1) or 2(w+1)+1 rows
        assert len({n1, n2, design.n}) == 3 and min(n1, n2) > 2 * (design.w + 2)
        assert design_rows.count(design.n) == 0, design_rows
        assert design_rows.count(n1) == 1 and design_rows.count(n2) == 1, design_rows


class TestSigma2:
    def test_explicit_annihilator_quadratic_form(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            design = make_design(rng, n=40)
            fit = fit_monolithic(design)
            m1 = annihilator_group(design)
            r = design.y - design.x2 @ fit.delta2_hat
            direct = (r @ m1 @ r) / design.df
            assert sigma2_hat(design, fit.delta2_hat) == pytest.approx(
                direct, rel=1e-10
            )
            assert fit.sigma2_hat == pytest.approx(direct, rel=1e-10)

    def test_pooled_adjusted_ss_form(self):
        rng = np.random.default_rng(108)
        for _ in range(15):
            design = make_design(rng)
            fit = fit_fwl(design)
            y_star = design.y - design.x2 @ fit.delta2_hat
            for g1, g2 in (residual_group_summaries(design, y_star),
                           group_summaries(design, fit.delta2_hat)):
                assert fit.sigma2_hat == pytest.approx(
                    (g1.ss_adj + g2.ss_adj) / design.df, rel=1e-10
                )

    def test_exact_fit_gives_zero(self):
        ds = Dataset(response=np.array([2.0, 2.0, 5.0, 5.0]),
                     group_labels=("a", "a", "b", "b"))
        design = build_design(ds)
        assert sigma2_hat(design, np.empty(0)) == pytest.approx(0.0, abs=1e-24)

    def test_nonpositive_df_raises(self):
        # build_design rejects n <= 2 + w up front, so exercise the guard on
        # a hand-assembled design
        from groupeffect.regression import PartitionedDesign

        rng = np.random.default_rng(0)
        design = PartitionedDesign(
            y=rng.standard_normal(5),
            x1=np.column_stack([np.ones(5), np.r_[np.zeros(2), np.ones(3)]]),
            x2=rng.standard_normal((5, 3)),
            n1=2,
            n2=3,
            row_order=np.arange(5),
            group_labels=("a", "b"),
            covariate_names=("x1", "x2", "x3"),
        )
        with pytest.raises(NonPositiveDfError):
            sigma2_hat(design, np.zeros(3))


class TestAnnihilatorsAndL:
    def test_group_annihilator_matches_block_form(self):
        rng = np.random.default_rng(109)
        design = make_design(rng, n=17, w=1)
        m1 = annihilator_group(design)
        expected = np.zeros((design.n, design.n))
        for size, start in ((design.n1, 0), (design.n2, design.n1)):
            block = np.eye(size) - np.full((size, size), 1.0 / size)
            expected[start:start + size, start:start + size] = block
        np.testing.assert_allclose(m1, expected, atol=1e-12)

    def test_covariate_annihilator_identity_when_w0(self):
        rng = np.random.default_rng(110)
        design = make_design(rng, n=12, w=0)
        np.testing.assert_array_equal(annihilator_covariates(design), np.eye(12))

    def test_residual_quadratic_matrix_properties(self):
        rng = np.random.default_rng(111)
        for _ in range(10):
            design = make_design(rng, n=int(rng.integers(10, 60)))
            ell = residual_quadratic_matrix(design)
            n, w = design.n, design.w
            assert np.trace(ell) == pytest.approx(n - 2 - w, abs=1e-8)
            assert np.max(np.abs(ell @ ell - ell)) < 1e-9
            assert np.max(np.abs(ell @ design.x1)) < 1e-8
            if w:
                assert np.max(np.abs(ell @ design.x2)) < 1e-8

    def test_quadratic_form_reproduces_rss(self):
        rng = np.random.default_rng(112)
        design = make_design(rng, n=25, w=2)
        fit = fit_monolithic(design)
        ell = residual_quadratic_matrix(design)
        assert design.y @ ell @ design.y == pytest.approx(
            fit.sigma2_hat * design.df, rel=1e-9
        )

    def test_scaled_covariance_without_covariates(self):
        rng = np.random.default_rng(113)
        design = make_design(rng, n=20, w=0)
        n1, n2 = design.n1, design.n2
        expected = np.array([
            [1.0 / n1, -1.0 / n1],
            [-1.0 / n1, (n1 + n2) / (n1 * n2)],
        ])
        np.testing.assert_allclose(delta1_scaled_covariance(design), expected,
                                   rtol=1e-10)


class TestGroupSummariesAndR2:
    def test_constant_within_groups(self):
        ds = Dataset(response=np.array([3.0, 3.0, 7.0, 7.0, 7.0]),
                     group_labels=("a", "a", "b", "b", "b"))
        design = build_design(ds)
        g1, g2 = group_summaries(design, np.empty(0))
        assert (g1.n_rows, g2.n_rows) == (2, 3)
        assert g1.mean_raw == 3.0 and g2.mean_raw == 7.0
        assert g1.ss_raw == 0.0 and g2.ss_raw == 0.0

    @pytest.mark.parametrize("fitter", [fit_fwl, fit_monolithic])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 120), w=st.integers(0, 5),
           offsets=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                            min_size=5, max_size=5))
    def test_match_residual_form(self, fitter, seed, n, w, offsets):
        ds = make_dataset(np.random.default_rng(seed), n=n, w=w)
        design = build_design(replace(ds, covariates=tuple(
            (name, col + offset) for (name, col), offset in zip(ds.covariates, offsets)
        )))
        delta2 = fitter(design).delta2_hat
        got = group_summaries(design, delta2)
        want = residual_group_summaries(design, design.y - design.x2 @ delta2)
        for g, o in zip(got, want):
            assert g.n_rows == o.n_rows
            for field in ("mean_raw", "ss_raw", "mean_adj", "ss_adj"):
                assert getattr(g, field) == pytest.approx(getattr(o, field), rel=1e-9), field

    def test_r_squared_bounds_random(self):
        rng = np.random.default_rng(114)
        for _ in range(10):
            design = make_design(rng)
            r2, r02 = r_squared_pair(design)
            assert -1e-12 <= r02 <= r2 + 1e-12
            assert r2 <= 1.0

    def test_exactly_linear_response(self):
        rng = np.random.default_rng(115)
        x = rng.standard_normal(12)
        ds = Dataset(
            response=2.0 + 3.0 * x,
            group_labels=tuple("ab"[i % 2] for i in range(12)),
            covariates=(("x", x),),
        )
        r2, r02 = r_squared_pair(build_design(ds))
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert r02 == pytest.approx(1.0, abs=1e-12)

    def test_constant_response(self):
        # the first-row shift makes a constant response exactly zero, at any
        # level, so its total sum of squares is an exact zero
        for level in (4.0, 0.1, 1e13):
            ds = Dataset(response=np.full(6, level),
                         group_labels=("a", "a", "a", "b", "b", "b"))
            with pytest.raises(DegenerateResponseError, match="response is constant"):
                r_squared_pair(build_design(ds))

    def test_quadratic_form_oracle(self):
        # direct evaluation of the projector quadratic forms
        rng = np.random.default_rng(116)
        design = make_design(rng, n=30, w=2)
        y = design.y
        x = np.hstack([design.x1, design.x2])
        p = x @ np.linalg.inv(x.T @ x) @ x.T
        c = np.eye(design.n) - np.full((design.n, design.n), 1.0 / design.n)
        expected_r2 = 1.0 - (y @ (np.eye(design.n) - p) @ y) / (y @ c @ y)
        r2, _ = r_squared_pair(design)
        assert r2 == pytest.approx(expected_r2, rel=1e-10)


class TestLinearMemory:
    @pytest.mark.parametrize("fitter", [fit_fwl, fit_monolithic])
    def test_fit_and_report_stay_linear_in_n(self, fitter):
        # an n x n float64 matrix at n=3000 is 72 MB; the whole fit, report
        # and coefficient table must fit in a small multiple of the
        # 3000 x 12 design (0.3 MB)
        design = make_design(np.random.default_rng(117), n=3000, w=10)
        tracemalloc.start()
        try:
            fit = fitter(design)
            effect_report(design, fit)
            standard_errors(design, fit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_nothing_after_the_design_grows_with_n(self):
        # the design's core holds counts, means and (w+1)-column factors;
        # the fit, the report and the coefficient table read only those, so
        # at n = 1e5 they allocate no n-row array (800 KB each)
        design = make_design(np.random.default_rng(120), n=100_000, w=10)
        tracemalloc.start()
        try:
            fit = fit_fwl(design)
            effect_report(design, fit)
            standard_errors(design, fit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e3, f"peak {peak / 1e3:.1f} KB"
