from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import lapack_lite

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
from groupeffect import linalg, regression
from groupeffect.errors import (
    DegenerateResponseError,
    DimensionMismatchError,
    GroupTooSmallError,
    InsufficientRowsError,
    NonPositiveDfError,
    RankDeficientDesignError,
)
from groupeffect.regression import coefficient_names

from conftest import (FITTERS, cramer_least_squares, make_case, make_dataset, make_design,
                      traced_peak)
from oracles import (
    annihilator_covariates,
    annihilator_group,
    delta1_from_adjusted,
    delta1_scaled_covariance,
    design_rows,
    group_block,
    residual_quadratic_matrix,
    sigma2_hat,
    standard_errors_qr,
)
from oracles import group_summaries as residual_group_summaries


def small_dataset(labels=("B", "A", "A", "B"), y=(4.0, 1.0, 2.0, 3.0), covs=()):
    return Dataset(response=np.array(y), group_labels=tuple(labels), covariates=covs)


def with_split(ds, n1):
    """``ds`` relabeled so that group "a" has n1 rows, in shuffled order."""
    labels = np.array(["a"] * n1 + ["b"] * (ds.n_rows - n1))
    np.random.default_rng(n1).shuffle(labels)
    return replace(ds, group_labels=tuple(labels.tolist()))


class TestBuildDesign:
    def test_sorts_groups_lexicographically(self):
        ds = small_dataset()
        d = build_design(ds)
        assert d.group_labels == ("A", "B")
        assert d.n1 == 2 and d.n2 == 2
        np.testing.assert_array_equal(group_block(d)[:, 1], [0.0, 0.0, 1.0, 1.0])
        # stable within groups: A rows were at positions 1, 2; B rows at 0, 3
        np.testing.assert_allclose(design_rows(ds, d)[1], [1.0, 2.0, 4.0, 3.0])
        assert (d.means[0][0], d.means[1][0]) == (1.5, 3.5)

    def test_large_group_factored_whole(self):
        # n = 600 at a 130/470 split: each group, however large, is factored
        # whole in one triangular R_j; its factor and means must be the
        # group's own, and both fitters must still agree
        ds = with_split(make_dataset(np.random.default_rng(121), n=600, w=3), 130)
        d = build_design(ds)
        assert [list(f.shape) for f in d.factors] == [[d.w + 1, d.w + 1]] * 2
        for f in d.factors:
            np.testing.assert_array_equal(f, np.triu(f))
        data = np.column_stack(design_rows(ds, d))
        for rows, mean, factor in zip((data[:d.n1], data[d.n1:]), d.means, d.factors):
            centered = rows - rows.mean(axis=0)
            np.testing.assert_allclose(mean, rows.mean(axis=0), rtol=1e-13)
            np.testing.assert_allclose(factor.T @ factor, centered.T @ centered,
                                       rtol=1e-12, atol=1e-12 * len(rows))
        np.testing.assert_allclose(
            np.concatenate([fit_fwl(d).delta1_hat, fit_fwl(d).delta2_hat]),
            np.concatenate([fit_monolithic(ds).delta1_hat, fit_monolithic(ds).delta2_hat]),
            rtol=1e-9, atol=1e-12)

    def test_reference_level_override(self):
        ds = small_dataset()
        d = build_design(ds, reference_level="B")
        assert d.group_labels == ("B", "A")
        np.testing.assert_allclose(design_rows(ds, d)[1], [4.0, 3.0, 1.0, 2.0])

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


class _CountingLabels(tuple):
    """Group labels that count how often they are iterated."""

    iterations = 0

    def __iter__(self):
        type(self).iterations += 1
        return super().__iter__()


def _bits(value):
    """The bytes of every array in a design or fit field, for bitwise checks."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return np.asarray(value).tobytes()


class TestFixedCost:
    """The Dataset checks its columns and codes its groups once; the path
    from build_design to effect_report repeats neither."""

    @pytest.mark.parametrize("reference_level", [None, "a", "b"])
    def test_build_design_does_not_walk_the_labels(self, monkeypatch, reference_level):
        base = make_dataset(np.random.default_rng(122), n=40, w=2)
        monkeypatch.setattr(_CountingLabels, "iterations", 0)
        ds = replace(base, group_labels=_CountingLabels(base.group_labels))
        assert _CountingLabels.iterations > 0  # construction walks them
        monkeypatch.setattr(_CountingLabels, "iterations", 0)
        design = build_design(ds, reference_level)
        effect_report(design, fit_fwl(design))
        assert _CountingLabels.iterations == 0

    def test_no_linalg_checks_from_design_to_report(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        ds = make_dataset(np.random.default_rng(123), n=60, w=3)
        for name in ("as_vector", "_check_r_diagonal"):
            monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
        for reference_level in (None, "b"):
            design = build_design(ds, reference_level)
            effect_report(design, fit_fwl(design))
        assert calls == []

    @pytest.mark.parametrize("seed", range(8))
    def test_reference_level_matches_relabelling_bit_for_bit(self, seed):
        ds = make_dataset(np.random.default_rng(seed))
        first, second = ds.levels
        # renaming the first label to sort after the second swaps the groups
        renamed = second + "~"
        relabelled = replace(ds, group_labels=tuple(
            renamed if label == first else label for label in ds.group_labels))
        assert relabelled.levels == (second, renamed)
        got, want = build_design(ds, reference_level=second), build_design(relabelled)
        assert got.group_labels == (second, first)
        for f in fields(got):
            if f.name != "group_labels":
                assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name
        assert (_bits(astuple(fit_monolithic(ds, second)))
                == _bits(astuple(fit_monolithic(relabelled))))


class TestFits:
    def test_exact_fit_two_group_means(self):
        ds = Dataset(response=np.array([1.0, 1.0, 3.0, 3.0]),
                     group_labels=("1", "1", "2", "2"))
        fit = fit_monolithic(ds)
        assert fit.beta0 == pytest.approx(1.0, abs=1e-12)
        assert fit.beta1 == pytest.approx(2.0, abs=1e-12)
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-24)
        assert fit.se_beta1 == pytest.approx(0.0, abs=1e-12)

    def test_monolithic_matches_cramer_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            ds, design = make_case(rng, n=10, w=2)
            fit = fit_monolithic(ds)
            x2, y = design_rows(ds, design)
            x = np.hstack([group_block(design), x2])
            expected = cramer_least_squares(x, y)
            got = np.concatenate([fit.delta1_hat, fit.delta2_hat])
            np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)

    def test_fwl_equals_monolithic(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            ds, design = make_case(rng)
            a = fit_fwl(design)
            b = fit_monolithic(ds)
            ca = np.concatenate([a.delta1_hat, a.delta2_hat])
            cb = np.concatenate([b.delta1_hat, b.delta2_hat])
            np.testing.assert_allclose(ca, cb, rtol=1e-9, atol=1e-12)
            assert a.sigma2_hat == pytest.approx(b.sigma2_hat, rel=1e-9)
            # both fitters read sigma^2 off R; tie it to the monolithic residual
            assert a.sigma2_hat == pytest.approx(sigma2_hat(ds, design, b.delta2_hat), rel=1e-9)

    def test_monolithic_takes_the_reference_level(self):
        ds = make_dataset(np.random.default_rng(123), n=50, w=2)
        a = fit_fwl(build_design(ds, "b"))
        b = fit_monolithic(ds, "b")
        np.testing.assert_allclose(np.concatenate([a.delta1_hat, a.delta2_hat]),
                                   np.concatenate([b.delta1_hat, b.delta2_hat]),
                                   rtol=1e-9, atol=1e-12)
        assert a.sigma2_hat == pytest.approx(b.sigma2_hat, rel=1e-9)
        assert b.beta1 == pytest.approx(-fit_monolithic(ds).beta1, rel=1e-9)

    def test_back_substitution_recovers_group_block(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            ds, design = make_case(rng, w=3)
            mono = fit_monolithic(ds)
            x2, y = design_rows(ds, design)
            y_star = y - x2 @ mono.delta2_hat
            d1 = delta1_from_adjusted(design, y_star)
            np.testing.assert_allclose(d1, mono.delta1_hat, rtol=1e-9, atol=1e-12)

    def test_no_covariates_reduces_to_group_means(self):
        rng = np.random.default_rng(103)
        ds, design = make_case(rng, n=30, w=0)
        fit = fit_fwl(design)
        _, y = design_rows(ds, design)
        y1 = y[: design.n1]
        y2 = y[design.n1:]
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
            ds, design = make_case(rng)
            fit = fit_fwl(design)
            for g1, g2 in (residual_group_summaries(ds, design, fit.delta2_hat),
                           group_summaries(design, fit.delta2_hat)):
                assert fit.beta0 == pytest.approx(g1.mean_adj, abs=1e-10)
                assert fit.beta1 == pytest.approx(g2.mean_adj - g1.mean_adj, abs=1e-10)

    def test_r0_never_exceeds_r_squared(self):
        rng = np.random.default_rng(105)
        for _ in range(15):
            fit = fit_fwl(make_design(rng))
            assert fit.r0_squared <= fit.r_squared + 1e-12
            assert -1e-12 <= fit.r0_squared and fit.r_squared <= 1.0 + 1e-12

    @pytest.mark.parametrize("fitter", FITTERS)
    def test_gamma_and_r_squared_match_projector_oracles(self, fitter):
        rng = np.random.default_rng(118)
        for _ in range(20):
            ds, design = make_case(rng, n=int(rng.integers(10, 60)))
            fit = fitter(ds)
            assert fit.gamma == pytest.approx(
                delta1_scaled_covariance(ds, design)[1, 1], rel=1e-9
            )
            x2, y = design_rows(ds, design)
            centered = y - y.mean()
            reduced = np.hstack([np.ones((design.n, 1)), x2])
            for x, got in ((np.hstack([group_block(design), x2]), fit.r_squared),
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
    @pytest.mark.parametrize("fitter", FITTERS)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 120), w=st.integers(0, 5),
           offsets=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                            min_size=5, max_size=5))
    def test_match_full_design_qr(self, fitter, seed, n, w, offsets):
        ds = make_dataset(np.random.default_rng(seed), n=n, w=w)
        ds = replace(ds, covariates=tuple(
            (name, col + offset) for (name, col), offset in zip(ds.covariates, offsets)
        ))
        design = build_design(ds)
        fit = fitter(ds)
        np.testing.assert_allclose(standard_errors(design, fit),
                                   standard_errors_qr(ds, design, fit), rtol=1e-9)

    def test_one_n_row_qr_from_design_to_coefficient_table(self, monkeypatch):
        # the rank check, the fit, gamma, R^2, the group summaries and the
        # standard errors all come from one in-place factorization of each
        # group's rows of [X2 | y] and one of the stacked R_j; no QR runs
        # over all n rows, and np.linalg.qr runs not at all
        design_rows, numpy_qr_calls = [], []
        qr, qr_r = np.linalg.qr, regression._qr_r

        def counting_qr_r(a):
            design_rows.append(a.shape[1])
            return qr_r(a)

        def counting_qr(a, *args, **kwargs):
            numpy_qr_calls.append(np.shape(a))
            return qr(a, *args, **kwargs)

        ds = make_dataset(np.random.default_rng(119), n=200, w=3)
        monkeypatch.setattr(regression, "_qr_r", counting_qr_r)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        design = build_design(ds)
        fit = fit_fwl(design)
        effect_report(design, fit)
        standard_errors(design, fit)
        n1, n2 = design.n1, design.n2
        # the third factorization is of the stacked R_j, 2(w+1) rows
        assert len({n1, n2, design.n}) == 3 and min(n1, n2) > 2 * (design.w + 2)
        assert design_rows.count(design.n) == 0, design_rows
        assert design_rows.count(n1) == 1 and design_rows.count(n2) == 1, design_rows
        assert sorted(design_rows) == sorted([n1, n2, 2 * (design.w + 1)]), design_rows
        assert numpy_qr_calls == []


class TestInPlaceQr:
    """``regression._qr_r`` factors a column-major matrix in place through
    LAPACK dgeqrf; its R must be the one np.linalg.qr gives, bit for bit."""

    @staticmethod
    def check(x):
        want = np.linalg.qr(x, mode="r")
        got = regression._qr_r(np.ascontiguousarray(x.T))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 300), k=st.integers(1, 12))
    def test_matches_numpy_on_random_shapes(self, seed, m, k):
        self.check(np.random.default_rng(seed).standard_normal((m, k)))

    @pytest.mark.parametrize("m, k", [(1, 1), (1, 5), (3, 7), (8, 1), (400, 1)])
    def test_matches_numpy_on_edge_shapes(self, m, k):
        self.check(np.random.default_rng(m * 31 + k).standard_normal((m, k)))

    def test_matches_numpy_under_a_large_offset(self):
        x = np.random.default_rng(123).standard_normal((200, 6))
        x[:, 1:4] += 1e13
        self.check(x)

    def test_overwrites_its_input(self):
        x = np.random.default_rng(124).standard_normal((30, 4))
        a = np.ascontiguousarray(x.T)
        r = regression._qr_r(a)
        np.testing.assert_array_equal(np.triu(a[:, :4].T), r)
        assert not np.array_equal(a, x.T)

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "strided"])
    def test_non_contiguous_input_raises(self, layout):
        x = np.random.default_rng(125).standard_normal((30, 4))
        a = {"fortran": np.asfortranarray(x.T), "transposed": x.T,
             "strided": np.ascontiguousarray(x.T)[:, ::2]}[layout]
        with pytest.raises(lapack_lite.LapackError, match="not contiguous"):
            regression._qr_r(a)


class TestSigma2:
    def test_explicit_annihilator_quadratic_form(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            ds, design = make_case(rng, n=40)
            fit = fit_monolithic(ds)
            m1 = annihilator_group(design)
            x2, y = design_rows(ds, design)
            r = y - x2 @ fit.delta2_hat
            direct = (r @ m1 @ r) / design.df
            assert sigma2_hat(ds, design, fit.delta2_hat) == pytest.approx(
                direct, rel=1e-10
            )
            assert fit.sigma2_hat == pytest.approx(direct, rel=1e-10)

    def test_pooled_adjusted_ss_form(self):
        rng = np.random.default_rng(108)
        for _ in range(15):
            ds, design = make_case(rng)
            fit = fit_fwl(design)
            for g1, g2 in (residual_group_summaries(ds, design, fit.delta2_hat),
                           group_summaries(design, fit.delta2_hat)):
                assert fit.sigma2_hat == pytest.approx(
                    (g1.ss_adj + g2.ss_adj) / design.df, rel=1e-10
                )

    def test_exact_fit_gives_zero(self):
        ds = Dataset(response=np.array([2.0, 2.0, 5.0, 5.0]),
                     group_labels=("a", "a", "b", "b"))
        design = build_design(ds)
        assert sigma2_hat(ds, design, np.empty(0)) == pytest.approx(0.0, abs=1e-24)

    def test_nonpositive_df_raises(self):
        # build_design rejects n <= 2 + w up front, so exercise the guard on
        # a built design given one covariate column too many
        rng = np.random.default_rng(0)
        ds = small_dataset(
            labels=("a", "a", "b", "b", "b"), y=rng.standard_normal(5),
            covs=(("x1", rng.standard_normal(5)), ("x2", rng.standard_normal(5))))
        built = build_design(ds)
        ds = replace(ds, covariates=(*ds.covariates, ("x3", rng.standard_normal(5))))
        design = replace(built, covariate_names=("x1", "x2", "x3"))
        assert (design.n, design.w, design.df) == (5, 3, 0)
        with pytest.raises(NonPositiveDfError):
            sigma2_hat(ds, design, np.zeros(3))


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
        ds, design = make_case(rng, n=12, w=0)
        np.testing.assert_array_equal(annihilator_covariates(ds, design), np.eye(12))

    def test_residual_quadratic_matrix_properties(self):
        rng = np.random.default_rng(111)
        for _ in range(10):
            ds, design = make_case(rng, n=int(rng.integers(10, 60)))
            ell = residual_quadratic_matrix(ds, design)
            n, w = design.n, design.w
            assert np.trace(ell) == pytest.approx(n - 2 - w, abs=1e-8)
            assert np.max(np.abs(ell @ ell - ell)) < 1e-9
            assert np.max(np.abs(ell @ group_block(design))) < 1e-8
            if w:
                assert np.max(np.abs(ell @ design_rows(ds, design)[0])) < 1e-8

    def test_quadratic_form_reproduces_rss(self):
        rng = np.random.default_rng(112)
        ds, design = make_case(rng, n=25, w=2)
        fit = fit_monolithic(ds)
        ell = residual_quadratic_matrix(ds, design)
        _, y = design_rows(ds, design)
        assert y @ ell @ y == pytest.approx(
            fit.sigma2_hat * design.df, rel=1e-9
        )

    def test_scaled_covariance_without_covariates(self):
        rng = np.random.default_rng(113)
        ds, design = make_case(rng, n=20, w=0)
        n1, n2 = design.n1, design.n2
        expected = np.array([
            [1.0 / n1, -1.0 / n1],
            [-1.0 / n1, (n1 + n2) / (n1 * n2)],
        ])
        np.testing.assert_allclose(delta1_scaled_covariance(ds, design), expected,
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

    def test_delta2_is_checked(self):
        design = make_design(np.random.default_rng(125), n=30, w=2)
        delta2 = fit_fwl(design).delta2_hat
        want = group_summaries(design, delta2)
        assert group_summaries(design, delta2.tolist()) == want
        assert group_summaries(design, delta2.reshape(-1, 1)) == want
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="NaN or Inf"):
                group_summaries(design, [delta2[0], bad])
        with pytest.raises(DimensionMismatchError):
            group_summaries(design, delta2.reshape(1, 1, 2))
        for wrong_length in (delta2[:1], np.append(delta2, 0.0)):
            with pytest.raises(ValueError):
                group_summaries(design, wrong_length)

    @pytest.mark.parametrize("fitter", FITTERS)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 120), w=st.integers(0, 5),
           offsets=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                            min_size=5, max_size=5))
    def test_match_residual_form(self, fitter, seed, n, w, offsets):
        ds = make_dataset(np.random.default_rng(seed), n=n, w=w)
        ds = replace(ds, covariates=tuple(
            (name, col + offset) for (name, col), offset in zip(ds.covariates, offsets)
        ))
        design = build_design(ds)
        delta2 = fitter(ds).delta2_hat
        got = group_summaries(design, delta2)
        want = residual_group_summaries(ds, design, delta2)
        for g, o in zip(got, want):
            assert g.n_rows == o.n_rows
            for field in ("mean_raw", "ss_raw", "mean_adj", "ss_adj"):
                assert getattr(g, field) == pytest.approx(getattr(o, field), rel=1e-9), field

    def test_residual_form_is_exact_under_a_large_offset(self):
        # y - X2 delta2 carries X2 delta2 at the offset's magnitude; in
        # float64 the residual form's ss_adj was off by 9.7e-10 relative
        # here, at the scale of the 1e-9 tolerance above
        ds = make_dataset(np.random.default_rng(55862), n=10, w=5)
        ds = replace(ds, covariates=tuple(
            (name, col + offset)
            for (name, col), offset in zip(ds.covariates, [0, 0, 846381, 0, 0])
        ))
        design = build_design(ds)
        g1, _ = residual_group_summaries(ds, design, fit_fwl(design).delta2_hat)
        assert g1.ss_adj == pytest.approx(0.46739793737787, rel=1e-13)

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
        ds, design = make_case(rng, n=30, w=2)
        x2, y = design_rows(ds, design)
        x = np.hstack([group_block(design), x2])
        p = x @ np.linalg.inv(x.T @ x) @ x.T
        c = np.eye(design.n) - np.full((design.n, design.n), 1.0 / design.n)
        expected_r2 = 1.0 - (y @ (np.eye(design.n) - p) @ y) / (y @ c @ y)
        r2, _ = r_squared_pair(design)
        assert r2 == pytest.approx(expected_r2, rel=1e-10)


class TestLinearMemory:
    @pytest.mark.parametrize("fitter", FITTERS)
    def test_fit_and_report_stay_linear_in_n(self, fitter):
        # an n x n float64 matrix at n=3000 is 72 MB; the whole fit, report
        # and coefficient table must fit in a small multiple of the
        # 3000 x 12 design (0.3 MB)
        ds = make_dataset(np.random.default_rng(117), n=3000, w=10)
        design = build_design(ds)

        def fit_and_report():
            fit = fitter(ds)
            effect_report(design, fit)
            standard_errors(design, fit)

        _, peak, _ = traced_peak(fit_and_report)
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_nothing_after_the_design_grows_with_n(self):
        # the design's core holds counts, means and (w+1)-column factors;
        # the fit, the report and the coefficient table read only those, so
        # at n = 1e5 they allocate no n-row array (800 KB each)
        design = make_design(np.random.default_rng(120), n=100_000, w=10)

        def fit_and_report():
            fit = fit_fwl(design)
            effect_report(design, fit)
            standard_errors(design, fit)

        _, peak, _ = traced_peak(fit_and_report)
        assert peak < 64e3, f"peak {peak / 1e3:.1f} KB"

    def test_design_keeps_only_its_group_statistics(self):
        # build_design reads the selected columns once, into one local
        # group-ordered (n, w+1) [X2 | y] block, and keeps only O(w^2)
        # group statistics. 1.75 blocks (15.4 MB here) leaves slack over
        # factoring in place (see the next test); a shifted copy of the
        # block besides (18.5 MB), or a copy of the larger group made for
        # np.linalg.qr (about 2.0 blocks at this 32/68 split), exceeds it.
        ds = make_dataset(np.random.default_rng(120), n=100_000, w=10)
        n, w = ds.n_rows, ds.n_covariates
        block = 8 * n * (w + 1)
        design, peak, kept = traced_peak(lambda: build_design(ds))
        assert design.n == n
        assert kept < 64e3, f"kept {kept / 1e3:.1f} KB"
        assert peak < 1.75 * block, f"peak {peak / 1e6:.2f} MB"

    def test_design_peak_stays_near_one_block(self):
        # the (n, w+1) block is filled group by group, already shifted, and
        # each group's span goes to LAPACK as it stands; besides the block
        # only the group ordering and one gathered column are live, about
        # 1.16 blocks here. A copy of half the block made for the
        # factorization (1.6 blocks) exceeds 1.25.
        ds = make_dataset(np.random.default_rng(120), n=100_000, w=10)
        block = 8 * ds.n_rows * (ds.n_covariates + 1)
        _, peak, _ = traced_peak(lambda: build_design(ds))
        assert peak < 1.25 * block, f"peak {peak / block:.2f} blocks"

    def test_peak_does_not_depend_on_the_group_split(self):
        # each group is factored in place, so no copy of the larger group
        # is made: at 50/50, 68/32 and 90/10 the peaks agree to within one
        # n-row column (a copy of the larger group would differ by 0.8 of
        # the (n, w+1) block)
        ds = make_dataset(np.random.default_rng(122), n=20_000, w=10)
        peaks = []
        for n1 in (10_000, 13_600, 18_000):
            split = with_split(ds, n1)
            peaks.append(traced_peak(lambda: build_design(split))[1])
        assert max(peaks) - min(peaks) < 8 * ds.n_rows, [f"{p / 1e6:.2f} MB" for p in peaks]


def fold_in_chunks(ds, bounds, reference_level=None):
    """The design of ``ds`` pushed through the stream of ``stream_design``
    in file order, in runs of at most 64 rows as the reader passes them,
    each chunk (ending at one of ``bounds``) flushed, and so folded, on its
    own; within a chunk the stage also flushes each time it holds
    ``_STAGE_ROWS`` rows."""
    values = np.column_stack([ds.response, *(col for _, col in ds.covariates)])
    stream = regression._Stream(ds.n_covariates + 1)
    for lo, hi in zip([0, *bounds], [*bounds, ds.n_rows]):
        for start in range(lo, hi, 64):
            end = min(start + 64, hi)
            stream.push(values[start:end].ravel(), ds.group_labels[start:end])
        stream.flush()
    names = tuple(name for name, _ in ds.covariates)
    return stream.design(names, reference_level, ds.source, 0)


def push_in_runs(stream, ds, ends):
    """The design ``stream`` gives once ``ds``'s rows are pushed into it in
    file order, in runs ending at each of ``ends`` and at the last row, with
    no flush called between them."""
    values = np.column_stack([ds.response, *(col for _, col in ds.covariates)])
    for lo, hi in zip([0, *ends], [*ends, ds.n_rows]):
        stream.push(values[lo:hi].ravel(), ds.group_labels[lo:hi])
    return stream.design(tuple(name for name, _ in ds.covariates), None, ds.source, 0)


def pivot_norms(ds, pivot_row):
    """The column norms of [X2 | y] less the ``pivot_row``-th row, from their
    definition."""
    data = np.column_stack([*(col for _, col in ds.covariates), ds.response])
    return np.sqrt(((data - data[pivot_row]) ** 2).sum(axis=0))


def assert_same_statistics(got, want, rtol=1e-12):
    """The fields a design's fit, report and standard errors read agree to
    ``rtol``, each cross-product matrix relative to its diagonal."""
    assert (got.n1, got.n2, got.group_labels) == (want.n1, want.n2, want.group_labels)

    def gram_close(a, b):
        ga, gb = a.T @ a, b.T @ b
        scale = np.sqrt(np.outer(np.diag(gb), np.diag(gb)))
        assert np.all(np.abs(ga - gb) <= rtol * scale), np.max(np.abs(ga - gb) / scale)

    for a, b in zip(got.means, want.means):
        np.testing.assert_allclose(a, b, rtol=rtol)
    spread = np.sqrt(np.diag(want.r.T @ want.r) / want.n)
    assert np.all(np.abs(got.diff - want.diff) <= rtol * (np.abs(want.diff) + spread))
    for a, b in zip(got.factors, want.factors):
        gram_close(a, b)
    gram_close(got.r, want.r)


class TestStreamedFold:
    """The stream folds each flushed chunk into its label's count, mean and
    R; whatever the chunks, the design must be build_design's one-shot
    design to rounding. The norms are taken less the first row each feeder
    sees: the file's first row for the stream, group 1's for build_design."""

    @staticmethod
    def check(ds, bounds, reference_level=None):
        got = fold_in_chunks(ds, bounds, reference_level)
        want = build_design(ds, reference_level)
        assert_same_statistics(got, want)
        first_of_group1 = ds.group_labels.index(want.group_labels[0])
        np.testing.assert_allclose(got.norms, pivot_norms(ds, 0), rtol=1e-12)
        np.testing.assert_allclose(want.norms, pivot_norms(ds, first_of_group1), rtol=1e-12)
        return got, want

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 300), w=st.integers(0, 5),
           cuts=st.lists(st.floats(0, 1), max_size=8), offset=st.sampled_from([0.0, 1e13]))
    def test_matches_one_shot_design(self, seed, n, w, cuts, offset):
        ds = make_dataset(np.random.default_rng(seed), n=n, w=w)
        ds = replace(ds, covariates=tuple((name, col + offset) for name, col in ds.covariates))
        bounds = sorted({int(c * ds.n_rows) for c in cuts} - {0, ds.n_rows})
        self.check(ds, bounds)

    def test_one_row_chunks(self):
        ds = make_dataset(np.random.default_rng(130), n=150, w=3)
        self.check(ds, range(1, ds.n_rows))

    def test_chunk_holding_one_label(self):
        # rows 40-99 are all "a", rows 100-139 all "b"; chunks [40, 100) and
        # [100, 140) each fold into one group only
        ds = make_dataset(np.random.default_rng(131), n=200, w=2)
        labels = list(ds.group_labels)
        labels[40:100], labels[100:140] = ["a"] * 60, ["b"] * 40
        ds = replace(ds, group_labels=tuple(labels))
        self.check(ds, [40, 100, 140])

    @pytest.mark.parametrize("reference_level", [None, "a", "b"])
    def test_first_row_in_group_two(self, reference_level):
        # the first row, a "b" row, is the stream's pivot, where
        # build_design takes group 1's first row; the first chunk holds
        # both labels
        ds = make_dataset(np.random.default_rng(132), n=120, w=3)
        first_b = ds.group_labels.index("b")
        order = [first_b, *(i for i in range(ds.n_rows) if i != first_b)]
        ds = replace(ds, response=ds.response[order],
                     group_labels=tuple(ds.group_labels[i] for i in order),
                     covariates=tuple((name, col[order]) for name, col in ds.covariates))
        assert ds.group_labels[0] == "b" and "a" in ds.group_labels[:7]
        got, want = self.check(ds, [7, 64, 65], reference_level)
        assert got.group_labels == want.group_labels

    def test_large_covariate_offsets(self):
        # the shift by the first row is exact for a column near 1e13, so the
        # centered cross products keep their digits in either feeder
        ds = make_dataset(np.random.default_rng(133), n=400, w=4)
        ds = replace(ds, covariates=tuple(
            (name, col + offset)
            for (name, col), offset in zip(ds.covariates, [1e13, -1e13, 1e9, 0.0])))
        got, want = self.check(ds, [1, 2, 100, 256, 257, 399])
        assert fit_fwl(got).beta1 == pytest.approx(fit_fwl(want).beta1, rel=1e-12)

    def test_staged_flushes_without_chunking(self):
        # runs of mixed sizes, as the reader passes them where dropped rows
        # leave its 64-row blocks short; a run that straddles the end of the
        # stage is split there, so every flush but the last folds exactly
        # _STAGE_ROWS rows, and the last the rest
        ds = make_dataset(np.random.default_rng(134), n=1000, w=3)
        stage = regression._STAGE_ROWS
        ends = [int(e) for e in np.cumsum(np.resize([50, 7, 64, 33, 1, 60], 100))
                if e < ds.n_rows]
        runs = list(zip([0, *ends], [*ends, ds.n_rows]))
        assert sum(lo // stage < (hi - 1) // stage for lo, hi in runs) >= 1000 // stage
        stream = regression._Stream(ds.n_covariates + 1)
        flushes = []
        flush = stream.flush
        stream.flush = lambda: flushes.append(stream.fill) or flush()
        got = push_in_runs(stream, ds, ends)
        assert flushes == [stage] * (1000 // stage) + [1000 % stage]
        assert_same_statistics(got, build_design(ds))

    @pytest.mark.parametrize("seed", range(4))
    def test_run_sizes_do_not_move_the_result(self, seed):
        # the stage flushes at fixed row counts, so the design is a function
        # of the rows alone: pushed in runs of random sizes 1-64 or in the
        # reader's whole 64-row blocks, the same rows give the same bits
        rng = np.random.default_rng(seed)
        ds = make_dataset(rng, n=1500, w=3)
        ends = [int(e) for e in np.cumsum(rng.integers(1, 65, ds.n_rows)) if e < ds.n_rows]
        k = ds.n_covariates + 1
        got = push_in_runs(regression._Stream(k), ds, ends)
        want = push_in_runs(regression._Stream(k), ds, range(64, ds.n_rows, 64))
        for f in fields(want):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name

    def test_build_design_and_the_stream_share_the_fold(self, monkeypatch, tmp_path):
        # one core: build_design folds each group once, the stream once per
        # label and flush, through the same _Group.fold
        calls = []
        fold = regression._Group.fold

        def counted(self, stack, mean):
            calls.append(stack.shape[1])
            return fold(self, stack, mean)

        monkeypatch.setattr(regression._Group, "fold", counted)
        ds = make_dataset(np.random.default_rng(135), n=600, w=2)
        design = build_design(ds)
        assert calls == [design.n1, design.n2]
        path = tmp_path / "s.csv"
        cols = [ds.response, *(col for _, col in ds.covariates)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("g;y;x1;x2\n")
            for i, label in enumerate(ds.group_labels):
                fh.write(";".join([label, *(repr(float(col[i])) for col in cols)]) + "\n")
        calls.clear()
        streamed, used, dropped = regression.stream_design(path, "y", "g", ["x1", "x2"])
        assert (used, dropped) == (600, 0)
        # each flush of the 600 rows folds both labels
        assert len(calls) == 2 * -(-600 // regression._STAGE_ROWS) > 2
        assert_same_statistics(streamed, design)
