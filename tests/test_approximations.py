"""Curvature tolerances, second-order equivalents, cumulant series."""

import math
import warnings
from dataclasses import astuple
from itertools import product

import mpmath as mp
import pytest

import oracles
from aspeq import (
    CURVE_KINDS,
    CurvatureError,
    Curve,
    DomainMismatchError,
    ExponentialNormalized,
    Linear,
    LogWealth,
    PiecewiseLinear,
    ScaledBeta,
    SeriesDivergenceWarning,
    SingularDensityError,
    Step,
    StepFunctionError,
    Triangular,
    TruncatedGaussian,
    Uniform,
    ae_cumulant_series,
    ae_taylor2,
    aspiration_equivalent,
    ce_taylor2,
    certain_equivalent,
    risk_tolerance,
    spread_tolerance,
)


class TestRiskTolerance:
    def test_exponential_closed_form(self):
        U = ExponentialNormalized(0.0, 1.0, gamma=4.0)
        assert risk_tolerance(U, 0.3) == pytest.approx(0.25)
        assert risk_tolerance(U, 0.9) == pytest.approx(0.25)

    def test_negative_gamma(self):
        U = ExponentialNormalized(0.0, 1.0, gamma=-2.0)
        assert risk_tolerance(U, 0.5) == pytest.approx(-0.5)

    def test_linear_infinite(self):
        assert math.isinf(risk_tolerance(Linear(0.0, 1.0), 0.5))
        assert math.isinf(risk_tolerance(Uniform(0.0, 1.0), 0.5))

    def test_log_wealth_analytic(self):
        U = LogWealth(0.0, 10.0, wealth=2.5)
        assert risk_tolerance(U, 4.0) == pytest.approx(6.5)

    def test_truncated_gaussian_analytic(self):
        # -U'/U'' = scale^2/(x - center): convex below the center, so the
        # tolerance comes out negative there
        U = TruncatedGaussian(0.0, 1.0, center=0.8, scale=0.4)
        x = 0.3
        assert risk_tolerance(U, x) == pytest.approx(0.4**2 / (x - 0.8), rel=1e-12)

    def test_piecewise_linear_flat_between_kinks(self):
        U = PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.4, 0.7), (1.0, 1.0)))
        assert math.isinf(risk_tolerance(U, 0.2))

    def test_kink_guard(self):
        U = PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.4, 0.7), (1.0, 1.0)))
        with pytest.raises(CurvatureError):
            risk_tolerance(U, 0.4)

    def test_step_rejected(self):
        with pytest.raises(StepFunctionError):
            risk_tolerance(Step(0.0, 1.0, threshold=0.5), 0.5)

    def test_out_of_domain(self):
        from aspeq import DomainError

        with pytest.raises(DomainError):
            risk_tolerance(Linear(0.0, 1.0), 2.0)


class TestSpreadTolerance:
    def test_uniform_infinite(self):
        assert math.isinf(spread_tolerance(Uniform(0.0, 1.0), 0.5))

    def test_exponential_closed_form(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=5.0)
        assert spread_tolerance(F, 0.4) == pytest.approx(0.2)

    def test_beta_matches_analytic(self):
        # f = 12 x (1-x)^2 on [0,1]: -f/f' = x(1-x)/(3x-1)
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        x = 0.19321634509363028
        want = -x * (1.0 - x) / (1.0 - 3.0 * x)
        assert spread_tolerance(F, x) == pytest.approx(want, rel=1e-5)

    def test_triangular_kink_guard(self):
        F = Triangular(0.0, 1.0)
        with pytest.raises(CurvatureError):
            spread_tolerance(F, 0.5)

    def test_triangular_off_kink(self):
        # straight density segments: the slope is constant, -f/f' linear
        F = Triangular(0.0, 1.0)
        st = spread_tolerance(F, 0.25)
        assert st == pytest.approx(-0.25, rel=1e-4)

    def test_step_rejected(self):
        with pytest.raises(StepFunctionError):
            spread_tolerance(Step(0.0, 1.0, threshold=0.5), 0.4)

    @pytest.mark.parametrize(
        "F,x",
        [
            (ScaledBeta(0.0, 1.0, alpha=2.0, beta=0.5), 1.0),
            (ScaledBeta(-3.0, 5.0, alpha=0.5, beta=2.0), -3.0),
        ],
        ids=["upper", "lower"],
    )
    def test_unbounded_density_end_is_the_limit(self, F, x):
        # f ~ d^(-1/2) at distance d from the end, so -f/f' = 2d -> 0
        assert math.isinf(F.density(x))
        assert risk_tolerance(F, x) == 0.0

    @pytest.mark.parametrize(
        "F,x",
        [
            (ScaledBeta(0.0, 1.0, alpha=2.0, beta=2.0), 0.0),
            (ScaledBeta(0.0, 1.0, alpha=2.0, beta=2.0), 1.0),
            (ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0), 1.0),
            (Triangular(0.0, 1.0, mode=0.3), 0.0),
            (ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0), 1.0),
            (ScaledBeta(-1.0, 3.0, alpha=3.0, beta=1.0), -1.0),
            (ScaledBeta(-1.0, 3.0, alpha=1.0, beta=2.5), 3.0),
        ],
        ids=[
            "beta_lower", "beta_upper", "beta_flat_upper", "triangular_lower",
            "beta_flatter_upper", "beta_flat_lower", "beta_non_integer_upper",
        ],
    )
    def test_zero_density_end_is_positive_zero(self, F, x):
        assert F.density(x) == 0.0
        got = spread_tolerance(F, x)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


class TestCeTaylor:
    def test_exponential_utility_triangular_lottery(self):
        F = Triangular(0.0, 200.0)
        U = ExponentialNormalized(0.0, 200.0, gamma=0.03)
        rep = ce_taylor2(F, U)
        assert rep.first_moment == pytest.approx(100.0, abs=1e-7)
        assert rep.central_second_moment == pytest.approx(200.0**2 / 24.0, rel=1e-7)
        # mean - var/(2 rho), rho = 1/0.03
        assert rep.approx == pytest.approx(100.0 - (200.0**2 / 24.0) * 0.03 / 2.0, rel=1e-6)
        assert rep.exact == pytest.approx(certain_equivalent(F, U), abs=1e-9)
        assert rep.premium == pytest.approx(rep.first_moment - rep.approx, abs=1e-12)

    def test_narrow_lottery_is_second_order_accurate(self):
        F = TruncatedGaussian(0.0, 200.0, center=100.0, scale=5.0)
        U = ExponentialNormalized(0.0, 200.0, gamma=0.01)
        rep = ce_taylor2(F, U)
        assert abs(rep.exact - rep.approx) <= 1e-3 * 200.0

    def test_linear_utility_approx_is_mean(self):
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=5.0)
        rep = ce_taylor2(F, Linear(0.0, 1.0))
        assert rep.tolerance_term == 0.0
        assert rep.approx == pytest.approx(rep.first_moment)
        assert rep.exact == pytest.approx(rep.first_moment, abs=1e-9)


class TestAeTaylor:
    def test_printed_example_quantities(self):
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=5.0)
        rep = ae_taylor2(F, U)
        u_mean = oracles.density_mean_var(
            lambda x: oracles.exp_pdf(x, 0, 1, 5), 0, 1
        )
        assert rep.first_moment == pytest.approx(float(u_mean[0]), abs=1e-9)
        assert rep.central_second_moment == pytest.approx(float(u_mean[1]), abs=1e-9)
        e_d = oracles.edu(
            lambda x: oracles.beta_cdf(x, 0, 1, 2, 3),
            lambda x: oracles.exp_pdf(x, 0, 1, 5),
            0,
            1,
        )
        want_exact = oracles.invert(lambda x: oracles.beta_cdf(x, 0, 1, 2, 3), e_d, 0, 1)
        assert rep.exact == pytest.approx(float(want_exact), abs=1e-7)

    def test_uniform_lottery_approx_is_utility_mean(self):
        U = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        rep = ae_taylor2(Uniform(0.0, 1.0), U)
        assert rep.tolerance_term == 0.0
        assert rep.approx == pytest.approx(rep.first_moment)
        # and for the flat lottery the approximation is exact
        assert rep.exact == pytest.approx(rep.first_moment, abs=1e-8)

    def test_exponential_lottery_gaussian_utility_accurate(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        U = TruncatedGaussian(0.0, 1.0, center=0.45, scale=0.12)
        rep = ae_taylor2(F, U)
        assert abs(rep.exact - rep.approx) <= 1e-3

    @pytest.mark.parametrize("scale", [1e-160, 1e-170], ids=["subnormal", "underflow"])
    def test_tolerance_past_float_range_gives_an_infinite_term(self, scale):
        # 0.2 off the center the tolerance is -scale**2 / 0.2: subnormal,
        # or rounded to -0.0
        F = TruncatedGaussian(0.0, 1.0, center=0.5, scale=scale)
        rep = ae_taylor2(F, ExponentialNormalized(0.0, 1.0, gamma=3.0))
        assert rep.tolerance_term == math.inf and rep.approx == math.inf

    def test_triangular_kink_message_mentions_limit(self):
        F = Triangular(0.0, 1.0)
        U = TruncatedGaussian(0.0, 1.0, center=0.5, scale=0.2)
        # utility-density mean lands on the mode
        with pytest.raises(CurvatureError, match="infinite"):
            ae_taylor2(F, U)


class TestCumulantSeries:
    def test_closed_form_equals_direct(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=20.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        cs = ae_cumulant_series(F, U, terms=3)
        assert cs.closed_form == pytest.approx(aspiration_equivalent(F, U), abs=1e-9)

    def test_closed_form_against_oracle(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=20.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        cs = ae_cumulant_series(F, U, terms=3)
        want = oracles.exp_closed_ae(
            lambda x: oracles.exp_pdf(x, 0, 1, 2), 0, 1, 20
        )
        assert cs.closed_form == pytest.approx(float(want), abs=1e-10)

    def test_series_converges_for_mild_rate(self):
        # lam moderate, lam^k kappa_k/k! shrinking: truncation tracks the
        # closed form tightly and no warning fires
        F = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=5.0)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = ae_cumulant_series(F, U, terms=6)
        assert not cs.diverging
        assert cs.series == pytest.approx(cs.closed_form, abs=1e-3)

    def test_steep_rate_diverges_with_warning(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=20.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        with pytest.warns(SeriesDivergenceWarning):
            cs = ae_cumulant_series(F, U, terms=6)
        assert cs.diverging
        assert abs(cs.series - cs.closed_form) > 1e-3

    def test_symmetric_density_zero_terms_not_divergence(self):
        # linear utility: uniform density, odd cumulants exactly zero; a
        # tiny even term after a zero one must not read as growth
        import warnings

        F = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs = ae_cumulant_series(F, Linear(0.0, 1.0), terms=6)
        assert not cs.diverging
        assert cs.series == pytest.approx(cs.closed_form, abs=1e-3)

    def test_term_count_respected(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=5.0)
        cs = ae_cumulant_series(F, U, terms=4)
        assert len(cs.terms) == 4

    def test_first_term_is_shifted_mean(self):
        F = ExponentialNormalized(2.0, 3.0, gamma=4.0)
        U = ExponentialNormalized(2.0, 3.0, gamma=5.0)
        cs = ae_cumulant_series(F, U, terms=1)
        u_mean = U.density_moments()[0]
        assert cs.terms[0] == pytest.approx(u_mean - 2.0, abs=1e-9)
        assert cs.series == pytest.approx(u_mean, abs=1e-9)

    def test_non_exponential_lottery_rejected(self):
        with pytest.raises(ValueError):
            ae_cumulant_series(Uniform(0.0, 1.0), Linear(0.0, 1.0), terms=3)

    def test_negative_rate_rejected(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=-2.0)
        with pytest.raises(ValueError):
            ae_cumulant_series(F, Linear(0.0, 1.0), terms=3)

    def test_bad_term_count_rejected(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        with pytest.raises(ValueError):
            ae_cumulant_series(F, Linear(0.0, 1.0), terms=0)
        with pytest.raises(ValueError):
            ae_cumulant_series(F, Linear(0.0, 1.0), terms=9)

    def test_step_utility_rejected(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        with pytest.raises(StepFunctionError):
            ae_cumulant_series(F, Step(0.0, 1.0, threshold=0.5), terms=3)

    def test_singular_utility_rejected(self):
        F = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        with pytest.raises(SingularDensityError, match="cumulants are not computable"):
            ae_cumulant_series(F, ScaledBeta(0.0, 1.0, alpha=0.5, beta=2.0), terms=3)


PIECEWISE_KNOTS = ((0.0, 0.0), (0.4, 0.7), (1.0, 1.0))


def _oracle_tolerance(cdf, x, lo, hi):
    """-C'/C'' at x from an mpmath CDF, one-sided at an end."""
    direction = 1 if x == lo else -1 if x == hi else 0
    d1, d2 = (mp.diff(cdf, x, n, direction=direction) for n in (1, 2))
    return -d1 / d2 if d2 else mp.inf


class TestOneTolerance:
    @pytest.mark.parametrize(
        "curve,cdf,xs",
        [
            (Uniform(0.0, 2.0), lambda x: oracles.linear_cdf(x, 0, 2), (0.0, 0.3, 1.0, 1.7, 2.0)),
            (Linear(-1.0, 1.0), lambda x: oracles.linear_cdf(x, -1, 1), (-1.0, -0.5, 0.0, 0.8, 1.0)),
            (
                ExponentialNormalized(0.0, 1.0, gamma=5.0),
                lambda x: oracles.exp_cdf(x, 0, 1, 5),
                (0.0, 0.1, 0.5, 0.9, 1.0),
            ),
            (
                ExponentialNormalized(0.0, 10.0, gamma=-0.7),
                lambda x: oracles.exp_cdf(x, 0, 10, -0.7),
                (0.0, 1.0, 5.0, 9.0, 10.0),
            ),
            (LogWealth(0.0, 10.0, wealth=2.5), lambda x: oracles.logw_cdf(x, 0, 10, 2.5), (0.0, 1.0, 4.0, 9.0, 10.0)),
            (
                PiecewiseLinear(0.0, 1.0, points=PIECEWISE_KNOTS),
                lambda x: oracles.polyline_cdf(x, PIECEWISE_KNOTS),
                (0.0, 0.2, 0.7, 1.0),
            ),
            (Triangular(0.0, 1.0), lambda x: oracles.tri_cdf(x, 0, 1, 0.5), (0.0, 0.25, 0.75, 1.0)),
            (Triangular(-2.0, 3.0, mode=-2.0), lambda x: oracles.tri_cdf(x, -2, 3, -2), (-2.0, 0.5, 3.0)),
            (Triangular(-2.0, 3.0, mode=3.0), lambda x: oracles.tri_cdf(x, -2, 3, 3), (-2.0, 0.5, 3.0)),
            (
                # the center is the flat top: infinite there
                TruncatedGaussian(0.0, 1.0, center=0.8, scale=0.4),
                lambda x: oracles.gauss_cdf(x, 0, 1, 0.8, 0.4),
                (0.0, 0.3, 0.8, 0.95, 1.0),
            ),
            (
                TruncatedGaussian(10.0, 30.0, center=5.0, scale=3.0),
                lambda x: oracles.gauss_cdf(x, 10, 30, 5, 3),
                (10.0, 17.5, 30.0),
            ),
            (
                ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0),
                lambda x: oracles.beta_cdf(x, 0, 1, 2, 3),
                (0.0, 0.19321634509363028, 0.2, 0.7),
            ),
            (
                # 0.125 is the mode: infinite there
                ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0),
                lambda x: oracles.beta_cdf(x, 0, 1, 2, 8),
                (0.0, 0.1, 0.125, 0.5),
            ),
            (
                # a unit shape at lo: the density starts from 4/3 there
                ScaledBeta(-1.0, 3.0, alpha=1.0, beta=2.5),
                lambda x: oracles.beta_cdf(x, -1, 3, 1, 2.5),
                (-1.0, 0.0, 2.9),
            ),
            (
                # a unit shape at hi
                ScaledBeta(-1.0, 3.0, alpha=3.0, beta=1.0),
                lambda x: oracles.beta_cdf(x, -1, 3, 3, 1),
                (0.5, 3.0),
            ),
            (ScaledBeta(0.0, 2.0), lambda x: oracles.beta_cdf(x, 0, 2, 1, 1), (0.0, 1.2, 2.0)),
        ],
        ids=[
            "uniform", "linear", "exponential", "exponential_convex", "log_wealth",
            "piecewise_linear", "triangular", "triangular_lo", "triangular_hi",
            "gaussian", "gaussian_tail", "scaled_beta",
            "beta_mode", "beta_unit_lo", "beta_unit_hi", "beta_flat",
        ],
    )
    def test_closed_form_matches_density_recipe(self, curve, cdf, xs):
        # -C'/C'' of an independent CDF, to 1e-12 relative: infinite where
        # C'' is 0, and positive 0.0 at an end where the density starts
        # from 0; a Python float with no warning either way. An end where
        # C' and C'' both vanish is 0/0 to the oracle:
        # test_zero_density_end_is_positive_zero pins those
        for x in xs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = risk_tolerance(curve, x)
            want = _oracle_tolerance(cdf, x, curve.lo, curve.hi)
            assert type(got) is float
            if abs(want) > 1e15 * curve.span:
                assert got == math.inf, x
            elif abs(want) < 1e-15 * curve.span:
                assert got == 0.0 and math.copysign(1.0, got) == 1.0, x
            else:
                assert abs(got - want) <= 1e-12 * abs(want), (x, got, want)

    def test_every_density_kind_has_a_closed_form(self):
        kinds = [cls for cls in CURVE_KINDS.values() if cls is not Step]
        assert len(kinds) == 8
        assert all(cls.tolerance_at is not Curve.tolerance_at for cls in kinds)
        with pytest.raises(NotImplementedError):
            Curve(0.0, 1.0).tolerance_at(0.5)

    def test_log_wealth_spread_tolerance_is_exact(self):
        F = LogWealth(0.0, 10.0, wealth=2.5)
        for x in (0.0, 3.7, 10.0):
            assert spread_tolerance(F, x) == 2.5 + x


class TestRoleSwap:
    def test_ae_is_ce_with_roles_swapped(self, catalog):
        for F, U in product(*catalog):
            try:
                ae = ae_taylor2(F, U)
            except CurvatureError as exc:
                with pytest.raises(CurvatureError) as swapped:
                    ce_taylor2(U, F)
                assert str(swapped.value) == str(exc)
                continue
            ce = ce_taylor2(U, F)
            assert [v.hex() for v in astuple(ae)] == [v.hex() for v in astuple(ce)]
            assert ae.exact == aspiration_equivalent(F, U)
            assert ae.tolerance == spread_tolerance(F, ae.first_moment)

    @pytest.mark.parametrize(
        "F,U",
        [
            (Triangular(0.0, 1.0, mode=0.3), ScaledBeta(0.0, 1.0, alpha=0.5, beta=2.0)),
            (Uniform(0.0, 1.0), Linear(0.0, 2.0)),
        ],
        ids=["singular_utility", "domains"],
    )
    def test_ae_refusals_do_not_call_the_utility_a_lottery(self, F, U):
        with pytest.raises((SingularDensityError, DomainMismatchError)) as refused:
            ae_taylor2(F, U)
        message = str(refused.value)
        assert "lottery density" not in message
        assert f"lottery domain [{U.lo!r}, {U.hi!r}]" not in message

    @pytest.mark.parametrize(
        "curve",
        [ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0), ScaledBeta(0.0, 1.0, alpha=2.0, beta=0.5)],
        ids=["density_zero_at_hi", "density_unbounded_at_hi"],
    )
    def test_point_mass_needs_no_correction(self, curve):
        # the tolerance at hi is 0 or undefined; a step has nothing to correct
        step = Step(0.0, 1.0, threshold=1.0)
        for rep in (ae_taylor2(curve, step), ce_taylor2(step, curve)):
            assert rep.tolerance_term == 0.0
            assert rep.approx == rep.exact == 1.0
