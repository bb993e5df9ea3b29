"""Expected utility, its disutility complement, and the two equivalents."""

import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from aspeq import (
    DomainMismatchError,
    ExponentialNormalized,
    Linear,
    LogWealth,
    PiecewiseLinear,
    ScaledBeta,
    SingularDensityError,
    Step,
    StepFunctionError,
    Triangular,
    TruncatedGaussian,
    UnattainableTargetError,
    Uniform,
    aspiration_equivalent,
    certain_equivalent,
    effective_gamma,
    evaluate_pair,
    exceedance_probability,
    expected_disutility,
    expected_utility,
    exponential_or_linear,
)
from aspeq.duality import GAMMA_SPAN_CAP, _invert, effective_root, evaluate_pairs
from aspeq.numerics import ConvergenceError, NumericsError, QuadratureSpec


def oracle_pair(pdf, Ucdf, updf, Fcdf, lo, hi, splits=()):
    e_u = oracles.eu(pdf, Ucdf, lo, hi, splits)
    e_d = oracles.edu(Fcdf, updf, lo, hi, splits)
    return float(e_u), float(e_d)


class TestExpectedUtility:
    def test_triangular_exponential_anchor(self):
        F = Triangular(0.0, 200.0)
        U = ExponentialNormalized(0.0, 200.0, gamma=0.03)
        want = oracles.eu(
            lambda x: oracles.tri_pdf(x, 0, 200, 100),
            lambda x: oracles.exp_cdf(x, 0, 200, 0.03),
            0,
            200,
            splits=(100,),
        )
        assert expected_utility(F, U) == pytest.approx(float(want), abs=1e-10)

    def test_beta_exponential_anchor(self):
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        want = oracles.eu(
            lambda x: oracles.beta_pdf(x, 0, 1, 2, 8),
            lambda x: oracles.exp_cdf(x, 0, 1, 3),
            0,
            1,
        )
        assert expected_utility(F, U) == pytest.approx(float(want), abs=1e-10)

    def test_linear_utility_gives_mean_probability(self):
        # with the diagonal utility, EU is the mean rescaled to [0,1]
        F = ScaledBeta(0.0, 10.0, alpha=4.0, beta=6.0)
        U = Linear(0.0, 10.0)
        mean = F.density_moments()[0]
        assert expected_utility(F, U) == pytest.approx(mean / 10.0, abs=1e-9)

    def test_step_lottery_shortcut(self):
        F = Step(0.0, 1.0, threshold=0.4)
        U = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        assert expected_utility(F, U) == pytest.approx(U.value(0.4), abs=1e-12)

    def test_step_utility_shortcut(self):
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        U = Step(0.0, 1.0, threshold=0.4)
        assert expected_utility(F, U) == pytest.approx(1.0 - F.value(0.4), abs=1e-12)

    def test_two_steps_rejected(self):
        with pytest.raises(StepFunctionError):
            expected_utility(Step(0.0, 1.0, threshold=0.3), Step(0.0, 1.0, threshold=0.6))

    def test_singular_lottery_density_rejected(self):
        F = ScaledBeta(0.0, 1.0, alpha=0.5, beta=0.5)
        U = Linear(0.0, 1.0)
        with pytest.raises(SingularDensityError, match="disutility"):
            expected_utility(F, U)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            expected_utility(Uniform(0.0, 1.0), Linear(0.0, 2.0))


class TestDualityIdentity:
    def test_identity_across_catalog(self, catalog):
        lotteries, utilities = catalog
        worst = 0.0
        for F in lotteries:
            for U in utilities:
                eu = expected_utility(F, U)
                edu = expected_disutility(F, U)
                worst = max(worst, abs(eu + edu - 1.0))
        assert worst <= 2e-9

    @pytest.mark.parametrize(
        "F, want, slack",
        [
            *(
                pytest.param(ScaledBeta(0.0, 1.0, alpha=a, beta=b), a / (a + b), 0.0, id=f"{a:g}-{b:g}")
                for a, b in ((200000, 100000), (40000, 2.5), (3, 30000), (1.5, 40000))
            ),
            # beta(2e6, 1e6)'s log-density, a sum of terms of size
            # |log B(a, b)| = 1.9e6, carries about that many ulps of rounding:
            # the mass is seen, but the kernel's rounding moves EU by 7.9e-9,
            # past its budget (the kernel rewrite is open in ROADMAP.md)
            pytest.param(ScaledBeta(0.0, 1.0, alpha=2e6, beta=1e6), 2.0 / 3.0, 1e-8, id="2e+06-1e+06"),
            pytest.param(TruncatedGaussian(0.0, 1.0, center=0.5, scale=1e-5), 0.5, 0.0, id="gaussian-0.5-1e-05"),
            pytest.param(TruncatedGaussian(0.0, 1.0, center=0.3, scale=1e-4), 0.3, 0.0, id="gaussian-0.3-0.0001"),
        ],
    )
    def test_concentrated_mass_is_seen(self, F, want, slack):
        # the whole lottery sits in a bell far narrower than the opening
        # panels; under the linear utility EU is its mean
        U = Linear(0.0, 1.0)
        eu, edu = expected_utility(F, U), expected_disutility(F, U)
        assert abs(eu - want) <= max(1e-12, 1e-9 * want, slack)
        assert abs(eu + edu - 1.0) <= max(2e-9, slack)

    def test_edu_is_not_complement_shortcut(self):
        # EDU must come from its own integral; check it against the
        # oracle directly rather than via 1 - EU
        F = ScaledBeta(0.0, 1.0, alpha=3.0, beta=2.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=-1.5)
        want = oracles.edu(
            lambda x: oracles.beta_cdf(x, 0, 1, 3, 2),
            lambda x: oracles.exp_pdf(x, 0, 1, -1.5),
            0,
            1,
        )
        assert expected_disutility(F, U) == pytest.approx(float(want), abs=1e-10)

    def test_singular_utility_on_disutility_side(self):
        # arcsine-like utility works on the EDU side because that path
        # integrates the smooth lottery CDF against the utility density?
        # no: it integrates u * F, u is singular. The smooth-side rule is
        # the other way: EDU with singular LOTTERY is fine.
        F = ScaledBeta(0.0, 1.0, alpha=0.5, beta=0.5)
        U = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        want = oracles.edu(
            lambda x: oracles.beta_cdf(x, 0, 1, mp.mpf("0.5"), mp.mpf("0.5")),
            lambda x: oracles.exp_pdf(x, 0, 1, 2),
            0,
            1,
        )
        assert expected_disutility(F, U) == pytest.approx(float(want), abs=1e-9)


class TestEquivalents:
    def test_batch_matches_one_pair_at_a_time(self, catalog):
        pairs = list(zip(*catalog))
        want = [(certain_equivalent(f, u), aspiration_equivalent(f, u)) for f, u in pairs]
        got = [(r.certain_equivalent, r.aspiration_equivalent) for r in evaluate_pairs(pairs)]
        assert got == want

    def test_batch_fails_as_the_first_failing_pair(self):
        F = Triangular(0.0, 1.0)
        singular = ScaledBeta(0.0, 1.0, alpha=0.5, beta=2.0)
        # the second pair's certain equivalent is fine, its aspiration
        # equivalent integrates the singular utility density
        pairs = [(F, Linear(0.0, 1.0)), (F, singular), (F, Step(0.0, 1.0, threshold=0.5))]
        with pytest.raises(SingularDensityError) as alone:
            aspiration_equivalent(F, singular)
        with pytest.raises(SingularDensityError) as batch:
            list(evaluate_pairs(pairs))
        assert str(batch.value) == str(alone.value)

    def test_ce_inverts_utility(self):
        F = Triangular(0.0, 200.0)
        U = ExponentialNormalized(0.0, 200.0, gamma=0.03)
        ce = certain_equivalent(F, U)
        assert U.value(ce) == pytest.approx(expected_utility(F, U), abs=1e-9)

    def test_ae_inverts_lottery(self):
        F = Triangular(0.0, 200.0)
        U = ExponentialNormalized(0.0, 200.0, gamma=0.03)
        ae = aspiration_equivalent(F, U)
        assert F.value(ae) == pytest.approx(expected_disutility(F, U), abs=1e-9)

    def test_ce_against_oracle(self):
        F = Triangular(0.0, 200.0)
        U = ExponentialNormalized(0.0, 200.0, gamma=0.03)
        e_u = oracles.eu(
            lambda x: oracles.tri_pdf(x, 0, 200, 100),
            lambda x: oracles.exp_cdf(x, 0, 200, 0.03),
            0, 200, splits=(100,),
        )
        want = oracles.invert(lambda x: oracles.exp_cdf(x, 0, 200, 0.03), e_u, 0, 200)
        assert certain_equivalent(F, U) == pytest.approx(float(want), abs=1e-7)

    def test_ae_against_oracle(self):
        F = Triangular(0.0, 200.0)
        U = ExponentialNormalized(0.0, 200.0, gamma=0.03)
        e_d = oracles.edu(
            lambda x: oracles.tri_cdf(x, 0, 200, 100),
            lambda x: oracles.exp_pdf(x, 0, 200, 0.03),
            0, 200, splits=(100,),
        )
        want = oracles.invert(lambda x: oracles.tri_cdf(x, 0, 200, 100), e_d, 0, 200)
        assert aspiration_equivalent(F, U) == pytest.approx(float(want), abs=1e-7)

    def test_risk_averse_orders_ce_below_mean_ae_below_ce_side(self):
        # concave utility: CE < mean; the aspiration point sits lower
        # still for this right-skewed lottery
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        mean = F.density_moments()[0]
        assert certain_equivalent(F, U) < mean
        assert aspiration_equivalent(F, U) < mean

    def test_ce_rejects_step_utility(self):
        with pytest.raises(StepFunctionError):
            certain_equivalent(Uniform(0.0, 1.0), Step(0.0, 1.0, threshold=0.5))

    def test_ae_rejects_step_lottery(self):
        with pytest.raises(StepFunctionError):
            aspiration_equivalent(Step(0.0, 1.0, threshold=0.5), Linear(0.0, 1.0))

    def test_ae_with_step_utility_is_threshold_for_any_lottery(self):
        # the aspiration point of an all-or-nothing utility is its own
        # threshold: F(AE) = EDU = F(x0)
        F = ScaledBeta(0.0, 1.0, alpha=3.0, beta=2.0)
        U = Step(0.0, 1.0, threshold=0.37)
        assert aspiration_equivalent(F, U) == pytest.approx(0.37, abs=1e-9)

    def test_evaluate_pair_consistent(self):
        F = ScaledBeta(0.0, 1.0, alpha=4.0, beta=4.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=1.0)
        r = evaluate_pair(F, U)
        assert r.expected_utility == pytest.approx(expected_utility(F, U), abs=1e-12)
        assert r.expected_disutility == pytest.approx(expected_disutility(F, U), abs=1e-12)
        assert r.certain_equivalent == pytest.approx(certain_equivalent(F, U), abs=1e-9)
        assert r.aspiration_equivalent == pytest.approx(aspiration_equivalent(F, U), abs=1e-9)
        assert r.expected_utility + r.expected_disutility == pytest.approx(1.0, abs=2e-9)

    def test_evaluate_pair_rejects_steps(self):
        with pytest.raises(StepFunctionError):
            evaluate_pair(Step(0.0, 1.0, threshold=0.5), Linear(0.0, 1.0))


class TestExceedance:
    def test_complement_of_cdf(self):
        F = ScaledBeta(0.0, 10.0, alpha=4.0, beta=6.0)
        assert exceedance_probability(F, 3.0) == pytest.approx(1.0 - F.value(3.0), abs=1e-12)

    def test_win_win_identity(self):
        # 1 - F(AE) equals EU exactly; the delegation argument rests on it
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=5.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=4.0)
        ae = aspiration_equivalent(F, U)
        assert exceedance_probability(F, ae) == pytest.approx(
            expected_utility(F, U), abs=2e-9
        )


ROOT_LOTTERIES = [
    ScaledBeta(0.0, 200.0, alpha=1.4, beta=3.0),
    Triangular(0.0, 200.0, mode=40.0),
    TruncatedGaussian(0.0, 200.0, center=90.0, scale=10.0),
    PiecewiseLinear(0.0, 200.0, points=((0.0, 0.0), (40.0, 0.1), (100.0, 0.6), (160.0, 0.7), (200.0, 1.0))),
]


class TestEffectiveGamma:
    @pytest.mark.parametrize("level", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("F", ROOT_LOTTERIES, ids=lambda F: F.kind)
    def test_root_edu_is_the_integral_at_the_root(self, F, level):
        # the aspiration equivalent the root hands back, read from the EDU
        # the search integrated there, has the bits of integrating it again
        target = float(f"{F.quantile(level):.6g}")
        g, ae = effective_root(F, target, None)
        assert g == effective_gamma(F, target)
        assert ae == aspiration_equivalent(F, exponential_or_linear(0.0, 200.0, g))

    @pytest.mark.parametrize("level", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("F", ROOT_LOTTERIES, ids=lambda F: F.kind)
    def test_root_takes_at_most_two_integrals(self, quadrature_batches, F, level):
        # the surrogate's root meets the stop at the first or second exact EDU
        effective_root(F, float(f"{F.quantile(level):.6g}"))
        assert sum(n for _, n in quadrature_batches) <= 2

    def test_boundary_layer_root_meets_the_stop(self, quadrature_batches):
        # the root sits at gamma*span = -315, in a boundary layer the fixed
        # rule cannot resolve: the surrogate's start misses the stop, and the
        # walk from it brackets the root within a few exact EDUs
        F = ExponentialNormalized(0.0, 200.0, gamma=0.01)
        g, ae = effective_root(F, 199.363)
        assert sum(n for _, n in quadrature_batches) <= 8
        U = exponential_or_linear(0.0, 200.0, g)
        assert abs(expected_disutility(F, U) - F.value(199.363)) <= 1e-10
        assert ae == aspiration_equivalent(F, U)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.builds(Uniform, st.just(0.0), st.just(200.0)),
            st.builds(Triangular, st.just(0.0), st.just(200.0), st.floats(0.0, 200.0)),
            st.builds(ScaledBeta, st.just(0.0), st.just(200.0), st.floats(0.2, 9.0), st.floats(0.2, 9.0)),
            st.builds(TruncatedGaussian, st.just(0.0), st.just(200.0), st.floats(20.0, 180.0), st.floats(0.05, 200.0)),
            st.builds(ExponentialNormalized, st.just(0.0), st.just(200.0), st.floats(-0.05, -0.001) | st.floats(0.001, 0.05)),
            st.builds(LogWealth, st.just(0.0), st.just(200.0), st.floats(1.0, 300.0)),
            st.lists(st.tuples(st.floats(1.0, 199.0), st.floats(0.0, 1.0)), min_size=1, max_size=4, unique_by=lambda p: p[0]).map(
                lambda pts: PiecewiseLinear(0.0, 200.0, points=((0.0, 0.0), *zip(sorted(x for x, _ in pts), sorted(y for _, y in pts)), (200.0, 1.0)))),
        ),
        st.floats(0.001, 0.999),
    )
    def test_root_meets_the_stop(self, F, level):
        # every root is a point whose exact EDU meets the stop, and its AE has
        # the bits of the one-pair call there; a refusal means no gamma within
        # the cap reaches the target
        target = F.quantile(level)
        p = F.value(target)
        assume(0.0 < target < 200.0 and 0.0 < p < 1.0)
        try:
            g, ae = effective_root(F, target)
        except UnattainableTargetError:
            ends = [expected_disutility(F, ExponentialNormalized(0.0, 200.0, gamma=s * GAMMA_SPAN_CAP / 200.0)) for s in (-1, 1)]
            assert ends[0] < p or ends[1] > p
            return
        U = exponential_or_linear(0.0, 200.0, g)
        assert abs(expected_disutility(F, U) - p) <= 1e-10
        assert ae == aspiration_equivalent(F, U)

    def test_round_trip_on_interior_target(self):
        F = ScaledBeta(0.0, 10.0, alpha=4.0, beta=6.0)
        g = effective_gamma(F, 3.0)
        U = exponential_or_linear(0.0, 10.0, g)
        assert aspiration_equivalent(F, U) == pytest.approx(3.0, abs=1e-8)

    def test_against_independent_root(self):
        F = ScaledBeta(0.0, 10.0, alpha=4.0, beta=6.0)
        got = effective_gamma(F, 3.0)

        def gap(g):
            g = mp.mpf(g)
            e_d = oracles.edu(
                lambda x: oracles.beta_cdf(x, 0, 10, 4, 6),
                lambda x: oracles.exp_pdf(x, 0, 10, g),
                0,
                10,
            )
            return e_d - oracles.beta_cdf(3, 0, 10, 4, 6)

        want = float(mp.findroot(gap, mp.mpf("0.3")))
        assert got == pytest.approx(want, abs=1e-7)

    def test_risk_seeking_side(self):
        # target above the mean needs a negative coefficient
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=2.0)
        g = effective_gamma(F, 0.8)
        assert g < 0.0
        U = exponential_or_linear(0.0, 1.0, g)
        assert aspiration_equivalent(F, U) == pytest.approx(0.8, abs=1e-8)

    def test_median_target_is_neutral(self):
        # AE under the linear utility is the median; gamma crosses zero
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=2.0)
        g = effective_gamma(F, F.quantile(0.5))
        assert abs(g) < 1e-6

    def test_boundary_targets_rejected(self):
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=2.0)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(UnattainableTargetError):
                effective_gamma(F, bad)

    def test_target_beyond_gamma_cap_rejected(self, quadrature_batches):
        # a target this deep into the tail needs gamma past the cap: the
        # surrogate points past it, and the one exact EDU, at the cap,
        # confirms the refusal
        F = Uniform(0.0, 1.0)
        with pytest.raises(UnattainableTargetError):
            effective_gamma(F, 1e-5)
        assert sum(n for _, n in quadrature_batches) == 1

    def test_cap_refusal_whatever_the_span(self, quadrature_batches):
        # 500 / span rounds up for this span, so a gamma at the cap must be
        # stepped down to one the exponential curve accepts
        span = 961766.9156903872
        assert (GAMMA_SPAN_CAP / span) * span > GAMMA_SPAN_CAP
        with pytest.raises(UnattainableTargetError):
            effective_gamma(Uniform(0.0, span), 1e-5 * span)
        assert sum(n for _, n in quadrature_batches) == 1

    def test_tiny_span_is_not_refused(self):
        # on [5, 5 + 1e-9] the nodes carry about 1e-7 of relative rounding,
        # so no EDU near the root (gamma*span = -101.5) meets the 1e-10
        # stop: a convergence failure, not an unattainable target, since
        # the walk refuses only at the cap
        F = ExponentialNormalized(5.0, 5.0 + 1e-9, gamma=3e9)
        with pytest.raises(ConvergenceError):
            effective_gamma(F, 5.00000000099)

    def test_target_in_zero_mass_tail_rejected(self):
        # no mass below 0.3: every curvature puts the AE above the target
        F = PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.3, 0.0), (1.0, 1.0)))
        with pytest.raises(UnattainableTargetError, match="zero-mass tail"):
            effective_gamma(F, 0.2)

    def test_monotone_in_target(self):
        F = ScaledBeta(0.0, 1.0, alpha=3.0, beta=3.0)
        gs = [effective_gamma(F, t) for t in (0.3, 0.4, 0.5, 0.6)]
        assert all(b < a for a, b in zip(gs, gs[1:]))


class TestExponentialOrLinear:
    def test_zero_gives_linear(self):
        c = exponential_or_linear(0.0, 1.0, 0.0)
        assert c.kind == "linear"

    def test_nonzero_gives_exponential(self):
        c = exponential_or_linear(0.0, 1.0, 2.0)
        assert c.kind == "exponential_normalized"
        assert c.gamma == 2.0

    def test_cap_constant_consistency(self):
        with pytest.raises(Exception):
            exponential_or_linear(0.0, 1.0, GAMMA_SPAN_CAP + 1.0)


class TestRoleSwap:
    """EDU is EU with the roles of lottery and utility swapped: one
    integral, computed on its own for each side."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # the exception type is part of the outcome
            return type(exc)

    def test_edu_is_eu_swapped_bit_for_bit(self, catalog):
        lotteries, utilities = catalog
        # a singular density and a step exercise the refusals and shortcuts
        extras = [ScaledBeta(0.0, 1.0, alpha=0.5, beta=0.5), Step(0.0, 1.0, threshold=0.5)]
        for F in list(lotteries) + extras:
            for U in list(utilities) + extras:
                edu = self._outcome(expected_disutility, F, U)
                swapped = self._outcome(expected_utility, U, F)
                assert edu == swapped, (F, U)
                assert type(edu) is type(swapped)

    def test_neither_side_calls_the_other(self, monkeypatch):
        # each public function integrates on its own, so a per-name call
        # count is a count of integrals
        import aspeq.duality as duality

        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        U = ExponentialNormalized(0.0, 1.0, gamma=2.0)
        want_eu, want_edu = expected_utility(F, U), expected_disutility(F, U)

        def refuse(*args, **kwargs):
            raise AssertionError("called through the other public name")

        monkeypatch.setattr(duality, "expected_disutility", refuse)
        assert duality.expected_utility(F, U) == want_eu
        monkeypatch.setattr(duality, "expected_disutility", expected_disutility)
        monkeypatch.setattr(duality, "expected_utility", refuse)
        assert duality.expected_disutility(F, U) == want_edu

    def test_singular_message_points_at_the_swap(self):
        with pytest.raises(SingularDensityError, match="utility density .*expected_utility"):
            expected_disutility(Linear(0.0, 1.0), ScaledBeta(0.0, 1.0, alpha=0.5, beta=0.5))

    def test_domain_message_names_lottery_and_utility(self):
        with pytest.raises(DomainMismatchError, match=r"lottery domain \[0.0, 1.0\]"):
            expected_disutility(Uniform(0.0, 1.0), Linear(0.0, 2.0))


class TestInvertSlack:
    """EU or EDU past an end of [0, 1] by no more than the quadrature
    budget is roundoff and snaps; further out it is a real error."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_within_budget_snaps(self, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        u = Uniform(0.0, 10.0)
        assert _invert(u, 1.0 + 0.9 * tol, spec) == 10.0
        assert _invert(u, -0.9 * tol, spec) == 0.0

    @pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
    def test_beyond_budget_raises(self, tol):
        spec = QuadratureSpec(relative_tolerance=tol)
        u = Uniform(0.0, 10.0)
        with pytest.raises(NumericsError, match="expected a probability"):
            _invert(u, 1.0 + 1.1 * tol, spec)
        with pytest.raises(NumericsError, match="expected a probability"):
            _invert(u, -1.1 * tol, spec)

    def test_default_spec_keeps_its_slack(self):
        u = Uniform(0.0, 10.0)
        assert _invert(u, 1.0 + 5e-10, None) == 10.0
        with pytest.raises(NumericsError):
            _invert(u, 1.0 + 2e-9, None)
