"""Pointwise and integrated orderings, and what they imply."""

import math

import pytest

from aspeq import (
    DomainMismatchError,
    ExponentialNormalized,
    Linear,
    LogWealth,
    ScaledBeta,
    Step,
    StepFunctionError,
    Triangular,
    TruncatedGaussian,
    Uniform,
    dominance_implications,
    exponential_chain,
    first_moment_by_equal_areas,
    first_order_dominates,
    second_order_dominates,
)

MARGIN_TOL = 2e-9


class TestFirstOrder:
    def test_exponential_pair(self):
        flat = ExponentialNormalized(0.0, 1.0, gamma=1.0)
        steep = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        v = first_order_dominates(flat, steep)
        assert v.dominates
        assert v.max_violation == 0.0
        assert v.strict_witness is not None
        assert 0.0 < v.strict_witness < 1.0

    def test_reversed_pair_fails(self):
        flat = ExponentialNormalized(0.0, 1.0, gamma=1.0)
        steep = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        v = first_order_dominates(steep, flat)
        assert not v.dominates
        assert v.max_violation > 0.1

    def test_lottery_shift(self):
        # mass pushed right sits below: its CDF is the dominant one
        rich = ScaledBeta(0.0, 1.0, alpha=5.0, beta=2.0)
        poor = ScaledBeta(0.0, 1.0, alpha=2.0, beta=5.0)
        assert first_order_dominates(rich, poor).dominates
        assert not first_order_dominates(poor, rich).dominates

    def test_crossing_pair_neither_way(self):
        s_curve = TruncatedGaussian(0.0, 1.0, center=0.5, scale=0.1)
        line = Uniform(0.0, 1.0)
        a = first_order_dominates(s_curve, line)
        b = first_order_dominates(line, s_curve)
        assert not a.dominates and not b.dominates
        assert a.max_violation > 1e-3 and b.max_violation > 1e-3
        # both directions still have strict points
        assert a.strict_witness is not None
        assert b.strict_witness is not None

    def test_identical_curves_not_strict(self):
        u = Uniform(0.0, 1.0)
        v = first_order_dominates(u, Uniform(0.0, 1.0))
        assert not v.dominates
        assert v.strict_witness is None
        assert v.max_violation == 0.0

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            first_order_dominates(Uniform(0.0, 1.0), Uniform(0.0, 2.0))

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            first_order_dominates(Uniform(0.0, 1.0), Triangular(0.0, 1.0), grid_points=10)

    def test_kinks_joined_into_grid(self):
        # a spike between uniform grid nodes must still be sampled
        pts = ((0.0, 0.0), (0.50001, 0.9), (1.0, 1.0))
        spiky = Linear(0.0, 1.0)
        bulge = __import__("aspeq").PiecewiseLinear(0.0, 1.0, points=pts)
        v = first_order_dominates(bulge, spiky, grid_points=64)
        assert not v.dominates
        assert v.max_violation >= 0.39

    def test_witness_at_largest_gap(self):
        flat = ExponentialNormalized(0.0, 1.0, gamma=1.0)
        steep = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        v = first_order_dominates(flat, steep)
        xs = [i / 512 for i in range(513)]
        gap = min(xs, key=lambda x: flat.value(x) - steep.value(x))
        assert v.strict_witness == pytest.approx(gap, abs=2e-3)


class TestImplications:
    def test_log_wealth_pair(self, catalog):
        nearly_linear = LogWealth(0.0, 1.0, wealth=10.0)
        concave = LogWealth(0.0, 1.0, wealth=1.0)
        lots, _ = catalog
        report = dominance_implications(nearly_linear, concave, list(lots))
        assert report.verdict.dominates
        assert report.all_hold
        assert report.mean_margin > 0.0
        assert len(report.per_lottery) == len(lots)
        for m in report.per_lottery:
            assert m.edu_margin >= -MARGIN_TOL
            assert m.ae_margin >= -MARGIN_TOL
            assert m.eu_margin >= -MARGIN_TOL

    def test_requires_dominance(self):
        concave = LogWealth(0.0, 1.0, wealth=1.0)
        nearly_linear = LogWealth(0.0, 1.0, wealth=10.0)
        with pytest.raises(ValueError, match="does not dominate"):
            dominance_implications(concave, nearly_linear, [Uniform(0.0, 1.0)])

    def test_margins_strictly_positive_for_strict_pair(self):
        low = ExponentialNormalized(0.0, 1.0, gamma=0.5)
        high = ExponentialNormalized(0.0, 1.0, gamma=4.0)
        report = dominance_implications(low, high, [Triangular(0.0, 1.0)])
        m = report.per_lottery[0]
        assert m.edu_margin > 1e-3
        assert m.ae_margin > 1e-3
        assert m.eu_margin > 1e-3
        assert report.mean_margin > 1e-3


class TestExponentialChain:
    @pytest.mark.parametrize(
        "ga,gb",
        [(0.5, 3.0), (-2.0, 2.0), (-4.0, -1.0), (0.0, 2.0), (1.0, 1.0)],
    )
    def test_margins_nonnegative(self, ga, gb):
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        report = exponential_chain(ga, gb, F)
        for m in report.margins():
            assert m >= -MARGIN_TOL

    def test_strict_for_separated_gammas(self):
        F = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        report = exponential_chain(0.5, 3.0, F)
        # normalized curves tie at both ends, so the pointwise floor is 0
        assert report.pointwise_margin == 0.0
        assert report.eu_margin > 0.01
        assert report.ae_margin > 0.001
        assert report.ce_margin > 0.001

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            exponential_chain(3.0, 0.5, Uniform(0.0, 1.0))

    def test_zero_gamma_linear_link(self):
        report = exponential_chain(0.0, 2.0, Triangular(0.0, 1.0))
        assert all(m >= -MARGIN_TOL for m in report.margins())
        assert report.gamma_a == 0.0

    def test_wide_interval(self):
        F = TruncatedGaussian(0.0, 200.0, center=80.0, scale=30.0)
        report = exponential_chain(0.001, 0.05, F)
        assert all(m >= -MARGIN_TOL * 200.0 for m in report.margins())
        assert report.ce_margin > 1.0


class TestSecondOrder:
    def test_pointwise_implies_integrated(self):
        flat = ExponentialNormalized(0.0, 1.0, gamma=1.0)
        steep = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        assert second_order_dominates(flat, steep).dominates

    def test_contraction_beats_spread_without_pointwise(self):
        tight = Triangular(0.0, 1.0)
        spread = Uniform(0.0, 1.0)
        assert not first_order_dominates(tight, spread).dominates
        v = second_order_dominates(tight, spread)
        assert v.dominates
        assert v.strict_witness == pytest.approx(0.5, abs=1e-2)

    def test_spread_does_not_beat_contraction(self):
        assert not second_order_dominates(Uniform(0.0, 1.0), Triangular(0.0, 1.0)).dominates

    def test_identical_curves_not_strict(self):
        v = second_order_dominates(Uniform(0.0, 1.0), Uniform(0.0, 1.0))
        assert not v.dominates
        assert v.strict_witness is None

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            second_order_dominates(Uniform(0.0, 1.0), Uniform(-1.0, 1.0))


class TestEqualAreas:
    def test_matches_density_mean(self, catalog):
        lots, uts = catalog
        for c in lots + uts:
            want, _ = c.density_moments()
            assert first_moment_by_equal_areas(c) == pytest.approx(want, abs=1e-8), c.kind

    def test_linear_midpoint(self):
        assert first_moment_by_equal_areas(Linear(2.0, 6.0)) == pytest.approx(4.0, abs=1e-10)

    def test_works_where_density_moments_cannot(self):
        # endpoint-singular density: the area route never touches it
        c = ScaledBeta(0.0, 1.0, alpha=0.5, beta=0.5)
        from aspeq import SingularDensityError

        with pytest.raises(SingularDensityError):
            c.density_moments()
        assert first_moment_by_equal_areas(c) == pytest.approx(0.5, abs=1e-8)

    def test_step_rejected(self):
        with pytest.raises(StepFunctionError):
            first_moment_by_equal_areas(Step(0.0, 1.0, threshold=0.3))


class TestStepUtilityImplications:
    def test_step_utility_margins_computed(self):
        # a step utility has an EU and an EDU against each lottery but no
        # certain equivalent; the implications need only the former
        report = dominance_implications(
            Step(0.0, 1.0, threshold=1.0),
            Linear(0.0, 1.0),
            [ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)],
        )
        assert len(report.per_lottery) == 1
        assert report.all_hold

    def test_step_lottery_has_no_aspiration_margin(self):
        with pytest.raises(StepFunctionError, match="step lottery"):
            dominance_implications(
                ExponentialNormalized(0.0, 1.0, gamma=0.5),
                ExponentialNormalized(0.0, 1.0, gamma=4.0),
                [Step(0.0, 1.0, threshold=0.5)],
            )
