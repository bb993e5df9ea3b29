"""Curve kinds: CDF values, densities, quantiles, moments, validation."""

import dataclasses
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import aspeq
import oracles
from aspeq import (
    CURVE_KINDS,
    CurveParameterError,
    DomainError,
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
    Uniform,
)
from aspeq.duality import _pair_job
from aspeq.numerics import MAX_PANELS, QuadratureError, QuadratureSpec, integrate, integrate_many
from aspeq.scenarios import load_scenario
from conftest import smooth_lotteries, smooth_utilities


ALL_SMOOTH = smooth_lotteries() + smooth_utilities()
FIXTURES = Path(aspeq.__file__).parent / "fixtures"


@pytest.mark.parametrize("curve", ALL_SMOOTH, ids=lambda c: f"{c.kind}")
class TestCommonContract:
    def test_endpoints(self, curve):
        assert curve.value(curve.lo) == pytest.approx(0.0, abs=1e-12)
        assert curve.value(curve.hi) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self, curve):
        xs = [curve.lo + k * curve.span / 40 for k in range(41)]
        vals = [curve.value(x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_density_nonnegative(self, curve):
        if curve.has_singular_density:
            pytest.skip("endpoint-singular density")
        xs = [curve.lo + k * curve.span / 17 for k in range(18)]
        assert all(curve.density(x) >= 0.0 for x in xs)

    def test_quantile_inverts_value(self, curve):
        for p in (0.1, 0.25, 0.5, 0.9):
            assert curve.value(curve.quantile(p)) == pytest.approx(p, abs=1e-9)

    def test_quantile_endpoints(self, curve):
        assert curve.quantile(0.0) == pytest.approx(curve.lo)
        assert curve.quantile(1.0) == pytest.approx(curve.hi)

    def test_out_of_domain_rejected(self, curve):
        with pytest.raises(DomainError):
            curve.value(curve.lo - 0.5 * curve.span)
        with pytest.raises(DomainError):
            curve.quantile(1.5)

    def test_density_integrates_to_one(self, curve):
        if curve.has_singular_density:
            pytest.skip("endpoint-singular density")
        from aspeq.numerics import integrate

        mass = integrate(curve.density, curve.lo, curve.hi, knots=curve.kinks())
        assert mass == pytest.approx(1.0, abs=1e-8)


class TestTriangular:
    def test_default_mode_is_midpoint(self):
        t = Triangular(0.0, 200.0)
        assert t.mode == pytest.approx(100.0)
        assert t.kinks() == (100.0,)

    def test_cdf_matches_oracle(self):
        t = Triangular(0.0, 200.0, mode=50.0)
        for x in (10.0, 50.0, 120.0, 199.0):
            assert t.value(x) == pytest.approx(
                float(oracles.tri_cdf(x, 0, 200, 50)), abs=1e-12
            )

    def test_density_peak_at_mode(self):
        t = Triangular(0.0, 1.0, mode=0.3)
        assert t.density(0.3) == pytest.approx(2.0, abs=1e-12)

    def test_boundary_modes_are_one_sided_triangles(self):
        falling = Triangular(0.0, 1.0, mode=0.0)
        assert falling.density(0.0) == pytest.approx(2.0)
        assert falling.density(1.0) == pytest.approx(0.0)
        assert falling.kinks() == ()
        rising = Triangular(0.0, 1.0, mode=1.0)
        assert rising.value(0.5) == pytest.approx(0.25)
        with pytest.raises(CurveParameterError):
            Triangular(0.0, 1.0, mode=1.5)

    def test_denormal_side_does_not_overflow(self):
        # each branch is clipped to its own side, so the side not selected
        # at a point cannot overflow, however narrow the other side is
        for t, xs in (
            (Triangular(0.0, 1.0, mode=5e-324), [0.0, 5e-324, 0.5, 1.0]),
            (Triangular(-1.0, 0.0, mode=-5e-324), [-1.0, -0.5, -5e-324, 0.0]),
        ):
            assert np.isfinite(t.value(np.array(xs))).all()
            assert np.isfinite(t.density(np.array(xs))).all()
        assert Triangular(0.0, 1.0, mode=5e-324).value(0.5) == pytest.approx(0.75)

    def test_moments(self):
        t = Triangular(0.0, 1.0, mode=0.25)
        mean, var = t.density_moments()
        assert mean == pytest.approx((0.0 + 1.0 + 0.25) / 3.0, abs=1e-9)
        want_var = (1 + 0.25**2 - 0.25) / 18.0
        assert var == pytest.approx(want_var, abs=1e-9)


class TestScaledBeta:
    def test_cdf_matches_oracle(self):
        c = ScaledBeta(0.0, 10.0, alpha=4.0, beta=6.0)
        for x in (1.0, 3.0, 5.0, 9.0):
            assert c.value(x) == pytest.approx(
                float(oracles.beta_cdf(x, 0, 10, 4, 6)), abs=1e-12
            )

    def test_density_matches_oracle(self):
        c = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        assert c.density(0.4) == pytest.approx(
            float(oracles.beta_pdf(0.4, 0, 1, 2, 3)), abs=1e-12
        )

    def test_quantile_roundtrip(self):
        c = ScaledBeta(-5.0, 5.0, alpha=3.0, beta=2.0)
        assert c.quantile(c.value(2.0)) == pytest.approx(2.0, abs=1e-9)

    def test_singular_flag(self):
        assert ScaledBeta(0.0, 1.0, alpha=0.5, beta=0.5).has_singular_density
        assert not ScaledBeta(0.0, 1.0, alpha=1.0, beta=1.0).has_singular_density

    def test_singular_moments_raise(self):
        with pytest.raises(SingularDensityError):
            ScaledBeta(0.0, 1.0, alpha=0.5, beta=2.0).density_moments()

    def test_bad_shapes_rejected(self):
        with pytest.raises(CurveParameterError):
            ScaledBeta(0.0, 1.0, alpha=0.0, beta=1.0)

    def test_integer_shapes_get_no_hints(self):
        for f in [c for c in ALL_SMOOTH if isinstance(c, ScaledBeta)] + [ScaledBeta(0.0, 1.0, alpha=3.0, beta=12.0)]:
            assert f.sample_hints() == ()

    def test_ladder_grades_panels_toward_a_fractional_end(self):
        # a density like x**0.4 at lo, or (1 - x)**1.5 at hi: bisection
        # alone reaches such an end one level per round, and these 12
        # jobs took 100 calls before the ladder
        calls = []

        def logged(f):
            def call(xs):
                calls.append(len(xs))
                return f(xs)

            return call

        for F in (ScaledBeta(0.0, 200.0, alpha=1.4, beta=3.0), ScaledBeta(0.0, 200.0, alpha=5.0, beta=2.5)):
            for gamma_span in (-8.0, 1.0, 12.0):
                U = ExponentialNormalized(0.0, 200.0, gamma=gamma_span / 200.0)
                for role in ("eu", "edu"):
                    f, lo, hi, knots = _pair_job(F, U, role)
                    integrate(logged(f), lo, hi, None, knots)
        assert len(calls) <= 30

    def test_work_stays_bounded_where_the_density_is_rounding(self):
        # the log-density carries about |log B(a, b)| ulps of rounding:
        # 2**-32.1 at (7e5, 7e5), whose work stays small at any tolerance
        F = ScaledBeta(0.0, 1.0, alpha=7e5, beta=7e5)
        spec = QuadratureSpec(relative_tolerance=1e-300)
        for U in (Linear(0.0, 1.0), ExponentialNormalized(0.0, 1.0, gamma=3.0)):
            for role in ("eu", "edu"):
                f, lo, hi, knots = _pair_job(F, U, role)
                nodes = 0

                def capped(xs):
                    nonlocal nodes
                    nodes += len(xs)
                    if nodes > 10_000:
                        raise RuntimeError("more than 10,000 integrand nodes")
                    return f(xs)

                integrate(capped, lo, hi, spec, knots)

    def test_rounding_past_the_budget_meets_the_panel_cap(self):
        # at (1e9, 1e9) the rounding is about 2**-21.6, far past the
        # default budget: refinement would chase it until memory ran out
        # (1.8 million panels), and the panel cap refuses that job alone
        lin, exp3 = Linear(0.0, 1.0), ExponentialNormalized(0.0, 1.0, gamma=3.0)
        huge = _pair_job(ScaledBeta(0.0, 1.0, alpha=1e9, beta=1e9), lin, "eu")
        others = [
            _pair_job(ScaledBeta(0.0, 1.0, alpha=7e5, beta=7e5), lin, "eu"),
            _pair_job(TruncatedGaussian(0.0, 1.0, center=0.3, scale=1e-4), exp3, "edu"),
        ]
        first, failed, second = integrate_many([others[0], huge, others[1]])
        assert isinstance(failed, QuadratureError)
        assert f"panel cap {MAX_PANELS} reached" in str(failed)
        assert [first.hex(), second.hex()] == [integrate_many([job])[0].hex() for job in others]


class TestNarrowMass:
    @pytest.mark.parametrize(
        "curve",
        [
            TruncatedGaussian(0.0, 1.0, center=0.5, scale=1e-5),
            ScaledBeta(0.0, 1.0, alpha=2e6, beta=1e6),
            PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.5, 0.001), (0.51, 0.999), (1.0, 1.0))),
            LogWealth(0.0, 1.0, wealth=1e-9),
        ],
        ids=lambda c: c.kind,
    )
    def test_any_kind_cuts_at_its_quantiles(self, curve):
        assert curve.quantile(0.75) - curve.quantile(0.25) < curve.span / 8.0
        ps = (0.5, 1 / 8, 7 / 8, 2.0**-10, 1 - 2.0**-10, 2.0**-40, 1 - 2.0**-40)
        assert set(curve.sample_hints()) == {x for x in map(curve.quantile, ps) if 0.0 < x < 1.0}

    def test_no_bundled_curve_is_cut(self):
        # the fixtures' 9-digit values rest on their opening panels; the
        # narrowest, a beta(3, 12) with middle half 0.1365 of the span,
        # stays above span/8, and the gamma*span = 9 exponential (0.122)
        # keeps its own rule
        for path in sorted(FIXTURES.glob("*.json")):
            sc = load_scenario(str(path))
            for named in (*sc.lotteries, *sc.utilities):
                assert named.curve.sample_hints() == (), (path.name, named.name)


class TestExponentialNormalized:
    def test_cdf_matches_oracle(self):
        c = ExponentialNormalized(0.0, 200.0, gamma=0.03)
        for x in (5.0, 76.0, 150.0):
            assert c.value(x) == pytest.approx(
                float(oracles.exp_cdf(x, 0, 200, 0.03)), abs=1e-12
            )

    def test_negative_gamma_convex(self):
        c = ExponentialNormalized(0.0, 1.0, gamma=-3.0)
        # convex: below the diagonal in the interior
        assert c.value(0.5) < 0.5

    def test_gamma_zero_rejected_with_pointer(self):
        with pytest.raises(CurveParameterError, match="linear"):
            ExponentialNormalized(0.0, 1.0, gamma=0.0)

    def test_gamma_span_cap(self):
        with pytest.raises(CurveParameterError):
            ExponentialNormalized(0.0, 1.0, gamma=501.0)
        ExponentialNormalized(0.0, 1.0, gamma=499.0)  # inside the cap

    def test_extreme_gamma_quantile_endpoints(self):
        c = ExponentialNormalized(0.0, 1.0, gamma=499.0)
        assert c.quantile(0.0) == 0.0
        assert c.quantile(1.0) == 1.0
        assert 0.0 < c.quantile(0.5) < 1.0

    def test_quantile_roundtrip_steep(self):
        c = ExponentialNormalized(0.0, 1.0, gamma=50.0)
        for p in (1e-6, 0.5, 1.0 - 1e-9):
            assert c.value(c.quantile(p)) == pytest.approx(p, abs=1e-9)


class TestTruncatedGaussian:
    def test_cdf_matches_oracle(self):
        c = TruncatedGaussian(0.0, 10.0, center=4.0, scale=2.0)
        for x in (1.0, 4.0, 8.0):
            assert c.value(x) == pytest.approx(
                float(oracles.gauss_cdf(x, 0, 10, 4, 2)), abs=1e-12
            )

    def test_center_may_sit_outside(self):
        c = TruncatedGaussian(0.0, 1.0, center=2.0, scale=1.0)
        assert 0.0 < c.value(0.5) < 1.0

    def test_bad_scale(self):
        with pytest.raises(CurveParameterError):
            TruncatedGaussian(0.0, 1.0, center=0.5, scale=0.0)

    # mass in a far tail of the normal: above it (mass 2.9e-7 and 1.3e-3),
    # and below it, where the lower tail is already the small one
    FAR_TAILS = ((0.0, 1.0, -0.1, 0.02), (0.0, 1.0, -3.0, 0.5), (0.0, 1.0, 1.2, 0.05))

    @pytest.mark.parametrize("lo, hi, center, scale", FAR_TAILS)
    def test_far_tail_matches_oracle(self, lo, hi, center, scale):
        c = TruncatedGaussian(lo, hi, center=center, scale=scale)
        xs = np.linspace(lo, hi, 41)
        for x, v, d in zip(xs, c.value(xs), c.density(xs)):
            assert v == pytest.approx(float(oracles.gauss_cdf(x, lo, hi, center, scale)), abs=1e-14)
            want = oracles.gauss_pdf(x, lo, hi, center, scale)
            assert abs(d - want) <= 1e-12 * want + 1e-300  # may underflow to 0

    @pytest.mark.parametrize("lo, hi, center, scale", FAR_TAILS)
    def test_far_tail_quantile_inverts_value(self, lo, hi, center, scale):
        c = TruncatedGaussian(lo, hi, center=center, scale=scale)
        # beyond 1 - 1e-6 the value carries too few digits to invert
        xs = [x for x in np.linspace(lo, hi, 2001).tolist() if c.value(x) < 1.0 - 1e-6]
        assert len(xs) > 20
        for x in xs:
            assert c.quantile(c.value(x)) == pytest.approx(x, abs=1e-9 * (hi - lo))


class TestLogWealth:
    def test_cdf_matches_oracle(self):
        c = LogWealth(0.0, 1.0, wealth=0.5)
        for x in (0.1, 0.5, 0.9):
            assert c.value(x) == pytest.approx(
                float(oracles.logw_cdf(x, 0, 1, 0.5)), abs=1e-12
            )

    def test_nonpositive_total_wealth_rejected(self):
        with pytest.raises(CurveParameterError):
            LogWealth(0.0, 1.0, wealth=0.0)
        with pytest.raises(CurveParameterError):
            LogWealth(-2.0, 1.0, wealth=1.0)


class TestStep:
    def test_value_jump(self):
        s = Step(0.0, 1.0, threshold=0.4)
        assert s.value(0.39) == 0.0
        assert s.value(0.4) == 1.0
        assert s.is_step

    def test_density_raises(self):
        with pytest.raises(StepFunctionError):
            Step(0.0, 1.0, threshold=0.4).density(0.5)

    def test_quantile(self):
        s = Step(0.0, 1.0, threshold=0.4)
        assert s.quantile(0.0) == 0.0
        assert s.quantile(0.3) == 0.4
        assert s.quantile(1.0) == 0.4

    def test_moments_are_point_mass(self):
        assert Step(0.0, 1.0, threshold=0.4).density_moments() == (0.4, 0.0)

    def test_threshold_at_lo_rejected(self):
        with pytest.raises(CurveParameterError):
            Step(0.0, 1.0, threshold=0.0)
        Step(0.0, 1.0, threshold=1.0)  # hi end allowed


class TestPiecewiseLinear:
    PTS = ((0.0, 0.0), (0.3, 0.55), (1.0, 1.0))

    def test_interpolation(self):
        c = PiecewiseLinear(0.0, 1.0, points=self.PTS)
        assert c.value(0.15) == pytest.approx(0.275)
        assert c.value(0.65) == pytest.approx(0.55 + 0.45 * 0.5)

    def test_kinks_are_interior_points(self):
        c = PiecewiseLinear(0.0, 1.0, points=self.PTS)
        assert c.kinks() == (0.3,)

    def test_density_is_segment_slope(self):
        c = PiecewiseLinear(0.0, 1.0, points=self.PTS)
        assert c.density(0.1) == pytest.approx(0.55 / 0.3)
        assert c.density(0.9) == pytest.approx(0.45 / 0.7)

    def test_flat_stretch_quantile_left_edge(self):
        c = PiecewiseLinear(
            0.0, 1.0, points=((0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0))
        )
        assert c.quantile(0.5) == pytest.approx(0.4)

    def test_endpoints_must_anchor(self):
        with pytest.raises(CurveParameterError):
            PiecewiseLinear(0.0, 1.0, points=((0.0, 0.1), (1.0, 1.0)))
        with pytest.raises(CurveParameterError):
            PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.5, 0.6), (0.5, 0.7), (1.0, 1.0)))

    @pytest.mark.parametrize(
        "points,reason",
        [
            (((0.0, 0.0),), "need at least two points"),
            # anchored at both ends, falling between
            (((0.0, 0.0), (0.5, 0.7), (0.7, 0.6), (1.0, 1.0)), "values must be nondecreasing"),
            # falling to an end short of 1
            (((0.0, 0.0), (0.5, 0.7), (1.0, 0.6)), "must run from"),
        ],
    )
    def test_refusal_names_its_reason(self, points, reason):
        with pytest.raises(CurveParameterError, match=reason):
            PiecewiseLinear(0.0, 1.0, points=points)


class TestRegistryAndBase:
    def test_registry_covers_nine_kinds(self):
        assert set(CURVE_KINDS) == {
            "uniform",
            "linear",
            "triangular",
            "scaled_beta",
            "exponential_normalized",
            "truncated_gaussian",
            "log_wealth",
            "step",
            "piecewise_linear",
        }

    def test_degenerate_interval_rejected(self):
        with pytest.raises(CurveParameterError):
            Uniform(1.0, 1.0)
        with pytest.raises(CurveParameterError):
            Uniform(1.0, 0.0)
        with pytest.raises(CurveParameterError):
            Uniform(0.0, math.inf)

    def test_linear_is_uniform_cdf(self):
        lin = Linear(2.0, 6.0)
        assert lin.value(4.0) == pytest.approx(0.5)
        assert lin.kind == "linear"

    def test_equal_curves_hash_equal(self):
        # two separately built curves of each kind are one dict key, and a
        # field or the kind apart makes another
        params = {
            "triangular": {"mode": 0.3},
            "scaled_beta": {"alpha": 2.0, "beta": 3.0},
            "exponential_normalized": {"gamma": 2.0},
            "truncated_gaussian": {"center": 0.4, "scale": 0.2},
            "log_wealth": {"wealth": 1.5},
            "step": {"threshold": 0.5},
            "piecewise_linear": {"points": ((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))},
        }
        for kind, cls in CURVE_KINDS.items():
            a, b = (cls(0.0, 1.0, **params.get(kind, {})) for _ in range(2))
            assert a is not b and a == b and hash(a) == hash(b) and hash(a) == hash(a)
            assert {a: kind}[b] == kind
        assert Uniform(0.0, 1.0) != Uniform(0.0, 2.0) and Uniform(0.0, 1.0) != Linear(0.0, 1.0)
        assert Triangular(0.0, 1.0, mode=0.3) != Triangular(0.0, 1.0, mode=0.4)
        assert Triangular(0.0, 1.0) == Triangular(0.0, 1.0, mode=0.5)
        assert len({Uniform(0.0, 1.0), Linear(0.0, 1.0), Uniform(0.0, 1.0)}) == 2

    def test_frozen(self):
        u = Uniform(0.0, 1.0)
        with pytest.raises(Exception):
            u.lo = 5.0

    def test_density_moments_match_oracle(self):
        c = ScaledBeta(0.0, 10.0, alpha=6.0, beta=3.0)
        mean, var = c.density_moments()
        m, v = oracles.density_mean_var(lambda x: oracles.beta_pdf(x, 0, 10, 6, 3), 0, 10)
        assert mean == pytest.approx(float(m), abs=1e-8)
        assert var == pytest.approx(float(v), abs=1e-8)


class TestNonFiniteParameters:
    """Library callers get the same refusal scenario files do."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ScaledBeta(0.0, 1.0, alpha=math.nan, beta=2.0),
            lambda: LogWealth(0.0, 1.0, wealth=math.inf),
            lambda: TruncatedGaussian(0.0, 1.0, center=math.nan, scale=0.1),
            lambda: PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.5, math.nan), (1.0, 1.0))),
            lambda: PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (math.inf, 0.5), (1.0, 1.0))),
            lambda: ExponentialNormalized(0.0, 1.0, gamma=-math.inf),
            lambda: Triangular(0.0, 1.0, mode=math.nan),
            lambda: Step(0.0, 1.0, threshold=math.nan),
        ],
        ids=["beta-alpha", "log-wealth", "gauss-center", "knot-value", "knot-x", "exp-gamma",
             "tri-mode", "step-threshold"],
    )
    def test_rejected(self, make):
        with pytest.raises(CurveParameterError, match="must be finite"):
            make()

    def test_zero_gamma_still_refused(self):
        with pytest.raises(CurveParameterError, match="linear kind"):
            ExponentialNormalized(0.0, 1.0, gamma=0.0)

    def test_params_name_dataclass_fields(self):
        for cls in CURVE_KINDS.values():
            names = {f.name for f in dataclasses.fields(cls)}
            assert set(cls.params.values()) <= names, cls.kind


class TestOutOfRangeIntegers:
    """An int beyond float range is a bad parameter, not an overflow."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ScaledBeta(0, 1, alpha=10**400, beta=2),
            lambda: Uniform(0, 10**400),
            lambda: PiecewiseLinear(0, 1, points=((0, 0), (10**400, 0.5), (1, 1))),
        ],
        ids=["beta-alpha", "uniform-hi", "knot-x"],
    )
    def test_rejected(self, make):
        with pytest.raises(CurveParameterError, match="must be finite"):
            make()

    def test_point_is_outside_the_domain(self):
        with pytest.raises(DomainError, match="outside"):
            Uniform(0.0, 1.0).value(10**400)


@pytest.mark.parametrize("curve", ALL_SMOOTH + [Step(0.0, 1.0, threshold=0.4)], ids=lambda c: c.kind)
class TestArrayKernels:
    """value and density take a whole array of points; a float in gives a
    Python float out."""

    def test_array_matches_pointwise(self, curve):
        xs = np.linspace(curve.lo, curve.hi, 37)
        methods = [curve.value] if curve.is_step else [curve.value, curve.density]
        for method in methods:
            ys = method(xs)
            assert isinstance(ys, np.ndarray) and ys.shape == xs.shape
            assert ys.tolist() == [method(float(x)) for x in xs]

    def test_float_in_float_out(self, curve):
        assert type(curve.value(0.5 * (curve.lo + curve.hi))) is float

    def test_array_domain_check_names_the_point(self, curve):
        xs = np.array([curve.lo, curve.hi + 1.0, curve.hi])
        with pytest.raises(DomainError, match=f"x={curve.hi + 1.0!r}"):
            curve.value(xs)
