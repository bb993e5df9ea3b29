"""A requested quadrature tolerance is met, not only estimated.

Each pair integral is computed at --tol 1e-3, 1e-6 and 1e-9 and compared
with an mpmath reference; the achieved error must stay within the budget
the spec promises, max(absolute_tolerance, relative_tolerance * |I|). The
catalog holds the cases earlier integrators missed (a boundary layer at an
end of the domain, a narrow bell far from the middle, beta lotteries under
steep exponential utilities) next to one pair of each remaining kind.
References are computed once per session and shared by the three
tolerances.
"""

from functools import cache

import mpmath as mp
import pytest

from aspeq import (
    ExponentialNormalized,
    Linear,
    LogWealth,
    PiecewiseLinear,
    ScaledBeta,
    Triangular,
    TruncatedGaussian,
    expected_disutility,
    expected_utility,
)
from aspeq.duality import _pair_job
from aspeq.numerics import QuadratureSpec, integrate

mp.mp.dps = 30

NARROW = TruncatedGaussian(-40.0, 260.0, center=50.0, scale=9.0)
STEEP_DOWN = ExponentialNormalized(-40.0, 260.0, gamma=-28.0 / 300.0)

# (id, lottery, utility)
CATALOG = (
    ("boundary_layer_gaussian", TruncatedGaussian(0.0, 1.0, center=-0.1, scale=0.02), Linear(0.0, 1.0)),
    ("beta_3.5_3.5_exp_3", ScaledBeta(0.0, 1.0, alpha=3.5, beta=3.5), ExponentialNormalized(0.0, 1.0, gamma=3.0)),
    ("beta_1.2_3_exp_4", ScaledBeta(0.0, 1.0, alpha=1.2, beta=3.0), ExponentialNormalized(0.0, 1.0, gamma=4.0)),
    ("beta_3_1.5_exp_12", ScaledBeta(0.0, 1.0, alpha=3.0, beta=1.5), ExponentialNormalized(0.0, 1.0, gamma=12.0)),
    ("beta_4_8_exp_9", ScaledBeta(0.0, 1.0, alpha=4.0, beta=8.0), ExponentialNormalized(0.0, 1.0, gamma=9.0)),
    ("narrow_gaussian_exp_-28/300", NARROW, STEEP_DOWN),
    ("triangular_logwealth", Triangular(0.0, 10.0, mode=2.0), LogWealth(0.0, 10.0, wealth=1.0)),
    (
        "exp_piecewise",
        ExponentialNormalized(0.0, 1.0, gamma=-2.0),
        PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.3, 0.55), (1.0, 1.0))),
    ),
)
TOLERANCES = (1e-3, 1e-6, 1e-9)


def _mp_curve(curve):
    """(cdf, pdf, split points) of a curve in mpmath, from the formulas
    the curve kinds define, not from the package's kernels."""
    lo, hi = mp.mpf(curve.lo), mp.mpf(curve.hi)
    span = hi - lo
    if isinstance(curve, Linear):
        return (lambda x: (x - lo) / span), (lambda x: 1 / span), []
    if isinstance(curve, Triangular):
        m = mp.mpf(curve.mode)

        def cdf(x):
            if x <= m:
                return (x - lo) ** 2 / (span * (m - lo))
            return 1 - (hi - x) ** 2 / (span * (hi - m))

        def pdf(x):
            if x <= m:
                return 2 * (x - lo) / (span * (m - lo))
            return 2 * (hi - x) / (span * (hi - m))

        return cdf, pdf, [m]
    if isinstance(curve, ScaledBeta):
        a, b = mp.mpf(curve.alpha), mp.mpf(curve.beta)
        return (
            lambda x: mp.betainc(a, b, 0, (x - lo) / span, regularized=True),
            lambda x: ((x - lo) / span) ** (a - 1) * (1 - (x - lo) / span) ** (b - 1) / (mp.beta(a, b) * span),
            [],
        )
    if isinstance(curve, ExponentialNormalized):
        g = mp.mpf(curve.gamma)
        return (
            lambda x: mp.expm1(-g * (x - lo)) / mp.expm1(-g * span),
            lambda x: g * mp.exp(-g * (x - lo)) / -mp.expm1(-g * span),
            [],
        )
    if isinstance(curve, TruncatedGaussian):
        c, s = mp.mpf(curve.center), mp.mpf(curve.scale)
        base, mass = mp.ncdf((lo - c) / s), mp.ncdf((hi - c) / s) - mp.ncdf((lo - c) / s)
        splits = [c + k * s for k in range(-8, 9) if lo < c + k * s < hi]
        splits += [lo + span * t for t in (mp.mpf("0.001"), mp.mpf("0.01"), mp.mpf("0.1"))]
        return (
            lambda x: (mp.ncdf((x - c) / s) - base) / mass,
            lambda x: mp.npdf((x - c) / s) / (s * mass),
            sorted(splits),
        )
    if isinstance(curve, LogWealth):
        w = mp.mpf(curve.wealth)
        scale = mp.log((w + hi) / (w + lo))
        return (lambda x: mp.log((w + x) / (w + lo)) / scale), (lambda x: 1 / ((w + x) * scale)), []
    if isinstance(curve, PiecewiseLinear):
        pts = [(mp.mpf(x), mp.mpf(y)) for x, y in curve.points]

        def segment(x):
            for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
                if x <= x1:
                    return x0, y0, x1, y1
            return pts[-2] + pts[-1]

        def cdf(x):
            x0, y0, x1, y1 = segment(x)
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

        def pdf(x):
            x0, y0, x1, y1 = segment(x)
            return (y1 - y0) / (x1 - x0)

        return cdf, pdf, [x for x, _ in pts[1:-1]]
    raise AssertionError(f"no mpmath form for {curve.kind}")


def reference(case: str, role: str) -> float:
    """mpmath value of the case's EU ("eu") or EDU ("edu") integral."""
    lottery, utility = next((f, u) for name, f, u in CATALOG if name == case)
    return mp_integral(lottery, utility, role)


@cache
def mp_integral(lottery, utility, role: str) -> float:
    """mpmath value of EU ("eu") or EDU ("edu") of a pair."""
    weight, curve = (lottery, utility) if role == "eu" else (utility, lottery)
    _, pdf, weight_splits = _mp_curve(weight)
    cdf, _, curve_splits = _mp_curve(curve)
    lo, hi = mp.mpf(weight.lo), mp.mpf(weight.hi)
    points = [lo, *sorted(set(weight_splits + curve_splits)), hi]
    return float(mp.quad(lambda x: pdf(x) * cdf(x), points, maxdegree=10))


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("role", ("eu", "edu"))
@pytest.mark.parametrize("case", [name for name, _, _ in CATALOG])
def test_requested_tolerance_is_met(case, role, tol):
    lottery, utility = next((f, u) for name, f, u in CATALOG if name == case)
    spec = QuadratureSpec(relative_tolerance=tol)
    integral = expected_utility if role == "eu" else expected_disutility
    got = integral(lottery, utility, spec)
    want = reference(case, role)
    budget = max(spec.absolute_tolerance, spec.relative_tolerance * abs(want))
    assert abs(got - want) <= budget, f"{case} {role}: |{got!r} - {want!r}| > {budget:.3e}"


# betas whose density is unbounded at an end: only EDU integrates them, as
# the CDF x**a or 1 - (1 - x)**b, which the ladder of cuts toward each end
# resolves; kept out of CATALOG, which feeds the frozen reference sets
SINGULAR = (
    ScaledBeta(0.0, 1.0, alpha=0.5, beta=2.0),
    ScaledBeta(0.0, 1.0, alpha=2.0, beta=0.7),
    ScaledBeta(0.0, 1.0, alpha=0.3, beta=0.4),
)


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("utility", (ExponentialNormalized(0.0, 1.0, gamma=3.0), Linear(0.0, 1.0)), ids=("exp_3", "linear"))
@pytest.mark.parametrize("lottery", SINGULAR, ids=lambda f: f"beta_{f.alpha:g}_{f.beta:g}")
def test_singular_density_beta_meets_tolerance(lottery, utility, tol):
    spec = QuadratureSpec(relative_tolerance=tol)
    got = expected_disutility(lottery, utility, spec)
    want = mp_integral(lottery, utility, "edu")
    budget = max(spec.absolute_tolerance, spec.relative_tolerance * abs(want))
    assert abs(got - want) <= budget, f"|{got!r} - {want!r}| > {budget:.3e}"


def test_boundary_layer_mass_is_seen():
    # the whole lottery sits within a few hundredths of lo; an integrator
    # whose opening samples all miss it returns ~1e-60
    lottery, utility = CATALOG[0][1], CATALOG[0][2]
    eu = expected_utility(lottery, utility)
    edu = expected_disutility(lottery, utility)
    assert eu == pytest.approx(reference(CATALOG[0][0], "eu"), rel=1e-9)
    # the identity holds to the sum of the two integrals' budgets
    assert eu + edu == pytest.approx(1.0, abs=2e-9)


@pytest.mark.parametrize("role", ("eu", "edu"))
def test_boundary_layer_meets_1e_12(role):
    # the lottery's CDF must be good to well below 1e-12 in the far tail
    # it lives in, or refinement chases its noise until memory runs out;
    # the node cap makes such a regression fail instead of hang
    case, lottery, utility = CATALOG[0]
    f, lo, hi, knots = _pair_job(lottery, utility, role)
    nodes = 0

    def capped(xs):
        nonlocal nodes
        nodes += len(xs)
        if nodes > 100_000:
            raise RuntimeError("more than 100,000 integrand nodes")
        return f(xs)

    spec = QuadratureSpec(relative_tolerance=1e-12)
    got = integrate(capped, lo, hi, spec, knots)
    want = reference(case, role)
    assert abs(got - want) <= max(spec.absolute_tolerance, spec.relative_tolerance * abs(want))
