"""The four central quantities for a (lottery, utility) pair of curves and
the effective-curvature inverse problem.

Conventions. Both curves live on one shared interval [lo, hi]. Write F for
the lottery read as a CDF with density f, and U for the normalized utility
with density u. Then

    expected_utility     EU  = integral of f(x) U(x) dx
    expected_disutility  EDU = integral of u(x) F(x) dx
    certain_equivalent   CE  = U^-1(EU)
    aspiration_equivalent AE = F^-1(EDU)

EU and EDU are one integral, density of one curve against the value of
the other, with the roles of F and U swapped; the dual problem is exactly
that swap. Integration by parts gives EU + EDU = 1; this module never uses
that identity as a shortcut (EDU always gets its own integral), so the sum
is a genuine numerical cross-check. A second consequence worth naming: the
probability of exceeding the aspiration equivalent, 1 - F(AE), equals EU.
Maximizing exceedance over lotteries is therefore the same decision as
maximizing expected utility; delegation builds on exactly that.

Every EU and EDU, one or many, reaches the quadrature the same way: as a
(lottery, utility, role) job in one lockstep batch (_pair_values). Each
job's outcome, its value or its error, is what it gives alone, so a
reader that raises the first error it reads raises what one-at-a-time
calls raise, in any reading order; a one-pair function is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

from .curves import (
    GAMMA_SPAN_CAP,
    Curve,
    ExponentialNormalized,
    Linear,
    SingularDensityError,
    StepFunctionError,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    NumericsError,
    Product,
    QuadratureSpec,
    RootBracket,
    find_root,
    integrate_many,
    merge_knots,
)


def exponential_or_linear(lo: float, hi: float, gamma: float) -> Curve:
    """Constant-curvature curve for any gamma, with the gamma = 0 member
    handed to the linear kind where the exponential formula degenerates."""
    if gamma == 0.0:
        return Linear(lo, hi)
    return ExponentialNormalized(lo, hi, gamma=gamma)


class DomainMismatchError(ValueError):
    """Lottery and utility declared on different intervals."""


class UnattainableTargetError(ValueError):
    """No finite exponential curvature reaches the requested target."""


@dataclass(frozen=True)
class DualityResult:
    expected_utility: float
    expected_disutility: float
    certain_equivalent: float
    aspiration_equivalent: float


def _require_shared_domain(lottery: Curve, utility: Curve) -> None:
    if (lottery.lo, lottery.hi) != (utility.lo, utility.hi):
        raise DomainMismatchError(
            f"lottery domain [{lottery.lo!r}, {lottery.hi!r}] != "
            f"utility domain [{utility.lo!r}, {utility.hi!r}]; curves must be "
            "declared on one shared interval, there is no automatic rescaling"
        )


def _pair_job(lottery: Curve, utility: Curve, role: str) -> float | tuple:
    """expected_utility (role "eu") or expected_disutility ("edu") up to
    its quadrature: a step shortcut's value, or the (integrand, lo, hi,
    knots) job to integrate, whose integrand is the Product of the
    weight's density and the curve's value, so that a batch calls each
    curve's kernels once per round for every pair it is in.

    Both integrate one curve's density (the weight) times the other's
    value over the shared interval: EU weights the utility by the
    lottery, EDU the lottery by the utility. Step shortcuts: a step weight
    at t puts all its mass on t, giving curve(t); a step curve at t is 1
    above t, giving 1 - weight(t).
    """
    _require_shared_domain(lottery, utility)
    weight, curve, weight_role = (
        (lottery, utility, "lottery") if role == "eu" else (utility, lottery, "utility")
    )
    if weight.is_step and curve.is_step:
        raise StepFunctionError("both curves are steps; the pairing is degenerate")
    if weight.is_step:
        return curve.value(weight.threshold)
    if curve.is_step:
        return 1.0 - weight.value(curve.threshold)
    if weight.has_singular_density:
        raise SingularDensityError(
            f"{weight.kind} {weight_role} density is unbounded at an endpoint and "
            "is not integrated directly; the role-swapped integral (expected_utility "
            "<-> expected_disutility) integrates its bounded CDF instead."
        )
    knots = merge_knots(weight.cuts, curve.cuts)
    return (Product(weight.density, curve.value), weight.lo, weight.hi, knots)


def _pair_values(
    jobs: Iterable[tuple[Curve, Curve, str]], spec: QuadratureSpec | None
) -> list[float | Exception]:
    """The outcome of expected_utility (role "eu") or expected_disutility
    ("edu") for each (lottery, utility, role) job: its value, or the
    exception that function raises for it. Every quadrature runs in one
    integrate_many batch; read each outcome through _read."""
    prepared = []
    for lottery, utility, role in jobs:
        try:
            prepared.append(_pair_job(lottery, utility, role))
        except Exception as exc:  # raised when its job is read
            prepared.append(exc)
    values = iter(integrate_many([job for job in prepared if isinstance(job, tuple)], spec))
    return [next(values) if isinstance(job, tuple) else job for job in prepared]


def _read(outcome: float | Exception) -> float:
    """A _pair_values outcome's value, raising the exception it holds."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _invert(curve: Curve, p: float, spec: QuadratureSpec | None) -> float:
    """curve^-1(p) for an integrated EU or EDU. A value past an end of
    [0,1] by no more than the quadrature budget at p = 1 is snapped; one
    further out is a real error, not noise."""
    spec = spec or DEFAULT_QUADRATURE
    slack = max(spec.absolute_tolerance, spec.relative_tolerance)
    if -slack <= p < 0.0:
        p = 0.0
    elif 1.0 < p <= 1.0 + slack:
        p = 1.0
    elif not 0.0 <= p <= 1.0:
        raise NumericsError(f"expected a probability, got {p!r}")
    return curve.quantile(p)


def _certain_from(utility: Curve, eu: float, spec: QuadratureSpec | None) -> float:
    if utility.is_step:
        raise StepFunctionError(
            "certain equivalent under a step utility is degenerate: the "
            "inverse is a single point whenever EU is strictly inside (0,1)"
        )
    return _invert(utility, eu, spec)


def _aspiration_from(lottery: Curve, edu: float, spec: QuadratureSpec | None) -> float:
    if lottery.is_step:
        raise StepFunctionError(
            "aspiration equivalent of a step lottery is degenerate; the "
            "lottery is the sure amount at its threshold"
        )
    return _invert(lottery, edu, spec)


def expected_utility(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Integral of lottery density times utility value. A step lottery at
    t gives U(t); a step utility at t gives 1 - F(t)."""
    return _read(_pair_values([(lottery, utility, "eu")], spec)[0])


def expected_disutility(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Integral of utility density times lottery value: expected_utility
    with the two roles swapped, integrated on its own."""
    return _read(_pair_values([(lottery, utility, "edu")], spec)[0])


def certain_equivalent(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Sure amount with the same utility as the lottery: U^-1(EU)."""
    return _certain_from(utility, expected_utility(lottery, utility, spec), spec)


def aspiration_equivalent(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Outcome level whose step utility matches the pair's expected
    utility: F^-1(EDU). Exceeding it has probability exactly EU."""
    return _aspiration_from(lottery, expected_disutility(lottery, utility, spec), spec)


def exceedance_probability(lottery: Curve, x: float) -> float:
    """Probability the lottery pays strictly more than x: 1 - F(x)."""
    return 1.0 - lottery.value(x)


def evaluate_pair(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> DualityResult:
    """All four quantities from one EU and one EDU integral. EDU is
    integrated independently of EU, so the sum-to-one identity stays an
    observable check on the result. A step curve has no certain or
    aspiration equivalent, so either step is refused."""
    return next(evaluate_pairs([(lottery, utility)], spec))


def evaluate_pairs(
    pairs: Sequence[tuple[Curve, Curve]], spec: QuadratureSpec | None = None
) -> Iterator[DualityResult]:
    """evaluate_pair of each (lottery, utility) pair, in turn: its EU,
    EDU, certain and aspiration equivalent, the first error raised where
    the pair-by-pair loop raises it.

    Every pair's EU and EDU are integrated in one lockstep batch before
    the first result is yielded."""
    outcomes = iter(_pair_values([(f, u, role) for f, u in pairs for role in ("eu", "edu")], spec))
    for f, u in pairs:
        eu, edu = _read(next(outcomes)), _read(next(outcomes))
        yield DualityResult(eu, edu, _certain_from(u, eu, spec), _aspiration_from(f, edu, spec))


def effective_gamma(
    lottery: Curve,
    target: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Curvature whose exponential utility puts the aspiration equivalent
    of `lottery` at `target`.

    Solves EDU(lottery, exp_gamma) = F(target) by bracketed root finding.
    EDU decreases strictly in gamma (higher curvature concentrates the
    utility density toward the low end, where F is small), so the bracket
    [-1, 1]/span is expanded geometrically toward the side that still
    disagrees in sign, up to |gamma|*span = GAMMA_SPAN_CAP; the root takes
    RootBracket's value tolerance whatever the spec. gamma = 0 inside the
    bracket is evaluated through the linear curve, where the exponential
    formula degenerates.

    Returns the curvature alone; _effective_root also hands back the EDU
    integrated at it, the integral an aspiration equivalent at that
    curvature reads.
    """
    return _effective_root(lottery, target, spec)[0]


def _effective_root(
    lottery: Curve, target: float, spec: QuadratureSpec | None
) -> tuple[float, float]:
    """effective_gamma, and expected_disutility(lottery, its utility)
    with the bits of that call: the root is a point the search evaluated,
    so its EDU is read back, not integrated again."""
    lo, hi = lottery.lo, lottery.hi
    span = hi - lo
    if not lo < target < hi:
        raise UnattainableTargetError(
            f"target {target!r} is at or outside the bounds [{lo!r}, {hi!r}]; "
            "the extreme-curvature limits reach the bounds only asymptotically"
        )
    p = lottery.value(target)
    if p <= 0.0 or p >= 1.0:
        raise UnattainableTargetError(
            f"lottery puts cumulative probability {p!r} at {target!r}; the "
            "target sits in a zero-mass tail"
        )

    @cache  # find_root reuses the bracket ends and returns a point evaluated here
    def edu(g: float) -> float:
        return expected_disutility(lottery, exponential_or_linear(lo, hi, g), spec)

    def gap(g: float) -> float:
        return edu(g) - p

    g_lo, g_hi = -1.0 / span, 1.0 / span
    f_lo, f_hi = gap(g_lo), gap(g_hi)
    # gap is decreasing: f_lo < 0 means the root lies further left, f_hi > 0
    # further right
    while f_lo < 0.0 and abs(g_lo) * span < GAMMA_SPAN_CAP:
        g_lo = max(g_lo * 4.0, -GAMMA_SPAN_CAP / span)
        f_lo = gap(g_lo)
    while f_hi > 0.0 and g_hi * span < GAMMA_SPAN_CAP:
        g_hi = min(g_hi * 4.0, GAMMA_SPAN_CAP / span)
        f_hi = gap(g_hi)
    if f_lo < 0.0 or f_hi > 0.0:
        raise UnattainableTargetError(
            f"no curvature with |gamma|*span <= {GAMMA_SPAN_CAP:g} reaches "
            f"cumulative probability {p!r} at the target"
        )
    g = find_root(gap, RootBracket(g_lo, g_hi))
    return g, edu(g)
