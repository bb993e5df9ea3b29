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

Every EU and EDU, one or many, is a (lottery, utility, role) job of a
PairBatch, one lockstep batch read by pair. Each job's outcome, its value
or its error, is what it gives alone, so a reader raises the first error
one-at-a-time calls raise, in any reading order; a one-pair function is
a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

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
    fixed_rule,
    integrate_many,
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
    curve's kernels once per round for every pair it is in. The knots are
    the two curves' cuts joined as they are; integrate_many orders them.

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
    return (Product(weight.density, curve.value), weight.lo, weight.hi, weight.cuts + curve.cuts)


class PairBatch:
    """expected_utility (role "eu") or expected_disutility ("edu") of each
    (lottery, utility, role) job, integrated in one integrate_many batch,
    equal jobs once. Each method returns, or raises, what the one-pair
    function of its name does."""

    def __init__(self, jobs: Iterable[tuple[Curve, Curve, str]], spec: QuadratureSpec | None = None) -> None:
        self.spec = spec
        self._slots: dict[tuple[Curve, Curve, str], int] = {}
        for job in jobs:
            self._slots.setdefault(job, len(self._slots))
        self._outcomes: list = []
        for job in self._slots:
            try:
                self._outcomes.append(_pair_job(*job))
            except Exception as exc:  # raised when its job is read
                self._outcomes.append(exc)
        quadratures = [n for n, job in enumerate(self._outcomes) if isinstance(job, tuple)]
        for n, outcome in zip(quadratures, integrate_many([self._outcomes[n] for n in quadratures], spec)):
            self._outcomes[n] = outcome

    def _value(self, lottery: Curve, utility: Curve, role: str) -> float:
        outcome = self._outcomes[self._slots[lottery, utility, role]]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def expected_utility(self, lottery: Curve, utility: Curve) -> float:
        return self._value(lottery, utility, "eu")

    def expected_disutility(self, lottery: Curve, utility: Curve) -> float:
        return self._value(lottery, utility, "edu")

    def certain_equivalent(self, lottery: Curve, utility: Curve) -> float:
        eu = self._value(lottery, utility, "eu")
        if utility.is_step:
            raise StepFunctionError(
                "certain equivalent under a step utility is degenerate: the "
                "inverse is a single point whenever EU is strictly inside (0,1)"
            )
        return _invert(utility, eu, self.spec)

    def aspiration_equivalent(self, lottery: Curve, utility: Curve) -> float:
        edu = self._value(lottery, utility, "edu")
        if lottery.is_step:
            raise StepFunctionError(
                "aspiration equivalent of a step lottery is degenerate; the "
                "lottery is the sure amount at its threshold"
            )
        return _invert(lottery, edu, self.spec)


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


def expected_utility(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Integral of lottery density times utility value. A step lottery at
    t gives U(t); a step utility at t gives 1 - F(t)."""
    return PairBatch([(lottery, utility, "eu")], spec).expected_utility(lottery, utility)


def expected_disutility(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Integral of utility density times lottery value: expected_utility
    with the two roles swapped, integrated on its own."""
    return PairBatch([(lottery, utility, "edu")], spec).expected_disutility(lottery, utility)


def certain_equivalent(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Sure amount with the same utility as the lottery: U^-1(EU)."""
    return PairBatch([(lottery, utility, "eu")], spec).certain_equivalent(lottery, utility)


def aspiration_equivalent(
    lottery: Curve, utility: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Outcome level whose step utility matches the pair's expected
    utility: F^-1(EDU). Exceeding it has probability exactly EU."""
    return PairBatch([(lottery, utility, "edu")], spec).aspiration_equivalent(lottery, utility)


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
    batch = PairBatch([(f, u, role) for f, u in pairs for role in ("eu", "edu")], spec)
    for f, u in pairs:
        yield DualityResult(
            batch.expected_utility(f, u),
            batch.expected_disutility(f, u),
            batch.certain_equivalent(f, u),
            batch.aspiration_equivalent(f, u),
        )


def effective_gamma(lottery: Curve, target: float, spec: QuadratureSpec | None = None) -> float:
    """Curvature whose exponential utility puts the aspiration equivalent
    of `lottery` at `target`; effective_root describes the search."""
    return effective_root(lottery, target, spec)[0]


# gamma * span on the surrogate's grid: factors of 4 either side of 0, then the cap
_GRID = np.array([-GAMMA_SPAN_CAP, *(-(4.0**k) for k in range(4, -5, -1)), *(4.0**k for k in range(-4, 5)), GAMMA_SPAN_CAP])


def _surrogate_root(lottery: Curve, p: float, cap: float) -> tuple[float, float | None]:
    """Where the exact EDU search starts: the gamma where EDU, integrated
    on a fixed rule, crosses p, with its slope there if that is finite and
    negative; or, where it does not cross within |gamma| <= cap, the cap
    end the crossing lies past, with no slope.

    EDU(gamma) is the integral of u_gamma F: with F sampled once on the
    rule, the sum of w F(x) u_gamma(x) for any gamma, bounded for every
    kind. u_gamma = a exp(-a d) / -expm1(-a span), a = |gamma|, d the
    distance from lo (gamma > 0) or hi (gamma < 0), never overflows."""
    lo, hi, span = lottery.lo, lottery.hi, lottery.span
    x, w = fixed_rule(lo, hi, lottery.cuts, 4)
    # each node's distance from the anchor: d[0] from hi (gamma < 0), d[1] from lo
    mass, d = w * lottery.value(x), np.array([hi - x, x - lo])
    a = np.abs(_GRID) / span
    grid = np.add.reduce(mass * np.exp(-a[:, None] * d[(_GRID > 0).astype(int)]), 1) * a / -np.expm1(-a * span)
    cross = np.flatnonzero(grid <= p)  # EDU falls as gamma rises
    if not len(cross) or not cross[0]:
        # above p at +cap, or at or below it at -cap
        return (-cap if len(cross) else cap), None
    left, right = (_GRID[cross[0] - 1 : cross[0] + 1] / span).tolist()

    def edu(g: float) -> tuple[float, float]:
        if g == 0.0:
            return float(np.add.reduce(mass)) / span, float(np.add.reduce(mass * (0.5 - d[1] / span)))
        a, dist = abs(g), d[int(g > 0)]
        terms = mass * np.exp(-a * dist)
        c = a / -math.expm1(-a * span)
        # the slope in a of log u_gamma: 1/a - d - span / expm1(a span)
        dlog = 1.0 / a - span / math.expm1(a * span) - dist
        return c * float(np.add.reduce(terms)), math.copysign(c, g) * float(np.add.reduce(terms * dlog))

    # Newton steps, bisecting where one would leave the bracket
    g = 0.5 * (left + right)
    for _ in range(100):
        value, slope = edu(g)
        if value == p:
            break
        left, right = (g, right) if value > p else (left, g)
        step = g - (value - p) / slope if slope else right
        g, last = (step if left < step < right else 0.5 * (left + right)), g
        if abs(g - last) <= 1e-15 * max(abs(last), 1.0 / span):
            break
    return g, (slope if -math.inf < slope < 0.0 else None)


def effective_root(
    lottery: Curve, target: float, spec: QuadratureSpec | None = None
) -> tuple[float, float]:
    """The gamma with EDU(lottery, exp_gamma) = F(target) within
    RootBracket's value tolerance whatever the spec, |gamma|*span <=
    GAMMA_SPAN_CAP, and aspiration_equivalent(lottery, exp_gamma) with
    the bits of that call, read from the EDU integrated at the root.

    EDU falls strictly as gamma rises, so the sign of EDU - F(target)
    gives the root's side. The search integrates EDU first where a
    fixed-rule surrogate puts the root (_surrogate_root), then walks
    toward it by steps growing 4-fold, the first the surrogate's Newton
    step, or 1/span where it has no slope; a step that would stop short
    of the cap by less than its own length goes to the cap. Once the sign
    changes, find_root solves between the last two points. A target is
    refused only where the EDU at the cap still has the wrong sign.
    gamma = 0 is the linear curve."""
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

    # each point is integrated once, and the root's EDU is read back
    utility = cache(lambda g: exponential_or_linear(lo, hi, g))
    batch = cache(lambda g: PairBatch([(lottery, utility(g), "edu")], spec))

    def gap(g: float) -> float:
        return batch(g).expected_disutility(lottery, utility(g)) - p

    def root(g: float) -> tuple[float, float]:
        return g, batch(g).aspiration_equivalent(lottery, utility(g))

    # the largest gamma the curve takes: GAMMA_SPAN_CAP / span can round past the cap
    cap, tol = GAMMA_SPAN_CAP / span, RootBracket.value_tolerance
    if cap * span > GAMMA_SPAN_CAP:
        cap = math.nextafter(cap, 0.0)
    g, slope = _surrogate_root(lottery, p, cap)
    f = gap(g)
    # the root lies toward the cap end the gap's sign points to
    end = math.copysign(cap, f)
    step = -f / slope if slope else math.copysign(1.0 / span, f)
    while abs(f) > tol:
        if g == end:
            raise UnattainableTargetError(
                f"no curvature with |gamma|*span <= {GAMMA_SPAN_CAP:g} reaches "
                f"cumulative probability {p!r} at the target"
            )
        # a step that would leave less than its own length goes to the cap
        g_next = g + step if abs(end - g) > 2.0 * abs(step) else end
        f_next = gap(g_next)
        if (f_next > 0.0) != (f > 0.0):
            return root(find_root(gap, RootBracket(*sorted((g, g_next)))))
        g, f, step = g_next, f_next, 4.0 * step
    return root(g)
