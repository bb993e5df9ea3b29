"""Pointwise and integrated dominance orderings for both curve roles.

One definition serves both readings: A dominates B when A(x) <= B(x)
everywhere with somewhere-strict inequality. Read on lotteries that is
first-order stochastic dominance (mass shifted upward); read on
normalized utilities it orders preference curves, and a dominant utility
scores a higher expected disutility, a higher aspiration equivalent, and
a lower expected utility against every lottery. For exponential
utilities the ordering is total in gamma and extends to certain
equivalents, giving a four-link chain that exponential_chain checks end
to end.

Certification is numerical: a dense grid joined with every declared kink,
compared at absolute tolerance 1e-9, with the worst wrong-signed gap
reported so borderline calls are auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, StepFunctionError
from .duality import (
    DomainMismatchError,
    _aspiration_from,
    evaluate_pair,
    expected_disutility,
    expected_utility,
    exponential_or_linear,
)
from .numerics import QuadratureSpec, integrate, merge_knots

GRID_TOLERANCE = 1e-9
DEFAULT_GRID = 2048


@dataclass(frozen=True)
class DominanceVerdict:
    dominates: bool
    strict_witness: float | None
    max_violation: float


@dataclass(frozen=True)
class LotteryMargins:
    """Orderings implied by utility dominance, against one lottery. Each
    margin is oriented so the implication predicts it nonnegative."""

    edu_margin: float
    ae_margin: float
    eu_margin: float

    def holds(self, tolerance: float) -> bool:
        return min(self.edu_margin, self.ae_margin, self.eu_margin) >= -tolerance


@dataclass(frozen=True)
class ImplicationReport:
    verdict: DominanceVerdict
    mean_margin: float
    per_lottery: tuple[LotteryMargins, ...]
    tolerance: float

    @property
    def all_hold(self) -> bool:
        return self.mean_margin >= -self.tolerance and all(
            m.holds(self.tolerance) for m in self.per_lottery
        )


@dataclass(frozen=True)
class ChainReport:
    """The exponential ordering chain for gamma_a <= gamma_b: pointwise
    values, expected utilities, aspiration equivalents, and certain
    equivalents, each reduced to a margin that is nonnegative (up to
    quadrature noise) when the link holds."""

    gamma_a: float
    gamma_b: float
    pointwise_margin: float
    eu_margin: float
    ae_margin: float
    ce_margin: float

    def margins(self) -> tuple[float, float, float, float]:
        return (self.pointwise_margin, self.eu_margin, self.ae_margin, self.ce_margin)


def _grid(A: Curve, B: Curve, grid_points: int) -> np.ndarray:
    if (A.lo, A.hi) != (B.lo, B.hi):
        raise DomainMismatchError(
            f"curves live on different intervals: [{A.lo!r}, {A.hi!r}] vs "
            f"[{B.lo!r}, {B.hi!r}]"
        )
    if grid_points < 64:
        raise ValueError(f"grid_points must be at least 64, got {grid_points}")
    xs = np.linspace(A.lo, A.hi, grid_points)
    knots = merge_knots(A.kinks(), B.kinks())
    if knots:
        xs = np.unique(np.concatenate([xs, np.asarray(knots)]))
    return xs


def first_order_dominates(
    A: Curve, B: Curve, grid_points: int = DEFAULT_GRID
) -> DominanceVerdict:
    """Does A(x) <= B(x) hold across the interval, strictly somewhere?

    The same test serves both vocabularies: for utility curves this is
    utility dominance, for lotteries it is first-order stochastic
    dominance of A over B (A's CDF sits below B's).
    """
    xs = _grid(A, B, grid_points)
    diff = A.value(xs) - B.value(xs)
    max_violation = float(max(diff.max(), 0.0))
    strict = diff < -GRID_TOLERANCE
    witness = float(xs[int(np.argmin(diff))]) if bool(strict.any()) else None
    return DominanceVerdict(
        dominates=max_violation <= GRID_TOLERANCE and witness is not None,
        strict_witness=witness,
        max_violation=max_violation,
    )


def dominance_implications(
    A: Curve,
    B: Curve,
    test_lotteries: list[Curve],
    grid_points: int = DEFAULT_GRID,
    spec: QuadratureSpec | None = None,
) -> ImplicationReport:
    """Margins of the orderings a dominant utility A must win against
    every test lottery: higher expected disutility, higher aspiration
    equivalent, lower expected utility, plus a higher utility-density
    mean overall."""
    verdict = first_order_dominates(A, B, grid_points)
    if not verdict.dominates:
        raise ValueError(
            "A does not dominate B on the grid "
            f"(max violation {verdict.max_violation!r}); the implications "
            "are only claimed under dominance"
        )
    margins = []
    for f in test_lotteries:
        # not evaluate_pair: a step utility has an EU and EDU but no CE
        edu_a = expected_disutility(f, A, spec)
        edu_b = expected_disutility(f, B, spec)
        margins.append(
            LotteryMargins(
                edu_margin=edu_a - edu_b,
                ae_margin=_aspiration_from(f, edu_a, spec) - _aspiration_from(f, edu_b, spec),
                eu_margin=expected_utility(f, B, spec) - expected_utility(f, A, spec),
            )
        )
    mean_a, _ = A.density_moments(spec)
    mean_b, _ = B.density_moments(spec)
    tol = 2.0 * (spec.relative_tolerance if spec else 1e-9)
    return ImplicationReport(
        verdict=verdict,
        mean_margin=mean_a - mean_b,
        per_lottery=tuple(margins),
        tolerance=tol,
    )


def exponential_chain(
    gamma_a: float,
    gamma_b: float,
    F: Curve,
    grid_points: int = DEFAULT_GRID,
    spec: QuadratureSpec | None = None,
) -> ChainReport:
    """Check the whole exponential ordering chain on one lottery.

    With gamma_a <= gamma_b the flatter utility A sits below B pointwise,
    so EU_A <= EU_B; the flatter curve aspires higher, AE_A >= AE_B; and
    (specific to this constant-curvature family) its certain equivalent
    is higher too, CE_A >= CE_B.
    """
    if gamma_a > gamma_b:
        raise ValueError(f"need gamma_a <= gamma_b, got {gamma_a!r} > {gamma_b!r}")
    A = exponential_or_linear(F.lo, F.hi, gamma_a)
    B = exponential_or_linear(F.lo, F.hi, gamma_b)
    xs = _grid(A, B, grid_points)
    pointwise = float((B.value(xs) - A.value(xs)).min())
    a, b = evaluate_pair(F, A, spec), evaluate_pair(F, B, spec)
    return ChainReport(
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        pointwise_margin=pointwise,
        eu_margin=b.expected_utility - a.expected_utility,
        ae_margin=a.aspiration_equivalent - b.aspiration_equivalent,
        ce_margin=a.certain_equivalent - b.certain_equivalent,
    )


def second_order_dominates(
    A: Curve, B: Curve, grid_points: int = DEFAULT_GRID
) -> DominanceVerdict:
    """Integrated ordering: the running integral of A - B from the left
    end must stay nonpositive, strictly negative somewhere. Pointwise
    dominance implies this; crossing curves are adjudicated by where the
    accumulated area lands."""
    xs = _grid(A, B, grid_points)
    diff = A.value(xs) - B.value(xs)
    steps = 0.5 * (diff[1:] + diff[:-1]) * np.diff(xs)
    running = np.concatenate([[0.0], np.cumsum(steps)])
    span = A.hi - A.lo
    tol = GRID_TOLERANCE * max(1.0, span)
    max_violation = float(max(running.max(), 0.0))
    strict = running < -tol
    witness = float(xs[int(np.argmin(running))]) if bool(strict.any()) else None
    return DominanceVerdict(
        dominates=max_violation <= tol and witness is not None,
        strict_witness=witness,
        max_violation=max_violation,
    )


def first_moment_by_equal_areas(
    U: Curve, spec: QuadratureSpec | None = None
) -> float:
    """Mean of the utility density without touching the density: the area
    above the curve, hi - integral of U. Integration by parts moves the
    mean onto the curve itself, which is the analytic form of balancing
    areas on a plot."""
    if U.is_step:
        raise StepFunctionError(
            "a step utility concentrates its mass at the threshold; there "
            "is nothing to integrate"
        )
    return U.hi - integrate(
        U.value, U.lo, U.hi, spec, merge_knots(U.kinks(), U.sample_hints())
    )
