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

dominance_report runs all of these for one pair of utilities from one
comparison grid and one pair batch: the verdicts and chains read A's and
B's values on that grid, and the implications and chains read each
lottery's EU and EDU under A and B from one integrate_many batch, which
runs only when one of them reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import Curve, ExponentialNormalized, StepFunctionError
from .duality import (
    DomainMismatchError,
    _aspiration_from,
    _certain_from,
    _pair_values,
    _read,
    exponential_or_linear,
)
from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate, merge_knots

GRID_TOLERANCE = 1e-9
DEFAULT_GRID = 2048
MIN_GRID = 64


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


@dataclass(frozen=True)
class DominanceReport:
    """One comparison of utility A against B: both verdicts, the
    implications (None unless A dominates B and there are lotteries),
    and one exponential chain per lottery when A and B are exponential."""

    first_order: DominanceVerdict
    second_order: DominanceVerdict
    implications: ImplicationReport | None
    chains: tuple[ChainReport, ...]


def _on_grid(
    A: Curve, B: Curve, grid_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The comparison grid (grid_points even steps joined with every
    declared kink) and A's and B's values on it."""
    if (A.lo, A.hi) != (B.lo, B.hi):
        raise DomainMismatchError(
            f"curves live on different intervals: [{A.lo!r}, {A.hi!r}] vs "
            f"[{B.lo!r}, {B.hi!r}]"
        )
    if grid_points < MIN_GRID:
        raise ValueError(f"grid_points must be at least {MIN_GRID}, got {grid_points}")
    xs = np.linspace(A.lo, A.hi, grid_points)
    knots = merge_knots(A.kinks(), B.kinks())
    if knots:
        xs = np.unique(np.concatenate([xs, np.asarray(knots)]))
    return xs, A.value(xs), B.value(xs)


def _verdict(xs: np.ndarray, gaps: np.ndarray, tolerance: float) -> DominanceVerdict:
    """Dominance when no gap exceeds the tolerance and one falls below
    -tolerance, witnessed where the gap is lowest."""
    max_violation = float(max(gaps.max(), 0.0))
    strict = gaps < -tolerance
    witness = float(xs[int(np.argmin(gaps))]) if bool(strict.any()) else None
    return DominanceVerdict(
        dominates=max_violation <= tolerance and witness is not None,
        strict_witness=witness,
        max_violation=max_violation,
    )


def first_order_dominates(
    A: Curve, B: Curve, grid_points: int = DEFAULT_GRID
) -> DominanceVerdict:
    """Does A(x) <= B(x) hold across the interval, strictly somewhere?

    The same test serves both vocabularies: for utility curves this is
    utility dominance, for lotteries it is first-order stochastic
    dominance of A over B (A's CDF sits below B's).
    """
    return _report(A, B, (), grid_points, None, False, None).first_order


def second_order_dominates(
    A: Curve, B: Curve, grid_points: int = DEFAULT_GRID
) -> DominanceVerdict:
    """Integrated ordering: the running integral of A - B from the left
    end must stay nonpositive, strictly negative somewhere. Pointwise
    dominance implies this; crossing curves are adjudicated by where the
    accumulated area lands."""
    return _report(A, B, (), grid_points, None, False, None).second_order


def _report(
    A: Curve,
    B: Curve,
    lotteries: Sequence[Curve],
    grid_points: int,
    spec: QuadratureSpec | None,
    implied: bool,
    gammas: tuple[float, float] | None,
) -> DominanceReport:
    """A against B from one grid and one pair batch: both verdicts (the
    second-order one on the running integral of A - B), the implications
    if implied and A dominates B, and given A's and B's gammas, each
    lottery's exponential chain.

    The batch holds each lottery's EU and EDU under A and under B; each
    job's outcome is what it gives alone, so each value and the first
    error are what reading one lottery at a time gives, whichever reader
    reads first. With neither implications nor chains to read it, nothing
    is integrated.
    """
    xs, a, b = _on_grid(A, B, grid_points)
    diff = a - b
    verdict = _verdict(xs, diff, GRID_TOLERANCE)
    running = np.concatenate([[0.0], np.cumsum(0.5 * (diff[1:] + diff[:-1]) * np.diff(xs))])
    second_order = _verdict(xs, running, GRID_TOLERANCE * max(1.0, A.hi - A.lo))
    implied = implied and verdict.dominates
    swapped = gammas is not None and gammas[0] > gammas[1]
    flat, steep = (B, A) if swapped else (A, B)
    keys = [(k, U, role) for k in range(len(lotteries)) for U in (A, B) for role in ("eu", "edu")]
    outcomes = {}
    if keys and (implied or gammas is not None):
        outcomes = dict(zip(keys, _pair_values([(lotteries[k], U, role) for k, U, role in keys], spec)))

    def value(k: int, U: Curve, role: str) -> float:
        return _read(outcomes[k, U, role])

    implications = None
    if implied:
        margins = []
        for k, f in enumerate(lotteries):
            edu_a, edu_b = value(k, A, "edu"), value(k, B, "edu")
            ae_margin = _aspiration_from(f, edu_a, spec) - _aspiration_from(f, edu_b, spec)
            margins.append(LotteryMargins(edu_a - edu_b, ae_margin, value(k, B, "eu") - value(k, A, "eu")))
        mean_a, _ = A.density_moments(spec)
        mean_b, _ = B.density_moments(spec)
        implications = ImplicationReport(
            verdict=verdict,
            mean_margin=mean_a - mean_b,
            per_lottery=tuple(margins),
            tolerance=2.0 * (spec or DEFAULT_QUADRATURE).relative_tolerance,
        )

    chains = []
    if gammas is not None:
        # steep - flat itself: -diff would turn a 0.0 gap into -0.0
        pointwise = float(((a - b) if swapped else (b - a)).min())

        def equivalents(k: int, U: Curve) -> tuple[float, float, float]:
            eu, edu = value(k, U, "eu"), value(k, U, "edu")
            return eu, _certain_from(U, eu, spec), _aspiration_from(lotteries[k], edu, spec)

        for k in range(len(lotteries)):
            (eu_a, ce_a, ae_a), (eu_b, ce_b, ae_b) = (equivalents(k, U) for U in (flat, steep))
            chains.append(
                ChainReport(*sorted(gammas), pointwise, eu_b - eu_a, ae_a - ae_b, ce_a - ce_b)
            )
    return DominanceReport(verdict, second_order, implications, tuple(chains))


def dominance_report(
    A: Curve,
    B: Curve,
    lotteries: Sequence[Curve],
    grid_points: int = DEFAULT_GRID,
    spec: QuadratureSpec | None = None,
) -> DominanceReport:
    """first_order_dominates and second_order_dominates of A over B;
    dominance_implications against the lotteries when A dominates B;
    and when A and B are both exponential, exponential_chain of their
    gammas on each lottery. One grid and one pair batch serve them all;
    each value, and the first error, is what the separate calls give."""
    exponential = isinstance(A, ExponentialNormalized) and isinstance(B, ExponentialNormalized)
    gammas = (A.gamma, B.gamma) if exponential else None
    return _report(A, B, lotteries, grid_points, spec, bool(lotteries), gammas)


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
    report = _report(A, B, test_lotteries, grid_points, spec, True, None)
    if report.implications is None:
        raise ValueError(
            "A does not dominate B on the grid "
            f"(max violation {report.first_order.max_violation!r}); the "
            "implications are only claimed under dominance"
        )
    return report.implications


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
    is higher too, CE_A >= CE_B. This is dominance_report's chain on a
    list of one lottery.
    """
    if gamma_a > gamma_b:
        raise ValueError(f"need gamma_a <= gamma_b, got {gamma_a!r} > {gamma_b!r}")
    A = exponential_or_linear(F.lo, F.hi, gamma_a)
    B = exponential_or_linear(F.lo, F.hi, gamma_b)
    return _report(A, B, [F], grid_points, spec, False, (gamma_a, gamma_b)).chains[0]


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
    return U.hi - integrate(U.value, U.lo, U.hi, spec, U.cuts)
