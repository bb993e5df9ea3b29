"""Second-order approximations of both equivalents, and the cumulant
series for aspiration equivalents under exponential-kind lotteries.

The certain equivalent expands around the lottery mean with the utility's
risk tolerance -U'/U'' as the divisor; the aspiration equivalent expands
around the utility density's mean with the lottery's spread tolerance
-f/f' in the same slot. An infinite tolerance is a sentinel, not an
error: the correction term is simply zero (linear utility on one side,
uniform lottery on the other).

For an exponential-kind lottery with rate lam the aspiration equivalent
has a closed form, lo - (1/lam) ln E_u[exp(-lam (x - lo))]; expanding the
log-expectation in cumulants of the utility density gives a power series
in lam whose truncations ae_cumulant_series reports alongside the closed
form, with a warning when the terms stop shrinking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import (
    Curve,
    ExponentialNormalized,
    LogWealth,
    PiecewiseLinear,
    SingularDensityError,
    StepFunctionError,
    Uniform,
)
from .duality import aspiration_equivalent, certain_equivalent
from .numerics import (
    QuadratureSpec,
    central_difference,
    cumulants,
    integrate,
    merge_knots,
    second_difference,
)

# second differences of a unit-range curve with h = 1e-5*span carry
# roundoff of order 4e-6/span^2; curvature below this floor reads as zero
ZERO_CURVATURE = 1e-4
# first differences are much cleaner; density slopes below this floor
# (relative to 1/span^2) read as zero
ZERO_SLOPE = 1e-9
KINK_GUARD = 2.0


class CurvatureError(ValueError):
    """Second derivative undefined at the evaluation point."""


class SeriesDivergenceWarning(RuntimeWarning):
    """Truncated cumulant series whose term magnitudes are growing."""


@dataclass(frozen=True)
class ApproxReport:
    exact: float
    approx: float
    first_moment: float
    central_second_moment: float
    tolerance_term: float
    premium: float


@dataclass(frozen=True)
class CumulantSeries:
    series: float
    closed_form: float
    terms: tuple[float, ...]
    diverging: bool


def _guard_kinks(curve: Curve, x: float, h: float) -> None:
    for k in curve.kinks():
        if abs(x - k) < KINK_GUARD * h:
            raise CurvatureError(
                f"x={x!r} is within {KINK_GUARD:g}h of the kink at {k!r}; "
                "curvature is undefined there"
            )


def risk_tolerance(U: Curve, x: float) -> float:
    """-U'(x)/U''(x): how much curvature the utility shows at x, in
    outcome units. Infinite (returned as math.inf) where the curve is
    straight."""
    U._check_x(x)
    if U.is_step:
        raise StepFunctionError("a step utility has no derivatives to compare")
    if isinstance(U, ExponentialNormalized):
        return 1.0 / U.gamma
    if isinstance(U, Uniform):
        # covers the linear kind too
        return math.inf
    if isinstance(U, LogWealth):
        # -U'/U'' of log(wealth + x); the normalization constant cancels
        return U.wealth + x
    h = 1e-5 * U.span
    _guard_kinks(U, x, h)
    if isinstance(U, PiecewiseLinear):
        return math.inf
    up = central_difference(U.value, x, h, (U.lo, U.hi))
    upp = second_difference(U.value, x, h, (U.lo, U.hi))
    if abs(upp) * U.span**2 <= ZERO_CURVATURE:
        return math.inf
    return -up / upp


def spread_tolerance(F: Curve, x: float) -> float:
    """-f(x)/f'(x): the lottery-side twin of risk tolerance, measuring how
    fast the density is changing at x. Infinite for a flat density."""
    F._check_x(x)
    if F.is_step:
        raise StepFunctionError("a step lottery has no density to compare")
    if isinstance(F, ExponentialNormalized):
        return 1.0 / F.gamma
    if isinstance(F, Uniform):
        return math.inf
    h = 1e-5 * F.span
    _guard_kinks(F, x, h)
    if isinstance(F, PiecewiseLinear):
        return math.inf
    f = F.density(x)
    fp = central_difference(F.density, x, h, (F.lo, F.hi))
    if abs(fp) * F.span**2 <= ZERO_SLOPE:
        return math.inf
    return -f / fp


def ce_taylor2(
    F: Curve,
    U: Curve,
    spec: QuadratureSpec | None = None,
    moments: tuple[float, float] | None = None,
) -> ApproxReport:
    """Certain equivalent to second order: lottery mean minus half its
    variance over the risk tolerance at the mean. moments, when given, is
    F.density_moments(spec), computed once for a lottery met again."""
    mean, var = moments or F.density_moments(spec)
    rt = risk_tolerance(U, mean)
    term = 0.0 if math.isinf(rt) else -0.5 * var / rt
    approx = mean + term
    exact = certain_equivalent(F, U, spec)
    return ApproxReport(
        exact=exact,
        approx=approx,
        first_moment=mean,
        central_second_moment=var,
        tolerance_term=term,
        premium=mean - approx,
    )


def ae_taylor2(
    F: Curve,
    U: Curve,
    spec: QuadratureSpec | None = None,
    moments: tuple[float, float] | None = None,
) -> ApproxReport:
    """Aspiration equivalent to second order: utility-density mean minus
    half its variance over the lottery's spread tolerance at that mean.
    moments, when given, is U.density_moments(spec)."""
    mean, var = moments or U.density_moments(spec)
    try:
        st = spread_tolerance(F, mean)
    except CurvatureError as exc:
        raise CurvatureError(
            f"{exc}; if the density is meant to be flat there, the spread "
            "tolerance is infinite and the approximation is just the "
            "utility-density mean"
        ) from exc
    term = 0.0 if math.isinf(st) else -0.5 * var / st
    approx = mean + term
    exact = aspiration_equivalent(F, U, spec)
    return ApproxReport(
        exact=exact,
        approx=approx,
        first_moment=mean,
        central_second_moment=var,
        tolerance_term=term,
        premium=mean - approx,
    )


def ae_cumulant_series(
    F: Curve, U: Curve, terms: int, spec: QuadratureSpec | None = None
) -> CumulantSeries:
    """Aspiration equivalent of an exponential-kind lottery, two ways.

    Closed form: lo - (1/lam) ln E_u[exp(-lam (x - lo))], exact for this
    lottery kind because its quantile undoes the same exponential. Series:
    the log-expectation expanded through `terms` cumulants of the utility
    density, kappa_1 shifted to the interval origin. The k-th term is
    (-1)^(k+1) lam^(k-1) kappa_k / k!; when the magnitudes grow past k=3
    the truncation is diverging and a SeriesDivergenceWarning says so.
    """
    if not isinstance(F, ExponentialNormalized):
        raise ValueError(
            f"cumulant series needs an exponential_normalized lottery, got {F.kind}"
        )
    if F.gamma <= 0.0:
        raise ValueError(f"lottery rate must be positive, got {F.gamma!r}")
    if not 1 <= terms <= 8:
        raise ValueError(f"terms must be between 1 and 8, got {terms!r}")
    if U.is_step:
        raise StepFunctionError("the utility density of a step is a point mass")
    if U.has_singular_density:
        raise SingularDensityError(
            f"{U.kind} utility density is unbounded at an endpoint; its "
            "cumulants are not computable by quadrature"
        )
    lam = F.gamma
    lo, hi = F.lo, F.hi
    knots = merge_knots(U.kinks(), U.sample_hints(), F.sample_hints())
    expectation = integrate(
        lambda x: U.density(x) * np.exp(-lam * (x - lo)), lo, hi, spec, knots
    )
    closed = lo - math.log(expectation) / lam
    kappa = cumulants(
        U.density, lo, hi, terms, spec, merge_knots(U.kinks(), U.sample_hints())
    )
    shifted = (kappa[0] - lo,) + kappa[1:]
    series_terms = tuple(
        (-1.0) ** (k + 1) * lam ** (k - 1) * shifted[k - 1] / math.factorial(k)
        for k in range(1, terms + 1)
    )
    # genuine divergence grows by tens of percent per term; the 1.1 slack
    # keeps high-order cumulant jitter from tripping the warning, and the
    # noise floor skips the exact-zero odd terms of symmetric densities
    floor = 1e-9 * max(abs(t) for t in series_terms)
    diverging = False
    last = 0.0
    for k, t in enumerate(series_terms):
        if k >= 3 and last > floor and abs(t) > 1.1 * last:
            diverging = True
            break
        if abs(t) > floor:
            last = abs(t)
    if diverging:
        warnings.warn(
            "cumulant series terms grow past k=3; the truncated sum is not "
            "converging to the closed form",
            SeriesDivergenceWarning,
            stacklevel=2,
        )
    return CumulantSeries(
        series=lo + sum(series_terms),
        closed_form=closed,
        terms=series_terms,
        diverging=diverging,
    )
