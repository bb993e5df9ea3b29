"""Second-order approximations of both equivalents, and the cumulant
series for aspiration equivalents under exponential-kind lotteries.

A curve has one tolerance, -C'/C'' in outcome units. Read on a utility
it is the risk tolerance -U'/U'', the reciprocal of the Arrow-Pratt
coefficient; read on a lottery it is the spread tolerance -f/f'. The
certain equivalent expands around the lottery mean with the utility's
tolerance as the divisor. The aspiration equivalent is the same
expansion with the roles swapped, as AE(F, U) = CE(U, F): around the
utility density's mean, with the lottery's tolerance. An infinite
tolerance is a sentinel, not an error: the correction term is simply
zero (linear utility on one side, uniform lottery on the other).

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
from typing import Callable

import numpy as np

from .curves import Curve, ExponentialNormalized, SingularDensityError, StepFunctionError
from .duality import DomainMismatchError, certain_equivalent
from .numerics import MAX_CUMULANT_ORDER, QuadratureSpec, central_difference, cumulants
from .numerics import integrate, merge_knots

# C'' is a first difference of the density; slopes below this floor
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
    tolerance: float
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


def risk_tolerance(C: Curve, x: float) -> float:
    """-C'(x)/C''(x): how far the curve is from straight at x, in outcome
    units, with math.inf where it is straight. On a utility this is the
    risk tolerance -U'/U''; on a lottery it is the spread tolerance
    -f/f', and spread_tolerance is this function under that name. It is
    the curve's closed form if it has one, else a density difference;
    at an endpoint where the density is 0 or unbounded it is 0.0."""
    C._check_x(x)
    if C.is_step:
        raise StepFunctionError("a step curve has no density to compare")
    h = 1e-5 * C.span
    _guard_kinks(C, x, h)
    closed = C.tolerance_at(x)
    if closed is not None:
        return closed
    f = C.density(x)
    if x in (C.lo, C.hi) and (f == 0.0 or math.isinf(f)):
        # -f/f' tends to 0 at an end where the density vanishes or blows up
        return 0.0
    slope = central_difference(C.density, x, h, (C.lo, C.hi))
    if abs(slope) * C.span**2 <= ZERO_SLOPE:
        return math.inf
    return -f / slope


spread_tolerance = risk_tolerance


def ce_taylor2(
    F: Curve,
    U: Curve,
    spec: QuadratureSpec | None = None,
    moments: tuple[float, float] | None = None,
    exact: Callable[[], float] | None = None,
) -> ApproxReport:
    """Certain equivalent to second order: lottery mean minus half its
    variance over the utility's tolerance at the mean. moments, when
    given, is F.density_moments(spec), computed once for a lottery met
    again; exact, when given, is called in place of certain_equivalent
    to read a batch of pairs' integrals. ae_taylor2 calls this with the
    roles swapped, so no message here names a role."""
    mean, var = moments or F.density_moments(spec)
    try:
        rt = risk_tolerance(U, mean)
    except CurvatureError as exc:
        raise CurvatureError(
            f"{exc}; if the density is meant to be flat there, the "
            "tolerance is infinite and the approximation is just the mean"
        ) from exc
    # a point mass (a step's moments) needs no correction, even where the
    # tolerance at its point is 0 or undefined
    term = 0.0 if var == 0.0 or math.isinf(rt) else -0.5 * var / rt
    approx = mean + term
    # certain_equivalent would word these two refusals by role
    if (F.lo, F.hi) != (U.lo, U.hi):
        raise DomainMismatchError(
            f"curves on [{F.lo!r}, {F.hi!r}] and [{U.lo!r}, {U.hi!r}] do not "
            "share one interval"
        )
    if F.has_singular_density:  # reached only with moments given
        raise SingularDensityError(
            f"{F.kind} density is unbounded at an endpoint; the exact "
            "equivalent would integrate it"
        )
    return ApproxReport(
        exact=exact() if exact else certain_equivalent(F, U, spec),
        approx=approx,
        first_moment=mean,
        central_second_moment=var,
        tolerance=rt,
        tolerance_term=term,
        premium=mean - approx,
    )


def ae_taylor2(
    F: Curve,
    U: Curve,
    spec: QuadratureSpec | None = None,
    moments: tuple[float, float] | None = None,
    exact: Callable[[], float] | None = None,
) -> ApproxReport:
    """Aspiration equivalent to second order: utility-density mean minus
    half its variance over the lottery's spread tolerance at that mean.
    This is ce_taylor2 with the roles swapped, as AE(F, U) = CE(U, F).
    moments and exact, when given, stand for U's moments and the AE."""
    return ce_taylor2(U, F, spec, moments, exact)


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
    if not 1 <= terms <= MAX_CUMULANT_ORDER:
        raise ValueError(f"terms must be between 1 and {MAX_CUMULANT_ORDER}, got {terms!r}")
    if U.is_step:
        raise StepFunctionError("the utility density of a step is a point mass")
    if U.has_singular_density:
        raise SingularDensityError(
            f"{U.kind} utility density is unbounded at an endpoint; its "
            "cumulants are not computable by quadrature"
        )
    lam = F.gamma
    lo, hi = F.lo, F.hi
    # an exponential lottery has no kinks: F.cuts are its sample hints
    knots = merge_knots(U.cuts, F.cuts)
    expectation = integrate(
        lambda x: U.density(x) * np.exp(-lam * (x - lo)), lo, hi, spec, knots
    )
    closed = lo - math.log(expectation) / lam
    kappa = cumulants(U.density, lo, hi, terms, spec, U.cuts)
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
