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
ce_taylor2 and ae_taylor2 read one pair; taylor2_pairs reads many, each
curve's moments once and every exact equivalent from one pair batch,
with the bits and the first error of the pair-by-pair loop.

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
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .curves import Curve, SingularDensityError, StepFunctionError
from .duality import PairBatch, aspiration_equivalent, certain_equivalent
from .numerics import MAX_CUMULANT_ORDER, QuadratureSpec, cumulants, integrate, merge_knots

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
    -f/f', and spread_tolerance is this function under that name. Every
    kind with a density gives it in closed form (Curve.tolerance_at); at
    an endpoint where the density is 0 or unbounded it is 0.0. A step
    has no density, and within 2h (h = 1e-5 span) of a kink the
    curvature is refused."""
    C._check_x(x)
    if C.is_step:
        raise StepFunctionError("a step curve has no density to compare")
    _guard_kinks(C, x, 1e-5 * C.span)
    return C.tolerance_at(x)


spread_tolerance = risk_tolerance


def _taylor2(moments: tuple[float, float], U: Curve, exact: Callable[[], float]) -> ApproxReport:
    """A mean minus half the variance over U's tolerance at that mean,
    beside exact(), the pair's equivalent, read last so that a refusal
    comes where the pair-by-pair functions raise it."""
    mean, var = moments
    try:
        rt = risk_tolerance(U, mean)
    except CurvatureError as exc:
        raise CurvatureError(
            f"{exc}; if the density is meant to be flat there, the "
            "tolerance is infinite and the approximation is just the mean"
        ) from exc
    # a point mass (a step's moments) needs no correction, even where the
    # tolerance at its point is 0 or undefined
    if var == 0.0 or math.isinf(rt):
        term = 0.0
    else:
        # a tolerance that underflowed to 0 puts the term past float range
        term = -0.5 * var / rt if rt else math.copysign(math.inf, -rt)
    approx = mean + term
    return ApproxReport(
        exact=exact(),
        approx=approx,
        first_moment=mean,
        central_second_moment=var,
        tolerance=rt,
        tolerance_term=term,
        premium=mean - approx,
    )


def ce_taylor2(F: Curve, U: Curve, spec: QuadratureSpec | None = None) -> ApproxReport:
    """Certain equivalent to second order: lottery mean minus half its
    variance over the utility's tolerance at the mean."""
    return _taylor2(F.density_moments(spec), U, lambda: certain_equivalent(F, U, spec))


def ae_taylor2(F: Curve, U: Curve, spec: QuadratureSpec | None = None) -> ApproxReport:
    """Aspiration equivalent to second order: utility-density mean minus
    half its variance over the lottery's spread tolerance at that mean.
    This is ce_taylor2 with the roles swapped, as AE(F, U) = CE(U, F)."""
    return _taylor2(U.density_moments(spec), F, lambda: aspiration_equivalent(F, U, spec))


def taylor2_pairs(
    pairs: Sequence[tuple[Curve, Curve]], spec: QuadratureSpec | None = None
) -> Iterator[tuple[ApproxReport, ApproxReport]]:
    """(ce_taylor2, ae_taylor2) of each (lottery, utility) pair, in turn,
    the first error raised where the pair-by-pair loop raises it. Each
    curve's moments are integrated once, and every exact CE and AE comes
    from one pair batch, built before the first result is yielded."""
    moments = cache(lambda curve: curve.density_moments(spec))
    batch = PairBatch([(f, u, role) for f, u in pairs for role in ("eu", "edu")], spec)
    for F, U in pairs:
        yield (
            _taylor2(moments(F), U, lambda: batch.certain_equivalent(F, U)),
            _taylor2(moments(U), F, lambda: batch.aspiration_equivalent(F, U)),
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
    if F.gamma is None:
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
