"""Shared numerical kernels: quadrature, bracketed root finding, difference
stencils, and cumulants of a density on a bounded interval.

Everything here works on plain callables over a closed interval [lo, hi].
The quadrature is globally adaptive Gauss-Kronrod 7/15: each panel's
15-node Kronrod sum is the estimate, exact for polynomials through degree
22, and its distance from the embedded 7-node Gauss sum gives QUADPACK's
error estimate. Integrands take a whole array of nodes per call. Callers
that know where an integrand loses smoothness pass those abscissae as
knots; panels never straddle a knot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class NumericsError(Exception):
    """Base class for failures raised by this module."""


class QuadratureError(NumericsError):
    """Adaptive refinement hit its depth limit or saw a non-finite value."""


class BracketError(NumericsError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(NumericsError):
    """Iteration stalled before reaching the requested tolerance."""


class NormalizationError(NumericsError):
    """A density failed its unit-mass check."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy request for integrate(). Tolerances combine as
    max(absolute_tolerance, relative_tolerance * |rough estimate|)."""

    relative_tolerance: float = 1e-9
    absolute_tolerance: float = 1e-12
    max_subdivision_depth: int = 40

    def __post_init__(self) -> None:
        if self.relative_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivision_depth < 1:
            raise ValueError("max_subdivision_depth must be at least 1")


@dataclass(frozen=True)
class RootBracket:
    """Interval known (by the caller) to straddle a root, plus the stopping
    tolerance applied to |g(x)|, not to the interval width."""

    lo: float
    hi: float
    value_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if self.lo >= self.hi:
            raise ValueError("bracket must satisfy lo < hi")
        if self.value_tolerance <= 0:
            raise ValueError("value_tolerance must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK qk15), one half of the symmetric
# rule from the outermost node in to the centre: Kronrod nodes, Kronrod
# weights, and the 7-point Gauss weights (which use every other node).
_HALF_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_HALF_KRONROD = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_HALF_GAUSS = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)


def _mirrored(half: tuple[float, ...], sign: float) -> np.ndarray:
    return np.array([sign * v for v in half[:-1]] + list(half[::-1]))


_NODES = _mirrored(_HALF_NODES, -1.0)
_KRONROD = _mirrored(_HALF_KRONROD, 1.0)
_GAUSS = _mirrored(_HALF_GAUSS, 1.0)


def _batched(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """f as a map from a node array to a value array. A callable that only
    takes floats (math.sin, a lambda with an `if`) is detected on the
    first call and from then on called point by point."""
    pointwise = False

    def call(xs: np.ndarray) -> np.ndarray:
        nonlocal pointwise
        if not pointwise:
            try:
                ys = f(xs)
                if isinstance(ys, np.ndarray) and ys.shape == xs.shape:
                    return ys
            except (TypeError, ValueError):
                pass
            pointwise = True
        return np.array([f(x) for x in xs.tolist()], dtype=float)

    return call


def _gk15(call, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimate and QUADPACK error estimate of each panel [a, b],
    all panels' nodes evaluated in one call."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    xs = (center[:, None] + half[:, None] * _NODES).ravel()
    ys = call(xs)
    bad = ~np.isfinite(ys)
    if bad.any():
        x = float(xs[np.argmax(bad)])
        raise QuadratureError(f"integrand returned a non-finite value at x={x!r}")
    ys = ys.reshape(len(a), len(_NODES))
    kronrod = ys @ _KRONROD
    gap = np.abs(kronrod - ys @ _GAUSS)
    # resasc: the integrand's variation about its mean; when the two rules
    # agree closely the raw gap is scaled down by the 3/2 power
    # (Piessens et al., QUADPACK, 1983)
    resasc = np.abs(ys - 0.5 * kronrod[:, None]) @ _KRONROD
    safe = np.where(resasc > 0.0, resasc, 1.0)
    error = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * gap / safe) ** 1.5), gap)
    return half * kronrod, half * error


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    knots: Iterable[float] = (),
) -> float:
    """Integrate f over [lo, hi].

    f may map a node array to a value array, which integrates each round
    of refinement in one call; a callable of one float works too.

    knots lists interior points where f or a derivative may jump; the
    interval opens with one 15-node panel per piece between them, and no
    node sits on a knot. Knots outside the open interval are ignored.

    Refinement is globally adaptive: panels share one error budget. Each
    round splits the panels with the largest error estimates until the
    error left in the others is under half the budget, so an isolated
    rough spot (a steep density endpoint, say) cannot starve while smooth
    panels hoard tolerance.
    """
    spec = spec or DEFAULT_QUADRATURE
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if hi < lo:
        raise ValueError("integration limits must satisfy lo <= hi")
    if hi == lo:
        return 0.0

    cuts = np.array([lo, *(k for k in sorted(set(map(float, knots))) if lo < k < hi), hi])
    a, b = cuts[:-1], cuts[1:]
    depth = np.full(len(a), spec.max_subdivision_depth)
    call = _batched(f)
    value, error = _gk15(call, a, b)
    while True:
        total = float(value.sum())
        budget = max(spec.absolute_tolerance, spec.relative_tolerance * abs(total))
        remaining = float(error.sum())
        # past the budget, also stop once the error no longer shows in the
        # total's last bit (Gander and Gautschi, BIT 2000): a tolerance below
        # machine precision asks for what no refinement can give
        if remaining <= budget or total + remaining == total:
            break
        order = np.argsort(-error, kind="stable")
        rest = remaining - np.cumsum(error[order])
        split = order[: min(len(order), int(np.count_nonzero(rest >= 0.5 * budget)) + 1)]
        mid = 0.5 * (a[split] + b[split])
        stuck = (depth[split] <= 0) | (mid <= a[split]) | (mid >= b[split])
        if stuck.any():
            i = split[np.argmax(stuck)]
            raise QuadratureError(
                f"refinement depth exhausted on [{float(a[i])!r}, {float(b[i])!r}]: best "
                f"estimate {float(value[i])!r}, error bound {float(error[i]):.3e}"
            )
        keep = np.ones(len(a), dtype=bool)
        keep[split] = False
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_value, new_error = _gk15(call, new_a, new_b)
        a, b = np.concatenate([a[keep], new_a]), np.concatenate([b[keep], new_b])
        value = np.concatenate([value[keep], new_value])
        error = np.concatenate([error[keep], new_error])
        depth = np.concatenate([depth[keep], depth[split] - 1, depth[split] - 1])

    # fsum over the surviving panels is exact, so the result cannot depend
    # on the order the panels were split in
    return math.fsum(value.tolist())


def find_root(g: Callable[[float], float], bracket: RootBracket) -> float:
    """Locate a root of g inside the bracket.

    Illinois-damped false position with a bisection guard; stops when
    |g(x)| <= bracket.value_tolerance. The endpoints must produce values
    of opposite sign (either endpoint already inside tolerance is
    returned as-is).
    """
    lo, hi, tol = bracket.lo, bracket.hi, bracket.value_tolerance
    glo = g(lo)
    if abs(glo) <= tol:
        return lo
    ghi = g(hi)
    if abs(ghi) <= tol:
        return hi
    if math.copysign(1.0, glo) == math.copysign(1.0, ghi):
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: g(lo)={glo!r}, g(hi)={ghi!r}"
        )

    side = 0
    for _ in range(200):
        denom = ghi - glo
        if denom == 0.0:
            x = 0.5 * (lo + hi)
        else:
            x = hi - ghi * (hi - lo) / denom
            # fall back to bisection when interpolation leaves the interval
            if not (lo < x < hi):
                x = 0.5 * (lo + hi)
        gx = g(x)
        if abs(gx) <= tol:
            return x
        if math.copysign(1.0, gx) == math.copysign(1.0, glo):
            lo, glo = x, gx
            if side == -1:
                ghi *= 0.5  # Illinois damping against endpoint stagnation
            side = -1
        else:
            hi, ghi = x, gx
            if side == +1:
                glo *= 0.5
            side = +1
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            best = lo if abs(glo) <= abs(ghi) else hi
            gbest = min(abs(glo), abs(ghi))
            if gbest <= tol:
                return best
            raise ConvergenceError(
                f"bracket collapsed at x={best!r} with |g|={gbest:.3e} > {tol:.1e}"
            )
    raise ConvergenceError("root iteration did not converge in 200 steps")


def central_difference(
    f: Callable[[float], float],
    x: float,
    h: float | None = None,
    bounds: tuple[float, float] | None = None,
) -> float:
    """Second-order first derivative of f at x.

    With bounds given, h defaults to 1e-5 times the interval width and the
    stencil switches to a one-sided second-order form when x sits within h
    of an end, so f is never sampled outside [lo, hi].
    """
    if bounds is not None:
        lo, hi = bounds
        if not lo <= x <= hi:
            raise ValueError(f"x={x!r} outside bounds [{lo!r}, {hi!r}]")
        if h is None:
            h = 1e-5 * (hi - lo)
        if x - h < lo:
            return (-3.0 * f(x) + 4.0 * f(x + h) - f(x + 2.0 * h)) / (2.0 * h)
        if x + h > hi:
            return (3.0 * f(x) - 4.0 * f(x - h) + f(x - 2.0 * h)) / (2.0 * h)
    elif h is None:
        h = 1e-5 * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_difference(
    f: Callable[[float], float],
    x: float,
    h: float | None = None,
    bounds: tuple[float, float] | None = None,
) -> float:
    """Second-order second derivative, one-sided at the ends like
    central_difference."""
    if bounds is not None:
        lo, hi = bounds
        if not lo <= x <= hi:
            raise ValueError(f"x={x!r} outside bounds [{lo!r}, {hi!r}]")
        if h is None:
            h = 1e-5 * (hi - lo)
        if x - h < lo:
            return (2.0 * f(x) - 5.0 * f(x + h) + 4.0 * f(x + 2.0 * h) - f(x + 3.0 * h)) / h**2
        if x + h > hi:
            return (2.0 * f(x) - 5.0 * f(x - h) + 4.0 * f(x - 2.0 * h) - f(x - 3.0 * h)) / h**2
    elif h is None:
        h = 1e-5 * max(1.0, abs(x))
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


def cumulants(
    density: Callable[[float], float],
    lo: float,
    hi: float,
    order: int,
    spec: QuadratureSpec | None = None,
    knots: Iterable[float] = (),
) -> tuple[float, ...]:
    """First `order` cumulants of the distribution with the given density.

    Raw moments come from quadrature; cumulants follow from the standard
    recursion. The density must integrate to 1 within 1e-6 or the call
    refuses (NormalizationError), since a mass error contaminates every
    cumulant. order is capped at 8: beyond that the moment integrals lose
    too many digits to cancellation for the recursion to be trustworthy.
    """
    if not 1 <= order <= 8:
        raise ValueError("order must be between 1 and 8")
    mass = integrate(density, lo, hi, spec, knots)
    if abs(mass - 1.0) > 1e-6:
        raise NormalizationError(f"density mass {mass!r} differs from 1 by more than 1e-6")

    moments = [1.0]
    for n in range(1, order + 1):
        moments.append(integrate(lambda x, n=n: x**n * density(x), lo, hi, spec, knots))

    kappa: list[float] = []
    for n in range(1, order + 1):
        acc = moments[n]
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * kappa[j - 1] * moments[n - j]
        kappa.append(acc)
    return tuple(kappa)


def merge_knots(*groups: Sequence[float]) -> tuple[float, ...]:
    """Union of knot lists, sorted, duplicates removed."""
    seen = sorted(set(float(k) for group in groups for k in group))
    return tuple(seen)
