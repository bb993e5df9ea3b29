"""Shared numerical kernels: quadrature, bracketed root finding, difference
stencils, and cumulants of a density on a bounded interval.

Everything here works on plain callables over a closed interval [lo, hi].
The quadrature is globally adaptive Gauss-Kronrod 7/15: each panel's
15-node Kronrod sum is the estimate, exact for polynomials through degree
22, and its distance from the embedded 7-node Gauss sum gives QUADPACK's
error estimate. Integrands take a whole array of nodes per call. Callers
that know where an integrand loses smoothness pass those abscissae as
knots; panels never straddle a knot. integrate_many refines many
independent integrals in one lockstep loop, each exactly as integrate
would.
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


def _opening(lo: float, hi: float, knots: Iterable[float]) -> np.ndarray | None:
    """Cut points of the opening panels, one panel per knot interval; None
    for an empty interval."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if hi < lo:
        raise ValueError("integration limits must satisfy lo <= hi")
    if hi == lo:
        return None
    return np.array([lo, *(k for k in sorted(set(map(float, knots))) if lo < k < hi), hi])


def _sampled(call, xs: np.ndarray) -> np.ndarray:
    """One integral's values at the nodes xs of its new panels, one row
    per panel."""
    ys = call(xs)
    bad = ~np.isfinite(ys)
    if bad.any():
        x = float(xs[np.argmax(bad)])
        raise QuadratureError(f"integrand returned a non-finite value at x={x!r}")
    return ys.reshape(-1, len(_NODES))


def _error(kronrod: np.ndarray, gauss: np.ndarray, resasc: np.ndarray) -> np.ndarray:
    """QUADPACK's error estimate on [-1, 1] from the two rules' sums and
    resasc, the integrand's variation about its mean: when the rules
    agree closely their gap is scaled down by the 3/2 power (Piessens et
    al., QUADPACK, 1983)."""
    gap = np.abs(kronrod - gauss)
    safe = np.where(resasc > 0.0, resasc, 1.0)
    return np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * gap / safe) ** 1.5), gap)


def _nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 15 nodes of each panel [a, b], one row per panel, and the half
    widths that scale the rules from [-1, 1]."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    return center[:, None] + half[:, None] * _NODES, half


def _gk15(call, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimate and QUADPACK error estimate of each panel [a, b],
    all panels' nodes evaluated in one call."""
    xs, half = _nodes(a, b)
    ys = _sampled(call, xs.ravel())
    kronrod = ys @ _KRONROD
    resasc = np.abs(ys - 0.5 * kronrod[:, None]) @ _KRONROD
    return half * kronrod, half * _error(kronrod, ys @ _GAUSS, resasc)


def _stop(total: float, remaining: float, spec: QuadratureSpec) -> tuple[float, bool]:
    """One integral's error budget and whether its refinement is over: the
    summed estimate is within max(absolute_tolerance, relative_tolerance *
    |I|), or past the budget it no longer shows in the total's last bit
    (Gander and Gautschi, BIT 2000), since a tolerance below machine
    precision asks for what no refinement can give."""
    budget = max(spec.absolute_tolerance, spec.relative_tolerance * abs(total))
    return budget, remaining <= budget or total + remaining == total


def _split_counts(errors: np.ndarray, remaining, budget):
    """How many panels each integral splits this round: its worst ones,
    until the error left in the others is under half its budget (a count
    one past an integral's panels means all of them). errors holds each
    integral's panel errors largest first along its last axis, padded
    with inf."""
    rest = remaining - np.cumsum(errors, axis=-1)
    return (rest >= 0.5 * budget).sum(axis=-1) + 1


def _exhausted(a: float, b: float, value: float, error: float) -> QuadratureError:
    return QuadratureError(
        f"refinement depth exhausted on [{a!r}, {b!r}]: best "
        f"estimate {value!r}, error bound {error:.3e}"
    )


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
    cuts = _opening(lo, hi, knots)
    if cuts is None:
        return 0.0
    a, b = cuts[:-1], cuts[1:]
    depth = np.full(len(a), spec.max_subdivision_depth)
    call = _batched(f)
    value, error = _gk15(call, a, b)
    while True:
        total = float(value.sum())
        remaining = float(error.sum())
        budget, done = _stop(total, remaining, spec)
        if done:
            break
        order = np.argsort(-error, kind="stable")
        split = order[: _split_counts(error[order], remaining, budget)]
        mid = 0.5 * (a[split] + b[split])
        stuck = (depth[split] <= 0) | (mid <= a[split]) | (mid >= b[split])
        if stuck.any():
            i = split[np.argmax(stuck)]
            raise _exhausted(float(a[i]), float(b[i]), float(value[i]), float(error[i]))
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


def integrate_many(
    jobs: Sequence[tuple[Callable, float, float, Iterable[float]]],
    spec: QuadratureSpec | None = None,
) -> list:
    """integrate(f, lo, hi, spec, knots) of each (f, lo, hi, knots) job,
    with all the integrals refined in one lockstep loop.

    Each integral keeps its own panels, budget, depth limit and stopping
    rule, and each value is bit for bit what integrate() returns for its
    job. What the loop shares is the bookkeeping of a round: node
    placement, error estimates, sorting, splitting and merging run once
    over every integral's panels. Each integrand still gets one call per
    round for its own new nodes.

    The list holds each job's value in job order, up to the first job
    that fails (bad limits, an integrand error, a non-finite value, depth
    exhausted): that job's exception ends the list. A loop of integrate()
    calls would never start the jobs after it, so the loop drops them as
    soon as the failure shows.
    """
    spec = spec or DEFAULT_QUADRATURE
    results: list = [None] * len(jobs)
    calls: dict[int, Callable] = {}
    opened: list[tuple[int, np.ndarray]] = []
    for n, (f, lo, hi, knots) in enumerate(jobs):
        try:
            cuts = _opening(lo, hi, knots)
        except (TypeError, ValueError) as exc:
            results[n] = exc
            break
        if cuts is None:
            results[n] = 0.0
        else:
            calls[n] = _batched(f)
            opened.append((n, cuts))
    if opened:
        owner = np.concatenate([np.full(len(cuts) - 1, n) for n, cuts in opened])
        a = np.concatenate([cuts[:-1] for _, cuts in opened])
        b = np.concatenate([cuts[1:] for _, cuts in opened])
        _refine_many(calls, owner, a, b, spec, results)
    for n, r in enumerate(results):
        if isinstance(r, Exception):
            return results[: n + 1]
    return results


def _segments(owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and size of each integral's run of panels in owner, which
    holds each integral's panels together."""
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    return starts, np.diff(starts, append=len(owner))


def _gk15_many(calls, owner, a, b, results) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """_gk15 of the new panels of several integrals, grouped by owner.

    Each integral samples its own nodes in one call, and its rows go
    through the three matrix-vector products on their own: stacked with
    other integrals' rows, the products round differently. An integral
    whose integrand raises or returns a non-finite value gets that
    exception as its result and NaN estimates; the list returned names
    those integrals."""
    xs, half = _nodes(a, b)
    starts, sizes = _segments(owner)
    kronrod, gauss, resasc, failed = [], [], [], []
    for s, e in zip(starts.tolist(), (starts + sizes).tolist()):
        n = int(owner[s])
        try:
            y = _sampled(calls[n], xs[s:e].ravel())
        except Exception as exc:  # ends the list integrate_many returns
            results[n] = exc
            failed.append(n)
            y = np.full((e - s, len(_NODES)), np.nan)
        k = y @ _KRONROD
        kronrod.append(k)
        gauss.append(y @ _GAUSS)
        resasc.append(np.abs(y - 0.5 * k[:, None]) @ _KRONROD)
    if not kronrod:
        return np.empty(0), np.empty(0), failed
    kronrod, gauss, resasc = map(np.concatenate, (kronrod, gauss, resasc))
    return half * kronrod, half * _error(kronrod, gauss, resasc), failed


def _refine_many(calls, owner, a, b, spec: QuadratureSpec, results: list) -> None:
    """integrate()'s refinement loop over every open integral at once.

    Panels live in flat arrays, each integral's together and in the order
    integrate() keeps them: kept panels, then the left halves, then the
    right halves of those split, both in split order. The sums that decide
    the stopping test (ndarray.sum) and the split order run on each
    integral's own panels in that order, which keeps every value bit for
    bit; the rest of a round, the stopping test itself aside, is
    vectorized across integrals. The first integral to fail, in job
    order, leaves the loop with every integral after it."""
    depth = np.full(len(a), spec.max_subdivision_depth)
    value, error, failed = _gk15_many(calls, owner, a, b, results)
    last = min([len(results), *failed])  # integrals from here on are dropped
    live = owner < last
    owner, a, b, depth, value, error = (v[live] for v in (owner, a, b, depth, value, error))
    while len(owner):
        starts, sizes = _segments(owner)
        remaining, budget, done = [], [], []
        for s, e in zip(starts.tolist(), (starts + sizes).tolist()):
            left = float(error[s:e].sum())
            limit, stop = _stop(float(value[s:e].sum()), left, spec)
            if stop:
                results[int(owner[s])] = math.fsum(value[s:e].tolist())
            remaining.append(left)
            budget.append(limit)
            done.append(stop)
        done = np.array(done)
        remaining, budget = np.array(remaining)[~done], np.array(budget)[~done]
        live = np.repeat(~done, sizes)
        owner, a, b, depth = owner[live], a[live], b[live], depth[live]
        value, error = value[live], error[live]
        if not len(owner):
            break
        sizes = sizes[~done]

        # each integral's panels by falling error, ties in panel order, one
        # row per integral for the running sums
        order = np.lexsort((-error, owner))
        row = np.repeat(np.arange(len(sizes)), sizes)
        rank = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        errors = np.full((len(sizes), int(sizes.max())), np.inf)
        errors[row, rank] = error[order]
        counts = _split_counts(errors, remaining[:, None], budget[:, None])
        split = order[rank < np.repeat(counts, sizes)]

        mid = 0.5 * (a[split] + b[split])
        stuck = (depth[split] <= 0) | (mid <= a[split]) | (mid >= b[split])
        for t in np.flatnonzero(stuck).tolist():
            i = split[t]
            n = int(owner[i])
            if n < last:  # the first stuck panel in split order
                results[n] = _exhausted(float(a[i]), float(b[i]), float(value[i]), float(error[i]))
                last = n
        going = owner[split] < last
        split, mid = split[going], mid[going]

        new_owner = np.concatenate([owner[split], owner[split]])
        halves = np.argsort(new_owner, kind="stable")  # lefts, then rights
        new_owner = new_owner[halves]
        new_a = np.concatenate([a[split], mid])[halves]
        new_b = np.concatenate([mid, b[split]])[halves]
        new_depth = np.concatenate([depth[split] - 1, depth[split] - 1])[halves]
        new_value, new_error, failed = _gk15_many(calls, new_owner, new_a, new_b, results)
        last = min([last, *failed])

        keep = owner < last
        keep[split] = False
        fresh = new_owner < last
        owner = np.concatenate([owner[keep], new_owner[fresh]])
        merged = np.argsort(owner, kind="stable")  # kept panels, then new
        owner = owner[merged]
        a = np.concatenate([a[keep], new_a[fresh]])[merged]
        b = np.concatenate([b[keep], new_b[fresh]])[merged]
        depth = np.concatenate([depth[keep], new_depth[fresh]])[merged]
        value = np.concatenate([value[keep], new_value[fresh]])[merged]
        error = np.concatenate([error[keep], new_error[fresh]])[merged]


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
