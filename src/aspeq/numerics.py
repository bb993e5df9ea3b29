"""Shared numerical kernels: quadrature, bracketed root finding, and
cumulants of a density on a bounded interval.

Everything here works on plain callables over a closed interval [lo, hi].
The quadrature is globally adaptive Gauss-Kronrod 7/15: each panel's
15-node Kronrod sum is the estimate, exact for polynomials through degree
22, and its distance from the embedded 7-node Gauss sum gives QUADPACK's
error estimate. Integrands take a whole array of nodes per call. Callers
that know where an integrand loses smoothness pass those abscissae as
knots; panels never straddle a knot. There is one refinement loop:
integrate_many refines a list of independent integrals in lockstep, and
integrate is integrate_many of one job.

A round of that loop is a fixed number of array operations, however many
integrals it holds. An integrand is a product of factors (Product; a plain
callable is a product of one), and a round calls each distinct factor once,
on the nodes of every integral that uses it. Each rule sums one panel's row
in a fixed order, with no BLAS call, so a panel's bits depend neither on
the other integrals in its batch nor on the machine's BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np


class NumericsError(Exception):
    """Base class for failures raised by this module."""


class QuadratureError(NumericsError):
    """Adaptive refinement hit its depth limit or panel cap, or saw a non-finite value."""


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
MAX_CUMULANT_ORDER = 8
# most panels one integral may hold (about twice the noisiest tested job):
# an integrand whose rounding exceeds its budget would split until out of memory
MAX_PANELS = 2**16


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


class Product:
    """The integrand factors[0](x) * factors[1](x) * ..., multiplied in
    that order. integrate_many calls each distinct factor (factors that
    compare equal, such as one curve's bound density) once per round, on
    the nodes of every integral in the batch that uses it."""

    __slots__ = ("factors",)

    def __init__(self, *factors: Callable) -> None:
        if not factors:
            raise TypeError("a Product needs at least one factor")
        self.factors = factors

    def __call__(self, x):
        y = self.factors[0](x)
        for factor in self.factors[1:]:
            y = y * factor(x)
        return y


class _Integrands:
    """The opened jobs' integrands, sampled curve-major.

    A round of several integrals calls each distinct factor once, on the
    nodes of all the integrals that use it, and multiplies each
    integral's factors in order; the products are elementwise, so every
    value has the bits its own product gives. A factor whose grouped call
    fails (it raises, or gives no array of the nodes' shape) sends the
    integrals that use it back to being sampled on their own, through
    _batched, for the rest of the loop, so each gets the value or the
    exception it gets alone. So does a factor that is no dict key."""

    def __init__(self, integrands: dict[int, Callable]) -> None:
        self.integrands = integrands
        self.alone: dict[int, Callable] = {}
        uses: dict[int, list[int]] = {}  # job -> its factors' numbers, in order
        number: dict = {}
        for n, f in integrands.items():
            try:
                factors = f.factors if isinstance(f, Product) else (f,)
                uses[n] = [number.setdefault(g, len(number)) for g in factors]
            except TypeError:  # unhashable: sampled alone
                pass
        self.kernels = list(number)
        # row n: job n's factors' numbers, padded with -1 (none for a job
        # sampled alone)
        width = max(map(len, uses.values()), default=1)
        self.slots = np.array([(uses.get(n, []) + [-1] * width)[:width] for n in range(max(integrands) + 1)])

    def solo(self, n: int) -> Callable:
        """Job n's integrand as it is sampled alone."""
        if n not in self.alone:
            self.alone[n] = _batched(self.integrands[n])
        return self.alone[n]

    def sample(self, ids: list[int], sizes: list[int], xs: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The values at the nodes xs, a row per panel, the integral of
        job ids[k] owning the next sizes[k] rows; and the positions k of the
        integrals sampled alone (solo), whose rows are left for the caller."""
        width = self.slots.shape[1]
        # each factor's (row, slot) entries together, in row order
        flat = np.repeat(self.slots[ids], sizes, axis=0).ravel()
        order = np.argsort(flat, kind="stable")
        factor = flat[order]
        rows = order // width
        # ys[s, r] is slot s of row r; an empty slot's 1.0 leaves the product's bits
        ys = np.ones((width, *xs.shape))
        at = (order % width) * len(xs) + rows
        starts = np.flatnonzero(np.diff(factor, prepend=-1)).tolist()
        for s, e in zip(starts, [*starts[1:], len(factor)]):
            g = int(factor[s])
            nodes = xs[rows[s:e]].ravel()
            try:
                values = self.kernels[g](nodes)
                if not (isinstance(values, np.ndarray) and values.shape == nodes.shape):
                    raise TypeError
            except Exception:
                self.slots[(self.slots == g).any(axis=1)] = -1
                continue
            ys.reshape(-1, len(_NODES))[at[s:e]] = values.reshape(-1, len(_NODES))
        product = ys[0]
        for slot in ys[1:]:
            product *= slot
        return product, np.flatnonzero(self.slots[ids, 0] < 0).tolist()


def _opening(lo: float, hi: float, knots: Iterable[float]) -> list[float]:
    """Cut points of the opening panels, one panel per knot interval; none
    for an empty interval."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration limits must be finite")
    if hi < lo:
        raise ValueError("integration limits must satisfy lo <= hi")
    if hi == lo:
        return []
    return [lo, *(k for k in sorted(set(map(float, knots))) if lo < k < hi), hi]


def fixed_rule(lo: float, hi: float, knots: Iterable[float], panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a fixed composite rule on [lo, hi]: the
    15-node Kronrod rule on `panels` equal panels of each piece between
    knots, pieces cut as integrate opens them. sum(weights * f(nodes))
    approximates the integral of f with no refinement and no error
    estimate; no node sits on a knot or an end."""
    cuts = np.array(_opening(lo, hi, knots))
    ends = np.append(cuts[:-1, None] + np.diff(cuts)[:, None] * (np.arange(panels) / panels), cuts[-1:])
    half = 0.5 * np.diff(ends)
    nodes = (ends[:-1] + half)[:, None] + half[:, None] * _NODES
    return nodes.ravel(), (half[:, None] * _KRONROD).ravel()


def _split_counts(errors: np.ndarray, remaining, budget):
    """How many panels each integral splits this round: its worst ones,
    until the error left in the others is under half its budget (a count
    one past an integral's panels means all of them). errors holds each
    integral's panel errors largest first along its last axis, padded
    with inf."""
    rest = remaining - np.add.accumulate(errors, -1)
    return np.add.reduce(rest >= 0.5 * budget, -1) + 1


def integrate(
    f: Callable,
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    knots: Iterable[float] = (),
) -> float:
    """Integrate f over [lo, hi]: integrate_many of the one job, raising
    its exception if it fails.

    f may map a node array to a value array, which integrates each round
    of refinement in one call; a callable of one float works too, and so
    does a Product of such callables.

    knots lists interior points where f or a derivative may jump; the
    interval opens with one 15-node panel per piece between them, and no
    node sits on a knot. Knots outside the open interval are ignored.
    """
    (outcome,) = integrate_many([(f, lo, hi, knots)], spec)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def integrate_many(
    jobs: Sequence[tuple[Callable, float, float, Iterable[float]]],
    spec: QuadratureSpec | None = None,
) -> list:
    """The integral of f over [lo, hi] for each (f, lo, hi, knots) job,
    all refined in one lockstep loop; integrate() documents f and knots.

    Refinement is globally adaptive: each integral's panels share one
    error budget, max(absolute_tolerance, relative_tolerance * |I|).
    Each round splits an integral's panels with the largest error
    estimates until the error left in the others is under half the
    budget, so an isolated rough spot (a steep density endpoint, say)
    cannot starve while smooth panels hoard tolerance.

    Each integral keeps its own panels, budget, depth limit and stopping
    rule, so its value does not depend on the other jobs. What the loop
    shares is the bookkeeping of a round: node placement, error
    estimates, sorting, splitting and merging run once over every
    integral's panels. Each distinct factor of the integrands (see
    Product; a plain callable is one factor) gets one call per round, on
    the new nodes of every integral that uses it.

    The list holds each job's outcome in job order: its value, or the
    exception it fails with (bad limits, an integrand error, a non-finite
    value, depth exhausted, more than MAX_PANELS panels). A failed
    integral leaves the loop as a finished one does, so every outcome is
    what the job gives alone, whatever fails before or after it.
    """
    spec = spec or DEFAULT_QUADRATURE
    results: list = [None] * len(jobs)
    opened: dict[int, Callable] = {}
    sizes: list[int] = []
    lefts: list[float] = []
    rights: list[float] = []
    for n, (f, lo, hi, knots) in enumerate(jobs):
        try:
            cuts = _opening(lo, hi, knots)
        except (TypeError, ValueError) as exc:
            results[n] = exc
            continue
        if cuts:
            opened[n] = f
            sizes.append(len(cuts) - 1)
            lefts += cuts[:-1]
            rights += cuts[1:]
        else:
            results[n] = 0.0
    if opened:
        _refine(_Integrands(opened), sizes, np.array([lefts, rights]), spec, results)
    return results


def _estimates(integrands, ids, sizes, panels, results) -> list[int]:
    """Fill in the Kronrod estimate and the QUADPACK error estimate of
    each panel, columns of panels (_refine); they are grouped by
    integral, sizes[k] of them for the integral of job ids[k].

    Each rule sums a panel's weighted values along its own row, in an
    order that depends on nothing else, so a panel gets the same bits in
    any batch as alone, whatever BLAS the machine has. An integral whose
    integrand raises or returns a non-finite value gets that exception as
    its result, unless it already holds one, and zero values, so no
    non-finite value reaches the sums; the positions k of these failed
    integrals are returned."""
    half = 0.5 * (panels[1] - panels[0])
    xs = (0.5 * (panels[0] + panels[1]))[:, None] + half[:, None] * _NODES
    bounds = [0, *accumulate(sizes)]
    # a lone integral has no factor to share
    ys, solo = integrands.sample(ids, sizes, xs) if len(ids) > 1 else (np.empty(xs.shape), [0])
    failed: dict[int, Exception] = {}
    for k in solo:
        s, e = bounds[k], bounds[k + 1]
        try:
            ys[s:e] = integrands.solo(ids[k])(xs[s:e].ravel()).reshape(e - s, len(_NODES))
        except Exception as exc:  # that integral's outcome
            failed[k] = exc
    finite = np.isfinite(ys)
    if np.count_nonzero(finite) < finite.size:  # each integral's first non-finite value
        bad = np.flatnonzero(~finite)
        owner = np.searchsorted(bounds, bad // len(_NODES), side="right") - 1
        owners, firsts = np.unique(owner, return_index=True)
        for k, x in zip(owners.tolist(), xs.flat[bad[firsts]].tolist()):
            failed.setdefault(k, QuadratureError(f"integrand returned a non-finite value at x={x!r}"))
    for k, exc in failed.items():
        ys[bounds[k] : bounds[k + 1]] = 0.0
        if results[ids[k]] is None:
            results[ids[k]] = exc
    kronrod = np.add.reduce(ys * _KRONROD, -1)
    gauss = np.add.reduce(ys * _GAUSS, -1)
    resasc = np.add.reduce(np.abs(ys - 0.5 * kronrod[:, None]) * _KRONROD, -1)
    # QUADPACK's error estimate on [-1, 1] from the two rules' sums and
    # resasc, the integrand's variation about its mean: when the rules
    # agree closely their gap is scaled down by the 3/2 power (Piessens et
    # al., QUADPACK, 1983)
    gap = np.abs(kronrod - gauss)
    varies = resasc > 0.0
    scaled = resasc * np.minimum(1.0, (200.0 * gap / np.where(varies, resasc, 1.0)) ** 1.5)
    np.multiply(half, kronrod, out=panels[3])
    np.multiply(half, np.where(varies, scaled, gap), out=panels[4])
    return list(failed)


def _refine(integrands, sizes: list[int], ends: np.ndarray, spec: QuadratureSpec, results: list) -> None:
    """The refinement loop of integrate_many over the opened integrals,
    in job order; sizes[k] of the opening panels, whose ends are the
    columns of ends, are the k-th one's.

    Panels are the columns of one array, each integral's together and in
    the order a one-integral loop keeps them: kept panels, then the left
    halves, then the right halves of those split, both in split order. A
    round is a fixed number of array operations however many integrals
    it holds: the stopping test (on each integral's total and error, one
    reduceat over its run of panels), the split order, splitting and
    merging. None mixes one integral's numbers into another's, so every
    value is bit for bit what the integral gives alone. One integral
    needs no regrouping to sort, split and merge. An integral that fails
    gets its exception as its result and zero estimates and errors, so
    the next stopping test retires it as it retires a finished one."""
    ids = list(integrands.integrands)
    # rows: each panel's ends, the splits left before the depth limit,
    # its estimate and its error
    panels = np.empty((5, ends.shape[1]))
    panels[:2], panels[2] = ends, spec.max_subdivision_depth
    failed = _estimates(integrands, ids, sizes, panels, results)
    while True:
        starts = [0, *accumulate(sizes)]
        for k in failed:
            panels[3:, starts[k] : starts[k + 1]] = 0.0
        total, err = np.add.reduceat(panels[3:], starts[:-1], 1)
        limit = np.maximum(spec.absolute_tolerance, spec.relative_tolerance * np.abs(total))
        # past the budget, refinement also ends once the error no longer
        # shows in the total's last bit (Gander and Gautschi, BIT 2000):
        # a tolerance below machine precision asks for what no refinement
        # can give
        stop = (err <= limit) | (total + err == total)
        done = stop.nonzero()[0].tolist()
        if done:
            for k in done:
                if results[ids[k]] is None:  # a failed integral keeps its exception
                    # fsum over the surviving panels is exact, so the result
                    # cannot depend on the order the panels were split in
                    results[ids[k]] = math.fsum(panels[3, starts[k] : starts[k + 1]].tolist())
            if len(done) == len(ids):
                return
            live = (~stop).nonzero()[0].tolist()
            panels = panels[:, np.repeat(~stop, sizes)]
            ids, sizes, err, limit = [ids[k] for k in live], [sizes[k] for k in live], err[live], limit[live]

        error = panels[4]
        if len(ids) == 1:
            order = (-error).argsort(kind="stable")
            split = order[: _split_counts(error[order], err[0], limit[0])]
            counts = [len(split)]
        else:
            # each integral's panels by falling error, ties in panel order,
            # one row per integral for the running sums
            per = np.array(sizes)
            row = np.repeat(np.arange(len(ids)), per)
            order = np.lexsort((-error, row))
            rank = np.arange(len(error)) - np.repeat(np.cumsum(per) - per, per)
            errors = np.full((len(ids), per.max()), np.inf)
            errors[row, rank] = error[order]
            counts = _split_counts(errors, err[:, None], limit[:, None])
            split = order[rank < np.repeat(counts, per)]
            counts = np.minimum(counts, per).tolist()

        halved = panels[:, split]
        left, right, down = halved[:3]
        mid = 0.5 * (left + right)
        down -= 1
        grown = [size + c for size, c in zip(sizes, counts)]
        # a split is stuck past the depth limit, where halving no longer
        # moves the panel's ends, or where it takes its integral past the cap
        stuck = (down < 0) | (mid <= left) | (mid >= right) | np.repeat(np.array(grown) > MAX_PANELS, counts)
        failed = []
        if np.count_nonzero(stuck):  # each integral's first stuck panel in split order
            at = split[stuck]
            owners, firsts = np.unique(np.searchsorted(np.cumsum(sizes), at, side="right"), return_index=True)
            for k, i in zip(owners.tolist(), at[firsts].tolist()):
                lo, hi, _, best, bound = panels[:, i].tolist()
                why = f"panel cap {MAX_PANELS} reached" if grown[k] > MAX_PANELS else "refinement depth exhausted"
                results[ids[k]] = QuadratureError(
                    f"{why} on [{lo!r}, {hi!r}]: best estimate {best!r}, error bound {bound:.3e}"
                )
                failed.append(k)
        # the left halves, then the right halves, each in split order
        new = np.concatenate([halved, halved], axis=1)
        new[1, : len(split)] = new[0, len(split) :] = mid
        if len(ids) > 1:
            # each integral's left halves, then its right halves; after the
            # merge, each integral's kept panels, then its new ones
            new = new[:, np.argsort(np.concatenate([row[split], row[split]]), kind="stable")]
        new_sizes = [2 * c for c in counts]
        if not failed:
            failed = _estimates(integrands, ids, new_sizes, new, results)
        elif len(failed) < len(ids):  # a stuck integral's halves go unsampled: the next test retires it
            fresh = [k for k in range(len(ids)) if k not in failed]
            cols = np.repeat(np.isin(np.arange(len(ids)), fresh), new_sizes)
            sampled = new[:, cols]
            out = _estimates(integrands, [ids[k] for k in fresh], [new_sizes[k] for k in fresh], sampled, results)
            new[:, cols] = sampled
            failed += [fresh[j] for j in out]

        keep = np.ones(len(error), dtype=bool)
        keep[split] = False
        panels = np.concatenate([panels[:, keep], new], axis=1)
        if len(ids) > 1:
            new_row = np.repeat(np.arange(len(ids)), new_sizes)
            panels = panels[:, np.argsort(np.concatenate([row[keep], new_row]), kind="stable")]
        sizes = grown


def find_root(g: Callable[[float], float], bracket: RootBracket) -> float:
    """Locate a root of g inside the bracket.

    Illinois-damped false position with a bisection guard; stops when
    |g(x)| <= bracket.value_tolerance. The endpoints must produce values
    of opposite sign (either endpoint already inside tolerance is
    returned as-is). A bracket that collapses first raises
    ConvergenceError with |g| as g gave it at the end reported, so every
    point returned is one where g was evaluated within the tolerance.
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
    # the ends' values as g gave them; glo and ghi are Illinois-damped
    true_lo, true_hi = glo, ghi
    for _ in range(200):
        # glo and ghi differ in sign (damping zeroes at most one): ghi - glo != 0
        x = hi - ghi * (hi - lo) / (ghi - glo)
        # fall back to bisection when interpolation leaves the interval
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        gx = g(x)
        if abs(gx) <= tol:
            return x
        if math.copysign(1.0, gx) == math.copysign(1.0, glo):
            lo, glo, true_lo = x, gx, gx
            if side == -1:
                ghi *= 0.5  # Illinois damping against endpoint stagnation
            side = -1
        else:
            hi, ghi, true_hi = x, gx, gx
            if side == +1:
                glo *= 0.5
            side = +1
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            # every value stored at an end was past the tolerance: report
            # the end the damped values favour, with g's own value there
            best, gbest = (lo, true_lo) if abs(glo) <= abs(ghi) else (hi, true_hi)
            raise ConvergenceError(
                f"bracket collapsed at x={best!r} with |g|={abs(gbest):.3e} > {tol:.1e}"
            )
    raise ConvergenceError("root iteration did not converge in 200 steps")


def cumulants(
    density: Callable[[float], float],
    lo: float,
    hi: float,
    order: int,
    spec: QuadratureSpec | None = None,
    knots: Iterable[float] = (),
) -> tuple[float, ...]:
    """First `order` cumulants of the distribution with the given density.

    The mass and the raw moments are one integrate_many batch, sharing
    the density's calls; cumulants follow from the standard recursion.
    The density must integrate to 1 within 1e-6 or the call refuses
    (NormalizationError, raised after the mass's own error and before any
    moment's), since a mass error contaminates every cumulant. order is
    capped at 8: beyond that the moment integrals lose too many digits to
    cancellation for the recursion to be trustworthy.
    """
    if not 1 <= order <= MAX_CUMULANT_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_CUMULANT_ORDER}")
    knots = tuple(knots)
    powers = [Product(lambda x, n=n: x**n, density) for n in range(1, order + 1)]
    mass, *moments = integrate_many([(f, lo, hi, knots) for f in [density, *powers]], spec)
    if isinstance(mass, Exception):
        raise mass
    if abs(mass - 1.0) > 1e-6:
        raise NormalizationError(f"density mass {mass!r} differs from 1 by more than 1e-6")
    for moment in moments:
        if isinstance(moment, Exception):
            raise moment
    moments = [1.0, *moments]

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
