"""Normalized nondecreasing curves on a bounded interval.

A Curve maps [lo, hi] onto [0, 1] with value(lo) = 0 and value(hi) = 1.
The same object serves two roles: read as a cumulative distribution it
describes a lottery; read as a normalized utility it describes preference.
Every kind exposes value, density (derivative of value), and quantile
(generalized inverse), plus its interior kinks so quadrature can split
panels there and its tolerance -C'/C'' where that has a closed form.
value and density take a float or a 1-D array of points (a float in
gives a float out); quantile takes one probability.

Step is the one deliberately degenerate member: its density is a point
mass, so density() and any path that needs one raise StepFunctionError,
while value and quantile stay exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import betainc, betaincinv, betaln, ndtr, ndtri, xlog1py, xlogy

from .numerics import QuadratureSpec, cumulants, merge_knots


class CurveError(Exception):
    """Base class for curve failures."""


class CurveParameterError(CurveError, ValueError):
    """Constructor arguments do not define a valid curve."""


class DomainError(CurveError, ValueError):
    """Evaluation point outside [lo, hi], or probability outside [0, 1]."""


class StepFunctionError(CurveError):
    """Operation needs a density but the curve is a step."""


class SingularDensityError(CurveError):
    """Operation integrates a density that is unbounded at an endpoint."""


def _finite(number: float) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond float range
        return False


def _kernel(method):
    """Make an array kernel a value or density method: the whole input is
    checked against the domain, and a float in gives a Python float out."""

    @functools.wraps(method)
    def checked(self, x):
        xs = self._check_x(x)
        y = method(self, xs)
        return float(y) if xs.ndim == 0 else y

    return checked


@dataclass(frozen=True)
class Curve:
    lo: float
    hi: float

    kind: ClassVar[str] = ""
    # scenario-file parameter name -> field; a field defaulting to None
    # is optional, every other one is required
    params: ClassVar[dict[str, str]] = {}

    def __post_init__(self) -> None:
        if not (_finite(self.lo) and _finite(self.hi)):
            raise CurveParameterError("interval ends must be finite")
        if self.lo >= self.hi:
            raise CurveParameterError(f"need lo < hi, got [{self.lo!r}, {self.hi!r}]")
        for name in self.params.values():
            value = getattr(self, name)
            # a knot tuple is checked coordinate by coordinate
            numbers = [c for point in value for c in point] if isinstance(value, tuple) else [value]
            if value is not None and not all(map(_finite, numbers)):
                raise CurveParameterError(f"{name} must be finite, got {value!r}")

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def is_step(self) -> bool:
        return False

    @property
    def has_singular_density(self) -> bool:
        return False

    def kinks(self) -> tuple[float, ...]:
        """Interior points where value or density loses smoothness."""
        return ()

    def sample_hints(self) -> tuple[float, ...]:
        """Interior points quadrature should cut at, even though the curve
        is smooth there: where a concentrated density would otherwise slip
        between the opening samples. Unlike kinks these carry no
        nonsmoothness meaning."""
        return ()

    @functools.cached_property
    def cuts(self) -> tuple[float, ...]:
        """Where quadrature over this curve cuts its opening panels: the
        kinks and sample hints, merged once per curve."""
        return merge_knots(self.kinks(), self.sample_hints())

    def tolerance_at(self, x: float) -> float | None:
        """-C'(x)/C''(x) in closed form, or None where only finite
        differences give it. Read on a utility this is the risk tolerance
        -U'/U''; read on a lottery, the spread tolerance -f/f'. The caller
        checks x."""
        return None

    def _check_x(self, x: float | np.ndarray) -> np.ndarray:
        try:
            xs = np.asarray(x, dtype=float)
        except OverflowError:  # an int beyond float range is outside too
            xs = np.asarray(math.inf)
        # a NaN fails the comparisons, as min and max propagate it
        if xs.size and not self.lo <= np.minimum.reduce(xs, None) <= np.maximum.reduce(xs, None) <= self.hi:
            inside = (xs >= self.lo) & (xs <= self.hi)
            bad = x if xs.ndim == 0 else float(xs[~inside][0])
            raise DomainError(f"x={bad!r} outside [{self.lo!r}, {self.hi!r}]")
        return xs

    def _cache(self, **constants: float | np.ndarray) -> None:
        """Store per-curve constants the kernels read on every call."""
        for name, value in constants.items():
            object.__setattr__(self, name, value)

    @staticmethod
    def _check_p(p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability {p!r} outside [0, 1]")

    def value(self, x: float | np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def density(self, x: float | np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        raise NotImplementedError

    def density_moments(
        self, spec: QuadratureSpec | None = None
    ) -> tuple[float, float]:
        """Mean and variance of the distribution whose CDF is value().

        The step kind answers symbolically (threshold, 0): its density is a
        point mass, which quadrature cannot see.
        """
        if self.has_singular_density:
            raise SingularDensityError(
                f"{self.kind} density is unbounded at an endpoint; moments by "
                "quadrature are not supported"
            )
        k1, k2 = cumulants(self.density, self.lo, self.hi, 2, spec, self.cuts)
        return k1, k2


@dataclass(frozen=True)
class Uniform(Curve):
    """Straight line from (lo, 0) to (hi, 1): flat density 1/span."""

    kind: ClassVar[str] = "uniform"

    @_kernel
    def value(self, x):
        return (x - self.lo) / self.span

    @_kernel
    def density(self, x):
        return np.full_like(x, 1.0 / self.span)

    def quantile(self, p: float) -> float:
        self._check_p(p)
        return self.lo + p * self.span

    def tolerance_at(self, x: float) -> float:
        return math.inf


@dataclass(frozen=True)
class Linear(Uniform):
    """Same shape as Uniform; separate kind so risk-neutral preference is
    explicit in scenario files and in gamma-grid sweeps at zero."""

    kind: ClassVar[str] = "linear"


@dataclass(frozen=True)
class Triangular(Curve):
    """Piecewise-quadratic CDF with density peaking at mode.

    Omitting mode gives the symmetric triangle (peak at the midpoint)."""

    mode: float | None = None

    kind: ClassVar[str] = "triangular"
    params: ClassVar[dict[str, str]] = {"mode": "mode"}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode is None:
            object.__setattr__(self, "mode", 0.5 * (self.lo + self.hi))
        if not self.lo <= self.mode <= self.hi:
            raise CurveParameterError(
                f"mode {self.mode!r} outside [{self.lo!r}, {self.hi!r}]"
            )
        # a side of zero width is never selected; 1.0 keeps its unused
        # array branch free of 0/0
        self._cache(
            _left=(self.hi - self.lo) * (self.mode - self.lo) or 1.0,
            _right=(self.hi - self.lo) * (self.hi - self.mode) or 1.0,
        )

    def _on_left(self, x: np.ndarray) -> np.ndarray:
        return (x <= self.mode) & (self.mode > self.lo)

    def kinks(self) -> tuple[float, ...]:
        if self.lo < self.mode < self.hi:
            return (self.mode,)
        return ()

    @_kernel
    def value(self, x):
        return np.where(
            self._on_left(x),
            (x - self.lo) ** 2 / self._left,
            1.0 - (self.hi - x) ** 2 / self._right,
        )

    @_kernel
    def density(self, x):
        return np.where(
            self._on_left(x),
            2.0 * (x - self.lo) / self._left,
            2.0 * (self.hi - x) / self._right,
        )

    def quantile(self, p: float) -> float:
        self._check_p(p)
        lo, hi, m = self.lo, self.hi, self.mode
        pm = 0.0 if m == lo else (m - lo) / (hi - lo)
        if p <= pm:
            return lo + math.sqrt(p * (hi - lo) * (m - lo))
        return hi - math.sqrt((1.0 - p) * (hi - lo) * (hi - m))


@dataclass(frozen=True)
class ScaledBeta(Curve):
    """Beta(alpha, beta) rescaled from [0, 1] onto [lo, hi].

    Either shape below 1 makes the density blow up at the matching
    endpoint. value and quantile stay perfectly usable there (the CDF is
    continuous); density-side integrals are refused via
    has_singular_density.
    """

    alpha: float = 1.0
    beta: float = 1.0

    kind: ClassVar[str] = "scaled_beta"
    params: ClassVar[dict[str, str]] = {"alpha": "alpha", "beta": "beta"}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alpha <= 0 or self.beta <= 0:
            raise CurveParameterError("shape parameters must be positive")
        self._cache(_log_norm=float(betaln(self.alpha, self.beta)))

    @property
    def has_singular_density(self) -> bool:
        return self.alpha < 1.0 or self.beta < 1.0

    def _unit(self, x):
        return (x - self.lo) / self.span

    @_kernel
    def value(self, x):
        return betainc(self.alpha, self.beta, self._unit(x))

    @_kernel
    def density(self, x):
        # xlogy(0, 0) = 0, so a unit shape gives its finite end value, a
        # shape above 1 gives 0 there, and one below 1 gives inf
        y = self._unit(x)
        logpdf = xlogy(self.alpha - 1.0, y) + xlog1py(self.beta - 1.0, -y) - self._log_norm
        return np.exp(logpdf) / self.span

    def quantile(self, p: float) -> float:
        self._check_p(p)
        return self.lo + self.span * float(betaincinv(self.alpha, self.beta, p))


GAMMA_SPAN_CAP = 500.0  # largest |gamma| * span keeping the expm1 terms in double range


@dataclass(frozen=True)
class ExponentialNormalized(Curve):
    """Constant-curvature curve: value(x) = expm1(-g*(x-lo)) / expm1(-g*span).

    Positive gamma bends the curve up (concave); negative bends it down.
    gamma = 0 is rejected because the formula degenerates; use Linear for
    the flat member. |gamma| * span is capped at GAMMA_SPAN_CAP.
    """

    gamma: float = 1.0

    kind: ClassVar[str] = "exponential_normalized"
    params: ClassVar[dict[str, str]] = {"gamma": "gamma"}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gamma == 0.0:
            raise CurveParameterError("gamma must be nonzero; use the linear kind for gamma=0")
        if abs(self.gamma) * self.span > GAMMA_SPAN_CAP:
            raise CurveParameterError(
                f"|gamma|*span = {abs(self.gamma) * self.span!r} exceeds {GAMMA_SPAN_CAP:g}"
            )
        self._cache(_full=math.expm1(-self.gamma * self.span))

    @_kernel
    def value(self, x):
        return np.expm1(-self.gamma * (x - self.lo)) / self._full

    @_kernel
    def density(self, x):
        g = self.gamma
        return g * np.exp(-g * (x - self.lo)) / (-self._full)

    def quantile(self, p: float) -> float:
        self._check_p(p)
        if p == 0.0:
            return self.lo
        if p == 1.0:
            return self.hi
        return self.lo - math.log1p(p * self._full) / self.gamma

    def tolerance_at(self, x: float) -> float:
        return 1.0 / self.gamma

    def sample_hints(self) -> tuple[float, ...]:
        # at large |gamma|*span the density is a boundary layer of width
        # 1/|gamma|; a geometric ladder of cuts walks quadrature into it
        g = abs(self.gamma)
        if g * self.span <= 16.0:
            return ()
        anchor = self.lo if self.gamma > 0.0 else self.hi
        sign = 1.0 if self.gamma > 0.0 else -1.0
        ladder = []
        c = 0.5
        while c < g * self.span and c <= 32.0:
            ladder.append(anchor + sign * c / g)
            c *= 2.0
        return tuple(ladder)


@dataclass(frozen=True)
class TruncatedGaussian(Curve):
    """Gaussian(center, scale) conditioned on [lo, hi] and renormalized."""

    center: float = 0.0
    scale: float = 1.0

    kind: ClassVar[str] = "truncated_gaussian"
    params: ClassVar[dict[str, str]] = {"mu": "center", "sigma": "scale"}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scale <= 0:
            raise CurveParameterError("scale must be positive")
        # an interval above the center reads the upper tail, ndtr(-z): in a
        # far tail the lower one is 1 - tiny, and the difference of two
        # such numbers keeps only the digits the tiny part had left
        self._cache(_zscale=-self.scale if self.lo > self.center else self.scale)
        base = float(ndtr(self._z(self.lo)))
        mass = float(ndtr(self._z(self.hi)) - base)  # negative on the upper tail
        if abs(mass) < 1e-15:
            raise CurveParameterError(
                "interval carries no Gaussian mass at this center/scale"
            )
        self._cache(_base=base, _mass=mass)

    def _z(self, x):
        return (x - self.center) / self._zscale

    @_kernel
    def value(self, x):
        return (ndtr(self._z(x)) - self._base) / self._mass

    @_kernel
    def density(self, x):
        z = self._z(x)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return phi / (self._zscale * self._mass)

    def quantile(self, p: float) -> float:
        self._check_p(p)
        if p == 0.0:
            return self.lo
        if p == 1.0:
            return self.hi
        return self.center + self._zscale * float(ndtri(self._base + p * self._mass))

    def sample_hints(self) -> tuple[float, ...]:
        # a narrow bell can sit entirely between the opening samples
        if self.scale >= self.span / 8.0:
            return ()
        return tuple(
            x
            for k in (-2.0, -1.0, 0.0, 1.0, 2.0)
            for x in (self.center + k * self.scale,)
            if self.lo < x < self.hi
        )


@dataclass(frozen=True)
class LogWealth(Curve):
    """Normalized log(wealth + x): the classic decreasing-risk-aversion
    shape. Requires wealth + lo > 0."""

    wealth: float = 1.0

    kind: ClassVar[str] = "log_wealth"
    params: ClassVar[dict[str, str]] = {"w": "wealth"}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.wealth + self.lo <= 0:
            raise CurveParameterError(
                f"wealth + lo must be positive, got {self.wealth + self.lo!r}"
            )
        self._cache(_scale=math.log((self.wealth + self.hi) / (self.wealth + self.lo)))

    @_kernel
    def value(self, x):
        return np.log((self.wealth + x) / (self.wealth + self.lo)) / self._scale

    @_kernel
    def density(self, x):
        return 1.0 / ((self.wealth + x) * self._scale)

    def quantile(self, p: float) -> float:
        self._check_p(p)
        return (self.wealth + self.lo) * math.exp(p * self._scale) - self.wealth

    def tolerance_at(self, x: float) -> float:
        # the normalization constant cancels
        return self.wealth + x


@dataclass(frozen=True)
class Step(Curve):
    """Jump from 0 to 1 at threshold. As a lottery: the sure amount
    threshold. As a utility: all-or-nothing at threshold."""

    threshold: float = 0.0

    kind: ClassVar[str] = "step"
    params: ClassVar[dict[str, str]] = {"x0": "threshold"}

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.lo < self.threshold <= self.hi:
            raise CurveParameterError(
                f"threshold {self.threshold!r} must lie in ({self.lo!r}, {self.hi!r}]"
            )

    @property
    def is_step(self) -> bool:
        return True

    def kinks(self) -> tuple[float, ...]:
        if self.threshold < self.hi:
            return (self.threshold,)
        return ()

    @_kernel
    def value(self, x):
        return np.where(x >= self.threshold, 1.0, 0.0)

    def density(self, x):
        raise StepFunctionError("step curve has a point mass, not a density")

    def quantile(self, p: float) -> float:
        self._check_p(p)
        return self.lo if p == 0.0 else self.threshold

    def density_moments(
        self, spec: QuadratureSpec | None = None
    ) -> tuple[float, float]:
        # point mass: closed form, quadrature would need a delta function
        return self.threshold, 0.0


@dataclass(frozen=True)
class PiecewiseLinear(Curve):
    """Polyline CDF through the given (x, value) points.

    points must start at (lo, 0), end at (hi, 1), have strictly increasing
    x and nondecreasing value. Flat stretches are allowed; quantile then
    returns the left edge of the flat (smallest x reaching the level).
    """

    points: tuple[tuple[float, float], ...] = ()

    kind: ClassVar[str] = "piecewise_linear"
    params: ClassVar[dict[str, str]] = {"knots": "points"}

    def __post_init__(self) -> None:
        try:
            pts = tuple((float(x), float(y)) for x, y in self.points)
        except OverflowError:
            raise CurveParameterError(f"points must be finite, got {self.points!r}") from None
        object.__setattr__(self, "points", pts)
        super().__post_init__()
        if len(pts) < 2:
            raise CurveParameterError("need at least two points")
        if pts[0] != (self.lo, 0.0) or pts[-1] != (self.hi, 1.0):
            raise CurveParameterError(
                "points must run from (lo, 0.0) to (hi, 1.0) exactly"
            )
        for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
            if x1 <= x0:
                raise CurveParameterError("x coordinates must strictly increase")
            if y1 < y0:
                raise CurveParameterError("values must be nondecreasing")
        xs, ys = np.array([x for x, _ in pts]), np.array([y for _, y in pts])
        self._cache(_xs=xs, _ys=ys, _dx=np.diff(xs), _dy=np.diff(ys))

    def kinks(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points[1:-1])

    def tolerance_at(self, x: float) -> float:
        # straight between kinks; risk_tolerance refuses points near one
        return math.inf

    def _segment(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(self._xs, x, side="right") - 1, 0, len(self._dx) - 1)

    @_kernel
    def value(self, x):
        i = self._segment(x)
        return self._ys[i] + self._dy[i] * (x - self._xs[i]) / self._dx[i]

    @_kernel
    def density(self, x):
        i = self._segment(x)
        return self._dy[i] / self._dx[i]

    def quantile(self, p: float) -> float:
        self._check_p(p)
        for (x0, y0), (x1, y1) in zip(self.points[:-1], self.points[1:]):
            if y1 >= p:
                if y0 >= p:
                    return x0
                return x0 + (p - y0) * (x1 - x0) / (y1 - y0)


CURVE_KINDS: dict[str, type[Curve]] = {
    cls.kind: cls
    for cls in (
        Uniform,
        Linear,
        Triangular,
        ScaledBeta,
        ExponentialNormalized,
        TruncatedGaussian,
        LogWealth,
        Step,
        PiecewiseLinear,
    )
}
