"""Normalized nondecreasing curves on a bounded interval.

A Curve maps [lo, hi] onto [0, 1] with value(lo) = 0 and value(hi) = 1.
The same object serves two roles: read as a cumulative distribution it
describes a lottery; read as a normalized utility it describes preference.
Every kind exposes value, density (derivative of value), and quantile
(generalized inverse), plus its interior kinks so quadrature can split
panels there.

Step is the one deliberately degenerate member: its density is a point
mass, so density() and any path that needs one raise StepFunctionError,
while value and quantile stay exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import ClassVar

from scipy.special import betainc, betaincinv, betaln, ndtr, ndtri

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


@dataclass(frozen=True)
class Curve:
    lo: float
    hi: float
    role_hint: str | None = field(default=None, kw_only=True)

    kind: ClassVar[str] = ""
    # scenario-file parameter name -> field; a field defaulting to None
    # is optional, every other one is required
    params: ClassVar[dict[str, str]] = {}

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise CurveParameterError("interval ends must be finite")
        if self.lo >= self.hi:
            raise CurveParameterError(f"need lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if self.role_hint not in (None, "lottery", "utility"):
            raise CurveParameterError(
                f"role_hint must be 'lottery', 'utility', or omitted, got {self.role_hint!r}"
            )
        for name in self.params.values():
            value = getattr(self, name)
            # a knot tuple is checked coordinate by coordinate
            numbers = [c for point in value for c in point] if isinstance(value, tuple) else [value]
            if value is not None and not all(map(math.isfinite, numbers)):
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

    def _check_x(self, x: float) -> None:
        if not self.lo <= x <= self.hi:
            raise DomainError(f"x={x!r} outside [{self.lo!r}, {self.hi!r}]")

    @staticmethod
    def _check_p(p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability {p!r} outside [0, 1]")

    def value(self, x: float) -> float:
        raise NotImplementedError

    def density(self, x: float) -> float:
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
        knots = merge_knots(self.kinks(), self.sample_hints())
        k1, k2 = cumulants(self.density, self.lo, self.hi, 2, spec, knots)
        return k1, k2


@dataclass(frozen=True)
class Uniform(Curve):
    """Straight line from (lo, 0) to (hi, 1): flat density 1/span."""

    kind: ClassVar[str] = "uniform"

    def value(self, x: float) -> float:
        self._check_x(x)
        return (x - self.lo) / self.span

    def density(self, x: float) -> float:
        self._check_x(x)
        return 1.0 / self.span

    def quantile(self, p: float) -> float:
        self._check_p(p)
        return self.lo + p * self.span


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

    def kinks(self) -> tuple[float, ...]:
        if self.lo < self.mode < self.hi:
            return (self.mode,)
        return ()

    def value(self, x: float) -> float:
        self._check_x(x)
        lo, hi, m = self.lo, self.hi, self.mode
        if x <= m and m > lo:
            return (x - lo) ** 2 / ((hi - lo) * (m - lo))
        return 1.0 - (hi - x) ** 2 / ((hi - lo) * (hi - m))

    def density(self, x: float) -> float:
        self._check_x(x)
        lo, hi, m = self.lo, self.hi, self.mode
        if x <= m and m > lo:
            return 2.0 * (x - lo) / ((hi - lo) * (m - lo))
        return 2.0 * (hi - x) / ((hi - lo) * (hi - m))

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

    @property
    def has_singular_density(self) -> bool:
        return self.alpha < 1.0 or self.beta < 1.0

    def _unit(self, x: float) -> float:
        return (x - self.lo) / self.span

    def value(self, x: float) -> float:
        self._check_x(x)
        return float(betainc(self.alpha, self.beta, self._unit(x)))

    def density(self, x: float) -> float:
        self._check_x(x)
        y = self._unit(x)
        a, b = self.alpha, self.beta
        if y <= 0.0:
            if a > 1.0:
                return 0.0
            if a == 1.0:
                return b / self.span
            return math.inf
        if y >= 1.0:
            if b > 1.0:
                return 0.0
            if b == 1.0:
                return a / self.span
            return math.inf
        logpdf = (a - 1.0) * math.log(y) + (b - 1.0) * math.log1p(-y) - betaln(a, b)
        return math.exp(logpdf) / self.span

    def quantile(self, p: float) -> float:
        self._check_p(p)
        return self.lo + self.span * float(betaincinv(self.alpha, self.beta, p))


@dataclass(frozen=True)
class ExponentialNormalized(Curve):
    """Constant-curvature curve: value(x) = expm1(-g*(x-lo)) / expm1(-g*span).

    Positive gamma bends the curve up (concave); negative bends it down.
    gamma = 0 is rejected because the formula degenerates; use Linear for
    the flat member. |gamma| * span is capped at 500 so the expm1 terms
    stay inside double range.
    """

    gamma: float = 1.0

    kind: ClassVar[str] = "exponential_normalized"
    params: ClassVar[dict[str, str]] = {"gamma": "gamma"}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gamma == 0.0:
            raise CurveParameterError("gamma must be nonzero; use the linear kind for gamma=0")
        if abs(self.gamma) * self.span > 500.0:
            raise CurveParameterError(
                f"|gamma|*span = {abs(self.gamma) * self.span!r} exceeds 500"
            )

    def value(self, x: float) -> float:
        self._check_x(x)
        g = self.gamma
        return math.expm1(-g * (x - self.lo)) / math.expm1(-g * self.span)

    def density(self, x: float) -> float:
        self._check_x(x)
        g = self.gamma
        return g * math.exp(-g * (x - self.lo)) / (-math.expm1(-g * self.span))

    def quantile(self, p: float) -> float:
        self._check_p(p)
        if p == 0.0:
            return self.lo
        if p == 1.0:
            return self.hi
        g = self.gamma
        return self.lo - math.log1p(p * math.expm1(-g * self.span)) / g

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
        if self._mass() < 1e-15:
            raise CurveParameterError(
                "interval carries no Gaussian mass at this center/scale"
            )

    def _z(self, x: float) -> float:
        return (x - self.center) / self.scale

    def _mass(self) -> float:
        return float(ndtr(self._z(self.hi)) - ndtr(self._z(self.lo)))

    def value(self, x: float) -> float:
        self._check_x(x)
        return float(ndtr(self._z(x)) - ndtr(self._z(self.lo))) / self._mass()

    def density(self, x: float) -> float:
        self._check_x(x)
        z = self._z(x)
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return phi / (self.scale * self._mass())

    def quantile(self, p: float) -> float:
        self._check_p(p)
        if p == 0.0:
            return self.lo
        if p == 1.0:
            return self.hi
        base = float(ndtr(self._z(self.lo)))
        return self.center + self.scale * float(ndtri(base + p * self._mass()))

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

    def _scale(self) -> float:
        return math.log((self.wealth + self.hi) / (self.wealth + self.lo))

    def value(self, x: float) -> float:
        self._check_x(x)
        return math.log((self.wealth + x) / (self.wealth + self.lo)) / self._scale()

    def density(self, x: float) -> float:
        self._check_x(x)
        return 1.0 / ((self.wealth + x) * self._scale())

    def quantile(self, p: float) -> float:
        self._check_p(p)
        return (self.wealth + self.lo) * math.exp(p * self._scale()) - self.wealth


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

    def value(self, x: float) -> float:
        self._check_x(x)
        return 1.0 if x >= self.threshold else 0.0

    def density(self, x: float) -> float:
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
        pts = tuple((float(x), float(y)) for x, y in self.points)
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

    def kinks(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.points[1:-1])

    def _segment(self, x: float) -> int:
        xs = [p[0] for p in self.points]
        i = bisect_right(xs, x) - 1
        return min(max(i, 0), len(self.points) - 2)

    def value(self, x: float) -> float:
        self._check_x(x)
        i = self._segment(x)
        (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def density(self, x: float) -> float:
        self._check_x(x)
        i = self._segment(x)
        (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
        return (y1 - y0) / (x1 - x0)

    def quantile(self, p: float) -> float:
        self._check_p(p)
        for (x0, y0), (x1, y1) in zip(self.points[:-1], self.points[1:]):
            if y1 >= p:
                if y0 >= p:
                    return x0
                return x0 + (p - y0) * (x1 - x0) / (y1 - y0)
        return self.hi


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
