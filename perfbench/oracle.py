"""High-precision reference values for the benchmark's output checks.

Built only from mpmath and the curve formulas as the scenario format
defines them, never from aspeq, so a fault in the program cannot leak
into the values its outputs are checked against. Curves are described by
their scenario JSON objects, so the same description feeds the program
and the oracle.
"""

from __future__ import annotations

import json

import mpmath as mp

mp.mp.dps = 20

# tanh-sinh error estimates above this (relative to the integral, or
# absolute for tiny integrals) mean the oracle itself is unsure; the checks
# refuse to compare against it. Both sit far below the 1e-12 absolute
# tolerance the checks work at.
ORACLE_REL_ERROR = mp.mpf("1e-15")
ORACLE_ABS_ERROR = mp.mpf("1e-18")


class OracleError(Exception):
    """The reference quadrature did not converge."""


class MpCurve:
    """One normalized curve on [lo, hi]: cdf, pdf and the interior points
    where the reference quadrature should split."""

    def __init__(self, obj: dict, lo: float, hi: float) -> None:
        self.kind = obj["kind"]
        self.lo, self.hi = mp.mpf(lo), mp.mpf(hi)
        span = self.hi - self.lo
        self.span = span
        k = self.kind
        points: list = []
        if k in ("uniform", "linear"):
            pass
        elif k == "triangular":
            m = obj.get("mode")
            self.mode = mp.mpf(m) if m is not None else (self.lo + self.hi) / 2
            points.append(self.mode)
        elif k == "scaled_beta":
            self.a, self.b = mp.mpf(obj["alpha"]), mp.mpf(obj["beta"])
            self.lnB = mp.log(mp.beta(self.a, self.b))
        elif k == "exponential_normalized":
            self.g = mp.mpf(obj["gamma"])
            self.den = mp.expm1(-self.g * span)
            c = mp.mpf("0.5")
            anchor = self.lo if self.g > 0 else self.hi
            step = 1 if self.g > 0 else -1
            while c < abs(self.g) * span:
                points.append(anchor + step * c / abs(self.g))
                c *= 2
        elif k == "truncated_gaussian":
            self.mu, self.sigma = mp.mpf(obj["mu"]), mp.mpf(obj["sigma"])
            self.base = mp.ncdf(self.lo, self.mu, self.sigma)
            self.mass = mp.ncdf(self.hi, self.mu, self.sigma) - self.base
            points.extend(self.mu + j * self.sigma for j in (-8, -4, -2, -1, 0, 1, 2, 4, 8))
        elif k == "log_wealth":
            self.w = mp.mpf(obj["w"])
            self.scale = mp.log((self.w + self.hi) / (self.w + self.lo))
        elif k == "piecewise_linear":
            self.knots = [(mp.mpf(x), mp.mpf(y)) for x, y in obj["knots"]]
            points.extend(x for x, _ in self.knots[1:-1])
        else:
            raise OracleError(f"no reference formulas for kind {k!r}")
        self.points = [p for p in points if self.lo < p < self.hi]
        # where value or density loses smoothness, as the curve declares it
        self.kinks: list[float] = []
        if k == "triangular" and self.lo < self.mode < self.hi:
            self.kinks = [float(self.mode)]
        elif k == "piecewise_linear":
            self.kinks = [float(x) for x, _ in obj["knots"][1:-1]]

    def cdf(self, x):
        x = mp.mpf(x)
        if x <= self.lo:
            return mp.mpf(0)
        if x >= self.hi:
            return mp.mpf(1)
        k = self.kind
        if k in ("uniform", "linear"):
            return (x - self.lo) / self.span
        if k == "triangular":
            lo, hi, m = self.lo, self.hi, self.mode
            if x <= m and m > lo:
                return (x - lo) ** 2 / ((hi - lo) * (m - lo))
            return 1 - (hi - x) ** 2 / ((hi - lo) * (hi - m))
        if k == "scaled_beta":
            return mp.betainc(self.a, self.b, 0, (x - self.lo) / self.span, regularized=True)
        if k == "exponential_normalized":
            return mp.expm1(-self.g * (x - self.lo)) / self.den
        if k == "truncated_gaussian":
            return (mp.ncdf(x, self.mu, self.sigma) - self.base) / self.mass
        if k == "log_wealth":
            return mp.log((self.w + x) / (self.w + self.lo)) / self.scale
        for (x0, y0), (x1, y1) in zip(self.knots[:-1], self.knots[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return mp.mpf(1)

    def pdf(self, x):
        x = mp.mpf(x)
        if x < self.lo or x > self.hi:
            return mp.mpf(0)
        k = self.kind
        if k in ("uniform", "linear"):
            return 1 / self.span
        if k == "triangular":
            lo, hi, m = self.lo, self.hi, self.mode
            if x <= m and m > lo:
                return 2 * (x - lo) / ((hi - lo) * (m - lo))
            return 2 * (hi - x) / ((hi - lo) * (hi - m))
        if k == "scaled_beta":
            t = (x - self.lo) / self.span
            if t <= 0 or t >= 1:
                return mp.mpf(0)
            return mp.exp((self.a - 1) * mp.log(t) + (self.b - 1) * mp.log1p(-t) - self.lnB) / self.span
        if k == "exponential_normalized":
            return self.g * mp.exp(-self.g * (x - self.lo)) / (-self.den)
        if k == "truncated_gaussian":
            return mp.npdf(x, self.mu, self.sigma) / self.mass
        if k == "log_wealth":
            return 1 / ((self.w + x) * self.scale)
        for (x0, y0), (x1, y1) in zip(self.knots[:-1], self.knots[1:]):
            if x <= x1:
                return (y1 - y0) / (x1 - x0)
        return mp.mpf(0)

    def quantile(self, p: float) -> float:
        """Smallest x with cdf(x) >= p, by bisection (used to place
        generated targets, not to check outputs)."""
        p = mp.mpf(p)
        a, b = self.lo, self.hi
        for _ in range(80):
            m = (a + b) / 2
            if self.cdf(m) < p:
                a = m
            else:
                b = m
        return float((a + b) / 2)


def exponential_or_linear(lo: float, hi: float, gamma: float) -> dict:
    """Scenario object of the constant-curvature utility at gamma."""
    if gamma == 0.0:
        return {"kind": "linear"}
    return {"kind": "exponential_normalized", "gamma": gamma}


class Oracle:
    """Reference integrals on one domain, memoized per curve pair."""

    def __init__(self, lo: float, hi: float) -> None:
        self.lo, self.hi = lo, hi
        self._curves: dict[str, MpCurve] = {}
        self._memo: dict[tuple, float] = {}

    def curve(self, obj: dict) -> MpCurve:
        key = _key(obj)
        c = self._curves.get(key)
        if c is None:
            c = self._curves[key] = MpCurve(obj, self.lo, self.hi)
        return c

    def _quad(self, f, *curves: MpCurve):
        pts = sorted({p for c in curves for p in c.points})
        value, err = mp.quad(f, [curves[0].lo, *pts, curves[0].hi], error=True)
        if err > max(ORACLE_REL_ERROR * abs(value), ORACLE_ABS_ERROR):
            raise OracleError(f"reference quadrature unsure: value {value}, error {err}")
        return value

    def export(self) -> dict:
        """Memoized reference values, keyed by JSON text, for a cache file."""
        return {json.dumps([self.lo, self.hi, *k]): v for k, v in self._memo.items()}

    def absorb(self, entries: dict) -> None:
        """Take back the values export() produced for this domain."""
        for text, v in entries.items():
            lo, hi, *key = json.loads(text)
            if (lo, hi) == (self.lo, self.hi):
                self._memo[tuple(key)] = tuple(v) if isinstance(v, list) else v

    def _memoized(self, tag: str, objs: tuple, compute) -> float:
        key = (tag,) + tuple(_key(o) for o in objs)
        v = self._memo.get(key)
        if v is None:
            v = self._memo[key] = compute()
        return v

    def eu(self, lottery: dict, utility: dict) -> float:
        """Integral of the lottery density times the utility value."""
        F, U = self.curve(lottery), self.curve(utility)
        return self._memoized(
            "eu", (lottery, utility), lambda: float(self._quad(lambda x: F.pdf(x) * U.cdf(x), F, U))
        )

    def edu(self, lottery: dict, utility: dict) -> float:
        """Integral of the utility density times the lottery value, by
        integration by parts on the exact curves: 1 - EU. (The program
        integrates EDU on its own, so its EDU is still checked against a
        value it did not compute.) This avoids evaluating the lottery CDF
        under the integral, which costs a hypergeometric series per point
        for beta lotteries."""
        return 1.0 - self.eu(lottery, utility)

    def mean_var(self, curve: dict) -> tuple[float, float]:
        """Mean and variance of the distribution whose CDF is the curve."""
        C = self.curve(curve)

        def compute():
            m = self._quad(lambda x: x * C.pdf(x), C)
            v = self._quad(lambda x: (x - m) ** 2 * C.pdf(x), C)
            return (float(m), float(v))

        return self._memoized("mv", (curve,), compute)

    def exp_closed_ae(self, lottery: dict, utility: dict) -> float:
        """lo - ln E_u[exp(-lam (x - lo))] / lam for an exponential lottery."""
        F, U = self.curve(lottery), self.curve(utility)
        lam = F.g

        def compute():
            e = self._quad(lambda x: U.pdf(x) * mp.exp(-lam * (x - F.lo)), F, U)
            return float(F.lo - mp.log(e) / lam)

        return self._memoized("cf", (lottery, utility), compute)

    def cdf(self, curve: dict, x: float) -> float:
        return float(self.curve(curve).cdf(x))

    def cdf_range(self, curve: dict, x: float, r: float) -> tuple[float, float]:
        """cdf at x - r and x + r, clamped to the domain: where the value
        of a curve at a point known only to within r can lie."""
        C = self.curve(curve)
        a = max(self.lo, x - r)
        b = min(self.hi, x + r)
        return float(C.cdf(a)), float(C.cdf(b))


def _key(obj: dict) -> str:
    return json.dumps({k: v for k, v in obj.items() if k not in ("name", "role_hint")}, sort_keys=True)
