"""Independent high-precision oracles used to pin expected test values.

Everything here is built from mpmath primitives and first-principles
formulas, never from the package under test, so a bug in the package
cannot leak into its own expected values. Precision is 30 digits, far
beyond the float comparisons made in the tests.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30


def tri_cdf(x, lo, hi, mode):
    x, lo, hi, mode = map(mp.mpf, (x, lo, hi, mode))
    if x <= lo:
        return mp.mpf(0)
    if x >= hi:
        return mp.mpf(1)
    if x <= mode:
        return (x - lo) ** 2 / ((hi - lo) * (mode - lo))
    return 1 - (hi - x) ** 2 / ((hi - lo) * (hi - mode))


def tri_pdf(x, lo, hi, mode):
    x, lo, hi, mode = map(mp.mpf, (x, lo, hi, mode))
    if x < lo or x > hi:
        return mp.mpf(0)
    if x <= mode:
        return 2 * (x - lo) / ((hi - lo) * (mode - lo))
    return 2 * (hi - x) / ((hi - lo) * (hi - mode))


def beta_cdf(x, lo, hi, a, b):
    t = (mp.mpf(x) - lo) / (mp.mpf(hi) - lo)
    if t <= 0:
        return mp.mpf(0)
    if t >= 1:
        return mp.mpf(1)
    return mp.betainc(a, b, 0, t, regularized=True)


def beta_pdf(x, lo, hi, a, b):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    t = (mp.mpf(x) - lo) / (hi - lo)
    if t < 0 or t > 1:
        return mp.mpf(0)
    return t ** (a - 1) * (1 - t) ** (b - 1) / (mp.beta(a, b) * (hi - lo))


def exp_cdf(x, lo, hi, gamma):
    x, lo, hi, gamma = map(mp.mpf, (x, lo, hi, gamma))
    return (1 - mp.e ** (-gamma * (x - lo))) / (1 - mp.e ** (-gamma * (hi - lo)))


def exp_pdf(x, lo, hi, gamma):
    x, lo, hi, gamma = map(mp.mpf, (x, lo, hi, gamma))
    return gamma * mp.e ** (-gamma * (x - lo)) / (1 - mp.e ** (-gamma * (hi - lo)))


def linear_cdf(x, lo, hi):
    return (mp.mpf(x) - lo) / (mp.mpf(hi) - lo)


def gauss_cdf(x, lo, hi, center, scale):
    x, lo, hi, center, scale = map(mp.mpf, (x, lo, hi, center, scale))
    phi = lambda t: (1 + mp.erf((t - center) / (scale * mp.sqrt(2)))) / 2
    return (phi(x) - phi(lo)) / (phi(hi) - phi(lo))


def gauss_pdf(x, lo, hi, center, scale):
    x, lo, hi, center, scale = map(mp.mpf, (x, lo, hi, center, scale))
    mass = mp.ncdf((hi - center) / scale) - mp.ncdf((lo - center) / scale)
    return mp.npdf((x - center) / scale) / (scale * mass)


def logw_cdf(x, lo, hi, w):
    x, lo, hi, w = map(mp.mpf, (x, lo, hi, w))
    return (mp.log(w + x) - mp.log(w + lo)) / (mp.log(w + hi) - mp.log(w + lo))


def polyline_cdf(x, points):
    """Linear interpolation through the (x, value) knots."""
    x = mp.mpf(x)
    knots = [(mp.mpf(a), mp.mpf(b)) for a, b in points]
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return knots[-1][1]


def eu(pdf, U, lo, hi, splits=()):
    """∫ pdf(x) U(x) dx with optional interior split points."""
    pts = [mp.mpf(lo), *[mp.mpf(s) for s in splits], mp.mpf(hi)]
    return mp.quad(lambda x: pdf(x) * U(x), pts)


def edu(F, updf, lo, hi, splits=()):
    """∫ updf(x) F(x) dx, the disutility-side integral."""
    pts = [mp.mpf(lo), *[mp.mpf(s) for s in splits], mp.mpf(hi)]
    return mp.quad(lambda x: updf(x) * F(x), pts)


def invert(G, p, lo, hi):
    """Monotone inversion of G on [lo, hi] by bisection in mp arithmetic."""
    p = mp.mpf(p)
    a, b = mp.mpf(lo), mp.mpf(hi)
    for _ in range(200):
        m = (a + b) / 2
        if G(m) < p:
            a = m
        else:
            b = m
    return (a + b) / 2


def density_mean_var(pdf, lo, hi, splits=()):
    pts = [mp.mpf(lo), *[mp.mpf(s) for s in splits], mp.mpf(hi)]
    m1 = mp.quad(lambda x: x * pdf(x), pts)
    m2 = mp.quad(lambda x: (x - m1) ** 2 * pdf(x), pts)
    return m1, m2


def exp_closed_ae(updf, lo, hi, lam, splits=()):
    """Closed-form aspiration point for an exponential-rate lottery."""
    pts = [mp.mpf(lo), *[mp.mpf(s) for s in splits], mp.mpf(hi)]
    lam = mp.mpf(lam)
    expectation = mp.quad(lambda x: updf(x) * mp.e ** (-lam * (x - lo)), pts)
    return mp.mpf(lo) - mp.log(expectation) / lam
