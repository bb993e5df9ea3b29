import sys
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from aspeq import (
    ExponentialNormalized,
    Linear,
    LogWealth,
    PiecewiseLinear,
    ScaledBeta,
    Triangular,
    TruncatedGaussian,
    Uniform,
)

UNIT = (0.0, 1.0)


def smooth_lotteries(lo=0.0, hi=1.0):
    """Eight lotteries with bounded densities on one domain."""
    w = hi - lo
    return [
        Uniform(lo, hi),
        Triangular(lo, hi),
        Triangular(lo, hi, mode=lo + 0.25 * w),
        ScaledBeta(lo, hi, alpha=2.0, beta=8.0),
        ScaledBeta(lo, hi, alpha=4.0, beta=4.0),
        ScaledBeta(lo, hi, alpha=5.0, beta=2.0),
        ExponentialNormalized(lo, hi, gamma=3.0 / w),
        TruncatedGaussian(lo, hi, center=lo + 0.5 * w, scale=0.15 * w),
    ]


def smooth_utilities(lo=0.0, hi=1.0):
    """Eight utilities spanning risk-averse, neutral, and seeking."""
    w = hi - lo
    return [
        Linear(lo, hi),
        ExponentialNormalized(lo, hi, gamma=0.5 / w),
        ExponentialNormalized(lo, hi, gamma=3.0 / w),
        ExponentialNormalized(lo, hi, gamma=-2.0 / w),
        LogWealth(lo, hi, wealth=0.5 * w if lo == 0.0 else lo + 0.5 * w),
        TruncatedGaussian(lo, hi, center=lo + 0.4 * w, scale=0.3 * w),
        ScaledBeta(lo, hi, alpha=2.0, beta=2.0),
        PiecewiseLinear(lo, hi, points=((lo, 0.0), (lo + 0.3 * w, 0.55), (hi, 1.0))),
    ]


@pytest.fixture(scope="session")
def catalog():
    return smooth_lotteries(), smooth_utilities()


@pytest.fixture
def quadrature_batches(monkeypatch):
    """Every integrate_many call the test makes, as (module, job count)
    in call order: the module is the namespace the call went through,
    "duality" for pair integrals, "numerics" for integrate and cumulants.
    len() counts the batches; summing the counts gives the jobs."""
    import aspeq.numerics

    integrate_many = aspeq.numerics.integrate_many
    batches = []

    def through(module):
        def counting(jobs, *args, **kwargs):
            batches.append((module.__name__.rsplit(".", 1)[1], len(jobs)))
            return integrate_many(jobs, *args, **kwargs)

        return counting

    for name, module in list(sys.modules.items()):
        if name.startswith("aspeq.") and getattr(module, "integrate_many", None) is integrate_many:
            monkeypatch.setattr(module, "integrate_many", through(module))
    return batches


@pytest.fixture(autouse=True)
def oracle_precision():
    """Hold the mpmath oracles at 30 digits in every test, whatever another
    module collected in the same session sets the global precision to."""
    with mpmath.workdps(30):
        yield
