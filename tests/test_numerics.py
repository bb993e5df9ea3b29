"""Quadrature, root finding, difference stencils, cumulants."""

import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import aspeq.numerics as numerics
from aspeq import DomainError, ExponentialNormalized, LogWealth, ScaledBeta, Triangular
from aspeq.duality import _pair_job, evaluate_pairs
from aspeq.numerics import (
    BracketError,
    ConvergenceError,
    NormalizationError,
    Product,
    QuadratureError,
    QuadratureSpec,
    RootBracket,
    central_difference,
    cumulants,
    find_root,
    integrate,
    integrate_many,
    merge_knots,
)


class TestIntegrate:
    def test_polynomial_degree_five_is_exact(self):
        # one 15-node Kronrod panel is exact through degree 22
        assert integrate(lambda x: x**5, 0.0, 1.0) == pytest.approx(1 / 6, abs=1e-15)

    def test_sin_matches_closed_form(self):
        assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-11)

    def test_empty_interval(self):
        assert integrate(math.exp, 3.0, 3.0) == 0.0

    def test_reversed_limits_raise(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    def test_non_finite_limits_raise(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, math.inf)

    def test_kink_with_knot(self):
        assert integrate(abs, -1.0, 1.0, knots=(0.0,)) == pytest.approx(1.0, abs=1e-12)

    def test_knots_outside_interval_ignored(self):
        v = integrate(lambda x: x * x, 0.0, 1.0, knots=(-5.0, 0.5, 7.0))
        assert v == pytest.approx(1 / 3, abs=1e-12)

    def test_duplicate_knots_collapse(self):
        v = integrate(math.cos, 0.0, 1.0, knots=(0.5, 0.5, 0.5))
        assert v == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_steep_endpoint_converges(self):
        # integrable but infinitely steep at x=1; global refinement must
        # not starve this corner of tolerance
        eps = 1e-4
        v = integrate(lambda x: (1.0 - x) ** eps, 0.0, 1.0)
        assert v == pytest.approx(1.0 / (1.0 + eps), rel=1e-7)

    def test_oscillatory(self):
        v = integrate(lambda x: math.sin(50.0 * x), 0.0, 1.0)
        assert v == pytest.approx((1.0 - math.cos(50.0)) / 50.0, abs=1e-10)

    def test_singularity_exhausts_depth(self):
        with pytest.raises(QuadratureError, match="depth exhausted"):
            integrate(lambda x: 1.0 / max(x, 1e-300), 0.0, 1.0)

    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(lambda x: math.nan, 0.0, 1.0)

    def test_loose_tolerance_is_looser(self):
        spec = QuadratureSpec(relative_tolerance=1e-3)
        err = abs(integrate(math.sin, 0.0, math.pi, spec) - 2.0)
        assert err < 2e-3

    def test_deterministic_rerun(self):
        f = lambda x: math.exp(-3.0 * x) * math.sin(7.0 * x)
        assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)

    def test_matches_mpmath_on_awkward_integrand(self):
        f = lambda x: math.sqrt(abs(x - 0.3)) * math.exp(x)
        want = float(mp.quad(lambda x: mp.sqrt(abs(x - mp.mpf("0.3"))) * mp.e**x,
                             [0, mp.mpf("0.3"), 1]))
        assert integrate(f, 0.0, 1.0, knots=(0.3,)) == pytest.approx(want, rel=1e-9)


class TestQuadratureSpec:
    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(absolute_tolerance=-1e-9)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivision_depth=0)


class TestFindRoot:
    def test_linear(self):
        r = find_root(lambda x: 2.0 * x - 1.0, RootBracket(0.0, 1.0))
        assert r == pytest.approx(0.5, abs=1e-10)

    def test_transcendental_vs_mpmath(self):
        r = find_root(lambda x: math.cos(x) - x, RootBracket(0.0, 1.0))
        want = float(mp.findroot(lambda x: mp.cos(x) - x, mp.mpf("0.7")))
        assert r == pytest.approx(want, abs=1e-9)

    def test_value_tolerance_honored(self):
        g = lambda x: (x - 0.3) ** 3
        r = find_root(g, RootBracket(0.0, 1.0, value_tolerance=1e-14))
        assert abs(g(r)) <= 1e-14

    def test_root_at_endpoint(self):
        assert find_root(lambda x: x, RootBracket(0.0, 1.0)) == pytest.approx(0.0, abs=1e-10)

    def test_root_at_upper_endpoint(self):
        # g(lo) is past the tolerance, g(hi) within it: hi comes back as is
        assert find_root(lambda x: x - 1.0, RootBracket(0.0, 1.0)) == 1.0

    def test_non_finite_end_rejected(self):
        with pytest.raises(ValueError, match="bracket endpoints must be finite"):
            RootBracket(0.0, math.inf)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, RootBracket(-1.0, 1.0))

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            RootBracket(1.0, 0.0)
        with pytest.raises(ValueError):
            RootBracket(0.0, 1.0, value_tolerance=0.0)

    def test_bisects_where_interpolation_leaves_the_bracket(self):
        # g(hi) dwarfs g(lo), so the secant lands on lo itself
        g = lambda x: (x - 0.3) * (1e30 if x > 0.3 else 1.0)
        r = find_root(g, RootBracket(0.0, 1.0))
        assert abs(g(r)) <= 1e-10

    def test_collapsed_bracket_raises(self):
        # a jump, not a root: the bracket shrinks onto it, |g| stays 1
        with pytest.raises(ConvergenceError, match="bracket collapsed at x=0.5"):
            find_root(lambda x: -1.0 if x < 0.5 else 1.0, RootBracket(0.0, 1.0))

    def test_collapsed_bracket_reports_the_true_value(self):
        # the Illinois-damped end value would read 4.883e-04
        with pytest.raises(ConvergenceError, match=r"\|g\|=1\.000e\+00 > 1\.0e-10"):
            find_root(lambda x: -1.0 if x < 0.5 else 1.0, RootBracket(0.0, 1.0))

    def test_collapsed_bracket_never_returns_past_the_tolerance(self):
        # a two-sided power function whose damped end value passes the
        # tolerance while the true one, 3.73e-10, does not
        r, a, b = 0.7880560252859788, 54.98226678791262, 0.05366039421937378
        p, q = 0.5267647751798731, 0.5270558944308467
        g = lambda x: -a * (r - x) ** p if x < r else b * (x - r) ** q
        with pytest.raises(ConvergenceError, match=r"bracket collapsed .* \|g\|=3\.73\de-10"):
            find_root(g, RootBracket(0.0, 1.0))

    def test_step_limit_raises(self):
        # each secant step is nan, so each step bisects; halving 1e300
        # 200 times leaves the bracket far from collapsed
        g = lambda x: -1.0 if x < 0.5 else math.inf
        with pytest.raises(ConvergenceError, match="did not converge in 200 steps"):
            find_root(g, RootBracket(0.0, 1e300))

    def test_steep_flat_mix(self):
        # flat shelf then steep wall; Illinois damping has to cut through
        g = lambda x: math.tanh(50.0 * (x - 0.8)) + 0.5
        r = find_root(g, RootBracket(0.0, 1.0))
        assert abs(g(r)) <= 1e-10


class TestDifferences:
    def test_first_derivative_interior(self):
        d = central_difference(math.exp, 1.0)
        assert d == pytest.approx(math.e, rel=1e-7)

    def test_first_derivative_near_boundary(self):
        # one-sided stencil engages; still consistent
        d = central_difference(lambda x: x**3, 0.0, bounds=(0.0, 1.0))
        assert d == pytest.approx(0.0, abs=1e-6)

    def test_first_derivative_near_upper_bound(self):
        # the backward stencil samples only below x
        seen = []
        d = central_difference(lambda x: seen.append(x) or x**3, 1.0, bounds=(0.0, 1.0))
        assert d == pytest.approx(3.0, rel=1e-9)
        assert max(seen) == 1.0

    def test_point_outside_bounds_refused(self):
        with pytest.raises(ValueError, match=r"x=1\.5 outside bounds \[0\.0, 1\.0\]"):
            central_difference(math.exp, 1.5, bounds=(0.0, 1.0))


class TestCumulants:
    def test_uniform_density(self):
        # kappa_1 = 1/2, kappa_2 = 1/12, kappa_3 = 0, kappa_4 = -1/120
        k = cumulants(lambda x: 1.0, 0.0, 1.0, 4)
        assert k[0] == pytest.approx(0.5, abs=1e-10)
        assert k[1] == pytest.approx(1 / 12, abs=1e-10)
        assert k[2] == pytest.approx(0.0, abs=1e-10)
        assert k[3] == pytest.approx(-1 / 120, abs=1e-9)

    def test_beta_density_mean_and_variance(self):
        a, b = 2.0, 3.0
        pdf = lambda x: 12.0 * x * (1.0 - x) ** 2
        k = cumulants(pdf, 0.0, 1.0, 2)
        assert k[0] == pytest.approx(a / (a + b), abs=1e-10)
        assert k[1] == pytest.approx(a * b / ((a + b) ** 2 * (a + b + 1)), abs=1e-10)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            cumulants(lambda x: 1.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            cumulants(lambda x: 1.0, 0.0, 1.0, 9)

    def test_unnormalized_density_rejected(self):
        with pytest.raises(NormalizationError):
            cumulants(lambda x: 2.0, 0.0, 1.0, 2)

    def test_higher_cumulants_match_mpmath(self):
        pdf = lambda x: 12.0 * x * (1.0 - x) ** 2
        k = cumulants(pdf, 0.0, 1.0, 6)
        mpdf = lambda x: 12 * x * (1 - x) ** 2
        m1 = mp.quad(lambda x: x * mpdf(x), [0, 1])
        central = [mp.quad(lambda x: (x - m1) ** n * mpdf(x), [0, 1]) for n in range(2, 7)]
        mu2, mu3, mu4, mu5, mu6 = central
        want = [
            m1,
            mu2,
            mu3,
            mu4 - 3 * mu2**2,
            mu5 - 10 * mu3 * mu2,
            mu6 - 15 * mu4 * mu2 - 10 * mu3**2 + 30 * mu2**3,
        ]
        for got, ref in zip(k, want):
            assert got == pytest.approx(float(ref), abs=1e-8)


def _cumulants_by_loop(density, lo, hi, order, spec=None, knots=()):
    """cumulants as one integrate call per moment."""
    mass = integrate(density, lo, hi, spec, knots)
    if abs(mass - 1.0) > 1e-6:
        raise NormalizationError(f"density mass {mass!r} differs from 1 by more than 1e-6")
    moments = [1.0]
    for n in range(1, order + 1):
        moments.append(integrate(lambda x, n=n: x**n * density(x), lo, hi, spec, knots))
    kappa = []
    for n in range(1, order + 1):
        acc = moments[n]
        for j in range(1, n):
            acc -= math.comb(n - 1, j - 1) * kappa[j - 1] * moments[n - j]
        kappa.append(acc)
    return tuple(kappa)


def _raised(fn, *args):
    try:
        return [v.hex() for v in fn(*args)]
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


class TestCumulantsBatch:
    """The mass and the moments are one batch, each with the bits, and
    the first error, of one integrate call per moment."""

    @pytest.mark.parametrize("spec", [None, QuadratureSpec(relative_tolerance=1e-3)])
    def test_bits_of_the_loop(self, catalog, spec):
        for curve in catalog[0] + catalog[1]:
            args = (curve.density, curve.lo, curve.hi, 8, spec, curve.cuts)
            assert _raised(cumulants, *args) == _raised(_cumulants_by_loop, *args), curve

    def test_one_batch(self, quadrature_batches):
        curve = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        curve.density_moments()
        cumulants(curve.density, 0.0, 1.0, 6)
        assert quadrature_batches == [("numerics", 3), ("numerics", 7)]

    @pytest.mark.parametrize(
        "density,lo,hi,error",
        [
            # the mass fails first, though every moment fails too
            (lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, QuadratureError),
            # x**4 overflows: the fourth moment is the first to fail
            (lambda x: np.full_like(x, 1e-100), 1e100, 2e100, QuadratureError),
            # an unnormalized density is refused before that moment fails
            (lambda x: np.full_like(x, 2e-100), 1e100, 2e100, NormalizationError),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_first_error_of_the_loop(self, density, lo, hi, error):
        want = _raised(_cumulants_by_loop, density, lo, hi, 6)
        assert want[0] is error
        assert _raised(cumulants, density, lo, hi, 6) == want


def test_merge_knots():
    assert merge_knots((0.5,), (0.25, 0.5), ()) == (0.25, 0.5)
    assert merge_knots() == ()


class TestBatchedIntegrand:
    def test_array_integrand_gets_one_call_per_round(self):
        shapes = []

        def f(xs):
            shapes.append(np.shape(xs))
            return np.exp(-3.0 * xs) * np.sin(7.0 * xs)

        v = integrate(f, 0.0, 2.0, knots=(0.5, 1.0))
        want = float(mp.quad(lambda x: mp.exp(-3 * x) * mp.sin(7 * x), [0, 2]))
        assert v == pytest.approx(want, rel=1e-9)
        # the opening round samples the three knot pieces together
        assert shapes[0] == (45,)
        assert all(len(s) == 1 and s[0] % 30 == 0 for s in shapes[1:])

    def test_scalar_and_array_forms_agree(self):
        scalar = integrate(lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 4.0)
        array = integrate(lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 4.0)
        assert scalar == pytest.approx(array, rel=1e-12)

    def test_non_finite_in_a_batch_names_its_x(self):
        with pytest.raises(QuadratureError, match=r"non-finite value at x=0\.5"):
            integrate(lambda xs: np.where(xs == 0.5, np.nan, xs), 0.0, 1.0)

    def test_sub_ulp_tolerance_stops_at_roundoff(self):
        # a budget no double can meet ends when the error no longer shows
        # in the total, instead of refining to the depth limit
        spec = QuadratureSpec(relative_tolerance=1e-30, absolute_tolerance=1e-30)
        assert integrate(math.sin, 0.0, math.pi, spec) == pytest.approx(2.0, rel=1e-15)


def _bits(outcome):
    """A result as its exact bits, an exception as its type name and
    message."""
    if isinstance(outcome, Exception):
        return [type(outcome).__name__, str(outcome)]
    return float(outcome).hex()


def _alone(f, lo, hi, knots, spec=None):
    try:
        return integrate(f, lo, hi, spec, knots)
    except Exception as exc:
        return exc


def _catalog_jobs():
    """The tolerance catalog's EU and EDU jobs, with an empty interval,
    knots outside the interval and a callable of floats only mixed in."""
    from test_tolerance import CATALOG

    jobs = [_pair_job(f, u, role) for _, f, u in CATALOG for role in ("eu", "edu")]
    jobs.insert(3, (np.exp, 2.0, 2.0, ()))
    jobs.insert(8, (lambda x: x * x, 0.0, 1.0, (-5.0, 0.5, 7.0)))
    jobs.insert(12, (lambda x: math.sqrt(abs(x - 0.3)) if x > 0.0 else 0.0, -1.0, 1.0, (0.3,)))
    return jobs


def _reference_sets():
    """name -> (spec, jobs) of each set the frozen reference covers: the
    tolerance catalog at four tolerances, and the conftest 8 x 8
    catalog's EU and EDU jobs at the default spec. Depth 16 puts
    depth-exhausted jobs among the catalog's from 1e-6 on, so a batch
    also holds failures, and it caps the work of any job that could not
    meet its budget."""
    from conftest import smooth_lotteries, smooth_utilities

    sets = {
        f"tolerance@{tol:g}": (QuadratureSpec(relative_tolerance=tol, max_subdivision_depth=16), _catalog_jobs())
        for tol in (1e-3, 1e-6, 1e-9, 1e-12)
    }
    pairs = product(smooth_lotteries(), smooth_utilities(), ("eu", "edu"))
    sets["conftest_8x8"] = (None, [_pair_job(f, u, role) for f, u, role in pairs])
    return sets


def _environment():
    """What an outcome's last bits depend on besides this code: the numpy
    and scipy versions, and the CPU features numpy dispatches its
    elementwise kernels to. With numpy's AVX-512 paths turned off
    (NPY_DISABLE_CPU_FEATURES), 14 of the 204 outcomes move, each a pair
    with an exponential_normalized, truncated_gaussian or scaled_beta
    curve, whose kernels call np.exp or np.expm1. No BLAS call takes part
    in the quadrature, so the BLAS kernel is not among them."""
    cpu = getattr(np, "_core", None) or np.core
    umath = cpu._multiarray_umath
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_cpu_baseline": sorted(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": sorted(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)),
    }


def _outcomes(names):
    """name -> the bits of each job of that reference set, integrated alone."""
    sets = _reference_sets()
    return {name: [_bits(_alone(*job, sets[name][0])) for job in sets[name][1]] for name in names}


# Each job's outcome as integrate() gives it, and the environment it was
# recorded in. Regenerate (PYTHONPATH=src python tests/test_numerics.py)
# only for an intended change of values.
REFERENCE = Path(__file__).parent / "data" / "integrate_reference.json"


def _set_id(name):
    return name.removeprefix("tolerance@")


def _moved(got, want, recorded):
    """How many outcomes moved, and what differs between the environment
    the reference was recorded in and this one."""
    here = _environment()
    keys = sorted(here.keys() | recorded.keys())
    changed = [f"{k} {recorded.get(k)} -> {here.get(k)}" for k in keys if here.get(k) != recorded.get(k)]
    cause = "; ".join(changed) if changed else "the environment is the recorded one, so the code moved them"
    return f"{sum(g != w for g, w in zip(got, want))} of {len(want)} outcomes moved ({cause})"


class TestIntegrateMany:
    @pytest.fixture(scope="class")
    def reference(self):
        return json.loads(REFERENCE.read_text())

    @pytest.mark.parametrize("name", list(_reference_sets()), ids=_set_id)
    def test_integrate_matches_frozen_reference(self, name, reference):
        got, want = _outcomes([name])[name], reference["outcomes"][name]
        assert got == want, _moved(got, want, reference["environment"])

    @pytest.mark.parametrize("name", list(_reference_sets()), ids=_set_id)
    def test_bit_identical_to_integrate(self, name):
        # needs no file, so it holds in every environment
        spec, jobs = _reference_sets()[name]
        assert [_bits(r) for r in integrate_many(jobs, spec)] == _outcomes([name])[name]

    def test_blas_kernel_does_not_matter(self):
        # OPENBLAS_CORETYPE=Prescott holds OpenBLAS to its oldest x86-64
        # kernels, which round matrix products differently from this
        # machine's; a child process started with it gives the same bits
        names = [name for name in _reference_sets() if name.startswith("tolerance@")]
        code = (
            "import json, sys; sys.path[:0] = sys.argv[1:3]; import test_numerics as t; "
            "print(json.dumps(t._outcomes(sys.argv[3:])))"
        )
        tests, src = Path(__file__).parent, Path(numerics.__file__).parents[1]
        child = subprocess.run(
            [sys.executable, "-c", code, str(tests), str(src), *names],
            env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == _outcomes(names)

    @pytest.mark.parametrize("first", ("non_finite", "depth"))
    def test_jobs_around_a_failure_keep_their_outcomes(self, first):
        nan_at_half = (lambda xs: np.where(xs == 0.5, np.nan, xs), 0.0, 1.0, ())
        pole = (lambda x: 1.0 / max(x, 1e-300), 0.0, 1.0, ())
        smooth = (np.exp, 0.0, 1.0, ())
        failing = [nan_at_half, pole] if first == "non_finite" else [pole, nan_at_half]
        jobs = [smooth, failing[0], smooth, failing[1], smooth]
        alone = [_bits(_alone(*job)) for job in jobs]
        assert alone[1][0] == alone[3][0] == "QuadratureError"
        assert [_bits(r) for r in integrate_many(jobs)] == alone

    def test_a_failure_leaves_the_loop_as_a_finished_job(self):
        # every job, the failing one too, gets the integrand calls it
        # gets alone: a failed integral is sampled no further
        def logged(f, log):
            def call(xs):
                log.append(len(xs))
                return f(xs)

            return call

        nan_at_half = lambda xs: np.where(xs == 0.5, np.nan, xs)
        pole = lambda xs: 1.0 / np.maximum(xs, 1e-300)
        cases = [
            # the NaN shows in the opening round
            ([(np.exp, 0.0, 1.0), (nan_at_half, 0.0, 1.0), (np.sqrt, 0.0, 1.0)], None),
            # bad limits never open
            ([(np.exp, 1.0, 0.0), (np.sqrt, 0.0, 1.0)], None),
            # the NaN shows after several rounds, with panels kept
            ([(np.sqrt, 0.0, 1.0), (_nan_near_zero, 0.0, 1.0), (np.exp, 0.0, 2.0)], None),
            # at depth 3 the pole's panel at 0 is stuck, with panels kept
            ([(pole, 0.0, 1.0), (np.sqrt, 0.0, 1.0)], QuadratureSpec(max_subdivision_depth=3)),
        ]
        for jobs, spec in cases:
            alone, batch = [[] for _ in jobs], [[] for _ in jobs]
            want = [_bits(_alone(logged(f, log), lo, hi, (), spec)) for (f, lo, hi), log in zip(jobs, alone)]
            got = integrate_many([(logged(f, log), lo, hi, ()) for (f, lo, hi), log in zip(jobs, batch)], spec)
            assert [_bits(r) for r in got] == want
            assert batch == alone
            assert any(isinstance(r, Exception) for r in got)

    def test_depth_error_is_not_replaced(self):
        # the round that finds the stuck panel still samples its halves,
        # whose nodes alone are NaN here: the depth error stands
        f = lambda xs: np.where(xs < 1.25e-5, np.nan, np.sqrt(xs))
        with pytest.raises(QuadratureError, match=r"depth exhausted on \[0\.0, 0\.00390625\]"):
            integrate(f, 0.0, 1.0, QuadratureSpec(max_subdivision_depth=8))

    def test_bad_limits_and_integrand_errors_are_outcomes(self):
        def broken(xs):
            raise ZeroDivisionError("integrand bug")

        jobs = [(np.exp, 1.0, 0.0, ()), (broken, 0.0, 1.0, ()), (np.exp, 0.0, math.inf, ())]
        got = [integrate_many([job])[0] for job in jobs]
        assert [type(r) for r in got] == [ValueError, ZeroDivisionError, ValueError]
        assert integrate_many([]) == []


def _as_lambdas(jobs):
    """The same jobs with each Product written as a lambda of its own."""
    return [
        ((lambda x, fs=f.factors: math.prod(g(x) for g in fs)) if isinstance(f, Product) else f, lo, hi, k)
        for f, lo, hi, k in jobs
    ]


def _catalog_20():
    """20 lotteries and 20 utilities on [0, 1]."""
    from conftest import smooth_lotteries, smooth_utilities

    lotteries = smooth_lotteries() + [
        *(ScaledBeta(0.0, 1.0, alpha=1.5 + k, beta=2.0 + 0.5 * k) for k in range(6)),
        *(Triangular(0.0, 1.0, mode=0.1 * k) for k in range(1, 7)),
    ]
    utilities = smooth_utilities() + [
        *(ExponentialNormalized(0.0, 1.0, gamma=g) for g in (-4.0, -1.0, 1.0, 2.0, 4.0, 6.0)),
        *(LogWealth(0.0, 1.0, wealth=w) for w in (0.1, 0.3, 1.0, 2.0, 4.0, 8.0)),
    ]
    return lotteries, utilities


class TestCurveMajorSampling:
    """A batch calls each distinct factor of its Product integrands once
    per round, and every outcome is what the integrands written as
    lambdas give."""

    def test_each_kernel_once_per_round(self, monkeypatch):
        lotteries, utilities = _catalog_20()
        curves = lotteries + utilities
        calls = {}
        for name in ("density", "value"):
            owners = {next(k for k in type(c).__mro__ if name in k.__dict__) for c in curves}
            for owner in owners:
                method = owner.__dict__[name]

                def counted(self, x, method=method, name=name):
                    calls[id(self), name] = calls.get((id(self), name), 0) + 1
                    return method(self, x)

                monkeypatch.setattr(owner, name, counted)
        rounds = []
        estimates = numerics._estimates

        def counting(*args):
            rounds.append(len(args[2]))  # integrals in the round
            return estimates(*args)

        monkeypatch.setattr(numerics, "_estimates", counting)
        pairs = [(f, u) for f in lotteries for u in utilities]
        got = list(evaluate_pairs(pairs))
        assert len(got) == 400 and len(rounds) > 1
        # each curve is in 40 of the 800 integrals, its density in 20 and
        # its value in 20
        assert len(calls) == 2 * len(curves)
        assert max(calls.values()) <= len(rounds)

    def test_matrix_results_match_lambdas(self):
        lotteries, utilities = _catalog_20()
        jobs = [_pair_job(f, u, role) for f in lotteries for u in utilities for role in ("eu", "edu")]
        assert [_bits(r) for r in integrate_many(jobs)] == [_bits(r) for r in integrate_many(_as_lambdas(jobs))]

    def test_factor_raising_on_one_job(self):
        # the beta's density is shared by three jobs and raises DomainError
        # on the second one's nodes past 1: the other two refine on alone
        # and the second gets the error it raises alone
        beta, exp2 = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0), ExponentialNormalized(0.0, 1.5, gamma=2.0)
        jobs = [
            (Product(beta.density, exp2.value), 0.0, 1.0, ()),
            (Product(beta.density, exp2.value), 0.0, 1.5, ()),
            (Product(exp2.density, beta.density), 0.0, 1.0, ()),
        ]
        got = integrate_many(jobs)
        assert len(got) == 3 and isinstance(got[1], DomainError)
        assert [_bits(r) for r in got] == [_bits(r) for r in integrate_many(_as_lambdas(jobs))]
        assert [_bits(r) for r in got] == [_bits(_alone(*job)) for job in _as_lambdas(jobs)]

    def test_factors_that_cannot_be_grouped(self):
        # math.exp takes no array, the constant gives a float for one, and
        # the unhashable factor is no dict key: the jobs that use them are
        # sampled alone, as their lambdas are, and the others stay grouped
        class Unhashable:
            __hash__ = None

            def __call__(self, x):
                return np.sqrt(x)

        beta = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        jobs = [
            (Product(beta.density, math.exp), 0.0, 1.0, ()),
            (Product(beta.density, beta.value), 0.0, 1.0, ()),
            (Product(math.exp, beta.value), 0.0, 1.0, (0.5,)),
            (Product(lambda x: 2.0, beta.value), 0.0, 1.0, ()),
            (Product(beta.value, Unhashable()), 0.0, 1.0, ()),
        ]
        got = integrate_many(jobs)
        assert [_bits(r) for r in got] == [_bits(r) for r in integrate_many(_as_lambdas(jobs))]
        assert got[0] == pytest.approx(float(mp.quad(lambda x: 12 * x * (1 - x) ** 2 * mp.e**x, [0, 1])), rel=1e-9)

    def test_non_finite_factor(self):
        # one factor shared by three jobs gives NaN at 0.5, a node of the
        # second job's opening panel only: that job gets the message it
        # gives alone, and the others their values
        nan_at_half = lambda xs: np.where(xs == 0.5, np.nan, 1.0 + xs)
        beta = ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        jobs = [
            (Product(beta.density, nan_at_half), 0.0, 0.4, ()),
            (Product(nan_at_half, beta.value), 0.0, 1.0, ()),
            (Product(beta.density, nan_at_half), 0.6, 1.0, ()),
        ]
        got = integrate_many(jobs)
        assert len(got) == 3
        assert _bits(got[1]) == ["QuadratureError", "integrand returned a non-finite value at x=0.5"]
        assert [_bits(r) for r in got] == [_bits(r) for r in integrate_many(_as_lambdas(jobs))]
        assert [_bits(r) for r in got] == [_bits(_alone(*job)) for job in jobs]

    def test_product_is_its_factors_multiplied_in_order(self):
        f = Product(np.exp, np.sin, np.sqrt)
        xs = np.linspace(0.0, 2.0, 31)
        assert f(xs).tobytes() == (np.exp(xs) * np.sin(xs) * np.sqrt(xs)).tobytes()
        assert f(0.7) == math.exp(0.7) * math.sin(0.7) * math.sqrt(0.7)
        with pytest.raises(TypeError):
            Product()


def _solo_exp(x):
    return math.exp(x)  # takes no array, so it is sampled point by point


def _nan_above(xs):
    return np.where(xs > 0.5, np.nan, np.cos(xs))


_FACTORS = (np.exp, np.sin, np.cos, np.arctan)
_integrand = st.one_of(
    st.sampled_from(_FACTORS),
    st.builds(Product, st.sampled_from(_FACTORS), st.sampled_from(_FACTORS)),
    st.just(_solo_exp),
    st.just(_nan_above),
)
_panel = st.tuples(st.floats(-3.0, 3.0), st.floats(1e-6, 2.0)).map(lambda p: (p[0], p[0] + p[1]))


def _estimated(fs, panels):
    """_estimates of each integral fs[k] over its panels panels[k], all
    in one batch: each integral's estimates and errors, and its
    exception if it failed (None if not)."""
    sizes = [len(p) for p in panels]
    grid = np.zeros((5, sum(sizes)))
    grid[:2] = np.array([ab for p in panels for ab in p]).T
    results = [None] * len(fs)
    integrands = numerics._Integrands(dict(enumerate(fs)))
    failed = numerics._estimates(integrands, list(range(len(fs))), sizes, grid, results)
    assert failed == [k for k, r in enumerate(results) if r is not None]
    starts = np.cumsum([0, *sizes])
    rows = [grid[3:, starts[k] : starts[k + 1]].tobytes() for k in range(len(fs))]
    return rows, [r if r is None else _bits(r) for r in results]


class TestRowIndependence:
    """A panel's estimate and error estimate have the bits it gets alone,
    however many integrals share its batch and whatever they are."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_integrand, st.lists(_panel, min_size=1, max_size=5)), min_size=1, max_size=6))
    def test_panel_bits_alone_and_stacked(self, jobs):
        fs, panels = zip(*jobs)
        rows, failures = _estimated(fs, panels)
        alone = [_estimated([f], [p]) for f, p in zip(fs, panels)]
        assert rows == [r for (r,), _ in alone]
        assert failures == [f for _, (f,) in alone]



def _raises(xs):
    raise ZeroDivisionError("integrand bug")


def _raises_once_split(xs):
    # a solo call on more than one panel's nodes: a failure after the
    # opening round of a one-panel job that needs refining
    if len(xs) > 15:
        raise ZeroDivisionError("integrand bug past the opening round")
    return np.sqrt(xs)


def _nan_near_zero(xs):
    # refinement toward the root's steep end reaches these nodes only
    # after several rounds
    return np.where(xs < 1e-6, np.nan, np.sqrt(xs))


def _pole(x):
    return 1.0 / max(x, 1e-300)


_job = st.one_of(
    st.tuples(_integrand, _panel).map(lambda j: (j[0], *j[1], ())),
    st.sampled_from([
        (_raises, 0.0, 1.0, ()),
        (_raises_once_split, 0.0, 1.0, ()),
        (_nan_near_zero, 0.0, 1.0, ()),
        (_nan_above, 0.0, 1.0, ()),
        (_pole, 0.0, 1.0, ()),
        (np.exp, 1.0, 0.0, ()),
        (np.exp, 0.0, math.inf, ()),
        (np.exp, 2.0, 2.0, ()),
    ]),
)


class TestOutcomesAlone:
    """integrate_many(jobs)[n] is integrate_many([jobs[n]])[0], bit for
    bit or the same exception type and message, whatever fails before or
    after job n."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_job, min_size=1, max_size=8),
        st.sampled_from([None, QuadratureSpec(max_subdivision_depth=8)]),
    )
    def test_each_outcome_is_the_job_alone(self, jobs, spec):
        alone = [_bits(integrate_many([job], spec)[0]) for job in jobs]
        assert [_bits(r) for r in integrate_many(jobs, spec)] == alone


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    REFERENCE.parent.mkdir(exist_ok=True)
    reference = {"environment": _environment(), "outcomes": _outcomes(_reference_sets())}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
