"""One pair path: each library function that reads several pairs hands
all of its EU and EDU integrals to one integrate_many batch.

Each function is checked against a loop over the public one-pair
functions, written out here: the batch must give the same bits and raise
the same first exception with the same message. When nothing fails it
integrates exactly the loop's jobs; on failing input it may integrate
jobs after the failure that the loop never reaches."""

import io
import json
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest

from aspeq import (
    AspirationChoice,
    ExponentialNormalized,
    Linear,
    LogWealth,
    PairBatch,
    PiecewiseLinear,
    ScaledBeta,
    Step,
    Triangular,
    TruncatedGaussian,
    ae_taylor2,
    allocate_eu_matrix,
    aspiration_equivalent,
    ce_taylor2,
    choose_by_aspiration,
    choose_by_eu,
    desiderata_report,
    dominance_implications,
    dominance_report,
    dual_select,
    evaluate_pair,
    exceedance_probability,
    expected_disutility,
    expected_utility,
    exponential_chain,
    exponential_or_linear,
    first_order_dominates,
    saddle_allocate,
    second_order_dominates,
    taylor2_pairs,
)
from aspeq.cli import main
from aspeq.curves import CURVE_KINDS, Curve
from aspeq.delegation import _argmax
import aspeq.dominance
import aspeq.duality
from aspeq.dominance import DEFAULT_GRID
from aspeq.duality import evaluate_pairs
from aspeq.numerics import QuadratureSpec

LOTS = [
    ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0),
    Triangular(0.0, 1.0, mode=0.3),
    TruncatedGaussian(0.0, 1.0, center=0.6, scale=0.2),
]
UTS = [
    ExponentialNormalized(0.0, 1.0, gamma=3.0),
    LogWealth(0.0, 1.0, wealth=0.5),
    Linear(0.0, 1.0),
]
# each put second in a list, so one pair is integrated before it
BAD = {
    "step": Step(0.0, 1.0, threshold=0.4),
    "singular": ScaledBeta(0.0, 1.0, alpha=0.5, beta=2.0),
    "mismatch": ScaledBeta(0.0, 2.0, alpha=2.0, beta=2.0),
}
CASES = ["smooth", *BAD]
# A dominates B: the flatter exponential sits below the steeper one
A, B = ExponentialNormalized(0.0, 1.0, gamma=1.0), ExponentialNormalized(0.0, 1.0, gamma=4.0)


def _with(curves, case):
    return curves if case == "smooth" else [curves[0], BAD[case], *curves[1:]]


def _bits(obj):
    if isinstance(obj, float):
        return obj.hex()
    if is_dataclass(obj):
        return _bits(asdict(obj))
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _outcome(fn):
    try:
        return _bits(fn())
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


# each reference is the function as a loop over the one-pair functions,
# reduced to what the function returns


def loop_choose_by_eu(lotteries):
    return _argmax([expected_utility(f, UTS[0]) for f in lotteries])


def loop_choose_by_aspiration(lotteries):
    targets = [aspiration_equivalent(f, UTS[0]) for f in lotteries]
    exceed = [exceedance_probability(f, t) for f, t in zip(lotteries, targets)]
    return AspirationChoice(_argmax(exceed), tuple(targets), tuple(exceed))


def loop_desiderata(lotteries):
    pairs = [evaluate_pair(f, UTS[0]) for f in lotteries]
    ces = [r.certain_equivalent for r in pairs]
    aes = [r.aspiration_equivalent for r in pairs]
    return _argmax([r.expected_utility for r in pairs]), ces, aes


def batch_desiderata(lotteries):
    report = desiderata_report(lotteries, UTS[0])
    by_rule = {r.rule: list(r.targets) for r in report.rules}
    return report.principal_choice, by_rule["certain_equivalent"], by_rule["aspiration_equivalent"]


def loop_dual_select(utilities, lottery=LOTS[0]):
    eus = [expected_utility(lottery, u) for u in utilities]
    aes = [aspiration_equivalent(lottery, u) for u in utilities]
    return eus, aes


def batch_dual_select(utilities, lottery=LOTS[0]):
    r = dual_select(lottery, utilities)
    return list(r.expected_utilities), list(r.aspiration_equivalents)


def loop_saddle_allocate(lotteries):
    utilities = UTS + [UTS[0]] if len(lotteries) > len(UTS) else UTS
    return allocate_eu_matrix([[expected_utility(f, u) for u in utilities] for f in lotteries])


def batch_saddle_allocate(lotteries):
    utilities = UTS + [UTS[0]] if len(lotteries) > len(UTS) else UTS
    return saddle_allocate(lotteries, utilities)


def loop_implications(lotteries):
    margins = []
    for f in lotteries:
        edu_a, edu_b = expected_disutility(f, A), expected_disutility(f, B)
        ae = aspiration_equivalent(f, A) - aspiration_equivalent(f, B)
        margins.append((edu_a - edu_b, ae, expected_utility(f, B) - expected_utility(f, A)))
    return margins, A.density_moments()[0] - B.density_moments()[0]


def batch_implications(lotteries):
    report = dominance_implications(A, B, lotteries)
    margins = [(m.edu_margin, m.ae_margin, m.eu_margin) for m in report.per_lottery]
    return margins, report.mean_margin


def loop_chain(F):
    a = evaluate_pair(F, exponential_or_linear(0.0, 1.0, 1.0))
    b = evaluate_pair(F, exponential_or_linear(0.0, 1.0, 4.0))
    return (
        b.expected_utility - a.expected_utility,
        a.aspiration_equivalent - b.aspiration_equivalent,
        a.certain_equivalent - b.certain_equivalent,
    )


def batch_chain(F):
    chain = exponential_chain(1.0, 4.0, F)
    return chain.eu_margin, chain.ae_margin, chain.ce_margin


# (name, batch, loop, the list the bad curve goes into)
FUNCTIONS = [
    ("choose_by_eu", lambda fs: choose_by_eu(fs, UTS[0]), loop_choose_by_eu, LOTS),
    ("choose_by_aspiration", lambda fs: choose_by_aspiration(fs, UTS[0]), loop_choose_by_aspiration, LOTS),
    ("desiderata_report", batch_desiderata, loop_desiderata, LOTS),
    ("dual_select", batch_dual_select, loop_dual_select, UTS),
    ("dual_select_step_lottery", lambda us: batch_dual_select(us, BAD["step"]),
     lambda us: loop_dual_select(us, BAD["step"]), UTS),
    ("saddle_allocate", batch_saddle_allocate, loop_saddle_allocate, LOTS),
    ("dominance_implications", batch_implications, loop_implications, LOTS),
    ("taylor2_pairs", lambda fs: list(taylor2_pairs([(f, UTS[0]) for f in fs])),
     lambda fs: [(ce_taylor2(f, UTS[0]), ae_taylor2(f, UTS[0])) for f in fs], LOTS),
]


class TestPairBatch:
    def test_equal_jobs_are_integrated_once(self, quadrature_batches):
        f, u = LOTS[0], UTS[0]
        twin = ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0)  # equal to f, another object
        batch = PairBatch([(f, u, "edu"), (f, u, "edu"), (twin, u, "edu")])
        assert quadrature_batches == [("duality", 1)]
        want = expected_disutility(f, u).hex()
        assert batch.expected_disutility(f, u).hex() == batch.expected_disutility(twin, u).hex() == want
        assert batch.aspiration_equivalent(twin, u) == aspiration_equivalent(f, u)


class TestOneBatchAgainstTheLoop:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("name,batch,loop,curves", FUNCTIONS, ids=[f[0] for f in FUNCTIONS])
    def test_same_bits_and_first_error(self, quadrature_batches, monkeypatch, name, batch, loop, curves, case):
        curves = _with(curves, case)
        integrated = set()  # the distinct (lottery, utility, role) quadratures the loop makes
        pair_job = aspeq.duality._pair_job

        def recording(*job):
            prepared = pair_job(*job)
            if isinstance(prepared, tuple):
                integrated.add(job)
            return prepared

        monkeypatch.setattr(aspeq.duality, "_pair_job", recording)
        want = _outcome(lambda: loop(curves))
        loop_jobs = len(integrated)
        quadrature_batches.clear()
        assert _outcome(lambda: batch(curves)) == want
        pair_batches = [n for module, n in quadrature_batches if module == "duality"]
        # one batch, of the loop's distinct jobs when nothing fails: a
        # repeated curve, or a loop integrating EDU again for the AE, is
        # one job
        assert len(pair_batches) == 1 and pair_batches[0] >= loop_jobs
        assert isinstance(want, tuple) or pair_batches == [loop_jobs]

    @pytest.mark.parametrize("F", [LOTS[0], LOTS[1], BAD["step"], BAD["singular"]])
    def test_exponential_chain(self, quadrature_batches, F):
        want = _outcome(lambda: loop_chain(F))
        loop_jobs = sum(n for _, n in quadrature_batches)
        quadrature_batches.clear()
        assert _outcome(lambda: batch_chain(F)) == want
        assert len(quadrature_batches) == 1 and quadrature_batches[0][1] >= loop_jobs
        assert isinstance(want, tuple) or quadrature_batches[0][1] == loop_jobs

    def test_the_bad_cases_raise(self):
        # the comparison above covers failures, not only values
        raised = {
            case: [name for name, _, loop, curves in FUNCTIONS
                   if isinstance(_outcome(lambda: loop(_with(curves, case))), tuple)]
            for case in BAD
        }
        assert {case: len(names) for case, names in raised.items()} == {
            "step": 5, "singular": 7, "mismatch": 8,
        }

    def test_density_moments_once_per_curve(self, quadrature_batches):
        dominance_implications(A, B, LOTS)
        assert [module for module, _ in quadrature_batches] == ["duality", "numerics", "numerics"]
        assert [n for _, n in quadrature_batches] == [4 * len(LOTS), 3, 3]


def loop_report(U, V, lotteries, spec):
    """dominance_report as separate calls: each verdict on its own grid,
    the implications from one-pair calls, and each lottery's exponential
    chain from its own evaluate_pairs call and its own grid."""
    first = first_order_dominates(U, V)
    parts = [first, second_order_dominates(U, V)]
    if first.dominates and lotteries:
        margins = []
        for f in lotteries:
            edu_u, edu_v = expected_disutility(f, U, spec), expected_disutility(f, V, spec)
            ae = aspiration_equivalent(f, U, spec) - aspiration_equivalent(f, V, spec)
            margins.append((edu_u - edu_v, ae, expected_utility(f, V, spec) - expected_utility(f, U, spec)))
        parts.append((margins, U.density_moments(spec)[0] - V.density_moments(spec)[0]))
    if isinstance(U, ExponentialNormalized) and isinstance(V, ExponentialNormalized):
        flat, steep = (exponential_or_linear(0.0, 1.0, g) for g in sorted((U.gamma, V.gamma)))
        xs = np.linspace(0.0, 1.0, DEFAULT_GRID)
        pointwise = float((steep.value(xs) - flat.value(xs)).min())
        for f in lotteries:
            a, b = evaluate_pairs([(f, flat), (f, steep)], spec)
            parts.append((
                pointwise,
                b.expected_utility - a.expected_utility,
                a.aspiration_equivalent - b.aspiration_equivalent,
                a.certain_equivalent - b.certain_equivalent,
            ))
    return parts


def batch_report(U, V, lotteries, spec):
    report = dominance_report(U, V, lotteries, spec=spec)
    parts = [report.first_order, report.second_order]
    if report.implications is not None:
        margins = [(m.edu_margin, m.ae_margin, m.eu_margin) for m in report.implications.per_lottery]
        parts.append((margins, report.implications.mean_margin))
    return parts + [c.margins() for c in report.chains]


# a depth-1 spec fails some of a lottery's four jobs and not others, with
# different messages: B's EDU first in the implications' order, B's EU
# first in the chains'
DEPTH_ONE = QuadratureSpec(relative_tolerance=1e-12, absolute_tolerance=1e-15, max_subdivision_depth=1)
PAIRS = {
    "flat_steep": (A, B),  # dominates: the implications read first
    "steep_flat": (B, A),  # does not: the chains read first
    "equal": (B, B),
    "not_exponential": (Linear(0.0, 1.0), B),
}


class TestDominanceReport:
    """One grid and one pair batch serve the verdicts, the implications
    and the exponential chains; each value and the first error are what
    the separate calls give."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("spec", [None, DEPTH_ONE], ids=["default", "depth_one"])
    def test_same_bits_and_first_error(self, quadrature_batches, monkeypatch, case, pair, spec):
        grids = []
        on_grid = aspeq.dominance._on_grid
        monkeypatch.setattr(aspeq.dominance, "_on_grid", lambda *a: grids.append(a) or on_grid(*a))
        U, V = PAIRS[pair]
        lotteries = _with(LOTS, case)
        want = _outcome(lambda: loop_report(U, V, lotteries, spec))
        grids.clear()
        quadrature_batches.clear()
        assert _outcome(lambda: batch_report(U, V, lotteries, spec)) == want
        assert len(grids) == 1
        assert len([module for module, _ in quadrature_batches if module == "duality"]) <= 1

    def test_the_cases_reach_both_readers_and_fail(self):
        outcomes = {
            (pair, spec is None): _outcome(lambda: loop_report(*PAIRS[pair], LOTS, spec))
            for pair in PAIRS for spec in (None, DEPTH_ONE)
        }
        # the implications, and all three chains after the two verdicts
        assert len(outcomes["flat_steep", True]) == 2 + 1 + 3
        assert len(outcomes["steep_flat", True]) == 2 + 3
        # two different first errors under the depth-1 spec
        errors = {outcomes[pair, False][1] for pair in ("flat_steep", "steep_flat")}
        assert len(errors) == 2

    def test_one_pair_batch_of_every_job(self, quadrature_batches):
        report = dominance_report(A, B, LOTS)
        assert len(report.chains) == len(LOTS) and report.implications is not None
        assert quadrature_batches == [("duality", 4 * len(LOTS)), ("numerics", 3), ("numerics", 3)]

    def test_no_reader_no_batch(self, quadrature_batches):
        # B sits above the linear utility, so no implications, and the
        # pair is not both exponential, so no chains: nothing to integrate
        report = dominance_report(B, Linear(0.0, 1.0), LOTS)
        assert report.implications is None and report.chains == ()
        assert quadrature_batches == []

    @pytest.mark.parametrize("F", LOTS)
    def test_single_chain_is_the_list_form(self, F):
        assert _bits(exponential_chain(1.0, 4.0, F)) == _bits(dominance_report(A, B, [F]).chains[0])


def _matrix_scenario():
    """A 20 x 20 mixed-kind matrix on [-40, 260]: curves with kinks
    (triangular, piecewise linear) and with sample hints (narrow
    Gaussians, steep exponentials)."""
    lo, span = -40.0, 300.0
    lotteries = [
        *({"kind": "scaled_beta", "alpha": 1.2 + k, "beta": 3.0} for k in range(5)),
        *({"kind": "triangular", "mode": lo + span * m} for m in (0.1, 0.3, 0.5, 0.7, 0.9)),
        *({"kind": "truncated_gaussian", "mu": lo + span * m, "sigma": span * s}
          for m, s in ((0.3, 0.03), (0.65, 0.07), (0.5, 0.02), (-0.1, 0.5), (0.8, 1.0))),
        *({"kind": "piecewise_linear", "knots": [[lo, 0.0], [lo + span * x, y], [lo + span, 1.0]]}
          for x, y in ((0.1, 0.2), (0.3, 0.5), (0.5, 0.4), (0.7, 0.9), (0.9, 0.95))),
    ]
    utilities = [
        *({"kind": "exponential_normalized", "gamma": gs / span}
          for gs in (0.6, -1.2, 1.8, -2.4, 3.0, 17.0, -20.0, 24.0, -28.0, 44.0)),
        *({"kind": "log_wealth", "w": -lo + span * f} for f in (0.05, 0.2, 0.6, 1.5, 3.0)),
        *({"kind": "linear"} for _ in range(5)),
    ]
    return {
        "domain": {"lo": lo, "hi": lo + span},
        "lotteries": [{"name": f"f{k}", **c} for k, c in enumerate(lotteries)],
        "utilities": [{"name": f"u{k}", **c} for k, c in enumerate(utilities)],
    }


class TestCurveCuts:
    def test_cuts_merge_kinks_and_hints(self):
        for curve in [*LOTS, *UTS, BAD["step"], ExponentialNormalized(0.0, 1.0, gamma=40.0),
                      PiecewiseLinear(0.0, 1.0, points=((0.0, 0.0), (0.3, 0.6), (1.0, 1.0)))]:
            assert curve.cuts == tuple(sorted(set(curve.kinks()) | set(curve.sample_hints())))

    def test_once_per_curve_per_eval(self, tmp_path, monkeypatch):
        calls = {"kinks": 0, "sample_hints": 0}
        for name in calls:
            for owner in {Curve, *CURVE_KINDS.values()}:
                if name in owner.__dict__:
                    method = owner.__dict__[name]

                    def counted(self, method=method, name=name):
                        calls[name] += 1
                        return method(self)

                    monkeypatch.setattr(owner, name, counted)
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(_matrix_scenario()), encoding="utf-8")
        assert main(["eval", "--scenario", str(path)], stdout=io.StringIO()) == 0
        # 40 curves, the five linear utilities equal; 800 pair jobs once
        # merged four lists each, and the 640 distinct jobs ask only the
        # first of equal curves. Each is still asked once: the five
        # scaled_beta lotteries' sample_hints also call Curve's through
        # super(), which the counter sees as five calls more
        assert calls == {"kinks": 36, "sample_hints": 41}
