"""Batch command-line front end.

Every command loads one JSON scenario file (see scenarios), runs one
computation, prints a readable report to stdout, and optionally writes
the same results as CSV (--csv) and JSON (--json). Output is
deterministic byte for byte: floats are always formatted with 9
significant digits and iteration order follows the scenario file.

Scenarios may carry a "published" list of reference values, checked
when the scenario is parsed; after the computation the matching block
compares each one against the computed quantity under its key and prints
OK, DIFFERS (with a warning line), or a plain report when no tolerance
is given.

Each command's parser has only the options it reads (see _OPTIONS).
Exit codes: 0 success; 2 bad input (an unread or out-of-range option, a
file, the schema); 3 a numeric failure, raised as a package error type.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict
from functools import cache
from typing import Any, Callable, TextIO

from .approximations import (
    CurvatureError,
    SeriesDivergenceWarning,
    ae_cumulant_series,
    ae_taylor2,
    ce_taylor2,
)
from .curves import Curve, CurveError, CurveParameterError, ExponentialNormalized
from .delegation import DEFAULT_FRACTILE, desiderata_report, update_target
from .dominance import DEFAULT_GRID, MIN_GRID, dominance_report
from .duality import DomainMismatchError, UnattainableTargetError, _aspiration_from, _certain_from
from .duality import _effective_root, _pair_values, _read, evaluate_pairs, exponential_or_linear
from .numerics import DEFAULT_QUADRATURE, MAX_CUMULANT_ORDER, NumericsError, QuadratureSpec
from .scenarios import Scenario, ScenarioError, _number, load_scenario
from .selection import EvalMatrix, allocate_eu_matrix, allocation_sums, evaluate_matrix, find_pure_saddle


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _rounded(obj: Any) -> Any:
    """The JSON form of a result document: every float to 9 significant
    digits, and non-finite ones as strings (strict JSON has no
    Infinity/NaN)."""
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else _fmt(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _cell(x: Any) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "yes" if x else "no"
    return _fmt(x)


class _Out:
    """Accumulates the three output forms side by side: text lines, CSV
    rows, and a JSON document of raw values (rounded when written).
    computed holds the quantities published values are compared against."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.csv_rows: list[list[str]] = []
        self.doc: dict[str, Any] = {}
        self.computed: dict[str, float] = {}

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def row(self, *cells: Any) -> None:
        """Strings as given, booleans as yes/no, numbers at 9 significant digits."""
        self.csv_rows.append([_cell(c) for c in cells])

    def table_row(self, *cells: Any) -> None:
        """A row printed and written to CSV alike."""
        self.row(*cells)
        self.line("  ".join(self.csv_rows[-1]))

    def fields(self, **values: float) -> None:
        """A field,value CSV table whose fields are also JSON keys and
        published keys."""
        self.row("field", "value")
        for key, value in values.items():
            self.row(key, value)
        self.doc.update(values)
        self.computed.update(values)


def _published_block(scenario: Scenario, out: _Out) -> None:
    if not scenario.published:
        return
    out.line()
    out.line("published comparison:")
    comparisons: list[dict[str, Any]] = []
    skipped = 0
    for key, value, tolerance in scenario.published:
        if key not in out.computed:
            skipped += 1
            continue
        got = out.computed[key]
        diff = abs(got - value)
        record: dict[str, Any] = {
            "key": key,
            "published": value,
            "computed": got,
            "difference": diff,
        }
        if tolerance is None:
            out.line(
                f"  {key}: published {_fmt(value)} computed {_fmt(got)} "
                f"difference {_fmt(diff)} (reported)"
            )
            record["status"] = "reported"
        else:
            status = "OK" if diff <= tolerance else "DIFFERS"
            out.line(
                f"  {key}: published {_fmt(value)} computed {_fmt(got)} "
                f"difference {_fmt(diff)} tolerance {_fmt(tolerance)} {status}"
            )
            if status == "DIFFERS":
                out.line(
                    f"  warning: {key} is off the published value by "
                    f"{_fmt(diff)}, beyond tolerance {_fmt(tolerance)}"
                )
            record["tolerance"] = tolerance
            record["status"] = status
        comparisons.append(record)
    if skipped:
        noun = "entry" if skipped == 1 else "entries"
        out.line(f"  ({skipped} {noun} not produced by this command; skipped)")
    if comparisons:
        out.doc["published_comparison"] = comparisons


def _need(scenario: Scenario, key: str) -> Any:
    if key not in scenario.params:
        raise ScenarioError(f"{key}: required by this command, missing from scenario")
    return scenario.params[key]


_MATRIX_KEYS = ("eu", "edu", "ce", "ae")


def _evaluated(
    scenario: Scenario, args: argparse.Namespace, command: str
) -> tuple[_Out, EvalMatrix]:
    """Every lottery x utility pair, with each cell published as
    <eu|edu|ce|ae>:<lottery>:<utility>."""
    if not scenario.lotteries or not scenario.utilities:
        raise ScenarioError(f"{command} needs at least one lottery and one utility")
    matrix = evaluate_matrix(
        [nc.curve for nc in scenario.lotteries],
        [nc.curve for nc in scenario.utilities],
        args.spec,
    )
    out = _Out()
    for key in _MATRIX_KEYS:
        cells = getattr(matrix, key)
        for i, fn in enumerate(scenario.lottery_names()):
            for j, un in enumerate(scenario.utility_names()):
                out.computed[f"{key}:{fn}:{un}"] = cells[i][j]
    return out, matrix


def _cmd_eval(scenario: Scenario, args: argparse.Namespace) -> _Out:
    out, matrix = _evaluated(scenario, args, "eval")
    out.table_row(
        "lottery",
        "utility",
        "expected_utility",
        "expected_disutility",
        "identity_sum",
        "certain_equivalent",
        "aspiration_equivalent",
    )
    pairs = []
    for i, fn in enumerate(scenario.lottery_names()):
        for j, un in enumerate(scenario.utility_names()):
            eu, edu, ce, ae = matrix.eu[i][j], matrix.edu[i][j], matrix.ce[i][j], matrix.ae[i][j]
            out.table_row(fn, un, eu, edu, eu + edu, ce, ae)
            pairs.append(
                {
                    "lottery": fn,
                    "utility": un,
                    "expected_utility": eu,
                    "expected_disutility": edu,
                    "certain_equivalent": ce,
                    "aspiration_equivalent": ae,
                }
            )
    worst = max(abs(p["expected_utility"] + p["expected_disutility"] - 1.0) for p in pairs)
    out.line(f"largest |EU + EDU - 1|: {_fmt(worst)}")
    out.doc = {"pairs": pairs, "max_identity_error": worst}
    return out


def _gamma_grid(scenario: Scenario, n: int) -> list[tuple[float, Curve]]:
    """sweep's gammas, each with its curve (n from a range); no curve is bad input."""
    if "gammas" in scenario.params:
        raw = scenario.params["gammas"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("gammas: expected a nonempty list of numbers")
        gammas = [(_number(g, f"gammas[{k}]"), f"gammas[{k}]") for k, g in enumerate(raw)]
    elif "gamma_range" in scenario.params:
        raw = scenario.params["gamma_range"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ScenarioError("gamma_range: expected [first, last]")
        g0, g1 = _number(raw[0], "gamma_range[0]"), _number(raw[1], "gamma_range[1]")
        gammas = [(g0 + (g1 - g0) * k / (n - 1), "gamma_range") for k in range(n)]
    else:
        raise ScenarioError("sweep needs either gammas or gamma_range in the scenario")
    grid = []
    for g, path in gammas:
        try:
            grid.append((g, exponential_or_linear(scenario.lo, scenario.hi, g)))
        except CurveParameterError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    return grid


def _cmd_sweep(scenario: Scenario, args: argparse.Namespace) -> _Out:
    if len(scenario.lotteries) != 1:
        raise ScenarioError(
            f"sweep works on exactly one lottery, scenario has {len(scenario.lotteries)}"
        )
    f = scenario.lotteries[0].curve
    grid = _gamma_grid(scenario, args.grid)
    out = _Out()
    out.table_row("gamma", "certain_equivalent", "aspiration_equivalent")
    rows = []
    for (g, _), r in zip(grid, evaluate_pairs([(f, u) for _, u in grid], args.spec)):
        ce, ae = r.certain_equivalent, r.aspiration_equivalent
        out.table_row(g, ce, ae)
        rows.append({"gamma": g, "certain_equivalent": ce, "aspiration_equivalent": ae})
    out.doc = {"lottery": scenario.lotteries[0].name, "sweep": rows}
    return out


def _cmd_update_target(scenario: Scenario, args: argparse.Namespace) -> _Out:
    old_name = _need(scenario, "old_lottery")
    new_name = _need(scenario, "new_lottery")
    target = _number(_need(scenario, "target"), "target")
    old = scenario.lottery(old_name)
    new = scenario.lottery(new_name)
    upd = update_target(old, target, new, args.spec)
    u = exponential_or_linear(scenario.lo, scenario.hi, upd.effective_gamma)
    round_trip = abs(upd.round_trip_target - target)
    limit = 1e-5 * (scenario.hi - scenario.lo)
    verdict = "PASS" if round_trip <= limit else "FAIL"
    rt = u.tolerance_at(scenario.lo)

    out = _Out()
    out.line(f"old lottery {old_name}, target {_fmt(target)}")
    out.line(f"effective gamma: {_fmt(upd.effective_gamma)}")
    out.line(f"effective risk tolerance: {_fmt(rt)}")
    out.line(
        f"round trip |aspiration_equivalent(old, gamma) - target| = "
        f"{_fmt(round_trip)} (limit {_fmt(limit)}): {verdict}"
    )
    out.line(f"new lottery {new_name}, updated target: {_fmt(upd.new_target)}")
    out.line(f"exceedance probability: {_fmt(upd.old_exceed_prob)} -> {_fmt(upd.new_exceed_prob)}")
    out.doc = {"old_lottery": old_name, "new_lottery": new_name, "old_target": target}
    out.fields(
        effective_gamma=upd.effective_gamma,
        risk_tolerance=rt,
        new_target=upd.new_target,
        old_exceed_prob=upd.old_exceed_prob,
        new_exceed_prob=upd.new_exceed_prob,
    )
    out.doc.update(round_trip_error=round_trip, round_trip=verdict)
    out.computed["cumulative_at_old_target"] = 1.0 - upd.old_exceed_prob
    return out


def _cmd_matrix(scenario: Scenario, args: argparse.Namespace) -> _Out:
    out, matrix = _evaluated(scenario, args, "matrix")
    fnames = scenario.lottery_names()
    unames = scenario.utility_names()
    out.doc = {"lotteries": fnames, "utilities": unames}
    for key in _MATRIX_KEYS:
        cells = getattr(matrix, key)
        out.table_row(key.upper())
        out.table_row("lottery", *unames)
        for fn, values in zip(fnames, cells):
            out.table_row(fn, *values)
        out.doc[key] = cells
        out.line()
    saddle = find_pure_saddle([list(r) for r in matrix.eu])
    out.computed["maximin"] = out.doc["maximin"] = saddle.maximin
    out.computed["minimax"] = out.doc["minimax"] = saddle.minimax
    if saddle.exists:
        out.computed["saddle_value"] = saddle.value
        out.line(
            f"pure saddle of the EU matrix: ({fnames[saddle.row]}, "
            f"{unames[saddle.col]}) value {_fmt(saddle.value)}"
        )
        out.doc["saddle"] = {
            "lottery": fnames[saddle.row],
            "utility": unames[saddle.col],
            "value": saddle.value,
        }
    else:
        out.line(
            f"no pure saddle: maximin {_fmt(saddle.maximin)} < "
            f"minimax {_fmt(saddle.minimax)}"
        )
        out.doc["saddle"] = None
    return out


def _cmd_allocate(scenario: Scenario, args: argparse.Namespace) -> _Out:
    if len(scenario.lotteries) != len(scenario.utilities) or not scenario.lotteries:
        raise ScenarioError("allocate needs equally many lotteries and utilities")
    fnames = scenario.lottery_names()
    unames = scenario.utility_names()
    lotteries = [nc.curve for nc in scenario.lotteries]
    utilities = [nc.curve for nc in scenario.utilities]
    matrix = evaluate_matrix(lotteries, utilities, args.spec)
    allocation = allocate_eu_matrix(matrix.eu)
    sums = dict(zip(("sum_ce", "sum_ae", "sum_eu"), allocation_sums(allocation, matrix)))

    out = _Out()
    stages = [
        {
            "stage": diag.stage,
            "lottery": fnames[i],
            "utility": unames[j],
            "eu": eu,
            "pure_saddle": diag.pure_saddle,
            "maximin": diag.maximin,
            "minimax": diag.minimax,
        }
        for (i, j, eu), diag in zip(allocation.pairs, allocation.stage_diagnostics)
    ]
    out.row(*stages[0])  # the keys are the CSV header
    for s in stages:
        kind = "pure saddle" if s["pure_saddle"] else "no saddle, maximin fallback"
        out.line(
            f"stage {s['stage']}: {kind}; pair ({s['lottery']}, {s['utility']}) "
            f"eu {_fmt(s['eu'])}; maximin {_fmt(s['maximin'])}, minimax {_fmt(s['minimax'])}"
        )
        out.row(*s.values())
        out.computed[f"stage{s['stage']}_saddle_value"] = s["eu"]
    out.line(f"sum of certain equivalents: {_fmt(sums['sum_ce'])}")
    out.line(f"sum of aspiration equivalents: {_fmt(sums['sum_ae'])}")
    out.line(f"sum of expected utilities: {_fmt(sums['sum_eu'])}")
    out.computed.update(sums)
    out.doc = {"stages": stages, **sums}
    return out


def _cmd_dominance(scenario: Scenario, args: argparse.Namespace) -> _Out:
    if len(scenario.utilities) < 2:
        raise ScenarioError("dominance compares the first two utilities; need two")
    first = scenario.params.get("first", scenario.utility_names()[0])
    second = scenario.params.get("second", scenario.utility_names()[1])
    A = scenario.utility(first)
    B = scenario.utility(second)

    report = dominance_report(A, B, [nc.curve for nc in scenario.lotteries], args.grid, args.spec)
    verdict, second_order = report.first_order, report.second_order
    out = _Out()
    out.computed["dominates"] = 1.0 if verdict.dominates else 0.0
    out.computed["max_violation"] = verdict.max_violation
    out.line(
        f"first-order: {first} dominates {second}: "
        f"{'yes' if verdict.dominates else 'no'} "
        f"(max violation {_fmt(verdict.max_violation)})"
    )
    if verdict.strict_witness is not None:
        out.line(f"  strict at x = {_fmt(verdict.strict_witness)}")
    out.line(
        f"second-order (integrated, analog-derived): "
        f"{'yes' if second_order.dominates else 'no'} "
        f"(max violation {_fmt(second_order.max_violation)})"
    )
    out.doc = {
        "first": first,
        "second": second,
        "first_order": asdict(verdict),
        "second_order": asdict(second_order),
    }
    out.row("quantity", "lottery", "value")
    out.row("first_order_dominates", "", verdict.dominates)
    out.row("max_violation", "", verdict.max_violation)
    implications = report.implications
    if implications is not None:
        out.line(
            f"implication margins vs each lottery "
            f"(nonnegative expected, tolerance {_fmt(implications.tolerance)}):"
        )
        rows = []
        for nc, m in zip(scenario.lotteries, implications.per_lottery):
            margins = asdict(m)
            out.line(
                f"  {nc.name}: edu {_fmt(m.edu_margin)}, ae {_fmt(m.ae_margin)}, "
                f"eu {_fmt(m.eu_margin)}"
            )
            for quantity, value in margins.items():
                out.row(quantity, nc.name, value)
                out.computed[f"{quantity}:{nc.name}"] = value
            rows.append({"lottery": nc.name, **margins})
        out.line(f"utility-density mean margin: {_fmt(implications.mean_margin)}")
        out.line(f"all implications hold: {'yes' if implications.all_hold else 'no'}")
        out.doc["implications"] = {
            "mean_margin": implications.mean_margin,
            "per_lottery": rows,
            "all_hold": implications.all_hold,
        }
    names = ("pointwise_margin", "eu_margin", "ae_margin", "ce_margin")
    chains = []
    for nc, chain in zip(scenario.lotteries, report.chains):
        out.line(
            f"exponential chain on {nc.name} (gamma {_fmt(chain.gamma_a)} vs {_fmt(chain.gamma_b)}): "
            f"pointwise {_fmt(chain.pointwise_margin)}, eu {_fmt(chain.eu_margin)}, "
            f"ae {_fmt(chain.ae_margin)}, ce {_fmt(chain.ce_margin)}"
        )
        chains.append({"lottery": nc.name, **dict(zip(names, chain.margins()))})
    if chains:
        out.doc["exponential_chain"] = chains
    return out


def _cmd_approx(scenario: Scenario, args: argparse.Namespace) -> _Out:
    if not scenario.lotteries or not scenario.utilities:
        raise ScenarioError("approx needs at least one lottery and one utility")
    spec = args.spec
    out = _Out()
    out.row("quantity", "lottery", "utility", "value")
    doc_pairs = []

    def record(fn: str, un: str, values: dict[str, float]) -> None:
        for label, value in values.items():
            out.row(label, fn, un, value)
            out.computed[f"{label}:{fn}:{un}"] = value

    # each curve's moments once, at its first pair, where a refusal
    # would first be raised anyway
    moments_of = cache(lambda curve: curve.density_moments(spec))
    pairs = [(f, u) for f in scenario.lotteries for u in scenario.utilities]
    # every pair's exact CE and AE in one batch, each read where ce_taylor2 or ae_taylor2 integrates it
    integrals = iter(_pair_values([(f.curve, u.curve, role) for f, u in pairs for role in ("eu", "edu")], spec))

    for fn_named, un_named in pairs:
        fn, un = fn_named.name, un_named.name
        F, U = fn_named.curve, un_named.curve
        ce = ce_taylor2(F, U, spec, moments_of(F), lambda: _certain_from(U, _read(next(integrals)), spec))
        ae = ae_taylor2(F, U, spec, moments_of(U), lambda: _certain_from(F, _read(next(integrals)), spec))
        values = {
            "lottery_mean": ce.first_moment,
            "lottery_var": ce.central_second_moment,
            "risk_tolerance": ce.tolerance,
            "ce_exact": ce.exact,
            "ce_approx": ce.approx,
            "ce_premium": ce.premium,
            "utility_mean": ae.first_moment,
            "utility_var": ae.central_second_moment,
            "spread_tolerance": ae.tolerance,
            "ae_exact": ae.exact,
            "ae_approx": ae.approx,
            "ae_premium": ae.premium,
        }
        out.line(f"pair ({fn}, {un}):")
        for label, value in values.items():
            out.line(f"  {label}: {_fmt(value)}")
        record(fn, un, values)
        pair_doc: dict[str, Any] = {"lottery": fn, "utility": un, **values}
        if isinstance(F, ExponentialNormalized) and F.gamma > 0 and not U.is_step:
            with warnings.catch_warnings():
                # the divergence verdict is printed below; the Python
                # warning would say it twice
                warnings.simplefilter("ignore", SeriesDivergenceWarning)
                series = ae_cumulant_series(F, U, args.terms, spec)
            out.line(
                f"  cumulant series ({args.terms} terms): {_fmt(series.series)}, "
                f"closed form {_fmt(series.closed_form)}"
            )
            if series.diverging:
                out.line("  warning: series terms grow past k=3, not converging")
            series_values = {"ae_series": series.series, "ae_closed_form": series.closed_form}
            record(fn, un, series_values)
            pair_doc.update(
                series_values, series_terms=series.terms, series_diverging=series.diverging
            )
        doc_pairs.append(pair_doc)
    out.doc = {"pairs": doc_pairs}
    return out


def _cmd_solve_gamma(scenario: Scenario, args: argparse.Namespace) -> _Out:
    target = _number(_need(scenario, "target"), "target")
    if len(scenario.lotteries) == 1:
        name = scenario.lotteries[0].name
    else:
        name = _need(scenario, "lottery")
    f = scenario.lottery(name)
    g, edu = _effective_root(f, target, args.spec)
    u = exponential_or_linear(scenario.lo, scenario.hi, g)
    achieved = _aspiration_from(f, edu, args.spec)
    rt = u.tolerance_at(scenario.lo)
    out = _Out()
    out.line(f"lottery {name}, target {_fmt(target)}")
    out.line(f"effective gamma: {_fmt(g)}")
    out.line(f"risk tolerance: {_fmt(rt)}")
    out.line(f"aspiration equivalent at that gamma: {_fmt(achieved)}")
    out.doc = {"lottery": name, "target": target}
    out.fields(effective_gamma=g, risk_tolerance=rt, achieved_target=achieved)
    return out


def _cmd_delegate(scenario: Scenario, args: argparse.Namespace) -> _Out:
    if len(scenario.lotteries) < 2 or not scenario.utilities:
        raise ScenarioError("delegate needs at least two lotteries and one utility")
    lotteries = [nc.curve for nc in scenario.lotteries]
    fnames = scenario.lottery_names()
    utility = scenario.utilities[0].curve
    report = desiderata_report(lotteries, utility, args.fractile, args.spec)
    # that rule's agent is the delegate choosing by aspiration targets
    aspiration = next(r for r in report.rules if r.rule == "aspiration_equivalent")

    out = _Out()
    out.line(f"principal's choice by expected utility: {fnames[report.principal_choice]}")
    out.line(
        f"delegate's choice by aspiration targets: {fnames[aspiration.agent_choice]}"
    )
    out.row("rule", "lottery", "target", "exceedance")
    doc_rules = []
    for rule in report.rules:
        tag = rule.rule if rule.rule != "fractile" else f"fractile({_fmt(args.fractile)})"
        out.line(f"rule {tag}:")
        for fn, t, p in zip(fnames, rule.targets, rule.exceedance):
            out.line(f"  {fn}: target {_fmt(t)}, exceedance {_fmt(p)}")
            out.row(rule.rule, fn, t, p)
        agrees = "agrees with principal" if rule.agrees_with_principal else "DISAGREES"
        separates = "" if rule.separates_lotteries else " (cannot separate lotteries)"
        out.line(f"  agent picks {fnames[rule.agent_choice]}: {agrees}{separates}")
        out.computed[f"agent_choice:{rule.rule}"] = float(rule.agent_choice)
        doc_rules.append(
            {
                "rule": rule.rule,
                "targets": rule.targets,
                "exceedance": rule.exceedance,
                "agent_choice": fnames[rule.agent_choice],
                "agrees_with_principal": rule.agrees_with_principal,
                "separates_lotteries": rule.separates_lotteries,
            }
        )
    out.computed["principal_choice"] = float(report.principal_choice)
    out.doc = {
        "principal_choice": fnames[report.principal_choice],
        "aspiration_choice": fnames[aspiration.agent_choice],
        "rules": doc_rules,
    }
    return out


_HANDLERS: dict[str, Callable[[Scenario, argparse.Namespace], _Out]] = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "update-target": _cmd_update_target,
    "matrix": _cmd_matrix,
    "allocate": _cmd_allocate,
    "dominance": _cmd_dominance,
    "approx": _cmd_approx,
    "solve-gamma": _cmd_solve_gamma,
    "delegate": _cmd_delegate,
}
COMMANDS = tuple(_HANDLERS)


def _ranged(convert: Callable[[str], Any], valid: Callable[[Any], bool], wanted: str) -> Callable[[str], Any]:
    """An argparse type: the converted value, or a refusal (exit 2)
    saying what was wanted."""

    def parse(text: str) -> Any:
        try:
            if valid(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")

    return parse


_FRACTION = _ranged(float, lambda p: 0.0 < p < 1.0, "a number inside (0, 1)")
_TOL_HELP = f"quadrature relative tolerance (default {DEFAULT_QUADRATURE.relative_tolerance:g})"

# Each option but the three paths, declared once: its add_argument
# settings, and for each command that reads it, its argparse type and
# default. --tol arrives as its QuadratureSpec.
_OPTIONS: dict[str, tuple[dict[str, str], dict[str, tuple[Callable[[str], Any], Any]]]] = {
    "--tol": (
        {"dest": "spec", "metavar": "TOL", "help": _TOL_HELP},
        dict.fromkeys(COMMANDS, (lambda text: QuadratureSpec(relative_tolerance=_FRACTION(text)), None)),
    ),
    "--grid": ({"help": "grid point count (default %(default)s)"}, {
        "sweep": (_ranged(int, lambda n: n >= 2, "an integer of at least 2"), 21),
        "dominance": (_ranged(int, lambda n: n >= MIN_GRID, f"an integer of at least {MIN_GRID}"), DEFAULT_GRID),
    }),
    "--terms": ({"help": "cumulant series terms (default %(default)s)"}, {
        "approx": (_ranged(int, lambda n: 1 <= n <= MAX_CUMULANT_ORDER, f"an integer from 1 to {MAX_CUMULANT_ORDER}"), 6),
    }),
    "--fractile": ({"help": "fractile rule's level (default %(default)s)"}, {"delegate": (_FRACTION, DEFAULT_FRACTILE)}),
}


@cache  # main may run many times per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspeq",
        description="Duality computations on lottery/utility scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--csv", help="write results as CSV to this path")
        p.add_argument("--json", help="write results as JSON to this path")
        for flag, (settings, readers) in _OPTIONS.items():
            if name in readers:
                parse, default = readers[name]
                p.add_argument(flag, type=parse, default=default, **settings)
    return parser


def _write_csv(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _write_json(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_rounded(doc), fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None, stdout: TextIO | None = None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        out = _HANDLERS[args.command](scenario, args)
        _published_block(scenario, out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, CurveError, DomainMismatchError, UnattainableTargetError, CurvatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in out.lines:
        print(line, file=stdout)
    try:
        if args.csv:
            _write_csv(args.csv, out.csv_rows)
        if args.json:
            _write_json(args.json, out.doc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
