"""Checks on the outputs of one aspeq operation, made apart from aspeq.

Each check reads the operation's --json document and its scenario file
and compares against mpmath reference values (oracle.py) or against
identities the method must satisfy. Every cell is compared with mpmath,
not a sample, so a verdict is the same on every seed. The fixtures'
`published` blocks are never a criterion.

Tolerances come from two sources only:
- the requested quadrature accuracy: an integral I is trusted to
  max(ABS_TOL, rel_tol * |I|), the budget the program's QuadratureSpec
  promises (rel_tol is --tol, default 1e-9);
- the 9-significant-digit rounding of every printed number, at most
  5e-9 of its magnitude.
A quantity read through a curve (a CE through U, an AE through F) is
checked by bracketing: a printed x stands for some point within its
rounding of x, so the curve's value lies between its values at the two
ends of that interval.
"""

from __future__ import annotations

import json
import math

import numpy as np

from oracle import Oracle, OracleError, exponential_or_linear

ABS_TOL = 1e-12  # QuadratureSpec.absolute_tolerance
DEFAULT_REL_TOL = 1e-9  # QuadratureSpec.relative_tolerance
ROUND = 5.000001e-9  # half a unit in the 9th significant digit, relative
SADDLE_TOL = 1e-9  # documented comparison tolerance of the saddle scan
GRID_TOL = 1e-9  # documented comparison tolerance of the dominance grids
ROOT_VALUE_TOL = 1e-10  # value tolerance of the curvature solver unless --tol sets it


def num(v) -> float:
    return float(v)  # "inf" / "-inf" / "nan" strings parse too


def rnd(v: float) -> float:
    return ROUND * abs(v) if math.isfinite(v) else 0.0


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


class Checker:
    """Checks the operations of one run. Operations are checked in round
    order; allocate is checked against the matrix (or eval) output of the
    same scenario, which every workload runs before it."""

    def __init__(self, cache: dict | None = None) -> None:
        """cache holds reference values from earlier runs (Oracle.export);
        save() returns it updated."""
        self._cache = dict(cache or {})
        self._oracles: dict[tuple[float, float], Oracle] = {}
        self._cells: dict[str, dict] = {}

    def oracle(self, scenario: dict) -> Oracle:
        key = (float(scenario["domain"]["lo"]), float(scenario["domain"]["hi"]))
        o = self._oracles.get(key)
        if o is None:
            o = self._oracles[key] = Oracle(*key)
            o.absorb(self._cache)
        return o

    def save(self) -> dict:
        for o in self._oracles.values():
            self._cache.update(o.export())
        return self._cache

    def check(self, name: str, argv: list[str], scenario_path: str, doc: dict) -> list[str]:
        """Problems found in one operation's output; empty when it passes."""
        with open(scenario_path, encoding="utf-8") as fh:
            scenario = json.load(fh)
        command = argv[0]
        opts = dict(zip(argv[3::2], argv[4::2]))
        ctx = _Op(self, name, scenario_path, scenario, opts, doc)
        try:
            getattr(ctx, "check_" + command.replace("-", "_"))()
        except OracleError as exc:
            ctx.p.append(f"reference value unavailable: {exc}")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            ctx.p.append(f"output does not have the documented shape: {exc!r}")
        return list(ctx.p)


class _Op:
    def __init__(self, checker: Checker, name: str, path: str, scenario: dict, opts: dict, doc: dict) -> None:
        self.checker = checker
        self.name = name
        self.path = path
        self.scenario = scenario
        self.opts = opts
        self.doc = doc
        self.p = Problems()
        self.o = checker.oracle(scenario)
        self.lo = float(scenario["domain"]["lo"])
        self.hi = float(scenario["domain"]["hi"])
        self.rel = float(opts["--tol"]) if "--tol" in opts else DEFAULT_REL_TOL
        self.lotteries = {c["name"]: c for c in scenario.get("lotteries") or []}
        self.utilities = {c["name"]: c for c in scenario.get("utilities") or []}

    # tolerances -------------------------------------------------------

    def tq(self, v: float) -> float:
        """What the quadrature promises for an integral of size v."""
        return max(ABS_TOL, self.rel * abs(v))

    # shared cell checks -------------------------------------------------

    def bracket(self, curve: dict, x: float, target: float, slack: float, label: str, complement: bool = False) -> None:
        """target must equal curve(x) (or 1 - curve(x)) for some point within
        the rounding of the printed x, up to slack."""
        a, b = self.o.cdf_range(curve, x, rnd(x))
        if complement:
            a, b = 1.0 - b, 1.0 - a
        self.p.expect(
            a - slack <= target <= b + slack,
            f"{label}: {target!r} outside [{a!r}, {b!r}] +- {slack:.3g}",
        )

    def cell(self, lot: dict, util: dict, eu: float, edu=None, ce=None, ae=None, label="") -> None:
        eu = num(eu)
        if edu is not None:
            edu = num(edu)
            bound = self.tq(eu) + self.tq(edu) + rnd(eu) + rnd(edu)
            self.p.expect(abs(eu + edu - 1.0) <= bound, f"{label}: EU + EDU - 1 = {eu + edu - 1.0:.3g} > {bound:.3g}")
        if ce is not None:
            self.bracket(util, num(ce), eu, rnd(eu) + ABS_TOL, f"{label}: U(CE) = EU")
        if ae is not None:
            slack = rnd(eu) + self.tq(eu) + self.tq(1.0 - eu) + ABS_TOL
            self.bracket(lot, num(ae), eu, slack, f"{label}: 1 - F(AE) = EU", complement=True)
        ref = self.o.eu(lot, util)
        self.p.expect(abs(eu - ref) <= self.tq(ref) + rnd(eu), f"{label}: EU {eu!r} vs mpmath {ref!r}")
        if edu is not None:
            ref = self.o.edu(lot, util)
            self.p.expect(abs(edu - ref) <= self.tq(ref) + rnd(edu), f"{label}: EDU {edu!r} vs mpmath {ref!r}")

    # commands ------------------------------------------------------------

    def check_eval(self) -> None:
        pairs = self.doc["pairs"]
        expected = [(f, u) for f in self.lotteries for u in self.utilities]
        self.p.expect([(c["lottery"], c["utility"]) for c in pairs] == expected, "eval: pairs not in scenario order")
        worst_bound = worst_printed = 0.0
        cells = {}
        for c in pairs:
            lot, util = self.lotteries[c["lottery"]], self.utilities[c["utility"]]
            eu, edu = num(c["expected_utility"]), num(c["expected_disutility"])
            self.cell(lot, util, eu, edu, c["certain_equivalent"], c["aspiration_equivalent"],
                      label=f"eval {c['lottery']}/{c['utility']}")
            # the bound of the per-cell identity check, output rounding included
            worst_bound = max(worst_bound, self.tq(eu) + self.tq(edu) + rnd(eu) + rnd(edu))
            worst_printed = max(worst_printed, abs(eu + edu - 1.0))
            cells[(c["lottery"], c["utility"])] = (eu, edu, num(c["certain_equivalent"]), num(c["aspiration_equivalent"]))
        mie = num(self.doc["max_identity_error"])
        self.p.expect(0.0 <= mie <= worst_bound + rnd(mie), f"eval: max identity error {mie!r} > {worst_bound:.3g}")
        self.p.expect(abs(mie - worst_printed) <= worst_bound,
                      f"eval: max identity error {mie!r} is not the largest cell residual {worst_printed!r}")
        self.checker._cells.setdefault(self.path, cells)

    def check_matrix(self) -> None:
        d = self.doc
        fn, un = d["lotteries"], d["utilities"]
        self.p.expect(fn == list(self.lotteries) and un == list(self.utilities), "matrix: labels not in scenario order")
        eu = [[num(v) for v in row] for row in d["eu"]]
        cells = {}
        coords = [(i, j) for i in range(len(fn)) for j in range(len(un))]
        for i, j in coords:
            self.cell(self.lotteries[fn[i]], self.utilities[un[j]], eu[i][j], d["edu"][i][j], d["ce"][i][j], d["ae"][i][j],
                      label=f"matrix {fn[i]}/{un[j]}")
            cells[(fn[i], un[j])] = (eu[i][j], num(d["edu"][i][j]), num(d["ce"][i][j]), num(d["ae"][i][j]))
        self.checker._cells[self.path] = cells
        search = _saddle_facts(eu, list(range(len(fn))), list(range(len(un))))
        self.saddle_report(search, num(d["maximin"]), num(d["minimax"]), "matrix")
        s = d["saddle"]
        if s is None:
            self.p.expect(not search["clear"], f"matrix: no saddle printed, but {search['clear']} is one")
        else:
            i, j = fn.index(s["lottery"]), un.index(s["utility"])
            v = num(s["value"])
            self.p.expect(abs(v - eu[i][j]) <= rnd(v) + rnd(eu[i][j]), "matrix: saddle value is not its cell")
            self.p.expect((i, j) in search["possible"], f"matrix: printed saddle ({i}, {j}) is not a row minimum and column maximum")
            earlier = [c for c in search["clear"] if c < (i, j)]
            self.p.expect(not earlier, f"matrix: saddle {earlier} comes before the printed one")

    def saddle_report(self, facts: dict, maximin: float, minimax: float, label: str) -> None:
        self.p.expect(abs(maximin - facts["maximin"]) <= rnd(maximin) + rnd(facts["maximin"]),
                      f"{label}: maximin {maximin!r} vs {facts['maximin']!r}")
        self.p.expect(abs(minimax - facts["minimax"]) <= rnd(minimax) + rnd(facts["minimax"]),
                      f"{label}: minimax {minimax!r} vs {facts['minimax']!r}")

    def check_allocate(self) -> None:
        cells = self.checker._cells.get(self.path)
        if cells is None:
            self.p.append("allocate: no matrix or eval output of this scenario to check against")
            return
        stages = self.doc["stages"]
        fn, un = list(self.lotteries), list(self.utilities)
        rows = [fn.index(s["lottery"]) for s in stages]
        cols = [un.index(s["utility"]) for s in stages]
        self.p.expect(sorted(rows) == list(range(len(fn))) and sorted(cols) == list(range(len(un))),
                      "allocate: the pairing is not a permutation")
        eu = [[cells[(f, u)][0] for u in un] for f in fn]
        live_r, live_c = list(range(len(fn))), list(range(len(un)))
        for k, (s, i, j) in enumerate(zip(stages, rows, cols)):
            label = f"allocate stage {k}"
            self.p.expect(s["stage"] == k, f"{label}: numbered {s['stage']}")
            v = num(s["eu"])
            self.p.expect(abs(v - eu[i][j]) <= rnd(v) + rnd(eu[i][j]), f"{label}: eu {v!r} is not its cell {eu[i][j]!r}")
            if i not in live_r or j not in live_c:
                self.p.append(f"{label}: row or column already matched")
                break
            facts = _saddle_facts(eu, live_r, live_c)
            self.saddle_report(facts, num(s["maximin"]), num(s["minimax"]), label)
            if s["pure_saddle"]:
                self.p.expect((i, j) in facts["possible"], f"{label}: flagged saddle is not a row minimum and column maximum")
                earlier = [c for c in facts["clear"] if c < (i, j)]
                self.p.expect(not earlier, f"{label}: saddle {earlier} comes before the chosen one")
            else:
                self.p.expect(not facts["clear"], f"{label}: fallback taken, but {facts['clear']} is a saddle")
                row_min = min(eu[i][c] for c in live_c)
                self.p.expect(abs(row_min - facts["maximin"]) <= 2 * rnd(row_min),
                              f"{label}: fallback row is not a maximin row")
                self.p.expect(eu[i][j] <= row_min + 2 * rnd(row_min), f"{label}: fallback column is not the row minimum")
            live_r.remove(i)
            live_c.remove(j)
        for key, idx in (("sum_ce", 2), ("sum_ae", 3), ("sum_eu", 0)):
            parts = [cells[(fn[i], un[j])][idx] for i, j in zip(rows, cols)]
            total = num(self.doc[key])
            slack = rnd(total) + sum(rnd(v) for v in parts) + 1e-15 * sum(abs(v) for v in parts)
            self.p.expect(abs(total - sum(parts)) <= slack, f"allocate: {key} {total!r} != sum of matched cells {sum(parts)!r}")
        for k in range(len(stages)):
            lot, util = self.lotteries[fn[rows[k]]], self.utilities[un[cols[k]]]
            ref = self.o.eu(lot, util)
            v = num(stages[k]["eu"])
            self.p.expect(abs(v - ref) <= self.tq(ref) + rnd(v), f"allocate stage {k}: eu {v!r} vs mpmath {ref!r}")

    def gammas(self) -> list[float]:
        if "gammas" in self.scenario:
            return [float(g) for g in self.scenario["gammas"]]
        g0, g1 = (float(v) for v in self.scenario["gamma_range"])
        n = int(self.opts.get("--grid", 21))
        return [g0 + (g1 - g0) * k / (n - 1) for k in range(n)]

    def x_slack(self, curve: dict, x: float, prob_slack: float) -> float:
        """How far x may move while the curve's value moves by prob_slack."""
        dens = float(self.o.curve(curve).pdf(x))
        return math.inf if dens <= 0.0 else prob_slack / dens

    def check_sweep(self) -> None:
        (lot,) = self.scenario["lotteries"]
        rows = self.doc["sweep"]
        gammas = self.gammas()
        self.p.expect(len(rows) == len(gammas), "sweep: wrong number of rows")
        prev = None
        for k, (row, g) in enumerate(zip(rows, gammas)):
            gp, ce, ae = num(row["gamma"]), num(row["certain_equivalent"]), num(row["aspiration_equivalent"])
            self.p.expect(abs(gp - g) <= rnd(g), f"sweep row {k}: gamma {gp!r} is not {g!r}")
            util = exponential_or_linear(self.lo, self.hi, g)
            # CE and AE move by at most this much when EU/EDU move within budget
            ce_slack = rnd(ce) + self.x_slack(util, ce, self.tq(1.0) + ABS_TOL)
            ae_slack = rnd(ae) + self.x_slack(lot, ae, self.tq(1.0) + ABS_TOL)
            if prev is not None:
                pce, pae, pce_slack, pae_slack = prev
                self.p.expect(ce <= pce + ce_slack + pce_slack, f"sweep row {k}: CE rises with gamma ({pce!r} -> {ce!r})")
                self.p.expect(ae <= pae + ae_slack + pae_slack, f"sweep row {k}: AE rises with gamma ({pae!r} -> {ae!r})")
            prev = (ce, ae, ce_slack, ae_slack)
            ref = self.o.eu(lot, util)
            self.bracket(util, ce, ref, self.tq(ref) + ABS_TOL, f"sweep row {k}: U(CE) = mpmath EU")
            self.bracket(lot, ae, ref, self.tq(ref) + self.tq(1 - ref) + ABS_TOL,
                         f"sweep row {k}: 1 - F(AE) = mpmath EU", complement=True)

    def edu_interval(self, lot: dict, g: float) -> tuple[float, float]:
        """EDU of the lottery under the exponential utility, over the
        curvatures a printed g can stand for (EDU decreases in gamma)."""
        r = rnd(g)
        a = self.o.edu(lot, exponential_or_linear(self.lo, self.hi, g + r))
        b = self.o.edu(lot, exponential_or_linear(self.lo, self.hi, g - r))
        return a, b

    def solved_gamma(self, lot: dict, target: float, g: float, label: str, value_tol: float) -> tuple[float, float]:
        p = self.o.cdf(lot, target)
        a, b = self.edu_interval(lot, g)
        slack = value_tol + self.tq(p) + ABS_TOL
        self.p.expect(a - slack <= p <= b + slack, f"{label}: gamma {g!r} gives EDU in [{a!r}, {b!r}], target needs {p!r}")
        self.p.expect(abs(num(self.doc["risk_tolerance"]) - 1.0 / g) <= 3 * rnd(1.0 / g), f"{label}: risk tolerance is not 1/gamma")
        return a, b

    def check_solve_gamma(self) -> None:
        d = self.doc
        lot = self.lotteries[d["lottery"]]
        target = float(self.scenario["target"])
        self.p.expect(num(d["target"]) == float(f"{target:.9g}"), "solve-gamma: printed target is not the scenario's")
        g = num(d["effective_gamma"])
        # solve-gamma hands --tol to the solver as its value tolerance
        value_tol = float(self.opts.get("--tol", ROOT_VALUE_TOL))
        self.solved_gamma(lot, target, g, "solve-gamma", value_tol)
        p = self.o.cdf(lot, target)
        slack = value_tol + self.tq(p) + ABS_TOL
        self.bracket(lot, num(d["achieved_target"]), p, slack, "solve-gamma: F(achieved) = F(target)")

    def check_update_target(self) -> None:
        d = self.doc
        old, new = self.lotteries[d["old_lottery"]], self.lotteries[d["new_lottery"]]
        target = float(self.scenario["target"])
        g = num(d["effective_gamma"])
        self.p.expect(d["round_trip"] == "PASS", f"update-target: round trip {d['round_trip']}")
        self.solved_gamma(old, target, g, "update-target", ROOT_VALUE_TOL)
        a, b = self.edu_interval(new, g)
        t = num(d["new_target"])
        fa, fb = self.o.cdf_range(new, t, rnd(t))
        slack = self.tq(b) + ABS_TOL
        self.p.expect(fa <= b + slack and fb >= a - slack,
                      f"update-target: F_new(new target) in [{fa!r}, {fb!r}] misses EDU_new [{a!r}, {b!r}]")
        old_p = num(d["old_exceed_prob"])
        ref = 1.0 - self.o.cdf(old, target)
        self.p.expect(abs(old_p - ref) <= rnd(old_p) + ABS_TOL, f"update-target: old exceedance {old_p!r} vs {ref!r}")
        self.bracket(new, t, num(d["new_exceed_prob"]), rnd(num(d["new_exceed_prob"])) + ABS_TOL,
                     "update-target: new exceedance = 1 - F_new(new target)", complement=True)

    def check_delegate(self) -> None:
        d = self.doc
        names = list(self.lotteries)
        util = self.scenario["utilities"][0]
        refs = [self.o.eu(self.lotteries[n], util) for n in names]
        best = max(refs)
        principal = names.index(d["principal_choice"])
        self.p.expect(refs[principal] >= best - 2 * self.tq(best),
                      f"delegate: principal choice {d['principal_choice']} is not the mpmath EU argmax")
        self.p.expect(d["aspiration_choice"] == d["principal_choice"], "delegate: aspiration choice differs from the EU argmax")
        fractile = float(self.opts.get("--fractile", 0.5))
        seen = set()
        for rule in d["rules"]:
            tag = rule["rule"]
            seen.add(tag)
            targets = [num(t) for t in rule["targets"]]
            exceed = [num(e) for e in rule["exceedance"]]
            for n, t, e, ref in zip(names, targets, exceed, refs):
                lot = self.lotteries[n]
                label = f"delegate {tag} {n}"
                self.bracket(lot, t, e, rnd(e) + ABS_TOL, f"{label}: exceedance = 1 - F(target)", complement=True)
                if tag == "aspiration_equivalent":
                    self.p.expect(abs(e - ref) <= self.tq(ref) + self.tq(1 - ref) + rnd(e) + ABS_TOL,
                                  f"{label}: exceedance {e!r} vs mpmath EU {ref!r}")
                elif tag == "certain_equivalent":
                    self.bracket(util, t, ref, self.tq(ref) + ABS_TOL, f"{label}: U(target) = mpmath EU")
                elif tag == "fractile":
                    self.bracket(lot, t, fractile, ABS_TOL, f"{label}: F(target) = fractile")
            agent = names.index(rule["agent_choice"])
            self.p.expect(exceed[agent] >= max(exceed) - 2 * rnd(max(exceed)), f"delegate {tag}: agent choice is not the argmax")
            self.p.expect(rule["agrees_with_principal"] == (agent == principal), f"delegate {tag}: agreement flag wrong")
            if tag == "aspiration_equivalent":
                self.p.expect(agent == principal, "delegate: the aspiration rule does not pick the EU argmax")
        self.p.expect(seen == {"fractile", "certain_equivalent", "aspiration_equivalent"}, f"delegate: rules {sorted(seen)}")

    def grid_differences(self, A: dict, B: dict) -> tuple[np.ndarray, np.ndarray]:
        """A - B on the documented grid: grid points evenly spaced over the
        domain, joined with both curves' kinks."""
        n = int(self.opts.get("--grid", 2048))
        xs = np.linspace(self.lo, self.hi, n)
        kinks = sorted(set(self.o.curve(A).kinks + self.o.curve(B).kinks))
        if kinks:
            xs = np.unique(np.concatenate([xs, np.asarray(kinks)]))
        ca, cb = self.o.curve(A), self.o.curve(B)
        diff = np.array([float(ca.cdf(x) - cb.cdf(x)) for x in xs])
        return xs, diff

    def verdict(self, printed: dict, diff: np.ndarray, tol: float, label: str) -> None:
        mv = num(printed["max_violation"])
        ref = max(float(diff.max()), 0.0)
        self.p.expect(abs(mv - ref) <= rnd(mv) + ABS_TOL, f"{label}: max violation {mv!r} vs {ref!r}")
        strict = bool((diff < -tol - ABS_TOL).any())
        unsure = bool((np.abs(diff + tol) <= ABS_TOL).any()) or abs(ref - tol) <= ABS_TOL
        if not unsure:
            self.p.expect(printed["dominates"] == (ref <= tol and strict), f"{label}: verdict {printed['dominates']} is wrong")

    def check_dominance(self) -> None:
        d = self.doc
        A, B = self.utilities[d["first"]], self.utilities[d["second"]]
        xs, diff = self.grid_differences(A, B)
        self.verdict(d["first_order"], diff, GRID_TOL, "first-order")
        steps = 0.5 * (diff[1:] + diff[:-1]) * np.diff(xs)
        running = np.concatenate([[0.0], np.cumsum(steps)])
        self.verdict(d["second_order"], running, GRID_TOL * max(1.0, self.hi - self.lo), "second-order")
        names = list(self.lotteries)
        if d["first_order"]["dominates"] and names:
            imp = d["implications"]
            tol = 2.0 * self.rel
            rows = imp["per_lottery"]
            self.p.expect([r["lottery"] for r in rows] == names, "dominance: implication rows not in scenario order")
            holds = num(imp["mean_margin"]) >= -tol
            for r in rows:
                margins = [num(r[k]) for k in ("edu_margin", "ae_margin", "eu_margin")]
                holds = holds and min(margins) >= -tol
                lot = self.lotteries[r["lottery"]]
                eu_a, eu_b = self.o.eu(lot, A), self.o.eu(lot, B)
                edu_a, edu_b = self.o.edu(lot, A), self.o.edu(lot, B)
                em, dm = num(r["eu_margin"]), num(r["edu_margin"])
                self.p.expect(abs(em - (eu_b - eu_a)) <= self.tq(eu_a) + self.tq(eu_b) + rnd(em),
                              f"dominance {r['lottery']}: eu margin {em!r} vs mpmath {eu_b - eu_a!r}")
                self.p.expect(abs(dm - (edu_a - edu_b)) <= self.tq(edu_a) + self.tq(edu_b) + rnd(dm),
                              f"dominance {r['lottery']}: edu margin {dm!r} vs mpmath {edu_a - edu_b!r}")
            self.p.expect(imp["all_hold"] == holds, "dominance: all_hold disagrees with the printed margins")
            (ma, _), (mb, _) = self.o.mean_var(A), self.o.mean_var(B)
            mm = num(imp["mean_margin"])
            self.p.expect(abs(mm - (ma - mb)) <= self.tq(ma) + self.tq(mb) + rnd(mm),
                          f"dominance: mean margin {mm!r} vs mpmath {ma - mb!r}")
        if A["kind"] == B["kind"] == "exponential_normalized" and names:
            chains = d["exponential_chain"]
            self.p.expect([c["lottery"] for c in chains] == names, "dominance: chain rows not in scenario order")
            flat, steep = sorted((A, B), key=lambda u: u["gamma"])
            for c in chains:
                label = f"chain {c['lottery']}"
                self.p.expect(num(c["pointwise_margin"]) >= -ABS_TOL, f"{label}: pointwise margin negative")
                self.p.expect(num(c["eu_margin"]) >= -2 * self.tq(1.0), f"{label}: eu margin negative")
                lot = self.lotteries[c["lottery"]]
                eu_f, eu_s = self.o.eu(lot, flat), self.o.eu(lot, steep)
                em = num(c["eu_margin"])
                self.p.expect(abs(em - (eu_s - eu_f)) <= self.tq(eu_f) + self.tq(eu_s) + rnd(em),
                              f"{label}: eu margin {em!r} vs mpmath {eu_s - eu_f!r}")

    def check_approx(self) -> None:
        pairs = self.doc["pairs"]
        expected = [(f, u) for f in self.lotteries for u in self.utilities]
        self.p.expect([(c["lottery"], c["utility"]) for c in pairs] == expected, "approx: pairs not in scenario order")
        for c in pairs:
            lot, util = self.lotteries[c["lottery"]], self.utilities[c["utility"]]
            label = f"approx {c['lottery']}/{c['utility']}"
            v = {k: num(x) for k, x in c.items() if k not in ("lottery", "utility", "series_terms", "series_diverging")}
            ref = self.o.eu(lot, util)
            self.bracket(util, v["ce_exact"], ref, self.tq(ref) + ABS_TOL, f"{label}: U(ce_exact) = mpmath EU")
            self.bracket(lot, v["ae_exact"], ref, self.tq(ref) + self.tq(1 - ref) + ABS_TOL,
                         f"{label}: 1 - F(ae_exact) = mpmath EU", complement=True)
            for side, curve in (("lottery", lot), ("utility", util)):
                m, var = self.o.mean_var(curve)
                pm, pv = v[f"{side}_mean"], v[f"{side}_var"]
                self.p.expect(abs(pm - m) <= self.tq(m) + rnd(pm), f"{label}: {side} mean {pm!r} vs mpmath {m!r}")
                m2 = var + m * m
                bound = self.tq(m2) + 2 * abs(m) * self.tq(m) + rnd(pv) + 1e-15 * m2
                self.p.expect(abs(pv - var) <= bound, f"{label}: {side} variance {pv!r} vs mpmath {var!r}")
            rt = _closed_tolerance(util, v["lottery_mean"])
            if rt is not None:
                self.p.expect(_close(v["risk_tolerance"], rt, rnd(rt) + rnd(v["lottery_mean"])),
                              f"{label}: risk tolerance {v['risk_tolerance']!r} vs {rt!r}")
            st = _closed_tolerance(lot, None)
            if st is not None:
                self.p.expect(_close(v["spread_tolerance"], st, rnd(st)), f"{label}: spread tolerance {v['spread_tolerance']!r} vs {st!r}")
            for kind, mean_key, var_key, tol_key in (("ce", "lottery_mean", "lottery_var", "risk_tolerance"),
                                                      ("ae", "utility_mean", "utility_var", "spread_tolerance")):
                m, var, t = v[mean_key], v[var_key], v[tol_key]
                term = 0.0 if math.isinf(t) else -0.5 * var / t
                approx = v[f"{kind}_approx"]
                slack = rnd(approx) + rnd(m) + 3 * rnd(term) + 1e-15 * abs(m)
                self.p.expect(abs(approx - (m + term)) <= slack, f"{label}: {kind}_approx {approx!r} != {m + term!r}")
                prem = v[f"{kind}_premium"]
                self.p.expect(abs(prem - (m - approx)) <= rnd(prem) + rnd(m) + rnd(approx) + 1e-15 * abs(m),
                              f"{label}: {kind}_premium {prem!r} != mean - approx")
            has_series = lot["kind"] == "exponential_normalized" and float(lot["gamma"]) > 0
            self.p.expect(has_series == ("ae_series" in v), f"{label}: cumulant series present = {'ae_series' in v}")
            if has_series:
                lam = float(lot["gamma"])
                cf = v["ae_closed_form"]
                ref_cf = self.o.exp_closed_ae(lot, util)
                # lo - ln(E)/lam moves by tq(E)/(lam E) when E does
                e = math.exp(-lam * (ref_cf - self.lo))
                bound = self.tq(e) / (lam * e) + rnd(cf)
                self.p.expect(abs(cf - ref_cf) <= bound, f"{label}: closed form {cf!r} vs mpmath {ref_cf!r}")
                terms = [num(t) for t in c["series_terms"]]
                total = v["ae_series"]
                self.p.expect(abs(total - (self.lo + sum(terms))) <= rnd(total) + sum(rnd(t) for t in terms) + 1e-15 * abs(self.lo),
                              f"{label}: series {total!r} is not lo + the sum of its terms")
                k1 = v["utility_mean"] - self.lo
                self.p.expect(abs(terms[0] - k1) <= rnd(terms[0]) + rnd(v["utility_mean"]) + 1e-15 * abs(self.lo),
                              f"{label}: first series term is not the utility mean")
                if len(terms) > 1:
                    t2 = -lam * v["utility_var"] / 2
                    self.p.expect(abs(terms[1] - t2) <= rnd(terms[1]) + 2 * rnd(t2), f"{label}: second series term is not -lam var / 2")


def _close(printed: float, ref: float, slack: float) -> bool:
    if math.isinf(ref) or math.isinf(printed):
        return printed == ref
    return abs(printed - ref) <= slack


def _closed_tolerance(curve: dict, x):
    """-C'/C'' (utility) or -c/c' (lottery) where the curve has a closed
    form: 1/gamma for exponentials, infinite for straight lines, wealth +
    x for log wealth (utility side only). None elsewhere."""
    kind = curve["kind"]
    if kind == "exponential_normalized":
        return 1.0 / float(curve["gamma"])
    if kind in ("linear", "uniform"):
        return math.inf
    if kind == "log_wealth" and x is not None:
        return float(curve["w"]) + x
    return None


def _saddle_facts(eu: list[list[float]], rows: list[int], cols: list[int]) -> dict:
    """Saddle structure of the printed EU matrix restricted to rows x cols.

    possible: cells that are a row minimum and a column maximum within the
    saddle tolerance plus the printed rounding (the program may call them
    saddles); clear: cells that are saddles even after giving the
    rounding away (the program must call them saddles).
    """
    row_min = {i: min(eu[i][j] for j in cols) for i in rows}
    col_max = {j: max(eu[i][j] for i in rows) for j in cols}
    possible, clear = set(), []
    for i in rows:
        for j in cols:
            v = eu[i][j]
            slack = 2 * ROUND * max(abs(v), abs(row_min[i]), abs(col_max[j]))
            if v <= row_min[i] + SADDLE_TOL + slack and v >= col_max[j] - SADDLE_TOL - slack:
                possible.add((i, j))
                if v <= row_min[i] + SADDLE_TOL - slack and v >= col_max[j] - SADDLE_TOL + slack:
                    clear.append((i, j))
    # clear cells are listed in position order: the program returns the
    # first saddle it meets scanning row by row
    clear = [(rows.index(i), cols.index(j), i, j) for i, j in clear]
    clear.sort()
    return {
        "maximin": max(row_min.values()),
        "minimax": min(col_max.values()),
        "possible": possible,
        "clear": [(i, j) for _, _, i, j in clear],
    }
