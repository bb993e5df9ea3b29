"""The benchmark's three workloads: the scenario files each one runs and
the operations of one round.

An operation is one `aspeq <command>` invocation. A round is the
workload's whole operation list; runs repeat whole rounds, so every run
attempts the same operations in the same proportions whatever its length.

numerics.integrate misses its requested tolerance on a few cells in ten
thousand (see the README). A scenario drawn afresh per seed would
therefore fail its checks on some seeds and not on others, and a run's
work would vary with the seed. So the two generated workloads use fixed
curve sets, written down as rules and never screened against the
program's results; the seed sets the order of the rows and columns
(matrix-mixed) or of the operations (target-solve). Every cell of every
operation is checked, so a verdict is the same on every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from oracle import MpCurve

WORKLOADS = ("fixtures-cli", "matrix-mixed", "target-solve")

# the (command, bundled fixture) pairs that exit 0, in run order
FIXTURE_OPS = (
    ("eval", "paper_sec2"),
    ("sweep", "paper_sec2"),
    ("matrix", "paper_sec2"),
    ("allocate", "paper_sec2"),
    ("approx", "paper_sec2"),
    ("eval", "table1"),
    ("matrix", "table1"),
    ("dominance", "table1"),
    ("approx", "table1"),
    ("eval", "table2"),
    ("matrix", "table2"),
    ("allocate", "table2"),
    ("dominance", "table2"),
    ("approx", "table2"),
    ("delegate", "table2"),
    ("update-target", "paper_sec4"),
    ("solve-gamma", "paper_sec4"),
    ("eval", "paper_sec7"),
    ("matrix", "paper_sec7"),
    ("allocate", "paper_sec7"),
    ("approx", "paper_sec7"),
)

DOMINANCE_LARGE_GRID = 8192
SWEEP_GRID = 41


@dataclass(frozen=True)
class Op:
    """One CLI invocation. argv omits --csv and --json, which the runner
    adds with per-operation paths."""

    name: str
    command: str
    scenario: str
    extra: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        return [self.command, "--scenario", self.scenario, *self.extra]


def _r6(x: float) -> float:
    """6 significant digits: readable, and exact through a JSON round trip."""
    return float(f"{x:.6g}")


def _named(prefix: str, curves: list[dict]) -> list[dict]:
    return [{"name": f"{prefix}{i:02d}_{c['kind']}", **c} for i, c in enumerate(curves)]


def _write(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    return path


# matrix-mixed: a fixed catalog on [-40, 260], written down as a rule
# (parameters at even steps across each kind's range), never screened
# against the program's results
CATALOG_LO, CATALOG_HI = -40.0, 260.0


def _catalog() -> tuple[list[dict], list[dict]]:
    lo, span = CATALOG_LO, CATALOG_HI - CATALOG_LO

    def at(frac: float) -> float:
        return round(lo + span * frac, 6)

    lotteries = [
        # alpha in (1, 2): bounded density whose derivative blows up at lo
        *({"kind": "scaled_beta", "alpha": a, "beta": b} for a, b in ((1.2, 3), (1.5, 2), (1.8, 5), (1.35, 1.6))),
        *({"kind": "scaled_beta", "alpha": a, "beta": b} for a, b in ((2.5, 6), (4, 4), (7, 3), (9, 8))),
        *({"kind": "triangular", "mode": at(f)} for f in (0.12, 0.27, 0.73, 0.88)),
        # two narrow bells (sample hints), two wide ones with the centre off the domain
        *({"kind": "truncated_gaussian", "mu": at(m), "sigma": round(span * s, 6)}
          for m, s in ((0.3, 0.03), (0.65, 0.07), (-0.1, 0.5), (0.8, 1.0))),
        *({"kind": "piecewise_linear", "knots": [[lo, 0.0]] + [[at(x), y] for x, y in ks] + [[CATALOG_HI, 1.0]]}
          for ks in ([(0.1, 0.2), (0.5, 0.6)], [(0.25, 0.1), (0.4, 0.5), (0.9, 0.95)],
                     [(0.05, 0.3), (0.3, 0.35), (0.6, 0.8), (0.8, 0.9)], [(0.45, 0.05), (0.55, 0.9)])),
    ]
    utilities = [
        # |gamma| * span below 4, then on the sample-hint ladder (above 16)
        *({"kind": "exponential_normalized", "gamma": round(gs / span, 9)}
          for gs in (0.6, -1.2, 1.8, -2.4, 3.0, -3.5, 3.9, 17, -20, 24, -28, 33, -38, 44)),
        *({"kind": "log_wealth", "w": round(-lo + span * f, 6)} for f in (0.05, 0.2, 0.6, 1.5)),
        {"kind": "linear"},
        {"kind": "linear"},
    ]
    return _named("f", lotteries), _named("u", utilities)


def matrix_mixed_scenario(seed: int) -> dict:
    """The 20 x 20 catalog, rows and columns in a seeded order."""
    lotteries, utilities = _catalog()
    rng = random.Random(seed)
    rng.shuffle(lotteries)
    rng.shuffle(utilities)
    return {
        "domain": {"lo": CATALOG_LO, "hi": CATALOG_HI, "unit": "$"},
        "lotteries": lotteries,
        "utilities": utilities,
    }


def build(workload: str, seed: int, root: str, outdir: str) -> list[Op]:
    """Write the workload's scenario files under outdir and return one
    round of operations. root is the checkout the fixtures live in."""
    if workload == "fixtures-cli":
        fx = os.path.join(root, "src", "aspeq", "fixtures")
        return [Op(f"{c}:{f}", c, os.path.join(fx, f + ".json")) for c, f in FIXTURE_OPS]
    if workload == "matrix-mixed":
        path = _write(os.path.join(outdir, "matrix.json"), matrix_mixed_scenario(seed))
        return [Op(f"{c}:matrix", c, path) for c in ("eval", "matrix", "allocate")]
    if workload == "target-solve":
        return _target_solve(seed, outdir)
    raise ValueError(f"unknown workload {workload!r}")


# target-solve: a fixed pool of ten lotteries on [0, 200], written down
# as a rule like the matrix catalog
POOL_LO, POOL_HI = 0.0, 200.0


def _pool() -> list[dict]:
    span = POOL_HI - POOL_LO
    return _named("f", [
        {"kind": "scaled_beta", "alpha": 1.4, "beta": 3.0},
        {"kind": "scaled_beta", "alpha": 5.0, "beta": 2.5},
        {"kind": "triangular", "mode": 40.0},
        {"kind": "triangular", "mode": 150.0},
        {"kind": "truncated_gaussian", "mu": 90.0, "sigma": 10.0},
        {"kind": "truncated_gaussian", "mu": 140.0, "sigma": 120.0},
        {"kind": "piecewise_linear", "knots": [[POOL_LO, 0.0], [40.0, 0.1], [100.0, 0.6], [160.0, 0.7], [POOL_HI, 1.0]]},
        {"kind": "exponential_normalized", "gamma": 4.0 / span},
        {"kind": "log_wealth", "w": 60.0},
        {"kind": "uniform"},
    ])


def _target_solve(seed: int, outdir: str) -> list[Op]:
    """One round: 12 solve-gamma, 3 update-target, 2 sweep, 1 delegate,
    2 dominance and 1 approx operations, in a seeded order."""
    lo, hi, pool = POOL_LO, POOL_HI, _pool()
    span = hi - lo
    domain = {"lo": lo, "hi": hi, "unit": "$"}
    by_name = {c["name"]: c for c in pool}
    ops: list[Op] = []

    def target_at(curve: dict, p: float) -> float:
        return _r6(MpCurve(curve, lo, hi).quantile(p))

    def scenario(tag: str, obj: dict) -> str:
        return _write(os.path.join(outdir, f"{tag}.json"), {"domain": domain, **obj})

    # solve-gamma: four lottery kinds, targets across each one's quantiles
    for name in ("f00_scaled_beta", "f02_triangular", "f04_truncated_gaussian", "f06_piecewise_linear"):
        for level in (0.2, 0.5, 0.8):
            tag = f"solve_{name}_{int(level * 100)}"
            path = scenario(tag, {"lotteries": pool, "lottery": name, "target": target_at(by_name[name], level)})
            ops.append(Op(f"solve-gamma:{tag}", "solve-gamma", path))
    # update-target: carry a curvature from one lottery to another
    for k, (old, new) in enumerate(((0, 1), (2, 3), (5, 6))):
        tag = f"update_{k}"
        path = scenario(tag, {"lotteries": pool, "old_lottery": pool[old]["name"], "new_lottery": pool[new]["name"],
                              "target": target_at(pool[old], 0.5)})
        ops.append(Op(f"update-target:{tag}", "update-target", path))
    # sweep: one lottery across a symmetric curvature range on a fine grid
    for k, idx in enumerate((1, 4)):
        tag = f"sweep_{k}"
        path = scenario(tag, {"lotteries": [pool[idx]], "gamma_range": [-15.0 / span, 15.0 / span]})
        ops.append(Op(f"sweep:{tag}", "sweep", path, ("--grid", str(SWEEP_GRID))))
    # delegate: every lottery under one exponential utility
    util = {"name": "u_delegate", "kind": "exponential_normalized", "gamma": 3.0 / span}
    path = scenario("delegate", {"lotteries": pool, "utilities": [util]})
    ops.append(Op("delegate:pool", "delegate", path))
    # dominance: the flatter exponential first, so the implications run
    utils = [
        {"name": "u_flat", "kind": "exponential_normalized", "gamma": -1.0 / span},
        {"name": "u_steep", "kind": "exponential_normalized", "gamma": 2.0 / span},
    ]
    path = scenario("dominance", {"lotteries": pool, "utilities": utils})
    ops.append(Op("dominance:default", "dominance", path))
    ops.append(Op("dominance:large", "dominance", path, ("--grid", str(DOMINANCE_LARGE_GRID))))
    # approx: an exponential lottery so the cumulant series runs
    path = scenario("approx", {
        "lotteries": [pool[7], pool[8]],
        "utilities": [
            {"name": "u_exp", "kind": "exponential_normalized", "gamma": 2.5 / span},
            {"name": "u_log", "kind": "log_wealth", "w": 100.0},
        ],
    })
    ops.append(Op("approx:pairs", "approx", path))
    random.Random(seed).shuffle(ops)
    return ops
