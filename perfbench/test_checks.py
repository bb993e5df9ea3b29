"""Tests of the benchmark's output checks themselves.

    python3 -m pytest perfbench/test_checks.py     (from a checkout root)
    python3 perfbench/test_checks.py

Real outputs of the bundled table2 scenario must pass; the same outputs
with one cell's EU moved by 1e-6, with two stages of the allocation
swapped, or with one CE moved one unit of its 9th digit past the check's
tolerance must each fail, and a failed check must count as a failed
operation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import ROUND, Checker  # noqa: E402
from run import tally  # noqa: E402

SCENARIO = os.path.join(ROOT, "src", "aspeq", "fixtures", "table2.json")


def _run(command: str) -> dict:
    import aspeq.cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        with contextlib.redirect_stderr(io.StringIO()):
            rc = aspeq.cli.main([command, "--scenario", SCENARIO, "--json", path], stdout=io.StringIO())
        assert rc == 0
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def _outputs() -> dict:
    return {c: _run(c) for c in ("eval", "matrix", "allocate")}


def _check(docs: dict) -> dict:
    checker = Checker()
    return {
        c: checker.check(f"{c}:table2", [c, "--scenario", SCENARIO], SCENARIO, docs[c])
        for c in ("eval", "matrix", "allocate")
    }


def test_real_outputs_pass():
    problems = _check(_outputs())
    assert problems == {"eval": [], "matrix": [], "allocate": []}


def test_eu_moved_by_1e6_fails():
    docs = _outputs()
    moved = copy.deepcopy(docs)
    moved["eval"]["pairs"][4]["expected_utility"] += 1e-6
    moved["matrix"]["eu"][1][1] += 1e-6
    problems = _check(moved)
    assert problems["eval"], "eval accepted an EU off by 1e-6"
    assert problems["matrix"], "matrix accepted an EU off by 1e-6"


def test_swapped_allocation_fails():
    docs = _outputs()
    swapped = copy.deepcopy(docs)
    stages = swapped["allocate"]["stages"]
    stages[0]["utility"], stages[1]["utility"] = stages[1]["utility"], stages[0]["utility"]
    assert _check(swapped)["allocate"], "allocate accepted a swapped pairing"


def test_ce_one_digit_past_tolerance_fails():
    docs = _outputs()
    checker = Checker()
    cell = docs["eval"]["pairs"][4]
    ce, eu = cell["certain_equivalent"], cell["expected_utility"]
    scenario = json.load(open(SCENARIO, encoding="utf-8"))
    utility = next(u for u in scenario["utilities"] if u["name"] == cell["utility"])
    density = float(checker.oracle(scenario).curve(utility).pdf(ce))
    # the check accepts EU within rounding(EU) + 1e-12 of U over
    # [CE - r, CE + r]; the true CE can sit r off the printed one
    r = ROUND * abs(ce)
    tolerance = 2 * r + (ROUND * abs(eu) + 1e-12) / density
    unit = 10.0 ** (math.floor(math.log10(abs(ce))) - 8)
    for sign in (1, -1):
        moved = copy.deepcopy(docs)
        moved["eval"]["pairs"][4]["certain_equivalent"] = ce + sign * (tolerance + unit)
        assert _check(moved)["eval"], f"eval accepted CE moved by {sign * (tolerance + unit)!r}"


def test_failed_check_counts_as_failed_operation():
    # two operations, three rounds; the second one's output fails its check
    attempted, failed = tally([True, False], [[0, 0, 0], [0, 0, 0]], [[True] * 3, [True] * 3])
    assert (attempted, failed) == (6, 3)
    # a repetition whose output differs from the first round fails alone
    attempted, failed = tally([True], [[0, 0, 0]], [[True, False, True]])
    assert (attempted, failed) == (3, 1)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
