"""Every command on input where some integral or equivalent fails: a step
or singular curve second in its list, so at least one job comes before
it. Each run's exit code and stderr are pinned in data/failing_cli.json,
so a change to how batches order or read their jobs cannot move the
error a command reports, or turn a refusal into a result. Regenerate
(PYTHONPATH=src python tests/test_failing_input.py) only for an intended
change of outcomes."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from aspeq.cli import COMMANDS, main

PINS = Path(__file__).parent / "data" / "failing_cli.json"

# the smooth curve each list holds second unless the bad curve is there
SMOOTH_LOTTERY = {"name": "tri", "kind": "triangular", "mode": 0.3}
SMOOTH_UTILITY = {"name": "exp4", "kind": "exponential_normalized", "gamma": 4.0}
BAD = {
    "step_lottery": ("lotteries", {"name": "bad", "kind": "step", "x0": 0.4}),
    "singular_lottery": ("lotteries", {"name": "bad", "kind": "scaled_beta", "alpha": 0.5, "beta": 2.0}),
    "step_utility": ("utilities", {"name": "bad", "kind": "step", "x0": 0.4}),
    "singular_utility": ("utilities", {"name": "bad", "kind": "scaled_beta", "alpha": 0.5, "beta": 2.0}),
}
TOLS = {"default": [], "1e-3": ["--tol", "1e-3"]}


def scenario(command, bad):
    """Three lotteries and three utilities on [0, 1], the bad curve second
    in its list; sweep takes the second lottery alone."""
    where, curve = BAD[bad]
    lotteries = [
        {"name": "beta", "kind": "scaled_beta", "alpha": 2.0, "beta": 8.0},
        curve if where == "lotteries" else SMOOTH_LOTTERY,
        {"name": "gauss", "kind": "truncated_gaussian", "mu": 0.6, "sigma": 0.2},
    ]
    utilities = [
        {"name": "exp1", "kind": "exponential_normalized", "gamma": 1.0},
        curve if where == "utilities" else SMOOTH_UTILITY,
        {"name": "log", "kind": "log_wealth", "w": 0.5},
    ]
    second = lotteries[1]["name"]
    return {
        "domain": {"lo": 0.0, "hi": 1.0},
        "lotteries": lotteries[1:2] if command == "sweep" else lotteries,
        "utilities": utilities,
        "gammas": [-2.0, 0.0, 3.0],
        "target": 0.3,
        "lottery": second,
        "old_lottery": "beta",
        "new_lottery": second,
    }


def outcome(tmp_path, command, bad, tol):
    """Exit code and stderr of the command run in process."""
    path = tmp_path / f"{command}__{bad}.json"
    path.write_text(json.dumps(scenario(command, bad)), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--scenario", str(path), *TOLS[tol]], stdout=io.StringIO())
    return {"exit": code, "stderr": err.getvalue()}


CASES = [(command, bad, tol) for command in COMMANDS for bad in BAD for tol in TOLS]


def _key(command, bad, tol):
    return f"{command}/{bad}/{tol}"


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command,bad,tol", CASES, ids=[_key(*case) for case in CASES])
def test_outcome_is_pinned(tmp_path, pins, command, bad, tol):
    assert outcome(tmp_path, command, bad, tol) == pins[_key(command, bad, tol)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {_key(*case): outcome(Path(tmp), *case) for case in CASES}
    PINS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
