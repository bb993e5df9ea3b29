"""Byte-for-byte CLI output on the bundled fixtures.

tests/golden/ holds stdout, CSV and JSON for every (command, fixture)
pair that exits 0. Each test runs main in-process on one pair and
compares all three outputs exactly, so any change in formatting, row
order or rounding shows up here.

To regenerate after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
from pathlib import Path

import pytest

import aspeq
from aspeq.cli import main

FIXTURES = Path(aspeq.__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

# the (command, bundled fixture) pairs that exit 0
PAIRS = (
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
SUFFIXES = ("out", "csv", "json")


def render(command: str, fixture: str, workdir: Path) -> dict[str, bytes]:
    """stdout, CSV and JSON of one run, keyed by golden-file suffix."""
    csv_path, json_path = workdir / "out.csv", workdir / "out.json"
    buf = io.StringIO()
    argv = [command, "--scenario", str(FIXTURES / f"{fixture}.json")]
    code = main([*argv, "--csv", str(csv_path), "--json", str(json_path)], stdout=buf)
    assert code == 0, f"{command} {fixture} exited {code}"
    return {
        "out": buf.getvalue().encode("utf-8"),
        "csv": csv_path.read_bytes(),
        "json": json_path.read_bytes(),
    }


@pytest.mark.parametrize("command,fixture", PAIRS, ids=[f"{c}-{f}" for c, f in PAIRS])
def test_output_matches_golden(command, fixture, tmp_path):
    got = render(command, fixture, tmp_path)
    for suffix in SUFFIXES:
        want = (GOLDEN / f"{command}__{fixture}.{suffix}").read_bytes()
        assert got[suffix] == want, f"{command} {fixture}: {suffix} differs from golden"


def test_golden_set_is_exactly_the_pairs():
    expected = {f"{c}__{f}.{s}" for c, f in PAIRS for s in SUFFIXES}
    assert {p.name for p in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command, fixture in PAIRS:
            for suffix, data in render(command, fixture, Path(tmp)).items():
                (GOLDEN / f"{command}__{fixture}.{suffix}").write_bytes(data)
