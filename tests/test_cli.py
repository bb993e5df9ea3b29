"""Command-line behavior: exit codes, output forms, flag validation."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import aspeq
from aspeq.cli import main

FIXTURES = Path(aspeq.__file__).parent / "fixtures"


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


def refused(capsys, *argv):
    """stderr of a command line argparse refuses: exit 2, before any
    scenario is read."""
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def write_scenario(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


BASIC = {
    "domain": {"lo": 0.0, "hi": 1.0},
    "lotteries": [
        {"name": "beta23", "kind": "scaled_beta", "alpha": 2.0, "beta": 3.0}
    ],
    "utilities": [{"name": "exp2", "kind": "exponential_normalized", "gamma": 2.0}],
}


class TestParsing:
    def test_no_arguments_exits(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate", "--scenario", "x.json")
        assert exc.value.code == 2

    def test_scenario_flag_required(self):
        with pytest.raises(SystemExit) as exc:
            run("eval")
        assert exc.value.code == 2

    def test_missing_file_is_scenario_error(self, capsys):
        code, _ = run("eval", "--scenario", "/nonexistent/path.json")
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{", encoding="utf-8")
        code, _ = run("eval", "--scenario", str(p))
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestOneParserPerProcess:
    """main builds its parser once per process; runs after the first must
    not see anything an earlier run left on it."""

    def test_commands_in_turn_give_golden_bytes(self, tmp_path, capsys):
        from test_golden import GOLDEN, SUFFIXES, render

        for command, fixture in (("solve-gamma", "paper_sec4"), ("eval", "table2"), ("solve-gamma", "paper_sec4")):
            got = render(command, fixture, tmp_path)
            for suffix in SUFFIXES:
                assert got[suffix] == (GOLDEN / f"{command}__{fixture}.{suffix}").read_bytes()
        with pytest.raises(SystemExit):
            run("eval")
        first = capsys.readouterr().err
        with pytest.raises(SystemExit):
            run("eval")
        assert capsys.readouterr().err == first
        assert "the following arguments are required: --scenario" in first


class TestEval:
    def test_basic_table(self, tmp_path):
        code, text = run("eval", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 0
        assert "expected_utility" in text
        assert "beta23" in text and "exp2" in text
        assert "largest |EU + EDU - 1|" in text

    def test_published_comparison_flags_excess(self):
        code, text = run("eval", "--scenario", str(FIXTURES / "paper_sec2.json"))
        assert code == 0
        assert "published comparison:" in text
        assert "eu:tri_market:exp_003" in text
        # the published round-off sits outside its own +-0.001 band
        assert "DIFFERS" in text
        assert "warning:" in text

    def test_needs_both_sides(self, tmp_path, capsys):
        obj = dict(BASIC, utilities=[])
        code, _ = run("eval", "--scenario", write_scenario(tmp_path, obj))
        assert code == 2
        assert "utility" in capsys.readouterr().err

    def test_tol_flag_validated(self, tmp_path, capsys):
        path = write_scenario(tmp_path, BASIC)
        assert "argument --tol" in refused(capsys, "eval", "--scenario", path, "--tol", "2.0")
        assert run("eval", "--scenario", path, "--tol", "1e-6")[0] == 0


class TestSweep:
    def test_explicit_gammas(self, tmp_path):
        obj = dict(BASIC, gammas=[-1.0, 0.0, 2.0])
        code, text = run("sweep", "--scenario", write_scenario(tmp_path, obj))
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("gamma")]
        assert len(rows) == 3

    def test_range_defaults_to_21(self, tmp_path):
        obj = dict(BASIC, gamma_range=[-1.0, 1.0])
        code, text = run("sweep", "--scenario", write_scenario(tmp_path, obj))
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("gamma")]
        assert len(rows) == 21

    def test_grid_flag(self, tmp_path, capsys):
        obj = dict(BASIC, gamma_range=[-1.0, 1.0])
        path = write_scenario(tmp_path, obj)
        code, text = run("sweep", "--scenario", path, "--grid", "5")
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("gamma")]
        assert len(rows) == 5
        assert "argument --grid" in refused(capsys, "sweep", "--scenario", path, "--grid", "1")
        # checked while parsing, so explicit gammas do not excuse it
        path = write_scenario(tmp_path, dict(BASIC, gammas=[1.0]))
        assert "argument --grid" in refused(capsys, "sweep", "--scenario", path, "--grid", "1")

    @pytest.mark.parametrize(
        "source,message",
        [
            ({"gammas": [1.0, 600.0]}, "gammas[1]: |gamma|*span = 600.0 exceeds 500"),
            # the first grid point past the cap: 1 + 599 * 17/20
            ({"gamma_range": [1.0, 600.0]}, "gamma_range: |gamma|*span = 510.15 exceeds 500"),
        ],
    )
    def test_gamma_past_cap_is_bad_input(self, tmp_path, capsys, quadrature_batches, source, message):
        # refused while the gammas are read, before any quadrature
        code, text = run("sweep", "--scenario", write_scenario(tmp_path, dict(BASIC, **source)))
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"
        assert quadrature_batches == []

    def test_needs_gamma_source(self, tmp_path, capsys):
        code, _ = run("sweep", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_single_lottery_only(self, tmp_path):
        obj = dict(
            BASIC,
            gammas=[1.0],
            lotteries=BASIC["lotteries"]
            + [{"name": "u", "kind": "uniform"}],
        )
        code, _ = run("sweep", "--scenario", write_scenario(tmp_path, obj))
        assert code == 2


class TestUpdateTarget:
    def test_bundled_round_trip_passes(self):
        code, text = run("update-target", "--scenario", str(FIXTURES / "paper_sec4.json"))
        assert code == 0
        assert "PASS" in text
        assert "effective gamma:" in text
        assert "->" in text

    def test_missing_target(self, tmp_path, capsys):
        obj = dict(BASIC, old_lottery="beta23", new_lottery="beta23")
        code, _ = run("update-target", "--scenario", write_scenario(tmp_path, obj))
        assert code == 2
        assert "target" in capsys.readouterr().err


class TestMatrix:
    def test_bundled_table_has_saddle(self):
        code, text = run("matrix", "--scenario", str(FIXTURES / "table2.json"))
        assert code == 0
        for tag in ("EU", "EDU", "CE", "AE"):
            assert tag in text.splitlines()
        assert "pure saddle of the EU matrix" in text

    def test_no_pure_saddle(self, tmp_path):
        # each lottery does best under a different utility, and each
        # utility scores a different lottery higher: no cell is both its
        # column's maximum and its row's minimum
        obj = {
            "domain": {"lo": 0.0, "hi": 1.0},
            "lotteries": [
                {"name": "middle", "kind": "truncated_gaussian", "mu": 0.5, "sigma": 0.02},
                {"name": "ends", "kind": "piecewise_linear",
                 "knots": [[0.0, 0.0], [0.2, 0.5], [0.8, 0.5], [1.0, 1.0]]},
            ],
            "utilities": [
                {"name": "concave", "kind": "piecewise_linear",
                 "knots": [[0.0, 0.0], [0.45, 0.7], [1.0, 1.0]]},
                {"name": "edges", "kind": "piecewise_linear",
                 "knots": [[0.0, 0.0], [0.1, 0.5], [0.85, 0.5], [0.9, 1.0], [1.0, 1.0]]},
            ],
        }
        out = tmp_path / "matrix.json"
        code, text = run("matrix", "--scenario", write_scenario(tmp_path, obj), "--json", str(out))
        assert code == 0
        assert "no pure saddle: maximin 0.550505051 < minimax 0.59375" in text.splitlines()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["saddle"] is None
        assert doc["maximin"] < doc["minimax"]


class TestAllocate:
    def test_bundled_pairing(self):
        code, text = run("allocate", "--scenario", str(FIXTURES / "table2.json"))
        assert code == 0
        assert text.count("stage") >= 3
        assert "sum of certain equivalents" in text
        assert "sum of aspiration equivalents" in text

    def test_requires_square(self, tmp_path):
        obj = dict(
            BASIC,
            utilities=BASIC["utilities"]
            + [{"name": "lin", "kind": "linear"}],
        )
        code, _ = run("allocate", "--scenario", write_scenario(tmp_path, obj))
        assert code == 2


class TestDominance:
    SCEN = {
        "domain": {"lo": 0.0, "hi": 1.0},
        "lotteries": [{"name": "tri", "kind": "triangular"}],
        "utilities": [
            {"name": "flat", "kind": "exponential_normalized", "gamma": 1.0},
            {"name": "steep", "kind": "exponential_normalized", "gamma": 3.0},
        ],
    }

    def test_exponential_pair_full_chain(self, tmp_path):
        code, text = run("dominance", "--scenario", write_scenario(tmp_path, self.SCEN))
        assert code == 0
        assert "first-order: flat dominates steep: yes" in text
        assert "all implications hold: yes" in text
        assert "exponential chain on tri" in text

    def test_explicit_pair_selection(self, tmp_path):
        obj = dict(self.SCEN, first="steep", second="flat")
        code, text = run("dominance", "--scenario", write_scenario(tmp_path, obj))
        assert code == 0
        assert "steep dominates flat: no" in text

    def test_grid_minimum(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCEN)
        assert "argument --grid" in refused(capsys, "dominance", "--scenario", path, "--grid", "10")

    def test_needs_two_utilities(self, tmp_path):
        code, _ = run("dominance", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 2

    @pytest.mark.parametrize("first,dominates", [("flat", True), ("steep", False)])
    def test_step_lottery_refused_either_way(self, tmp_path, capsys, first, dominates):
        # the implications meet the step lottery first when flat dominates
        # steep, the exponential chains when it does not; both refuse its
        # aspiration equivalent
        lotteries = [{"name": "tri", "kind": "triangular"}, {"name": "sure", "kind": "step", "x0": 0.4}]
        obj = dict(self.SCEN, lotteries=lotteries, first=first, second={"flat": "steep", "steep": "flat"}[first])
        path = write_scenario(tmp_path, obj)
        code, text = run("dominance", "--scenario", path)
        assert (code, text) == (3, "")
        assert capsys.readouterr().err == (
            "error: aspiration equivalent of a step lottery is degenerate; "
            "the lottery is the sure amount at its threshold\n"
        )
        obj["lotteries"] = lotteries[:1]
        code, text = run("dominance", "--scenario", write_scenario(tmp_path, obj))
        assert code == 0
        assert f"dominates {obj['second']}: {'yes' if dominates else 'no'}" in text


class TestApprox:
    SCEN = {
        "domain": {"lo": 0.0, "hi": 1.0},
        "lotteries": [
            {"name": "exp3", "kind": "exponential_normalized", "gamma": 3.0}
        ],
        "utilities": [{"name": "lin", "kind": "linear"}],
    }

    def test_series_block_for_exponential_lottery(self, tmp_path):
        code, text = run("approx", "--scenario", write_scenario(tmp_path, self.SCEN))
        assert code == 0
        assert "ce_exact" in text and "ae_exact" in text
        assert "cumulant series (6 terms)" in text

    def test_terms_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCEN)
        code, text = run("approx", "--scenario", path, "--terms", "3")
        assert code == 0
        assert "cumulant series (3 terms)" in text
        assert "argument --terms" in refused(capsys, "approx", "--scenario", path, "--terms", "9")

    def test_diverging_series_warned(self, tmp_path):
        # a lottery rate of 5 on [0, 3] against curvature 2 (acceptance 12)
        obj = {
            "domain": {"lo": 0.0, "hi": 3.0},
            "lotteries": [{"name": "exp5", "kind": "exponential_normalized", "gamma": 5.0}],
            "utilities": [{"name": "exp2", "kind": "exponential_normalized", "gamma": 2.0}],
        }
        code, text = run("approx", "--scenario", write_scenario(tmp_path, obj))
        assert code == 0
        assert "  warning: series terms grow past k=3, not converging" in text.splitlines()

    def test_no_series_for_other_lotteries(self, tmp_path):
        code, text = run("approx", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 0
        assert "cumulant series" not in text

    @pytest.mark.parametrize(
        "extra",
        [
            # the beta's mean, 0.4, sits on the piecewise utility's kink
            {"kind": "piecewise_linear", "knots": [[0.0, 0.0], [0.4, 0.7], [1.0, 1.0]]},
            # a density unbounded at 0, whose moments fail before the
            # batch's refusal of its AE job is read
            {"kind": "scaled_beta", "alpha": 0.5, "beta": 2.0},
            {"kind": "step", "x0": 0.5},
            {"kind": "log_wealth", "w": 0.3},
        ],
    )
    def test_one_batch_reads_as_the_pair_loop(self, tmp_path, capsys, monkeypatch, extra):
        # every pair's exact CE and AE come from one batch; integrating
        # each where it is read instead prints, and fails, the same
        import aspeq.cli
        from aspeq.duality import _pair_values

        scenario = {**BASIC, "lotteries": [*BASIC["lotteries"], {"name": "tri", "kind": "triangular"}]}
        scenario["utilities"] = [*BASIC["utilities"], {"name": "extra", **extra}]
        path = write_scenario(tmp_path, scenario)
        batched = run("approx", "--scenario", path), capsys.readouterr().err
        one_at_a_time = lambda jobs, spec: (_pair_values([job], spec)[0] for job in jobs)
        monkeypatch.setattr(aspeq.cli, "_pair_values", one_at_a_time)
        assert (run("approx", "--scenario", path), capsys.readouterr().err) == batched

    def test_moments_once_per_curve(self, monkeypatch):
        from aspeq.curves import Curve

        seen = []
        moments = Curve.density_moments

        def counting(curve, spec=None):
            seen.append(curve)
            return moments(curve, spec)

        monkeypatch.setattr(Curve, "density_moments", counting)
        code, _ = run("approx", "--scenario", str(FIXTURES / "table2.json"))
        assert code == 0
        # 3 lotteries and 3 utilities, where each of the 9 pairs used to ask twice
        assert len(seen) == 6


class TestSolveGamma:
    def test_achieves_target(self, tmp_path):
        obj = dict(BASIC, target=0.3)
        code, text = run("solve-gamma", "--scenario", write_scenario(tmp_path, obj))
        assert code == 0
        assert "effective gamma:" in text
        achieved = [l for l in text.splitlines() if "aspiration equivalent at" in l]
        assert achieved and abs(float(achieved[0].split()[-1]) - 0.3) < 1e-6

    def test_unreachable_target(self, tmp_path, capsys):
        obj = dict(BASIC, target=0.9999)
        code, _ = run("solve-gamma", "--scenario", write_scenario(tmp_path, obj))
        assert code == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e-3", "1e-6"])
    def test_same_gamma_as_update_target(self, tol):
        # --tol is the quadrature tolerance alone: the root's own
        # tolerance does not move with it
        path = str(FIXTURES / "paper_sec4.json")
        gammas = []
        for command in ("solve-gamma", "update-target"):
            code, text = run(command, "--scenario", path, "--tol", tol)
            assert code == 0
            gammas += [l for l in text.splitlines() if l.startswith("effective gamma:")]
        assert len(gammas) == 2 and gammas[0] == gammas[1]


class TestDelegate:
    SCEN = {
        "domain": {"lo": 0.0, "hi": 1.0},
        "lotteries": [
            {"name": "safe", "kind": "scaled_beta", "alpha": 5.0, "beta": 5.0},
            {"name": "wild", "kind": "scaled_beta", "alpha": 2.0, "beta": 2.0},
        ],
        "utilities": [{"name": "exp2", "kind": "exponential_normalized", "gamma": 2.0}],
    }

    def test_rules_listed(self, tmp_path):
        code, text = run("delegate", "--scenario", write_scenario(tmp_path, self.SCEN))
        assert code == 0
        assert "principal's choice by expected utility" in text
        assert "rule fractile(0.5):" in text
        assert "rule certain_equivalent:" in text
        assert "rule aspiration_equivalent:" in text

    def test_fractile_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path, self.SCEN)
        code, text = run("delegate", "--scenario", path, "--fractile", "0.25")
        assert code == 0
        assert "rule fractile(0.25):" in text
        assert "argument --fractile" in refused(capsys, "delegate", "--scenario", path, "--fractile", "1.5")

    def test_needs_two_lotteries(self, tmp_path):
        code, _ = run("delegate", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 2


class TestOptionSurface:
    """Each command's parser has the options that command reads, with
    their defaults, and refuses every other option."""

    READS = {
        "eval": {},
        "sweep": {"grid": 21},
        "update-target": {},
        "matrix": {},
        "allocate": {},
        "dominance": {"grid": 2048},
        "approx": {"terms": 6},
        "solve-gamma": {},
        "delegate": {"fractile": 0.5},
    }
    UNREAD = [
        (command, option)
        for command, reads in READS.items()
        for option in ("grid", "terms", "fractile")
        if option not in reads
    ]

    def test_options_and_defaults(self):
        from aspeq.cli import COMMANDS, _build_parser

        assert set(COMMANDS) == set(self.READS)
        settable = 0
        for command, reads in self.READS.items():
            args = vars(_build_parser().parse_args([command, "--scenario", "s.json"]))
            paths = {"scenario": "s.json", "csv": None, "json": None}
            assert args == {"command": command, **paths, "spec": None, **reads}
            settable += len(args) - 1
        assert settable == 40

    def test_unread_pairs(self):
        assert len(self.UNREAD) == 23

    @pytest.mark.parametrize("command,option", UNREAD)
    def test_unread_option_refused(self, capsys, command, option):
        err = refused(capsys, command, "--scenario", "never_read.json", f"--{option}", "3")
        assert f"unrecognized arguments: --{option} 3" in err


class TestMalformedScenario:
    """Input no other test sends, each refused with exit 2 and the place
    in the scenario it is wrong."""

    @pytest.mark.parametrize(
        "command,change,message",
        [
            ("eval", {"lotteries": ["beta23"]}, "lotteries[0]: expected an object, got str"),
            (
                "eval",
                {"utilities": [{"name": "pl", "kind": "piecewise_linear", "knots": "0 0 1 1"}]},
                "utilities[0].knots: expected a list of [x, value]",
            ),
            ("eval", {"utilities": {"name": "exp2"}}, "utilities: expected a list"),
            ("eval", {"domain": {"lo": 0.0, "hi": 1.0, "unit": 10}}, "domain.unit: expected a string"),
            ("sweep", {"gammas": []}, "gammas: expected a nonempty list of numbers"),
            ("sweep", {"gammas": 2.0}, "gammas: expected a nonempty list of numbers"),
            ("sweep", {"gamma_range": [1.0]}, "gamma_range: expected [first, last]"),
            # no lotteries key at all
            ("approx", {"lotteries": None}, "approx needs at least one lottery and one utility"),
        ],
    )
    def test_refused_with_its_place(self, tmp_path, capsys, command, change, message):
        code, text = run(command, "--scenario", write_scenario(tmp_path, {**BASIC, **change}))
        assert (code, text, capsys.readouterr().err) == (2, "", f"error: {message}\n")

    def test_option_value_that_does_not_convert(self, capsys):
        err = refused(capsys, "sweep", "--scenario", "never_read.json", "--grid", "abc")
        assert "argument --grid: expected an integer of at least 2, got 'abc'" in err


class TestExitCodes:
    def test_bare_value_error_is_a_bug_not_exit_3(self, tmp_path, monkeypatch):
        import aspeq.cli

        def broken(scenario, args):
            raise ValueError("a programming error")

        monkeypatch.setitem(aspeq.cli._HANDLERS, "eval", broken)
        with pytest.raises(ValueError, match="a programming error"):
            run("eval", "--scenario", write_scenario(tmp_path, BASIC))


class TestFileOutputs:
    def test_json_document(self, tmp_path):
        out = tmp_path / "result.json"
        code, _ = run(
            "eval",
            "--scenario",
            write_scenario(tmp_path, BASIC),
            "--json",
            str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["pairs"][0]["lottery"] == "beta23"
        assert doc["max_identity_error"] < 1e-8
        assert out.read_text(encoding="utf-8").endswith("\n")

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "result.csv"
        code, _ = run(
            "eval",
            "--scenario",
            write_scenario(tmp_path, BASIC),
            "--csv",
            str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("lottery,utility,expected_utility")
        assert len(lines) == 2

    def test_csv_reruns_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, BASIC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("eval", "--scenario", path, "--csv", str(a))[0] == 0
        assert run("eval", "--scenario", path, "--csv", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path, capsys):
        code, _ = run(
            "eval",
            "--scenario",
            write_scenario(tmp_path, BASIC),
            "--csv",
            str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestNumberValidation:
    """Malformed and non-finite numbers are bad input: exit 2, with the
    JSON path of the offending field. json reads NaN and Infinity."""

    @staticmethod
    def rejected(tmp_path, capsys, command, obj, path):
        code, text = run(command, "--scenario", write_scenario(tmp_path, obj))
        err = capsys.readouterr().err
        assert code == 2, err
        assert text == ""
        assert f"error: {path}:" in err

    def test_nan_curve_parameter(self, tmp_path, capsys):
        obj = dict(BASIC)
        obj["lotteries"] = [dict(BASIC["lotteries"][0], alpha=math.nan)]
        self.rejected(tmp_path, capsys, "eval", obj, "lotteries[0].alpha")

    def test_infinite_curve_parameter(self, tmp_path, capsys):
        obj = dict(BASIC, utilities=[{"name": "log", "kind": "log_wealth", "w": math.inf}])
        self.rejected(tmp_path, capsys, "eval", obj, "utilities[0].w")

    def test_nan_knot(self, tmp_path, capsys):
        knots = [[0.0, 0.0], [0.5, math.nan], [1.0, 1.0]]
        obj = dict(BASIC, lotteries=[{"name": "p", "kind": "piecewise_linear", "knots": knots}])
        self.rejected(tmp_path, capsys, "eval", obj, "lotteries[0].knots[1][1]")

    def test_infinite_domain(self, tmp_path, capsys):
        obj = dict(BASIC, domain={"lo": 0.0, "hi": math.inf})
        self.rejected(tmp_path, capsys, "eval", obj, "domain.hi")

    def test_nan_target(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, "solve-gamma", dict(BASIC, target=math.nan), "target")

    def test_null_in_gammas(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, "sweep", dict(BASIC, gammas=[1, None]), "gammas[1]")

    def test_infinite_gamma_range(self, tmp_path, capsys):
        obj = dict(BASIC, gamma_range=[0.0, math.inf])
        self.rejected(tmp_path, capsys, "sweep", obj, "gamma_range[1]")

    def test_string_published_value(self, tmp_path, capsys):
        obj = dict(BASIC, published=[{"key": "eu:beta23:exp2", "value": "abc"}])
        self.rejected(tmp_path, capsys, "eval", obj, "published[0].value")

    def test_nan_published_tolerance(self, tmp_path, capsys):
        entry = {"key": "eu:beta23:exp2", "value": 0.5, "tolerance": math.nan}
        self.rejected(tmp_path, capsys, "eval", dict(BASIC, published=[entry]), "published[0].tolerance")

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        text = json.dumps(BASIC).replace('"alpha": 2.0', '"alpha": 1' + "0" * 400)
        p.write_text(text, encoding="utf-8")
        code, out = run("eval", "--scenario", str(p))
        err = capsys.readouterr().err
        assert code == 2, err
        assert out == ""
        assert "error: lotteries[0].alpha:" in err

    def test_integer_too_long_to_read(self, tmp_path, capsys):
        p = tmp_path / "long.json"
        text = json.dumps(BASIC).replace('"alpha": 2.0', '"alpha": 1' + "0" * 5000)
        p.write_text(text, encoding="utf-8")
        code, _ = run("eval", "--scenario", str(p))
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_published_key_must_be_a_string(self, tmp_path, capsys):
        obj = json.loads((FIXTURES / "paper_sec4.json").read_text(encoding="utf-8"))
        obj["published"] = [{"key": ["eu"], "value": 0.5}]
        self.rejected(tmp_path, capsys, "solve-gamma", obj, "published[0].key")

    def test_published_checked_before_computing(self, tmp_path, capsys, quadrature_batches):
        entry = {"key": "eu:beta23:exp2", "value": 0.5, "tolerance": "wide"}
        self.rejected(tmp_path, capsys, "matrix", dict(BASIC, published=[entry]), "published[0].tolerance")
        assert quadrature_batches == []

    def test_published_value_checked_when_skipped(self, tmp_path, capsys):
        # an entry this command does not produce is still validated
        obj = dict(BASIC, published=[{"key": "no_such_key", "value": True}])
        self.rejected(tmp_path, capsys, "eval", obj, "published[0].value")


class TestIntegralsPerCommand:
    """Each (lottery, utility) pair is integrated once per command: one EU
    and one EDU at most, counted at each pair job handed to the lockstep
    batch. Each library call that reads several pairs is one batch."""

    @pytest.mark.parametrize(
        "command,fixture,integrals",
        [
            # 3 x 3 EU and EDU for the matrix; allocation reads its EU
            ("allocate", "table2", 18),
            # 3 lotteries, one EU and one EDU each
            ("delegate", "table2", 6),
            # 3 lotteries x A and B x EU and EDU, read by the implications
            # and the exponential chains alike
            ("dominance", "table2", 12),
            # bracket ends once each and the root iterations; the achieved
            # target reads the root's EDU
            ("solve-gamma", "paper_sec4", 10),
            # solve-gamma's root (its EDU gives the round trip) and the new
            # lottery's aspiration equivalent
            ("update-target", "paper_sec4", 11),
        ],
    )
    def test_integral_count(self, quadrature_batches, command, fixture, integrals):
        code, _ = run(command, "--scenario", str(FIXTURES / f"{fixture}.json"))
        assert code == 0
        assert sum(n for module, n in quadrature_batches if module == "duality") == integrals

    @pytest.mark.parametrize(
        "command,fixture,batches,jobs",
        [
            # desiderata_report: every lottery's EU and EDU
            ("delegate", "table2", 1, 6),
            # every lottery's pairs with A and B, read by the implications
            # and the exponential chains (1 lottery in table1, 3 in
            # table2), then A's and B's density moments
            ("dominance", "table1", 3, 10),
            ("dominance", "table2", 3, 18),
            # the 9 pairs' exact CE and AE in one batch, and 6 curves' moments
            ("approx", "table2", 7, 36),
        ],
    )
    def test_batch_count(self, quadrature_batches, command, fixture, batches, jobs):
        code, _ = run(command, "--scenario", str(FIXTURES / f"{fixture}.json"))
        assert code == 0
        assert len(quadrature_batches) == batches
        assert sum(n for _, n in quadrature_batches) == jobs


class TestIntegrandsAreBatched:
    """No integrand the package builds falls back to point-by-point calls:
    every one maps a node array to a value array."""

    @pytest.mark.parametrize(
        "command,fixture",
        [("eval", "table2"), ("allocate", "paper_sec2"), ("dominance", "table1"),
         ("approx", "paper_sec7"), ("delegate", "table2"), ("solve-gamma", "paper_sec4"),
         ("update-target", "paper_sec4"), ("sweep", "paper_sec2")],
    )
    def test_no_pointwise_fallback(self, monkeypatch, command, fixture):
        monkeypatch.setattr(aspeq.numerics, "_batched", _array_only)
        code, _ = run(command, "--scenario", str(FIXTURES / f"{fixture}.json"))
        assert code == 0

    def test_library_integrands(self, monkeypatch):
        # the ones no bundled fixture reaches
        from aspeq import ExponentialNormalized, ScaledBeta, ae_cumulant_series
        from aspeq.dominance import first_moment_by_equal_areas

        monkeypatch.setattr(aspeq.numerics, "_batched", _array_only)
        F, U = ExponentialNormalized(0.0, 1.0, gamma=2.0), ScaledBeta(0.0, 1.0, alpha=2.0, beta=3.0)
        ae_cumulant_series(F, U, 4)
        first_moment_by_equal_areas(U)


def _array_only(f):
    """Stand-in for numerics._batched that refuses the pointwise path."""

    def call(xs):
        ys = f(xs)
        assert isinstance(ys, np.ndarray) and ys.shape == xs.shape, f
        return ys

    return call
