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
        code, _ = run("eval", "--scenario", path, "--tol", "2.0")
        assert code == 2
        assert "--tol" in capsys.readouterr().err
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

    def test_grid_flag(self, tmp_path):
        obj = dict(BASIC, gamma_range=[-1.0, 1.0])
        path = write_scenario(tmp_path, obj)
        code, text = run("sweep", "--scenario", path, "--grid", "5")
        assert code == 0
        rows = [l for l in text.splitlines() if l and not l.startswith("gamma")]
        assert len(rows) == 5
        assert run("sweep", "--scenario", path, "--grid", "1")[0] == 2

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

    def test_grid_minimum(self, tmp_path):
        path = write_scenario(tmp_path, self.SCEN)
        assert run("dominance", "--scenario", path, "--grid", "10")[0] == 2

    def test_needs_two_utilities(self, tmp_path):
        code, _ = run("dominance", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 2


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

    def test_terms_flag(self, tmp_path):
        path = write_scenario(tmp_path, self.SCEN)
        code, text = run("approx", "--scenario", path, "--terms", "3")
        assert code == 0
        assert "cumulant series (3 terms)" in text
        assert run("approx", "--scenario", path, "--terms", "9")[0] == 2

    def test_no_series_for_other_lotteries(self, tmp_path):
        code, text = run("approx", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 0
        assert "cumulant series" not in text

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

    def test_fractile_flag(self, tmp_path):
        path = write_scenario(tmp_path, self.SCEN)
        code, text = run("delegate", "--scenario", path, "--fractile", "0.25")
        assert code == 0
        assert "rule fractile(0.25):" in text
        assert run("delegate", "--scenario", path, "--fractile", "1.5")[0] == 2

    def test_needs_two_lotteries(self, tmp_path):
        code, _ = run("delegate", "--scenario", write_scenario(tmp_path, BASIC))
        assert code == 2


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
            # 3 lotteries x (implications + exponential chain) x 4
            ("dominance", "table2", 24),
            # bracket ends once each, the root iterations, the achieved check
            ("solve-gamma", "paper_sec4", 11),
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
            # the implications' pairs, A's and B's density moments, then
            # one exponential chain per lottery (1 in table1, 3 in table2)
            ("dominance", "table1", 4, 14),
            ("dominance", "table2", 6, 30),
            # 9 pairs x (exact CE, exact AE), and 6 curves' moments
            ("approx", "table2", 24, 36),
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
