"""Scenario JSON parsing: schema, mapping, and error paths."""

import json
import re
from pathlib import Path

import pytest

import aspeq
from aspeq import (
    CURVE_KINDS,
    PiecewiseLinear,
    Scenario,
    ScenarioError,
    Step,
    TruncatedGaussian,
    load_scenario,
    parse_scenario,
)

FIXTURES = Path(aspeq.__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"


def minimal(**extra):
    obj = {
        "domain": {"lo": 0.0, "hi": 1.0},
        "lotteries": [{"name": "u", "kind": "uniform"}],
        "utilities": [{"name": "lin", "kind": "linear"}],
    }
    obj.update(extra)
    return obj


class TestBundledFixtures:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_parses(self, name):
        sc = load_scenario(str(FIXTURES / name))
        assert isinstance(sc, Scenario)
        assert sc.lo < sc.hi
        assert sc.lotteries or sc.utilities

    def test_fixture_count(self):
        assert len(list(FIXTURES.glob("*.json"))) == 5

    def test_domain_and_names(self):
        sc = load_scenario(str(FIXTURES / "paper_sec2.json"))
        assert (sc.lo, sc.hi, sc.unit) == (0.0, 200.0, "$")
        assert sc.lottery_names() == ["tri_market"]
        assert sc.utility_names() == ["exp_003"]
        assert sc.utility("exp_003").gamma == 0.03

    def test_command_params_kept(self):
        sc = load_scenario(str(FIXTURES / "paper_sec2.json"))
        assert "gammas" in sc.params
        assert "published" in sc.params
        assert "domain" not in sc.params


class TestParamMapping:
    def test_gaussian_mu_sigma(self):
        obj = minimal(
            lotteries=[
                {"name": "g", "kind": "truncated_gaussian", "mu": 0.4, "sigma": 0.1}
            ]
        )
        c = parse_scenario(obj).lottery("g")
        assert isinstance(c, TruncatedGaussian)
        assert (c.center, c.scale) == (0.4, 0.1)

    def test_log_wealth_w(self):
        obj = minimal(utilities=[{"name": "lw", "kind": "log_wealth", "w": 2.5}])
        assert parse_scenario(obj).utility("lw").wealth == 2.5

    def test_step_x0(self):
        obj = minimal(utilities=[{"name": "s", "kind": "step", "x0": 0.25}])
        c = parse_scenario(obj).utility("s")
        assert isinstance(c, Step)
        assert c.threshold == 0.25

    def test_piecewise_knots(self):
        obj = minimal(
            utilities=[
                {
                    "name": "pl",
                    "kind": "piecewise_linear",
                    "knots": [[0.0, 0.0], [0.3, 0.6], [1.0, 1.0]],
                }
            ]
        )
        c = parse_scenario(obj).utility("pl")
        assert isinstance(c, PiecewiseLinear)
        assert c.points == ((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))

    def test_triangular_mode_optional(self):
        obj = minimal(lotteries=[{"name": "t", "kind": "triangular", "mode": 0.2}])
        assert parse_scenario(obj).lottery("t").mode == 0.2

    def test_role_hint_forwarded(self):
        obj = minimal(
            lotteries=[{"name": "u", "kind": "uniform", "role_hint": "utility"}]
        )
        assert parse_scenario(obj).lottery("u").role_hint == "utility"


class TestSchemaErrors:
    def test_root_not_object(self):
        with pytest.raises(ScenarioError, match="root"):
            parse_scenario([1, 2])

    def test_missing_domain(self):
        with pytest.raises(ScenarioError, match="domain"):
            parse_scenario({"lotteries": []})

    def test_bad_domain_order(self):
        with pytest.raises(ScenarioError, match="lo < hi"):
            parse_scenario(minimal(domain={"lo": 1.0, "hi": 0.0}))

    def test_domain_lo_not_number(self):
        with pytest.raises(ScenarioError, match="domain.lo"):
            parse_scenario(minimal(domain={"lo": "zero", "hi": 1.0}))

    def test_bool_is_not_a_number(self):
        with pytest.raises(ScenarioError, match="domain.lo"):
            parse_scenario(minimal(domain={"lo": True, "hi": 1.0}))

    def test_unknown_kind_tags_path(self):
        obj = minimal(lotteries=[{"name": "x", "kind": "pareto"}])
        with pytest.raises(ScenarioError, match=r"lotteries\[0\].kind"):
            parse_scenario(obj)

    def test_missing_required_param(self):
        obj = minimal(lotteries=[{"name": "x", "kind": "scaled_beta", "alpha": 2.0}])
        with pytest.raises(ScenarioError, match=r"lotteries\[0\].beta"):
            parse_scenario(obj)

    def test_extra_key_rejected(self):
        obj = minimal(lotteries=[{"name": "x", "kind": "uniform", "rate": 3.0}])
        with pytest.raises(ScenarioError, match="unexpected keys"):
            parse_scenario(obj)

    def test_missing_name(self):
        obj = minimal(lotteries=[{"kind": "uniform"}])
        with pytest.raises(ScenarioError, match=r"lotteries\[0\].name"):
            parse_scenario(obj)

    def test_duplicate_names(self):
        obj = minimal(
            lotteries=[
                {"name": "a", "kind": "uniform"},
                {"name": "a", "kind": "triangular"},
            ]
        )
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(obj)

    def test_lotteries_not_list(self):
        with pytest.raises(ScenarioError, match="lotteries"):
            parse_scenario(minimal(lotteries={"name": "a"}))

    def test_knots_not_pairs(self):
        obj = minimal(
            utilities=[{"name": "pl", "kind": "piecewise_linear", "knots": [[0.0]]}]
        )
        with pytest.raises(ScenarioError, match=r"knots\[0\]"):
            parse_scenario(obj)

    def test_curve_parameter_error_wrapped(self):
        # out-of-interval gaussian center: constructor complaint, scenario path
        obj = minimal(
            lotteries=[
                {"name": "g", "kind": "truncated_gaussian", "mu": 4.0, "sigma": 0.1}
            ]
        )
        with pytest.raises(ScenarioError, match=r"lotteries\[0\]"):
            parse_scenario(obj)

    def test_unknown_lookup_lists_known(self):
        sc = parse_scenario(minimal())
        with pytest.raises(ScenarioError, match="have: u"):
            sc.lottery("missing")


class TestPublished:
    def test_parsed_entries(self):
        entries = [{"key": "eu:u:lin", "value": 1, "tolerance": 0.01}, {"key": "ce:u:lin", "value": 0.5}]
        sc = parse_scenario(minimal(published=entries))
        assert sc.published == (("eu:u:lin", 1.0, 0.01), ("ce:u:lin", 0.5, None))
        assert parse_scenario(minimal()).published == ()

    @pytest.mark.parametrize(
        "published,path",
        [
            ("eu", "published"),
            ([["eu", 0.5]], r"published\[0\]"),
            ([{"key": "eu"}], r"published\[0\]"),
            ([{"key": 3, "value": 0.5}], r"published\[0\].key"),
            ([{"key": "eu", "value": "0.5"}], r"published\[0\].value"),
            ([{"key": "eu", "value": 0.5}, {"key": "ce", "value": 0.5, "tolerance": [1]}],
             r"published\[1\].tolerance"),
        ],
    )
    def test_bad_entries_tag_path(self, published, path):
        with pytest.raises(ScenarioError, match=f"^{path}:"):
            parse_scenario(minimal(published=published))


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(str(p))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(minimal()), encoding="utf-8")
        sc = load_scenario(str(p))
        assert sc.lottery_names() == ["u"]


class TestReadmeCurveTable:
    """The README's curve-kind table names exactly each class's params."""

    @staticmethod
    def table() -> dict[str, set[str]]:
        text = README.read_text(encoding="utf-8")
        section = text[text.index("Curve kinds and their JSON parameters") :]
        rows = {}
        for line in section.splitlines()[1:]:
            if line.startswith("| `"):
                kind, params = line.split("|")[1:3]
                rows[kind.strip().strip("`")] = set(re.findall(r"`(\w+)`", params))
            elif rows and not line.startswith("|"):
                break
        return rows

    def test_kinds_listed(self):
        assert set(self.table()) == set(CURVE_KINDS)

    @pytest.mark.parametrize("kind", sorted(CURVE_KINDS))
    def test_params_listed(self, kind):
        # a backticked kind name in the notes (e.g. `linear`) is not a parameter
        listed = self.table()[kind] - set(CURVE_KINDS)
        assert listed == set(CURVE_KINDS[kind].params)
