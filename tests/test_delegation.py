"""Target setting, target updating, and the delegation rule comparison."""

import json
from pathlib import Path

import pytest

import oracles
from aspeq import (
    ExponentialNormalized,
    ScaledBeta,
    Triangular,
    UnattainableTargetError,
    Uniform,
    aspiration_equivalent,
    choose_by_aspiration,
    choose_by_eu,
    desiderata_report,
    expected_utility,
    exponential_or_linear,
    update_target,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestChoosers:
    LOTS = [
        ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0),
        ScaledBeta(0.0, 1.0, alpha=3.0, beta=12.0),
        ScaledBeta(0.0, 1.0, alpha=4.0, beta=8.0),
    ]
    U = ExponentialNormalized(0.0, 1.0, gamma=3.0)

    def test_choose_by_eu_picks_best(self):
        idx = choose_by_eu(self.LOTS, self.U)
        eus = [expected_utility(f, self.U) for f in self.LOTS]
        assert idx == max(range(3), key=lambda i: eus[i])

    def test_aspiration_choice_matches_eu_choice(self):
        ch = choose_by_aspiration(self.LOTS, self.U)
        assert ch.index == choose_by_eu(self.LOTS, self.U)

    def test_exceedance_equals_expected_utility(self):
        ch = choose_by_aspiration(self.LOTS, self.U)
        for f, e in zip(self.LOTS, ch.exceedance):
            assert e == pytest.approx(expected_utility(f, self.U), abs=2e-9)

    def test_tie_goes_to_lowest_index(self):
        same = [Uniform(0.0, 1.0), Uniform(0.0, 1.0)]
        assert choose_by_eu(same, self.U) == 0
        assert choose_by_aspiration(same, self.U).index == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            choose_by_eu([], self.U)
        with pytest.raises(ValueError):
            choose_by_aspiration([], self.U)


class TestUpdateTarget:
    OLD = ScaledBeta(0.0, 10.0, alpha=4.0, beta=6.0)
    NEW = ScaledBeta(0.0, 10.0, alpha=6.0, beta=3.0)

    def test_round_trip_invariant(self):
        upd = update_target(self.OLD, 3.0, self.NEW)
        U = exponential_or_linear(0.0, 10.0, upd.effective_gamma)
        assert aspiration_equivalent(self.OLD, U) == pytest.approx(3.0, abs=1e-5 * 10.0)

    def test_round_trip_target_reads_the_root(self):
        # the old lottery's AE at gamma, bit for bit, from the EDU the root
        # already integrated
        upd = update_target(self.OLD, 3.0, self.NEW)
        U = exponential_or_linear(0.0, 10.0, upd.effective_gamma)
        assert upd.round_trip_target == aspiration_equivalent(self.OLD, U)

    def test_effective_gamma_against_oracle(self):
        import mpmath as mp

        upd = update_target(self.OLD, 3.0, self.NEW)

        def gap(g):
            e_d = oracles.edu(
                lambda x: oracles.beta_cdf(x, 0, 10, 4, 6),
                lambda x: oracles.exp_pdf(x, 0, 10, mp.mpf(g)),
                0,
                10,
            )
            return e_d - oracles.beta_cdf(3, 0, 10, 4, 6)

        want = float(mp.findroot(gap, mp.mpf("0.3")))
        assert upd.effective_gamma == pytest.approx(want, abs=1e-7)

    def test_new_target_is_ae_of_new_lottery(self):
        upd = update_target(self.OLD, 3.0, self.NEW)
        U = exponential_or_linear(0.0, 10.0, upd.effective_gamma)
        assert upd.new_target == pytest.approx(
            aspiration_equivalent(self.NEW, U), abs=1e-9
        )

    def test_exceedance_probabilities_improve(self):
        # the better forecast must raise the chance of beating the target
        upd = update_target(self.OLD, 3.0, self.NEW)
        assert upd.new_exceed_prob > upd.old_exceed_prob
        assert upd.old_exceed_prob == pytest.approx(1.0 - self.OLD.value(3.0), abs=1e-12)
        assert upd.new_exceed_prob == pytest.approx(
            1.0 - self.NEW.value(upd.new_target), abs=1e-9
        )

    def test_fields_echo_inputs(self):
        upd = update_target(self.OLD, 3.0, self.NEW)
        assert upd.old_lottery is self.OLD
        assert upd.new_lottery is self.NEW
        assert upd.old_target == 3.0

    def test_domain_mismatch_rejected(self):
        from aspeq import DomainMismatchError

        with pytest.raises(DomainMismatchError):
            update_target(self.OLD, 3.0, ScaledBeta(0.0, 5.0, alpha=2.0, beta=2.0))

    def test_boundary_target_rejected(self):
        with pytest.raises(UnattainableTargetError):
            update_target(self.OLD, 0.0, self.NEW)

    def test_identity_update_keeps_target(self):
        upd = update_target(self.OLD, 3.0, self.OLD)
        assert upd.new_target == pytest.approx(3.0, abs=1e-6)


def _search_ce_counterexample():
    """Grid search for a case where the certain-equivalent rule misleads
    the delegate: maximizing P(beat CE target) picks a different lottery
    than the principal's expected-utility ranking."""
    candidates = []
    for g in (0.5, 1.0, 2.0, 3.0, 5.0):
        for a1, b1, a2, b2 in (
            (2.0, 2.0, 5.0, 5.0),
            (2.0, 5.0, 4.0, 9.0),
            (1.5, 3.0, 4.0, 8.0),
            (2.0, 8.0, 4.0, 8.0),
        ):
            candidates.append((g, (a1, b1), (a2, b2)))
    for g, (a1, b1), (a2, b2) in candidates:
        lots = [
            ScaledBeta(0.0, 1.0, alpha=a1, beta=b1),
            ScaledBeta(0.0, 1.0, alpha=a2, beta=b2),
        ]
        U = ExponentialNormalized(0.0, 1.0, gamma=g)
        report = desiderata_report(lots, U)
        ce_rule = next(r for r in report.rules if r.rule == "certain_equivalent")
        if not ce_rule.agrees_with_principal:
            return {
                "gamma": g,
                "lotteries": [
                    {"alpha": a1, "beta": b1},
                    {"alpha": a2, "beta": b2},
                ],
            }
    raise AssertionError("no counterexample found in the search grid")


class TestDesiderata:
    def test_aspiration_rule_always_agrees(self):
        lots = [
            ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0),
            Triangular(0.0, 1.0, mode=0.7),
            Uniform(0.0, 1.0),
        ]
        U = ExponentialNormalized(0.0, 1.0, gamma=4.0)
        report = desiderata_report(lots, U)
        ae_rule = next(r for r in report.rules if r.rule == "aspiration_equivalent")
        assert ae_rule.agrees_with_principal
        assert ae_rule.agent_choice == report.principal_choice

    def test_fractile_rule_cannot_separate(self):
        # every lottery beats its own median with probability one half
        lots = [
            ScaledBeta(0.0, 1.0, alpha=2.0, beta=8.0),
            ScaledBeta(0.0, 1.0, alpha=4.0, beta=8.0),
        ]
        U = ExponentialNormalized(0.0, 1.0, gamma=3.0)
        report = desiderata_report(lots, U, fractile=0.5)
        fr = next(r for r in report.rules if r.rule == "fractile")
        assert not fr.separates_lotteries
        assert all(e == pytest.approx(0.5, abs=1e-9) for e in fr.exceedance)

    def test_fractile_level_honored(self):
        lots = [Uniform(0.0, 1.0), Triangular(0.0, 1.0)]
        report = desiderata_report(lots, ExponentialNormalized(0.0, 1.0, gamma=1.0), fractile=0.25)
        fr = next(r for r in report.rules if r.rule == "fractile")
        assert all(e == pytest.approx(0.75, abs=1e-9) for e in fr.exceedance)

    def test_report_covers_three_rules(self):
        lots = [Uniform(0.0, 1.0), Triangular(0.0, 1.0)]
        report = desiderata_report(lots, ExponentialNormalized(0.0, 1.0, gamma=1.0))
        assert {r.rule for r in report.rules} == {
            "fractile",
            "certain_equivalent",
            "aspiration_equivalent",
        }

    def test_ce_rule_counterexample_found_and_persisted(self):
        path = FIXTURES / "ce_counterexample.json"
        if not path.exists():
            FIXTURES.mkdir(exist_ok=True)
            found = _search_ce_counterexample()
            path.write_text(json.dumps(found, indent=2) + "\n")
        data = json.loads(path.read_text())
        lots = [
            ScaledBeta(0.0, 1.0, alpha=d["alpha"], beta=d["beta"])
            for d in data["lotteries"]
        ]
        U = ExponentialNormalized(0.0, 1.0, gamma=data["gamma"])
        report = desiderata_report(lots, U)
        ce_rule = next(r for r in report.rules if r.rule == "certain_equivalent")
        ae_rule = next(r for r in report.rules if r.rule == "aspiration_equivalent")
        assert not ce_rule.agrees_with_principal
        assert ae_rule.agrees_with_principal
