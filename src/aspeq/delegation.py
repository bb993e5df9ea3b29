"""Target setting between a principal and a delegate.

A principal hands a lottery choice to a delegate and scores the delegate
on whether the realized outcome beats a target. The exceedance identity
1 - F(AE) = EU makes the aspiration equivalent the right target: a
delegate maximizing the probability of beating per-lottery aspiration
targets picks exactly the lottery the principal would pick by expected
utility. Fractile targets ignore the principal's preferences entirely,
and certain-equivalent targets can misrank; desiderata_report puts the
three rules side by side on a concrete lottery set. Each of these reads
all its lotteries' integrals from one lockstep batch.

update_target handles the forecast-revision problem: when the lottery
changes, keep the delegate's effective curvature fixed and move the
target to the new lottery's aspiration equivalent at that curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import Curve
from .duality import (
    DomainMismatchError,
    PairBatch,
    aspiration_equivalent,
    effective_root,
    evaluate_pairs,
    exceedance_probability,
    exponential_or_linear,
)
from .numerics import QuadratureSpec

DEFAULT_FRACTILE = 0.5


@dataclass(frozen=True)
class TargetUpdate:
    old_lottery: Curve
    new_lottery: Curve
    old_target: float
    effective_gamma: float
    new_target: float
    old_exceed_prob: float
    new_exceed_prob: float
    round_trip_target: float


@dataclass(frozen=True)
class AspirationChoice:
    index: int
    targets: tuple[float, ...]
    exceedance: tuple[float, ...]


@dataclass(frozen=True)
class RuleOutcome:
    """One target rule applied to every lottery: the targets it sets, the
    per-lottery probabilities of beating them, and whether a delegate
    maximizing that probability lands on the principal's choice."""

    rule: str
    targets: tuple[float, ...]
    exceedance: tuple[float, ...]
    agent_choice: int
    agrees_with_principal: bool
    separates_lotteries: bool


@dataclass(frozen=True)
class DesiderataReport:
    principal_choice: int
    rules: tuple[RuleOutcome, ...]


def _argmax(values: list[float]) -> int:
    # ties go to the lowest index
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


def choose_by_eu(
    lotteries: list[Curve], utility: Curve, spec: QuadratureSpec | None = None
) -> int:
    """Index of the lottery with the highest expected utility."""
    if not lotteries:
        raise ValueError("need at least one lottery")
    batch = PairBatch([(f, utility, "eu") for f in lotteries], spec)
    return _argmax([batch.expected_utility(f, utility) for f in lotteries])


def choose_by_aspiration(
    lotteries: list[Curve], utility: Curve, spec: QuadratureSpec | None = None
) -> AspirationChoice:
    """Index of the lottery most likely to beat its own aspiration
    equivalent, with the per-lottery targets and exceedance probabilities.

    Each exceedance equals that lottery's expected utility, so the chosen
    index always matches choose_by_eu; delegating by aspiration target
    loses nothing.
    """
    if not lotteries:
        raise ValueError("need at least one lottery")
    batch = PairBatch([(f, utility, "edu") for f in lotteries], spec)
    targets = [batch.aspiration_equivalent(f, utility) for f in lotteries]
    exceed = [exceedance_probability(f, t) for f, t in zip(lotteries, targets)]
    return AspirationChoice(
        index=_argmax(exceed), targets=tuple(targets), exceedance=tuple(exceed)
    )


def update_target(
    old_lottery: Curve,
    old_target: float,
    new_lottery: Curve,
    spec: QuadratureSpec | None = None,
) -> TargetUpdate:
    """Move a target to a revised forecast at constant effective curvature.

    The old target reveals the curvature gamma at which it was set (its
    aspiration equivalent under the old lottery); the new target is the
    new lottery's aspiration equivalent at that same gamma. Keeping the
    same raw number under a better forecast would silently raise the bar;
    keeping gamma keeps the delegate's incentive unchanged.

    Hands back, with the new target and both exceedance probabilities,
    round_trip_target: the old lottery's aspiration equivalent at gamma,
    read from the EDU the root search already integrated there. Its
    distance from old_target checks the solve.
    """
    if (old_lottery.lo, old_lottery.hi) != (new_lottery.lo, new_lottery.hi):
        raise DomainMismatchError(
            f"old lottery lives on [{old_lottery.lo!r}, {old_lottery.hi!r}], "
            f"new on [{new_lottery.lo!r}, {new_lottery.hi!r}]; the curvature "
            "carried over is only meaningful on one shared interval"
        )
    g, round_trip = effective_root(old_lottery, old_target, spec)
    u = exponential_or_linear(new_lottery.lo, new_lottery.hi, g)
    new_target = aspiration_equivalent(new_lottery, u, spec)
    return TargetUpdate(
        old_lottery=old_lottery,
        new_lottery=new_lottery,
        old_target=old_target,
        effective_gamma=g,
        new_target=new_target,
        old_exceed_prob=exceedance_probability(old_lottery, old_target),
        new_exceed_prob=exceedance_probability(new_lottery, new_target),
        round_trip_target=round_trip,
    )


def desiderata_report(
    lotteries: list[Curve],
    utility: Curve,
    fractile: float = DEFAULT_FRACTILE,
    spec: QuadratureSpec | None = None,
) -> DesiderataReport:
    """Compare three target rules on one lottery set.

    For each rule the delegate picks the lottery most likely to beat its
    target. The fractile rule sets the same exceedance 1 - fractile on
    every lottery, so it cannot separate them at all; the certain
    equivalent can order lotteries differently from expected utility; the
    aspiration equivalent agrees with the principal by construction.
    All the lotteries are evaluated in one batch (evaluate_pairs); the
    principal's EU and the two equivalent rules all read that one result.
    """
    if len(lotteries) < 2:
        raise ValueError("need at least two lotteries to compare target rules")
    if not 0.0 < fractile < 1.0:
        raise ValueError(f"fractile must be inside (0, 1), got {fractile!r}")
    pairs = list(evaluate_pairs([(f, utility) for f in lotteries], spec))
    principal = _argmax([r.expected_utility for r in pairs])

    def outcome(rule: str, targets: list[float]) -> RuleOutcome:
        exceed = [exceedance_probability(f, t) for f, t in zip(lotteries, targets)]
        agent = _argmax(exceed)
        return RuleOutcome(
            rule=rule,
            targets=tuple(targets),
            exceedance=tuple(exceed),
            agent_choice=agent,
            agrees_with_principal=agent == principal,
            separates_lotteries=max(exceed) - min(exceed) > 1e-12,
        )

    return DesiderataReport(
        principal_choice=principal,
        rules=(
            outcome("fractile", [f.quantile(fractile) for f in lotteries]),
            outcome("certain_equivalent", [r.certain_equivalent for r in pairs]),
            outcome("aspiration_equivalent", [r.aspiration_equivalent for r in pairs]),
        ),
    )
