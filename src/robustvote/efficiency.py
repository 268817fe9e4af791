"""Pareto comparisons and efficiency of rules under a fixed distribution.

Every random rule within expectation distance of a deterministic rule phi
can be written through per-profile deviations t_x = 1 - phi(x) * other(x),
each in [0, 2].  Responsiveness changes are linear in t, so each efficiency
notion is one feasibility system about the deviation vector: can anyone be
helped without hurting someone (and how strongly).  Only the direction of
a solution matters, so the systems drop the box t <= 2 and a witness is
scaled into the box afterwards; it then converts back to an explicit
dominating random rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certificates import improves, require
from .core import (
    Distribution,
    RandomVotingRule,
    VotingRule,
    format_rational,
)
from .lp import (
    REL_GE,
    REL_GT,
    SIGN_NONNEG,
    LinearRow,
    LinearSystem,
    solve_feasibility,
)
from .respond import responsiveness
from .robustness import degenerate_agreement_matrix

REL_EQUAL = "equal"
REL_STRICTLY_PREFERRED = "strictly_preferred"
REL_PREFERRED = "preferred"
REL_WEAKLY_PREFERRED = "weakly_preferred"
REL_INCOMPARABLE = "incomparable"

DIR_FIRST = "first_over_second"
DIR_SECOND = "second_over_first"
DIR_NONE = "none"

EFFICIENCY_MODES = ("strict", "plain", "weak")


class NoTransportError(ValueError):
    """The two rules agree almost everywhere, so no mass can be moved."""


@dataclass(frozen=True)
class ParetoVerdict:
    """Componentwise comparison of two responsiveness vectors.

    deltas are first minus second.  relation is the strongest applicable
    label; weakly_preferred is subsumed by equal, preferred, and
    strictly_preferred and is never emitted.
    """

    relation: str
    direction: str
    deltas: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "direction": self.direction,
            "deltas": [format_rational(d) for d in self.deltas],
        }


def pareto_compare(
    first: VotingRule | RandomVotingRule,
    second: VotingRule | RandomVotingRule,
    dist: Distribution,
) -> ParetoVerdict:
    """Classify which rule serves every individual at least as well."""
    if first.n != second.n or first.n != dist.n:
        raise ValueError("rules and distribution must share the same n")
    ra = responsiveness(first, dist)
    rb = responsiveness(second, dist)
    deltas = tuple(a - b for a, b in zip(ra.values, rb.values))
    has_pos = any(d > 0 for d in deltas)
    has_neg = any(d < 0 for d in deltas)
    if not has_pos and not has_neg:
        return ParetoVerdict(REL_EQUAL, DIR_NONE, deltas)
    if has_pos and has_neg:
        return ParetoVerdict(REL_INCOMPARABLE, DIR_NONE, deltas)
    if has_pos:
        relation = REL_STRICTLY_PREFERRED if all(d > 0 for d in deltas) else REL_PREFERRED
        return ParetoVerdict(relation, DIR_FIRST, deltas)
    relation = REL_STRICTLY_PREFERRED if all(d < 0 for d in deltas) else REL_PREFERRED
    return ParetoVerdict(relation, DIR_SECOND, deltas)


def _deviation_matrix(rule: VotingRule, dist: Distribution) -> list[list[Fraction]]:
    # Row i, column x: how deviating at x moves E[outcome * x_i], per unit
    # of t_x and up to sign (the move is -entry * t_x).
    return [
        [p * entry for p, entry in zip(dist.probs, row)]
        for row in degenerate_agreement_matrix(rule)
    ]


def _rule_from_deviation(
    rule: VotingRule, deviation: tuple[Fraction, ...]
) -> RandomVotingRule:
    outcomes = tuple(
        Fraction(rule.outcomes[idx]) * (1 - deviation[idx])
        for idx in range(len(deviation))
    )
    return RandomVotingRule(rule.n, outcomes)


def _scaled_into_box(witness: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    top = max(witness)
    if top > 2:
        return tuple(t * 2 / top for t in witness)
    return witness


def _improves(rule: VotingRule, candidate: RandomVotingRule, dist: Distribution,
              strictly: bool = False, in_total: bool = False) -> bool:
    base = responsiveness(rule, dist).values
    return improves(base, responsiveness(candidate, dist).values, strictly, in_total)


def is_strictly_efficient(
    rule: VotingRule, dist: Distribution
) -> tuple[bool, RandomVotingRule | None]:
    """Whether no other random rule matches the rule for every individual.

    Not strict efficiency is witnessed by a differing random rule whose
    responsiveness is componentwise at least as high.
    """
    return efficiency_verdict(rule, dist, "strict")


def efficiency_verdict(
    rule: VotingRule, dist: Distribution, mode: str
) -> tuple[bool, RandomVotingRule | None]:
    """Decide one of the three efficiency notions, with the dominating
    random rule as witness whenever the answer is negative.

    mode is "strict", "plain", or "weak", ordered from the strongest
    notion to the weakest.  Each is one system over the deviations t >= 0:
    nobody hurt (strict, plain) or everybody helped (weak), plus t != 0 as
    sum(t) >= 1 (strict) or the total helped (plain).
    """
    if mode not in EFFICIENCY_MODES:
        raise ValueError(f"unknown efficiency mode {mode!r}")
    if rule.n != dist.n:
        raise ValueError("rule and distribution must share the same n")
    matrix = _deviation_matrix(rule, dist)
    size = 2**rule.n
    help_relation = REL_GT if mode == "weak" else REL_GE
    rows = [
        LinearRow(tuple(-entry for entry in row), help_relation, Fraction(0))
        for row in matrix
    ]
    if mode == "strict":
        rows.append(LinearRow((Fraction(1),) * size, REL_GE, Fraction(1)))
    elif mode == "plain":
        total = tuple(-sum(column) for column in zip(*matrix))
        rows.append(LinearRow(total, REL_GT, Fraction(0)))
    result = solve_feasibility(LinearSystem(size, tuple(rows), (SIGN_NONNEG,) * size))
    if not result.feasible:
        return True, None
    candidate = _rule_from_deviation(rule, _scaled_into_box(result.witness))
    require(_improves(rule, candidate, dist, strictly=mode == "weak",
                      in_total=mode == "plain"),
            f"{mode} efficiency witness fails its improvement inequalities")
    require(candidate != RandomVotingRule.from_deterministic(rule),
            "efficiency witness does not differ")
    return False, candidate


def transport_distribution(
    dist: Distribution, rule: VotingRule, dominating: RandomVotingRule
) -> Distribution:
    """Reweight the distribution onto the profiles where the dominating
    rule deviates, normalized by the deviated mass.

    Under the result, the inverse rule is weakly preferred to the original.
    Raises NoTransportError when the two rules agree wherever the
    distribution has mass.
    """
    if rule.n != dist.n or dominating.n != dist.n:
        raise ValueError("rules and distribution must share the same n")
    if not _improves(rule, dominating, dist):
        raise ValueError("the random rule does not weakly dominate the base rule")
    raw = {
        idx: p * (1 - Fraction(rule.outcomes[idx]) * dominating.outcomes[idx]) / 2
        for idx, p in dist.support
    }
    if not any(raw.values()):
        raise NoTransportError(
            "the rules agree on every profile with positive probability"
        )
    return Distribution.from_weights(rule.n, raw)
