"""Pareto comparisons and efficiency of rules under a fixed distribution.

Every random rule within expectation distance of a deterministic rule phi
can be written through per-profile deviations t_x = 1 - phi(x) * other(x),
each in [0, 2].  Deviating by t moves E[outcome * x_i] by -(L diag(p) t)_i,
L the point-mass agreement matrix (column x is phi(x) * x).  With
lam = diag(p) t, each efficiency notion is a theorem of the alternative on
the columns of L over supp(p), decided by the robustness certificates or
`lp.alternative_positive`.  A mixture lam against efficiency gives
t_x = lam_x / p_x, scaled into the box t <= 2: a dominating random rule.
"""

from __future__ import annotations

from fractions import Fraction

from .certificates import MODE_STRICT, MODE_WEAK, improves, require
from .core import (
    Distribution,
    DistributionSet,
    Frozen,
    RandomVotingRule,
    VotingRule,
    degenerate_agreement_matrix,
    format_rational,
    over_common_denominator,
)
from .respond import responsiveness

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


class ParetoVerdict(Frozen):
    """Componentwise comparison of two responsiveness vectors.

    deltas are first minus second.  relation is the strongest applicable
    label; weakly_preferred is subsumed by equal, preferred, and
    strictly_preferred and is never emitted.
    """

    _fields = ("relation", "direction", "deltas")

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
    deltas = tuple(a - b for a, b in zip(responsiveness(first, dist).values,
                                         responsiveness(second, dist).values))
    if not any(deltas):
        return ParetoVerdict(REL_EQUAL, DIR_NONE, deltas)
    if min(deltas) < 0 < max(deltas):
        return ParetoVerdict(REL_INCOMPARABLE, DIR_NONE, deltas)
    # One-signed from here: strict when nobody is left at a zero delta.
    relation = REL_STRICTLY_PREFERRED if all(deltas) else REL_PREFERRED
    return ParetoVerdict(relation, DIR_FIRST if max(deltas) > 0 else DIR_SECOND, deltas)


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

    mode is "strict", "plain", or "weak", from the strongest notion to the
    weakest.  Strict efficiency needs full support (a profile without mass
    can be flipped unnoticed) and then is strict robustness (Ville); weak
    efficiency is weak robustness over the point masses of supp(p)
    (Gordan); plain efficiency is positive weights (Stiemke).
    """
    from .robustness import certify_p_robust, certify_p_robust_full  # `verify` never solves

    if mode not in EFFICIENCY_MODES:
        raise ValueError(f"unknown efficiency mode {mode!r}")
    if rule.n != dist.n:
        raise ValueError("rule and distribution must share the same n")
    support = dist.masses
    deviation = [Fraction(0)] * 2**rule.n
    # Against efficiency: a core.Mixture whose index k is the k-th profile of
    # supp(p), which is profile k when p has full support.
    against = None
    if mode == "strict" and len(support) < len(deviation):
        # Flipping the outcome at the first profile without mass moves nobody.
        missing = next((k for k, (idx, _) in enumerate(support) if idx != k), len(support))
        deviation[missing] = Fraction(2)
    elif mode == "strict":
        against = certify_p_robust_full(rule, MODE_STRICT).refutation
    elif mode == "weak":
        points = tuple(Distribution.degenerate(rule.n, idx) for idx, _ in support)
        against = certify_p_robust(rule, DistributionSet(rule.n, points), MODE_WEAK).refutation
    else:
        from .lp import alternative_positive

        columns = [[row[idx] for idx, _ in support] for row in degenerate_agreement_matrix(rule)]
        against = alternative_positive(columns).column_side
    for k, mass in against.masses if against else ():
        idx, q = support[k]  # p_x is q / dist.scale
        deviation[idx] = Fraction(mass * dist.scale, against.scale * q)
    if not any(deviation):
        return True, None
    scale = min(Fraction(1), 2 / max(deviation))  # into the box t <= 2
    candidate = RandomVotingRule(rule.n, tuple(
        outcome * (1 - t * scale) for outcome, t in zip(rule.outcomes, deviation)))
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
    return _transport(dist, rule, dominating)


def _transport(dist: Distribution, rule: VotingRule,
               dominating: RandomVotingRule) -> Distribution:
    """transport_distribution once its domination precondition holds, as
    `verify` has checked it on an efficiency witness."""
    # Each atom's mass p_x (1 - phi(x) * dominating(x)) is an integer over the
    # scales of p and of the outcomes: the transport is these over their total.
    support, probs = zip(*dist.masses)
    outcomes, scale = over_common_denominator([dominating.outcomes[idx] for idx in support])
    raw = [(idx, q * (scale - rule.outcomes[idx] * o))
           for idx, q, o in zip(support, probs, outcomes)]
    total = sum(mass for _, mass in raw)
    if not total:
        raise NoTransportError("the rules agree on every profile with positive probability")
    return Distribution._from_masses(rule.n, raw, total)
