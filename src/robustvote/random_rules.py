"""Robustness of random voting rules.

A random rule maps each profile to an expected outcome in [-1, 1].  It is
robust when every profile distribution leaves at least one individual with
responsiveness strictly above one half.  The characterization: some
nonnegative weight vector must give the weighted vote sum the same strict
sign as the expected outcome at every single profile.  A zero expected
outcome anywhere is therefore immediately fatal, since the point mass on
that profile pins every responsiveness to exactly one half.
"""

from __future__ import annotations

from fractions import Fraction

from .certificates import improves, require, robustness_problem, sign_pattern_holds
from .core import Distribution, RandomVotingRule, VotingRule, enumerate_rules, set_bits, table_masks
from .lp import alternative_strict, alternative_weak
from .respond import SIGN_CLASS_NONNEGATIVE, WeightVector, responsiveness
from .robustness import degenerate_agreement_matrix

MAX_DOMINATION_N = 4


def certify_random(
    rule: RandomVotingRule,
) -> tuple[WeightVector | None, Distribution | None]:
    """Decide robustness of a random rule, one solve, both payloads.

    Exactly one side of the pair is present: weights whose vote sum
    strictly sign-matches the expected outcome everywhere, or a
    distribution holding every individual at or below one half.
    """
    n = rule.n
    for idx, outcome in enumerate(rule.outcomes):
        if outcome == 0:
            # The point mass here is a definitional counterexample.
            return None, Distribution.degenerate(n, idx)
    answer = alternative_strict(degenerate_agreement_matrix(rule))
    if answer.row_side is not None:  # its coprime integers
        direction = answer.row_side.numerators
        require(sign_pattern_holds(rule, direction),
                "recovered weights fail the per-profile sign agreement")
        return WeightVector(direction, SIGN_CLASS_NONNEGATIVE), None
    found = answer.column_side
    require(robustness_problem(rule, True, mixture=found.masses, scale=found.scale)
            is None, "counterexample distribution leaves an individual above one half")
    return None, Distribution._from_masses(n, found.masses, found.scale)


def find_dominating_deterministic(
    rule: RandomVotingRule,
) -> tuple[VotingRule, Distribution] | None:
    """First deterministic rule, in truth-table order, that beats the
    random rule for every individual under some distribution.

    Per candidate, a mixture lam of the point masses with (B - C) lam < 0,
    B and C the agreement matrices of the rule and the candidate, is
    exactly a distribution under which the candidate is strictly more
    responsive to everyone: the weak alternative finds it or refutes it.
    """
    n = rule.n
    if n > MAX_DOMINATION_N:
        raise ValueError(
            f"deterministic domination search is capped at n={MAX_DOMINATION_N}"
        )
    base = degenerate_agreement_matrix(rule)
    for candidate in enumerate_rules(n):
        gap = [[b - c for b, c in zip(theirs, mine)]
               for theirs, mine in zip(base, degenerate_agreement_matrix(candidate))]
        found = alternative_weak(gap).column_side
        if found is not None:
            dist = Distribution._from_masses(n, found.masses, found.scale)
            require(improves(responsiveness(rule, dist).values,
                             responsiveness(candidate, dist).values, strictly=True),
                    "domination witness fails the strict inequalities")
            return candidate, dist
    return None


def anonymous_even_impossibility(n: int) -> Distribution:
    """The uniform distribution over profiles with an even split.

    Under it every anonymous random rule gives every individual
    responsiveness exactly one half, so none is robust.
    """
    if n % 2 != 0:
        raise ValueError("the even-split distribution needs an even n")
    balanced = set_bits(table_masks(n).counts[n // 2])
    return Distribution.from_weights(n, dict.fromkeys(balanced, Fraction(1)))
