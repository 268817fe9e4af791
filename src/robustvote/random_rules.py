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

from .certificates import holds_at_half, improves, require, sign_pattern_holds
from .core import Distribution, RandomVotingRule, VotingRule, enumerate_rules, set_bits, table_masks
from .lp import (
    REL_EQ,
    REL_GT,
    SIGN_NONNEG,
    LinearRow,
    LinearSystem,
    alternative_strict,
    solve_feasibility,
)
from .respond import SIGN_CLASS_NONNEGATIVE, WeightVector, responsiveness
from .robustness import degenerate_agreement_matrix
from .wmr import _smallest_integer_direction

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
    if answer.weights is not None:
        cleared = _smallest_integer_direction(answer.weights)
        require(sign_pattern_holds(rule, cleared),
                "recovered weights fail the per-profile sign agreement")
        return WeightVector(cleared, SIGN_CLASS_NONNEGATIVE), None
    counterexample = Distribution(n, answer.mixture)
    require(holds_at_half(responsiveness(rule, counterexample).values),
            "counterexample distribution leaves an individual above one half")
    return None, counterexample


def find_dominating_deterministic(
    rule: RandomVotingRule,
) -> tuple[VotingRule, Distribution] | None:
    """First deterministic rule, in truth-table order, that beats the
    random rule for every individual under some distribution.

    The distribution is found per candidate by linear feasibility over the
    probability simplex with a strict improvement row per individual.
    """
    n = rule.n
    if n > MAX_DOMINATION_N:
        raise ValueError(
            f"deterministic domination search is capped at n={MAX_DOMINATION_N}"
        )
    size = 2**n
    simplex_row = LinearRow((Fraction(1),) * size, REL_EQ, Fraction(1))
    base = degenerate_agreement_matrix(rule)
    for candidate in enumerate_rules(n):
        rows = [simplex_row]
        for mine, theirs in zip(degenerate_agreement_matrix(candidate), base):
            coeffs = tuple(c - r for c, r in zip(mine, theirs))
            rows.append(LinearRow(coeffs, REL_GT, Fraction(0)))
        result = solve_feasibility(
            LinearSystem(size, tuple(rows), (SIGN_NONNEG,) * size)
        )
        if result.feasible:
            dist = Distribution(n, result.witness)
            base = responsiveness(rule, dist).values
            better = responsiveness(candidate, dist).values
            require(improves(base, better, strictly=True),
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
