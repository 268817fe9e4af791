"""Substitution-only checks of every certificate the package emits.

A certificate (weights, a mixture, a witness point, row multipliers, game
strategies, a dominating rule, a utility table) promises inequalities about
the data it was built from.  Each function here evaluates one kind of
promise by exact substitution; nothing here solves, searches or normalizes.
Every producer runs the matching check on the certificate it is about to
return and raises InternalError when it fails, also under `python -O`;
`verify` runs the same checks on the certificates embedded in a report.

The vector a check substitutes is put over its common denominator d first,
and the bound scaled by d, so the sums compared are integer whenever the
data is.  A column check is row-major: core.combine_rows adds whole rows
of the matrix, one pass per nonzero weight, giving every column's dot
product at once, and the first failing column is read off that list.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .core import combine_rows, over_common_denominator, vote_sums

# The vocabulary of the systems and representations checked here; lp, wmr
# and respond re-export it.
REL_GE = ">="
REL_GT = ">"
REL_EQ = "="

SIGN_FREE = "free"
SIGN_NONNEG = "nonneg"

TIES_ALLOWED = "allowed"
TIES_FORBIDDEN = "forbidden"
TIE_MODES = (TIES_ALLOWED, TIES_FORBIDDEN)

SIGN_CLASS_FREE = "free"
SIGN_CLASS_NONNEGATIVE = "nonnegative"
SIGN_CLASS_POSITIVE = "positive"
SIGN_CLASSES = (SIGN_CLASS_FREE, SIGN_CLASS_NONNEGATIVE, SIGN_CLASS_POSITIVE)

_ZERO = Fraction(0)
_HOLDS = {REL_GE: operator.ge, REL_GT: operator.gt, REL_EQ: operator.eq}


class InternalError(Exception):
    """A certificate failed its own check before leaving its producer: a
    defect in the package, never a verdict, so neither a ValueError (bad
    input) nor an AssertionError (stripped by `python -O`)."""


def require(holds: bool, message: str) -> None:
    """Raise InternalError(message) unless a producer's check holds."""
    if not holds:
        raise InternalError(message)


def is_distribution(values: Sequence[Fraction]) -> bool:
    """Nonnegative entries summing to one."""
    return _is_distribution(*over_common_denominator(values))


def failed_column(matrix, weights, bound=0, strict=True) -> int | None:
    """First column j where sum_i weights[i] * matrix[i][j] is not above
    bound (strict) or not at least bound, or None: robustness weights clear
    zero at every extreme point; a game's row strategy reaches the value."""
    weights, scale = over_common_denominator(weights)
    return _failed_column(matrix, weights, bound * scale, strict)


def failed_row(matrix, mixture, bound=0, strict=False) -> int | None:
    """First row i where sum_j matrix[i][j] * mixture[j] is not below bound
    (strict) or not at most bound, or None: a robustness mixture holds every
    individual to zero; a game's column strategy holds every row to the value."""
    mixture, scale = over_common_denominator(mixture)
    return _failed_row(matrix, mixture, bound * scale, strict)


# The three checks above on a vector already over its common denominator
# `scale`, with the bound scaled to match.

def _is_distribution(numerators: list[int], scale: int) -> bool:
    return all(v >= 0 for v in numerators) and sum(numerators) == scale


def _failed_column(matrix, weights: list[int], bound, strict: bool) -> int | None:
    holds = list(map(_HOLDS[REL_GT if strict else REL_GE],
                     combine_rows(weights, matrix), repeat(bound)))
    return holds.index(False) if False in holds else None


def _failed_row(matrix, mixture: list[int], bound, strict: bool) -> int | None:
    for i, row in enumerate(matrix):
        dot = sum(a * m for a, m in zip(row, mixture) if m)
        if not (dot < bound if strict else dot <= bound):
            return i
    return None


def robustness_problem(matrix, strict: bool, weights=None, mixture=None) -> str | None:
    """What is wrong with robustness weights, or else a mixture, over the
    agreement matrix (individuals by extreme points), or None.  Both must be
    distributions; weights clear every column (strictly when strict), and a
    mixture holds every row at or below zero (below zero when not strict).
    The vector is put over its common denominator once, for both tests."""
    if weights is not None:
        numerators, scale = over_common_denominator(weights)
        if not _is_distribution(numerators, scale):
            return "weights are not a distribution over individuals"
        j = _failed_column(matrix, numerators, 0, strict)
        return None if j is None else f"weights fail extreme point {j}"
    numerators, scale = over_common_denominator(mixture)
    if not _is_distribution(numerators, scale):
        return "mixture is not a distribution over extreme points"
    i = _failed_row(matrix, numerators, 0, not strict)
    return None if i is None else f"mixture leaves individual {i + 1} responsive"


def satisfies(system, point: Sequence[Fraction]) -> bool:
    """Exact substitution of a point into a LinearSystem, including the
    variable sign domains; with the point over its least common denominator
    d, each row compares an integer dot product against rhs * d."""
    values = [Fraction(v) for v in point]
    if len(values) != system.num_vars:
        return False
    for value, sign in zip(values, system.var_signs):
        if sign == SIGN_NONNEG and value < 0:
            return False
    values, scale = over_common_denominator(values)
    return all(
        _HOLDS[row.relation](
            sum(c * v for c, v in zip(row.coeffs, values) if v), row.rhs * scale
        )
        for row in system.rows
    )


def certifies_infeasibility(system, multipliers: Sequence[Fraction]) -> bool:
    """Check that row multipliers combine a LinearSystem into a contradiction.

    Requirements: multipliers on inequality rows are nonnegative; the
    combined coefficient of every nonnegative variable is <= 0 and of every
    free variable exactly 0; the combined right-hand side is positive, or
    zero with positive total weight on strict rows.
    """
    mults = [Fraction(m) for m in multipliers]
    if len(mults) != len(system.rows):
        return False
    for mult, row in zip(mults, system.rows):
        if row.relation != REL_EQ and mult < 0:
            return False
    mults, _ = over_common_denominator(mults)  # every test below is of a sign
    combined = [0] * system.num_vars
    for mult, row in zip(mults, system.rows):
        if mult == 0:
            continue
        for k, c in enumerate(row.coeffs):
            combined[k] += mult * c
    for value, sign in zip(combined, system.var_signs):
        if sign == SIGN_NONNEG and value > 0:
            return False
        if sign == SIGN_FREE and value != 0:
            return False
    rhs = sum(m * row.rhs for m, row in zip(mults, system.rows))
    strict_mass = sum(m for m, row in zip(mults, system.rows) if row.relation == REL_GT)
    return rhs > 0 or (rhs == 0 and strict_mass > 0)


def in_sign_class(weights: Sequence[Fraction], sign_class: str) -> bool:
    """Whether weights, not all zero, have the signs their class admits:
    any (free), none negative (nonnegative) or all positive (positive)."""
    if sign_class not in SIGN_CLASSES:
        raise ValueError(f"unknown sign class {sign_class!r}")
    if not any(weights):
        return False
    if sign_class == SIGN_CLASS_NONNEGATIVE:
        return min(weights) >= 0
    return sign_class == SIGN_CLASS_FREE or min(weights) > 0


def weights_represent(rule, weights: Sequence[Fraction], ties: str) -> bool:
    """Exact check that the weighted sum sides with every outcome."""
    if ties not in TIE_MODES:
        raise ValueError(f"unknown tie mode {ties!r}")
    ws = [Fraction(w) for w in weights]
    if len(ws) != rule.n:
        raise ValueError(f"{len(ws)} weights for n={rule.n}")
    if all(w == 0 for w in ws):
        return False
    for outcome, total in zip(rule.outcomes, vote_sums(ws)[0]):
        signed = outcome * total
        if signed < 0 or (signed == 0 and ties == TIES_FORBIDDEN):
            return False
    return True


def sign_pattern_holds(rule, weights: Sequence[Fraction]) -> bool:
    """Whether the weighted vote sum has the strict sign of the expected
    outcome at every profile: the certificate of a robust random rule."""
    return all(o * total > 0 for o, total in zip(rule.outcomes, vote_sums(weights)[0]))


def holds_at_half(values: Sequence[Fraction]) -> bool:
    """Whether no responsiveness exceeds one half: the counterexample to the
    robustness of a random rule."""
    return all(2 * v <= 1 for v in values)


def rtf_maximum(weights: Sequence[Fraction], dist) -> Fraction:
    """The maximum over all rules of sum_i w_i r_i under dist, in closed
    form: (E[|sum_i w_i x_i|] + sum_i w_i) / 2."""
    sums, scale = vote_sums(weights)
    expectation = sum((p * abs(sums[idx]) for idx, p in dist.support), _ZERO) / scale
    return (expectation + sum(weights, _ZERO)) / 2


def attains(weights: Sequence[Fraction], values: Sequence[Fraction], value: Fraction) -> bool:
    """Whether responsiveness values give a weighted sum of exactly value."""
    return sum((w * r for w, r in zip(weights, values)), _ZERO) == value


def improves(base, new, strictly: bool = False, in_total: bool = False) -> bool:
    """Whether responsiveness vector new is at least base for everyone; with
    strictly, above it for everyone; with in_total, also above it in sum."""
    if strictly:
        return all(b > a for a, b in zip(base, new))
    weakly = all(b >= a for a, b in zip(base, new))
    return weakly and (not in_total or sum(new) > sum(base))


def net_gains(rule, utilities, mixture: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """What each individual expects from the rule over its inverse when the
    state is drawn from mixture; utilities[x][i] is i's pair (payoff if +1,
    payoff if -1) in the state tied to profile x."""
    gains = [_ZERO] * rule.n
    for share, outcome, row in zip(mixture, rule.outcomes, utilities):
        for i, (hi, lo) in enumerate(row):
            gains[i] += share * (hi - lo if outcome == 1 else lo - hi)
    return tuple(gains)
