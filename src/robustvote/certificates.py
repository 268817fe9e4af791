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
data is.  A column check on a general matrix is row-major: core.combine_rows
adds whole rows, one pass per nonzero weight, giving every column's dot
product at once, and the first failing column is read off that list.

Weights need no matrix.  Over the point masses the profiles they fail
are one mask of core.sign_tables (where w.x > 0, where w.x >= 0) and the
outcome tables, as for a representation and a random rule's sign pattern;
over other extreme points one core.vote_sums pass prices every profile.
A mixture, given by its support, is checked as the distribution it blends,
by core.vote_leans, the sums responsiveness takes.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from math import lcm

from .core import (VotingRule, combine_rows, lowest_bit, over_common_denominator, sign_tables,
                   table_masks, vote_leans, vote_sums)

# The vocabulary checked here: the two relations of a cone row g.z >= 0 or
# g.z > 0 over z >= 0, which lp re-exports, the tie modes and sign classes
# of a representation, which wmr and respond re-export, and the modes and
# verdicts of a robustness certificate, which robustness re-exports.
REL_GE = ">="
REL_GT = ">"

MODE_STRICT = "strict"
MODE_WEAK = "weak"
MODES = (MODE_STRICT, MODE_WEAK)

VERDICT_ROBUST = "robust"
VERDICT_NOT_ROBUST = "not_robust"

TIES_ALLOWED = "allowed"
TIES_FORBIDDEN = "forbidden"
TIE_MODES = (TIES_ALLOWED, TIES_FORBIDDEN)

SIGN_CLASS_FREE = "free"
SIGN_CLASS_NONNEGATIVE = "nonnegative"
SIGN_CLASS_POSITIVE = "positive"
SIGN_CLASSES = (SIGN_CLASS_FREE, SIGN_CLASS_NONNEGATIVE, SIGN_CLASS_POSITIVE)

_ZERO = Fraction(0)
_RATIONAL = (int, Fraction)
_HOLDS = {REL_GE: operator.ge, REL_GT: operator.gt}


class InternalError(Exception):
    """A certificate failed its own check before leaving its producer: a
    defect in the package, never a verdict, so neither a ValueError (bad
    input) nor an AssertionError (stripped by `python -O`)."""


def require(holds: bool, message: str) -> None:
    """Raise InternalError(message) unless a producer's check holds."""
    if not holds:
        raise InternalError(message)


def failed_column(matrix, weights, bound=0, strict=True) -> int | None:
    """First column j where sum_i weights[i] * matrix[i][j] is not above
    bound (strict) or not at least bound, or None: the check of weights an
    alternative returns for its matrix."""
    weights, scale = over_common_denominator(weights)
    return _first_failure(combine_rows(weights, matrix), bound * scale, strict)


def failed_extreme_point(rule, weights: Sequence[int], strict: bool = True,
                         points=None) -> int | None:
    """The first extreme point where sum_i w_i E[phi(x) x_i] is not above
    zero (strict) or not at least zero, or None, for integer weights and a
    deterministic or random rule, with no matrix: over the point masses
    (points None) the lowest bit of a mask of sign_tables and the outcome
    signs, else each support priced by phi(x) times w.x."""
    if points is not None:
        sums, phi = vote_sums(weights)[0], rule.outcomes
        return _first_failure([sum(p * phi[x] * sums[x] for x, p in support)
                               for support in points], 0, strict)
    gt, ge = sign_tables(weights)
    if isinstance(rule, VotingRule):
        pos, neg = rule.table, table_masks(rule.n).full ^ rule.table
    else:  # a random rule's outcome signs, read in one pass
        signs = "".join(["+" if v > 0 else "-" if v else "0" for v in reversed(rule.outcomes)])
        pos = int(signs.replace("-", "0").replace("+", "1"), 2)
        neg = int(signs.replace("+", "0").replace("-", "1"), 2)
    fails = (pos & ~gt | neg & ge | table_masks(rule.n).full & ~(pos | neg) if strict
             else pos & ~ge | neg & gt)
    return lowest_bit(fails) if fails else None


# The distribution, column and row checks on a vector already over its
# common denominator `scale`, with the bound scaled to match.

def _is_distribution(numerators: list[int], scale: int) -> bool:
    """Nonnegative entries summing to one."""
    return all(v >= 0 for v in numerators) and sum(numerators) == scale


def _first_failure(sums, bound, strict: bool) -> int | None:
    """The first index whose sum is not above bound (strict) or not at
    least bound, or None."""
    holds = list(map(_HOLDS[REL_GT if strict else REL_GE], sums, repeat(bound)))
    return holds.index(False) if False in holds else None


def extreme_supports(rule, pset):
    """The points of robustness_problem for a core.DistributionSet: None for
    the 2^n point masses in profile order, else each extreme point's support."""
    if rule.n != pset.n:
        raise ValueError(f"rule has n={rule.n} but distribution set has n={pset.n}")
    if len(pset) == 2**rule.n and all(
            dist.masses == ((k, 1),) for k, dist in enumerate(pset.extreme_points)):
        return None
    return [dist.support for dist in pset.extreme_points]


def robustness_problem(rule, strict: bool, weights=None, mixture=None,
                       points=None, scale: int = 1) -> str | None:
    """What is wrong with robustness weights, or else a mixture, for a
    deterministic or random rule over the extreme points with supports
    points (None: the point masses), or None.  Weights are a dense vector
    and a mixture its support: (extreme point, mass) pairs, each point
    once, a point left out having mass zero; either is rationals (scale 1)
    or integers over scale.  Both must be distributions; weights must pass
    failed_extreme_point, and under the distribution q a mixture blends,
    every lean sum_x q(x) phi(x) x_i must be at most zero (below zero when
    not strict)."""
    if weights is not None:
        if scale == 1:  # rational weights, put over their common denominator
            weights, scale = over_common_denominator(weights)
        if not _is_distribution(weights, scale):
            return "weights are not a distribution over individuals"
        j = failed_extreme_point(rule, weights, strict, points)
        return None if j is None else f"weights fail extreme point {j}"
    support, masses = zip(*mixture) if mixture else ((), ())
    if scale == 1:  # rational masses, put over their common denominator
        masses, scale = over_common_denominator(masses)
    if not _is_distribution(masses, scale):
        return "mixture is not a distribution over extreme points"
    if points is not None:  # the blend, over its points' common denominator
        common = lcm(*(p.denominator for k in support for _, p in points[k]))
        blend: dict[int, int] = {}
        for k, m in zip(support, masses):
            for x, p in points[k]:
                blend[x] = blend.get(x, 0) + m * p.numerator * (common // p.denominator)
        support, masses = list(blend), list(blend.values())
    if isinstance(rule, VotingRule):
        signs = rule.outcomes_at(support)
    else:
        signs = map(rule.outcomes.__getitem__, support)
    signed = list(map(operator.mul, masses, signs))
    for i, lean in enumerate(vote_leans(rule.n, support, signed), 1):
        if not (lean <= 0 if strict else lean < 0):
            return f"mixture leaves individual {i} responsive"
    return None


def game_problem(matrix, value, row, col) -> str | None:
    """What is wrong with a claimed solution of the zero-sum game on matrix,
    or None: both strategies must be distributions, the row strategy must
    earn at least value in every column, and the column strategy must hold
    every row to at most value.  Both sides are scaled by the value's
    denominator too, so an integer matrix is checked in integers."""
    row, row_scale = over_common_denominator(row)
    col, col_scale = over_common_denominator(col)
    if not (_is_distribution(row, row_scale) and _is_distribution(col, col_scale)):
        return "game strategies are not distributions"
    value, den = value.as_integer_ratio()
    j = _first_failure([den * s for s in combine_rows(row, matrix)], value * row_scale, False)
    if j is not None:
        return f"row strategy falls below the value in column {j}"
    bound = value * col_scale  # each row's dot with col, times den, at most the bound
    i = _first_failure([bound - den * sum(map(operator.mul, r, col)) for r in matrix], 0, False)
    return None if i is None else f"column strategy exceeds the value in row {i}"


def satisfies(system, point: Sequence[Fraction]) -> bool:
    """Exact substitution of a point, rationals or integer numerators over
    a positive scale, into a homogeneous cone: every entry is nonnegative
    and every row's dot product is >= 0 or > 0 as it says.  Over the point's
    least common denominator no sign changes, and integer rows stay integer."""
    values, _ = over_common_denominator(list(point))
    if len(values) != system.num_vars or any(v < 0 for v in values):
        return False
    return all(_HOLDS[row.relation](sum(map(operator.mul, row.coeffs, values)), 0)
               for row in system.rows)


def certifies_infeasibility(system, multipliers: Sequence[Fraction]) -> bool:
    """Check that row multipliers, rationals or integer numerators over a
    positive scale, combine a homogeneous cone into 0 > 0.

    Requirements: every multiplier is nonnegative; every combined
    coefficient is <= 0, so the combination is <= 0 at any z >= 0; and
    some strict row has a positive multiplier, so it must be > 0.
    """
    mults, _ = over_common_denominator(list(multipliers))  # every test below is of a sign
    if len(mults) != len(system.rows) or any(m < 0 for m in mults):
        return False
    combined = combine_rows(mults, [row.coeffs for row in system.rows]) if mults else []
    return all(v <= 0 for v in combined) and any(
        m for m, row in zip(mults, system.rows) if row.relation == REL_GT)


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
    numerators, _ = over_common_denominator(
        [w if type(w) in _RATIONAL else Fraction(w) for w in weights])
    if len(numerators) != rule.n:
        raise ValueError(f"{len(numerators)} weights for n={rule.n}")
    return any(numerators) and failed_extreme_point(
        rule, numerators, ties == TIES_FORBIDDEN) is None


def sign_pattern_holds(rule, weights: Sequence[Fraction]) -> bool:
    """Whether the weighted vote sum has the strict sign of the expected
    outcome at every profile: the certificate of a robust random rule."""
    return failed_extreme_point(rule, over_common_denominator(weights)[0]) is None


def rtf_maximum(weights: Sequence[Fraction], dist) -> Fraction:
    """The maximum over all rules of sum_i w_i r_i under dist, in closed
    form: (E[|sum_i w_i x_i|] + sum_i w_i) / 2."""
    sums, scale = vote_sums(weights)
    expectation = Fraction(sum(m * abs(sums[idx]) for idx, m in dist.masses), scale * dist.scale)
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


def net_gains(rule, utilities, scale: int, mixture) -> tuple[Fraction, ...]:
    """What each individual expects from the rule over its inverse when the
    state is drawn from mixture, a core.Mixture over the states;
    utilities[x][i] is i's pair (payoff if +1, payoff if -1) in the state
    tied to profile x, integers over scale.  Each gain is one integer sum
    sum_x m_x phi(x) (hi - lo) over scale times the mixture's scale."""
    spreads = [hi - lo for row in utilities for hi, lo in row]  # state-major, n per state
    signed = list(map(operator.mul, mixture.numerators, rule.outcomes))
    total = scale * mixture.scale
    return tuple(Fraction(sum(map(operator.mul, signed, spreads[i::rule.n])), total)
                 for i in range(rule.n))
