"""Weighted-majority representations of deterministic rules.

A rule is a weighted majority rule for a weight vector w when the outcome
always sides with the sign of the weighted vote sum.  Ties allowed means the
sum may vanish; ties forbidden means it never does.  Detection is a linear
feasibility question over the weights, one inequality per profile.  With
nonnegative weights that question is robustness over the point masses,
strict when ties are forbidden and weak when they are allowed, so both
nonnegative answers are read off those certificates.  Free weights with
ties allowed exclude w = 0 by one weak row on the Chow vector (the rule's
summed signed profiles, Chow 1961): c.w >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .certificates import (
    SIGN_CLASS_NONNEGATIVE,
    SIGN_CLASS_POSITIVE,
    SIGN_CLASSES,
    TIE_MODES,
    TIES_ALLOWED,
    TIES_FORBIDDEN,
    require,
    weights_represent,
)
from .core import (
    VotingRule,
    is_anonymous,
    is_dictatorship,
    is_own_vote_monotone,
    over_common_denominator,
)
from .lp import (
    REL_GE,
    REL_GT,
    SIGN_FREE,
    SIGN_NONNEG,
    LinearRow,
    LinearSystem,
    solve_feasibility,
)
from .respond import WeightVector
from .robustness import (
    MODE_STRICT,
    MODE_WEAK,
    VERDICT_ROBUST,
    certify_p_robust_full,
    degenerate_agreement_matrix,
)


@dataclass(frozen=True)
class WmrQuery:
    """Which representation is being asked for."""

    sign_class: str = SIGN_CLASS_NONNEGATIVE
    ties: str = TIES_ALLOWED

    def __post_init__(self) -> None:
        if self.sign_class not in SIGN_CLASSES:
            raise ValueError(f"unknown sign class {self.sign_class!r}")
        if self.ties not in TIE_MODES:
            raise ValueError(f"unknown tie mode {self.ties!r}")


# Nonnegative weights are robustness weights over the point masses: strict
# robustness forbids ties, weak robustness allows them.
_ROBUSTNESS_MODE = {TIES_FORBIDDEN: MODE_STRICT, TIES_ALLOWED: MODE_WEAK}


def _unit_row(n: int, i: int) -> LinearRow:
    """w_i > 0."""
    coeffs = tuple(Fraction(1 if j == i else 0) for j in range(n))
    return LinearRow(coeffs, REL_GT, Fraction(0))


def _smallest_integer_direction(ws: Sequence[Fraction]) -> tuple[Fraction, ...]:
    ints, _ = over_common_denominator(ws)
    g = gcd(*ints)
    if g == 0:
        return tuple(Fraction(0) for _ in ints)
    return tuple(Fraction(v // g) for v in ints)


def _represented(rule: VotingRule, witness, query: WmrQuery) -> WeightVector | None:
    """The witness scaled to the smallest integer direction, re-checked
    against every profile, or None when there is no witness."""
    if witness is None:
        return None
    cleared = _smallest_integer_direction(witness)
    require(weights_represent(rule, cleared, query.ties),
            "recovered weights fail re-verification")
    return WeightVector(cleared, query.sign_class)


def detect_wmr(rule: VotingRule, query: WmrQuery) -> WeightVector | None:
    """Recover a weight vector of the requested kind, or report none exists.

    The recovered vector is scaled to the smallest integer direction and
    re-checked against every profile before being returned.  Nonnegative
    weights are read off the robustness certificate of the matching mode,
    whose weights, when it has them, have passed their own check; every
    other query is one linear system.
    """
    if query.sign_class == SIGN_CLASS_NONNEGATIVE:
        cert = certify_p_robust_full(rule, _ROBUSTNESS_MODE[query.ties])
        return _represented(rule, cert.weights, query)
    n = rule.n
    matrix = degenerate_agreement_matrix(rule)
    relation = REL_GT if query.ties == TIES_FORBIDDEN else REL_GE
    # One row per profile x, phi(x) * x: the columns of the point-mass matrix.
    rows = [LinearRow(column, relation, Fraction(0)) for column in zip(*matrix)]
    signs = (SIGN_FREE,) * n
    if query.sign_class == SIGN_CLASS_POSITIVE:
        signs = (SIGN_NONNEG,) * n
        rows.extend(_unit_row(n, i) for i in range(n))
    elif query.ties == TIES_ALLOWED:
        # Weak rows alone admit w = 0.  A representing w != 0 agrees
        # strictly at x = sign(w) (a zero weight voting +1) and disagrees
        # nowhere, so its dot with the Chow vector c, the sum of the
        # profile rows, is positive and scales to c.w >= 1, which in turn
        # excludes w = 0.
        rows.append(LinearRow(tuple(map(sum, matrix)), REL_GE, Fraction(1)))
    result = solve_feasibility(LinearSystem(n, tuple(rows), signs))
    return _represented(rule, result.witness, query)


def classify_rule(rule: VotingRule) -> dict:
    """Bundle the structural predicates and certificates for one rule."""
    certs = {ties: certify_p_robust_full(rule, mode)
             for ties, mode in _ROBUSTNESS_MODE.items()}
    strict_cert, weak_cert = certs[TIES_FORBIDDEN], certs[TIES_ALLOWED]
    wmr_results = {}
    for sign_class in SIGN_CLASSES:
        for ties in TIE_MODES:
            query = WmrQuery(sign_class, ties)
            if sign_class == SIGN_CLASS_NONNEGATIVE:
                found = _represented(rule, certs[ties].weights, query)
            else:
                found = detect_wmr(rule, query)
            wmr_results[f"{sign_class}_{ties}"] = (
                found.to_json() if found is not None else None
            )

    robust = strict_cert.verdict == VERDICT_ROBUST
    weakly_robust = weak_cert.verdict == VERDICT_ROBUST

    nonneg_noties = wmr_results[f"{SIGN_CLASS_NONNEGATIVE}_{TIES_FORBIDDEN}"]
    nonneg_ties = wmr_results[f"{SIGN_CLASS_NONNEGATIVE}_{TIES_ALLOWED}"]
    require(
        robust == (nonneg_noties is not None)
        and weakly_robust == (nonneg_ties is not None)
        and (weakly_robust or not robust),
        "robustness verdicts disagree with the nonnegative representations",
    )

    monotone, violation = is_own_vote_monotone(rule)
    dictator = is_dictatorship(rule)
    report = {
        "n": rule.n,
        "table": rule.to_table_string(),
        "anonymous": is_anonymous(rule),
        "dictator": dictator,
        "monotone": monotone,
        "robust": robust,
        "weakly_robust": weakly_robust,
        "wmr": wmr_results,
        "certificates": {
            "robust": strict_cert.to_json(),
            "weakly_robust": weak_cert.to_json(),
        },
    }
    if not monotone:
        individual, others = violation
        report["monotone_violation"] = {
            "individual": individual,
            "others_votes": list(others),
        }
    require(dictator is None or (robust and monotone),
            "dictatorship must be robust and monotone")
    return report
