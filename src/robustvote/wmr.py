"""Weighted-majority representations of deterministic rules.

A rule is a weighted majority rule for a weight vector w when the outcome
always sides with the sign of the weighted vote sum.  Ties allowed means the
sum may vanish; ties forbidden means it never does.  Detection is a linear
feasibility question over the weights, one inequality per profile.  With
nonnegative weights and ties forbidden that question is strict robustness
over the point masses, so its answer is read off that certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .certificates import (
    SIGN_CLASS_FREE,
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
    REL_EQ,
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


# Nonnegative weights with no ties are exactly strict robustness weights over
# the point masses, so this query is answered by the strict certificate.
TIE_FREE_NONNEGATIVE = WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_FORBIDDEN)


def _signed_sum_rows(rule: VotingRule, relation: str) -> list[LinearRow]:
    """One row per profile x, phi(x) * x: the columns of the point-mass matrix."""
    return [
        LinearRow(column, relation, Fraction(0))
        for column in zip(*degenerate_agreement_matrix(rule))
    ]


def _unit_row(n: int, i: int, relation: str, rhs: Fraction) -> LinearRow:
    coeffs = tuple(Fraction(1 if j == i else 0) for j in range(n))
    return LinearRow(coeffs, relation, rhs)


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
    re-checked against every profile before being returned.  A tie-free
    nonnegative one is read off the strict robustness certificate, whose
    mixture, when it has one, has passed its own check.
    """
    if query == TIE_FREE_NONNEGATIVE:
        return _represented(rule, certify_p_robust_full(rule, MODE_STRICT).weights, query)
    n = rule.n
    relation = REL_GT if query.ties == TIES_FORBIDDEN else REL_GE
    rows = _signed_sum_rows(rule, relation)
    signs = (SIGN_NONNEG,) * n
    if query.sign_class == SIGN_CLASS_FREE:
        signs = (SIGN_FREE,) * n
    elif query.sign_class == SIGN_CLASS_POSITIVE:
        rows.extend(_unit_row(n, i, REL_GT, Fraction(0)) for i in range(n))

    witness = None
    needs_sweep = (
        query.ties == TIES_ALLOWED and query.sign_class == SIGN_CLASS_FREE
    )
    if needs_sweep:
        # Weak rows alone admit w = 0.  Any nonzero solution can be scaled
        # so some coordinate equals +1 or -1, so pinning each in turn
        # decides existence.
        for i in range(n):
            for sign in (1, -1):
                pinned = rows + [_unit_row(n, i, REL_EQ, Fraction(sign))]
                result = solve_feasibility(LinearSystem(n, tuple(pinned), signs))
                if result.feasible:
                    witness = result.witness
                    break
            if witness is not None:
                break
    else:
        if query.ties == TIES_ALLOWED and query.sign_class == SIGN_CLASS_NONNEGATIVE:
            # w != 0 over nonnegative weights is one strict row
            rows.append(LinearRow((Fraction(1),) * n, REL_GT, Fraction(0)))
        result = solve_feasibility(LinearSystem(n, tuple(rows), signs))
        if result.feasible:
            witness = result.witness

    return _represented(rule, witness, query)


def classify_rule(rule: VotingRule) -> dict:
    """Bundle the structural predicates and certificates for one rule."""
    strict_cert = certify_p_robust_full(rule, MODE_STRICT)
    weak_cert = certify_p_robust_full(rule, MODE_WEAK)
    wmr_results = {}
    for sign_class in SIGN_CLASSES:
        for ties in TIE_MODES:
            query = WmrQuery(sign_class, ties)
            if query == TIE_FREE_NONNEGATIVE:
                found = _represented(rule, strict_cert.weights, query)
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
