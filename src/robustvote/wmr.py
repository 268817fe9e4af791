"""Weighted-majority representations of deterministic rules.

A rule is a weighted majority rule for a weight vector w when the outcome
always sides with the sign of the weighted vote sum: w^T L >= 0 (ties
allowed) or > 0 (ties forbidden) in every column of the point-mass
agreement matrix L, whose column for profile x is phi(x) * x.  So every
query is a theorem of the alternative on L.  Nonnegative weights are the
robustness weights over the point masses (strict without ties, weak with).
Positive weights without ties exist iff the rule is strictly robust: the
strict certificate's integer direction w has margins of at least 1 and
|sum_i x_i| <= n, so (n + 1) w + 1 keeps them positive.  Positive weights
with ties are Stiemke's alternative on L.  Free weights are nonnegative
weights of the oriented rule, which negates the votes the rule only ever
opposes (decreasing but not increasing in them), negated back: a weight is
positive only on an increasing vote, negative only on a decreasing one,
and a vote the rule ignores may take either sign.
Every answer is read off the integers of a core.Mixture (a certificate's
weighting or the alternative's row side) and checked in integers.
"""

from __future__ import annotations

from math import gcd

from .certificates import (
    SIGN_CLASS_FREE,
    SIGN_CLASS_NONNEGATIVE,
    SIGN_CLASS_POSITIVE,
    SIGN_CLASSES,
    TIE_MODES,
    TIES_ALLOWED,
    TIES_FORBIDDEN,
    in_sign_class,
    require,
    weights_represent,
)
from .core import (
    Frozen,
    VotingRule,
    is_anonymous,
    is_dictatorship,
    is_own_vote_monotone,
    negate_votes,
    table_masks,
    table_rule,
    violation_sets,
)
from .lp import alternative_positive
from .respond import WeightVector
from .robustness import (
    MODE_STRICT,
    MODE_WEAK,
    VERDICT_ROBUST,
    certify_p_robust_full,
    degenerate_agreement_matrix,
)


class WmrQuery(Frozen):
    """Which representation is being asked for."""

    _fields = ("sign_class", "ties")

    def __init__(self, sign_class: str = SIGN_CLASS_NONNEGATIVE, ties: str = TIES_ALLOWED) -> None:
        if sign_class not in SIGN_CLASSES:
            raise ValueError(f"unknown sign class {sign_class!r}")
        if ties not in TIE_MODES:
            raise ValueError(f"unknown tie mode {ties!r}")
        self._set(sign_class, ties)


# Nonnegative weights are robustness weights over the point masses: strict
# robustness forbids ties, weak robustness allows them.
_ROBUSTNESS_MODE = {TIES_FORBIDDEN: MODE_STRICT, TIES_ALLOWED: MODE_WEAK}


def _represented(rule: VotingRule, weights: list[int] | None,
                 query: WmrQuery) -> WeightVector | None:
    """Integer weights divided by their gcd, re-checked against their sign
    class and every profile, or None when there are none."""
    if weights is None:
        return None
    common = gcd(*weights) or 1
    cleared = [w // common for w in weights]
    require(in_sign_class(cleared, query.sign_class)
            and weights_represent(rule, cleared, query.ties),
            "recovered weights fail re-verification")
    return WeightVector(cleared, query.sign_class)


def _certify(rule: VotingRule, ties: str):
    return certify_p_robust_full(rule, _ROBUSTNESS_MODE[ties])


def _weights(rule: VotingRule, query: WmrQuery, certify=_certify) -> list[int] | None:
    """Unchecked integer weights answering the query, or None, read off the
    coprime integers of a weighting Mixture; certify(rule, ties) gives the
    robustness certificate of the matching mode."""
    ties = query.ties
    if query.sign_class == SIGN_CLASS_FREE:
        # Opposed votes: decreasing (violating the negated table), not increasing.
        n, t = rule.n, rule.table
        violations = zip(violation_sets(n, t), violation_sets(n, table_masks(n).full ^ t))
        opposed = [i for i, (up, down) in enumerate(violations, start=1) if up and not down]
        oriented = table_rule(n, negate_votes(n, t, opposed)) if opposed else rule
        side = certify(oriented, ties).weighting
        return side and [-w if i in opposed else w for i, w in enumerate(side.numerators, 1)]
    if query.sign_class == SIGN_CLASS_NONNEGATIVE:
        side = certify(rule, ties).weighting
        return side and side.numerators
    if ties == TIES_FORBIDDEN:
        side = certify(rule, ties).weighting
        return side and [(rule.n + 1) * w + 1 for w in side.numerators]
    side = alternative_positive(degenerate_agreement_matrix(rule)).row_side
    return side and side.numerators


def detect_wmr(rule: VotingRule, query: WmrQuery) -> WeightVector | None:
    """Recover a weight vector of the requested kind, or report none exists.
    It is its smallest integer direction, re-checked against its sign class
    and every profile before being returned."""
    return _represented(rule, _weights(rule, query), query)


def classify_rule(rule: VotingRule) -> dict:
    """Bundle the structural predicates and certificates for one rule.

    The rule's two robustness certificates serve every query about it but
    positive weights with ties, Stiemke's alternative, solved once.  Its
    weights also prove weak robustness, so the weak LP runs only when
    neither they nor the screen settle it.
    """
    positive = alternative_positive(degenerate_agreement_matrix(rule)).row_side
    certs = {TIES_FORBIDDEN: certify_p_robust_full(rule, MODE_STRICT),
             TIES_ALLOWED: certify_p_robust_full(rule, MODE_WEAK, positive)}

    def certify(target: VotingRule, ties: str):
        return certs[ties] if target == rule else _certify(target, ties)

    wmr_results = {}
    for sign_class in SIGN_CLASSES:
        for ties in TIE_MODES:
            query = WmrQuery(sign_class, ties)
            ws = (positive and positive.numerators
                  if (sign_class, ties) == (SIGN_CLASS_POSITIVE, TIES_ALLOWED)
                  else _weights(rule, query, certify))
            found = _represented(rule, ws, query)
            wmr_results[f"{sign_class}_{ties}"] = found.to_json() if found else None

    # The nonnegative entries are these certificates' weights.
    robust = certs[TIES_FORBIDDEN].verdict == VERDICT_ROBUST
    weakly_robust = certs[TIES_ALLOWED].verdict == VERDICT_ROBUST
    require(weakly_robust or not robust, "robust rule without weak robustness")

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
            "robust": certs[TIES_FORBIDDEN].to_json(),
            "weakly_robust": certs[TIES_ALLOWED].to_json(),
        },
    }
    if not monotone:
        individual, others = violation
        report["monotone_violation"] = {"individual": individual, "others_votes": list(others)}
    require(dictator is None or (robust and monotone),
            "dictatorship must be robust and monotone")
    return report
