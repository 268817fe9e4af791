"""Responsiveness of rules to individual votes.

The responsiveness of individual i under rule phi and profile distribution p
is the probability that the collective outcome agrees with i's vote.  For
deterministic rules this is a probability mass; the expectation identity
r_i = (E[phi(x) x_i] + 1) / 2 extends it to random rules.  Both forms are
computed for deterministic inputs and must coincide.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from operator import eq, mul

from .certificates import (
    SIGN_CLASS_FREE,
    SIGN_CLASS_NONNEGATIVE,
    SIGN_CLASS_POSITIVE,
    attains,
    in_sign_class,
    require,
    rtf_maximum,
)
from .core import (
    Distribution,
    Frozen,
    RandomVotingRule,
    VotingRule,
    format_rational,
    is_anonymous,
    over_common_denominator,
    profile_strings,
    sign_tables,
    table_rule,
    vote_leans,
)


class ResponsivenessVector(Frozen):
    """Per-individual agreement probabilities, exact rationals in [0, 1]."""

    _fields = ("values",)

    def __init__(self, values: Sequence[Fraction]) -> None:
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in values)
        for i, v in enumerate(vals, start=1):
            if not 0 <= v <= 1:
                raise ValueError(f"responsiveness of individual {i} is {v}, outside [0, 1]")
        object.__setattr__(self, "values", vals)  # as _set, unrolled: built per responsiveness

    @property
    def n(self) -> int:
        return len(self.values)

    def for_individual(self, individual: int) -> Fraction:
        if not 1 <= individual <= self.n:
            raise ValueError(f"individual {individual} out of range for n={self.n}")
        return self.values[individual - 1]

    def minimum(self) -> Fraction:
        return min(self.values)

    def to_json(self) -> list[str]:
        return [format_rational(v) for v in self.values]

    def __iter__(self):
        return iter(self.values)


class WeightVector(Frozen):
    """A weight per individual together with its declared sign class."""

    _fields = ("weights", "sign_class")

    def __init__(self, weights: Sequence[Fraction], sign_class: str = SIGN_CLASS_FREE) -> None:
        # Checked as given (a producer's ints compare fast), then made Fractions.
        ws = tuple(weights)
        if not in_sign_class(ws, sign_class):
            raise ValueError(f"weights are all zero or leave the {sign_class} sign class")
        object.__setattr__(self, "weights", tuple(  # as _set, unrolled: built per detect_wmr
            w if type(w) is Fraction else Fraction(w) for w in ws))
        object.__setattr__(self, "sign_class", sign_class)

    @property
    def n(self) -> int:
        return len(self.weights)

    def to_json(self) -> dict:
        return {
            "weights": [format_rational(w) for w in self.weights],
            "sign_class": self.sign_class,
        }


def responsiveness(
    rule: VotingRule | RandomVotingRule, dist: Distribution
) -> ResponsivenessVector:
    """Agreement probability of the outcome with each individual's vote."""
    if rule.n != dist.n:
        raise ValueError(f"rule has n={rule.n} but distribution has n={dist.n}")
    support, probs = zip(*dist.masses)
    outcomes, outcome_scale = over_common_denominator([rule.outcomes[idx] for idx in support])
    # p(x) phi(x) at each atom, as integers over scale; outcome_scale is 1
    # for a deterministic rule.
    weighted = list(map(mul, probs, outcomes))
    scale = dist.scale * outcome_scale
    leans = vote_leans(rule.n, support, weighted)
    if isinstance(rule, VotingRule):  # the mass where i's vote in the profile string is the outcome
        decided = list(map({1: "+", -1: "-"}.__getitem__, outcomes))
        for lean, votes in zip(leans, zip(*map(profile_strings(rule.n).__getitem__, support))):
            mass = sum(compress(probs, map(eq, decided, votes)))
            require(2 * mass == lean + scale, "agreement mass and expectation identity disagree")
    return ResponsivenessVector(tuple(Fraction(lean + scale, 2 * scale) for lean in leans))


def agreement_counts(rule: VotingRule) -> tuple[int, ...]:
    """d_k for an anonymous rule: individuals agreeing with the outcome
    on any profile where exactly k vote +1."""
    if not is_anonymous(rule):
        raise ValueError("agreement counts are defined for anonymous rules only")
    n = rule.n
    counts = []
    for k in range(n + 1):
        outcome = rule.outcomes[(1 << k) - 1]  # the profile with k leading supporters
        counts.append(k if outcome == 1 else n - k)
    return tuple(counts)


def mean_responsiveness_by_count(
    rule: VotingRule, count_probs: Sequence[Fraction]
) -> Fraction:
    """Average responsiveness over individuals, driven only by the
    distribution of how many vote +1."""
    n = rule.n
    if len(count_probs) != n + 1:
        raise ValueError(f"need {n + 1} count probabilities, got {len(count_probs)}")
    probs = [Fraction(p) for p in count_probs]
    if any(p < 0 for p in probs) or sum(probs) != 1:
        raise ValueError("count probabilities must be nonnegative and sum to 1")
    d = agreement_counts(rule)
    return sum((d[k] * probs[k] for k in range(n + 1)), Fraction(0)) / n


def rtf_max_weighted(
    weights: WeightVector | Sequence[Fraction], dist: Distribution
) -> tuple[Fraction, VotingRule]:
    """Maximum of the weighted responsiveness sum over all rules.

    The pointwise maximizer signs the weighted vote sum, so the maximum of
    sum_i w_i E[phi(x) x_i] is E[|sum_i w_i x_i|].  The value returned is in
    responsiveness terms, (E[|sum w_i x_i|] + sum w_i) / 2, together with an
    argmax rule that maps ties to +1.
    """
    ws = (weights if isinstance(weights, WeightVector) else WeightVector(weights)).weights
    n = dist.n
    if len(ws) != n:
        raise ValueError(f"{len(ws)} weights for n={n}")
    value = rtf_maximum(ws, dist)
    argmax = table_rule(n, sign_tables(over_common_denominator(ws)[0])[1])
    require(attains(ws, responsiveness(argmax, dist).values, value),
            "argmax rule does not attain the closed-form maximum")
    return value, argmax
