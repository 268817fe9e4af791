"""Expected-utility robustness thresholds and the dictatorship collapse.

When voters weigh decisions by utility gains rather than raw agreement,
robustness depends on how lopsided the conditional gains may be.  Below a
rule-dependent positive threshold the requirement coincides with plain
responsiveness robustness; above 2^n - 2 it forces a dictator.  Both
thresholds are computable exactly, and the collapse direction comes with an
explicit utility table showing that without a dictator nobody expects to
gain from the rule over its inverse.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .certificates import net_gains, require
from .core import (
    Distribution,
    DistributionSet,
    Frozen,
    VotingRule,
    enumerate_tables,
    format_rational,
    is_dictatorship,
    is_own_vote_monotone,
    profile_strings,
    table_rule,
)
from .respond import responsiveness

MAX_THRESHOLD_N = 4


class ExtendedRational(Frozen):
    """A rational or positive infinity; infinity compares above everything."""

    _fields = ("value",)

    @classmethod
    def finite(cls, value: Fraction) -> "ExtendedRational":
        return cls(Fraction(value))

    @classmethod
    def infinity(cls) -> "ExtendedRational":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _keys(self, other) -> tuple[tuple, tuple]:
        """Sort keys of self and other, a number or an ExtendedRational:
        (0, value) when finite and (1, 0) at infinity, the extended order."""
        other = other if isinstance(other, ExtendedRational) else ExtendedRational.finite(other)
        return tuple((1, 0) if x.is_infinite else (0, x.value) for x in (self, other))

    def __lt__(self, other) -> bool:
        return operator.lt(*self._keys(other))

    def __le__(self, other) -> bool:
        return operator.le(*self._keys(other))

    def __gt__(self, other) -> bool:
        return operator.gt(*self._keys(other))

    def __ge__(self, other) -> bool:
        return operator.ge(*self._keys(other))

    def format(self) -> str:
        return "inf" if self.is_infinite else format_rational(self.value)


def gain_ratio(r: Fraction) -> ExtendedRational:
    """The heterogeneity bound (2r - 1) / (1 - r), infinite at r = 1."""
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError(f"responsiveness {r} outside [0, 1]")
    if r == 1:
        return ExtendedRational.infinity()
    return ExtendedRational.finite((2 * r - 1) / (1 - r))


def is_strategy_proof(rule: VotingRule) -> bool:
    """Sincere voting is a best response exactly when no individual can
    flip the outcome toward their vote by misreporting, which is own-vote
    monotonicity."""
    return is_own_vote_monotone(rule)[0]


def epsilon_lower_witness(n: int):
    """The lower threshold, the largest heterogeneity level certain to
    preserve the robustness characterization (the worst gain ratio over
    robust rules), together with the rule attaining it.

    Returns (level, rule, game) where game solves the responsiveness
    game for the binding rule, so the level can be re-derived from the
    game value without repeating the search. Ties go to the rule that
    enumerates first.
    """
    from .robustness import is_robust_table, responsiveness_game  # `verify` never solves

    if not 1 <= n <= MAX_THRESHOLD_N:
        raise ValueError(f"threshold enumeration is limited to 1 <= n <= {MAX_THRESHOLD_N}")
    degenerates = DistributionSet.degenerates(n)
    best: ExtendedRational | None = None
    binding = None
    binding_game = None
    for t in enumerate_tables(n, is_robust_table):
        rule = table_rule(n, t)
        game = responsiveness_game(rule, degenerates)
        level = gain_ratio(game.value)
        if best is None or level < best:
            best = level
            binding = rule
            binding_game = game
    require(best is not None, "no robust rule found, yet dictators are always robust")
    require(best > 0, "the lower threshold is not strictly positive")
    return best, binding, binding_game


def epsilon_upper(n: int) -> Fraction:
    """Heterogeneity level beyond which robustness forces a dictator."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Fraction(2**n - 2)


class GammaWitness(Frozen):
    """Utility table showing a dictatorless rule is beatable by its inverse.

    utilities[x][i] is the pair (payoff if the decision is +1, payoff if
    -1) for individual i in the state tied to profile x.  Under the uniform
    mixture over states, net_gains[i] is what i expects from the rule over
    its inverse; every entry is nonpositive.
    """

    _fields = ("n", "utilities", "mixture", "net_gains")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "utilities": [
                [[format_rational(hi), format_rational(lo)] for hi, lo in row]
                for row in self.utilities
            ],
            "mixture": [format_rational(m) for m in self.mixture],
            "net_gains": [format_rational(g) for g in self.net_gains],
        }


def _utility_table(rule: VotingRule, small, one, zero) -> tuple:
    # The pair of each vote in a profile string, where the rule decides + or -.
    pairs = {"+": {"+": (small, zero), "-": (zero, one)},
             "-": {"+": (one, zero), "-": (zero, small)}}
    return tuple(tuple(map(pairs[outcome].__getitem__, votes))
                 for outcome, votes in zip(rule.to_table_string(), profile_strings(rule.n)))


def gamma_utilities(
    rule: VotingRule,
) -> tuple[tuple[tuple[Fraction, Fraction], ...], ...]:
    """The per-state utility pairs: the favored decision pays, a small
    amount when the rule already agrees with the vote and a full unit when
    it does not."""
    return _utility_table(rule, Fraction(1, 2**rule.n - 1), Fraction(1), Fraction(0))


def gamma_payoffs(rule: VotingRule) -> tuple[tuple, int]:
    """gamma_utilities as integers over 2^n - 1, with that scale."""
    scale = 2**rule.n - 1
    return _utility_table(rule, 1, scale, 0), scale


def gamma_counterexample(rule: VotingRule) -> GammaWitness:
    """Build the utility mixture under which no individual gains from a
    dictatorless rule relative to its inverse."""
    if is_dictatorship(rule) is not None:
        raise ValueError("the construction requires a rule with no dictator")
    n = rule.n
    size = 2**n
    share = Fraction(1, size)
    mixture = tuple(share for _ in range(size))
    uniform = Distribution.uniform(n)
    gains = net_gains(rule, *gamma_payoffs(rule), uniform)

    r = responsiveness(rule, uniform)
    small = Fraction(1, size - 1)
    require(gains == tuple(ri * small - (1 - ri) for ri in r.values),
            "utility-table net gain disagrees with the responsiveness form")
    require(all(g <= 0 for g in gains), "net gain must be nonpositive without a dictator")
    return GammaWitness(n, gamma_utilities(rule), mixture, gains)
