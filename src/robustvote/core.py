"""Core domain types for binary collective choice.

Encoding conventions, used everywhere in this package:

* An electorate has n individuals, numbered 1..n, with 1 <= n <= 16.
* A vote profile is encoded as an integer index in [0, 2**n): bit i-1 of
  the index is set iff individual i votes +1.
* Profile strings list individual 1 first: "++-" means individuals 1 and 2
  vote +1 and individual 3 votes -1.
* A deterministic rule is a truth table over all 2**n profiles, written as
  a string of '+' and '-' characters in ascending profile-index order.
* All probabilities and outcomes are exact rationals. On disk they are
  "numerator/denominator" strings (a bare integer string is also accepted
  on input). No floats are ever read or written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterator, Sequence

MAX_INDIVIDUALS = 16
MAX_ENUMERATION_INDIVIDUALS = 4

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class FormatError(ValueError):
    """Malformed on-disk data. The message names the offending field."""


def parse_rational(text: str, field: str = "value") -> Fraction:
    """Parse a "num/den" or bare-integer string into an exact rational."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise FormatError(f"{field}: expected a rational 'num/den' string, got {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _check_n(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_INDIVIDUALS:
        raise ValueError(f"n must be an integer in [1, {MAX_INDIVIDUALS}], got {n!r}")


def popcount(index: int) -> int:
    return index.bit_count()


def vote_in_profile(index: int, individual: int) -> int:
    """Vote (+1 or -1) of the given individual in the profile with this index."""
    return 1 if (index >> (individual - 1)) & 1 else -1


@lru_cache(maxsize=None)
def sign_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i-1 holds individual i's vote at every profile index, in index
    order: every other module reads votes from here, never from the bits."""
    _check_n(n)
    return tuple(
        tuple(vote_in_profile(idx, i) for idx in range(2**n)) for i in range(1, n + 1)
    )


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator
    d > 0, with d: multiplying an inequality by d keeps it, and integer
    dot products are far cheaper than rational ones."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def vote_sums(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """The weighted vote sum sum_i w_i x_i at every profile, in index order,
    as integers scaled by the weights' common denominator d > 0, with d."""
    numerators, scale = over_common_denominator(weights)
    sums = [0] * 2 ** len(numerators)
    for w, row in zip(numerators, sign_table(len(numerators))):
        if w:
            sums = [s + w * v for s, v in zip(sums, row)]
    return sums, scale


@dataclass(frozen=True)
class DecisionProfile:
    """One joint vote: n individuals, each voting +1 or -1."""

    n: int
    index: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not 0 <= self.index < 2 ** self.n:
            raise ValueError(f"profile index {self.index} out of range for n={self.n}")

    def vote(self, individual: int) -> int:
        if not 1 <= individual <= self.n:
            raise ValueError(f"individual {individual} out of range for n={self.n}")
        return vote_in_profile(self.index, individual)

    @property
    def support_size(self) -> int:
        """Number of individuals voting +1."""
        return popcount(self.index)

    @classmethod
    def from_votes(cls, votes: Sequence[int]) -> "DecisionProfile":
        n = len(votes)
        _check_n(n)
        index = 0
        for i, v in enumerate(votes):
            if v not in (-1, 1):
                raise ValueError(f"votes must be +1/-1, got {v!r}")
            if v == 1:
                index |= 1 << i
        return cls(n, index)

    @classmethod
    def from_string(cls, text: str, field: str = "profile") -> "DecisionProfile":
        if not text or set(text) - {"+", "-"}:
            raise FormatError(f"{field}: expected '+'/'-' characters, got {text!r}")
        return cls.from_votes([1 if c == "+" else -1 for c in text])

    def to_string(self) -> str:
        return "".join("+" if self.vote(i) == 1 else "-" for i in range(1, self.n + 1))

    def votes(self) -> tuple[int, ...]:
        return tuple(self.vote(i) for i in range(1, self.n + 1))


def all_profiles(n: int) -> Iterator[DecisionProfile]:
    _check_n(n)
    for index in range(2 ** n):
        yield DecisionProfile(n, index)


@dataclass(frozen=True)
class VotingRule:
    """Deterministic rule: one +1/-1 outcome per profile.

    outcomes[k] is the outcome at profile index k.
    """

    n: int
    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        if len(self.outcomes) != 2 ** self.n:
            raise ValueError(
                f"rule needs {2 ** self.n} outcomes for n={self.n}, got {len(self.outcomes)}"
            )
        if any(v not in (-1, 1) for v in self.outcomes):
            raise ValueError("rule outcomes must all be +1 or -1")

    def outcome(self, profile: "DecisionProfile | int") -> int:
        index = profile.index if isinstance(profile, DecisionProfile) else profile
        return self.outcomes[index]

    def to_table_string(self) -> str:
        return "".join("+" if v == 1 else "-" for v in self.outcomes)

    @classmethod
    def from_table_string(cls, n: int, table: str, field: str = "table") -> "VotingRule":
        _check_n(n)
        if not isinstance(table, str) or len(table) != 2 ** n or set(table) - {"+", "-"}:
            raise FormatError(
                f"{field}: expected {2 ** n} characters of '+'/'-' for n={n}, got {table!r}"
            )
        return cls(n, tuple(1 if c == "+" else -1 for c in table))

    def to_json(self) -> dict:
        return {"n": self.n, "table": self.to_table_string()}

    @classmethod
    def from_json(cls, data: dict) -> "VotingRule":
        n = _json_n(data)
        if "table" not in data:
            raise FormatError("table: missing")
        return cls.from_table_string(n, data["table"])


@dataclass(frozen=True)
class RandomVotingRule:
    """Random rule: one expected outcome in [-1, 1] per profile.

    outcomes[k] is the expected outcome at profile index k, an exact
    rational. A deterministic rule embeds as outcomes in {-1, +1}.
    """

    n: int
    outcomes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        if len(self.outcomes) != 2 ** self.n:
            raise ValueError(
                f"rule needs {2 ** self.n} outcomes for n={self.n}, got {len(self.outcomes)}"
            )
        object.__setattr__(self, "outcomes", tuple(Fraction(v) for v in self.outcomes))
        if any(not -1 <= v <= 1 for v in self.outcomes):
            raise ValueError("random rule outcomes must lie in [-1, 1]")

    def outcome(self, profile: "DecisionProfile | int") -> Fraction:
        index = profile.index if isinstance(profile, DecisionProfile) else profile
        return self.outcomes[index]

    @classmethod
    def from_deterministic(cls, rule: VotingRule) -> "RandomVotingRule":
        return cls(rule.n, tuple(Fraction(v) for v in rule.outcomes))

    def as_deterministic(self) -> VotingRule | None:
        """The equivalent deterministic rule, or None if any outcome is interior."""
        if all(abs(v) == 1 for v in self.outcomes):
            return VotingRule(self.n, tuple(int(v) for v in self.outcomes))
        return None

    def to_json(self) -> dict:
        return {"n": self.n, "table": [format_rational(v) for v in self.outcomes]}

    @classmethod
    def from_json(cls, data: dict) -> "RandomVotingRule":
        n = _json_n(data)
        table = data.get("table")
        if not isinstance(table, list) or len(table) != 2 ** n:
            raise FormatError(f"table: expected a list of {2 ** n} rationals for n={n}")
        return cls(n, tuple(parse_rational(v, f"table[{k}]") for k, v in enumerate(table)))


def load_rule(data: dict) -> "VotingRule | RandomVotingRule":
    """Dispatch on the table field: a string is deterministic, a list is random."""
    n = _json_n(data)
    table = data.get("table")
    if isinstance(table, str):
        return VotingRule.from_table_string(n, table)
    if isinstance(table, list):
        return RandomVotingRule.from_json(data)
    raise FormatError("table: expected a '+/-' string or a list of rationals")


def _json_n(data: dict) -> int:
    if not isinstance(data, dict):
        raise FormatError("document: expected a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_INDIVIDUALS:
        raise FormatError(f"n: expected an integer in [1, {MAX_INDIVIDUALS}], got {n!r}")
    return n


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over the 2**n profiles, exact rationals."""

    n: int
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        if len(self.probs) != 2 ** self.n:
            raise ValueError(
                f"distribution needs {2 ** self.n} probabilities for n={self.n}"
            )
        object.__setattr__(self, "probs", tuple(Fraction(p) for p in self.probs))
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if sum(self.probs) != 1:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)}")

    def prob(self, profile: "DecisionProfile | int") -> Fraction:
        index = profile.index if isinstance(profile, DecisionProfile) else profile
        return self.probs[index]

    def is_strictly_positive(self) -> bool:
        """True iff every profile has positive probability (interior of the simplex)."""
        return all(p > 0 for p in self.probs)

    def expectation(self, values: Sequence[Fraction]) -> Fraction:
        """E[f] for a profile-indexed value table f."""
        if len(values) != len(self.probs):
            raise ValueError("value table length does not match the profile space")
        return sum((p * Fraction(v) for p, v in zip(self.probs, values)), Fraction(0))

    @classmethod
    def degenerate(cls, n: int, index: "DecisionProfile | int") -> "Distribution":
        _check_n(n)
        idx = index.index if isinstance(index, DecisionProfile) else index
        probs = [Fraction(0)] * 2 ** n
        probs[idx] = Fraction(1)
        return cls(n, tuple(probs))

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        _check_n(n)
        p = Fraction(1, 2 ** n)
        return cls(n, tuple([p] * 2 ** n))

    @classmethod
    def from_weights(cls, n: int, weights: dict[int, Fraction]) -> "Distribution":
        """Distribution proportional to the given nonnegative profile weights."""
        _check_n(n)
        total = sum(weights.values(), Fraction(0))
        if total <= 0:
            raise ValueError("weights must have positive total mass")
        probs = [Fraction(0)] * 2 ** n
        for idx, w in weights.items():
            probs[idx] = Fraction(w) / total
        return cls(n, tuple(probs))

    def to_json(self) -> dict:
        atoms = [
            {"profile": DecisionProfile(self.n, k).to_string(), "prob": format_rational(p)}
            for k, p in enumerate(self.probs)
            if p != 0
        ]
        return {"n": self.n, "atoms": atoms}

    @classmethod
    def from_json(cls, data: dict) -> "Distribution":
        n = _json_n(data)
        atoms = data.get("atoms")
        if not isinstance(atoms, list):
            raise FormatError("atoms: expected a list of {profile, prob} objects")
        probs = [Fraction(0)] * 2 ** n
        for k, atom in enumerate(atoms):
            if not isinstance(atom, dict):
                raise FormatError(f"atoms[{k}]: expected an object")
            profile = atom.get("profile")
            if not isinstance(profile, str) or len(profile) != n:
                raise FormatError(
                    f"atoms[{k}].profile: expected {n} characters of '+'/'-', got {profile!r}"
                )
            idx = DecisionProfile.from_string(profile, f"atoms[{k}].profile").index
            if probs[idx] != 0:
                raise FormatError(f"atoms[{k}].profile: duplicate profile {profile!r}")
            probs[idx] = parse_rational(atom.get("prob"), f"atoms[{k}].prob")
        try:
            return cls(n, tuple(probs))
        except ValueError as exc:
            raise FormatError(f"atoms: {exc}") from exc


@dataclass(frozen=True)
class DistributionSet:
    """Finitely many extreme points; the modeled set is their convex hull.

    Duplicate extreme points are accepted and canonically removed, keeping
    first-occurrence order.
    """

    n: int
    extreme_points: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not self.extreme_points:
            raise ValueError("a distribution set needs at least one extreme point")
        seen: set[tuple[Fraction, ...]] = set()
        deduped = []
        for dist in self.extreme_points:
            if dist.n != self.n:
                raise ValueError("all extreme points must share the set's n")
            if dist.probs not in seen:
                seen.add(dist.probs)
                deduped.append(dist)
        object.__setattr__(self, "extreme_points", tuple(deduped))

    def __len__(self) -> int:
        return len(self.extreme_points)

    def mixture(self, coefficients: Sequence[Fraction]) -> Distribution:
        """The convex combination of the extreme points with these coefficients."""
        if len(coefficients) != len(self.extreme_points):
            raise ValueError("coefficient count does not match extreme point count")
        coeffs = [Fraction(c) for c in coefficients]
        if any(c < 0 for c in coeffs) or sum(coeffs) != 1:
            raise ValueError("mixture coefficients must be nonnegative and sum to 1")
        probs = [Fraction(0)] * 2 ** self.n
        for c, dist in zip(coeffs, self.extreme_points):
            for k, p in enumerate(dist.probs):
                probs[k] += c * p
        return Distribution(self.n, tuple(probs))

    @classmethod
    def degenerates(cls, n: int) -> "DistributionSet":
        """All 2**n point masses, in ascending profile-index order."""
        _check_n(n)
        return cls(n, tuple(Distribution.degenerate(n, k) for k in range(2 ** n)))

    def to_json(self) -> dict:
        return {"n": self.n, "extreme_points": [d.to_json() for d in self.extreme_points]}

    @classmethod
    def from_json(cls, data: dict) -> "DistributionSet":
        n = _json_n(data)
        points = data.get("extreme_points")
        if not isinstance(points, list) or not points:
            raise FormatError("extreme_points: expected a nonempty list of distributions")
        dists = []
        for k, obj in enumerate(points):
            try:
                dist = Distribution.from_json(obj)
            except FormatError as exc:
                raise FormatError(f"extreme_points[{k}].{exc}") from exc
            if dist.n != n:
                raise FormatError(f"extreme_points[{k}].n: does not match the set's n")
            dists.append(dist)
        return cls(n, tuple(dists))


# ---------------------------------------------------------------------------
# Operations on rules


def inverse_rule(rule: VotingRule | RandomVotingRule):
    """The rule that always decides the opposite way."""
    if isinstance(rule, VotingRule):
        return VotingRule(rule.n, tuple(-v for v in rule.outcomes))
    return RandomVotingRule(rule.n, tuple(-v for v in rule.outcomes))


def is_count_symmetric(values: Sequence) -> bool:
    """True iff the profile-indexed values depend only on how many
    individuals vote +1."""
    by_count: dict = {}
    for index, value in enumerate(values):
        if by_count.setdefault(popcount(index), value) != value:
            return False
    return True


def is_anonymous(rule: "VotingRule | RandomVotingRule") -> bool:
    """True iff the outcome depends only on how many individuals vote +1."""
    return is_count_symmetric(rule.outcomes)


def is_self_dual(rule: VotingRule) -> bool:
    """True iff negating every vote negates the outcome."""
    size = 2 ** rule.n
    return all(
        rule.outcomes[idx] == -rule.outcomes[(size - 1) ^ idx] for idx in range(size)
    )


def is_dictatorship(rule: VotingRule) -> int | None:
    """The individual whose vote the rule always copies, or None.

    For n >= 2 at most one individual can qualify, since two individuals
    disagree on some profile.
    """
    for i, votes in enumerate(sign_table(rule.n), start=1):
        if rule.outcomes == votes:
            return i
    return None


def own_vote_violations(rule: VotingRule) -> Iterator[tuple[int, int]]:
    """Every (individual, base) where the rule decides +1 at profile base,
    in which the individual votes -1, and -1 once they switch to +1.

    Pairs come in ascending individual order, then ascending base index.
    """
    for i in range(1, rule.n + 1):
        bit = 1 << (i - 1)
        for base in range(2 ** rule.n):
            if not base & bit and rule.outcomes[base] == 1 and rule.outcomes[base | bit] == -1:
                yield i, base


def is_own_vote_monotone(
    rule: VotingRule,
) -> tuple[bool, tuple[int, tuple[int, ...]] | None]:
    """Check that no individual can flip the outcome against their own switch.

    Returns (True, None), or (False, (individual, others)) where others lists
    the remaining individuals' votes in ascending index order and the rule
    decides +1 when the individual votes -1 but -1 when they vote +1.
    The first witness in (individual, others-index) order is returned.
    """
    for i, base in own_vote_violations(rule):
        others = tuple(
            vote_in_profile(base, j) for j in range(1, rule.n + 1) if j != i
        )
        return False, (i, others)
    return True, None


def enumerate_rules(
    n: int, predicate: Callable[[VotingRule], bool] | None = None
) -> Iterator[VotingRule]:
    """Yield every rule on n individuals once, in ascending truth-table order.

    Rule number t is table_rule(n, t). Exhaustive enumeration is refused
    above n = 4 (2**32 rules).
    """
    _check_n(n)
    if n > MAX_ENUMERATION_INDIVIDUALS:
        raise ValueError(
            f"exhaustive enumeration is limited to n <= {MAX_ENUMERATION_INDIVIDUALS}"
        )
    for t in range(2 ** 2 ** n):
        rule = table_rule(n, t)
        if predicate is None or predicate(rule):
            yield rule


def table_rule(n: int, t: int) -> VotingRule:
    """The rule whose outcome at profile index k is bit k of the table
    integer t (+1 when set)."""
    return VotingRule(n, tuple(1 if t >> k & 1 else -1 for k in range(2 ** n)))


def apply_permutation(rule: VotingRule, permutation: Sequence[int]) -> VotingRule:
    """Relabel individuals: the result applies the rule to the permuted profile.

    permutation maps positions 1..n to individuals 1..n: entry j (1-based)
    names the individual whose vote takes position j. Composition law:
    apply(apply(r, pi), sigma) == apply(r, sigma o pi) with
    (sigma o pi)(j) = sigma(pi(j)).
    """
    perm = _checked_permutation(rule.n, permutation)
    return VotingRule(
        rule.n, tuple(rule.outcomes[_permuted(idx, perm)] for idx in range(2 ** rule.n))
    )


def permute_profile_index(index: int, n: int, permutation: Sequence[int]) -> int:
    """Index of the profile whose position-j vote is individual perm[j]'s vote."""
    return _permuted(index, _checked_permutation(n, permutation))


def _checked_permutation(n: int, permutation: Sequence[int]) -> list[int]:
    perm = list(permutation)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {permutation!r}")
    return perm


def _permuted(index: int, perm: list[int]) -> int:
    permuted = 0
    for j, individual in enumerate(perm):
        if (index >> (individual - 1)) & 1:
            permuted |= 1 << j
    return permuted


# ---------------------------------------------------------------------------
# Named rule constructors


def weighted_majority_rule(
    n: int, weights: Sequence[Fraction], tie: int | None = None
) -> VotingRule:
    """Sign rule of the weighted vote sum.

    tie fixes the outcome on profiles where the weighted sum is zero;
    tie=None raises on the first such profile.
    """
    _check_n(n)
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    sums, _ = vote_sums([Fraction(w) for w in weights])
    outcomes = []
    for idx, total in enumerate(sums):
        if total > 0:
            outcomes.append(1)
        elif total < 0:
            outcomes.append(-1)
        elif tie in (-1, 1):
            outcomes.append(tie)
        else:
            raise ValueError(
                f"weighted sum ties at profile {DecisionProfile(n, idx).to_string()} "
                "and no tie outcome was given"
            )
    return VotingRule(n, tuple(outcomes))


def majority_rule(n: int, tie: int | None = None) -> VotingRule:
    """Simple majority: equal positive weights."""
    return weighted_majority_rule(n, [Fraction(1)] * n, tie=tie)


def supermajority_rule(n: int, threshold: int) -> VotingRule:
    """+1 iff at least threshold individuals vote +1."""
    _check_n(n)
    if not isinstance(threshold, int):
        raise TypeError("threshold is a vote count, not a proportion")
    if not 0 <= threshold <= n + 1:
        raise ValueError(f"threshold must lie in [0, {n + 1}]")
    return VotingRule(
        n, tuple(1 if popcount(idx) >= threshold else -1 for idx in range(2 ** n))
    )


def unanimity_rule(n: int) -> VotingRule:
    """+1 only when every individual votes +1."""
    return supermajority_rule(n, n)


def dictatorship_rule(n: int, individual: int) -> VotingRule:
    _check_n(n)
    if not 1 <= individual <= n:
        raise ValueError(f"individual {individual} out of range for n={n}")
    return VotingRule(n, sign_table(n)[individual - 1])


def parity_rule(n: int) -> VotingRule:
    """+1 iff the number of -1 votes is even (the product of all votes)."""
    _check_n(n)
    return VotingRule(
        n, tuple(1 if (n - popcount(idx)) % 2 == 0 else -1 for idx in range(2 ** n))
    )


def constant_rule(n: int, outcome: int) -> VotingRule:
    _check_n(n)
    if outcome not in (-1, 1):
        raise ValueError("outcome must be +1 or -1")
    return VotingRule(n, tuple([outcome] * 2 ** n))


def count_distribution(n: int, count_probs: Sequence[Fraction]) -> Distribution:
    """Spread each support-count probability uniformly over its profiles.

    count_probs[k] is the probability that exactly k individuals vote +1.
    """
    _check_n(n)
    if len(count_probs) != n + 1:
        raise ValueError(f"need {n + 1} count probabilities, got {len(count_probs)}")
    counts = [Fraction(p) for p in count_probs]
    if any(p < 0 for p in counts) or sum(counts) != 1:
        raise ValueError("count probabilities must be nonnegative and sum to 1")
    class_size = [0] * (n + 1)
    for idx in range(2 ** n):
        class_size[popcount(idx)] += 1
    probs = [counts[popcount(idx)] / class_size[popcount(idx)] for idx in range(2 ** n)]
    return Distribution(n, tuple(probs))
