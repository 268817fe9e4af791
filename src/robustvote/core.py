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
  "numerator/denominator" strings of ASCII digits (a bare integer string
  is also accepted on input). No floats are ever read or written.
"""

from __future__ import annotations

import re
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd, lcm
from itertools import compress, repeat
from operator import and_, attrgetter

MAX_INDIVIDUALS = 16
MAX_ENUMERATION_INDIVIDUALS = 4

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")  # ASCII digits only
_BITS = str.maketrans("+-", "10")  # a profile or table string's characters as bits
_SIGNS = str.maketrans("10", "+-")
_UNSIGNED = str.maketrans("", "", "+-")  # a table string's other characters
_SIGNED = bytes.maketrans(b"01", b"\xff\x01")  # a table's bits as signed bytes -1 and +1


class FormatError(ValueError):
    """Malformed on-disk data. The message names the offending field."""


def rational_parts(text: str, field: str = "value") -> tuple[int, int]:
    """The integers of a "num/den" or bare-integer string, as written
    (not reduced; den >= 1), so a check can cross-multiply them."""
    return rational_list([text], lambda _: field)[0]


def rational_list(values: list, field, make=None) -> list:
    """rational_parts of each entry, or make(numerator, denominator), each
    distinct string matched and converted once per call (a uniform input is
    2^n copies of one); the first malformed entry is named field[k], or field(k)."""
    try:
        read = dict.fromkeys(values)
        for text in read:  # TypeError: unhashable or not a string; AttributeError: no match
            numerator, denominator = _RATIONAL_RE.fullmatch(text).groups()
            pair = int(numerator), int(denominator or 1)
            read[text] = pair if make is None else make(*pair)
        return list(map(read.__getitem__, values))
    except (TypeError, AttributeError):
        name = field if callable(field) else f"{field}[{{}}]".format
        for k, text in enumerate(values):
            if not (isinstance(text, str) and _RATIONAL_RE.fullmatch(text)):
                raise FormatError(
                    f"{name(k)}: expected a rational 'num/den' string, got {text!r}") from None
        raise


def parse_rational(text: str, field: str = "value") -> Fraction:
    """Parse a "num/den" or bare-integer string into an exact rational."""
    return Fraction(*rational_parts(text, field))


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


class _cached(cached_property):
    """cached_property without the lock it takes on every first read up to
    Python 3.11: a non-data descriptor that fills the instance's __dict__."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class Frozen:
    """A value set once by its constructor and read-only after, the base of
    every record class here.  A subclass lists its fields in _fields and
    stores them through _set, past __setattr__, which refuses; one whose
    fields need no check takes them positionally.  Equality (within one
    class) and the hash read the fields in _compared, all unless the class
    names fewer, through one attrgetter; repr and pickles read every field."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*vars(cls).get("_compared", cls._fields))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {self._fields}, got {values!r}")
        self._set(*values)

    def _set(self, *values) -> "Frozen":
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuilt, (type(self), *(getattr(self, name) for name in self._fields))


def _rebuilt(cls, *values) -> Frozen:  # an unpickled Frozen value
    return cls.__new__(cls)._set(*values)


def _check_n(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_INDIVIDUALS:
        raise ValueError(f"n must be an integer in [1, {MAX_INDIVIDUALS}], got {n!r}")


def _profile_index(n: int, profile: "DecisionProfile | int") -> int:
    """The index of a profile of n individuals, given as one or as its index."""
    index = profile.index if isinstance(profile, DecisionProfile) else profile
    if not 0 <= index < 2 ** n:
        raise ValueError(f"profile index {index} out of range for n={n}")
    return index


def popcount(index: int) -> int:
    return index.bit_count()


def vote_in_profile(index: int, individual: int) -> int:
    """Vote (+1 or -1) of the given individual in the profile with this index."""
    return 1 if (index >> (individual - 1)) & 1 else -1


@lru_cache(maxsize=None)
def profile_strings(n: int) -> tuple[str, ...]:
    """Every profile's string, in index order, built by doubling as
    vote_sums is: individual i, bit i-1, appends '-' then '+'."""
    _check_n(n)
    strings = [""]
    for _ in range(n):
        strings = [s + "-" for s in strings] + [s + "+" for s in strings]
    return tuple(strings)


@lru_cache(maxsize=None)
def _profile_indices(n: int) -> dict[str, int]:  # profile_strings(n), inverted
    return {text: k for k, text in enumerate(profile_strings(n))}


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator
    d > 0, with d: multiplying an inequality by d keeps it, and integer
    dot products are far cheaper than rational ones."""
    denominators = [v.denominator for v in values]
    scale = lcm(*denominators)
    return [v.numerator * (scale // d) for v, d in zip(values, denominators)], scale


def combine_rows(weights: Sequence[int], rows) -> list:
    """sum_i weights[i] * rows[i], entry by entry: every column's dot product
    with the weights at once, in one whole-row pass per nonzero weight.  With
    integer weights and rows the sums stay integer."""
    sums = [0] * len(rows[0])
    for w, row in zip(weights, rows):
        if w:
            sums = [s + w * a for s, a in zip(sums, row)]
    return sums


def vote_sums(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    """The weighted vote sum sum_i w_i x_i at every profile, in index order,
    as integers scaled by the weights' common denominator d > 0, with d.
    Built by doubling, 2 * 2^n additions in all: individual i, bit i-1,
    turns the sums so far into those minus w_i, then those plus w_i."""
    numerators, scale = over_common_denominator(weights)
    sums = [0]
    for w in numerators:
        sums = [s - w for s in sums] + [s + w for s in sums]
    return sums, scale


def sign_tables(weights: Sequence[int]) -> tuple[int, int]:
    """Table integers of the profiles where the vote sum of integer weights
    is above zero, and at least zero: vote_sums' doubling on one integer of
    2^n lanes of b = bitlen(sum |w_i|) + 1 bits (Lamport 1975), lane k
    holding sum_k + 2^(b-1) - 1, so no lane borrows or carries and its top
    bit is set iff sum_k > 0 (sum_k >= 0 once ones are added)."""
    b = sum(map(abs, weights)).bit_length() + 1
    sums, ones, span = (1 << b - 1) - 1, 1, b
    for w in weights:
        step = w * ones
        sums = (sums - step) | (sums + step) << span
        ones |= ones << span
        span *= 2
    return (int(format(sums, "b").zfill(span)[::b], 2),
            int(format(sums + ones, "b").zfill(span)[::b], 2))


def vote_leans(n: int, support: Sequence[int], masses: Sequence) -> list:
    """sum_k masses[k] * x_i at profile support[k], for each individual i: twice
    the mass on the atoms in i's plus mask (bit i-1 set), minus the total.  With
    masses p(x) * phi(x), i's lean toward agreeing with the outcome, 2 r_i - 1, times p's scale."""
    total = sum(masses)
    return [2 * sum(compress(masses, map(and_, support, repeat(1 << i)))) - total for i in range(n)]


class DecisionProfile(Frozen):
    """One joint vote: n individuals, each voting +1 or -1."""

    _fields = ("n", "index")

    def __init__(self, n: int, index: int) -> None:
        _check_n(n)
        _profile_index(n, index)
        self._set(n, index)

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
        _check_n(len(votes))
        for v in votes:
            if v not in (-1, 1):
                raise ValueError(f"votes must be +1/-1, got {v!r}")
        return cls(len(votes), table_integer(votes))

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


class VotingRule(Frozen):
    """Deterministic rule: one +1/-1 outcome per profile.

    Stored, compared, hashed and pickled as n and its table integer: bit k
    of table is set iff the outcome at profile index k is +1.  outcomes[k],
    the outcome at profile index k, is built from table when first read,
    as Distribution.probs is; VotingRule(n, outcomes) keeps the tuple it
    was given.
    """

    _fields = ("n", "table")

    def __init__(self, n: int, outcomes: Sequence[int]) -> None:
        _check_n(n)
        if len(outcomes) != 2 ** n:
            raise ValueError(f"rule needs {2 ** n} outcomes for n={n}, got {len(outcomes)}")
        if any(v not in (-1, 1) for v in outcomes):
            raise ValueError("rule outcomes must all be +1 or -1")
        self._set(n, table_integer(outcomes))
        object.__setattr__(self, "outcomes", tuple(outcomes))

    def _set(self, n: int, table: int) -> "VotingRule":
        # Frozen._set, unrolled: every constructor stores through it.
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)
        return self

    def __reduce__(self):  # a pickle holds n and the table, not the tuple
        return table_rule, (self.n, self.table)

    @_cached
    def outcomes(self) -> tuple[int, ...]:
        return tuple(array("b", f"{self.table:0{2 ** self.n}b}"[::-1].encode().translate(_SIGNED)))

    def outcome(self, profile: "DecisionProfile | int") -> int:
        return self.outcomes[_profile_index(self.n, profile)]

    def outcomes_at(self, profiles: Iterable[int]) -> list[int]:
        """outcomes[k] for each profile index k, read off the table."""
        table = self.table
        return [1 if table >> k & 1 else -1 for k in profiles]

    def to_table_string(self) -> str:
        return f"{self.table:0{2 ** self.n}b}"[::-1].translate(_SIGNS)

    @classmethod
    def from_table_string(cls, n: int, table: str, field: str = "table") -> "VotingRule":
        _check_n(n)
        if not isinstance(table, str) or len(table) != 2 ** n or table.translate(_UNSIGNED):
            raise FormatError(
                f"{field}: expected {2 ** n} characters of '+'/'-' for n={n}, got {table!r}"
            )
        return cls.__new__(cls)._set(n, int(table[::-1].translate(_BITS), 2))

    def to_json(self) -> dict:
        return {"n": self.n, "table": self.to_table_string()}

    @classmethod
    def from_json(cls, data: dict) -> "VotingRule":
        n = _json_n(data)
        if "table" not in data:
            raise FormatError("table: missing")
        return cls.from_table_string(n, data["table"])


class RandomVotingRule(Frozen):
    """Random rule: one expected outcome in [-1, 1] per profile.

    outcomes[k] is the expected outcome at profile index k, an exact
    rational. A deterministic rule embeds as outcomes in {-1, +1}.
    """

    _fields = ("n", "outcomes")

    def __init__(self, n: int, outcomes: Sequence[Fraction]) -> None:
        _check_n(n)
        if len(outcomes) != 2 ** n:
            raise ValueError(f"rule needs {2 ** n} outcomes for n={n}, got {len(outcomes)}")
        outcomes = tuple(v if type(v) is Fraction else Fraction(v) for v in outcomes)
        numerators, scale = over_common_denominator(outcomes)
        if max(map(abs, numerators)) > scale:
            raise ValueError("random rule outcomes must lie in [-1, 1]")
        object.__setattr__(self, "n", n)  # as _set, unrolled: a verify builds one per witness
        object.__setattr__(self, "outcomes", outcomes)

    def outcome(self, profile: "DecisionProfile | int") -> Fraction:
        return self.outcomes[_profile_index(self.n, profile)]

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
        return cls(n, tuple(rational_list(table, "table", Fraction)))


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


def nonzero_masses(values) -> tuple[tuple[tuple[int, int], ...], int]:
    """The nonzero entries of a dense rational vector as a Mixture stores
    them: (index, numerator) pairs over their least common denominator."""
    points = [k for k, v in enumerate(values) if v]
    masses, scale = over_common_denominator([values[k] for k in points])
    return tuple(zip(points, masses)), scale


class Mixture(Frozen):
    """Exact masses on the indices 0..size-1, as a Distribution over the
    profiles and a robustness refutation over extreme points both are:
    stored (and so constructed), compared and hashed as the ascending
    (index, numerator) pairs with no numerator zero, over the integer
    scale, in lowest terms.  The Fraction views, `support` pairs and the
    dense tuple `probs`, are built when read (`probs` anew each time)."""

    _fields = ("size", "masses", "scale")

    def __init__(self, size: int, masses: tuple[tuple[int, int], ...], scale: int) -> None:
        put = object.__setattr__  # as _set, unrolled: one is built on every solve
        put(self, "size", size)
        put(self, "masses", masses)
        put(self, "scale", scale)

    @classmethod
    def in_lowest_terms(cls, numerators: Sequence[int], scale: int) -> "Mixture":
        """Dense integer numerators over scale, as stored: the nonzero ones,
        divided with the scale by their gcd."""
        common = gcd(scale, *numerators)
        return cls(len(numerators), tuple((k, v // common) for k, v in enumerate(numerators) if v),
                   scale // common)

    @_cached
    def support(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((k, Fraction(m, self.scale)) for k, m in self.masses)

    @property
    def numerators(self) -> list[int]:
        """The dense numerators over scale, zeros included."""
        return list(map(dict(self.masses).get, range(self.size), repeat(0)))

    @property
    def probs(self) -> tuple[Fraction, ...]:
        probs = [Fraction(0)] * self.size
        for k, m in self.masses:
            probs[k] = Fraction(m, self.scale)
        return tuple(probs)


class Distribution(Mixture):
    """Probability distribution over the 2**n profiles, exact rationals: a
    Mixture over size = 2**n indices whose numerators sum to scale, with
    its n.  Every constructor validates through _set_support.
    """

    _fields = Mixture._fields + ("n",)
    probs = _cached(Mixture.probs.fget)  # kept: prob() and dense readers read it often

    def __init__(self, n: int, probs: Sequence[Fraction]) -> None:
        _check_n(n)
        if len(probs) != 2 ** n:
            raise ValueError(f"distribution needs {2 ** n} probabilities for n={n}")
        self._set_support(n, *nonzero_masses(
            [p if type(p) is Fraction else Fraction(p) for p in probs]))

    @classmethod
    def _from_masses(cls, n: int, atoms: Iterable[tuple[int, int]], scale: int) -> "Distribution":
        """The distribution with these (index, numerator) atoms over the
        integer scale > 0, each index once."""
        _check_n(n)
        dist = cls.__new__(cls)
        dist._set_support(n, atoms, scale)
        return dist

    def _set_support(self, n: int, atoms: Iterable[tuple[int, int]], scale: int) -> None:
        # The one validation every constructor runs, in integers.
        size, masses = 2 ** n, []
        for idx, m in atoms:
            if not 0 <= idx < size:
                raise ValueError(f"profile index {idx} out of range for n={n}")
            if m:
                masses.append((idx, m))
        numerators = [m for _, m in masses]
        if min(numerators, default=0) < 0:
            raise ValueError("probabilities must be nonnegative")
        if sum(numerators) != scale:
            raise ValueError(f"probabilities must sum to 1, got {Fraction(sum(numerators), scale)}")
        common = gcd(scale, *numerators)
        masses.sort()
        Mixture.__init__(self, size, tuple((idx, m // common) for idx, m in masses),
                         scale // common)
        object.__setattr__(self, "n", n)

    def prob(self, profile: "DecisionProfile | int") -> Fraction:
        return self.probs[_profile_index(self.n, profile)]

    def is_strictly_positive(self) -> bool:
        """True iff every profile has positive probability (interior of the simplex)."""
        return len(self.masses) == self.size

    def expectation(self, values: Sequence[Fraction]) -> Fraction:
        """E[f] for a profile-indexed value table f."""
        if len(values) != 2 ** self.n:
            raise ValueError("value table length does not match the profile space")
        return sum((m * Fraction(values[idx]) for idx, m in self.masses), Fraction(0)) / self.scale

    @classmethod
    def degenerate(cls, n: int, index: "DecisionProfile | int") -> "Distribution":
        idx = index.index if isinstance(index, DecisionProfile) else index
        return cls._from_masses(n, ((idx, 1),), 1)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        _check_n(n)
        return cls._from_masses(n, ((k, 1) for k in range(2 ** n)), 2 ** n)

    @classmethod
    def from_weights(cls, n: int, weights: dict[int, Fraction]) -> "Distribution":
        """Distribution proportional to the given nonnegative profile weights."""
        _check_n(n)
        numerators, _ = over_common_denominator([Fraction(w) for w in weights.values()])
        if sum(numerators) <= 0:
            raise ValueError("weights must have positive total mass")
        return cls._from_masses(n, zip(weights, numerators), sum(numerators))

    def to_json(self) -> dict:
        profiles = profile_strings(self.n)
        atoms = [{"profile": profiles[k], "prob": format_rational(p)} for k, p in self.support]
        return {"n": self.n, "atoms": atoms}

    @classmethod
    def from_json(cls, data: dict) -> "Distribution":
        n = _json_n(data)
        atoms = data.get("atoms")
        if not isinstance(atoms, list):
            raise FormatError("atoms: expected a list of {profile, prob} objects")
        index = _profile_indices(n)
        try:  # KeyError, TypeError: a malformed atom or profile, named below
            indices = [index[atom["profile"]] for atom in atoms]
            probs = [atom["prob"] for atom in atoms]
        except (KeyError, TypeError):
            indices = None
        if indices is None or len(set(indices)) < len(atoms):
            seen = set()  # the first malformed atom raises, as one at a time would
            for k, atom in enumerate(atoms):
                if not isinstance(atom, dict):
                    raise FormatError(f"atoms[{k}]: expected an object")
                profile = atom.get("profile")
                if not isinstance(profile, str) or len(profile) != n:
                    raise FormatError(f"atoms[{k}].profile: expected {n} characters of "
                                      f"'+'/'-', got {profile!r}")
                if profile.strip("+-"):
                    raise FormatError(
                        f"atoms[{k}].profile: expected '+'/'-' characters, got {profile!r}")
                if profile in seen:
                    raise FormatError(f"atoms[{k}].profile: duplicate profile {profile!r}")
                seen.add(profile)
                rational_parts(atom.get("prob"), f"atoms[{k}].prob")
        parts = rational_list(probs, "atoms[{}].prob".format)
        scale = lcm(*{den for _, den in parts})
        try:
            return cls._from_masses(n, ((idx, num * (scale // den))
                                        for idx, (num, den) in zip(indices, parts)), scale)
        except ValueError as exc:
            raise FormatError(f"atoms: {exc}") from exc


class DistributionSet(Frozen):
    """Finitely many extreme points; the modeled set is their convex hull.

    Duplicate extreme points are accepted and canonically removed, keeping
    first-occurrence order.
    """

    _fields = ("n", "extreme_points")

    def __init__(self, n: int, extreme_points: tuple[Distribution, ...]) -> None:
        _check_n(n)
        if not extreme_points:
            raise ValueError("a distribution set needs at least one extreme point")
        if any(dist.n != n for dist in extreme_points):
            raise ValueError("all extreme points must share the set's n")
        self._set(n, tuple(dict.fromkeys(extreme_points)))

    def __len__(self) -> int:
        return len(self.extreme_points)

    def mixture(self, coefficients: Sequence[Fraction]) -> Distribution:
        """The convex combination of the extreme points with these coefficients."""
        if len(coefficients) != len(self.extreme_points):
            raise ValueError("coefficient count does not match extreme point count")
        weights, scale = over_common_denominator([Fraction(c) for c in coefficients])
        if min(weights) < 0 or sum(weights) != scale:
            raise ValueError("mixture coefficients must be nonnegative and sum to 1")
        common = lcm(*(dist.scale for dist in self.extreme_points))
        masses: dict[int, int] = {}
        for w, dist in zip(weights, self.extreme_points):
            for k, m in dist.masses:
                masses[k] = masses.get(k, 0) + w * m * (common // dist.scale)
        return Distribution._from_masses(self.n, masses.items(), scale * common)

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


@lru_cache(maxsize=None)
def _point_masses_json(n: int) -> dict:
    # DistributionSet.degenerates(n).to_json(), without the distributions.
    one = format_rational(Fraction(1))
    return {"n": n, "extreme_points": [{"n": n, "atoms": [{"profile": profile, "prob": one}]}
                                       for profile in profile_strings(n)]}


def lists_point_masses(data, n: int) -> bool:
    """Whether the JSON of a distribution set is the 2^n point masses of n
    individuals in profile order, as to_json writes them, read off the
    atoms before any Distribution is built.  Anything else, well formed or
    not, is False and left to DistributionSet.from_json."""
    # Equality takes True for 1 and 1.0 for 1, which _json_n refuses.
    return (data == _point_masses_json(n) and type(data["n"]) is int
            and all(type(point["n"]) is int for point in data["extreme_points"]))


# ---------------------------------------------------------------------------
# Operations on rules


def inverse_rule(rule: VotingRule | RandomVotingRule):
    """The rule that always decides the opposite way."""
    if isinstance(rule, VotingRule):
        return table_rule(rule.n, table_masks(rule.n).full ^ rule.table)
    return RandomVotingRule(rule.n, tuple(-v for v in rule.outcomes))


def is_count_symmetric(values: Sequence) -> bool:
    """True iff the profile-indexed values depend only on how many
    individuals vote +1."""
    by_count: dict = {}
    for index, value in enumerate(values):
        if by_count.setdefault(popcount(index), value) != value:
            return False
    return True


# ---------------------------------------------------------------------------
# Rules as table integers: bit k of t is set iff the outcome at profile k is
# +1.  Each structural predicate is defined once, on t, by O(n) big-int
# operations against the masks of n, which are profile sets in the same
# encoding: all profiles, plus[i-1] where individual i votes +1, and
# counts[c] where c individuals do.  steps[i-1] pairs plus[i-1] with
# 2**(i-1), the index distance across which individual i switches.

TableMasks = namedtuple("TableMasks", "full plus counts steps")


@lru_cache(maxsize=None)
def table_masks(n: int) -> TableMasks:
    """The masks of n, built by doubling as vote_sums is: individual i adds
    its +1 half, copies each plus mask into it, and counts[c-1] for counts[c]."""
    _check_n(n)
    plus, counts = [], [1]
    for i in range(n):
        half = 1 << i
        plus = [p | p << half for p in plus] + [((1 << half) - 1) << half]
        counts = [low | high << half for low, high in zip(counts + [0], [0] + counts)]
    return TableMasks((1 << 2**n) - 1, tuple(plus), tuple(counts),
                      tuple((mask, 1 << i) for i, mask in enumerate(plus)))


def table_integer(signs: Sequence[int]) -> int:
    """The set of indices k with signs[k] == 1, as a table integer."""
    return int("".join(["1" if v == 1 else "0" for v in reversed(signs)]), 2)


def table_rule(n: int, t: int) -> VotingRule:
    """The rule whose outcome at profile index k is bit k of the table
    integer t (+1 when set): rule.table is t."""
    _check_n(n)
    if not 0 <= t < 1 << 2**n:
        raise ValueError(f"table integer {t} out of range for n={n}")
    return VotingRule.__new__(VotingRule)._set(n, t)


def degenerate_agreement_matrix(rule: VotingRule | RandomVotingRule) -> list[list]:
    """robustness.agreement_matrix over the 2^n point masses in profile order
    (column x is phi(x) * x).  Row i-1 decodes i's agreement set full & ~(t ^
    plus[i-1]) into ints; for a random rule t = full, and the row signs its outcomes."""
    n, size = rule.n, 2 ** rule.n
    full, plus = table_masks(n)[:2]
    t = rule.table if isinstance(rule, VotingRule) else full
    rows = sum((full & ~(t ^ p)) << k * size for k, p in enumerate(plus))  # decoded at once
    signs = array("b", f"{rows:0{n * size}b}"[::-1].encode().translate(_SIGNED))
    matrix = [signs[k:k + size].tolist() for k in range(0, n * size, size)]
    return matrix if isinstance(rule, VotingRule) else [
        [o if v > 0 else -o for o, v in zip(rule.outcomes, row)] for row in matrix]


def lowest_bit(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending, found in one binary
    string so that walking a 2^n-bit mask costs O(2^n) in all."""
    digits = f"{mask:b}"[::-1]
    k = digits.find("1")
    while k >= 0:
        yield k
        k = digits.find("1", k + 1)


def negate_votes(n: int, t: int, individuals: Iterable[int]) -> int:
    """The table deciding at each profile as t does with the listed votes
    negated: negating vote i swaps the two halves of plus[i-1]."""
    steps = table_masks(n).steps
    for i in individuals:
        plus, step = steps[i - 1]
        t = (t & plus) >> step | (t << step) & plus
    return t


def twin_set(n: int, t: int) -> int:
    """The profiles at which t decides as at the negated profile: the
    complement of t XOR its bit reversal, which is empty iff t is self-dual."""
    return table_masks(n).full & ~(t ^ negate_votes(n, t, range(1, n + 1)))


def violation_sets(n: int, t: int) -> Iterator[int]:
    """For each individual i in turn, the bases at which i votes -1 and t
    decides +1, but -1 once i switches to +1."""
    for plus, step in table_masks(n).steps:
        yield t & ~plus & ~(t >> step)


def is_anonymous_table(n: int, t: int) -> bool:
    """True iff every vote-count class lies wholly inside or outside t."""
    return all(t & members in (0, members) for members in table_masks(n).counts)


def table_dictator(n: int, t: int) -> int | None:
    plus = table_masks(n).plus
    return plus.index(t) + 1 if t in plus else None


# The predicates an enumeration can be recounted by without solving, as
# tests of a table integer t on n individuals.
STRUCTURAL_PREDICATES = {
    "all": lambda n, t: True,
    "anonymous": is_anonymous_table,
    "monotone": lambda n, t: not any(violation_sets(n, t)),
    "self_dual": lambda n, t: not twin_set(n, t),
    "dictatorship": lambda n, t: table_dictator(n, t) is not None,
}


def is_anonymous(rule: "VotingRule | RandomVotingRule") -> bool:
    """True iff the outcome depends only on how many individuals vote +1."""
    return is_count_symmetric(rule.outcomes)


def is_self_dual(rule: VotingRule) -> bool:
    """True iff negating every vote negates the outcome."""
    return not twin_set(rule.n, rule.table)


def is_dictatorship(rule: VotingRule) -> int | None:
    """The individual whose vote the rule always copies, or None.

    For n >= 2 at most one individual can qualify, since two individuals
    disagree on some profile.
    """
    return table_dictator(rule.n, rule.table)


def own_vote_violations(rule: VotingRule) -> Iterator[tuple[int, int]]:
    """Every (individual, base) where the rule decides +1 at profile base,
    in which the individual votes -1, and -1 once they switch to +1.

    Pairs come in ascending individual order, then ascending base index.
    """
    for i, bases in enumerate(violation_sets(rule.n, rule.table), 1):
        yield from ((i, base) for base in set_bits(bases))


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


def _check_enumerable(n: int) -> None:
    _check_n(n)
    if n > MAX_ENUMERATION_INDIVIDUALS:
        raise ValueError(f"exhaustive enumeration is limited to n <= {MAX_ENUMERATION_INDIVIDUALS}")


def enumerate_tables(n: int, test: Callable[[int, int], bool] | None = None) -> Iterator[int]:
    """The exhaustive walk: every table integer t on n individuals for
    which test(n, t) holds, ascending.  Refused above n = 4 (2**32 tables)."""
    _check_enumerable(n)
    tables = range(2 ** 2**n)
    return iter(tables) if test is None else filter(partial(test, n), tables)


def monotone_tables(n: int) -> list[int]:
    """Every own-vote-monotone table integer on n individuals, ascending,
    built rather than searched: t = t0 | t1 << 2**(n-1) is monotone iff its
    halves t0 (individual n votes -1) and t1 (+1) are monotone on the others
    and t0 is a subset of t1.  Refused above n = 4, as enumerate_tables."""
    _check_enumerable(n)
    tables = [0, 1]  # the two constant tables on no individuals
    for i in range(n):
        half = 2**i
        tables = [t0 | t1 << half for t1 in tables for t0 in tables if not t0 & ~t1]
    return tables


def enumerate_rules(
    n: int, predicate: Callable[[VotingRule], bool] | None = None
) -> Iterator[VotingRule]:
    """Yield every rule on n individuals once, in ascending truth-table order.

    Rule number t is table_rule(n, t). Exhaustive enumeration is refused
    above n = 4 (2**32 rules).
    """
    for t in enumerate_tables(n):
        rule = table_rule(n, t)
        if predicate is None or predicate(rule):
            yield rule


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
    gt, ge = sign_tables(over_common_denominator([Fraction(w) for w in weights])[0])
    ties = ge & ~gt
    if ties and tie not in (-1, 1):
        raise ValueError(
            f"weighted sum ties at profile {DecisionProfile(n, lowest_bit(ties)).to_string()} "
            "and no tie outcome was given"
        )
    return table_rule(n, ge if tie == 1 else gt)


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
    return table_rule(n, sum(table_masks(n).counts[threshold:]))


def unanimity_rule(n: int) -> VotingRule:
    """+1 only when every individual votes +1."""
    return supermajority_rule(n, n)


def dictatorship_rule(n: int, individual: int) -> VotingRule:
    _check_n(n)
    if not 1 <= individual <= n:
        raise ValueError(f"individual {individual} out of range for n={n}")
    return table_rule(n, table_masks(n).plus[individual - 1])


def parity_rule(n: int) -> VotingRule:
    """+1 iff the number of -1 votes is even (the product of all votes)."""
    _check_n(n)
    return table_rule(n, sum(table_masks(n).counts[n % 2::2]))


def constant_rule(n: int, outcome: int) -> VotingRule:
    _check_n(n)
    if outcome not in (-1, 1):
        raise ValueError("outcome must be +1 or -1")
    return table_rule(n, table_masks(n).full if outcome == 1 else 0)


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
    class_size = [members.bit_count() for members in table_masks(n).counts]
    probs = [counts[popcount(idx)] / class_size[popcount(idx)] for idx in range(2 ** n)]
    return Distribution(n, tuple(probs))
