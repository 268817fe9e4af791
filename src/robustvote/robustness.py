"""Robustness certification for deterministic rules.

A rule is robust with respect to a polytope of profile distributions when
every distribution in it leaves some individual with responsiveness above
one half (at least one half for the weak variant).  With the polytope given
by finitely many extreme points, both variants reduce to a theorem of the
alternative on the matrix of expected vote-outcome agreements, so every
verdict carries a finite certificate: weights on individuals when robust, a
mixture over extreme points when not.

Over all distributions (the point masses) most verdicts have a certificate
that needs no solver: two profiles whose columns cancel or sum to -2 e_i
refute robustness, and so, for the weak variant, do such pairs together
with a profile where every other individual votes against the outcome; the
Chow vector, zero on those individuals for the weak variant and corrected a
few times by failing columns, proves it.  The screen reads these off the
table integer and core.sign_tables, and the LP decides what it leaves open.

Every certificate, over the point masses or any extreme points, passes
certificates.robustness_problem, which builds no matrix: an agreement
matrix is only ever the input of the LP or of the responsiveness game.
Both sides are kept and checked as a core.Mixture, integer masses over one
scale, as every extreme point (a Distribution) is read too: weights are the
screen's, the LP's or classify_rule's integers over their total, and a
refutation (by Caratheodory at most n + 1 points; the screen lists 2 to
2n + 1) the screen's counts over the number listed or the LP's coprime
integers over their total.  The dense Fraction tuples are built on read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .certificates import (MODE_STRICT, MODE_WEAK, MODES, VERDICT_NOT_ROBUST, VERDICT_ROBUST,
                           extreme_supports, failed_extreme_point, require, robustness_problem)
from .core import (
    Distribution,
    DistributionSet,
    Frozen,
    Mixture,
    VotingRule,
    _checked_permutation,
    _permuted,
    degenerate_agreement_matrix,
    format_rational,
    is_anonymous,
    lowest_bit,
    nonzero_masses,
    table_masks,
    table_rule,
    twin_set,
    violation_sets,
    vote_in_profile,
    vote_leans,
)


class RobustnessCertificate(Frozen):
    """A verdict together with the vector that proves it.

    weights is a nonnegative sum-one vector over individuals whose weighted
    responsiveness sum clears one half at every extreme point.  The
    refutation is a mixture over the extreme points under whose blend no
    individual clears one half.  Exactly one is present, stored, compared
    and hashed as a core.Mixture (`weighting` or `refutation`); the dense
    tuples `weights` and `mixture` are built on each read and not kept,
    and `support` and `scale` read the refutation.
    """

    __slots__ = _fields = ("verdict", "mode", "weighting", "refutation")

    def __init__(self, verdict: str, mode: str, weights=None, mixture=None) -> None:
        if verdict not in (VERDICT_ROBUST, VERDICT_NOT_ROBUST):
            raise ValueError(f"unknown verdict {verdict!r}")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if (weights is None) == (mixture is None):
            raise ValueError("exactly one of weights and mixture must be present")
        if (verdict == VERDICT_ROBUST) != (weights is not None):
            raise ValueError("verdict does not match the certificate kind")
        vector = mixture if weights is None else weights
        stored = Mixture(len(vector), *nonzero_masses(vector))
        self._set(verdict, mode, *((None, stored) if weights is None else (stored, None)))

    def _set(self, verdict: str, mode: str, weighting, refutation) -> "RobustnessCertificate":
        # Frozen._set, unrolled: a producer calls it on cls.__new__(cls).
        put = object.__setattr__
        put(self, "verdict", verdict)
        put(self, "mode", mode)
        put(self, "weighting", weighting)
        put(self, "refutation", refutation)
        return self

    @property
    def weights(self) -> tuple[Fraction, ...] | None:
        return None if self.weighting is None else self.weighting.probs

    @property
    def support(self) -> tuple[tuple[int, int], ...] | None:
        return None if self.refutation is None else self.refutation.masses

    @property
    def scale(self) -> int:
        return 1 if self.refutation is None else self.refutation.scale

    @property
    def mixture(self) -> tuple[Fraction, ...] | None:
        return None if self.refutation is None else self.refutation.probs

    def to_json(self) -> dict:
        payload: dict = {"verdict": self.verdict, "mode": self.mode}
        for key, side in (("weights", self.weighting), ("mixture", self.refutation)):
            if side is not None:
                payload[key] = [format_rational(v) for v in side.probs]
        return payload


def agreement_matrix(rule: VotingRule, pset: DistributionSet) -> list[list[int | Fraction]]:
    """Expected outcome-vote products, one row per individual, one column
    per extreme point: phi(x) * x mixed by that extreme point, an integer
    dot over its support divided by its common denominator.  A column over
    denominator 1, such as a point mass of a deterministic rule, stays
    integer."""
    if rule.n != pset.n:
        raise ValueError(f"rule has n={rule.n} but distribution set has n={pset.n}")
    columns = []
    for dist in pset.extreme_points:
        support = [idx for idx, _ in dist.masses]
        dots = vote_leans(rule.n, support, [m * rule.outcomes[idx] for idx, m in dist.masses])
        columns.append(dots if dist.scale == 1 else [Fraction(dot, dist.scale) for dot in dots])
    return [list(row) for row in zip(*columns)]


def _certificate(rule, mode: str, weights=None, mixture: Mixture | None = None,
                 scale: int = 1, points=None) -> RobustnessCertificate:
    """The certificate for whichever is given, weights (integer numerators
    over scale) or a mixture, once it has passed robustness_problem over
    the extreme points with these supports (None: the point masses)."""
    masses, scale = (None, scale) if mixture is None else (mixture.masses, mixture.scale)
    found = robustness_problem(rule, mode == MODE_STRICT, weights, masses, points, scale)
    require(found is None, f"robustness certificate: {found}")
    verdict = VERDICT_ROBUST if mixture is None else VERDICT_NOT_ROBUST
    return RobustnessCertificate.__new__(RobustnessCertificate)._set(
        verdict, mode, weights and Mixture.in_lowest_terms(weights, scale), mixture)


def _certify_by_lp(rule: VotingRule, mode: str,
                   pset: DistributionSet | None = None) -> RobustnessCertificate:
    """The LP's verdict over pset, None for the point masses, on the
    agreement matrix built for it, with a checked certificate."""
    from .lp import alternative_strict, alternative_weak  # `verify` never solves

    alternative = alternative_strict if mode == MODE_STRICT else alternative_weak
    if pset is None:
        answer, points = alternative(degenerate_agreement_matrix(rule)), None
    else:
        answer, points = alternative(agreement_matrix(rule, pset)), extreme_supports(rule, pset)
    side = answer.row_side
    weights, scale = (None, 1) if side is None else (side.numerators, side.scale)
    return _certificate(rule, mode, weights, answer.column_side, scale, points)


def _spread(size: int, profiles: list[int]) -> Mixture:
    """Equal mass on each listed profile of size (a repeat adds up), as
    stored: counts over the number listed, in lowest terms."""
    points = sorted(set(profiles))
    counts = list(map(profiles.count, points))
    common = gcd(len(profiles), *counts)
    if common > 1:
        counts = [c // common for c in counts]
    return Mixture(size, tuple(zip(points, counts)), len(profiles) // common)


def _screen(rule: VotingRule, mode: str):
    """An answer over the point masses that needs no solver, or None: a
    (weights, None, total) triple, integer weights over their total, or a
    (None, mixture) pair, the mixture as _spread gives it.

    Column x of the point-mass matrix is phi(x) * x.  A profile deciding
    the same as its negation gives two columns that cancel, and an own-vote
    violation of individual i at (base, base | bit_i) two columns summing
    to -2 e_i, so half mass on either pair is a strict mixture.  A weak
    mixture puts equal mass on one pair per violator and, unless everyone
    is a violator, on the first profile where every other (monotone)
    individual votes against the outcome: over k profiles, a monotone row
    is then at -1/k and a violator's at most (1 - 2)/k.  Otherwise the Chow
    vector (the row sums), corrected by adding a failing column at most n
    times, usually proves robustness; weak weights must give every violator
    zero (its pair's columns sum to -2 e_i), so there it starts and stays
    zero on the violators' rows.  No LP runs, and neither a matrix nor the
    outcome tuple is built: Chow entry i is twice the number of profiles
    where i agrees with the outcome, minus 2^n, and each round's failing
    column is one certificates.failed_extreme_point, a sign-table mask.
    """
    strict = mode == MODE_STRICT
    n, size = rule.n, 2**rule.n
    t = rule.table
    masks = table_masks(n)
    twins = twin_set(n, t) if strict else 0
    if twins:
        twin = lowest_bit(twins)
        return None, _spread(size, [twin, size - 1 - twin])
    firsts = {i: lowest_bit(bases)
              for i, bases in enumerate(violation_sets(n, t), start=1) if bases}
    pairs = [x for i, base in firsts.items() for x in (base, base | 1 << (i - 1))]
    if strict and pairs:
        return None, _spread(size, pairs[:2])
    if not strict:
        against = masks.full
        for i, plus in enumerate(masks.plus, start=1):
            if i not in firsts:
                against &= t ^ plus
        if against:
            profile = [lowest_bit(against)] if len(firsts) < n else []
            return None, _spread(size, pairs + profile)

    monotone = [i not in firsts for i in range(1, n + 1)]
    weights = [2 * (masks.full & ~(t ^ plus)).bit_count() - size if keep else 0
               for keep, plus in zip(monotone, masks.plus)]
    for _ in range(n + 1):
        j = failed_extreme_point(rule, weights, strict)
        if j is None:
            if min(weights) < 0 or not any(weights):
                return None
            return weights, None, sum(weights)
        phi, = rule.outcomes_at((j,))
        weights = [w + phi * vote_in_profile(j, i) if keep else 0
                   for i, (w, keep) in enumerate(zip(weights, monotone), start=1)]
    return None


def is_robust_table(n: int, t: int, mode: str = MODE_STRICT) -> bool:
    """Whether the rule of table integer t on n individuals is robust in mode
    over all distributions; strict, only a self-dual monotone t is certified,
    as only it escapes the screen's refutations (a twin or a violation pair)."""
    if mode == MODE_STRICT and (twin_set(n, t) or any(violation_sets(n, t))):
        return False
    return certify_p_robust_full(table_rule(n, t), mode).verdict == VERDICT_ROBUST


def certify_p_robust(
    rule: VotingRule, pset: DistributionSet, mode: str = MODE_STRICT
) -> RobustnessCertificate:
    """Decide robustness over the polytope spanned by the given extreme
    points and return the proving vector; the 2^n point masses in profile
    order go to certify_p_robust_full, so both give the same certificate."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not pset.extreme_points:
        raise ValueError("distribution set must have at least one extreme point")
    if extreme_supports(rule, pset) is None:
        return certify_p_robust_full(rule, mode)
    return _certify_by_lp(rule, mode, pset)


def certify_p_robust_full(rule: VotingRule, mode: str = MODE_STRICT,
                          weights: Mixture | None = None) -> RobustnessCertificate:
    """Robustness over all distributions: the extreme points are the 2^n
    point masses and the matrix columns come straight off the truth table.
    The combinatorial screen answers first; given weights (a Mixture),
    already known to prove robustness in this mode, answer next, both
    checked with no matrix; the LP decides the rest, on its matrix."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    answer = _screen(rule, mode)
    if answer is None and weights is not None:
        answer = weights.numerators, None, weights.scale
    if answer is None:
        return _certify_by_lp(rule, mode)
    return _certificate(rule, mode, *answer)


def responsiveness_game(rule: VotingRule, pset: DistributionSet):
    """Solve the game where an adversary blends extreme points to hold
    every individual's responsiveness down.

    Rows are individuals, columns are the extreme points, payoffs are
    responsiveness values (integers 0 and 1 at point masses). The returned
    solution carries both optimal strategies alongside the value, which is
    above one half exactly when the rule is robust and at least one half
    when it is weakly robust.
    """
    from .lp import matrix_game

    if extreme_supports(rule, pset) is None:
        return matrix_game([[(a + 1) // 2 for a in r] for r in degenerate_agreement_matrix(rule)])
    return matrix_game([[Fraction(a + 1, 2) for a in row] for row in agreement_matrix(rule, pset)])


def _index_map(permutation) -> list[int]:
    """The map _permuted applies to a support atom's index under the
    relabeling: profile x gets the mass of permute_profile_index(x), so
    each atom moves to its index under the inverse relabeling."""
    inverse = [0] * len(permutation)
    for position, individual in enumerate(permutation, start=1):
        inverse[individual - 1] = position
    return inverse


def _relabeled_support(dist: Distribution, index_map) -> tuple[tuple[int, int], ...]:
    """The masses of the relabeled profile, ascending, over dist.scale,
    given the relabeling's _index_map.  A relabeling of a valid support is
    valid, so nothing is checked here.  Masses sum to their scale, so at
    one n they alone tell distributions apart."""
    return tuple(sorted((_permuted(idx, index_map), m) for idx, m in dist.masses))


def permute_distribution(dist: Distribution, permutation) -> Distribution:
    """The distribution of the relabeled profile."""
    return Distribution._from_masses(dist.n, _relabeled_support(
        dist, _index_map(_checked_permutation(dist.n, permutation))), dist.scale)


def _generators(n: int) -> tuple[list[int], ...]:
    """The index maps of the transposition (1 2) and the n-cycle, which
    generate every relabeling of n individuals; for n <= 2 the cycle alone
    does.  Each call builds them once, for all the supports it maps."""
    cycle = (*range(2, n + 1), 1)
    return tuple(map(_index_map, ((2, 1, *range(3, n + 1)), cycle) if n > 2 else (cycle,)))


def is_permutation_invariant(pset: DistributionSet) -> bool:
    """Whether relabeling individuals maps the extreme-point set onto itself.

    Only the two generators are tried: a finite set that each of them maps
    into itself is mapped into itself by every product of them, that is by
    every relabeling, and onto itself because a relabeling is injective."""
    members = {dist.masses for dist in pset.extreme_points}
    return all(_relabeled_support(dist, index_map) in members
               for index_map in _generators(pset.n) for dist in pset.extreme_points)


def _orbit(pset: DistributionSet, index: int) -> set[int]:
    """The extreme points in the orbit of one of them under relabeling, as
    positions in pset; equal mass on each is the orbit's average over all
    relabelings.

    The orbit is searched along the generators.  Each orbit member is the
    image of |stabilizer| of the n! relabelings, so their average is the
    uniform mixture over the orbit."""
    position = {dist.masses: k for k, dist in enumerate(pset.extreme_points)}
    generators = _generators(pset.n)
    orbit, frontier = {index}, [index]
    while frontier:
        dist = pset.extreme_points[frontier.pop()]
        for index_map in generators:
            k = position.get(_relabeled_support(dist, index_map))
            if k is None:
                raise ValueError(
                    "distribution set is not permutation invariant: "
                    "an orbit member is missing"
                )
            if k not in orbit:
                orbit.add(k)
                frontier.append(k)
    return orbit


def certify_anonymous(
    rule: VotingRule, pset: DistributionSet, mode: str = MODE_STRICT
) -> RobustnessCertificate:
    """Robustness of an anonymous rule over a relabeling-closed set, decided
    by the mean responsiveness at each extreme point alone.

    Positive verdicts carry the uniform weight vector.  Negative verdicts
    carry the orbit average of a violating extreme point: every individual
    agrees with the outcome equally often under it, at the violator's mean.
    Closure is checked at every n on the two generators of the relabelings,
    the transposition (1 2) and the n-cycle, which suffice for a finite set.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not is_anonymous(rule):
        raise ValueError("rule is not anonymous")
    if not pset.extreme_points:
        raise ValueError("distribution set must have at least one extreme point")
    if not is_permutation_invariant(pset):
        raise ValueError("distribution set is not permutation invariant")

    points = extreme_supports(rule, pset)
    ones = [1] * rule.n
    violator = failed_extreme_point(rule, ones, mode == MODE_STRICT, points)
    if violator is None:
        return _certificate(rule, mode, ones, scale=rule.n, points=points)
    orbit = sorted(_orbit(pset, violator))
    mixture = Mixture(len(pset), tuple((k, 1) for k in orbit), len(orbit))
    return _certificate(rule, mode, mixture=mixture, points=points)
