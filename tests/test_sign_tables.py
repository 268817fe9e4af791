"""The lane kernel against per-profile references: core.sign_tables
against the signs of the doubling vote sums and of the row-by-row Fraction
sums, certificates.failed_extreme_point over the point masses against a
profile-by-profile price check, and weighted_majority_rule against the
signs it reads.  At n = 16 the screened answers never build the rule's
outcome tuple."""

import itertools
import random
from fractions import Fraction as F

import pytest

from robustvote import (
    RandomVotingRule,
    WmrQuery,
    certify_p_robust_full,
    detect_wmr,
    weighted_majority_rule,
)
from robustvote.certificates import failed_extreme_point, weights_represent
from robustvote.core import DecisionProfile, sign_tables, table_integer, table_rule, vote_sums
from robustvote.robustness import MODES, VERDICT_ROBUST

from oracles import vote_sums_by_rows


def _signs(sums) -> tuple[int, int]:
    """The table integers where each sum is above zero, and at least zero."""
    return (table_integer([1 if s > 0 else -1 for s in sums]),
            table_integer([1 if s >= 0 else -1 for s in sums]))


def _seeded_weights():
    """Vectors at n = 4..16 mixing zero, negative, small and 2^70-sized
    weights, and the all-zero vector at each n."""
    rng = random.Random("sign-tables")
    for n in range(4, 17):
        for bound in (3, 40, 2**70):
            yield [rng.choice((0, rng.randint(-bound, bound), rng.randint(-3, 3)))
                   for _ in range(n)]
        yield [0] * n


def test_every_small_weight_vector_matches_the_vote_sums():
    for n in (1, 2, 3):
        for weights in itertools.product(range(-2, 3), repeat=n):
            expected = _signs(vote_sums(weights)[0])
            assert sign_tables(weights) == expected == _signs(vote_sums_by_rows(weights))


@pytest.mark.parametrize("weights", list(_seeded_weights()),
                         ids=lambda ws: f"n{len(ws)}-{max(map(abs, ws)).bit_length()}bits")
def test_seeded_weight_vectors_match_the_vote_sums(weights):
    expected = _signs(vote_sums(weights)[0])
    assert sign_tables(weights) == expected
    if len(weights) <= 8:
        assert expected == _signs(vote_sums_by_rows(weights))


def _failure_by_profiles(outcomes, weights, strict: bool):
    """The first profile whose price phi(x) * (w.x) is not above zero
    (strict) or is below zero, summed vote by vote off the profile bits."""
    for x, phi in enumerate(outcomes):
        price = phi * sum(w if x >> i & 1 else -w for i, w in enumerate(weights))
        if price < 0 or strict and price == 0:
            return x
    return None


def test_failed_extreme_point_on_every_small_table():
    for n in (1, 2, 3):
        vectors = list(itertools.product(range(-1, 3), repeat=n))
        for t in range(2 ** 2**n):
            rule = table_rule(n, t)
            for weights, strict in itertools.product(vectors, (True, False)):
                assert (failed_extreme_point(rule, weights, strict)
                        == _failure_by_profiles(rule.outcomes, weights, strict))


@pytest.mark.parametrize("n", range(1, 8))
def test_failed_extreme_point_on_random_rules_with_zero_outcomes(n):
    rng = random.Random(f"random-fail-mask-{n}")
    failures = set()
    for _ in range(30):
        rule = RandomVotingRule(n, tuple(rng.choice((F(-1), F(-1, 2), F(0), F(1, 3), F(1)))
                                         if rng.random() < 0.2 else F(rng.choice((-1, 1)))
                                         for _ in range(2**n)))
        for weights in ([rng.randint(-2, 4) for _ in range(n)], [0] * n, [1] * n):
            for strict in (True, False):
                expected = _failure_by_profiles(rule.outcomes, weights, strict)
                assert failed_extreme_point(rule, weights, strict) == expected
                failures.add(expected)
    assert None in failures and len(failures) > 2


@pytest.mark.parametrize("n", range(1, 9))
def test_weighted_majority_rule_signs_every_profile(n):
    rng = random.Random(f"wmr-signs-{n}")
    for _ in range(6):
        weights = [F(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(n)]
        sums = vote_sums_by_rows(weights)
        ties = [x for x, s in enumerate(sums) if s == 0]
        for tie in (-1, 1):
            expected = tuple(1 if s > 0 else -1 if s < 0 else tie for s in sums)
            assert weighted_majority_rule(n, weights, tie=tie).outcomes == expected
        if ties:
            profile = DecisionProfile(n, ties[0]).to_string()
            with pytest.raises(ValueError, match=f"ties at profile {profile.replace('+', '[+]')} "):
                weighted_majority_rule(n, weights)
        else:
            assert weighted_majority_rule(n, weights).outcomes == expected


def test_weights_represent_takes_any_rational_form():
    rule = weighted_majority_rule(3, [2, 1, 1], tie=1)
    for weights in ([2, 1, 1], [F(1, 2), F(1, 4), F(1, 4)], [0.5, 0.25, 0.25],
                    ["1/2", "1/4", "1/4"], (w for w in (2, 1, 1))):
        assert weights_represent(rule, weights, "allowed")
    assert not weights_represent(rule, ["0", 0.0, F(0)], "allowed")
    with pytest.raises(ValueError, match="2 weights for n=3"):
        weights_represent(rule, (w for w in (1, 1)), "allowed")


def test_screened_answers_at_n16_never_build_the_outcomes():
    table = weighted_majority_rule(16, [1, 2, 3] * 5 + [3]).table  # odd total: no ties
    for mode in MODES:
        rule = table_rule(16, table)
        assert certify_p_robust_full(rule, mode).verdict == VERDICT_ROBUST
        assert "outcomes" not in vars(rule)
    rule = table_rule(16, table)
    assert detect_wmr(rule, WmrQuery("nonnegative", "forbidden")) is not None
    assert "outcomes" not in vars(rule)
