"""Distribution-free robustness of random rules and domination search."""

from fractions import Fraction as F

import pytest

from robustvote import (
    Distribution,
    RandomVotingRule,
    anonymous_even_impossibility,
    certify_random,
    dictatorship_rule,
    enumerate_rules,
    find_dominating_deterministic,
    is_anonymous,
    majority_rule,
    pareto_compare,
    responsiveness,
    sign_pattern_holds,
)

HALF = F(1, 2)


def randomized_majority(n, amplitude):
    """Majority direction scaled to +-amplitude."""
    base = majority_rule(n)
    return RandomVotingRule(n, tuple(amplitude * v for v in base.outcomes))


class TestSignPattern:
    def test_holds_for_scaled_majority(self):
        rule = randomized_majority(3, F(1, 2))
        assert sign_pattern_holds(rule, (F(1), F(1), F(1)))

    def test_fails_on_wrong_side(self):
        rule = randomized_majority(3, F(1, 2))
        assert not sign_pattern_holds(rule, (F(1), F(0), F(0)))

    def test_zero_sum_counts_as_failure(self):
        rule = RandomVotingRule.from_deterministic(dictatorship_rule(2, 1))
        assert not sign_pattern_holds(rule, (F(1), F(1)))


class TestCertifyRandom:
    def test_exactly_one_side(self):
        for rule in (
            randomized_majority(3, F(1, 2)),
            RandomVotingRule(2, (F(0), F(0), F(0), F(0))),
            RandomVotingRule.from_deterministic(majority_rule(3)),
        ):
            weights, counterexample = certify_random(rule)
            assert (weights is None) != (counterexample is None)

    def test_scaled_majority_is_robust(self):
        rule = randomized_majority(3, F(1, 4))
        weights, counterexample = certify_random(rule)
        assert weights is not None
        assert sign_pattern_holds(rule, weights.weights)
        assert counterexample is None

    def test_counterexample_caps_everyone(self):
        rule = RandomVotingRule(2, (F(1), F(1), F(1), F(1)))
        counterexample = certify_random(rule)[1]
        assert counterexample is not None
        vector = responsiveness(rule, counterexample)
        assert all(v <= HALF for v in vector.values)

    def test_zero_outcome_is_an_immediate_counterexample(self):
        # A profile with expected outcome zero gives r = 1/2 to everyone
        # under its point mass, so no weights can exist.
        rule = RandomVotingRule(2, (F(-1, 2), F(0), F(0), F(1, 2)))
        weights, counterexample = certify_random(rule)
        assert weights is None
        assert counterexample == Distribution.degenerate(2, 1)
        vector = responsiveness(rule, counterexample)
        assert all(v == HALF for v in vector.values)

    def test_deterministic_rules_match_the_deterministic_verdict(self):
        from robustvote.robustness import MODE_STRICT, VERDICT_ROBUST, certify_p_robust_full

        for rule in enumerate_rules(2):
            lifted = RandomVotingRule.from_deterministic(rule)
            expected = certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST
            assert (certify_random(lifted)[0] is not None) == expected


class TestDominationSearch:
    def test_scaled_majority_gets_a_deterministic_dominator(self):
        rule = randomized_majority(3, F(1, 2))
        found = find_dominating_deterministic(rule)
        assert found is not None
        dominator, dist = found
        base = responsiveness(rule, dist).values
        better = responsiveness(dominator, dist).values
        assert all(b > a for a, b in zip(base, better))

    def test_first_hit_is_in_table_order(self):
        # The all-minus table beats any rule that never reaches full
        # magnitude, and it enumerates first.
        rule = randomized_majority(3, F(1, 2))
        dominator, _ = find_dominating_deterministic(rule)
        assert dominator.to_table_string() == "--------"

    def test_majority_at_full_scale_beats_the_half_scale_version(self):
        # Independent of the search: under the all-plus point mass the
        # deterministic majority strictly improves on the half-scale one.
        rule = randomized_majority(3, F(1, 2))
        dist = Distribution.degenerate(3, 0b111)
        verdict = pareto_compare(majority_rule(3), rule, dist)
        assert verdict.relation == "strictly_preferred"
        assert verdict.direction == "first_over_second"
        assert verdict.deltas == (F(1, 4), F(1, 4), F(1, 4))

    def test_deterministic_rule_is_never_dominated(self):
        rule = RandomVotingRule.from_deterministic(majority_rule(3))
        assert find_dominating_deterministic(rule) is None

    def test_cap(self):
        rule = RandomVotingRule(5, tuple(F(0) for _ in range(32)))
        with pytest.raises(ValueError):
            find_dominating_deterministic(rule)


class TestAnonymousEvenImpossibility:
    def test_even_split_mass(self):
        dist = anonymous_even_impossibility(2)
        assert dist.prob(0b01) == HALF and dist.prob(0b10) == HALF
        assert dist.prob(0) == 0 and dist.prob(0b11) == 0

    @pytest.mark.parametrize("n", [2, 4])
    def test_pins_every_anonymous_rule_to_one_half(self, n):
        dist = anonymous_even_impossibility(n)
        for rule in enumerate_rules(n, is_anonymous):
            vector = responsiveness(rule, dist)
            assert all(v == HALF for v in vector.values)

    def test_anonymous_random_rules_are_pinned_too(self):
        dist = anonymous_even_impossibility(2)
        # Any anonymous random rule has a constant outcome on the balanced
        # count class; spot-check a few.
        for value in (F(0), F(1, 3), F(-1)):
            rule = RandomVotingRule(2, (F(-1), value, value, F(1)))
            vector = responsiveness(rule, dist)
            assert all(v == HALF for v in vector.values)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            anonymous_even_impossibility(3)
