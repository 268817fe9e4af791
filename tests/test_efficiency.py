"""Pareto comparison and the three efficiency notions."""

from fractions import Fraction as F

import pytest

from robustvote import (
    Distribution,
    NoTransportError,
    RandomVotingRule,
    VotingRule,
    dictatorship_rule,
    efficiency_verdict,
    enumerate_rules,
    inverse_rule,
    is_strictly_efficient,
    majority_rule,
    pareto_compare,
    responsiveness,
    transport_distribution,
    unanimity_rule,
)
from robustvote.robustness import MODE_STRICT, VERDICT_ROBUST, certify_p_robust_full

from conftest import random_distribution
from oracles import efficient_by_elimination, transport_by_atoms

MODES = ("strict", "plain", "weak")
SPARSE = {0: 1, 3: 2, 5: 1, 6: 3, 7: 1}
SKEWED = {1: 1, 2: 1, 4: 5}


def _elimination_cases():
    """Every rule at n <= 3 under the uniform distribution, and the n = 3
    rules under two distributions with profiles of zero mass."""
    cases = [(rule, Distribution.uniform(n)) for n in (1, 2, 3) for rule in enumerate_rules(n)]
    for weights in (SPARSE, SKEWED):
        dist = Distribution.from_weights(3, weights)
        cases += [(rule, dist) for rule in enumerate_rules(3)]
    return cases


class TestParetoCompare:
    def test_equal(self):
        rule = majority_rule(3)
        verdict = pareto_compare(rule, rule, Distribution.uniform(3))
        assert verdict.relation == "equal"
        assert verdict.direction == "none"
        assert all(d == 0 for d in verdict.deltas)

    def test_strictly_preferred(self):
        # Flipping the outcome at the all-minus profile moves every
        # individual the same way, so the original strictly wins there.
        flipped = VotingRule.from_table_string(3, "+--+-+++")
        dist = Distribution.degenerate(3, 0)
        verdict = pareto_compare(majority_rule(3), flipped, dist)
        assert verdict.relation == "strictly_preferred"
        assert verdict.direction == "first_over_second"
        assert verdict.deltas == (F(1), F(1), F(1))

    def test_incomparable(self):
        dist = Distribution.uniform(2)
        verdict = pareto_compare(
            dictatorship_rule(2, 1), dictatorship_rule(2, 2), dist
        )
        assert verdict.relation == "incomparable"
        assert verdict.direction == "none"

    def test_preferred_without_strictness(self):
        # Softening the outcome equally at --- and +-- cancels for
        # individual 1 and costs the other two.
        blend = RandomVotingRule(
            3, (F(0), F(0), F(-1), F(1), F(-1), F(1), F(1), F(1))
        )
        verdict = pareto_compare(majority_rule(3), blend, Distribution.uniform(3))
        assert verdict.relation == "preferred"
        assert verdict.direction == "first_over_second"
        assert verdict.deltas == (F(0), F(1, 8), F(1, 8))

    def test_second_direction(self):
        flipped = VotingRule.from_table_string(3, "+--+-+++")
        dist = Distribution.degenerate(3, 0)
        verdict = pareto_compare(flipped, majority_rule(3), dist)
        assert verdict.direction == "second_over_first"

    def test_json(self):
        verdict = pareto_compare(
            majority_rule(3), majority_rule(3), Distribution.uniform(3)
        )
        data = verdict.to_json()
        assert data == {
            "relation": "equal",
            "direction": "none",
            "deltas": ["0/1", "0/1", "0/1"],
        }

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            pareto_compare(majority_rule(3), majority_rule(3), Distribution.uniform(2))


class TestStrictEfficiency:
    def test_majority_uniform(self):
        efficient, witness = is_strictly_efficient(majority_rule(3), Distribution.uniform(3))
        assert efficient and witness is None

    def test_unanimity_is_beaten(self):
        dist = Distribution.uniform(3)
        efficient, witness = is_strictly_efficient(unanimity_rule(3), dist)
        assert not efficient
        assert isinstance(witness, RandomVotingRule)
        base = responsiveness(unanimity_rule(3), dist).values
        better = responsiveness(witness, dist).values
        assert all(b >= a for a, b in zip(base, better))
        assert witness != RandomVotingRule.from_deterministic(unanimity_rule(3))

    def test_matches_robustness_on_all_rules_n2(self):
        dist = Distribution.uniform(2)
        for rule in enumerate_rules(2):
            efficient, _ = is_strictly_efficient(rule, dist)
            assert efficient == (certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST)


class TestEfficiencyLadder:
    def test_frozen_counts_n2(self):
        dist = Distribution.uniform(2)
        counts = [0, 0, 0]
        for rule in enumerate_rules(2):
            strict, _ = efficiency_verdict(rule, dist, "strict")
            plain, _ = efficiency_verdict(rule, dist, "plain")
            weak, _ = efficiency_verdict(rule, dist, "weak")
            counts[0] += strict
            counts[1] += plain
            counts[2] += weak
            if strict:
                assert plain
            if plain:
                assert weak
        assert counts == [2, 4, 4]

    def test_frozen_counts_n3(self):
        dist = Distribution.uniform(3)
        counts = [0, 0, 0]
        for rule in enumerate_rules(3):
            counts[0] += efficiency_verdict(rule, dist, "strict")[0]
            counts[1] += efficiency_verdict(rule, dist, "plain")[0]
            counts[2] += efficiency_verdict(rule, dist, "weak")[0]
        assert counts == [4, 10, 37]

    def test_witnesses_prove_their_verdicts(self, rng):
        # At n=3 some profiles have no mass, so a rule can differ there
        # unnoticed by anyone.
        sparse = Distribution.from_weights(3, {0: 1, 3: 2, 5: 1, 6: 3, 7: 1})
        cases = [(rule, Distribution.uniform(2)) for rule in enumerate_rules(2)]
        cases += [(rule, sparse) for rule in enumerate_rules(3)]
        for rule, dist in cases:
            for mode in ("strict", "plain", "weak"):
                efficient, witness = efficiency_verdict(rule, dist, mode)
                if efficient:
                    assert witness is None
                    continue
                base = responsiveness(rule, dist).values
                better = responsiveness(witness, dist).values
                deltas = [b - a for a, b in zip(base, better)]
                if mode == "strict":
                    assert witness != RandomVotingRule.from_deterministic(rule)
                    assert all(d >= 0 for d in deltas)
                elif mode == "plain":
                    assert all(d >= 0 for d in deltas) and sum(deltas) > 0
                else:
                    assert all(d > 0 for d in deltas)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            efficiency_verdict(majority_rule(3), Distribution.uniform(3), "lenient")
        with pytest.raises(ValueError):
            efficiency_verdict(majority_rule(3), Distribution.uniform(2), "strict")


class TestAgainstElimination:
    def test_every_mode_matches_fourier_motzkin(self):
        for rule, dist in _elimination_cases():
            for mode in MODES:
                efficient, witness = efficiency_verdict(rule, dist, mode)
                assert efficient == efficient_by_elimination(rule, dist, mode), (
                    rule.to_table_string(), dist.support, mode)
                assert efficient == (witness is None)

    def test_strict_efficiency_needs_full_support(self):
        # The dictator is strictly robust, yet a profile without mass can
        # be flipped unnoticed: the witness flips the first such profile.
        rule = dictatorship_rule(3, 1)
        efficient, witness = efficiency_verdict(rule, Distribution.from_weights(3, SPARSE), "strict")
        assert not efficient
        assert witness.outcomes[1] == -rule.outcomes[1]
        assert all(a == b for k, (a, b) in enumerate(zip(witness.outcomes, rule.outcomes))
                   if k != 1)


class TestTransport:
    def test_moves_mass_to_deviation_profiles(self):
        dist = Distribution.uniform(3)
        rule = unanimity_rule(3)
        _, witness = is_strictly_efficient(rule, dist)
        moved = transport_distribution(dist, rule, witness)
        assert sum(moved.probs) == 1
        for idx in range(8):
            if witness.outcomes[idx] == rule.outcomes[idx]:
                assert moved.prob(idx) == 0

    def test_inverse_rule_weakly_wins_after_transport(self):
        # Moving all mass onto the profiles where the blend deviates makes
        # the outright inverse at least as good as the original there.
        dist = Distribution.uniform(3)
        rule = unanimity_rule(3)
        _, witness = is_strictly_efficient(rule, dist)
        moved = transport_distribution(dist, rule, witness)
        verdict = pareto_compare(inverse_rule(rule), rule, moved)
        assert verdict.relation in ("equal", "preferred", "strictly_preferred")
        if verdict.relation != "equal":
            assert verdict.direction == "first_over_second"

    def test_requires_dominance(self):
        dist = Distribution.uniform(3)
        bad = RandomVotingRule.from_deterministic(inverse_rule(majority_rule(3)))
        with pytest.raises(ValueError):
            transport_distribution(dist, majority_rule(3), bad)

    def test_equals_the_atomwise_normalization(self):
        # One integer total per distribution gives the distribution that
        # normalizing each atom's Fraction mass gives.
        for rule, dist in _elimination_cases()[::7]:
            for mode in MODES:
                efficient, witness = efficiency_verdict(rule, dist, mode)
                if efficient:
                    continue
                expected = transport_by_atoms(dist, rule, witness)
                if expected is None:
                    with pytest.raises(NoTransportError):
                        transport_distribution(dist, rule, witness)
                    continue
                assert dict(transport_distribution(dist, rule, witness).support) == expected

    def test_no_transport_when_rules_agree(self):
        dist = Distribution.uniform(3)
        rule = majority_rule(3)
        same = RandomVotingRule.from_deterministic(rule)
        with pytest.raises(NoTransportError):
            transport_distribution(dist, rule, same)


class TestFuzzedDistributions:
    def test_strict_efficiency_tracks_robustness_off_uniform(self, rng):
        # The equivalence holds for any strictly positive distribution.
        for _ in range(3):
            dist = random_distribution(rng, 2, strictly_positive=True)
            for rule in enumerate_rules(2):
                efficient, _ = is_strictly_efficient(rule, dist)
                assert efficient == (certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST)
