"""Profiles, rules, distributions, and the named-rule constructors."""

import random
from fractions import Fraction as F

import pytest

from robustvote import (
    DecisionProfile,
    Distribution,
    DistributionSet,
    FormatError,
    RandomVotingRule,
    VotingRule,
    all_profiles,
    apply_permutation,
    constant_rule,
    count_distribution,
    dictatorship_rule,
    enumerate_rules,
    inverse_rule,
    is_anonymous,
    is_dictatorship,
    is_own_vote_monotone,
    is_self_dual,
    load_rule,
    majority_rule,
    parity_rule,
    permute_profile_index,
    supermajority_rule,
    unanimity_rule,
    weighted_majority_rule,
)
from robustvote.core import (
    STRUCTURAL_PREDICATES,
    enumerate_tables,
    format_rational,
    monotone_tables,
    parse_rational,
    popcount,
    vote_in_profile,
)


class TestProfiles:
    def test_bit_convention(self):
        # Individual i's vote sits in bit i-1 of the index.
        p = DecisionProfile(3, 0b011)
        assert p.votes() == (1, 1, -1)
        assert p.to_string() == "++-"
        assert p.vote(1) == 1 and p.vote(3) == -1
        assert vote_in_profile(0b011, 3) == -1

    def test_string_round_trip(self):
        for n in (1, 2, 3, 4):
            for p in all_profiles(n):
                assert DecisionProfile.from_string(p.to_string()).index == p.index

    def test_from_votes_round_trip(self):
        p = DecisionProfile.from_votes([-1, 1, 1, -1])
        assert p.index == 0b0110
        assert p.support_size == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            DecisionProfile(2, 4)
        with pytest.raises(ValueError):
            DecisionProfile.from_votes([1, 0])
        with pytest.raises(FormatError):
            DecisionProfile.from_string("+x-")
        with pytest.raises(FormatError):
            DecisionProfile.from_string("")
        with pytest.raises(ValueError):
            DecisionProfile(3, 0).vote(4)

    def test_individual_cap(self):
        with pytest.raises(ValueError):
            DecisionProfile(17, 0)


class TestVotingRule:
    def test_table_round_trip(self):
        rule = VotingRule.from_table_string(3, "---+-+++")
        assert rule.to_table_string() == "---+-+++"
        assert rule.outcome(0b111) == 1
        assert rule.outcome(DecisionProfile(3, 0)) == -1

    def test_json_round_trip(self):
        rule = VotingRule.from_table_string(2, "-++-")
        assert VotingRule.from_json(rule.to_json()) == rule

    def test_validation(self):
        with pytest.raises(ValueError):
            VotingRule(2, (1, -1, 1))
        with pytest.raises(ValueError):
            VotingRule(2, (1, -1, 0, 1))
        with pytest.raises(FormatError):
            VotingRule.from_table_string(2, "--+")
        with pytest.raises(FormatError):
            VotingRule.from_table_string(2, "--+x")


class TestRandomVotingRule:
    def test_outcomes_are_clamped_rationals(self):
        rule = RandomVotingRule(1, (F(-1, 2), F(1)))
        assert rule.outcome(1) == 1
        with pytest.raises(ValueError):
            RandomVotingRule(1, (F(3, 2), F(0)))

    def test_deterministic_bridge(self):
        base = majority_rule(3)
        lifted = RandomVotingRule.from_deterministic(base)
        assert lifted.as_deterministic() == base
        assert RandomVotingRule(1, (F(0), F(1))).as_deterministic() is None

    def test_json_round_trip(self):
        rule = RandomVotingRule(2, (F(-1), F(-1, 2), F(0), F(1)))
        again = RandomVotingRule.from_json(rule.to_json())
        assert again == rule

    def test_load_rule_dispatch(self):
        det = load_rule({"n": 2, "table": "--++"})
        assert isinstance(det, VotingRule)
        rand = load_rule({"n": 1, "table": ["-1/2", "1"]})
        assert isinstance(rand, RandomVotingRule)
        with pytest.raises(FormatError):
            load_rule({"n": 2, "table": 7})


class TestDistribution:
    def test_degenerate_and_uniform(self):
        d = Distribution.degenerate(2, 3)
        assert d.prob(3) == 1 and d.prob(0) == 0
        u = Distribution.uniform(2)
        assert all(u.prob(k) == F(1, 4) for k in range(4))
        assert u.is_strictly_positive() and not d.is_strictly_positive()

    def test_expectation(self):
        d = Distribution.uniform(1)
        assert d.expectation([F(0), F(1)]) == F(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Distribution(1, (F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            Distribution(1, (F(-1, 2), F(3, 2)))

    def test_json_round_trip_omits_zeros(self):
        d = Distribution.from_weights(3, {3: F(1, 2), 4: F(1, 2)})
        data = d.to_json()
        assert data == {
            "n": 3,
            "atoms": [
                {"profile": "++-", "prob": "1/2"},
                {"profile": "--+", "prob": "1/2"},
            ],
        }
        assert Distribution.from_json(data) == d

    def test_json_rejects_duplicates(self):
        bad = {
            "n": 1,
            "atoms": [
                {"profile": "+", "prob": "1/2"},
                {"profile": "+", "prob": "1/2"},
            ],
        }
        with pytest.raises(FormatError, match="duplicate"):
            Distribution.from_json(bad)

    def test_json_names_offending_field(self):
        bad = {"n": 1, "atoms": [{"profile": "+", "prob": "1/0"}]}
        with pytest.raises(FormatError, match="atoms\\[0\\].prob"):
            Distribution.from_json(bad)


class TestDistributionSet:
    def test_degenerates_order(self):
        pset = DistributionSet.degenerates(2)
        assert len(pset) == 4
        assert [d.prob(k) for k, d in enumerate(pset.extreme_points)] == [1, 1, 1, 1]

    def test_dedup_keeps_first_occurrence(self):
        a = Distribution.degenerate(1, 0)
        b = Distribution.degenerate(1, 1)
        pset = DistributionSet(1, (a, b, a))
        assert pset.extreme_points == (a, b)

    def test_mixture(self):
        pset = DistributionSet.degenerates(1)
        mixed = pset.mixture([F(1, 4), F(3, 4)])
        assert mixed.probs == (F(1, 4), F(3, 4))
        with pytest.raises(ValueError):
            pset.mixture([F(1, 2), F(1, 4)])

    def test_json_round_trip(self):
        pset = DistributionSet(2, (Distribution.uniform(2), Distribution.degenerate(2, 0)))
        assert DistributionSet.from_json(pset.to_json()).extreme_points == pset.extreme_points


class TestPredicates:
    def test_anonymous(self):
        assert is_anonymous(majority_rule(3))
        assert not is_anonymous(dictatorship_rule(3, 2))

    def test_self_dual(self):
        assert is_self_dual(majority_rule(3))
        assert not is_self_dual(unanimity_rule(3))

    def test_dictatorship(self):
        assert is_dictatorship(dictatorship_rule(3, 2)) == 2
        assert is_dictatorship(majority_rule(3)) is None
        assert is_dictatorship(dictatorship_rule(1, 1)) == 1

    def test_own_vote_monotone(self):
        ok, witness = is_own_vote_monotone(majority_rule(3))
        assert ok and witness is None
        ok, witness = is_own_vote_monotone(parity_rule(2))
        assert not ok
        individual, others = witness
        # Rebuild both profiles and confirm the recorded flip.
        rule = parity_rule(2)
        positions = [p for p in range(2) if p != individual - 1]
        base = 0
        for j, pos in enumerate(positions):
            if others[j] == 1:
                base |= 1 << pos
        assert rule.outcomes[base] == 1
        assert rule.outcomes[base | (1 << (individual - 1))] == -1

    def test_inverse_rule(self):
        rule = majority_rule(3)
        inv = inverse_rule(rule)
        assert all(a == -b for a, b in zip(inv.outcomes, rule.outcomes))
        rand = RandomVotingRule(1, (F(1, 2), F(-1, 4)))
        assert inverse_rule(rand).outcomes == (F(-1, 2), F(1, 4))


class TestPermutations:
    def test_permute_profile_index(self):
        # Swap individuals 1 and 3 on n=3: bit 0 and bit 2 trade places.
        assert permute_profile_index(0b001, 3, (3, 2, 1)) == 0b100

    def test_apply_permutation_fixes_anonymous_rules(self):
        rule = supermajority_rule(3, 2)
        assert apply_permutation(rule, (2, 3, 1)) == rule

    def test_apply_permutation_moves_dictators(self):
        assert apply_permutation(dictatorship_rule(3, 1), (2, 1, 3)) == dictatorship_rule(3, 2)


class TestEnumeration:
    def test_order_and_count(self):
        rules = list(enumerate_rules(1))
        assert len(rules) == 4
        assert [r.to_table_string() for r in rules] == ["--", "+-", "-+", "++"]

    def test_predicate_filter(self):
        anon = [r for r in enumerate_rules(3, is_anonymous)]
        assert len(anon) == 16

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_rules(5))
        with pytest.raises(ValueError):
            monotone_tables(5)

    @pytest.mark.parametrize("n, count", [(1, 3), (2, 6), (3, 20), (4, 168)])
    def test_monotone_tables_are_the_monotone_walk(self, n, count):
        tables = monotone_tables(n)
        assert len(tables) == count
        assert tables == list(enumerate_tables(n, STRUCTURAL_PREDICATES["monotone"]))


class TestNamedRules:
    def test_majority_odd(self):
        assert majority_rule(3).to_table_string() == "---+-+++"

    def test_majority_even_needs_tie_outcome(self):
        with pytest.raises(ValueError, match="tie"):
            majority_rule(2)
        assert majority_rule(2, tie=-1).to_table_string() == "---+"
        assert majority_rule(2, tie=1).to_table_string() == "-+++"

    def test_weighted_majority(self):
        rule = weighted_majority_rule(3, [F(3), F(2), F(2)])
        # Individual 1 alone cannot win, but wins every pairing.
        assert rule.outcome(0b001) == -1
        assert rule.outcome(0b011) == 1
        assert rule.outcome(0b101) == 1
        with pytest.raises(ValueError, match="tie"):
            weighted_majority_rule(3, [F(2), F(1), F(1)])
        with pytest.raises(ValueError):
            weighted_majority_rule(2, [F(1)])

    def test_supermajority(self):
        rule = supermajority_rule(3, 3)
        assert rule == unanimity_rule(3)
        assert rule.to_table_string() == "-------+"
        assert supermajority_rule(3, 0) == constant_rule(3, 1)
        assert supermajority_rule(3, 4) == constant_rule(3, -1)
        with pytest.raises(TypeError):
            supermajority_rule(3, F(2, 3))

    def test_dictatorship_tables(self):
        assert dictatorship_rule(3, 1).to_table_string() == "-+-+-+-+"
        assert dictatorship_rule(3, 2).to_table_string() == "--++--++"
        assert dictatorship_rule(3, 3).to_table_string() == "----++++"

    def test_parity(self):
        rule = parity_rule(2)
        assert rule.to_table_string() == "+--+"


class TestCountDistribution:
    def test_uniform_within_each_count(self):
        d = count_distribution(3, [F(0), F(1, 2), F(0), F(1, 2)])
        assert d.prob(0b111) == F(1, 2)
        for idx in (0b001, 0b010, 0b100):
            assert d.prob(idx) == F(1, 6)
        assert d.prob(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            count_distribution(2, [F(1, 2), F(1, 2)])
        with pytest.raises(ValueError):
            count_distribution(2, [F(1), F(1), F(-1)])


class TestRationals:
    def test_format_parse_round_trip(self):
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(-2)) == "-2/1"
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-5/1") == F(-5)

    def test_parse_diagnostics_name_the_field(self):
        with pytest.raises(FormatError, match="prob"):
            parse_rational("0.5", "prob")
        with pytest.raises(FormatError):
            parse_rational("1/0")

    @pytest.mark.parametrize("text", ["1/2\n", "3\n", "\n1/2", " 1/2", "1/2 ", "+1/2", "1/-2",
                                      "1/02", "1_0/3", "", "-", "/2"])
    def test_parse_rejects_what_is_not_num_slash_den(self, text):
        with pytest.raises(FormatError):
            parse_rational(text)

    def test_parse_equals_fraction_of_the_text(self):
        rng = random.Random(20261019)
        texts = ["-0/3", "0", "-0", "007/5", "-007", "10/10", "-12/8"]
        for _ in range(300):
            digits = rng.choice((1, 3, 20, 40))
            numerator = str(rng.randrange(10**digits)).zfill(digits + rng.randint(0, 2))
            sign = rng.choice(("", "-"))
            if rng.random() < 0.3:
                texts.append(sign + numerator)
            else:
                texts.append(f"{sign}{numerator}/{rng.randrange(1, 10**rng.choice((1, 3, 40)))}")
        for text in texts:
            assert parse_rational(text) == F(text), text

    def test_popcount(self):
        assert popcount(0b1011) == 3
