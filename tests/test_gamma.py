"""The heterogeneity thresholds and the never-pays utility construction."""

from fractions import Fraction as F

import pytest

from robustvote import (
    Distribution,
    dictatorship_rule,
    enumerate_rules,
    epsilon_lower_witness,
    epsilon_upper,
    gamma_counterexample,
    gamma_utilities,
    is_dictatorship,
    is_strategy_proof,
    majority_rule,
    responsiveness,
)
from robustvote.gamma_mechanism import ExtendedRational, gain_ratio
from robustvote.robustness import MODE_STRICT, VERDICT_ROBUST, certify_p_robust_full

from oracles import game_value_by_supports


class TestExtendedRational:
    def test_ordering(self):
        inf = ExtendedRational.infinity()
        one = ExtendedRational.finite(F(1))
        two = ExtendedRational.finite(F(2))
        assert one < two < inf
        assert inf <= inf and not inf < inf
        assert two > one and inf >= two

    def test_comparison_with_plain_fractions(self):
        assert ExtendedRational.finite(F(1, 2)) < F(2, 3)
        assert ExtendedRational.infinity() > F(10**9)

    def test_format(self):
        assert ExtendedRational.infinity().format() == "inf"
        assert ExtendedRational.finite(F(1, 2)).format() == "1/2"


class TestGainRatio:
    def test_values(self):
        assert gain_ratio(F(2, 3)) == ExtendedRational.finite(F(1))
        assert gain_ratio(F(3, 5)) == ExtendedRational.finite(F(1, 2))
        assert gain_ratio(F(1)).is_infinite

    def test_monotone_in_the_game_value(self):
        values = [F(1, 2), F(3, 5), F(2, 3), F(3, 4), F(1)]
        ratios = [gain_ratio(v) for v in values]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_domain(self):
        # Anything in [0, 1] is accepted, even below one half.
        assert gain_ratio(F(1, 4)) == ExtendedRational.finite(F(-2, 3))
        with pytest.raises(ValueError):
            gain_ratio(F(-1, 4))
        with pytest.raises(ValueError):
            gain_ratio(F(3, 2))


class TestStrategyProof:
    def test_majority(self):
        assert is_strategy_proof(majority_rule(3))

    def test_robust_rules_are_strategy_proof(self):
        for n in (2, 3):
            for rule in enumerate_rules(n):
                if certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST:
                    assert is_strategy_proof(rule), rule.to_table_string()


class TestEpsilonThresholds:
    def test_lower_frozen_values(self):
        assert epsilon_lower_witness(1)[0].is_infinite
        assert epsilon_lower_witness(2)[0].is_infinite
        assert epsilon_lower_witness(3)[0] == ExtendedRational.finite(F(1))
        assert epsilon_lower_witness(4)[0] == ExtendedRational.finite(F(1, 2))

    def test_upper_closed_form(self):
        for n in range(1, 7):
            assert epsilon_upper(n) == 2**n - 2

    def test_binding_rule_n3(self):
        level, rule, game = epsilon_lower_witness(3)
        assert rule.to_table_string() == "---+-+++"
        assert game.value == F(2, 3)
        assert level == gain_ratio(game.value)

    def test_binding_game_checks_out_against_supports(self):
        _, rule, game = epsilon_lower_witness(3)
        matrix = [
            [
                (F(rule.outcomes[idx] * (1 if idx >> i & 1 else -1)) + 1) / 2
                for idx in range(8)
            ]
            for i in range(3)
        ]
        assert game.value == game_value_by_supports(matrix)

    def test_dictators_never_bind(self):
        # Dictators have game value 1 and infinite ratio; with only
        # dictators robust the threshold is infinite.
        level, rule, game = epsilon_lower_witness(2)
        assert level.is_infinite
        assert game.value == 1
        assert is_dictatorship(rule) is not None

    def test_cap(self):
        with pytest.raises(ValueError):
            epsilon_lower_witness(5)


class TestGammaUtilities:
    def test_four_cases(self):
        rule = majority_rule(3)
        table = gamma_utilities(rule)
        small = F(1, 7)
        # All-plus profile: outcome +1, every vote +1, so everyone gets the
        # small amount on the +1 decision.
        assert table[0b111] == ((small, F(0)),) * 3
        # At ++- the outcome is +1: the winners hold small stakes on +1,
        # the loser a full unit on -1.
        assert table[0b011][0] == (small, F(0))
        assert table[0b011][2] == (F(0), F(1))

    def test_witness_net_gains(self):
        witness = gamma_counterexample(majority_rule(3))
        assert witness.mixture == tuple(F(1, 8) for _ in range(8))
        assert witness.net_gains == (F(-1, 7), F(-1, 7), F(-1, 7))

    def test_net_gains_match_responsiveness_form(self):
        rule = majority_rule(3)
        witness = gamma_counterexample(rule)
        vector = responsiveness(rule, Distribution.uniform(3))
        small = F(1, 7)
        for r, gain in zip(vector.values, witness.net_gains):
            assert gain == r * small - (1 - r)

    def test_near_dictator_is_tight(self):
        # The rule that copies individual 1 except at one profile gives
        # that individual responsiveness 7/8 and net gain exactly 0.
        table = list(dictatorship_rule(3, 1).outcomes)
        table[0b000] = 1
        from robustvote import VotingRule

        rule = VotingRule(3, tuple(table))
        witness = gamma_counterexample(rule)
        assert witness.net_gains[0] == 0

    def test_all_dictatorless_rules_never_pay(self):
        for rule in enumerate_rules(2):
            if is_dictatorship(rule) is not None:
                continue
            witness = gamma_counterexample(rule)
            assert all(g <= 0 for g in witness.net_gains)

    def test_dictator_rejected(self):
        with pytest.raises(ValueError):
            gamma_counterexample(dictatorship_rule(3, 2))

    def test_json_shape(self):
        witness = gamma_counterexample(majority_rule(3))
        data = witness.to_json()
        assert data["n"] == 3
        assert len(data["utilities"]) == 8 and len(data["utilities"][0]) == 3
        assert data["mixture"] == ["1/8"] * 8
        assert data["net_gains"] == ["-1/7"] * 3
