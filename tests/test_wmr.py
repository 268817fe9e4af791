"""Weighted-majority representation detection in every sign and tie variant."""

import random
from fractions import Fraction as F

import pytest

from robustvote import (
    Distribution,
    VotingRule,
    WmrQuery,
    certify_p_robust_full,
    classify_rule,
    detect_wmr,
    dictatorship_rule,
    enumerate_rules,
    majority_rule,
    parity_rule,
    responsiveness,
    weighted_majority_rule,
    weights_represent,
)
from robustvote import lp
from robustvote.certificates import in_sign_class
from robustvote.lp import solve_feasibility
from robustvote.respond import (
    SIGN_CLASS_FREE,
    SIGN_CLASS_NONNEGATIVE,
    SIGN_CLASS_POSITIVE,
)
from robustvote.robustness import MODE_WEAK
from robustvote.wmr import TIES_ALLOWED, TIES_FORBIDDEN

from oracles import wmr_exists_by_elimination

ALL_VARIANTS = [
    (sign_class, ties)
    for sign_class in (SIGN_CLASS_FREE, SIGN_CLASS_NONNEGATIVE, SIGN_CLASS_POSITIVE)
    for ties in (TIES_ALLOWED, TIES_FORBIDDEN)
]


@pytest.fixture
def solver_calls(monkeypatch):
    """The systems handed to the solver while the test runs."""
    calls = []

    def counted(system):
        calls.append(system)
        return solve_feasibility(system)

    monkeypatch.setattr(lp, "solve_feasibility", counted)
    return calls


class TestWeightsRepresent:
    def test_majority(self):
        rule = majority_rule(3)
        assert weights_represent(rule, [F(1), F(1), F(1)], TIES_FORBIDDEN)
        assert not weights_represent(rule, [F(1), F(0), F(0)], TIES_ALLOWED)

    def test_tie_profile_splits_the_modes(self):
        rule = majority_rule(2, tie=-1)
        assert weights_represent(rule, [F(1), F(1)], TIES_ALLOWED)
        assert not weights_represent(rule, [F(1), F(1)], TIES_FORBIDDEN)

    def test_all_zero_never_represents(self):
        assert not weights_represent(majority_rule(3), [F(0)] * 3, TIES_ALLOWED)

    def test_arity_and_mode_checked(self):
        with pytest.raises(ValueError):
            weights_represent(majority_rule(3), [F(1)], TIES_ALLOWED)
        with pytest.raises(ValueError):
            weights_represent(majority_rule(3), [F(1)] * 3, "sometimes")


class TestDetectWmr:
    def test_status_quo_majority(self):
        rule = majority_rule(2, tie=-1)
        found = detect_wmr(rule, WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_ALLOWED))
        assert found is not None and found.weights == (F(1), F(1))
        assert detect_wmr(rule, WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_FORBIDDEN)) is None

    def test_parity_has_no_representation(self):
        rule = parity_rule(2)
        for sign_class, ties in ALL_VARIANTS:
            assert detect_wmr(rule, WmrQuery(sign_class, ties)) is None

    def test_inverse_dictator_needs_free_signs(self):
        # Outcome is the opposite of individual 1's vote.
        rule = VotingRule(2, tuple(-v for v in dictatorship_rule(2, 1).outcomes))
        free = detect_wmr(rule, WmrQuery(SIGN_CLASS_FREE, TIES_FORBIDDEN))
        assert free is not None and free.weights[0] < 0
        assert detect_wmr(rule, WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_ALLOWED)) is None

    def test_returned_weights_are_integer_direction(self):
        found = detect_wmr(majority_rule(3), WmrQuery(SIGN_CLASS_POSITIVE, TIES_FORBIDDEN))
        assert found is not None
        assert all(w.denominator == 1 for w in found.weights)
        assert weights_represent(majority_rule(3), found.weights, TIES_FORBIDDEN)

    def test_nonnegative_queries_are_read_off_the_certificates(self, solver_calls):
        # The screen decides majority, so every query of classify is read
        # off its two certificates except positive weights with ties, which
        # is the one system classify solves.
        rule = majority_rule(5)
        weak = certify_p_robust_full(rule, MODE_WEAK).weighting
        query = WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_ALLOWED)
        found = detect_wmr(rule, query)
        assert solver_calls == []
        assert found.weights == tuple(weak.numerators) == (F(1),) * 5
        report = classify_rule(rule)
        assert len(solver_calls) == 1
        assert report["wmr"]["nonnegative_allowed"] == found.to_json()

    def test_classify_solves_once_where_the_weak_screen_fails(self, solver_calls):
        # Ties go to +1 at an even total, so the rule is weakly but not
        # strictly robust, and the weak screen cannot prove it.  The
        # positive weights of the one system classify solves prove it.
        rule = weighted_majority_rule(9, [3, 1, 4, 1, 5, 9, 2, 6, 5], tie=1)
        report = classify_rule(rule)
        assert [(len(s.rows), s.num_vars) for s in solver_calls] == [(10, 512)]
        assert report["weakly_robust"] and not report["robust"]
        assert report["wmr"]["positive_allowed"]["weights"] == [
            "3/1", "1/1", "4/1", "1/1", "5/1", "9/1", "2/1", "6/1", "5/1"]

    def test_query_validation(self):
        with pytest.raises(ValueError):
            WmrQuery("negative", TIES_ALLOWED)
        with pytest.raises(ValueError):
            WmrQuery(SIGN_CLASS_FREE, "maybe")


class TestExhaustiveAgreement:
    def test_all_rules_n3_match_elimination(self):
        for rule in enumerate_rules(3):
            for sign_class, ties in ALL_VARIANTS:
                found = detect_wmr(rule, WmrQuery(sign_class, ties))
                expected = wmr_exists_by_elimination(
                    rule,
                    {"nonnegative": "nonnegative", "positive": "positive", "free": "free"}[sign_class],
                    ties,
                )
                assert (found is not None) == expected, (
                    f"{rule.to_table_string()} {sign_class}/{ties}"
                )
                if found is not None:
                    assert weights_represent(rule, found.weights, ties)

    def test_tie_allowed_queries_at_n4_match_elimination(self):
        # Random tables, and WMRs whose weights may be negative or zero,
        # broken toward +1 at ties: the free query must find a signed w
        # through the oriented rule, the nonnegative one through the weak
        # certificate.
        rng = random.Random(4)
        rules = [VotingRule(4, tuple(rng.choice((-1, 1)) for _ in range(16)))
                 for _ in range(40)]
        rules += [weighted_majority_rule(4, [rng.randint(-2, 3) for _ in range(4)], tie=1)
                  for _ in range(40)]
        for rule in rules:
            for sign_class in (SIGN_CLASS_FREE, SIGN_CLASS_NONNEGATIVE, SIGN_CLASS_POSITIVE):
                found = detect_wmr(rule, WmrQuery(sign_class, TIES_ALLOWED))
                expected = wmr_exists_by_elimination(rule, sign_class, TIES_ALLOWED)
                assert (found is not None) == expected, (
                    f"{rule.to_table_string()} {sign_class}")
                if found is not None:
                    assert weights_represent(rule, found.weights, TIES_ALLOWED)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_signed_wmrs_match_elimination_on_every_query(self, n):
        # Weights in -3..3, so some votes count against the outcome and
        # some not at all, with ties broken either way; classify must give
        # the same six answers as the separate queries.
        rng = random.Random(n)
        for _ in range(6):
            weights = [rng.randint(-3, 3) for _ in range(n)]
            rule = weighted_majority_rule(n, weights, tie=rng.choice((-1, 1)))
            report = classify_rule(rule)
            for sign_class, ties in ALL_VARIANTS:
                found = detect_wmr(rule, WmrQuery(sign_class, ties))
                expected = wmr_exists_by_elimination(rule, sign_class, ties)
                assert (found is not None) == expected, (weights, sign_class, ties)
                assert (report["wmr"][f"{sign_class}_{ties}"] is not None) == expected
                if found is not None:
                    assert in_sign_class(found.weights, sign_class)
                    assert weights_represent(rule, found.weights, ties)

    def test_nonneg_strict_lifts_to_positive(self):
        # A no-ties representation with nonnegative weights can always be
        # nudged into strictly positive weights.
        for rule in enumerate_rules(3):
            nonneg = detect_wmr(rule, WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_FORBIDDEN))
            if nonneg is None:
                continue
            positive = detect_wmr(rule, WmrQuery(SIGN_CLASS_POSITIVE, TIES_FORBIDDEN))
            assert positive is not None, rule.to_table_string()

    def test_nonneg_ties_allowed_matches_mean_responsiveness(self):
        # A nonnegative ties-allowed representation exists exactly when the
        # recovered weights hold the weighted mean responsiveness at or
        # above one half on every point mass.
        half = F(1, 2)
        for rule in enumerate_rules(2):
            found = detect_wmr(rule, WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_ALLOWED))
            if found is None:
                continue
            total = sum(found.weights, F(0))
            for idx in range(4):
                vector = responsiveness(rule, Distribution.degenerate(2, idx))
                weighted = sum(
                    (w * r for w, r in zip(found.weights, vector.values)), F(0)
                )
                assert weighted / total >= half


class TestClassifyRule:
    def test_majority_summary(self):
        report = classify_rule(majority_rule(3))
        assert report["n"] == 3
        assert report["table"] == "---+-+++"
        assert report["anonymous"] is True
        assert report["dictator"] is None
        assert report["monotone"] is True
        assert report["robust"] is True
        assert report["weakly_robust"] is True
        assert report["wmr"]["nonnegative_forbidden"] is not None
        assert "monotone_violation" not in report

    def test_parity_summary(self):
        report = classify_rule(parity_rule(2))
        assert report["robust"] is False
        assert report["monotone"] is False
        assert set(report["wmr"]) == {
            f"{s}_{t}"
            for s in ("free", "nonnegative", "positive")
            for t in ("allowed", "forbidden")
        }
        assert all(entry is None for entry in report["wmr"].values())
        violation = report["monotone_violation"]
        assert set(violation) == {"individual", "others_votes"}

    def test_implication_ladder(self):
        for rule in enumerate_rules(2):
            report = classify_rule(rule)
            if report["robust"]:
                assert report["weakly_robust"]
            if report["weakly_robust"]:
                assert report["wmr"]["nonnegative_allowed"] is not None
