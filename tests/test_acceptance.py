"""Acceptance suite: one test per criterion, one printed line per verdict.

Every check is exact; there are no tolerances anywhere. Runtime bounds are
asserted where the criterion carries one.
"""

import functools
import json
import os
import random
import tempfile
import time
from fractions import Fraction as F

from robustvote import (
    Distribution,
    DistributionSet,
    RandomVotingRule,
    VotingRule,
    WmrQuery,
    anonymous_even_impossibility,
    certify_p_robust,
    certify_random,
    count_distribution,
    detect_wmr,
    enumerate_rules,
    epsilon_lower_witness,
    epsilon_upper,
    gamma_counterexample,
    is_anonymous,
    is_dictatorship,
    is_strategy_proof,
    is_strictly_efficient,
    majority_rule,
    pareto_compare,
    responsiveness,
    rtf_max_weighted,
    supermajority_rule,
    unanimity_rule,
)
from robustvote.respond import SIGN_CLASS_NONNEGATIVE
from robustvote.robustness import (
    MODE_STRICT,
    MODE_WEAK,
    VERDICT_NOT_ROBUST,
    VERDICT_ROBUST,
    certify_p_robust_full,
)
from robustvote.wmr import TIES_ALLOWED, TIES_FORBIDDEN
from robustvote.verification import verify_report

from conftest import random_distribution
from oracles import game_value_by_supports
from test_verification import run_cli

HALF = F(1, 2)


def criterion(number, title):
    """Print exactly one pass/fail line for the wrapped criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL - {title}")
                raise
            print(f"criterion {number}: PASS - {title}")

        return run

    return wrap


def anonymous_smrs(n):
    """Every anonymous simple majority rule on n individuals."""
    if n % 2 == 1:
        return {majority_rule(n)}
    return {majority_rule(n, tie=-1), majority_rule(n, tie=1)}


@criterion(1, "robustness equals nonnegative WMR detection on every n=3 rule")
def test_criterion_1_robustness_matches_wmr_detection():
    started = time.monotonic()
    robust_count = 0
    for rule in enumerate_rules(3):
        strict = certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST
        weak = certify_p_robust_full(rule, MODE_WEAK).verdict == VERDICT_ROBUST
        no_ties = detect_wmr(rule, WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_FORBIDDEN))
        with_ties = detect_wmr(rule, WmrQuery(SIGN_CLASS_NONNEGATIVE, TIES_ALLOWED))
        assert strict == (no_ties is not None), rule.to_table_string()
        assert weak == (with_ties is not None), rule.to_table_string()
        robust_count += strict
    assert robust_count == 4
    assert time.monotonic() - started < 5.0


@criterion(2, "among anonymous rules, robustness singles out the majority rules")
def test_criterion_2_anonymous_robust_rules_are_majorities():
    started = time.monotonic()

    robust_anon_3 = {
        rule
        for rule in enumerate_rules(3, is_anonymous)
        if certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST
    }
    assert robust_anon_3 == {majority_rule(3)}

    anon_4 = list(enumerate_rules(4, is_anonymous))
    assert len(anon_4) == 32
    assert all(certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_NOT_ROBUST for rule in anon_4)

    for n in (2, 3, 4):
        weakly_robust_anon = {
            rule
            for rule in enumerate_rules(n, is_anonymous)
            if certify_p_robust_full(rule, MODE_WEAK).verdict == VERDICT_ROBUST
        }
        assert weakly_robust_anon == anonymous_smrs(n), f"n={n}"

    assert time.monotonic() - started < 5.0


@criterion(3, "strict efficiency coincides with robustness under positive distributions")
def test_criterion_3_strict_efficiency_equals_robustness():
    started = time.monotonic()
    rng = random.Random(1203)
    distributions = [Distribution.uniform(3)]
    distributions += [
        random_distribution(rng, 3, strictly_positive=True) for _ in range(5)
    ]
    assert all(dist.is_strictly_positive() for dist in distributions)
    for rule in enumerate_rules(3):
        robust = certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST
        for dist in distributions:
            efficient, _ = is_strictly_efficient(rule, dist)
            assert efficient == robust, (rule.to_table_string(), dist.to_json())
    assert time.monotonic() - started < 60.0


@criterion(4, "majority beats the two-thirds rule by exactly 1/36 per individual")
def test_criterion_4_skewed_counts_favor_the_majority():
    started = time.monotonic()
    counts = [F(0)] * 5 + [F(1, 4), F(0), F(0), F(0), F(3, 4)]
    dist = count_distribution(9, counts)
    smr = supermajority_rule(9, 5)
    two_thirds = supermajority_rule(9, 6)
    verdict = pareto_compare(smr, two_thirds, dist)
    assert verdict.relation == "strictly_preferred"
    assert verdict.direction == "first_over_second"
    assert verdict.deltas == tuple(F(1, 36) for _ in range(9))
    assert sum(verdict.deltas, F(0)) == F(1, 4)
    assert time.monotonic() - started < 1.0


@criterion(5, "unanimity survives each dissenter point mass but not their blend")
def test_criterion_5_unanimity_fails_over_the_hull():
    rule = unanimity_rule(3)
    points = tuple(Distribution.degenerate(3, 0b111 ^ (1 << i)) for i in range(3))
    for i, point in enumerate(points):
        vector = responsiveness(rule, point)
        assert vector.for_individual(i + 1) == 1
        assert max(vector.values) > HALF

    pset = DistributionSet(3, points)
    cert = certify_p_robust(rule, pset)
    assert cert.verdict == VERDICT_NOT_ROBUST

    uniform_blend = pset.mixture([F(1, 3)] * 3)
    vector = responsiveness(rule, uniform_blend)
    assert vector.values == (F(1, 3), F(1, 3), F(1, 3))

    blended = responsiveness(rule, pset.mixture(cert.mixture))
    assert all(v <= HALF for v in blended.values)

    # The emitted mixture certificate re-checks cleanly end to end.
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "pset.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pset.to_json(), handle)
        code, report = run_cli(["certify", "--rule=-------+", "--pset", path])
    assert code == 1
    assert report["verdict"] == "not_robust"
    assert verify_report(report) == []


@criterion(6, "the best weighted responsiveness equals the expected absolute vote sum")
def test_criterion_6_rtf_identity_fuzz():
    rng = random.Random(606)
    for trial in range(100):
        n = rng.randint(1, 4)
        weights = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        if all(w == 0 for w in weights):
            weights[-1] = F(1)
        dist = random_distribution(rng, n)
        value, argmax = rtf_max_weighted(weights, dist)

        signed_sums = []
        for idx in range(2**n):
            total = sum(
                (w if idx >> i & 1 else -w for i, w in enumerate(weights)), F(0)
            )
            signed_sums.append(total)
        abs_expectation = sum(
            (dist.probs[idx] * abs(s) for idx, s in enumerate(signed_sums)), F(0)
        )
        assert value == (abs_expectation + sum(weights, F(0))) / 2, f"trial {trial}"

        attained = sum(
            (w * r for w, r in zip(weights, responsiveness(argmax, dist).values)),
            F(0),
        )
        assert attained == value, f"trial {trial}"
        # The argmax signs every weighted sum; each profile is pointwise optimal.
        for idx, total in enumerate(signed_sums):
            assert argmax.outcomes[idx] * total >= 0, f"trial {trial}"
        if n <= 3:
            best = max(
                sum(
                    (
                        w * r
                        for w, r in zip(weights, responsiveness(other, dist).values)
                    ),
                    F(0),
                )
                for other in enumerate_rules(n)
            )
            assert best == value, f"trial {trial}"


@criterion(7, "the damped majority is robust yet beatable, and even splits defeat anonymity")
def test_criterion_7_randomized_majority_and_even_splits():
    damped = RandomVotingRule(
        3, tuple(F(1, 2) * v for v in majority_rule(3).outcomes)
    )
    weights, counterexample = certify_random(damped)
    assert counterexample is None and weights is not None
    for idx in range(8):
        total = sum(
            (weights.weights[i] if idx >> i & 1 else -weights.weights[i] for i in range(3)),
            F(0),
        )
        assert damped.outcomes[idx] * total > 0

    all_plus = Distribution.degenerate(3, 0b111)
    verdict = pareto_compare(majority_rule(3), damped, all_plus)
    assert verdict.relation == "strictly_preferred"
    assert verdict.direction == "first_over_second"
    assert verdict.deltas == (F(1, 4), F(1, 4), F(1, 4))

    for n in (2, 4):
        split = anonymous_even_impossibility(n)
        for rule in enumerate_rules(n, is_anonymous):
            vector = responsiveness(rule, split)
            assert all(v == HALF for v in vector.values), (n, rule.to_table_string())


@criterion(8, "robust rules are strategy proof and the heterogeneity thresholds check out")
def test_criterion_8_thresholds_and_strategy_proofness():
    for n in (2, 3):
        for rule in enumerate_rules(n):
            if certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST:
                assert is_strategy_proof(rule), rule.to_table_string()

    for n in range(1, 7):
        assert epsilon_upper(n) == 2**n - 2

    # Independent derivation of the n=3 lower threshold: support-enumeration
    # game values over the robust rules, then the worst gain ratio.
    ratios = []
    for rule in enumerate_rules(3):
        if certify_p_robust_full(rule, MODE_STRICT).verdict != VERDICT_ROBUST:
            continue
        matrix = [
            [
                (F(rule.outcomes[idx] * (1 if idx >> i & 1 else -1)) + 1) / 2
                for idx in range(8)
            ]
            for i in range(3)
        ]
        value = game_value_by_supports(matrix)
        assert value > HALF
        ratios.append(None if value == 1 else (2 * value - 1) / (1 - value))
    finite = [r for r in ratios if r is not None]
    assert finite and min(finite) == 1
    assert epsilon_lower_witness(3)[0].value == F(1)

    checked = 0
    for rule in enumerate_rules(3):
        if is_dictatorship(rule) is not None:
            continue
        witness = gamma_counterexample(rule)
        assert all(g <= 0 for g in witness.net_gains), rule.to_table_string()
        checked += 1
    assert checked == 253


@criterion(9, "a thousand fresh certificates verify and every tampered one fails")
def test_criterion_9_certificate_integrity_fuzz():
    rng = random.Random(909)
    mutators = ("flip_verdict", "double_entry", "zero_out", "shift_sum")
    for trial in range(1000):
        n = rng.randint(1, 3)
        table = "".join(rng.choice("+-") for _ in range(2**n))
        argv = ["certify", f"--rule={table}", "--pset", "degenerates"]
        if rng.random() < 0.5:
            argv.append("--weak")
        code, report = run_cli(argv)
        assert code in (0, 1), f"trial {trial}"
        assert verify_report(report) == [], f"trial {trial}"

        tampered = json.loads(json.dumps(report))
        kind = "weights" if tampered["verdict"] == "robust" else "mixture"
        vector = tampered[kind]
        mutation = mutators[trial % len(mutators)]
        if mutation == "flip_verdict":
            tampered["verdict"] = (
                "not_robust" if tampered["verdict"] == "robust" else "robust"
            )
        elif mutation == "double_entry":
            hot = next(k for k, v in enumerate(vector) if F(v) != 0)
            vector[hot] = str(2 * F(vector[hot]))
        elif mutation == "zero_out":
            tampered[kind] = ["0/1"] * len(vector)
        else:
            vector[0] = str(F(vector[0]) + F(1, 9973))
        assert verify_report(tampered) != [], f"trial {trial}: {mutation}"
