"""The combinatorial screen that answers robustness over the point masses
before any LP: it must agree with the LP on every rule it decides, and it
must decide the rules its certificates exist for without the LP."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import robustvote
from robustvote import (
    VotingRule,
    WmrQuery,
    certify_p_robust_full,
    constant_rule,
    detect_wmr,
    enumerate_rules,
    inverse_rule,
    is_own_vote_monotone,
    is_self_dual,
    majority_rule,
    weighted_majority_rule,
)
from robustvote import lp
from robustvote.core import (
    STRUCTURAL_PREDICATES,
    own_vote_violations,
    table_integer,
    table_rule,
)
from robustvote.robustness import (
    MODE_STRICT,
    MODE_WEAK,
    MODES,
    VERDICT_NOT_ROBUST,
    VERDICT_ROBUST,
    _certify_by_lp,
    degenerate_agreement_matrix,
)

from oracles import screened_profiles, spread_dense

TIE_FREE_NONNEGATIVE = WmrQuery("nonnegative", "forbidden")


def lp_verdict(rule, mode):
    """The verdict of the LP alone, with no screen in front of it."""
    return _certify_by_lp(rule, mode).verdict


@pytest.fixture(scope="module")
def monotone_n4():
    return list(enumerate_rules(4, lambda rule: is_own_vote_monotone(rule)[0]))


@pytest.fixture
def no_lp(monkeypatch):
    def refuse(matrix):
        raise RuntimeError("the LP was reached")

    monkeypatch.setattr(lp, "alternative_strict", refuse)
    monkeypatch.setattr(lp, "alternative_weak", refuse)


class TestAgreesWithTheLp:
    def test_every_n3_rule_in_both_modes(self):
        for rule in enumerate_rules(3):
            for mode in MODES:
                assert certify_p_robust_full(rule, mode).verdict == lp_verdict(rule, mode), (
                    rule.to_table_string(), mode)

    def test_every_monotone_n4_rule_in_both_modes(self, monotone_n4):
        assert len(monotone_n4) == 168
        for rule in monotone_n4:
            for mode in MODES:
                assert certify_p_robust_full(rule, mode).verdict == lp_verdict(rule, mode), (
                    rule.to_table_string(), mode)

    def test_tie_free_nonnegative_wmr_exactly_when_strictly_robust(self, monotone_n4):
        for rule in list(enumerate_rules(3)) + monotone_n4:
            found = detect_wmr(rule, TIE_FREE_NONNEGATIVE)
            assert (found is not None) == (lp_verdict(rule, MODE_STRICT) == VERDICT_ROBUST)

    @pytest.mark.parametrize(("n", "count", "seed"), [(4, 1500, 41), (5, 200, 51)])
    def test_sampled_non_monotone_tables_in_weak_mode(self, n, count, seed):
        rng, monotone = random.Random(seed), STRUCTURAL_PREDICATES["monotone"]
        tables = set()
        while len(tables) < count:
            t = rng.randrange(2 ** 2**n)
            if not monotone(n, t):
                tables.add(t)
        for t in sorted(tables):
            rule = table_rule(n, t)
            assert certify_p_robust_full(rule, MODE_WEAK).verdict == lp_verdict(rule, MODE_WEAK), (
                rule.to_table_string())


class TestDecidesWithoutTheLp:
    def test_rules_that_are_not_self_dual(self, no_lp):
        rules = [rule for rule in enumerate_rules(3) if not is_self_dual(rule)]
        assert len(rules) == 240
        for rule in rules:
            cert = certify_p_robust_full(rule, MODE_STRICT)
            assert cert.verdict == VERDICT_NOT_ROBUST
            # half mass on a profile and on its negation
            assert sorted(cert.mixture)[-2:] == [F(1, 2), F(1, 2)]

    def test_every_robust_n4_rule(self, no_lp, monotone_n4):
        robust = [rule for rule in monotone_n4 if is_self_dual(rule)]
        assert len(robust) == 12
        for rule in robust:
            for mode in MODES:
                assert certify_p_robust_full(rule, mode).verdict == VERDICT_ROBUST
            assert detect_wmr(rule, TIE_FREE_NONNEGATIVE) is not None

    def test_weak_query_with_a_violation_for_everyone(self, no_lp):
        rule = inverse_rule(majority_rule(3))
        assert {i for i, _ in own_vote_violations(rule)} == {1, 2, 3}
        cert = certify_p_robust_full(rule, MODE_WEAK)
        assert cert.verdict == VERDICT_NOT_ROBUST
        matrix = degenerate_agreement_matrix(rule)
        rows = [sum(a * m for a, m in zip(row, cert.mixture)) for row in matrix]
        assert rows == [F(-1, 3)] * 3

    @pytest.mark.parametrize("n", [4, 6])
    def test_weak_majority_with_ties_to_plus(self, no_lp, n):
        # Not self-dual, so the strict question is refuted by a twin, but
        # the Chow vector clears every column or ties it.
        rule = majority_rule(n, tie=1)
        assert certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_NOT_ROBUST
        cert = certify_p_robust_full(rule, MODE_WEAK)
        assert cert.verdict == VERDICT_ROBUST
        assert cert.weights == (F(1, n),) * n

    @pytest.mark.parametrize("table", ["-+-+----", "---+----"])
    def test_weak_refutation_by_one_profile_and_the_violation_pairs(self, no_lp, table):
        # Only individual 3 has a violation pair; at profile +++, in the
        # second table also the pair's upper profile, individuals 1 and 2
        # vote against the outcome.  Equal mass on the pair and that
        # profile, a repeat adding up, holds every row below zero.
        rule = VotingRule.from_table_string(3, table)
        assert {i for i, _ in own_vote_violations(rule)} == {3}
        cert = certify_p_robust_full(rule, MODE_WEAK)
        assert cert.verdict == VERDICT_NOT_ROBUST
        assert cert.mixture[7] > 0 and all(3 * m == int(3 * m) for m in cert.mixture)
        matrix = degenerate_agreement_matrix(rule)
        rows = [sum(a * m for a, m in zip(row, cert.mixture)) for row in matrix]
        assert all(row < 0 for row in rows)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_weak_refutation_by_a_single_point_mass(self, no_lp, n):
        # phi(all -) = +1 with no violation pair: everyone votes against the
        # outcome at profile 0.
        cert = certify_p_robust_full(constant_rule(n, 1), MODE_WEAK)
        assert cert.verdict == VERDICT_NOT_ROBUST
        assert cert.mixture == (1,) + (0,) * (2**n - 1)

    def test_corrected_chow_vector(self, no_lp):
        # The raw Chow vector of this rule fails some profile; corrections
        # by failing columns must still reach weights that clear them all.
        rule = weighted_majority_rule(4, [1, 1, 1, 2])
        matrix = degenerate_agreement_matrix(rule)
        chow = [sum(row) for row in matrix]
        assert any(
            sum(w * row[j] for w, row in zip(chow, matrix)) <= 0
            for j in range(len(matrix[0]))
        )
        cert = certify_p_robust_full(rule, MODE_STRICT)
        assert cert.verdict == VERDICT_ROBUST


@pytest.mark.parametrize("rule, mode", [
    # robust only in the weak sense, monotone but not self-dual: no profile
    # has everyone voting against the outcome, and n corrections of its Chow
    # vector still fail (the LP's weights are 1/2, 1/2, 0)
    (VotingRule.from_table_string(3, "---+-+-+"), MODE_WEAK),
    # a tie-free WMR whose Chow vector n corrections do not repair
    (weighted_majority_rule(5, [1, 2, 2, 2, 4]), MODE_STRICT),
])
def test_the_lp_decides_what_the_screen_cannot(monkeypatch, rule, mode):
    name = "alternative_strict" if mode == MODE_STRICT else "alternative_weak"
    original = getattr(lp, name)
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(lp, name, counting)
    assert certify_p_robust_full(rule, mode).verdict == VERDICT_ROBUST
    assert len(calls) == 1


def _screened_rules():
    yield from enumerate_rules(3)
    rng = random.Random("screened-mixtures")
    for n in (1, 2, 4, 5, 6):
        for _ in range(40 if n < 6 else 10):
            yield table_rule(n, rng.getrandbits(2**n))


def test_screened_mixtures_equal_the_dense_reference():
    # Wherever the truth table names a screen refutation, the certificate's
    # support is that equal-mass spread, and the dense tuple built from it
    # on demand equals the spread built over all 2^n profiles.
    listed = 0
    for rule in _screened_rules():
        t = table_integer(rule.outcomes)
        for mode in MODES:
            profiles = screened_profiles(rule.n, t, mode == MODE_STRICT)
            if profiles is None:
                continue
            listed += 1
            cert = certify_p_robust_full(rule, mode)
            assert cert.verdict == VERDICT_NOT_ROBUST
            assert cert.mixture == spread_dense(2**rule.n, profiles)
            assert [x for x, _ in cert.support] == sorted(set(profiles))
    assert listed > 500


class _CountingFraction:
    """Counts every Fraction constructed while it is installed."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = F.__new__

        def counting(cls, *args, **kwargs):
            self.count += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counting)


@pytest.mark.parametrize("mode", MODES)
def test_an_n16_refutation_is_dense_only_when_read(monkeypatch, mode):
    n, size = 16, 2**16
    rng = random.Random(f"n16-{mode}")
    rule = table_rule(n, rng.getrandbits(size))
    t = table_integer(rule.outcomes)
    profiles = screened_profiles(n, t, mode == MODE_STRICT)
    assert profiles is not None and len(profiles) <= 2 * n + 1
    fractions = _CountingFraction(monkeypatch)
    cert = certify_p_robust_full(rule, mode)
    # Screened and checked in integers: no Fraction, and the certificate
    # holds its support, not a 2^n-entry sequence.
    assert fractions.count == 0
    held = [getattr(cert, name) for name in cert._fields]
    assert cert.verdict == VERDICT_NOT_ROBUST
    assert all(len(value) < size for value in held if isinstance(value, tuple))
    dense = spread_dense(size, profiles)
    assert cert.mixture == dense and cert.mixture is not cert.mixture  # built on each read
    assert cert.to_json()["mixture"] == [f"{m.numerator}/{m.denominator}" for m in dense]


def test_an_n16_refutation_reads_the_outcomes_off_the_table():
    """The certificate check reads a deterministic rule's outcome at each
    profile of the refutation's support off its table, so no 2^n tuple is
    built for a refuted rule."""
    rng = random.Random("n16-table")
    for _ in range(3):
        rule = table_rule(16, rng.getrandbits(2**16))
        assert certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_NOT_ROBUST
        assert "outcomes" not in vars(rule)


def test_violations_come_in_individual_then_profile_order():
    rule = inverse_rule(majority_rule(3))
    pairs = list(own_vote_violations(rule))
    assert pairs == sorted(pairs)
    i, base = pairs[0]
    bit = 1 << (i - 1)
    assert not base & bit
    assert rule.outcomes[base] == 1 and rule.outcomes[base | bit] == -1
    assert list(own_vote_violations(majority_rule(3))) == []


# A tie-free WMR at n = 12 whose Chow vector n + 1 corrections repair in
# both modes (most weight vectors in 1..20 at n = 12 need the LP).
SCREENED_WEIGHTS = (7, 4, 15, 11, 8, 7, 16, 16, 6, 16, 10, 15)

# Certify and verify with both agreement-matrix builders refused, in every
# module that holds them: the screen, certify_anonymous, the certificate
# check and the replay of certify (point-mass and general sets), classify
# and random-certify certificates all price the extreme points without a
# matrix.  The reports whose certificates come from the LP are made first.
NO_MATRIX = f"""
import contextlib, io, json, sys, tempfile
from fractions import Fraction
from robustvote import cli, robustness
from robustvote.core import (Distribution, DistributionSet, RandomVotingRule, majority_rule,
                             table_rule, weighted_majority_rule)
from robustvote.verification import verify_report

def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv + ["--quiet"])
    return json.loads(out.getvalue())

def certify_report(rule, pset, mode, cert):
    return dict(schema="robustvote/1", command="certify", **cert.to_json(), inputs=dict(
        rule=rule.to_json(), pset=pset.to_json(), mode=mode))

reports = [report(["classify", "--rule=" + majority_rule(5).to_table_string()])]
general = DistributionSet(3, (Distribution.uniform(3), Distribution.degenerate(3, 5),
                              Distribution.from_weights(3, {{1: Fraction(2), 6: Fraction(1)}})))
for rule in (majority_rule(3), table_rule(3, 0b00010110)):
    for mode in robustness.MODES:
        reports.append(certify_report(rule, general, mode,
                                      robustness.certify_p_robust(rule, general, mode)))
with tempfile.TemporaryDirectory() as tmp:
    half = Fraction(1, 2)
    for k, outcomes in enumerate(((-1, -half, -half, 1, -half, 1, Fraction(1, 3), 1),
                                  (1, -half, -half, Fraction(1, 3)))):
        path = f"{{tmp}}/random-{{k}}.json"
        rule = RandomVotingRule(len(outcomes).bit_length() - 1, outcomes)
        with open(path, "w") as handle:
            json.dump(rule.to_json(), handle)
        reports.append(report(["random-certify", "--rule", path]))
print([r.get("verdict", r.get("robust")) for r in reports[1:]])

def refuse(*args):
    raise RuntimeError("an agreement matrix was built")

for module in list(sys.modules.values()):
    for name in ("agreement_matrix", "degenerate_agreement_matrix"):
        if module.__name__.startswith("robustvote") and hasattr(module, name):
            setattr(module, name, refuse)
for rule in (majority_rule(9), weighted_majority_rule(12, {SCREENED_WEIGHTS!r})):
    for mode in robustness.MODES:
        cert = robustness.certify_p_robust_full(rule, mode)
        print(cert.verdict, verify_report(certify_report(
            rule, DistributionSet.degenerates(rule.n), mode, cert)))
for rule, pset in ((majority_rule(5), DistributionSet.degenerates(5)),
                   (majority_rule(4, tie=1), DistributionSet.degenerates(4)),
                   (majority_rule(3), DistributionSet(3, (Distribution.uniform(3),))),
                   (table_rule(3, 0), DistributionSet(3, (Distribution.uniform(3),)))):
    for mode in robustness.MODES:
        cert = robustness.certify_anonymous(rule, pset, mode)
        print(cert.verdict, verify_report(certify_report(rule, pset, mode, cert)))
print([verify_report(r) for r in reports])
"""

@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_screened_answers_build_no_matrix(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(robustvote.__file__).parent.parent), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, *flags, "-c", NO_MATRIX], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    made, *screened, replayed = proc.stdout.splitlines()
    # Each verdict of the general set, and both random-certify verdicts.
    assert made == str(["robust", "robust", "not_robust", "not_robust", True, False])
    # Four screened answers, then certify_anonymous strict and weak on each set.
    assert screened == ["robust []"] * 4 + ["robust []"] * 2 + [
        "not_robust []", "robust []"] + ["robust []"] * 2 + ["not_robust []", "robust []"]
    assert replayed == str([[]] * 7)
