"""Every vote is read off the table masks of core.table_masks.

Individual i's votes are one table integer, table_masks(n).plus[i-1], and
every reader (core.vote_leans, robustness.degenerate_agreement_matrix, the
agreement-mass check of respond.responsiveness and the utility table of
gamma_mechanism) reads them from there or from the profile strings.  Each
is checked here against a dense reference sign table built bit by bit, and
the report bytes of the commands that read votes are pinned by digests
taken from the code that still read a cached ±1 table.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import robustvote
from robustvote import cli
from robustvote.core import (
    Distribution,
    RandomVotingRule,
    table_rule,
    vote_in_profile,
    vote_leans,
)
from robustvote.gamma_mechanism import gamma_payoffs, gamma_utilities
from robustvote.respond import responsiveness
from robustvote.robustness import degenerate_agreement_matrix

from oracles import dense_sign_table

# sha256 of the report bytes below, taken while the votes were read off a
# cached ±1 table.
RULE_REPORTS_DIGEST = "3d4b121134cb768d0b551364699c2bfdbb07fda884fa5deec8d9003589f104aa"
EPSILON_DIGEST = "226cb41bdfcbcb9c3cd5610b8040000b45ef00fcd5ec65bbbb72bddcdb418165"
RANDOM_REPORTS_DIGEST = "5195c2291b56e744f19a9ea86a66259b91fc0fcf0206863b9c9f69150727e2f5"

SMALL_RULES = [table_rule(n, t) for n in (1, 2, 3) for t in range(2 ** 2**n)]


def seeded_rules():
    """Per n = 4..8, two uniform random tables and two random rules whose
    outcomes are quarters in [-1, 1]."""
    rng = random.Random("vote-masks")
    rules = []
    for n in range(4, 9):
        for _ in range(2):
            rules.append(table_rule(n, rng.getrandbits(2**n)))
            rules.append(RandomVotingRule(n, tuple(F(rng.randint(-4, 4), 4)
                                                   for _ in range(2**n))))
    return rules


def seeded_distributions(n: int):
    """The uniform distribution and a seeded one on four atoms (fewer for
    n = 1), with unequal masses."""
    rng = random.Random(f"vote-masks-{n}")
    atoms = rng.sample(range(2**n), min(4, 2**n))
    return [Distribution.uniform(n),
            Distribution.from_weights(n, {k: F(rng.randint(1, 9)) for k in atoms})]


def _report(argv) -> str:
    """The report bytes of one in-process CLI run, its elapsed_ms cut out."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--quiet"])
    return f"{code}\n" + re.sub(r',\n  "elapsed_ms": \d+', "", out.getvalue())


@contextlib.contextmanager
def _one_parser():
    build, parser = cli._build_parser, cli._build_parser()
    cli._build_parser = lambda: parser  # building it is most of a tiny run
    try:
        yield
    finally:
        cli._build_parser = build


def _digest(reports) -> str:
    return hashlib.sha256("".join(reports).encode()).hexdigest()


def rule_reports_digest(directory) -> str:
    """respond (uniform and a seeded four-atom distribution), gamma-witness,
    classify, certify (both modes) and efficiency (three modes, uniform) of
    every n <= 3 rule."""
    atoms = {}
    for n in (1, 2, 3):
        atoms[n] = directory / f"dist-{n}.json"
        atoms[n].write_text(json.dumps(seeded_distributions(n)[1].to_json()))
    reports = []
    with _one_parser():
        for rule in SMALL_RULES:
            table = f"--rule={rule.to_table_string()}"
            reports.append(_report(["respond", table, "--dist=uniform"]))
            reports.append(_report(["respond", table, f"--dist={atoms[rule.n]}"]))
            reports.append(_report(["gamma-witness", table]))
            reports.append(_report(["classify", table]))
            reports.append(_report(["certify", table, "--pset=degenerates"]))
            reports.append(_report(["certify", table, "--pset=degenerates", "--weak"]))
            for mode in ("strict", "plain", "weak"):
                reports.append(_report(["efficiency", table, "--dist=uniform",
                                        f"--mode={mode}"]))
    return _digest(reports)


def epsilon_digest() -> str:
    with _one_parser():
        return _digest(_report(["epsilon", f"--n={n}"]) for n in (1, 2, 3, 4))


def random_reports_digest(directory) -> str:
    """random-certify of seeded random rules at n = 1..4, random-dominate at
    n = 1..2, and respond of each under a seeded four-atom distribution."""
    rng = random.Random("vote-masks-random")
    reports = []
    with _one_parser():
        for n in (1, 2, 3, 4):
            for k in range(3):
                rule = RandomVotingRule(n, tuple(F(rng.randint(-3, 3), 3) for _ in range(2**n)))
                path = directory / f"random-{n}-{k}.json"
                path.write_text(json.dumps(rule.to_json()))
                dist = directory / f"dist-{n}-{k}.json"
                dist.write_text(json.dumps(seeded_distributions(n)[1].to_json()))
                reports.append(_report(["random-certify", f"--rule={path}"]))
                if n <= 2:
                    reports.append(_report(["random-dominate", f"--rule={path}"]))
                reports.append(_report(["respond", f"--rule={path}", f"--dist={dist}"]))
    return _digest(reports)


def test_rule_reports_are_unchanged(tmp_path):
    assert rule_reports_digest(tmp_path) == RULE_REPORTS_DIGEST


def test_epsilon_reports_are_unchanged():
    assert epsilon_digest() == EPSILON_DIGEST


def test_random_rule_reports_are_unchanged(tmp_path):
    assert random_reports_digest(tmp_path) == RANDOM_REPORTS_DIGEST


@pytest.mark.parametrize("n", range(1, 9))
def test_reference_sign_table_is_vote_in_profile(n):
    table = dense_sign_table(n)
    assert len(table) == n
    for i, row in enumerate(table, start=1):
        assert row == [vote_in_profile(idx, i) for idx in range(2**n)]


def _all_rules():
    """Every n <= 3 rule, deterministic and as a random rule, and the
    seeded n = 4..8 rules."""
    return (SMALL_RULES + [RandomVotingRule.from_deterministic(rule) for rule in SMALL_RULES]
            + seeded_rules())


def _expected_rows(rule):
    return [[o * v for o, v in zip(rule.outcomes, votes)] for votes in dense_sign_table(rule.n)]


def test_agreement_rows_match_the_reference_table():
    for rule in _all_rules():
        matrix = degenerate_agreement_matrix(rule)
        assert matrix == _expected_rows(rule)
        kind = F if isinstance(rule, RandomVotingRule) else int
        assert all(type(row) is list for row in matrix)
        assert all(type(a) is kind for row in matrix for a in row)


def test_leans_and_responsiveness_match_the_reference_table():
    for rule in _all_rules():
        for dist in seeded_distributions(rule.n):
            support = [k for k, _ in dist.masses]
            masses = [m * rule.outcomes[k] for k, m in dist.masses]  # p(x) phi(x) over the scale
            table = dense_sign_table(rule.n)
            expected = [sum((m * votes[k] for k, m in zip(support, masses)), 0) for votes in table]
            assert vote_leans(rule.n, support, masses) == expected
            values = responsiveness(rule, dist).values
            assert all(type(v) is F for v in values)
            assert values == tuple(
                (sum((p * rule.outcomes[k] * votes[k] for k, p in dist.support), F(0)) + 1) / 2
                for votes in table)


def test_gamma_tables_match_the_reference_table():
    for rule in SMALL_RULES + [r for r in seeded_rules() if not isinstance(r, RandomVotingRule)]:
        small = 2**rule.n - 1
        payoffs, scale = gamma_payoffs(rule)
        utilities = gamma_utilities(rule)
        assert scale == small
        by_state = list(zip(*dense_sign_table(rule.n)))
        for outcome, votes, paid, rational in zip(rule.outcomes, by_state, payoffs, utilities):
            # The favoured decision (the vote) pays 1 when the rule agrees
            # with it and 2^n - 1 when it does not.
            paying = [1 if vote == outcome else small for vote in votes]
            expected = tuple((pay, 0) if vote == 1 else (0, pay)
                             for vote, pay in zip(votes, paying))
            assert paid == expected
            assert all(type(a) is int for pair in paid for a in pair)
            assert rational == tuple((F(hi, small), F(lo, small)) for hi, lo in expected)
            assert all(type(a) is F for pair in rational for a in pair)


WRONG_LEAN = """
from robustvote import respond
from robustvote.certificates import InternalError
from robustvote.core import Distribution, table_rule, vote_leans

def off_by_two(n, support, masses):
    return [lean + 2 * (i == n - 1) for i, lean in enumerate(vote_leans(n, support, masses))]

respond.vote_leans = off_by_two
for n, t in ((1, 0b10), (3, 0b10010110), (6, 0xFFFF0000FFFF0000)):
    try:
        respond.responsiveness(table_rule(n, t), Distribution.uniform(n))
    except InternalError as exc:
        print(exc)
"""


def test_a_wrong_lean_is_an_internal_error_under_optimize():
    # The agreement-mass check is computed apart from vote_leans, so a wrong
    # lean cannot pass it, and it raises InternalError, not an assert.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(robustvote.__file__).parent.parent), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, "-O", "-c", WRONG_LEAN], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["agreement mass and expectation identity disagree"] * 3
