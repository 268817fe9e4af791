"""The one exhaustive walk over table integers and its callers: verify's
recount, `enumerate`, the robust pre-filter and the heterogeneity
threshold search."""

import itertools
import json

import pytest

from robustvote import VotingRule, cli, core, epsilon_lower_witness
from robustvote.core import STRUCTURAL_PREDICATES, enumerate_tables, table_rule
from robustvote.robustness import (
    MODE_STRICT,
    MODE_WEAK,
    VERDICT_ROBUST,
    certify_p_robust_full,
)
from robustvote.verification import verify_report


def reference_table(n, t):
    return "".join("+" if t >> k & 1 else "-" for k in range(2**n))


def reference_integer(table):
    return sum(1 << k for k, c in enumerate(table) if c == "+")


def reference_votes(n):
    return [tuple(1 if x >> i & 1 else -1 for i in range(n)) for x in range(2**n)]


def reference_tests(n):
    """Each recountable predicate on a tuple of outcomes, from the votes."""
    votes = reference_votes(n)
    index = {v: x for x, v in enumerate(votes)}
    ups = [(x, index[v[:i] + (1,) + v[i + 1:]])
           for x, v in enumerate(votes) for i in range(n) if v[i] == -1]
    classes = len({sum(v) for v in votes})
    negation = [index[tuple(-a for a in v)] for v in votes]
    return {
        "all": lambda out: True,
        "anonymous": lambda out: len({(sum(v), o) for v, o in zip(votes, out)}) == classes,
        "monotone": lambda out: all(out[x] <= out[y] for x, y in ups),
        "self_dual": lambda out: all(out[x] == -out[y] for x, y in enumerate(negation)),
        "dictatorship": lambda out: any(
            all(o == v[i] for v, o in zip(votes, out)) for i in range(n)),
    }


@pytest.fixture(scope="module")
def reference_walks():
    """For n <= 4 and every recountable predicate, the tables it admits."""
    walks = {}
    for n in range(1, 5):
        tables = [reference_table(n, t) for t in range(2 ** 2**n)]
        outcomes = [tuple(1 if c == "+" else -1 for c in table) for table in tables]
        for name, holds in reference_tests(n).items():
            walks[n, name] = [table for table, out in zip(tables, outcomes) if holds(out)]
    return walks


def run_cli(capsys, argv):
    code = cli.main(argv + ["--quiet"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("predicate", sorted(STRUCTURAL_PREDICATES))
def test_walks_give_the_reference_list(reference_walks, capsys, n, predicate):
    expected = reference_walks[n, predicate]
    recount = [table_rule(n, t).to_table_string()
               for t in enumerate_tables(n, STRUCTURAL_PREDICATES[predicate])]
    assert recount == expected

    argv = ["enumerate", f"--n={n}", f"--predicate={predicate}"]
    code, report = run_cli(capsys, argv)
    assert code == 0 and report["tables"] == expected and report["count"] == len(expected)
    assert verify_report(report) == []


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(("predicate", "mode"), [("robust", MODE_STRICT),
                                                 ("weakly_robust", MODE_WEAK)])
def test_robust_predicates_equal_certifying_everything(capsys, n, predicate, mode):
    expected = [
        rule.to_table_string()
        for rule in (table_rule(n, t) for t in range(2 ** 2**n))
        if certify_p_robust_full(rule, mode).verdict == VERDICT_ROBUST
    ]
    code, report = run_cli(capsys, ["enumerate", f"--n={n}", f"--predicate={predicate}"])
    assert code == 0 and report["tables"] == expected


def test_robust_n4_is_the_twelve_tie_free_wmrs(capsys):
    votes = reference_votes(4)
    oracle = {
        "".join("+" if sum(w * v for w, v in zip(weights, x)) > 0 else "-" for x in votes)
        for weights in itertools.product(range(8), repeat=4) if sum(weights) % 2
    }
    assert len(oracle) == 12
    code, report = run_cli(capsys, ["enumerate", "--n=4", "--predicate=robust"])
    assert code == 0 and report["tables"] == sorted(oracle, key=reference_integer)


def test_weakly_robust_n4_is_every_nonnegative_wmr_with_ties_either_way(capsys):
    # Weakly robust means some nonnegative weights, not all zero, agree
    # with the outcome or tie at every profile: a weighted majority whose
    # tied profiles may go either way.  Weights in 0..3 give every such
    # table at n=4.
    votes = reference_votes(4)
    oracle = set()
    for weights in itertools.product(range(4), repeat=4):
        if not any(weights):
            continue
        sums = [sum(w * v for w, v in zip(weights, x)) for x in votes]
        ties = [k for k, total in enumerate(sums) if total == 0]
        fixed = "".join("+" if total > 0 else "-" for total in sums)
        for fill in itertools.product("-+", repeat=len(ties)):
            table = list(fixed)
            for k, outcome in zip(ties, fill):
                table[k] = outcome
            oracle.add("".join(table))
    assert len(oracle) == 1372
    code, report = run_cli(capsys, ["enumerate", "--n=4", "--predicate=weakly_robust"])
    assert code == 0 and report["tables"] == sorted(oracle, key=reference_integer)


@pytest.mark.parametrize(("n", "level", "table", "value"), [
    (1, "inf", "-+", "1/1"),
    (2, "inf", "-+-+", "1/1"),
    (3, "1/1", "---+-+++", "2/3"),
    (4, "1/2", "---+-+-+-+-+-+++", "3/5"),
])
def test_epsilon_witness_is_unchanged(n, level, table, value):
    found, rule, game = epsilon_lower_witness(n)
    assert found.format() == level
    assert rule.to_table_string() == table
    assert core.format_rational(game.value) == value


# ---------------------------------------------------------------------------
# The recount stays on integers, and still rejects what it rejected


@pytest.fixture(scope="module")
def monotone_report(reference_walks):
    tables = reference_walks[4, "monotone"]
    assert len(tables) == 168
    return {"schema": "robustvote/1", "command": "enumerate",
            "inputs": {"n": 4, "predicate": "monotone"},
            "count": len(tables), "tables": tables}


def test_recount_builds_no_rule_beyond_the_listed_tables(monkeypatch, monotone_report):
    # Every VotingRule constructor stores its (n, table) through _set.
    built = []
    original = VotingRule._set

    def counting(self, n, table):
        built.append(table)
        return original(self, n, table)

    monkeypatch.setattr(VotingRule, "_set", counting)
    assert verify_report(monotone_report) == []
    assert 0 < len(built) <= monotone_report["count"]
    built.clear()
    count_only = {k: v for k, v in monotone_report.items() if k != "tables"}
    assert verify_report(count_only) == []
    assert built == []


def test_recount_rejections_keep_their_problem_strings(monotone_report):
    tables = monotone_report["tables"]
    non_monotone = "+" + "-" * 15

    def problems(**changes):
        return verify_report(dict(monotone_report, **changes))

    assert problems(tables=tables[:5] + tables[6:]) == [
        "enumerate: count disagrees with the table list"]
    assert problems(tables=tables[:5] + tables[6:], count=167) == [
        "enumerate: count disagrees with a recount"]
    assert problems(tables=tables[:5] + [non_monotone] + tables[6:]) == [
        "enumerate: table list disagrees with a recount"]
    assert problems(tables=tables[:5] + [tables[4]] + tables[6:]) == [
        f"enumerate: table {tables[4]} listed twice"]
    assert problems(count=169) == ["enumerate: count disagrees with the table list"]
    assert problems(count=167) == ["enumerate: count disagrees with the table list"]
    count_only = {k: v for k, v in monotone_report.items() if k != "tables"}
    assert verify_report(dict(count_only, count=169)) == [
        "enumerate: count disagrees with a recount"]
    assert verify_report(dict(count_only, inputs={"n": 5, "predicate": "monotone"})) == [
        "enumerate: malformed report: exhaustive enumeration is limited to n <= 4"]


# ---------------------------------------------------------------------------
# certify --pset=degenerates is the library's point-mass question


@pytest.mark.parametrize("mode", [MODE_STRICT, MODE_WEAK])
def test_cli_degenerates_certificate_is_the_library_one(capsys, mode):
    flags = ["--weak"] if mode == MODE_WEAK else []
    for t in range(2**8):
        rule = table_rule(3, t)
        expected = certify_p_robust_full(rule, mode).to_json()
        code, report = run_cli(
            capsys, ["certify", "--rule=" + rule.to_table_string(), "--pset=degenerates"] + flags)
        assert code == (0 if expected["verdict"] == VERDICT_ROBUST else 1)
        assert {key: report[key] for key in expected} == expected
        assert len(report["inputs"]["pset"]["extreme_points"]) == 8
