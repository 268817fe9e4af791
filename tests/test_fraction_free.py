"""The fraction-free simplex against the Fraction tableau it replaced.

Both engines answer the same standard forms with Bland's rule, so they take
the same pivots and every answer must be equal entry for entry, not merely
valid.  Rational inputs are the case where a wrong starting denominator
shows: the exact divisions of a pivot then stop being exact.
"""

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import robustvote
from robustvote import lp
from robustvote.core import (
    DistributionSet,
    VotingRule,
    majority_rule,
    monotone_tables,
    table_rule,
    weighted_majority_rule,
)
from robustvote.lp import (
    REL_GE,
    REL_GT,
    LinearRow,
    LinearSystem,
    SolveStats,
    alternative_strict,
    alternative_weak,
    matrix_game,
    solve_feasibility,
)
from robustvote.robustness import (
    MODE_STRICT,
    MODES,
    VERDICT_ROBUST,
    _certify_by_lp,
    certify_p_robust_full,
    degenerate_agreement_matrix,
    responsiveness_game,
)
from robustvote.wmr import (
    SIGN_CLASS_POSITIVE,
    TIES_ALLOWED,
    TIES_FORBIDDEN,
    WmrQuery,
    detect_wmr,
)

from reference_tableau import Reference
from test_lp import _random_matrix, _random_system


@pytest.fixture
def both(monkeypatch):
    """Call a function on the fraction-free engine, then on the reference
    engine, and return the two answers."""

    def run(call, *args):
        new = call(*args)
        with monkeypatch.context() as patched:
            patched.setattr(lp, "_Tableau", Reference)
            old = call(*args)
        return new, old

    return run


def _all_fractions(*vectors) -> bool:
    return all(type(v) is F for vec in vectors if vec is not None for v in vec)


def _rational_system(rng):
    """Like test_lp's cones, with coefficients over denominators 2..6."""
    num_vars = rng.randint(1, 4)
    rows = [LinearRow(tuple(F(rng.randint(-6, 6), rng.randint(2, 6)) for _ in range(num_vars)),
                      rng.choice((REL_GE, REL_GT)))
            for _ in range(rng.randint(1, 5))]
    return LinearSystem(num_vars, tuple(rows))


def _n3_rules():
    return [
        VotingRule(3, tuple(1 if t >> k & 1 else -1 for k in range(8)))
        for t in range(256)
    ]


class TestSameAnswersAsTheFractionTableau:
    def test_thousand_random_systems(self, both):
        rng = random.Random(91)
        for trial in range(1000):
            new, old = both(solve_feasibility, _random_system(rng))
            assert new == old, f"trial {trial}"
            assert _all_fractions(new.witness, new.certificate), f"trial {trial}"

    def test_rational_coefficients(self, both):
        rng = random.Random(92)
        for trial in range(400):
            new, old = both(solve_feasibility, _rational_system(rng))
            assert new == old, f"trial {trial}"
            assert _all_fractions(new.witness, new.certificate), f"trial {trial}"

    def test_alternatives(self, both):
        rng = random.Random(23)
        for trial in range(300):
            matrix = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            for alternative in (alternative_strict, alternative_weak):
                new, old = both(alternative, matrix)
                assert new == old, f"trial {trial}"
                assert _all_fractions(new.weights, new.mixture), f"trial {trial}"

    def test_games(self, both):
        rng = random.Random(5)
        for trial in range(200):
            matrix = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            new, old = both(matrix_game, matrix)
            assert new == old, f"trial {trial}"
            assert _all_fractions((new.value,), new.row_strategy, new.col_strategy)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_n3_rule(self, both, mode):
        for rule in _n3_rules():
            new, old = both(_certify_by_lp, rule, mode)
            assert new == old, rule.outcomes

    def test_every_n3_responsiveness_game(self, both):
        degenerates = DistributionSet.degenerates(3)
        for rule in _n3_rules():
            new, old = both(responsiveness_game, rule, degenerates)
            assert new == old, rule.outcomes


class TestIntegerAnswersOnTheSweepTables:
    """Every own-vote-monotone n=4 table, the ones a sweep of n=4 rules
    brings to the LP among them, and the robust ones' games: the integer
    readers and the Fraction tableau must give equal answers, entry for
    entry, in both modes."""

    @staticmethod
    def _rules():
        return [table_rule(4, t) for t in monotone_tables(4)]

    @pytest.mark.parametrize("mode", MODES)
    def test_every_monotone_n4_rule(self, both, mode):
        rules = self._rules()
        assert len(rules) == 168
        for rule in rules:
            new, old = both(_certify_by_lp, rule, mode)
            assert new == old, rule.to_table_string()
            assert (new.weights, new.mixture) == (old.weights, old.mixture)
            assert _all_fractions(new.weights, new.mixture)

    def test_the_twelve_robust_n4_games(self, both):
        robust = [rule for rule in self._rules()
                  if certify_p_robust_full(rule, MODE_STRICT).verdict == VERDICT_ROBUST]
        assert len(robust) == 12
        degenerates = DistributionSet.degenerates(4)
        for rule in robust:
            new, old = both(responsiveness_game, rule, degenerates)
            assert new == old, rule.to_table_string()
            assert new.value > F(1, 2)
            assert _all_fractions((new.value,), new.row_strategy, new.col_strategy)


class TestNoFractionUntilRead:
    """An alternative on an integer matrix is solved, checked and stored in
    integers: the Fractions of its side are formed when it is read."""

    @pytest.fixture
    def made(self, monkeypatch):
        calls = []
        new = F.__new__

        def spy(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", spy)
        return calls

    @pytest.mark.parametrize("table", ["---+-+++", "--------", "-++-+--+"])
    @pytest.mark.parametrize("alternative", [alternative_strict, alternative_weak])
    def test_an_integer_point_mass_alternative(self, made, table, alternative):
        matrix = degenerate_agreement_matrix(VotingRule.from_table_string(3, table))
        assert all(type(v) is int for row in matrix for v in row)
        del made[:]
        answer = alternative(matrix)
        assert made == []
        side = answer.weights if answer.row_side is not None else answer.mixture
        assert made and _all_fractions(side) and sum(side) == 1

    def test_the_solver_answer_too(self, made):
        system = LinearSystem(2, tuple(LinearRow(row, REL_GT) for row in ((1, -2), (-1, 3))))
        del made[:]
        result = solve_feasibility(system)
        assert made == [] and result.feasible
        assert all(type(v) is int for v in (*result.numerators, result.scale))
        assert result.witness == tuple(F(v, result.scale) for v in result.numerators) and made


class TestSolveStats:
    SYSTEM = LinearSystem(
        2,
        (
            LinearRow((F(1), F(-2)), REL_GE),
            LinearRow((F(1), F(-1, 3)), REL_GT),
            LinearRow((F(0), F(1)), REL_GT),
        ),
    )

    def test_a_nontrivial_system_pivots(self):
        stats = solve_feasibility(self.SYSTEM).stats
        assert isinstance(stats, SolveStats)
        assert stats.pivots > 0
        assert stats.rows == 4 and stats.max_bits > 0  # three rows and the cap

    def test_two_solves_compare_equal(self):
        first, second = solve_feasibility(self.SYSTEM), solve_feasibility(self.SYSTEM)
        assert first == second and first.stats == second.stats

    def test_stats_are_not_part_of_the_answer(self):
        result = solve_feasibility(self.SYSTEM)
        other = lp.FeasibilityResult(result.feasible, result.witness, result.certificate)
        assert result == other

    def test_game_stats(self):
        game = matrix_game([[F(3), F(2)], [F(1), F(4)]])
        assert game.stats.pivots > 0

    def test_homogeneous_inequalities_need_no_phase_one(self, monkeypatch):
        """Strict rows share a capped slack, so a homogeneous inequality
        system starts from its slack basis: the alternatives and the
        positive WMR query with ties pivot only while maximizing that
        slack.  The tie-free positive query is read off the strict
        certificate, which the screen decides for every rule here, so it
        solves nothing."""
        stats = []
        solve = lp.solve_feasibility

        def spy(system):
            result = solve(system)
            stats.append(result.stats)
            return result

        monkeypatch.setattr(lp, "solve_feasibility", spy)
        rules = [weighted_majority_rule(4, [F(2), F(1), F(1), F(1)]),
                 majority_rule(4, tie=1), majority_rule(3)] + _n3_rules()[::17]
        for rule in rules:
            matrix = degenerate_agreement_matrix(rule)
            alternative_strict(matrix)
            alternative_weak(matrix)
            for ties in (TIES_FORBIDDEN, TIES_ALLOWED):
                detect_wmr(rule, WmrQuery(SIGN_CLASS_POSITIVE, ties))
        assert len(stats) == 3 * len(rules)
        assert sum(s.pivots for s in stats) > 0


def test_no_float_in_the_package():
    """No float literal and no float() call anywhere in the package."""
    offenders = []
    for path in sorted(Path(robustvote.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                offenders.append(f"{path.name}:{node.lineno} float literal")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                offenders.append(f"{path.name}:{node.lineno} float()")
    assert offenders == []
