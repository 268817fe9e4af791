"""The exact feasibility engine, checked against elimination and supports."""

import random
from fractions import Fraction as F

import pytest

from robustvote import lp
from robustvote.lp import (
    REL_GE,
    REL_GT,
    LinearRow,
    LinearSystem,
    alternative_positive,
    alternative_strict,
    alternative_weak,
    certifies_infeasibility,
    matrix_game,
    satisfies,
    solve_feasibility,
)

from oracles import STRICT, WEAK, fm_feasible, game_value_by_supports


def _system(*rows):
    return LinearSystem(len(rows[0].coeffs), rows)


class TestSatisfies:
    def test_each_relation(self):
        sys2 = _system(LinearRow((F(1), F(-1)), REL_GE), LinearRow((F(2), F(-1)), REL_GT))
        assert satisfies(sys2, (F(2), F(1)))
        assert satisfies(sys2, (F(1), F(1)))          # weak row at equality
        assert not satisfies(sys2, (F(1), F(2)))      # both rows off
        assert not satisfies(sys2, (F(0), F(0)))      # strict row at equality
        assert not satisfies(sys2, (F(2),))           # wrong arity

    def test_sign_domain(self):
        # -z >= 0 holds at z = -1, but every variable is nonnegative.
        sys1 = _system(LinearRow((F(-1),), REL_GE))
        assert satisfies(sys1, (F(0),))
        assert not satisfies(sys1, (F(-1),))

    def test_rational_point_against_integer_rows(self):
        # 3x - 2y > 0 at (1/2, 1/3) is 1/2 > 0: over the point's denominator
        # 6 the dot product is the integer 3, of the same sign.
        sys1 = _system(LinearRow((3, -2), REL_GT))
        assert satisfies(sys1, (F(1, 2), F(1, 3)))
        assert not satisfies(sys1, (F(1, 2), F(3, 4)))


class TestCertificate:
    def test_textbook_contradiction(self):
        # x - y > 0 and y - x >= 0 cannot hold together.
        sys1 = _system(LinearRow((F(1), F(-1)), REL_GT), LinearRow((F(-1), F(1)), REL_GE))
        assert certifies_infeasibility(sys1, (F(1), F(1)))
        assert not certifies_infeasibility(sys1, (F(1), F(0)))
        assert not certifies_infeasibility(sys1, (F(0), F(1)))   # no strict weight
        assert not certifies_infeasibility(sys1, (F(-1), F(-1)))  # negative multipliers

    def test_rational_multipliers(self):
        # x > 0 and -2x >= 0: multipliers (1, 1/2) cancel x exactly.
        sys1 = _system(LinearRow((1,), REL_GT), LinearRow((-2,), REL_GE))
        assert certifies_infeasibility(sys1, (F(1), F(1, 2)))
        assert not certifies_infeasibility(sys1, (F(1), F(1, 3)))


def _random_system(rng):
    """A random cone; with one to four rows, often none of them strict."""
    num_vars = rng.randint(1, 3)
    rows = [LinearRow(tuple(F(rng.randint(-3, 3)) for _ in range(num_vars)),
                      rng.choice((REL_GE, REL_GT)))
            for _ in range(rng.randint(1, 4))]
    return LinearSystem(num_vars, tuple(rows))


def _oracle_rows(system):
    """The cone's rows, then z_k >= 0 for every variable."""
    rows = [(row.coeffs, STRICT if row.relation == REL_GT else WEAK, F(0))
            for row in system.rows]
    for k in range(system.num_vars):
        rows.append((tuple(F(int(j == k)) for j in range(system.num_vars)), WEAK, F(0)))
    return rows


class TestFeasibilityFuzz:
    def test_thousand_random_systems(self):
        rng = random.Random(91)
        for trial in range(1000):
            system = _random_system(rng)
            result = solve_feasibility(system)
            assert result.feasible == (result.witness is not None)
            assert result.feasible == (result.certificate is None)
            if result.feasible:
                assert satisfies(system, result.witness), f"trial {trial}"
            else:
                assert certifies_infeasibility(system, result.certificate), f"trial {trial}"
            vector = result.witness if result.feasible else result.certificate
            assert all(type(v) is F for v in vector), f"trial {trial}"
            expected = fm_feasible(_oracle_rows(system), system.num_vars)
            assert result.feasible == expected, f"trial {trial}: {system}"

    def test_one_simplex_run_per_system(self, monkeypatch):
        """The slack basis of every cone is feasible, so a cone with a
        strict row takes one run, and one without takes none."""
        runs = []
        run = lp._Tableau.run

        def counting(tab, costs):
            runs.append(costs)
            return run(tab, costs)

        monkeypatch.setattr(lp._Tableau, "run", counting)
        rng = random.Random(91)
        for trial in range(1000):
            system = _random_system(rng)
            del runs[:]
            solve_feasibility(system)
            strict = any(row.relation == REL_GT for row in system.rows)
            assert len(runs) == strict, f"trial {trial}: {system}"

    def test_deterministic(self):
        rng = random.Random(7)
        systems = [_random_system(rng) for _ in range(50)]
        first = [solve_feasibility(s) for s in systems]
        second = [solve_feasibility(s) for s in systems]
        assert first == second


class TestUnboundedDirections:
    def test_strict_needs_a_ray(self):
        # x - y > 0 is satisfiable only by scaling out; the engine must
        # still find a point rather than a limit.
        sys1 = _system(LinearRow((F(1), F(-1)), REL_GT))
        result = solve_feasibility(sys1)
        assert result.feasible and result.witness[0] > result.witness[1]

    def test_infeasible_strict_at_bound(self):
        # x - y > 0 and x - y <= 0.
        sys1 = _system(LinearRow((F(1), F(-1)), REL_GT), LinearRow((F(-1), F(1)), REL_GE))
        result = solve_feasibility(sys1)
        assert not result.feasible
        assert certifies_infeasibility(sys1, result.certificate)


def _random_matrix(rng, rows, cols):
    return [
        [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(cols)]
        for _ in range(rows)
    ]


def _check_alternative(matrix, result, strict):
    rows = len(matrix)
    cols = len(matrix[0])
    assert (result.weights is None) != (result.mixture is None)
    vector = result.weights if result.weights is not None else result.mixture
    assert all(type(v) is F for v in vector)
    if result.weights is not None:
        w = result.weights
        assert len(w) == rows
        assert all(x >= 0 for x in w) and sum(w) == 1
        for j in range(cols):
            dot = sum((w[i] * matrix[i][j] for i in range(rows)), F(0))
            assert dot > 0 if strict else dot >= 0
    else:
        lam = result.mixture
        assert len(lam) == cols
        assert all(x >= 0 for x in lam) and sum(lam) == 1
        for i in range(rows):
            dot = sum((matrix[i][j] * lam[j] for j in range(cols)), F(0))
            assert dot <= 0 if strict else dot < 0


class TestAlternatives:
    def test_identity_matrix_has_weights(self):
        matrix = [[F(1), F(0)], [F(0), F(1)]]
        result = alternative_strict(matrix)
        assert result.weights is not None
        _check_alternative(matrix, result, strict=True)

    def test_antisymmetric_matrix_has_mixture(self):
        matrix = [[F(1), F(-1)], [F(-1), F(1)]]
        result = alternative_strict(matrix)
        assert result.mixture == (F(1, 2), F(1, 2))
        _check_alternative(matrix, result, strict=True)

    def test_weak_flips_the_boundary_case(self):
        # All-zero matrix: weights satisfy the weak side, no mixture can
        # make any row strictly negative.
        matrix = [[F(0), F(0)]]
        assert alternative_weak(matrix).weights is not None
        assert alternative_strict(matrix).mixture is not None

    def test_fuzz_both_variants(self):
        rng = random.Random(23)
        for _ in range(300):
            matrix = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            _check_alternative(matrix, alternative_strict(matrix), strict=True)
            _check_alternative(matrix, alternative_weak(matrix), strict=False)


def _check_positive(matrix, result):
    """Stiemke's sides: positive weights clearing every column weakly, or a
    mixture holding every row at or below zero and their total below it."""
    assert (result.weights is None) != (result.mixture is None)
    if result.weights is not None:
        w = result.weights
        assert all(type(x) is F and x > 0 for x in w) and sum(w) == 1
        assert all(sum((wi * a for wi, a in zip(w, column)), F(0)) >= 0
                   for column in zip(*matrix))
    else:
        lam = result.mixture
        assert all(type(x) is F and x >= 0 for x in lam) and sum(lam) == 1
        dots = [sum((a * x for a, x in zip(row, lam)), F(0)) for row in matrix]
        assert all(d <= 0 for d in dots) and sum(dots) < 0


class TestPositiveAlternative:
    def test_zero_matrix_has_positive_weights(self):
        assert alternative_positive([[F(0), F(0)], [F(0), F(0)]]).weights == (F(1, 2), F(1, 2))

    def test_a_row_that_must_weigh_zero_has_a_mixture(self):
        # Column 2 needs w_1 <= 0, so weak weights exist but positive ones do not.
        matrix = [[F(1), F(-1)], [F(1), F(0)]]
        assert alternative_weak(matrix).weights is not None
        result = alternative_positive(matrix)
        assert result.mixture is not None
        _check_positive(matrix, result)

    def test_fuzz_against_elimination(self):
        rng = random.Random(29)
        for _ in range(300):
            matrix = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            result = alternative_positive(matrix)
            _check_positive(matrix, result)
            n = len(matrix)
            rows = [(tuple(F(int(k == i)) for k in range(n)), STRICT, F(0)) for i in range(n)]
            rows += [(column, WEAK, F(0)) for column in zip(*matrix)]
            assert (result.weights is not None) == fm_feasible(rows, n)


class TestMatrixGame:
    def test_matching_pennies(self):
        game = matrix_game([[F(1), F(-1)], [F(-1), F(1)]])
        assert game.value == 0
        assert game.row_strategy == (F(1, 2), F(1, 2))
        assert game.col_strategy == (F(1, 2), F(1, 2))

    def test_saddle_point(self):
        game = matrix_game([[F(3), F(2)], [F(1), F(4)]])
        assert game.value == game_value_by_supports([[F(3), F(2)], [F(1), F(4)]])

    def test_strategies_guarantee_the_value(self):
        rng = random.Random(5)
        for _ in range(200):
            matrix = _random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            game = matrix_game(matrix)
            assert all(
                type(v) is F
                for v in (game.value, *game.row_strategy, *game.col_strategy)
            )
            rows = len(matrix)
            cols = len(matrix[0])
            assert sum(game.row_strategy) == 1 and all(x >= 0 for x in game.row_strategy)
            assert sum(game.col_strategy) == 1 and all(x >= 0 for x in game.col_strategy)
            for j in range(cols):
                assert sum(
                    (game.row_strategy[i] * matrix[i][j] for i in range(rows)), F(0)
                ) >= game.value
            for i in range(rows):
                assert sum(
                    (matrix[i][j] * game.col_strategy[j] for j in range(cols)), F(0)
                ) <= game.value
            assert game.value == game_value_by_supports(matrix)


class TestValidation:
    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            LinearSystem(2, (LinearRow((F(1),), REL_GE),))

    def test_unknown_relation_rejected(self):
        for relation in ("<", "="):
            with pytest.raises(ValueError):
                LinearRow((F(1),), relation)
