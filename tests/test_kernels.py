"""The row-major substitution kernels against column-by-column references."""

import random
from fractions import Fraction as F

import pytest

from robustvote import Distribution, RandomVotingRule, VotingRule, responsiveness
from robustvote.certificates import failed_column, robustness_problem

from conftest import random_distribution
from oracles import failed_column_by_columns, responsiveness_by_atoms


def _entry(rng: random.Random, rational: bool):
    value = rng.randint(-4, 4)
    return F(value, rng.randint(1, 6)) if rational else value


def _matrix(rng: random.Random, rows: int, columns: int, rational: bool):
    return [[_entry(rng, rational) for _ in range(columns)] for _ in range(rows)]


def _weights(rng: random.Random, rows: int):
    # About one weight in three is zero, so skipped rows are exercised.
    return [F(rng.randint(0, 5) * rng.randint(0, 1), rng.randint(1, 7)) for _ in range(rows)]


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_failed_column_matches_the_column_by_column_reference(rational):
    rng = random.Random(f"columns-{rational}")
    failures = set()
    for _ in range(300):
        rows, columns = rng.randint(1, 6), rng.randint(1, 20)
        matrix = _matrix(rng, rows, columns, rational)
        weights = _weights(rng, rows)
        # A bound at a column's own dot product makes the first failure
        # fall anywhere, not only at column 0.
        target = rng.randrange(columns)
        dot = sum((w * row[target] for w, row in zip(weights, matrix)), F(0))
        for bound in (F(0), dot, dot - F(1, 3), F(rng.randint(-3, 3), rng.randint(1, 5))):
            for strict in (True, False):
                expected = failed_column_by_columns(matrix, weights, bound, strict)
                assert failed_column(matrix, weights, bound, strict) == expected
                failures.add(expected)
    assert None in failures and len(failures) > 10


def test_robustness_problem_names_the_reference_column():
    rng = random.Random("robustness-problem")
    for _ in range(200):
        rows, columns = rng.randint(1, 5), rng.randint(1, 16)
        matrix = _matrix(rng, rows, columns, rng.random() < 0.5)
        raw = [rng.randint(0, 3) for _ in range(rows)]
        raw[rng.randrange(rows)] += 1
        weights = [F(v, sum(raw)) for v in raw]
        for strict in (True, False):
            j = failed_column_by_columns(matrix, weights, 0, strict)
            expected = None if j is None else f"weights fail extreme point {j}"
            assert robustness_problem(matrix, strict, weights=weights) == expected


def _distributions(rng: random.Random, n: int):
    yield random_distribution(rng, n)
    yield Distribution.degenerate(n, rng.randrange(2**n))
    atoms = rng.sample(range(2**n), min(3, 2**n))
    yield Distribution.from_weights(n, {idx: F(rng.randint(1, 9)) for idx in atoms})


@pytest.mark.parametrize("n", range(1, 7))
def test_responsiveness_matches_the_atom_by_atom_sum(n):
    rng = random.Random(f"responsiveness-{n}")
    for _ in range(8):
        deterministic = VotingRule(n, tuple(rng.choice((-1, 1)) for _ in range(2**n)))
        random_rule = RandomVotingRule(
            n, tuple(rng.choice((F(-1), F(0), F(1), F(1, 3))) for _ in range(2**n)))
        for dist in _distributions(rng, n):
            for rule in (deterministic, random_rule):
                assert responsiveness(rule, dist).values == responsiveness_by_atoms(rule, dist)
