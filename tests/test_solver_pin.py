"""The simplex pinned: every answer and every SolveStats over a seeded corpus
hash to one recorded digest.

The `both` fixture of test_fraction_free compares answers with a dense
reference engine, which reports no stats, so it cannot see a pivot moved.
This digest does: a change to how rows reach the tableau that alters a
pivot, a tableau shape or an entry's width changes it.
"""

import hashlib
import random
from fractions import Fraction as F

from robustvote import lp
from robustvote.core import VotingRule, degenerate_agreement_matrix
from robustvote.lp import alternative_positive, alternative_strict, alternative_weak, matrix_game

from test_lp import _random_system

DIGEST = "978e84df2ab4f764a50c9648d6b13ea229176d90c046cc4f922269df66c8e56f"


def _stats(stats):
    return (stats.rows, stats.columns, stats.pivots, stats.max_bits)


def _corpus_lines(monkeypatch):
    """One line per answer, each cone solve's stats included."""
    lines = []
    solve = lp.solve_feasibility

    def recorded(system):
        result = solve(system)
        lines.append(repr((result.feasible, result.numerators, result.scale,
                           _stats(result.stats))))
        return result

    monkeypatch.setattr(lp, "solve_feasibility", recorded)
    rng = random.Random(91)
    for _ in range(1000):
        lp.solve_feasibility(_random_system(rng))
    rng = random.Random(17)
    for n in range(3, 7):
        for _ in range(8):
            rule = VotingRule(n, tuple(rng.choice((1, -1)) for _ in range(2**n)))
            matrix = degenerate_agreement_matrix(rule)
            for alternative in (alternative_strict, alternative_weak, alternative_positive):
                answer = alternative(matrix)
                lines.append(repr((answer.weights, answer.mixture)))
            game = matrix_game([[F(a + 1, 2) for a in row] for row in matrix])
            lines.append(repr((game.value, game.row_strategy, game.col_strategy,
                               _stats(game.stats))))
    return lines


def test_answers_and_stats_match_the_recorded_digest(monkeypatch):
    lines = _corpus_lines(monkeypatch)
    assert len(lines) == 1000 + 32 * 7
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
