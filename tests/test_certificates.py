"""The shared substitution checker, and why producers cannot skip it."""

import ast
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import robustvote
from robustvote.certificates import (
    InternalError,
    failed_column,
    game_problem,
    improves,
    require,
)

PACKAGE = Path(robustvote.__file__).parent

# The weak question on the n=3 rule ---+-+-+ goes past the combinatorial
# screen (no profile has everyone voting against the outcome, and n
# corrections of its Chow vector still fail) to alternative_weak, here a stub that records its call and claims
# weights (1, 0, 0), which fail at profile +--.  The producer's own check
# must catch it even with asserts stripped.
STUBBED_SOLVER = """
from fractions import Fraction
from robustvote import lp, robustness
from robustvote.certificates import InternalError
from robustvote.core import VotingRule
from robustvote.lp import AlternativeResult

assert False, "asserts must be stripped in this run"
calls = []

def stub(matrix):
    calls.append(matrix)
    return AlternativeResult(weights=(Fraction(1), Fraction(0), Fraction(0)), mixture=None)

lp.alternative_weak = stub
try:
    cert = robustness.certify_p_robust_full(VotingRule.from_table_string(3, "---+-+-+"), "weak")
except InternalError:
    print("internal error", len(calls))
else:
    print(cert.verdict, len(calls))
"""

# The screen itself is replaced by one that claims bogus weights for ---+,
# which is not robust in the strict sense, in its contract of integer
# weights over their total: (1, 1) over 2 fails a profile, and (1, 1) over
# 3 is no distribution.
STUBBED_SCREEN = """
from robustvote import robustness
from robustvote.certificates import InternalError
from robustvote.core import VotingRule

assert False, "asserts must be stripped in this run"
for total in (2, 3):
    robustness._screen = lambda rule, mode: ((1, 1), None, total)
    try:
        cert = robustness.certify_p_robust_full(VotingRule.from_table_string(2, "---+"))
    except InternalError:
        print("internal error")
    else:
        print(cert.verdict)
"""


class TestChecks:
    def test_failed_column_names_the_first_column(self):
        matrix = [[F(1), F(-1), F(0)], [F(1), F(2), F(0)]]
        weights = (F(1, 2), F(1, 2))
        assert failed_column(matrix, weights) == 2
        assert failed_column(matrix, weights, strict=False) is None
        assert failed_column(matrix, (F(1), F(0)), strict=False) == 1
        assert failed_column(matrix, weights, F(-1), strict=True) is None

    def test_failed_row_names_the_first_row(self):
        # The game with value -1: row 1 earns it, column 1 holds both rows to it.
        matrix = [[F(1), F(-1)], [F(-1), F(-1)]]
        row = (F(0), F(1))
        assert game_problem(matrix, F(-1), row, (F(0), F(1))) is None
        assert (game_problem(matrix, F(-1), row, (F(1, 2), F(1, 2)))
                == "column strategy exceeds the value in row 0")
        assert game_problem(matrix, F(0), row, (F(1, 2), F(1, 2))) == \
            "row strategy falls below the value in column 0"

    def test_game_problem_rejects_a_negative_entry(self):
        # (3/2, -1/2) sums to one and earns 2 and -1/2 >= -1 in the columns,
        # so only the distribution test stops it.
        matrix = [[F(1), F(-1)], [F(-1), F(-1)]]
        assert (game_problem(matrix, F(-1), (F(3, 2), F(-1, 2)), (F(0), F(1)))
                == "game strategies are not distributions")
        assert (game_problem(matrix, F(-1), (F(0), F(1)), (F(-1), F(2)))
                == "game strategies are not distributions")

    def test_game_problem_rejects_a_strategy_off_the_value(self):
        # Optimal strategies checked against a value they do not guarantee.
        matrix = [[F(1), F(-1)], [F(-1), F(-1)]]
        assert (game_problem(matrix, F(-1, 2), (F(0), F(1)), (F(0), F(1)))
                == "row strategy falls below the value in column 0")
        assert (game_problem(matrix, F(-2), (F(0), F(1)), (F(0), F(1)))
                == "column strategy exceeds the value in row 0")

    def test_improves(self):
        base = (F(1, 2), F(1, 2))
        assert improves(base, base)
        assert not improves(base, base, in_total=True)
        assert improves(base, (F(1, 2), F(3, 4)), in_total=True)
        assert not improves(base, (F(1, 2), F(3, 4)), strictly=True)
        assert improves(base, (F(3, 5), F(3, 4)), strictly=True)
        assert not improves(base, (F(1, 4), F(1)))

    def test_internal_error_is_neither_a_value_nor_an_assertion_error(self):
        assert not issubclass(InternalError, (ValueError, AssertionError))
        with pytest.raises(InternalError, match="broken"):
            require(False, "broken")
        require(True, "never raised")


def _run_optimized(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_stubbed_solver_is_caught_under_optimize():
    assert _run_optimized(STUBBED_SOLVER) == "internal error 1"


def test_stubbed_screen_is_caught_under_optimize():
    assert _run_optimized(STUBBED_SCREEN) == "internal error\ninternal error"


def test_no_assert_in_the_package():
    """Checks written as assert vanish under python -O."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
