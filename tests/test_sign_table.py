"""The one ±1 vote-sign table and the integer weighted vote sum built on it."""

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import robustvote
from robustvote.core import sign_table, vote_in_profile, vote_sums


def reference_vote_sums(weights):
    """The weighted vote sum as exact rationals, decoded bit by bit."""
    return [
        sum((w if idx >> i & 1 else -w for i, w in enumerate(weights)), F(0))
        for idx in range(2 ** len(weights))
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_sign_table_is_vote_in_profile(n):
    table = sign_table(n)
    assert len(table) == n
    for i, row in enumerate(table, start=1):
        assert row == tuple(vote_in_profile(idx, i) for idx in range(2**n))


def test_sign_table_is_cached_and_bounded():
    assert sign_table(5) is sign_table(5)
    for bad in (0, 17):
        with pytest.raises(ValueError):
            sign_table(bad)


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_vote_sums_match_the_rational_definition(n):
    rng = random.Random(1000 + n)
    for _ in range(20):
        weights = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        sums, scale = vote_sums(weights)
        assert scale > 0 and all(type(s) is int for s in sums)
        assert [F(s, scale) for s in sums] == reference_vote_sums(weights)


def _decodes_a_vote_bit(node) -> bool:
    """`x >> i & 1`, or a conditional on a bit test such as `1 if x & b else -1`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
        return (isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.RShift)
                and isinstance(node.right, ast.Constant) and node.right.value == 1)
    return (isinstance(node, ast.IfExp) and isinstance(node.test, ast.BinOp)
            and isinstance(node.test.op, ast.BitAnd))


def test_only_core_decodes_vote_bits():
    """Every other module reads votes from the sign table or the vote sum."""
    offenders = []
    for path in sorted(Path(robustvote.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _decodes_a_vote_bit(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
