"""Votes are read in core only: the integer weighted vote sum, and a guard
that no other module decodes a vote bit.  Individual i's votes are one
table integer, core.table_masks(n).plus[i-1]; core.vote_leans and
core.degenerate_agreement_matrix read them off it, and other modules read
votes through those, the vote sums or the profile strings."""

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import robustvote
from robustvote.core import vote_sums


def reference_vote_sums(weights):
    """The weighted vote sum as exact rationals, decoded bit by bit."""
    return [
        sum((w if idx >> i & 1 else -w for i, w in enumerate(weights)), F(0))
        for idx in range(2 ** len(weights))
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_vote_sums_match_the_rational_definition(n):
    rng = random.Random(1000 + n)
    for _ in range(20):
        weights = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
        sums, scale = vote_sums(weights)
        assert scale > 0 and all(type(s) is int for s in sums)
        assert [F(s, scale) for s in sums] == reference_vote_sums(weights)


def _decodes_a_vote_bit(node) -> bool:
    """`x >> i & 1`, a conditional on a bit test such as `1 if x & b else -1`,
    or a bit selector to map over indices: `(1 << i).__and__` or
    `operator.and_`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
        return (isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.RShift)
                and isinstance(node.right, ast.Constant) and node.right.value == 1)
    if isinstance(node, ast.Attribute):
        return node.attr in ("__and__", "__rand__", "and_")
    if isinstance(node, (ast.Name, ast.alias)):
        return getattr(node, "id", getattr(node, "name", None)) == "and_"
    return (isinstance(node, ast.IfExp) and isinstance(node.test, ast.BinOp)
            and isinstance(node.test.op, ast.BitAnd))


@pytest.mark.parametrize("source", [
    "votes = [1 if x >> i & 1 else -1 for x in support]",
    "bit = x >> i & 1",
    "sum(compress(masses, map((1 << i).__and__, support)))",
    "sum(compress(masses, map(operator.and_, support, repeat(step))))",
    "from operator import and_",
    "sum(compress(masses, map(and_, support, repeat(step))))",
])
def test_the_guard_flags_each_bit_decoding(source):
    assert any(map(_decodes_a_vote_bit, ast.walk(ast.parse(source))))


def test_only_core_decodes_vote_bits():
    """Every other module reads votes through core: the vote sums, the
    leans and agreement rows read off the table masks, or the profile
    strings."""
    offenders = []
    for path in sorted(Path(robustvote.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _decodes_a_vote_bit(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
