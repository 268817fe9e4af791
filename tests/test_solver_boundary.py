"""Only `lp` builds linear systems and tableaux: every other module asks
its questions through the theorems of the alternative and the matrix game."""

import ast
from pathlib import Path

import robustvote

SOLVER_NAMES = {"LinearRow", "LinearSystem", "_Tableau", "solve_feasibility"}


def _names(tree: ast.AST):
    """Every identifier the module's code binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name
            yield node.lineno, node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name


def test_only_lp_names_the_linear_system_layer():
    offenders = []
    for path in sorted(Path(robustvote.__file__).parent.glob("*.py")):
        if path.name == "lp.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line} {name}" for line, name in _names(tree)
                      if name in SOLVER_NAMES]
    assert offenders == []
