"""Internal self-checks raise errors rather than assert, so they still
fire under ``python -O``.  These tests avoid bare ``assert`` for the
same reason: each outcome is checked with ``pytest.raises``.
"""

import ast
from pathlib import Path

import pytest

import homlie
from homlie import linalg
from homlie.linalg import Subspace, subspace_intersection

from oracle import unit_vec


def test_intersection_checks_the_dimension_formula(monkeypatch):
    # a sum that drops b breaks dim a + dim b = dim(a+b) + dim(a^b)
    monkeypatch.setattr(linalg, "subspace_sum", lambda a, b: a)
    a = Subspace.from_vectors(2, [unit_vec(2, 0)])
    b = Subspace.from_vectors(2, [unit_vec(2, 1)])
    with pytest.raises(RuntimeError, match="dimension formula"):
        subspace_intersection(a, b)


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a self-check must raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(homlie.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    if found:
        pytest.fail("assert statements in homlie: " + ", ".join(found))
