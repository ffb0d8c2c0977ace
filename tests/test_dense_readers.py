"""The solver's core reads no dense form of a matrix, subspace or map.

``algebra``, ``spaces`` and ``extension`` work on the sparse views
(``Matrix._sparse``, ``Subspace._reduced``, ``AlgebraSpec._sparse``).
Dense entries, bases, rows, columns and flat vectors are built only at
the boundary: the dense constructors, ``cli``, ``fileformat`` and
``format_matrix``.  The dense bracket table ``brackets`` is read only by
``algebra``, which owns it: its constructor, ``_hash`` and ``_sparse``.
This walks the three modules' syntax trees for an attribute read of a
dense form.  It fails by ``pytest.fail``, not by a bare ``assert``, so
it still fires under ``python -O``.
"""

import ast
from pathlib import Path

import pytest

import homlie

DENSE = {"basis", "entries", "row", "col", "at", "flatten", "matvec"}


@pytest.mark.parametrize("module", ["algebra", "spaces", "extension"])
def test_core_reads_no_dense_form(module):
    dense = DENSE if module == "algebra" else DENSE | {"brackets"}
    tree = ast.parse((Path(homlie.__file__).parent / f"{module}.py").read_text())
    reads = sorted((node.lineno, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in dense)
    if reads:
        pytest.fail(f"{module}.py reads dense forms at (line, attribute) {reads}")
