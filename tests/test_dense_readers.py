"""The solver's core reads no dense form of a matrix, subspace or map.

``algebra``, ``spaces`` and ``extension`` work on the sparse views
(``Matrix._sparse``, ``Subspace._reduced``, ``AlgebraSpec._sparse``).
Dense entries, bases, rows, columns and flat vectors are built only at
the boundary: the dense constructors, ``cli``, ``fileformat`` and
``format_matrix``.  The dense bracket table ``brackets`` is read only
where ``algebra`` builds it: the dense constructor's ``__post_init__``,
which records the view of the table it is given, and the definition of
the lazy field (its ``__set_name__`` call).  This walks the three
modules' syntax trees for an attribute read of a dense form.  It fails
by ``pytest.fail``, not by a bare ``assert``, so it still fires under
``python -O``.
"""

import ast
from pathlib import Path

import pytest

import homlie

DENSE = {"basis", "entries", "row", "col", "at", "flatten", "matvec", "brackets"}


def _table_owners(tree):
    """The ``brackets`` reads that build the table: every node of a
    ``__post_init__`` and the owner of a module-level ``__set_name__`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            yield from ast.walk(node)
    for stmt in tree.body:
        if (isinstance(stmt, ast.Expr) and isinstance(call := stmt.value, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "__set_name__"):
            yield call.func.value


def dense_reads(source: str, module: str) -> list:
    """(line, attribute) of each dense read in a module's source."""
    tree = ast.parse(source)
    owned = {id(node) for node in _table_owners(tree)} if module == "algebra" else set()
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in DENSE
                  and not isinstance(node.ctx, ast.Store)
                  and not (node.attr == "brackets" and id(node) in owned))


@pytest.mark.parametrize("module", ["algebra", "spaces", "extension"])
def test_core_reads_no_dense_form(module):
    reads = dense_reads((Path(homlie.__file__).parent / f"{module}.py").read_text(),
                        module)
    if reads:
        pytest.fail(f"{module}.py reads dense forms at (line, attribute) {reads}")


def test_a_brackets_read_outside_the_constructor_is_flagged():
    source = "\n".join([
        "class AlgebraSpec:",
        "    def __post_init__(self):",
        "        n = len(self.brackets)",
        "    _hash = cached_property(lambda s: hash(s.brackets))",
        "AlgebraSpec.brackets = cached_property(build)",
        "AlgebraSpec.brackets.__set_name__(AlgebraSpec, 'brackets')",
        "def validate(spec):",
        "    return spec.brackets[0]",
    ])
    assert dense_reads(source, "algebra") == [(4, "brackets"), (8, "brackets")]
    assert dense_reads(source, "spaces") == [
        (3, "brackets"), (4, "brackets"), (6, "brackets"), (8, "brackets")]
