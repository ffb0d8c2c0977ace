"""An ``AlgebraSpec`` holds its sparse bracket view as its one stored form.

``from_pairs`` (and so every file and sampled algebra) and
``build_extended`` build the view directly; the dense ``brackets`` table
is built only when it is read.  A view-built spec must equal, hash and
print like the same spec built from the dense table, and the package's
own paths must never read the table.
"""

import random

import pytest

from homlie.algebra import AlgebraSpec, validate
from homlie.catalog import BUILTIN, load_builtin
from homlie.extension import (
    build_extended,
    phi,
    verify_embedding_decomposition,
    verify_phi_properties,
)
from homlie.linalg import Matrix
from homlie.randomgen import sample_algebras
from homlie.spaces import (
    SpaceKind,
    check_bracket_laws,
    check_inclusion_chain,
    check_qc_structure,
    solve_space,
)


def _doubles():
    """ex2_5's double and the double of that double, freshly built."""
    double = build_extended(load_builtin("ex2_5")).spec
    return [double, build_extended(double).spec]


def _view_built():
    return ([load_builtin(name) for name in BUILTIN]
            + [spec for s in range(4)
               for spec in sample_algebras(random.Random(s), 10, n_max=4)]
            + _doubles())


def test_a_view_built_spec_is_its_dense_twin():
    for spec in _view_built():
        assert "brackets" not in vars(spec), spec.name
        view, h = spec._sparse, hash(spec)
        assert "brackets" not in vars(spec), spec.name
        twin = AlgebraSpec(spec.name, spec.degrees, spec.alpha, spec.brackets,
                           spec.basis_names)
        assert spec == twin and twin == spec, spec.name
        assert h == hash(twin) == hash((spec.name, spec.degrees, spec.alpha,
                                        spec.brackets, spec.basis_names))
        assert repr(spec) == repr(twin)
        assert twin._sparse == view and list(twin._sparse) == list(view)


def test_the_view_is_sorted_and_holds_integral_values_as_int():
    for spec in _view_built():
        view = spec._sparse
        assert list(view) == sorted(view), spec.name
        for row in view.values():
            assert row and list(row) == sorted(row), spec.name
            assert all(x and (type(x) is int or x.denominator != 1)
                       for x in row.values()), spec.name


def test_from_pairs_fills_each_transpose_by_super_skew_symmetry():
    # [e1, e2] even-odd, [e2, e3] odd-odd, [e2, e2] an odd diagonal
    ident = Matrix.identity(3)
    spec = AlgebraSpec.from_pairs("mixed", (0, 1, 1), ident, {
        (0, 1): (0, 1, 2), (1, 2): (3, 0, 0), (1, 1): (1, 0, 0)})
    z = (0, 0, 0)
    dense = ((z, (0, 1, 2), z),
             ((0, -1, -2), (1, 0, 0), (3, 0, 0)),
             (z, (3, 0, 0), z))
    assert spec == AlgebraSpec("mixed", (0, 1, 1), ident, dense)


def test_the_package_never_builds_the_dense_table():
    for spec in [*(load_builtin(name) for name in BUILTIN), _doubles()[0]]:
        validate.cache_clear()
        solve_space.cache_clear()
        validate(spec)
        for kind in SpaceKind:
            solve_space(spec, kind, 1, 0)
        for check in (check_inclusion_chain, check_bracket_laws, check_qc_structure):
            check(spec, 1)
        ext = build_extended(spec)
        for k in (0, 1):
            verify_phi_properties(ext, k)
            verify_embedding_decomposition(ext, k)
        for pair in solve_space(spec, SpaceKind.QDER, 0, 0).tuples:
            phi(ext, pair, 0)
        for s in (spec, ext.spec):
            if "brackets" in vars(s):
                pytest.fail(f"{s.name}: the dense bracket table was built")
