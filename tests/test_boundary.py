"""Dense ``Fraction`` values at the public boundary, sparse rows inside.

Sparse rows in linalg, spaces and algebra hold integral values as
``int``.  Every value that a public object hands out must still be
exactly a ``Fraction``: ``==`` cannot tell 2 from ``Fraction(2)``, so
these tests assert ``type(x) is Fraction``.  They run on the bundled
algebras and on Yau-twisted sl2, whose twist diag(1, 2, 1/2) makes some
entries non-integral.

A product, a solved tuple and a span's basis map keep only their sparse
view until ``entries`` is first read.  Then they compare, hash, print
and ``dataclasses.replace`` like a twin built dense, with explicit zeros.
"""

import dataclasses
import itertools
import re
from fractions import Fraction

import pytest

from homlie.algebra import (
    AlgebraSpec,
    bracket,
    center,
    derived_subalgebra,
    validate,
)
from homlie.linalg import (
    Matrix,
    Subspace,
    block_diag,
    nullspace,
    rref,
    subspace_intersection,
    subspace_sum,
)
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    compose,
    hom_jordan_residual,
    jordan_product,
    solve_space,
    supercommutator,
)
from oracle import (
    alpha_shift,
    oracle_solve,
    reference_hom_jordan_residual,
    reference_matmul,
    reference_supercommutator,
    unit_vec,
)


def yau_sl2() -> AlgebraSpec:
    """sl2 on (h, e, f) Yau-twisted by diag(1, 2, 1/2): [h, e] = 4 e,
    [h, f] = -f, [e, f] = h."""
    return AlgebraSpec.from_pairs(
        "sl2_2", (0, 0, 0), [[1, 0, 0], [0, 2, 0], [0, 0, "1/2"]],
        {(0, 1): (0, 4, 0), (0, 2): (0, 0, -1), (1, 2): (1, 0, 0)})


@pytest.fixture(scope="module")
def algebras(bundled):
    return {**bundled, "sl2 twisted": yau_sl2()}


def assert_fractions(values):
    bad = [x for x in values if type(x) is not Fraction]
    assert not bad, bad


def assert_map_fractions(maps):
    for g in maps:
        assert_fractions(g.matrix.entries)


def test_maps_and_their_products_read_as_fractions(algebras):
    for spec in algebras.values():
        assert_fractions(spec.alpha.power(2).entries)
        assert_fractions(block_diag(spec.alpha, spec.alpha).entries)
        firsts = []
        for kind, th in itertools.product(SpaceKind, (0, 1)):
            space = solve_space(spec, kind, 1, th)
            for t in space.tuples:
                assert_map_fractions(t)
            span, maps = space._first_view
            assert_fractions(x for row in span.basis for x in row)
            assert_map_fractions(g for g, in maps)
            firsts += [g for g, in maps]
            assert_fractions(x for row in space._tuple_view[0].basis for x in row)
        assert firsts, spec.name
        for a, b in itertools.product(firsts[:6], repeat=2):
            assert_map_fractions((compose(a, b), supercommutator(a, b),
                                  jordan_product(a, b), alpha_shift(spec, a)))
            assert_fractions(a.matrix.matmul(b.matrix).entries)
            assert_fractions(a.matrix.scale(Fraction(3, 2)).entries)
        quad = (firsts * 4)[:4]
        assert_fractions(hom_jordan_residual(spec.alpha, *quad).entries)


def test_subspaces_rref_and_nullspace_read_as_fractions(algebras):
    m = Matrix.from_rows([[2, 4, 0, "2/3"], [1, 2, "1/2", 0], [0, 0, -1, 3]])
    reduced, _, _ = rref(m)
    assert_fractions(reduced.entries)
    spans = [nullspace(m), Subspace.from_vectors(4, [m.row(r) for r in range(3)]),
             Subspace.from_vectors(4, [[0, 3, 0, 0], [0, 0, 0, 2]])]
    spans += [subspace_sum(*spans[1:]), subspace_intersection(*spans[1:])]
    for spec in algebras.values():
        spans += [center(spec), derived_subalgebra(spec)]
        reduced, _, _ = rref(spec.alpha)
        assert_fractions(reduced.entries)
    for s in spans:
        assert_fractions(x for row in s.basis for x in row)


def test_brackets_read_as_fractions(algebras):
    for spec in algebras.values():
        n = spec.n
        for i, j in itertools.product(range(n), repeat=2):
            assert_fractions(bracket(spec, unit_vec(n, i), unit_vec(n, j)))
            assert_fractions(bracket(spec, [1] * n, [j + 1] * n))


def broken_algebras():
    """One table per identity, each with integral and non-integral
    residuals: an odd twist entry and an odd coefficient of an even
    bracket read off the views, a skew pair, a Jacobi and a
    multiplicativity fault."""
    table = [[(Fraction(0),) * 3 for _ in range(3)] for _ in range(3)]
    table[0][0] = (0, 0, Fraction(2))
    table[0][1] = (Fraction(1, 2), 0, 0)
    table[1][0] = (Fraction(1, 2), 0, 0)
    odd = AlgebraSpec("odd", (0, 0, 1), Matrix.from_rows(
        [[1, 0, 3], [0, 2, 0], ["1/2", 0, 1]]), tuple(map(tuple, table)))
    sl2 = yau_sl2()
    twisted = AlgebraSpec.from_pairs("bent", (0, 0, 0), sl2.alpha.scale(2),
                                     {(0, 1): (0, 4, 0), (0, 2): (0, 0, -1),
                                      (1, 2): (2, 0, 0)})
    return odd, twisted


def test_validation_residuals_read_as_fractions():
    seen = set()
    for spec in broken_algebras():
        report = validate(spec)
        for f in report.failures:
            seen.add(f.identity)
            assert_fractions(f.residual)
    assert seen == {"twist evenness", "bracket evenness", "super skew-symmetry",
                    "twisted Jacobi", "multiplicativity"}


def dense_twin(m: Matrix, values) -> Matrix:
    """m built dense from values computed without it, every entry a
    fresh Fraction, explicit zeros included."""
    return Matrix(m.rows, m.cols, tuple(Fraction(x) for x in values))


def assert_lazy_like_twin(m: Matrix, twin: Matrix):
    assert "entries" not in vars(m)
    assert m == twin and twin == m and hash(m) == hash(twin)
    assert "entries" not in vars(m)
    assert repr(m) == repr(twin) and "entries" in vars(m)
    copy = dataclasses.replace(m)
    assert copy == twin and hash(copy) == hash(twin) and repr(copy) == repr(twin)
    assert_fractions(m.entries)


def test_products_solved_tuples_and_span_maps_stay_sparse_until_read():
    spec = yau_sl2()
    n = spec.n
    # uncached calls, so no other test has read these objects
    space = solve_space.__wrapped__(spec, SpaceKind.QDER, 1, 0, True)
    want = oracle_solve(spec, SpaceKind.QDER, 1, 0, True)
    assert len(space.tuples) == len(want) > 1
    for t, flat in zip(space.tuples, want):
        for c, g in enumerate(t):
            twin = dense_twin(g.matrix, flat[c * n * n:(c + 1) * n * n])
            assert_lazy_like_twin(g.matrix, twin)

    span, maps = solve_space.__wrapped__(spec, SpaceKind.DER, 0, 0, True)._first_view
    assert len(maps) == span.dim > 0
    for (g,), row in zip(maps, span.basis):
        assert_lazy_like_twin(g.matrix, dense_twin(g.matrix, row))

    a, b = (GradedMap(Matrix.from_rows(rows), 0) for rows in (
        [[0, 1, 0], [0, 0, 0], ["1/2", 0, 0]], [[0, 0, 0], [2, 0, 0], [0, 0, 3]]))
    for got, want in (
            (supercommutator(a, b).matrix, reference_supercommutator(a, b).matrix),
            (a.matrix.matmul(b.matrix), reference_matmul(a.matrix, b.matrix)),
            (hom_jordan_residual(spec.alpha, a, b, b, a),
             reference_hom_jordan_residual(spec.alpha, a, b, b, a))):
        assert not got.is_zero()
        assert_lazy_like_twin(got, dense_twin(got, want.entries))


@pytest.mark.parametrize("bad", ["1", 1.5, 0.0, None])
def test_dense_constructors_name_an_inexact_entry(bad):
    # an entry that is not an int or Fraction, zero-valued ones included
    word = re.escape(f"not an exact rational: {bad!r}")
    with pytest.raises(TypeError, match=word):
        Matrix(2, 2, (1, Fraction(1, 2), bad, 0))
    with pytest.raises(TypeError, match=word):
        AlgebraSpec("bad", (0, 1), Matrix.identity(2),
                    (((0, 0), (0, bad)), ((0, 0), (0, 0))))


@pytest.mark.parametrize("flag", [True, False])
def test_dense_matrix_rejects_a_bool_entry(flag):
    # bool is an int subclass, and frac rejects it in the same words
    with pytest.raises(TypeError, match=re.escape(f"not an exact rational: {flag!r}")):
        Matrix(2, 2, (1, 0, flag, 1))


@pytest.mark.parametrize("flag", [True, False])
def test_dense_algebra_spec_rejects_a_bool_entry(flag):
    with pytest.raises(TypeError, match=re.escape(f"not an exact rational: {flag!r}")):
        AlgebraSpec("bad", (0, 0), Matrix.identity(2),
                    (((0, 0), (0, flag)), ((0, 0), (0, 0))))


@pytest.mark.parametrize("build", ["dense", "from_pairs"])
def test_constructors_reject_a_repeated_basis_name(build):
    # as the file reader does, naming both indices; ambiguous names would
    # make printed maps and witnesses ambiguous
    names, zero = ("x", "y", "x"), ((0, 0, 0),) * 3
    with pytest.raises(ValueError,
                       match=re.escape("basis name 2 repeats the name 'x' of basis name 0")):
        if build == "dense":
            AlgebraSpec("dup", (0, 0, 0), Matrix.identity(3), (zero,) * 3, names)
        else:
            AlgebraSpec.from_pairs("dup", (0, 0, 0), [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   {}, names)
