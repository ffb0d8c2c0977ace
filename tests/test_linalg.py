from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.linalg import (
    Matrix,
    Subspace,
    contains,
    frac,
    nullspace,
    rank,
    rref,
    subspace_intersection,
    subspace_sum,
    vec,
)

from oracle import full_space, reference_matvec, unit_vec, zero_matrix

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(1, max_cols))
    entries = draw(st.lists(fr, min_size=r * c, max_size=r * c))
    return Matrix(r, c, tuple(entries))


@st.composite
def subspaces(draw, ambient=4, max_gens=4):
    count = draw(st.integers(0, max_gens))
    gens = [draw(st.lists(fr, min_size=ambient, max_size=ambient))
            for _ in range(count)]
    return Subspace.from_vectors(ambient, gens)


def test_frac_parsing():
    assert frac("3/2") == Fraction(3, 2)
    assert frac("-7") == Fraction(-7)
    assert frac(4) == Fraction(4)
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(ValueError):
        frac("1/0")
    assert frac("+3") == 3 and frac("-3/4") == Fraction(-3, 4)


@pytest.mark.parametrize("text", ["1e5", "1.5", "1e1000000", " 1", "1_000",
                                  "1/-2", "", "inf", "nan"])
def test_frac_rejects_non_p_q_literals(text):
    with pytest.raises(ValueError, match="bad rational literal"):
        frac(text)


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    reduced, pivots, rk = rref(m)
    assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)
    assert rk == 1


def test_rref_identity_fixed_point():
    m = Matrix.identity(3)
    reduced, _, rk = rref(m)
    assert reduced == m
    assert rk == 3


def test_rref_fractional_pivot():
    m = Matrix.from_rows([["1/2", 1], [1, 3]])
    reduced, _, rk = rref(m)
    assert reduced == Matrix.identity(2)
    assert rk == 2


@given(matrices())
def test_rref_idempotent(m):
    reduced, pivots, rk = rref(m)
    again, pivots2, rk2 = rref(reduced)
    assert again == reduced
    assert (pivots, rk) == (pivots2, rk2)


def test_nullspace_zero_map():
    assert nullspace(zero_matrix(2, 3)).dim == 3


def test_nullspace_identity():
    assert nullspace(Matrix.identity(4)).is_zero()


def test_nullspace_single_row():
    ns = nullspace(Matrix.from_rows([[1, 2, 3]]))
    assert ns.dim == 2
    for v in ns.basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


@given(matrices())
def test_nullspace_residual(m):
    ns = nullspace(m)
    assert ns.dim == m.cols - rank(m)
    for v in ns.basis:
        assert all(x == 0 for x in reference_matvec(m, v))


def test_sum_of_axes():
    n = 3
    a = Subspace.from_vectors(n, [unit_vec(n, 0)])
    b = Subspace.from_vectors(n, [unit_vec(n, 1)])
    assert subspace_sum(a, b) == Subspace.from_vectors(
        n, [unit_vec(n, 0), unit_vec(n, 1)])


def test_sum_skew_generators():
    a = Subspace.from_vectors(2, [[1, 1]])
    b = Subspace.from_vectors(2, [[1, -1]])
    assert subspace_sum(a, b) == full_space(2)


@given(subspaces())
def test_sum_idempotent(v):
    assert subspace_sum(v, v) == v


def test_intersection_examples():
    n = 3
    e = [unit_vec(n, i) for i in range(n)]
    a = Subspace.from_vectors(n, [e[0], e[1]])
    b = Subspace.from_vectors(n, [e[1], e[2]])
    assert subspace_intersection(a, b) == Subspace.from_vectors(n, [e[1]])
    assert subspace_intersection(
        Subspace.from_vectors(n, [e[0]]),
        Subspace.from_vectors(n, [e[1]])).is_zero()


@given(subspaces(), subspaces())
@settings(max_examples=60)
def test_dimension_formula(a, b):
    inter = subspace_intersection(a, b)
    assert a.dim + b.dim == subspace_sum(a, b).dim + inter.dim
    # the intersection lies in both: adding it to either changes nothing
    assert subspace_sum(inter, a) == a and subspace_sum(inter, b) == b


@given(subspaces())
def test_self_intersection(v):
    assert subspace_intersection(v, v) == v


def test_contains_examples():
    s = Subspace.from_vectors(3, [[1, 0, 2], [0, 1, 1]])
    assert contains(s, [0, 0, 0])
    assert not contains(s, unit_vec(3, 2))
    combo = vec([2, -3, 2 * 2 - 3 * 1])
    assert contains(s, combo)


@given(subspaces(), st.lists(fr, min_size=2, max_size=2))
def test_contains_linear_combination(s, coeffs):
    if s.dim < 2:
        return
    a, b = coeffs
    v = [a * x + b * y for x, y in zip(s.basis[0], s.basis[1])]
    assert contains(s, v)


def test_canonical_equality():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 2, 0]])
    b = Subspace.from_vectors(3, [[3, 0, 0], [5, 7, 0]])
    assert a == b


def test_ambient_mismatch_raises():
    a = full_space(2)
    b = full_space(3)
    with pytest.raises(ValueError):
        subspace_sum(a, b)
    with pytest.raises(ValueError):
        subspace_intersection(a, b)
    with pytest.raises(ValueError):
        contains(a, [1, 0, 0])


def test_equal_objects_hash_equal_and_cache_it():
    m = Matrix.from_rows([[1, "1/2"], [0, 3]])
    twin = Matrix(2, 2, (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(3)))
    assert m == twin and hash(m) == hash(twin)
    assert hash(m) == hash((m.rows, m.cols, m.entries))
    a = Subspace.from_vectors(3, [[1, 2, 0], [0, 1, 1]])
    b = Subspace.from_vectors(3, [[2, 4, 0], [1, 3, 1]])
    assert a == b and hash(a) == hash(b)
    assert {m: 1}[twin] == 1 and {a: 1}[b] == 1
    # computed once per object
    assert "_hash" in vars(m) and "_hash" in vars(a)
