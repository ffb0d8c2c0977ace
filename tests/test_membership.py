"""Membership and canonical form on any basis.

A ``Subspace`` reduces the basis it is given, by ``linalg._reduce``,
and keeps only the canonical reduced rows.  So ``contains`` must agree
with a rank test on the dense reference elimination for any basis:
scaled, unordered, dependent or zero rows.  Any two bases of one
subspace give equal objects with equal hashes, ``dim`` is the reference
rank, and ``basis`` is the reference RREF, exactly as ``Fraction``s.
"""

import copy
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from homlie import spaces
from homlie.linalg import Matrix, Subspace, contains, subspace_intersection
from homlie.spaces import SpaceKind, check_bracket_laws
from oracle import alpha_shift, reference_rref
from test_laws import K_MAX, _with_fault

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = fr.filter(bool)
entries = st.one_of(st.just(Fraction(0)), fr)


@st.composite
def bases_and_vectors(draw):
    """A basis of Q^n, n <= 5, as stored, and a vector in its span that
    is sometimes pushed off.  The rows are random or canonical, then
    maybe joined by a combination of two of them, scaled and shuffled."""
    n = draw(st.integers(1, 5))
    rows = [list(r) for r in draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), max_size=4))]
    if draw(st.booleans()):
        rows = [list(r) for r in Subspace.from_vectors(n, rows).basis]
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        f, g = draw(fr), draw(fr)
        rows.append([f * x + g * y for x, y in zip(rows[i], rows[j])])
    rows = [[s * x for x in r] for r, s in zip(
        rows, draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows))))]
    rows = draw(st.permutations(rows))
    coeffs = draw(st.lists(fr, min_size=len(rows), max_size=len(rows)))
    v = [sum((c * r[i] for c, r in zip(coeffs, rows)), Fraction(0)) for i in range(n)]
    if draw(st.booleans()):
        v = [x + y for x, y in zip(v, draw(st.lists(entries, min_size=n, max_size=n)))]
    return n, rows, v


def _rank(n, rows):
    return reference_rref(Matrix.from_rows(rows, n))[2] if rows else 0


def _reference_basis(n, rows):
    """The nonzero rows of the dense reference RREF."""
    if not rows:
        return ()
    reduced, _, rank = reference_rref(Matrix.from_rows(rows, n))
    return tuple(reduced.row(r) for r in range(rank))


@example((2, [[2, 0]], [2, 0]))
@example((2, [[0, 1], [1, 0], [1, 1]], [3, -1]))
@given(bases_and_vectors())
def test_contains_matches_a_rank_test_on_any_basis(case):
    n, rows, v = case
    s = Subspace(n, tuple(rows))
    reduced = copy.deepcopy(s._reduced)
    want = _rank(n, rows + [v]) == _rank(n, rows)
    # twice on one object: a test must leave the stored rows as they were
    assert contains(s, v) == want and contains(s, v) == want
    assert s._reduced == reduced and s.basis == _reference_basis(n, rows)


def test_membership_accepts_a_scaled_basis_of_integers():
    assert contains(Subspace(2, ((2, 0),)), (2, 0))
    assert not contains(Subspace(2, ((2, 0),)), (0, 1))
    # the reduced rows stay exact: 1/3 is not rounded through a float
    assert contains(Subspace(2, ((3, 1),)), (5, Fraction(5, 3)))
    # the basis is reduced on construction, so both routes give one subspace
    assert Subspace(2, ((2, 0),)) == Subspace.from_vectors(2, [(2, 0)])
    assert Subspace(2, ((2, 0),)).basis == ((1, 0),)


def test_a_dependent_row_adds_no_dimension():
    assert Subspace(2, ((1, 0), (2, 0))).dim == 1


def test_a_zero_row_spans_the_zero_subspace():
    assert Subspace(2, ((0, 0),)).is_zero()


def test_a_rescaled_basis_gives_an_equal_subspace():
    a, b = Subspace(2, ((2, 0),)), Subspace(2, ((1, 0),))
    assert a == b and hash(a) == hash(b)
    # another line of Q^2, or the same line in Q^3, is another subspace
    assert a != Subspace(2, ((1, 1),)) and a != Subspace(3, ((1, 0, 0),))


def test_the_hash_ignores_the_order_in_which_reduced_rows_were_built():
    # two spanning lists of one subspace whose reduction leaves pivot
    # row 0 with its entries inserted in opposite orders
    a = Subspace(5, ((1, 1, 0, 0, -1), (1, 2, 0, -1, -1), (0, -1, 1, -1, 0)))
    b = Subspace(5, ((4, 7, -1, -1, -4), (1, 2, 0, -1, -1), (2, 1, 1, -1, -2)))
    assert [list(a._reduced[0]), list(b._reduced[0])] == [[4, 3], [3, 4]]
    assert a == b and hash(a) == hash(b)


def test_intersection_of_a_dependent_basis_keeps_the_dimension_formula():
    zero = Subspace.zero(2)
    assert subspace_intersection(Subspace(2, ((1, 0), (2, 0))), zero) == zero


@st.composite
def spanning_lists(draw):
    """A basis of a subspace of Q^n, n <= 5, with distinct leading
    columns, and a second list spanning the same subspace: the basis
    recombined by an invertible L U, L and U unit triangular, each row
    rescaled, then dependent and zero rows appended and all shuffled."""
    n = draw(st.integers(1, 5))
    leads = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    basis = [[Fraction(0)] * p + [draw(nonzero)]
             + draw(st.lists(entries, min_size=n - p - 1, max_size=n - p - 1))
             for p in leads]
    d = len(basis)
    lower = [[1 if i == j else draw(fr) if j < i else 0 for j in range(d)]
             for i in range(d)]
    upper = [[1 if i == j else draw(fr) if j > i else 0 for j in range(d)]
             for i in range(d)]
    mixed = [[sum((lower[i][t] * upper[t][j] for t in range(d)), Fraction(0))
              for j in range(d)] for i in range(d)]
    rows = [[sum((c * b[x] for c, b in zip(coeffs, basis)), Fraction(0))
             for x in range(n)] for coeffs in mixed]
    rows = [[s * x for x in r] for r, s in zip(
        rows, draw(st.lists(nonzero, min_size=d, max_size=d)))]
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(fr, min_size=d, max_size=d))
        rows.append([sum((c * b[x] for c, b in zip(coeffs, basis)), Fraction(0))
                     for x in range(n)])
    rows += [[Fraction(0)] * n] * draw(st.integers(0, 2))
    return n, basis, draw(st.permutations(rows))


@example((2, [[1, 0]], [[1, 0], [2, 0]]))
@example((2, [], [[0, 0]]))
@example((2, [[2, 0]], [[1, 0]]))
@given(spanning_lists())
def test_any_spanning_list_gives_the_canonical_subspace(case):
    n, basis, rows = case
    a, b = Subspace(n, tuple(basis)), Subspace(n, tuple(rows))
    assert a == b and hash(a) == hash(b)
    assert b.dim == _rank(n, rows) == len(basis)
    assert b.basis == _reference_basis(n, rows)
    assert all(type(x) is Fraction for row in b.basis for x in row)


def test_shift_law_holds_on_equally_bent_levels(heisenberg3, monkeypatch):
    # ZDer's first basis map is bent at every level, so its stored bases
    # are not canonical; heisenberg3's twist is the identity, so the
    # shifted bent tuple is itself the first basis tuple at k = 1
    monkeypatch.setattr(spaces, "solve_space", _with_fault(SpaceKind.ZDER))
    bent = spaces.solve_space(heisenberg3, SpaceKind.ZDER, 0).tuples[0]
    target = spaces.solve_space(heisenberg3, SpaceKind.ZDER, 1).tuples[0]
    assert tuple(alpha_shift(heisenberg3, g) for g in bent) == target
    check = {c.name: c for c in check_bracket_laws(heisenberg3, K_MAX).checks}[
        "shift ZDer: k=0 -> 1 (deg=0)"]
    assert (check.status, check.detail) == ("pass", "")
