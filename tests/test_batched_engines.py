"""The batched verifier engines of homlie.spaces against their references.

A law cell forms all its products in one join per component: every
first element times every second one, each side one indexed batch, and
tests only the nonzero ones.  A bracket cell of one basis with itself
forms x_i's brackets only from w = i on, and a law that brackets a kind
with itself skips a cell whose transpose passed.  The twisted Jordan
check forms, per z, every residual at once by a per-z pass, and it walks
the quasicentroid maps only when a basis of their span per degree
already fails, which must happen exactly when the walk over the maps
fails; the basis walk stops at its first nonzero residual.  Whole
reports must be those of the per-pair cells and the per-quadruple engine
kept in ``oracle``, and the first witness must be found where it sits
later in a cell or in a triple, or at a quadruple that holds an odd
map.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import spaces
from homlie.algebra import AlgebraSpec
from homlie.catalog import BUILTIN
from homlie.linalg import Matrix, Subspace, format_matrix
from homlie.randomgen import sample_algebras
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    check_bracket_laws,
    check_qc_structure,
    solve_space,
)
from oracle import (
    from_sparse,
    reference_engine_witness,
    reference_first_product_outside,
    reference_jordan_engine,
    reference_jordan_witness,
)
from test_batched_product import _matrices
from test_boundary import yau_sl2

SEEDS = (0, 1, 2)


def _reports(spec, k_max, strict):
    return [check_bracket_laws(spec, k_max, strict).to_dict(),
            check_qc_structure(spec, k_max, strict).to_dict()]


def _qc_elems(spec, k_max, strict):
    """The quasicentroid maps in the order the check walks them."""
    space = spaces._reader(spec, strict, k_max)
    return list(dict.fromkeys(
        g for k in range(k_max + 1) for th in (0, 1)
        for g, in space(SpaceKind.QC, k, th)._first_view[1]))


def assert_matches_references(monkeypatch, spec, k_max, strict):
    """Whole law and QC reports equal those of the reference engines, the
    law cells replaced by per-pair ones, and the Jordan engine's first
    witness on the walked maps is the per-quadruple engine's."""
    batched = _reports(spec, k_max, strict)
    elems = _qc_elems(spec, k_max, strict)
    assert (spaces._jordan_witness(spec.alpha, elems)
            == reference_engine_witness(spec.alpha, elems)), spec.name
    with monkeypatch.context() as m:
        m.setattr(spaces, "_first_product_outside", reference_first_product_outside)
        m.setattr(spaces, "_jordan_witness", reference_engine_witness)
        assert _reports(spec, k_max, strict) == batched, spec.name


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_reports_match_references_on_bundled(bundled, monkeypatch, strict):
    for name in BUILTIN:
        assert_matches_references(monkeypatch, bundled[name], 3, strict)
    assert_matches_references(monkeypatch, yau_sl2(), 3, strict)


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_references_on_random_algebras(monkeypatch, seed):
    specs = sample_algebras(random.Random(seed), 10, n_max=4)
    for spec in specs:
        for strict in (True, False):
            assert_matches_references(monkeypatch, spec, 1, strict)


# --- the Jordan engine: where the first w sits --------------------------------

def _map(view, degree, n=2):
    return GradedMap(from_sparse([view.get(r, {}) for r in range(n)], n),
                     degree)


def test_first_failing_w_is_not_the_first_of_its_degree():
    """All three maps are even; at (0, 0, 1) w = 0 passes and w = 1 fails."""
    alpha = Matrix.from_rows([[1, 0], [0, 0]])
    elems = [_map({1: {0: 2}}, 0), _map({0: {0: 1, 1: 1}}, 0), _map({1: {1: 2}}, 0)]
    assert spaces._jordan_witness(alpha, elems) == (0, 0, 1, 1)
    assert reference_jordan_witness(alpha, elems) == tuple(
        elems[i] for i in (0, 0, 1, 1))
    assert not reference_jordan_engine(alpha, elems)(0, 0, 1, 0)


def test_first_failing_w_is_odd_before_a_failing_even_w():
    """At (0, 0, 0) the odd w = 1 fails and so does the even w = 2 after
    it, so the least w is taken over both degrees."""
    alpha = Matrix.from_rows([[2, 0], [0, 1]])
    elems = [_map({0: {0: -1}, 1: {0: 2}}, 0), _map({0: {1: 1}}, 1),
             _map({0: {0: -1, 1: 2}}, 0)]
    residual = reference_jordan_engine(alpha, elems)
    assert [w for w in range(3) if residual(0, 0, 0, w)] == [1, 2]
    assert spaces._jordan_witness(alpha, elems) == (0, 0, 0, 1)
    assert reference_jordan_witness(alpha, elems) == tuple(
        elems[i] for i in (0, 0, 0, 1))


def test_a_later_z_holds_the_least_pair():
    """z = 0 already fails, but not at (x, y) = (0, 0), and z = 1 fails
    there, so the walk goes on past the first failing z."""
    alpha = Matrix.from_rows([[0, 0], [1, 0]])
    elems = [_map({1: {1: -1}}, 0), _map({0: {1: 1}}, 0), _map({0: {0: 1}}, 0)]
    assert next(spaces._jordan_pass(alpha, elems))
    assert spaces._jordan_witness(alpha, elems) == (0, 0, 1, 1)
    assert reference_jordan_witness(alpha, elems) == tuple(
        elems[i] for i in (0, 0, 1, 1))


def test_basis_first_walk_fails_with_the_walked_witness(monkeypatch):
    """A random nilpotent algebra holds 6 lax QC maps up to kmax 2 that
    span 5 dimensions: the basis fails, and the witness comes from the
    walk of all 6 maps."""
    spec = sample_algebras(random.Random(3), 10, n_max=4)[1]
    elems = _qc_elems(spec, 2, False)
    walked = []
    jordan_pass = spaces._jordan_pass

    def spy(alpha, maps):
        walked.append(len(maps))
        return jordan_pass(alpha, maps)

    monkeypatch.setattr(spaces, "_jordan_pass", spy)
    check = check_qc_structure(spec, 2, False).checks[-1]
    assert walked == [5, 6] and len(elems) == 6
    quad = reference_jordan_witness(spec.alpha, elems)
    assert check.status == "fail" and quad is not None
    assert check.detail == " , ".join(format_matrix(g.matrix) for g in quad)


def test_the_basis_walk_stops_at_its_first_nonzero_residual(monkeypatch):
    """The abelian superalgebra of dimension 1|1 under the identity twist
    holds 4 strict QC maps at kmax 0, whose basis fails at its first z
    already; the basis pass yields no z after that one."""
    spec = AlgebraSpec.from_pairs("abelian1_1", (0, 1), Matrix.identity(2), {})
    calls, jordan_pass = [], spaces._jordan_pass

    def spy(alpha, maps):
        calls.append((maps, []))
        for residual in jordan_pass(alpha, maps):
            calls[-1][1].append(bool(residual))
            yield residual

    monkeypatch.setattr(spaces, "_jordan_pass", spy)
    assert check_qc_structure(spec, 0, True).checks[-1].status == "fail"
    basis, seen = calls[0]
    every = [bool(residual) for residual in jordan_pass(spec.alpha, basis)]
    assert every == [True] * 4 and seen == [True]


# --- the basis walk against the full walk ------------------------------------

def assert_basis_walk_agrees_with_full_walk(monkeypatch, spec, k_max, strict):
    """The check's walk over a basis of the QC span, its first
    ``_jordan_pass``, fails exactly when the walk over every QC map does."""
    walks, jordan_pass = [], spaces._jordan_pass

    def spy(alpha, maps):
        walks.append(any(jordan_pass(alpha, maps)))
        return jordan_pass(alpha, maps)

    with monkeypatch.context() as m:
        m.setattr(spaces, "_jordan_pass", spy)
        check_qc_structure(spec, k_max, strict)
    full = spaces._jordan_witness(spec.alpha, _qc_elems(spec, k_max, strict))
    assert (not walks[0]) == (full is None), spec.name


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_basis_walk_agrees_with_full_walk_on_bundled(bundled, monkeypatch, strict):
    for spec in bundled.values():
        assert_basis_walk_agrees_with_full_walk(monkeypatch, spec, 3, strict)


@pytest.mark.parametrize("seed", range(4))
def test_basis_walk_agrees_with_full_walk_on_random_algebras(monkeypatch, seed):
    for spec in sample_algebras(random.Random(seed), 10, n_max=4):
        for strict in (True, False):
            assert_basis_walk_agrees_with_full_walk(monkeypatch, spec, 1, strict)


def test_a_basis_failing_only_at_mixed_degrees_fails_with_the_reference_witness():
    """The abelian superalgebra of dimension 1|1 under the identity twist:
    its QC is every map, and the Jordan residual is nonzero only where one
    of x, y, w is odd, so no all-even triple of the pass holds the fail."""
    spec = AlgebraSpec.from_pairs("abelian1_1", (0, 1), Matrix.identity(2), {})
    elems = _qc_elems(spec, 1, True)
    residual = reference_jordan_engine(spec.alpha, elems)
    fails = [q for q in itertools.product(range(len(elems)), repeat=4) if residual(*q)]
    assert fails and all(elems[x].degree or elems[y].degree or elems[w].degree
                         for x, y, _, w in fails)
    quad = reference_jordan_witness(spec.alpha, elems)
    check = check_qc_structure(spec, 1, True).checks[-1]
    assert (check.status, check.detail) == (
        "fail", " , ".join(format_matrix(g.matrix) for g in quad))


# --- law cells: a witness later in the cell -----------------------------------

def test_law_witness_at_a_later_w_in_a_wide_cell(ex2_5):
    """lax ex2_5's pairs law at (k=0, s=1), degrees (0, 0), has 9 pairs a
    side and first fails at x = 1, w = 3."""
    space = spaces._reader(ex2_5, False, 1)
    pairs = space(SpaceKind.QDER, 0, 0)._tuple_view[1]
    later = space(SpaceKind.QDER, 1, 0)._tuple_view
    assert len(pairs) == len(later[1]) == 9
    args = (-1, pairs, later[1], later[0])
    assert (spaces._first_product_outside(*args) == (1, 3)
            == reference_first_product_outside(*args))
    # nothing before it leaves the target: not x = 0, nor x = 1 at w < 3
    for a, b in ((pairs[:1], later[1]), (pairs[1:2], later[1][:3])):
        assert reference_first_product_outside(-1, a, b, later[0]) is None


# --- law cells against the per-pair cells, of one basis or of two -----------

def _products(s, x, y):
    return tuple(spaces._product(p, q, s) for p, q in zip(x, y))


@st.composite
def _cells(draw, same):
    """(s, a, b, target): one to four tuples a side, as a ``spaces._Basis``,
    the maps of a side of one degree, even or odd.  When same, b is a, s
    is -1 and the tuples hold 1 or 2 maps; else b is drawn apart, s is -1
    or 0 and the tuples hold 1 or 3 maps.  The target is spanned by the products of the first
    pairs in walk order and by a random tuple, so that cells pass, and
    fail at w = x as at other w, for the first x and later ones."""
    n, arity = draw(st.integers(1, 3)), draw(st.sampled_from((1, 2) if same else (1, 3)))

    def tuples():
        degree = draw(st.integers(0, 1))
        return st.lists(_matrices(n), min_size=arity, max_size=arity).map(
            lambda ms: tuple(GradedMap(m, degree) for m in ms))

    a = spaces._Basis(draw(st.lists(tuples(), min_size=1, max_size=4)))
    b, s = (a, -1) if same else (spaces._Basis(draw(st.lists(tuples(), min_size=1, max_size=4))),
                                 draw(st.sampled_from((-1, 0))))
    spans = [_products(s, x, y) for x in a for y in b][:draw(st.integers(0, len(a) * len(b)))]
    spans += draw(st.lists(tuples(), max_size=1))
    return s, a, b, Subspace._from_sparse(arity * n * n, (spaces._coords(*g) for g in spans))


@settings(max_examples=150, deadline=None)
@given(_cells(same=True))
def test_a_bracket_cell_of_one_basis_finds_the_first_witness(cell):
    assert spaces._first_product_outside(*cell) == reference_first_product_outside(*cell)


@settings(max_examples=150, deadline=None)
@given(_cells(same=False))
def test_a_cell_of_two_bases_finds_the_first_witness(cell):
    assert spaces._first_product_outside(*cell) == reference_first_product_outside(*cell)


@pytest.mark.parametrize("a, x, w", [
    # odd: [x_0, x_0] = 2 x_0^2 = 2 I, the first witness on the diagonal
    (((_map({0: {1: 1}, 1: {0: 1}}, 1),), (_map({0: {1: 1}}, 1),)), 0, 0),
    # even: x_0 = E00 brackets every map to 0, [x_1, x_1] = 0 and
    # [x_1, x_2] = [E11, E12] = E12 is the first witness, past x
    (tuple((_map({r: {c: 1}}, 0, 3),) for r, c in ((0, 0), (1, 1), (1, 2))), 1, 2),
], ids=["w=x", "w>x"])
def test_a_bracket_cell_of_one_basis_fails_at_its_first_pair(a, x, w):
    a, zero = spaces._Basis(a), Subspace.zero(a[0][0].n ** 2)
    assert not _products(-1, a[x], a[w])[0].is_zero()
    assert (spaces._first_product_outside(-1, a, a, zero) == (x, w)
            == reference_first_product_outside(-1, a, a, zero))


# --- cached hashes ------------------------------------------------------------

def test_map_and_space_hashes_are_the_dataclass_hashes(heisenberg3):
    space = solve_space(heisenberg3, SpaceKind.GDER, 1, 0)
    assert hash(space) == hash((space.kind, space.k, space.degree, space.strict,
                                space.n, space.tuples))
    for t in space.tuples:
        for g in t:
            assert hash(g) == hash((g.matrix, g.degree))
            assert vars(g)["_hash"] == hash(g)
    assert "_hash" not in repr(space)
