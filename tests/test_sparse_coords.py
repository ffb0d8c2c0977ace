"""Membership on sparse coordinates against the dense walk it replaced.

The verifiers test each formed map tuple by eliminating its nonzeros,
read off the maps' sparse views by ``spaces._coords`` (which must equal
the nonzeros of its dense ``tuple_vector``), against the target's
reduced basis.  ``oracle.reference_first_outside`` is the walk
as it stood: a dense ``tuple_vector`` per cell, tested by ``contains``.
The views are recorded by ``oracle.from_sparse`` and must equal the
ones rescanned from the dense entries; the special cases for empty
input that the general path now covers must give the same zero
subspace.  ``spaces._maps``, the one builder of solved and spanned maps,
must decode each ``_coords`` coordinate of kernel rows, {pivot: row less
its leading 1}, back into (component, row, column), and make of random
kernels the maps read densely off the same rows with their leading 1
written in, each view's rows in the order the kernel row first names
them.  A solve
forms each cell's unit map once and hands it to every component whose
unit row is at that cell, so one map object stands for the cell, and no
two cells share one.
"""

import copy
import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import spaces
from homlie.catalog import load_builtin
from homlie.linalg import (
    Matrix,
    Subspace,
    _nonzeros,
    subspace_intersection,
    vec,
)
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    _coords,
    _first_outside,
    _maps,
    compose,
    jordan_product,
    supercommutator,
)
from oracle import (
    from_sparse,
    full_space,
    reference_first_outside,
    tuple_vector,
)

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = fr.filter(bool)


def sparse_vectors(width):
    """Mostly zero vectors of Q^width, as the verifiers' maps are."""
    return st.dictionaries(st.integers(0, width - 1), nonzero, max_size=4).map(
        lambda d: [d.get(i, Fraction(0)) for i in range(width)])


@st.composite
def graded_maps(draw, n, products=True):
    """A map built densely (its view rescanned), from sparse rows with an
    explicit zero (its view recorded), or as a product of two such maps,
    which is sometimes bent: one entry moved off the product."""
    kinds = ("dense", "sparse", "product", "bent") if products else ("dense", "sparse")
    how = draw(st.sampled_from(kinds))
    degree = draw(st.integers(0, 1))
    values = draw(sparse_vectors(n * n))
    if how == "dense":
        return GradedMap(Matrix(n, n, tuple(values)), degree)
    if how == "sparse":
        return GradedMap(from_sparse(
            [{c: values[r * n + c] for c in reversed(range(n))} for r in range(n)],
            n), degree)
    a, b = draw(graded_maps(n, False)), draw(graded_maps(n, False))
    g = draw(st.sampled_from((compose, supercommutator, jordan_product)))(a, b)
    if how == "bent":
        i = draw(st.integers(0, n * n - 1))
        bent = list(g.matrix.entries)
        bent[i] += draw(nonzero)
        g = GradedMap(Matrix(n, n, tuple(bent)), g.degree)
    return g


@st.composite
def cells(draw):
    """Map tuples of one arity and a target whose stored basis is
    canonical or not: some tuples' vectors and random rows, maybe joined
    by a combination of two of them, scaled and shuffled."""
    n, arity = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    width = arity * n * n
    tuples = draw(st.lists(st.lists(graded_maps(n), min_size=arity, max_size=arity)
                           .map(tuple), max_size=4))
    rows = [list(tuple_vector(t)) for t in tuples if draw(st.booleans())]
    rows += draw(st.lists(sparse_vectors(width), max_size=2))
    if rows and draw(st.booleans()):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        f = draw(fr)
        rows.append([x + f * y for x, y in zip(rows[i], rows[j])])
    rows = [[s * x for x in r] for r, s in zip(
        rows, draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows))))]
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        return tuples, Subspace.from_vectors(width, rows)
    return tuples, Subspace(width, tuple(vec(r) for r in rows))


@settings(max_examples=150, deadline=None)
@given(cells())
def test_first_outside_matches_the_dense_walk(case):
    tuples, target = case
    assert all(_coords(*t) == _nonzeros(tuple_vector(t)) for t in tuples)
    reduced = copy.deepcopy(target._reduced)
    got = _first_outside(target, ((_coords(*t), i) for i, t in enumerate(tuples)))
    assert got == reference_first_outside(
        target, ((tuple_vector(t), i) for i, t in enumerate(tuples)))
    # eliminating a cell's row leaves the target's cached rows as they were
    assert target._reduced == reduced


def test_first_outside_finds_a_bent_product():
    a = GradedMap(Matrix.from_rows([[0, 1], [0, 0]]), 0)
    b = GradedMap(Matrix.from_rows([[1, 0], [2, 3]]), 1)
    ab, ba = compose(a, b), compose(b, a)
    bent = GradedMap(Matrix(2, 2, ba.matrix.entries[:3] + (Fraction(7),)), 1)
    # a scaled, non-canonical basis holding ab and ba but not the bent ba
    target = Subspace(4, (tuple(2 * x for x in ab.matrix.entries), ba.matrix.entries))
    tuples = [(ab,), (ba,), (bent,), (ab,)]
    got = _first_outside(target, ((_coords(*t), i) for i, t in enumerate(tuples)))
    assert got == 2 == reference_first_outside(
        target, ((tuple_vector(t), i) for i, t in enumerate(tuples)))


def _leading_one(t):
    """(pivot, t scaled so that its first nonzero coordinate is 1)."""
    coords = _coords(*t)
    p = min(coords)
    return p, tuple(GradedMap(g.matrix.scale(Fraction(1) / coords[p]), g.degree) for g in t)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 1), st.data())
def test_maps_inverts_coords_and_hands_back_zero(n, arity, degree, data):
    """Tuples of ``arity`` maps, zero ones among them, come back equal from
    the kernel form of their ``_coords``, {pivot: row less its leading 1},
    each scaled to lead with 1 and keyed in any order, one per pivot; every
    zero map is the caller's ``zero``.  A zero tuple has no kernel row."""
    tuples = [tuple(GradedMap(Matrix(n, n, tuple(v)), degree) for v in t)
              for t in data.draw(st.lists(st.lists(sparse_vectors(n * n), min_size=arity,
                                                    max_size=arity), max_size=3))]
    scaled = dict(_leading_one(t) for t in reversed(tuples) if any(_coords(*t)))
    kernel = {}
    for p in data.draw(st.permutations(sorted(scaled))):
        kernel[p] = _coords(*scaled[p])
        assert kernel[p].pop(p) == 1
    zero = GradedMap(Matrix(n, n, (0,) * (n * n)), degree)
    got = _maps(kernel, arity, zero)
    assert got == tuple(scaled[p] for p in sorted(scaled))
    assert all((h is zero) == g.is_zero() for p, back in zip(sorted(scaled), got)
               for g, h in zip(scaled[p], back))


def places(arity, n):
    """Every (c, m, l) of ``arity`` n x n maps, indexed by its ``_coords``
    coordinate (c n + m) n + l."""
    return list(itertools.product(range(arity), range(n), range(n)))


def decoded(kernel, arity, n, degree):
    """One tuple of ``arity`` dense n x n maps per kernel row, in pivot
    order: the row's stacked entries, its leading 1 written in at the pivot."""
    out = []
    for p, row in sorted(kernel.items()):
        v = [0] * (arity * n * n)
        for i, x in {p: 1, **row}.items():
            v[i] = x
        out.append(tuple(GradedMap(Matrix(n, n, tuple(v[c * n * n:(c + 1) * n * n])), degree)
                         for c in range(arity)))
    return tuple(out)


@st.composite
def kernels(draw):
    """(kernel, arity, zero): rows {pivot: row less its leading 1} over the
    ``_coords`` coordinates of ``arity`` n x n maps, pivots in any order,
    each row over coordinates past its pivot that no row leads, often none
    (a unit row); the coordinates used may leave whole components out."""
    n, arity, degree = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 1))
    used = sorted(draw(st.lists(st.integers(0, arity * n * n - 1), unique=True)))
    pivots = draw(st.lists(st.sampled_from(used), unique=True)) if used else []
    kernel = {}
    for p in pivots:
        free = [i for i in used if i > p and i not in pivots]
        kernel[p] = draw(st.dictionaries(st.sampled_from(free), nonzero, max_size=3)
                         if free else st.just({}))
    return kernel, arity, GradedMap(Matrix(n, n, (0,) * (n * n)), degree)


@settings(max_examples=150, deadline=None)
@given(kernels())
def test_maps_of_a_kernel_match_the_reference(case):
    """The maps read off kernel rows equal those read densely off the rows
    with their leading 1 written in, each view's rows in the order that the
    leading 1, then the row, first names them; every zero map is the
    caller's."""
    kernel, arity, zero = case
    n = zero.n
    got = _maps(kernel, arity, zero)
    assert got == decoded(kernel, arity, n, zero.degree)
    for (p, row), t in zip(sorted(kernel.items()), got):
        for c, g in enumerate(t):
            assert list(g.matrix._sparse) == list(dict.fromkeys(
                i // n % n for i in (p, *row) if i // (n * n) == c))
            assert (g is zero) == g.is_zero() and g.degree == zero.degree


def test_a_solve_forms_one_unit_map_per_cell():
    """heisenberg3's strict GDer at k = 0 has unit rows at one cell in two or
    three components: they hold one map, distinct maps hold distinct views,
    and the tuples are those read densely off the kernel rows."""
    space = spaces.solve_space.__wrapped__(load_builtin("heisenberg3"), SpaceKind.GDER, 0, 0, True)
    (kernel, tuples), where = space._kernel, places(space.arity, space.n)
    units = {}
    for t, (p, row) in zip(tuples, sorted(kernel.items())):
        if not row:
            c, m, l = where[p]
            units.setdefault((m, l), []).append(t[c])
    assert any(len(maps) > 1 for maps in units.values())
    assert all(g is maps[0] for maps in units.values() for g in maps)
    nonzero = {id(g): g for t in tuples for g in t if not g.is_zero()}.values()
    assert len({id(g.matrix._sparse) for g in nonzero}) == len(nonzero)
    assert tuples == decoded(kernel, space.arity, space.n, space.degree)


# 0 in every accepted form, and nonzeros as int, "p/q" string and Fraction
values = st.sampled_from((0, "0", Fraction(0), 3, -1, "2/3", "-5", Fraction(-7, 4)))


@given(st.integers(0, 4).flatmap(lambda cols: st.tuples(st.just(cols), st.lists(
    st.dictionaries(st.integers(0, cols - 1), values) if cols else st.just({}),
    max_size=4))))
def test_from_sparse_records_the_rescanned_view(case):
    cols, data = case
    m = from_sparse(data, cols)
    want = Matrix(m.rows, m.cols, m.entries)._sparse
    assert m._sparse == want and list(m._sparse) == list(want)
    # the caller's dicts are not shared with the view
    for row in data:
        row.clear()
        if cols:
            row[0] = 99
    assert m._sparse == want


def test_empty_inputs_give_the_zero_subspace():
    for n in (0, 1, 3):
        zero = Subspace.zero(n)
        assert Subspace.from_vectors(n, []) == zero
        for other in (zero, full_space(n),
                      Subspace(n, tuple((Fraction(2),) * n for _ in range(n > 0)))):
            assert subspace_intersection(zero, other) == zero
            assert subspace_intersection(other, zero) == zero
