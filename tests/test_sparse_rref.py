"""The sparse ``rref`` against the dense Gauss-Jordan it replaced.

``oracle.reference_rref`` is the dense loop as it stood, and
``oracle.reference_matmul`` the dense product loop; nullspace and
span are checked against the dense routines built on it, intersection
against the same Zassenhaus rows reduced by it, and all of them against
sympy when sympy can be imported.  The solver is checked at the sizes
the benchmark ladder runs.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlie import linalg, spaces
from homlie.extension import build_extended
from homlie.linalg import (
    Matrix,
    Subspace,
    _columns,
    _nonzeros,
    nullspace,
    rref,
    subspace_intersection,
)
from homlie.spaces import SpaceKind, solve_space

from oracle import (
    col,
    commutation_residuals,
    defining_residuals,
    from_sparse,
    heisenberg,
    reference_matmul,
    reference_nullspace,
    reference_rref,
    reference_span,
    zero_matrix,
)

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# mostly zeros, as in the solver's systems
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fr)


@st.composite
def rational_matrices(draw, max_rows=7, max_cols=7):
    """Random rational matrices, 0x0 up, sometimes with a row that is a
    combination of two others (entries cancel to zero on elimination,
    a duplicate when the combination is trivial) and a zeroed column."""
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    rows = [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]
    if rows and draw(st.booleans()):
        a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        f = draw(fr)
        rows.insert(draw(st.integers(0, r)),
                    [x - f * y for x, y in zip(rows[a], rows[b])])
    if rows and c and draw(st.booleans()):
        col = draw(st.integers(0, c - 1))
        rows = [row[:col] + [0] + row[col + 1:] for row in rows]
    return Matrix.from_rows(rows, c)


EDGE_CASES = (
    Matrix(0, 3, ()),
    Matrix(3, 0, ()),
    Matrix(0, 0, ()),
    zero_matrix(3, 4),
    Matrix.identity(4),
    Matrix.from_rows([[1, 2, 3], [1, 2, 3], [2, 4, 6]]),
    # zero column; the third row is the sum of the first two
    Matrix.from_rows([[1, 1, 0], [1, -1, 0], [2, 0, 0]]),
    # the second row cancels to zero against the first
    Matrix.from_rows([["1/2", "-1/3", 0], ["3/2", -1, 0]]),
    # full row rank with fractional pivots
    Matrix.from_rows([["2/3", 1, 0, 5, -1], [0, "-3/4", 2, 0, 1],
                      [1, 0, 0, "1/2", 0]]),
)


def with_examples(test):
    for m in EDGE_CASES:
        test = example(m)(test)
    return test


@with_examples
@given(rational_matrices())
def test_rref_matches_dense_reference(m):
    reduced, pivots, rk = rref(m)
    want = reference_rref(m)
    assert (reduced, pivots, rk) == want


@with_examples
@given(rational_matrices())
def test_rank_reduces_copies_of_the_rows_without_rref(m):
    """rank is the dense reference's rank by one ``_reduce`` of copied
    rows: the matrix's view is left as it was, and ``rref`` is not run."""
    view = {r: dict(row) for r, row in m._sparse.items()}
    with mock.patch.object(linalg, "rref", side_effect=AssertionError("rref ran")):
        assert linalg.rank(m) == reference_rref(m)[2]
    assert m._sparse == view


@with_examples
@given(rational_matrices())
def test_nullspace_matches_dense_reference(m):
    # on 0 x k, k x 0, zero and full-rank edge cases too
    assert nullspace(m) == reference_nullspace(m)


@st.composite
def sparse_systems(draw):
    """Rows of one to three nonzeros over up to 9 columns, as the solver's
    kernel systems are: the lead of a new pivot row mostly lies in no
    earlier pivot row, and sometimes in one, which must then be cleared."""
    c = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [Fraction(0)] * c
        for at in draw(st.sets(st.integers(0, c - 1), min_size=1, max_size=3)):
            row[at] = draw(fr.filter(bool))
        rows.append(row)
    return Matrix.from_rows(rows, c)


@given(sparse_systems())
@example(Matrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
def test_back_clearing_only_where_a_pivot_row_can_hold_the_lead(m):
    """``_reduce`` clears a new lead from the earlier pivot rows only when its
    running set of their columns holds it: the rows and the kernel stay the
    dense reference's, whether or not a row must be cleared."""
    assert rref(m) == reference_rref(m)
    assert nullspace(m) == reference_nullspace(m)


@given(rational_matrices(), st.data())
def test_kernel_writes_each_unknown_at_its_label(m, data):
    """``_kernel`` of random rows, over columns read reversed, with random
    increasing labels is the dense kernel of those rows with each unknown
    written at its label: pivots and entries alike, and still canonical."""
    labels = sorted(data.draw(st.lists(st.integers(0, 3 * m.cols), unique=True,
                                       min_size=m.cols, max_size=m.cols)))
    rows = [dict(row) for row in m._sparse.values()]
    got = linalg._kernel([dict(row) for row in rows], labels)
    assert got == reference_kernel(rows, labels)
    assert all(u > p and u not in got for p, row in got.items() for u in row)


@with_examples
@given(rational_matrices())
def test_from_vectors_matches_dense_reference(m):
    rows = [m.row(r) for r in range(m.rows)]
    assert Subspace.from_vectors(m.cols, rows) == reference_span(m.cols, rows)


@given(rational_matrices(max_rows=4, max_cols=6), st.data())
@settings(max_examples=60)
def test_intersection_matches_dense_reference(m, data):
    """a and b share some of m's rows, so the intersection is often
    nonzero."""
    rows = [m.row(r) for r in range(m.rows)]
    cut = data.draw(st.integers(0, len(rows)))
    extra = data.draw(st.lists(st.lists(entries, min_size=m.cols, max_size=m.cols),
                               max_size=3))
    a = Subspace.from_vectors(m.cols, rows)
    b = Subspace.from_vectors(m.cols, rows[:cut] + extra)
    got = subspace_intersection(a, b)
    # the same Zassenhaus rows, every elimination done by the dense loop
    with mock.patch.object(linalg, "rref", reference_rref):
        assert got == subspace_intersection(a, b)


@given(rational_matrices())
def test_columns_match_the_dense_columns(m):
    assert _columns(m) == [_nonzeros(col(m, i)) for i in range(m.cols)]


def test_twist_power_columns_match_the_dense_columns(bundled):
    for spec in bundled.values():
        for k in range(4):
            ak = spec.alpha.power(k)
            assert _columns(ak) == [_nonzeros(col(ak, i)) for i in range(ak.cols)]


@given(rational_matrices(max_rows=5, max_cols=5), st.data())
def test_products_match_dense_reference(m, data):
    """matmul sums sparse products; the values are the dense loop's, with
    zero rows, zero columns, empty shapes and a one-column right factor."""
    cols = data.draw(st.integers(0, 5))
    other = Matrix(m.cols, cols, tuple(data.draw(
        st.lists(entries, min_size=m.cols * cols, max_size=m.cols * cols))))
    assert m.matmul(other) == reference_matmul(m, other)
    v = col(other, 0) if cols else (Fraction(0),) * m.cols
    assert m.matmul(Matrix(m.cols, 1, v)) == reference_matmul(m, Matrix(m.cols, 1, v))


@given(rational_matrices(max_rows=5, max_cols=5), st.data())
def test_sums_match_dense_reference(m, data):
    """+ and - sum the views; the values are the entrywise dense sums."""
    other = Matrix(m.rows, m.cols, tuple(data.draw(st.lists(
        entries, min_size=m.rows * m.cols, max_size=m.rows * m.cols))))
    pairs = list(zip(m.entries, other.entries))
    assert m + other == Matrix(m.rows, m.cols, tuple(x + y for x, y in pairs))
    assert m - other == Matrix(m.rows, m.cols, tuple(x - y for x, y in pairs))
    for wide in (m.__add__, m.__sub__):
        with pytest.raises(ValueError, match="shape mismatch"):
            wide(zero_matrix(m.rows, m.cols + 1))


# -- sympy as a third reference ---------------------------------------------

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for x in m.entries])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=60, deadline=None)
@given(m=rational_matrices())
def test_rref_and_nullspace_match_sympy(sympy, m):
    want_r, want_pivots = to_sympy(sympy, m).rref()
    reduced, pivots, rk = rref(m)
    assert reduced.entries == tuple(from_sympy(x) for x in want_r)
    assert (pivots, rk) == (tuple(want_pivots), len(want_pivots))
    kernel = to_sympy(sympy, m).nullspace()
    if kernel:
        canon, _ = sympy.Matrix.hstack(*kernel).T.rref()
        want = tuple(tuple(from_sympy(x) for x in canon.row(i))
                     for i in range(len(kernel)))
    else:
        want = ()
    assert nullspace(m) == Subspace(m.cols, want)


# -- the solver at the benchmark ladder's sizes -------------------------------

@pytest.fixture(scope="module")
def ladder(ex2_5):
    return {"ex2_5 doubled twice": build_extended(build_extended(ex2_5).spec).spec,
            "h7 twisted": heisenberg(3, True)}


class Stacked:
    """One matrix entry of every basis tuple at once, {tuple index: value}.

    The defining identities are linear in the maps, so the oracle's
    residuals evaluated on stacked entries hold every tuple's residual
    in one pass: a residual entry is zero exactly when it is zero for
    every tuple.  Only sums and products with constants may occur.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        if not isinstance(other, Stacked):
            if other:
                raise TypeError("a constant term in a linear residual")
            return self
        out = dict(self.v)
        for t, x in other.v.items():
            y = out.get(t, 0) + x
            if y:
                out[t] = y
            else:
                del out[t]
        return Stacked(out)

    __radd__ = __add__

    def __mul__(self, c):
        if isinstance(c, Stacked):
            raise TypeError("a product of two maps in a linear residual")
        return Stacked({t: x * c for t, x in self.v.items()} if c else {})

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        return not self.v if other == 0 else NotImplemented

    def __repr__(self):
        return f"Stacked({self.v})"


def stacked_maps(space):
    n = space.n
    return [[[Stacked({t: x for t, tup in enumerate(space.tuples)
                       if (x := tup[c].matrix.at(m, l))})
              for l in range(n)] for m in range(n)]
            for c in range(space.arity)]


def reference_kernel(rows, labels):
    """``linalg._kernel`` through ``reference_nullspace``: the rows, over
    columns read reversed, read back in their own order into a matrix,
    and its kernel's unknowns written at their labels."""
    width = len(labels)
    kernel = reference_nullspace(from_sparse(
        [{width - 1 - c: x for c, x in row.items()} for row in rows], width))._reduced
    return {labels[p]: {labels[u]: x for u, x in row.items()} for p, row in kernel.items()}


@pytest.mark.parametrize("strict", (True, False), ids=("strict", "lax"))
@pytest.mark.parametrize("kind", (SpaceKind.DER, SpaceKind.QDER), ids=str)
@pytest.mark.parametrize("name", ("ex2_5 doubled twice", "h7 twisted"))
def test_ladder_spaces_match_dense_reference(ladder, name, kind, strict):
    spec = ladder[name]
    got = solve_space(spec, kind, 1, 0, strict)
    with mock.patch.object(spaces, "_kernel", reference_kernel):
        assert got == solve_space.__wrapped__(spec, kind, 1, 0, strict)
    assert got.tuples
    mats = stacked_maps(got)
    residuals = defining_residuals(spec, kind, 1, 0, mats)
    if strict:
        residuals.append(commutation_residuals(spec, mats))
    bad = next((x for res in residuals for x in res if x != 0), None)
    assert bad is None, bad
