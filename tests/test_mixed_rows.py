"""The sparse kernels on rows that mix ``int`` and ``Fraction`` values.

Sparse rows hold integral values as ``int`` and the rest as
``Fraction``.  ``_reduce``, ``nullspace``, ``_sparse_sum`` and
``contains`` must agree with the dense references in ``oracle`` on such
rows, with pivots of 1 and -1 (no inverse taken), other integer pivots
and fractional ones, and what they leave in sparse rows must again hold
every integral value as an ``int``.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlie.linalg import (
    Matrix,
    Subspace,
    _reduce,
    _sparse_sum,
    contains,
    nullspace,
)
from oracle import (
    reference_matmul,
    reference_nullspace,
    reference_rref,
    reference_span,
    zero_matrix,
)

# +-1 often, so that unit pivots are common; integral values as int
unit = st.sampled_from((1, -1))
integer = st.integers(-4, 4).filter(bool)
fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
    lambda x: x.denominator != 1)
value = st.one_of(unit, integer, fraction)


def rows_of(width, max_rows=6):
    return st.lists(st.dictionaries(st.integers(0, width - 1), value, max_size=width),
                    max_size=max_rows) if width else st.lists(st.just({}), max_size=2)


cases = st.integers(0, 6).flatmap(lambda w: st.tuples(st.just(w), rows_of(w)))

# leading entries 1, -1, 3 and 2/3, each row with int and Fraction values
PIVOTS = (4, [{0: 1, 2: Fraction(1, 2), 3: 2}, {1: -1, 2: 3, 3: Fraction(-2, 3)},
              {0: 3, 1: 1, 3: Fraction(5, 4)}, {2: Fraction(2, 3), 3: -2}])


def dense(width, rows):
    return [[Fraction(row.get(c, 0)) for c in range(width)] for row in rows]


def assert_held_as_int(rows):
    for row in rows:
        for x in row.values():
            assert x and type(x) is (int if x.denominator == 1 else Fraction), x


@example(PIVOTS)
@given(cases)
def test_reduce_matches_the_dense_rref(case):
    width, rows = case
    done = _reduce([dict(r) for r in rows])
    reduced, pivots, rank = reference_rref(Matrix.from_rows(dense(width, rows), width))
    assert tuple(sorted(done)) == pivots
    for i, p in enumerate(pivots):
        want = {c: x for c, x in enumerate(reduced.row(i)) if x and c != p}
        assert done[p] == want
    assert_held_as_int(done.values())


@example(PIVOTS)
@given(cases)
def test_nullspace_matches_the_dense_reference(case):
    width, rows = case
    m = Matrix._of(len(rows), width, {i: dict(r) for i, r in enumerate(rows) if r})
    got = nullspace(m)
    assert got == reference_nullspace(Matrix.from_rows(dense(width, rows), width))
    assert all(type(x) is Fraction for row in got.basis for x in row)
    assert_held_as_int(got._reduced.values())


def draw_map(data, rows, cols):
    """An r x c map as {row: {col: nonzero}}, empty rows kept."""
    entry = st.dictionaries(st.integers(0, cols - 1), value, max_size=cols) \
        if cols else st.just({})
    return dict(enumerate(data.draw(st.lists(entry, min_size=rows, max_size=rows))))


@settings(max_examples=150)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_sparse_sum_matches_the_dense_products(rows, inner, cols, data):
    """sign * a b summed over one to three terms, against the dense loop."""
    terms, want = [], zero_matrix(rows, cols)
    for _ in range(data.draw(st.integers(1, 3))):
        sign, a, b = data.draw(unit), draw_map(data, rows, inner), draw_map(data, inner, cols)
        terms.append((sign, a, b))
        product = reference_matmul(Matrix.from_rows(dense(inner, a.values()), inner),
                                   Matrix.from_rows(dense(cols, b.values()), cols))
        want = want + product.scale(sign)
    got = _sparse_sum(*terms)
    assert Matrix._of(rows, cols, got) == want
    assert all(got.values())
    assert_held_as_int(got.values())


@example((PIVOTS, {0: 1, 1: -1, 2: Fraction(7, 2), 3: Fraction(-26, 3)}))
@example((PIVOTS, {0: 2, 1: Fraction(1, 3)}))
@given(cases.flatmap(lambda case: st.tuples(st.just(case), st.dictionaries(
    st.integers(0, max(case[0] - 1, 0)), value, max_size=case[0]))))
def test_contains_matches_the_dense_rank_test(case):
    (width, rows), v = case
    vector = [v.get(c, 0) for c in range(width)]
    span = Subspace._from_sparse(width, [dict(r) for r in rows])
    assert span == reference_span(width, dense(width, rows))
    stacked = Matrix.from_rows(dense(width, rows) + [vector], width)
    assert contains(span, vector) == (reference_rref(stacked)[2] == span.dim)
