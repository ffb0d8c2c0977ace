"""The join behind both verifier engines of homlie.spaces.

``spaces._join(*terms, lo=0)`` sums sign (p g_w + s (-1)^{|p| dg} g_w p)
over terms (sign, p, g, dg, s), for g one map of degree dg per w held as
rows keyed (w, r) and indexed once by ``spaces._index``; its rows are
keyed (w, r), and only w >= lo is formed.  Row block w of one term must
be sign times ``_product(p, b_w, s)``, and that formula on the dense
reference product, for maps of both degrees, every s and sign, an empty
batch and a zero p; several terms must add, down to no row where they
cancel; and an index must serve any number of calls unchanged.
"""

import copy
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from homlie.algebra import parity_sign
from homlie.linalg import Matrix
from homlie.spaces import GradedMap, _index, _join, _product
from oracle import reference_matmul

_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _matrices(n):
    return st.builds(lambda xs: Matrix(n, n, tuple(map(Fraction, xs))),
                     st.lists(_ENTRIES, min_size=n * n, max_size=n * n))


@st.composite
def _cases(draw):
    """(p, a second map q, the batch's maps, their degree, s, sign): p may
    be zero, and the batch may hold no map."""
    n = draw(st.integers(1, 3))
    p, q = (GradedMap(draw(st.just(Matrix(n, n, (Fraction(0),) * (n * n))) | _matrices(n)),
                      draw(st.integers(0, 1))) for _ in range(2))
    dg = draw(st.integers(0, 1))
    maps = [GradedMap(m, dg) for m in draw(st.lists(_matrices(n), max_size=3))]
    return p, q, maps, dg, draw(st.sampled_from((-1, 0, 1))), draw(st.sampled_from((-1, 1)))


def _indexed(maps):
    return _index({(w, r): row for w, b in enumerate(maps) for r, row in b.matrix._sparse.items()})


def _block(rows, n, w):
    return Matrix._of(n, n, {r: row for (v, r), row in rows.items() if v == w})


@given(_cases())
def test_each_block_is_the_per_pair_product(case):
    p, _, maps, dg, s, sign = case
    rows = _join((sign, p, _indexed(maps), dg, s))
    assert all(w < len(maps) for w, _ in rows) and all(rows.values())
    for w, b in enumerate(maps):
        block = _block(rows, p.n, w)
        assert block == _product(p, b, s).matrix.scale(sign)
        flipped = reference_matmul(b.matrix, p.matrix).scale(s * parity_sign(p.degree, dg))
        dense = reference_matmul(p.matrix, b.matrix) + flipped
        assert block == dense.scale(sign)


@given(_cases())
def test_terms_are_summed_and_cancelled_rows_pruned(case):
    p, q, maps, dg, s, sign = case
    g = _indexed(maps)
    rows = _join((sign, p, g, dg, s), (1, q, g, dg, s))
    assert all(rows.values())
    for w, b in enumerate(maps):
        assert _block(rows, p.n, w) == (_product(p, b, s).matrix.scale(sign)
                                        + _product(q, b, s).matrix)
    assert _join((sign, p, g, dg, s), (1, q, g, dg, s), (-sign, p, g, dg, s)) == _join(
        (1, q, g, dg, s))
    assert _join((sign, p, g, dg, s), (-sign, p, g, dg, s)) == {}


@given(_cases(), st.integers(0, 4))
def test_lo_keeps_the_blocks_from_w_equal_lo(case, lo):
    p, _, maps, dg, s, sign = case
    term = (sign, p, _indexed(maps), dg, s)
    assert _join(term, lo=lo) == {(w, r): row for (w, r), row in _join(term).items() if w >= lo}


@given(_cases())
def test_an_index_serves_every_call_unchanged(case):
    p, q, maps, dg, s, sign = case
    g = _indexed(maps)
    kept = copy.deepcopy(g)
    first = _join((sign, p, g, dg, s))
    for x in (q, p):
        for lo in (1, 0):
            rows = _join((sign, x, g, dg, s), lo=lo)
            for w, b in enumerate(maps):
                assert _block(rows, p.n, w) == (
                    _product(x, b, s).matrix.scale(sign) if w >= lo else Matrix._of(p.n, p.n, {}))
    assert _join((sign, p, g, dg, s)) == first and g == kept
