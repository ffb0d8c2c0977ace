"""The join behind both verifier engines of homlie.spaces.

``spaces._join(*terms, skew=False)`` sums sign (p_i g_w + s (-1)^{|p_i||g_w|}
g_w p_i) over terms (sign, p, odd, g, s), for p a batch of maps p_i held as
rows keyed (i, k), odd the i of its maps of degree 1, and g one of maps g_w
held as rows keyed (w, r) and indexed once by ``spaces._index`` with the w of
its odd maps; its rows are keyed (i, w, r), and with skew only w >= i is
formed.  Each map's degree is drawn on its own, so a batch mixes degrees.
Block (i, w) of one term must be sign times ``_product(p_i, g_w, s)``, and
that formula on the dense reference product, for every s and sign, empty
batches and zero maps; several terms must add, down to no row where they
cancel; and an index must serve any number of calls unchanged, its signed
column table the unsigned one itself when no map is odd.
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
    """(a left batch, a second one, the right batch, s, sign): each batch a
    list of up to three maps, each of a degree drawn on its own, zero maps
    among them, and any batch may hold no map."""
    n = draw(st.integers(1, 3))
    zero = st.just(Matrix(n, n, (Fraction(0),) * (n * n)))

    def batch():
        return [GradedMap(m, draw(st.integers(0, 1)))
                for m in draw(st.lists(zero | _matrices(n), max_size=3))]

    return (batch(), batch(), batch(), draw(st.sampled_from((-1, 0, 1))),
            draw(st.sampled_from((-1, 1))))


def _rows(maps):
    return {(w, r): row for w, b in enumerate(maps) for r, row in b.matrix._sparse.items()}


def _odd(maps):
    return {w for w, b in enumerate(maps) if b.degree}


def _term(sign, left, right, s):
    return sign, _rows(left), _odd(left), _index(_rows(right), _odd(right)), s


def _block(rows, n, i, w):
    return Matrix._of(n, n, {r: row for (u, v, r), row in rows.items() if (u, v) == (i, w)})


@given(_cases())
def test_each_block_is_the_per_pair_product(case):
    left, _, right, s, sign = case
    rows = _join(_term(sign, left, right, s))
    assert all(i < len(left) and w < len(right) for i, w, _ in rows) and all(rows.values())
    for i, p in enumerate(left):
        for w, b in enumerate(right):
            block = _block(rows, p.n, i, w)
            assert block == _product(p, b, s).matrix.scale(sign)
            flipped = reference_matmul(b.matrix, p.matrix).scale(
                s * parity_sign(p.degree, b.degree))
            dense = reference_matmul(p.matrix, b.matrix) + flipped
            assert block == dense.scale(sign)


@given(_cases())
def test_terms_are_summed_and_cancelled_rows_pruned(case):
    left, other, right, s, sign = case
    terms = [_term(x, batch, right, s)
             for x, batch in ((sign, left), (1, other), (-sign, left))]
    rows = _join(*terms[:2])
    assert all(rows.values())
    for i in range(max(len(left), len(other))):
        for w, b in enumerate(right):
            want = Matrix._of(b.n, b.n, {})
            if i < len(left):
                want += _product(left[i], b, s).matrix.scale(sign)
            if i < len(other):
                want += _product(other[i], b, s).matrix
            assert _block(rows, b.n, i, w) == want
    assert _join(*terms) == _join(terms[1])
    assert _join(terms[0], terms[2]) == {}


@given(_cases())
def test_skew_keeps_the_blocks_from_w_equal_i(case):
    """The bound w >= i, on a batch joined with itself and with another:
    block (i, w) is the per-pair product from w = i on, and empty before."""
    left, _, right, s, sign = case
    for other in (left, right):
        rows = _join(_term(sign, left, other, s), skew=True)
        assert all(w >= i for i, w, _ in rows)
        for i, p in enumerate(left):
            for w, b in enumerate(other[i:], i):
                assert _block(rows, p.n, i, w) == _product(p, b, s).matrix.scale(sign)


@given(_cases())
def test_an_index_serves_every_call_unchanged(case):
    left, other, right, s, sign = case
    g = _index(_rows(right), _odd(right))
    _, cols, flip = g
    assert (flip is cols) == (not _odd(right))
    assert flip == {c: [(w, r, -x if right[w].degree else x) for w, r, x in col]
                    for c, col in cols.items()}
    kept = copy.deepcopy(g)
    first = _join((sign, _rows(left), _odd(left), g, s))
    for batch in (other, left):
        for skew in (True, False):
            rows = _join((sign, _rows(batch), _odd(batch), g, s), skew=skew)
            for i, p in enumerate(batch):
                for w, b in enumerate(right):
                    assert _block(rows, p.n, i, w) == (
                        _product(p, b, s).matrix.scale(sign) if w >= i or not skew
                        else Matrix._of(p.n, p.n, {}))
    assert _join((sign, _rows(left), _odd(left), g, s)) == first and g == kept
