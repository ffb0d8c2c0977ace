"""The batched product behind both verifier engines of homlie.spaces.

``spaces._batched(p, g, dg, s, sign)`` gives the ``_sparse_sum`` terms of
sign (pg + s (-1)^{|p| dg} gp) for g one map of degree dg per w, held as
rows keyed (w, r).  Row block w of their sum must be sign times
``_product(p, b_w, s)``, and that formula on the dense reference product,
for maps of both degrees, every s and sign, an empty batch and a zero p.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from homlie.algebra import parity_sign
from homlie.linalg import Matrix, _sparse_sum
from homlie.spaces import GradedMap, _batched, _product
from oracle import reference_matmul

_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=4))


def _matrices(n):
    return st.builds(lambda xs: Matrix(n, n, tuple(map(Fraction, xs))),
                     st.lists(_ENTRIES, min_size=n * n, max_size=n * n))


@st.composite
def _cases(draw):
    """(p, the batch's maps, their degree, s, sign): p may be zero, and
    the batch may hold no map."""
    n = draw(st.integers(1, 3))
    p = GradedMap(draw(st.just(Matrix(n, n, (Fraction(0),) * (n * n))) | _matrices(n)),
                  draw(st.integers(0, 1)))
    dg = draw(st.integers(0, 1))
    maps = [GradedMap(m, dg) for m in draw(st.lists(_matrices(n), max_size=3))]
    return p, maps, dg, draw(st.sampled_from((-1, 0, 1))), draw(st.sampled_from((-1, 1)))


@given(_cases())
def test_each_block_is_the_per_pair_product(case):
    p, maps, dg, s, sign = case
    g = {(w, r): row for w, b in enumerate(maps) for r, row in b.matrix._sparse.items()}
    rows = _sparse_sum(*_batched(p, g, dg, s, sign))
    assert all(w < len(maps) for w, _ in rows)
    for w, b in enumerate(maps):
        block = Matrix._of(p.n, p.n, {r: row for (v, r), row in rows.items() if v == w})
        assert block == _product(p, b, s).matrix.scale(sign)
        flipped = reference_matmul(b.matrix, p.matrix).scale(s * parity_sign(p.degree, dg))
        dense = reference_matmul(p.matrix, b.matrix) + flipped
        assert block == dense.scale(sign)
