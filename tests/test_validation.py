"""``validate`` on the sparse view of the structure constants.

Five tables built directly, not through ``from_pairs``, each break one
identity; their failures are pinned with indices, residuals and order.
``validate`` must equal ``oracle.reference_validate``, the dense loops
it replaced, on the bundled algebras, seeded random algebras, the
iterated doubles of ex2_5 and Hypothesis tables with injected faults;
``bracket`` must equal ``oracle.brute_bracket``.  Jacobi and
multiplicativity form their products with the view in one sum each,
with no ``_bracket`` call.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from homlie import algebra
from homlie.algebra import AlgebraSpec, IdentityFailure, bracket, validate
from homlie.extension import build_extended
from homlie.linalg import Matrix, vec
from homlie.randomgen import sample_algebras

ORDER = ("twist evenness", "bracket evenness", "super skew-symmetry",
         "twisted Jacobi", "multiplicativity")


def table(n, entries):
    """The dense n x n table with [e_i, e_j] = entries[(i, j)], else 0."""
    rows = [[vec(entries.get((i, j), (0,) * n)) for j in range(n)]
            for i in range(n)]
    return tuple(tuple(r) for r in rows)


def fail(identity, indices, *residual):
    return IdentityFailure(identity, indices, vec(residual))


# the zero twist makes every Jacobi and multiplicativity term vanish
FAULTS = {
    "twist evenness": (
        AlgebraSpec("twist", (0, 1), Matrix.from_rows([[1, 1], [0, 1]]),
                    table(2, {})),
        [fail("twist evenness", (0, 1), 1)]),
    "bracket evenness": (
        AlgebraSpec("graded", (0, 1), oracle.zero_matrix(2, 2),
                    table(2, {(1, 1): (0, 1)})),
        [fail("bracket evenness", (1, 1, 1), 1)]),
    "super skew-symmetry": (
        AlgebraSpec("skew", (0, 0), oracle.zero_matrix(2, 2),
                    table(2, {(0, 1): (1, 0)})),
        [fail("super skew-symmetry", (1, 0), 1, 0),
         fail("super skew-symmetry", (0, 1), 1, 0)]),
    "twisted Jacobi": (
        AlgebraSpec("jacobi", (0, 0, 0), Matrix.identity(3),
                    table(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1),
                              (0, 2): (1, 0, 0), (2, 0): (-1, 0, 0)})),
        [fail("twisted Jacobi", (0, 1, 2), 0, 0, 1),
         fail("twisted Jacobi", (0, 2, 1), 0, 0, -1),
         fail("twisted Jacobi", (1, 0, 2), 0, 0, -1),
         fail("twisted Jacobi", (1, 2, 0), 0, 0, 1),
         fail("twisted Jacobi", (2, 0, 1), 0, 0, 1),
         fail("twisted Jacobi", (2, 1, 0), 0, 0, -1)]),
    "multiplicativity": (
        AlgebraSpec("mult", (0, 0), Matrix.from_rows([[1, 0], [0, 2]]),
                    table(2, {(0, 1): (1, 0), (1, 0): (-1, 0)})),
        [fail("multiplicativity", (0, 1), -1, 0),
         fail("multiplicativity", (1, 0), 1, 0)]),
}


@pytest.mark.parametrize("identity", ORDER)
def test_each_identity_fails_with_its_witnesses(identity):
    spec, failures = FAULTS[identity]
    rep = validate(spec)
    assert list(rep.failures) == failures
    assert rep == oracle.reference_validate(spec)
    flag = {"super skew-symmetry": 0, "twisted Jacobi": 2,
            "multiplicativity": 3}.get(identity, 1)
    assert (rep.skew_ok, rep.even_ok, rep.jacobi_ok,
            rep.multiplicative_ok) == tuple(i != flag for i in range(4))


def test_all_five_faults_in_identity_order():
    spec = AlgebraSpec(
        "everything", (0, 0, 1), Matrix.from_rows([[1, 0, 1], [0, 2, 0], [0, 0, 1]]),
        table(3, {(0, 1): (1, 0, 0), (1, 0): (-1, 0, 0), (0, 2): (1, 0, 0)}))
    rep = validate(spec)
    assert rep == oracle.reference_validate(spec)
    seen = [f.identity for f in rep.failures]
    assert set(seen) == set(ORDER)
    assert seen == sorted(seen, key=ORDER.index)


def test_a_triple_of_one_index_is_its_three_rotations():
    # [e2, e2] = e1 on the odd e2, so J(1, 1, 1) = -[e2, e1] = e2 enters the
    # Jacobi sum at (1, 1, 1) three times, once per rotation
    spec = AlgebraSpec.from_pairs("odd_square", (0, 1), [[1, 0], [0, 1]],
                                  {(1, 1): (1, 0), (0, 1): (0, 1)})
    rep = validate(spec)
    assert rep == oracle.reference_validate(spec)
    assert list(rep.failures) == [
        *(fail("twisted Jacobi", t, -2, 0) for t in ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
        fail("twisted Jacobi", (1, 1, 1), 0, 3)]


def _iterated_doubles(spec, times):
    out = [spec]
    for _ in range(times):
        out.append(build_extended(out[-1]).spec)
    return out


def test_matches_reference_on_bundled_and_doubles(bundled):
    specs = list(bundled.values()) + _iterated_doubles(bundled["ex2_5"], 3)[1:]
    assert [s.n for s in specs[-3:]] == [6, 12, 24]
    for spec in specs:
        assert validate(spec) == oracle.reference_validate(spec), spec.name
    assert not validate(bundled["ex2_5"]).multiplicative_ok


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_matches_reference_on_random_algebras(seed):
    for spec in sample_algebras(random.Random(seed), 8, n_max=4):
        assert validate(spec) == oracle.reference_validate(spec), spec.name


# non-integral entries meet the batched products with Fractions
_ENTRY = st.sampled_from((0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))


@st.composite
def faulty_specs(draw):
    """A super skew table with even coefficients and an even twist, then
    up to three cells bumped: one twist entry and two bracket
    coefficients, which break twist evenness, bracket evenness or skew
    where they land.  Random brackets and twists break Jacobi and
    multiplicativity on their own."""
    n = draw(st.integers(1, 4))
    deg = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    alpha = [[draw(_ENTRY) if deg[r] == deg[c] else 0 for c in range(n)]
             for r in range(n)]
    brackets = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and not deg[i]:
                continue
            want = (deg[i] + deg[j]) % 2
            coeffs = [draw(_ENTRY) if deg[m] == want else 0 for m in range(n)]
            s = -1 if deg[i] * deg[j] else 1
            brackets[i][j] = coeffs
            brackets[j][i] = [-s * x for x in coeffs]
    cell = st.tuples(*[st.integers(0, n - 1)] * 3)
    if draw(st.booleans()):
        r, c, _ = draw(cell)
        alpha[r][c] += 1
    if draw(st.booleans()):
        i, j, m = draw(cell)
        brackets[i][j][m] += 1
    if draw(st.booleans()):
        i, j, m = draw(cell)
        brackets[i][j][m] -= 2
    return AlgebraSpec("drawn", deg, Matrix.from_rows(alpha, n),
                       tuple(tuple(vec(v) for v in row) for row in brackets))


@settings(max_examples=200, deadline=None)
@given(faulty_specs())
def test_matches_reference_on_faulty_tables(spec):
    rep = validate(spec)
    assert rep == oracle.reference_validate(spec)
    assert [f.identity for f in rep.failures] == sorted(
        (f.identity for f in rep.failures), key=ORDER.index)


def test_jacobi_and_multiplicativity_call_no_bracket(monkeypatch, ex2_5):
    """Only skew-symmetry brackets, once per nonzero pair or transpose."""
    specs = [FAULTS["twisted Jacobi"][0], FAULTS["multiplicativity"][0], ex2_5,
             build_extended(ex2_5).spec]
    calls, bracket_ = [], algebra._bracket
    monkeypatch.setattr(algebra, "_bracket", lambda *a: calls.append(a) or bracket_(*a))
    for spec in specs:
        calls.clear()
        assert validate.__wrapped__(spec) == oracle.reference_validate(spec)
        table = spec._sparse
        assert len(calls) == len(table.keys() | {(j, i) for i, j in table}), spec.name


@settings(max_examples=100, deadline=None)
@given(faulty_specs(), st.data())
def test_bracket_matches_brute_force(spec, data):
    u, v = (vec(data.draw(st.lists(_ENTRY, min_size=spec.n, max_size=spec.n)))
            for _ in range(2))
    assert bracket(spec, u, v) == tuple(oracle.brute_bracket(spec, u, v))


def test_sparse_view_is_not_a_field(ex2_5):
    base = build_extended(ex2_5).spec
    spec, twin = (AlgebraSpec(base.name, base.degrees, base.alpha,
                              base.brackets, base.basis_names)
                  for _ in range(2))
    before = (hash(spec), repr(spec))
    view = spec._sparse
    assert list(view) == sorted(view)
    assert view == {(i, j): {m: x for m, x in enumerate(v) if x}
                    for i, row in enumerate(spec.brackets)
                    for j, v in enumerate(row) if any(v)}
    # the view is the stored form: a spec built from it has no dense
    # table until ``brackets`` is read
    fresh = build_extended(ex2_5).spec
    assert "brackets" not in vars(fresh)
    assert fresh.brackets == spec.brackets and "brackets" in vars(fresh)
    assert spec == twin and (hash(spec), repr(spec)) == before == (
        hash(twin), repr(twin))


def test_a_matmul_twist_fails_in_column_order():
    # row 0 of the product is summed, and its view recorded, as
    # {2: 5, 1: 7}; the failures still come in column order
    a = Matrix.from_rows([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    b = Matrix.from_rows([[0, 0, 0], [0, 0, 5], [0, 7, 0]])
    spec = AlgebraSpec("bent", (0, 1, 1), a.matmul(b), table(3, {}))
    validate.cache_clear()
    assert list(validate(spec).failures) == [
        fail("twist evenness", (0, 1), 7), fail("twist evenness", (0, 2), 5)]
    assert validate(spec) == oracle.reference_validate(spec)
