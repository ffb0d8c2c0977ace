"""The per-z pass behind the twisted Jordan check.

``check_qc_structure`` tests the twisted super Jordan identity on every
quadruple of quasicentroid basis maps through one pass that, per z,
forms every circle pair's term at every third map by three joins and
routes each term into the residual of each triple it enters.  Its
residuals must be those of the per-quadruple engine in
``oracle.reference_jordan_engine``, and its dict at every z the one read
off that engine, also on maps that repeat; its first witness and its
residuals must be those of the dense per-quadruple loop kept in
``oracle.reference_jordan_witness``, on the bundled algebras, on random
algebras and on the larger twisted and odd inputs; its least witness, one
least key per z, that of the engine's walk over every ordered quadruple
(``oracle.reference_engine_witness``); and the check must report
``fail`` with that witness when a basis map is bent.  The circle
super-commutativity check walks unordered pairs: it must pass where
every ordered pair super-commutes, and fail with the first map of the
first ordered pair that does not.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlie import spaces
from homlie.algebra import AlgebraSpec
from homlie.linalg import Matrix, format_matrix
from homlie.randomgen import sample_algebras
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    check_qc_structure,
    hom_jordan_residual,
    jordan_product,
    project_component,
)
from oracle import (
    diag,
    from_sparse,
    heisenberg,
    reference_engine_witness,
    reference_hom_jordan_residual,
    reference_jordan_engine,
    reference_jordan_witness,
)
from test_laws import K_MAX, _with_fault

JORDAN = "twisted Jordan identity on QC"
CIRCLE = "circle product super-commutative"


def super_heisenberg(m):
    """1|m: even e, odd f_1..f_m, [f_i, f_i] = e, twist diag(4, 2, .., 2)."""
    e = tuple(int(c == 0) for c in range(m + 1))
    return AlgebraSpec.from_pairs(f"sh1_{m}", (0,) + (1,) * m,
                                  diag(4, *[2] * m),
                                  {(i, i): e for i in range(1, m + 1)})


def qc_maps(spec, k_max, strict):
    """The deduplicated QC basis maps, reduced independently of the
    span cache, in the order the check walks them."""
    maps = {}
    for k in range(k_max + 1):
        for th in (0, 1):
            space = spaces.solve_space(spec, SpaceKind.QC, k, th, strict)
            for row in project_component(space, 0).basis:
                maps[GradedMap(Matrix(spec.n, spec.n, row), th)] = None
    return list(maps)


def _describe(witness):
    return " , ".join(format_matrix(g.matrix) for g in witness)


def assert_engine_matches_oracle(spec, k_max, strict):
    """The check's verdict is the oracle's first witness, and the
    engine's residual there is the dense one; returns the witness."""
    witness = reference_jordan_witness(spec.alpha, qc_maps(spec, k_max, strict))
    check = {c.name: c for c in check_qc_structure(spec, k_max, strict).checks}[JORDAN]
    if witness is None:
        assert (check.status, check.detail) == ("pass", ""), spec.name
        return None
    assert (check.status, check.detail) == ("fail", _describe(witness)), spec.name
    residual = hom_jordan_residual(spec.alpha, *witness)
    assert residual == reference_hom_jordan_residual(spec.alpha, *witness)
    assert not residual.is_zero()
    return witness


def assert_circle_check(spec, k_max, strict, first=None):
    """The unordered walk's verdict is the ordered walk's: pass when every
    ordered pair (a, b) has a o b = (-1)^{|a||b|} (b o a), as the circle
    product does, else fail with a of the first pair that does not, given
    as first."""
    check = {c.name: c for c in check_qc_structure(spec, k_max, strict).checks}[CIRCLE]
    assert (check.status, check.detail) == (
        ("pass", "") if first is None else ("fail", format_matrix(first.matrix))), spec.name


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_circle_check_matches_ordered_walk_on_bundled(bundled, strict):
    for spec in bundled.values():
        assert_circle_check(spec, 2, strict)


def test_circle_check_finds_a_fault_at_a_later_ordered_pair(heisenberg3,
                                                           monkeypatch):
    """Bent only at (b, a), b after a, the check fails at (a, b) already:
    a o b = s (b o a) is symmetric in a and b, since s^2 = 1."""
    elems = qc_maps(heisenberg3, K_MAX, True)
    a, b = elems[:2]

    def bent(x, y):
        g = jordan_product(x, y)
        if (x, y) != (b, a):
            return g
        return GradedMap(g.matrix + Matrix.identity(g.n), g.degree)

    monkeypatch.setattr(spaces, "jordan_product", bent)
    assert_circle_check(heisenberg3, K_MAX, True, a)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_engine_matches_oracle_on_bundled(bundled, strict):
    witnesses = {name: assert_engine_matches_oracle(spec, 2, strict)
                 for name, spec in bundled.items()}
    # abelian2 --lax is the bundled failure; strict mode passes everywhere
    assert [name for name, w in witnesses.items() if w] == (
        [] if strict else ["abelian2"])


def test_engine_matches_oracle_on_random_algebras():
    specs = sample_algebras(random.Random(20261018), 20, n_max=3)
    assert len(specs) == 20
    for spec in specs:
        for strict in (True, False):
            assert_engine_matches_oracle(spec, 1, strict)


def test_circle_check_matches_ordered_walk_on_random_algebras():
    for spec in sample_algebras(random.Random(20261018), 20, n_max=3):
        for strict in (True, False):
            assert_circle_check(spec, 1, strict)


@pytest.mark.parametrize("spec", [heisenberg(1, True), super_heisenberg(2)],
                         ids=["h3_d", "sh1_2"])
def test_engine_matches_oracle_on_twisted_and_odd(spec):
    witness = assert_engine_matches_oracle(spec, 3, True)
    assert witness is None, witness


_ENTRIES = st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 2])


@st.composite
def _maps_and_twist(draw, n=2):
    def matrix():
        return Matrix(n, n, tuple(Fraction(x) for x in draw(
            st.lists(_ENTRIES, min_size=n * n, max_size=n * n))))
    return ([GradedMap(matrix(), draw(st.integers(0, 1))) for _ in range(3)],
            matrix())


def _key(elems, x, y, w):
    """The key of (x, y, w) in a per-z residual: the sorted triple when the
    three maps are even."""
    return (x, y, w) if any(elems[i].degree for i in (x, y, w)) else tuple(sorted((x, y, w)))


def residual_at(residual, elems, x, y, w):
    """The rows of one per-z residual of ``spaces._jordan_pass`` at (x, y, w)."""
    key = _key(elems, x, y, w)
    return {r: row for (k, r), row in residual.items() if k == key}


def assert_pass_is_the_engine(alpha, elems):
    """The pass yields one residual per z, holding at each key and no other
    the rows of ``oracle.reference_jordan_engine`` at (x, y, z, w)."""
    reference = reference_jordan_engine(alpha, elems)
    triples = list(itertools.product(range(len(elems)), repeat=3))
    residuals = list(spaces._jordan_pass(alpha, elems))
    assert len(residuals) == len(elems)
    for z, residual in enumerate(residuals):
        rows = {}
        for (key, r), row in residual.items():
            rows.setdefault(key, {})[r] = row
        assert set(rows) <= {_key(elems, *t) for t in triples}, z
        for x, y, w in triples:
            assert rows.get(_key(elems, x, y, w), {}) == reference(x, y, z, w), (x, y, z, w)


@given(_maps_and_twist())
@settings(max_examples=40, deadline=None)
def test_engine_residuals_match_dense_residuals(maps_and_twist):
    """One pass answers every (x, y, w) of three maps of mixed degrees at
    each z, each factor shared between the triples it enters."""
    elems, alpha = maps_and_twist
    for z, residual in enumerate(spaces._jordan_pass(alpha, elems)):
        for x, y, w in itertools.product(range(3), repeat=3):
            dense = from_sparse([residual_at(residual, elems, x, y, w).get(r, {})
                                 for r in range(2)], 2)
            want = reference_hom_jordan_residual(
                alpha, *(elems[i] for i in (x, y, z, w)))
            assert dense == want, (x, y, z, w)


@st.composite
def _pass_cases(draw):
    """(one to four maps of any degrees, so z of either, and a twist), 1 <= n <= 3."""
    n = draw(st.integers(1, 3))

    def matrix():
        return Matrix(n, n, tuple(Fraction(x) for x in draw(
            st.lists(_ENTRIES, min_size=n * n, max_size=n * n))))
    degrees = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    return [GradedMap(matrix(), d) for d in degrees], matrix()


@given(_pass_cases())
@settings(max_examples=60, deadline=None)
def test_pass_matches_the_per_quadruple_engine(case):
    """Every residual of the per-z pass, folded or ordered, and its witness
    are those of ``oracle.reference_jordan_engine``."""
    elems, alpha = case
    assert_pass_is_the_engine(alpha, elems)
    assert spaces._jordan_witness(alpha, elems) == reference_engine_witness(alpha, elems)


@st.composite
def _repeating_cases(draw):
    """(two to six maps, a twist), 1 <= n <= 3: one to three drawn maps, the
    first odd and the others of degrees drawn on their own, so some z is odd,
    then repeats, scalar multiples and zero maps of any degree, in any order."""
    n = draw(st.integers(1, 3))

    def matrix():
        return Matrix(n, n, tuple(Fraction(x) for x in draw(
            st.lists(_ENTRIES, min_size=n * n, max_size=n * n))))
    drawn = [GradedMap(matrix(), d) for d in
             [1] + draw(st.lists(st.integers(0, 1), max_size=2))]
    maps = list(drawn)
    for how in draw(st.lists(st.sampled_from(("repeat", "multiple", "zero")),
                             min_size=1, max_size=3)):
        g = draw(st.sampled_from(drawn))
        if how == "repeat":
            maps.append(g)
        elif how == "multiple":
            c = draw(st.sampled_from((2, -1, Fraction(1, 2))))
            maps.append(GradedMap(g.matrix.scale(Fraction(c)), g.degree))
        else:
            maps.append(GradedMap(Matrix(n, n, (Fraction(0),) * (n * n)),
                                  draw(st.integers(0, 1))))
    return draw(st.permutations(maps)), matrix()


@given(_repeating_cases())
@settings(max_examples=80, deadline=None)
def test_pass_matches_the_reference_pass(case):
    """At every z the pass yields the dict read off the per-quadruple engine."""
    elems, alpha = case
    assert any(g.degree for g in elems)
    assert_pass_is_the_engine(alpha, elems)


def _even(*rows):
    return GradedMap(Matrix.from_rows(rows), 0)


# all even: z = 0 fails first, but the least (x, y) = (0, 0) sits at z = 1
LATER_Z = ([_even([0, 0], [0, -1]), _even([0, 1], [0, 0]), _even([1, 0], [0, 0])],
           Matrix.from_rows([[0, 0], [1, 0]]))
# the least failing (x, y, w) at z = 0 holds the odd w = 1
MIXED = ([_even([-1, 0], [2, 0]), GradedMap(Matrix.from_rows([[0, 1], [0, 0]]), 1),
          _even([-1, 2], [0, 0])], Matrix.from_rows([[2, 0], [0, 1]]))


def test_the_witness_examples_fail_where_they_say():
    elems, alpha = LATER_Z
    assert [bool(r) for r in spaces._jordan_pass(alpha, elems)] == [True, True, False]
    assert reference_engine_witness(alpha, elems) == (0, 0, 1, 1)
    assert not any(g.degree for g in elems)
    elems, alpha = MIXED
    assert reference_engine_witness(alpha, elems) == (0, 0, 0, 1)
    assert elems[1].degree == 1


@st.composite
def _witness_cases(draw):
    """(two to six maps, a twist), 1 <= n <= 3: one to three drawn maps of
    any degrees, each a random matrix or a matrix unit, then repeats and
    scalar multiples of them, in any order."""
    n = draw(st.integers(1, 3))

    def matrix():
        return Matrix(n, n, tuple(Fraction(x) for x in draw(
            st.lists(_ENTRIES, min_size=n * n, max_size=n * n))))

    def unit():
        at = draw(st.integers(0, n * n - 1))
        return Matrix(n, n, tuple(Fraction(int(i == at)) for i in range(n * n)))
    drawn = [GradedMap(draw(st.sampled_from((matrix, unit)))(), d)
             for d in draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))]
    maps = list(drawn)
    for c in draw(st.lists(st.sampled_from((1, 1, 2, -1, Fraction(1, 2))),
                           min_size=1, max_size=3)):
        g = draw(st.sampled_from(drawn))
        maps.append(g if c == 1 else GradedMap(g.matrix.scale(Fraction(c)), g.degree))
    return draw(st.permutations(maps)), matrix()


@given(_witness_cases())
@example(LATER_Z)
@example(MIXED)
@settings(max_examples=80, deadline=None)
def test_witness_is_the_walk_over_every_ordering(case):
    """One least key per z names the quadruple that the walk over every
    ordered quadruple names, every ordering of an all-even key included."""
    elems, alpha = case
    assert spaces._jordan_witness(alpha, elems) == reference_engine_witness(alpha, elems)


def test_h5_identity_twist_report_is_pinned():
    """Recorded from the dense per-quadruple loop (about a minute there)."""
    report = check_qc_structure(heisenberg(2, False), 1)
    assert report.to_dict() == {
        "title": "quasicentroid structure", "ok": True, "checks": [
            {"name": "QC bracket-closed", "status": "info",
             "detail": "no (k=0, s=0)"},
            {"name": "QC composition-closed", "status": "info",
             "detail": "no (k=0, s=0)"},
            {"name": "closure equivalence (bracket <=> composition)",
             "status": "pass", "detail": "bracket: False, composition: False"},
            {"name": "circle product super-commutative", "status": "pass",
             "detail": ""},
            {"name": JORDAN, "status": "pass", "detail": ""},
        ]}


def test_jordan_identity_fails_on_a_bent_quasicentroid_map(ex2_5, monkeypatch):
    # ex2_5's QC at k = 0 is spanned by the identity alone, so the fault
    # bends exactly one basis map, to identity + 1/3 at entry (0, 1)
    assert [spaces.solve_space(ex2_5, SpaceKind.QC, 0, th).dim
            for th in (0, 1)] == [1, 0]
    monkeypatch.setattr(spaces, "solve_space", _with_fault(SpaceKind.QC))
    bent = spaces.solve_space(ex2_5, SpaceKind.QC, 0, 0).tuples[0][0]
    assert bent.matrix.at(0, 1) == Fraction(1, 3)
    witness = assert_engine_matches_oracle(ex2_5, 0, True)
    assert witness == (bent,) * 4


@given(_pass_cases(), st.lists(st.integers(0, 2), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_residual_matches_the_dense_residual_with_a_map_repeated(case, picks):
    """Four maps of 1 <= n <= 3 drawn from at most three, so at least one
    repeats, of mixed degrees: the residual read off the pass over (z, x,
    y, w) is the dense one."""
    elems, alpha = case
    quad = [elems[i % len(elems)] for i in picks]
    assert hom_jordan_residual(alpha, *quad) == reference_hom_jordan_residual(alpha, *quad)


def test_the_residual_forms_only_its_own_z(monkeypatch):
    """One join forms the circle pairs and three form the terms at the one
    z that ``hom_jordan_residual`` reads; the pass forms no other z."""
    joins, join = [], spaces._join
    monkeypatch.setattr(spaces, "_join", lambda *a, **kw: joins.append(a) or join(*a, **kw))
    odd = GradedMap(Matrix.from_rows([[0, 1], [1, 0]]), 1)
    even = GradedMap(Matrix.from_rows([[1, 2], [0, 3]]), 0)
    alpha = Matrix.from_rows([[2, 1], [0, 1]])
    residual = hom_jordan_residual(alpha, even, odd, even, odd)
    assert residual == reference_hom_jordan_residual(alpha, even, odd, even, odd)
    assert 0 < len(joins) <= 4


def test_engine_rejects_maps_of_another_size():
    one = GradedMap(Matrix.identity(2), 0)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        hom_jordan_residual(Matrix.identity(3), one, one, one, one)

