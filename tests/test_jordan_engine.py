"""The per-z pass behind the twisted Jordan check.

``check_qc_structure`` tests the twisted super Jordan identity on every
quadruple of quasicentroid basis maps through one pass that, per z,
forms every circle pair's term at every third map by three joins and
routes each term into the residual of each triple it enters.  Its
residuals must be those of the per-quadruple engine in
``oracle.reference_jordan_engine``, its dict at every z that of the pass
that split each batch by degree, ``oracle.reference_jordan_pass``, on maps
that repeat, and its first witness and its
residuals those of the dense per-quadruple loop kept in
``oracle.reference_jordan_witness``, on the bundled algebras, on random
algebras and on the larger twisted and odd inputs; and the check must
report ``fail`` with that witness when a basis map is bent.  The circle
super-commutativity check walks unordered pairs; its verdict must be
that of the ordered walk in ``oracle.reference_circle_witness``.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    from_sparse,
    reference_circle_witness,
    reference_engine_witness,
    reference_hom_jordan_residual,
    reference_jordan_engine,
    reference_jordan_pass,
    reference_jordan_witness,
)
from test_laws import K_MAX, _with_fault

JORDAN = "twisted Jordan identity on QC"
CIRCLE = "circle product super-commutative"


def _diag(*entries):
    n = len(entries)
    return Matrix.from_rows([[entries[r] if r == c else 0 for c in range(n)]
                             for r in range(n)])


def heisenberg(m, twist):
    """h_{2m+1}: [x_i, y_i] = z, all even, twisted by diag(twist)."""
    n = 2 * m + 1
    z = tuple(int(c == n - 1) for c in range(n))
    return AlgebraSpec.from_pairs(f"h{n}", (0,) * n, _diag(*twist),
                                  {(i, m + i): z for i in range(m)})


def super_heisenberg(m):
    """1|m: even e, odd f_1..f_m, [f_i, f_i] = e, twist diag(4, 2, .., 2)."""
    e = tuple(int(c == 0) for c in range(m + 1))
    return AlgebraSpec.from_pairs(f"sh1_{m}", (0,) + (1,) * m,
                                  _diag(4, *[2] * m),
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


def assert_circle_check_matches_ordered_walk(spec, k_max, strict):
    """The unordered walk's verdict is the ordered walk's; returns the
    ordered walk's first witness pair."""
    witness = reference_circle_witness(qc_maps(spec, k_max, strict))
    check = {c.name: c for c in check_qc_structure(spec, k_max, strict).checks}[CIRCLE]
    assert (check.status, check.detail) == (
        ("pass", "") if witness is None
        else ("fail", format_matrix(witness[0].matrix))), spec.name
    return witness


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_circle_check_matches_ordered_walk_on_bundled(bundled, strict):
    for spec in bundled.values():
        assert assert_circle_check_matches_ordered_walk(spec, 2, strict) is None


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
    assert assert_circle_check_matches_ordered_walk(heisenberg3, K_MAX, True) == (a, b)


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
            assert assert_circle_check_matches_ordered_walk(spec, 1, strict) is None


@pytest.mark.parametrize("spec", [heisenberg(1, (1, 2, 2)), super_heisenberg(2)],
                         ids=["h3_d", "sh1_2"])
def test_engine_matches_oracle_on_twisted_and_odd(spec):
    assert assert_engine_matches_oracle(spec, 3, True) is None


_ENTRIES = st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 2])


@st.composite
def _maps_and_twist(draw, n=2):
    def matrix():
        return Matrix(n, n, tuple(Fraction(x) for x in draw(
            st.lists(_ENTRIES, min_size=n * n, max_size=n * n))))
    return ([GradedMap(matrix(), draw(st.integers(0, 1))) for _ in range(3)],
            matrix())


def residual_at(residual, elems, x, y, w):
    """The rows of one per-z residual of ``spaces._jordan_pass`` at (x, y,
    w), keyed by the sorted triple when the three maps are even."""
    key = (x, y, w) if any(elems[i].degree for i in (x, y, w)) else tuple(sorted((x, y, w)))
    return {r: row for (k, r), row in residual.items() if k == key}


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
    reference = reference_jordan_engine(alpha, elems)
    for z, residual in enumerate(spaces._jordan_pass(alpha, elems)):
        for x, y, w in itertools.product(range(len(elems)), repeat=3):
            assert residual_at(residual, elems, x, y, w) == reference(x, y, z, w), (x, y, z, w)
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
    """At every z the pass yields the dict of ``oracle.reference_jordan_pass``,
    which splits every batch by degree and reads a o tz off tz o a."""
    elems, alpha = case
    assert any(g.degree for g in elems)
    assert list(spaces._jordan_pass(alpha, elems)) == list(reference_jordan_pass(alpha, elems))


def test_h5_identity_twist_report_is_pinned():
    """Recorded from the dense per-quadruple loop (about a minute there)."""
    report = check_qc_structure(heisenberg(2, (1,) * 5), 1)
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


def test_engine_rejects_maps_of_another_size():
    one = GradedMap(Matrix.identity(2), 0)
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        hom_jordan_residual(Matrix.identity(3), one, one, one, one)

