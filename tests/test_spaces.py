import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homlie.algebra import AlgebraSpec, center, parity_sign
from homlie.extension import build_extended
from homlie.linalg import (
    Matrix,
    Subspace,
    contains,
    nullspace,
    rref,
    subspace_intersection,
    subspace_sum,
)
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    check_bracket_laws,
    check_inclusion_chain,
    check_qc_structure,
    compose,
    decompose_generalized,
    hom_jordan_residual,
    jordan_product,
    project_component,
    solve_space,
    space_contains,
    supercommutator,
)
from oracle import (
    _arity,
    alpha_shift,
    col,
    defining_residuals,
    diag,
    from_sparse,
    full_space,
    oracle_solve,
    reference_hom_jordan_residual,
    reference_jordan_product,
    reference_matmul,
    reference_supercommutator,
    reference_tuple_view,
    stacked,
    tuple_vector,
    zero_matrix,
)

ALL_KINDS = tuple(SpaceKind)


def is_homogeneous(spec: AlgebraSpec, g: GradedMap) -> bool:
    """Entries outside the degree pattern of g.degree must vanish."""
    deg = spec.degrees
    for m in range(spec.n):
        for l in range(spec.n):
            if deg[m] != (deg[l] + g.degree) % 2 and g.matrix.at(m, l):
                return False
    return True


def test_known_dimensions(ex2_5):
    assert solve_space(ex2_5, SpaceKind.DER, 0, 0).dim == 1
    assert solve_space(ex2_5, SpaceKind.DER, 1, 0).dim == 0
    assert solve_space(ex2_5, SpaceKind.C, 1, 0).dim == 0
    assert solve_space(ex2_5, SpaceKind.QC, 1, 0).dim == 1


def test_known_bases(ex2_5):
    der0 = solve_space(ex2_5, SpaceKind.DER, 0, 0)
    assert der0.tuples[0][0].matrix == diag(1, 0, -1)
    qc1 = solve_space(ex2_5, SpaceKind.QC, 1, 0)
    assert qc1.tuples[0][0].matrix == diag(1, 2, 2)


def test_qder_projection_is_diagonal(ex2_5):
    span = project_component(solve_space(ex2_5, SpaceKind.QDER, 1, 0), 0)
    expected = Subspace.from_vectors(
        9, [diag(1, 0, 0).entries, diag(0, 1, 0).entries, diag(0, 0, 1).entries])
    assert span == expected


def test_zder_vacuous_on_abelian():
    spec = AlgebraSpec.from_pairs("ab2", (0, 0), Matrix.identity(2), {})
    assert solve_space(spec, SpaceKind.ZDER, 0, 0).dim == 4


def test_gder_third_component_is_twist_commutant(abelian2):
    # no bracket constraints, so D'' is cut out by commutation alone
    span = project_component(solve_space(abelian2, SpaceKind.GDER, 0, 0), 2)
    expected = Subspace.from_vectors(
        4, [diag(1, 0).entries, diag(0, 1).entries])
    assert span == expected


def test_odd_degree_space_on_even_algebra_is_zero(ex2_5):
    for kind in ALL_KINDS:
        assert solve_space(ex2_5, kind, 0, 1).dim == 0


def test_negative_k_rejected(ex2_5):
    with pytest.raises(ValueError):
        solve_space(ex2_5, SpaceKind.DER, -1, 0)


def test_negative_k_max_rejected_by_the_inclusion_chain(ex2_5):
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        check_inclusion_chain(ex2_5, -1)


def test_negative_k_max_rejected_by_the_bracket_laws(ex2_5):
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        check_bracket_laws(ex2_5, -1)


def test_negative_k_max_rejected_by_the_qc_structure(heisenberg3):
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        check_qc_structure(heisenberg3, -5)


def test_bool_k_max_rejected_by_every_check(abelian2):
    # True == 1, so a bool k_max would run as kmax 1
    for check in (check_inclusion_chain, check_bracket_laws, check_qc_structure):
        for flag in (True, False):
            with pytest.raises(TypeError, match="k_max must be an int"):
                check(abelian2, flag)


def test_bool_twist_power_or_degree_rejected(heisenberg3, odd_heisenberg):
    # True == 1 and both hash alike, so a bool that reached the cache
    # would key a space with k=True that a later int call is served
    solve_space.cache_clear()
    for spec, k, degree in ((heisenberg3, True, 0), (odd_heisenberg, 0, True),
                            (heisenberg3, 1.0, 0), (heisenberg3, 0, "1")):
        with pytest.raises(TypeError, match="must be ints"):
            solve_space(spec, SpaceKind.DER, k, degree)
    assert type(solve_space(heisenberg3, SpaceKind.DER, 1).k) is int
    assert type(solve_space(odd_heisenberg, SpaceKind.DER, 0, 1).degree) is int
    # the cache answers before the check: a bool call that hits an int
    # entry is served that entry
    assert solve_space(heisenberg3, SpaceKind.DER, True) is \
        solve_space(heisenberg3, SpaceKind.DER, 1)
    with pytest.raises(ValueError, match="degree must be the int 0 or 1"):
        GradedMap(Matrix.identity(2), True)


def test_projection_index_range(ex2_5):
    space = solve_space(ex2_5, SpaceKind.QDER, 0, 0)
    with pytest.raises(IndexError):
        project_component(space, 2)


def test_supercommutator_rules():
    d = GradedMap(diag(1, 2, 2), 0)
    assert supercommutator(d, d).is_zero()
    e = GradedMap(diag(1, 0, -1), 0)
    assert supercommutator(d, e).is_zero()
    a = GradedMap(Matrix.from_rows([[0, 1], [0, 0]]), 1)
    b = GradedMap(Matrix.from_rows([[0, 0], [1, 0]]), 1)
    res = supercommutator(a, b)
    assert res.degree == 0
    assert res.matrix == Matrix.identity(2)  # ab + ba for odd maps


def test_jordan_product_rules():
    d = GradedMap(diag(1, 2, 2), 0)
    assert jordan_product(d, d).matrix == diag(2, 8, 8)
    one = GradedMap(Matrix.identity(3), 0)
    assert jordan_product(one, d).matrix == diag(2, 4, 4)


def test_alpha_shift(ex2_5):
    d = GradedMap(diag(1, 0, -1), 0)
    assert alpha_shift(ex2_5, d).matrix == diag(1, 0, -2)
    zero = GradedMap(zero_matrix(3, 3), 0)
    assert alpha_shift(ex2_5, zero).is_zero()
    ident_spec = AlgebraSpec.from_pairs("ab3", (0, 0, 0),
                                        Matrix.identity(3), {})
    assert alpha_shift(ident_spec, d).matrix == d.matrix


@given(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
       st.lists(st.integers(-2, 2), min_size=2, max_size=2),
       st.sampled_from([(0, 0), (0, 1), (1, 1)]))
def test_degree_bookkeeping(odd_heisenberg, xs, ys, degs):
    # build homogeneous maps on the 1|1 space for each degree pattern
    def hom_map(vals, degree):
        if degree == 0:
            return GradedMap(diag(*vals), degree)
        return GradedMap(Matrix.from_rows([[0, vals[0]], [vals[1], 0]]), degree)

    da, db = degs
    a, b = hom_map(xs, da), hom_map(ys, db)
    for prod in (supercommutator(a, b), jordan_product(a, b), compose(a, b)):
        assert prod.degree == (da + db) % 2
        assert is_homogeneous(odd_heisenberg, prod)


def test_defining_residuals_vanish_on_solutions(bundled):
    for spec in bundled.values():
        for kind in ALL_KINDS:
            for k in (0, 1, 2):
                for th in (0, 1):
                    space = solve_space(spec, kind, k, th)
                    for t in space.tuples:
                        mats = [[list(g.matrix.row(r))
                                 for r in range(spec.n)] for g in t]
                        for res in defining_residuals(spec, kind, k, th, mats):
                            assert all(x == 0 for x in res)


def test_shift_stability_on_multiplicative_algebras(bundled):
    for name in ("abelian2", "heisenberg3", "odd_heisenberg"):
        spec = bundled[name]
        for kind in ALL_KINDS:
            for k in (0, 1):
                for th in (0, 1):
                    src = solve_space(spec, kind, k, th)
                    tgt = reference_tuple_view(solve_space(spec, kind, k + 1, th))[0]
                    for t in src.tuples:
                        shifted = tuple(alpha_shift(spec, g) for g in t)
                        assert contains(tgt, tuple_vector(shifted)), (name, kind, k)


def test_shift_needs_multiplicativity(ex2_5):
    # the level-raising shift genuinely fails without a bracket-preserving
    # twist: here Der at k=1 is zero but the shifted k=0 derivation is not
    d = solve_space(ex2_5, SpaceKind.DER, 0, 0).tuples[0][0]
    shifted = alpha_shift(ex2_5, d)
    tgt = solve_space(ex2_5, SpaceKind.DER, 1, 0)
    assert tgt.dim == 0 and not shifted.is_zero()


def test_split_equality_per_level(bundled):
    from homlie.linalg import subspace_sum
    for spec in bundled.values():
        for k in (0, 1, 2):
            for th in (0, 1):
                gder0 = project_component(
                    solve_space(spec, SpaceKind.GDER, k, th), 0)
                qder0 = project_component(
                    solve_space(spec, SpaceKind.QDER, k, th), 0)
                qc = project_component(
                    solve_space(spec, SpaceKind.QC, k, th), 0)
                assert gder0 == subspace_sum(qder0, qc), (spec.name, k, th)


def test_decompose_symmetric_case(ex2_5):
    # quasiderivation pairs embed as (D, D, D'), splitting to (D, 0)
    qd = solve_space(ex2_5, SpaceKind.QDER, 1, 0)
    d, dp = qd.tuples[0]
    (dq, partner), dc = decompose_generalized(ex2_5, 1, 0, (d, d, dp))
    assert dq.matrix == d.matrix
    assert partner.matrix == dp.matrix
    assert dc.is_zero()


def test_decompose_antisymmetric_case(ex2_5):
    d = solve_space(ex2_5, SpaceKind.QC, 1, 0).tuples[0][0]
    neg = GradedMap(d.matrix.scale(-1), 0)
    zero = GradedMap(zero_matrix(3, 3), 0)
    (dq, _), dc = decompose_generalized(ex2_5, 1, 0, (d, neg, zero))
    assert dq.is_zero()
    assert dc.matrix == d.matrix


def test_decompose_is_linear(ex2_5):
    qd = solve_space(ex2_5, SpaceKind.QDER, 1, 0)
    d, dp = qd.tuples[0]
    qc = solve_space(ex2_5, SpaceKind.QC, 1, 0).tuples[0][0]
    triple = (GradedMap(d.matrix + qc.matrix, 0),
              GradedMap(d.matrix - qc.matrix, 0),
              dp)
    (dq, partner), dc = decompose_generalized(ex2_5, 1, 0, triple)
    assert dq.matrix == d.matrix
    assert dc.matrix == qc.matrix
    assert triple[0].matrix == dq.matrix + dc.matrix
    qspace = solve_space(ex2_5, SpaceKind.QDER, 1, 0)
    assert space_contains(qspace, (dq, partner))
    qcspan = project_component(solve_space(ex2_5, SpaceKind.QC, 1, 0), 0)
    assert contains(qcspan, dc.matrix.entries)


def test_decompose_rejects_non_member(ex2_5):
    bad = GradedMap(Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), 0)
    zero = GradedMap(zero_matrix(3, 3), 0)
    with pytest.raises(ValueError):
        decompose_generalized(ex2_5, 1, 0, (bad, zero, zero))


def test_space_contains_rejects_a_wrong_arity_or_size(ex2_5):
    space = solve_space(ex2_5, SpaceKind.QDER, 1, 0)
    pair = space.tuples[0]
    with pytest.raises(ValueError, match=r"expects 2 maps .* got sizes \[3\]"):
        space_contains(space, pair[:1])
    # the coordinates of a 2x2 or 4x4 map would land on the wrong entries
    for n in (2, 4):
        other = GradedMap(Matrix.identity(n), 0)
        with pytest.raises(ValueError, match=rf"of size 3x3, got sizes \[3, {n}\]"):
            space_contains(space, (pair[0], other))


def test_space_contains_rejects_a_wrong_degree(heisenberg3):
    # a nonzero degree-0 derivation tagged degree 1 lies in no degree-1
    # space here, as Der is zero in degree 1: the tag must match
    der = solve_space(heisenberg3, SpaceKind.DER, 0, 0)
    assert solve_space(heisenberg3, SpaceKind.DER, 0, 1).dim == 0
    retagged = GradedMap(der.tuples[0][0].matrix, 1)
    with pytest.raises(ValueError, match=r"Der at degree 0 expects .* got \[1\]"):
        space_contains(der, (retagged,))
    # nor may decompose_generalized re-tag a degree-1 triple as degree 0
    triple = solve_space(heisenberg3, SpaceKind.GDER, 0, 0).tuples[0]
    with pytest.raises(ValueError, match="at degree 0 expects"):
        decompose_generalized(heisenberg3, 0, 0,
                              tuple(GradedMap(g.matrix, 1) for g in triple))


def test_space_contains_matches_the_dense_test(bundled):
    for spec in bundled.values():
        for kind, th in itertools.product(ALL_KINDS, (0, 1)):
            one = GradedMap(Matrix.identity(spec.n), th)
            space = solve_space(spec, kind, 1, th)
            probes = [*space.tuples, (one,) * space.arity]
            probes += [(alpha_shift(spec, t[0]),) + t[1:] for t in space.tuples]
            whole = reference_tuple_view(space)[0]
            assert [space_contains(space, t) for t in probes] == \
                [contains(whole, tuple_vector(t)) for t in probes], (spec.name, kind)


def test_inclusion_chain_bundled(bundled):
    for spec in bundled.values():
        rep = check_inclusion_chain(spec, 2)
        assert rep.ok, [c.name for c in rep.checks if c.status == "fail"]


def test_bracket_laws_bundled(bundled):
    for spec in bundled.values():
        rep = check_bracket_laws(spec, 2)
        assert rep.ok, (spec.name,
                        [c.name for c in rep.checks if c.status == "fail"])


def test_bracket_laws_shift_gating(bundled):
    ex_statuses = {c.name: c.status
                   for c in check_bracket_laws(bundled["ex2_5"], 1).checks}
    heis_statuses = {c.name: c.status
                     for c in check_bracket_laws(bundled["heisenberg3"], 1).checks}
    shift_names = [n for n in ex_statuses if n.startswith("shift ")]
    assert shift_names
    assert all(ex_statuses[n] == "skipped" for n in shift_names)
    assert all(heis_statuses[n] == "pass" for n in shift_names)


def test_heisenberg_c_qc_bracket_lands_in_center(heisenberg3):
    from homlie.algebra import center
    z = center(heisenberg3)
    c_maps = [t[0] for t in solve_space(heisenberg3, SpaceKind.C, 0, 0).tuples]
    qc_maps = [t[0] for t in solve_space(heisenberg3, SpaceKind.QC, 0, 0).tuples]
    for a in c_maps:
        for b in qc_maps:
            g = supercommutator(a, b)
            for i in range(3):
                assert contains(z, col(g.matrix, i))


def test_qc_structure_bundled(bundled):
    for spec in bundled.values():
        rep = check_qc_structure(spec, 2)
        assert rep.ok, (spec.name,
                        [c.name for c in rep.checks if c.status == "fail"])


def test_qc_circle_product_supercommutative(odd_heisenberg):
    from homlie.algebra import parity_sign
    maps = []
    for th in (0, 1):
        maps.extend(t[0] for t in
                    solve_space(odd_heisenberg, SpaceKind.QC, 0, th).tuples)
    assert any(g.degree == 1 for g in maps)
    for a in maps:
        for b in maps:
            lhs = jordan_product(a, b).matrix
            rhs = jordan_product(b, a).matrix.scale(
                parity_sign(a.degree, b.degree))
            assert lhs == rhs


_ENTRIES = st.integers(-3, 3) | st.fractions(min_value=-2, max_value=2,
                                             max_denominator=3)


@st.composite
def _graded_maps(draw, count, n=2):
    return [GradedMap(Matrix(n, n, tuple(draw(st.lists(_ENTRIES, min_size=n * n,
                                                         max_size=n * n)))),
                      draw(st.integers(0, 1)))
            for _ in range(count)]


@given(_graded_maps(5))
def test_products_choose_signs_as_the_scaled_formulas(maps):
    """The products pick ab + ba or ab - ba by parity; the values are
    those of the formulas that multiplied by the +-1 sign."""
    a, b, x, y, alpha = maps
    assert supercommutator(a, b) == reference_supercommutator(a, b)
    assert jordan_product(a, b) == reference_jordan_product(a, b)
    assert (hom_jordan_residual(alpha.matrix, a, b, x, y)
            == reference_hom_jordan_residual(alpha.matrix, a, b, x, y))


# mostly zeros, as in the solved bases
_SPARSE = st.one_of(st.just(0), st.just(0), _ENTRIES)


def _matrices(rows, cols):
    """Matrices of the shape, sometimes the zero matrix."""
    return st.one_of(st.just(zero_matrix(rows, cols)), st.builds(
        lambda e: Matrix(rows, cols, tuple(e)),
        st.lists(_SPARSE, min_size=rows * cols, max_size=rows * cols)))


@st.composite
def _product_cases(draw):
    """Two graded n x n maps and a twist, n <= 3, plus an r x n and an
    n x c matrix and a vector of length n, zero shapes included."""
    n = draw(st.integers(1, 3))
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a, b = (GradedMap(draw(_matrices(n, n)), draw(st.integers(0, 1)))
            for _ in range(2))
    return (a, b, draw(_matrices(n, n)), draw(_matrices(r, n)),
            draw(_matrices(n, c)), draw(_matrices(n, 1)).entries)


@given(_product_cases())
def test_products_match_the_dense_reference_product(case):
    """Every sparse product against formulas on ``reference_matmul``,
    which shares no product code with homlie."""
    a, b, alpha, left, right, v = case
    ab, ba = reference_matmul(a.matrix, b.matrix), reference_matmul(b.matrix, a.matrix)
    s, degree = parity_sign(a.degree, b.degree), (a.degree + b.degree) % 2
    assert compose(a, b) == GradedMap(ab, degree)
    assert supercommutator(a, b) == GradedMap(ab - ba.scale(s), degree)
    assert jordan_product(a, b) == GradedMap(ab + ba.scale(s), degree)
    spec = AlgebraSpec.from_pairs("abelian", (0,) * a.n, alpha, {})
    assert alpha_shift(spec, a) == GradedMap(reference_matmul(a.matrix, alpha), a.degree)
    assert left.matmul(right) == reference_matmul(left, right)
    assert left.matmul(Matrix(a.n, 1, v)) == reference_matmul(left, Matrix(a.n, 1, v))


@given(_product_cases())
def test_one_matrix_on_both_sides_twice_in_a_row(case):
    """Products and eliminations read a matrix's cached sparse view; none
    may change it, so the same object gives the same answers again."""
    m = case[0].matrix
    even, odd = GradedMap(m, 0), GradedMap(m, 1)
    view = {r: dict(row) for r, row in m._sparse.items()}
    square = reference_matmul(m, m)
    for _ in range(2):
        assert m.matmul(m) == square
        assert compose(odd, odd) == GradedMap(square, 0)
        assert jordan_product(even, even) == GradedMap(square.scale(2), 0)
        assert supercommutator(even, even).is_zero()
        assert jordan_product(odd, odd).is_zero()
        rref(m)
        rows = Subspace(m.cols, tuple(m.row(r) for r in range(m.rows)))
        assert all(contains(rows, m.row(r)) for r in range(m.rows))
    assert m._sparse == view == Matrix(m.rows, m.cols, m.entries)._sparse


def test_cached_views_are_not_fields(heisenberg3):
    m = Matrix.from_rows([[1, 0, "1/2"], [0, 0, 0], [-2, 3, 0]])
    s = Subspace(3, ((2, 0, 1), (0, 3, 0)))
    # every constructor leaves the one stored form, and no subspace holds
    # a basis until it is read
    matrices = (m, Matrix(2, 1, (Fraction(0), Fraction(2))), Matrix.identity(3),
                zero_matrix(2, 3), from_sparse([{0: 1}, {}, {2: "1/2"}], 3),
                m.matmul(m))
    assert all("_sparse" in vars(x) for x in matrices)
    space = solve_space.__wrapped__(heisenberg3, SpaceKind.QDER, 0, 0, True)
    spans = (s, Subspace.from_vectors(3, [(1, 2, 3)]), Subspace.zero(3),
             full_space(3), nullspace(m), subspace_sum(s, s),
             subspace_intersection(s, s), project_component(space, 1),
             center.__wrapped__(heisenberg3))
    assert all("_reduced" in vars(x) and "basis" not in vars(x) for x in spans)
    before = [(x, hash(x), repr(x)) for x in (m, s)]
    m.matmul(m)
    contains(s, (2, 3, 1))
    assert "_sparse" in vars(m) and "_reduced" in vars(s)
    for x, h, text in before:
        twin = dataclasses.replace(x)
        assert x == twin and hash(x) == h == hash(twin) and repr(x) == text
    assert [f.name for f in dataclasses.fields(Matrix)] == ["rows", "cols", "entries"]
    assert [f.name for f in dataclasses.fields(Subspace)] == ["ambient_dim", "basis"]


def test_solver_matches_oracle_spot(bundled):
    # the full sweep lives in the acceptance suite; spot-check here
    for name in ("ex2_5", "odd_heisenberg"):
        spec = bundled[name]
        for kind in ALL_KINDS:
            got = stacked(solve_space(spec, kind, 1, 0))
            want = oracle_solve(spec, kind, 1, 0, True)
            assert got == want, (name, kind)


def test_solver_matches_oracle_lax(bundled):
    for name, spec in bundled.items():
        for kind, k, th in itertools.product(ALL_KINDS, (0, 1), (0, 1)):
            got = stacked(solve_space(spec, kind, k, th, False))
            want = oracle_solve(spec, kind, k, th, False)
            assert got == want, (name, kind, k, th)


@pytest.mark.parametrize("strict", (True, False))
def test_solver_matches_oracle_on_double(ex2_5, strict):
    spec = build_extended(ex2_5).spec
    assert spec.n == 6
    for kind in (SpaceKind.DER, SpaceKind.QC, SpaceKind.ZDER):
        got = stacked(solve_space(spec, kind, 1, 0, strict))
        assert got == oracle_solve(spec, kind, 1, 0, strict), kind


def test_arity_matches_oracle():
    for kind in ALL_KINDS:
        assert kind.arity == _arity(kind), kind


def test_space_kind_parse():
    assert SpaceKind.parse("QDer") is SpaceKind.QDER
    assert SpaceKind.parse("zder") is SpaceKind.ZDER
    with pytest.raises(ValueError):
        SpaceKind.parse("Frobenius")


def test_the_tuple_span_is_the_solved_basis_unreduced(bundled):
    """The solved basis is already canonical over the stacked coordinates,
    so the tuple view's span is read off the solve's kernel, relabelled:
    equal to a fresh reduction on 360 spaces."""
    specs = list(bundled.values()) + [build_extended(bundled["heisenberg3"]).spec]
    checked = 0
    for spec, kind, k, th, strict in itertools.product(
            specs, ALL_KINDS, range(3), (0, 1), (True, False)):
        space = solve_space(spec, kind, k, th, strict)
        reduced = Subspace.from_vectors(space.arity * spec.n ** 2, stacked(space))
        assert space._tuple_view[0] == reduced, (spec.name, kind, k, th, strict)
        checked += 1
    assert checked == 360
