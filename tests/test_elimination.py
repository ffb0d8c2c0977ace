"""The stacked-RREF subspace routines against the code they replaced.

The references in tests/oracle.py eliminate with the oracle's own
kernel_basis and canonical_rows, so agreement is two routes agreeing.
"""

import copy
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homlie import extension
from homlie.algebra import AlgebraSpec, center, derived_subalgebra
from homlie.extension import build_extended, verify_phi_properties
from homlie.linalg import (
    Matrix,
    Subspace,
    block_diag,
    contains,
    nullspace,
    subspace_intersection,
    subspace_sum,
)
from homlie.randomgen import sample_algebras
from homlie.spaces import (
    GradedMap,
    MapSpace,
    SpaceKind,
    check_bracket_laws,
    project_component,
    solve_space,
)

from oracle import (
    canonical_rows,
    from_sparse,
    full_space,
    is_zero_vec,
    reference_complement,
    reference_derived_projection,
    reference_intersection,
    reference_matvec,
    reference_phi_kernel,
    unit_vec,
    zero_matrix,
)
from test_boundary import yau_sl2

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def vectors(n, count):
    return st.lists(st.lists(fr, min_size=n, max_size=n),
                    min_size=count, max_size=count)


@st.composite
def subspace_pairs(draw):
    """Two subspaces of Q^n, n <= 6, that share some generators."""
    n = draw(st.integers(1, 6))
    shared = draw(vectors(n, draw(st.integers(0, 3))))
    own_a = draw(vectors(n, draw(st.integers(0, 3))))
    own_b = draw(vectors(n, draw(st.integers(0, 3))))
    return (Subspace.from_vectors(n, shared + own_a),
            Subspace.from_vectors(n, shared + own_b))


@st.composite
def members(draw):
    """A subspace and a vector that is a combination of its basis,
    sometimes pushed off by a random vector."""
    n = draw(st.integers(1, 6))
    s = Subspace.from_vectors(n, draw(vectors(n, draw(st.integers(0, n)))))
    coeffs = draw(st.lists(fr, min_size=s.dim, max_size=s.dim))
    v = [sum((c * row[i] for c, row in zip(coeffs, s.basis)), start=0)
         for i in range(n)]
    if draw(st.booleans()):
        v = [x + y for x, y in zip(v, draw(vectors(n, 1))[0])]
    return s, v


@st.composite
def invertible_rows(draw):
    """The rows of L U for unit triangular L and U: a basis of Q^n."""
    n = draw(st.integers(1, 6))
    lower = [[1 if i == j else draw(fr) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else draw(fr) if j > i else 0 for j in range(n)]
             for i in range(n)]
    m = Matrix.from_rows(lower).matmul(Matrix.from_rows(upper))
    return [m.row(r) for r in range(n)], draw(st.integers(0, n))


@given(subspace_pairs())
def test_intersection_matches_reference(pair):
    a, b = pair
    assert list(subspace_intersection(a, b).basis) == reference_intersection(a, b)


@given(members())
def test_contains_matches_rank_test(case):
    s, v = case
    in_span = len(canonical_rows(list(s.basis) + [v], s.ambient_dim)) == s.dim
    assert contains(s, v) == in_span


@given(subspace_pairs())
def test_pivots_leave_identity_alone(pair):
    """The cached reduced basis is keyed by the canonical rows' pivots,
    holds those rows without their leading 1, and is not a field."""
    a, _ = pair
    fresh = Subspace(a.ambient_dim, a.basis)
    leads = [next(i for i, x in enumerate(row) if x != 0) for row in a.basis]
    assert a._reduced == {p: {c: x for c, x in enumerate(row) if x and c != p}
                          for p, row in zip(leads, a.basis)}
    assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)


def _center_target(spec):
    """The "maps into Z(L)" target, which check_bracket_laws builds inside:
    caught by spying on ``Subspace._from_sparse`` while the check runs."""
    built, real = [], Subspace._from_sparse.__func__

    def spy(cls, n, rows):
        built.append(real(cls, n, rows))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subspace, "_from_sparse", classmethod(spy))
        check_bracket_laws(spec, 0)
    n = spec.n
    want = Subspace.from_vectors(n * n, [
        [z[m] if c == l else 0 for m in range(n) for c in range(n)]
        for z in center(spec).basis for l in range(n)])
    return next(s for s in built if s == want)


def _two_spans():
    return (Subspace.from_vectors(4, [(1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 1, 3)]),
            Subspace.from_vectors(4, [(1, 3, 1, 1), (0, 0, 1, -1)]))


# each case: (the inputs, from the bundled algebras; how to build the span)
SPAN_CASES = {
    "Subspace": (lambda b: [], lambda: Subspace(
        3, ((2, 4, 0), (0, 0, 0), (1, 2, 1), (3, 6, 1)))),
    "from_vectors": (lambda b: [], lambda: Subspace.from_vectors(
        3, [(1, 2, 0), (2, 4, 1), (0, 0, 3), (1, 2, 1)])),
    "full": (lambda b: [], lambda: full_space(4)),
    "nullspace": (lambda b: [from_sparse(
        [{0: 1, 2: 2}, {1: 1, 3: -1}, {0: 2, 2: 4}], 5)], nullspace),
    "subspace_sum": (lambda b: list(_two_spans()), subspace_sum),
    "subspace_intersection": (lambda b: list(_two_spans()), subspace_intersection),
    "project_component": (
        lambda b: [solve_space(b["ex2_5"], SpaceKind.QDER, 0, 0)],
        lambda space: project_component(space, 1)),
    "derived_subalgebra": (lambda b: [b["ex2_5"]], derived_subalgebra),
    "center": (lambda b: [b["heisenberg3"]], center.__wrapped__),
    "law center target": (lambda b: [b["heisenberg3"]], _center_target),
}


def _views(value):
    """Every cached view inside a matrix, spec, subspace or solved space."""
    if isinstance(value, MapSpace):
        return [g.matrix._sparse for t in value.tuples for g in t]
    if isinstance(value, Subspace):
        return [value._reduced]
    return [value._sparse]


@pytest.mark.parametrize("case", SPAN_CASES, ids=str)
def test_built_spans_record_their_reduced_rows(bundled, case):
    """Every span records at construction the reduced rows a fresh
    Subspace on its basis would compute, and builds no basis until it is
    read; building it leaves its inputs' views alone, and membership
    leaves the rows alone."""
    make, build = SPAN_CASES[case]
    inputs = make(bundled)
    views = [v for x in inputs for v in _views(x)]
    before = copy.deepcopy(views)
    s = build(*inputs)
    assert "_reduced" in vars(s) and "basis" not in vars(s)
    fresh = Subspace(s.ambient_dim, s.basis)
    assert s.dim and "basis" in vars(s)
    assert s._reduced == fresh._reduced
    assert views == before
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    recorded = copy.deepcopy(s._reduced)
    probes = list(s.basis) + [unit_vec(s.ambient_dim, i) for i in range(s.ambient_dim)]
    assert [contains(s, v) for v in probes] == [contains(fresh, v) for v in probes]
    assert s._reduced == recorded


def _check_projector(p, derived, complement):
    assert p.matmul(p) == p
    for d in derived.basis:
        assert reference_matvec(p, d) == d
    for u in complement.basis:
        assert is_zero_vec(reference_matvec(p, u))


def _check_double(ext):
    name = ext.base.name
    assert ext.u_complement == reference_complement(ext.derived), name
    assert ext.projection == reference_derived_projection(
        ext.derived, ext.u_complement), name
    _check_projector(ext.projection, ext.derived, ext.u_complement)


def test_projection_matches_reference_on_bundled(bundled):
    for spec in bundled.values():
        _check_double(build_extended(spec))


def _e0_plus_e1():
    """[e0, e1] = e0 + e1: the non-pivot columns of the RREF of [L, L]
    give e1, the greedy complement e0."""
    return AlgebraSpec.from_pairs("e0_plus_e1", (0, 0), Matrix.identity(2),
                                  {(0, 1): (1, 1)})


def test_complement_is_the_greedy_choice_off_the_last_coordinate():
    ext = build_extended(_e0_plus_e1())
    assert ext.u_complement == Subspace.from_vectors(2, [unit_vec(2, 0)])
    _check_double(ext)


def test_double_matches_dense_references_beyond_bundled(ex2_5):
    double = build_extended(ex2_5)
    bases = [double.spec, build_extended(double.spec).spec, yau_sl2()]
    for seed in range(4):
        bases += sample_algebras(random.Random(seed), 10, n_max=4)
    for spec in bases:
        _check_double(build_extended(spec))


@given(invertible_rows())
def test_projection_matches_reference_on_random_splits(case):
    rows, cut = case
    n = len(rows)
    derived = Subspace.from_vectors(n, rows[:cut])
    complement, p = extension._split(derived)
    assert complement == reference_complement(derived)
    assert p == reference_derived_projection(derived, complement)
    _check_projector(p, derived, complement)


def _kernel_statuses(ext, k, strict):
    rep = verify_phi_properties(ext, k, strict)
    return tuple(c.status for c in rep.checks
                 if c.name.startswith("vanishing phi image"))


def test_phi_kernel_check_matches_reference(bundled):
    for spec in bundled.values():
        ext = build_extended(spec)
        for strict in (True, False):
            for k in (0, 1):
                assert _kernel_statuses(ext, k, strict) == \
                    reference_phi_kernel(ext, k, strict) == ("pass", "pass")


def test_phi_kernel_check_fails_without_the_t_block(monkeypatch, heisenberg3):
    # phi with its t block dropped loses D, so images of pairs whose D'
    # vanishes on [L, L] cancel while their first components do not
    def dropped(ext, pair):
        d, dp = pair
        zero = zero_matrix(ext.base.n, ext.base.n)
        return GradedMap(block_diag(zero, dp.matrix.matmul(ext.projection)),
                         d.degree)

    monkeypatch.setattr(extension, "_phi_unchecked", dropped)
    ext = build_extended(heisenberg3)
    statuses = _kernel_statuses(ext, 0, True)
    assert statuses == reference_phi_kernel(ext, 0, True)
    assert "fail" in statuses
