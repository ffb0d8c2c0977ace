"""The stacked-RREF subspace routines against the code they replaced.

The references in tests/oracle.py eliminate with the oracle's own
kernel_basis and canonical_rows, so agreement is two routes agreeing.
"""

from hypothesis import given
from hypothesis import strategies as st

from homlie import extension
from homlie.extension import build_extended, verify_phi_properties
from homlie.linalg import (
    Matrix,
    Subspace,
    block_diag,
    contains,
    is_zero_vec,
    subspace_intersection,
)
from homlie.spaces import GradedMap

from oracle import (
    canonical_rows,
    reference_derived_projection,
    reference_intersection,
    reference_phi_kernel,
)

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


def _check_projector(p, derived, complement):
    assert p.matmul(p) == p
    for d in derived.basis:
        assert p.matvec(d) == d
    for u in complement.basis:
        assert is_zero_vec(p.matvec(u))


def test_projection_matches_reference_on_bundled(bundled):
    for name, spec in bundled.items():
        ext = build_extended(spec)
        assert ext.projection == reference_derived_projection(
            ext.derived, ext.u_complement), name
        _check_projector(ext.projection, ext.derived, ext.u_complement)


@given(invertible_rows())
def test_projection_matches_reference_on_random_splits(case):
    rows, cut = case
    n = len(rows)
    derived = Subspace.from_vectors(n, rows[:cut])
    complement = Subspace.from_vectors(n, rows[cut:])
    p = extension._derived_projection(derived, complement)
    assert p == reference_derived_projection(derived, complement)
    _check_projector(p, derived, complement)


@given(invertible_rows())
def test_projection_rejects_a_short_complement(case):
    rows, cut = case
    n = len(rows)
    derived = Subspace.from_vectors(n, rows[:cut])
    complement = Subspace.from_vectors(n, rows[cut + 1:])
    raised = []
    for route in (extension._derived_projection, reference_derived_projection):
        try:
            route(derived, complement)
        except RuntimeError:
            raised.append(route)
    assert len(raised) == (2 if cut < n else 0)


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
        zero = Matrix.zeros(ext.base.n, ext.base.n)
        return GradedMap(block_diag(zero, dp.matrix.matmul(ext.projection)),
                         d.degree)

    monkeypatch.setattr(extension, "_phi_unchecked", dropped)
    ext = build_extended(heisenberg3)
    statuses = _kernel_statuses(ext, 0, True)
    assert statuses == reference_phi_kernel(ext, 0, True)
    assert "fail" in statuses
