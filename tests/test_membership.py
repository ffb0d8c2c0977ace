"""Membership on any basis.

``contains`` eliminates a vector against the subspace's basis, reduced
once per object by the same step as ``linalg._reduce``.  So it must
agree with a rank test on the dense reference elimination also when the
stored basis is not canonical: scaled, unordered or dependent rows.
Equality still compares the stored bases.
"""

import copy
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from homlie import spaces
from homlie.linalg import Matrix, Subspace, contains, vec
from homlie.spaces import SpaceKind, alpha_shift, check_bracket_laws
from oracle import reference_rref
from test_laws import K_MAX, _with_fault

fr = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = fr.filter(bool)
entries = st.one_of(st.just(Fraction(0)), fr)


@st.composite
def bases_and_vectors(draw):
    """A basis of Q^n, n <= 5, as stored, and a vector in its span that
    is sometimes pushed off.  The rows are random or canonical, then
    maybe joined by a combination of two of them, scaled and shuffled."""
    n = draw(st.integers(1, 5))
    rows = [list(r) for r in draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), max_size=4))]
    if draw(st.booleans()):
        rows = [list(r) for r in Subspace.from_vectors(n, rows).basis]
    if rows and draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        f, g = draw(fr), draw(fr)
        rows.append([f * x + g * y for x, y in zip(rows[i], rows[j])])
    rows = [[s * x for x in r] for r, s in zip(
        rows, draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows))))]
    rows = draw(st.permutations(rows))
    coeffs = draw(st.lists(fr, min_size=len(rows), max_size=len(rows)))
    v = [sum((c * r[i] for c, r in zip(coeffs, rows)), Fraction(0)) for i in range(n)]
    if draw(st.booleans()):
        v = [x + y for x, y in zip(v, draw(st.lists(entries, min_size=n, max_size=n)))]
    return n, rows, v


def _rank(n, rows):
    return reference_rref(Matrix.from_rows(rows, n))[2] if rows else 0


@example((2, [[2, 0]], [2, 0]))
@example((2, [[0, 1], [1, 0], [1, 1]], [3, -1]))
@given(bases_and_vectors())
def test_contains_matches_a_rank_test_on_any_basis(case):
    n, rows, v = case
    s = Subspace(n, tuple(vec(r) for r in rows))
    reduced = copy.deepcopy(s._reduced)
    want = _rank(n, rows + [v]) == _rank(n, rows)
    # twice on one object: a test must leave the cached rows as they were
    assert contains(s, v) == want and contains(s, v) == want
    assert s._reduced == reduced and s.basis == tuple(vec(r) for r in rows)


def test_membership_accepts_a_scaled_basis_of_integers():
    assert contains(Subspace(2, ((2, 0),)), (2, 0))
    assert not contains(Subspace(2, ((2, 0),)), (0, 1))
    # the reduced rows stay exact: 1/3 is not rounded through a float
    assert contains(Subspace(2, ((3, 1),)), (5, Fraction(5, 3)))
    # equality compares the stored bases, so only canonical ones compare
    assert Subspace(2, ((2, 0),)) != Subspace.from_vectors(2, [(2, 0)])


def test_shift_law_holds_on_equally_bent_levels(heisenberg3, monkeypatch):
    # ZDer's first basis map is bent at every level, so its stored bases
    # are not canonical; heisenberg3's twist is the identity, so the
    # shifted bent tuple is itself the first basis tuple at k = 1
    monkeypatch.setattr(spaces, "solve_space", _with_fault(SpaceKind.ZDER))
    bent = spaces.solve_space(heisenberg3, SpaceKind.ZDER, 0).tuples[0]
    target = spaces.solve_space(heisenberg3, SpaceKind.ZDER, 1).tuples[0]
    assert tuple(alpha_shift(heisenberg3, g) for g in bent) == target
    check = {c.name: c for c in check_bracket_laws(heisenberg3, K_MAX).checks}[
        "shift ZDer: k=0 -> 1 (deg=0)"]
    assert (check.status, check.detail) == ("pass", "")
