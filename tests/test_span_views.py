"""A space's views against the reductions they replaced, and the basis
value that the views hand out.

A space from ``solve_space`` reads its tuple span and its
first-component span off the kernel of its solve: the kernel rows
relabelled to stacked coordinates, and for the first component cut to
block 0.  Any other space, such as one that ``dataclasses.replace``
bent, reduces its own tuples once, and the same view code reads those
rows.  Every view must equal the reduction-built view kept in
``oracle``: spans by ``==``, maps in order.  The views hand out their
maps as one ``spaces._Basis``, which equals and hashes as the plain
tuple and forms each component's rows and index once, for every law
cell that reads it.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from homlie import spaces
from homlie.catalog import BUILTIN
from homlie.linalg import Matrix
from homlie.randomgen import sample_algebras
from homlie.spaces import GradedMap, MapSpace, SpaceKind, solve_space
from oracle import reference_first_view, reference_tuple_view

K_MAX = 2


def _assert_views_are_the_reductions(space, where):
    for got, want in ((space._tuple_view, reference_tuple_view(space)),
                      (space._first_view, reference_first_view(space))):
        assert got[0] == want[0], where
        assert list(got[1]) == list(want[1]), where


def _assert_solved_views_are_the_reductions(spec):
    for kind, k, th, strict in itertools.product(SpaceKind, range(K_MAX + 1), (0, 1),
                                                 (True, False)):
        space = solve_space(spec, kind, k, th, strict)
        _assert_views_are_the_reductions(space, (spec.name, kind, k, th, strict))


@pytest.mark.parametrize("name", BUILTIN)
def test_views_of_solved_spaces_are_the_reductions_on_bundled(bundled, name):
    _assert_solved_views_are_the_reductions(bundled[name])


@pytest.mark.parametrize("seed", range(4))
def test_views_of_solved_spaces_are_the_reductions_on_random_algebras(seed):
    for spec in sample_algebras(random.Random(seed), 10, n_max=4):
        _assert_solved_views_are_the_reductions(spec)


def _bent(space):
    """space with its first tuple replaced by twice itself plus the second,
    with 1/3 added at entry (0, 1) of its first map: tuples that are not
    canonical, spanning another space."""
    n, (first, second) = space.n, space.tuples[:2]
    bump = Matrix._of(n, n, {0: {1: Fraction(1, 3)}})
    maps = [x.matrix.scale(2) + y.matrix for x, y in zip(first, second)]
    maps[0] = maps[0] + bump
    return dataclasses.replace(space, tuples=(
        tuple(GradedMap(m, space.degree) for m in maps),) + space.tuples[1:])


@pytest.mark.parametrize("kind", list(SpaceKind), ids=lambda k: k.value)
def test_a_replaced_space_reduces_its_own_tuples(abelian2, kind):
    """A bent space gets the reductions of its own tuples as spans, and the
    canonical maps of its first-component span, not its tuples, as first
    view; not the views of the solved space it was replaced from.  Built
    with the constructor, it gets them too."""
    solved = solve_space(abelian2, kind, 0, 0)
    assert len(solved.tuples) >= 2
    solved._tuple_view, solved._first_view  # formed before the replace
    bent = _bent(solved)
    _assert_views_are_the_reductions(bent, kind)
    assert bent._tuple_view[0] != solved._tuple_view[0]
    assert bent._first_view[0] != solved._first_view[0]
    assert bent._first_view[1][0] != (bent.tuples[0][0],)
    _assert_views_are_the_reductions(MapSpace(*(getattr(bent, f.name) for f in
                                                dataclasses.fields(bent))), kind)


# --- the basis value ----------------------------------------------------------

def test_a_basis_equals_and_hashes_as_the_plain_tuple(heisenberg3):
    space = solve_space(heisenberg3, SpaceKind.GDER, 1, 0)
    for basis in (space._tuple_view[1], space._first_view[1]):
        plain = tuple(basis)
        assert basis == plain and plain == basis
        assert hash(basis) == hash(plain) == vars(basis)["_hash"]


def test_a_basis_holds_each_components_rows_and_their_index(bundled):
    """Each component's index is that of its rows, the odd ones signed in its
    column table, so an even basis shares one table for both."""
    for name, degree in (("heisenberg3", 0), ("odd_heisenberg", 1)):
        basis = solve_space(bundled[name], SpaceKind.GDER, 1, degree)._tuple_view[1]
        assert len(basis) > 1
        for c in range(3):
            rows = {(i, r): dict(row) for i, t in enumerate(basis)
                    for r, row in t[c].matrix._sparse.items()}
            assert basis._rows[c] == rows
            odd = {i for i, t in enumerate(basis) if t[c].degree}
            assert basis._indexed[c] == spaces._index(rows, odd)
            assert (basis._indexed[c][2] is basis._indexed[c][1]) == (degree == 0)


def test_content_equal_bases_of_two_spaces_hit_one_law_cell(heisenberg3):
    solved = solve_space(heisenberg3, SpaceKind.QDER, 0, 0)
    twin = solve_space.__wrapped__(heisenberg3, SpaceKind.QDER, 0, 0, True)
    assert twin == solved and twin is not solved
    (span, a), (_, b) = solved._tuple_view, twin._tuple_view
    assert a == b and a is not b
    spaces._first_product_outside.cache_clear()
    got = [spaces._first_product_outside(-1, x, x, span) for x in (a, b)]
    info = spaces._first_product_outside.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert got[0] == got[1]


def test_a_lookup_that_reuses_its_bases_forms_no_rows_or_index(ex2_5, monkeypatch):
    a, b = (solve_space(ex2_5, kind)._first_view[1] for kind in (SpaceKind.DER, SpaceKind.QC))
    targets = [solve_space(ex2_5, SpaceKind.QC, k, 0)._first_view[0] for k in (0, 1)]
    assert a and b and targets[0] != targets[1]
    spaces._first_product_outside.cache_clear()
    spaces._first_product_outside(-1, a, b, targets[0])
    spaces._first_product_outside(-1, b, a, targets[0])
    held = [vars(x)[name] for x in (a, b) for name in ("_rows", "_indexed")]
    index, calls = spaces._index, []
    monkeypatch.setattr(spaces, "_index", lambda *args: calls.append(args) or index(*args))
    for x, y in ((a, b), (b, a)):
        spaces._first_product_outside(-1, x, y, targets[1])
    assert spaces._first_product_outside.cache_info().misses == 4
    assert not calls
    assert all(got is want for got, want in zip(
        [vars(x)[name] for x in (a, b) for name in ("_rows", "_indexed")], held))
