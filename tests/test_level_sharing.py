"""One level's kind-free system serves all six kinds.

``spaces._level`` holds what a solve at one (twist power, degree, mode)
owes to no kind, for one component: the cells that the degree allows,
less in strict mode on a diagonal twist those whose one commutation
entry fixes them to 0, and the side tables that ``spaces._spread``
spreads: those of the identities at alpha^k and, strict on a twist with
an entry off its diagonal, the two sides of M alpha - alpha M.
``solve_space`` offsets each component's unknowns, spreads its kind's
identities and the two commutation sides once per component, and
presolves the whole system once; no level calls ``_presolve``.  A
solved space must not depend on whether its level was built for it or
read warm after other kinds, in either order, and must equal the space
read off the per-pair walk's whole system
(``oracle.reference_solve_space``), with equal repr and hash.  The
level's cells, in (m, l) order and each allowed by the degree, held to
the rows that its two sides spread over one component, must span the
maps that the dense oracle finds (``oracle.oracle_solve`` with no
identity): those of the degree that commute with alpha if strict, and
all of them if lax.  So must they on random twists of a spec of both
degrees: entries off the diagonal, equal diagonal entries (whose strict
rows cancel) and zero rows; there every kind is solved from the level
as the per-pair walk solves it.  On a diagonal twist every commutation
row has one entry, so the level keeps the cells whose diagonal entries
agree and has no commutation side.
"""

import contextlib
import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import spaces
from homlie.algebra import AlgebraSpec
from homlie.catalog import BUILTIN, load_builtin
from homlie.cli import main
from homlie.extension import build_extended
from homlie.randomgen import sample_algebras
from homlie.spaces import SpaceKind
from oracle import kernel_at, oracle_solve, reference_solve_space
from test_solver_assembly import half_twisted_plane, sheared_h3

K_MAX = 2

INPUTS = {
    "bundled": lambda: [load_builtin(name) for name in BUILTIN],
    # non-diagonal twists: the plane's strict rows keep several entries
    "half_plane": lambda: [half_twisted_plane()],
    "sheared_h3": lambda: [sheared_h3()],
    **{f"random{seed}": lambda seed=seed: sample_algebras(random.Random(seed), 10, n_max=4)
       for seed in range(4)},
}


def _solve(spec, kind, k, degree, strict):
    return spaces.solve_space.__wrapped__(spec, kind, k, degree, strict)


def _three_ways(spec, k, degree, strict):
    """Each kind's space with its level cold, then warm in ``SpaceKind``
    order and in reverse order; the two warm walks build the level once."""
    cold = {}
    for kind in SpaceKind:
        spaces._level.cache_clear()
        cold[kind] = _solve(spec, kind, k, degree, strict)
    walks = []
    for order in (list(SpaceKind), list(reversed(SpaceKind))):
        spaces._level.cache_clear()
        walks.append({kind: _solve(spec, kind, k, degree, strict) for kind in order})
        assert spaces._level.cache_info().misses == 1
    return cold, *walks


@pytest.mark.parametrize("name", list(INPUTS))
def test_each_kind_is_solved_alike_from_a_cold_or_a_shared_level(name):
    for spec, k, degree, strict in itertools.product(
            INPUTS[name](), range(K_MAX + 1), (0, 1), (True, False)):
        ways = _three_ways(spec, k, degree, strict)
        for kind in SpaceKind:
            case = (spec.name, kind.value, k, degree, strict)
            want = reference_solve_space(spec, kind, k, degree, strict)
            for got in ways:
                assert got[kind] == want and repr(got[kind]) == repr(want), case
                assert hash(got[kind]) == hash(want), case
    spaces._level.cache_clear()


def _commutant(spec, degree, strict):
    """The maps of the degree, commuting with alpha if strict, by the dense
    oracle: what a level leaves at every k."""
    return oracle_solve(spec, None, 0, degree, strict)


def _commutation_rows(sides):
    """The rows of M alpha - alpha M that a solve spreads from the level's two
    sides over one component, M alpha added and alpha M taken away; none
    when the level has no such side."""
    acc = {}
    for side, sign in (("twist", 1), ("twisted", -1)):
        if side in sides:
            spaces._spread(acc, 0, *sides[side], sign, 0)
    return list(acc.values())


def assert_level_matches_the_oracle(spec, k, degree, strict, commutant):
    """The level's cells, in order and allowed by the degree, held to the
    rows that its two commutation sides spread over one component, span
    ``commutant``, the maps of the degree that the dense oracle finds,
    commuting with alpha if strict.  The level is built with no
    ``_presolve`` call, and has the two sides exactly when it is strict on
    a twist with an entry off its diagonal and keeps a cell; returns it."""
    calls, n, case = [], spec.n, (spec.name, k, degree, strict)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spaces, "_presolve", lambda *a: calls.append(a))
        level = spaces._level.__wrapped__(spec, k, degree, strict)
    cells, sides = level
    assert not calls, case
    off = strict and any(spec.alpha.at(r, c) for r in range(n) for c in range(n) if r != c)
    two = {"twist", "twisted"}
    assert two & set(sides) == (two if off and cells else set()), case
    assert cells == sorted(cells), case
    assert all(spec.degrees[m] == (spec.degrees[l] + degree) % 2 for m, l in cells), case
    assert kernel_at(_commutation_rows(sides), len(cells), [m * n + l for m, l in cells],
                     n * n) == commutant, case
    return level


@pytest.mark.parametrize("name", list(INPUTS))
def test_level_matches_the_reference(name):
    for spec, degree, strict in itertools.product(INPUTS[name](), (0, 1), (True, False)):
        commutant = _commutant(spec, degree, strict)
        for k in range(K_MAX + 1):
            got = assert_level_matches_the_oracle(spec, k, degree, strict, commutant)
            assert all(type(x) is int or x.denominator != 1 for _, table, _ in got[1].values()
                       for vec in table.values() for x in vec.values())


_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3))


@st.composite
def mixed_twists(draw):
    """A spec of both degrees, n 2 to 4, with a few random brackets, under a
    twist that holds a nonzero entry off its diagonal, often one value all
    along its diagonal and often rows of zeros."""
    n = draw(st.integers(2, 4))
    degrees = draw(st.permutations([0, 1] + draw(st.lists(st.integers(0, 1),
                                                              min_size=n - 2, max_size=n - 2))))
    twist = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        same = draw(_ENTRIES)
        for i in range(n):
            twist[i][i] = same
    r = draw(st.integers(0, n - 1))
    for i in draw(st.sets(st.integers(0, n - 1).filter(lambda i: i != r), max_size=n - 1)):
        twist[i] = [0] * n
    twist[r][draw(st.integers(0, n - 1).filter(lambda c: c != r))] = draw(
        _ENTRIES.filter(bool))
    pairs = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ij: ij[0] < ij[1]), st.lists(_ENTRIES, min_size=n, max_size=n), max_size=3))
    return AlgebraSpec.from_pairs("mixed", degrees, twist, pairs)


@settings(max_examples=60, deadline=None)
@given(mixed_twists(), st.integers(0, 2))
def test_strict_level_matches_the_reference_on_random_twists(spec, k):
    for degree in (0, 1):
        assert_level_matches_the_oracle(spec, k, degree, True, _commutant(spec, degree, True))
        for kind in SpaceKind:
            want = reference_solve_space(spec, kind, k, degree, True)
            assert _solve(spec, kind, k, degree, True) == want, (kind.value, degree)


@st.composite
def diagonal_twists(draw):
    """A spec of both degrees, n 2 to 4, with a few random brackets, under a
    diagonal twist: often one value all along it, often zeros on it, and
    otherwise distinct values."""
    n = draw(st.integers(2, 4))
    degrees = draw(st.permutations([0, 1] + draw(st.lists(st.integers(0, 1),
                                                              min_size=n - 2, max_size=n - 2))))
    diag = draw(st.one_of(st.builds(lambda x: [x] * n, _ENTRIES),
                          st.lists(_ENTRIES, min_size=n, max_size=n),
                          st.lists(_ENTRIES, min_size=n, max_size=n, unique=True)))
    pairs = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ij: ij[0] < ij[1]), st.lists(_ENTRIES, min_size=n, max_size=n), max_size=3))
    twist = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return AlgebraSpec.from_pairs("diagonal", degrees, twist, pairs)


@settings(max_examples=60, deadline=None)
@given(diagonal_twists(), st.integers(0, 2))
def test_level_on_a_diagonal_twist_matches_the_reference(spec, k):
    """On a diagonal twist a strict level keeps the cells whose two diagonal
    entries agree, with no commutation side, and a lax level keeps them
    all: both span what the dense oracle finds."""
    for degree, strict in itertools.product((0, 1), (True, False)):
        _, sides = assert_level_matches_the_oracle(spec, k, degree, strict,
                                                   _commutant(spec, degree, strict))
        assert "twist" not in sides and "twisted" not in sides


def test_no_level_presolves_and_only_a_twist_off_its_diagonal_gets_the_two_sides():
    """No level calls ``_presolve`` (``assert_level_matches_the_oracle``
    builds each with it watched), and only the strict levels of sheared h3
    and of the half-twisted plane, whose twists hold an entry off their
    diagonals, get the two sides of M alpha - alpha M; no bundled
    algebra's level does, as all their twists are diagonal.  Every level
    still spans what the dense oracle finds."""
    for spec in INPUTS["bundled"]() + INPUTS["sheared_h3"]() + INPUTS["half_plane"]():
        for degree, strict in itertools.product((0, 1), (True, False)):
            commutant = _commutant(spec, degree, strict)
            for k in range(K_MAX + 1):
                cells, sides = assert_level_matches_the_oracle(spec, k, degree, strict, commutant)
                two = ["twist", "twisted"] if strict and spec.name in ("h3_shear", "half_plane") else []
                assert sorted(sides) == (["eval", "left", "right"] + two if cells else []), \
                    (spec.name, k, degree, strict)


def test_a_report_builds_each_level_once(monkeypatch):
    """``report ex2_5 --kmax 3`` reads the base and its double at every
    k <= 3, both degrees and both modes (the embedding check runs both).
    ex2_5's twist diag(1, 2, 2) repeats no power, so each of those is its
    own least level, and each is built once."""
    for cached in (spaces.solve_space, spaces._level):
        cached.cache_clear()
    read, level = [], spaces._level
    monkeypatch.setattr(spaces, "_level", lambda *key: read.append(key) or level(*key))
    with contextlib.redirect_stdout(io.StringIO()):
        main(["report", "ex2_5", "--kmax", "3"])
    base = load_builtin("ex2_5")
    assert set(read) == {(spec, k, degree, strict)
                         for spec in (base, build_extended(base).spec) for k in range(4)
                         for degree in (0, 1) for strict in (True, False)}
    assert (level.cache_info().misses, len(read)) == (32, 88)
