"""One level's kind-free system serves all six kinds.

``spaces._level`` holds what a solve at one (twist power, degree, mode)
owes to no kind, for one component: the cells that the degree allows,
less in strict mode those that a one-entry row of M alpha = alpha M
fixes to 0, the other commutation rows, and the bracket tables at
alpha^k.  ``solve_space`` offsets each component's unknowns, spreads its
kind's identities and appends the commutation rows once per component.
A solved space must not depend on whether its level was built for it or
read warm after other kinds, in either order, and must equal the space
read off the per-pair walk's whole system
(``oracle.reference_solve_space``), with equal repr and hash.  The level's
cells, in (m, l) order and each allowed by the degree, held to its
commutation rows, must span the maps that the dense oracle finds
(``oracle.oracle_solve`` with no identity): those of the degree that
commute with alpha if strict, and all of them if lax.  So must they on
random twists of a spec of both degrees: entries off the diagonal, equal
diagonal entries (whose strict rows cancel) and zero rows; there Der,
whose identity reads all three side tables, is solved from the level as
the per-pair walk solves it.  On a diagonal twist every commutation row
has one entry, so the level keeps the cells whose diagonal entries agree
and builds no commutation system.
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


def assert_level_matches_the_oracle(spec, k, degree, strict, commutant):
    """The level's cells, in order and allowed by the degree, held to its
    commutation rows, span ``commutant``, the maps of the degree that the
    dense oracle finds, commuting with alpha if strict; returns the level."""
    level = spaces._level.__wrapped__(spec, k, degree, strict)
    (cells, comm, _), n, case = level, spec.n, (spec.name, k, degree, strict)
    assert cells == sorted(cells), case
    assert all(spec.degrees[m] == (spec.degrees[l] + degree) % 2 for m, l in cells), case
    assert kernel_at(comm, len(cells), [m * n + l for m, l in cells], n * n) == commutant, case
    return level


@pytest.mark.parametrize("name", list(INPUTS))
def test_level_matches_the_reference(name):
    for spec, degree, strict in itertools.product(INPUTS[name](), (0, 1), (True, False)):
        commutant = _commutant(spec, degree, strict)
        for k in range(K_MAX + 1):
            got = assert_level_matches_the_oracle(spec, k, degree, strict, commutant)
            assert all(type(x) is int or x.denominator != 1
                       for row in got[1] for x in row.values())


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
        want = reference_solve_space(spec, SpaceKind.DER, k, degree, True)
        assert _solve(spec, SpaceKind.DER, k, degree, True) == want, degree


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
    entries agree, with no commutation row left, and a lax level keeps them
    all: both span what the dense oracle finds."""
    for degree, strict in itertools.product((0, 1), (True, False)):
        _, comm, _ = assert_level_matches_the_oracle(spec, k, degree, strict,
                                                     _commutant(spec, degree, strict))
        assert comm == []


def test_only_a_twist_off_its_diagonal_presolves_its_level(monkeypatch):
    """The commutation rows are built and presolved only for a twist with an
    entry off its diagonal: sheared h3's strict levels call ``_presolve``,
    and no level of a bundled algebra, all of whose twists are diagonal,
    does; every level still spans what the dense oracle finds."""
    calls, presolve = [], spaces._presolve
    monkeypatch.setattr(spaces, "_presolve", lambda *a, **kw: calls.append(a) or presolve(*a, **kw))
    for spec in INPUTS["bundled"]() + INPUTS["sheared_h3"]():
        for degree, strict in itertools.product((0, 1), (True, False)):
            commutant = _commutant(spec, degree, strict)
            for k in range(K_MAX + 1):
                calls.clear()
                assert_level_matches_the_oracle(spec, k, degree, strict, commutant)
                assert len(calls) == (spec.name == "h3_shear" and strict), \
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
