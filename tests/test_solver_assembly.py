"""How ``solve_space`` assembles its linear system.

The solver reads one kind-free level (``spaces._level``): the allowed
cells of one component, on a diagonal strict twist less those whose one
commutation entry fixes them to zero, and the side tables, those of the
identities built in one pass over the nonzero structure constants and,
on a strict twist with an entry off its diagonal, the two sides of
M alpha - alpha M.  It offsets each component's unknowns and sums every
cell of every term of ``IDENTITIES`` into its row as it is made, the row
keyed by one integer whose order is that of (i, j, equation, m); the
commutation rows, spread from the two sides per component, follow in
the order of (component, twist column, m).  One routine,
``spaces._presolve``, then takes out the unknowns that rows of one
nonzero entry fix to zero, whether the row reached one unknown or
cancelled down to one, and sorts only the keys of more unknowns, its
kept unknowns counted from the last.  On random rows the presolved rows
must have the kernel that the dense oracle (``oracle.kernel_at``) gives
for the rows as given, and be those of two or more nonzero entries, in
key order.  ``_kernel`` writes each kept unknown at its tuple coordinate,
(c n + m) n + l, and the kernel rows become maps through
``spaces._maps``, read in pivot order.  The system that reaches
``linalg._kernel`` must hold, at increasing labels, none of the unknowns
of the per-pair walk's whole system (``oracle.reference_system_rows``)
that a row of one entry there fixes; its rows must be those of the whole
system that keep a labelled unknown, in their order, less the other
unknowns; it must have that whole system's kernel, by the dense oracle;
and the solved space must be the one read off the whole system
(``oracle.reference_solve_space``), equal, with equal repr and hash.
The brute-force oracle, which builds its system dense over every matrix
entry, must agree on twisted h5, sheared h3 and super-Heisenberg 1|2 for
every kind.
"""

import contextlib
import copy
import io
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homlie import spaces
from homlie.algebra import AlgebraSpec
from homlie.catalog import load_builtin
from homlie.cli import main
from homlie.extension import build_extended
from homlie.randomgen import sample_algebras
from homlie.spaces import SpaceKind
from oracle import (
    heisenberg,
    kernel_at,
    oracle_solve,
    reference_solve_space,
    reference_system_rows,
    stacked,
    system_coordinates,
)
from test_boundary import yau_sl2
from test_jordan_engine import super_heisenberg


def sl2_sum() -> AlgebraSpec:
    """sl2 (+) sl2, each copy on (h, e, f) Yau-twisted by diag(1, lam,
    1/lam), lam 2 and 3: [h, e] = 2 lam e, [h, f] = -2/lam f, [e, f] = h."""
    pairs = {}
    for off, lam in ((0, Fraction(2)), (3, Fraction(3))):
        def at(c, x):
            return tuple(x if i == off + c else 0 for i in range(6))
        pairs |= {(off, off + 1): at(1, 2 * lam), (off, off + 2): at(2, -2 / lam),
                  (off + 1, off + 2): at(0, 1)}
    twist = [1, 2, Fraction(1, 2), 1, 3, Fraction(1, 3)]
    return AlgebraSpec.from_pairs(
        "sl2_2+sl2_3", (0,) * 6,
        [[twist[r] if r == c else 0 for c in range(6)] for r in range(6)], pairs)


def sheared_h3() -> AlgebraSpec:
    """h3 twisted by the shear x -> x + y fixing y and z, which preserves
    [x, y] = z; unlike every other fixture here with a nonzero bracket,
    its twist is not symmetric, so a^k read transposed shows."""
    return AlgebraSpec.from_pairs("h3_shear", (0, 0, 0), [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
                                  {(0, 1): (0, 0, 1)})


def odd_line() -> AlgebraSpec:
    """Even h acting on odd f by [h, f] = f, untwisted.  An odd D sends f
    to b h, and the QC row of b at (f, f) cancels only through the parity
    sign of the left term, so b stays free."""
    return AlgebraSpec.from_pairs("odd_line", (0, 1), [[1, 0], [0, 1]], {(0, 1): (0, 1)})


def half_twisted_plane() -> AlgebraSpec:
    """The abelian plane under the twist [[3/2, 1], [1, 1/2]]: no row has one
    entry, and the strict row at twist column 0, m = 1 sums 3/2 - 1/2 into
    an integral coefficient beside two other unknowns."""
    return AlgebraSpec.from_pairs("half_plane", (0, 0),
                                  [[Fraction(3, 2), 1], [1, Fraction(1, 2)]], {})


def _system(monkeypatch, spec, kind, k, degree, strict):
    """(rows, labels, space) of one uncached solve: the rows and labels of
    the system that ``solve_space`` hands ``_kernel``, each row read back
    from the reversed columns that ``_kernel`` takes (c -> width - 1 - c,
    the unknown at labels[width - 1 - c]), or ([], []) when no entry is
    allowed and no system is built."""
    seen, inner = [], spaces._kernel

    def kernel(rows, labels):
        rows, width = list(rows), len(labels)  # rows are consumed by inner, so read first
        seen.append(([{width - 1 - c: x for c, x in row.items()} for row in rows], list(labels)))
        return inner(rows, labels)

    with monkeypatch.context() as m:
        m.setattr(spaces, "_kernel", kernel)
        space = spaces.solve_space.__wrapped__(spec, kind, k, degree, strict)
    if not seen:
        return [], [], space
    (system,) = seen
    return *system, space


def assert_assembly_matches(monkeypatch, specs, k_max):
    for spec, kind, k, degree, strict in itertools.product(
            specs, SpaceKind, range(k_max + 1), (0, 1), (True, False)):
        case = (spec.name, kind.value, k, degree, strict)
        rows, labels, space = _system(monkeypatch, spec, kind, k, degree, strict)
        whole, width = reference_system_rows(spec, kind, k, degree, strict)
        places = system_coordinates(spec, kind, degree)
        # presolved: the kept unknowns at their coordinates, in order, none
        # that a row of one entry of the whole system fixes to 0; the rows
        # are those of the whole system that keep a labelled unknown, in
        # their order, each less the other unknowns, and have its kernel
        fixed = {places[i] for row in whole if len(row) == 1 for i in row}
        assert labels == sorted(set(labels)) and set(labels) <= set(places), case
        assert not set(labels) & fixed, case
        at = {p: c for c, p in enumerate(labels)}
        assert rows == [r for row in whole if (r := {
            at[places[i]]: x for i, x in row.items() if places[i] in at})], case
        size = kind.arity * spec.n ** 2
        assert kernel_at(rows, len(labels), labels, size) == \
            kernel_at(whole, width, places, size), case
        # the trusted view holds integral values as int, as every sparse row does
        assert all(type(x) is int or x.denominator != 1
                   for row in rows for x in row.values()), case
        want = reference_solve_space(spec, kind, k, degree, strict)
        assert space == want and repr(space) == repr(want), case
        assert hash(space) == hash(want), case


def test_assembly_matches_the_per_pair_walk_on_bundled(bundled, monkeypatch):
    assert_assembly_matches(monkeypatch,
                            [*bundled.values(), yau_sl2(), sl2_sum(), sheared_h3(),
                             odd_line(), half_twisted_plane()], 3)


@pytest.mark.parametrize("name", ["h5", "h7", "sh1_3", "ex2_5 double of double"])
def test_assembly_matches_the_per_pair_walk_on_larger_algebras(bundled, monkeypatch,
                                                               name):
    spec = {"h5": lambda: heisenberg(2, True), "h7": lambda: heisenberg(3, True),
            "sh1_3": lambda: super_heisenberg(3),
            "ex2_5 double of double": lambda: build_extended(
                build_extended(bundled["ex2_5"]).spec).spec}[name]()
    assert_assembly_matches(monkeypatch, [spec], 1)


@pytest.mark.parametrize("seed", range(4))
def test_assembly_matches_the_per_pair_walk_on_random_algebras(monkeypatch, seed):
    assert_assembly_matches(monkeypatch, sample_algebras(random.Random(seed), 10, n_max=4), 1)


def _cancels_to_one(spec, kind, k, degree, strict):
    """Whether some row reaches two or more unknowns and all but one of
    them cancel."""
    touched = []
    reference_system_rows(spec, kind, k, degree, strict, touched)
    return any(reached > 1 and left == 1 for reached, left in touched)


def _commutation_rows(spec, kind, k, degree):
    """The strict rows of the whole system: those past the lax ones."""
    whole, _ = reference_system_rows(spec, kind, k, degree, True)
    return whole[len(reference_system_rows(spec, kind, k, degree, False)[0]):]


# name: (algebra, kind, k, degree, strict, what the case is, given the
# whole system, the system that reaches _kernel and the solved space)
EDGES = {
    "every allowed unknown fixed": (
        lambda: load_builtin("ex2_5"), SpaceKind.ZDER, 0, 0, True,
        lambda whole, rows, width, space: whole[1] > 0 and (rows, width) == ([], 0)),
    "a row with one entry only after stripping": (
        lambda: load_builtin("ex2_5"), SpaceKind.C, 1, 0, True,
        lambda whole, rows, width, space: any(len(row) == 1 for row in rows)),
    "a row of several unknowns cancelled down to one": (
        lambda: load_builtin("ex2_5"), SpaceKind.DER, 0, 0, False,
        lambda whole, rows, width, space: _cancels_to_one(
            load_builtin("ex2_5"), SpaceKind.DER, 0, 0, False)),
    "no one-entry row": (
        lambda: load_builtin("ex2_5"), SpaceKind.QDER, 0, 0, False,
        lambda whole, rows, width, space: whole[0] and (rows, width) == whole
        and all(len(row) > 1 for row in rows)),
    "sheared h3 strict, with two-entry commutation rows": (
        sheared_h3, SpaceKind.QC, 0, 0, True,
        lambda whole, rows, width, space: any(
            len(row) == 2 for row in _commutation_rows(sheared_h3(), SpaceKind.QC, 0, 0))),
    "an odd algebra, with zero odd components": (
        lambda: load_builtin("odd_heisenberg"), SpaceKind.GDER, 0, 1, True,
        lambda whole, rows, width, space: any(g.is_zero() for t in space.tuples for g in t)),
}


@pytest.mark.parametrize("case", list(EDGES))
def test_presolve_edge_cases_match_the_reference(monkeypatch, case):
    make, kind, k, degree, strict, holds = EDGES[case]
    spec = make()
    whole = reference_system_rows(spec, kind, k, degree, strict)
    rows, labels, space = _system(monkeypatch, spec, kind, k, degree, strict)
    assert holds(whole, rows, len(labels), space), case
    # the presolved system has the whole system's kernel, each unknown at its coordinate
    size = kind.arity * spec.n ** 2
    assert kernel_at(rows, len(labels), labels, size) == \
        kernel_at(whole[0], whole[1], system_coordinates(spec, kind, degree), size), case
    want = reference_solve_space(spec, kind, k, degree, strict)
    assert space == want and repr(space) == repr(want), case
    assert hash(space) == hash(want), case


_ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                     st.fractions(min_value=-2, max_value=2, max_denominator=4))


@st.composite
def _keyed_rows(draw):
    """({key: row}, width): nonempty rows over unknowns 0..width-1, keys
    inserted in any order, entries often 0, so that rows of one entry may
    hold 0 and longer rows may cancel to one entry or to none; an unknown
    may be named by no row."""
    width = draw(st.integers(0, 6))
    keys = draw(st.lists(st.integers(-20, 20), unique=True, max_size=8 if width else 0))
    row = st.dictionaries(st.integers(0, width - 1), _ENTRIES, min_size=1, max_size=4)
    return {key: draw(row) for key in keys}, width


@given(_keyed_rows())
def test_presolve_matches_the_reference_on_random_rows(case):
    rows_by_key, width = case
    rows, kept = spaces._presolve(rows_by_key, width)
    # the presolved rows, their place c the kept unknown kept[-1 - c], counted from the
    # last, have the kernel of the rows as given
    assert kernel_at(rows, len(kept), kept[::-1], width) == \
        kernel_at(list(rows_by_key.values()), width, range(width), width)
    # and are the given rows of two or more nonzero entries, in key order, less the others
    at = {i: len(kept) - 1 - p for p, i in enumerate(kept)}
    assert rows == [row for _, given in sorted(rows_by_key.items())
                    if len(r := {i: x for i, x in given.items() if x}) > 1
                    and (row := {at[i]: x for i, x in r.items() if i in at})]
    assert kept == sorted(set(kept)) and all(0 <= i < width for i in kept)
    assert all(type(x) is int or x.denominator != 1 for row in rows for x in row.values())


@pytest.mark.parametrize("lax", [(), ("--lax",)], ids=["strict", "lax"])
def test_a_report_writes_into_no_solved_map(bundled, lax):
    """The zero components of one solve share one map, so a consumer that
    wrote into a view would change other tuples: after ``report --kmax 2``
    on the bundled algebras, which reads the cached spaces, every solved
    tuple prints as before and holds the views it held."""
    spaces.solve_space.cache_clear()
    solved = [spaces.solve_space(spec, kind, k, degree, not lax)
              for spec in bundled.values() for kind in SpaceKind
              for k in range(3) for degree in (0, 1)]
    zeros = [g for space in solved for t in space.tuples for g in t if g.is_zero()]
    assert len({id(g) for g in zeros}) < len(zeros)

    def state():
        return [(repr(space.tuples), [g.matrix._sparse for t in space.tuples for g in t])
                for space in solved]

    before, hits = copy.deepcopy(state()), spaces.solve_space.cache_info().hits
    with contextlib.redirect_stdout(io.StringIO()):
        for name in bundled:
            main(["report", name, "--kmax", "2", *lax])
    assert spaces.solve_space.cache_info().hits > hits
    assert state() == before


@pytest.mark.slow  # about 2 s for both modes: dense Fraction elimination of 75 unknowns
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_solver_matches_brute_force_oracle_on_twisted_h5(strict):
    spec = heisenberg(2, True)
    for kind, k, degree in itertools.product(SpaceKind, (0, 1), (0, 1)):
        got = stacked(spaces.solve_space(spec, kind, k, degree, strict))
        assert got == oracle_solve(spec, kind, k, degree, strict), (kind, k, degree)


@pytest.mark.slow  # under 2 s for all four: n = 3 and n = 3 with two odd elements
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
@pytest.mark.parametrize("name", ["sheared h3", "sh1_2"])
def test_solver_matches_brute_force_oracle_beyond_one_entry_rows(name, strict):
    # the shear's commutation rows have two entries, and 1|2 has odd signs
    spec = {"sheared h3": sheared_h3, "sh1_2": lambda: super_heisenberg(2)}[name]()
    for kind, k, degree in itertools.product(SpaceKind, (0, 1), (0, 1)):
        got = stacked(spaces.solve_space(spec, kind, k, degree, strict))
        assert got == oracle_solve(spec, kind, k, degree, strict), (kind, k, degree)
