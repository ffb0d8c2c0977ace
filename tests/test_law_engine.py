"""The content-keyed law engine of homlie.spaces.

A law cell is answered from a cache keyed on the product's sign, both
bases and the target, so a changed basis or a changed product must never
be served the verdict of an earlier call; and the checks it runs must
report ``fail`` with a witness when a product really leaves its target.
"""

import itertools
from fractions import Fraction

import pytest

from homlie import cli, spaces
from homlie.linalg import _subtract, format_matrix
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    check_bracket_laws,
    check_qc_structure,
    jordan_product,
    solve_space,
)
from oracle import alpha_shift, reference_bracket_laws
from test_jordan_engine import assert_circle_check_matches_ordered_walk
from test_laws import K_MAX, _with_fault

_EQUIVALENCE = "closure equivalence (bracket <=> composition)"


def _by_name(report):
    return {c.name: c for c in report.checks}


def test_cached_cells_are_not_served_to_changed_bases(ex2_5, monkeypatch):
    clean = check_bracket_laws(ex2_5, K_MAX)
    monkeypatch.setattr(spaces, "solve_space", _with_fault(SpaceKind.QDER))
    faulted = check_bracket_laws(ex2_5, K_MAX)
    assert faulted == reference_bracket_laws(ex2_5, K_MAX, True)
    assert faulted != clean


@pytest.fixture
def bend_compositions(monkeypatch):
    """bend(p, w, block) patches ``spaces._join`` so that a composition
    (s = 0) of a batch whose block i is the map p with a batch whose block
    w is ``block`` gains +1/3 at entry (0, 1) of block (i, w), and returns
    the list of right batch sizes it bent at.  The law cache is cleared once
    bent and again after the test, so no verdict crosses the bend."""
    join, bent_at = spaces._join, []

    def bend(p, w, block):
        def bent(*terms, skew=False):
            rows = join(*terms, skew=skew)
            for _, left, _, (by_row, _, _), s in terms:
                blocks = [(v, k, row) for k, at in by_row.items() for v, row in at]
                if s != 0 or block.matrix._sparse != {k: row for v, k, row in blocks if v == w}:
                    continue
                for i in dict.fromkeys(i for i, _ in left):
                    if p.matrix._sparse == {k: row for (j, k), row in left.items() if j == i}:
                        bent_at.append(len({v for v, _, _ in blocks}))
                        _subtract(rows.setdefault((i, w, 0), {}), -1, {1: Fraction(1, 3)})
            return {key: row for key, row in rows.items() if row}

        monkeypatch.setattr(spaces, "_join", bent)
        spaces._first_product_outside.cache_clear()
        return bent_at

    yield bend
    spaces._first_product_outside.cache_clear()


def test_closure_equivalence_fails_on_a_bent_composition(ex2_5, bend_compositions):
    # ex2_5's QC at degree 0 is spanned by the identity at k = 0 and by
    # diag(1, 2, 2) at k = 1; bending diag(1, 2, 2) o identity, the only
    # map of a cell of one map (w = 0), moves exactly the level
    # (k, s) = (1, 0)
    first = [solve_space(ex2_5, SpaceKind.QC, k).tuples[0][0] for k in (0, 1)]
    clean = _by_name(check_qc_structure(ex2_5, K_MAX))
    assert clean[_EQUIVALENCE].status == "pass"

    bent_at = bend_compositions(first[1], 0, first[0])
    checks = _by_name(check_qc_structure(ex2_5, K_MAX))
    assert bent_at and set(bent_at) == {1}
    assert checks["QC bracket-closed"].detail == "yes"
    assert checks["QC composition-closed"].detail == "no (k=1, s=0)"
    equivalence = checks[_EQUIVALENCE]
    assert (equivalence.status, equivalence.detail) == (
        "fail", "bracket: True, composition: False")


def test_closure_equivalence_fails_on_a_bent_block_of_a_wide_cell(abelian2,
                                                                 bend_compositions):
    # abelian2's QC at k = 0 is spanned by diag(1, 0) and diag(0, 1), so a
    # law cell there has m = 2: one batched product forms both products of
    # the first map, as blocks w = 0 and w = 1.  Bending block w = 1,
    # where b_1 = diag(0, 1), by +1/3 at entry (0, 1) moves
    # first o b_1 = 0 out of QC at (0, 0)
    first, second = (t[0] for t in solve_space(abelian2, SpaceKind.QC).tuples)
    clean = _by_name(check_qc_structure(abelian2, K_MAX))
    assert clean[_EQUIVALENCE].status == "pass"

    bent_at = bend_compositions(first, 1, second)
    checks = _by_name(check_qc_structure(abelian2, K_MAX))
    assert bent_at and set(bent_at) == {2}
    assert checks["QC bracket-closed"].detail == "yes"
    assert checks["QC composition-closed"].detail == "no (k=0, s=0)"
    equivalence = checks[_EQUIVALENCE]
    assert (equivalence.status, equivalence.detail) == (
        "fail", "bracket: True, composition: False")


def test_super_commutativity_fails_on_an_asymmetric_circle(heisenberg3,
                                                           monkeypatch):
    def asymmetric(a, b):
        g = jordan_product(a, b)
        return GradedMap(g.matrix + a.matrix, g.degree)

    monkeypatch.setattr(spaces, "jordan_product", asymmetric)
    check = _by_name(check_qc_structure(heisenberg3, K_MAX))[
        "circle product super-commutative"]
    # the first pair of distinct maps (a, b) gives a - b != 0; a is the
    # first QC basis map at k = 0, degree 0
    first = solve_space(heisenberg3, SpaceKind.QC).tuples[0][0]
    assert (check.status, check.detail) == ("fail", format_matrix(first.matrix))
    # the unordered walk finds the ordered walk's first pair
    witness = assert_circle_check_matches_ordered_walk(heisenberg3, K_MAX, True)
    assert witness[0] == first


def _bent_at_level(kind, level):
    """solve_space, with ``_with_fault(kind)`` at k = level only."""
    faulty = _with_fault(kind)

    def bent(spec, space_kind, k=0, degree=0, strict=True):
        return (faulty if k == level else solve_space)(spec, space_kind, k, degree, strict)

    return bent


def test_shift_law_fails_on_a_space_bent_at_one_level(abelian2, monkeypatch):
    # alpha = diag(1, 2), whose powers all differ, so level 0 is a space
    # of its own.  ZDer of abelian2 is the diagonal maps at every k;
    # bending its first basis map at k = 0 only, by +1/3 at entry (0, 1),
    # gives a map that is not diagonal, so D -> D o alpha leaves ZDer at
    # k = 1 with it.
    bent_at_level_0 = _bent_at_level(SpaceKind.ZDER, 0)
    monkeypatch.setattr(spaces, "solve_space", bent_at_level_0)
    bent = bent_at_level_0(abelian2, SpaceKind.ZDER).tuples[0][0]
    laws = check_bracket_laws(abelian2, K_MAX)
    assert laws == reference_bracket_laws(abelian2, K_MAX, True)
    check = _by_name(laws)["shift ZDer: k=0 -> 1 (deg=0)"]
    assert (check.status, check.detail) == (
        "fail", "witness " + format_matrix(alpha_shift(abelian2, bent).matrix))


def test_shift_law_fails_into_a_space_bent_at_the_next_level(abelian2, monkeypatch):
    # bent at k = 1 only, ZDer no longer holds diag(1, 0) o alpha =
    # diag(1, 0), the first basis map at k = 0 shifted
    monkeypatch.setattr(spaces, "solve_space", _bent_at_level(SpaceKind.ZDER, 1))
    laws = check_bracket_laws(abelian2, K_MAX)
    assert laws == reference_bracket_laws(abelian2, K_MAX, True)
    check = _by_name(laws)["shift ZDer: k=0 -> 1 (deg=0)"]
    assert (check.status, check.detail) == ("fail", "witness [1 0; 0 0]")


def test_a_bend_at_level_0_of_an_identity_twist_is_a_bend_at_every_level(heisenberg3,
                                                                         monkeypatch):
    # every power of the identity is the identity, so every level reads
    # the one space solved at k = 0
    space = spaces._reader(heisenberg3, True, 3)
    solved = [space(SpaceKind.ZDER, k, 0) for k in range(4)]
    assert all(s is solved[0] for s in solved)
    reports = []
    for bent in (_bent_at_level(SpaceKind.ZDER, 0), _with_fault(SpaceKind.ZDER)):
        monkeypatch.setattr(spaces, "solve_space", bent)
        reports.append(check_bracket_laws(heisenberg3, 3))
    assert reports[0] == reports[1] == reference_bracket_laws(heisenberg3, 3, True)
    assert not reports[0].ok


def test_laws_of_an_identity_twist_solve_only_level_0(heisenberg3):
    misses = []
    for k_max in (0, 3):
        solve_space.cache_clear()
        check_bracket_laws(heisenberg3, k_max)
        misses.append(solve_space.cache_info().misses)
    assert misses[0] == misses[1]


@pytest.mark.parametrize("lax", [(), ("--lax",)], ids=["strict", "lax"])
def test_report_of_an_identity_twist_solves_only_level_0(lax, capsys):
    # the dimension table, the checks and the double's checks all read
    # level k of heisenberg3 and of its double at level 0
    misses = []
    for k_max in ("0", "3"):
        solve_space.cache_clear()
        cli.main(["report", "heisenberg3", "--kmax", k_max, *lax])
        misses.append(solve_space.cache_info().misses)
    assert misses == [14, 14]


def test_law_cache_counts_on_report(capsys):
    """Hashing a key differently must not change what the cache sees:
    ``report ex2_5 --kmax 3`` looks up 90 law cells, 51 of them new.  A
    cell with an empty factor holds no product and passes before any
    lookup; before, the cache saw 520 lookups, 96 of them new, most of
    them on degree 1, where every space of ex2_5 is empty.  Before
    bracket cells read their transposes it was 396 hits and 124 misses.
    A cell that brackets a kind with itself at (k, s, th1, th2) first
    looks up its transpose (s, k, th2, th1), which the walk formed before
    it.  Here every such transpose passes, so no cell looks up twice."""
    spaces._first_product_outside.cache_clear()
    cli.main(["report", "ex2_5", "--kmax", "3"])
    info = spaces._first_product_outside.cache_info()
    assert (info.hits, info.misses) == (39, 51)


def test_law_cache_counts_on_a_failing_report(capsys):
    """``report ex2_5 --kmax 3 --lax`` fails law checks, so some cells
    whose transposes fail look up twice: 99 lookups, 60 of them new.  The
    cells with an empty factor pass before any lookup; with them it was
    456 lookups, 93 new, and the walk over every cell made 448, 109 new.
    A transpose is looked up only for a law that brackets a kind with
    itself; for two kinds the swapped cell holds the same products up to
    sign, so no verdict would move, but the walk never forms it and here
    one more cell would be formed."""
    spaces._first_product_outside.cache_clear()
    cli.main(["report", "ex2_5", "--kmax", "3", "--lax"])
    info = spaces._first_product_outside.cache_info()
    assert (info.hits, info.misses) == (39, 60)


def _walk_reads(reader, sign, ka, kb, target, levels, witness):
    """The reads of a law walk that reads each space afresh, cell by cell
    up to the witness's: a and b, then the target's space when both hold
    maps and the target is a kind or the tuple space."""
    whole, reads = target == spaces._TUPLE, []
    view = "_tuple_view" if whole else "_first_view"
    for k, s in levels:
        for th1, th2 in itertools.product((0, 1), repeat=2):
            reads += [(ka, k, th1), (kb, s, th2)]
            if getattr(reader(ka, k, th1), view)[1] and getattr(reader(kb, s, th2), view)[1]:
                reads.append((ka if whole else target, k + s, (th1 + th2) % 2))
            if witness and witness[:4] == (k, s, th1, th2):
                return reads
    return reads


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_a_law_walk_reads_each_space_once_in_walk_order(bundled, strict):
    """One law walk reads each (kind, level, degree) once, in the order of
    its first read by a walk that reads afresh, and nothing that walk would
    not read: a witness at degrees (0, 0) of the first level ends the walk
    before any space of degree 1 is read."""
    early = 0
    for spec in bundled.values():
        reader = spaces._reader(spec, strict, 2)
        for (_, ka, kb, target), sign in itertools.product(
                spaces._LAWS[:7] + (("", *spaces._QC_CLOSURE),), (-1, 0)):
            reads = []
            witness = spaces._law_witness(lambda *key: reads.append(key) or reader(*key),
                                          sign, ka, kb, target, spaces._levels(2))
            want = _walk_reads(reader, sign, ka, kb, target, spaces._levels(2), witness)
            assert reads == list(dict.fromkeys(want)), (spec.name, ka, kb, target, sign)
            if witness and witness[:4] == (0, 0, 0, 0):
                early += 1
                assert all(th == 0 for _, _, th in reads)
    assert early
