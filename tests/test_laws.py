"""The law tables in homlie.spaces against the reference loops in oracle.

Every report must match the reference check for check, witnesses
included: on the bundled algebras, and on spaces with an injected fault
that makes checks fail.
"""

import collections
import dataclasses
from fractions import Fraction

import pytest

from homlie import spaces
from homlie.catalog import load_builtin
from homlie.cli import main
from homlie.linalg import Matrix
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    check_bracket_laws,
    check_inclusion_chain,
    check_qc_structure,
)
from oracle import (
    reference_bracket_laws,
    reference_inclusion_chain,
    reference_qc_closure,
)
from test_boundary import yau_sl2

K_MAX = 1


def _assert_matches_reference(spec, strict):
    args = (spec, K_MAX, strict)
    chain = check_inclusion_chain(*args)
    assert chain == reference_inclusion_chain(*args)
    laws = check_bracket_laws(*args)
    assert laws == reference_bracket_laws(*args)
    qc = check_qc_structure(*args)
    assert qc.checks[:3] == reference_qc_closure(*args)
    return [c for rep in (chain, laws, qc) for c in rep.checks
            if c.status == "fail"]


@pytest.mark.parametrize("strict", [True, False])
def test_engine_matches_reference(bundled, strict):
    for spec in bundled.values():
        _assert_matches_reference(spec, strict)


def _with_fault(kind):
    """solve_space, with +1/3 added at entry (0, 1) of the first basis
    map of every space of the given kind."""
    original = spaces.solve_space

    def faulty(spec, space_kind, k=0, degree=0, strict=True):
        space = original(spec, space_kind, k, degree, strict)
        if space_kind is not kind or not space.tuples:
            return space
        first = space.tuples[0]
        entries = list(first[0].matrix.entries)
        entries[1] += Fraction(1, 3)
        bent = GradedMap(Matrix(space.n, space.n, tuple(entries)), degree)
        return dataclasses.replace(
            space, tuples=((bent,) + first[1:],) + space.tuples[1:])

    return faulty


# strict mode and no heisenberg3 keep the sweep to about two seconds;
# the clean comparison above covers both modes on every bundled algebra
FAULT_ALGEBRAS = ("ex2_5", "abelian2", "odd_heisenberg")


@pytest.mark.parametrize("kind", list(SpaceKind), ids=lambda k: k.value)
def test_fault_injected_reports_match_reference(bundled, monkeypatch, kind):
    # clean checks first, so the law cache holds the cells of the clean
    # spaces; the faulted spaces are other keys and must not be served them
    for name in FAULT_ALGEBRAS:
        for check in (check_inclusion_chain, check_bracket_laws,
                      check_qc_structure):
            check(bundled[name], K_MAX, True)
    monkeypatch.setattr(spaces, "solve_space", _with_fault(kind))
    failed = []
    for name in FAULT_ALGEBRAS:
        failed += _assert_matches_reference(bundled[name], True)
    assert failed, "the injected fault should make some check fail"


# every failing check of the chain on abelian2 at kmax 0 with the first
# basis map of one kind bent: the inclusions with that kind as the small
# side fail at the bent map, those with it as the big side at a clean map
CHAIN_FAILS = {
    SpaceKind.ZDER: [("ZDer <= Der (k=0, deg=0)", "witness [1 1/3; 0 0]")],
    SpaceKind.DER: [("ZDer <= Der (k=0, deg=0)", "witness [1 0; 0 0]"),
                    ("Der <= QDer.0 (k=0, deg=0)", "witness [1 1/3; 0 0]")],
    SpaceKind.QDER: [("Der <= QDer.0 (k=0, deg=0)", "witness [1 0; 0 0]"),
                     ("QDer.0 <= GDer.0 (k=0, deg=0)", "witness [1 1/3; 0 0]"),
                     ("C <= QDer.0 (k=0, deg=0)", "witness [1 0; 0 0]")],
    SpaceKind.C: [("C <= QC (k=0, deg=0)", "witness [1 1/3; 0 0]"),
                  ("C <= QDer.0 (k=0, deg=0)", "witness [1 1/3; 0 0]")],
}


@pytest.mark.parametrize("label, small", [
    ("ZDer <= Der", SpaceKind.ZDER), ("Der <= QDer.0", SpaceKind.DER),
    ("QDer.0 <= GDer.0", SpaceKind.QDER), ("C <= QC", SpaceKind.C),
    ("C <= QDer.0", SpaceKind.C)], ids=lambda x: getattr(x, "value", x).replace(" ", ""))
def test_each_chain_inclusion_fails_at_its_bent_small_kind(bundled, monkeypatch, label, small):
    monkeypatch.setattr(spaces, "solve_space", _with_fault(small))
    report = check_inclusion_chain(bundled["abelian2"], 0, True)
    fails = [(c.name, c.detail) for c in report.checks if c.status == "fail"]
    assert (f"{label} (k=0, deg=0)", "witness [1 1/3; 0 0]") in fails
    assert fails == CHAIN_FAILS[small]


def test_the_chain_tests_each_pair_of_spaces_once(bundled, monkeypatch):
    """heisenberg3's twist is the identity, so every level reads the spaces
    of level 0: the chain at kmax 3 eliminates no more rows than at kmax 0,
    and its verdicts are level 0's, each named after its own level."""
    spec, seen = bundled["heisenberg3"], []
    first_outside = spaces._first_outside

    def counted(target, cells):
        return first_outside(target, (seen.append(g) or (row, g) for row, g in cells))

    monkeypatch.setattr(spaces, "_first_outside", counted)
    eliminated = []
    for k_max in (0, 3):
        seen.clear()
        report = check_inclusion_chain(spec, k_max)
        eliminated.append(len(seen))
        assert report == reference_inclusion_chain(spec, k_max)
        assert [(c.status, c.detail) for c in report.checks] == [
            (c.status, c.detail) for c in report.checks[:10]] * (k_max + 1)
    assert eliminated[0] > 0 and eliminated[1] == eliminated[0], eliminated


def _as_span(kind, rows):
    """solve_space, with every degree-0 space of the given kind, of arity
    1, spanned by the maps of the given rows."""
    original = spaces.solve_space

    def bent(spec, space_kind, k=0, degree=0, strict=True):
        space = original(spec, space_kind, k, degree, strict)
        if space_kind is not kind or degree:
            return space
        return dataclasses.replace(space, tuples=tuple(
            (GradedMap(Matrix.from_rows(m), 0),) for m in rows))

    return bent


# the maps E_01, E_10 and E_00 - E_11 on sl2's basis (h, e, f), a copy of
# sl2 in which [E_01, E_10] = E_00 - E_11 does not vanish
SL2_OF_MAPS = ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
               [[1, 0, 0], [0, -1, 0], [0, 0, 0]])

# id: (check, algebra, k_max, bend, detail), one row per law family that no
# bundled algebra fails.  The [C,QC] laws and the vanish check need a
# surjective twist and a trivial center, as the Yau-twisted sl2 has; the
# vanish check needs QC bracket-closed too, so its QC is a copy of sl2.
LAW_FAILS = {
    "Der-C": ("[Der,C] <= C (k=0, s=0)", lambda: load_builtin("abelian2"), 0,
              lambda: _with_fault(SpaceKind.C), "k=0, s=0, degrees (0,0): [0 1/3; 0 0]"),
    "ZDer-Der": ("[ZDer,Der] <= ZDer (k=0, s=0)", lambda: load_builtin("abelian2"), 0,
                 lambda: _with_fault(SpaceKind.ZDER), "k=0, s=0, degrees (0,0): [0 -1/3; 0 0]"),
    "C-C": ("[C,C] <= C (k=0, s=0)", lambda: load_builtin("abelian2"), 0,
            lambda: _with_fault(SpaceKind.C), "k=0, s=0, degrees (0,0): [0 1/3; 0 0]"),
    "QC-QC": ("[QC,QC] <= QDer.0 (k=0, s=0)", lambda: load_builtin("abelian2"), 0,
              lambda: _with_fault(SpaceKind.QC), "k=0, s=0, degrees (0,0): [0 1/3; 0 0]"),
    "C-QC-center": ("[C,QC] maps into the center (k=0, s=1)", yau_sl2, 1,
                    lambda: _with_fault(SpaceKind.C),
                    "k=0, s=1, degrees (0,0): [0 1/3 0; 0 0 0; 0 0 0]"),
    "C-QC-zero": ("[C,QC] = 0 (k=0, s=1)", yau_sl2, 1, lambda: _with_fault(SpaceKind.C),
                  "k=0, s=1, degrees (0,0): [0 1/3 0; 0 0 0; 0 0 0]"),
    "QC-vanish": ("QC brackets vanish (closed, surjective twist, trivial center)", yau_sl2, 0,
                  lambda: _as_span(SpaceKind.QC, SL2_OF_MAPS), "[0 2 0; 0 0 0; 0 0 0]"),
}


@pytest.mark.parametrize("family", list(LAW_FAILS))
def test_each_law_family_fails_under_its_fixture(monkeypatch, family):
    check, make, k_max, bend, detail = LAW_FAILS[family]
    spec = make()
    monkeypatch.setattr(spaces, "solve_space", bend())
    laws = check_bracket_laws(spec, k_max)
    assert laws == reference_bracket_laws(spec, k_max, True)
    assert {c.name: (c.status, c.detail) for c in laws.checks}[check] == ("fail", detail)


def test_laws_ex2_5_lax_failures(capsys):
    assert main(["laws", "ex2_5", "--lax", "--kmax", "2"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  [FAIL]")]
    assert collections.Counter(line.split(" (k=")[0] for line in fails) == {
        "  [FAIL] [GDer,GDer] <= GDer (triples)": 5, "  [FAIL] [QDer,QDer] <= QDer (pairs)": 5,
        "  [FAIL] [QDer.0,QC] <= QC": 3}
    assert fails[0] == ("  [FAIL] [QDer.0,QC] <= QC (k=0, s=1) -- "
                        "k=0, s=1, degrees (0,0): [0 1 0; 0 0 0; 0 0 0]")


def test_jordan_abelian2_lax_failure(capsys):
    assert main(["jordan", "abelian2", "--lax"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  [FAIL]")]
    assert len(fails) == 1
    assert fails[0].startswith("  [FAIL] twisted Jordan identity on QC -- ")
