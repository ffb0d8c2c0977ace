"""The fail census: every check family, and the test that pins its fail.

A family is a check name with its level, degree and mode tags stripped;
the shift laws, one per kind, are one family.  Each family that gives a
verdict names a test in which a real or bent input makes it report
``fail``; the two ``info`` families give none.  ``report --kmax 2``,
strict and lax, on the bundled algebras and the Yau-twisted sl2 emits
every family, so a new check name cannot land without a row here.
"""

import contextlib
import importlib
import io
import json
import re

import pytest

from homlie import write_algebra
from homlie.catalog import BUILTIN
from homlie.cli import main
from test_boundary import yau_sl2

CHAIN = "test_laws::test_each_chain_inclusion_fails_at_its_bent_small_kind"
LAW = "test_laws::test_each_law_family_fails_under_its_fixture"
LAX_LAWS = "test_laws::test_laws_ex2_5_lax_failures"
EXT = "test_extension::"

# family: "module::function" of the test that pins its fail, None for info
FAIL_PINS = {
    # the inclusion chain
    "ZDer <= Der": CHAIN,
    "Der <= QDer.0": CHAIN,
    "QDer.0 <= GDer.0": CHAIN,
    "C <= QC": CHAIN,
    "C <= QDer.0": CHAIN,
    # the bracket and shift laws
    "[Der,C] <= C": LAW,
    "[ZDer,Der] <= ZDer": LAW,
    "[C,C] <= C": LAW,
    "[QC,QC] <= QDer.0": LAW,
    "[C,QC] maps into the center": LAW,
    "[C,QC] = 0": LAW,
    "QC brackets vanish (closed, surjective twist, trivial center)": LAW,
    "[GDer,GDer] <= GDer (triples)": LAX_LAWS,
    "[QDer,QDer] <= QDer (pairs)": LAX_LAWS,
    "[QDer.0,QC] <= QC": LAX_LAWS,
    "shift": "test_law_engine::test_shift_law_fails_on_a_space_bent_at_one_level",
    # quasicentroid structure; "QC bracket-closed" is in the law report too
    "QC bracket-closed": None,
    "QC composition-closed": None,
    "closure equivalence (bracket <=> composition)":
        "test_law_engine::test_closure_equivalence_fails_on_a_bent_composition",
    "circle product super-commutative":
        "test_law_engine::test_super_commutativity_fails_on_an_asymmetric_circle",
    "twisted Jordan identity on QC": "test_laws::test_jordan_abelian2_lax_failure",
    # phi properties
    "phi(QDer) inside Der(double)":
        EXT + "test_phi_inside_der_fails_on_a_bent_quasiderivation",
    "phi image dimension equals first-component dimension":
        EXT + "test_phi_dimension_checks_fail_on_a_vanishing_embedding",
    "vanishing phi image forces vanishing first component":
        EXT + "test_phi_dimension_checks_fail_on_a_vanishing_embedding",
    "partner determined on [L,L]": EXT + "test_partner_check_fails_on_split_partners",
    # embedding decomposition
    "t^2 copy inside Z(double)": EXT + "test_t2_copy_check_fails_on_a_bent_double",
    "Der(double) = phi(QDer) + ZDer(double)":
        EXT + "test_embedding_decomposition_fails_on_a_bent_quasiderivation",
    "phi(QDer) meets ZDer(double) trivially": EXT + "test_decomposition_fails_when_phi_meets_zder",
    "dim Der(double) = dim phi(QDer) + dim ZDer(double)":
        EXT + "test_decomposition_fails_when_phi_meets_zder",
}

# a level "(k=0, deg=1)", "(k=0, s=1)" or "(k=0)", a mode "[lax, k=0]", and
# a shift law's kind and levels "shift QC: k=0 -> 1"
_TAGS = re.compile(r" \((?:k|deg)=[^()]*\)$| \[(?:strict|lax), k=\d+\]$"
                   r"|(?<=^shift) \w+: k=\d+ -> \d+")


def family(name: str) -> str:
    return _TAGS.sub("", name)


def test_every_family_the_report_emits_has_a_row(tmp_path):
    yau = tmp_path / "sl2_2.json"
    write_algebra(yau_sl2(), yau)
    statuses = {}  # family: the statuses its checks reported
    for algebra in (*BUILTIN, str(yau)):
        for lax in ((), ("--lax",)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["report", algebra, "--kmax", "2", "--json", *lax])
            for report in json.loads(out.getvalue())["checks"]:
                for check in report["checks"]:
                    statuses.setdefault(family(check["name"]), set()).add(check["status"])
    assert not set(statuses) - set(FAIL_PINS), \
        f"families without a census row: {sorted(set(statuses) - set(FAIL_PINS))}"
    assert not set(FAIL_PINS) - set(statuses), \
        f"census rows no report emits: {sorted(set(FAIL_PINS) - set(statuses))}"
    for name, seen in statuses.items():
        assert ("info" in seen) == (FAIL_PINS[name] is None), (name, seen)
    assert sum(pin is not None for pin in FAIL_PINS.values()) == 27


@pytest.mark.parametrize("pin", sorted({pin for pin in FAIL_PINS.values() if pin}))
def test_each_row_names_a_test_that_exists(pin):
    module, function = pin.split("::")
    assert callable(getattr(importlib.import_module(module), function, None)), pin
