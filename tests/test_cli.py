import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homlie
from homlie import cli
from homlie.algebra import AlgebraSpec
from homlie.cli import main
from homlie.spaces import GradedMap, SpaceKind, solve_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ex2_5(capsys):
    code, out, _ = run(capsys, "validate", "ex2_5")
    assert code == 0
    assert "all axioms hold" in out
    assert "multiplicative: no" in out


def test_validate_multiplicative_algebra(capsys):
    code, out, _ = run(capsys, "validate", "heisenberg3")
    assert code == 0
    assert "all axioms hold, multiplicative: yes" in out


def test_validate_rejects_broken_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"}')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "basis" in err


@pytest.mark.parametrize("value", [None, ["x"], ""], ids=repr)
def test_basis_name_that_is_no_string_exits_two(capsys, tmp_path, value):
    doc = {"name": "x", "basis": [{"name": value, "degree": 0}],
           "alpha": [["1"]], "brackets": []}
    path = tmp_path / "names.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: basis[0] 'name' must be a non-empty string\n"


def test_validate_jacobi_failure_exits_one(capsys, tmp_path):
    doc = {
        "name": "broken",
        "basis": [{"name": "x1", "degree": 0}, {"name": "x2", "degree": 0},
                  {"name": "x3", "degree": 0}],
        "alpha": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
        "brackets": [
            {"left": 0, "right": 1, "result": [["1", 0]]},
            {"left": 0, "right": 2, "result": [["1", 1]]},
            {"left": 1, "right": 2, "result": [["1", 2]]},
        ],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "validation FAILED" in out


def test_center_command(capsys):
    code, out, _ = run(capsys, "center", "heisenberg3")
    assert code == 0
    assert "dim 1" in out


def test_solve_command(capsys):
    code, out, _ = run(capsys, "solve", "ex2_5", "--kind", "QC",
                       "--k", "1", "--degree", "0")
    assert code == 0
    assert "dim 1" in out
    assert "[1 0 0; 0 2 0; 0 0 2]" in out


def test_solve_unknown_kind(capsys):
    code, _, err = run(capsys, "solve", "ex2_5", "--kind", "Nope")
    assert code == 2
    assert "unknown space kind" in err


def test_solve_json_matches_text(capsys):
    code, out, _ = run(capsys, "solve", "ex2_5", "--kind", "Der",
                       "--k", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    assert doc["tuples"][0][0][0] == ["1", "0", "0"]


def test_chain_laws_jordan_pass(capsys):
    for cmd in ("chain", "laws", "jordan"):
        code, out, _ = run(capsys, cmd, "ex2_5", "--kmax", "2")
        assert code == 0, (cmd, out)
        assert "0 fail" in out


def _first_gder_triple_file(tmp_path):
    """ex2_5's first GDer basis triple at k = 1, degree 0, as a file."""
    from homlie.catalog import load_builtin
    spec = load_builtin("ex2_5")
    triple = solve_space(spec, SpaceKind.GDER, 1, 0).tuples[0]
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "degree": 0,
        "maps": [[[str(g.matrix.at(r, c)) for c in range(3)]
                  for r in range(3)] for g in triple],
    }))
    return path


def test_decompose_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "ex2_5", "--k", "1",
                       "--triple", str(_first_gder_triple_file(tmp_path)))
    assert code == 0
    assert "D = Dq + Dc exactly: yes" in out


def _bend_decomposition(monkeypatch, bend):
    """``decompose_generalized`` with its split ((Dq, Dq'), Dc) passed
    through bend(dq, dpartner, dc)."""
    split = cli.decompose_generalized

    def bent(*args):
        (dq, dpartner), dc = split(*args)
        return bend(dq, dpartner, dc)

    monkeypatch.setattr(cli, "decompose_generalized", bent)


# (bend, the three verdicts): a zeroed partner leaves only the pair
# outside QDer, swapped parts leave both parts outside their spaces but
# the sum exact, and a doubled Dc stays in QC but breaks the sum
_DECOMPOSE_BENDS = {
    "partner-zeroed": (lambda dq, dp, dc: ((dq, GradedMap(dp.matrix.scale(0), dp.degree)), dc),
                       (False, True, True)),
    "parts-swapped": (lambda dq, dp, dc: ((dc, dp), dq), (False, False, True)),
    "dc-doubled": (lambda dq, dp, dc: ((dq, dp), GradedMap(dc.matrix.scale(2), dc.degree)),
                   (True, True, False)),
}


@pytest.mark.parametrize("bend", list(_DECOMPOSE_BENDS))
def test_decompose_verdicts_fail_on_a_bent_split(capsys, tmp_path, monkeypatch, bend):
    make, verdicts = _DECOMPOSE_BENDS[bend]
    _bend_decomposition(monkeypatch, make)
    path = _first_gder_triple_file(tmp_path)
    code, out, _ = run(capsys, "decompose", "ex2_5", "--k", "1", "--triple", str(path))
    assert code == 1
    labels = ("(Dq, Dq') in QDer space", "Dc in QC space", "D = Dq + Dc exactly")
    assert out.splitlines()[-3:] == [f"{label}: {'yes' if v else 'NO'}"
                                     for label, v in zip(labels, verdicts)]
    code, out, _ = run(capsys, "decompose", "ex2_5", "--k", "1", "--triple", str(path),
                       "--json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert (doc["qder_member"], doc["qc_member"], doc["sum_exact"]) == verdicts


def test_decompose_rejects_non_member(capsys, tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "degree": 0,
        "maps": [[["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                 [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                 [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]],
    }))
    code, _, err = run(capsys, "decompose", "ex2_5", "--k", "1",
                       "--triple", str(path))
    assert code == 1
    assert "not in the generalized-derivation space" in err


def test_extend_command(capsys):
    code, out, _ = run(capsys, "extend", "ex2_5")
    assert code == 0
    assert "n=6" in out
    assert "t-power >= 3 vanish: yes" in out


def _with_a_t3_pair(monkeypatch):
    """``build_extended`` with [e_1 t, e_1 t^2] = e_1 t^2 added to the
    double, with its skew partner: a pair keyed outside the base block,
    of t-power 3.  On abelian2 the bent double still validates."""
    build = cli.build_extended

    def bent(base):
        ext, n = build(base), base.n
        view = ext.spec._sparse | {(0, n): {n: 1}, (n, 0): {n: -1}}
        spec = AlgebraSpec._of(ext.spec.name, ext.spec.degrees, ext.spec.alpha,
                               dict(sorted(view.items())), ext.spec.basis_names)
        return dataclasses.replace(ext, spec=spec)

    monkeypatch.setattr(cli, "build_extended", bent)


def test_extend_fails_on_a_pair_of_t_power_three(capsys, monkeypatch):
    _with_a_t3_pair(monkeypatch)
    code, out, _ = run(capsys, "extend", "abelian2")
    assert code == 1
    assert "double passes validation: yes" in out
    assert "brackets with t-power >= 3 vanish: NO" in out.splitlines()


def test_report_fails_on_a_pair_of_t_power_three(capsys, monkeypatch):
    _with_a_t3_pair(monkeypatch)
    code, out, _ = run(capsys, "report", "abelian2", "--kmax", "0")
    assert code == 1
    assert "double validates: yes; t-power truncation: NO" in out.splitlines()


def _without_a_skew_partner(monkeypatch):
    """``build_extended`` with the first pair (j, i), j > i, dropped from
    the double's view while (i, j) stays: the bent double fails super
    skew-symmetry, and every bracket keeps its t-power."""
    build = cli.build_extended

    def bent(base):
        ext = build(base)
        view = dict(ext.spec._sparse)
        del view[min((j, i) for j, i in view if j > i)]
        spec = AlgebraSpec._of(ext.spec.name, ext.spec.degrees, ext.spec.alpha,
                               view, ext.spec.basis_names)
        return dataclasses.replace(ext, spec=spec)

    monkeypatch.setattr(cli, "build_extended", bent)


def test_extend_fails_on_a_double_without_a_skew_partner(capsys, monkeypatch):
    _without_a_skew_partner(monkeypatch)
    code, out, _ = run(capsys, "extend", "heisenberg3")
    assert code == 1
    assert "double passes validation: NO" in out.splitlines()
    assert "brackets with t-power >= 3 vanish: yes" in out.splitlines()
    code, out, _ = run(capsys, "extend", "heisenberg3", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False and doc["truncation_ok"] is True
    assert (doc["validation"]["ok"], doc["validation"]["skew_ok"]) == (False, False)


def test_report_fails_on_a_double_without_a_skew_partner(capsys, monkeypatch):
    _without_a_skew_partner(monkeypatch)
    code, out, _ = run(capsys, "report", "heisenberg3", "--kmax", "0")
    assert code == 1
    assert "double validates: NO; t-power truncation: yes" in out.splitlines()
    code, out, _ = run(capsys, "report", "heisenberg3", "--kmax", "0", "--json")
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert (doc["double"]["validates"], doc["double"]["truncation_ok"]) == (False, True)


def test_embed_command(capsys):
    code, out, _ = run(capsys, "embed", "ex2_5", "--k", "1")
    assert code == 0
    assert "0 fail" in out


def test_embed_guard_path(capsys):
    code, out, _ = run(capsys, "embed", "heisenberg3", "--k", "0")
    assert code == 0
    assert "skip" in out


def test_report_ex2_5(capsys):
    code, out, _ = run(capsys, "report", "ex2_5", "--kmax", "2")
    assert code == 0
    assert "== dimensions ==" in out
    assert "FAIL" not in out


def test_report_json_dimensions_match_text(capsys):
    code, text, _ = run(capsys, "report", "ex2_5", "--kmax", "1")
    assert code == 0
    code, raw, _ = run(capsys, "report", "ex2_5", "--kmax", "1", "--json")
    assert code == 0
    doc = json.loads(raw)
    assert doc["ok"] is True
    pattern = re.compile(r"^(\w+) k=(\d+) theta=(\d+): dim (\d+)$", re.M)
    text_dims = {(m.group(1), int(m.group(2)), int(m.group(3))): int(m.group(4))
                 for m in pattern.finditer(text)}
    json_dims = {(e["kind"], e["k"], e["theta"]): e["dim"]
                 for e in doc["dimensions"]}
    assert text_dims == json_dims
    assert len(json_dims) == 6 * 2 * 2


@pytest.mark.parametrize("command, check", [
    ("chain", "check_inclusion_chain"), ("laws", "check_bracket_laws"),
    ("jordan", "check_qc_structure")])
def test_check_commands_run_the_check_bound_at_call_time(capsys, monkeypatch,
                                                        command, check):
    from homlie import cli
    from homlie.spaces import CheckReport

    seen = []

    def stub(spec, k_max, strict):
        seen.append((spec.name, k_max, strict))
        return CheckReport(command, ())

    monkeypatch.setattr(cli, check, stub)
    code, raw, _ = run(capsys, command, "abelian2", "--kmax", "0", "--lax", "--json")
    assert code == 0 and seen == [("abelian2", 0, False)]
    assert json.loads(raw) == {
        "command": command, "algebra": "abelian2",
        "mode": {"strict": False, "k_max": 0},
        "report": {"title": command, "ok": True, "checks": []}, "ok": True}


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    # the one parser is built when cli is imported
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "validate", "abelian2", "--json")[0] == 0
    assert run(capsys, "chain", "abelian2", "--kmax", "0")[0] == 0
    assert made == []


def _pinned(parser):
    """Each argument of a parser as a user meets it: option strings, help,
    required, choices and, for one that takes a value, its default.  The
    formatted help is left out, as it varies with Python and the terminal."""
    return [(a.option_strings, a.help, a.required, a.choices and list(a.choices),
             a.default if a.nargs != 0 else None) for a in parser._actions]


_HELP = (["-h", "--help"], "show this help message and exit", False, None, None)
_ALGEBRA = ([], "algebra file path or bundled name "
                "(ex2_5, abelian2, heisenberg3, odd_heisenberg)", True, None, None)
_PINNED_OPTIONS = {
    "--kind": (["--kind"], "one of Der, GDer, QDer, C, QC, ZDer", True, None, None),
    "--k": (["--k"], "twist power", False, None, 0),
    "--kmax": (["--kmax"], "largest twist power checked (default 3)", False, None, 3),
    "--degree": (["--degree"], "Z2 degree of the unknown maps", False, [0, 1], 0),
    "--triple": (["--triple"], "JSON file with the three matrices", True, None, None),
    "--lax": (["--lax"], "drop the twist-commutation constraints", False, None, None),
    "--json": (["--json"], "emit a machine-readable JSON report", False, None, None),
}
# command: (help, options besides --json)
_PINNED_COMMANDS = {
    "validate": ("check the algebra axioms", ()),
    "center": ("compute the center", ()),
    "solve": ("solve one operator space", ("--kind", "--k", "--degree", "--lax")),
    "chain": ("verify the inclusion chain", ("--kmax", "--lax")),
    "laws": ("verify the bracket and shift laws", ("--kmax", "--lax")),
    "decompose": ("split a generalized-derivation triple", ("--k", "--triple", "--lax")),
    "extend": ("build and validate the t-graded double", ()),
    "embed": ("verify the quasiderivation embedding", ("--k", "--lax")),
    "jordan": ("verify quasicentroid closure and Jordan structure", ("--kmax", "--lax")),
    "report": ("run the full verification suite", ("--kmax", "--lax")),
}


def test_every_subcommand_keeps_its_options():
    top = cli._PARSER
    sub = top._subparsers._group_actions[0]
    assert _pinned(top) == [_HELP, ([], None, True, list(_PINNED_COMMANDS), None)]
    assert {a.dest: a.help for a in sub._choices_actions} == {
        name: help_text for name, (help_text, _) in _PINNED_COMMANDS.items()}
    for name, (_, options) in _PINNED_COMMANDS.items():
        assert _pinned(sub.choices[name]) == [
            _HELP, _ALGEBRA, *(_PINNED_OPTIONS[o] for o in (*options, "--json"))], name


@pytest.mark.parametrize("argv, expected", [
    (["report", "abelian2", "--kmax", "0", "--json"], 0), (["report"], 2)],
    ids=["report", "usage-error"])
def test_module_entry_matches_main(capsys, argv, expected):
    # python -m homlie.cli builds its parser at import, under __main__
    src = Path(homlie.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "homlie.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr.splitlines()[:1]) == \
        (code, out.out, out.err.splitlines()[:1])
    assert code == expected


def test_report_all_bundled_exit_zero(capsys):
    for name in ("abelian2", "heisenberg3", "odd_heisenberg"):
        code, out, _ = run(capsys, "report", name, "--kmax", "1")
        assert code == 0, (name, out[-2000:])


def test_report_invalid_algebra_exits_one(capsys, tmp_path):
    # [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] = 0 + e3 + 0, so Jacobi fails
    doc = {
        "name": "broken",
        "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0},
                  {"name": "c", "degree": 0}],
        "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "brackets": [
            {"left": 0, "right": 1, "result": [["1", 2]]},
            {"left": 0, "right": 2, "result": [["1", 0]]},
        ],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "report", str(path))
    assert code == 1
    assert "skipping computations" in out


def test_negative_kmax_exits_two(capsys):
    for command in ("chain", "laws", "jordan", "report"):
        try:
            main([command, "ex2_5", "--kmax", "-1"])
        except SystemExit as exc:
            code = exc.code
        else:
            code = None
        assert code == 2, command
        err = capsys.readouterr().err
        # reported by the subcommand's own parser, with its usage line
        assert err.startswith(f"usage: homlie {command}"), command
        assert "argument --kmax: must be >= 0" in err, command


def test_negative_k_exits_two(capsys, tmp_path):
    # a well-formed triple, so only the twist power is at fault
    zero = [["0"] * 3] * 3
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps({"degree": 0, "maps": [zero] * 3}))
    for argv in (["solve", "ex2_5", "--kind", "Der"], ["embed", "ex2_5"],
                 ["decompose", "ex2_5", "--triple", str(triple)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--k", "-1"])
        assert exc.value.code == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"usage: homlie {argv[0]}"), argv[0]
        assert "argument --k: must be >= 0" in err, argv[0]


def test_exponent_literal_exits_two_at_once(capsys, tmp_path):
    # Fraction would take "1e1000000" as a 3.3-million-bit integer
    doc = {"name": "big",
           "basis": [{"name": "x", "degree": 0}],
           "alpha": [["1e1000000"]],
           "brackets": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "bad rational literal '1e1000000'" in err


@pytest.mark.parametrize("content", [
    b"[" * 200000 + b"]" * 200000,  # deeper than the decoder recurses
    bytes(range(256)),  # not UTF-8
    b'{"degree": ' + b"9" * 5000 + b"}",  # past the int conversion limit
], ids=["deep", "binary", "long-int"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["decompose", "ex2_5", "--k", "0", "--triple"]])
def test_unreadable_json_exits_two_naming_the_file(capsys, tmp_path, argv,
                                                   content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


_COMMANDS = ("validate", "center", "solve", "chain", "laws", "decompose",
             "extend", "embed", "jordan", "report")
_VALUES = st.sampled_from(["-1", "0", "1", "x"])
_JUNK = st.sampled_from(["", "-", "--", "--nope", "-h", "abelian", "Der"]) \
    | st.text(max_size=4)
_OPTIONS = st.one_of(
    st.tuples(st.just("--k"), _VALUES),
    st.tuples(st.just("--kmax"), _VALUES),
    st.tuples(st.just("--kind"), st.sampled_from(["Der", "QC", "ZDer", "Nope"])),
    st.tuples(st.just("--degree"), st.sampled_from(["0", "1", "2"])),
    st.tuples(st.just("--lax")),
    st.tuples(st.just("--json")),
    st.tuples(_JUNK),
)


@st.composite
def _argvs(draw):
    argv = [draw(st.sampled_from(_COMMANDS) | _JUNK)]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["abelian2", "odd_heisenberg"])))
    for option in draw(st.lists(_OPTIONS, max_size=4)):
        argv.extend(option)
    return argv


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_main_fuzz_exits_zero_one_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())


# strings with quotes, backslashes, control characters and non-ASCII, beside any text
_JSON_TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "😀", ""])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, -1) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_matches_json_dumps_with_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [[0.5]]}, {"a": {None: 0}}],
                         ids=["float", "tuple", "int-key", "nested-float", "nested-none-key"])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json(value)
