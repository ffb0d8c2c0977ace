"""Command-line front end: parse algebra files, run solvers and checks.

Exit status is 0 when every executed check passed, 1 when some check
failed or a command refused its input (a triple outside the GDer space,
a base whose double cannot be built), and 2 for usage or file errors.
Checks whose hypotheses are unmet are reported as skipped and do not
affect the exit status.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii

from .algebra import AlgebraSpec, center, validate
from .catalog import BUILTIN, resolve
from .extension import (
    build_extended,
    verify_embedding_decomposition,
    verify_phi_properties,
)
from .fileformat import parse_map_tuple
from .linalg import Matrix, format_matrix, format_vec
from .spaces import (
    CheckReport,
    SpaceKind,
    _reader,
    check_bracket_laws,
    check_inclusion_chain,
    check_qc_structure,
    decompose_generalized,
    solve_space,
    space_contains,
)

_COMPONENT_NAMES = ("D", "D'", "D''")


def _matrix_json(m: Matrix) -> list[list[str]]:
    return [[str(m.at(r, c)) for c in range(m.cols)] for r in range(m.rows)]


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, in one pass over dicts, lists, str,
    int, bool and None; any other value, or a key that is no str, which
    ``encode_basestring_ascii`` refuses, raises TypeError."""
    if isinstance(value, list):
        inner = indent + "  "
        return ("[" + inner + ("," + inner).join([_json(v, inner) for v in value])
                + indent + "]") if value else "[]"
    if isinstance(value, dict):
        inner = indent + "  "
        return ("{" + inner + ("," + inner).join([
            f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()])
            + indent + "}") if value else "{}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot write {value!r:.60} as JSON")


class _Refusal(Exception):
    """A command declines its input; ``main`` prints it and exits 1."""


def _validation_lines(spec: AlgebraSpec, rep) -> list[str]:
    lines = [f"algebra {spec.name}: n={spec.n}, degrees {list(spec.degrees)}"]
    lines.append(f"skew-symmetry: {'ok' if rep.skew_ok else 'VIOLATED'}")
    lines.append(f"evenness: {'ok' if rep.even_ok else 'VIOLATED'}")
    lines.append(f"twisted Jacobi: {'ok' if rep.jacobi_ok else 'VIOLATED'}")
    lines.append(f"multiplicative: {'yes' if rep.multiplicative_ok else 'NO'}")
    for f in rep.failures[:12]:
        lines.append(f"  failure: {f.identity} at {f.indices}, "
                     f"residual {format_vec(f.residual)}")
    if len(rep.failures) > 12:
        lines.append(f"  ... and {len(rep.failures) - 12} more failures")
    if rep.axioms_ok:
        lines.append("all axioms hold, multiplicative: "
                     + ("yes" if rep.multiplicative_ok else "no"))
    else:
        lines.append("validation FAILED")
    return lines


def _report_lines(rep: CheckReport) -> list[str]:
    tags = {"pass": "pass", "fail": "FAIL", "skipped": "skip", "info": "info"}
    lines = [f"== {rep.title} =="]
    for c in rep.checks:
        line = f"  [{tags[c.status]}] {c.name}"
        if c.detail:
            line += f" -- {c.detail}"
        lines.append(line)
    lines.append(f"  {rep.summary()}")
    return lines


def _dimension_entries(spec: AlgebraSpec, k_max: int, strict: bool) -> list[dict]:
    space = _reader(spec, strict, k_max)
    return [{"kind": kind.value, "k": k, "theta": th, "dim": space(kind, k, th).dim}
            for kind in SpaceKind for k in range(k_max + 1) for th in (0, 1)]


def _dimension_lines(entries: list[dict]) -> list[str]:
    return [f"{e['kind']} k={e['k']} theta={e['theta']}: dim {e['dim']}"
            for e in entries]


def cmd_validate(args, spec: AlgebraSpec):
    # multiplicativity is a property of the twist, not an axiom, so it is
    # reported but does not fail the run
    rep = validate(spec)
    return _validation_lines(spec, rep), {"validation": rep.to_dict()}, rep.axioms_ok


def cmd_center(args, spec: AlgebraSpec):
    z = center(spec)
    lines = [f"center of {spec.name}: dim {z.dim}"]
    lines.extend(f"  {format_vec(row)}" for row in z.basis)
    return lines, {"dim": z.dim,
                   "basis": [[str(x) for x in row] for row in z.basis]}, None


def cmd_solve(args, spec: AlgebraSpec):
    kind = SpaceKind.parse(args.kind)
    space = solve_space(spec, kind, args.k, args.degree, args.strict)
    mode = "strict" if args.strict else "lax"
    lines = [f"{kind.value} space of {spec.name} "
             f"(k={args.k}, degree={args.degree}, {mode}): dim {space.dim}"]
    for idx, t in enumerate(space.tuples, 1):
        lines.append(f"basis {idx}:")
        for cname, g in zip(_COMPONENT_NAMES, t):
            lines.append(f"  {cname} = {format_matrix(g.matrix)}")
    return lines, {"kind": kind.value, "k": args.k, "theta": args.degree,
                   "strict": args.strict, "dim": space.dim,
                   "tuples": [[_matrix_json(g.matrix) for g in t]
                              for t in space.tuples]}, None


def cmd_check(args, spec: AlgebraSpec):
    """chain, laws and jordan: run the command's check, looked up by name
    here, so a patched or traced check function is the one run."""
    check = {"chain": check_inclusion_chain, "laws": check_bracket_laws,
             "jordan": check_qc_structure}[args.command]
    rep = check(spec, args.kmax, args.strict)
    return _report_lines(rep), {
        "mode": {"strict": args.strict, "k_max": args.kmax},
        "report": rep.to_dict()}, rep.ok


def cmd_decompose(args, spec: AlgebraSpec):
    triple = parse_map_tuple(args.triple, spec.n, 3)
    degree = triple[0].degree
    try:
        (dq, dpartner), dc = decompose_generalized(spec, args.k, degree,
                                                   triple, args.strict)
    except ValueError as exc:
        raise _Refusal(f"decomposition failed: {exc}") from None
    qspace = solve_space(spec, SpaceKind.QDER, args.k, degree, args.strict)
    qc_space = solve_space(spec, SpaceKind.QC, args.k, degree, args.strict)
    in_qder = space_contains(qspace, (dq, dpartner))
    in_qc = space_contains(qc_space, (dc,))
    exact = triple[0].matrix == dq.matrix + dc.matrix
    lines = [
        f"quasiderivation part Dq = {format_matrix(dq.matrix)}",
        f"  with partner Dq' = {format_matrix(dpartner.matrix)}",
        f"quasicentroid part Dc = {format_matrix(dc.matrix)}",
        f"(Dq, Dq') in QDer space: {'yes' if in_qder else 'NO'}",
        f"Dc in QC space: {'yes' if in_qc else 'NO'}",
        f"D = Dq + Dc exactly: {'yes' if exact else 'NO'}",
    ]
    return lines, {"k": args.k, "theta": degree, "strict": args.strict,
                   "qder_part": _matrix_json(dq.matrix),
                   "qder_partner": _matrix_json(dpartner.matrix),
                   "qc_part": _matrix_json(dc.matrix),
                   "qder_member": in_qder, "qc_member": in_qc,
                   "sum_exact": exact}, in_qder and in_qc and exact


def _extension_checks(spec: AlgebraSpec):
    """Build the double, validate it and check the t-power truncation."""
    ext = build_extended(spec)
    rep = validate(ext.spec)
    base_rep = validate(spec)
    axioms_ok = rep.axioms_ok
    mult_ok = rep.multiplicative_ok or not base_rep.multiplicative_ok
    n = spec.n
    nil_ok = all(i < n and j < n for i, j in ext.spec._sparse)
    return ext, rep, axioms_ok and mult_ok, nil_ok


def cmd_extend(args, spec: AlgebraSpec):
    try:
        ext, rep, valid_ok, nil_ok = _extension_checks(spec)
    except ValueError as exc:
        raise _Refusal(f"extension failed: {exc}") from None
    lines = [f"double of {spec.name}: n={ext.spec.n}",
             f"derived subalgebra of the base: dim {ext.derived.dim}",
             f"complement U: dim {ext.u_complement.dim}",
             f"double passes validation: {'yes' if valid_ok else 'NO'}",
             f"brackets with t-power >= 3 vanish: {'yes' if nil_ok else 'NO'}"]
    return lines, {"n": ext.spec.n, "derived_dim": ext.derived.dim,
                   "u_complement_dim": ext.u_complement.dim,
                   "validation": rep.to_dict(),
                   "truncation_ok": nil_ok}, valid_ok and nil_ok


def cmd_embed(args, spec: AlgebraSpec):
    try:
        ext = build_extended(spec)
    except ValueError as exc:
        raise _Refusal(f"extension failed: {exc}") from None
    prep = verify_phi_properties(ext, args.k, args.strict)
    drep = verify_embedding_decomposition(ext, args.k)
    return _report_lines(prep) + _report_lines(drep), {
        "k": args.k, "phi": prep.to_dict(),
        "decomposition": drep.to_dict()}, prep.ok and drep.ok


def cmd_report(args, spec: AlgebraSpec):
    k_max = args.kmax
    rep = validate(spec)
    lines = _validation_lines(spec, rep)
    doc = {"mode": {"strict": args.strict, "k_max": k_max},
           "validation": rep.to_dict()}
    if not rep.axioms_ok:
        lines.append("skipping computations: validation failed")
        return lines, doc, False

    z = center(spec)
    lines.append(f"center: dim {z.dim}")
    doc["center_dim"] = z.dim

    dims = _dimension_entries(spec, k_max, args.strict)
    lines.append("== dimensions ==")
    lines.extend(_dimension_lines(dims))
    doc["dimensions"] = dims

    reports = [
        check_inclusion_chain(spec, k_max, args.strict),
        check_bracket_laws(spec, k_max, args.strict),
        check_qc_structure(spec, k_max, args.strict),
    ]
    ext, _, ext_valid, nil_ok = _extension_checks(spec)
    lines.append("== double ==")
    lines.append(f"double validates: {'yes' if ext_valid else 'NO'}; "
                 f"t-power truncation: {'yes' if nil_ok else 'NO'}")
    doc["double"] = {"validates": ext_valid, "truncation_ok": nil_ok,
                     "u_complement_dim": ext.u_complement.dim}
    for k in range(k_max + 1):
        reports.append(verify_phi_properties(ext, k, args.strict))
        reports.append(verify_embedding_decomposition(ext, k))

    for r in reports:
        lines.extend(_report_lines(r))
    doc["checks"] = [r.to_dict() for r in reports]
    return lines, doc, ext_valid and nil_ok and all(r.ok for r in reports)


def _twist_power(text: str) -> int:
    """argparse type of --k and --kmax: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# every option, in the order each parser adds those it takes
_OPTIONS = {
    "--kind": dict(required=True, help="one of Der, GDer, QDer, C, QC, ZDer"),
    "--k": dict(type=_twist_power, default=0, help="twist power"),
    "--kmax": dict(type=_twist_power, default=3, help="largest twist power checked (default 3)"),
    "--degree": dict(type=int, choices=(0, 1), default=0, help="Z2 degree of the unknown maps"),
    "--triple": dict(required=True, help="JSON file with the three matrices"),
    "--lax": dict(dest="strict", action="store_false",
                  help="drop the twist-commutation constraints"),
    "--json": dict(action="store_true", help="emit a machine-readable JSON report"),
}

# (command, function, help, the options it takes besides --json)
_COMMANDS = (
    ("validate", cmd_validate, "check the algebra axioms", ()),
    ("center", cmd_center, "compute the center", ()),
    ("solve", cmd_solve, "solve one operator space", ("--kind", "--k", "--degree", "--lax")),
    ("chain", cmd_check, "verify the inclusion chain", ("--kmax", "--lax")),
    ("laws", cmd_check, "verify the bracket and shift laws", ("--kmax", "--lax")),
    ("decompose", cmd_decompose, "split a generalized-derivation triple",
     ("--k", "--triple", "--lax")),
    ("extend", cmd_extend, "build and validate the t-graded double", ()),
    ("embed", cmd_embed, "verify the quasiderivation embedding", ("--k", "--lax")),
    ("jordan", cmd_check, "verify quasicentroid closure and Jordan structure", ("--kmax", "--lax")),
    ("report", cmd_report, "run the full verification suite", ("--kmax", "--lax")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlie",
        description="Exact computation with Hom-Lie superalgebras: "
                    "operator spaces, structure laws and the "
                    "quasiderivation embedding.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, options in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("algebra",
                        help="algebra file path or bundled name "
                             f"({', '.join(BUILTIN)})")
        for flag, kwargs in _OPTIONS.items():
            if flag in options or flag == "--json":
                sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=fn)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    """Resolve the algebra and run one command; each ``cmd_*`` returns its
    text lines, its JSON fields and ok, which None leaves out of the JSON."""
    args = _PARSER.parse_args(argv)
    try:
        spec = resolve(args.algebra)
        lines, fields, ok = args.func(args, spec)
    except _Refusal as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {"command": args.command, "algebra": spec.name, **fields}
        if ok is not None:
            doc["ok"] = ok
        print(_json(doc))
    else:
        for line in lines:
            print(line)
    return 0 if ok is None or ok else 1


if __name__ == "__main__":
    sys.exit(main())
