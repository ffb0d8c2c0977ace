"""Reading and writing the JSON algebra file format.

A file lists the graded basis, the twist matrix and the bracket of each
pair (i, j) with i < j, plus i = j for odd basis elements; everything
else follows by super skew-symmetry, so inconsistent input cannot be
expressed.  All numbers are exact rational strings like "3/2" (plain
integers are also accepted); floats are rejected everywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .algebra import AlgebraSpec, _skew_filled
from .linalg import Matrix, _int, frac
from .spaces import GradedMap


class AlgebraFileError(ValueError):
    """Malformed or invariant-violating algebra file."""


def _rat(value: Any, where: str) -> Fraction:
    if isinstance(value, float):
        raise AlgebraFileError(
            f"{where}: floating point is not allowed, use 'p/q' strings")
    try:
        return frac(value)
    except (TypeError, ValueError) as exc:
        raise AlgebraFileError(f"{where}: {exc}") from None


def _rational_array(rows: Any, n: int, where: str, bad_shape: str) -> Matrix:
    """An n x n JSON array of rationals; entry (r, c) is named where[r][c]."""
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise AlgebraFileError(bad_shape)
    return Matrix.from_rows(
        [[_rat(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)]
         for r, row in enumerate(rows)], n)


def _integer(value: Any, error: str) -> int:
    """A JSON integer as is; bool, float, str and anything else raise."""
    if type(value) is not int:
        raise AlgebraFileError(error)
    return value


def algebra_from_dict(doc: Any, source: str = "<data>") -> AlgebraSpec:
    if not isinstance(doc, dict):
        raise AlgebraFileError(f"{source}: top level must be an object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise AlgebraFileError(f"{source}: missing algebra 'name'")

    basis = doc.get("basis")
    if not isinstance(basis, list) or not basis:
        raise AlgebraFileError(f"{source}: 'basis' must be a non-empty list")
    names: list[str] = []
    degrees: list[int] = []
    for idx, item in enumerate(basis):
        if not isinstance(item, dict) or "name" not in item or "degree" not in item:
            raise AlgebraFileError(
                f"{source}: basis[{idx}] needs 'name' and 'degree'")
        bad_degree = f"{source}: basis[{idx}] degree must be 0 or 1"
        if _integer(item["degree"], bad_degree) not in (0, 1):
            raise AlgebraFileError(bad_degree)
        if not isinstance(item["name"], str) or not item["name"]:
            raise AlgebraFileError(
                f"{source}: basis[{idx}] 'name' must be a non-empty string")
        if item["name"] in names:
            raise AlgebraFileError(f"{source}: basis[{idx}] repeats the name "
                                   f"{item['name']!r} of basis[{names.index(item['name'])}]")
        names.append(item["name"])
        degrees.append(item["degree"])
    n = len(names)

    alpha = _rational_array(doc.get("alpha"), n, f"{source}: alpha",
                            f"{source}: 'alpha' must be an {n}x{n} array")
    for m, row in alpha._sparse.items():
        for i in row:
            if degrees[m] != degrees[i]:
                raise AlgebraFileError(
                    f"{source}: alpha[{m}][{i}] must be 0, it maps across Z2 degrees")

    entries = doc.get("brackets", [])
    if not isinstance(entries, list):
        raise AlgebraFileError(f"{source}: 'brackets' must be a list")
    pairs: dict[tuple[int, int], dict] = {}
    for idx, ent in enumerate(entries):
        where = f"{source}: brackets[{idx}]"
        if not isinstance(ent, dict):
            raise AlgebraFileError(f"{where}: must be an object")
        left, right = (_integer(ent.get(side),
                                f"{where}: needs integer 'left' and 'right'")
                       for side in ("left", "right"))
        if not (0 <= left < n and 0 <= right < n):
            raise AlgebraFileError(f"{where}: basis index out of range")
        if left > right:
            raise AlgebraFileError(
                f"{where}: need left <= right, the other half is derived "
                f"by skew-symmetry")
        if left == right and degrees[left] == 0:
            raise AlgebraFileError(
                f"{where}: [x,x] is forced to vanish for the even element "
                f"'{names[left]}'")
        if (left, right) in pairs:
            raise AlgebraFileError(
                f"{where}: duplicate bracket for pair ({left},{right})")
        result = ent.get("result")
        if not isinstance(result, list):
            raise AlgebraFileError(f"{where}: 'result' must be a list of "
                                   f"[coefficient, index] terms")
        row: dict[int, Fraction] = {}
        want = (degrees[left] + degrees[right]) % 2
        for t_idx, term in enumerate(result):
            if (not isinstance(term, list) or len(term) != 2):
                raise AlgebraFileError(
                    f"{where}: result[{t_idx}] must be [coefficient, index]")
            coef = _rat(term[0], f"{where}: result[{t_idx}]")
            mi = _integer(term[1],
                          f"{where}: result[{t_idx}] index must be an integer")
            if not 0 <= mi < n:
                raise AlgebraFileError(
                    f"{where}: result[{t_idx}] index out of range")
            if coef and degrees[mi] != want:
                raise AlgebraFileError(
                    f"{where}: '{names[mi]}' has the wrong Z2 degree for "
                    f"this bracket")
            row[mi] = row.get(mi, 0) + coef
        pairs[left, right] = {m: _int(x) for m, x in sorted(row.items()) if x}

    return AlgebraSpec._of(name, tuple(degrees), alpha, _skew_filled(degrees, pairs), tuple(names))


def _read_json(path) -> Any:
    """The document in a JSON file; any failure to read or decode it,
    including nesting too deep for the decoder, a binary file and an
    integer too long to convert, raises AlgebraFileError naming the path."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    # UnicodeDecodeError is a ValueError
    except (OSError, RecursionError, ValueError) as exc:
        raise AlgebraFileError(f"{path}: {exc}") from None


def parse_algebra(path) -> AlgebraSpec:
    return algebra_from_dict(_read_json(path), source=str(path))


def algebra_to_dict(spec: AlgebraSpec) -> dict:
    """Serialize back to the file schema (i <= j brackets only)."""
    out_brackets = [
        {"left": i, "right": j, "result": [[str(c), m] for m, c in row.items()]}
        for (i, j), row in spec._sparse.items()
        if i < j or (i == j and spec.degrees[i])]
    return {
        "name": spec.name,
        "basis": [{"name": nm, "degree": d}
                  for nm, d in zip(spec.basis_names, spec.degrees)],
        "alpha": [[str(x) for x in spec.alpha.row(r)] for r in range(spec.n)],
        "brackets": out_brackets,
    }


def write_algebra(spec: AlgebraSpec, path) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(spec), indent=2) + "\n")


def parse_map_tuple(path, n: int, count: int) -> tuple[GradedMap, ...]:
    """Read a tuple of n x n maps sharing one degree from a JSON file.

    Schema: {"degree": 0 or 1, "maps": [matrix, ...]} with each matrix
    an n x n array of rational strings or integers.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise AlgebraFileError(f"{path}: top level must be an object")
    degree = doc.get("degree", 0)
    bad_degree = f"{path}: 'degree' must be 0 or 1"
    if _integer(degree, bad_degree) not in (0, 1):
        raise AlgebraFileError(bad_degree)
    maps = doc.get("maps")
    if not isinstance(maps, list) or len(maps) != count:
        raise AlgebraFileError(f"{path}: 'maps' must list exactly {count} matrices")
    out = []
    for m_idx, rows in enumerate(maps):
        where = f"{path}: maps[{m_idx}]"
        out.append(GradedMap(_rational_array(
            rows, n, where, f"{where}: must be an {n}x{n} array"), degree))
    return tuple(out)
