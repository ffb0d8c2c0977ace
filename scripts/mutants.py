#!/usr/bin/env python3
"""A committed mutation kill-list for homlie's engines.

Each entry of ``MUTANTS`` is one edit of a file under ``src/``: an old
snippet, which must occur exactly once (a stale entry is an error, not
a skip), its replacement, and the tests that must fail once it is made.
For every entry the script copies ``src/`` to a temporary directory,
applies the edit there and runs only the named tests, with
``PYTHONPATH`` at the copy.  The union of the named tests must first
pass on an unmutated copy.  ``EQUIVALENT`` lists edits that change no
behaviour, each with its reason: they are never run and never counted
as killed.

    python scripts/mutants.py

The exit code is 0 when every mutant run is killed, and 1 when one
survives, an entry is stale or a named test fails unmutated.  Uses the
standard library and the pytest that the tests need.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


SPACES, LINALG, ALGEBRA = "homlie/spaces.py", "homlie/linalg.py", "homlie/algebra.py"
BATCHED = "tests/test_batched_engines.py::"
JORDAN = "tests/test_jordan_engine.py::"
RESIDUALS = JORDAN + "test_engine_residuals_match_dense_residuals"
BATCH = "tests/test_batched_product.py::test_each_block_is_the_per_pair_product"
WIDE_CELL = BATCHED + "test_law_witness_at_a_later_w_in_a_wide_cell"
RREF = "tests/test_sparse_rref.py::test_rref_matches_dense_reference"
ASSEMBLY = "tests/test_solver_assembly.py::"
ON_BUNDLED = ASSEMBLY + "test_assembly_matches_the_per_pair_walk_on_bundled"
VALIDATE = "tests/test_validation.py::"

MUTANTS = (
    # the solver's system, assembled from the nonzeros of the bracket tables
    Mutant("solver: the left table's parity sign dropped", SPACES,
           "-x * parity_sign(degree, deg[i]), vec)", "-x, vec)",
           (ON_BUNDLED,)),
    Mutant("solver: the right table reading a^k transposed", SPACES,
           "for j, x in ak.get(b, {}).items():",
           "for j, x in _columns(spec.alpha.power(k))[b].items():",
           (ON_BUNDLED,)),
    Mutant("solver: the eval sign flipped", SPACES,
           "(((i, j, e, m), idx, sign * x) for (i, j), vec in spec._sparse.items()",
           "(((i, j, e, m), idx, -sign * x) for (i, j), vec in spec._sparse.items()",
           (ON_BUNDLED,)),
    Mutant("solver: the strict alpha-term sign flipped", SPACES,
           "(((c, l, m), idx, -x) for c in range(arity)", "(((c, l, m), idx, x) for c in range(arity)",
           (ON_BUNDLED,)),
    Mutant("solver: rows in walk order, not key order", SPACES,
           "for key in sorted(acc)", "for key in acc",
           (ON_BUNDLED,)),
    Mutant("solver: the eval term through the row index", SPACES,
           "for l, x in vec.items() for m, idx in by_col[c][l])",
           "for l, x in vec.items() for m, idx in by_row[c][l])",
           (ON_BUNDLED,)),
    Mutant("solver: integral sums left as Fraction", SPACES,
           "if (row := {idx: _int(x) for idx, x in acc[key].items() if x})]",
           "if (row := {idx: x for idx, x in acc[key].items() if x})]",
           (ON_BUNDLED,)),
    Mutant("nullspace: the columns not reversed", LINALG,
           "done = _reduce({w - c: x for c, x in row.items()} for row in m._sparse.values())",
           "done = _reduce(dict(row) for row in m._sparse.values())",
           ("tests/test_mixed_rows.py::test_nullspace_matches_the_dense_reference",)),
    # the batched product of both engines
    Mutant("_batched: s ignored", SPACES,
           "(sign * s * parity_sign(p.degree, dg), g, x)", "(sign * parity_sign(p.degree, dg), g, x)",
           (BATCH,)),
    Mutant("_batched: the parity sign ignored", SPACES,
           "(sign * s * parity_sign(p.degree, dg), g, x)", "(sign * s, g, x)",
           (BATCH,)),
    Mutant("_batched: the left product unsigned", SPACES,
           "[(sign, p.matrix._cols, g)]", "[(1, p.matrix._cols, g)]",
           (BATCH,)),
    # the w-generic Jordan engine and its basis-first walk
    Mutant("jordan: the max instead of the min w", SPACES,
           "min(w for w, _ in rows)", "max(w for w, _ in rows)",
           (BATCHED + "test_first_failing_w_is_odd_before_a_failing_even_w",)),
    Mutant("jordan: a dropped w-degree sign", SPACES,
           "s1, s2, s3 = (parity_sign(dz, dx + d),", "s1, s2, s3 = (parity_sign(dz, dx),",
           (RESIDUALS,)),
    Mutant("jordan: (g o w) o tw z turned round without the degree of w", SPACES,
           "parity_sign(g.degree + d, dz)", "parity_sign(g.degree, dz)",
           (RESIDUALS,)),
    Mutant("jordan: a swapped (w, r) key", SPACES,
           "w = {(i, r): row for i, g in enumerate(elems)", "w = {(r, i): row for i, g in enumerate(elems)",
           (RESIDUALS,)),
    Mutant("jordan: a per-z table built once per engine", SPACES,
           "    def at(z):\n        dz, twz = elems[z].degree, tw[z]\n"
           "        zc = [_product(twz, g, 1) for g in tw]\n",
           "    zc = [_product(tw[0], g, 1) for g in tw]\n\n"
           "    def at(z):\n        dz, twz = elems[z].degree, tw[z]\n",
           (RESIDUALS,)),
    Mutant("jordan: the z-outer walk keeps the last witness", SPACES,
           "(x, y, z) < best[:3]", "(x, y, z) > best[:3]",
           (JORDAN + "test_engine_matches_oracle_on_bundled[lax]",)),
    Mutant("jordan: basis-first reports pass when the basis fails", SPACES,
           "quad = _jordan_witness(spec.alpha, basis) and _jordan_witness(spec.alpha, elems)",
           "quad = _jordan_witness(spec.alpha, basis) and None",
           (JORDAN + "test_engine_matches_oracle_on_bundled[lax]",)),
    Mutant("jordan: the witness read off the basis walk", SPACES,
           "and _jordan_witness(spec.alpha, elems)", "and _jordan_witness(spec.alpha, basis)",
           (BATCHED + "test_basis_first_walk_fails_with_the_walked_witness",)),
    Mutant("jordan: keyed rows multiplied on the left keep their row", LINALG,
           "out = acc.setdefault((w, r), {})", "out = acc.setdefault((w, k), {})",
           (RESIDUALS,)),
    # the batched law cells
    Mutant("law: a swapped (w, r) key", SPACES,
           "for (w, r), row in _sparse_sum(", "for (r, w), row in _sparse_sum(",
           (WIDE_CELL,)),
    Mutant("law: the component offset dropped", SPACES,
           "(c * n + r) * n + col", "r * n + col",
           (WIDE_CELL,)),
    Mutant("law: the witness rebuilt at the first w", SPACES,
           "zip(x, b[w]))", "zip(x, b[0]))",
           (WIDE_CELL,)),
    Mutant("law: cells of one map skipped", SPACES,
           "    if not b:\n        return None", "    if len(b) < 2:\n        return None",
           ("tests/test_law_engine.py::test_closure_equivalence_fails_on_a_bent_composition",)),
    Mutant("_first_outside: an inverted cell verdict", SPACES,
           "if _eliminate(row, target._reduced):", "if not _eliminate(row, target._reduced):",
           ("tests/test_sparse_coords.py::test_first_outside_matches_the_dense_walk",)),
    Mutant("_product: a product ignoring the parity sign", SPACES,
           "(s * parity_sign(a.degree, b.degree), y, x)", "(s, y, x)",
           ("tests/test_spaces.py::test_products_match_the_dense_reference_product",)),
    Mutant("_product: a dropped term sign", SPACES,
           "(s * parity_sign(a.degree, b.degree), y, x)", "(parity_sign(a.degree, b.degree), y, x)",
           ("tests/test_spaces.py::test_products_match_the_dense_reference_product",)),
    Mutant("space_contains: the degree tag ignored", SPACES,
           "if any(g.degree != space.degree for g in maps):", "if False:",
           ("tests/test_spaces.py::test_space_contains_rejects_a_wrong_degree",)),
    Mutant("GradedMap: a hash without the degree", SPACES,
           "hash((g.matrix, g.degree))", "hash((g.matrix,))",
           (BATCHED + "test_map_and_space_hashes_are_the_dataclass_hashes",)),
    # validate on the sparse bracket view
    Mutant("validate: a dropped live-triple rotation", ALGEBRA,
           "for t in ((x, a, b), (b, x, a), (a, b, x))", "for t in ((x, a, b), (b, x, a))",
           (VALIDATE + "test_matches_reference_on_faulty_tables",)),
    Mutant("validate: skew without the transposes", ALGEBRA,
           "sorted(table.keys() | {(j, i) for i, j in table})", "sorted(table.keys())",
           (VALIDATE + "test_matches_reference_on_faulty_tables",)),
    Mutant("validate: multiplicativity on nonzero pairs only", ALGEBRA,
           "for i in range(n) for j in range(n)\n            if (res := _add(twisted",
           "for i, j in table\n            if (res := _add(twisted",
           (VALIDATE + "test_all_five_faults_in_identity_order",)),
    # elimination, products and subspaces
    Mutant("_eliminate: only the first pivot cleared", LINALG,
           "for p in [c for c in row if c in done]:", "for p in [c for c in row if c in done][:1]:",
           ("tests/test_linalg.py::test_contains_linear_combination", RREF)),
    Mutant("_reduce: the leading column not cleared from earlier pivot rows", LINALG,
           "for other in done.values():", "for other in ():",
           (RREF,)),
    Mutant("_reduce: the rightmost pivot", LINALG,
           "lead = min(row)", "lead = max(row)",
           (RREF,)),
    Mutant("_sparse_sum: no zero pruning", LINALG,
           "return {r: row for r, row in rows.items() if row}", "return rows",
           ("tests/test_spaces.py::test_products_match_the_dense_reference_product",)),
    Mutant("_sparse_sum: the column branch unsigned", LINALG,
           "out[c] = out.get(c, 0) + (x * y if sign > 0 else -x * y)\n            continue",
           "out[c] = out.get(c, 0) + x * y\n            continue",
           (BATCH,)),
    Mutant("rank: the matrix's own view consumed", LINALG,
           "len(_reduce(dict(row) for row in m._sparse.values()))",
           "len(_reduce(m._sparse.values()))",
           ("tests/test_sparse_rref.py::test_rank_reduces_copies_of_the_rows_without_rref",)),
    Mutant("Subspace: == comparing dimensions only", LINALG,
           "return (self.ambient_dim, self._reduced) == (other.ambient_dim, other._reduced)",
           "return (self.ambient_dim, self.dim) == (other.ambient_dim, other.dim)",
           ("tests/test_membership.py::test_a_rescaled_basis_gives_an_equal_subspace",)),
    Mutant("Subspace: rows hashed in insertion order", LINALG,
           "(p, frozenset(row.items())) for p, row in s._reduced.items()",
           "(p, tuple(row.items())) for p, row in s._reduced.items()",
           ("tests/test_membership.py::test_the_hash_ignores_the_order_in_which_reduced_rows_were_built",)),
    Mutant("frac: decimals let through", LINALG,
           '_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")',
           '_LITERAL = re.compile(r"[+-]?[0-9.]+(/[0-9]+)?")',
           ("tests/test_linalg.py::test_frac_rejects_non_p_q_literals",)),
)

# (name, file, old, new, why the edit changes no behaviour)
EQUIVALENT = (
    ("_batched: no early return for an empty factor", SPACES,
     "    if not (g and x):\n        return []\n", "",
     "a term with an empty factor adds only empty rows, which _sparse_sum "
     "prunes"),
    ("law: the batch degree read off the last map", SPACES,
     "b[0][0].degree", "b[-1][0].degree",
     "every map of one basis has the degree of its space"),
    ("solver: the left table's parity sign with its arguments swapped", SPACES,
     "parity_sign(degree, deg[i])", "parity_sign(deg[i], degree)",
     "(-1)^(ab) is symmetric in a and b"),
    ("nullspace: the canonical kernel rows reduced once more", LINALG,
     "return Subspace._of(m.cols, kernel)",
     "return Subspace._from_sparse(m.cols, ({f: 1} | row for f, row in kernel.items()))",
     "each kernel row leads at its free column, which no other row holds, so "
     "_reduce returns the rows as they are; only the time differs"),
    ("jordan: the w-degree sign with its arguments swapped", SPACES,
     "parity_sign(dz, dx + d)", "parity_sign(dx + d, dz)",
     "(-1)^(ab) is symmetric in a and b"),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


# pytest under a hypothesis profile that draws the same examples on every
# run, so a kill does not depend on luck, and does not shrink: a mutant
# needs one failing example, and shrinking it can take minutes
_PYTEST = """import sys, hypothesis, pytest
hypothesis.settings.register_profile("mutants", derandomize=True, phases=[
    hypothesis.Phase.explicit, hypothesis.Phase.generate])
hypothesis.settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))"""


def _tests_fail(src: Path, tests, workdir: Path) -> bool:
    """Run the named tests against ``src``; True when any fails.  The
    working directory is the temporary one, so no run leaves files in
    the repository."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-c", _PYTEST, "-q", "-x", "-p", "no:cacheprovider",
           "--rootdir", str(ROOT), *(str(ROOT / t) for t in tests)]
    done = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode != 0


def run(mutants, out=print) -> int:
    """0 when the named tests pass unmutated and every mutant is killed,
    else 1."""
    tests = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _tests_fail(_copy_src(Path(tmp)), tests, Path(tmp)):
            out("BASELINE the named tests fail on the unmutated copy")
            return 1
    bad = 0
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            path = src / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                out(f"STALE    {m.name}: the old snippet occurs "
                    f"{text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            killed = _tests_fail(src, m.tests, Path(tmp))
        out(f"{'killed  ' if killed else 'SURVIVED'} {m.name} "
            f"({time.perf_counter() - start:.1f} s)")
        bad += not killed
    out(f"{len(mutants) - bad} of {len(mutants)} mutants killed; "
        f"{len(EQUIVALENT)} equivalent listed, not run")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
