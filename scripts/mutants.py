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


SPACES, LINALG = "homlie/spaces.py", "homlie/linalg.py"
BATCHED = "tests/test_batched_engines.py::"
JORDAN = "tests/test_jordan_engine.py::"
RESIDUALS = JORDAN + "test_engine_residuals_match_dense_residuals"
RREF = "tests/test_sparse_rref.py::test_rref_matches_dense_reference"

MUTANTS = (
    # the w-generic Jordan engine and its basis-first walk
    Mutant("jordan: the max instead of the min w", SPACES,
           "min(w for w, _ in rows)", "max(w for w, _ in rows)",
           (BATCHED + "test_first_failing_w_is_odd_before_a_failing_even_w",)),
    Mutant("jordan: a dropped w-degree sign", SPACES,
           "s1, s2, s3 = (parity_sign(dz, dx + d),", "s1, s2, s3 = (parity_sign(dz, dx),",
           (RESIDUALS,)),
    Mutant("jordan: (y o w) o tw z without the degree of w", SPACES,
           "*circle(yw, dy + d, tw[z])", "*circle(yw, dy, tw[z])",
           (RESIDUALS,)),
    Mutant("jordan: the left product of a circle unsigned", SPACES,
           "(s if g_first else sign, p.matrix._cols, g)]", "(sign, p.matrix._cols, g)]",
           (RESIDUALS,)),
    Mutant("jordan: a memo key without the degree of w", SPACES,
           'yw = once(("y o w", y, d),', 'yw = once(("y o w", y),',
           (RESIDUALS,)),
    Mutant("jordan: a factor with z kept for the next z", SPACES,
           "*circle(yw, dy + d, tw[z])), near)", "*circle(yw, dy + d, tw[z])), memo)",
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
    Mutant("law: a wrong divmod split", SPACES,
           "w, r = divmod(i, n)", "r, w = divmod(i, n)",
           (BATCHED + "test_law_witness_at_a_later_w_in_a_wide_cell",)),
    Mutant("law: the block offset kept in the column", SPACES,
           "(c * n + r - w) * n + col", "(c * n + r) * n + col",
           (BATCHED + "test_law_witness_at_a_later_w_in_a_wide_cell",)),
    Mutant("law: an unlifted factor", SPACES,
           "op(_blocks([p] * len(b)), q)", "op(_blocks([x[0]] * len(b)), q)",
           (BATCHED + "test_law_witness_at_a_later_w_in_a_wide_cell",)),
    Mutant("law: the witness rebuilt at the first w", SPACES,
           "zip(x, b[w]))", "zip(x, b[0]))",
           (BATCHED + "test_law_witness_at_a_later_w_in_a_wide_cell",)),
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
    # elimination and subspaces
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
    ("jordan: the two indices of a memo key swapped", SPACES,
     'once(("tw z o tw c", z, c),', 'once(("tw z o tw c", c, z),',
     "one line makes and reads every key of that tag, so the swap only "
     "relabels entries: (z, c) and (c, z) are told apart either way"),
    ("law: the block degree read off the last map", SPACES,
     "maps[0].degree)", "maps[-1].degree)",
     "every map of one basis has the degree of its space"),
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
