#!/usr/bin/env python3
"""A committed mutation kill-list for homlie's engines.

Each entry of ``MUTANTS`` is one edit of a file under ``src/`` or of
``README.md``: an old snippet, which must occur exactly once (a stale
entry is an error, not a skip), its replacement, and the tests that must
fail once it is made.  For every entry the script copies ``src/`` and
``README.md`` to a temporary directory, applies the edit there and runs
only the named tests, with ``PYTHONPATH`` at the copy (the tests read
the README beside the ``src`` that ``homlie`` is imported from).  The
union of the named tests must first pass on unmutated copies, shared
out over the CPUs; then the mutants run as many at a time as there are
CPUs, each in its own copy, and are reported in list order.
``EQUIVALENT`` lists edits that change no behaviour, each with its
reason: they are never run and never counted as killed.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


SPACES, LINALG, ALGEBRA = "src/homlie/spaces.py", "src/homlie/linalg.py", "src/homlie/algebra.py"
EXTENSION, CLI, README = "src/homlie/extension.py", "src/homlie/cli.py", "README.md"
FILEFORMAT, RANDOMGEN = "src/homlie/fileformat.py", "src/homlie/randomgen.py"
BATCHED = "tests/test_batched_engines.py::"
JORDAN = "tests/test_jordan_engine.py::"
RESIDUALS = JORDAN + "test_engine_residuals_match_dense_residuals"
PASS = JORDAN + "test_pass_matches_the_per_quadruple_engine"
REFERENCE_PASS = JORDAN + "test_pass_matches_the_reference_pass"
WALK_REF = JORDAN + "test_witness_is_the_walk_over_every_ordering"
MIXED = BATCHED + "test_a_basis_failing_only_at_mixed_degrees_fails_with_the_reference_witness"
BATCH = "tests/test_batched_product.py::test_each_block_is_the_per_pair_product"
WIDE_CELL = BATCHED + "test_law_witness_at_a_later_w_in_a_wide_cell"
SELF_CELL = BATCHED + "test_a_bracket_cell_of_one_basis_finds_the_first_witness"
TWO_BASES = BATCHED + "test_a_cell_of_two_bases_finds_the_first_witness"
H9_LAX = "tests/test_golden_large.py::test_large_report_is_golden[h9-lax]"
CACHE_COUNTS = "tests/test_law_engine.py::test_law_cache_counts_on_a_failing_report"
REPORT_COUNTS = "tests/test_law_engine.py::test_law_cache_counts_on_report"
LEVEL_0 = "tests/test_law_engine.py::test_laws_of_an_identity_twist_solve_only_level_0"
LEAST = "tests/test_twist_powers.py::test_least_power_of_each_twist"
READER_WORK = ("tests/test_caches.py::"
               "test_the_level_reader_compares_few_powers_of_a_twist_that_never_repeats")
REPORT_LEVEL_0 = "tests/test_law_engine.py::test_report_of_an_identity_twist_solves_only_level_0"
RREF = "tests/test_sparse_rref.py::test_rref_matches_dense_reference"
ASSEMBLY = "tests/test_solver_assembly.py::"
ON_BUNDLED = ASSEMBLY + "test_assembly_matches_the_per_pair_walk_on_bundled"
SHARED_LEVEL = ("tests/test_level_sharing.py::"
                "test_each_kind_is_solved_alike_from_a_cold_or_a_shared_level[bundled]")
EDGES = ASSEMBLY + "test_presolve_edge_cases_match_the_reference"
RANDOM_ROWS = ASSEMBLY + "test_presolve_matches_the_reference_on_random_rows"
ROUND_TRIP = "tests/test_sparse_coords.py::test_maps_inverts_coords_and_hands_back_zero"
MAPS_REF = "tests/test_sparse_coords.py::test_maps_of_a_kernel_match_the_reference"
LEVEL_REF = "tests/test_level_sharing.py::test_level_matches_the_reference[half_plane]"
RANDOM_LEVEL = "tests/test_level_sharing.py::test_strict_level_matches_the_reference_on_random_twists"
UNIT_MAPS = "tests/test_sparse_coords.py::test_a_solve_forms_one_unit_map_per_cell"
DIAGONAL_LEVEL = "tests/test_level_sharing.py::test_level_on_a_diagonal_twist_matches_the_reference"
PRESOLVED = "tests/test_level_sharing.py::test_only_a_twist_off_its_diagonal_presolves_its_level"
POWER_REF = "tests/test_twist_powers.py::test_power_matches_the_reference"
VALIDATE = "tests/test_validation.py::"
STORED = "tests/test_stored_form.py::"
BENT_SHIFT = "tests/test_law_engine.py::test_shift_law_fails_into_a_space_bent_at_the_next_level"
BENT_EVERYWHERE = ("tests/test_law_engine.py::"
                   "test_a_bend_at_level_0_of_an_identity_twist_is_a_bend_at_every_level")
ON_REFERENCE = "tests/test_laws.py::test_engine_matches_reference"
LAW_FAIL = "tests/test_laws.py::test_each_law_family_fails_under_its_fixture"
EXT = "tests/test_extension.py::"
CLI_TESTS = "tests/test_cli.py::"
BENT_SPLIT = CLI_TESTS + "test_decompose_verdicts_fail_on_a_bent_split"
GOLDEN_REPORT = "tests/test_golden.py::test_report_output_is_golden"
PUBLIC = "tests/test_public_api.py::"
SUMMED = ("tests/test_fileformat.py::"
          "test_terms_are_summed_into_one_row_and_a_cancelled_bracket_is_dropped")
SPLIT = ("tests/test_elimination.py::test_projection_matches_reference_on_random_splits",
         "tests/test_elimination.py::test_projection_matches_reference_on_bundled")
VIEWS = "tests/test_span_views.py::"
ON_VIEWS = VIEWS + "test_views_of_solved_spaces_are_the_reductions_on_bundled[ex2_5]"
BENT_VIEWS = VIEWS + "test_a_replaced_space_reduces_its_own_tuples[QC]"
LAYOUT = VIEWS + "test_a_solved_kernel_is_the_reduction_of_its_tuples_coordinates[ex2_5]"
UNCOPIED = VIEWS + "test_the_tuple_view_holds_the_kernel_rows_uncopied[ex2_5]"
LABELS = "tests/test_sparse_rref.py::test_kernel_writes_each_unknown_at_its_label"
REPEATED = JORDAN + "test_residual_matches_the_dense_residual_with_a_map_repeated"
WALKS_APART = "tests/test_twist_powers.py::test_the_walks_of_twists_at_one_k_max_are_kept_apart"
WRITER = CLI_TESTS + "test_json_writer_matches_json_dumps_with_indent_2"

MUTANTS = (
    # the solver's system, assembled from the nonzeros of the bracket tables
    Mutant("solver: the left table's parity sign dropped", SPACES,
           "left.setdefault(b, {}), -x * parity_sign(degree, deg[i]),",
           "left.setdefault(b, {}), -x,",
           (ON_BUNDLED,)),
    Mutant("solver: the right table reading a^k transposed", SPACES,
           "for j, x in ak.get(b, {}).items():",
           "for j, x in {j: r[b] for j, r in ak.items() if b in r}.items():",
           (ON_BUNDLED,)),
    Mutant("solver: the eval sign flipped", SPACES,
           "evals.setdefault(l, {})[(a * n + b) * step] = x",
           "evals.setdefault(l, {})[(a * n + b) * step] = -x",
           (ON_BUNDLED,)),
    Mutant("solver: the strict alpha-term sign flipped", SPACES,
           "acc.setdefault(t * n + r, {})[idx] = -x", "acc.setdefault(t * n + r, {})[idx] = x",
           (LEVEL_REF, RANDOM_LEVEL)),
    Mutant("level: the commutation row term's sign flipped", SPACES,
           "acc.setdefault(c * n + t, {})[idx] = x", "acc.setdefault(c * n + t, {})[idx] = -x",
           (ON_BUNDLED, LEVEL_REF)),
    Mutant("level: the diagonal term's sign flipped", SPACES,
           "{idx: diag[l] - diag[m]}", "{idx: diag[m] - diag[l]}",
           (LEVEL_REF, RANDOM_LEVEL)),
    Mutant("level: the entries off the twist's diagonal skipped", SPACES,
           "for r, c, x in off:", "for r, c, x in ():",
           (ON_BUNDLED, LEVEL_REF, RANDOM_LEVEL)),
    Mutant("level: the degree classes swapped", SPACES,
           "for l in classes[(deg[m] + degree) % 2]\n", "for l in classes[(deg[m] + degree + 1) % 2]\n",
           (ON_BUNDLED, RANDOM_LEVEL)),
    # on a diagonal twist each commutation row is one entry, diag[l] - diag[m]: the
    # level keeps the cells whose diagonal entries agree, and builds no system
    Mutant("level: the diagonal filter inverted", SPACES,
           "if not strict or off or diag[m] == diag[l]]", "if not strict or off or diag[m] != diag[l]]",
           (DIAGONAL_LEVEL, ON_BUNDLED)),
    Mutant("level: the diagonal filter applied in lax mode", SPACES,
           "if not strict or off or diag[m] == diag[l]]", "if off or diag[m] == diag[l]]",
           (DIAGONAL_LEVEL, ON_BUNDLED)),
    Mutant("level: the diagonal filter applied despite entries off the diagonal", SPACES,
           "if not strict or off or diag[m] == diag[l]]", "if not strict or diag[m] == diag[l]]",
           (LEVEL_REF, RANDOM_LEVEL)),
    Mutant("level: the commutation system built on a diagonal twist too", SPACES,
           "    if off:\n", "    if strict:\n",
           (PRESOLVED,)),
    Mutant("solver: the spread sign applied twice", SPACES,
           "row[idx] = row.get(idx, 0) + sign * x", "row[idx] = row.get(idx, 0) + sign * sign * x",
           (ON_BUNDLED,)),
    Mutant("solver: rows in walk order, not key order", SPACES,
           "return [row for key in sorted(multi)", "return [row for key in multi",
           (ON_BUNDLED,)),
    Mutant("solver: the eval term through the row index", SPACES,
           '"eval": (1, evals, by_col)}', '"eval": (1, evals, by_row)}',
           (ON_BUNDLED,)),
    Mutant("solver: integral sums left as Fraction", SPACES,
           "{at[idx]: _int(x) for idx, x in multi[key].items() if idx in at}",
           "{at[idx]: x for idx, x in multi[key].items() if idx in at}",
           (ON_BUNDLED,)),
    # the unknowns that rows of one nonzero entry fix to zero, taken out of the
    # system by one routine, at the level and at the solve
    Mutant("presolve: a two-entry row taken as fixing its unknowns", SPACES,
           "len(row := {idx: x for idx, x in row.items() if x}) > 1:",
           "len(row := {idx: x for idx, x in row.items() if x}) > 2:",
           (ON_BUNDLED, EDGES, RANDOM_ROWS)),
    Mutant("presolve: a one-unknown row whose sum is 0 taken as fixing it", SPACES,
           "elif all(row.values()):", "elif row:",
           (ON_BUNDLED, RANDOM_ROWS)),
    Mutant("presolve: a row cancelled down to one entry kept as a row", SPACES,
           "len(row := {idx: x for idx, x in row.items() if x}) > 1:",
           "len(row := {idx: x for idx, x in row.items() if x}) > 0:",
           (EDGES, RANDOM_ROWS)),
    Mutant("presolve: a row that clears to one entry kept as a row, its zeros left in", SPACES,
           "len(row := {idx: x for idx, x in row.items() if x}) > 1:",
           "len(row := dict(row)) > 1:",
           (EDGES, RANDOM_ROWS)),
    Mutant("presolve: the surviving unknowns renumbered out of order", SPACES,
           "kept = [idx for idx in range(width) if idx not in fixed]",
           "kept = [idx for idx in reversed(range(width)) if idx not in fixed]",
           (ON_BUNDLED, EDGES, RANDOM_ROWS)),
    Mutant("presolve: the fixed unknowns left in the other rows, and as columns", SPACES,
           "kept = [idx for idx in range(width) if idx not in fixed]",
           "kept = list(range(width))",
           (ON_BUNDLED, EDGES, RANDOM_ROWS)),
    Mutant("presolve: a row of one entry kept as a row, its unknown not struck", SPACES,
           "            fixed.update(row)", "            multi[key] = row",
           (ON_BUNDLED,)),
    # one kind-free level per (k, degree, mode), read by every kind's solve
    Mutant("level: read with strict forced True", SPACES,
           "_level(spec, k, degree, strict)\n", "_level(spec, k, degree, True)\n",
           (SHARED_LEVEL,)),
    Mutant("level: the component offsets dropped", SPACES,
           "spread(ident, e * n, *sides[side], sign, c * size)",
           "spread(ident, e * n, *sides[side], sign, 0)",
           (SHARED_LEVEL,)),
    Mutant("level: the struck cells ignored", SPACES,
           "cells = [cells[i] for i in kept]",
           "cells = cells[:len(kept)]",
           (SHARED_LEVEL.replace("[bundled]", "[sheared_h3]"), RANDOM_LEVEL)),
    Mutant("solver: the zero map built at degree 0 for every degree", SPACES,
           "zero = GradedMap._of(Matrix._of(n, n, {}), degree)",
           "zero = GradedMap._of(Matrix._of(n, n, {}), 0)",
           (ON_BUNDLED, EDGES)),
    Mutant("MapSpace._of: the k and degree fields swapped", SPACES,
           'd["kind"], d["k"], d["degree"], d["strict"]', 'd["kind"], d["degree"], d["k"], d["strict"]',
           (VIEWS + "test_a_solved_space_is_the_one_its_constructor_builds[ex2_5]",)),
    Mutant("_maps: row and column read swapped", SPACES,
           ".setdefault(i // n % n, {})[i % n] = x", ".setdefault(i % n, {})[i // n % n] = x",
           (ON_BUNDLED, ROUND_TRIP, MAPS_REF)),
    Mutant("_maps: a unit row's 1 written into component 0 whatever its c", SPACES,
           "t[c] = unit", "t[0] = unit",
           (ON_BUNDLED, ROUND_TRIP, MAPS_REF)),
    Mutant("_maps: a shared unit keyed on m alone", SPACES,
           "units.get(m * n + l)) is None:\n                unit = units[m * n + l] =",
           "units.get(m)) is None:\n                unit = units[m] =",
           (ON_BUNDLED, UNIT_MAPS)),
    Mutant("_maps: the leading 1 written at (c, l, m)", SPACES,
           "views = {c: {m: {l: 1}}}", "views = {c: {l: {m: 1}}}",
           (ON_BUNDLED, ROUND_TRIP, MAPS_REF)),
    Mutant("nullspace: the columns not reversed", LINALG,
           "({w - c: x for c, x in row.items()} for row in m._sparse.values()), range(m.cols)))",
           "(dict(row) for row in m._sparse.values()), range(m.cols)))",
           ("tests/test_mixed_rows.py::test_nullspace_matches_the_dense_reference",)),
    Mutant("_kernel: its labels read unreversed", LINALG,
           "kernel[labels[w - c]][labels[w - p]] = -x", "kernel[labels[c]][labels[p]] = -x",
           (LABELS, ON_BUNDLED)),
    Mutant("solver: a label off by one component", SPACES,
           "kernel = _kernel(rows, [(idx // size * n + m) * n + l",
           "kernel = _kernel(rows, [((idx // size + 1) * n + m) * n + l",
           (ON_BUNDLED, LAYOUT)),
    Mutant("solver: the label swaps c and m, so it no longer increases", SPACES,
           "kernel = _kernel(rows, [(idx // size * n + m) * n + l",
           "kernel = _kernel(rows, [(m * n + idx // size) * n + l",
           (ON_VIEWS,)),
    Mutant("solver: the kept unknowns not counted from the last", SPACES,
           "range(len(kept) - 1, -1, -1) if reverse", "range(len(kept)) if reverse",
           (ON_BUNDLED,)),
    # the join that forms a batch of maps times a batch of maps, for both engines
    Mutant("_join: s ignored", SPACES,
           "for w, r, f in (flip if i in odd else cols).get(k, ()) if s else ():\n"
           "                if not skew or w >= i:\n"
           "                    _subtract(acc.setdefault((i, w, r), {}), -sign * s * f, prow)",
           "for w, r, f in (flip if i in odd else cols).get(k, ()):\n"
           "                if not skew or w >= i:\n"
           "                    _subtract(acc.setdefault((i, w, r), {}), -sign * f, prow)",
           (BATCH,)),
    Mutant("_join: the parity sign ignored", SPACES,
           "[(w, r, -x if w in odd else x) for w, r, x in col]",
           "[(w, r, x) for w, r, x in col]",
           (BATCH,)),
    Mutant("_index: flip negates every entry, not only those at odd w", SPACES,
           "[(w, r, -x if w in odd else x) for w, r, x in col]",
           "[(w, r, -x) for w, r, x in col]",
           (BATCH,)),
    Mutant("_join: an odd p_i reads cols", SPACES,
           "(flip if i in odd else cols).get(k, ())", "cols.get(k, ())",
           (BATCH,)),
    Mutant("_join: the left product unsigned", SPACES,
           "_subtract(acc.setdefault((i, w, k), {}), -sign * f, row)",
           "_subtract(acc.setdefault((i, w, k), {}), -f, row)",
           (BATCH,)),
    Mutant("_join: a batch column of one entry skipped", SPACES,
           "(flip if i in odd else cols).get(k, ()) if s else ():",
           "(flip if i in odd else cols).get(k, ()) if s and len(cols.get(k, ())) > 1 else ():",
           (BATCH,)),
    Mutant("_join: the column read unsigned", SPACES,
           "_subtract(acc.setdefault((i, w, r), {}), -sign * s * f, prow)",
           "_subtract(acc.setdefault((i, w, r), {}), -s * f, prow)",
           (BATCH,)),
    Mutant("_join: the reverse term read through p_i's column instead of its row", SPACES,
           "_subtract(acc.setdefault((i, w, r), {}), -sign * s * f, prow)",
           "_subtract(acc.setdefault((i, w, r), {}), -sign * s * f,\n"
           "                              {c: v[k] for (h, c), v in p.items() if h == i and k in v})",
           (BATCH,)),
    # the per-z Jordan pass and its basis-first walk
    Mutant("jordan: the max instead of the min w", SPACES,
           "x, y, w = min(residual)[0]",
           "x, y, w = min(residual, key=lambda kr: (kr[0][:2], -kr[0][2]))[0]",
           (BATCHED + "test_first_failing_w_is_odd_before_a_failing_even_w",)),
    Mutant("jordan: a z's first key taken instead of its least", SPACES,
           "x, y, w = min(residual)[0]", "x, y, w = next(iter(residual))[0]",
           (WALK_REF,)),
    Mutant("residual: the rows read at the key (2, 1, 3)", SPACES,
           "for (key, r), row in rows if key == (1, 2, 3)}",
           "for (key, r), row in rows if key == (2, 1, 3)}",
           (REPEATED,)),
    Mutant("residual: the pass run over (x, y, z, w)", SPACES,
           "next(_jordan_pass(alpha, (z, x, y, w)))", "next(_jordan_pass(alpha, (x, y, z, w)))",
           (REPEATED,)),
    Mutant("residual: every z of the pass formed", SPACES,
           "next(_jordan_pass(alpha, (z, x, y, w)))", "list(_jordan_pass(alpha, (z, x, y, w)))[0]",
           (JORDAN + "test_the_residual_forms_only_its_own_z",)),
    Mutant("jordan: a dropped w-degree sign", SPACES,
           "o * parity_sign(dz, deg[u] + dc)", "o * parity_sign(dz, deg[u])",
           (RESIDUALS,)),
    Mutant("jordan: a swapped (z, r) key", SPACES,
           "tz = g.degree, {(z, r): row for r, row in", "tz = g.degree, {(r, z): row for r, row in",
           (RESIDUALS,)),
    Mutant("jordan: a per-z table built once per pass", SPACES,
           "zc = {(c, r): row for (_, c, r), row in _join(",
           "zc = z and zc or {(c, r): row for (_, c, r), row in _join(",
           (RESIDUALS,)),
    Mutant("jordan: the z-outer walk keeps the last witness", SPACES,
           "best = min(best or", "best = max(best or",
           (BATCHED + "test_a_later_z_holds_the_least_pair", WALK_REF)),
    Mutant("jordan: the walk over z ended at any witness", SPACES,
           "if best[:2] == (0, 0):", "if best:",
           (BATCHED + "test_a_later_z_holds_the_least_pair",)),
    Mutant("jordan: basis-first reports pass when the basis fails", SPACES,
           "quad = _jordan_witness(spec.alpha, elems) if", "quad = None if",
           (JORDAN + "test_engine_matches_oracle_on_bundled[lax]",)),
    Mutant("jordan: the pre-check's verdict negated", SPACES,
           "if any(_jordan_pass(spec.alpha, basis)) else None",
           "if not any(_jordan_pass(spec.alpha, basis)) else None",
           (JORDAN + "test_engine_matches_oracle_on_bundled[lax]",)),
    Mutant("jordan: the pre-check run over elems instead of basis", SPACES,
           "any(_jordan_pass(spec.alpha, basis))", "any(_jordan_pass(spec.alpha, elems))",
           (BATCHED + "test_basis_first_walk_fails_with_the_walked_witness",)),
    Mutant("jordan: the basis walk run on past its first nonzero residual", SPACES,
           "any(_jordan_pass(spec.alpha, basis))", "any(list(_jordan_pass(spec.alpha, basis)))",
           (BATCHED + "test_the_basis_walk_stops_at_its_first_nonzero_residual",)),
    Mutant("jordan: the walk keeps the last failing quadruple", SPACES,
           "best = min(best or (x, y, z, w), (x, y, z, w))", "best = (x, y, z, w)",
           (WALK_REF,)),
    Mutant("jordan: the witness read off the basis walk", SPACES,
           "quad = _jordan_witness(spec.alpha, elems) if",
           "quad = _jordan_witness(spec.alpha, basis) if",
           (BATCHED + "test_basis_first_walk_fails_with_the_walked_witness",)),
    Mutant("jordan: keyed rows multiplied on the left keep their row", SPACES,
           "_subtract(acc.setdefault((i, w, k), {}), -sign * f, row)",
           "_subtract(acc.setdefault((i, w, j), {}), -sign * f, row)",
           (RESIDUALS,)),
    Mutant("jordan: the multiset weight dropped", SPACES,
           "(a, b, c).count(c))]", "1)]",
           (PASS,)),
    Mutant("jordan: one cyclic term of R dropped", SPACES,
           ", ((c, u, v), t), ((v, c, u), t)]", ", ((c, u, v), t)]",
           (PASS,)),
    Mutant("jordan: the even fold applied to a triple that holds an odd map", SPACES,
           "if not (da or db or dc):", "if not (da or db):",
           (PASS, MIXED)),
    Mutant("jordan: the w >= i bound applied to tz joined with every tc", SPACES,
           "_join((1, tz, oz, twi, 1)).items()}", "_join((1, tz, oz, twi, 1), skew=True).items()}",
           (PASS,)),
    Mutant("jordan: the batch-left parity sign dropped", SPACES,
           "_join((1, p, op, _index(tz, oz), 1))", "_join((1, p, (), _index(tz, oz), 1))",
           (PASS, REFERENCE_PASS)),
    Mutant("jordan: q's odd set taken without the dz shift", SPACES,
           "_join((1, q, odd(q, dz), tw2, 1),", "_join((1, q, odd(q), tw2, 1),",
           (PASS, REFERENCE_PASS)),
    Mutant("jordan: zc's odd set taken without the dz shift", SPACES,
           "_index(zc, odd(zc, dz))", "_index(zc, odd(zc))",
           (PASS, REFERENCE_PASS)),
    # the batched law cells
    Mutant("law: every space read afresh at each use", SPACES,
           "return views[key] if key in views else views.setdefault(key, getattr(space(*key), view))",
           "return getattr(space(*key), view)",
           ("tests/test_law_engine.py::test_a_law_walk_reads_each_space_once_in_walk_order[strict]",)),
    Mutant("law: a swapped (w, r) key", SPACES,
           "for (i, w, r), row in _join(", "for (i, r, w), row in _join(",
           (WIDE_CELL,)),
    Mutant("law: the component offset dropped", SPACES,
           "(c * n + r) * n + col", "r * n + col",
           (WIDE_CELL,)),
    Mutant("law: the witness rebuilt at the first w", SPACES,
           "_product(a[at[0]][0], b[at[1]][0], sign)", "_product(a[at[0]][0], b[0][0], sign)",
           (LAW_FAIL + "[C-C]",)),
    # a cell answers with its first failing pair, and each caller forms the
    # product it prints
    Mutant("law: the pair returned as (w, i)", SPACES,
           "((rows[key], key) for key in", "((rows[key], key[::-1]) for key in",
           (WIDE_CELL,)),
    Mutant("law: the tuple laws reading first-component views", SPACES,
           'view = "_tuple_view" if whole else "_first_view"', 'view = "_first_view"',
           (ON_REFERENCE,)),
    Mutant("law: the witness formed with the pair's indices swapped", SPACES,
           "_product(a[at[0]][0], b[at[1]][0], sign)", "_product(a[at[1]][0], b[at[0]][0], sign)",
           (ON_REFERENCE,)),
    # only nonzero product rows, each bracket cell of one basis from w = x on,
    # and a cell of a kind with itself skipped once its transpose passes
    Mutant("law: rows tested in reverse w order", SPACES,
           "for key in sorted(rows))", "for key in sorted(rows, reverse=True))",
           (H9_LAX,)),
    Mutant("law: an empty row treated as failing", SPACES,
           "((rows[key], key) for key in sorted(rows)))",
           "((rows.get(key, {None: 1}), key)\n"
           "                                  for key in itertools.product(range(len(a)), range(len(b)))))",
           (ON_REFERENCE,)),
    Mutant("law: w > x in place of w >= x in a cell of one basis", SPACES,
           "if not skew or w >= i:\n                        _subtract(acc.setdefault((i, w, k)",
           "if not skew or w > i:\n                        _subtract(acc.setdefault((i, w, k)",
           (SELF_CELL,)),
    Mutant("law: the w >= x bound applied to a cell of two bases", SPACES,
           "skew, rows = b[0][0].n, s == -1 and a == b, {}",
           "skew, rows = b[0][0].n, s == -1, {}",
           (TWO_BASES,)),
    Mutant("law: the transposed cut on a composition cell", SPACES,
           "if (sign == -1 and ka == kb", "if (sign <= 0 and ka == kb",
           ("tests/test_law_engine.py::test_closure_equivalence_fails_on_a_bent_composition",)),
    # the swapped cell holds the same products up to sign, so no verdict moves;
    # but the walk never forms it for two kinds, so the lookups form more cells
    Mutant("law: the transposed cut across two kinds", SPACES,
           "if (sign == -1 and ka == kb", "if (sign == -1",
           (CACHE_COUNTS,)),
    # a cell with an empty factor passes before any lookup
    Mutant("law: a cell skipped only when both factors are empty", SPACES,
           "if not (a and b):\n                continue", "if not (a or b):\n                continue",
           (CACHE_COUNTS, REPORT_COUNTS)),
    Mutant("law: the empty-factor skip inverted", SPACES,
           "if not (a and b):\n                continue", "if a and b:\n                continue",
           (ON_REFERENCE,)),
    # each level read at the least power with its twist power, by one reader
    # that also checks k_max
    Mutant("levels: the least power is k", SPACES,
           "return seen.get(at, k_max + 1), len(seen)", "return k_max + 1, len(seen)",
           (LEVEL_0,)),
    Mutant("levels: the least power is 0", SPACES,
           "k if k < q else q + (k - q) % (p - q)", "0",
           (ON_REFERENCE,)),
    Mutant("levels: each level resolved to itself", SPACES,
           "spec, kind, k if k < q else q + (k - q) % (p - q), th, strict)",
           "spec, kind, k, th, strict)",
           (REPORT_LEVEL_0,)),
    # powers formed up to the first repeat alpha^p = alpha^q, then read off the cycle
    Mutant("levels: the cycle taken as one power long", SPACES,
           "q + (k - q) % (p - q)", "q + (k - q) % 1",
           (LEAST + "[sign]",)),
    Mutant("levels: the cycle read from alpha^0, not alpha^q", SPACES,
           "q + (k - q) % (p - q)", "(k - q) % (p - q)",
           (LEAST + "[projection]",)),
    Mutant("levels: the powers keyed on their hash alone", SPACES,
           "return m, sum(x.numerator", "return m, 0 * sum(x.numerator",
           (READER_WORK,)),
    Mutant("power: the square not squared", LINALG,
           "square = square.matmul(square) if k else square", "square = square if k else square",
           ("tests/test_twist_powers.py::test_power_is_repeated_matmul", POWER_REF)),
    Mutant("power: power(1) returns the identity", LINALG,
           "return Matrix.identity(self.rows) if out is None else out",
           "return Matrix.identity(self.rows) if out is None or out is self else out",
           (POWER_REF,)),
    # one walk over a twist's powers per (twist, k_max), shared by every reader
    Mutant("levels: the walk keyed without the twist", SPACES,
           "@lru_cache(maxsize=1024)\ndef _walk(",
           "@lambda walk: lambda alpha, k_max, _by_k={}: _by_k.setdefault(\n"
           "    k_max, _by_k.get(k_max) or walk(alpha, k_max))\ndef _walk(",
           (WALKS_APART,)),
    Mutant("levels: a bool k_max let through", SPACES,
           "if isinstance(k_max, bool) or not isinstance(k_max, int):",
           "if not isinstance(k_max, int):",
           ("tests/test_spaces.py::test_bool_k_max_rejected_by_every_check",)),
    Mutant("embedding: k checked only after the early return", EXTENSION,
           "    modes = [(strict, _reader(base, strict, k), _reader(ext.spec, strict, k))\n"
           "             for strict in (True, False)]",
           "    modes = ((strict, _reader(base, strict, k), _reader(ext.spec, strict, k))\n"
           "             for strict in (True, False))",
           (EXT + "test_double_checks_reject_a_negative_or_bool_k",)),
    # the views each space holds, read off the kernel of its solve or of one
    # reduction of its tuples, and the shift laws as law cells
    Mutant("views: arity-1 spaces served their tuple view as first view", SPACES,
           "        span = self._span(self.n * self.n)\n",
           "        if self.arity == 1:\n            return self._tuple_view\n"
           "        span = self._span(self.n * self.n)\n",
           (BENT_EVERYWHERE, BENT_VIEWS)),
    Mutant("views: the first view's maps read off the tuples as given", SPACES,
           "for t in self._kernel[1][:span.dim])", "for t in self.tuples[:span.dim])",
           (BENT_VIEWS,)),
    Mutant("views: the first-component span reduced afresh", SPACES,
           "        span = self._span(self.n * self.n)\n",
           "        span = project_component(self, 0)\n",
           ("tests/test_caches.py::test_each_fact_is_computed_once_per_report[strict]",)),
    Mutant("views: the block-0 cut keeps entries at or past n^2", SPACES,
           "{u: x for u, x in row.items() if u < size}", "dict(row)",
           (ON_VIEWS,)),
    Mutant("views: the cut keeps rows whose pivot lies past block 0", SPACES,
           "for p, row in kernel.items() if p < size}", "for p, row in kernel.items()}",
           (ON_VIEWS,)),
    Mutant("views: the tuple view built from the first-component cut", SPACES,
           "(Subspace._of(s.arity * s.n * s.n, s._kernel[0]),",
           "(Subspace._of(s.arity * s.n * s.n, s._span(s.n * s.n)._reduced),",
           (ON_VIEWS, UNCOPIED)),
    Mutant("views: the tuple view over a copy of the kernel rows", SPACES,
           "(Subspace._of(s.arity * s.n * s.n, s._kernel[0]),",
           "(s._span(s.arity * s.n * s.n),",
           (UNCOPIED,)),
    Mutant("views: a replaced space reuses the kernel it was replaced from", SPACES,
           "    @cached_property\n    def _kernel(self)",
           "    _kernel: tuple = __import__('dataclasses').field(default=None, compare=False)\n\n"
           "    @cached_property\n    def _reduced(self)",
           (BENT_VIEWS,)),
    Mutant("basis: the cached index serves component 0 for every c", SPACES,
           "[_index(rows, b._odd(c)) for c, rows in enumerate(b._rows)]",
           "[_index(b._rows[0], b._odd(c)) for c, rows in enumerate(b._rows)]",
           (WIDE_CELL, VIEWS + "test_a_basis_holds_each_components_rows_and_their_index")),
    Mutant("basis: the law cell's odd set always empty", SPACES,
           "return range(len(self)) if self[0][c].degree else ()", "return ()",
           (SELF_CELL, TWO_BASES)),
    Mutant("shift: alpha on component 0 only", SPACES,
           "_Basis(((alpha,) * arity,))", "_Basis(((alpha,),))",
           (ON_REFERENCE,)),
    Mutant("shift: the target at level k, not k + 1", SPACES,
           "space(kind, k + 1, th)._tuple_view[0])", "space(kind, k, th)._tuple_view[0])",
           (BENT_SHIFT,)),
    Mutant("law: cells of one map skipped", SPACES,
           "    if not (a and b):\n        return None", "    if not a or len(b) < 2:\n        return None",
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
           "for t in (c, (c[1], c[2], c[0]), (c[2], c[0], c[1]))}",
           "for t in (c, (c[1], c[2], c[0]))}",
           (VALIDATE + "test_matches_reference_on_faulty_tables",)),
    Mutant("validate: a Jacobi class reported at its representative only", ALGEBRA,
           "for t in (c, (c[1], c[2], c[0]), (c[2], c[0], c[1]))}", "for t in (c,)}",
           (VALIDATE + "test_each_identity_fails_with_its_witnesses[twisted Jacobi]",)),
    Mutant("validate: a rotation class keyed on the sorted triple", ALGEBRA,
           "classes.setdefault(min((x, y, z), (y, z, x), (z, x, y)), {})",
           "classes.setdefault(tuple(sorted((x, y, z))), {})",
           (VALIDATE + "test_each_identity_fails_with_its_witnesses[twisted Jacobi]",)),
    Mutant("validate: the class of three equal rotations counted once", ALGEBRA,
           "* (3 if x == y == z else 1)", "* 1",
           (VALIDATE + "test_a_triple_of_one_index_is_its_three_rotations",)),
    Mutant("validate: the multiplicativity term's -1 dropped", ALGEBRA,
           "(-1, twisted, table)", "(1, twisted, table)",
           (VALIDATE + "test_each_identity_fails_with_its_witnesses[multiplicativity]",)),
    Mutant("validate: skew without the transposes", ALGEBRA,
           "sorted(table.keys() | {(j, i) for i, j in table})", "sorted(table.keys())",
           (VALIDATE + "test_matches_reference_on_faulty_tables",)),
    Mutant("validate: multiplicativity on nonzero pairs only", ALGEBRA,
           "for i in range(n) for j in range(n)}", "for i, j in table}",
           (VALIDATE + "test_all_five_faults_in_identity_order",)),
    # the spec's view, as from_pairs, the file parser and build_extended fill it
    Mutant("skew fill: the transpose without the parity sign", ALGEBRA,
           "{m: -parity_sign(degrees[i], degrees[j]) * x", "{m: -x",
           (STORED + "test_from_pairs_fills_each_transpose_by_super_skew_symmetry",)),
    Mutant("skew fill: the transposed half dropped", ALGEBRA,
           "sorted((upper | lower).items())", "sorted(upper.items())",
           (STORED + "test_from_pairs_fills_each_transpose_by_super_skew_symmetry",)),
    Mutant("skew fill: empty rows kept", ALGEBRA,
           "sorted((upper | lower).items()) if row}", "sorted((upper | lower).items())}",
           (SUMMED,)),
    Mutant("parser: a term replacing the earlier terms at its index", FILEFORMAT,
           "row[mi] = row.get(mi, 0) + coef", "row[mi] = coef",
           (SUMMED,)),
    Mutant("skew fill: the sign flipped", ALGEBRA,
           "{m: -parity_sign(degrees[i], degrees[j]) * x",
           "{m: parity_sign(degrees[i], degrees[j]) * x",
           ("tests/test_fileformat.py::test_parse_bundled_ex2_5",)),
    Mutant("build_extended: the brackets written into the t copy", EXTENSION,
           "{n + m: x for m, x in row.items()}", "{m: x for m, x in row.items()}",
           ("tests/test_extension.py::test_double_spec_matches_the_dense_reference",)),
    # the double's complement and projector, off one reversed reduction
    Mutant("_split: the leading 1 of d_j dropped", EXTENSION,
           "{n - 1 - p: 1} | {n - 1 - c: x", "{n - 1 - c: x",
           SPLIT),
    Mutant("_split: the complement on the pivots", EXTENSION,
           "for u in range(n) if u not in ends}", "for u in range(n) if u in ends}",
           SPLIT),
    Mutant("_split: the d_j as rows of P, not columns", EXTENSION,
           "rows = _columns(Matrix._of(n, n, ends))", "rows = [ends.get(m, {}) for m in range(n)]",
           SPLIT),
    # the law families that no clean algebra fails, each unable to fail once its
    # row is dropped or its branch cannot reach a fail
    Mutant("laws: the [C,C] row dropped", SPACES,
           '    ("[C,C] <= C", SpaceKind.C, SpaceKind.C, SpaceKind.C),\n', "",
           (LAW_FAIL + "[C-C]",)),
    Mutant("laws: the [QC,QC] <= QDer.0 row dropped", SPACES,
           '    ("[QC,QC] <= QDer.0", SpaceKind.QC, SpaceKind.QC, SpaceKind.QDER),\n', "",
           (LAW_FAIL + "[QC-QC]",)),
    Mutant("laws: the maps into the center read as every map", SPACES,
           "({m * n + l: x for m, x in zi.items()}\n"
           "                    for zi in _pivot_rows(z._reduced) for l in range(n))),",
           "({i: 1} for i in range(n * n))),",
           (LAW_FAIL + "[C-QC-center]",)),
    Mutant("laws: [C,QC] = 0 skipped on every center", SPACES,
           'unmet[_NULL] = unmet[_CENTER] or (None if centerless else "center is nonzero")',
           'unmet[_NULL] = unmet[_CENTER] or "center is nonzero"',
           (LAW_FAIL + "[C-QC-zero]",)),
    Mutant("laws: QC brackets passed as vanishing", SPACES,
           "checks.append(_verdict(vanish_label, nonzero,",
           "checks.append(_verdict(vanish_label, None,",
           (LAW_FAIL + "[QC-vanish]",)),
    # the chain, whose every inclusion fails on a bent small kind
    Mutant("chain: the small and big kinds swapped", SPACES,
           "(label, small, big) in itertools", "(label, big, small) in itertools",
           ("tests/test_laws.py::test_each_chain_inclusion_fails_at_its_bent_small_kind",)),
    # one test per pair of spaces, its verdict named at every level that reads them
    Mutant("chain: a verdict reused across degrees", SPACES,
           "if (key := (label, at.k, th)) not in witnesses:",
           "if (key := (label, at.k)) not in witnesses:",
           ("tests/test_laws.py::test_each_chain_inclusion_fails_at_its_bent_small_kind",)),
    # the README's list of public names
    Mutant("public names: an exported name dropped from the list", README,
           "- `homlie.rref`: the reduced row echelon form", "- the reduced row echelon form",
           (PUBLIC + "test_every_exported_name_is_listed",)),
    Mutant("public names: a name no package module uses dropped from the list", README,
           "- `homlie.spaces.hom_jordan_residual`:", "- the Jordan residual:",
           (PUBLIC + "test_every_public_name_no_package_module_uses_is_listed",)),
    # verdicts that only a bent double fails
    Mutant("extend: the t-power truncation verdict inverted", CLI,
           "nil_ok = all(i < n and j < n for i, j in ext.spec._sparse)",
           "nil_ok = not all(i < n and j < n for i, j in ext.spec._sparse)",
           ("tests/test_cli.py::test_extend_fails_on_a_pair_of_t_power_three",)),
    Mutant("extend: the double's validity hard-wired True", CLI,
           "return ext, rep, axioms_ok and mult_ok, nil_ok", "return ext, rep, True, nil_ok",
           (CLI_TESTS + "test_extend_fails_on_a_double_without_a_skew_partner",
            CLI_TESTS + "test_report_fails_on_a_double_without_a_skew_partner")),
    # decompose's three verdicts, each of which only a bent split fails
    Mutant("decompose: the QDer membership hard-wired True", CLI,
           "in_qder = space_contains(qspace, (dq, dpartner))", "in_qder = True",
           (BENT_SPLIT + "[partner-zeroed]",)),
    Mutant("decompose: the QC membership hard-wired True", CLI,
           "in_qc = space_contains(qc_space, (dc,))", "in_qc = True",
           (BENT_SPLIT + "[parts-swapped]",)),
    Mutant("decompose: the exact sum hard-wired True", CLI,
           "exact = triple[0].matrix == dq.matrix + dc.matrix", "exact = True",
           (BENT_SPLIT + "[dc-doubled]",)),
    # the CLI's one parser and the checks it looks up by name
    Mutant("cli: jordan runs the law check", CLI,
           '"jordan": check_qc_structure}[args.command]',
           '"jordan": check_bracket_laws}[args.command]',
           ("tests/test_cli.py::test_check_commands_run_the_check_bound_at_call_time[jordan-check_qc_structure]",)),
    Mutant("cli: a parser built on every call", CLI,
           "args = _PARSER.parse_args(argv)", "args = build_parser().parse_args(argv)",
           ("tests/test_cli.py::test_main_builds_no_parser_per_call",)),
    Mutant("cli: --lax stores True, so every run without it is lax", CLI,
           'dest="strict", action="store_false"', 'dest="strict", action="store_true"',
           (GOLDEN_REPORT + "[ex2_5-text]",)),
    Mutant("cli: report's row loses --lax", CLI,
           '"run the full verification suite", ("--kmax", "--lax")),',
           '"run the full verification suite", ("--kmax",)),',
           (CLI_TESTS + "test_every_subcommand_keeps_its_options",
            GOLDEN_REPORT + "[ex2_5-json_lax]")),
    # --json written in one pass, byte for byte as json.dumps(indent=2)
    Mutant("json: a list's item separator written as ', '", CLI,
           '"[" + inner + ("," + inner)', '"[" + inner + (", " + inner)',
           (WRITER, GOLDEN_REPORT + "[ex2_5-json]")),
    Mutant("json: True written as 1", CLI,
           'else "true" if value else', 'else "1" if value else',
           (WRITER, GOLDEN_REPORT + "[ex2_5-json]")),
    # a sampler that refuses nonsense arguments before it draws
    Mutant("sampler: a negative count let through", RANDOMGEN,
           "if count < 0:", "if False:",
           ("tests/test_algebra.py::test_sampling_refuses_a_negative_count_before_drawing",)),
    # a check family that the fail census has no row for
    Mutant("census: a check family renamed", EXTENSION,
           'f"t^2 copy inside Z(double) (k={k})"', 'f"t^2 copy in Z(double) (k={k})"',
           ("tests/test_fail_census.py::test_every_family_the_report_emits_has_a_row",)),
    Mutant("embedding: the t^2 centrality verdict inverted", EXTENSION,
           "_first_outside(zext, (({n + i: 1}, i) for i in range(n)))))",
           "_first_outside(zext, (({n + i: 1}, i) for i in range(n))) is None or None))",
           ("tests/test_extension.py::test_t2_copy_check_fails_on_a_bent_double",)),
    Mutant("phi: the Der(double) membership verdict inverted", EXTENSION,
           "_first_outside(der_span, ((_coords(g), g) for g in images))))",
           "_first_outside(der_span, ((_coords(g), g) for g in images)) is None or None))",
           (EXT + "test_phi_inside_der_fails_on_a_bent_quasiderivation",)),
    Mutant("phi: the image dimension verdict inverted", EXTENSION,
           '"pass" if img_span.dim == first_span.dim else "fail"',
           '"pass" if img_span.dim != first_span.dim else "fail"',
           (EXT + "test_phi_dimension_checks_fail_on_a_vanishing_embedding",)),
    Mutant("embedding: the trivial intersection verdict inverted", EXTENSION,
           '"pass" if total.dim == a.dim + b.dim else "fail"',
           '"pass" if total.dim != a.dim + b.dim else "fail"',
           (EXT + "test_decomposition_fails_when_phi_meets_zder",)),
    Mutant("embedding: the total span without its odd rows", EXTENSION,
           "even._reduced | odd._reduced", "dict(even._reduced)",
           (EXT + "test_total_span_is_the_sum_of_the_degrees_spans",)),
    Mutant("embedding: the dimension sum verdict inverted", EXTENSION,
           '"pass" if t.dim == a.dim + b.dim else "fail"',
           '"pass" if t.dim != a.dim + b.dim else "fail"',
           (EXT + "test_decomposition_fails_when_phi_meets_zder",)),
    # elimination, products and subspaces
    Mutant("_eliminate: only the first pivot cleared", LINALG,
           "for p in [c for c in row if c in done]:", "for p in [c for c in row if c in done][:1]:",
           ("tests/test_linalg.py::test_contains_linear_combination", RREF)),
    Mutant("_reduce: the leading column not cleared from earlier pivot rows", LINALG,
           "for other in done.values() if lead in held else ():", "for other in ():",
           (RREF,)),
    Mutant("_reduce: the back-clearing guard inverted", LINALG,
           "for other in done.values() if lead in held else ():",
           "for other in done.values() if lead not in held else ():",
           ("tests/test_sparse_rref.py::test_back_clearing_only_where_a_pivot_row_can_hold_the_lead",)),
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
    ("law: the batch degree read off the last map", SPACES,
     "self[0][c].degree", "self[-1][c].degree",
     "every map of one basis has the degree of its space"),
    ("solver: the left table's parity sign with its arguments swapped", SPACES,
     "parity_sign(degree, deg[i])", "parity_sign(deg[i], degree)",
     "(-1)^(ab) is symmetric in a and b"),
    ("nullspace: the canonical kernel rows reduced once more", LINALG,
     "            kernel[labels[w - c]][labels[w - p]] = -x\n    return kernel",
     "            kernel[labels[w - c]][labels[w - p]] = -x\n"
     "    return _reduce({f: 1} | row for f, row in kernel.items())",
     "each kernel row leads at its free column, which no other row holds, so "
     "_reduce returns the rows as they are; only the time differs"),
    ("jordan: the walk over z not ended at a witness at (0, 0)", SPACES,
     "        if best[:2] == (0, 0):\n            break\n", "",
     "no later z holds a triple before (0, 0, z), so only the time differs"),
    ("jordan: the w-degree sign with its arguments swapped", SPACES,
     "parity_sign(dz, deg[u] + dc)", "parity_sign(deg[u] + dc, dz)",
     "(-1)^(ab) is symmetric in a and b"),
)


def _copy_src(dest: Path) -> Path:
    """Copy ``src/`` and the README into dest; the copy of ``src/``."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", dest / "README.md")
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


def _unmutated_fail(tests) -> bool:
    """True when any of the tests fails on an unmutated copy; an empty
    share runs nothing, as pytest with no test named runs them all."""
    with tempfile.TemporaryDirectory() as tmp:
        return bool(tests) and _tests_fail(_copy_src(Path(tmp)), tests, Path(tmp))


def _outcome(m: Mutant) -> tuple[str, bool]:
    """The line that reports one mutant, run in its own copy, and whether
    it fails the run: a stale entry or a survivor."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        path = Path(tmp) / m.file
        text = path.read_text()
        if text.count(m.old) != 1:
            return (f"STALE    {m.name}: the old snippet occurs "
                    f"{text.count(m.old)} times in {m.file}"), True
        path.write_text(text.replace(m.old, m.new))
        start = time.perf_counter()
        killed = _tests_fail(src, m.tests, Path(tmp))
    return (f"{'killed  ' if killed else 'SURVIVED'} {m.name} "
            f"({time.perf_counter() - start:.1f} s)"), not killed


def run(mutants, out=print) -> int:
    """0 when the named tests pass unmutated and every mutant is killed,
    else 1.  The unmutated run comes first, its tests shared out over the
    CPUs; then the mutants run one per CPU, their lines in list order."""
    tests = sorted({t for m in mutants for t in m.tests})
    cpus, bad = os.cpu_count() or 1, 0
    with ThreadPoolExecutor(cpus) as pool:
        if any(pool.map(_unmutated_fail, (tests[i::cpus] for i in range(cpus)))):
            out("BASELINE the named tests fail on the unmutated copy")
            return 1
        for line, failed in pool.map(_outcome, mutants):
            out(line)
            bad += failed
    out(f"{len(mutants) - bad} of {len(mutants)} mutants killed; "
        f"{len(EQUIVALENT)} equivalent listed, not run")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
