"""Acceptance suite: one test per advertised guarantee, exact arithmetic,
one printed pass/fail line each.

Criterion 1 carries a known-red clause: the bundled ex2_5 twist does not
preserve its bracket (alpha[x1,x2] = x1 while [alpha x1, alpha x2] =
2 x1), and no bracket-preserving twist is compatible with the witnesses
pinned by criteria 2-3, so the multiplicativity assertion fails honestly
rather than being weakened.
"""

import random
import time

from homlie.algebra import center, validate
from homlie.catalog import BUILTIN, load_builtin
from homlie.extension import (
    build_extended,
    verify_embedding_decomposition,
    verify_phi_properties,
)
from homlie.linalg import contains, subspace_sum
from homlie.randomgen import sample_algebras
from homlie.spaces import (
    GradedMap,
    SpaceKind,
    check_bracket_laws,
    check_inclusion_chain,
    check_qc_structure,
    decompose_generalized,
    project_component,
    solve_space,
    space_contains,
)
from oracle import diag, is_zero_vec, oracle_solve, stacked

ALL_KINDS = tuple(SpaceKind)


def report(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status}")
    assert not problems, problems


def test_criterion_1_bundled_example_fidelity():
    problems = []
    t0 = time.time()
    spec = load_builtin("ex2_5")
    rep = validate(spec)
    if not rep.skew_ok:
        problems.append("skew-symmetry fails")
    if not rep.even_ok:
        problems.append("evenness fails")
    if not rep.jacobi_ok:
        problems.append("twisted Jacobi fails")
    if not rep.multiplicative_ok:
        bad = [f for f in rep.failures if f.identity == "multiplicativity"]
        problems.append(
            "multiplicativity fails on the bundled data, e.g. at pair "
            f"{bad[0].indices} with residual {[str(x) for x in bad[0].residual]}; "
            "alpha[x1,x2] = x1 but [alpha x1, alpha x2] = 2 x1, and no "
            "bracket-preserving twist is compatible with the witnesses "
            "pinned by criteria 2-3")
    if not center(spec).is_zero():
        problems.append("center is not zero")
    if time.time() - t0 >= 1.0:
        problems.append("validation took 1 s or more")
    report(1, "bundled example fidelity", problems)


def test_criterion_2_bundled_witness_reproduction():
    problems = []
    spec = load_builtin("ex2_5")
    d = GradedMap(diag(1, 2, 2), 0)
    dp = GradedMap(diag(4, 4, 8), 0)
    qc1 = project_component(solve_space(spec, SpaceKind.QC, 1, 0, True), 0)
    if not contains(qc1, d.matrix.entries):
        problems.append("diag(1,2,2) not in QC at k=1")
    qd1 = solve_space(spec, SpaceKind.QDER, 1, 0, True)
    if not space_contains(qd1, (d, dp)):
        problems.append("(diag(1,2,2), diag(4,4,8)) not a QDer pair at k=1")
    if not contains(project_component(qd1, 0), d.matrix.entries):
        problems.append("diag(1,2,2) not in the first QDer component at k=1")
    for t in range(4):
        ct = project_component(solve_space(spec, SpaceKind.C, t, 0, True), 0)
        if contains(ct, d.matrix.entries):
            problems.append(f"diag(1,2,2) unexpectedly in C at k={t}")
    report(2, "bundled witness reproduction", problems)


def test_criterion_3_dimension_table_with_oracle():
    problems = []
    spec = load_builtin("ex2_5")
    table = [
        (SpaceKind.DER, 0, 1),
        (SpaceKind.DER, 1, 0),
        (SpaceKind.C, 1, 0),
        (SpaceKind.QC, 1, 1),
        (SpaceKind.QDER, 1, 3),
    ]
    for kind, k, expected in table:
        space = solve_space(spec, kind, k, 0, True)
        got = project_component(space, 0).dim
        if got != expected:
            problems.append(f"{kind.value} k={k}: dim {got}, expected {expected}")
        oracle = oracle_solve(spec, kind, k, 0, True)
        if stacked(space) != oracle:
            problems.append(f"{kind.value} k={k}: solver and oracle disagree")
    der0 = solve_space(spec, SpaceKind.DER, 0, 0, True)
    if der0.tuples[0][0].matrix != diag(1, 0, -1):
        problems.append("Der k=0 basis is not diag(1,0,-1)")
    report(3, "derived dimension table", problems)


def test_criterion_4_split_and_decomposition():
    problems = []
    for name in BUILTIN:
        spec = load_builtin(name)
        for k in (0, 1, 2):
            for th in (0, 1):
                gder = solve_space(spec, SpaceKind.GDER, k, th, True)
                qder = solve_space(spec, SpaceKind.QDER, k, th, True)
                qc = project_component(
                    solve_space(spec, SpaceKind.QC, k, th, True), 0)
                lhs = project_component(gder, 0)
                rhs = subspace_sum(project_component(qder, 0), qc)
                if lhs != rhs:
                    problems.append(f"{name} k={k} deg={th}: split inequality")
                for triple in gder.tuples:
                    (dq, partner), dc = decompose_generalized(
                        spec, k, th, triple, True)
                    if not space_contains(qder, (dq, partner)):
                        problems.append(
                            f"{name} k={k} deg={th}: QDer witness fails")
                    if not contains(qc, dc.matrix.entries):
                        problems.append(
                            f"{name} k={k} deg={th}: QC witness fails")
                    if triple[0].matrix != dq.matrix + dc.matrix:
                        problems.append(
                            f"{name} k={k} deg={th}: split is not exact")
    report(4, "generalized = quasi + quasicentroid", problems)


def test_criterion_5_chain_and_bracket_laws():
    problems = []
    for name in BUILTIN:
        spec = load_builtin(name)
        chain = check_inclusion_chain(spec, 2, True)
        if not chain.ok:
            problems.append(
                f"{name}: chain fails "
                f"{[c.name for c in chain.checks if c.status == 'fail']}")
        laws = check_bracket_laws(spec, 2, True)
        if not laws.ok:
            problems.append(
                f"{name}: laws fail "
                f"{[c.name for c in laws.checks if c.status == 'fail']}")
    report(5, "inclusion chain and bracket laws", problems)


def test_criterion_6_double_construction():
    problems = []
    for name in BUILTIN:
        spec = load_builtin(name)
        ext = build_extended(spec)
        rep = validate(ext.spec)
        if not rep.axioms_ok:
            problems.append(f"{name}: double fails the Hom-Lie axioms")
        if validate(spec).multiplicative_ok and not rep.multiplicative_ok:
            problems.append(f"{name}: double loses multiplicativity")
        n = spec.n
        for i in range(2 * n):
            for j in range(2 * n):
                if (i >= n or j >= n) and not is_zero_vec(
                        ext.spec.brackets[i][j]):
                    problems.append(f"{name}: t-power >= 3 bracket survives")
    report(6, "double construction", problems)


def test_criterion_7_embedding_decomposition():
    problems = []
    spec = load_builtin("ex2_5")
    ext = build_extended(spec)
    if not ext.u_complement.is_zero():
        problems.append("complement is not zero for the perfect base")
    for k in (0, 1):
        prep = verify_phi_properties(ext, k, True)
        for c in prep.checks:
            if c.status == "fail":
                problems.append(f"phi property fails at k={k}: {c.name}")
        drep = verify_embedding_decomposition(ext, k)
        for c in drep.checks:
            if "[lax" in c.name:
                continue  # criterion pins strict mode
            if c.status != "pass":
                problems.append(f"decomposition not verified at k={k}: {c.name}")
    report(7, "quasiderivation embedding", problems)


def test_criterion_8_jordan_structure():
    problems = []
    for name in BUILTIN:
        spec = load_builtin(name)
        rep = check_qc_structure(spec, 2, True)
        statuses = {c.name: c.status for c in rep.checks}
        for required in ("closure equivalence (bracket <=> composition)",
                         "circle product super-commutative",
                         "twisted Jordan identity on QC"):
            if statuses.get(required) != "pass":
                problems.append(f"{name}: {required} -> {statuses.get(required)}")
    report(8, "quasicentroid Jordan structure", problems)


def test_criterion_9_oracle_equivalence():
    problems = []
    rng = random.Random(20260810)
    specs = sample_algebras(rng, 20, n_max=3)
    assert all(s.n <= 3 for s in specs)
    for spec in specs:
        for kind in ALL_KINDS:
            for k in (0, 1):
                for th in (0, 1):
                    got = stacked(solve_space(spec, kind, k, th, True))
                    want = oracle_solve(spec, kind, k, th, True)
                    if got != want:
                        problems.append(
                            f"{spec.name} degrees={spec.degrees} "
                            f"{kind.value} k={k} deg={th}: bases differ")
    report(9, "solver equals brute-force oracle", problems)
