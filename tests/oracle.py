"""Brute-force reference solver used to cross-check the main solver.

Independent of homlie.linalg and of the solver's reduced-unknown
shortcut: the constraint system is built dense over ALL arity * n^2
matrix entries, row by row, by probing each unknown with a unit matrix
and evaluating the defining identities directly (homogeneity becomes an
explicit pin-to-zero row per banned entry).  The kernel is computed by
a separately written elimination (forward echelon plus back
substitution) and canonicalized by an independent reduction pass, so a
matching answer really is two routes agreeing.

The module also keeps the verifiers' original per-pair loops as the
reference that the law tables in homlie.spaces are tested against, and
the intersection, projection and phi-kernel routines that one stacked
RREF replaced in homlie.linalg and homlie.extension, the dense RREF of
[L, L] beside the identity that chose the double's complement, the dense
Gauss-Jordan loop that the sparse ``rref`` replaced, the dense product
loop and the map products as they were written with ``Matrix.scale`` by
a +-1 sign, the per-quadruple Jordan loop that the memoised sparse
engine replaced and that engine itself, which now makes w generic, the
per-pair law cell that now forms one product per first element, the
zero matrix built dense, the ordered-pair walk of the circle super-commutativity
check, the dense test of the pairs with a vanishing first map that
phi's well-definedness check ran before it compared spans, the dense
``validate`` that the sparse view of the structure constants replaced,
the dense membership walk that sparse coordinates replaced in the
verifiers, the two-``rref`` ``nullspace`` that now reads ``_reduce``'s
pivot rows, the dense flat vector of a map tuple (``tuple_vector``,
``stacked``) that ``space_contains`` tested before it eliminated sparse
coordinates, and the per-pair walk that assembled the solver's system
before it was driven by the nonzeros of the bracket tables
(``reference_system_rows``), with the basis maps read off its kernel as
they were (``reference_solve_space``), and the double's structure
constants as ``build_extended`` read them off the dense bracket table
(``reference_double_spec``).
"""

import itertools
from collections import defaultdict
from fractions import Fraction

from homlie import extension, spaces
from homlie.algebra import (
    AlgebraSpec,
    IdentityFailure,
    ValidationReport,
    _bracket,
    center,
    parity_sign,
    validate,
)
from homlie.linalg import (
    Matrix,
    Subspace,
    _columns,
    _nonzeros,
    _pivot_rows,
    _sparse_sum,
    block_diag,
    contains,
    format_matrix,
    is_zero_vec,
    nullspace,
    rank,
    rref,
)
from homlie.spaces import (
    IDENTITIES,
    Check,
    CheckReport,
    GradedMap,
    MapSpace,
    SpaceKind,
    alpha_shift,
    compose,
    project_component,
    supercommutator,
)

F0 = Fraction(0)
F1 = Fraction(1)


def zero_matrix(rows: int, cols: int) -> Matrix:
    """The rows x cols zero matrix, built dense (``Matrix.zeros`` as it was)."""
    return Matrix(rows, cols, (F0,) * (rows * cols))


def unit_vec(n: int, i: int):
    """The standard basis vector e_i of Q^n."""
    return tuple(F1 if j == i else F0 for j in range(n))


def tuple_vector(maps):
    """A tuple of maps as one flat vector, components concatenated."""
    return tuple(x for g in maps for x in g.matrix.entries)


def stacked(space) -> list:
    """Each basis tuple of a solved space as one flat vector."""
    return [tuple_vector(t) for t in space.tuples]


def brute_bracket(spec: AlgebraSpec, u, v):
    n = spec.n
    out = [F0] * n
    for i in range(n):
        if not u[i]:
            continue
        for j in range(n):
            if not v[j]:
                continue
            c = u[i] * v[j]
            row = spec.brackets[i][j]
            for m in range(n):
                if row[m]:
                    out[m] += c * row[m]
    return out


def mat_mul(a, b, n):
    return [[sum(a[r][t] * b[t][c] for t in range(n)) for c in range(n)]
            for r in range(n)]


def alpha_power_list(spec: AlgebraSpec, k: int):
    n = spec.n
    a = [[spec.alpha.at(r, c) for c in range(n)] for r in range(n)]
    out = [[F1 if r == c else F0 for c in range(n)] for r in range(n)]
    for _ in range(k):
        out = mat_mul(out, a, n)
    return out


def _arity(kind: SpaceKind) -> int:
    return {SpaceKind.GDER: 3, SpaceKind.QDER: 2}.get(kind, 1)


def defining_residuals(spec: AlgebraSpec, kind: SpaceKind, k: int, theta: int,
                       mats):
    """All defining-identity residual vectors at every ordered basis pair,
    for concrete component matrices (lists of list rows)."""
    n = spec.n
    ak = alpha_power_list(spec, k)
    akcols = [[ak[m][i] for m in range(n)] for i in range(n)]

    def app(c, v):
        nz = [(l, x) for l, x in enumerate(v) if x]
        return [sum((row[l] * x for l, x in nz if row[l]), F0)
                for row in mats[c]]

    out = []
    for i in range(n):
        ei = [F1 if t == i else F0 for t in range(n)]
        sgn = parity_sign(theta, spec.degrees[i])
        for j in range(n):
            ej = [F1 if t == j else F0 for t in range(n)]
            u = list(spec.brackets[i][j])
            left = brute_bracket(spec, app(0, ei), akcols[j])
            if kind is SpaceKind.DER:
                right = brute_bracket(spec, akcols[i], app(0, ej))
                du = app(0, u)
                out.append([left[m] + sgn * right[m] - du[m] for m in range(n)])
            elif kind is SpaceKind.GDER:
                right = brute_bracket(spec, akcols[i], app(1, ej))
                du = app(2, u)
                out.append([left[m] + sgn * right[m] - du[m] for m in range(n)])
            elif kind is SpaceKind.QDER:
                right = brute_bracket(spec, akcols[i], app(0, ej))
                du = app(1, u)
                out.append([left[m] + sgn * right[m] - du[m] for m in range(n)])
            elif kind is SpaceKind.C:
                right = brute_bracket(spec, akcols[i], app(0, ej))
                du = app(0, u)
                out.append([left[m] - du[m] for m in range(n)])
                out.append([sgn * right[m] - du[m] for m in range(n)])
            elif kind is SpaceKind.QC:
                right = brute_bracket(spec, akcols[i], app(0, ej))
                out.append([left[m] - sgn * right[m] for m in range(n)])
            else:  # ZDER
                du = app(0, u)
                out.append(list(left))
                out.append(du)
    return out


def commutation_residuals(spec: AlgebraSpec, mats):
    n = spec.n
    a = [[spec.alpha.at(r, c) for c in range(n)] for r in range(n)]
    out = []
    for mat in mats:
        ma = mat_mul(mat, a, n)
        am = mat_mul(a, mat, n)
        out.extend(ma[r][c] - am[r][c] for r in range(n) for c in range(n))
    return out


def kernel_basis(rows, width):
    """Nullspace by forward echelon elimination and back substitution."""
    work = [list(row) for row in rows if any(x != 0 for x in row)]
    m = len(work)
    pivots = []  # (row, col)
    r = 0
    for c in range(width):
        if r == m:
            break
        sel = next((i for i in range(r, m) if work[i][c] != 0), None)
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(r + 1, m):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(width):
        if fc in pivot_cols:
            continue
        v = [F0] * width
        v[fc] = F1
        for pr, pc in reversed(pivots):
            s = sum(work[pr][c] * v[c] for c in range(pc + 1, width))
            v[pc] = -s / work[pr][pc]
        basis.append(v)
    return basis


def canonical_rows(vectors, width):
    """Unique reduced-echelon basis of the span of the given vectors."""
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(width):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r]]


def oracle_solve(spec: AlgebraSpec, kind: SpaceKind, k: int, theta: int,
                 strict: bool):
    """Canonical solution basis over the full stacked unknown vector."""
    n = spec.n
    arity = _arity(kind)
    nn = n * n
    total = arity * nn

    def unpack(flat):
        return [[[flat[c * nn + m * n + l] for l in range(n)]
                 for m in range(n)] for c in range(arity)]

    columns = []
    for u_idx in range(total):
        flat = [F0] * total
        flat[u_idx] = F1
        mats = unpack(flat)
        col = [x for res in defining_residuals(spec, kind, k, theta, mats)
               for x in res]
        if strict:
            col.extend(commutation_residuals(spec, mats))
        columns.append(col)
    rows = [[columns[u][r] for u in range(total)]
            for r in range(len(columns[0]))]
    for c in range(arity):
        for m in range(n):
            for l in range(n):
                if spec.degrees[m] != (spec.degrees[l] + theta) % 2:
                    row = [F0] * total
                    row[c * nn + m * n + l] = F1
                    rows.append(row)
    return canonical_rows(kernel_basis(rows, total), total)


def reference_system_rows(spec: AlgebraSpec, kind: SpaceKind, k: int,
                          degree: int, strict: bool):
    """(rows, width) of ``solve_space``'s system as its per-pair walk built
    them: one ``_bracket`` per entry of the two bracket tables, and one
    ``emit`` per ordered pair and equation (then per component and twist
    column) that scans every output coordinate and unknown through a
    position dict."""
    n = spec.n
    deg = spec.degrees
    arity = kind.arity
    allowed = [(c, m, l)
               for c in range(arity) for m in range(n) for l in range(n)
               if deg[m] == (deg[l] + degree) % 2]
    pos = {t: i for i, t in enumerate(allowed)}

    akcol = _columns(spec.alpha.power(k))
    # right[j][l] = [e_l, a^k e_j],  left[i][l] = (-1)^{theta|e_i|} [a^k e_i, e_l]
    right = [[_bracket(spec, {l: 1}, akcol[j]) for l in range(n)]
             for j in range(n)]
    left = [[_bracket(spec, akcol[i], {l: 1}, parity_sign(degree, deg[i]))
             for l in range(n)] for i in range(n)]

    rows = []

    def emit(terms):
        """Append the nonzero rows of sum(terms) = 0, one {unknown: nonzero}
        per output coordinate.  A term (c, col, vecs, sign), sign +1 or -1,
        stands for sign * D_c vecs when col is None and vecs is a vector,
        and for sign * sum_l D_c[l, col] vecs[l] otherwise, each vector
        given as {index: nonzero}."""
        out = [defaultdict(int) for _ in range(n)]
        for c, col, vecs, sign in terms:
            if col is None:
                for l, x in vecs.items():
                    x = x if sign > 0 else -x
                    for m in range(n):
                        idx = pos.get((c, m, l))
                        if idx is not None:
                            out[m][idx] += x
                continue
            for l in range(n):
                idx = pos.get((c, l, col))
                if idx is not None:
                    for m, x in vecs[l].items():
                        out[m][idx] += x if sign > 0 else -x
        rows.extend(filter(None, ({i: x for i, x in r.items() if x} for r in out)))

    for i in range(n):
        for j in range(n):
            sides = {"right": (i, right[j]), "left": (j, left[i]),
                     "eval": (None, spec._sparse.get((i, j), {}))}
            for equation in IDENTITIES[kind]:
                emit([(c, *sides[side], sign) for side, c, sign in equation])

    if strict:
        # column l of M alpha - alpha M: M (alpha e_l) - sum_p M[p,l] alpha e_p
        acol = _columns(spec.alpha)
        for c in range(arity):
            for l in range(n):
                emit([(c, None, acol[l], 1), (c, l, acol, -1)])
    return rows, len(allowed)


def reference_solve_space(spec: AlgebraSpec, kind: SpaceKind, k: int,
                          degree: int, strict: bool) -> MapSpace:
    """``solve_space`` as it read its answer off ``reference_system_rows``:
    the kernel of ``Matrix.from_sparse`` of the rows, each basis row moved
    to stacked map slots through a dict and split into maps by ``_maps``."""
    n, arity = spec.n, kind.arity
    rows, width = reference_system_rows(spec, kind, k, degree, strict)
    if not width:
        return MapSpace(kind, k, degree, strict, n, ())
    slots = [(c * n + m) * n + l for c in range(arity) for m in range(n)
             for l in range(n) if spec.degrees[m] == (spec.degrees[l] + degree) % 2]
    kernel = _pivot_rows(nullspace(Matrix.from_sparse(rows, width))._reduced)
    return MapSpace(kind, k, degree, strict, n, tuple(spaces._maps(
        {slots[i]: x for i, x in row.items()}, n, arity, degree) for row in kernel))


# ---------------------------------------------------------------------------
# reference verifier loops
# ---------------------------------------------------------------------------
# The per-pair loops that the law tables in homlie.spaces replaced, kept
# as written before that change.  solve_space is looked up on the module
# at call time, so a test that substitutes faulty spaces there feeds the
# same spaces to the reference and to the engine.

def _component_maps(space, index=0):
    sub = project_component(space, index)
    return [GradedMap(Matrix(space.n, space.n, row), space.degree)
            for row in sub.basis]


def reference_inclusion_chain(spec: AlgebraSpec, k_max: int,
                              strict: bool = True) -> CheckReport:
    checks = []
    for k in range(k_max + 1):
        for th in (0, 1):
            span = {kind: project_component(spaces.solve_space(spec, kind, k, th, strict), 0)
                    for kind in SpaceKind}
            relations = (
                ("ZDer <= Der", SpaceKind.ZDER, SpaceKind.DER),
                ("Der <= QDer.0", SpaceKind.DER, SpaceKind.QDER),
                ("QDer.0 <= GDer.0", SpaceKind.QDER, SpaceKind.GDER),
                ("C <= QC", SpaceKind.C, SpaceKind.QC),
                ("C <= QDer.0", SpaceKind.C, SpaceKind.QDER),
            )
            for label, small, big in relations:
                witness = next((row for row in span[small].basis
                                if not contains(span[big], row)), None)
                name = f"{label} (k={k}, deg={th})"
                if witness is None:
                    checks.append(Check(name, "pass"))
                else:
                    checks.append(Check(
                        name, "fail",
                        "witness " + format_matrix(Matrix(spec.n, spec.n, witness))))
    return CheckReport("inclusion chain", tuple(checks))


def reference_bracket_laws(spec: AlgebraSpec, k_max: int,
                           strict: bool = True) -> CheckReport:
    solve_space = spaces.solve_space
    n = spec.n
    z = center(spec)
    surjective = rank(spec.alpha) == n
    centerless = z.is_zero()
    checks = []

    def maps(kind, k, th):
        return _component_maps(solve_space(spec, kind, k, th, strict), 0)

    def span(kind, k, th):
        return project_component(solve_space(spec, kind, k, th, strict), 0)

    qc_closed = True
    qc_witness = ""
    qc_brackets = []

    span_laws = (
        ("[Der,C] <= C", SpaceKind.DER, SpaceKind.C, SpaceKind.C),
        ("[QDer.0,QC] <= QC", SpaceKind.QDER, SpaceKind.QC, SpaceKind.QC),
        ("[QC,QC] <= QDer.0", SpaceKind.QC, SpaceKind.QC, SpaceKind.QDER),
        ("[ZDer,Der] <= ZDer", SpaceKind.ZDER, SpaceKind.DER, SpaceKind.ZDER),
        ("[C,C] <= C", SpaceKind.C, SpaceKind.C, SpaceKind.C),
    )
    tuple_laws = (
        ("[QDer,QDer] <= QDer (pairs)", SpaceKind.QDER),
        ("[GDer,GDer] <= GDer (triples)", SpaceKind.GDER),
    )

    for k in range(k_max + 1):
        for s in range(k_max - k + 1):
            failures = {}
            for th1, th2 in itertools.product((0, 1), repeat=2):
                thr = (th1 + th2) % 2
                where = f"k={k}, s={s}, degrees ({th1},{th2})"
                for label, ka, kb, kt in span_laws:
                    tgt = span(kt, k + s, thr)
                    for a in maps(ka, k, th1):
                        for b in maps(kb, s, th2):
                            g = supercommutator(a, b)
                            if not contains(tgt, g.matrix.entries):
                                failures.setdefault(
                                    label, f"{where}: {format_matrix(g.matrix)}")
                for label, kind in tuple_laws:
                    target = solve_space(spec, kind, k + s, thr, strict)
                    tsub = target.as_subspace()
                    for ta in solve_space(spec, kind, k, th1, strict).tuples:
                        for tb in solve_space(spec, kind, s, th2, strict).tuples:
                            gt = tuple(supercommutator(x, y)
                                       for x, y in zip(ta, tb))
                            if not contains(tsub, tuple_vector(gt)):
                                failures.setdefault(label, where)
                for a in maps(SpaceKind.C, k, th1):
                    for b in maps(SpaceKind.QC, s, th2):
                        g = supercommutator(a, b)
                        if surjective:
                            if not all(contains(z, g.matrix.col(i)) for i in range(n)):
                                failures.setdefault(
                                    "[C,QC] maps into the center",
                                    f"{where}: {format_matrix(g.matrix)}")
                            if centerless and not g.matrix.is_zero():
                                failures.setdefault(
                                    "[C,QC] = 0",
                                    f"{where}: {format_matrix(g.matrix)}")
                tgt_qc = span(SpaceKind.QC, k + s, thr)
                for a in maps(SpaceKind.QC, k, th1):
                    for b in maps(SpaceKind.QC, s, th2):
                        g = supercommutator(a, b)
                        qc_brackets.append(g)
                        if not contains(tgt_qc, g.matrix.entries):
                            if qc_closed:
                                qc_witness = f"{where}: {format_matrix(g.matrix)}"
                            qc_closed = False

            suffix = f" (k={k}, s={s})"
            for label, *_ in span_laws:
                checks.append(Check(label + suffix,
                                    "fail" if label in failures else "pass",
                                    failures.get(label, "")))
            for label, _ in tuple_laws:
                checks.append(Check(label + suffix,
                                    "fail" if label in failures else "pass",
                                    failures.get(label, "")))
            if surjective:
                for label in ("[C,QC] maps into the center", "[C,QC] = 0"):
                    if label == "[C,QC] = 0" and not centerless:
                        checks.append(Check(label + suffix, "skipped",
                                            "center is nonzero"))
                        continue
                    checks.append(Check(label + suffix,
                                        "fail" if label in failures else "pass",
                                        failures.get(label, "")))
            else:
                for label in ("[C,QC] maps into the center", "[C,QC] = 0"):
                    checks.append(Check(label + suffix, "skipped",
                                        "twist is not surjective"))

    multiplicative = validate(spec).multiplicative_ok
    for k in range(k_max):
        for th in (0, 1):
            for kind in SpaceKind:
                name = f"shift {kind.value}: k={k} -> {k + 1} (deg={th})"
                if not multiplicative:
                    checks.append(Check(name, "skipped",
                                        "twist does not preserve the bracket"))
                    continue
                src = solve_space(spec, kind, k, th, strict)
                tgt = solve_space(spec, kind, k + 1, th, strict)
                tsub = tgt.as_subspace()
                bad = None
                for t in src.tuples:
                    shifted = tuple(alpha_shift(spec, g) for g in t)
                    if not contains(tsub, tuple_vector(shifted)):
                        bad = format_matrix(shifted[0].matrix)
                        break
                checks.append(Check(name, "pass" if bad is None else "fail",
                                    "" if bad is None else "witness " + bad))

    checks.append(Check("QC bracket-closed", "info",
                        "yes" if qc_closed else f"no; {qc_witness}"))
    vanish_label = "QC brackets vanish (closed, surjective twist, trivial center)"
    if not qc_closed:
        checks.append(Check(vanish_label, "skipped", "QC is not bracket-closed"))
    elif not (surjective and centerless):
        checks.append(Check(vanish_label, "skipped", "hypotheses unmet"))
    else:
        bad = next((g for g in qc_brackets if not g.matrix.is_zero()), None)
        checks.append(Check(
            vanish_label,
            "pass" if bad is None else "fail",
            "" if bad is None else format_matrix(bad.matrix)))

    return CheckReport("bracket laws", tuple(checks))


def reference_qc_closure(spec: AlgebraSpec, k_max: int,
                         strict: bool = True) -> tuple:
    """The three closure checks that open the quasicentroid report."""
    spans = {}
    basis = {}
    for k in range(k_max + 1):
        for th in (0, 1):
            sp = spaces.solve_space(spec, SpaceKind.QC, k, th, strict)
            spans[(k, th)] = project_component(sp, 0)
            basis[(k, th)] = _component_maps(sp, 0)

    bracket_closed = True
    bracket_detail = ""
    comp_closed = True
    comp_detail = ""
    for k in range(k_max + 1):
        for s in range(k_max - k + 1):
            for th1, th2 in itertools.product((0, 1), repeat=2):
                tgt = spans[(k + s, (th1 + th2) % 2)]
                for a in basis[(k, th1)]:
                    for b in basis[(s, th2)]:
                        if not contains(tgt, supercommutator(a, b).matrix.entries):
                            if bracket_closed:
                                bracket_detail = f"k={k}, s={s}"
                            bracket_closed = False
                        if not contains(tgt, compose(a, b).matrix.entries):
                            if comp_closed:
                                comp_detail = f"k={k}, s={s}"
                            comp_closed = False

    return (
        Check("QC bracket-closed", "info",
              "yes" if bracket_closed else f"no ({bracket_detail})"),
        Check("QC composition-closed", "info",
              "yes" if comp_closed else f"no ({comp_detail})"),
        Check("closure equivalence (bracket <=> composition)",
              "pass" if bracket_closed == comp_closed else "fail",
              f"bracket: {bracket_closed}, composition: {comp_closed}"),
    )


# ---------------------------------------------------------------------------
# reference subspace routines
# ---------------------------------------------------------------------------
# The routines that one stacked RREF replaced, as written before that
# change except that elimination goes through kernel_basis and
# canonical_rows above.  _phi_unchecked is looked up on the extension
# module at call time, so a test that patches it feeds both sides.

def reference_intersection(a, b):
    """Canonical basis rows of a ^ b.

    A common vector is sum(t_i a_i) = sum(u_j b_j); the (t, u) kernel is
    mapped back through a's basis.
    """
    n = a.ambient_dim
    if a.is_zero() or b.is_zero():
        return []
    rows = [[a.basis[i][c] for i in range(a.dim)]
            + [-b.basis[j][c] for j in range(b.dim)]
            for c in range(n)]
    found = [[sum(t[i] * a.basis[i][c] for i in range(a.dim)) for c in range(n)]
             for t in kernel_basis(rows, a.dim + b.dim)]
    return canonical_rows(found, n)


def reference_complement(derived):
    """The complement of [L, L] as ``build_extended`` chose it with one
    dense RREF: e_m is chosen when independent of [L, L] and the e_i
    before it, a pivot past the [L, L] columns of [d_1 .. d_r | I]."""
    n, r = derived.ambient_dim, derived.dim
    _, pivots, _ = rref(Matrix.from_rows(
        [[d[m] for d in derived.basis] + list(unit_vec(n, m)) for m in range(n)], r + n))
    return Subspace.from_vectors(n, [unit_vec(n, p - r) for p in pivots if p >= r])


def reference_double_spec(base: AlgebraSpec) -> AlgebraSpec:
    """The spec of the t-graded double of ``base``, its pairs read off
    the dense bracket table: [e_i t, e_j t] = [e_i, e_j] t^2."""
    n = base.n
    pairs = {(i, j): (0,) * n + base.brackets[i][j]
             for i in range(n) for j in range(i, n)
             if not is_zero_vec(base.brackets[i][j])}
    names = tuple(f"{nm}t" for nm in base.basis_names) + \
        tuple(f"{nm}t2" for nm in base.basis_names)
    return AlgebraSpec.from_pairs(f"{base.name}_ext", base.degrees * 2,
                                  block_diag(base.alpha, base.alpha), pairs, names)


def reference_derived_projection(derived, complement):
    """Projector onto ``derived`` along ``complement``, one solve per column.

    Column j is sum(lam_i d_i) where B lam = e_j and the columns of B are
    the basis of derived followed by that of complement; B lam = e_j is
    the kernel line (lam, 1) of [B | -e_j].
    """
    n = derived.ambient_dim
    cols = list(derived.basis) + list(complement.basis)
    width = len(cols) + 1
    out_cols = []
    for j in range(n):
        aug = [[cols[c][m] for c in range(len(cols))] + [-F1 if m == j else F0]
               for m in range(n)]
        ker = kernel_basis(aug, width)
        if len(ker) != 1 or ker[0][-1] != 1:
            raise RuntimeError(
                "[L, L] and its complement do not span the base algebra")
        lam = ker[0]
        out_cols.append([sum(lam[i] * row[m] for i, row in enumerate(derived.basis))
                         for m in range(n)])
    return Matrix.from_rows([[out_cols[j][m] for j in range(n)]
                             for m in range(n)], n)


def reference_phi_kernel(ext, k: int, strict: bool = True) -> tuple:
    """Status of "vanishing phi image forces vanishing first component"
    per degree 0, 1: every combination of QDer basis pairs whose phi
    images cancel must have cancelling first components."""
    nn = ext.base.n ** 2
    out = []
    for th in (0, 1):
        tuples = spaces.solve_space(ext.base, SpaceKind.QDER, k, th, strict).tuples
        images = [extension._phi_unchecked(ext, (t[0], t[1])).matrix.entries
                  for t in tuples]
        ok = True
        if images:
            # the cancelling combinations: kernel of the transposed images
            rows = [[img[c] for img in images] for c in range(len(images[0]))]
            for combo in kernel_basis(rows, len(images)):
                first = [sum(coef * t[0].matrix.entries[e]
                             for coef, t in zip(combo, tuples))
                         for e in range(nn)]
                if any(x != 0 for x in first):
                    ok = False
                    break
        out.append("pass" if ok else "fail")
    return tuple(out)


def reference_rref(m: Matrix):
    """Dense Gauss-Jordan as ``linalg.rref`` had it before its rows went
    sparse: columns left to right, the first row with a nonzero entry in
    the current column becomes the pivot.  Returns (R, pivots, rank)."""
    a = [list(m.row(r)) for r in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        hit = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        p = a[r][c]
        if p != 1:
            a[r] = [x / p for x in a[r]]
        lead = a[r]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], lead)]
        pivots.append(c)
        r += 1
    return Matrix.from_rows(a, m.cols), tuple(pivots), len(pivots)


def reference_span(n: int, vectors) -> Subspace:
    """Canonical basis of the span: the nonzero rows of the dense RREF."""
    if not vectors:
        return Subspace.zero(n)
    reduced, _, rk = reference_rref(Matrix.from_rows(vectors, n))
    return Subspace(n, tuple(reduced.row(i) for i in range(rk)))


def reference_nullspace(m: Matrix) -> Subspace:
    """The kernel as ``linalg.nullspace`` built it on the dense RREF: one
    dense vector per free column, reduced once more."""
    reduced, pivots, _ = reference_rref(m)
    out = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [F0] * m.cols
        v[free] = F1
        for r, p in enumerate(pivots):
            v[p] = -reduced.at(r, free)
        out.append(v)
    return reference_span(m.cols, out)


def reference_two_rref_nullspace(m: Matrix) -> Subspace:
    """``linalg.nullspace`` as it was before it read the pivot rows of
    ``_reduce``: the kernel from the nonzeros of the dense RREF's pivot
    rows, made canonical by a second ``rref``."""
    reduced, pivots, _ = rref(m)
    kernel = {f: {f: F1} for f in sorted(set(range(m.cols)) - set(pivots))}
    for r, p in enumerate(pivots):
        for c, x in _nonzeros(reduced.row(r)).items():
            if c != p:
                kernel[c][p] = -x
    if not kernel:
        return Subspace.zero(m.cols)
    basis, _, dim = rref(Matrix.from_sparse(list(kernel.values()), m.cols))
    return Subspace(m.cols, tuple(basis.row(i) for i in range(dim)))


def reference_first_outside(cells):
    """``spaces._first_outside`` as it was: the payload of the first
    (target, dense vector, payload) cell whose vector ``contains``
    rejects, or None."""
    for target, vector, payload in cells:
        if not contains(target, vector):
            return payload
    return None


def reference_matvec(m: Matrix, v) -> tuple:
    """m v through ``reference_matmul``, v as a one-column matrix."""
    return reference_matmul(m, Matrix(len(v), 1, tuple(map(Fraction, v)))).entries


def reference_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The dense product loop of ``Matrix.matmul`` before products went
    sparse; the reference products below use it, so they share no
    product code with homlie."""
    out = []
    for r in range(a.rows):
        row = a.row(r)
        for c in range(b.cols):
            acc = F0
            for k in range(a.cols):
                if row[k]:
                    acc += row[k] * b.entries[k * b.cols + c]
            out.append(acc)
    return Matrix(a.rows, b.cols, tuple(out))


def reference_supercommutator(a: GradedMap, b: GradedMap) -> GradedMap:
    s = parity_sign(a.degree, b.degree)
    m = (reference_matmul(a.matrix, b.matrix)
         - reference_matmul(b.matrix, a.matrix).scale(s))
    return GradedMap(m, (a.degree + b.degree) % 2)


def reference_jordan_product(a: GradedMap, b: GradedMap) -> GradedMap:
    s = parity_sign(a.degree, b.degree)
    m = (reference_matmul(a.matrix, b.matrix)
         + reference_matmul(b.matrix, a.matrix).scale(s))
    return GradedMap(m, (a.degree + b.degree) % 2)


def reference_hom_jordan_residual(alpha: Matrix, x, y, z, w) -> Matrix:
    jp = reference_jordan_product

    def tw(g: GradedMap) -> GradedMap:
        return GradedMap(reference_matmul(g.matrix, alpha), g.degree)

    def assoc(a, b, c) -> Matrix:
        return (jp(jp(a, b), tw(c)).matrix - jp(tw(a), jp(b, c)).matrix)

    t1 = assoc(jp(x, y), tw(z), tw(w)).scale(
        parity_sign(z.degree, x.degree + w.degree))
    t2 = assoc(jp(y, w), tw(z), tw(x)).scale(
        parity_sign(x.degree, y.degree + z.degree))
    t3 = assoc(jp(w, x), tw(z), tw(y)).scale(
        parity_sign(y.degree, w.degree + z.degree))
    return t1 + t2 + t3


def reference_first_product_outside(s, a, b, target):
    """``spaces._first_product_outside`` as it was: one ``_product(p, q, s)``
    per pair (x, y), x in a outermost, component by component, each
    product's ``_coords`` eliminated against the target; the first product
    outside it, or None."""
    products = (tuple(spaces._product(p, q, s) for p, q in zip(x, y))
                for x in a for y in b)
    return spaces._first_outside((target, spaces._coords(*g), g)
                                 for g in products)


def reference_jordan_engine(alpha: Matrix, elems):
    """The per-quadruple engine that ``check_qc_structure`` ran before w
    went generic: residual(x, y, z, w), elems by index, is the sparse
    map of the Jordan residual's nonzeros, each factor that omits an
    index made once."""
    if alpha.rows != alpha.cols or any(g.n != alpha.rows for g in elems):
        raise ValueError("ambient dimension mismatch")
    product = spaces._product
    a1 = GradedMap(alpha, 0)
    a2 = product(a1, a1, 0)
    tw = [product(g, a1, 0) for g in elems]
    tw2 = [product(g, a2, 0) for g in elems]
    memo: dict = {}

    def once(key, make):
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def signed(sign, a, b):
        """The ``_sparse_sum`` terms of sign * (a o b)."""
        x, y = a.matrix._sparse, b.matrix._sparse
        return [(sign, x, y), (sign * parity_sign(a.degree, b.degree), y, x)]

    def residual(x, y, z, w):
        d = {i: elems[i].degree for i in (x, y, z, w)}
        terms = []
        for (a, b, c), sign in (((x, y, w), parity_sign(d[z], d[x] + d[w])),
                                ((y, w, x), parity_sign(d[x], d[y] + d[z])),
                                ((w, x, y), parity_sign(d[y], d[w] + d[z]))):
            ab = once(("a o b", a, b), lambda: product(elems[a], elems[b], 1))
            inner = once(("(a o b) o tw z", a, b, z), lambda: product(ab, tw[z], 1))
            tw_ab = once(("tw(a o b)", a, b), lambda: product(ab, a1, 0))
            tw_zc = once(("tw z o tw c", z, c), lambda: product(tw[z], tw[c], 1))
            terms += signed(sign, inner, tw2[c]) + signed(-sign, tw_ab, tw_zc)
        return _sparse_sum(*terms)

    return residual


def reference_engine_witness(alpha: Matrix, elems):
    """The first quadruple of indices into elems, in ``itertools.product``
    order, at which ``reference_jordan_engine`` is nonzero, or None."""
    residual = reference_jordan_engine(alpha, elems)
    return next((quad for quad in itertools.product(range(len(elems)), repeat=4)
                 if residual(*quad)), None)


def reference_jordan_witness(alpha: Matrix, elems):
    """The first quadruple of elems, in ``itertools.product`` order, at
    which the dense residual of the twisted Jordan identity is nonzero,
    or None: the loop ``check_qc_structure`` ran before its engine."""
    return next((quad for quad in itertools.product(elems, repeat=4)
                 if not reference_hom_jordan_residual(alpha, *quad).is_zero()),
                None)


def reference_circle_witness(elems):
    """The first ordered pair (a, b) of elems, in ``itertools.product``
    order, with a o b != (-1)^{|a||b|} (b o a), or None: the walk the
    super-commutativity check ran before it took unordered pairs.
    ``spaces.jordan_product`` is looked up at call time, so a patched
    circle product reaches this walk and the check alike."""
    jp = spaces.jordan_product
    return next(((a, b) for a, b in itertools.product(elems, repeat=2)
                 if not (jp(a, b).matrix - jp(b, a).matrix.scale(
                     parity_sign(a.degree, b.degree))).is_zero()),
                None)


def reference_partner_determined(ext, k: int, strict: bool = True) -> tuple:
    """Status of "partner determined on [L,L]" per degree 0, 1, as
    ``verify_phi_properties`` decided it before it read the check off
    spans: the pairs (0, D') are the reduced rows of the QDer tuple space
    that pivot past the first n^2 coordinates, and each such D' must send
    every basis vector of [L, L] to zero, tested densely."""
    n = ext.base.n
    nn = n * n
    out = []
    for th in (0, 1):
        pairs = extension.solve_space(ext.base, SpaceKind.QDER, k, th, strict).as_subspace()
        rows = [Matrix.from_sparse([{p: 1, **row}], pairs.ambient_dim).entries
                for p, row in pairs._reduced.items() if p >= nn]
        bad = any(not is_zero_vec(reference_matvec(Matrix(n, n, row[nn:]), d))
                  for row in rows for d in ext.derived.basis)
        out.append("fail" if bad else "pass")
    return tuple(out)


def reference_validate(spec: AlgebraSpec) -> ValidationReport:
    """``algebra.validate`` as it was before it read the sparse view: four
    dense loops over every basis pair and triple of the table, brackets
    through ``brute_bracket``.  Failures in the same order, with the same
    indices and dense residuals."""
    n, deg = spec.n, spec.degrees
    failures: list[IdentityFailure] = []

    def vadd(a, b):
        return tuple(x + y for x, y in zip(a, b, strict=True))

    def vscale(s, a):
        return tuple(s * x for x in a)

    def nonzero(a):
        return any(x != 0 for x in a)

    even_ok = True
    for m in range(n):
        for i in range(n):
            if deg[m] != deg[i] and spec.alpha.at(m, i):
                even_ok = False
                failures.append(IdentityFailure(
                    "twist evenness", (m, i), (spec.alpha.at(m, i),)))
    for i in range(n):
        for j in range(n):
            want = (deg[i] + deg[j]) % 2
            for m, cm in enumerate(spec.brackets[i][j]):
                if cm and deg[m] != want:
                    even_ok = False
                    failures.append(IdentityFailure(
                        "bracket evenness", (i, j, m), (cm,)))

    skew_ok = True
    for i in range(n):
        for j in range(n):
            s = parity_sign(deg[i], deg[j])
            res = vadd(spec.brackets[j][i], vscale(s, spec.brackets[i][j]))
            if nonzero(res):
                skew_ok = False
                failures.append(IdentityFailure(
                    "super skew-symmetry", (j, i), res))

    acol = [spec.alpha.col(i) for i in range(n)]

    def br(u, v):
        return tuple(brute_bracket(spec, u, v))

    jacobi_ok = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = vscale(parity_sign(deg[k], deg[i]),
                            br(acol[i], spec.brackets[j][k]))
                t2 = vscale(parity_sign(deg[i], deg[j]),
                            br(acol[j], spec.brackets[k][i]))
                t3 = vscale(parity_sign(deg[j], deg[k]),
                            br(acol[k], spec.brackets[i][j]))
                res = vadd(vadd(t1, t2), t3)
                if nonzero(res):
                    jacobi_ok = False
                    failures.append(IdentityFailure(
                        "twisted Jacobi", (i, j, k), res))

    mult_ok = True
    for i in range(n):
        for j in range(n):
            res = vadd(reference_matvec(spec.alpha, spec.brackets[i][j]),
                       vscale(-1, br(acol[i], acol[j])))
            if nonzero(res):
                mult_ok = False
                failures.append(IdentityFailure(
                    "multiplicativity", (i, j), res))

    return ValidationReport(skew_ok, even_ok, jacobi_ok, mult_ok,
                            tuple(failures))
