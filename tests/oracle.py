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
walk over every law cell that bracket cells now cut by reading their
transposes (``reference_law_witness``), the
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
they were before the unknowns that one-entry rows fix to zero left the
system (``reference_solve_space``) and that presolve written apart, with
the unknowns that one-entry commutation rows fix struck first
(``reference_presolve``, ``reference_presolved_rows``), the kind-free level,
the presolve and the map builder as they were written before each was made one
direct pass (``reference_level``, its commutation rows gathered in lists;
``reference_keyed_presolve``; ``reference_maps``, over rows with their leading 1
copied in), ``Matrix.power`` as it was before it squared from the lowest set
bit (``reference_power``, which ``reference_level`` reads a^k by), the double's structure constants
as ``build_extended`` read them off the dense bracket table
(``reference_double_spec``), a solved space's tuple and first-component
views as reductions of its tuples, as they were before they were read
off the solver's kernel (``reference_tuple_view``,
``reference_first_view``), the join as it was when it took one degree per
batch, and the per-z Jordan pass that split every batch by degree for it and
read a o tz off tz o a (``reference_index``, ``reference_join``,
``reference_jordan_pass``; ``_join_one`` and ``reference_per_xy_engine``
stand on that join), the walk for the least Jordan witness that read every
ordering of each all-even key (``reference_pass_witness``), and the helpers
that the package no longer holds: dense vectors and columns
(``is_zero_vec``, ``col``), a matrix from sparse rows (``from_sparse``), the whole space
(``full_space``) and the shift D -> D o alpha (``alpha_shift``).  Last,
it builds the large inputs whose reports ``test_golden_large`` pins:
the twisted Heisenberg algebras and the iterated double (``heisenberg``,
``iterated_double``).
"""

import itertools
from collections import defaultdict
from fractions import Fraction

from homlie import extension, spaces
from homlie.extension import build_extended
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
    _int,
    _nonzeros,
    _pivot_rows,
    _sparse_sum,
    _subtract,
    block_diag,
    contains,
    format_matrix,
    frac,
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
    compose,
    project_component,
    supercommutator,
)

F0 = Fraction(0)
F1 = Fraction(1)


def is_zero_vec(a) -> bool:
    """Whether every entry is 0 (``linalg.is_zero_vec`` as it was)."""
    return all(x == 0 for x in a)


def col(m: Matrix, c: int):
    """Column c of m, dense (``Matrix.col`` as it was)."""
    return tuple(m.entries[r * m.cols + c] for r in range(m.rows))


def from_sparse(data, cols: int) -> Matrix:
    """Rows as {column: entry}, absent 0 (``Matrix.from_sparse`` as it was):
    systems of thousands of unknowns cannot be built dense."""
    view = {}
    for r, row in enumerate(data):
        for c, x in row.items():
            if not 0 <= c < cols:
                raise ValueError(f"column {c} outside 0..{cols - 1}")
            if x := frac(x):
                view.setdefault(r, {})[c] = _int(x)
    return Matrix._of(len(data), cols, view)


def full_space(n: int) -> Subspace:
    """Q^n, spanned by the rows of the identity (``Subspace.full`` as it was)."""
    return Subspace(n, [[int(r == c) for c in range(n)] for r in range(n)])


def alpha_shift(spec: AlgebraSpec, d: GradedMap) -> GradedMap:
    """D -> D o alpha, the shift of the law references (``spaces.alpha_shift`` as it was)."""
    return compose(d, GradedMap(spec.alpha, 0))


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
                          degree: int, strict: bool, touched=None):
    """(rows, width) of ``solve_space``'s system as its per-pair walk built
    them: one ``_bracket`` per entry of the two bracket tables, and one
    ``emit`` per ordered pair and equation (then per component and twist
    column) that scans every output coordinate and unknown through a
    position dict.  A ``touched`` list receives, for every row that some
    term reaches, (unknowns reached, unknowns left nonzero)."""
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
        if touched is not None:
            touched.extend((len(r), sum(1 for x in r.values() if x)) for r in out if r)

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


def _strike(rows, width, zeroed):
    """(rows, width) less the unknowns in zeroed: each is struck from every
    row, a row left empty is dropped, and the other unknowns are numbered
    0, 1, ... in their old order."""
    renumber = {}
    for old in range(width):
        if old not in zeroed:
            renumber[old] = len(renumber)
    out = []
    for row in rows:
        kept = {renumber[c]: x for c, x in row.items() if c not in zeroed}
        if kept:
            out.append(kept)
    return out, len(renumber)


def reference_presolve(rows, width, commuting=0):
    """(rows, width) of a system less the unknowns that its one-entry rows
    fix to zero.  The last ``commuting`` rows, the strict ones, go first:
    the unknowns that those of one entry fix are struck; then the unknowns
    that the rows left of one entry fix are struck in turn."""
    zeroed = set()
    for row in rows[len(rows) - commuting:]:
        if len(row) == 1:
            zeroed.update(row)
    rows, width = _strike(rows, width, zeroed)
    zeroed = set()
    for row in rows:
        if len(row) == 1:
            zeroed.update(row)
    return _strike(rows, width, zeroed)


def reference_keyed_presolve(rows_by_key: dict, width: int) -> tuple[list, list]:
    """``spaces._presolve`` as it was written before its one walk over the rows:
    a set of the unknowns that rows of one nonzero entry fix, the longer rows
    cleared in key order, and those left of one entry fixing theirs too."""
    fixed = {idx for row in rows_by_key.values() if len(row) == 1 for idx, x in row.items() if x}
    cleared = [{idx: x for idx, x in rows_by_key[key].items() if x}
               for key in sorted(key for key, row in rows_by_key.items() if len(row) > 1)]
    fixed.update(idx for row in cleared if len(row) == 1 for idx in row)
    kept = [idx for idx in range(width) if idx not in fixed]
    at = {old: new for new, old in enumerate(kept)}
    return [row for r in cleared
            if (row := {at[idx]: _int(x) for idx, x in r.items() if idx in at})], kept


def reference_level(spec: AlgebraSpec, k: int, degree: int, strict: bool):
    """``spaces._level`` as it was written before its commutation rows were
    summed in two direct loops: each cell's (key, entry) pairs gathered in
    two lists and concatenated, its rows presolved by
    ``reference_keyed_presolve``, its cells found by testing every pair's
    parity; the side tables as the package fills them, at ``reference_power``."""
    n, deg = spec.n, spec.degrees
    cells = [(m, l) for m in range(n) for l in range(n) if deg[m] == (deg[l] + degree) % 2]
    comm = []
    if strict:
        acc, acols = {}, _columns(spec.alpha)
        for idx, (m, l) in enumerate(cells):
            for key, x in [(j * n + m, x) for j, x in spec.alpha._sparse.get(l, {}).items()] + [
                    (l * n + p, -x) for p, x in acols[m].items()]:
                row = acc.setdefault(key, {})
                row[idx] = row.get(idx, 0) + x
        comm, kept = reference_keyed_presolve(acc, len(cells))
        cells = [cells[i] for i in kept]
    if not cells:
        return cells, comm, {}
    by_row, by_col = [[] for _ in range(n)], [[] for _ in range(n)]
    for idx, (m, l) in enumerate(cells):
        by_row[m].append((l, idx))
        by_col[l].append((m, idx))
    step, ak = spaces._EQS * n, reference_power(spec.alpha, k)._sparse
    right, left, evals = {}, {}, {}
    for (a, b), vec in spec._sparse.items():
        for j, x in ak.get(b, {}).items():
            _subtract(right.setdefault(a, {}), -x, {j * step + m: y for m, y in vec.items()})
        for i, x in ak.get(a, {}).items():
            _subtract(left.setdefault(b, {}), -x * parity_sign(degree, deg[i]),
                      {i * n * step + m: y for m, y in vec.items()})
        for l, x in vec.items():
            evals.setdefault(l, {})[(a * n + b) * step] = x
    sides = {"right": (n * step, right, by_row), "left": (step, left, by_row),
             "eval": (1, evals, by_col)}
    return cells, comm, sides


def reference_power(m: Matrix, k: int) -> Matrix:
    """``Matrix.power`` as it was written before it squared from the lowest set
    bit: the identity times the squares m^(2^i) at the set bits i of k, so that
    m^1 is the identity times m."""
    if m.rows != m.cols:
        raise ValueError("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative matrix power")
    out, square = Matrix.identity(m.rows), m  # by repeated squaring
    while k:
        out, k = out.matmul(square) if k & 1 else out, k >> 1
        square = square.matmul(square) if k else square
    return out


def reference_maps(rows, where, arity: int, zero: GradedMap) -> tuple:
    """``spaces._maps`` as it was written before it read the kernel: one tuple
    of ``arity`` maps per row, leading 1 included (``_pivot_rows``), each row's
    entries gathered in a views dict, D_c[m, l] = x for each i: x of the row and
    (c, m, l) = ``where[i]``; each zero map ``zero``."""
    n, out = zero.n, []
    for coords in rows:
        views: dict = {}
        for i, x in coords.items():
            c, m, l = where[i]
            views.setdefault(c, {}).setdefault(m, {})[l] = x
        out.append(tuple([GradedMap._of(Matrix._of(n, n, views[c]), zero.degree)
                          if c in views else zero for c in range(arity)]))
    return tuple(out)


def reference_presolved_rows(spec: AlgebraSpec, kind: SpaceKind, k: int,
                             degree: int, strict: bool):
    """``reference_presolve`` of ``reference_system_rows``, the commutation
    rows counted as those past the rows of lax mode."""
    rows, width = reference_system_rows(spec, kind, k, degree, strict)
    lax = reference_system_rows(spec, kind, k, degree, False)[0] if strict else rows
    return reference_presolve(rows, width, len(rows) - len(lax))


def reference_solve_space(spec: AlgebraSpec, kind: SpaceKind, k: int,
                          degree: int, strict: bool) -> MapSpace:
    """``solve_space`` as it read its answer off ``reference_system_rows``,
    with no unknown taken out: the kernel of ``from_sparse`` of the
    whole system, each basis row moved to stacked map slots through a dict
    and split into one validated ``GradedMap`` per component."""
    n, arity = spec.n, kind.arity
    rows, width = reference_system_rows(spec, kind, k, degree, strict)
    if not width:
        return MapSpace(kind, k, degree, strict, n, ())
    slots = [(c * n + m) * n + l for c in range(arity) for m in range(n)
             for l in range(n) if spec.degrees[m] == (spec.degrees[l] + degree) % 2]
    kernel = _pivot_rows(nullspace(from_sparse(rows, width))._reduced)
    tuples = []
    for row in kernel:
        entries = [[[0] * n for _ in range(n)] for _ in range(arity)]
        for i, x in row.items():
            c, m, l = slots[i] // (n * n), slots[i] // n % n, slots[i] % n
            entries[c][m][l] = x
        tuples.append(tuple(GradedMap(Matrix.from_rows(e), degree) for e in entries))
    return MapSpace(kind, k, degree, strict, n, tuple(tuples))


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
                    tsub = reference_tuple_view(target)[0]
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
                            if not all(contains(z, col(g.matrix, i)) for i in range(n)):
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
                tsub = reference_tuple_view(tgt)[0]
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
    basis, _, dim = rref(from_sparse(list(kernel.values()), m.cols))
    return Subspace(m.cols, tuple(basis.row(i) for i in range(dim)))


def reference_first_outside(target, cells):
    """``spaces._first_outside`` as it was: the payload of the first
    (dense vector, payload) cell whose vector ``contains`` rejects from
    target, or None."""
    for vector, payload in cells:
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


def reference_tuple_view(space):
    """``MapSpace._tuple_view`` as it was: the span of the tuples' stacked
    coordinates, by one reduction, and the tuples."""
    return Subspace._from_sparse(space.arity * space.n ** 2,
                                 (spaces._coords(*t) for t in space.tuples)), space.tuples


def reference_first_view(space):
    """``MapSpace._first_view`` as it was: the span of the first
    components, by one reduction, and its canonical basis maps."""
    span = project_component(space, 0)
    return span, tuple((GradedMap(Matrix(space.n, space.n, row), space.degree),)
                       for row in span.basis)


def reference_first_product_outside(s, a, b, target):
    """``spaces._first_product_outside`` as it was: one ``_product(p, q, s)``
    per pair (x, y), x in a outermost, component by component, each
    product's ``_coords`` eliminated against the target; the index pair
    (i, w) of x = a[i] and y = b[w] for the first product outside it, or
    None."""
    products = ((i, w, tuple(spaces._product(p, q, s) for p, q in zip(x, y)))
                for i, x in enumerate(a) for w, y in enumerate(b))
    return spaces._first_outside(target, ((spaces._coords(*g), (i, w))
                                          for i, w, g in products))


def reference_law_witness(space, sign, ka, kb, target, levels):
    """``spaces._law_witness`` as it was before bracket cells read their
    transposes: every cell of the order (k, s, th1, th2) is walked through
    ``spaces._first_product_outside``, looked up at call time, so a
    patched cell reaches this walk too.  ``space`` is a level reader of
    ``spaces._reader``; the tuple views are read when target is
    ``spaces._TUPLE``, with the tuple space of ka as target, else the
    first-component views.  The witness is the product of the first
    components of the cell's failing pair, or None for whole tuples."""
    whole = target == spaces._TUPLE

    def view(kind, k, th):
        solved = space(kind, k, th)
        return solved._tuple_view if whole else solved._first_view

    for k, s in levels:
        for th1, th2 in itertools.product((0, 1), repeat=2):
            a, b = view(ka, k, th1)[1], view(kb, s, th2)[1]
            tgt = (target if isinstance(target, Subspace)
                   else view(ka if whole else target, k + s, (th1 + th2) % 2)[0])
            at = spaces._first_product_outside(sign, a, b, tgt)
            if at is not None:
                i, w = at
                return k, s, th1, th2, None if whole else spaces._product(
                    a[i][0], b[w][0], sign)
    return None


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


def reference_pass_witness(alpha: Matrix, elems):
    """The least index triple (x, y, z), then its least w, with a nonzero
    residual in ``spaces._jordan_pass``, or None: the walk ``_jordan_witness``
    made before it took one least key per z, every ordering of an all-even
    key read apart.  z runs outermost, so a witness at (0, 0) ends it."""
    best = ()
    for z, residual in enumerate(spaces._jordan_pass(alpha, elems)):
        for key, _ in residual:
            for x, y, w in (key,) if any(elems[i].degree for i in key) else itertools.permutations(key):
                best = min(best or (x, y, z, w), (x, y, z, w))
        if best[:2] == (0, 0):
            break
    return best or None


def reference_index(g: dict) -> tuple[dict, dict]:
    """A batch, maps g_w held as rows keyed (w, r), indexed for ``_join``:
    rows by row index, {k: [(w, row)]}, entries by column, {k: [(w, r, x)]}."""
    rows, cols = {}, {}
    for (w, r), row in g.items():
        rows.setdefault(r, []).append((w, row))
        for c, x in row.items():
            cols.setdefault(c, []).append((w, r, x))
    return rows, cols


def reference_join(*terms, skew: bool = False) -> dict:
    """The nonzero rows (i, w, r), w >= i if skew, of the sum over terms (sign,
    p, dp, g, dg, s) of sign (p_i g_w + s (-1)^{dp dg} g_w p_i), p maps p_i of
    degree dp as rows keyed (i, k), g maps g_w of degree dg indexed by
    ``_index``.  p_i's entry (k, j) reads g's rows j, and its row k g's column
    k, so every multiply pairs two nonzeros."""
    acc = {}
    for sign, p, dp, (rows, cols), dg, s in terms:
        t = sign * s * parity_sign(dp, dg)
        for (i, k), prow in p.items():
            for j, f in prow.items():
                for w, row in rows.get(j, ()):
                    if not skew or w >= i:
                        _subtract(acc.setdefault((i, w, k), {}), -sign * f, row)
            for w, r, f in cols.get(k, ()) if t else ():
                if not skew or w >= i:
                    _subtract(acc.setdefault((i, w, r), {}), -t * f, prow)
    return {key: row for key, row in acc.items() if row}


def reference_jordan_pass(alpha: Matrix, elems):
    """Per z, {(key, r): row}, the nonzero rows of the twisted super Jordan
    residual R = s1 T(x, y, w) + s2 T(y, w, x) + s3 T(w, x, y) at every
    (x, y, w), indices into elems: T(a, b, c) = ((a o b) o tz) o t^2 c -
    t(a o b) o (tz o tc), tg = g alpha, s1, s2, s3 = (-1)^{|z|(|x|+|w|)},
    (-1)^{|x|(|y|+|z|)}, (-1)^{|y|(|w|+|z|)}.  key is (x, y, w), sorted when
    the three are even, as R is then symmetric in them.  Each a o b, a <= b,
    is formed once, and per z three joins form every T."""
    if alpha.rows != alpha.cols or any(g.n != alpha.rows for g in elems):
        raise ValueError("ambient dimension mismatch")
    av, deg = alpha._sparse, {i: g.degree for i, g in enumerate(elems)}
    _index, _join = reference_index, reference_join

    def family(rows, shift=0):  # rows keyed (.., v, r) as {|v| + shift: {(v, r): row}}
        out = {}
        for (*_, v, r), row in rows.items():
            out.setdefault((deg[v] + shift) % 2, {})[v, r] = row
        return out

    def twist(fam):
        return {d: _sparse_sum((1, rows, av)) for d, rows in fam.items()}

    def index(fam):
        return {d: _index(rows) for d, rows in fam.items()}

    def route(a, b, c, dz):
        """(key, weight) per R that T(a o b, c) enters, b o a = (-1)^{|a||b|}
        a o b: the sorted triple, once per c in it, if the three are even,
        else each ordered one, signed."""
        da, db, dc = deg[a], deg[b], deg[c]
        if not (da or db or dc):
            return [(tuple(sorted((a, b, c))), (a, b, c).count(c))]
        out = []
        for u, v, o in [(a, b, 1)] + ([(b, a, parity_sign(da, db))] if a != b else []):
            t = o * parity_sign(dc, deg[u] + dz)
            out += [((u, v, c), o * parity_sign(dz, deg[u] + dc)), ((c, u, v), t), ((v, c, u), t)]
        return out

    e = family({(i, r): row for i, g in enumerate(elems) for r, row in g.matrix._sparse.items()})
    tw = twist(e)
    tw2, twi = index(twist(tw)), index(tw)
    pairs = _join(*[(1, e[d], d, i, di, 1) for d in e for di, i in index(e).items()], skew=True)
    deg.update({(a, b): (deg[a] + deg[b]) % 2 for a, b, _ in pairs})
    p = family({((a, b), r): row for (a, b, r), row in pairs.items()})
    tp, pi = twist(p), index(p)
    for z, g in enumerate(elems):
        dz, tz = g.degree, {(z, r): row for r, row in _sparse_sum((1, g.matrix._sparse, av)).items()}
        # a o tz for every pair a, read off tz o a = (-1)^{|z||a|} a o tz
        q = family(_join(*[(parity_sign(dz, d), tz, dz, i, d, 1) for d, i in pi.items()]), dz)
        zc = index(family(_join(*[(1, tz, dz, i, d, 1) for d, i in twi.items()]), dz))
        acc = {}
        for ((a, b), c, r), row in _join(
                *[(1, rows, d, i, dc, 1) for d, rows in q.items() for dc, i in tw2.items()],
                *[(-1, rows, d, i, dc, 1) for d, rows in tp.items() for dc, i in zc.items()]).items():
            for key, f in route(a, b, c, dz):
                _subtract(acc.setdefault((key, r), {}), -f, row)
        yield {key: row for key, row in acc.items() if row}


def _join_one(*terms) -> dict:
    """The single-map form ``spaces._join`` had before its left factor
    became a batch: over terms (sign, p, g, dg, s), p one map, the nonzero
    rows (w, r) of sum sign (p g_w + s (-1)^{|p| dg} g_w p), read off the
    batched ``reference_join`` at the one left map."""
    rows = reference_join(*[(sign, {(0, k): row for k, row in p.matrix._sparse.items()},
                             p.degree, g, dg, s) for sign, p, g, dg, s in terms])
    return {(w, r): row for (_, w, r), row in rows.items()}


def reference_per_xy_engine(alpha: Matrix, elems):
    """The engine ``check_qc_structure`` ran before its per-z pass: with
    tw g = g alpha, the residual of the twisted super Jordan identity at
    (x, y, z, w), elems by index, is the signed sum over (a, b, c) in
    (x, y, w), (y, w, x), (w, x, y) of ((a o b) o tw z) o tw^2 c -
    tw(a o b) o (tw z o tw c).  Linear in w at each degree of w, it is
    formed for every w at once: engine(z)(x, y) holds its nonzero rows,
    keyed (w, r).  The factors without z are made once per engine, those
    with z once per engine(z)."""
    if alpha.rows != alpha.cols or any(g.n != alpha.rows for g in elems):
        raise ValueError("ambient dimension mismatch")
    product, index, join = spaces._product, reference_index, _join_one
    av, a1 = alpha._sparse, GradedMap(alpha, 0)
    tw = [product(g, a1, 0) for g in elems]
    tw2 = [product(g, a1, 0) for g in tw]
    xy = [[product(g, h, 1) for h in elems] for g in elems]
    tw_xy = [[product(g, a1, 0) for g in row] for row in xy]

    def twist(rows):
        return _sparse_sum((1, rows, av))

    # per degree d held, every w of degree d keyed (w, r) and indexed: (d,
    # w alpha, w alpha^2, g o w for every g, and its twist); w o g is read
    # as (-1)^{|w||g|} g o w
    batches = []
    for d in (0, 1):
        w = {(i, r): row for i, g in enumerate(elems) if g.degree == d
             for r, row in g.matrix._sparse.items()}
        if w:
            wi, wa = index(w), twist(w)
            gw = [join((1, g, wi, d, 1)) for g in elems]
            batches.append((d, index(wa), index(twist(wa)), [index(v) for v in gw],
                            [index(twist(v)) for v in gw]))

    def at(z):
        dz, twz = elems[z].degree, tw[z]
        zc = [product(twz, g, 1) for g in tw]
        # per degree d held: tw z o tw w, and (g o w) o tw z for every g
        with_z = [(index(join((1, twz, wa, d, 1))),
                   [index(join((parity_sign(g.degree + d, dz), twz, v, g.degree + d, 1)))
                    for g, v in zip(elems, gw)])
                  for d, wa, _, gw, _ in batches]

        def residual(x, y):
            dx, dy = elems[x].degree, elems[y].degree
            inner = product(xy[x][y], twz, 1)
            out = {}
            for (d, _, wa2, _, tw_gw), (zw, gw_z) in zip(batches, with_z):
                # the three signs of the sum, once w o x is read as x o w and
                # each circle g o p with g batched as (-1)^{|g||p|} p o g
                s1, s2, s3 = (parity_sign(dz, dx + d), parity_sign(dx, d),
                              parity_sign(dx, d + dy))
                u = parity_sign(dz, dx + dy + d)
                out |= join(
                    (s1, inner, wa2, d, 1),
                    (-s1, tw_xy[x][y], zw, dz + d, 1),
                    (s2, tw2[x], gw_z[y], dy + d + dz, 1),
                    (-u * s2, zc[x], tw_gw[y], dy + d, 1),
                    (s3, tw2[y], gw_z[x], dx + d + dz, 1),
                    (-u * s3, zc[y], tw_gw[x], dx + d, 1))
            return out

        return residual

    return at


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
        space = spaces.solve_space(ext.base, SpaceKind.QDER, k, th, strict)
        pairs = reference_tuple_view(space)[0]
        rows = [from_sparse([{p: 1, **row}], pairs.ambient_dim).entries
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

    acol = [col(spec.alpha, i) for i in range(n)]

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


def heisenberg(m: int, twisted: bool) -> AlgebraSpec:
    """h_{2m+1}, [x_i, y_i] = z, with the identity twist or the
    bracket-preserving diag(1,..,1, 2,..,2, 2) on (x, y, z): the family
    the benchmark's ladder runs, built here so no test imports it."""
    n = 2 * m + 1
    twist = [1] * m + [2] * m + [2] if twisted else [1] * n
    z = tuple(1 if c == n - 1 else 0 for c in range(n))
    names = [f"x{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(m)] + ["z"]
    return AlgebraSpec.from_pairs(
        f"h{n}_{'d' if twisted else 'id'}", (0,) * n,
        [[twist[r] if r == c else 0 for c in range(n)] for r in range(n)],
        {(i, m + i): z for i in range(m)}, names)


def iterated_double(base: AlgebraSpec, times: int) -> AlgebraSpec:
    """The t-graded double of ``base``, taken ``times`` times."""
    spec = base
    for _ in range(times):
        spec = build_extended(spec).spec
    return spec
