"""Exactness checks written independently of homlie's solver and linalg.

The six defining identities of the README table are written out below
as data and evaluated directly on concrete maps from the structure
constants, with the benchmark's own sparse arithmetic.
:func:`space_violations` checks a solved basis tuple by tuple;
:func:`space_dim` counts a space's dimension by its own elimination.
Neither runs inside a timed region.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

# For each kind, its identities; each identity is a sum of signed terms
# on homogeneous basis elements x = e_i, y = e_j (A = alpha^k, and s =
# (-1)^{theta |x|}):
#   ("left", c)   [M_c x, A y]
#   ("right", c)  s [A x, M_c y]
#   ("eval", c)   M_c [x, y]
IDENTITIES = {
    "Der": ((("left", 0, 1), ("right", 0, 1), ("eval", 0, -1)),),
    "GDer": ((("left", 0, 1), ("right", 1, 1), ("eval", 2, -1)),),
    "QDer": ((("left", 0, 1), ("right", 0, 1), ("eval", 1, -1)),),
    "C": ((("left", 0, 1), ("eval", 0, -1)),
          (("right", 0, 1), ("eval", 0, -1))),
    "QC": ((("left", 0, 1), ("right", 0, -1)),),
    "ZDer": ((("left", 0, 1),), (("eval", 0, 1),)),
}
ARITY = {"Der": 1, "GDer": 3, "QDer": 2, "C": 1, "QC": 1, "ZDer": 1}


class Algebra:
    """Sparse structure constants and twist powers of one AlgebraSpec."""

    def __init__(self, spec):
        self.n = n = spec.n
        self.degrees = spec.degrees
        self.brackets = {}
        for i in range(n):
            for j in range(n):
                terms = [(m, c) for m, c in enumerate(spec.brackets[i][j]) if c]
                if terms:
                    self.brackets[(i, j)] = terms
        self.alpha = [[spec.alpha.at(r, c) for c in range(n)] for r in range(n)]
        self._powers = {0: [[F1 if r == c else F0 for c in range(n)]
                            for r in range(n)]}

    def power_cols(self, k: int) -> list[list[tuple[int, Fraction]]]:
        """Columns of alpha^k as lists of (row, value) nonzeros."""
        n = self.n
        while k not in self._powers:
            top = max(self._powers)
            prev = self._powers[top]
            self._powers[top + 1] = [
                [sum(prev[r][t] * self.alpha[t][c] for t in range(n))
                 for c in range(n)] for r in range(n)]
        mat = self._powers[k]
        return [[(r, mat[r][c]) for r in range(n) if mat[r][c]]
                for c in range(n)]


def _nonzeros(mat) -> list[tuple[int, int, Fraction]]:
    return [(m, l, x) for m, row in enumerate(mat) for l, x in enumerate(row)
            if x]


def defining_residuals(alg: Algebra, kind: str, k: int, theta: int,
                       entries) -> dict:
    """Nonzero residual coordinates of ``kind``'s identities.

    ``entries[c]`` lists the nonzeros (m, l, x) of component c, meaning
    M_c e_l has x in coordinate m.  The result maps (identity, i, j,
    coordinate) to a nonzero value; the tuple lies in the space exactly
    when it is empty.
    """
    n = alg.n
    acol = alg.power_cols(k)
    signs = [-1 if (theta * d) % 2 else 1 for d in alg.degrees]
    out: dict = {}
    for eq, terms in enumerate(IDENTITIES[kind]):
        for term, comp, sign in terms:
            ents = entries[comp]
            if term == "left":
                for m, i, x in ents:
                    for j in range(n):
                        for b, y in acol[j]:
                            for p, c in alg.brackets.get((m, b), ()):
                                key = (eq, i, j, p)
                                out[key] = out.get(key, F0) + sign * x * y * c
            elif term == "right":
                for m, j, x in ents:
                    for i in range(n):
                        for a, y in acol[i]:
                            for p, c in alg.brackets.get((a, m), ()):
                                key = (eq, i, j, p)
                                out[key] = (out.get(key, F0)
                                            + sign * signs[i] * x * y * c)
            else:
                by_col: dict = {}
                for m, l, x in ents:
                    by_col.setdefault(l, []).append((m, x))
                for (i, j), bterms in alg.brackets.items():
                    for q, cu in bterms:
                        for m, x in by_col.get(q, ()):
                            key = (eq, i, j, m)
                            out[key] = out.get(key, F0) + sign * x * cu
    return {key: v for key, v in out.items() if v}


def _commutation_residuals(alg: Algebra, ents) -> dict:
    """Nonzero entries of M alpha - alpha M."""
    n, a = alg.n, alg.alpha
    out: dict = {}
    for t, c, x in ents:
        for r in range(n):
            if a[r][t]:
                out[(r, c)] = out.get((r, c), F0) - a[r][t] * x
    for r, t, x in ents:
        for c in range(n):
            if a[t][c]:
                out[(r, c)] = out.get((r, c), F0) + x * a[t][c]
    return {key: v for key, v in out.items() if v}


def _off_degree(alg: Algebra, theta: int, ents) -> bool:
    deg = alg.degrees
    return any(deg[m] != (deg[l] + theta) % 2 for m, l, _ in ents)


def space_violations(spec, kind: str, k: int, theta: int, strict: bool,
                     tuples) -> list[int]:
    """Indices of basis tuples that break their defining identity, leave
    the degree pattern or, in strict mode, fail to commute with alpha.

    ``tuples`` holds each basis tuple as a list of n x n row lists.
    """
    alg = Algebra(spec)
    bad = []
    for idx, mats in enumerate(tuples):
        entries = [_nonzeros(m) for m in mats]
        if (len(mats) != ARITY[kind]
                or defining_residuals(alg, kind, k, theta, entries)
                or any(_off_degree(alg, theta, e) for e in entries)
                or (strict and any(_commutation_residuals(alg, e)
                                   for e in entries))):
            bad.append(idx)
    return bad


def rank(rows: list[list[Fraction]], width: int) -> int:
    """Rank by forward elimination over the first ``width`` columns."""
    work = [list(r) for r in rows if any(r)]
    done = 0
    for c in range(width):
        sel = next((i for i in range(done, len(work)) if work[i][c]), None)
        if sel is None:
            continue
        work[done], work[sel] = work[sel], work[done]
        piv = work[done]
        for i in range(done + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / piv[c]
                work[i] = [x - f * y for x, y in zip(work[i], piv)]
        done += 1
    return done


def space_dim(spec, kind: str, k: int, theta: int, strict: bool) -> int:
    """Dimension of one operator space: the number of homogeneous
    unknowns minus the rank of the constraint system.

    The system is assembled by probing each unknown matrix entry with a
    unit tuple and is eliminated densely, so use this on small algebras.
    """
    alg = Algebra(spec)
    n, deg = alg.n, alg.degrees
    unknowns = [(c, m, l) for c in range(ARITY[kind]) for m in range(n)
                for l in range(n) if deg[m] == (deg[l] + theta) % 2]
    columns = []
    for c, m, l in unknowns:
        entries = [[] for _ in range(ARITY[kind])]
        entries[c] = [(m, l, F1)]
        col = {("id",) + key: v for key, v in
               defining_residuals(alg, kind, k, theta, entries).items()}
        if strict:
            col.update({("comm", c) + key: v for key, v in
                        _commutation_residuals(alg, entries[c]).items()})
        columns.append(col)
    keys = sorted({key for col in columns for key in col}, key=repr)
    rows = [[col.get(key, F0) for col in columns] for key in keys]
    return len(unknowns) - rank(rows, len(unknowns))
