"""Operator spaces of a Hom-Lie superalgebra and their structure laws.

Six families of subspaces of End(L) are cut out by linear identities:
derivations, generalized derivations (triples), quasiderivations
(pairs), the centroid, the quasicentroid and central derivations, each
at a twist power k and a Z2 degree.  Every space is solved exactly as a
nullspace over the matrix entries allowed by homogeneity, and the
structural facts relating the spaces (the inclusion chain, commutator
laws, the split of generalized derivations into quasiderivation plus
quasicentroid parts, and the Jordan behaviour of the quasicentroid) are
verified on the computed bases.

Strict mode additionally imposes commutation with the twist on every
unknown map, which keeps all spaces inside the twist's commutant; lax
mode drops that constraint and comes with no law guarantees.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .algebra import AlgebraSpec, center, parity_sign, validate
from .linalg import (
    Matrix,
    Row,
    Subspace,
    _columns,
    _eliminate,
    _int,
    _kernel,
    _pivot_rows,
    _reduce,
    _sparse_sum,
    _subtract,
    format_matrix,
    rank,
)


class SpaceKind(Enum):
    """The six operator-space families."""

    DER = "Der"
    GDER = "GDer"
    QDER = "QDer"
    C = "C"
    QC = "QC"
    ZDER = "ZDer"

    @property
    def arity(self) -> int:
        """Number of maps in a tuple, as ``_ARITY`` holds it."""
        return _ARITY[self]

    @classmethod
    def parse(cls, text: str) -> "SpaceKind":
        for member in cls:
            if member.value.lower() == text.lower():
                return member
        raise ValueError(f"unknown space kind {text!r}; expected one of "
                         + ", ".join(m.value for m in cls))


@dataclass(frozen=True)
class GradedMap:
    """A homogeneous endomorphism: a square matrix plus its Z2 degree."""

    matrix: Matrix
    degree: int

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("map matrix must be square")
        if isinstance(self.degree, bool) or self.degree not in (0, 1):
            raise ValueError("degree must be the int 0 or 1")

    @property
    def n(self) -> int:
        return self.matrix.rows

    @classmethod
    def _of(cls, matrix: Matrix, degree: int) -> "GradedMap":
        """A map over a trusted square matrix and a degree of 0 or 1."""
        g = cls.__new__(cls)
        d = g.__dict__  # as Matrix._of, keys written straight in
        d["matrix"], d["degree"] = matrix, degree
        return g

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __hash__(self) -> int:  # once per map, the dataclass hash of the fields
        return self._hash

    _hash = cached_property(lambda g: hash((g.matrix, g.degree)))


def _product(a: GradedMap, b: GradedMap, s: int) -> GradedMap:
    """ab + s (-1)^{|a||b|} ba, s 0 or +-1, by one ``_sparse_sum`` over the
    matrices' cached sparse views; degrees add mod 2."""
    if a.n != b.n:
        raise ValueError("ambient dimension mismatch")
    x, y = a.matrix._sparse, b.matrix._sparse
    terms = [(1, x, y)] + ([(s * parity_sign(a.degree, b.degree), y, x)] if s else [])
    return GradedMap._of(Matrix._of(a.n, a.n, _sparse_sum(*terms)), (a.degree + b.degree) % 2)


def _index(g: dict, odd) -> tuple[dict, dict, dict]:
    """A batch, maps g_w held as rows keyed (w, r), the w in odd of degree 1, indexed
    for ``_join``: rows by row index, {k: [(w, row)]}, entries by column, {k: [(w, r,
    x)]}, and flip, the columns with x negated at each odd w (cols itself if none)."""
    rows, cols = {}, {}
    for (w, r), row in g.items():
        rows.setdefault(r, []).append((w, row))
        for c, x in row.items():
            cols.setdefault(c, []).append((w, r, x))
    return rows, cols, {c: [(w, r, -x if w in odd else x) for w, r, x in col]
                        for c, col in cols.items()} if odd else cols


def _join(*terms, skew: bool = False) -> dict:
    """The nonzero rows (i, w, r), w >= i if skew, of the sum over terms (sign,
    p, odd, g, s) of sign (p_i g_w + s (-1)^{|p_i||g_w|} g_w p_i), p maps p_i as
    rows keyed (i, k), the i in odd of degree 1, g indexed by ``_index``.  p_i's
    entry (k, j) reads g's rows j, and its row k g's column k, signed by flip if
    p_i is odd, so every multiply pairs two nonzeros."""
    acc = {}
    for sign, p, odd, (rows, cols, flip), s in terms:
        for (i, k), prow in p.items():
            for j, f in prow.items():
                for w, row in rows.get(j, ()):
                    if not skew or w >= i:
                        _subtract(acc.setdefault((i, w, k), {}), -sign * f, row)
            for w, r, f in (flip if i in odd else cols).get(k, ()) if s else ():
                if not skew or w >= i:
                    _subtract(acc.setdefault((i, w, r), {}), -sign * s * f, prow)
    return {key: row for key, row in acc.items() if row}


class _Basis(tuple):
    """A view's basis: the plain tuple, hashed once, with per component c, formed on
    first read, its maps' rows {(i, r): row} and their ``_index``, for ``_join``; all
    maps of a component have one degree, so its odd set holds every i or none."""

    def __hash__(self) -> int:
        return self._hash

    _hash = cached_property(lambda b: tuple.__hash__(b))
    _rows = cached_property(lambda b: [{(i, r): row for i, t in enumerate(b) for r, row
                                        in t[c].matrix._sparse.items()} for c in range(len(b[0]))])
    _indexed = cached_property(lambda b: [_index(rows, b._odd(c)) for c, rows in enumerate(b._rows)])

    def _odd(self, c: int):
        return range(len(self)) if self[0][c].degree else ()


def compose(a: GradedMap, b: GradedMap) -> GradedMap:
    """a after b; degrees add mod 2."""
    return _product(a, b, 0)


def supercommutator(a: GradedMap, b: GradedMap) -> GradedMap:
    """ab - (-1)^{|a||b|} ba."""
    return _product(a, b, -1)


def jordan_product(a: GradedMap, b: GradedMap) -> GradedMap:
    """ab + (-1)^{|a||b|} ba, the circle product."""
    return _product(a, b, 1)


@dataclass(frozen=True)
class MapSpace:
    """Solved basis of one operator space at fixed twist power and degree.

    ``tuples`` is the canonical reduced basis of the solution space over
    the stacked coordinates of all components (D, then D', then D'').
    Two views, each formed once on first use, pair the tuple space with
    ``tuples`` and the first-component span with its canonical basis maps,
    each a ``_Basis``.  Both read ``_kernel``, not a field: the canonical rows,
    over ``_coords``, of a solve or else of one reduction, and their tuples, those
    that lead in component 0 first.
    """

    kind: SpaceKind
    k: int
    degree: int
    strict: bool
    n: int
    tuples: tuple[tuple[GradedMap, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.tuples)

    @property
    def arity(self) -> int:
        return self.kind.arity

    @classmethod
    def _of(cls, kernel: dict, *fields) -> "MapSpace":
        """A space of trusted fields, written straight in, whose ``_kernel`` is (kernel, tuples)."""
        space = cls.__new__(cls)
        d = space.__dict__  # as GradedMap._of
        d["kind"], d["k"], d["degree"], d["strict"], d["n"], d["tuples"] = fields
        d["_kernel"] = kernel, fields[5]
        return space

    @cached_property
    def _kernel(self) -> tuple[dict, tuple]:
        n, rows = self.n, _reduce(_coords(*t) for t in self.tuples)
        return rows, _maps(rows, self.arity, GradedMap._of(Matrix._of(n, n, {}), self.degree))

    def _span(self, size: int) -> Subspace:
        """The span of the first ``size`` coordinates: the kernel rows leading below
        it, cut there, so canonical."""
        kernel = self._kernel[0]
        return Subspace._of(size, {p: {u: x for u, x in row.items() if u < size}
                                   for p, row in kernel.items() if p < size})

    _tuple_view = cached_property(lambda s: (Subspace._of(s.arity * s.n * s.n, s._kernel[0]),
                                             _Basis(s.tuples)))

    @cached_property
    def _first_view(self) -> tuple[Subspace, _Basis]:
        span = self._span(self.n * self.n)
        return span, _Basis((t[0],) for t in self._kernel[1][:span.dim])


def _coords(*maps: GradedMap) -> Row:
    """The nonzeros of the maps' stacked entries, read off their views."""
    return {(c * g.n + r) * g.n + col: x for c, g in enumerate(maps)
            for r, row in g.matrix._sparse.items() for col, x in row.items()}


def _maps(kernel: dict, arity: int, zero: GradedMap) -> tuple:
    """One tuple of ``arity`` maps per row of kernel, {pivot: row less its leading 1}
    over ``_coords``, in pivot order: D_c[m, l] = x for the leading 1 at the pivot,
    then each i: x of the row, i = (c n + m) n + l; views only, each zero map ``zero``."""
    n, degree, out, units = zero.n, zero.degree, [], {}
    for p, row in sorted(kernel.items()):
        c, (m, l) = p // (n * n), divmod(p % (n * n), n)
        if not row:  # a unit row: one map of one entry, one per cell for every component
            if (unit := units.get(m * n + l)) is None:
                unit = units[m * n + l] = GradedMap._of(Matrix._of(n, n, {m: {l: 1}}), degree)
            t = [zero] * arity
            t[c] = unit
            out.append(tuple(t))
            continue
        views = {c: {m: {l: 1}}}
        for i, x in row.items():
            views.setdefault(i // (n * n), {}).setdefault(i // n % n, {})[i % n] = x
        out.append(tuple([GradedMap._of(Matrix._of(n, n, views[c]), degree)
                          if c in views else zero for c in range(arity)]))
    return tuple(out)


def space_contains(space: MapSpace, maps: Sequence[GradedMap]) -> bool:
    """Exact membership of a tuple of maps in a solved space."""
    if len(maps) != space.arity or any(g.n != space.n for g in maps):
        raise ValueError(f"{space.kind.value} expects {space.arity} maps of size "
                         f"{space.n}x{space.n}, got sizes {[g.n for g in maps]}")
    if any(g.degree != space.degree for g in maps):
        raise ValueError(f"{space.kind.value} at degree {space.degree} expects maps "
                         f"of that degree, got {[g.degree for g in maps]}")
    return not _eliminate(_coords(*maps), space._tuple_view[0]._reduced)


# The defining identities, one README row per kind.  Each equation is a
# list of (side, c, sign) terms whose sum vanishes at every ordered basis
# pair (e_i, e_j) of degrees, with theta the degree of the maps:
#   "right"  [D_c e_i, a^k e_j]
#   "left"   (-1)^{theta |e_i|} [a^k e_i, D_c e_j]
#   "eval"   D_c [e_i, e_j]
IDENTITIES = {
    SpaceKind.DER: ((("right", 0, 1), ("left", 0, 1), ("eval", 0, -1)),),
    SpaceKind.GDER: ((("right", 0, 1), ("left", 1, 1), ("eval", 2, -1)),),
    SpaceKind.QDER: ((("right", 0, 1), ("left", 0, 1), ("eval", 1, -1)),),
    SpaceKind.C: ((("right", 0, 1), ("eval", 0, -1)),
                  (("left", 0, 1), ("eval", 0, -1))),
    SpaceKind.QC: ((("right", 0, 1), ("left", 0, -1)),),
    SpaceKind.ZDER: ((("right", 0, 1),), (("eval", 0, 1),)),
}
_EQS = max(len(equations) for equations in IDENTITIES.values())  # the most of any kind
# maps per tuple: one past the largest component index of the kind's identities
_ARITY = {kind: 1 + max(c for eq in eqs for _, c, _ in eq) for kind, eqs in IDENTITIES.items()}


def _presolve(rows_by_key: dict, width: int) -> tuple[list, list]:
    """(rows, kept): kept lists in order the unknowns 0..width-1 that no row of
    {key: row} fixes to 0 by one nonzero entry, in place or once cleared of zeros;
    rows holds the other rows in key order, over places in kept counted from the
    last, as ``_kernel`` reads them, none left empty.  One walk sorts them."""
    fixed, multi = set(), {}
    for key, row in rows_by_key.items():
        if len(row) > 1 and len(row := {idx: x for idx, x in row.items() if x}) > 1:
            multi[key] = row
        elif all(row.values()):  # one entry, not 0, or none
            fixed.update(row)
    kept = [idx for idx in range(width) if idx not in fixed]
    at = dict(zip(kept, range(len(kept) - 1, -1, -1)))
    return [row for key in sorted(multi)
            if (row := {at[idx]: _int(x) for idx, x in multi[key].items() if idx in at})], kept


def _spread(acc, start, stride, table, index, sign, offset):
    """Sum sign * x into row start + q * stride + m at unknown offset + idx,
    for each l: vec of table, (q, idx) of index[l] and m: x of vec."""
    for l, vec in table.items():
        for q, idx in index[l]:
            at, idx = start + q * stride, offset + idx
            for m, x in vec.items():
                row = acc.setdefault(at + m, {})
                row[idx] = row.get(idx, 0) + sign * x


@lru_cache(maxsize=1024)
def _level(spec: AlgebraSpec, k: int, degree: int, strict: bool):
    """(cells, sides): what a solve at one level owes to no kind, for one
    component, read and never written by every solve there.  cells are the
    (m, l) that the degree allows, less in strict mode on a diagonal twist
    those whose row of M alpha - alpha M, the one entry alpha[l, l] -
    alpha[m, m], fixes them to 0.  sides maps each side of ``IDENTITIES`` to
    (stride, table, index) for ``_spread``, index listing the cells as (l,
    idx) by row m, or (m, idx) by column l.  The row (i, j, e, m) of an
    identity is keyed ((i*n + j)*eqs + e)*n + m, eqs = ``_EQS``, so that keys
    sort as those tuples and stay below eqs*n^3.  One pass over the nonzero
    brackets [e_a, e_b] fills one table per side, {l: {the key's share:
    nonzero}}: right[l] holds [e_l, a^k e_j] at j*eqs*n + m, left[l]
    (-1)^{theta|e_i|} [a^k e_i, e_l] at i*n*eqs*n + m and evals[l] [e_i, e_j]_l
    at (i*n + j)*eqs*n, for the sums over l of D[l, i] right, D[l, j] left and
    D e_l evals.  A strict twist with an entry off its diagonal adds the two
    sides of M alpha - alpha M, its entry (r, c) keyed c*n + r: twist[l]
    holds alpha[l, b] at b*n, for M[m, l] alpha[l, b] at (m, b), and
    twisted[m] alpha[a, m] at a, for alpha[a, m] M[m, l] at (a, l)."""
    n, deg, arows = spec.n, spec.degrees, spec.alpha._sparse
    classes = [[i for i in range(n) if deg[i] == d] for d in (0, 1)]
    diag = [arows.get(i, {}).get(i, 0) for i in range(n)]
    off = strict and any(r != c for r, row in arows.items() for c in row)
    cells = [(m, l) for m in range(n) for l in classes[(deg[m] + degree) % 2]
             if not strict or off or diag[m] == diag[l]]
    if not cells:
        return cells, {}
    by_row, by_col = [[] for _ in range(n)], [[] for _ in range(n)]
    for idx, (m, l) in enumerate(cells):
        by_row[m].append((l, idx))
        by_col[l].append((m, idx))

    step, ak = _EQS * n, spec.alpha.power(k)._sparse
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
    if off:
        sides["twist"] = (1, {l: {b * n: x for b, x in row.items()} for l, row in arows.items()},
                          by_col)
        sides["twisted"] = (n, dict(enumerate(_columns(spec.alpha))), by_row)
    return cells, sides


@lru_cache(maxsize=1024)
def solve_space(spec: AlgebraSpec, kind: SpaceKind, k: int = 0,
                degree: int = 0, strict: bool = True) -> MapSpace:
    """Solve the defining linear system of one operator space.

    Unknowns are the matrix entries allowed by homogeneity at the given
    degree, for every component of the tuple; the kind's ``IDENTITIES``
    are imposed on every ordered basis pair, and strict mode adds the
    commutation constraint M alpha = alpha M per component.  The result
    is the canonical reduced basis of the solution space.  k enters only
    through alpha^k, so levels with equal powers hold one space.  k and
    degree must be ints, not bools; as the cache answers first, a bool
    call that hits a cached int entry still returns that entry.
    """
    if bool in (type(k), type(degree)) or not (isinstance(k, int) and isinstance(degree, int)):
        raise TypeError(f"twist power k and degree must be ints, got {k!r}, {degree!r}")
    if k < 0:
        raise ValueError("twist power k must be >= 0")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    n, arity = spec.n, kind.arity
    cells, sides = _level(spec, k, degree, strict)
    if not cells:
        return MapSpace._of({}, kind, k, degree, strict, n, ())

    # component c's unknowns follow those of c - 1; its rows of M alpha - alpha M, if
    # the level has them, follow the identities' (below _EQS * n^3) in (c, column, m) order
    size, acc = len(cells), {}
    for e, equation in enumerate(IDENTITIES[kind]):
        for side, c, sign in equation:
            _spread(acc, e * n, *sides[side], sign, c * size)
    for c, (side, sign) in itertools.product(range(arity), (("twist", 1), ("twisted", -1))):
        if side in sides:
            _spread(acc, (_EQS * n + c) * n * n, *sides[side], sign, c * size)
    rows, kept = _presolve(acc, arity * size)
    # each kept unknown at its tuple coordinate (c n + m) n + l, which increases with it
    kernel = _kernel(rows, [(idx // size * n + m) * n + l
                            for idx in kept for m, l in (cells[idx % size],)])
    zero = GradedMap._of(Matrix._of(n, n, {}), degree)  # shared: no one writes a view
    return MapSpace._of(kernel, kind, k, degree, strict, n, _maps(kernel, arity, zero))


def project_component(space: MapSpace, index: int) -> Subspace:
    """Span of one tuple slot, inside the n^2-dimensional map space."""
    if not 0 <= index < space.arity:
        raise IndexError(
            f"component {index} out of range for {space.kind.value} "
            f"(arity {space.arity})")
    return Subspace._from_sparse(space.n * space.n,
                                 (_coords(t[index]) for t in space.tuples))


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------

_STATUSES = ("pass", "fail", "skipped", "info")


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    detail: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad check status {self.status!r}")


@dataclass(frozen=True)
class CheckReport:
    title: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in _STATUSES}
        for c in self.checks:
            out[c.status] += 1
        return out

    def summary(self) -> str:
        c = self.counts()
        return (f"{len(self.checks)} checks: {c['pass']} pass, "
                f"{c['fail']} fail, {c['skipped']} skipped, {c['info']} info")

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                       for c in self.checks],
        }


def _first_outside(target, cells):
    """Payload of the first (row, payload) cell whose ``_coords`` row,
    eliminated in place as ``contains`` does, lies outside target, or
    None.  Cells are consumed lazily: nothing after a witness is tested."""
    for row, payload in cells:
        if _eliminate(row, target._reduced):
            return payload
    return None


def _verdict(name: str, witness, describe=lambda witness: "") -> Check:
    """A pass when no witness was found, else a fail that describes it."""
    if witness is None:
        return Check(name, "pass")
    return Check(name, "fail", describe(witness))


@lru_cache(maxsize=1024)
def _walk(alpha: Matrix, k_max: int) -> tuple[int, int]:
    """(q, p) for the first repeat alpha^p = alpha^q, q < p, among the powers
    up to alpha^(k_max + 1), or (k_max + 1, k_max + 1) if none repeats there.
    Stopping at the first repeat keeps a far level cheap: ``embed --k K``
    and the double's checks build a reader up to K to read one level.
    A power is keyed with the sum of its entries' bit lengths: hash(2**j)
    repeats with period 61, and unequal powers must not chain in one bucket."""
    def key(m: Matrix):  # the sum is free of the order in which the view was built
        return m, sum(x.numerator.bit_length() + x.denominator.bit_length()
                      for row in m._sparse.values() for x in row.values())

    seen, power = {}, Matrix.identity(alpha.rows)  # key(alpha^j): j
    while (at := key(power)) not in seen and len(seen) <= k_max:
        seen[at] = len(seen)
        power = power.matmul(alpha)
    return seen.get(at, k_max + 1), len(seen)


def _reader(spec: AlgebraSpec, strict: bool, k_max: int):
    """``space(kind, k, th)``: the solved space of level k <= k_max and
    degree th, at the least j with alpha^j = alpha^k, as ``solve_space``
    reads k only through alpha^k.  Every check reads its levels here, the
    least power of a k >= q as q + (k - q) mod (p - q), (q, p) off ``_walk``."""
    if isinstance(k_max, bool) or not isinstance(k_max, int):
        raise TypeError(f"k_max must be an int, got {k_max!r}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    q, p = _walk(spec.alpha, k_max)
    return lambda kind, k, th: solve_space(
        spec, kind, k if k < q else q + (k - q) % (p - q), th, strict)


def _levels(k_max: int) -> list[tuple[int, int]]:
    """Every pair of twist powers (k, s) with k + s <= k_max, k outermost."""
    return [(k, s) for k in range(k_max + 1) for s in range(k_max - k + 1)]


@lru_cache(maxsize=1024)
def _first_product_outside(s, a, b, target):
    """The first index pair (i, w) whose products ``_product(x[c], y[c], s)``, x =
    a[i] and y = b[w], leave target, or None; s is -1 for brackets, 0 for compositions.
    One ``_join`` per component c of the ``_Basis`` rows forms every x[c] times every
    y[c]; only nonzero products are tested, in (i, w) order, as a zero lies in every
    target.  When a == b a bracket at (i, w), w < i, is +-that at (w, i), so only
    w >= i is formed.  Keyed on content: a repeat once, a changed basis afresh."""
    if not (a and b):
        return None
    n, skew, rows = b[0][0].n, s == -1 and a == b, {}
    for c, (p, g) in enumerate(zip(a._rows, b._indexed)):
        for (i, w, r), row in _join((1, p, a._odd(c), g, s), skew=skew).items():
            rows.setdefault((i, w), {}).update(((c * n + r) * n + col, v) for col, v in row.items())
    return _first_outside(target, ((rows[key], key) for key in sorted(rows)))


def _law_witness(space, sign, ka, kb, target, levels):
    """(k, s, th1, th2, g) for the first product ``_product(a, b, sign)``
    outside its target in the order (k, s, th1, th2, a, b), a from ka at
    level k and b from kb at level s, read by ``space``, or None.  ``target``
    is a fixed subspace, a kind, whose first-component span at k + s and the
    product's degree is used, or _TUPLE, whose tuple space of ka there is
    used against whole tuples; g is the first components' product, or None.
    A bracket is super-skew, so when ka and kb are one kind the cell
    (s, k, th2, th1), which comes first for (s, th2) < (k, th1), holds the
    same products up to sign and has the same target: once it passes,
    this cell passes.  A failing cell walks its own products, for its own
    first witness."""
    whole, views = target == _TUPLE, {}
    view = "_tuple_view" if whole else "_first_view"

    def read(*key):  # (kind, level, degree): that space's view, read once a call
        return views[key] if key in views else views.setdefault(key, getattr(space(*key), view))
    for k, s in levels:
        for th1, th2 in itertools.product((0, 1), repeat=2):
            a, b = read(ka, k, th1)[1], read(kb, s, th2)[1]
            if not (a and b):
                continue
            tgt = (target if isinstance(target, Subspace)
                   else read(ka if whole else target, k + s, (th1 + th2) % 2)[0])
            if (sign == -1 and ka == kb and (s, th2) < (k, th1)
                    and _first_product_outside(sign, b, a, tgt) is None):
                continue
            at = _first_product_outside(sign, a, b, tgt)
            if at is not None:
                return k, s, th1, th2, None if whole else _product(a[at[0]][0], b[at[1]][0], sign)
    return None


def _witness(g: GradedMap) -> str:
    return "witness " + format_matrix(g.matrix)


def _where(witness) -> str:
    """Levels and degrees of a payload, then its product unless None."""
    k, s, th1, th2, g = witness
    where = f"k={k}, s={s}, degrees ({th1},{th2})"
    return where if g is None else f"{where}: {format_matrix(g.matrix)}"


# (label, small, big): the first-component span of small lies in that of
# big, at every twist power and degree
_CHAIN = (
    ("ZDer <= Der", SpaceKind.ZDER, SpaceKind.DER),
    ("Der <= QDer.0", SpaceKind.DER, SpaceKind.QDER),
    ("QDer.0 <= GDer.0", SpaceKind.QDER, SpaceKind.GDER),
    ("C <= QC", SpaceKind.C, SpaceKind.QC),
    ("C <= QDer.0", SpaceKind.C, SpaceKind.QDER),
)

_TUPLE, _CENTER, _NULL = "tuple space", "maps into Z(L)", "zero"

# (label, A, B, target): [a, b] for a in A at level k and b in B at level
# s lies in the target at level k + s.  A kind as target is its
# first-component span, bracketed against first components; _TUPLE is
# the tuple space of A, bracketed component by component; _CENTER is the
# span of the maps z e_l^T with z in Z(L), the maps into the center.
_LAWS = (
    ("[Der,C] <= C", SpaceKind.DER, SpaceKind.C, SpaceKind.C),
    ("[QDer.0,QC] <= QC", SpaceKind.QDER, SpaceKind.QC, SpaceKind.QC),
    ("[QC,QC] <= QDer.0", SpaceKind.QC, SpaceKind.QC, SpaceKind.QDER),
    ("[ZDer,Der] <= ZDer", SpaceKind.ZDER, SpaceKind.DER, SpaceKind.ZDER),
    ("[C,C] <= C", SpaceKind.C, SpaceKind.C, SpaceKind.C),
    ("[QDer,QDer] <= QDer (pairs)", SpaceKind.QDER, SpaceKind.QDER, _TUPLE),
    ("[GDer,GDer] <= GDer (triples)", SpaceKind.GDER, SpaceKind.GDER, _TUPLE),
    ("[C,QC] maps into the center", SpaceKind.C, SpaceKind.QC, _CENTER),
    ("[C,QC] = 0", SpaceKind.C, SpaceKind.QC, _NULL),
)

# quasicentroid closure, [QC, QC] <= QC, which both reports observe
_QC_CLOSURE = (SpaceKind.QC, SpaceKind.QC, SpaceKind.QC)


def check_inclusion_chain(spec: AlgebraSpec, k_max: int,
                          strict: bool = True) -> CheckReport:
    """Containments among the six spaces, per twist power and degree.

    Multi-component spaces are compared through their first-component
    spans.  Violations carry the offending basis map.
    """
    space = _reader(spec, strict, k_max)
    checks, witnesses = [], {}  # one per (label, least power, degree): one pair of spaces
    for k, th, (label, small, big) in itertools.product(range(k_max + 1), (0, 1), _CHAIN):
        at = space(small, k, th)
        if (key := (label, at.k, th)) not in witnesses:
            maps = at._first_view[1]
            target = maps and space(big, k, th)._first_view[0]  # no map, no target read
            witnesses[key] = _first_outside(target, ((_coords(g), g) for g, in maps))
        checks.append(_verdict(f"{label} (k={k}, deg={th})", witnesses[key], _witness))
    return CheckReport("inclusion chain", tuple(checks))


def check_bracket_laws(spec: AlgebraSpec, k_max: int,
                       strict: bool = True) -> CheckReport:
    """Commutator and shift laws tying the operator spaces together.

    Checked on the computed bases for every k + s <= k_max and all
    degree combinations.  Laws whose hypotheses fail (surjective twist,
    trivial center) are reported as skipped rather than asserted.
    """
    space = _reader(spec, strict, k_max)
    n = spec.n
    z = center(spec)
    surjective = rank(spec.alpha) == n
    centerless = z.is_zero()
    fixed = {
        _CENTER: Subspace._from_sparse(
            n * n, ({m * n + l: x for m, x in zi.items()}
                    for zi in _pivot_rows(z._reduced) for l in range(n))),
        _NULL: Subspace.zero(n * n),
    }

    # why a law with this target is skipped, or None when it applies
    unmet = {_CENTER: None if surjective else "twist is not surjective"}
    unmet[_NULL] = unmet[_CENTER] or (None if centerless else "center is nonzero")

    checks: list[Check] = []
    for k, s in _levels(k_max):
        for label, ka, kb, kt in _LAWS:
            name = f"{label} (k={k}, s={s})"
            if unmet.get(kt):
                checks.append(Check(name, "skipped", unmet[kt]))
                continue
            checks.append(_verdict(name, _law_witness(
                space, -1, ka, kb, fixed.get(kt, kt), [(k, s)]), _where))

    # stability of every space under the shift D -> D o alpha, one law cell with
    # B = ((alpha, .., alpha),); it needs a bracket-preserving twist, so it is gated
    multiplicative, alpha = validate(spec).multiplicative_ok, GradedMap(spec.alpha, 0)
    shift = {arity: _Basis(((alpha,) * arity,)) for arity in set(_ARITY.values())}
    for k, th, kind in itertools.product(range(k_max), (0, 1), SpaceKind):
        name = f"shift {kind.value}: k={k} -> {k + 1} (deg={th})"
        if not multiplicative:
            checks.append(Check(name, "skipped",
                                "twist does not preserve the bracket"))
            continue
        tuples = space(kind, k, th)._tuple_view[1]
        at = _first_product_outside(0, tuples, shift[kind.arity],
                                    space(kind, k + 1, th)._tuple_view[0])
        checks.append(_verdict(name, at and _product(tuples[at[0]][0], alpha, 0), _witness))

    # quasicentroid closure is an observation, not a law
    open_at = _law_witness(space, -1, *_QC_CLOSURE, _levels(k_max))
    checks.append(Check("QC bracket-closed", "info",
                        "yes" if open_at is None else f"no; {_where(open_at)}"))
    vanish_label = "QC brackets vanish (closed, surjective twist, trivial center)"
    if open_at is not None:
        checks.append(Check(vanish_label, "skipped", "QC is not bracket-closed"))
    elif not (surjective and centerless):
        checks.append(Check(vanish_label, "skipped", "hypotheses unmet"))
    else:
        nonzero = _law_witness(space, -1, SpaceKind.QC, SpaceKind.QC,
                               fixed[_NULL], _levels(k_max))
        checks.append(_verdict(vanish_label, nonzero,
                               lambda w: format_matrix(w[4].matrix)))

    return CheckReport("bracket laws", tuple(checks))


def decompose_generalized(spec: AlgebraSpec, k: int, degree: int,
                          triple: Sequence[GradedMap],
                          strict: bool = True):
    """Split a generalized-derivation triple as quasiderivation plus
    quasicentroid parts.

    For (D, D1, D2) in the solved space this returns ((Dq, D2), Dc) with
    Dq = (D + D1)/2 and Dc = (D - D1)/2, so D = Dq + Dc exactly; the
    pair (Dq, D2) satisfies the quasiderivation identity and Dc the
    quasicentroid one.  Raises ValueError when the triple is not in the
    solved space.
    """
    triple = tuple(triple)
    space = solve_space(spec, SpaceKind.GDER, k, degree, strict)
    if not space_contains(space, triple):
        raise ValueError(
            "triple is not in the generalized-derivation space at this k and degree")
    d, d1, d2 = triple
    half = Fraction(1, 2)
    dq = GradedMap((d.matrix + d1.matrix).scale(half), degree)
    dc = GradedMap((d.matrix - d1.matrix).scale(half), degree)
    return (dq, d2), dc


def _jordan_pass(alpha: Matrix, elems: Sequence[GradedMap]):
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

    def odd(rows, shift=0):  # the v of rows keyed (v, r) with |v| + shift odd
        return {v for v, _ in rows if (deg[v] + shift) % 2}

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

    e = {(i, r): row for i, g in enumerate(elems) for r, row in g.matrix._sparse.items()}
    oe, tw = odd(e), _sparse_sum((1, e, av))
    tw2, twi = _index(_sparse_sum((1, tw, av)), oe), _index(tw, oe)
    pairs = _join((1, e, oe, _index(e, oe), 1), skew=True)
    deg.update({(a, b): (deg[a] + deg[b]) % 2 for a, b, _ in pairs})
    p = {((a, b), r): row for (a, b, r), row in pairs.items()}
    op, tp = odd(p), _sparse_sum((1, p, av))
    for z, g in enumerate(elems):
        dz, tz = g.degree, {(z, r): row for r, row in _sparse_sum((1, g.matrix._sparse, av)).items()}
        oz = odd(tz)
        q = {(ab, r): row for (ab, _, r), row in _join((1, p, op, _index(tz, oz), 1)).items()}
        zc = {(c, r): row for (_, c, r), row in _join((1, tz, oz, twi, 1)).items()}
        acc = {}
        for ((a, b), c, r), row in _join((1, q, odd(q, dz), tw2, 1),
                                         (-1, tp, op, _index(zc, odd(zc, dz)), 1)).items():
            for key, f in route(a, b, c, dz):
                _subtract(acc.setdefault((key, r), {}), -f, row)
        yield {key: row for key, row in acc.items() if row}


def _jordan_witness(alpha: Matrix, elems: Sequence[GradedMap]):
    """The least (x, y, z), then w, with a nonzero residual, or None; z runs
    outermost, so (0, 0) ends it.  An all-even key is sorted, its least ordering."""
    best = ()
    for z, residual in enumerate(_jordan_pass(alpha, elems)):
        if residual:
            x, y, w = min(residual)[0]
            best = min(best or (x, y, z, w), (x, y, z, w))
        if best[:2] == (0, 0):
            break
    return best or None


def hom_jordan_residual(alpha: Matrix, x: GradedMap, y: GradedMap,
                        z: GradedMap, w: GradedMap) -> Matrix:
    """Residual of the twisted super Jordan identity at four maps, tg = g alpha: the
    rows at (1, 2, 3) of the first z of ``check_qc_structure``'s pass over (z, x, y, w)."""
    rows = next(_jordan_pass(alpha, (z, x, y, w))).items()
    return Matrix._of(alpha.rows, alpha.cols, {r: row for (key, r), row in rows if key == (1, 2, 3)})


def check_qc_structure(spec: AlgebraSpec, k_max: int,
                       strict: bool = True) -> CheckReport:
    """Closure and Jordan behaviour of the quasicentroid.

    Reports bracket-closure and composition-closure over all k + s up to
    k_max, super-commutativity of the circle product, the twisted Jordan
    identity over quadruples of basis maps, and whether the two closures
    agree (they are predicted to be equivalent).
    """
    space = _reader(spec, strict, k_max)
    checks: list[Check] = []
    closed = {}
    for label, sign in (("bracket", -1), ("composition", 0)):
        open_at = _law_witness(space, sign, *_QC_CLOSURE, _levels(k_max))
        closed[label] = open_at is None
        checks.append(Check(f"QC {label}-closed", "info",
                            "yes" if open_at is None
                            else f"no (k={open_at[0]}, s={open_at[1]})"))
    checks.append(Check(
        "closure equivalence (bracket <=> composition)",
        "pass" if closed["bracket"] == closed["composition"] else "fail",
        f"bracket: {closed['bracket']}, composition: {closed['composition']}"))

    # quadruples run on the deduplicated union of all basis maps
    elems = list(dict.fromkeys(g for k in range(k_max + 1) for th in (0, 1)
                               for g, in space(SpaceKind.QC, k, th)._first_view[1]))

    # a o b = s (b o a) with s = (-1)^{|a||b|} is symmetric in (a, b), as
    # s^2 = 1, so unordered pairs find the first ordered witness
    comm_bad = next(
        ((a, b) for a, b in itertools.combinations_with_replacement(elems, 2)
         if jordan_product(a, b).matrix
         != jordan_product(b, a).matrix.scale(parity_sign(a.degree, b.degree))),
        None)
    checks.append(_verdict("circle product super-commutative", comm_bad,
                           lambda w: format_matrix(w[0].matrix)))

    # the residual is linear in each map at fixed degrees, so it vanishes on elems
    # exactly when on a basis of their span per degree, a space of them's first view;
    # the basis walk stops at its first nonzero residual, and only then walks elems
    basis = [g for th in (0, 1) for g, in MapSpace(SpaceKind.QC, 0, th, strict, spec.n, tuple(
        (g,) for g in elems if g.degree == th))._first_view[1]]
    quad = _jordan_witness(spec.alpha, elems) if any(_jordan_pass(spec.alpha, basis)) else None
    jordan_bad = quad and tuple(elems[i] for i in quad)
    checks.append(_verdict(
        "twisted Jordan identity on QC", jordan_bad,
        lambda w: " , ".join(format_matrix(g.matrix) for g in w)))

    return CheckReport("quasicentroid structure", tuple(checks))
