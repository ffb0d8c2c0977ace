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
from functools import cached_property, lru_cache, partial
from typing import Sequence

from .algebra import AlgebraSpec, center, parity_sign, validate
from .linalg import (
    Matrix,
    Row,
    Subspace,
    _columns,
    _eliminate,
    _int,
    _pivot_rows,
    _sparse_sum,
    _subtract,
    format_matrix,
    nullspace,
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
        """Number of maps in a tuple: one past the largest component
        index that the kind's identities mention."""
        return 1 + max(c for eq in IDENTITIES[self] for _, c, _ in eq)

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
        if self.degree not in (0, 1):
            raise ValueError("degree must be 0 or 1")

    @property
    def n(self) -> int:
        return self.matrix.rows

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
    return GradedMap(Matrix._of(a.n, a.n, _sparse_sum(*terms)), (a.degree + b.degree) % 2)


def _batched(p: GradedMap, g: dict, dg: int, s: int, sign: int = 1) -> list:
    """The ``_sparse_sum`` terms of sign (pg + s (-1)^{|p| dg} gp), for g one
    map of degree dg per w held as rows keyed (w, r): ``_product`` with its
    second argument batched, p multiplying g on the left through p's
    columns.  s is 0 or +-1, sign +-1."""
    x = p.matrix._sparse
    if not (g and x):
        return []
    return [(sign, p.matrix._cols, g)] + ([(sign * s * parity_sign(p.degree, dg), g, x)]
                                          if s else [])


def compose(a: GradedMap, b: GradedMap) -> GradedMap:
    """a after b; degrees add mod 2."""
    return _product(a, b, 0)


def supercommutator(a: GradedMap, b: GradedMap) -> GradedMap:
    """ab - (-1)^{|a||b|} ba."""
    return _product(a, b, -1)


def jordan_product(a: GradedMap, b: GradedMap) -> GradedMap:
    """ab + (-1)^{|a||b|} ba, the circle product."""
    return _product(a, b, 1)


def alpha_shift(spec: AlgebraSpec, d: GradedMap) -> GradedMap:
    """Compose with the twist on the input side, D -> D o alpha."""
    return _product(d, GradedMap(spec.alpha, 0), 0)


@dataclass(frozen=True)
class MapSpace:
    """Solved basis of one operator space at fixed twist power and degree.

    ``tuples`` is the canonical reduced basis of the solution space over
    the stacked coordinates of all components (D, then D', then D'').
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

    def as_subspace(self) -> Subspace:
        return Subspace._from_sparse(self.arity * self.n * self.n,
                                     (_coords(*t) for t in self.tuples))

    def __hash__(self) -> int:  # once per space, the dataclass hash of the fields
        return self._hash

    _hash = cached_property(lambda s: hash((s.kind, s.k, s.degree, s.strict, s.n,
                                            s.tuples)))


def _coords(*maps: GradedMap) -> Row:
    """The nonzeros of the maps' stacked entries, read off their views."""
    return {(c * g.n + r) * g.n + col: x for c, g in enumerate(maps)
            for r, row in g.matrix._sparse.items() for col, x in row.items()}


def _maps(coords: Row, n: int, arity: int, degree: int) -> tuple[GradedMap, ...]:
    """The ``arity`` maps whose ``_coords`` are ``coords``, as views only."""
    views: list[dict] = [{} for _ in range(arity)]
    for i, x in coords.items():
        c, r = divmod(i // n, n)
        views[c].setdefault(r, {})[i % n] = x
    return tuple(GradedMap(Matrix._of(n, n, v), degree) for v in views)


def space_contains(space: MapSpace, maps: Sequence[GradedMap]) -> bool:
    """Exact membership of a tuple of maps in a solved space."""
    if len(maps) != space.arity or any(g.n != space.n for g in maps):
        raise ValueError(f"{space.kind.value} expects {space.arity} maps of size "
                         f"{space.n}x{space.n}, got sizes {[g.n for g in maps]}")
    if any(g.degree != space.degree for g in maps):
        raise ValueError(f"{space.kind.value} at degree {space.degree} expects maps "
                         f"of that degree, got {[g.degree for g in maps]}")
    return not _eliminate(_coords(*maps), _spans(space, True)[0]._reduced)


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


@lru_cache(maxsize=1024)
def solve_space(spec: AlgebraSpec, kind: SpaceKind, k: int = 0,
                degree: int = 0, strict: bool = True) -> MapSpace:
    """Solve the defining linear system of one operator space.

    Unknowns are the matrix entries allowed by homogeneity at the given
    degree, for every component of the tuple; the kind's ``IDENTITIES``
    are imposed on every ordered basis pair, and strict mode adds the
    commutation constraint M alpha = alpha M per component.  The result
    is the canonical reduced basis of the solution space.
    """
    if k < 0:
        raise ValueError("twist power k must be >= 0")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    n = spec.n
    deg = spec.degrees
    arity = kind.arity

    allowed = [(c, m, l)
               for c in range(arity) for m in range(n) for l in range(n)
               if deg[m] == (deg[l] + degree) % 2]
    if not allowed:
        return MapSpace(kind, k, degree, strict, n, ())
    # the unknowns D_c[m, l] as (l, index) by (c, m), and as (m, index) by (c, l)
    by_row = [[[] for _ in range(n)] for _ in range(arity)]
    by_col = [[[] for _ in range(n)] for _ in range(arity)]
    for idx, (c, m, l) in enumerate(allowed):
        by_row[c][m].append((l, idx))
        by_col[c][l].append((m, idx))

    # right[j][l] = [e_l, a^k e_j],  left[i][l] = (-1)^{theta|e_i|} [a^k e_i, e_l],
    # each {m: nonzero}, from one pass over the nonzero brackets [e_a, e_b]
    ak = spec.alpha.power(k)._sparse
    right: list[dict[int, Row]] = [{} for _ in range(n)]
    left: list[dict[int, Row]] = [{} for _ in range(n)]
    for (a, b), vec in spec._sparse.items():
        for j, x in ak.get(b, {}).items():
            _subtract(right[j].setdefault(a, {}), -x, vec)
        for i, x in ak.get(a, {}).items():
            _subtract(left[i].setdefault(b, {}), -x * parity_sign(degree, deg[i]), vec)

    def cells(e, side, c, sign):
        """(row key (i, j, e, m), unknown, coefficient) of one term at every
        pair (e_i, e_j), over the nonzeros of its table: "right" is
        sum_l D_c[l, i] right[j][l], "left" sum_l D_c[l, j] left[i][l] and
        "eval" sum_l [e_i, e_j]_l D_c e_l."""
        if side == "eval":
            return (((i, j, e, m), idx, sign * x) for (i, j), vec in spec._sparse.items()
                    for l, x in vec.items() for m, idx in by_col[c][l])
        if side == "right":
            return (((i, j, e, m), idx, sign * x) for j, t in enumerate(right)
                    for l, vec in t.items() for i, idx in by_row[c][l] for m, x in vec.items())
        return (((i, j, e, m), idx, sign * x) for i, t in enumerate(left)
                for l, vec in t.items() for j, idx in by_row[c][l] for m, x in vec.items())

    rows = _keyed_rows(cell for e, equation in enumerate(IDENTITIES[kind])
                       for term in equation for cell in cells(e, *term))
    if strict:
        # column l of M alpha - alpha M: M (alpha e_l) - sum_p M[p,l] alpha e_p
        acol = _columns(spec.alpha)
        rows += _keyed_rows(itertools.chain(
            (((c, l, m), idx, x) for c in range(arity) for l, col in enumerate(acol)
             for p, x in col.items() for m, idx in by_col[c][p]),
            (((c, l, m), idx, -x) for c in range(arity) for p, col in enumerate(acol)
             for l, idx in by_row[c][p] for m, x in col.items())))

    kernel = _pivot_rows(nullspace(Matrix._of(len(rows), len(allowed),
                                              dict(enumerate(rows))))._reduced)
    tuples = []
    for row in kernel:
        views: list[dict] = [{} for _ in range(arity)]
        for idx, x in row.items():
            c, m, l = allowed[idx]
            views[c].setdefault(m, {})[l] = x
        tuples.append(tuple(GradedMap(Matrix._of(n, n, v), degree) for v in views))
    return MapSpace(kind, k, degree, strict, n, tuple(tuples))


def _keyed_rows(cells) -> list[Row]:
    """The nonzero rows of a system given as (key, unknown, coefficient)
    cells summed per key, in key order."""
    acc: dict = {}
    for key, idx, x in cells:
        row = acc.setdefault(key, {})
        row[idx] = row.get(idx, 0) + x
    return [row for key in sorted(acc)
            if (row := {idx: _int(x) for idx, x in acc[key].items() if x})]


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


def _first_outside(cells):
    """Payload of the first (target, row, payload) cell whose ``_coords``
    row, eliminated in place as ``contains`` does, lies outside its target,
    or None.  Cells are consumed lazily: nothing after a witness is tested."""
    for target, row, payload in cells:
        if _eliminate(row, target._reduced):
            return payload
    return None


def _verdict(name: str, witness, describe=lambda witness: "") -> Check:
    """A pass when no witness was found, else a fail that describes it."""
    if witness is None:
        return Check(name, "pass")
    return Check(name, "fail", describe(witness))


@lru_cache(maxsize=1024)
def _spans(solved: MapSpace, whole: bool) -> tuple[Subspace, tuple]:
    """(span, basis elements) of a solved space: its first-component span
    with the span's basis maps as 1-tuples, or with ``whole`` the tuple
    space with the solved tuples.  Keyed on the solved content, so a
    changed space is never served a stale span."""
    if whole:
        return solved.as_subspace(), solved.tuples
    span = project_component(solved, 0)
    return span, tuple(_maps(row, solved.n, 1, solved.degree)
                       for row in _pivot_rows(span._reduced))


def _space(spec, strict, kind, k, th, whole=False):
    """``_spans`` of the solved space of one kind, twist power and degree."""
    return _spans(solve_space(spec, kind, k, th, strict), whole)


def _levels(k_max: int) -> list[tuple[int, int]]:
    """Every pair of twist powers (k, s) with k + s <= k_max, k outermost."""
    return [(k, s) for k in range(k_max + 1) for s in range(k_max - k + 1)]


@lru_cache(maxsize=1024)
def _first_product_outside(s, a, b, target):
    """The first tuple of products ``_product(x[c], y[c], s)`` outside
    target, x in a outermost, or None; s is -1 for brackets and 0 for
    compositions.  As all y have one degree, one ``_batched`` product per
    x and component c forms x[c] times every y[c], the y[c] held as rows
    keyed (w, r).  Keyed on content: a repeated cell is answered once, and
    a changed basis is never served stale."""
    if not b:
        return None
    n, dg = b[0][0].n, b[0][0].degree
    batches = [{(w, r): row for w, y in enumerate(b)
                for r, row in y[c].matrix._sparse.items()} for c in range(len(b[0]))]
    for x in a:
        rows: list[Row] = [{} for _ in b]
        for c, (p, g) in enumerate(zip(x, batches)):
            for (w, r), row in _sparse_sum(*_batched(p, g, dg, s)).items():
                rows[w].update(((c * n + r) * n + col, v) for col, v in row.items())
        w = _first_outside((target, row, w) for w, row in enumerate(rows))
        if w is not None:
            return tuple(_product(p, q, s) for p, q in zip(x, b[w]))
    return None


def _law_witness(space, sign, ka, kb, target, levels, whole=False):
    """(k, s, th1, th2, g) for the first product ``_product(a, b, sign)``
    outside its target in the order (k, s, th1, th2, a, b), a from ka at
    level k and b from kb at level s, or None.  ``target`` is a fixed
    subspace or a kind, whose span at k + s and the product's degree is
    used.  g is the product's first component, or None for whole tuples."""
    for k, s in levels:
        for th1, th2 in itertools.product((0, 1), repeat=2):
            tgt = (target if isinstance(target, Subspace)
                   else space(target, k + s, (th1 + th2) % 2, whole)[0])
            g = _first_product_outside(sign, space(ka, k, th1, whole)[1],
                                       space(kb, s, th2, whole)[1], tgt)
            if g is not None:
                return k, s, th1, th2, None if whole else g[0]
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
    space = partial(_space, spec, strict)
    checks = [
        _verdict(f"{label} (k={k}, deg={th})",
                 _first_outside((space(big, k, th)[0], _coords(g), g)
                                for g, in space(small, k, th)[1]),
                 _witness)
        for k in range(k_max + 1) for th in (0, 1)
        for label, small, big in _CHAIN]
    return CheckReport("inclusion chain", tuple(checks))


def check_bracket_laws(spec: AlgebraSpec, k_max: int,
                       strict: bool = True) -> CheckReport:
    """Commutator and shift laws tying the operator spaces together.

    Checked on the computed bases for every k + s <= k_max and all
    degree combinations.  Laws whose hypotheses fail (surjective twist,
    trivial center) are reported as skipped rather than asserted.
    """
    n = spec.n
    z = center(spec)
    surjective = rank(spec.alpha) == n
    centerless = z.is_zero()
    space = partial(_space, spec, strict)
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
            whole = kt == _TUPLE
            checks.append(_verdict(name, _law_witness(
                space, -1, ka, kb,
                ka if whole else fixed.get(kt, kt), [(k, s)], whole), _where))

    # stability of every space under the shift D -> D o alpha; this one
    # genuinely needs a bracket-preserving twist, so it is gated
    multiplicative = validate(spec).multiplicative_ok
    for k, th, kind in itertools.product(range(k_max), (0, 1), SpaceKind):
        name = f"shift {kind.value}: k={k} -> {k + 1} (deg={th})"
        if not multiplicative:
            checks.append(Check(name, "skipped",
                                "twist does not preserve the bracket"))
            continue
        shifted = (tuple(alpha_shift(spec, g) for g in t)
                   for t in solve_space(spec, kind, k, th, strict).tuples)
        checks.append(_verdict(name, _first_outside(
            (space(kind, k + 1, th, True)[0], _coords(*t), t[0])
            for t in shifted), _witness))

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


def _jordan_engine(alpha: Matrix, elems: Sequence[GradedMap]):
    """The residual of the twisted super Jordan identity at (x, y, z, w),
    elems by index: with tw g = g alpha, the signed sum over (a, b, c) in
    (x, y, w), (y, w, x), (w, x, y) of ((a o b) o tw z) o tw^2 c -
    tw(a o b) o (tw z o tw c).  Linear in w at each degree of w, it is
    formed for every w at once: engine(z)(x, y) holds its nonzero rows,
    keyed (w, r).  The factors without z are made once per engine, those
    with z once per engine(z)."""
    if alpha.rows != alpha.cols or any(g.n != alpha.rows for g in elems):
        raise ValueError("ambient dimension mismatch")
    av, a1 = alpha._sparse, GradedMap(alpha, 0)
    tw = [_product(g, a1, 0) for g in elems]
    tw2 = [_product(g, a1, 0) for g in tw]
    xy = [[_product(g, h, 1) for h in elems] for g in elems]
    tw_xy = [[_product(g, a1, 0) for g in row] for row in xy]

    def twist(rows):
        return _sparse_sum((1, rows, av))

    # per degree d held, every w of degree d keyed (w, r): (d, w alpha,
    # w alpha^2, g o w for every g, and its twist); w o g is read as
    # (-1)^{|w||g|} g o w
    batches = []
    for d in (0, 1):
        w = {(i, r): row for i, g in enumerate(elems) if g.degree == d
             for r, row in g.matrix._sparse.items()}
        if w:
            gw = [_sparse_sum(*_batched(g, w, d, 1)) for g in elems]
            batches.append((d, twist(w), twist(twist(w)), gw, [twist(v) for v in gw]))

    def at(z):
        dz, twz = elems[z].degree, tw[z]
        zc = [_product(twz, g, 1) for g in tw]
        # per degree d held: tw z o tw w, and (g o w) o tw z for every g
        with_z = [(_sparse_sum(*_batched(twz, wa, d, 1)),
                   [_sparse_sum(*_batched(twz, v, g.degree + d, 1,
                                          parity_sign(g.degree + d, dz)))
                    for g, v in zip(elems, gw)])
                  for d, wa, _, gw, _ in batches]

        def residual(x, y):
            dx, dy = elems[x].degree, elems[y].degree
            inner = _product(xy[x][y], twz, 1)
            out = {}
            for (d, _, wa2, _, tw_gw), (zw, gw_z) in zip(batches, with_z):
                # the three signs of the sum, once w o x is read as x o w and
                # each circle g o p with g batched as (-1)^{|g||p|} p o g
                s1, s2, s3 = (parity_sign(dz, dx + d), parity_sign(dx, d),
                              parity_sign(dx, d + dy))
                u = parity_sign(dz, dx + dy + d)
                out |= _sparse_sum(
                    *_batched(inner, wa2, d, 1, s1),
                    *_batched(tw_xy[x][y], zw, dz + d, 1, -s1),
                    *_batched(tw2[x], gw_z[y], dy + d + dz, 1, s2),
                    *_batched(zc[x], tw_gw[y], dy + d, 1, -u * s2),
                    *_batched(tw2[y], gw_z[x], dx + d + dz, 1, s3),
                    *_batched(zc[y], tw_gw[x], dx + d, 1, -u * s3))
            return out

        return residual

    return at


def _jordan_witness(alpha: Matrix, elems: Sequence[GradedMap]):
    """The first quadruple of indices into elems, in ``itertools.product``
    order, with a nonzero residual, or None; z runs outermost."""
    engine, best = _jordan_engine(alpha, elems), None
    for z in range(len(elems)):
        residual = engine(z)
        for x, y in itertools.product(range(len(elems)), repeat=2):
            if (best is None or (x, y, z) < best[:3]) and (rows := residual(x, y)):
                best = (x, y, z, min(w for w, _ in rows))
    return best


def hom_jordan_residual(alpha: Matrix, x: GradedMap, y: GradedMap,
                        z: GradedMap, w: GradedMap) -> Matrix:
    """Residual of the twisted super Jordan identity at four maps, the
    twist acting on maps by composition with alpha on the input side: the
    rows at w of the engine that ``check_qc_structure`` runs."""
    rows = _jordan_engine(alpha, (x, y, z, w))(2)(0, 1).items()
    return Matrix._of(alpha.rows, alpha.cols, {r: row for (i, r), row in rows if i == 3})


def check_qc_structure(spec: AlgebraSpec, k_max: int,
                       strict: bool = True) -> CheckReport:
    """Closure and Jordan behaviour of the quasicentroid.

    Reports bracket-closure and composition-closure over all k + s up to
    k_max, super-commutativity of the circle product, the twisted Jordan
    identity over quadruples of basis maps, and whether the two closures
    agree (they are predicted to be equivalent).
    """
    space = partial(_space, spec, strict)
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

    # quadruple checks run on the deduplicated union of all basis maps
    elems = list(dict.fromkeys(g for k in range(k_max + 1) for th in (0, 1)
                               for g, in space(SpaceKind.QC, k, th)[1]))

    # a o b = s (b o a) with s = (-1)^{|a||b|} is symmetric in (a, b), as
    # s^2 = 1, so unordered pairs find the first ordered witness
    comm_bad = next(
        ((a, b) for a, b in itertools.combinations_with_replacement(elems, 2)
         if jordan_product(a, b).matrix
         != jordan_product(b, a).matrix.scale(parity_sign(a.degree, b.degree))),
        None)
    checks.append(_verdict("circle product super-commutative", comm_bad,
                           lambda w: format_matrix(w[0].matrix)))

    # the residual is linear in each map at fixed degrees, so it vanishes
    # on elems exactly when on a basis of their span per degree; only a
    # failing basis sends the walk over elems, for the first witness
    n = spec.n
    basis = [_maps(row, n, 1, th)[0] for th in (0, 1) for row in _pivot_rows(
        Subspace._from_sparse(n * n, (_coords(g) for g in elems
                                      if g.degree == th))._reduced)]
    quad = _jordan_witness(spec.alpha, basis) and _jordan_witness(spec.alpha, elems)
    jordan_bad = quad and tuple(elems[i] for i in quad)
    checks.append(_verdict(
        "twisted Jordan identity on QC", jordan_bad,
        lambda w: " , ".join(format_matrix(g.matrix) for g in w)))

    return CheckReport("quasicentroid structure", tuple(checks))
