"""Hom-Lie superalgebras presented by structure constants.

An algebra is a graded basis e_1..e_n, a bracket table giving the
coordinates of every [e_i, e_j], and an even twist matrix acting on
coordinate columns.  A spec stores the sparse view of its nonzeros and
builds the dense table, the public format, on first read; every reader
goes through the view and one sparse bilinear product over it,
``_bracket``.  Validation checks super skew-symmetry, evenness, the
twisted Jacobi identity and multiplicativity of the twist, on basis
tuples only; bilinearity extends each identity to the whole space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .linalg import (
    _ZERO,
    Matrix,
    Rat,
    Row,
    Subspace,
    Vec,
    _columns,
    _int,
    _nonzeros,
    _sparse_sum,
    _subtract,
    nullspace,
    vec,
)


def parity_sign(a: int, b: int) -> int:
    """(-1)**(a*b) for Z2 degrees."""
    return -1 if (a * b) % 2 else 1


@dataclass(frozen=True)
class AlgebraSpec:
    """Structure-constant presentation of a Hom-Lie superalgebra.

    ``brackets[i][j]`` holds the coordinates of [e_i, e_j]; column ``i``
    of ``alpha`` is the image of e_i; ``brackets``, unless given, is built
    on first read from the stored view.  The constructor checks shapes
    only; use :func:`validate` for the axioms.
    """

    name: str
    degrees: tuple[int, ...]
    alpha: Matrix
    brackets: tuple[tuple[Vec, ...], ...]
    basis_names: tuple[str, ...] = ()

    def __post_init__(self):
        n = self._checked()
        if len(self.brackets) != n or any(len(r) != n for r in self.brackets):
            raise ValueError("bracket table must be n x n")
        if any(len(cv) != n for r in self.brackets for cv in r):
            raise ValueError("bracket coefficient vectors must have length n")
        if bad := [x for r in self.brackets for v in r for x in v
                   if isinstance(x, bool) or not isinstance(x, (int, Fraction))]:
            raise TypeError(f"not an exact rational: {bad[0]!r}")
        # {(i, j): {m: nonzero}} in (i, j) order; not a field, read-only
        self.__dict__["_sparse"] = {
            (i, j): row for i, r in enumerate(self.brackets)
            for j, v in enumerate(r) if (row := _nonzeros(v))}

    @classmethod
    def _of(cls, name: str, degrees: tuple[int, ...], alpha: Matrix,
            sparse: dict, basis_names: tuple[str, ...]) -> "AlgebraSpec":
        """A spec over a trusted view: sorted, in range, integral as int, unshared."""
        s = cls.__new__(cls)
        s.__dict__.update(name=name, degrees=degrees, alpha=alpha, _sparse=sparse,
                          basis_names=basis_names)
        s._checked()
        return s

    def _checked(self) -> int:
        """n, with grading, twist shape and unique names checked; e1..en by default."""
        n = len(self.degrees)
        if any(d not in (0, 1) for d in self.degrees):
            raise ValueError("degrees must be 0 or 1")
        if (self.alpha.rows, self.alpha.cols) != (n, n):
            raise ValueError("twist matrix must be n x n")
        if not self.basis_names:
            self.__dict__["basis_names"] = tuple(f"e{i + 1}" for i in range(n))
        elif len(self.basis_names) != n:
            raise ValueError("need one basis name per dimension")
        for i, name in enumerate(self.basis_names):
            if (j := self.basis_names.index(name)) < i:
                raise ValueError(f"basis name {i} repeats the name {name!r} of basis name {j}")
        return n

    def __eq__(self, other):  # on the views, which are equal when the tables are
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.degrees, self.alpha, self._sparse, self.basis_names)
                == (other.name, other.degrees, other.alpha, other._sparse,
                    other.basis_names))

    def __hash__(self) -> int:
        # once per spec, as for Matrix: every cached call rehashes its spec
        return self._hash

    # the dataclass hash, off the view (an int hashes as the equal Fraction)
    _hash = cached_property(lambda s: hash(
        (s.name, s.degrees, s.alpha, _table(s, 0, _int), s.basis_names)))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @classmethod
    def from_pairs(cls,
                   name: str,
                   degrees: Sequence[int],
                   alpha: Matrix | Sequence[Sequence[Rat]],
                   pairs: Mapping[tuple[int, int], Sequence[Rat]],
                   basis_names: Sequence[str] = ()) -> "AlgebraSpec":
        """Build the spec's view from brackets given for i <= j.

        Keys must have i < j, or i == j for an odd basis element (super
        skew-symmetry does not force those diagonal brackets to vanish);
        the i > j half is filled in by skew-symmetry.  A nonzero [e, e]
        on an even element is rejected.
        """
        degs = tuple(int(d) for d in degrees)
        n = len(degs)
        if not isinstance(alpha, Matrix):
            alpha = Matrix.from_rows(alpha, n)
        view: dict[tuple[int, int], Row] = {}
        for (i, j), coeffs in pairs.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bracket pair ({i},{j}) out of range")
            if i > j:
                raise ValueError(
                    f"bracket pair ({i},{j}) must have i <= j; the rest is skew")
            v = vec(coeffs)
            if len(v) != n:
                raise ValueError(f"bracket [{i},{j}] needs {n} coefficients")
            if (row := _nonzeros(v)) and i == j and degs[i] == 0:
                raise ValueError(f"[e,e] must vanish for the even basis element {i}")
            view[i, j] = row
        return cls._of(name, degs, alpha, _skew_filled(degs, view), tuple(basis_names))


def _skew_filled(degrees: Sequence[int], upper: dict) -> dict:
    """The rows at i <= j less empty ones, sorted with their i > j half by super skew-symmetry."""
    lower = {(j, i): {m: -parity_sign(degrees[i], degrees[j]) * x for m, x in row.items()}
             for (i, j), row in upper.items() if i != j}
    return {ij: row for ij, row in sorted((upper | lower).items()) if row}


def _table(s: AlgebraSpec, zero, cast) -> tuple:
    """The n x n table of bracket vectors off the view: ``cast`` of each
    nonzero, ``zero`` elsewhere (the zero vectors of a row shared)."""
    rows = [[(zero,) * s.n] * s.n for _ in range(s.n)]
    for (i, j), row in s._sparse.items():
        rows[i][j] = tuple(cast(row[m]) if m in row else zero for m in range(s.n))
    return tuple(map(tuple, rows))


# a field that _of leaves unset, so a spec that no one prints stays sparse
AlgebraSpec.brackets = cached_property(lambda s: _table(s, _ZERO, Fraction))
AlgebraSpec.brackets.__set_name__(AlgebraSpec, "brackets")


def _bracket(spec: AlgebraSpec, a: Row, b: Row, sign: int = 1) -> Row:
    """The nonzeros of sign * [a, b], sign +1 or -1, for a and b given as
    {index: nonzero}: one ``_sparse_sum`` of the products a_i b_j against
    the sparse view, so zero brackets cost nothing."""
    pairs = {(i, j): x * y for i, x in a.items() for j, y in b.items()}
    return _sparse_sum((sign, {0: pairs}, spec._sparse)).get(0, {})


def _add(*rows: Row) -> Row:
    """The nonzeros of a sum of sparse vectors."""
    out: Row = {}
    for row in rows:
        _subtract(out, -1, row)
    return out


def _dense_vec(row: Row, n: int) -> Vec:
    return vec(row.get(m, _ZERO) for m in range(n))


def bracket(spec: AlgebraSpec, u: Sequence[Rat], v: Sequence[Rat]) -> Vec:
    """[u, v] by bilinear extension of the structure constants, as a
    dense vector; ``_bracket`` does the work on the nonzeros."""
    a, b = vec(u), vec(v)
    if len(a) != spec.n or len(b) != spec.n:
        raise ValueError("vectors must match the algebra dimension")
    return _dense_vec(_bracket(spec, _nonzeros(a), _nonzeros(b)), spec.n)


@dataclass(frozen=True)
class IdentityFailure:
    """One violated identity: which, at which basis indices, residual."""

    identity: str
    indices: tuple[int, ...]
    residual: Vec


@dataclass(frozen=True)
class ValidationReport:
    skew_ok: bool
    even_ok: bool
    jacobi_ok: bool
    multiplicative_ok: bool
    failures: tuple[IdentityFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return (self.skew_ok and self.even_ok and self.jacobi_ok
                and self.multiplicative_ok)

    @property
    def axioms_ok(self) -> bool:
        """The Hom-Lie axioms alone, multiplicativity not required."""
        return self.skew_ok and self.even_ok and self.jacobi_ok

    def to_dict(self) -> dict:
        return {
            "skew_ok": self.skew_ok,
            "even_ok": self.even_ok,
            "jacobi_ok": self.jacobi_ok,
            "multiplicative_ok": self.multiplicative_ok,
            "ok": self.ok,
            "failures": [
                {"identity": f.identity, "indices": list(f.indices),
                 "residual": [str(x) for x in f.residual]}
                for f in self.failures
            ],
        }


@lru_cache(maxsize=1024)
def validate(spec: AlgebraSpec) -> ValidationReport:
    """Check every axiom on all basis tuples; failures are collected,
    never thrown, per identity in index order with dense residuals.

    Everything runs on the sparse view: evenness walks the nonzeros, skew
    the nonzero pairs and their transposes, and Jacobi only the live
    triples, those with a nonzero inner bracket, since a term whose inner
    bracket vanishes is zero.  Multiplicativity visits every pair, as
    [alpha e_i, alpha e_j] may be nonzero where [e_i, e_j] is not.
    """
    n, deg, table = spec.n, spec.degrees, spec._sparse
    acol = dict(enumerate(_columns(spec.alpha)))

    twist = [IdentityFailure("twist evenness", (m, i), vec((x,)))
             for m, row in spec.alpha._sparse.items() for i, x in sorted(row.items())
             if deg[m] != deg[i]]
    graded = [IdentityFailure("bracket evenness", (i, j, m), vec((x,)))
              for (i, j), row in table.items() for m, x in row.items()
              if deg[m] != (deg[i] + deg[j]) % 2]
    skew = [IdentityFailure("super skew-symmetry", (j, i), _dense_vec(res, n))
            for i, j in sorted(table.keys() | {(j, i) for i, j in table})
            if (res := _add(table.get((j, i), {}), _bracket(
                spec, {i: 1}, {j: 1}, parity_sign(deg[i], deg[j]))))]

    # each term (-1)^{|e_z||e_x|} [alpha e_x, [e_y, e_z]] adds its pairs to the
    # row of its rotation class, keyed by the least rotation, as the Jacobi sum
    # is the same at all three; one product with the view sums every class
    classes: dict[tuple[int, int, int], Row] = {}
    for x, ax in acol.items():
        for (y, z), inner in table.items():
            row = classes.setdefault(min((x, y, z), (y, z, x), (z, x, y)), {})
            s = parity_sign(deg[z], deg[x]) * (3 if x == y == z else 1)  # (x, x, x): 3 rotations
            for i, u in ax.items():
                for j, v in inner.items():
                    row[i, j] = row.get((i, j), 0) + s * u * v
    sums = _sparse_sum((1, classes, table))
    live = {t: c for c in sums for t in (c, (c[1], c[2], c[0]), (c[2], c[0], c[1]))}
    jacobi = [IdentityFailure("twisted Jacobi", t, _dense_vec(sums[c], n))
              for t, c in sorted(live.items())]
    # alpha [e_i, e_j] - [alpha e_i, alpha e_j], for every pair in one product
    twisted = {(i, j): {(a, b): u * v for a, u in acol[i].items() for b, v in acol[j].items()}
               for i in range(n) for j in range(n)}
    mult = [IdentityFailure("multiplicativity", ij, _dense_vec(res, n))
            for ij, res in sorted(_sparse_sum((1, table, acol), (-1, twisted, table)).items())]

    return ValidationReport(not skew, not (twist or graded), not jacobi,
                            not mult, (*twist, *graded, *skew, *jacobi, *mult))


@lru_cache(maxsize=1024)
def center(spec: AlgebraSpec) -> Subspace:
    """{v : [v, e_j] = 0 for all j}, as the kernel of the stacked
    adjoint system: row j n + m, column i holds [e_i, e_j]_m."""
    n = spec.n
    rows: dict[int, Row] = {}
    for (i, j), row in spec._sparse.items():
        for m, x in row.items():
            rows.setdefault(j * n + m, {})[i] = x
    return nullspace(Matrix._of(n * n, n, rows))


def derived_subalgebra(spec: AlgebraSpec) -> Subspace:
    """Span of all basis brackets [e_i, e_j]."""
    return Subspace._from_sparse(spec.n, (dict(row) for row in spec._sparse.values()))
