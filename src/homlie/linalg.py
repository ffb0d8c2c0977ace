"""Exact linear algebra over the rational numbers.

Row reduction, nullspaces and the subspace lattice (membership, sum,
intersection) are exact.  They run on sparse rows {col: nonzero}, as the
solver's systems are under 1% nonzero, which hold integral values as
``int``, some 20 times cheaper than :class:`fractions.Fraction`.  A
matrix holds only its view {row: {col: nonzero}}, a subspace only its
canonical reduced rows; dense ``Fraction`` entries and bases are built
on first read.  One sparse Gauss-Jordan, ``_reduce`` (unique, so pivot
order is free), answers every elimination.  A sum reduces the stacked
rows, an intersection the Zassenhaus rows [a | a] over [b | 0], and
membership runs the elimination step on the stored rows.  One routine,
``_sparse_sum``, forms every product of two maps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Rat = int | str | Fraction
Vec = tuple[Fraction, ...]
Row = dict[int, int | Fraction]  # a sparse row: column -> nonzero, int if integral

_ZERO = Fraction(0)
_ONE = Fraction(1)
# as str(Fraction) writes; Fraction alone takes "1e1000000" as a huge integer
_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def frac(value: Rat) -> Fraction:
    """Coerce an int, a "p" or "p/q" string or a Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _LITERAL.fullmatch(value):
            raise ValueError(f"bad rational literal {value!r}: expected p or p/q")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}: {exc}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def vec(values: Iterable[Rat]) -> Vec:
    return tuple(frac(v) for v in values)


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix of Fractions, holding its sparse view from
    construction: row-major ``entries``, unless given, are built from it on
    first read; ``==`` compares views."""

    rows: int
    cols: int
    entries: Vec

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}")
        if bad := [x for x in self.entries
                      if isinstance(x, bool) or not isinstance(x, (int, Fraction))]:
            raise TypeError(f"not an exact rational: {bad[0]!r}")
        # the view, nonzero rows only; not a field, read-only
        self.__dict__["_sparse"] = {
            r: row for r in range(self.rows) if (row := _nonzeros(self.row(r)))}

    @classmethod
    def _of(cls, rows: int, cols: int, sparse: dict[int, Row]) -> "Matrix":
        """A matrix over a trusted view: nonzeros in range, integral as int, unshared."""
        m = cls.__new__(cls)
        d = m.__dict__  # keys written straight in: cheaper than update(**keywords)
        d["rows"], d["cols"], d["_sparse"] = rows, cols, sparse
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[Rat]], cols: int | None = None) -> "Matrix":
        parsed = [vec(r) for r in data]
        if parsed:
            width = len(parsed[0])
            if any(len(r) != width for r in parsed):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
            cols = width
        elif cols is None:
            cols = 0
        return cls(len(parsed), cols, tuple(x for r in parsed for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 0:
            raise ValueError("matrix dimensions must be non-negative")
        return cls._of(n, n, {i: {i: 1} for i in range(n)})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self._sparse) == (other.rows, other.cols, other._sparse)

    def __hash__(self) -> int:
        # once per matrix, off the view (an int hashes as the equal Fraction)
        return self._hash

    _hash = cached_property(lambda m: hash((m.rows, m.cols, _scatter(m, 0, _int))))

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> Vec:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matmul shape mismatch")
        return Matrix._of(self.rows, other.cols,
                          _sparse_sum((1, self._sparse, other._sparse)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch")
        view = {r: dict(row) for r, row in self._sparse.items()}
        for r, row in other._sparse.items():
            _subtract(view.setdefault(r, {}), -1, row)
        return Matrix._of(self.rows, self.cols, {r: row for r, row in view.items() if row})

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, s: Rat) -> "Matrix":
        f = _int(frac(s))
        return Matrix._of(self.rows, self.cols, {
            r: {c: _int(f * x) for c, x in row.items()}
            for r, row in self._sparse.items()} if f else {})

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        out, square = None, self  # by squaring from the lowest set bit, which is out
        while k:
            out, k = (square if out is None else out.matmul(square)) if k & 1 else out, k >> 1
            square = square.matmul(square) if k else square
        return Matrix.identity(self.rows) if out is None else out

    def is_zero(self) -> bool:
        return not self._sparse


# a field that _of leaves unset, so a product that no one reads stays sparse
Matrix.entries = cached_property(lambda m: _scatter(m, _ZERO, Fraction))
Matrix.entries.__set_name__(Matrix, "entries")


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    low = {r + a.rows: {c + a.cols: x for c, x in row.items()}
           for r, row in b._sparse.items()}
    return Matrix._of(a.rows + b.rows, a.cols + b.cols,
                      {r: dict(row) for r, row in a._sparse.items()} | low)


def _int(x):
    """x as an ``int`` when integral, as sparse rows hold it."""
    return x.numerator if x.denominator == 1 else x


def _scatter(m: Matrix, zero, cast) -> tuple:
    """m's entries row-major off its view: ``cast`` of each, ``zero`` elsewhere."""
    out = [zero] * (m.rows * m.cols)
    for r, row in m._sparse.items():
        for c, x in row.items():
            out[r * m.cols + c] = cast(x)
    return tuple(out)


def _nonzeros(row: Sequence[Fraction]) -> Row:
    # zeros built here are the one _ZERO, and `is` is cheaper than truth
    return {c: _int(x) for c, x in enumerate(row) if x is not _ZERO and x}


def _columns(m: Matrix) -> list[Row]:
    """m's columns off its view, each as {row: nonzero}, zero columns empty."""
    cols: list[Row] = [{} for _ in range(m.cols)]
    for r, row in m._sparse.items():
        for c, x in row.items():
            cols[c][r] = x
    return cols


def _sparse_sum(*terms) -> dict[int, Row]:
    """The nonzeros of sum(sign * ab) over (sign, a, b), for sparse maps
    {row: {col: nonzero}} and sign +1 or -1: empty exactly when zero; only
    a nonempty row of b is read, and only it opens a row of the sum."""
    acc: dict = {}
    for sign, a, b in terms:
        for r, arow in a.items():
            for k, x in arow.items():
                if brow := b.get(k):
                    out = acc.setdefault(r, {})
                    for c, y in brow.items():
                        out[c] = out.get(c, 0) + (x * y if sign > 0 else -x * y)
    rows = {r: {c: _int(x) for c, x in row.items() if x} for r, row in acc.items()}
    return {r: row for r, row in rows.items() if row}


def _subtract(row: Row, f, other: Row) -> None:
    """row -= f * other, in place, keeping only the nonzeros."""
    for c, x in other.items():
        y = row.get(c, 0) - f * x
        if y:
            row[c] = _int(y)
        else:
            del row[c]


def _eliminate(row: Row, done: Mapping[int, Row]) -> Row:
    """row, in place, less its part along the pivot rows of ``_reduce``
    (which hold no other pivot): empty exactly when row is in their span."""
    for p in [c for c in row if c in done]:
        _subtract(row, row.pop(p), done[p])
    return row


def _reduce(rows: Iterable[Row]) -> dict[int, Row]:
    """Sparse Gauss-Jordan: the RREF rows of the rows' span (the rows are
    consumed) by pivot column, without their leading 1.  Each new row is
    eliminated against the pivot rows, scaled (a pivot of +-1 needs no
    inverse), and cleared from them if ``held`` says one can hold its lead."""
    done, held = {}, set()  # {pivot: row}, and a superset of the columns the rows hold
    for row in rows:
        if _eliminate(row, done):
            lead = min(row)
            pivot = row.pop(lead)
            if pivot != 1:
                inv = -1 if pivot == -1 else _ONE / pivot
                row = {c: _int(x * inv) for c, x in row.items()}
            for other in done.values() if lead in held else ():
                if lead in other:
                    _subtract(other, other.pop(lead), row)
            held.update(row)
            done[lead] = row
    return done


def _pivot_rows(done: Mapping[int, Row]) -> list[Row]:
    """Fresh copies of ``_reduce``'s pivot rows by pivot, leading 1 included."""
    return [{p: 1} | done[p] for p in sorted(done)]


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    """(R, pivot columns, rank): R is the RREF of m, zero rows last."""
    done = _reduce(dict(row) for row in m._sparse.values())
    reduced = Matrix._of(m.rows, m.cols, dict(enumerate(_pivot_rows(done))))
    return reduced, tuple(sorted(done)), len(done)


def rank(m: Matrix) -> int:
    return len(_reduce(dict(row) for row in m._sparse.values()))


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, stored as its canonical reduced rows: the
    constructor reduces the basis it is given and keeps only the rows, and
    ``basis``, the canonical RREF basis, is built from them on first read.
    ``==``, the hash, ``dim`` and ``is_zero`` read the rows."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    def __post_init__(self):
        rows = [vec(row) for row in self.basis]
        if any(len(row) != self.ambient_dim for row in rows):
            raise ValueError("basis row length does not match ambient dimension")
        # {pivot: row without its leading 1}; not a field, read-only
        self.__dict__["_reduced"] = _reduce(map(_nonzeros, rows))
        del self.__dict__["basis"]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Rat]]) -> "Subspace":
        return cls(ambient_dim, tuple(vectors))

    @classmethod
    def _of(cls, ambient_dim: int, reduced: dict[int, Row]) -> "Subspace":
        """A subspace over trusted canonical rows, as ``_reduce`` leaves them."""
        s = cls.__new__(cls)
        s.__dict__.update(ambient_dim=ambient_dim, _reduced=reduced)
        return s

    @classmethod
    def _from_sparse(cls, ambient_dim: int, rows: Iterable[Row]) -> "Subspace":
        """The span of sparse rows, which one ``_reduce`` consumes."""
        return cls._of(ambient_dim, _reduce(rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_sparse(ambient_dim, ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient_dim, self._reduced) == (other.ambient_dim, other._reduced)

    def __hash__(self) -> int:
        return self._hash

    # once per subspace, off the rows (an int hashes as the equal Fraction)
    _hash = cached_property(lambda s: hash((s.ambient_dim, frozenset(
        (p, frozenset(row.items())) for p, row in s._reduced.items()))))

    @property
    def dim(self) -> int:
        return len(self._reduced)

    def is_zero(self) -> bool:
        return not self._reduced


# a field that the constructors leave unset: the RREF rows, built on first read
Subspace.basis = cached_property(lambda s: tuple(
    tuple(Fraction(row[c]) if c in row else _ZERO for c in range(s.ambient_dim))
    for row in _pivot_rows(s._reduced)))
Subspace.basis.__set_name__(Subspace, "basis")


def contains(s: Subspace, v: Sequence[Rat]) -> bool:
    """Exact membership, decided by eliminating v against the reduced rows."""
    w = vec(v)
    if len(w) != s.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    return not _eliminate(_nonzeros(w), s._reduced)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rows = _pivot_rows(a._reduced) + _pivot_rows(b._reduced)
    return Subspace._from_sparse(a.ambient_dim, rows)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by the Zassenhaus algorithm: one reduction of stacked rows.

    The rows [a_i | a_i] and [b_j | 0] span {(x + y, x) : x in a, y in b};
    the pivot rows past column n vanish on the left and carry the
    canonical basis of a ^ b on the right.  The dimension formula dim a +
    dim b = dim(a+b) + dim(a^b) is checked on the way out (RuntimeError).
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    left = [row | {c + n: x for c, x in row.items()} for row in _pivot_rows(a._reduced)]
    done = _reduce(left + _pivot_rows(b._reduced))
    inter = Subspace._from_sparse(n, ({p - n: 1} | {c - n: x for c, x in row.items()}
                                      for p, row in done.items() if p >= n))
    if a.dim + b.dim != subspace_sum(a, b).dim + inter.dim:
        raise RuntimeError("subspace intersection violates the dimension formula")
    return inter


def _kernel(rows: Iterable[Row], labels: Sequence[int]) -> dict[int, Row]:
    """The right kernel's canonical rows by free unknown f, less their leading 1, of rows
    whose column c stands for unknown w - c, w = len(labels) - 1, each unknown written at
    its label, which increases with it: e_f - sum_p R[p, f] e_p over the pivot rows R[p]
    of one ``_reduce`` (consuming rows), each p right of f and no free unknown."""
    w = len(labels) - 1
    done = _reduce(rows)
    kernel: dict[int, Row] = {labels[f]: {} for f in range(w + 1) if w - f not in done}
    for p, row in done.items():
        for c, x in row.items():
            kernel[labels[w - c]][labels[w - p]] = -x
    return kernel


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of the right kernel {v : m v = 0}, by ``_kernel`` of m's view."""
    w = m.cols - 1
    return Subspace._of(m.cols, _kernel(
        ({w - c: x for c, x in row.items()} for row in m._sparse.values()), range(m.cols)))


def format_vec(v: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def format_matrix(m: Matrix) -> str:
    return "[" + "; ".join(" ".join(str(x) for x in m.row(r)) for r in range(m.rows)) + "]"
