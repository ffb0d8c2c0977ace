"""Hom-Lie superalgebras presented by structure constants.

An algebra is a graded basis e_1..e_n, a bracket table giving the
coordinates of every [e_i, e_j], and an even twist matrix acting on
coordinate columns.  Validation checks super skew-symmetry, evenness,
the twisted Jacobi identity and multiplicativity of the twist, on basis
tuples only; bilinearity extends each identity to the whole space, so
that is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .linalg import (
    Matrix,
    Rat,
    Subspace,
    Vec,
    is_zero_vec,
    nullspace,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vec,
)


def parity_sign(a: int, b: int) -> int:
    """(-1)**(a*b) for Z2 degrees."""
    return -1 if (a * b) % 2 else 1


@dataclass(frozen=True)
class AlgebraSpec:
    """Structure-constant presentation of a Hom-Lie superalgebra.

    ``brackets[i][j]`` holds the coordinates of [e_i, e_j]; column ``i``
    of ``alpha`` is the image of e_i.  The constructor checks shapes
    only; use :func:`validate` for the axioms.
    """

    name: str
    degrees: tuple[int, ...]
    alpha: Matrix
    brackets: tuple[tuple[Vec, ...], ...]
    basis_names: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.degrees)
        if any(d not in (0, 1) for d in self.degrees):
            raise ValueError("degrees must be 0 or 1")
        if (self.alpha.rows, self.alpha.cols) != (n, n):
            raise ValueError("twist matrix must be n x n")
        if len(self.brackets) != n or any(len(r) != n for r in self.brackets):
            raise ValueError("bracket table must be n x n")
        if any(len(cv) != n for r in self.brackets for cv in r):
            raise ValueError("bracket coefficient vectors must have length n")
        if not self.basis_names:
            object.__setattr__(self, "basis_names",
                               tuple(f"e{i + 1}" for i in range(n)))
        elif len(self.basis_names) != n:
            raise ValueError("need one basis name per dimension")

    def __hash__(self) -> int:
        # once per spec, as for Matrix: every cached call rehashes its spec
        return self._hash

    _hash = cached_property(lambda s: hash(
        (s.name, s.degrees, s.alpha, s.brackets, s.basis_names)))

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
        """Build the full table from brackets given for i <= j.

        Keys must have i < j, or i == j for an odd basis element (super
        skew-symmetry does not force those diagonal brackets to vanish);
        the i > j half is filled in by skew-symmetry.  A nonzero [e, e]
        on an even element is rejected.
        """
        degs = tuple(int(d) for d in degrees)
        n = len(degs)
        if not isinstance(alpha, Matrix):
            alpha = Matrix.from_rows(alpha, n)
        table: list[list[Vec]] = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in pairs.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bracket pair ({i},{j}) out of range")
            if i > j:
                raise ValueError(
                    f"bracket pair ({i},{j}) must have i <= j; the rest is skew")
            v = vec(coeffs)
            if len(v) != n:
                raise ValueError(f"bracket [{i},{j}] needs {n} coefficients")
            if i == j:
                if degs[i] == 0 and not is_zero_vec(v):
                    raise ValueError(
                        f"[e,e] must vanish for the even basis element {i}")
                table[i][i] = v
            else:
                table[i][j] = v
                s = parity_sign(degs[i], degs[j])
                table[j][i] = tuple(-s * x for x in v)
        return cls(name, degs, alpha, tuple(tuple(r) for r in table),
                   tuple(basis_names))


def bracket(spec: AlgebraSpec, u: Sequence[Rat], v: Sequence[Rat]) -> Vec:
    """[u, v] by bilinear extension of the structure constants."""
    a, b = vec(u), vec(v)
    if len(a) != spec.n or len(b) != spec.n:
        raise ValueError("vectors must match the algebra dimension")
    out = [Fraction(0)] * spec.n
    for i, ai in enumerate(a):
        if not ai:
            continue
        row = spec.brackets[i]
        for j, bj in enumerate(b):
            if not bj:
                continue
            f = ai * bj
            for m, cm in enumerate(row[j]):
                if cm:
                    out[m] += f * cm
    return tuple(out)


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
    never thrown."""
    n, deg = spec.n, spec.degrees
    failures: list[IdentityFailure] = []

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
            if not is_zero_vec(res):
                skew_ok = False
                failures.append(IdentityFailure(
                    "super skew-symmetry", (j, i), res))

    acol = [spec.alpha.col(i) for i in range(n)]

    jacobi_ok = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = vscale(parity_sign(deg[k], deg[i]),
                            bracket(spec, acol[i], spec.brackets[j][k]))
                t2 = vscale(parity_sign(deg[i], deg[j]),
                            bracket(spec, acol[j], spec.brackets[k][i]))
                t3 = vscale(parity_sign(deg[j], deg[k]),
                            bracket(spec, acol[k], spec.brackets[i][j]))
                res = vadd(vadd(t1, t2), t3)
                if not is_zero_vec(res):
                    jacobi_ok = False
                    failures.append(IdentityFailure(
                        "twisted Jacobi", (i, j, k), res))

    mult_ok = True
    for i in range(n):
        for j in range(n):
            res = vsub(spec.alpha.matvec(spec.brackets[i][j]),
                       bracket(spec, acol[i], acol[j]))
            if not is_zero_vec(res):
                mult_ok = False
                failures.append(IdentityFailure(
                    "multiplicativity", (i, j), res))

    return ValidationReport(skew_ok, even_ok, jacobi_ok, mult_ok,
                            tuple(failures))


@lru_cache(maxsize=1024)
def center(spec: AlgebraSpec) -> Subspace:
    """{v : [v, e_j] = 0 for all j}, as the kernel of the stacked
    adjoint system."""
    n = spec.n
    rows = [[spec.brackets[i][j][m] for i in range(n)]
            for j in range(n) for m in range(n)]
    if not rows:
        return Subspace.full(n)
    return nullspace(Matrix.from_rows(rows, n))


def derived_subalgebra(spec: AlgebraSpec) -> Subspace:
    """Span of all basis brackets [e_i, e_j]."""
    return Subspace.from_vectors(
        spec.n,
        [spec.brackets[i][j] for i in range(spec.n) for j in range(spec.n)])

