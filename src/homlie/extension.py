"""Doubling a Hom-Lie superalgebra along nilpotent polynomial degrees.

For a base algebra L the extended algebra lives on two copies of L,
formal multiples of t and t^2 with t^3 = 0, carrying the bracket
[x t^i, y t^j] = [x, y] t^{i+j} and the twist acting copy-wise.  A
quasiderivation pair (D, D') of the base embeds as an endomorphism of
the double (D on the t copy, D' composed with the projection onto [L, L]
along a complement, both read off one reduction, on the t^2 copy) which
is in fact a derivation of the double; for centerless bases with
invertible twist the derivations of the double split as the embedded
quasiderivations plus the central derivations, and that split is
verified here per twist power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraSpec, center, derived_subalgebra, validate
from .linalg import (
    Matrix,
    Subspace,
    _columns,
    _pivot_rows,
    _reduce,
    block_diag,
    rank,
    subspace_sum,
)
from .spaces import (
    Check,
    CheckReport,
    GradedMap,
    SpaceKind,
    _coords,
    _first_outside,
    _reader,
    _verdict,
    solve_space,
    space_contains,
)


@dataclass(frozen=True)
class ExtendedAlgebra:
    """The 2n-dimensional double of ``base``.

    ``spec`` orders the basis as e_1 t .. e_n t, e_1 t^2 .. e_n t^2;
    ``derived`` is [L, L] of the base, ``u_complement`` the chosen
    graded complement with base = u_complement (+) [L, L], and
    ``projection`` the projector of the base onto [L, L] along it.
    """

    base: AlgebraSpec
    spec: AlgebraSpec
    derived: Subspace
    u_complement: Subspace
    projection: Matrix


def build_extended(base: AlgebraSpec) -> ExtendedAlgebra:
    """Construct the t-graded double of a validated base algebra.

    The complement of [L, L] is spanned by the standard basis vectors
    e_j, j the last nonzero coordinate of no vector of [L, L]: the greedy
    choice in ascending index order, which keeps it graded and makes the
    construction reproducible; the projector comes from the same reduction.
    """
    report = validate(base)
    if not report.axioms_ok:
        bad = sorted({f.identity for f in report.failures})
        raise ValueError("base algebra fails validation: " + ", ".join(bad))
    n = base.n
    degrees = base.degrees + base.degrees
    alpha = block_diag(base.alpha, base.alpha)
    # [e_i t, e_j t] = [e_i, e_j] t^2: the base's view in the t^2 copy
    view = {ij: {n + m: x for m, x in row.items()} for ij, row in base._sparse.items()}
    names = tuple(f"{nm}t" for nm in base.basis_names) + \
        tuple(f"{nm}t2" for nm in base.basis_names)
    spec = AlgebraSpec._of(f"{base.name}_ext", degrees, alpha, view, names)

    derived = derived_subalgebra(base)
    return ExtendedAlgebra(base, spec, derived, *_split(derived))


def _split(derived: Subspace) -> tuple[Subspace, Matrix]:
    """The greedy complement of ``derived`` and the projector onto
    ``derived`` along it, off one ``_reduce`` of its rows with the columns
    reversed: pivot row j is the d_j in ``derived`` that ends at j, nonzero
    elsewhere only off the pivots, so the e_u, u no pivot, span the
    complement, P e_j = d_j and P e_u = 0."""
    n = derived.ambient_dim
    last = _reduce({n - 1 - c: x for c, x in row.items()}
                   for row in _pivot_rows(derived._reduced))
    ends = {n - 1 - p: {n - 1 - p: 1} | {n - 1 - c: x for c, x in row.items()}
            for p, row in last.items()}
    # column j of P is d_j, so row m of P is column m of the rows d_j
    rows = _columns(Matrix._of(n, n, ends))
    return (Subspace._of(n, {u: {} for u in range(n) if u not in ends}),
            Matrix._of(n, n, {m: row for m, row in enumerate(rows) if row}))


def phi(ext: ExtendedAlgebra, pair, k: int, strict: bool = True) -> GradedMap:
    """Embed a quasiderivation pair into the endomorphisms of the double.

    Acts as D on the t copy, as D' composed with the projection onto
    [L, L] on the t^2 copy, and as zero on the complement's t^2 part.
    Raises ValueError when the pair is not in the solved space at k.
    """
    d, dp = pair
    if d.degree != dp.degree:
        raise ValueError("pair components must share a degree")
    space = solve_space(ext.base, SpaceKind.QDER, k, d.degree, strict)
    if not space_contains(space, (d, dp)):
        raise ValueError(
            "pair is not in the quasiderivation space at this k and degree")
    return _phi_unchecked(ext, pair)


def _phi_unchecked(ext: ExtendedAlgebra, pair) -> GradedMap:
    d, dp = pair
    return GradedMap._of(block_diag(d.matrix, dp.matrix.matmul(ext.projection)),
                         d.degree)


def verify_phi_properties(ext: ExtendedAlgebra, k: int,
                          strict: bool = True) -> CheckReport:
    """Well-definedness, injectivity and derivation membership of phi.

    (a) pairs sharing a first component have partners that agree on
    [L, L]; (b) the image span has the dimension of the first-component
    span and any vanishing image combination has vanishing first
    component; (c) every image lies in the solved derivation space of
    the double at the same k.
    """
    of_base, of_double = _reader(ext.base, strict, k), _reader(ext.spec, strict, k)
    n = ext.base.n
    big = 2 * n
    checks: list[Check] = []

    for th in (0, 1):
        qspace = of_base(SpaceKind.QDER, k, th)
        tag = f"(k={k}, deg={th})"
        images = [_phi_unchecked(ext, (t[0], t[1])) for t in qspace.tuples]
        img_span = Subspace._from_sparse(big * big, map(_coords, images))
        first_span = qspace._first_view[0]
        with_first = Subspace._from_sparse(big * big + n * n, (
            _coords(g) | {big * big + c: x for c, x in _coords(t[0]).items()}
            for g, t in zip(images, qspace.tuples)))

        # (a) phi(D, D') = diag(D, D' P), P onto [L, L]: D = 0 forces D' = 0
        # on [L, L] exactly when the images add no rank to the first components
        checks.append(Check(f"partner determined on [L,L] {tag}",
                            "pass" if with_first.dim == first_span.dim else "fail"))

        # (b) injectivity on first components
        checks.append(Check(
            f"phi image dimension equals first-component dimension {tag}",
            "pass" if img_span.dim == first_span.dim else "fail",
            f"image {img_span.dim}, first component {first_span.dim}"))
        # a vanishing image combination has a vanishing first component
        # exactly when appending the first components adds no rank
        checks.append(Check(
            f"vanishing phi image forces vanishing first component {tag}",
            "pass" if with_first.dim == img_span.dim else "fail"))

        # (c) containment in the derivations of the double
        der_span = of_double(SpaceKind.DER, k, th)._first_view[0]
        checks.append(_verdict(
            f"phi(QDer) inside Der(double) {tag}",
            _first_outside(der_span, ((_coords(g), g) for g in images))))
    return CheckReport("phi properties", tuple(checks))


def _phi_span(ext: ExtendedAlgebra, of_base, k: int) -> Subspace:
    big = 2 * ext.base.n
    return Subspace._from_sparse(big * big, (
        _coords(_phi_unchecked(ext, (t[0], t[1]))) for th in (0, 1)
        for t in of_base(SpaceKind.QDER, k, th).tuples))


def _total_span(of_double, kind: SpaceKind, k: int) -> Subspace:
    """Both degrees' spans summed: their entries are disjoint, so their rows' union is canonical."""
    even, odd = (of_double(kind, k, th)._first_view[0] for th in (0, 1))
    return Subspace._of(even.ambient_dim, even._reduced | odd._reduced)


def verify_embedding_decomposition(ext: ExtendedAlgebra, k: int) -> CheckReport:
    """Check Der(double) = phi(QDer) (+) ZDer(double) at one twist power.

    Needs a centerless base with invertible twist; when those hypotheses
    fail the checks are reported as skipped, never asserted.  The check
    runs in strict and lax modes and reports both.
    """
    base = ext.base
    n = base.n
    # the base's and the double's spaces per mode; k is checked on every base
    modes = [(strict, _reader(base, strict, k), _reader(ext.spec, strict, k))
             for strict in (True, False)]
    checks: list[Check] = []

    # the t^2 copy is always central in the double
    zext = center(ext.spec)
    checks.append(_verdict(
        f"t^2 copy inside Z(double) (k={k})",
        _first_outside(zext, (({n + i: 1}, i) for i in range(n)))))

    surjective = rank(base.alpha) == n
    centerless = center(base).is_zero()
    if not (surjective and centerless):
        reasons = []
        if not centerless:
            reasons.append("center of the base is nonzero")
        if not surjective:
            reasons.append("twist is not surjective")
        why = "; ".join(reasons)
        for mode in ("strict", "lax"):
            checks.append(Check(
                f"Der(double) = phi(QDer) + ZDer(double) [{mode}, k={k}]",
                "skipped", why))
        return CheckReport("embedding decomposition", tuple(checks))

    for strict, of_base, of_double in modes:
        mode = "strict" if strict else "lax"
        a = _phi_span(ext, of_base, k)
        b = _total_span(of_double, SpaceKind.ZDER, k)
        t = _total_span(of_double, SpaceKind.DER, k)
        total = subspace_sum(a, b)
        dims = f"dim phi(QDer)={a.dim}, dim ZDer={b.dim}, dim Der={t.dim}"
        checks.append(Check(
            f"Der(double) = phi(QDer) + ZDer(double) [{mode}, k={k}]",
            "pass" if total == t else "fail", dims))
        # a + b is direct exactly when no dimension is lost in the sum
        checks.append(Check(
            f"phi(QDer) meets ZDer(double) trivially [{mode}, k={k}]",
            "pass" if total.dim == a.dim + b.dim else "fail"))
        checks.append(Check(
            f"dim Der(double) = dim phi(QDer) + dim ZDer(double) [{mode}, k={k}]",
            "pass" if t.dim == a.dim + b.dim else "fail", dims))
    return CheckReport("embedding decomposition", tuple(checks))
