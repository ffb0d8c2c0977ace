"""Doubling a Hom-Lie superalgebra along nilpotent polynomial degrees.

For a base algebra L the extended algebra lives on two copies of L,
formal multiples of t and t^2 with t^3 = 0, carrying the bracket
[x t^i, y t^j] = [x, y] t^{i+j} and the twist acting copy-wise.  A
quasiderivation pair (D, D') of the base embeds as an endomorphism of
the double (D on the t copy, D' through the projection onto [L, L] on
the t^2 copy, zero on the chosen complement) which is in fact a
derivation of the double; for centerless bases with invertible twist
the derivations of the double split as the embedded quasiderivations
plus the central derivations, and that split is verified here per
twist power.
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
    subspace_intersection,
    subspace_sum,
)
from .spaces import (
    Check,
    CheckReport,
    GradedMap,
    SpaceKind,
    _coords,
    _first_outside,
    _spans,
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
    construction reproducible.
    """
    report = validate(base)
    if not report.axioms_ok:
        bad = sorted({f.identity for f in report.failures})
        raise ValueError("base algebra fails validation: " + ", ".join(bad))
    n = base.n
    degrees = base.degrees + base.degrees
    alpha = block_diag(base.alpha, base.alpha)
    # validated, so an even [e, e] vanishes and is not in the view
    pairs = {(i, j): (0,) * n + tuple(row.get(m, 0) for m in range(n))
             for (i, j), row in base._sparse.items() if i <= j}
    names = tuple(f"{nm}t" for nm in base.basis_names) + \
        tuple(f"{nm}t2" for nm in base.basis_names)
    spec = AlgebraSpec.from_pairs(f"{base.name}_ext", degrees, alpha, pairs, names)

    derived = derived_subalgebra(base)
    # e_j lies outside [L, L] and the e_i before it exactly when no vector
    # of [L, L] ends at j: when n-1-j is no pivot of the reversed columns
    last = _reduce({n - 1 - c: x for c, x in row.items()}
                   for row in _pivot_rows(derived._reduced))
    complement = Subspace._from_sparse(
        n, ({j: 1} for j in range(n) if n - 1 - j not in last))
    return ExtendedAlgebra(base, spec, derived, complement,
                           _derived_projection(derived, complement))


def _derived_projection(derived: Subspace, complement: Subspace) -> Matrix:
    """Projector onto ``derived`` along ``complement``, by one ``_reduce``.

    The rows [d | d] and [u | 0] span the graph {(x, P x)} of the
    projector P; when the two bases together form a basis of the base
    algebra, the pivots are exactly 0 .. n-1 and pivot row j is
    [e_j | P e_j].
    """
    n = derived.ambient_dim
    done = _reduce([row | {c + n: x for c, x in row.items()}
                    for row in _pivot_rows(derived._reduced)]
                   + _pivot_rows(complement._reduced))
    if done.keys() != set(range(n)):
        raise RuntimeError(
            "[L, L] and its complement do not span the base algebra")
    # row m of P, as (P e_j)_m for every j, is column n + m of those rows
    rows = _columns(Matrix._of(n, 2 * n, done))[n:]
    return Matrix._of(n, n, {m: row for m, row in enumerate(rows) if row})


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
    return GradedMap(block_diag(d.matrix, dp.matrix.matmul(ext.projection)),
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
    base = ext.base
    n = base.n
    big = 2 * n
    checks: list[Check] = []

    for th in (0, 1):
        qspace = solve_space(base, SpaceKind.QDER, k, th, strict)
        tag = f"(k={k}, deg={th})"
        images = [_phi_unchecked(ext, (t[0], t[1])) for t in qspace.tuples]
        img_span = Subspace._from_sparse(big * big, map(_coords, images))
        first_span = _spans(qspace, False)[0]
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
        der_span = _spans(solve_space(ext.spec, SpaceKind.DER, k, th, strict), False)[0]
        checks.append(_verdict(
            f"phi(QDer) inside Der(double) {tag}",
            _first_outside((der_span, _coords(g), g) for g in images)))
    return CheckReport("phi properties", tuple(checks))


def _phi_span(ext: ExtendedAlgebra, k: int, strict: bool) -> Subspace:
    big = 2 * ext.base.n
    return Subspace._from_sparse(big * big, (
        _coords(_phi_unchecked(ext, (t[0], t[1]))) for th in (0, 1)
        for t in solve_space(ext.base, SpaceKind.QDER, k, th, strict).tuples))


def _total_span(spec: AlgebraSpec, kind: SpaceKind, k: int, strict: bool) -> Subspace:
    return subspace_sum(*(_spans(solve_space(spec, kind, k, th, strict), False)[0]
                          for th in (0, 1)))


def verify_embedding_decomposition(ext: ExtendedAlgebra, k: int) -> CheckReport:
    """Check Der(double) = phi(QDer) (+) ZDer(double) at one twist power.

    Needs a centerless base with invertible twist; when those hypotheses
    fail the checks are reported as skipped, never asserted.  The check
    runs in strict and lax modes and reports both.
    """
    base = ext.base
    n = base.n
    checks: list[Check] = []

    # the t^2 copy is always central in the double
    zext = center(ext.spec)
    checks.append(_verdict(
        f"t^2 copy inside Z(double) (k={k})",
        _first_outside((zext, {n + i: 1}, i) for i in range(n))))

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

    for strict in (True, False):
        mode = "strict" if strict else "lax"
        a = _phi_span(ext, k, strict)
        b = _total_span(ext.spec, SpaceKind.ZDER, k, strict)
        t = _total_span(ext.spec, SpaceKind.DER, k, strict)
        dims = f"dim phi(QDer)={a.dim}, dim ZDer={b.dim}, dim Der={t.dim}"
        checks.append(Check(
            f"Der(double) = phi(QDer) + ZDer(double) [{mode}, k={k}]",
            "pass" if subspace_sum(a, b) == t else "fail", dims))
        checks.append(Check(
            f"phi(QDer) meets ZDer(double) trivially [{mode}, k={k}]",
            "pass" if subspace_intersection(a, b).is_zero() else "fail"))
        checks.append(Check(
            f"dim Der(double) = dim phi(QDer) + dim ZDer(double) [{mode}, k={k}]",
            "pass" if t.dim == a.dim + b.dim else "fail", dims))
    return CheckReport("embedding decomposition", tuple(checks))
