"""Input algebras for the benchmark, built from homlie's public types only.

Every generator returns an ``AlgebraSpec``; :func:`checked` validates it
and, where the family is bracket-preserving by construction, also checks
multiplicativity, so a workload never runs on an input that is not what
its name says.  The random sampler below is written here on purpose and
does not use ``homlie.randomgen``: a change there must not silently
change a workload.
"""

from __future__ import annotations

import random
from fractions import Fraction

from homlie import AlgebraSpec, Matrix, build_extended, validate


class InputError(RuntimeError):
    """A generated input is not a valid Hom-Lie superalgebra."""


def diag(entries) -> Matrix:
    n = len(entries)
    return Matrix.from_rows(
        [[entries[r] if r == c else 0 for c in range(n)] for r in range(n)], n)


def checked(spec: AlgebraSpec, multiplicative: bool) -> AlgebraSpec:
    """Return ``spec`` after checking the axioms (and multiplicativity)."""
    rep = validate(spec)
    if not rep.axioms_ok:
        raise InputError(f"{spec.name} fails the Hom-Lie axioms")
    if multiplicative and not rep.multiplicative_ok:
        raise InputError(f"{spec.name} twist does not preserve the bracket")
    return spec


def heisenberg(m: int, twisted: bool) -> AlgebraSpec:
    """h_{2m+1}: [x_i, y_i] = z.

    The twist is the identity, or diag(1,..,1, 2,..,2, 2) on
    (x, y, z), which preserves the bracket since [x_i, 2 y_i] = 2 z.
    """
    n = 2 * m + 1
    twist = [1] * m + [2] * m + [2] if twisted else [1] * n
    z = tuple(1 if c == n - 1 else 0 for c in range(n))
    pairs = {(i, m + i): z for i in range(m)}
    names = ([f"x{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(m)]
             + ["z"])
    tag = "d" if twisted else "id"
    return AlgebraSpec.from_pairs(f"h{n}_{tag}", (0,) * n, diag(twist), pairs,
                                  names)


def super_heisenberg(m: int) -> AlgebraSpec:
    """1|m: even e, odd f_1..f_m, [f_i, f_i] = e, twist diag(4, 2, .., 2)."""
    n = m + 1
    e = tuple(1 if c == 0 else 0 for c in range(n))
    pairs = {(i, i): e for i in range(1, n)}
    names = ["e"] + [f"f{i}" for i in range(1, n)]
    return AlgebraSpec.from_pairs(f"sh1_{m}", (0,) + (1,) * m,
                                  diag([4] + [2] * m), pairs, names)


def yau_sl2(lam: Fraction) -> AlgebraSpec:
    """sl2 on (h, e, f) Yau-twisted by its automorphism diag(1, lam, 1/lam).

    The bracket is [x, y]' = alpha[x, y], so [h,e]' = 2 lam e,
    [h,f]' = -2/lam f and [e,f]' = h; alpha commutes with the Yau twist
    and hence preserves the new bracket.
    """
    lam = Fraction(lam)
    pairs = {(0, 1): (0, 2 * lam, 0), (0, 2): (0, 0, -2 / lam),
             (1, 2): (1, 0, 0)}
    return AlgebraSpec.from_pairs(f"sl2_{lam}".replace("/", "_"), (0, 0, 0),
                                  diag([1, lam, 1 / lam]), pairs,
                                  ("h", "e", "f"))


def direct_sum(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """a (+) b with block-diagonal twist and no mixed brackets."""
    n = a.n + b.n
    pairs = {}
    for spec, off in ((a, 0), (b, a.n)):
        for i in range(spec.n):
            for j in range(i, spec.n):
                coeffs = spec.brackets[i][j]
                if any(coeffs) and (i != j or spec.degrees[i]):
                    pad = (0,) * off + coeffs
                    pairs[(off + i, off + j)] = pad + (0,) * (n - len(pad))
    alpha = [[0] * n for _ in range(n)]
    for spec, off in ((a, 0), (b, a.n)):
        for r in range(spec.n):
            for c in range(spec.n):
                alpha[off + r][off + c] = spec.alpha.at(r, c)
    names = ([f"{nm}_a" for nm in a.basis_names]
             + [f"{nm}_b" for nm in b.basis_names])
    return AlgebraSpec.from_pairs(f"{a.name}+{b.name}", a.degrees + b.degrees,
                                  alpha, pairs, names)


def iterated_double(base: AlgebraSpec, times: int) -> AlgebraSpec:
    """The t-graded double of ``base``, taken ``times`` times."""
    spec = base
    for _ in range(times):
        spec = build_extended(spec).spec
    return spec


# --- seeded random sampler ---------------------------------------------------
#
# Report time on a random algebra is dominated by the dimensions of its
# operator spaces, which the family, the degree pattern and the pattern
# of equal twist eigenvalues decide far more than the coefficient values
# do.  So every sample holds the same mix of shapes, each twist has
# pairwise distinct eigenvalues, and the seed chooses the coefficients
# and the order.  Workloads then cost about the same on every seed while
# still running different algebras.  Every family is bracket-preserving
# by construction, and :func:`checked` confirms it, so no draw is ever
# rejected and set-up time does not depend on luck.

_NONZERO = (-3, -2, -1, 2, 3)


def _distinct(rng: random.Random, count: int) -> list[int]:
    return rng.sample(_NONZERO, count)


def _distinct_with_product(rng: random.Random) -> tuple[int, int]:
    """a, b with a, b and ab pairwise distinct."""
    while True:
        a, b = _distinct(rng, 2)
        if len({a, b, a * b}) == 3:
            return a, b


def _abelian(rng: random.Random, degrees) -> AlgebraSpec:
    return AlgebraSpec.from_pairs("abelian", degrees,
                                  diag(_distinct(rng, len(degrees))), {})


def _nil3(rng: random.Random) -> AlgebraSpec:
    # [e1, e2] = c e3 with twist diag(a, b, ab); e3 is central, so Jacobi
    # is vacuous, and alpha e3 = ab e3 makes the twist multiplicative.
    a, b = _distinct_with_product(rng)
    return AlgebraSpec.from_pairs("nil3", (0, 0, 0), diag([a, b, a * b]),
                                  {(0, 1): (0, 0, rng.choice(_NONZERO))})


def _odd_square(rng: random.Random) -> AlgebraSpec:
    # [f, f] = c e on a 1|1 space with twist diag(b^2, b).
    b = rng.choice(_NONZERO)
    return AlgebraSpec.from_pairs("odd_square", (0, 1), diag([b * b, b]),
                                  {(1, 1): (rng.choice(_NONZERO), 0)})


def _odd_pair(rng: random.Random) -> AlgebraSpec:
    # 1|2 with [f1, f2] = c e and twist diag(ab, a, b); e is central.
    a, b = _distinct_with_product(rng)
    return AlgebraSpec.from_pairs("odd_pair", (0, 1, 1), diag([a * b, a, b]),
                                  {(1, 2): (rng.choice(_NONZERO), 0, 0)})


def _diagonal_action(rng: random.Random, degrees) -> AlgebraSpec:
    # e1 (even) acts diagonally, [e1, e_i] = c_i e_i, nothing else
    # brackets; twist diag(1, b_2, ..), so alpha [e1, e_i] = [e1, alpha e_i]
    # and every Jacobi term vanishes.
    n = len(degrees)
    twist = [1] + _distinct(rng, n - 1)
    pairs = {}
    for i in range(1, n):
        coeffs = [0] * n
        coeffs[i] = rng.choice(_NONZERO)
        pairs[(0, i)] = tuple(coeffs)
    return AlgebraSpec.from_pairs("diag_action", degrees, diag(twist), pairs)


def _lie2(rng: random.Random) -> AlgebraSpec:
    # Any bracket on a 2-dimensional even space is Lie; identity twist.
    coeffs = (rng.choice((0,) + _NONZERO), rng.choice(_NONZERO))
    return AlgebraSpec.from_pairs("lie2", (0, 0), diag([1, 1]),
                                  {(0, 1): coeffs})


# one entry per algebra of a sample: a family and its degree pattern
RANDOM_SHAPES = (
    (_abelian, (0, 0)),
    (_abelian, (0, 1)),
    (_abelian, (0, 0, 1)),
    (_abelian, (1, 1, 1)),
    (_nil3,),
    (_odd_square,),
    (_odd_pair,),
    (_diagonal_action, (0, 0, 0)),
    (_diagonal_action, (0, 1, 1)),
    (_lie2,),
)


def random_sample(rng: random.Random) -> list[AlgebraSpec]:
    """One validated algebra per shape, in an order the seed shuffles."""
    out = []
    for idx, (family, *degrees) in enumerate(RANDOM_SHAPES):
        spec = family(rng, *degrees)
        spec = AlgebraSpec(f"r{idx}_{spec.name}{spec.n}", spec.degrees,
                           spec.alpha, spec.brackets, spec.basis_names)
        out.append(checked(spec, multiplicative=True))
    rng.shuffle(out)
    return out
