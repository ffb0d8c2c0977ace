"""Random small algebras that pass validation, for stress tests and surveys.

Fully random structure constants almost never satisfy the twisted
Jacobi identity together with multiplicativity, so the sampler mixes
free draws with known-consistent families (abelian, a one-bracket
nilpotent family with a compatible diagonal twist, and an odd
square-bracket family).  Every returned algebra passes validate().
"""

from __future__ import annotations

import random

from .algebra import AlgebraSpec, validate
from .linalg import Matrix

_POOL = (-2, -1, 0, 1, 2)
_NONZERO = (-2, -1, 1, 2)
_MAX_TRIES = 20000  # draws before sample_algebras gives up


def _even_matrix(rng: random.Random, degrees, pool) -> Matrix:
    n = len(degrees)
    return Matrix.from_rows(
        [[rng.choice(pool) if degrees[r] == degrees[c] else 0
          for c in range(n)] for r in range(n)], n)


def _abelian(rng: random.Random, n_max: int) -> AlgebraSpec:
    n = rng.randint(1, n_max)
    degrees = tuple(rng.randint(0, 1) for _ in range(n))
    alpha = _even_matrix(rng, degrees, _POOL)
    return AlgebraSpec.from_pairs(f"rand_abelian{n}", degrees, alpha, {})


def _one_bracket(rng: random.Random) -> AlgebraSpec:
    # [e1, e2] = c e3 with twist diag(a, b, ab); multiplicativity holds
    # because alpha(e3) scales by a*b, and Jacobi is vacuous (e3 central).
    a, b = rng.choice(_POOL), rng.choice(_POOL)
    c = rng.choice(_NONZERO)
    alpha = Matrix.from_rows([[a, 0, 0], [0, b, 0], [0, 0, a * b]], 3)
    coeffs = (0, 0, c)
    return AlgebraSpec.from_pairs("rand_nil3", (0, 0, 0), alpha,
                                  {(0, 1): coeffs})


def _odd_square(rng: random.Random) -> AlgebraSpec:
    # [f, f] = c e on a 1|1 space with twist diag(b^2, b).
    b = rng.choice(_POOL)
    c = rng.choice(_NONZERO)
    alpha = Matrix.from_rows([[b * b, 0], [0, b]], 2)
    return AlgebraSpec.from_pairs("rand_odd2", (0, 1), alpha,
                                  {(1, 1): (c, 0)})


def _free_draw(rng: random.Random, n_max: int) -> AlgebraSpec:
    n = rng.randint(2, n_max)
    degrees = tuple(rng.randint(0, 1) for _ in range(n))
    if rng.random() < 0.5:
        alpha = Matrix.identity(n)
    else:
        alpha = _even_matrix(rng, degrees, _POOL)
    pairs = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and degrees[i] == 0:
                continue
            if rng.random() < 0.55:
                continue
            want = (degrees[i] + degrees[j]) % 2
            coeffs = [rng.choice(_POOL) if degrees[m] == want else 0
                      for m in range(n)]
            if any(coeffs):
                pairs[(i, j)] = tuple(coeffs)
    return AlgebraSpec.from_pairs(f"rand_free{n}", degrees, alpha, pairs)


def random_algebra(rng: random.Random, n_max: int = 3) -> AlgebraSpec | None:
    """One sampling attempt; None when the draw fails validation."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    style = rng.random()
    if style < 0.25:
        spec = _abelian(rng, n_max)
    elif style < 0.5:
        spec = _one_bracket(rng)
    elif style < 0.65:
        spec = _odd_square(rng)
    else:
        spec = _free_draw(rng, n_max)
    return spec if validate(spec).ok else None


def sample_algebras(rng: random.Random, count: int, n_max: int = 3) -> list[AlgebraSpec]:
    """Draw until `count` validated algebras are found; a free draw needs
    two basis elements, so `n_max` must be at least 2."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    out: list[AlgebraSpec] = []
    for _ in range(_MAX_TRIES):
        if len(out) == count:
            break
        spec = random_algebra(rng, n_max)
        if spec is not None:
            out.append(spec)
    if len(out) < count:
        raise RuntimeError("sampling budget exhausted before "
                           f"{count} valid algebras were found")
    return out
