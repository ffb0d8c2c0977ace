"""How ``solve_space`` assembles its linear system.

The solver builds its two bracket tables in one pass over the nonzero
structure constants, drives every term of ``IDENTITIES`` by the nonzeros
of its table, and emits the rows in (i, j, equation, m) order, then the
strict rows in (component, twist column, m) order.  The rows and the
width of the system that reaches ``nullspace`` must be exactly those of
the per-pair walk kept in ``oracle.reference_system_rows``, and the
solved space must be the one read off that walk's system
(``oracle.reference_solve_space``), equal, with equal repr and hash.
The brute-force oracle, which builds its system dense over every matrix
entry, must agree on twisted h5 for every kind.
"""

import itertools
import random
from fractions import Fraction

import pytest

from homlie import spaces
from homlie.algebra import AlgebraSpec
from homlie.extension import build_extended
from homlie.randomgen import sample_algebras
from homlie.spaces import SpaceKind
from oracle import oracle_solve, reference_solve_space, reference_system_rows, stacked
from test_boundary import yau_sl2
from test_jordan_engine import heisenberg, super_heisenberg


def sl2_sum() -> AlgebraSpec:
    """sl2 (+) sl2, each copy on (h, e, f) Yau-twisted by diag(1, lam,
    1/lam), lam 2 and 3: [h, e] = 2 lam e, [h, f] = -2/lam f, [e, f] = h."""
    pairs = {}
    for off, lam in ((0, Fraction(2)), (3, Fraction(3))):
        def at(c, x):
            return tuple(x if i == off + c else 0 for i in range(6))
        pairs |= {(off, off + 1): at(1, 2 * lam), (off, off + 2): at(2, -2 / lam),
                  (off + 1, off + 2): at(0, 1)}
    twist = [1, 2, Fraction(1, 2), 1, 3, Fraction(1, 3)]
    return AlgebraSpec.from_pairs(
        "sl2_2+sl2_3", (0,) * 6,
        [[twist[r] if r == c else 0 for c in range(6)] for r in range(6)], pairs)


def sheared_h3() -> AlgebraSpec:
    """h3 twisted by the shear x -> x + y fixing y and z, which preserves
    [x, y] = z; unlike every other fixture here with a nonzero bracket,
    its twist is not symmetric, so a^k read transposed shows."""
    return AlgebraSpec.from_pairs("h3_shear", (0, 0, 0), [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
                                  {(0, 1): (0, 0, 1)})


def h(m):
    """h_{2m+1} twisted by diag(1,..,1, 2,..,2, 2) on (x, y, z)."""
    return heisenberg(m, (1,) * m + (2,) * (m + 1))


def _system(monkeypatch, spec, kind, k, degree, strict):
    """(rows, width, space) of one uncached solve: the rows and width of
    the matrix that ``solve_space`` hands ``nullspace``, or ([], 0) when
    no entry is allowed and no system is built."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(spaces, "nullspace",
                  lambda a, inner=spaces.nullspace: seen.append(a) or inner(a))
        space = spaces.solve_space.__wrapped__(spec, kind, k, degree, strict)
    if not seen:
        return [], 0, space
    (a,) = seen
    return [a._sparse.get(r, {}) for r in range(a.rows)], a.cols, space


def assert_assembly_matches(monkeypatch, specs, k_max):
    for spec, kind, k, degree, strict in itertools.product(
            specs, SpaceKind, range(k_max + 1), (0, 1), (True, False)):
        case = (spec.name, kind.value, k, degree, strict)
        rows, width, space = _system(monkeypatch, spec, kind, k, degree, strict)
        want_rows, want_width = reference_system_rows(spec, kind, k, degree, strict)
        assert (rows, width) == (want_rows, want_width), case
        # the trusted view holds integral values as int, as every sparse row does
        assert all(type(x) is int or x.denominator != 1
                   for row in rows for x in row.values()), case
        want = reference_solve_space(spec, kind, k, degree, strict)
        assert space == want and repr(space) == repr(want), case
        assert hash(space) == hash(want), case


def test_assembly_matches_the_per_pair_walk_on_bundled(bundled, monkeypatch):
    assert_assembly_matches(monkeypatch,
                            [*bundled.values(), yau_sl2(), sl2_sum(), sheared_h3()], 3)


@pytest.mark.parametrize("name", ["h5", "h7", "sh1_3", "ex2_5 double of double"])
def test_assembly_matches_the_per_pair_walk_on_larger_algebras(bundled, monkeypatch,
                                                               name):
    spec = {"h5": lambda: h(2), "h7": lambda: h(3), "sh1_3": lambda: super_heisenberg(3),
            "ex2_5 double of double": lambda: build_extended(
                build_extended(bundled["ex2_5"]).spec).spec}[name]()
    assert_assembly_matches(monkeypatch, [spec], 1)


@pytest.mark.parametrize("seed", range(4))
def test_assembly_matches_the_per_pair_walk_on_random_algebras(monkeypatch, seed):
    assert_assembly_matches(monkeypatch, sample_algebras(random.Random(seed), 10, n_max=4), 1)


@pytest.mark.slow  # about 6 s for both modes: dense Fraction elimination of 75 unknowns
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
def test_solver_matches_brute_force_oracle_on_twisted_h5(strict):
    spec = h(2)
    for kind, k, degree in itertools.product(SpaceKind, (0, 1), (0, 1)):
        got = stacked(spaces.solve_space(spec, kind, k, degree, strict))
        assert got == oracle_solve(spec, kind, k, degree, strict), (kind, k, degree)
