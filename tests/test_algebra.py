import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homlie import randomgen
from homlie.algebra import (
    AlgebraSpec,
    bracket,
    center,
    derived_subalgebra,
    parity_sign,
    validate,
)
from homlie.linalg import Matrix, Subspace, contains, vec

from oracle import col, full_space, reference_matvec, unit_vec

small = st.integers(-3, 3)


def test_bracket_known_values(ex2_5):
    x1, x2, x3 = (unit_vec(3, i) for i in range(3))
    assert bracket(ex2_5, x1, x2) == x1
    assert bracket(ex2_5, x1, x3) == x2
    assert bracket(ex2_5, x2, x3) == vec([0, 0, 2])
    assert bracket(ex2_5, x2, x1) == vec([-1, 0, 0])


@given(st.lists(small, min_size=3, max_size=3))
def test_bracket_alternating_on_even_vectors(ex2_5, coeffs):
    v = vec(coeffs)
    assert bracket(ex2_5, v, v) == vec([0, 0, 0])


@given(st.lists(small, min_size=2, max_size=2), st.lists(small, min_size=2, max_size=2))
def test_super_skew_on_homogeneous_vectors(odd_heisenberg, a, b):
    # homogeneous vectors: multiples of e (even) and f (odd)
    spec = odd_heisenberg
    for (u, du), (v, dv) in [((vec([a[0], 0]), 0), (vec([b[0], 0]), 0)),
                             ((vec([a[0], 0]), 0), (vec([0, b[1]]), 1)),
                             ((vec([0, a[1]]), 1), (vec([0, b[1]]), 1))]:
        lhs = bracket(spec, u, v)
        rhs = vec([-parity_sign(du, dv) * x for x in bracket(spec, v, u)])
        assert lhs == rhs


def test_validate_bundled(bundled):
    for name, spec in bundled.items():
        rep = validate(spec)
        assert rep.skew_ok and rep.even_ok and rep.jacobi_ok, name
    assert not validate(bundled["ex2_5"]).multiplicative_ok
    for name in ("abelian2", "heisenberg3", "odd_heisenberg"):
        assert validate(bundled[name]).multiplicative_ok, name


def test_validate_abelian_any_even_twist():
    spec = AlgebraSpec.from_pairs("ab", (0, 0, 1),
                                  [[1, 2, 0], [0, 3, 0], [0, 0, 5]], {})
    assert validate(spec).ok


def test_validate_catches_corruption(ex2_5):
    # same algebra with [x2,x3] = x3 instead of 2 x3
    broken = AlgebraSpec.from_pairs(
        "broken", (0, 0, 0), ex2_5.alpha,
        {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, 1)})
    rep = validate(broken)
    assert not (rep.jacobi_ok and rep.multiplicative_ok)
    assert rep.failures
    kinds = {f.identity for f in rep.failures}
    assert "twisted Jacobi" in kinds or "multiplicativity" in kinds


def test_center_examples(bundled):
    assert center(bundled["ex2_5"]).is_zero()
    assert center(bundled["abelian2"]) == full_space(2)
    assert center(bundled["heisenberg3"]) == Subspace.from_vectors(
        3, [unit_vec(3, 2)])
    assert center(bundled["odd_heisenberg"]) == Subspace.from_vectors(
        2, [unit_vec(2, 0)])


def test_center_twist_invariant(bundled):
    # for a multiplicative twist the center is carried into itself
    for name in ("abelian2", "heisenberg3", "odd_heisenberg"):
        spec = bundled[name]
        z = center(spec)
        for v in z.basis:
            assert contains(z, reference_matvec(spec.alpha, v))


def test_derived_subalgebra(bundled):
    assert derived_subalgebra(bundled["ex2_5"]) == full_space(3)
    assert derived_subalgebra(bundled["abelian2"]).is_zero()
    assert derived_subalgebra(bundled["heisenberg3"]) == \
        Subspace.from_vectors(3, [unit_vec(3, 2)])


def test_from_pairs_rejects_bad_input():
    with pytest.raises(ValueError):
        AlgebraSpec.from_pairs("bad", (0, 0), Matrix.identity(2),
                               {(0, 0): (1, 0)})  # even diagonal nonzero
    with pytest.raises(ValueError):
        AlgebraSpec.from_pairs("bad", (0, 0), Matrix.identity(2),
                               {(1, 0): (1, 0)})  # i > j
    with pytest.raises(ValueError):
        AlgebraSpec.from_pairs("bad", (0, 0), Matrix.identity(2),
                               {(0, 3): (1, 0)})  # out of range


def test_odd_diagonal_allowed(odd_heisenberg):
    f = unit_vec(2, 1)
    assert bracket(odd_heisenberg, f, f) == unit_vec(2, 0)


def test_multiplicativity_consequence(bundled):
    for name in ("abelian2", "heisenberg3", "odd_heisenberg"):
        spec = bundled[name]
        for i in range(spec.n):
            for j in range(spec.n):
                lhs = reference_matvec(spec.alpha, spec.brackets[i][j])
                rhs = bracket(spec, col(spec.alpha, i), col(spec.alpha, j))
                assert lhs == rhs


def test_equal_specs_hash_equal_and_cache_it(ex2_5):
    twin = AlgebraSpec(ex2_5.name, ex2_5.degrees, ex2_5.alpha,
                       tuple(tuple(r) for r in ex2_5.brackets),
                       ex2_5.basis_names)
    assert twin == ex2_5 and twin is not ex2_5
    assert "_hash" not in vars(twin)
    assert hash(twin) == hash(ex2_5) == hash(
        (twin.name, twin.degrees, twin.alpha, twin.brackets, twin.basis_names))
    # computed once per object: later lookups read the stored value
    assert vars(twin)["_hash"] == hash(twin)
    assert {ex2_5: 1}[twin] == 1


def test_sampling_gives_up_after_its_budget(monkeypatch):
    draws = []
    monkeypatch.setattr(randomgen, "random_algebra",
                        lambda rng, n_max: draws.append(n_max))
    with pytest.raises(RuntimeError, match="sampling budget exhausted before "
                                           "2 valid algebras were found"):
        randomgen.sample_algebras(random.Random(0), 2, n_max=4)
    assert draws == [4] * 20000


def test_sampling_refuses_a_negative_count_before_drawing():
    # unguarded, the loop never meets len(out) == -1 and returns a list
    # of up to 20000 algebras
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
        randomgen.sample_algebras(rng, -1)
    assert rng.getstate() == state


def test_sampling_refuses_a_basis_too_small_for_a_free_draw():
    # unguarded, the free draw raises "empty range for randrange()"
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"^n_max must be >= 2, got 1$"):
        randomgen.sample_algebras(rng, 3, n_max=1)
    assert rng.getstate() == state


@pytest.mark.parametrize("n_max", [0, 1])
def test_one_draw_refuses_a_basis_too_small_before_drawing(n_max):
    # unguarded, a free draw (and at 0 an abelian one) raises "empty range
    # for randrange()" partway through, and the other families return
    for seed in range(20):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(ValueError, match=rf"^n_max must be >= 2, got {n_max}$"):
            randomgen.random_algebra(rng, n_max)
        assert rng.getstate() == state
    # the sampler refuses it too, even when it would draw nothing
    with pytest.raises(ValueError, match=rf"^n_max must be >= 2, got {n_max}$"):
        randomgen.sample_algebras(random.Random(0), 0, n_max=n_max)
