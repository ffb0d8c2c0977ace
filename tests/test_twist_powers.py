"""Levels with equal twist powers read one space.

``solve_space`` reads the twist power k only through alpha^k, so the
verifiers and the report's dimension table read each space at the least
power j with alpha^j = alpha^k, through one level reader per check.
Their reports must equal the reference
loops, which solve every level directly, on twists whose powers repeat
at once, with a period, after a nilpotent tail, or never.  The reader
forms powers only up to the first repeat, and ``Matrix.power`` squares,
so a level far past k_max = 3 costs no more than one within it.  It
squares from the lowest set bit of k, so alpha^1 is alpha itself, and it
must equal the identity times alpha, k times, by ``matmul``, on the
twists above and on random, nilpotent, zero and identity matrices.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import spaces
from homlie.algebra import AlgebraSpec
from homlie.cli import main
from homlie.fileformat import write_algebra
from homlie.linalg import Matrix
from homlie.spaces import (
    SpaceKind,
    check_bracket_laws,
    check_inclusion_chain,
    check_qc_structure,
    solve_space,
)
from oracle import (
    reference_bracket_laws,
    reference_inclusion_chain,
    reference_qc_closure,
)

K_MAX = 3

# (id, twist, the least power j with alpha^j = alpha^k for k = 0..3)
TWISTS = [
    ("identity", [[1, 0], [0, 1]], [0, 0, 0, 0]),
    ("sign", [[1, 0], [0, -1]], [0, 1, 0, 1]),
    ("projection", [[1, 0], [0, 0]], [0, 1, 1, 1]),
    ("nilpotent", [[0, 1], [0, 0]], [0, 1, 2, 2]),
    ("distinct", [[1, 0], [0, 2]], [0, 1, 2, 3]),
]


def _plane(name, twist):
    return AlgebraSpec.from_pairs(f"plane_{name}", (0, 0), twist, {})


def _h3_signed():
    # [e1, e2] = e3 with alpha = diag(1, -1, -1): alpha [e1, e2] = -e3 =
    # [alpha e1, alpha e2], so the twist is multiplicative
    return AlgebraSpec.from_pairs("h3_signed", (0, 0, 0), [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
                                  {(0, 1): (0, 0, 1)})


INPUTS = [pytest.param(_plane(name, twist), id=f"plane-{name}") for name, twist, _ in TWISTS]
INPUTS.append(pytest.param(_h3_signed(), id="h3-signed"))
MODES = pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])


@pytest.mark.parametrize("name, twist, least", TWISTS, ids=[name for name, _, _ in TWISTS])
def test_least_power_of_each_twist(name, twist, least):
    # a solved space records the power it was solved at
    for strict in (True, False):
        space = spaces._reader(_plane(name, twist), strict, K_MAX)
        assert [space(SpaceKind.DER, k, 0).k for k in range(K_MAX + 1)] == least


def test_the_walks_of_twists_at_one_k_max_are_kept_apart():
    # one cache holds every twist's walk; no twist is served another's
    walked = [[spaces._reader(_plane(name, twist), True, K_MAX)(SpaceKind.DER, k, 0).k
               for k in range(K_MAX + 1)] for name, twist, _ in TWISTS]
    assert walked == [least for _, _, least in TWISTS]


@MODES
@pytest.mark.parametrize("spec", INPUTS)
def test_verifiers_match_the_per_level_references(spec, strict):
    args = (spec, K_MAX, strict)
    assert check_inclusion_chain(*args) == reference_inclusion_chain(*args)
    assert check_bracket_laws(*args) == reference_bracket_laws(*args)
    assert check_qc_structure(*args).checks[:3] == reference_qc_closure(*args)


@MODES
@pytest.mark.parametrize("spec", INPUTS)
def test_report_dimensions_are_solved_at_each_level(spec, strict, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    write_algebra(spec, path)
    main(["report", str(path), "--kmax", str(K_MAX), "--json", *(() if strict else ("--lax",))])
    dims = json.loads(capsys.readouterr().out)["dimensions"]
    assert dims == [{"kind": kind.value, "k": k, "theta": th,
                     "dim": solve_space(spec, kind, k, th, strict).dim}
                    for kind in SpaceKind for k in range(K_MAX + 1) for th in (0, 1)]



@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("twist", [twist for _, twist, _ in TWISTS],
                         ids=[name for name, _, _ in TWISTS])
def test_power_is_repeated_matmul(twist, k):
    alpha, want = Matrix.from_rows(twist), Matrix.identity(2)
    for _ in range(k):
        want = want.matmul(alpha)
    assert alpha.power(k) == want


_ENTRIES = st.one_of(st.just(0), st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=2, max_denominator=3))


@st.composite
def square_matrices(draw):
    """An n x n matrix, n 0 to 4: random, strictly upper triangular
    (nilpotent), zero or the identity."""
    n, how = draw(st.integers(0, 4)), draw(st.sampled_from(
        ("random", "nilpotent", "zero", "identity")))
    if how == "identity":
        return Matrix.identity(n)
    return Matrix.from_rows([[draw(_ENTRIES) if how == "random" or how == "nilpotent" and c > r
                              else 0 for c in range(n)] for r in range(n)], n)


@settings(deadline=None)
@given(square_matrices())
def test_power_matches_the_reference(m):
    want = Matrix.identity(m.rows)
    for k in range(9):
        assert m.power(k) == want, k
        want = want.matmul(m)
    assert m.power(1) is m


@pytest.mark.parametrize("m, k", [(Matrix.from_rows([[1, 2]]), 0), (Matrix.from_rows([[1, 2]]), 1),
                                  (Matrix.identity(2), -1), (Matrix.from_rows([[0]]), -3)])
def test_power_rejects_a_non_square_matrix_and_a_negative_k(m, k):
    with pytest.raises(ValueError):
        m.power(k)


@pytest.mark.parametrize("name, twist, k, least", [
    ("identity", [[1, 0], [0, 1]], 10**6, 0),
    ("sign", [[1, 0], [0, -1]], 10**6, 0),
    ("sign", [[1, 0], [0, -1]], 10**6 + 1, 1),
])
def test_least_power_of_a_far_level(name, twist, k, least):
    # the reader stops at the first repeat, alpha^1 or alpha^2 = alpha^0,
    # not after 10^6 products
    space = spaces._reader(_plane(name, twist), True, k)
    assert space(SpaceKind.DER, k, 0).k == least
