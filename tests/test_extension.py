import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homlie import extension, spaces
from homlie.algebra import AlgebraSpec, bracket, center, validate
from homlie.extension import (
    build_extended,
    phi,
    verify_embedding_decomposition,
    verify_phi_properties,
)
from homlie.linalg import Matrix, contains, subspace_sum
from homlie.randomgen import sample_algebras
from homlie.spaces import GradedMap, SpaceKind, project_component, solve_space
from oracle import (
    is_zero_vec,
    reference_double_spec,
    reference_partner_determined,
    unit_vec,
    zero_matrix,
)
from test_laws import _with_fault

small = st.integers(-2, 2)


def test_double_brackets(ex2_5):
    ext = build_extended(ex2_5)
    assert ext.spec.n == 6
    x1t, x2t = unit_vec(6, 0), unit_vec(6, 1)
    x1t2, x2t2 = unit_vec(6, 3), unit_vec(6, 4)
    assert bracket(ext.spec, x1t, x2t) == x1t2
    assert is_zero_vec(bracket(ext.spec, x1t, x2t2))
    assert is_zero_vec(bracket(ext.spec, x1t2, x2t2))


def test_double_spec_matches_the_dense_reference(bundled):
    iterated = [bundled["ex2_5"]]
    for _ in range(3):  # to n = 24
        iterated.append(build_extended(iterated[-1]).spec)
    for base in [*bundled.values(), *iterated[1:]]:
        spec, ref = build_extended(base).spec, reference_double_spec(base)
        assert spec == ref, base.name
        assert hash(spec) == hash(ref) and repr(spec) == repr(ref), base.name


def test_double_of_abelian_is_abelian(abelian2):
    ext = build_extended(abelian2)
    for i in range(4):
        for j in range(4):
            assert is_zero_vec(ext.spec.brackets[i][j])


def test_complement_dimensions(bundled):
    expected = {"ex2_5": 0, "abelian2": 2, "heisenberg3": 2,
                "odd_heisenberg": 1}
    for name, spec in bundled.items():
        ext = build_extended(spec)
        assert ext.u_complement.dim == expected[name]
        assert ext.u_complement.dim + ext.derived.dim == spec.n


def test_double_validates(bundled):
    for name, spec in bundled.items():
        ext = build_extended(spec)
        base_rep = validate(spec)
        rep = validate(ext.spec)
        assert rep.axioms_ok, name
        assert rep.multiplicative_ok == base_rep.multiplicative_ok, name


def test_truncation_is_nilpotent(bundled):
    # brackets with total t-power >= 3 vanish, including nested ones
    for spec in bundled.values():
        ext = build_extended(spec)
        n = ext.base.n
        for i in range(2 * n):
            for j in range(2 * n):
                if i >= n or j >= n:
                    assert is_zero_vec(ext.spec.brackets[i][j])
                inner = bracket(ext.spec, unit_vec(2 * n, i), unit_vec(2 * n, j))
                for l in range(n, 2 * n):
                    assert is_zero_vec(
                        bracket(ext.spec, inner, unit_vec(2 * n, l)))


def test_build_rejects_invalid_base():
    # [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] = e3, so Jacobi fails
    broken = AlgebraSpec.from_pairs(
        "broken", (0, 0, 0), Matrix.identity(3),
        {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert not validate(broken).axioms_ok
    with pytest.raises(ValueError):
        build_extended(broken)


def test_phi_block_structure(ex2_5):
    ext = build_extended(ex2_5)
    pair = solve_space(ex2_5, SpaceKind.QDER, 1, 0).tuples[0]
    g = phi(ext, (pair[0], pair[1]), 1)
    # with a perfect base the projection is the identity: plain blocks
    for r in range(3):
        for c in range(3):
            assert g.matrix.at(r, c) == pair[0].matrix.at(r, c)
            assert g.matrix.at(3 + r, 3 + c) == pair[1].matrix.at(r, c)
            assert g.matrix.at(r, 3 + c) == 0
            assert g.matrix.at(3 + r, c) == 0


def test_phi_of_zero_pair(ex2_5):
    ext = build_extended(ex2_5)
    zero = GradedMap(zero_matrix(3, 3), 0)
    assert phi(ext, (zero, zero), 0).is_zero()


def test_phi_rejects_non_member(ex2_5):
    ext = build_extended(ex2_5)
    bad = GradedMap(Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), 0)
    zero = GradedMap(zero_matrix(3, 3), 0)
    with pytest.raises(ValueError):
        phi(ext, (bad, zero), 0)


@given(st.lists(small, min_size=2, max_size=2))
def test_phi_is_linear(ex2_5, coeffs):
    ext = build_extended(ex2_5)
    tuples = solve_space(ex2_5, SpaceKind.QDER, 1, 0).tuples
    a, b = coeffs
    p, q = tuples[0], tuples[1]
    combo = (GradedMap(p[0].matrix.scale(a) + q[0].matrix.scale(b), 0),
             GradedMap(p[1].matrix.scale(a) + q[1].matrix.scale(b), 0))
    lhs = phi(ext, combo, 1).matrix
    rhs = (phi(ext, (p[0], p[1]), 1).matrix.scale(a)
           + phi(ext, (q[0], q[1]), 1).matrix.scale(b))
    assert lhs == rhs


def test_phi_ignores_partner_off_derived(heisenberg3):
    # with U nonzero, changing D' on complement inputs cannot change phi
    ext = build_extended(heisenberg3)
    d, dp = solve_space(heisenberg3, SpaceKind.QDER, 0, 0).tuples[0]
    corrupt = [list(dp.matrix.row(r)) for r in range(3)]
    corrupt[0][0] += 5  # e1 is a complement input ([L,L] = span e3)
    corrupt[2][1] -= 7
    dp2 = GradedMap(Matrix.from_rows(corrupt), 0)
    assert phi(ext, (d, dp), 0).matrix == phi(ext, (d, dp2), 0).matrix


def test_phi_images_are_derivations(ex2_5):
    ext = build_extended(ex2_5)
    for k in (0, 1):
        der_span = project_component(
            solve_space(ext.spec, SpaceKind.DER, k, 0), 0)
        for t in solve_space(ex2_5, SpaceKind.QDER, k, 0).tuples:
            g = phi(ext, (t[0], t[1]), k)
            assert contains(der_span, g.matrix.entries)


def test_phi_properties_reports(bundled):
    for name in ("ex2_5", "heisenberg3"):
        ext = build_extended(bundled[name])
        for k in (0, 1):
            rep = verify_phi_properties(ext, k)
            assert rep.ok, (name, k,
                            [c.name for c in rep.checks if c.status == "fail"])


def test_embedding_decomposition_ex2_5(ex2_5):
    ext = build_extended(ex2_5)
    for k in (0, 1):
        rep = verify_embedding_decomposition(ext, k)
        assert rep.ok
        statuses = {c.name: c.status for c in rep.checks}
        assert all(s == "pass" for s in statuses.values())


def test_embedding_decomposition_fails_on_a_bent_quasiderivation(
        ex2_5, monkeypatch):
    # the first QDer pair at k = 0, bent by +1/3 at entry (0, 1) of its
    # first map, embeds outside Der(double): the sum is no longer
    # Der(double), although the dimensions still add up
    ext = build_extended(ex2_5)
    monkeypatch.setattr(spaces, "solve_space", _with_fault(SpaceKind.QDER))
    failed = {c.name: c.detail for c in verify_embedding_decomposition(ext, 0).checks
              if c.status == "fail"}
    assert failed == {
        "Der(double) = phi(QDer) + ZDer(double) [strict, k=0]":
            "dim phi(QDer)=3, dim ZDer=5, dim Der=8",
        "Der(double) = phi(QDer) + ZDer(double) [lax, k=0]":
            "dim phi(QDer)=9, dim ZDer=9, dim Der=18",
    }
    # the witness: the bent pair's image is not a derivation of the double
    bent = spaces.solve_space(ex2_5, SpaceKind.QDER, 0, 0).tuples[0]
    der = project_component(solve_space(ext.spec, SpaceKind.DER, 0, 0), 0)
    assert not contains(der, extension._phi_unchecked(ext, bent).matrix.entries)


def test_embedding_decomposition_guard(heisenberg3):
    ext = build_extended(heisenberg3)
    rep = verify_embedding_decomposition(ext, 0)
    assert rep.ok  # skipped checks are not failures
    skipped = [c for c in rep.checks if c.status == "skipped"]
    assert skipped and all("center" in c.detail for c in skipped)


def test_double_checks_reject_a_negative_or_bool_k(bundled):
    # heisenberg3 and abelian2 skip the split, but k is checked first
    for spec in bundled.values():
        ext = build_extended(spec)
        for check in (verify_embedding_decomposition, verify_phi_properties):
            with pytest.raises(ValueError, match="k_max must be >= 0"):
                check(ext, -1)
            with pytest.raises(TypeError, match="k_max must be an int"):
                check(ext, True)


def test_t2_copy_always_central(bundled):
    for spec in bundled.values():
        ext = build_extended(spec)
        z = center(ext.spec)
        for i in range(spec.n, 2 * spec.n):
            assert contains(z, unit_vec(2 * spec.n, i))


def test_t2_copy_check_fails_on_a_bent_double(ex2_5, monkeypatch):
    # [e_2 t^2, e_1 t] = e_3 t^2, and its skew partner: e_2 t^2 leaves the
    # center of the bent double, and e_1 t^2 stays in it
    ext = build_extended(ex2_5)
    n = ex2_5.n
    view = dict(ext.spec._sparse) | {(0, n + 1): {n + 2: -1}, (n + 1, 0): {n + 2: 1}}
    bent = AlgebraSpec._of("bent", ext.spec.degrees, ext.spec.alpha,
                           dict(sorted(view.items())), ext.spec.basis_names)
    witnesses, first_outside = [], extension._first_outside

    def spy(target, cells):
        witnesses.append(first_outside(target, cells))
        return witnesses[-1]

    monkeypatch.setattr(extension, "_first_outside", spy)
    checks = verify_embedding_decomposition(dataclasses.replace(ext, spec=bent), 0).checks
    assert (checks[0].name, checks[0].status) == ("t^2 copy inside Z(double) (k=0)", "fail")
    assert witnesses[0] == 1


def _partner_statuses(ext, k, strict):
    return tuple(c.status for c in verify_phi_properties(ext, k, strict).checks
                 if c.name.startswith("partner determined"))


def _assert_partner_check_matches_reference(bundled):
    """Read off the spans, (a) gives the verdict of the dense D' d test on
    the pairs (0, D') of the QDer tuple space, on every bundled algebra at
    k <= 2, strict and lax."""
    for spec in bundled.values():
        ext = build_extended(spec)
        for k, strict in itertools.product(range(3), (True, False)):
            assert _partner_statuses(ext, k, strict) == \
                reference_partner_determined(ext, k, strict), (spec.name, k, strict)


def test_zero_first_pairs_match_the_intersection(bundled):
    _assert_partner_check_matches_reference(bundled)


def test_zero_first_pairs_match_on_a_bent_quasiderivation(bundled, monkeypatch):
    # the bent first pair leaves the stored bases non-canonical
    monkeypatch.setattr(spaces, "solve_space", _with_fault(SpaceKind.QDER))
    _assert_partner_check_matches_reference(bundled)


def _with_split_partner(original):
    """solve_space, with the even QDer spaces stored as the pairs (A, B)
    and (A, B + I) for their first basis pair (A, B): one first map with
    two partners that differ by the identity, nonzero on [L, L]."""
    def split(spec, kind, k=0, degree=0, strict=True):
        space = original(spec, kind, k, degree, strict)
        if kind is not SpaceKind.QDER or degree or not space.tuples:
            return space
        a, b = space.tuples[0]
        other = GradedMap(b.matrix + Matrix.identity(space.n), 0)
        return dataclasses.replace(space, tuples=((a, b), (a, other)))

    return split


def test_partner_check_fails_on_split_partners(ex2_5, monkeypatch):
    monkeypatch.setattr(spaces, "solve_space", _with_split_partner(spaces.solve_space))
    ext = build_extended(ex2_5)
    assert not ext.derived.is_zero()
    for k, strict in itertools.product((0, 1), (True, False)):
        assert _partner_statuses(ext, k, strict) == \
            reference_partner_determined(ext, k, strict) == ("fail", "pass")


def _statuses(report):
    return {c.name: (c.status, c.detail) for c in report.checks}


_PHI_RANK_CHECKS = ("partner determined on [L,L]",
                    "phi image dimension equals first-component dimension",
                    "vanishing phi image forces vanishing first component")


def _phi_rank_statuses(ext, k, strict):
    """Per degree, the statuses of phi's three rank checks."""
    got = _statuses(verify_phi_properties(ext, k, strict))
    return [tuple(got[f"{name} (k={k}, deg={th})"][0] for name in _PHI_RANK_CHECKS)
            for th in (0, 1)]


def test_two_phi_rank_checks_cannot_fail_alone(bundled):
    # phi(D, D') = diag(D, D'P) holds D as its t-block, so appending D to
    # its image adds no rank: the vanishing-image check always passes, and
    # the partner check has the status of the image-dimension check
    for base in [*bundled.values(), *sample_algebras(random.Random(1), 30, n_max=4)]:
        ext = build_extended(base)
        for k, strict in itertools.product(range(3), (True, False)):
            for partner, image, vanishing in _phi_rank_statuses(ext, k, strict):
                assert vanishing == "pass" and partner == image, (base.name, k, strict)


def test_two_phi_rank_checks_fail_together_on_split_partners(ex2_5, monkeypatch):
    # one first map with two partners: the images gain a rank that the
    # first components lack, and still hold each first component
    monkeypatch.setattr(spaces, "solve_space", _with_split_partner(spaces.solve_space))
    ext = build_extended(ex2_5)
    for k, strict in itertools.product((0, 1), (True, False)):
        assert _phi_rank_statuses(ext, k, strict) == [
            ("fail", "fail", "pass"), ("pass", "pass", "pass")], (k, strict)


def test_phi_inside_der_fails_on_a_bent_quasiderivation(ex2_5, monkeypatch):
    # the bent first QDer pair at k = 0 embeds outside Der(double), read
    # off the double's first-component view; nothing else about phi moves
    ext = build_extended(ex2_5)
    monkeypatch.setattr(spaces, "solve_space", _with_fault(SpaceKind.QDER))
    got = _statuses(verify_phi_properties(ext, 0))
    assert got["phi(QDer) inside Der(double) (k=0, deg=0)"] == ("fail", "")
    assert [c for c, (status, _) in got.items() if status == "fail"] == [
        "phi(QDer) inside Der(double) (k=0, deg=0)"]


def test_phi_dimension_checks_fail_on_a_vanishing_embedding(ex2_5, monkeypatch):
    # phi bent to send every pair to 0: the images span nothing, while the
    # first components, read off the QDer first-component view, span 3 maps
    ext = build_extended(ex2_5)
    zero = Matrix._of(2 * ex2_5.n, 2 * ex2_5.n, {})
    monkeypatch.setattr(extension, "_phi_unchecked",
                        lambda ext, pair: GradedMap(zero, pair[0].degree))
    got = _statuses(verify_phi_properties(ext, 0))
    assert {c: v for c, v in got.items() if v[0] == "fail"} == {
        "phi image dimension equals first-component dimension (k=0, deg=0)":
            ("fail", "image 0, first component 3"),
        "vanishing phi image forces vanishing first component (k=0, deg=0)":
            ("fail", ""),
    }


def test_decomposition_fails_when_phi_meets_zder(ex2_5, monkeypatch):
    # phi's span bent to take in ZDer(double), read off the views of the
    # double: the sum is still Der(double), but it is no longer direct
    ext = build_extended(ex2_5)
    phi_span, total_span = extension._phi_span, extension._total_span

    def bent(ext, of_base, k):
        # ZDer(double) in the mode that of_base reads, told by its spaces
        of_double = spaces._reader(ext.spec, of_base(SpaceKind.QDER, k, 0).strict, k)
        return subspace_sum(phi_span(ext, of_base, k), total_span(of_double, SpaceKind.ZDER, k))

    monkeypatch.setattr(extension, "_phi_span", bent)
    got = _statuses(verify_embedding_decomposition(ext, 0))
    for mode, dims in (("strict", "dim phi(QDer)=8, dim ZDer=5, dim Der=8"),
                       ("lax", "dim phi(QDer)=18, dim ZDer=9, dim Der=18")):
        assert got[f"Der(double) = phi(QDer) + ZDer(double) [{mode}, k=0]"] == ("pass", dims)
        assert got[f"phi(QDer) meets ZDer(double) trivially [{mode}, k=0]"] == ("fail", "")
        assert got[f"dim Der(double) = dim phi(QDer) + dim ZDer(double) [{mode}, k=0]"] \
            == ("fail", dims)


def test_total_span_is_the_sum_of_the_degrees_spans(bundled):
    """``_total_span`` joins the two degrees' canonical rows without a
    reduction, as maps of degree 0 and 1 have disjoint entries: the union
    is the span that ``subspace_sum`` reduces, row for row, on the doubles
    of the bundled algebras and of random ones, some with odd elements."""
    bases = [*bundled.values(), *sample_algebras(random.Random(1), 6)]
    assert any(1 in spec.degrees for spec in bases)
    for base, strict, k in itertools.product(bases, (True, False), (0, 1)):
        for spec in (base, build_extended(base).spec):
            of = spaces._reader(spec, strict, k)
            for kind in (SpaceKind.DER, SpaceKind.ZDER, SpaceKind.QC):
                got = extension._total_span(of, kind, k)
                want = subspace_sum(*(of(kind, k, th)._first_view[0] for th in (0, 1)))
                assert got == want and got.basis == want.basis, (spec.name, kind, k, strict)
