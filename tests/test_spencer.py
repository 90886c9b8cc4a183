"""Wedge-module co-complex: differentials, chain conditions, dual lift."""

from fractions import Fraction
from itertools import permutations

import pytest

from fpowers.ring import Poly, VarContext, parse_poly
from fpowers.logder import FactorizationSpec, LogDerivation, psi_F
from fpowers.weyl import WeylOp, parse_weyl, transpose_tau
from fpowers.bside import coarsen_last_two, merge_last_s
from fpowers.spencer import (
    NotFree,
    StructureConstantFailure,
    dual_lift_check,
    lie_bracket,
    matrix_is_zero,
    matrix_product,
    raw_wedge_image,
    spencer_complex,
    structure_constants,
    tau_transposed_chain_holds,
    verify_chain_conditions,
    _resolve_against_basis,
)


VC1 = VarContext([("X", ["x"])])
VC2 = VarContext([("X", ["x", "y"])])
VC3 = VarContext([("X", ["x", "y", "z"])])


def p(s, vc):
    return parse_poly(s, vc)


def F_x():
    return FactorizationSpec(["x"], [p("x", VC1)])


def F_xy():
    return FactorizationSpec(["x", "y"], [p("x", VC2), p("y", VC2)])


def F_xyz():
    return FactorizationSpec(
        ["x", "y", "z"], [p("x", VC3), p("y", VC3), p("z", VC3)])


def F_cubic():
    return FactorizationSpec(["x", "y"], [p("x*y*(x + y)", VC2)])


def F_mixed():
    return FactorizationSpec(
        ["x", "y", "z"], [p("x", VC3), p("2*x^2 + y*z", VC3)])


def cubic_basis():
    # Euler field and the classical degree-2 companion for x*y*(x+y).
    e = LogDerivation((p("x", VC2), p("y", VC2)), Poly.const(VC2, Fraction(3)))
    d = LogDerivation((p("x^2", VC2), p("-y^2", VC2)), p("2*x - 2*y", VC2))
    return [e, d]


# ---------------------------------------------------------------- assembly


def test_normal_crossing_first_differential_is_psi_column():
    F = F_xy()
    basis = [
        LogDerivation((p("x", VC2), Poly.zero(VC2)), Poly.const(VC2, Fraction(1))),
        LogDerivation((Poly.zero(VC2), p("y", VC2)), Poly.const(VC2, Fraction(1))),
    ]
    C = spencer_complex(F, basis=basis)
    col = [row[0] for row in C.differentials[1]]
    assert col == list(C.lambdas)
    w = F.weyl
    assert col == [parse_weyl("x*dx - s1", w), parse_weyl("y*dy - s2", w)]


def test_normal_crossing_structure_constants_vanish():
    C = spencer_complex(F_xy())
    for cs in C.structure.values():
        assert all(c.is_zero() for c in cs)


def test_normal_crossing_second_differential_layout():
    # d(e_1 wedge e_2) = lambda_1 (x) e_2 - lambda_2 (x) e_1: row [-l2, l1].
    C = spencer_complex(F_xy())
    l1, l2 = C.lambdas
    assert C.differentials[2] == [[l2 * (-1), l1]]


def test_ranks_are_binomials():
    C = spencer_complex(F_xyz())
    assert sorted(C.differentials) == [1, 2, 3]
    shapes = {k: (len(M), len(M[0])) for k, M in C.differentials.items()}
    assert shapes == {1: (3, 1), 2: (3, 3), 3: (1, 3)}
    assert [len(C.subsets(k)) for k in range(4)] == [1, 3, 3, 1]


def test_supplied_basis_bad_determinant_rejected():
    F = F_cubic()
    e, _ = cubic_basis()
    with pytest.raises(NotFree):
        spencer_complex(F, basis=[e, e])


def test_not_free_raises():
    with pytest.raises(NotFree):
        spencer_complex(F_mixed())


# ------------------------------------------------- brackets and constants


def test_lie_bracket_euler_with_companion():
    e, d = cubic_basis()
    b = lie_bracket(e, d)
    assert b.coeffs == d.coeffs
    assert b.cofactor == d.cofactor


def test_structure_constant_of_cubic_basis():
    e, d = cubic_basis()
    cs = structure_constants([e, d])
    assert [str(c) for c in cs[(0, 1)]] == ["0", "1"]


def test_resolve_outside_span_fails():
    e, d = cubic_basis()
    one = Poly.const(VC2, Fraction(1))
    with pytest.raises(StructureConstantFailure):
        _resolve_against_basis([one, Poly.zero(VC2)], [e, d])


def test_bracket_morphism_property():
    # [psi(d1), psi(d2)] = psi([d1, d2]) as operators.
    F = F_cubic()
    e, d = cubic_basis()
    l1 = psi_F(e, F)
    l2 = psi_F(d, F)
    assert l1 * l2 - l2 * l1 == psi_F(lie_bracket(e, d), F)


# ----------------------------------------------------- chain conditions


@pytest.mark.parametrize("make", [F_x, F_xy, F_xyz, F_cubic],
                         ids=["x", "xy", "xyz", "cubic"])
def test_chain_conditions_hold(make):
    C = spencer_complex(make())
    rep = verify_chain_conditions(C)
    assert rep.d2_zero
    assert rep.terminal_image_eq_thetaF
    assert rep.gr_exactness_certificate


def test_explicit_basis_gives_valid_complex():
    C = spencer_complex(F_cubic(), basis=cubic_basis())
    rep = verify_chain_conditions(C)
    assert rep.d2_zero and rep.terminal_image_eq_thetaF
    assert rep.gr_exactness_certificate


def test_composite_products_are_zero_matrices():
    C = spencer_complex(F_xyz())
    for k in (2, 3):
        prod = matrix_product(C.differentials[k], C.differentials[k - 1])
        assert matrix_is_zero(prod)


# ------------------------------------------------------------- dual lift


def test_dual_lift_operator_identity_single_variable():
    F = F_x()
    C = spencer_complex(F)
    lam = C.differentials[1][0][0]
    f_op = F.f_xs.moved(F.weyl, WeylOp)
    shifted = lam.subs({s: WeylOp.var(F.weyl, s) + 1 for s in F.s_names})
    assert shifted * f_op == f_op * lam
    assert dual_lift_check(C)


@pytest.mark.parametrize("make", [F_xy, F_xyz, F_cubic],
                         ids=["xy", "xyz", "cubic"])
def test_dual_lift_full_matrices(make):
    assert dual_lift_check(spencer_complex(make()))


def test_dual_lift_explicit_basis():
    assert dual_lift_check(spencer_complex(F_cubic(), basis=cubic_basis()))


# --------------------------------------------------- symmetry bookkeeping


@pytest.mark.parametrize("perm", list(permutations(range(3))))
def test_alternating_in_wedge_indices(perm):
    C = spencer_complex(F_xyz())
    sign = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if perm[i] > perm[j]:
                sign = -sign
    base = raw_wedge_image(C, [0, 1, 2])
    image = raw_wedge_image(C, list(perm))
    assert image == {J: op * sign for J, op in base.items()}


def test_swap_on_cubic_pair():
    C = spencer_complex(F_cubic())
    assert raw_wedge_image(C, [1, 0]) == {
        J: op * (-1) for J, op in raw_wedge_image(C, [0, 1]).items()}


@pytest.mark.parametrize("make", [F_xy, F_xyz, F_cubic],
                         ids=["xy", "xyz", "cubic"])
def test_transposed_chain_after_tau(make):
    assert tau_transposed_chain_holds(spencer_complex(make()))


def test_tau_is_involutive_on_entries():
    C = spencer_complex(F_cubic())
    for M in C.differentials.values():
        for row in M:
            for entry in row:
                assert transpose_tau(transpose_tau(entry)) == entry


# ---------------------------------------- single s-variable consistency


def test_single_s_specialization_matches_coarse_complex():
    # Identifying the two s-variables of (x, y) must reproduce the
    # differentials built directly for the one-factor description of x*y.
    src = F_xy()
    dst = coarsen_last_two(src)
    Cs = spencer_complex(src)
    Cd = spencer_complex(dst)
    for k in (1, 2):
        merged = [[merge_last_s(e, src, dst) for e in row]
                  for row in Cs.differentials[k]]
        assert merged == Cd.differentials[k]
