"""Arrangement predicates: essential, indecomposable, tame shortcut."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fpowers.ring import VarContext, Poly, parse_poly
from fpowers.arrange import (
    ArrangementSpec,
    NotLinear,
    arrangement_analyze,
    definitely_not_linear_split,
    linear_form_factorization,
    matroid_connected,
    rational_roots,
)
from fpowers.logder import FactorizationSpec


VC2 = VarContext([("X", ["x", "y"])])
VC3 = VarContext([("X", ["x", "y", "z"])])


def p2(s):
    return parse_poly(s, VC2)


def p3(s):
    return parse_poly(s, VC3)


def spec_of(ctx, form_strs, mults=None):
    forms = [parse_poly(s, ctx) for s in form_strs]
    mults = mults or [1] * len(forms)
    groups = [[i] * m for i, m in enumerate(mults)]
    return ArrangementSpec(forms, mults, groups)


# ---------------------------------------------------------------------------
# analyze


def test_three_lines_indecomposable():
    # U_{2,3} connectivity oracle: any single element has rank 1, the other
    # two still have rank 2, so no partition splits the rank
    rep = arrangement_analyze(spec_of(VC2, ["x", "y", "x+y"]))
    assert rep["central"][0] == "yes"
    assert rep["essential"][0] == "yes"
    assert rep["indecomposable"][0] == "yes"
    assert rep["saito_holonomic"][0] == "yes"


def test_normal_crossing_decomposable():
    rep = arrangement_analyze(spec_of(VC2, ["x", "y"]))
    assert rep["indecomposable"][0] == "no"


def test_four_planes_in_three_space():
    # U_{3,4}: connected
    rep = arrangement_analyze(spec_of(VC3, ["x", "y", "z", "x+y+z"]))
    assert rep["essential"][0] == "yes"
    assert rep["indecomposable"][0] == "yes"
    assert rep["tame_shortcut"][0] == "yes"


def test_non_essential():
    rep = arrangement_analyze(spec_of(VC3, ["x", "y", "x+y"]))
    assert rep["essential"][0] == "no"


def test_not_linear_rejected():
    with pytest.raises(NotLinear):
        spec_of(VC2, ["x^2"])
    with pytest.raises(NotLinear):
        spec_of(VC2, ["x + 1"])


def test_proportional_forms_rejected():
    with pytest.raises(ValueError):
        spec_of(VC2, ["x", "2*x"])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_indecomposable_invariant_under_scaling_and_permutation(data):
    base = ["x", "y", "x+y", "x - y"]
    forms = [p2(s) for s in base]
    perm = data.draw(st.permutations(range(len(forms))))
    scale = [data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
             for _ in forms]
    A1 = ArrangementSpec(forms, [1] * 4, [[i] for i in range(4)])
    forms2 = [forms[i] * scale[k] for k, i in enumerate(perm)]
    A2 = ArrangementSpec(forms2, [1] * 4, [[i] for i in range(4)])
    assert arrangement_analyze(A1)["indecomposable"] == \
        arrangement_analyze(A2)["indecomposable"]


def test_essential_iff_rank_n():
    normals_rank2 = [[Fraction(1), Fraction(0), Fraction(0)],
                     [Fraction(0), Fraction(1), Fraction(0)],
                     [Fraction(1), Fraction(1), Fraction(0)]]
    from fpowers.arrange import _rank
    assert _rank(normals_rank2) == 2


def test_matroid_single_element_connected():
    assert matroid_connected([[Fraction(1), Fraction(0)]])


# ---------------------------------------------------------------------------
# linear_form_factorization


def test_split_three_lines():
    fac = linear_form_factorization(p2("x*y*(x+y)"))
    assert fac is not None
    assert sorted((str(f), m) for f, m in fac) == \
        [("x", 1), ("x + y", 1), ("y", 1)]


def test_split_with_multiplicities():
    fac = linear_form_factorization(p2("x^2*y^3"))
    assert sorted((str(f), m) for f, m in fac) == [("x", 2), ("y", 3)]


def test_split_rational_slopes():
    # 2x^2 - x*y - y^2 = (2x + y)(x - y)
    fac = linear_form_factorization(p2("2*x^2 - x*y - y^2"))
    assert fac is not None
    prod = Poly.const(VC2, 1)
    for form, m in fac:
        prod = prod * form ** m
    from fpowers.ring import divide_exact
    q = divide_exact(p2("2*x^2 - x*y - y^2"), prod)
    assert q is not None and q.is_constant()


def test_divisors_match_brute_force():
    from fpowers.arrange import _divisors
    for n in range(1, 2001):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_split_with_large_prime_coefficients():
    # the end coefficients are products of two primes near 10^6: listing
    # divisors by trying every integer up to them did not finish
    fac = linear_form_factorization(
        p2("(1000003*x - 999983*y)*(999979*x + 1000033*y)"))
    assert sorted((str(f), m) for f, m in fac) == \
        [("1000003*x - 999983*y", 1), ("999979*x + 1000033*y", 1)]


def test_split_fails_on_irreducible_quadric():
    q = p3("2*x^2 + y*z")
    assert linear_form_factorization(q) is None
    assert definitely_not_linear_split(q)


def test_split_fails_on_elliptic_like():
    assert linear_form_factorization(p2("x^3 - y^2")) is None


def test_split_linear_with_monomial_content():
    fac = linear_form_factorization(p3("x*y*(x+y)"))
    assert fac is not None and sum(m for _, m in fac) == 3


def test_rational_roots_multiplicity():
    # (t+1)^2 (2t-3)
    roots = rational_roots([Fraction(-3), Fraction(-4), Fraction(1), Fraction(2)])
    assert sorted(roots) == [(Fraction(-1), 2), (Fraction(3, 2), 1)]


def test_factorization_spec_to_arrangement():
    F = FactorizationSpec(["x", "y"], [p2("x*y"), p2("x+y")])
    A = F.try_arrangement()
    assert A is not None
    assert len(A.forms) == 3
    assert A.groups[0] == [0, 1] or len(A.groups[0]) == 2
    rep = arrangement_analyze(A)
    assert rep["indecomposable"][0] == "yes"


def test_try_arrangement_merges_proportional_forms():
    # x appears in both factors: one form of multiplicity 2
    F = FactorizationSpec(["x", "y"], [p2("x"), p2("3*x")])
    A = F.try_arrangement()
    assert A is not None
    assert len(A.forms) == 1
    assert A.mults == [2]
