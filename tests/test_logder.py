"""Logarithmic derivations, Saito bases, Euler fields, psi_F, tameness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fpowers.ring import VarContext, Poly, parse_poly, divide_exact
from fpowers.logder import (
    FactorizationSpec,
    LogDerivation,
    NotLogarithmicForFactor,
    euler_and_seh_check,
    koszul_free_check,
    log_derivations,
    log_module_contains,
    psi_F,
    psi_cofactors,
    reducedness_check,
    saito_basis,
    tameness_check,
)
from fpowers.weyl import apply_to_FS


VC2 = VarContext([("X", ["x", "y"])])
VC3 = VarContext([("X", ["x", "y", "z"])])


def p2(s):
    return parse_poly(s, VC2)


def p3(s):
    return parse_poly(s, VC3)


def deriv(ctx, coeff_strs, cof_str="0"):
    return LogDerivation(
        coeffs=tuple(parse_poly(c, ctx) for c in coeff_strs),
        cofactor=parse_poly(cof_str, ctx),
    )


# ---------------------------------------------------------------------------
# log_derivations


def test_normal_crossing_generators():
    # syzygy oracle: Der(-log xy) = <x dx, y dy>; check module equality
    gens = log_derivations(p2("x*y"), "log")
    for g in gens:
        assert g.apply(p2("x*y")) == g.cofactor * p2("x*y")
    for c, b in [(["x", "0"], "1"), (["0", "y"], "1")]:
        assert log_module_contains(p2("x*y"), deriv(VC2, c, b))
    # and the generators lie in <x dx, y dy> in turn: coefficient divisibility
    for g in gens:
        assert divide_exact(g.coeffs[0], p2("x")) is not None
        assert divide_exact(g.coeffs[1], p2("y")) is not None


def test_normal_crossing_log0():
    gens = log_derivations(p2("x*y"), "log0")
    assert all(g.cofactor.is_zero() for g in gens)
    assert all(g.apply(p2("x*y")).is_zero() for g in gens)
    assert log_module_contains(p2("x*y"), deriv(VC2, ["x", "-y"]), "log0")


def test_smooth_divisor_three_vars():
    f = p3("x")
    for c, b in [(["x", "0", "0"], "1"), (["0", "1", "0"], "0"),
                 (["0", "0", "1"], "0")]:
        assert log_module_contains(f, deriv(VC3, c, b))


def test_seh_example_contains_E1():
    # E1 = (1/3) x dx + (2/3) y dy satisfies E1(f) = f for f = 2x^3 + xyz
    f = p3("2*x^3 + x*y*z")
    E1 = deriv(VC3, ["1/3*x", "2/3*y", "0"], "1")
    assert E1.apply(f) == f
    assert log_module_contains(f, E1)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_generators_absorb_independent_log_fields(data):
    # f*d_i is logarithmic for any f; so is (d_j f) d_i - (d_i f) d_j
    f = data.draw(st.sampled_from([p2("x*y"), p2("x*y*(x+y)"),
                                   p2("x^3 - y^2"), p2("x")]))
    gens = log_derivations(f, "log")
    i = data.draw(st.integers(0, 1))
    j = 1 - i
    coeffs = [Poly.zero(VC2), Poly.zero(VC2)]
    coeffs[i] = f
    assert log_module_contains(f, LogDerivation(tuple(coeffs), f.diff(VC2.names[i])))
    c2 = [Poly.zero(VC2), Poly.zero(VC2)]
    c2[i] = f.diff(VC2.names[j])
    c2[j] = -f.diff(VC2.names[i])
    hamil = LogDerivation(tuple(c2), Poly.zero(VC2))
    assert hamil.apply(f).is_zero()
    assert log_module_contains(f, hamil)
    # closure under random combinations
    h = data.draw(st.sampled_from([p2("1"), p2("x"), p2("x + 2*y")]))
    g = gens[data.draw(st.integers(0, len(gens) - 1))]
    comb = LogDerivation(tuple(h * a for a in g.coeffs), h * g.cofactor)
    assert log_module_contains(f, comb)


# ---------------------------------------------------------------------------
# psi_F


def F1():
    vc = VarContext([("X", ["x"])])
    return FactorizationSpec(["x"], [parse_poly("x", vc)])


def F_mixed():
    return FactorizationSpec(["x", "y", "z"], [p3("x"), p3("2*x^2 + y*z")])


def test_psi_euler_on_smooth_factor():
    F = F1()
    d = deriv(F.x_vc, ["x"], "1")
    from fpowers.weyl import parse_weyl
    assert psi_F(d, F) == parse_weyl("x*dx - s1", F.weyl)


def test_psi_seh_field():
    F = F_mixed()
    E1 = deriv(VC3, ["1/3*x", "2/3*y", "0"], "1")
    from fpowers.weyl import parse_weyl
    assert psi_F(E1, F) == parse_weyl(
        "1/3*x*dx + 2/3*y*dy - 1/3*s1 - 2/3*s2", F.weyl)
    assert [str(b) for b in psi_cofactors(E1, F)] == ["1/3", "2/3"]


def test_psi_rejects_non_logarithmic():
    F = F1()
    d = deriv(F.x_vc, ["1"], "0")
    with pytest.raises(NotLogarithmicForFactor) as ei:
        psi_F(d, F)
    assert ei.value.k == 1


def test_psi_succeeds_on_all_log_generators():
    # Der(-log f) equals the intersection of the per-factor log modules,
    # so exact division succeeds for each factor on every generator
    for F in [F_mixed(),
              FactorizationSpec(["x", "y"], [p2("x"), p2("y"), p2("x+y")])]:
        gens = log_derivations(F.f, "log")
        for g in gens:
            P = psi_F(g, F)
            assert apply_to_FS(P, F).is_zero()


def test_psi_is_linear_over_polynomials():
    F = F_mixed()
    E1 = deriv(VC3, ["1/3*x", "2/3*y", "0"], "1")
    for hs in ["x + y", "z^2", "3"]:
        h = p3(hs)
        scaled = LogDerivation(tuple(h * a for a in E1.coeffs), h * E1.cofactor)
        from fpowers.weyl import WeylOp
        lhs = psi_F(scaled, F)
        rhs = WeylOp.from_poly(F.weyl, h.map_context(F.xs_vc)) * psi_F(E1, F)
        assert lhs == rhs


def test_euler_cofactor_identity():
    # for an Euler field E with E(f) = f the per-factor cofactors sum to 1
    F = F_mixed()
    E1 = deriv(VC3, ["1/3*x", "2/3*y", "0"], "1")
    total = Poly.zero(VC3)
    for b in psi_cofactors(E1, F):
        total = total + b
    assert total == Poly.const(VC3, 1)


# ---------------------------------------------------------------------------
# saito_basis


def test_saito_normal_crossing():
    res = saito_basis(p2("x*y"))
    assert res.basis is not None
    q = divide_exact(res.det, p2("x*y"))
    assert q is not None and q.is_constant() and not q.is_zero()


def test_saito_three_lines():
    f = p2("x*y*(x+y)")
    res = saito_basis(f)
    assert res.basis is not None
    # determinant expansion oracle: det must be unit * f
    q = divide_exact(res.det, f)
    assert q is not None and q.is_constant() and not q.is_zero()
    # each basis element logarithmic, and the module equals Der(-log f)
    for d in res.basis:
        assert d.apply(f) == d.cofactor * f
        assert log_module_contains(f, d)


def test_saito_boolean_three_vars():
    res = saito_basis(p3("x*y*z"))
    assert res.basis is not None
    q = divide_exact(res.det, p3("x*y*z"))
    assert q is not None and q.is_constant()


def test_saito_reports_pdim_when_not_free():
    f = p3("2*x^3 + x*y*z")
    res = saito_basis(f)
    assert res.basis is None
    assert res.pdim == 1


# ---------------------------------------------------------------------------
# euler_and_seh_check


def test_euler_arrangement_product():
    rep = euler_and_seh_check(p3("x*y*z"))
    assert rep.strong_at_origin == "yes"
    E = rep.euler
    f = p3("x*y*z")
    assert E.apply(f) == f
    assert E.coeffs[0] == p3("1/3*x")


def test_euler_smooth():
    vc = VarContext([("X", ["x"])])
    rep = euler_and_seh_check(parse_poly("x", vc))
    assert rep.strong_at_origin == "yes"
    assert rep.euler.coeffs[0] == parse_poly("x", vc)


def test_euler_homogeneous_cubic():
    rep = euler_and_seh_check(p3("2*x^3 + x*y*z"))
    assert rep.strong_at_origin == "yes"
    assert rep.euler.apply(p3("2*x^3 + x*y*z")) == p3("2*x^3 + x*y*z")


def test_quasi_homogeneous_detection():
    # x^2 + y^3 is isobaric for weights (3, 2)
    rep = euler_and_seh_check(p2("x^2 + y^3"))
    assert rep.strong_at_origin == "yes"
    assert rep.euler.apply(p2("x^2 + y^3")) == p2("x^2 + y^3")


def test_non_quasi_homogeneous_unknown():
    # x^5 + y^5 + x^3*y^3 admits no positive weight vector
    rep = euler_and_seh_check(p2("x^5 + y^5 + x^3*y^3"))
    assert rep.strong_at_origin == "unknown"


# ---------------------------------------------------------------------------
# tameness / koszul / reducedness


def test_tame_low_dimension():
    assert tameness_check(p2("x*y"))[0] == "yes"
    assert tameness_check(p3("x*y*z*(x+y+z)"))[0] == "yes"


def test_tame_boolean_four_vars():
    vc4 = VarContext([("X", ["x1", "x2", "x3", "x4"])])
    verdict, reason = tameness_check(parse_poly("x1*x2*x3*x4", vc4))
    assert verdict == "yes"
    assert "pdim" in reason


def test_koszul_free_fixtures():
    for fs, n in [("x*y", 2), ("x*y*(x+y)", 2), ("x*y*z", 3)]:
        vc = VC2 if n == 2 else VC3
        f = parse_poly(fs, vc)
        res = saito_basis(f)
        assert res.basis is not None
        assert koszul_free_check(f, res.basis)


def test_reducedness():
    assert reducedness_check(p2("x*y"))[0] == "yes"
    assert reducedness_check(p2("x^2"))[0] == "no"
    assert reducedness_check(p2("x^2*y"))[0] == "no"
    assert reducedness_check(p3("2*x^3 + x*y*z"))[0] == "yes"


# ---------------------------------------------------------------------------
# FactorizationSpec plumbing


def test_factorization_derived_data():
    F = F_mixed()
    assert F.f == p3("2*x^3 + x*y*z")
    assert F.degrees == [1, 2]
    assert F.r == 2
    assert F.s_names == ["s1", "s2"]
    assert F.vanishing_at_origin


def test_hypothesis_report_mixed():
    F = F_mixed()
    h = F.check_hypotheses()
    assert h["strong_euler_origin"][0] == "yes"
    assert h["reduced"][0] == "yes"
    assert h["arrangement"][0] == "no"
    assert h["free"][0] == "no"
    assert h["tame"][0] == "yes"


def test_hypothesis_report_three_lines():
    F = FactorizationSpec(["x", "y"], [p2("x"), p2("y"), p2("x+y")])
    h = F.check_hypotheses()
    assert h["strong_euler_origin"][0] == "yes"
    assert h["reduced"][0] == "yes"
    assert h["arrangement"][0] == "yes"
    assert h["free"][0] == "yes"
    assert h["tame"][0] == "yes"
    assert h["saito_holonomic"][0] == "yes"


def test_theta_generators_annihilate():
    for F in [F1(), F_mixed(),
              FactorizationSpec(["x", "y"], [p2("x"), p2("y")])]:
        for t in F.theta_generators():
            assert apply_to_FS(t, F).is_zero()


def test_spec_computes_log_derivations_once(monkeypatch):
    # theta_F, the hypothesis checks and the log0 variant share one cache
    from fpowers import logder
    calls = []
    real = logder.log_derivations

    def counted(f, variant="log"):
        calls.append(variant)
        return real(f, variant)
    monkeypatch.setattr(logder, "log_derivations", counted)
    F = FactorizationSpec(["x", "y"], [p2("x^2 + y^3")])
    theta = F.theta_generators()
    assert F.check_hypotheses()["saito_holonomic"][0] == "yes"
    assert F.theta_generators() == theta
    assert F.log_derivations("log0") == real(F.f, "log0")
    F.log_derivations("log0")
    assert calls == ["log", "log0"]
    # callers get their own list
    F.log_derivations("log").clear()
    assert len(F.log_derivations("log")) == len(real(F.f, "log"))


# ---------------------------------------------------------------------------
# the hypothesis memo: one complete table per (max_degree, max_basis)

_ALL_HYPOTHESES = {"strong_euler_origin", "reduced", "arrangement", "free",
                   "tame", "saito_holonomic"}


def test_hypothesis_table_always_complete():
    # there is no shallow mode: every table carries the verdicts bs_ideal
    # reads, so B_F follows any earlier check
    from fpowers.bside import bs_ideal
    F = FactorizationSpec(["x", "y"], [p2("x^2 + y^3")])
    with pytest.raises(TypeError):
        F.check_hypotheses(deep=False)
    assert set(F.check_hypotheses()) == _ALL_HYPOTHESES
    assert bs_ideal(F).principal_generator is not None


def test_hypothesis_resource_limit_leaves_no_table():
    from fpowers.bside import bs_ideal
    from fpowers.gb import Limits, ResourceLimit
    F = FactorizationSpec(["x", "y"], [p2("x^3 + y^4")])
    with pytest.raises(ResourceLimit), Limits(max_degree=2):
        F.check_hypotheses()
    h = F.check_hypotheses()
    assert set(h) == _ALL_HYPOTHESES
    assert h == FactorizationSpec(["x", "y"], [p2("x^3 + y^4")]) \
        .check_hypotheses()
    assert bs_ideal(F).principal_generator is not None


def test_hypothesis_table_kept_per_bounds(monkeypatch):
    from fpowers import logder
    from fpowers.gb import Limits
    calls = []
    real = logder.reducedness_check

    def counted(f):
        limits = Limits.current()
        calls.append((limits.max_degree, limits.max_basis))
        return real(f)
    monkeypatch.setattr(logder, "reducedness_check", counted)
    F = FactorizationSpec(["x", "y"], [p2("x"), p2("y"), p2("x + y")])
    tight = Limits(max_degree=3)
    # under the tight bound the colon ideal is out of reach
    with tight:
        assert F.check_hypotheses()["reduced"][0] == "unknown"
    assert F.check_hypotheses()["reduced"][0] == "yes"
    with tight:
        assert F.check_hypotheses()["reduced"][0] == "unknown"
    assert F.check_hypotheses()["reduced"][0] == "yes"
    from fpowers.gb import DEFAULT_LIMITS
    default = (DEFAULT_LIMITS.max_degree, DEFAULT_LIMITS.max_basis)
    assert calls == [(3, tight.max_basis), default]
    # callers get their own dict
    F.check_hypotheses().clear()
    assert set(F.check_hypotheses()) == _ALL_HYPOTHESES


# ---------------------------------------------------------------------------
# sugar selection: the generators move, the modules they span do not


def _theta_vector(op, F):
    """theta = sum a_i d_i + sum c_k s_k as (a_1, ..., a_n, c_1, ..., c_r)
    over Q[x]: every term carries exactly one d_i or s_k, to the first
    power."""
    n = len(F.x_names)
    parts = [{} for _ in range(len(op.ctx.names) - n)]
    for e, c in op.terms.items():
        (slot,) = [i for i, v in enumerate(e[n:]) if v]
        assert e[n + slot] == 1
        parts[slot][e[:n]] = c
    return [Poly(F.weyl.x_vc, t) for t in parts]


def _modules(F):
    """The Der(-log f) and Der(-log0 f) generators and theta_F of F, each
    as a list of vectors over Q[x]."""
    out = {v: [list(d.coeffs) + [d.cofactor] for d in F.log_derivations(v)]
           for v in ("log", "log0")}
    out["theta"] = [_theta_vector(t, F) for t in F.theta_generators()]
    return out


@pytest.mark.parametrize("factors", [["x", "2*x^2 + y*z"],
                                     ["x*(2*x^2 + y*z)"]],
                         ids=["ex_mixed", "ex_x2x2yz"])
def test_sugar_generators_span_the_normal_selection_modules(
        factors, normal_selection):
    make = lambda: FactorizationSpec(["x", "y", "z"],
                                     [p3(f) for f in factors])
    new = _modules(make())
    normal_selection()
    old = _modules(make())
    from fpowers.gb import module_contains
    for name in ("log", "log0", "theta"):
        # each list lost one redundant generator
        assert len(old[name]) == len(new[name]) + 1
        assert all(module_contains(new[name], v) for v in old[name])
        assert all(module_contains(old[name], v) for v in new[name])
