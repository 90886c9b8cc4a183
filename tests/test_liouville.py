"""Symbol ideals L_F, Ltilde_F, their initial ideals, HOM_u, and ker(phi_F)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fpowers import liouville
from fpowers.gb import IdealHandle, is_nonzerodivisor, krull_dimension
from fpowers.ring import MonomialOrder, Poly, VarContext, parse_poly
from fpowers.logder import FactorizationSpec
from fpowers.liouville import (
    build_liouville_ideals,
    extend_with_t,
    gr_equality_certificate,
    homogenize_u,
    initial_ideal,
    leading_exponents,
    liouville_symbols,
    monomial_ideals_equal,
    phi_F_kernel,
    substitute_t,
    tau_u_order,
    tau_u_prime_order,
)
import symbol_reference
from colon_reference import ideal_colon


VC2 = VarContext([("X", ["x", "y"])])
VC3 = VarContext([("X", ["x", "y", "z"])])


def p(s, vc):
    return parse_poly(s, vc)


def F_xy():
    return FactorizationSpec(["x", "y"], [p("x", VC2), p("y", VC2)])


def F_x1():
    vc = VarContext([("X", ["x"])])
    return FactorizationSpec(["x"], [p("x", vc)])


def F_mixed():
    return FactorizationSpec(["x", "y", "z"],
                             [p("x", VC3), p("2*x^2 + y*z", VC3)])


# ---------------------------------------------------------------------------
# build_liouville_ideals


def test_normal_crossing_ideals():
    # from the log_derivations output: Der(-log0 xy) = <x dx - y dy>, so
    # L_F = (x y1 - y y2 - s1 + s2); adding the Euler direction gives Ltilde
    F = F_xy()
    data = build_liouville_ideals(F)
    sym = F.symbol_vc
    assert data.L_F.equals(IdealHandle([p("x*y1 - y*y2 - s1 + s2", sym)]))
    assert data.Ltilde_F.equals(
        IdealHandle([p("x*y1 - s1", sym), p("y*y2 - s2", sym)]))
    assert data.In010_LF.equals(IdealHandle([p("x*y1 - y*y2", sym)]))


def test_single_smooth_factor():
    F = F_x1()
    data = build_liouville_ideals(F)
    assert data.L_F.is_zero_ideal()
    assert data.Ltilde_F.equals(
        IdealHandle([p("x*y1 - s1", F.symbol_vc)]))


def test_mixed_dimension_n_plus_r():
    F = F_mixed()
    data = build_liouville_ideals(F)
    assert krull_dimension(data.Ltilde_F) == F.n + F.r


def test_generators_are_symbol_homogeneous():
    # every generator is (0,1,1)-homogeneous of degree 1
    for F in [F_xy(), F_mixed()]:
        w = F.symbol_vc.grading("(0,1,1)")
        for g in liouville_symbols(F, "log") + liouville_symbols(F, "log0"):
            degs = {sum(wi * e[i] for i, wi in enumerate(w)) for e in g.terms}
            assert degs == {1}


def test_L_contained_in_Ltilde_contained_in_kernel():
    for F in [F_xy(), F_mixed()]:
        data = build_liouville_ideals(F)
        K = phi_F_kernel(F)
        assert data.Ltilde_F.contains_ideal(data.L_F)
        assert K.contains_ideal(data.Ltilde_F)


def test_initial_ideal_dimension_inequality():
    # dim In_{(0,1,0)}(L_F) >= dim L_F
    for F in [F_xy(), F_mixed()]:
        data = build_liouville_ideals(F)
        if data.L_F.is_zero_ideal():
            continue
        assert krull_dimension(data.In010_LF) >= krull_dimension(data.L_F)


def test_extension_of_single_s_ideal_in_initial():
    # the r=1 symbols (no s present) land inside In_{(0,1,0)} of L_F
    F = F_xy()
    data = build_liouville_ideals(F)
    single = FactorizationSpec(["x", "y"], [p("x*y", VC2)])
    for g in liouville_symbols(single, "log0"):
        # remap x,y,y1,y2,s1 -> the two-factor symbol ring; log0 symbols
        # carry no s-variables so the rename is injective on support
        moved = Poly.zero(F.symbol_vc)
        for e, c in g.terms.items():
            ee = [0] * F.symbol_vc.n
            for i, name in enumerate(single.symbol_vc.names):
                if e[i]:
                    ee[F.symbol_vc.index[name]] = e[i]
            moved = moved + Poly(F.symbol_vc, {tuple(ee): c})
        assert data.In010_LF.contains(moved)


# ---------------------------------------------------------------------------
# phi_F kernel


def test_kernel_normal_crossing():
    # hand-check: phi(x y1 - s1) = x(y s1) - (xy)s1 = 0
    F = F_xy()
    K = phi_F_kernel(F)
    sym = F.symbol_vc
    assert K.equals(IdealHandle([p("x*y1 - s1", sym), p("y*y2 - s2", sym)]))


def test_kernel_single_variable():
    F = F_x1()
    K = phi_F_kernel(F)
    assert K.equals(IdealHandle([p("x*y1 - s1", F.symbol_vc)]))


def test_kernel_dimension_always_n_plus_r():
    for F in [F_x1(), F_xy()]:
        assert krull_dimension(phi_F_kernel(F)) == F.n + F.r


# ---------------------------------------------------------------------------
# gr-equality certificate


def test_certificate_normal_crossing():
    rep = gr_equality_certificate(F_xy())
    assert rep["Ltilde_eq_kernel"]
    assert rep["primality_certificate"]
    assert rep["hypotheses_verified"]


def test_certificate_mixed():
    rep = gr_equality_certificate(F_mixed())
    assert rep["Ltilde_eq_kernel"]
    assert rep["primality_certificate"]


def test_certificate_single():
    rep = gr_equality_certificate(F_x1())
    assert rep["Ltilde_eq_kernel"]


def test_certificate_assume_flag_skips_hypotheses():
    rep = gr_equality_certificate(F_xy(), assume_hypotheses=True)
    assert rep["hypotheses_verified"]
    assert "assumed" in rep["hypotheses"]


@pytest.mark.parametrize("key", sorted(symbol_reference.FIXTURES))
@pytest.mark.parametrize("assume", [False, True])
def test_certificate_matches_the_reference(key, assume):
    # the reference read Ltilde_F off all three Liouville ideals
    got = gr_equality_certificate(symbol_reference.spec(key), assume)
    assert got == symbol_reference.gr_equality_certificate(
        symbol_reference.spec(key), assume)


def _random_factor(rng, ctx):
    """A linear form of one or two terms, sometimes times a variable: the
    graph elimination of the reference finishes in well under a second on
    such factorizations, where it runs for minutes on some quadrics."""
    terms = {}
    for i in rng.sample(range(ctx.n), rng.randint(1, 2)):
        e = [0] * ctx.n
        e[i] = 1
        terms[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
    g = Poly(ctx, terms)
    if rng.random() < 0.3:
        g = g * Poly.var(ctx, rng.choice(ctx.names))
    return g


def _kernel_cases():
    """(id, names, factors): the symbol_reference fixtures, repeated
    factors, (x, 2x^2 + yz), xy(x+y)(x+yz) (whose Ltilde_F is smaller
    than ker(phi_F)) and seeded random factorizations in 2-3 variables."""
    cases = [(key, *symbol_reference.FIXTURES[key])
             for key in sorted(symbol_reference.FIXTURES)]
    for names, factors in [("xyz", ["3*x + z", "z", "-z"]),
                           ("xyz", ["x", "2*x^2 + y*z"]),
                           ("xyz", ["x*y*(x + y)*(x + y*z)"])]:
        cases.append((",".join(factors), list(names), factors))
    rng = random.Random(1)
    for _ in range(8):
        names = ["x", "y", "z"][:rng.randint(2, 3)]
        ctx = VarContext([("X", names)])
        r = 2 if len(names) == 3 else rng.randint(2, 3)
        factors = [str(_random_factor(rng, ctx)) for _ in range(r)]
        cases.append((",".join(factors), names, factors))
    return cases


KERNEL_CASES = _kernel_cases()


def _spec_of(names, factors):
    vc = VarContext([("X", names)])
    return FactorizationSpec(names, [p(f, vc) for f in factors])


def _strings(K):
    return [str(g) for g in K.gens]


@pytest.mark.parametrize("names,factors",
                         [c[1:] for c in KERNEL_CASES],
                         ids=[c[0] for c in KERNEL_CASES])
def test_phi_F_kernel_matches_the_graph_elimination(names, factors):
    # the saturation Ltilde_F : f^inf and the graph ideal's elimination
    # give the same reduced basis, printed alike
    got = phi_F_kernel(_spec_of(names, factors))
    want = symbol_reference.graph_phi_F_kernel(_spec_of(names, factors))
    assert got.ctx == want.ctx
    assert _strings(got) == _strings(want)


@pytest.mark.parametrize("names,factors",
                         [c[1:] for c in KERNEL_CASES],
                         ids=[c[0] for c in KERNEL_CASES])
def test_phi_F_kernel_generators_vanish_under_phi_F(names, factors):
    # y_i -> sum_k (f/f_k) (d_i f_k) s_k and s_k -> f s_k, by TermMap.subs
    F = _spec_of(names, factors)
    sym = F.symbol_vc
    S = [Poly.var(F.xs_vc, s) for s in F.s_names]
    image = {s: (F.f_xs * S[k]).moved(sym) for k, s in enumerate(F.s_names)}
    for i, y in enumerate(F.weyl.y_names):
        image[y] = sum((F.cofactor_xs[k] * F.dfk_xs[k][i] * S[k]
                        for k in range(F.r)), Poly.zero(F.xs_vc)).moved(sym)
    K = phi_F_kernel(F)
    assert K.gens
    assert all(g.subs(image).is_zero() for g in K.gens)


def test_a_saturation_short_of_the_last_factor_fails_the_comparison():
    # the same loop without its last step: on xy(x+y)(x+yz) it leaves
    # Ltilde_F, a smaller ideal than ker(phi_F), and on other cases
    # unreduced generators
    def short_kernel(F):
        ctx, tag = liouville._with_tag(F.symbol_vc)
        one, w = Poly.const(ctx, 1), Poly.var(ctx, tag)
        gens = liouville_symbols(F, "log")
        for fk in F.factors[:-1]:
            K = [g.moved(ctx) for g in gens] + [one - w * fk.moved(ctx)]
            gens = liouville.eliminate(IdealHandle(K), "_W").gens
        return IdealHandle(gens, ctx=F.symbol_vc)

    differ = []
    for key, names, factors in KERNEL_CASES:
        got = short_kernel(_spec_of(names, factors))
        want = symbol_reference.graph_phi_F_kernel(_spec_of(names, factors))
        if _strings(got) != _strings(want):
            differ.append(key)
            if key == "x*y*(x + y)*(x + y*z)":
                assert want.contains_ideal(got)
                assert not got.contains_ideal(want)
    assert "x*y*(x + y)*(x + y*z)" in differ
    assert "no_euler" in differ


@pytest.mark.parametrize("key", sorted(symbol_reference.FIXTURES))
def test_phi_F_kernel_matches_the_two_copy_elimination(key):
    # x maps to itself, so its copies _tx* leave the graph ideal: the same
    # generators, printed alike
    got = phi_F_kernel(symbol_reference.spec(key))
    want = symbol_reference.two_copy_phi_F_kernel(symbol_reference.spec(key))
    assert got.ctx == want.ctx
    assert [str(g) for g in got.gens] == [str(g) for g in want.gens]


@pytest.mark.parametrize("key", sorted(symbol_reference.FIXTURES))
def test_eliminate_reads_the_w_free_prefix_of_the_full_reduction(
        key, monkeypatch):
    # gb.eliminate reduces only the elements free of the tag's block _W;
    # they are the ones the whole reduced basis keeps, element for element,
    # at each of the saturation's steps, one per factor
    steps = []
    real = liouville.eliminate

    def recorded(I, block):
        steps.append((I, block))
        return real(I, block)
    monkeypatch.setattr(liouville, "eliminate", recorded)
    F = symbol_reference.spec(key)
    phi_F_kernel(F)
    assert [block for _, block in steps] == ["_W"] * F.r
    for I, _ in steps:
        got, want = real(I, "_W"), symbol_reference.full_eliminate(I, "_W")
        assert got.ctx == want.ctx
        assert [list(g.terms.items()) for g in got.gens] == \
            [list(g.terms.items()) for g in want.gens]


def test_certificate_builds_no_initial_ideal(monkeypatch):
    def refuse(*args):
        raise AssertionError("initial ideal built")
    monkeypatch.setattr(liouville, "initial_ideal", refuse)
    assert gr_equality_certificate(F_xy())["Ltilde_eq_kernel"]


# ---------------------------------------------------------------------------
# homogenization


def sym1():
    return F_x1().symbol_vc  # variables x, y1, s1


def test_hom_basic():
    I = IdealHandle([p("x*y1 - s1", sym1())])
    H = homogenize_u(I, [0, 1, 0])
    assert [str(g) for g in H.gens] == ["x*y1 - s1*t"]


def test_hom_inhomogeneous_generator():
    I = IdealHandle([p("y1^2 + y1", sym1())])
    H = homogenize_u(I, [0, 1, 0])
    assert [str(g) for g in H.gens] == ["y1^2 + y1*t"]


def test_hom_rejects_constant_terms():
    with pytest.raises(ValueError):
        homogenize_u(IdealHandle([p("y1 + 1", sym1())]), [0, 1, 0])


def test_hom_fibers():
    I = IdealHandle([p("x*y1 - s1", sym1()), p("y1^2 + s1", sym1())])
    u = [0, 1, 0]
    H = homogenize_u(I, u)
    assert substitute_t(H, 0).equals(initial_ideal(I, u))
    assert substitute_t(H, 1).equals(I)


def _random_ideal(rng, vc, ngens=2, nterms=3, max_deg=2):
    gens = []
    for _ in range(ngens):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randint(0, max_deg) for _ in range(vc.n))
            if sum(e) == 0:
                continue  # keep I inside the irrelevant ideal
            terms[e] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
        if terms:
            gens.append(Poly(vc, terms))
    return IdealHandle(gens) if gens else IdealHandle.zero(vc)


def test_hom_properties_randomized():
    rng = random.Random(20240817)
    vc = VarContext([("X", ["a", "b", "c"])])
    for trial in range(12):
        I = _random_ideal(rng, vc)
        if I.is_zero_ideal():
            continue
        u = [rng.randint(0, 2) for _ in range(3)]
        H = homogenize_u(I, u)
        tvar = Poly.var(H.ctx, "t")
        # t is a nonzerodivisor mod HOM_u(I), as the syzygy colon says
        assert is_nonzerodivisor(H, tvar, u + [1])
        assert ideal_colon(H, tvar).equals(H)
        # the two fibers
        assert substitute_t(H, 0).equals(initial_ideal(I, u))
        assert substitute_t(H, 1).equals(I)
        # initial-ideal identity between the refined orders
        lmI = leading_exponents(I, tau_u_order(u))
        lmH = leading_exponents(H, tau_u_prime_order(H.ctx, u))
        assert monomial_ideals_equal([e + (0,) for e in lmI], lmH)
        # dimension can only grow when passing to the initial ideal
        assert krull_dimension(initial_ideal(I, u)) >= krull_dimension(I)
