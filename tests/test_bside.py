"""Bernstein-Sato ideals, functional-equation witnesses, coarsening checks."""

from fractions import Fraction

import pytest

from fpowers.gb import IdealHandle, radical_membership
from fpowers.ring import MonomialOrder, Poly, VarContext, parse_poly
from fpowers.logder import FactorizationSpec
from fpowers.weyl import WeylOp, apply_to_FS, FSElement, parse_weyl
from fpowers.bside import (
    WitnessExtractionFailed,
    ann_FS,
    bs_ideal,
    coarsen_last_two,
    detect_hyperplane_factors,
    diagonal_restriction_check,
    diagonal_substitution,
    format_principal,
    functional_equation_witness,
    hyperplane_containment,
    merge_last_s,
    s_context,
    univariate_roots,
)
from weyl_reference import basis_rows, combination, reference_cofactors


VC1 = VarContext([("X", ["x"])])
VC2 = VarContext([("X", ["x", "y"])])
VC3 = VarContext([("X", ["x", "y", "z"])])


def p(s, vc):
    return parse_poly(s, vc)


def F_x():
    return FactorizationSpec(["x"], [p("x", VC1)])


def F_xy():
    return FactorizationSpec(["x", "y"], [p("x", VC2), p("y", VC2)])


def F_xy_single():
    return FactorizationSpec(["x", "y"], [p("x*y", VC2)])


def F_lines():
    return FactorizationSpec(
        ["x", "y"], [p("x", VC2), p("y", VC2), p("x + y", VC2)])


def F_mixed():
    return FactorizationSpec(["x", "y", "z"],
                             [p("x", VC3), p("2*x^2 + y*z", VC3)])


def F_cubic():
    return FactorizationSpec(["x", "y", "z"], [p("2*x^3 + x*y*z", VC3)])


# ---------------------------------------------------------------------------
# annihilator


def test_ann_single_smooth_factor_ambient_3():
    F = FactorizationSpec(["x", "y", "z"], [p("x", VC3)])
    ann = ann_FS(F)
    assert ann.validity == "full"
    w = F.weyl
    ideal_gens = {str(t) for t in ann.theta}
    # x dx - s1 plus the two coordinate fields that ignore x
    assert str(parse_weyl("x*dx - s1", w)) in ideal_gens
    assert "dy" in ideal_gens and "dz" in ideal_gens


def test_ann_normal_crossing_full_validity():
    from fpowers.weyl import LeftIdeal
    F = F_xy()
    ann = ann_FS(F)
    assert ann.validity == "full"
    # same left ideal as the coordinate-wise generators
    order = MonomialOrder.grevlex()
    ours = LeftIdeal(ann.theta, order)
    named = LeftIdeal([parse_weyl("x*dx - s1", F.weyl),
                       parse_weyl("y*dy - s2", F.weyl)], order)
    assert all(named.member(t) for t in ann.theta)
    assert all(ours.member(t) for t in named.gens)


def test_ann_mixed_fixture_full_validity():
    # not free and not an arrangement, but the rank stratification certifies
    # Saito-holonomicity and n=3 gives tameness
    ann = ann_FS(F_mixed())
    assert ann.validity == "full"
    for t in ann.theta:
        assert apply_to_FS(t, ann.fspec).is_zero()


def test_ann_generators_annihilate_everywhere():
    for F in (F_x(), F_xy_single(), F_lines()):
        for t in ann_FS(F, assume_hypotheses=True).theta:
            assert apply_to_FS(t, F).is_zero()


# ---------------------------------------------------------------------------
# bs_ideal on the worked factorizations


def test_bs_single_smooth():
    B = bs_ideal(F_x())
    assert B.principal_generator is not None
    svc = s_context(F_x())
    assert B.principal_generator == p("s1 + 1", svc)
    assert B.validity == "full"


def test_bs_normal_crossing_two_factors():
    B = bs_ideal(F_xy())
    svc = s_context(F_xy())
    assert B.ideal.equals(IdealHandle([p("(s1 + 1)*(s2 + 1)", svc)]))
    assert B.principal_generator == p("s1*s2 + s1 + s2 + 1", svc)


def test_bs_xy_as_one_factor():
    B = bs_ideal(F_xy_single())
    roots = B.roots_if_principal()
    assert roots == [(Fraction(-1), 2)]


def test_bs_poly_cubic_root_multiset():
    # x(2x^2+yz): three times -1, once -4/3, once -5/3
    B = bs_ideal(F_cubic())
    assert B.validity == "full"
    roots = B.roots_if_principal()
    assert roots == [(Fraction(-1), 3), (Fraction(-4, 3), 1), (Fraction(-5, 3), 1)]


def test_bs_mixed_two_factor_hyperplanes():
    B = bs_ideal(F_mixed())
    assert B.validity == "full"
    assert B.principal_generator is not None
    fac, rest = detect_hyperplane_factors(B.principal_generator,
                                          B.fspec.degrees)
    svc = s_context(B.fspec)
    expected = {
        "s1 + 1", "s2 + 1",
        "s1 + 2*s2 + 3", "s1 + 2*s2 + 4", "s1 + 2*s2 + 5",
    }
    assert {str(q) for q, m in fac} == expected
    assert all(m == 1 for _, m in fac)
    assert rest.is_constant()


def test_bs_arrangement_three_lines():
    B = bs_ideal(F_lines())
    assert B.principal_generator is not None
    fac, rest = detect_hyperplane_factors(B.principal_generator,
                                          B.fspec.degrees)
    assert {str(q) for q, m in fac} == {
        "s1 + 1", "s2 + 1", "s3 + 1",
        "s1 + s2 + s3 + 2", "s1 + s2 + s3 + 3", "s1 + s2 + s3 + 4",
    }
    assert rest.is_constant()


def test_bs_order_independence():
    # same ideal under a second admissible elimination order
    for F in (F_xy(), F_mixed()):
        base = bs_ideal(F)
        w = [0] * F.weyl.nv
        for name in F.weyl.x_names:
            w[F.weyl.vc.index[name]] = 2
        for name in F.weyl.dx_names:
            w[F.weyl.vc.index[name]] = 1
        alt = bs_ideal(F, order=MonomialOrder.weighted(w))
        assert base.ideal.equals(alt.ideal)


def test_bs_generator_order_independence():
    F = FactorizationSpec(["x", "y"], [p("y", VC2), p("x", VC2)])
    B = bs_ideal(F)
    svc = s_context(F)
    assert B.ideal.equals(IdealHandle([p("(s1 + 1)*(s2 + 1)", svc)]))


# ---------------------------------------------------------------------------
# functional-equation witnesses


def test_witness_single_smooth():
    F = F_x()
    svc = s_context(F)
    Q = functional_equation_witness(F, p("s1 + 1", svc))
    assert str(Q) == "dx"


def test_witness_normal_crossing():
    F = F_xy()
    svc = s_context(F)
    Q = functional_equation_witness(F, p("(s1 + 1)*(s2 + 1)", svc))
    assert str(Q) == "dx*dy"


def test_witness_xy_single_factor():
    F = F_xy_single()
    svc = s_context(F)
    Q = functional_equation_witness(F, p("(s1 + 1)^2", svc))
    assert str(Q) == "dx*dy"


def test_witness_every_generator_small():
    # soundness invariant at desk size: each GB generator admits a witness
    for F in (F_x(), F_xy(), F_xy_single()):
        B = bs_ideal(F)
        for b in B.gb:
            Q = functional_equation_witness(F, b)
            start = FSElement(F, F.f_xs, 0)
            assert apply_to_FS(Q, F, start=start) == \
                FSElement(F, b.moved(F.xs_vc), 0)


def test_witness_mixed_fixture():
    # degree-5 generator of the two-factor fixture still verifies exactly
    F = F_mixed()
    B = bs_ideal(F)
    Q = functional_equation_witness(F, B.principal_generator)
    start = FSElement(F, F.f_xs, 0)
    assert apply_to_FS(Q, F, start=start) == \
        FSElement(F, B.principal_generator.moved(F.xs_vc), 0)


def test_witness_action_matches_old_loop(old_apply_to_FS):
    # the grouped action and the term-by-term loop it replaced give the same
    # canonical element on every witness Q, applied to f*F^S
    cusp = FactorizationSpec(["x", "y"], [p("x^2 + y^3", VC2)])
    for F in (F_x(), F_xy(), F_xy_single(), F_mixed(), F_lines(), cusp):
        for b in bs_ideal(F).gb:
            Q = functional_equation_witness(F, b)
            start = FSElement(F, F.f_xs, 0)
            got = apply_to_FS(Q, F, start=start)
            ref = old_apply_to_FS(Q, F, start=start)
            assert got.j == ref.j == 0
            assert got.num == ref.num == b.moved(F.xs_vc)


def test_witness_matches_tracked_reference():
    # every witness Q against the tracked loop it replaced
    # (tests/weyl_reference.py): equal, with identical printing; every
    # rebuilt row of the elimination basis multiplies out
    from fpowers.bside import elimination_order
    from fpowers.weyl import weyl_left_gb
    cusp = FactorizationSpec(["x", "y"], [p("x^2 + y^3", VC2)])
    for F in (F_x(), F_xy(), F_mixed(), F_lines(), cusp):
        order = elimination_order(F.weyl)
        gens = F.theta_generators() + [F.f_xs.moved(F.weyl, WeylOp)]
        for b in bs_ideal(F).gb:
            Q = functional_equation_witness(F, b)
            rem, row = reference_cofactors(b.moved(F.weyl, WeylOp),
                                           gens, order)
            assert rem.is_zero()
            assert Q == row[-1]
            assert str(Q) == str(row[-1])
        G = weyl_left_gb(gens, order)
        for g, basis_row in zip(G, basis_rows(G)):
            assert combination(basis_row, gens) == g


def _witness_inputs():
    """The inputs of test_witness_matches_tracked_reference: per spec its
    elimination basis (elimination_basis) and, per generator b of B_F, the
    steps of dividing b by it."""
    from fpowers.bside import elimination_basis, elimination_order
    from fpowers.weyl import left_normal_form
    cusp = FactorizationSpec(["x", "y"], [p("x^2 + y^3", VC2)])
    for F in (F_x(), F_xy(), F_mixed(), F_lines(), cusp):
        order = elimination_order(F.weyl)
        G = elimination_basis(F)
        for b in bs_ideal(F).gb:
            steps = []
            rem = left_normal_form(b.moved(F.weyl, WeylOp), G, order, steps)
            assert rem.is_zero()
            yield F, G, steps


def test_witness_rows_equal_the_fraction_rebuild():
    # every entry of the integer rebuild, read or not by the witness, is
    # the one of the Fraction rebuild it replaced (weyl_reference), by
    # value and printed, and the witness is its entry for f
    from weyl_reference import fraction_cofactors
    seen = 0
    for F, G, steps in _witness_inputs():
        row, want = G.cofactors(steps), fraction_cofactors(G, steps)
        assert list(row) == want
        assert [str(c) for c in row] == [str(c) for c in want]
        b = sum(c * g for c, g in zip(want, G.gens)).moved(s_context(F),
                                                            Poly)
        assert functional_equation_witness(F, b) == want[-1]
        seen += 1
    assert seen >= 5


def test_witness_reads_only_the_entry_of_f(monkeypatch):
    # the row defers its products into the generators: reading Q, the
    # entry of f, makes fewer normal-ordered term products than reading
    # every entry, and none of the theta entries' products, which cost the
    # same after Q as on their own
    from fpowers import weyl
    count = [0]
    real = weyl.weyl_multiply

    def counted(P, Q):
        count[0] += len(P.terms) * len(Q.terms)
        return real(P, Q)
    monkeypatch.setattr(weyl, "weyl_multiply", counted)

    def products(G, steps, *reads):
        count[0] = 0
        row = G.cofactors(steps)
        out = [count[0]]
        for read in reads:
            count[0] = 0
            for g in read:
                row[g]
            out.append(count[0])
        return out
    fewer = 0
    for F, G, steps in _witness_inputs():
        f, theta = len(G.gens) - 1, range(len(G.gens) - 1)
        made, q, after_q = products(G, steps, [f], theta)
        assert products(G, steps, theta) == [made, after_q]
        assert products(G, steps, range(len(G.gens))) == \
            [made, q + after_q]
        fewer += after_q > 0
    assert fewer >= 4


def test_witness_rejects_non_member():
    F = F_xy()
    svc = s_context(F)
    with pytest.raises(WitnessExtractionFailed):
        functional_equation_witness(F, p("s1 + 2", svc))


# ---------------------------------------------------------------------------
# hyperplane containment and reporting


def test_hyperplane_simple_false():
    B = bs_ideal(F_x())
    svc = s_context(F_x())
    assert not hyperplane_containment(B, p("s1 + 2", svc))
    assert hyperplane_containment(B, p("s1 + 1", svc))


def test_hyperplane_arrangement_shift():
    B = bs_ideal(F_lines())
    svc = s_context(F_lines())
    assert hyperplane_containment(B, p("s1 + s2 + s3 + 2", svc))
    assert not hyperplane_containment(B, p("s1 + s2 + s3 + 1", svc))


def test_hyperplane_mixed_fixture():
    B = bs_ideal(F_mixed())
    svc = s_context(F_mixed())
    assert hyperplane_containment(B, p("s1 + 2*s2 + 4", svc))
    assert not hyperplane_containment(B, p("s1 + 2*s2 + 6", svc))


def test_hyperplane_rejects_bad_forms():
    B = bs_ideal(F_x())
    svc = s_context(F_x())
    with pytest.raises(ValueError):
        hyperplane_containment(B, p("s1^2 + 1", svc))
    with pytest.raises(ValueError):
        hyperplane_containment(B, p("3", svc))


def test_zero_set_two_sided_for_mixed():
    B = bs_ideal(F_mixed())
    svc = s_context(F_mixed())
    forms = ["s1 + 1", "s2 + 1", "s1 + 2*s2 + 3", "s1 + 2*s2 + 4",
             "s1 + 2*s2 + 5"]
    prod = Poly.const(svc, Fraction(1))
    for s in forms:
        prod = prod * p(s, svc)
    # V(B) inside the union of the hyperplanes: the product vanishes on V(B)
    assert radical_membership(prod, B.ideal)
    # and each hyperplane sits inside V(B)
    assert all(hyperplane_containment(B, p(s, svc)) for s in forms)


# ---------------------------------------------------------------------------
# univariate formatting


def test_univariate_roots_and_leftover():
    vc = VarContext([("S", ["s"])])
    b = p("(s + 1)^2 * (s^2 + 1)", vc)
    roots, rest = univariate_roots(b)
    assert roots == [(Fraction(-1), 2)]
    assert rest == p("s^2 + 1", vc)


def test_format_principal_golden():
    vc = VarContext([("S", ["s"])])
    b = p("(s + 1)^3 * (s + 4/3) * (s + 5/3)", vc)
    assert format_principal(b) == "(s+1)^3*(3*s+4)*(3*s+5)/9"


def test_format_principal_plain():
    vc = VarContext([("S", ["s"])])
    assert format_principal(p("s + 1", vc)) == "(s+1)"
    assert format_principal(p("(s + 1)*(s - 2)", vc)) == "(s-2)*(s+1)"


# ---------------------------------------------------------------------------
# diagonal and coarsening


def test_diagonal_substitution_inside_single_factor_ideal():
    Bm = bs_ideal(F_mixed())
    D = diagonal_substitution(Bm.ideal)
    Bf = bs_ideal(F_cubic())
    # transplant the univariate generator onto the diagonal's variable
    bf = Poly(D.ctx, dict(Bf.principal_generator.terms))
    assert IdealHandle([bf]).contains_ideal(D)


def test_diagonal_of_mixed_equals_single_up_to_scalar():
    # for this fixture the diagonal image is exactly the b-polynomial
    Bm = bs_ideal(F_mixed())
    D = diagonal_substitution(Bm.ideal)
    Bf = bs_ideal(F_cubic())
    bf = Poly(D.ctx, dict(Bf.principal_generator.terms))
    assert D.equals(IdealHandle([bf]))


def test_coarsen_last_two():
    F = F_lines()
    G = coarsen_last_two(F)
    assert G.r == 2
    assert G.factors[0] == p("x", VC2)
    assert G.factors[1] == p("y*(x + y)", VC2)
    assert G.f == F.f


def test_merge_last_s_on_operator():
    F = F_xy()
    G = coarsen_last_two(F)
    op = parse_weyl("x*dx - s1", F.weyl) + parse_weyl("y*dy - s2", F.weyl)
    image = merge_last_s(op, F, G)
    assert image == parse_weyl("x*dx + y*dy - 2*s1", G.weyl)


def test_diagonal_restriction_normal_crossing():
    assert diagonal_restriction_check(F_xy())


def test_diagonal_restriction_mixed():
    assert diagonal_restriction_check(F_mixed())


def test_diagonal_restriction_three_lines():
    # (x, y, x+y) coarsened to (x, y(x+y))
    assert diagonal_restriction_check(F_lines())


def test_coarsen_requires_two_factors():
    with pytest.raises(ValueError):
        coarsen_last_two(F_x())


def test_bs_ideal_and_witness_share_one_elimination_basis(monkeypatch):
    # one left basis per spec and bound: B_F reads its S-part, the witness
    # divides by it; another bound builds its own
    from fpowers import bside, weyl
    from fpowers.gb import Limits
    calls = []
    real = weyl.weyl_left_gb

    def counted(gens, order):
        calls.append(len(gens))
        return real(gens, order)
    monkeypatch.setattr(weyl, "weyl_left_gb", counted)
    monkeypatch.setattr(bside, "weyl_left_gb", counted)
    F = FactorizationSpec(["x", "y"], [p("x^2 + y^3", VC2)])
    B = bs_ideal(F)
    Q = functional_equation_witness(F, B.gb[0])
    assert not Q.is_zero()
    assert len(calls) == 1
    assert bs_ideal(F).gb == B.gb
    assert len(calls) == 1
    with Limits(max_degree=59):
        assert bs_ideal(F).gb == B.gb
    assert len(calls) == 2


def test_b_f_tail_reduces_no_element_with_x_or_d(monkeypatch):
    # Work-count guard: B_F of (x, y, x+y) and its witness read only the
    # pure-S part of the elimination basis, one element, which no other
    # pure-S lead can reduce: no operator is tail-reduced (the loop
    # divides S-elements, not operators), where reading the whole basis
    # tail-reduces every element, those with x or d among them
    from fpowers import weyl
    from fpowers.bside import elimination_order
    divided = []
    real = weyl.left_normal_form

    def spy(P, *args, **kwargs):
        if isinstance(P, WeylOp):
            divided.append(P)
        return real(P, *args, **kwargs)
    monkeypatch.setattr(weyl, "left_normal_form", spy)
    F = F_lines()
    B = bs_ideal(F)
    functional_equation_witness(F, B.gb[0])
    assert divided == []
    gens = F.theta_generators() + [F.f_xs.moved(F.weyl, WeylOp)]
    whole = weyl.weyl_left_gb(gens, elimination_order(F.weyl))
    assert len(list(whole)) == len(divided) == 16
    assert sum(P.xd_free() for P in divided) == 1


def test_sugar_elimination_reduces_fewer_s_pairs(monkeypatch, normal_selection):
    # Work-count guard: S-pair reductions (one S-element each) made by the
    # B_F elimination basis, under sugar selection and under the normal
    # selection it replaced; the bases are the same
    from fpowers import ring
    from fpowers.bside import elimination_basis
    count = [0]
    real = ring.Divisors.s_element

    def counted(self, *args):
        count[0] += 1
        return real(self, *args)
    monkeypatch.setattr(ring.Divisors, "s_element", counted)
    cases = [(["x", "y", "z"], "x^2 + y^2 + z^3"),
             (["x", "y"], "x*y*(x + y)*(x - y)")]

    def run():
        out = []
        for names, f in cases:
            vc = VarContext([("X", names)])
            F = FactorizationSpec(names, [p(f, vc)])
            theta = F.theta_generators()
            count[0] = 0
            G = list(elimination_basis(F, theta))
            out.append((count[0], G))
        return out
    sugar = run()
    normal_selection()
    normal = run()
    assert [n for n, _ in sugar] == [28, 66]
    assert [n for n, _ in normal] == [75, 156]
    assert [G for _, G in sugar] == [G for _, G in normal]
