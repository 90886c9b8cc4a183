"""Shift-map surjectivity, variety membership, s-regularity certificates."""

import itertools
from fractions import Fraction

import pytest

from fpowers import liouville
from fpowers.gb import IdealHandle, is_nonzerodivisor
from fpowers.ring import VarContext, parse_poly
from fpowers.logder import FactorizationSpec
from fpowers.weyl import WeylOp
from fpowers.bside import bs_ideal
from fpowers.nabla import (
    bs_variety_membership,
    nabla_surjective,
    s_regularity_check,
)
from weyl_reference import basis_rows, combination, reference_cofactors
import symbol_reference
from colon_reference import colon_stable


VC1 = VarContext([("X", ["x"])])
VC2 = VarContext([("X", ["x", "y"])])
VC3 = VarContext([("X", ["x", "y", "z"])])


def p(s, vc):
    return parse_poly(s, vc)


def F_x():
    return FactorizationSpec(["x"], [p("x", VC1)])


def F_xy():
    return FactorizationSpec(["x", "y"], [p("x", VC2), p("y", VC2)])


def F_lines():
    return FactorizationSpec(
        ["x", "y"], [p("x", VC2), p("y", VC2), p("x + y", VC2)])


def F_mixed():
    return FactorizationSpec(["x", "y", "z"],
                             [p("x", VC3), p("2*x^2 + y*z", VC3)])


def F_cubic():
    return FactorizationSpec(["x", "y", "z"], [p("2*x^3 + x*y*z", VC3)])


# ---------------------------------------------------------------------------
# nabla_surjective


def test_surjective_at_generic_point():
    rep = nabla_surjective(F_xy(), [1, 1])
    assert rep.surjective
    # certificate multiplies out to 1 against the specialized generators
    total = WeylOp.zero(rep.generators[0].ctx)
    for c, g in zip(rep.certificate, rep.generators):
        total = total + c * g
    assert total == WeylOp.const(rep.generators[0].ctx, Fraction(1))


def test_not_surjective_at_origin():
    rep = nabla_surjective(F_xy(), [0, 0])
    assert not rep.surjective
    assert rep.certificate is None


def test_reduced_free_reports_injectivity_both_ways():
    assert nabla_surjective(F_xy(), [1, 1]).injective == "yes"
    assert nabla_surjective(F_xy(), [0, 0]).injective == "no"


def test_arrangement_resonance_point():
    # A-1 = (-2/3, -2/3, -2/3) lies on {s1+s2+s3+2 = 0}
    rep = nabla_surjective(F_lines(), [Fraction(1, 3)] * 3)
    assert not rep.surjective
    assert rep.injective == "no"


def test_point_length_checked():
    with pytest.raises(ValueError):
        nabla_surjective(F_xy(), [1])


def test_non_free_fixture_one_way_implication():
    # 2x^3+xyz is not free, so only injective => surjective applies
    rep = nabla_surjective(F_mixed(), [0, 0])
    assert not rep.surjective
    assert rep.injective == "no"
    rep = nabla_surjective(F_mixed(), [1, 1])
    assert rep.surjective
    assert rep.injective == "unknown"


# ---------------------------------------------------------------------------
# certificates from the basis log against the tracked loop they replaced
# (tests/weyl_reference.py)


def _random_points(rng, r, count):
    values = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2, 3)]
    return [[rng.choice(values) for _ in range(r)] for _ in range(count)]


def test_certificates_match_tracked_reference():
    import random
    from fpowers.ring import MonomialOrder
    from fpowers.weyl import weyl_left_gb
    rng = random.Random(57)
    order = MonomialOrder.grevlex()
    seen = set()
    for F in (F_lines(), F_mixed()):
        for A in _random_points(rng, F.r, 5) + [[1] * F.r]:
            rep = nabla_surjective(F, A)
            gens = rep.generators
            one = WeylOp.const(gens[0].ctx, 1)
            rem, row = reference_cofactors(one, gens, order)
            assert rep.surjective == rem.is_zero()
            seen.add(rep.surjective)
            if rep.surjective:
                assert rep.certificate == row
                assert [str(c) for c in rep.certificate] == \
                    [str(c) for c in row]
            G = weyl_left_gb(gens, order)
            for g, basis_row in zip(G, basis_rows(G)):
                assert combination(basis_row, gens) == g
    assert seen == {True, False}


def test_not_onto_costs_no_more_products_than_the_basis(monkeypatch):
    # beyond building its generators, a "not onto" answer makes only the
    # products of its untracked left basis: no cofactor is built.  The
    # products are counted as normal-ordered term products, which the
    # basis makes in its division kernel and a cofactor in weyl_multiply
    from fpowers import nabla, weyl
    from fpowers.ring import MonomialOrder
    products = [0]
    real = weyl._term_product

    def counted(*args):
        products[0] += 1
        return real(*args)
    for F, A in ((F_lines(), [0, 0, 0]), (F_mixed(), [0, 0]),
                 (F_lines(), [Fraction(1, 3)] * 3)):
        gens = nabla._specialized_generators(F, A)
        with monkeypatch.context() as m:
            m.setattr(nabla, "_specialized_generators", lambda *args: gens)
            m.setattr(weyl, "_term_product", counted)
            products[0] = 0
            assert not nabla_surjective(F, A).surjective
            answer = products[0]
            products[0] = 0
            weyl.weyl_left_gb(gens, MonomialOrder.grevlex())
            basis = products[0]
        assert 0 < answer <= basis


# ---------------------------------------------------------------------------
# consistency with the variety of B_F


def test_off_variety_implies_surjective():
    cases = [
        (F_xy(), [(1, 1), (2, -3), (0, 1)]),
        (F_mixed(), [(1, 1), (-2, -3), (0, 0)]),
    ]
    for F, points in cases:
        B = bs_ideal(F)
        for A in points:
            Am1 = [Fraction(a) - 1 for a in A]
            rep = nabla_surjective(F, list(A))
            if not bs_variety_membership(B, Am1):
                assert rep.surjective


def test_on_variety_examples_not_surjective():
    # the converse is not a theorem, but it holds at these worked points
    assert not nabla_surjective(F_xy(), [0, 0]).surjective
    assert not nabla_surjective(F_mixed(), [0, 0]).surjective
    assert not nabla_surjective(F_mixed(),
                                [Fraction(-1, 3), Fraction(-1, 3)]).surjective


def test_diagonal_compatibility():
    # A = (a, a) against the single-factor picture at a
    Fm, Ff = F_mixed(), F_cubic()
    for a in (Fraction(1), Fraction(0), Fraction(-1, 3)):
        assert nabla_surjective(Fm, [a, a]).surjective == \
            nabla_surjective(Ff, [a]).surjective


# ---------------------------------------------------------------------------
# bs_variety_membership


def test_membership_basic():
    B = bs_ideal(F_xy())
    assert bs_variety_membership(B, [-1, 5])
    assert bs_variety_membership(B, [7, -1])
    assert not bs_variety_membership(B, [0, 0])


def test_membership_cubic_roots():
    B = bs_ideal(F_cubic())
    for root in (Fraction(-1), Fraction(-4, 3), Fraction(-5, 3)):
        assert bs_variety_membership(B, [root])
    assert not bs_variety_membership(B, [Fraction(-2, 3)])


def test_membership_length_checked():
    B = bs_ideal(F_xy())
    with pytest.raises(ValueError):
        bs_variety_membership(B, [1])


# ---------------------------------------------------------------------------
# s-regularity


def test_s_regularity_normal_crossing():
    rep = s_regularity_check(F_xy())
    assert rep.passed
    assert rep.steps == [("s1", True), ("s2", True)]
    assert rep.final_quotient_matches
    assert bool(rep)


def test_s_regularity_single_smooth():
    rep = s_regularity_check(F_x())
    assert rep.passed and rep.final_quotient_matches


def test_s_regularity_mixed():
    rep = s_regularity_check(F_mixed())
    assert rep.passed and rep.final_quotient_matches


def test_s_regularity_three_lines():
    rep = s_regularity_check(F_lines())
    assert rep.passed and rep.final_quotient_matches


def test_s_regularity_permutation_invariant():
    # homogeneous regular sequences permute
    F = F_mixed()
    assert s_regularity_check(F, s_order=[1, 0]).passed
    F3 = F_lines()
    for perm in ([2, 0, 1], [1, 2, 0]):
        assert s_regularity_check(F3, s_order=perm).passed


def test_s_regularity_rejects_bad_permutation():
    with pytest.raises(ValueError):
        s_regularity_check(F_xy(), s_order=[0, 0])


# ---------------------------------------------------------------------------
# the commutative regular-sequence lemmas behind the Koszul reductions,
# exercised on small instances


def test_colon_detects_regularity():
    # u regular on Q[u,v]; v regular on Q[u,v]/(u); but u*v a zero divisor
    # mod (u): the leads test agrees with the syzygy colon on each
    vc = VarContext([("X", ["u", "v"])])
    zero = IdealHandle.zero(vc)
    u, v = p("u", vc), p("v", vc)
    I = IdealHandle([u])
    for J, g, regular in [(zero, u, True), (I, v, True),
                          (I, p("u*v", vc), False)]:
        assert is_nonzerodivisor(J, g, (1, 1)) is regular
        assert colon_stable(J, g) is regular


def test_central_powers_stay_regular():
    # if c is regular mod I then so is c^k; c^k is no variable, so the
    # leads test runs on a tag of degree k
    vc = VarContext([("X", ["u", "v", "w"])])
    I = IdealHandle([p("u*v - w^2", vc)])
    c = p("u + v + w", vc)
    for k in (1, 2, 3):
        ck = c ** k
        assert is_nonzerodivisor(I, ck, (1, 1, 1))
        assert colon_stable(I, ck)


def test_koszul_two_term_exactness_small():
    # for a length-2 regular sequence (a, b): syzygies of (a, b) are the
    # Koszul one, i.e. (b, -a) generates them over Q[u,v]
    from fpowers.gb import syzygies, module_contains
    vc = VarContext([("X", ["u", "v"])])
    a, b = p("u", vc), p("v", vc)
    syz = syzygies([[a], [b]])
    koszul = [b, a * Fraction(-1)]
    for row in syz:
        assert module_contains([koszul], list(row))


# ---------------------------------------------------------------------------
# onto points: the basis loop ends at the unit, and the certificate is
# checked on integer images (nabla._certificate_holds)


def _grid_points():
    """(spec, point, NablaReport) for a small grid on each problem in
    tests/data."""
    import itertools
    from pathlib import Path
    from fpowers.cli import load_problem
    values = [Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(-1)]
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        F = load_problem(str(path)).fspec
        for A in itertools.islice(itertools.product(values, repeat=F.r), 9):
            yield F, A, nabla_surjective(F, A)


def _onto_points():
    """(spec, point, NablaReport) for the onto points of _grid_points."""
    for F, A, rep in _grid_points():
        if rep.surjective:
            yield F, A, rep


def test_onto_bases_stop_at_the_unit_as_the_running_loop(queue_pops,
                                                          unit_joins,
                                                          left_log):
    # no pair is popped after the unit joins, and the basis, its log, the
    # rows of its elements and the certificate are those of the reference
    # loop that runs on (tests/engine_reference.py)
    import engine_reference
    from fpowers.ring import MonomialOrder
    from fpowers.weyl import left_normal_form, weyl_left_gb
    order = MonomialOrder.grevlex()
    seen = saved = 0
    for F, A, rep in _onto_points():
        gens = rep.generators
        del queue_pops[:], unit_joins[:]
        G = weyl_left_gb(gens, order)
        assert G == [1] and unit_joins[0] == len(queue_pops)
        pops = list(queue_pops)
        del queue_pops[:]
        ref = engine_reference.weyl_left_gb(gens, order)
        assert queue_pops[:len(pops)] == pops
        saved += len(queue_pops) - len(pops)
        assert [list(g.terms.items()) for g in G] == \
            [list(g.terms.items()) for g in ref]
        assert left_log(G) == left_log(ref)
        assert basis_rows(G) == basis_rows(ref)
        steps = []
        left_normal_form(WeylOp.const(gens[0].ctx, 1), ref, order, steps=steps)
        assert rep.certificate == ref.cofactors(steps)
        seen += 1
    assert seen >= 20 and saved > seen


def test_integer_certificates_equal_the_fraction_rebuild():
    # on every onto point, the certificate the integer rebuild gives is the
    # row of the Fraction rebuild it replaced (weyl_reference), by value
    # and printed
    from weyl_reference import fraction_cofactors
    from fpowers.ring import MonomialOrder
    from fpowers.weyl import weyl_left_gb
    order = MonomialOrder.grevlex()
    seen = 0
    for F, A, rep in _onto_points():
        G = weyl_left_gb(rep.generators, order)
        want = fraction_cofactors(G, [(0, G.leads[0], 1, 1)])
        assert rep.certificate == want
        assert [str(c) for c in rep.certificate] == [str(c) for c in want]
        seen += 1
    assert seen == 36


def test_surjectivity_from_the_unit_matches_the_normal_form_of_one():
    # the grid (36 onto points, 4 not) and the origin of each problem (not
    # onto): the verdict read off the leads and the certificate of the one
    # step on the unit are those of dividing 1 by the whole reduced basis
    # (weyl_reference)
    from weyl_reference import normal_form_surjectivity
    from fpowers.cli import load_problem
    from fpowers.ring import MonomialOrder
    from pathlib import Path
    order = MonomialOrder.grevlex()
    points = list(_grid_points())
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        F = load_problem(str(path)).fspec
        points.append((F, [0] * F.r, nabla_surjective(F, [0] * F.r)))
    seen = []
    for F, A, rep in points:
        onto, cert = normal_form_surjectivity(rep.generators, order)
        assert (rep.surjective, rep.certificate) == (onto, cert)
        seen.append(onto)
    assert (len(seen), sum(seen)) == (45, 36)


def test_integer_certificate_check_agrees_with_the_fraction_product():
    # on every onto point, and on certificates tampered with: one
    # coefficient changed, or one cofactor set to zero
    from fpowers.nabla import _certificate_holds
    from fpowers.ring import MonomialOrder, integer_image
    order = MonomialOrder.grevlex()
    tampered = 0

    def holds(cert, gens, order):
        return _certificate_holds([integer_image(c.terms) for c in cert],
                                  gens, order)
    for F, A, rep in _onto_points():
        gens, cert = rep.generators, rep.certificate
        one = WeylOp.const(gens[0].ctx, 1)
        assert holds(cert, gens, order)
        assert combination(cert, gens) == one
        k = next(i for i, c in enumerate(cert) if not c.is_zero())
        changed = WeylOp(cert[k].ctx, dict(cert[k].terms))
        m = next(iter(changed.terms))
        changed.terms[m] += Fraction(1, 3)
        for bad in (cert[:k] + [changed] + cert[k + 1:],
                    cert[:k] + [WeylOp.zero(cert[k].ctx)] + cert[k + 1:]):
            assert not holds(bad, gens, order)
            assert combination(bad, gens) != one
            tampered += 1
    assert tampered >= 40


def test_one_plain_context_per_spec(monkeypatch):
    # the generators of every request on one spec share fspec.weyl.plain:
    # one WeylContext is built for all of them, where each operator built
    # its own before
    from fpowers import weyl
    built = []
    real = weyl.WeylContext.__init__

    def init(self, *args):
        built.append(args)
        real(self, *args)
    F = F_mixed()
    monkeypatch.setattr(weyl.WeylContext, "__init__", init)
    reports = [nabla_surjective(F, A) for A in ([1, 1], [2, Fraction(1, 2)])]
    assert built == [(F.x_names, [])]
    assert all(g.ctx is F.weyl.plain for rep in reports
               for g in rep.generators)
    assert all(c.ctx is F.weyl.plain for c in reports[0].certificate)
    assert F.weyl.plain.plain is F.weyl.plain


# ---------------------------------------------------------------------------
# s-regularity against the replaced check (tests/symbol_reference.py), which
# built all three Liouville ideals, a single-factor spec for L_f and its own
# tag-variable colon loop


@pytest.mark.parametrize("key", sorted(symbol_reference.FIXTURES))
def test_s_regularity_matches_the_reference_in_every_order(key):
    r = symbol_reference.spec(key).r
    for perm in itertools.permutations(range(r)):
        got = s_regularity_check(symbol_reference.spec(key), s_order=perm)
        assert got == symbol_reference.s_regularity_check(
            symbol_reference.spec(key), s_order=perm)
    if key == "no_euler":
        assert not got.final_quotient_matches


def test_s_regularity_builds_only_the_ideals_it_reads(monkeypatch):
    # Ltilde_F from theta_F and L_f from the spec's own Der(-log0 f): no
    # In010 basis (liouville.initial_ideal) and no second spec
    F = symbol_reference.spec("x_2x2yz")
    calls = {"initial_ideal": 0, "FactorizationSpec": 0}

    def counted(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(liouville, "initial_ideal",
                        counted("initial_ideal", liouville.initial_ideal))
    monkeypatch.setattr(FactorizationSpec, "__init__", counted(
        "FactorizationSpec", FactorizationSpec.__init__))
    assert s_regularity_check(F)
    assert calls == {"initial_ideal": 0, "FactorizationSpec": 0}
    # the counters see the reference's Liouville ideals and second spec
    symbol_reference.s_regularity_check(F)
    assert calls["initial_ideal"] == 2 and calls["FactorizationSpec"] == 1
