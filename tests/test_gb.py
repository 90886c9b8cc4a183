"""Groebner engine: bases, elimination, colon, dimension, syzygies,
resolutions, plus soundness properties with randomized inputs."""

import random
from fractions import Fraction

import pytest

from fpowers import gb
from fpowers.ring import (
    MonomialOrder, Poly, VarContext, exp_add, exp_divides, exp_lcm, exp_sub,
    parse_poly,
)
from fpowers.gb import (
    GradedModulePresentation, IdealHandle, Limits, NonHomogeneousInput,
    ResourceLimit, eliminate, graded_free_resolution, groebner_basis,
    ideal_colon, intersect, krull_dimension, normal_form, radical_membership,
    saturate, syzygies,
)

XY = VarContext([("X", ["x", "y"])])
XYZ = VarContext([("X", ["x", "y", "z"])])


def p(s, ctx=XY):
    return parse_poly(s, ctx)


# ======================================================================
# reduced Groebner bases


def test_gb_linear():
    I = IdealHandle([p("x+y"), p("x-y")])
    assert [str(g) for g in I.gb()] == ["y", "x"]


def test_gb_already_reduced():
    I = IdealHandle([p("x^2"), p("x*y")])
    assert [str(g) for g in I.gb()] == ["x*y", "x^2"]


def test_gb_lex_buchberger_trace():
    # Hand trace (the oracle for this pinned example):
    #   S(xy-1, y^2-1) = y*(xy-1) - x*(y^2-1) = x - y, irreducible -> adjoin.
    #   LM(x-y) = x divides LM(xy-1) = xy, so xy-1 drops in the reduction;
    #   remaining S-pairs reduce to zero.  Reduced basis: {x-y, y^2-1}.
    I = IdealHandle([p("x*y-1"), p("y^2-1")], MonomialOrder.lex())
    assert [str(g) for g in I.gb()] == ["y^2 - 1", "x - y"]


def test_gb_unit_ideal():
    I = IdealHandle([p("x"), p("x+1")])
    assert I.is_unit_ideal()


# ======================================================================
# elimination


def test_eliminate_twisted_cubic():
    # Oracle: two-sided membership.  y^3 - z^2 vanishes on (t^2, t^3) so it
    # lies in the ideal; conversely every returned generator must be a
    # member and avoid x.
    ctx = VarContext([("X", ["x"]), ("REST", ["y", "z"])])
    I = IdealHandle([parse_poly("y-x^2", ctx), parse_poly("z-x^3", ctx)])
    E = eliminate(I, "X")
    assert [str(g) for g in E.gens] == ["y^3 - z^2"]
    assert I.contains(parse_poly("y^3-z^2", ctx))
    for g in E.gens:
        assert I.contains(g.map_context(ctx))
        assert "x" not in g.variables_used()


def test_eliminate_keeps_pure_subring_part():
    ctx = VarContext([("X", ["x"]), ("S", ["s"])])
    I = IdealHandle([parse_poly("x", ctx), parse_poly("s+1", ctx)])
    assert [str(g) for g in eliminate(I, "X").gens] == ["s + 1"]


def test_eliminate_everything_drops():
    ctx = VarContext([("X", ["x"]), ("S", ["s"])])
    I = IdealHandle([parse_poly("x", ctx)])
    assert eliminate(I, "X").gens == []


# ======================================================================
# colon, intersection, saturation, radical membership


def test_colon_monomial():
    assert [str(g) for g in ideal_colon(IdealHandle([p("x*y")]), p("x")).gens] == ["y"]


def test_colon_two_generators():
    I = ideal_colon(IdealHandle([p("x^2"), p("x*y")]), p("x"))
    J = IdealHandle([p("x"), p("y")])
    assert I.equals(J)


def test_colon_nonzerodivisor():
    I = ideal_colon(IdealHandle([p("x")]), p("y"))
    assert I.equals(IdealHandle([p("x")]))


def test_colon_containments():
    I = IdealHandle([p("x^2*y"), p("y^3")])
    g = p("x*y")
    C = ideal_colon(I, g)
    assert all(I.contains(h * g) for h in C.gens)
    assert C.contains_ideal(I)


def test_intersect_principal():
    I = intersect(IdealHandle([p("x")]), IdealHandle([p("y")]))
    assert I.equals(IdealHandle([p("x*y")]))


def test_saturate_strips_component():
    I = IdealHandle([p("x^2*y")])
    S, steps = saturate(I, p("x"))
    assert S.equals(IdealHandle([p("y")]))
    assert steps >= 1


def test_saturate_to_unit():
    # x^3 lies in the ideal, so saturating by x reaches the whole ring
    I = IdealHandle([p("x^2*y"), p("x^3")])
    S, _ = saturate(I, p("x"))
    assert S.is_unit_ideal()


def test_radical_membership():
    I = IdealHandle([p("x^2")])
    assert radical_membership(p("x"), I)
    assert not radical_membership(p("y"), I)


# ======================================================================
# Krull dimension


def test_dimension_zero_ideal():
    assert krull_dimension(IdealHandle.zero(XYZ)) == 3


def test_dimension_hypersurface():
    assert krull_dimension(IdealHandle([p("x*y")])) == 1


def test_dimension_unit_sentinel():
    assert krull_dimension(IdealHandle([p("x"), p("x+1")])) == -1


def test_dimension_symbol_ideal_two_factors():
    # Leading terms of (x*y1 - s1, y*y2 - s2) under grevlex are x*y1, y*y2
    # (degree beats the s-terms); independent sets avoid covering either
    # support pair, so {x, y, s1, s2} is maximal of size 4 = n + r.
    ctx = VarContext([("X", ["x", "y"]), ("Y", ["y1", "y2"]), ("S", ["s1", "s2"])])
    I = IdealHandle([parse_poly("x*y1-s1", ctx), parse_poly("y*y2-s2", ctx)])
    assert krull_dimension(I) == 4


def test_dimension_equals_leading_term_dimension():
    # Groebner deformation invariance, checked by recomputing on the
    # explicit leading-term ideal.
    rng = random.Random(7)
    mons = ["x", "y", "x*y", "x^2", "y^2", "x^2*y", "1"]
    for _ in range(12):
        gens = [p(" + ".join(rng.sample(mons, rng.randint(1, 3))))
                for _ in range(rng.randint(1, 3))]
        I = IdealHandle(gens)
        gbI = I.gb()
        if not gbI:
            continue
        lt = IdealHandle([Poly.monomial(XY, g.leading_exp(I.order), 1) for g in gbI])
        assert krull_dimension(I) == krull_dimension(lt)


# ======================================================================
# syzygies


def test_syzygy_koszul():
    syz = syzygies([(p("x"),), (p("y"),)])
    assert [[str(q) for q in v] for v in syz] == [["y", "-x"]]


def test_syzygy_common_factor():
    syz = syzygies([(p("x^2"),), (p("x*y"),)])
    assert [[str(q) for q in v] for v in syz] == [["y", "-x"]]


def test_syzygy_nonzerodivisor_trivial():
    assert syzygies([(p("x"),)]) == []


def test_syzygies_actually_annihilate():
    vecs = [(p("x^2 - y"), p("x")), (p("x*y"), p("y - 1")), (p("y^2"), p("x + y"))]
    for s in syzygies(vecs):
        acc = Poly.zero(XY)
        for a, v in zip(s, vecs):
            acc = acc + a * v[0]
        acc2 = Poly.zero(XY)
        for a, v in zip(s, vecs):
            acc2 = acc2 + a * v[1]
        assert acc.is_zero() and acc2.is_zero()


# ======================================================================
# graded resolutions


def test_resolution_koszul_point():
    M = GradedModulePresentation(XY, [1, 1], 1, [(p("x"),), (p("y"),)])
    r = graded_free_resolution(M)
    assert r.pdim == 2 and r.is_CM is True


def test_resolution_non_cm():
    M = GradedModulePresentation(XY, [1, 1], 1, [(p("x^2"),), (p("x*y"),)])
    r = graded_free_resolution(M)
    assert r.pdim == 2 and r.is_CM is False


def test_resolution_rejects_inhomogeneous():
    with pytest.raises(NonHomogeneousInput):
        GradedModulePresentation(XY, [1, 1], 1, [(p("x^2 + y"),)])


def test_resolution_auslander_buchsbaum_bookkeeping():
    # pdim + depth = #vars; for the CM point quotient depth 0 + pdim 2 = 2.
    M = GradedModulePresentation(XY, [1, 1], 1, [(p("x"),), (p("y"),)])
    r = graded_free_resolution(M)
    assert r.pdim == 2
    assert [len(b) for b in r.betti] == [1, 2, 1]


def test_resolution_free_module_pdim_zero():
    M = GradedModulePresentation(XY, [1, 1], 2, [])
    r = graded_free_resolution(M)
    assert r.pdim == 0 and r.matrices == []


# ======================================================================
# randomized soundness: membership, GB certification


def _random_poly(rng, ctx, deg=3, terms=3):
    q = Poly.zero(ctx)
    for _ in range(rng.randint(1, terms)):
        e = [0] * ctx.n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(ctx.n)] += 1
        q = q + Poly.monomial(ctx, tuple(e), Fraction(rng.randint(-4, 4)))
    return q


def test_membership_soundness_random_combinations():
    rng = random.Random(12)
    for _ in range(15):
        gens = [_random_poly(rng, XY) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = IdealHandle(gens)
        combo = Poly.zero(XY)
        for g in gens:
            combo = combo + _random_poly(rng, XY) * g
        assert I.contains(combo)


def test_gb_certification_all_s_pairs_reduce():
    # Direct certification that the returned basis is a Groebner basis:
    # every S-polynomial of basis elements has normal form zero.
    from fpowers.gb import _s_poly
    rng = random.Random(99)
    for _ in range(10):
        gens = [_random_poly(rng, XYZ, deg=2) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = IdealHandle(gens)
        G = I.gb()
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                s = _s_poly(G[i], G[j], I.order)
                assert normal_form(s, G, I.order).is_zero()


def test_resource_limit_raises():
    lim = Limits(max_degree=3, max_basis=20000)
    I = IdealHandle([p("x^5 + y"), p("y^4 - x")], limits=lim)
    with pytest.raises(ResourceLimit):
        I.gb()


# ======================================================================
# S-pair selection: the PairQueue against a plain min-selection loop


def _chain_skips(pairs, lead, i, j, l, same=lambda k: True):
    return any(k not in (i, j) and same(k) and exp_divides(lead[k], l)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(lead)))


def _reference_gb(gens, order):
    """Normal selection as a min over all pending pairs, re-keyed on every
    iteration.  Returns (reduced basis, popped pairs, pairs created)."""
    G = [g for g in gens if not g.is_zero()]
    lead = [g.leading_exp(order) for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    created, popped = len(pairs), []
    while pairs:
        i, j = min(pairs, key=lambda ij: (
            order.key(exp_lcm(lead[ij[0]], lead[ij[1]])), ij))
        pairs.discard((i, j))
        popped.append((i, j))
        l = exp_lcm(lead[i], lead[j])
        if l == exp_add(lead[i], lead[j]) or _chain_skips(pairs, lead, i, j, l):
            continue
        r = normal_form(gb._s_poly(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        G.append(r)
        lead.append(r.leading_exp(order))
        t = len(G) - 1
        pairs.update((k, t) for k in range(t))
        created += t
    return gb._reduce_basis(G, order), popped, created


def _reference_module_gb(vectors, mo):
    """The module basis (unreduced, in creation order) by min selection."""
    G = [v for v in vectors if not gb._vec_is_zero(v)]
    ctx = G[0][0].ctx
    leads = [gb._vec_lead(v, mo) for v in G]
    lead = [e for _, e in leads]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))
             if leads[i][0] == leads[j][0]}
    popped = []
    while pairs:
        i, j = min(pairs, key=lambda ij: (
            mo.base.key(exp_lcm(lead[ij[0]], lead[ij[1]])), ij))
        pairs.discard((i, j))
        popped.append((i, j))
        pos = leads[i][0]
        l = exp_lcm(lead[i], lead[j])
        if _chain_skips(pairs, lead, i, j, l, lambda k: leads[k][0] == pos):
            continue
        mi = Poly.monomial(ctx, exp_sub(l, lead[i]),
                           Fraction(1) / G[i][pos].terms[lead[i]])
        mj = Poly.monomial(ctx, exp_sub(l, lead[j]),
                           Fraction(1) / G[j][pos].terms[lead[j]])
        s = gb._vec_sub(gb._vec_scale(G[i], mi), gb._vec_scale(G[j], mj))
        r = gb._vec_reduce(s, G, leads, mo, gb.DEFAULT_LIMITS)
        if gb._vec_is_zero(r):
            continue
        G.append(r)
        leads.append(gb._vec_lead(r, mo))
        lead.append(leads[-1][1])
        t = len(G) - 1
        pairs.update((k, t) for k in range(t) if leads[k][0] == leads[t][0])
    return G, popped


# the graph ideal whose elimination of W gives ker(phi_F) for F = (x, y, z)
GRAPH = VarContext([("W", ["a1", "a2", "a3", "b1", "b2", "b3"]),
                    ("X", ["x", "y", "z"]), ("Y", ["y1", "y2", "y3"]),
                    ("S", ["s1", "s2", "s3"])])
GRAPH_GENS = ["x - a1", "y - a2", "z - a3", "y1 - a2*a3*b1",
              "y2 - a1*a3*b2", "y3 - a1*a2*b3", "s1 - a1*a2*a3*b1",
              "s2 - a1*a2*a3*b2", "s3 - a1*a2*a3*b3"]


def _graph_input():
    order = MonomialOrder.block(GRAPH, ["W", "X", "Y", "S"])
    return [p(s, GRAPH) for s in GRAPH_GENS], order


def test_queue_matches_min_selection_block_elimination(queue_pops):
    gens, order = _graph_input()
    ref, ref_pops, _ = _reference_gb(gens, order)
    assert groebner_basis(gens, order) == ref
    assert queue_pops == ref_pops


def test_queue_matches_min_selection_lex_and_grevlex(queue_pops):
    rng = random.Random(5)
    for order in (MonomialOrder.lex(), MonomialOrder.grevlex()):
        for _ in range(6):
            gens = [_random_poly(rng, XYZ, deg=3) for _ in range(3)]
            del queue_pops[:]
            ref, ref_pops, _ = _reference_gb(gens, order)
            assert groebner_basis(gens, order) == ref
            assert queue_pops == ref_pops


def test_queue_matches_min_selection_module_syzygy(queue_pops, monkeypatch):
    real = gb._module_gb
    seen = []

    def spy(vectors, mo, limits=gb.DEFAULT_LIMITS):
        del queue_pops[:]
        got = real(vectors, mo, limits)
        ref, ref_pops = _reference_module_gb(vectors, mo)
        assert got == ref
        assert queue_pops == ref_pops
        seen.append(len(got))
        return got
    monkeypatch.setattr(gb, "_module_gb", spy)
    f = p("x^2*y + y^3 - x*y", XY)
    vecs = [(f.diff("x"),), (f.diff("y"),), (-f,)]
    assert syzygies(vecs)
    assert syzygies([(p("x^2 - y"), p("x*y")), (p("x*y"), p("y^2 + x")),
                     (p("y^2"), p("x^2"))])
    assert len(seen) == 2 and min(seen) > 3


def test_pair_keys_computed_once(monkeypatch):
    # Work-count guard: outside division, order.key runs about once per
    # S-pair created plus a few times per basis element.  Re-keying every
    # pending pair on every selection (about 38000 calls here) fails it.
    gens, base = _graph_input()
    state = {"in_division": 0, "keys": 0, "divisions": 0}

    def key(e):
        if not state["in_division"]:
            state["keys"] += 1
        return base.key(e)

    def counted_normal_form(*args, **kwargs):
        state["divisions"] += 1
        state["in_division"] += 1
        try:
            return normal_form(*args, **kwargs)
        finally:
            state["in_division"] -= 1
    monkeypatch.setattr(gb, "normal_form", counted_normal_form)
    order = MonomialOrder(base.kind, key, base.desc)
    groebner_basis(gens, order)
    _, _, created = _reference_gb(gens, base)
    assert state["keys"] <= 3 * (created + state["divisions"])
