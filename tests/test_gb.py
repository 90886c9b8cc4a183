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


# ======================================================================
# the in-place division kernel against the copy-and-rescan loops it
# replaced (kept here only, as references)


def _old_normal_form(p, basis, order, limits=gb.DEFAULT_LIMITS,
                     leads=None, keys=None):
    """Re-keys every basis lead per call, rescans the working polynomial
    for its lead and copies it on every step; leads and keys are ignored."""
    if not basis:
        return p
    lead = [(g.leading_exp(order), g) for g in basis if not g.is_zero()]
    rem = Poly.zero(p.ctx)
    work = p
    while not work.is_zero():
        e = work.leading_exp(order)
        c = work.terms[e]
        hit = None
        for le, g in lead:
            if exp_divides(le, e):
                hit = (le, g)
                break
        if hit is None:
            t = Poly.monomial(p.ctx, e, c)
            rem = rem + t
            work = work - t
        else:
            le, g = hit
            m = Poly.monomial(p.ctx, exp_sub(e, le), c / g.terms[le])
            work = work - m * g
            limits.check_poly(work)
    return rem


def _old_vec_lead(v, mo, keys=None):
    best = None
    for pos, q in enumerate(v):
        for e in q.terms:
            m = (pos, e)
            if best is None or mo.key(m) > mo.key(best):
                best = m
    if best is None:
        raise ValueError("zero vector has no leading term")
    return best


def _old_vec_reduce(v, basis, leads, mo, limits, keys=None):
    ctx = v[0].ctx
    rem = tuple(Poly.zero(ctx) for _ in v)
    work = v
    while not gb._vec_is_zero(work):
        pos, e = _old_vec_lead(work, mo)
        c = work[pos].terms[e]
        hit = -1
        for k, (lp, le) in enumerate(leads):
            if lp == pos and exp_divides(le, e):
                hit = k
                break
        if hit < 0:
            t = Poly.monomial(ctx, e, c)
            r2 = list(rem)
            r2[pos] = r2[pos] + t
            rem = tuple(r2)
            w2 = list(work)
            w2[pos] = w2[pos] - t
            work = tuple(w2)
        else:
            g = basis[hit]
            lp, le = leads[hit]
            m = Poly.monomial(ctx, exp_sub(e, le), c / g[lp].terms[le])
            work = gb._vec_sub(work, gb._vec_scale(g, m))
            for q in work:
                limits.check_poly(q)
    return rem


@pytest.fixture
def old_division(monkeypatch):
    """Run the module's Buchberger loops on the old division loops."""
    def use_old():
        monkeypatch.setattr(gb, "normal_form", _old_normal_form)
        monkeypatch.setattr(gb, "_vec_reduce", _old_vec_reduce)
        monkeypatch.setattr(gb, "_vec_lead", _old_vec_lead)
    return use_old


def _items(polys):
    """Terms in dict order: equal lists mean equal polynomials built in the
    same order."""
    return [list(q.terms.items()) for q in polys]


BLOCK = VarContext([("W", ["a", "b"]), ("X", ["x", "y", "z"])])


def _kernel_orders():
    """(context, order) pairs: lex, grevlex, weighted and block."""
    return [(XYZ, MonomialOrder.lex()), (XYZ, MonomialOrder.grevlex()),
            (XYZ, MonomialOrder.weighted([2, 1, 3])),
            (XYZ, MonomialOrder.weighted([1, 0, 1], MonomialOrder.lex())),
            (BLOCK, MonomialOrder.block(BLOCK, ["W", "X"]))]


def _outcome(fn, *args):
    """fn's result, or the message of the ResourceLimit it raised."""
    try:
        return fn(*args)
    except ResourceLimit as e:
        return ("ResourceLimit", str(e))


def test_normal_form_kernel_matches_old_loop():
    rng = random.Random(31)
    for ctx, order in _kernel_orders():
        for _ in range(8):
            basis = [_random_poly(rng, ctx, deg=3, terms=4) for _ in range(3)]
            basis.append(Poly.zero(ctx))
            target = _random_poly(rng, ctx, deg=5, terms=6)
            ref = _old_normal_form(target, basis, order)
            got = normal_form(target, basis, order)
            assert _items([got]) == _items([ref])
            nonzero = [g for g in basis if g.terms]
            leads = [g.leading_exp(order) for g in nonzero]
            with_leads = normal_form(target, nonzero, order, leads=leads)
            assert _items([with_leads]) == _items([ref])


def test_bases_match_old_loop(old_division):
    rng = random.Random(32)
    inputs = [_graph_input()[::-1]]
    for ctx, order in _kernel_orders():
        for _ in range(5):
            inputs.append((order, [_random_poly(rng, ctx, deg=3)
                                   for _ in range(3)]))
    got = [groebner_basis(gens, order) for order, gens in inputs]
    old_division()
    ref = [groebner_basis(gens, order) for order, gens in inputs]
    assert [_items(G) for G in got] == [_items(G) for G in ref]
    assert sum(len(G) for G in ref) > 2 * len(inputs)


def _module_inputs():
    rng = random.Random(33)
    f = p("x^2*y + y^3 - x*y", XY)
    yield [(f.diff("x"),), (f.diff("y"),), (-f,)], MonomialOrder.grevlex()
    yield ([(p("x^2 - y"), p("x*y")), (p("x*y"), p("y^2 + x")),
            (p("y^2"), p("x^2"))], MonomialOrder.lex())
    for order in (MonomialOrder.grevlex(), MonomialOrder.weighted([1, 2, 1])):
        yield ([tuple(_random_poly(rng, XYZ, deg=2) for _ in range(2))
                for _ in range(3)], order)


def test_module_bases_match_old_loop(old_division):
    inputs = list(_module_inputs())

    def bases():
        out = []
        for vecs, order in inputs:
            mo = gb._ModOrder(order, split=len(vecs[0]))
            aug = [tuple(v) + tuple(Poly.const(v[0].ctx, int(i == k))
                                    for k in range(len(vecs)))
                   for i, v in enumerate(vecs)]
            out.append([_items(g) for g in gb._module_gb(aug, mo)])
            out.append([_items(s) for s in syzygies(vecs, order)])
            out.append(gb.module_contains(vecs, aug[0][:len(vecs[0])],
                                          order))
        return out
    got = bases()
    old_division()
    assert got == bases()


def test_resource_limit_on_same_inputs_as_old_loop(old_division):
    rng = random.Random(34)
    inputs = []
    for ctx, order in _kernel_orders():
        for _ in range(4):
            inputs.append(([_random_poly(rng, ctx, deg=3, terms=4)
                            for _ in range(3)], order))
    inputs.append(([p("x^5 + y"), p("y^4 - x")], MonomialOrder.grevlex()))
    targets = [_random_poly(rng, XYZ, deg=6, terms=5) for _ in range(6)]
    basis = [p("x^2 - y*z", XYZ), p("y^3 - x", XYZ), p("z^2 + x*y", XYZ)]
    vecs, order = next(_module_inputs())

    def outcomes():
        out = []
        for d in (2, 3, 4, 5):
            lim = Limits(max_degree=d)
            out += [_outcome(groebner_basis, gens, order, lim)
                    for gens, order in inputs]
            out += [_outcome(gb.normal_form, t, basis, MonomialOrder.lex(),
                             lim) for t in targets]
            out.append(_outcome(syzygies, vecs, order, lim))
        return out
    got = outcomes()
    old_division()
    ref = outcomes()
    assert got == ref
    raised = sum(isinstance(o, tuple) and o[:1] == ("ResourceLimit",)
                 for o in ref)
    assert 0 < raised < len(ref)


def test_division_keys_each_exponent_once(monkeypatch):
    # Work-count guard: one normal_form call keys each exponent that enters
    # its working polynomial at most once, plus each term of the basis when
    # it must find the leads itself.  The old loop re-keys the whole working
    # polynomial on every step (15 times the bound here) and fails it.
    gens, base = _graph_input()
    G = groebner_basis(gens[:6], base)
    target = sum((g * g for g in gens), Poly.zero(GRAPH))
    calls = [0]

    def key(e):
        calls[0] += 1
        return base.key(e)
    order = MonomialOrder(base.kind, key, base.desc)

    # every exponent that enters the working polynomial, seen by the old
    # loop through the subtractions that make each new working polynomial
    entered = set(target.terms)
    real_sub = Poly.__sub__

    def sub(a, b):
        out = real_sub(a, b)
        entered.update(out.terms)
        return out
    with monkeypatch.context() as patch:
        patch.setattr(Poly, "__sub__", sub)
        ref = _old_normal_form(target, G, base)
    basis_terms = sum(len(g.terms) for g in G)
    leads = [g.leading_exp(base) for g in G]

    calls[0] = 0
    assert normal_form(target, G, order, leads=leads) == ref
    assert calls[0] <= len(entered)
    calls[0] = 0
    assert normal_form(target, G, order) == ref
    assert calls[0] <= len(entered) + basis_terms
    calls[0] = 0
    assert _old_normal_form(target, G, order) == ref
    assert calls[0] > 3 * (len(entered) + basis_terms)


# ======================================================================
# the one Buchberger engine (gb.buchberger, gb.interreduce) against the
# separate loops it replaced (kept here only, as references)


def _old_groebner_basis(gens, order, limits=gb.DEFAULT_LIMITS):
    """Reduced Groebner basis by its own pair loop."""
    from fpowers.ring import KeyCache
    G = []
    for g in gens:
        if not g.is_zero():
            limits.check_poly(g)
            G.append(g)
    if not G:
        return []

    keys = KeyCache(order.key)
    leading = keys.__getitem__
    queue = gb.PairQueue(order.key)
    for g in G:
        queue.add(max(g.terms, key=leading))
    lead = queue.lead
    while queue:
        i, j, lij = queue.pop()
        # product criterion, then the chain criterion
        if lij == exp_add(lead[i], lead[j]) or queue.chain_skips(i, j, lij):
            continue
        s = gb._s_poly(G[i], G[j], order, lead[i], lead[j])
        limits.check_poly(s)
        r = normal_form(s, G, order, limits, leads=lead, keys=keys)
        if r.is_zero():
            continue
        limits.check_poly(r)
        G.append(r)
        limits.check_size(len(G))
        queue.add(max(r.terms, key=leading))

    return _old_reduce_basis(G, order, limits, leads=lead, keys=keys)


def _old_reduce_basis(G, order, limits=gb.DEFAULT_LIMITS, leads=None,
                      keys=None):
    """Minimal, tail-reduced, monic basis by its own minimalization."""
    from fpowers.ring import KeyCache
    if keys is None:
        keys = KeyCache(order.key)
    if leads is None:
        G = [g for g in G if not g.is_zero()]
        leads = [max(g.terms, key=keys.__getitem__) for g in G]
    # minimalize: drop g whose LM is divisible by another LM
    keep = []
    for i, li in enumerate(leads):
        drop = False
        for j, lj in enumerate(leads):
            if i == j:
                continue
            if exp_divides(lj, li) and (lj != li or j < i):
                drop = True
                break
        if not drop:
            keep.append(i)
    # tail-reduce each against the others, make monic
    out = []
    for i in keep:
        rest = [k for k in keep if k != i]
        g = G[i]
        r = normal_form(g, [G[k] for k in rest], order, limits,
                        leads=[leads[k] for k in rest], keys=keys) \
            if rest else g
        if not r.is_zero():
            lr = max(r.terms, key=keys.__getitem__)
            out.append((keys[lr], r * (Fraction(1) / r.terms[lr])))
    out.sort(key=lambda t: t[0])
    return [g for _, g in out]


def _old_module_gb(vectors, mo, limits=gb.DEFAULT_LIMITS):
    """Module basis by its own pair loop, multipliers built by hand."""
    from fpowers.ring import KeyCache
    G = [v for v in vectors if not gb._vec_is_zero(v)]
    if not G:
        return []
    ctx = G[0][0].ctx
    keys = KeyCache(mo.key)
    leads = [gb._vec_lead(v, mo, keys) for v in G]
    queue = gb.PairQueue(mo.base.key)
    for pos, e in leads:
        queue.add(e, pos)

    while queue:
        i, j, l = queue.pop()
        if queue.chain_skips(i, j, l):
            continue
        pos = leads[i][0]
        li, lj = leads[i][1], leads[j][1]
        ci = G[i][pos].terms[li]
        cj = G[j][pos].terms[lj]
        mi = Poly.monomial(ctx, exp_sub(l, li), Fraction(1) / ci)
        mj = Poly.monomial(ctx, exp_sub(l, lj), Fraction(1) / cj)
        s = gb._vec_sub(gb._vec_scale(G[i], mi), gb._vec_scale(G[j], mj))
        r = gb._vec_reduce(s, G, leads, mo, limits, keys=keys)
        if gb._vec_is_zero(r):
            continue
        G.append(r)
        leads.append(gb._vec_lead(r, mo, keys))
        limits.check_size(len(G))
        queue.add(leads[-1][1], leads[-1][0])
    return G


def _engine_ideal_inputs():
    """(order, gens): the graph-ideal elimination and the random inputs of
    the queue and division tests above."""
    yield _graph_input()[::-1]
    rng = random.Random(5)
    for order in (MonomialOrder.lex(), MonomialOrder.grevlex()):
        for _ in range(6):
            yield order, [_random_poly(rng, XYZ, deg=3) for _ in range(3)]
    rng = random.Random(32)
    for ctx, order in _kernel_orders():
        for _ in range(5):
            yield order, [_random_poly(rng, ctx, deg=3) for _ in range(3)]


def _augmented(vecs):
    return [tuple(v) + tuple(Poly.const(v[0].ctx, int(i == k))
                             for k in range(len(vecs)))
            for i, v in enumerate(vecs)]


def _run_with_pops(queue_pops, fn, *args):
    """(fn's result or ResourceLimit message, the pairs it popped)."""
    del queue_pops[:]
    out = _outcome(fn, *args)
    return out, list(queue_pops)


def test_engine_bases_and_pops_match_old_loop(queue_pops):
    n = 0
    for order, gens in _engine_ideal_inputs():
        got, got_pops = _run_with_pops(queue_pops, groebner_basis, gens, order)
        ref, ref_pops = _run_with_pops(queue_pops, _old_groebner_basis,
                                       gens, order)
        assert _items(got) == _items(ref)
        assert got_pops == ref_pops
        n += len(ref_pops)
    assert n > 100


def test_engine_interreduction_matches_old_loop():
    # on bases and on plain generator lists (with a zero element), where
    # minimalization and tail reduction both have work to do
    for order, gens in _engine_ideal_inputs():
        G = groebner_basis(gens, order)
        for basis in (G + gens, gens + [Poly.zero(gens[0].ctx)] + G[::-1]):
            assert _items(gb._reduce_basis(basis, order)) == \
                _items(_old_reduce_basis(basis, order))


def test_engine_module_bases_and_pops_match_old_loop(queue_pops):
    n = 0
    for vecs, order in _module_inputs():
        for split in (0, len(vecs[0])):
            mo = gb._ModOrder(order, split=split)
            aug = _augmented(vecs)
            got, got_pops = _run_with_pops(queue_pops, gb._module_gb, aug, mo)
            ref, ref_pops = _run_with_pops(queue_pops, _old_module_gb, aug,
                                           mo)
            assert [_items(g) for g in got] == [_items(g) for g in ref]
            assert got_pops == ref_pops
            n += len(ref_pops)
    assert n > 20


def test_engine_resource_limits_match_old_loop():
    # degree and basis-size bounds: the same inputs raise, with the same
    # messages, and the rest give the same bases
    ideals = list(_engine_ideal_inputs())
    ideals.append((MonomialOrder.grevlex(), [p("x^5 + y"), p("y^4 - x")]))
    modules = [(gb._ModOrder(order, split=len(vecs[0])), _augmented(vecs))
               for vecs, order in _module_inputs()]
    limits = [Limits(max_degree=d) for d in (2, 3, 4, 5)]
    limits += [Limits(max_basis=b) for b in (3, 4, 5, 6, 8)]

    def exact(o):
        """A basis as its terms in dict order; a message as it is."""
        if isinstance(o, tuple):
            return o
        return [_items(g) if isinstance(g, tuple) else _items([g])
                for g in o]
    got, ref = [], []
    for lim in limits:
        for order, gens in ideals:
            got.append(exact(_outcome(groebner_basis, gens, order, lim)))
            ref.append(exact(_outcome(_old_groebner_basis, gens, order,
                                      lim)))
        for mo, aug in modules:
            got.append(exact(_outcome(gb._module_gb, aug, mo, lim)))
            ref.append(exact(_outcome(_old_module_gb, aug, mo, lim)))
    assert got == ref
    messages = {o[1].split()[0] for o in ref if isinstance(o, tuple)}
    assert messages == {"total", "basis"}
    assert sum(isinstance(o, list) for o in ref) > len(ref) // 4
