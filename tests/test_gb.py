"""Groebner engine: bases, elimination, colon, dimension, syzygies,
resolutions, plus soundness properties with randomized inputs."""

import random
from fractions import Fraction

import pytest

from fpowers import gb
from fpowers.ring import (
    Divisors, MonomialOrder, Poly, VarContext, exp_add, exp_divides, exp_lcm,
    exp_sub, parse_poly,
)
from fpowers.gb import (
    GradedModulePresentation, IdealHandle, Limits, NonHomogeneousInput,
    ResourceLimit, eliminate, graded_free_resolution, groebner_basis,
    ideal_colon, intersect, krull_dimension, normal_form, radical_membership,
    saturate, syzygies,
)
from kernel_reference import elements_of, s_poly, value_of, vec_scale, vec_sub

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


def test_tag_variable_avoids_declared_names():
    # intersect and radical_membership add a tag variable; declared _w and
    # _w1 must not clash with it, and the answers are those of x, y
    W = VarContext([("X", ["_w", "_w1"])])
    I = intersect(IdealHandle([p("_w", W)]), IdealHandle([p("_w1", W)]))
    assert I.equals(IdealHandle([p("_w*_w1", W)]))
    J = IdealHandle([p("_w^2", W)])
    assert radical_membership(p("_w", W), J)
    assert not radical_membership(p("_w1", W), J)
    C = ideal_colon(IdealHandle([p("_w^2*_w1", W)]), p("_w", W))
    assert C.equals(IdealHandle([p("_w*_w1", W)]))


def test_normal_form_rejects_a_basis_over_another_context():
    # exponents of different lengths compared as the shorter one, and the
    # division ran on without end
    with pytest.raises(ValueError) as err:
        normal_form(p("x^2*z + y", XYZ), [p("x - y", XY)],
                    MonomialOrder.grevlex())
    assert str(err.value) == (
        "cannot divide an element over VarContext(X=['x', 'y', 'z']) "
        "by one over VarContext(X=['x', 'y'])")
    with pytest.raises(ValueError):
        gb.module_contains([(p("x - y", XY),)], (p("x^2*z + y", XYZ),))


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
                s = s_poly(G[i], G[j], I.order)
                assert normal_form(s, G, I.order).is_zero()


def test_resource_limit_raises():
    I = IdealHandle([p("x^5 + y"), p("y^4 - x")])
    with Limits(max_degree=3, max_basis=20000):
        with pytest.raises(ResourceLimit):
            I.gb()


# ======================================================================
# S-pair selection: the PairQueue against a plain min-selection loop


def _chain_skips(pairs, lead, i, j, l, same=lambda k: True):
    return any(k not in (i, j) and same(k) and exp_divides(lead[k], l)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(lead)))


def _pair_sugar(sugar, lead, i, j):
    """max(sugar_i + |l| - |lead_i|, sugar_j + |l| - |lead_j|)."""
    l = exp_lcm(lead[i], lead[j])
    return max(sugar[k] + sum(l) - sum(lead[k]) for k in (i, j))


def _selection(key, select_sugar):
    """The selection key of a pending pair: (sugar, key(lcm), (i, j)) with
    select_sugar, else the normal selection (key(lcm), (i, j))."""
    def rank(ij, sugar, lead):
        k = (key(exp_lcm(lead[ij[0]], lead[ij[1]])), ij)
        return (_pair_sugar(sugar, lead, *ij),) + k if select_sugar else k
    return rank


def _reference_gb(gens, order, select_sugar=True):
    """Selection as a min over all pending pairs, re-keyed on every
    iteration: by (sugar, key, i, j), a remainder taking its pair's sugar
    except under a graded order, where an element's sugar is its degree;
    or, with select_sugar false, the normal selection the library used
    before sugar.  Returns (reduced basis, popped pairs, pairs created)."""
    G = [g for g in gens if not g.is_zero()]
    lead = [g.leading_exp(order) for g in G]
    sugar = [g.total_degree() for g in G]
    rank = _selection(order.key, select_sugar)
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    created, popped = len(pairs), []
    while pairs:
        i, j = min(pairs, key=lambda ij: rank(ij, sugar, lead))
        pairs.discard((i, j))
        popped.append((i, j))
        l = exp_lcm(lead[i], lead[j])
        if l == exp_add(lead[i], lead[j]) or _chain_skips(pairs, lead, i, j, l):
            continue
        r = normal_form(s_poly(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        G.append(r)
        lead.append(r.leading_exp(order))
        sugar.append(r.total_degree() if order.graded
                     else _pair_sugar(sugar, lead, i, j))
        t = len(G) - 1
        pairs.update((k, t) for k in range(t))
        created += t
    return _interreduced(G, order), popped, created


def _interreduced(G, order):
    """What groebner_basis does with its basis, on a plain list:
    gb.interreduce with gb.normal_form tail reductions (zeros dropped)."""
    G = [g for g in G if not g.is_zero()]
    divisors = Divisors.of(G[0].ctx, G, order.key)

    def divide(i, rest):
        if not rest:
            return G[i]
        return gb.normal_form(G[i], divisors.subset(rest), order)
    return [g for _, _, g in gb.interreduce(divisors, divide)]


def _vec_degree(v):
    return max(q.total_degree() for q in v)


def _reference_module_gb(vectors, mo, select_sugar=True):
    """The module basis (unreduced, in creation order) by min selection,
    as _reference_gb; pairs are keyed by the base order on the lcm
    exponent, and the module order is graded only without positions
    first."""
    G = [v for v in vectors if not gb._vec_is_zero(v)]
    ctx = G[0][0].ctx
    leads = [_old_vec_lead(v, mo) for v in G]
    lead = [e for _, e in leads]
    sugar = [_vec_degree(v) for v in G]
    graded = mo.split == 0 and mo.base.graded
    rank = _selection(mo.base.key, select_sugar)
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))
             if leads[i][0] == leads[j][0]}
    popped = []
    while pairs:
        i, j = min(pairs, key=lambda ij: rank(ij, sugar, lead))
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
        s = vec_sub(vec_scale(G[i], mi), vec_scale(G[j], mj))
        r = gb._vec_reduce(s, G, mo)
        if gb._vec_is_zero(r):
            continue
        G.append(r)
        leads.append(_old_vec_lead(r, mo))
        lead.append(leads[-1][1])
        sugar.append(_vec_degree(r) if graded
                     else _pair_sugar(sugar, lead, i, j))
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


def test_queue_matches_min_selection_weight_and_block(queue_pops):
    rng = random.Random(6)
    for ctx, order in _kernel_orders()[2:]:
        for _ in range(6):
            gens = [_random_poly(rng, ctx, deg=3) for _ in range(3)]
            del queue_pops[:]
            ref, ref_pops, _ = _reference_gb(gens, order)
            assert groebner_basis(gens, order) == ref
            assert queue_pops == ref_pops


def test_graded_orders_keep_normal_selection(queue_pops):
    # under a graded order a pair's sugar is |lcm|, which leads its key,
    # so the queue pops exactly as the normal selection did
    rng = random.Random(7)
    graded = [MonomialOrder.grevlex(), MonomialOrder.weighted([1, 1, 1]),
              MonomialOrder.block(XYZ, ["X"])]
    assert all(order.graded for order in graded)
    assert not any(order.graded for _, order in _kernel_orders()
                   if order.kind != "grevlex")
    for order in graded:
        for _ in range(6):
            gens = [_random_poly(rng, XYZ, deg=3) for _ in range(3)]
            del queue_pops[:]
            ref, ref_pops, _ = _reference_gb(gens, order, select_sugar=False)
            assert groebner_basis(gens, order) == ref
            assert queue_pops == ref_pops
    vecs = [tuple(_random_poly(rng, XYZ, deg=2) for _ in range(2))
            for _ in range(3)]
    mo = gb._ModOrder(MonomialOrder.grevlex(), split=0)
    assert mo.graded and not gb._ModOrder(mo.base, split=1).graded
    del queue_pops[:]
    ref, ref_pops = _reference_module_gb(_augmented(vecs), mo,
                                         select_sugar=False)
    assert gb._module_gb(_augmented(vecs), mo) == ref
    assert queue_pops == ref_pops and ref_pops


def test_sugar_changes_selection_off_graded_orders():
    # the two references differ on the elimination of the graph ideal, and
    # under sugar fewer remainders join the basis, so fewer pairs are made
    gens, order = _graph_input()
    ref, sugar_pops, sugar_pairs = _reference_gb(gens, order)
    old, normal_pops, normal_pairs = _reference_gb(gens, order,
                                                   select_sugar=False)
    assert ref == old
    assert sugar_pops != normal_pops
    assert (sugar_pairs, normal_pairs) == (276, 435)


def test_queue_matches_min_selection_module_syzygy(queue_pops, monkeypatch):
    real = gb._module_gb
    seen = []

    def spy(vectors, mo):
        del queue_pops[:]
        got = real(vectors, mo)
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


def test_every_kernel_call_is_inside_a_module_level_division(monkeypatch):
    # the basis loops divide through the module-level normal_form,
    # _vec_reduce and left_normal_form names, which the benchmark's tracer
    # wraps; a loop that called the kernel around them would empty the
    # trace of its divisions
    from fpowers import ring, weyl
    from fpowers.bside import elimination_order
    from fpowers.logder import FactorizationSpec
    state = {"active": 0, "divisions": 0, "outside": 0, "kernel": 0}

    def division(real):
        def wrapped(*args, **kwargs):
            state["divisions"] += 1
            state["active"] += 1
            try:
                return real(*args, **kwargs)
            finally:
                state["active"] -= 1
        return wrapped

    def kernel(real):
        def wrapped(*args, **kwargs):
            state["kernel"] += 1
            state["outside"] += not state["active"]
            return real(*args, **kwargs)
        return wrapped
    gens, order = _graph_input()
    f = p("x^2*y + y^3 - x*y", XY)
    vecs = [(f.diff("x"),), (f.diff("y"),), (-f,)]
    F = FactorizationSpec(["x", "y"], [p("x^2 + y^3", XY)])
    ops = F.theta_generators() + [weyl.WeylOp.from_poly(F.weyl, F.f_xs)]
    for mod, name in ((gb, "normal_form"), (gb, "_vec_reduce"),
                      (weyl, "left_normal_form")):
        monkeypatch.setattr(mod, name, division(getattr(mod, name)))
    for mod in (ring, gb):
        monkeypatch.setattr(mod, "reduce_in_place",
                            kernel(getattr(mod, "reduce_in_place")))
    groebner_basis(gens, order)
    assert syzygies(vecs)
    assert gb.module_contains(vecs, (f * f,))
    weyl.weyl_left_gb(ops, elimination_order(F.weyl))
    assert state["outside"] == 0
    assert state["divisions"] > 0 and state["kernel"] >= state["divisions"]


# ======================================================================
# the in-place division kernel against the copy-and-rescan loops it
# replaced (kept here only, as references)


def _old_normal_form(p, basis, order):
    """Re-keys every basis lead per call, rescans the working polynomial
    for its lead and copies it on every step; a ring.Divisors basis is
    read as its elements, and an integer S-element at its value.  It
    checks the bound in effect, as the library does."""
    if not basis:
        return p
    p = value_of(p, basis)
    basis = elements_of(basis)
    limits = Limits.current()
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


def _old_vec_lead(v, mo):
    best = None
    for pos, q in enumerate(v):
        for e in q.terms:
            m = (pos, e)
            if best is None or mo.key(m) > mo.key(best):
                best = m
    if best is None:
        raise ValueError("zero vector has no leading term")
    return best


def _old_vec_reduce(v, basis, mo):
    v = value_of(v, basis)
    basis = elements_of(basis)
    leads = [_old_vec_lead(g, mo) for g in basis]
    limits = Limits.current()
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
            work = vec_sub(work, vec_scale(g, m))
            for q in work:
                limits.check_poly(q)
    return rem


@pytest.fixture
def old_division(monkeypatch):
    """Run the module's Buchberger loops on the old division loops."""
    def use_old():
        monkeypatch.setattr(gb, "normal_form", _old_normal_form)
        monkeypatch.setattr(gb, "_vec_reduce", _old_vec_reduce)
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
            divisors = Divisors.of(ctx, nonzero, order.key)
            with_divisors = normal_form(target, divisors, order)
            assert _items([with_divisors]) == _items([ref])


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
            with Limits(max_degree=d):
                out += [_outcome(groebner_basis, gens, order)
                        for gens, order in inputs]
                out += [_outcome(gb.normal_form, t, basis,
                                 MonomialOrder.lex()) for t in targets]
                out.append(_outcome(syzygies, vecs, order))
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
    # a basis computation's divisors: leads known, no exponent keyed yet
    divisors = Divisors.of(GRAPH, G, order.key)
    divisors.keys.clear()

    calls[0] = 0
    assert normal_form(target, divisors, order) == ref
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


def _old_groebner_basis(gens, order):
    """Reduced Groebner basis by its own pair loop, under the bound in
    effect; pairs come from the sugar queue."""
    limits = Limits.current()
    G = []
    for g in gens:
        if not g.is_zero():
            limits.check_poly(g)
            G.append(g)
    if not G:
        return []

    divisors = Divisors(G[0].ctx, order.key)
    queue = gb.PairQueue(order.key, order.graded)
    for g in G:
        queue.add(divisors.add(g.terms), 0, g.total_degree())
    lead = queue.lead
    while queue:
        i, j, lij, sugar = queue.pop()
        # product criterion, then the chain criterion
        if lij == exp_add(lead[i], lead[j]) or queue.chain_skips(i, j, lij):
            continue
        s = s_poly(G[i], G[j], order, lead[i], lead[j])
        limits.check_poly(s)
        r = normal_form(s, divisors, order)
        if r.is_zero():
            continue
        limits.check_poly(r)
        G.append(r)
        limits.check_size(len(G))
        queue.add(divisors.add(r.terms), 0, sugar)

    return _old_reduce_basis(G, order, divisors)


def _old_reduce_basis(G, order, divisors=None):
    """Minimal, tail-reduced, monic basis by its own minimalization."""
    if divisors is None:
        G = [g for g in G if not g.is_zero()]
        divisors = Divisors.of(G[0].ctx, G, order.key)
    leads, keys = divisors.leads, divisors.keys
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
        r = normal_form(g, divisors.subset(rest), order) if rest else g
        if not r.is_zero():
            lr = max(r.terms, key=keys.__getitem__)
            out.append((keys[lr], r * (Fraction(1) / r.terms[lr])))
    out.sort(key=lambda t: t[0])
    return [g for _, g in out]


def _old_module_gb(vectors, mo):
    """Module basis by its own pair loop, multipliers built by hand, under
    the bound in effect; pairs come from the sugar queue."""
    limits = Limits.current()
    G = [v for v in vectors if not gb._vec_is_zero(v)]
    if not G:
        return []
    ctx = G[0][0].ctx
    divisors = gb._vec_divisors(gb._vec_ctx(G[0]), G, mo)
    leads = divisors.leads
    queue = gb.PairQueue(mo.base.key, mo.graded)
    for (pos, e), v in zip(leads, G):
        queue.add(e, pos, _vec_degree(v))

    while queue:
        i, j, l, sugar = queue.pop()
        if queue.chain_skips(i, j, l):
            continue
        pos = leads[i][0]
        li, lj = leads[i][1], leads[j][1]
        ci = G[i][pos].terms[li]
        cj = G[j][pos].terms[lj]
        mi = Poly.monomial(ctx, exp_sub(l, li), Fraction(1) / ci)
        mj = Poly.monomial(ctx, exp_sub(l, lj), Fraction(1) / cj)
        s = vec_sub(vec_scale(G[i], mi), vec_scale(G[j], mj))
        r = gb._vec_reduce(s, divisors, mo)
        if gb._vec_is_zero(r):
            continue
        G.append(r)
        divisors.add(gb._vec_terms(r))
        limits.check_size(len(G))
        queue.add(leads[-1][1], leads[-1][0], sugar)
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
            assert _items(_interreduced(basis, order)) == \
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
    # messages, and the rest give the same bases; only where the nonzero
    # starting elements alone exceed the basis-size bound does the engine
    # raise before any pair, with their count
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
    def early(starting, lim, ref):
        if starting > lim.max_basis:
            return ("ResourceLimit",
                    f"basis size {starting} exceeds bound {lim.max_basis}")
        return ref
    got, ref, expected = [], [], []
    for lim in limits:
        with lim:
            for order, gens in ideals:
                got.append(exact(_outcome(groebner_basis, gens, order)))
                ref.append(exact(_outcome(_old_groebner_basis, gens,
                                          order)))
                expected.append(early(sum(not g.is_zero() for g in gens),
                                      lim, ref[-1]))
            for mo, aug in modules:
                got.append(exact(_outcome(gb._module_gb, aug, mo)))
                ref.append(exact(_outcome(_old_module_gb, aug, mo)))
                expected.append(early(sum(not gb._vec_is_zero(v)
                                          for v in aug), lim, ref[-1]))
    assert got == expected
    assert 0 < sum(e != r for e, r in zip(expected, ref)) < len(ref) // 4
    messages = {o[1].split()[0] for o in ref if isinstance(o, tuple)}
    assert messages == {"total", "basis"}
    assert sum(isinstance(o, list) for o in ref) > len(ref) // 4


# ======================================================================
# the bound in effect: one per request, set by a with block


def test_limits_block_restores_the_outer_bound():
    assert Limits.current() is gb.DEFAULT_LIMITS
    outer, inner = Limits(max_degree=9), Limits(max_degree=3)
    with outer:
        assert Limits.current() is outer
        with inner:
            assert Limits.current() is inner
            with outer:
                assert Limits.current() is outer
            assert Limits.current() is inner
        assert Limits.current() is outer
        with pytest.raises(ResourceLimit), inner:
            groebner_basis([p("x^5 + y"), p("y^4 - x")],
                           MonomialOrder.grevlex())
        assert Limits.current() is outer
        groebner_basis([p("x^5 + y"), p("y^4 - x")], MonomialOrder.grevlex())
    assert Limits.current() is gb.DEFAULT_LIMITS


def test_no_function_takes_a_limits_parameter():
    # the bound is read from Limits.current(), never handed along, so no
    # call can forget it; likewise a computation's divisors travel as one
    # ring.Divisors, never as loose leads, keys and images
    import ast
    from pathlib import Path
    found = []
    for path in sorted(Path(gb.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                names += [x.arg for x in (a.vararg, a.kwarg) if x]
                for name in {"limits", "leads", "keys", "images"} & set(names):
                    found.append((path.name, getattr(node, "name", "lambda"),
                                  name))
    assert found == []
    assert not hasattr(IdealHandle([p("x")]), "limits")
