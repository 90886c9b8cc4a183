"""Weyl algebra arithmetic, left GB, symbols, the F^S action, and tau."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fpowers import gb, weyl
from fpowers.bside import elimination_order
from fpowers.ring import (
    MonomialOrder, Poly, VarContext, exp_divides, exp_lcm, exp_sub, parse_poly,
)
from fpowers.weyl import (
    FiltrationMismatch,
    FSElement,
    LeftIdeal,
    WeylContext,
    WeylOp,
    apply_to_FS,
    gr_symbol,
    parse_weyl,
    transpose_tau,
    weyl_left_gb,
    weyl_multiply,
)
from fpowers.logder import FactorizationSpec


def wctx1():
    return WeylContext(["x"], ["s"])


def wctx2():
    return WeylContext(["x", "y"], [])


# ---------------------------------------------------------------------------
# products


def test_defining_relation():
    ctx = wctx1()
    d, x = WeylOp.var(ctx, "dx"), WeylOp.var(ctx, "x")
    assert weyl_multiply(d, x) == parse_weyl("x*dx + 1", ctx)


def test_leibniz_second_order():
    ctx = wctx1()
    d, x = WeylOp.var(ctx, "dx"), WeylOp.var(ctx, "x")
    assert d * d * x == parse_weyl("x*dx^2 + 2*dx", ctx)


def test_euler_operator_square():
    ctx = wctx1()
    xd = parse_weyl("x*dx", ctx)
    assert xd * xd == parse_weyl("x^2*dx^2 + x*dx", ctx)


def _op_pool(ctx):
    """Small operators to draw random factors from."""
    names = ctx.x_names + ctx.dx_names + ctx.s_names
    pool = [WeylOp.var(ctx, v) for v in names]
    pool.append(WeylOp.const(ctx, Fraction(1)))
    pool.append(WeylOp.const(ctx, Fraction(-2, 3)))
    return pool


@st.composite
def weyl_ops(draw, ctx, max_factors=3):
    pool = _op_pool(ctx)
    nsum = draw(st.integers(1, 3))
    acc = WeylOp.zero(ctx)
    for _ in range(nsum):
        P = WeylOp.const(ctx, draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
        for _ in range(draw(st.integers(1, max_factors))):
            P = P * draw(st.sampled_from(pool))
        acc = acc + P
    return acc


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_associative(data):
    ctx = WeylContext(["x", "y"], ["s1"])
    P = data.draw(weyl_ops(ctx))
    Q = data.draw(weyl_ops(ctx))
    R = data.draw(weyl_ops(ctx))
    assert (P * Q) * R == P * (Q * R)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_distributes(data):
    ctx = WeylContext(["x"], ["s"])
    P = data.draw(weyl_ops(ctx))
    Q = data.draw(weyl_ops(ctx))
    R = data.draw(weyl_ops(ctx))
    assert P * (Q + R) == P * Q + P * R


# ---------------------------------------------------------------------------
# symbols


def test_gr_total_order():
    ctx = wctx1()
    P = parse_weyl("x*dx^2 + dx + s^2", ctx)
    assert gr_symbol(P, "(0,1,1)") == parse_poly("x*y1^2 + s^2", ctx.symbol_vc)


def test_gr_order_filtration():
    ctx = wctx1()
    assert gr_symbol(parse_weyl("x*dx + 1", ctx), "(0,1)") == \
        parse_poly("x*y1", ctx.symbol_vc)


def test_gr_psi_shape():
    ctx = WeylContext(["x"], ["s1"])
    P = parse_weyl("x*dx - s1", ctx)
    assert gr_symbol(P, "(0,1,1)") == parse_poly("x*y1 - s1", ctx.symbol_vc)


def test_gr_rejects_s_in_order_filtration():
    ctx = wctx1()
    with pytest.raises(FiltrationMismatch):
        gr_symbol(parse_weyl("x*dx - s", ctx), "(0,1)")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_gr_multiplicative_when_weights_add(data):
    # with distinct top weights there is no cancellation at the top
    ctx = WeylContext(["x", "y"], ["s1"])
    P = data.draw(weyl_ops(ctx))
    Q = data.draw(weyl_ops(ctx))
    if P.is_zero() or Q.is_zero():
        return
    gP = gr_symbol(P, "(0,1,1)")
    gQ = gr_symbol(Q, "(0,1,1)")
    gPQ = gr_symbol(P * Q, "(0,1,1)")
    # top weight of the product is the sum of top weights; equality of the
    # symbol holds unless the top parts multiply to zero, impossible in a
    # commutative domain
    assert gPQ == gP * gQ


# ---------------------------------------------------------------------------
# left Groebner bases


def test_membership_after_one_reduction():
    ctx = WeylContext(["x"], ["s"])
    order = MonomialOrder.block(ctx.vc, ["X", "DX", "S"])
    I = LeftIdeal([parse_weyl("x*dx - s", ctx), parse_weyl("x", ctx)], order)
    # dx*x - (x*dx - s) = s + 1
    assert I.member(parse_weyl("s + 1", ctx))


def test_unit_from_commutator():
    ctx = wctx2()
    order = MonomialOrder.block(ctx.vc, ["X", "DX"])
    gens = [parse_weyl("x*dx", ctx), parse_weyl("y*dy", ctx),
            parse_weyl("x*y", ctx)]
    I = LeftIdeal(gens, order)
    # dy*(x*y) - x*(y*dy) = x, then dx*x - x*dx = 1
    assert I.contains_one()


def test_non_membership():
    ctx = wctx2()
    order = MonomialOrder.block(ctx.vc, ["X", "DX"])
    I = LeftIdeal([parse_weyl("dx", ctx)], order)
    assert not I.member(parse_weyl("x", ctx))


def test_left_gb_certificate_all_spairs_reduce():
    # left S-pairs of the finished basis reduce to zero: certifies the basis
    # independently of the pair-selection strategy used while building it
    from fpowers.weyl import left_normal_form
    ctx = WeylContext(["x", "y"], ["s1"])
    order = MonomialOrder.block(ctx.vc, ["X", "DX", "S"])
    gens = [parse_weyl("x*dx - s1", ctx), parse_weyl("y*dy + 2*s1", ctx),
            parse_weyl("x*y*dy", ctx)]
    G = weyl_left_gb(gens, order)
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            ei = G[i].leading_exp(order)
            ej = G[j].leading_exp(order)
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            mi = tuple(a - b for a, b in zip(lcm, ei))
            mj = tuple(a - b for a, b in zip(lcm, ej))
            ci = G[i].leading_coeff(order)
            cj = G[j].leading_coeff(order)
            Pi = WeylOp(ctx, {mi: Fraction(1) / ci}) * G[i]
            Pj = WeylOp(ctx, {mj: Fraction(1) / cj}) * G[j]
            rem = left_normal_form(Pi - Pj, G, order)
            assert rem.is_zero()


# ---------------------------------------------------------------------------
# S-pair selection and cofactor tracking


def _reference_left_gb(gens, order):
    """Tracked left basis by normal selection as a min over all pending
    pairs, re-keyed on every iteration.  Returns (basis, cofactors,
    popped pairs)."""
    from fpowers.weyl import left_normal_form
    ctx = gens[0].ctx
    G, C = [], []
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        G.append(g)
        row = [WeylOp.zero(ctx) for _ in gens]
        row[i] = WeylOp.const(ctx, 1)
        C.append(row)
    lead = [g.leading_exp(order) for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    popped = []
    while pairs:
        i, j = min(pairs, key=lambda ij: (
            order.key(exp_lcm(lead[ij[0]], lead[ij[1]])), ij))
        pairs.discard((i, j))
        popped.append((i, j))
        l = exp_lcm(lead[i], lead[j])
        if any(k not in (i, j) and exp_divides(lead[k], l)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(G))):
            continue
        mi = WeylOp(ctx, {exp_sub(l, lead[i]): Fraction(1) / G[i].terms[lead[i]]})
        mj = WeylOp(ctx, {exp_sub(l, lead[j]): Fraction(1) / G[j].terms[lead[j]]})
        negcof = [-(mi * a - mj * b) for a, b in zip(C[i], C[j])]
        r = left_normal_form(mi * G[i] - mj * G[j], G, order,
                             cofactors=negcof, basis_cofactors=C)
        if r.is_zero():
            continue
        G.append(r)
        C.append([-a for a in negcof])
        lead.append(r.leading_exp(order))
        pairs.update((k, len(G) - 1) for k in range(len(G) - 1))
    basis, cofs = weyl._reduce_left_basis(G, C, order, gb.DEFAULT_LIMITS)
    return basis, cofs, popped


def _left_gb_inputs():
    """A B_F elimination (theta_F and f for f = x^2 + y^3) and a block-order
    left ideal."""
    vc = VarContext([("X", ["x", "y"])])
    F = FactorizationSpec(["x", "y"], [parse_poly("x^2 + y^3", vc)])
    yield (F.theta_generators() + [WeylOp.from_poly(F.weyl, F.f_xs)],
           elimination_order(F.weyl))
    ctx = WeylContext(["x", "y"], ["s1"])
    yield ([parse_weyl("x*dx - s1", ctx), parse_weyl("y*dy + 2*s1", ctx),
            parse_weyl("x*y*dy", ctx), parse_weyl("dx^2 - y", ctx)],
           MonomialOrder.block(ctx.vc, ["X", "DX", "S"]))


def test_left_gb_queue_matches_min_selection(queue_pops):
    for gens, order in _left_gb_inputs():
        del queue_pops[:]
        G, C = weyl_left_gb(gens, order, track=True)
        ref_G, ref_C, ref_pops = _reference_left_gb(gens, order)
        assert G == ref_G
        assert C == ref_C
        assert queue_pops == ref_pops


def test_untracked_left_gb_is_tracked_basis_without_cofactors(monkeypatch):
    products = [0]
    real = weyl.weyl_multiply

    def counted(P, Q):
        products[0] += 1
        return real(P, Q)
    monkeypatch.setattr(weyl, "weyl_multiply", counted)
    for gens, order in _left_gb_inputs():
        products[0] = 0
        G, C = weyl_left_gb(gens, order, track=True)
        tracked = products[0]
        products[0] = 0
        assert weyl_left_gb(gens, order) == G
        # the untracked basis multiplies no cofactor rows
        assert products[0] < tracked
        for g, row in zip(G, C):
            combo = WeylOp.zero(g.ctx)
            for c, gen in zip(row, gens):
                combo = combo + c * gen
            assert combo == g


# ---------------------------------------------------------------------------
# action on F^S


def F_x():
    from fpowers.ring import VarContext
    vc = VarContext([("X", ["x"])])
    return FactorizationSpec(["x"], [parse_poly("x", vc)])


def F_x_q():
    from fpowers.ring import VarContext
    vc = VarContext([("X", ["x", "y", "z"])])
    return FactorizationSpec(["x", "y", "z"],
                             [parse_poly("x", vc), parse_poly("2*x^2 + y*z", vc)])


def test_action_euler_annihilates_xs():
    F = F_x()
    P = parse_weyl("x*dx - s1", F.weyl)
    assert apply_to_FS(P, F).is_zero()


def test_action_power_rule():
    F = F_x()
    res = apply_to_FS(parse_weyl("dx", F.weyl), F)
    assert res.j == 1
    assert res.num == parse_poly("s1", F.xs_vc)


def test_action_seh_field_annihilates():
    F = F_x_q()
    P = parse_weyl("1/3*x*dx + 2/3*y*dy - 1/3*s1 - 2/3*s2", F.weyl)
    assert apply_to_FS(P, F).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_action_is_module_action(data):
    # (PQ) . F^S computed directly equals P . (Q . F^S)
    F = F_x_q()
    ctx = F.weyl
    P = data.draw(weyl_ops(ctx, max_factors=2))
    Q = data.draw(weyl_ops(ctx, max_factors=2))
    lhs = apply_to_FS(P * Q, F)
    rhs = apply_to_FS(P, F, start=apply_to_FS(Q, F))
    assert lhs == rhs


def test_fselement_pole_reduction_is_canonical():
    F = F_x()
    # (x*s / x) F^S reduces to s*F^S with pole order 0
    e = FSElement(F, parse_poly("x*s1", F.xs_vc), 1)
    assert e.j == 0
    assert e.num == parse_poly("s1", F.xs_vc)


# ---------------------------------------------------------------------------
# transpose


def test_tau_euler():
    ctx = wctx1()
    assert transpose_tau(parse_weyl("x*dx", ctx)) == parse_weyl("-x*dx - 1", ctx)


def test_tau_pure_derivative():
    ctx = wctx1()
    assert transpose_tau(parse_weyl("dx^2", ctx)) == parse_weyl("dx^2", ctx)


def test_tau_fixes_s():
    ctx = wctx1()
    assert transpose_tau(parse_weyl("s*dx", ctx)) == parse_weyl("-s*dx", ctx)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tau_involutive_antiautomorphism(data):
    ctx = WeylContext(["x", "y"], ["s1"])
    P = data.draw(weyl_ops(ctx))
    Q = data.draw(weyl_ops(ctx))
    assert transpose_tau(transpose_tau(P)) == P
    assert transpose_tau(P * Q) == transpose_tau(Q) * transpose_tau(P)
    assert transpose_tau(P + Q) == transpose_tau(P) + transpose_tau(Q)


# ---------------------------------------------------------------------------
# serialization


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_str_parse_round_trip(data):
    ctx = WeylContext(["x", "y"], ["s1", "s2"])
    P = data.draw(weyl_ops(ctx))
    assert parse_weyl(str(P), ctx) == P


def test_annihilator_soundness_theta():
    F = F_x_q()
    for t in F.theta_generators():
        assert apply_to_FS(t, F).is_zero()


# ---------------------------------------------------------------------------
# the in-place division kernel against the left-division loop it replaced
# (kept here only, as a reference)


def _old_left_normal_form(P, basis, order, limits=gb.DEFAULT_LIMITS,
                          cofactors=None, basis_cofactors=None,
                          leads=None, keys=None):
    """Re-keys every basis lead per call, rescans the working operator for
    its lead and copies it on every step; leads and keys are ignored."""
    from fpowers.gb import ResourceLimit
    ctx = P.ctx
    lead = [(g.leading_exp(order), g) for g in basis if not g.is_zero()]
    rem = WeylOp.zero(ctx)
    work = P
    while not work.is_zero():
        e = work.leading_exp(order)
        c = work.terms[e]
        hit = -1
        for k, (le, g) in enumerate(lead):
            if exp_divides(le, e):
                hit = k
                break
        if hit < 0:
            t = WeylOp(ctx, {e: c})
            rem = rem + t
            work = work - t
        else:
            le, g = lead[hit]
            m = exp_sub(e, le)
            coef = c / g.terms[le]
            work = work - weyl_multiply(WeylOp(ctx, {m: coef}), g)
            if work.total_degree() > limits.max_degree:
                raise ResourceLimit("degree bound exceeded in left normal form")
            if cofactors is not None and basis_cofactors is not None:
                mono = WeylOp(ctx, {m: coef})
                for idx, cof in enumerate(basis_cofactors[hit]):
                    if not cof.is_zero():
                        cofactors[idx] = cofactors[idx] + mono * cof
    return rem


def _kernel_left_inputs():
    """Left ideals with s-variables under weighted, block and grevlex
    orders, plus the B_F elimination of _left_gb_inputs."""
    yield from _left_gb_inputs()
    ctx = WeylContext(["x", "y"], ["s1", "s2"])
    gens = [parse_weyl("x*dx + y*dy - s1 - 2*s2", ctx),
            parse_weyl("y*dx - x*dy", ctx), parse_weyl("x^2 + y^2", ctx)]
    yield gens, elimination_order(ctx)
    yield gens, MonomialOrder.block(ctx.vc, ["X", "DX", "S"])
    gens = [parse_weyl("x*dx - s1 - s2", ctx),
            parse_weyl("y*dy - 2*s2", ctx), parse_weyl("x^2*y", ctx)]
    yield gens, MonomialOrder.grevlex()
    yield gens, elimination_order(ctx)


def _items(ops):
    return [list(P.terms.items()) for P in ops]


def test_left_normal_form_kernel_matches_old_loop():
    import random
    rng = random.Random(41)
    for gens, order in _kernel_left_inputs():
        ctx = gens[0].ctx
        G, C = weyl_left_gb(gens, order, track=True)
        pool = _op_pool(ctx)
        for _ in range(6):
            P = WeylOp.zero(ctx)
            for _ in range(rng.randint(1, 3)):
                term = WeylOp.const(ctx, rng.choice([1, -2, Fraction(1, 3)]))
                for _ in range(rng.randint(1, 4)):
                    term = term * rng.choice(pool)
                P = P + term
            for basis, rows in ((G, C), (list(gens), None)):
                got_cof = [WeylOp.zero(ctx) for _ in gens]
                ref_cof = [WeylOp.zero(ctx) for _ in gens]
                got = weyl.left_normal_form(P, basis, order,
                                            cofactors=got_cof,
                                            basis_cofactors=rows)
                ref = _old_left_normal_form(P, basis, order,
                                            cofactors=ref_cof,
                                            basis_cofactors=rows)
                assert _items([got]) == _items([ref])
                assert got_cof == ref_cof


def test_left_bases_match_old_loop(monkeypatch):
    inputs = list(_kernel_left_inputs())
    got = [(weyl_left_gb(gens, order, track=True),
            weyl_left_gb(gens, order)) for gens, order in inputs]
    monkeypatch.setattr(weyl, "left_normal_form", _old_left_normal_form)
    ref = [(weyl_left_gb(gens, order, track=True),
            weyl_left_gb(gens, order)) for gens, order in inputs]
    for ((G, C), plain), ((rG, rC), rplain) in zip(got, ref):
        assert _items(G) == _items(rG)
        assert C == rC
        assert _items(plain) == _items(rplain)


def test_left_resource_limit_on_same_inputs_as_old_loop(monkeypatch):
    from fpowers.gb import Limits, ResourceLimit

    def outcomes():
        out = []
        for d in (2, 3, 4, 5, 6):
            for gens, order in _kernel_left_inputs():
                try:
                    out.append(weyl_left_gb(gens, order, Limits(max_degree=d),
                                            track=True))
                except ResourceLimit as e:
                    out.append(str(e))
        return out
    got = outcomes()
    monkeypatch.setattr(weyl, "left_normal_form", _old_left_normal_form)
    ref = outcomes()
    assert got == ref
    raised = sum(isinstance(o, str) for o in ref)
    assert 0 < raised < len(ref)


# ---------------------------------------------------------------------------
# the grouped F^S action against the term-by-term loop it replaced (the
# old_apply_to_FS fixture in conftest.py); FSElement equality compares the
# pole order j and the reduced numerator


def F_lines():
    vc = VarContext([("X", ["x", "y"])])
    return FactorizationSpec(["x", "y"], [parse_poly(s, vc)
                                          for s in ("x", "y", "x + y")])


def _random_ops(ctx, rng, count, factors=5):
    """Sums of up to four products of random generators, s-variables and
    scalars, so the derivative patterns repeat across terms."""
    pool = _op_pool(ctx)
    for _ in range(count):
        P = WeylOp.zero(ctx)
        for _ in range(rng.randint(1, 4)):
            term = WeylOp.const(ctx, rng.choice([1, -3, Fraction(2, 5)]))
            for _ in range(rng.randint(1, factors)):
                term = term * rng.choice(pool)
            P = P + term
        yield P


def _starts(F):
    """F^S itself, f*F^S, and elements with poles (j > 0)."""
    xs = F.xs_vc
    yield None
    yield FSElement(F, F.f_xs, 0)
    yield apply_to_FS(parse_weyl("d" + F.x_names[0], F.weyl), F)
    yield FSElement(F, parse_poly("x*s1 + 1", xs), 2)
    yield FSElement(F, F.f_xs * parse_poly("x - s1", xs), 3)


def test_grouped_action_matches_old_loop(old_apply_to_FS):
    import random
    rng = random.Random(7)
    for F in (F_x_q(), F_lines()):
        starts = list(_starts(F))
        assert any(s is not None and s.j > 0 for s in starts)
        for P in _random_ops(F.weyl, rng, 12):
            for start in starts:
                got = apply_to_FS(P, F, start=start)
                ref = old_apply_to_FS(P, F, start=start)
                assert got == ref, (str(P), str(start))


def test_grouped_action_theta_and_zero(old_apply_to_FS):
    for F in (F_x(), F_x_q(), F_lines()):
        for t in F.theta_generators():
            got = apply_to_FS(t, F)
            assert got.is_zero() and got.j == 0
            assert got == old_apply_to_FS(t, F)
        zero = WeylOp.zero(F.weyl)
        assert apply_to_FS(zero, F) == old_apply_to_FS(zero, F)


def test_apply_partial_matches_old_formula():
    # d_i (h/f^j) F^S = [d_i(h) f - j h d_i(f) + h sum_k s_k (d_i f_k)(f/f_k)]
    #                   / f^(j+1), written out term by term as before
    for F in (F_x_q(), F_lines()):
        xs = F.xs_vc
        for elt in _starts(F):
            elt = elt or FSElement(F, Poly.const(xs, 1), 0)
            for i, name in enumerate(F.x_names):
                h = elt.num
                num = h.diff(name) * F.f_xs - Fraction(elt.j) * h * F.df_xs[i]
                for k in range(F.r):
                    sk = Poly.var(xs, F.s_names[k])
                    num = num + sk * F.dfk_xs[k][i] * F.cofactor_xs[k] * h
                ref = FSElement(F, num, elt.j + 1)
                got = weyl._apply_partial(i, elt, F, weyl._log_numerator(i, F))
                assert got == ref


def _prefix_count(P):
    """Distinct nonzero d-prefixes of P's terms: d^b is reached by applying
    d_1 b_1 times, then d_2 b_2 times, and so on."""
    n = P.ctx.n
    prefixes = set()
    for e in P.terms:
        b = e[n:2 * n]
        for i in range(n):
            for t in range(1, b[i] + 1):
                prefixes.add(b[:i] + (t,) + (0,) * (n - i - 1))
    return len(prefixes)


def _count_partials(monkeypatch):
    calls = []
    real = weyl._apply_partial

    def counted(*args):
        calls.append(args[0])
        return real(*args)
    monkeypatch.setattr(weyl, "_apply_partial", counted)
    return calls


def _guard_ops():
    import random
    rng = random.Random(11)
    for F in (F_x_q(), F_lines()):
        for P in _random_ops(F.weyl, rng, 8, factors=6):
            yield F, P


def test_action_partials_once_per_prefix(monkeypatch):
    calls = _count_partials(monkeypatch)
    made = 0
    for F, P in _guard_ops():
        for start in (None, FSElement(F, F.f_xs, 0)):
            del calls[:]
            apply_to_FS(P, F, start=start)
            assert len(calls) <= _prefix_count(P), str(P)
            made += len(calls)
    assert made > 0


def test_old_loop_fails_partial_guard(monkeypatch, old_apply_to_FS):
    calls = _count_partials(monkeypatch)
    over = 0
    for F, P in _guard_ops():
        del calls[:]
        old_apply_to_FS(P, F)
        over += len(calls) > _prefix_count(P)
    assert over > 0


# ---------------------------------------------------------------------------
# the shared element layer: parser, powers and scalar equality


def _random_expression(rng, names, depth=2):
    """A random operator expression in the ring.py grammar: sums of
    products of constants, fractions, variables, parenthesised
    subexpressions, unary minus and powers."""
    def atom(d):
        roll = rng.random()
        if roll < 0.2:
            return str(rng.randint(0, 5))
        if roll < 0.3:
            return f"{rng.randint(0, 7)}/{rng.randint(1, 5)}"
        if roll < 0.4 and d:
            return f"({expr(d - 1)})"
        if roll < 0.45:
            return f"-{atom(d)}"
        return rng.choice(names)

    def factor(d):
        a = atom(d)
        return f"{a}^{rng.randint(0, 3)}" if rng.random() < 0.25 else a

    def term(d):
        return "*".join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d):
        out = rng.choice(["", "", "-", "+"]) + term(d)
        for _ in range(rng.randint(0, 2)):
            out += rng.choice([" + ", " - "]) + term(d)
        return out
    return expr(depth)


def test_parser_matches_old_parse_weyl(old_parse_weyl):
    import random
    rng = random.Random(5)
    ctx = WeylContext(["x", "y"], ["s1", "s2"])
    names = ctx.x_names + ctx.dx_names + ctx.s_names
    texts = ["dx*x", "dx^2*x^2 - (x*dx)^2", "-(dy*y*s1)^2 + 1/2*dx*x"]
    texts += [_random_expression(rng, names) for _ in range(240)]
    for text in texts:
        new, old = parse_weyl(text, ctx), old_parse_weyl(text, ctx)
        assert new == old, text
        assert str(new) == str(old), text
    # the sample reaches every part of the grammar
    assert parse_weyl("dx*x", ctx) == parse_weyl("x*dx + 1", ctx)
    assert sum("^" in t for t in texts) > 50
    assert sum("/" in t for t in texts) > 50
    assert sum("(" in t for t in texts) > 50
    assert sum(t.startswith("-") or "*-" in t or "(-" in t
               for t in texts) > 50
    assert sum(any(f"d{v}*{v}" in t for v in ctx.x_names)
               for t in texts) > 5


def test_parse_weyl_zero_denominator_is_positioned_syntax_error():
    ctx = wctx1()
    with pytest.raises(SyntaxError) as ei:
        parse_weyl("1/0*x", ctx)
    assert "position 0" in str(ei.value)


def test_weyl_negative_power_rejected():
    ctx = wctx1()
    with pytest.raises(ValueError):
        parse_weyl("x*dx + s", ctx) ** -1


def test_weyl_zero_equals_scalar_zero():
    ctx = wctx1()
    assert WeylOp.zero(ctx) == 0
    assert WeylOp.const(ctx, Fraction(3, 2)) == Fraction(3, 2)
    assert parse_weyl("dx*x - x*dx", ctx) == 1
    assert Poly.zero(ctx.vc) == 0


def test_power_is_repeated_product():
    import random
    rng = random.Random(3)
    ctx = WeylContext(["x", "y"], ["s1", "s2"])
    for P in _random_ops(ctx, rng, 12, factors=3):
        power = WeylOp.const(ctx, 1)
        for k in range(6):
            assert P ** k == power, (str(P), k)
            power = power * P


# ---------------------------------------------------------------------------
# the left basis on the one Buchberger engine (gb.buchberger, gb.interreduce)
# against the loop it replaced (kept here only, as a reference)


def _old_left_mono_mul(ctx, m, c, P):
    return weyl_multiply(WeylOp(ctx, {m: c}), P)


def _old_weyl_left_gb(gens, order, limits=gb.DEFAULT_LIMITS, track=False):
    """Reduced left basis by its own pair loop and its own bound checks."""
    from fpowers.gb import PairQueue, ResourceLimit
    from fpowers.ring import KeyCache
    left_normal_form = weyl.left_normal_form
    ctx = gens[0].ctx if gens else None
    G = []
    # cofactor rows, one per element of G, kept only when tracking
    C = [] if track else None
    gens = list(gens)
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        G.append(g)
        if track:
            row = [WeylOp.zero(ctx) for _ in gens]
            row[i] = WeylOp.const(ctx, 1)
            C.append(row)
    if not G:
        return ([], []) if track else []

    keys = KeyCache(order.key)
    leading = keys.__getitem__
    queue = PairQueue(order.key)
    for g in G:
        queue.add(max(g.terms, key=leading))
    lead = queue.lead
    while queue:
        i, j, l = queue.pop()
        if queue.chain_skips(i, j, l):
            continue
        mi, mj = exp_sub(l, lead[i]), exp_sub(l, lead[j])
        ci = Fraction(1) / G[i].terms[lead[i]]
        cj = Fraction(1) / G[j].terms[lead[j]]
        s = (_old_left_mono_mul(ctx, mi, ci, G[i])
             - _old_left_mono_mul(ctx, mj, cj, G[j]))
        if track:
            cof = [WeylOp(ctx, {mi: ci}) * a - WeylOp(ctx, {mj: cj}) * b
                   for a, b in zip(C[i], C[j])]
            negcof = [-a for a in cof]
            r = left_normal_form(s, G, order, limits, cofactors=negcof,
                                 basis_cofactors=C, leads=lead, keys=keys)
        else:
            r = left_normal_form(s, G, order, limits, leads=lead, keys=keys)
        if r.is_zero():
            continue
        if r.total_degree() > limits.max_degree:
            raise ResourceLimit("degree bound exceeded in left basis")
        G.append(r)
        if track:
            C.append([-a for a in negcof])
        if len(G) > limits.max_basis:
            raise ResourceLimit("basis size bound exceeded")
        queue.add(max(r.terms, key=leading))

    return _old_reduce_left_basis(G, C, order, limits, lead, keys)


def _old_reduce_left_basis(G, C, order, limits, leads=None, keys=None):
    """Minimal, tail-reduced, monic basis by its own minimalization."""
    from fpowers.ring import KeyCache
    left_normal_form = weyl.left_normal_form
    if keys is None:
        keys = KeyCache(order.key)
    if leads is None:
        leads = [max(g.terms, key=keys.__getitem__) for g in G]
    # minimalize by leading-monomial divisibility
    keep_idx = []
    for i, li in enumerate(leads):
        drop = False
        for j, lj in enumerate(leads):
            if i == j:
                continue
            if exp_divides(lj, li) and (lj != li or j < i):
                drop = True
                break
        if not drop:
            keep_idx.append(i)
    # tail-reduce and scale monic
    out = []
    for i in keep_idx:
        rest = [k for k in keep_idx if k != i]
        rest_g, rest_l = [G[k] for k in rest], [leads[k] for k in rest]
        if C is None:
            r = left_normal_form(G[i], rest_g, order, limits,
                                 leads=rest_l, keys=keys)
        else:
            delta = [WeylOp.zero(G[i].ctx) for _ in C[i]]
            r = left_normal_form(G[i], rest_g, order, limits,
                                 cofactors=delta,
                                 basis_cofactors=[C[k] for k in rest],
                                 leads=rest_l, keys=keys)
        if r.is_zero():
            continue
        lr = max(r.terms, key=keys.__getitem__)
        inv = Fraction(1) / r.terms[lr]
        if C is None:
            out.append((keys[lr], r * inv, None))
        else:
            # G[i] = r + sum(delta * originals), so
            # r = sum((C[i] - delta) * originals)
            out.append((keys[lr], r * inv,
                        [(a - b) * inv for a, b in zip(C[i], delta)]))
    out.sort(key=lambda t: t[0])
    if C is None:
        return [g for _, g, _ in out]
    return [g for _, g, _ in out], [row for _, _, row in out]


def _rows_items(C):
    return [_items(row) for row in C]


def test_engine_left_bases_pops_and_cofactors_match_old_loop(queue_pops):
    n = 0
    for gens, order in _kernel_left_inputs():
        for track in (True, False):
            del queue_pops[:]
            got = weyl_left_gb(gens, order, track=track)
            got_pops = list(queue_pops)
            del queue_pops[:]
            ref = _old_weyl_left_gb(gens, order, track=track)
            assert got_pops == list(queue_pops)
            n += len(got_pops)
            if track:
                assert _items(got[0]) == _items(ref[0])
                assert _rows_items(got[1]) == _rows_items(ref[1])
            else:
                assert _items(got) == _items(ref)
    assert n > 50


def test_engine_left_interreduction_matches_old_loop():
    # on unreduced lists: the generators, then the generators after a
    # tracked basis with its rows, so elements get dropped and reduced
    for gens, order in _kernel_left_inputs():
        ctx = gens[0].ctx
        G, C = weyl_left_gb(gens, order, track=True)
        units = []
        for i in range(len(gens)):
            row = [WeylOp.zero(ctx) for _ in gens]
            row[i] = WeylOp.const(ctx, 1)
            units.append(row)
        lists = [(list(gens), None), (list(gens) + G, units + C),
                 (G[::-1] + list(gens), C[::-1] + units)]
        for basis, rows in lists:
            got = weyl._reduce_left_basis(basis, rows, order, gb.DEFAULT_LIMITS)
            ref = _old_reduce_left_basis(basis, rows, order, gb.DEFAULT_LIMITS)
            if rows is None:
                assert _items(got) == _items(ref)
            else:
                assert _items(got[0]) == _items(ref[0])
                assert _rows_items(got[1]) == _rows_items(ref[1])


def test_engine_left_resource_limits_match_old_loop():
    # the same inputs raise as with the old loop; the basis bounds now
    # speak the gb.Limits wording, the left normal form keeps its own
    import re
    from fpowers.gb import Limits, ResourceLimit

    def outcome(fn, gens, order, lim, track):
        try:
            got = fn(gens, order, lim, track=track)
        except ResourceLimit as e:
            return str(e)
        G, C = got if track else (got, [])
        return _items(G), _rows_items(C)
    limits = [Limits(max_degree=d) for d in (2, 3, 4, 5, 6)]
    limits += [Limits(max_basis=b) for b in (2, 4, 6, 8, 12)]
    seen = set()
    for lim in limits:
        for gens, order in _kernel_left_inputs():
            for track in (True, False):
                got = outcome(weyl_left_gb, gens, order, lim, track)
                ref = outcome(_old_weyl_left_gb, gens, order, lim, track)
                if ref == "degree bound exceeded in left basis":
                    m = re.fullmatch(r"total degree (\d+) exceeds bound (\d+)",
                                     got)
                    assert m and int(m[1]) > lim.max_degree == int(m[2])
                elif ref == "basis size bound exceeded":
                    m = re.fullmatch(r"basis size (\d+) exceeds bound (\d+)",
                                     got)
                    assert m and int(m[1]) > lim.max_basis == int(m[2])
                else:
                    assert got == ref
                seen.add(ref if isinstance(ref, str) else "basis")
    assert seen == {"degree bound exceeded in left basis",
                    "basis size bound exceeded",
                    "degree bound exceeded in left normal form", "basis"}


def test_left_basis_bounds_use_limits_wording():
    # B_F elimination for f = x^2 + y^3: its left basis used to fail with
    # "degree bound exceeded in left basis" and "basis size bound exceeded"
    from fpowers.gb import Limits, ResourceLimit
    gens, order = next(_left_gb_inputs())
    with pytest.raises(ResourceLimit) as err:
        weyl_left_gb(gens, order, Limits(max_degree=3))
    assert str(err.value) == "total degree 4 exceeds bound 3"
    with pytest.raises(ResourceLimit) as err:
        weyl_left_gb(gens, order, Limits(max_basis=5), track=True)
    assert str(err.value) == "basis size 6 exceeds bound 5"
