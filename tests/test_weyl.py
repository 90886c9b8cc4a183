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
from weyl_reference import (
    _old_left_normal_form, _old_reduce_left_basis, _old_weyl_left_gb,
    basis_rows, combination, left_interreduction,
)


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
    """Tracked left basis by sugar selection as a min over all pending
    (sugar, key, i, j), re-keyed on every iteration: a remainder takes the
    sugar of its pair, except under a graded order, where an element's
    sugar is its degree.  Returns (basis, cofactors, popped pairs)."""
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
    sugar = [g.total_degree() for g in G]

    def pair_sugar(i, j):
        l = exp_lcm(lead[i], lead[j])
        return max(sugar[k] + sum(l) - sum(lead[k]) for k in (i, j))
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    popped = []
    while pairs:
        i, j = min(pairs, key=lambda ij: (
            pair_sugar(*ij), order.key(exp_lcm(lead[ij[0]], lead[ij[1]])),
            ij))
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
        r = _old_left_normal_form(mi * G[i] - mj * G[j], G, order,
                                  cofactors=negcof, basis_cofactors=C)
        if r.is_zero():
            continue
        G.append(r)
        C.append([-a for a in negcof])
        lead.append(r.leading_exp(order))
        sugar.append(r.total_degree() if order.graded else pair_sugar(i, j))
        pairs.update((k, len(G) - 1) for k in range(len(G) - 1))
    basis, cofs = _old_reduce_left_basis(G, C, order, gb.DEFAULT_LIMITS)
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
        G = weyl_left_gb(gens, order)
        C = basis_rows(G)
        ref_G, ref_C, ref_pops = _reference_left_gb(gens, order)
        assert G == ref_G
        assert C == ref_C
        assert queue_pops == ref_pops


def test_untracked_left_gb_is_tracked_basis_without_cofactors(monkeypatch):
    # the tracked basis is the reference loop with its cofactor rows
    products = [0]
    real = weyl.weyl_multiply

    def counted(P, Q):
        products[0] += 1
        return real(P, Q)
    monkeypatch.setattr(weyl, "weyl_multiply", counted)
    for gens, order in _left_gb_inputs():
        products[0] = 0
        G, C = _old_weyl_left_gb(gens, order, track=True)
        tracked = products[0]
        products[0] = 0
        assert weyl_left_gb(gens, order) == G
        # the basis multiplies no cofactor rows
        assert products[0] < tracked
        for g, row in zip(G, basis_rows(weyl_left_gb(gens, order))):
            assert combination(row, gens) == g


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
# (kept in tests/weyl_reference.py, as a reference)


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
    # the remainder term for term and the steps; on the basis, the steps
    # give the cofactors of the old tracked division, printed identically
    import random
    rng = random.Random(41)
    for gens, order in _kernel_left_inputs():
        ctx = gens[0].ctx
        G = weyl_left_gb(gens, order)
        ref_G, C = _old_weyl_left_gb(gens, order, track=True)
        assert _items(G) == _items(ref_G)
        pool = _op_pool(ctx)
        for _ in range(6):
            P = WeylOp.zero(ctx)
            for _ in range(rng.randint(1, 3)):
                term = WeylOp.const(ctx, rng.choice([1, -2, Fraction(1, 3)]))
                for _ in range(rng.randint(1, 4)):
                    term = term * rng.choice(pool)
                P = P + term
            for basis, rows in ((G, C), (list(gens), None)):
                steps, ref_steps = [], []
                ref_cof = [WeylOp.zero(ctx) for _ in gens]
                got = weyl.left_normal_form(P, basis, order, steps=steps)
                ref = _old_left_normal_form(P, basis, order,
                                            cofactors=ref_cof,
                                            basis_cofactors=rows,
                                            steps=ref_steps)
                assert _items([got]) == _items([ref])
                assert steps == ref_steps
                taken = WeylOp.zero(ctx)
                for k, m, c in steps:
                    taken = taken + WeylOp(ctx, {m: c}) * basis[k]
                assert P == got + taken
                if rows is not None:
                    cof = G.cofactors(steps)
                    assert cof == ref_cof
                    assert [str(c) for c in cof] == [str(c) for c in ref_cof]


def test_left_bases_match_old_loop(monkeypatch):
    # the old division in the engine gives the same bases, the same log
    # and so the same rebuilt rows
    inputs = list(_kernel_left_inputs())
    got = [weyl_left_gb(gens, order) for gens, order in inputs]
    monkeypatch.setattr(weyl, "left_normal_form", _old_left_normal_form)
    ref = [weyl_left_gb(gens, order) for gens, order in inputs]
    for G, rG in zip(got, ref):
        assert _items(G) == _items(rG)
        assert (G.origin, G.steps, G.final) == (rG.origin, rG.steps, rG.final)
        assert basis_rows(G) == basis_rows(rG)


def test_left_resource_limit_on_same_inputs_as_old_loop(monkeypatch):
    # the old division keeps its own degree message
    import re
    from fpowers.gb import Limits, ResourceLimit

    def outcomes():
        out = []
        for d in (2, 3, 4, 5, 6):
            for gens, order in _kernel_left_inputs():
                try:
                    with Limits(max_degree=d):
                        out.append(weyl_left_gb(gens, order))
                except ResourceLimit as e:
                    out.append((d, str(e)))
        return out
    got = outcomes()
    monkeypatch.setattr(weyl, "left_normal_form", _old_left_normal_form)
    ref = outcomes()
    for g, r in zip(got, ref):
        if isinstance(r, tuple) and \
                r[1] == "degree bound exceeded in left normal form":
            m = re.fullmatch(r"total degree (\d+) exceeds bound (\d+)", g[1])
            assert m and int(m[1]) > r[0] == int(m[2])
        else:
            assert g == r
    assert len(got) == len(ref)
    raised = sum(isinstance(o, tuple) for o in ref)
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
# against the loop it replaced (kept in tests/weyl_reference.py, as a reference)


def _rows_str(C):
    return [[str(c) for c in row] for row in C]


def test_engine_left_bases_pops_and_cofactors_match_old_loop(queue_pops):
    # the rows rebuilt from the log equal the tracked loop's rows, with
    # identical printing
    n = 0
    for gens, order in _kernel_left_inputs():
        for track in (True, False):
            del queue_pops[:]
            got = weyl_left_gb(gens, order)
            got_pops = list(queue_pops)
            del queue_pops[:]
            ref = _old_weyl_left_gb(gens, order, track=track)
            assert got_pops == list(queue_pops)
            n += len(got_pops)
            if track:
                assert _items(got) == _items(ref[0])
                rows = basis_rows(got)
                assert rows == ref[1]
                assert _rows_str(rows) == _rows_str(ref[1])
                for g, row in zip(got, rows):
                    assert combination(row, gens) == g
            else:
                assert _items(got) == _items(ref)
    assert n > 50


def test_engine_left_interreduction_matches_old_loop():
    # on unreduced lists: the generators, then the generators after a
    # tracked basis with its rows, so elements get dropped and reduced, and
    # the basis with each element plus the one before it, so every tail
    # needs reducing; each list is logged as its own generators, so its
    # rebuilt rows compose with the list's rows into rows over gens
    tails = 0
    for gens, order in _kernel_left_inputs():
        ctx = gens[0].ctx
        G, C = _old_weyl_left_gb(gens, order, track=True)
        units = []
        for i in range(len(gens)):
            row = [WeylOp.zero(ctx) for _ in gens]
            row[i] = WeylOp.const(ctx, 1)
            units.append(row)
        shifted = G[:1] + [G[i] + G[i - 1] for i in range(1, len(G))]
        shifted_rows = C[:1] + [[a + b for a, b in zip(C[i], C[i - 1])]
                                for i in range(1, len(C))]
        lists = [(list(gens), None), (list(gens) + G, units + C),
                 (G[::-1] + list(gens), C[::-1] + units),
                 (shifted, shifted_rows)]
        for basis, rows in lists:
            log = (basis, list(range(len(basis))), [[] for _ in basis])
            got = left_interreduction(basis, log, order)
            ref = _old_reduce_left_basis(basis, rows, order, gb.DEFAULT_LIMITS)
            if rows is None:
                assert _items(got) == _items(ref)
                continue
            assert _items(got) == _items(ref[0])
            over_gens = [[combination(q, [r[j] for r in rows])
                          for j in range(len(gens))]
                         for q in basis_rows(got)]
            assert over_gens == ref[1]
            assert _rows_str(over_gens) == _rows_str(ref[1])
            tails += sum(len(tail) for _, _, tail in got.final)
    assert tails > 10


def test_engine_left_resource_limits_match_old_loop():
    # the same inputs raise as with the old loop, or earlier where the
    # nonzero generators alone exceed the basis-size bound; the bounds
    # now speak the gb.Limits wording, the left normal form included
    import re
    from fpowers.gb import Limits, ResourceLimit

    def outcome(fn, gens, order, lim, track):
        try:
            with lim:
                got = fn(gens, order, lim, track)
        except ResourceLimit as e:
            return str(e)
        G, C = got if track else (got, [])
        return _items(G), _rows_str(C)

    def rebuilt(gens, order, lim, track):
        G = weyl_left_gb(gens, order)
        return (G, basis_rows(G)) if track else G
    limits = [Limits(max_degree=d) for d in (2, 3, 4, 5, 6)]
    limits += [Limits(max_basis=b) for b in (2, 4, 6, 8, 12)]
    seen = set()
    early = 0
    for lim in limits:
        for gens, order in _kernel_left_inputs():
            starting = sum(not g.is_zero() for g in gens)
            for track in (True, False):
                got = outcome(rebuilt, gens, order, lim, track)
                ref = outcome(_old_weyl_left_gb, gens, order, lim, track)
                if starting > lim.max_basis:
                    assert got == (f"basis size {starting} exceeds bound "
                                   f"{lim.max_basis}")
                    early += 1
                elif ref in ("degree bound exceeded in left basis",
                             "degree bound exceeded in left normal form"):
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
    assert early > 0


def test_left_basis_bounds_use_limits_wording():
    # B_F elimination for f = x^2 + y^3: its left basis used to fail with
    # "degree bound exceeded in left basis" and "basis size bound exceeded";
    # its four generators alone exceed a bound of 2 before any pair.  Its
    # basis stays within degree 3 under sugar selection, so the degree
    # bound that the loop's remainder check meets is 2
    from fpowers.gb import Limits, ResourceLimit
    gens, order = next(_left_gb_inputs())
    with pytest.raises(ResourceLimit) as err, Limits(max_degree=2):
        weyl_left_gb(gens, order)
    assert str(err.value) == "total degree 3 exceeds bound 2"
    with pytest.raises(ResourceLimit) as err, Limits(max_basis=5):
        weyl_left_gb(gens, order)
    assert str(err.value) == "basis size 6 exceeds bound 5"
    assert len(gens) == 4
    with pytest.raises(ResourceLimit) as err, Limits(max_basis=2):
        weyl_left_gb(gens, order)
    assert str(err.value) == "basis size 4 exceeds bound 2"


def test_left_normal_form_degree_message_names_the_degree():
    from fpowers.gb import Limits, ResourceLimit
    # the first step leaves x^4 in the work: over the bound of 3
    ctx = WeylContext(["x"], [])
    with pytest.raises(ResourceLimit) as err, Limits(max_degree=3):
        weyl.left_normal_form(parse_weyl("x^5", ctx), [parse_weyl("x - 1", ctx)],
                              MonomialOrder.grevlex())
    assert str(err.value) == "total degree 4 exceeds bound 3"


def test_left_normal_form_rejects_a_basis_over_another_context():
    # D_1[s1, s2] against D_1[s1]: exponents of different lengths compared
    # as the shorter one, and the division ran on without end
    P = parse_weyl("x*dx + s2", WeylContext(["x"], ["s1", "s2"]))
    G = [parse_weyl("dx", WeylContext(["x"], ["s1"]))]
    with pytest.raises(ValueError) as err:
        weyl.left_normal_form(P, G, MonomialOrder.grevlex())
    assert str(err.value) == (
        "cannot divide an element over WeylContext(x=['x'], s=['s1', 's2']) "
        "by one over WeylContext(x=['x'], s=['s1'])")
