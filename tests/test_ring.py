"""Polynomial arithmetic, orders, gradings, parse/print round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fpowers.ring import (
    MonomialOrder, Poly, UnknownVariable, VarContext,
    divide_exact, initial_form, parse_poly,
)


CTX = VarContext([("X", ["x", "y", "z"])])
GCTX = VarContext([("X", ["x"]), ("Y", ["y1"]), ("S", ["s1"])])


def p(s, ctx=CTX):
    return parse_poly(s, ctx)


# ======================================================================
# parsing


def test_parse_basic_expansion():
    q = p("2*x^2 + y*z")
    assert q.terms == {(2, 0, 0): Fraction(2), (0, 1, 1): Fraction(1)}


def test_parse_binomial_identity():
    assert p("(x+y)^2 - x^2 - 2*x*y") == p("y^2")


def test_parse_cancellation_to_zero():
    q = p("x - x")
    assert q.is_zero()
    assert q.terms == {}


def test_parse_rational_coefficients():
    q = p("1/2*x + 3/4")
    assert q.coeff((1, 0, 0)) == Fraction(1, 2)
    assert q.constant_coeff() == Fraction(3, 4)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable):
        p("x + w")


def test_parse_syntax_error_reports_position():
    with pytest.raises(SyntaxError) as ei:
        p("x + + ^")
    assert "position" in str(ei.value)


def test_parse_unbalanced_paren():
    with pytest.raises(SyntaxError):
        p("(x + y")


# ======================================================================
# canonical printing


def test_print_parse_round_trip_is_byte_identical():
    for s in ["x^2*y - 1/2*x + 3", "-x + y - 3", "0", "x*y*z", "7"]:
        q = p(s)
        assert str(parse_poly(str(q), CTX)) == str(q)


def test_print_sorts_descending_grevlex():
    assert str(p("1 + x + x^2")) == "x^2 + x + 1"
    assert str(p("y + x")) == "x + y"


# ======================================================================
# initial forms


def test_initial_form_symbol_grading():
    q = parse_poly("x*y1 - s1", GCTX)
    assert initial_form(q, "(0,1,0)") == parse_poly("x*y1", GCTX)


def test_initial_form_total_order_grading():
    q = parse_poly("x*y1^2 + s1^2 + y1", GCTX)
    assert initial_form(q, "(0,1,1)") == parse_poly("x*y1^2 + s1^2", GCTX)


def test_initial_form_constant():
    q = parse_poly("7", GCTX)
    assert initial_form(q, "(0,1,1)") == q
    assert initial_form(Poly.zero(GCTX), "(0,1)").is_zero()


# ======================================================================
# monomial orders


def test_grevlex_classic_comparison():
    o = MonomialOrder.grevlex()
    # x > y > z and x*z < y^2 under grevlex (the revlex tiebreak)
    assert o.cmp_gt((1, 0, 0), (0, 1, 0))
    assert o.cmp_gt((0, 2, 0), (1, 0, 1))


def test_lex_order():
    o = MonomialOrder.lex()
    assert o.cmp_gt((1, 0, 0), (0, 5, 5))


def test_block_order_eliminates():
    o = MonomialOrder.block(GCTX, ["X", "Y", "S"])
    # any monomial with x beats any without
    assert o.cmp_gt(GCTX.var_exp("x"), (0, 3, 3))


def _nested_block_key(ctx, block_names):
    """The nested block-order key the flat one replaced, kept as a
    reference: one (degree, reversed negated exponents) pair per block."""
    groups = [ctx.block_indices[b] for b in block_names]

    def key(e):
        segs = [tuple(e[i] for i in g) for g in groups]
        return tuple((sum(s), tuple(-x for x in reversed(s))) for s in segs)
    return key


def test_block_key_orders_like_nested_key():
    import random
    rng = random.Random(2)
    ctx = VarContext([("W", ["w1", "w2"]), ("X", ["x"]),
                      ("Y", ["y1", "y2", "y3"]), ("S", ["s1", "s2"])])
    for names in (["W", "X", "Y", "S"], ["S", "Y", "X", "W"], ["Y", "W", "S", "X"]):
        flat = MonomialOrder.block(ctx, names).key
        nested = _nested_block_key(ctx, names)
        exps = [tuple(rng.randint(0, 3) for _ in range(ctx.n))
                for _ in range(400)]
        exps += exps[:40]       # equal monomials compare equal under both
        assert sorted(exps, key=flat) == sorted(exps, key=nested)
        for a, b in zip(exps, exps[1:]):
            assert (flat(a) < flat(b)) == (nested(a) < nested(b))
            assert (flat(a) == flat(b)) == (a == b)
        assert all(type(x) is int for x in flat(exps[0]))


def test_weighted_order_refines():
    w = GCTX.grading("(0,1,1)")
    o = MonomialOrder.weighted(w)
    assert o.cmp_gt(GCTX.var_exp("s1"), GCTX.var_exp("x"))


# ======================================================================
# properties

rat = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))


@st.composite
def polys(draw, ctx=CTX, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(ctx.n))
        terms[e] = draw(rat)
    q = Poly(ctx)
    for e, c in terms.items():
        q = q + Poly.monomial(ctx, e, c)
    return q


@given(polys(), polys())
@settings(max_examples=150, deadline=None)
def test_initial_form_multiplicative(a, b):
    ctx = CTX
    ctx.register_grading("tdeg", {"x": 1, "y": 1, "z": 1})
    lhs = initial_form(a * b, "tdeg")
    rhs = initial_form(a, "tdeg") * initial_form(b, "tdeg")
    assert lhs == rhs


@given(polys())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(a):
    s = str(a)
    assert str(parse_poly(s, CTX)) == s
    assert parse_poly(s, CTX) == a


@given(st.tuples(*[st.integers(0, 5)] * 3), st.tuples(*[st.integers(0, 5)] * 3),
       st.tuples(*[st.integers(0, 3)] * 3))
@settings(max_examples=200, deadline=None)
def test_order_multiplicative(a, b, m):
    from fpowers.ring import exp_add
    for o in (MonomialOrder.lex(), MonomialOrder.grevlex(),
              MonomialOrder.weighted((1, 2, 0))):
        if o.cmp_gt(a, b):
            assert o.cmp_gt(exp_add(m, a), exp_add(m, b))


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        assert divide_exact(a * b, b) is None
        return
    q = divide_exact(a * b, b)
    assert q is not None and q == a


# ======================================================================
# divide_exact on the division kernel, against the loop it replaced


def _old_divide_exact(p, q):
    """Rescans and copies the remainder on every step (reference only)."""
    from fpowers.ring import exp_divides, exp_sub
    if q.is_zero():
        return None
    if p.is_zero():
        return Poly.zero(p.ctx)
    order = MonomialOrder.grevlex()
    lq = q.leading_exp(order)
    cq = q.terms[lq]
    quo = Poly.zero(p.ctx)
    rem = p
    while not rem.is_zero():
        lr = rem.leading_exp(order)
        if not exp_divides(lq, lr):
            return None
        t = Poly.monomial(p.ctx, exp_sub(lr, lq), rem.terms[lr] / cq)
        quo = quo + t
        rem = rem - t * q
    return quo


@given(polys(), polys(), polys())
@settings(max_examples=150, deadline=None)
def test_divide_exact_kernel_matches_old_loop(a, b, r):
    # exact quotients, and None where a remainder is left, in the same
    # term order as before
    for num in (a * b, a * b + r, a + r, a):
        got, ref = divide_exact(num, b), _old_divide_exact(num, b)
        if ref is None:
            assert got is None
        else:
            assert got is not None
            assert list(got.terms.items()) == list(ref.terms.items())


# ======================================================================
# equal elements hash equally


def test_divide_exact_rejects_a_divisor_over_another_context():
    # exponents of different lengths compared as the shorter one, and the
    # division ran on without end
    with pytest.raises(ValueError) as err:
        divide_exact(p("x^2 - y^2"), parse_poly("x - y1", GCTX))
    assert str(err.value) == (
        "cannot divide an element over VarContext(X=['x', 'y', 'z']) by one "
        "over VarContext(X=['x'], Y=['y1'], S=['s1'])")
    XY = VarContext([("X", ["x", "y"])])
    with pytest.raises(ValueError):
        divide_exact(p("x^2 - y^2"), parse_poly("x - y", XY))


def test_constants_hash_like_their_scalars():
    from fpowers.weyl import WeylContext, WeylOp
    wctx = WeylContext(["x"], ["s"])
    for c in (0, 3, Fraction(-1, 2)):
        for elt in (Poly.const(CTX, c), WeylOp.const(wctx, c)):
            assert elt == c
            assert hash(elt) == hash(c)
            assert {c: "a"}.get(elt) == "a"
            assert {elt: "b"}.get(c) == "b"
            assert c in {elt}
    # nonconstant elements still hash by their terms
    assert hash(p("x + 1")) == hash(p("1 + x"))
    assert p("x") != 1


# ======================================================================
# the product against the loop it replaced (kept here only, as a
# reference)


def _old_poly_mul(a, b):
    """Adds every term product onto out.get(e, Fraction(0))."""
    from fpowers.ring import exp_add
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = exp_add(e1, e2)
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    q = Poly(a.ctx)
    q.terms = out
    return q


def _seeded_poly(rng, ctx, terms, max_exp):
    q = Poly.zero(ctx)
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        c = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 5]))
        q = q + Poly.monomial(ctx, e, c)
    return q


def test_product_matches_old_loop_term_order():
    import random
    from fpowers.gb import groebner_basis
    rng = random.Random(17)
    bctx = VarContext([("W", ["a", "b"]), ("X", ["x", "y"]), ("S", ["s"])])
    pairs = []
    for ctx in (CTX, GCTX, bctx):
        for _ in range(40):
            # small exponents, so term products collide and cancel
            pairs.append((_seeded_poly(rng, ctx, 8, 2),
                          _seeded_poly(rng, ctx, 8, 2)))
    # reduced bases under lex and a block order, multiplied pairwise
    for order, ctx in ((MonomialOrder.lex(), CTX),
                       (MonomialOrder.block(bctx, ["W", "X", "S"]), bctx)):
        gens = [_seeded_poly(rng, ctx, 3, 2) for _ in range(3)]
        G = groebner_basis(gens, order)
        pairs += [(f, g) for f in G for g in G]
    pairs.append((p("x + y"), p("x - y")))
    collided = 0
    for a, b in pairs:
        got, ref = a * b, _old_poly_mul(a, b)
        assert list(got.terms.items()) == list(ref.terms.items())
        collided += len(ref.terms) < len(a.terms) * len(b.terms)
    assert collided > len(pairs) // 2


def test_subs_matches_old_loop():
    # Poly.subs forms each power of a substituted variable once; the loop
    # it replaced (tests/gate_reference.py) built every power per term
    import random
    from gate_reference import subs
    rng = random.Random(18)
    cases = [(p("(x + y + z)^3"), {"z": p("-x - y")}),
             (p("x^3*y - 2*x*y^2 + 7"), {"x": p("y^2 - z"), "y": 3})]
    for ctx in (CTX, GCTX):
        for _ in range(40):
            values = [_seeded_poly(rng, ctx, 3, 2), Fraction(-2, 3), 0]
            names = rng.sample(ctx.names, rng.randint(1, ctx.n))
            cases.append((_seeded_poly(rng, ctx, 8, 3),
                          {v: rng.choice(values) for v in names}))
    for q, assignment in cases:
        got, want = q.subs(assignment), subs(q, assignment)
        assert got == want and got.ctx == want.ctx
    assert cases[0][0].subs(cases[0][1]).is_zero()
    with pytest.raises(UnknownVariable):
        p("x").subs({"w": 1})
