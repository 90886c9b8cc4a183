"""TermMap.moved and TermMap.subs against the hand-written passages they
replaced (tests/move_reference.py): the same terms in the same order, on
random elements and on the paper's objects of the five fixtures."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import move_reference as ref
import symbol_reference
from fpowers import liouville, weyl
from fpowers.bside import (
    bs_ideal, coarsen_last_two, diagonal_substitution, elimination_basis,
    merge_last_s, s_context,
)
from fpowers.cli import load_problem
from fpowers.gb import IdealHandle
from fpowers.logder import LogDerivation, _times_var
from fpowers.nabla import _specialized_generators
from fpowers.ring import Poly, UnknownVariable, VarContext
from fpowers.spencer import (
    NotFree, NotKoszulFree, dual_lift_check, spencer_complex,
)
from fpowers.weyl import WeylContext, WeylOp, gr_symbol

DATA = Path(__file__).parent / "data"


def _fixtures():
    return [load_problem(str(path)).fspec
            for path in sorted(DATA.glob("*.json"))]


def _items(p):
    return list(p.terms.items())


def _same(got, want):
    """Equal terms in equal order, over the same context and class."""
    assert type(got) is type(want) and got.ctx == want.ctx
    assert _items(got) == _items(want)


def _random(rng, cls, ctx, terms=6, max_exp=2, positions=None):
    """A random element with small exponents and coefficients (so that
    moved terms meet and cancel), supported on `positions` (default:
    every position of ctx)."""
    nv = len(ctx.names)
    positions = range(nv) if positions is None else positions
    out = {}
    for _ in range(rng.randint(0, terms)):
        e = [0] * nv
        for i in positions:
            e[i] = rng.randint(0, max_exp)
        out[tuple(e)] = Fraction(rng.choice([-2, -1, 1, 2]),
                                 rng.choice([1, 1, 3]))
    return cls(ctx, out)


# ------------------------------------------------------------- the move


def test_moved_by_name_matches_map_context_and_from_poly():
    rng = random.Random(220)
    small = VarContext([("X", ["x", "y"]), ("S", ["s1"])])
    big = VarContext([("S", ["s1", "s2"]), ("X", ["y", "z", "x"])])
    wctx = WeylContext(["x", "y"], ["s1"])
    for _ in range(60):
        p = _random(rng, Poly, small)
        _same(p.moved(big), ref.map_context(p, big))
        _same(p.moved(wctx, WeylOp), ref.from_poly(wctx, p))
        # and back: every used variable has a place in small
        _same(p.moved(big).moved(small), p)


def test_moved_raises_only_for_a_used_variable_with_nowhere_to_go():
    ctx = VarContext([("X", ["x", "y"])])
    to = VarContext([("X", ["x"])])
    assert Poly.var(ctx, "x").moved(to) == Poly.var(to, "x")
    with pytest.raises(UnknownVariable):
        Poly.var(ctx, "y").moved(to)
    with pytest.raises(UnknownVariable):
        Poly.var(ctx, "x").moved(to, where=[None, 0])


def test_moved_adds_exponents_and_coefficients_that_meet():
    ctx = VarContext([("S", ["s1", "s2"])])
    one = VarContext([("S", ["s"])])
    p = Poly(ctx, {(1, 0): Fraction(1), (0, 1): Fraction(-1),
                   (2, 1): Fraction(3), (0, 2): Fraction(1, 2)})
    got = p.moved(one, where=[0, 0])
    assert _items(got) == [((3,), Fraction(3)), ((2,), Fraction(1, 2))]


def test_moved_on_operators_matches_the_s_passages():
    rng = random.Random(221)
    wctx = WeylContext(["x", "y"], ["s1", "s2"])
    svc = VarContext([("S", ["s1", "s2"])])
    xd, s = range(4), range(4, 6)
    for _ in range(60):
        pure_s = _random(rng, WeylOp, wctx, positions=s)
        _same(pure_s.moved(svc, Poly), ref.pure_s_generator(pure_s, svc))
        s_free = _random(rng, WeylOp, wctx, positions=xd)
        _same(s_free.moved(wctx.plain), ref.drop_s_context(s_free))
        P = _random(rng, WeylOp, wctx)
        _same(gr_symbol(P, "(0,1,1)"), ref.gr_symbol(P, "(0,1,1)"))
        _same(gr_symbol(s_free, "(0,1)"), ref.gr_symbol(s_free, "(0,1)"))
    with pytest.raises(UnknownVariable):
        WeylOp.var(wctx, "x").moved(svc, Poly)
    with pytest.raises(weyl.FiltrationMismatch):
        gr_symbol(WeylOp.var(wctx, "s1"), "(0,1)")
    with pytest.raises(weyl.FiltrationMismatch):
        gr_symbol(WeylOp.var(wctx, "s1"), "(1,0)")


def test_derivation_terms_match_the_term_by_term_references():
    rng = random.Random(222)
    wctx = WeylContext(["x", "y"], ["s1", "s2"])
    for _ in range(40):
        coeffs = tuple(_random(rng, Poly, wctx.x_vc) for _ in range(2))
        delta = LogDerivation(coeffs, Poly.zero(wctx.x_vc))
        _same(delta.symbol(wctx), ref.symbol(delta, wctx))
        for name in ("dx", "dy", "s1", "s2"):
            assert list(_times_var(wctx, coeffs[0], name).items()) == \
                list(ref.times_var(wctx, coeffs[0], name).items())


def test_merged_and_diagonal_b_f_match_the_references():
    rng = random.Random(223)
    merged = 0
    for F in _fixtures():
        B = bs_ideal(F, assume_hypotheses=True)
        got, want = diagonal_substitution(B.ideal), ref.diagonal_substitution(
            B.ideal)
        assert [_items(g) for g in got.gens] == [_items(g) for g in want.gens]
        if F.r < 2:
            continue
        G = coarsen_last_two(F)
        ops = F.theta_generators() + [
            _random(rng, WeylOp, F.weyl) for _ in range(20)]
        for P in ops:
            _same(merge_last_s(P, F, G), ref.merge_last_s(P, F, G))
        merged += 1
    assert merged >= 3


def test_pure_s_part_of_b_f_matches_the_double_move():
    for F in _fixtures():
        svc = s_context(F)
        want = [ref.pure_s_generator(g, svc) for g in elimination_basis(F)]
        got = bs_ideal(F, assume_hypotheses=True).ideal.gens
        assert [_items(g) for g in got] == [_items(g) for g in want]
        assert all(g.ctx == svc for g in got)


def test_bs_poly_generator_matches_the_rewrap():
    rng = random.Random(224)
    svc = VarContext([("S", ["s1"])])
    one = VarContext([("S", ["s"])])
    for _ in range(30):
        b = _random(rng, Poly, svc, max_exp=4)
        _same(b.moved(one, where=[0]), ref.bs_poly_generator(b))


def test_phi_f_kernel_graph_moves_match_to_big(monkeypatch):
    # the graph ideal of ker(phi_F), kept as the reference of the
    # saturation, moves Q[x, S] into the graph ring as to_big does
    seen = []
    real = symbol_reference.eliminate

    def spy(I, block):
        seen.append(I)
        return real(I, block)
    monkeypatch.setattr(symbol_reference, "eliminate", spy)
    for F in _fixtures():
        symbol_reference.graph_phi_F_kernel(F)
        big = seen[-1].ctx
        ts = big.blocks[0][1]
        where = [big.index[v] for v in F.x_names + list(ts)]
        S = [Poly.var(F.xs_vc, s) for s in F.s_names]
        # the generators y_i - to_big(img_i), then s_k - to_big(f s_k)
        imgs = []
        for i in range(F.n):
            img = Poly.zero(F.xs_vc)
            for k in range(F.r):
                img = img + F.cofactor_xs[k] * F.dfk_xs[k][i] * S[k]
            imgs.append(img)
        imgs += [F.f_xs * S[k] for k in range(F.r)]
        names = F.weyl.y_names + F.s_names
        want = [Poly.var(big, v) - ref.to_big(img, big, where)
                for v, img in zip(names, imgs)]
        assert [_items(g) for g in seen[-1].gens] == \
            [_items(g) for g in want]


# ------------------------------------------------------- the substitution


def test_subs_matches_the_term_by_term_subs_s():
    rng = random.Random(225)
    wctx = WeylContext(["x"], ["s1", "s2"])
    for _ in range(80):
        P = _random(rng, WeylOp, wctx, terms=8)
        values = {s: Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
                  for s in rng.sample(wctx.s_names, rng.randint(1, 2))}
        _same(P.subs(values), ref.subs_s(P, values))


def test_subs_matches_the_weyl_product_shift(monkeypatch):
    rng = random.Random(226)
    wctx = WeylContext(["x", "y"], ["s1", "s2"])
    cases = []
    for _ in range(40):
        P = _random(rng, WeylOp, wctx, terms=6, max_exp=3)
        amounts = {s: Fraction(rng.randint(-2, 2)) for s in wctx.s_names}
        cases.append((P, amounts, ref.shift_s(P, amounts)))
    calls = []
    real = weyl.weyl_multiply

    def counted(P, Q):
        calls.append(1)
        return real(P, Q)
    monkeypatch.setattr(weyl, "weyl_multiply", counted)
    for P, amounts, want in cases:
        shift = {s: WeylOp.var(wctx, s) + a for s, a in amounts.items()}
        _same(P.subs(shift), want)
    assert not calls


def test_subs_with_polynomial_values_matches_poly_subs():
    rng = random.Random(227)
    ctx = VarContext([("X", ["x", "y", "z"])])
    for _ in range(60):
        q = _random(rng, Poly, ctx, terms=6, max_exp=3)
        values = [_random(rng, Poly, ctx, terms=3), Fraction(-2, 3), 0]
        names = rng.sample(ctx.names, rng.randint(1, 3))
        assignment = {v: rng.choice(values) for v in names}
        _same(q.subs(assignment), ref.poly_subs(q, assignment))


def test_operator_subs_takes_only_central_variables():
    wctx = WeylContext(["x"], ["s1"])
    P = WeylOp.var(wctx, "x") * WeylOp.var(wctx, "s1")
    for bad in ({"x": 1}, {"dx": 2}, {"s1": WeylOp.var(wctx, "dx")},
                {"s1": WeylOp.var(wctx, "x") + 1}):
        with pytest.raises(ValueError):
            P.subs(bad)
    with pytest.raises(ValueError):
        P.subs({"t": 1})
    assert P.subs({"s1": WeylOp.var(wctx, "s1") ** 2}) == \
        WeylOp.var(wctx, "x") * WeylOp.var(wctx, "s1") ** 2


# --------------------------------------------------- the paper's objects


def test_theta_at_a_minus_one_matches_the_references():
    points = [(-1, 0), (1, 1), (0, 0), (Fraction(1, 2), -3)]
    for F in _fixtures():
        for A in points:
            A = (A * F.r)[:F.r]
            got = _specialized_generators(F, A)
            want = ref.specialized_generators(F, A)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _same(g, w)


def test_spencer_dual_lift_matches_the_weyl_product_shift():
    built = 0
    for F in _fixtures():
        try:
            C = spencer_complex(F)
        except (NotFree, NotKoszulFree):
            continue
        built += 1
        w = F.weyl
        f_op = F.f.moved(w, WeylOp)
        shift = {s: WeylOp.var(w, s) + 1 for s in w.s_names}
        ones = {s: Fraction(1) for s in w.s_names}
        want = True
        for M in C.differentials.values():
            for row in M:
                for entry in row:
                    shifted = ref.shift_s(entry, ones)
                    _same(entry.subs(shift), shifted)
                    want = want and shifted * f_op == f_op * entry
        assert dual_lift_check(C) == want
    assert built >= 3


def test_appendix_suite_fibers_and_leads_match_the_references(monkeypatch):
    # the seed-0 appendix suite's random ideals: their t -> 0 and t -> 1
    # fibers, and the leads under the u-refined orders, which now come
    # from gb.Basis.leads without a tail reduction
    fibers, leads = [], []
    real_t, real_lead = liouville.substitute_t, liouville.leading_exponents

    def spy_t(I, value):
        fibers.append((I, value))
        return real_t(I, value)

    def spy_lead(I, order):
        leads.append((I, order))
        return real_lead(I, order)
    monkeypatch.setattr(liouville, "substitute_t", spy_t)
    monkeypatch.setattr(liouville, "leading_exponents", spy_lead)
    rep = liouville.homogenization_property_suite(count=20, seed=0)
    assert rep["all_pass"] and len(fibers) == len(leads) == 40
    for I, value in fibers:
        got, want = real_t(I, value), ref.substitute_t(I, value)
        assert got.ctx == want.ctx
        assert [_items(g) for g in got.gens] == [_items(g) for g in want.gens]
    for I, order in leads:
        assert real_lead(I, order) == ref.leading_exponents(
            IdealHandle(I.gens), order)
