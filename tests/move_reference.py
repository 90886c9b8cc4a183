"""The hand-written passages between contexts that TermMap.moved and
TermMap.subs replaced, kept for the tests as references.

Each re-indexed exponents for one pair of contexts with its own layout
arithmetic: Poly.map_context and WeylOp.from_poly by name,
WeylOp.s_polynomial_part and drop_s_context by slicing the x/d/s layout,
weyl.gr_symbol by copying terms one monomial at a time into the symbol
ring, logder._times_var and LogDerivation.symbol term by term,
bside.merge_last_s, bside.diagonal_substitution, liouville's to_big
(inside the graph-ideal phi_F_kernel, now
symbol_reference.graph_phi_F_kernel) and liouville.substitute_t position
by position,
and the bs-poly report by rewrapping the term map.  WeylOp.subs_s
evaluated s-variables term by term (tests/gate_reference.py keeps the
older, rebuilding subs_s), WeylOp.shift_s substituted s -> s + a with
Weyl products, and Poly.subs, which TermMap.subs lifted, formed its
powers with Poly products.  leading_exponents pruned the leads of a
tail-reduced basis that gb.Basis.leads already holds minimal.
"""

from fractions import Fraction
from typing import Dict, Tuple

from fpowers.gb import IdealHandle, groebner_basis
from fpowers.ring import (
    Poly, UnknownVariable, VarContext, add_product, add_terms, exp_add,
)
from fpowers.weyl import FiltrationMismatch, WeylOp


def map_context(p, ctx2):
    """Poly.map_context: p reinterpreted in another context containing
    the same-named variables."""
    out: Dict = {}
    for e, c in p.terms.items():
        e2 = [0] * ctx2.n
        for i, k in enumerate(e):
            if k:
                name = p.ctx.names[i]
                if name not in ctx2.index:
                    raise UnknownVariable(name)
                e2[ctx2.index[name]] = k
        out[tuple(e2)] = out.get(tuple(e2), Fraction(0)) + c
    q = Poly(ctx2)
    q.terms = {e: c for e, c in out.items() if c}
    return q


def from_poly(ctx, p):
    """WeylOp.from_poly: a polynomial in the x (or x, s) variables as an
    operator over ctx."""
    out: Dict = {}
    for e, c in p.terms.items():
        e2 = [0] * ctx.nv
        for i, k in enumerate(e):
            if k:
                e2[ctx.index[p.ctx.names[i]]] = k
        out[tuple(e2)] = c
    return WeylOp(ctx, out)


def s_polynomial_part(P):
    """WeylOp.s_polynomial_part: an operator with no x, d content as a
    Poly over a context of its s-variables (block S)."""
    n = P.ctx.n
    if not all(not any(e[:2 * n]) for e in P.terms):
        raise ValueError("operator involves x or d variables")
    ctx = VarContext([("S", P.ctx.s_names)])
    return Poly(ctx, {e[2 * n:]: c for e, c in P.terms.items()})


def pure_s_generator(P, svc):
    """The double move of bside.bs_ideal: s_polynomial_part, then
    map_context into the spec's s-context."""
    return map_context(s_polynomial_part(P), svc)


def drop_s_context(P):
    """WeylOp.drop_s_context: an s-free operator in plain D_n."""
    n = P.ctx.n
    if not all(not any(e[2 * n:]) for e in P.terms):
        raise ValueError("operator still involves s")
    return WeylOp(P.ctx.plain, {e[:2 * n]: c for e, c in P.terms.items()})


def subs_s(P, values):
    """WeylOp.subs_s: some s-variables evaluated at rational constants."""
    ctx = P.ctx
    out = WeylOp(ctx)
    idx = {name: ctx.index[name] for name in values}
    for e, c in P.terms.items():
        coef = c
        e2 = list(e)
        for name, v in values.items():
            i = idx[name]
            if e2[i]:
                coef *= Fraction(v) ** e2[i]
                e2[i] = 0
        if coef:
            add_terms(out.terms, [(tuple(e2), coef)])
    return out


def poly_subs(p, assignment):
    """Poly.subs, which TermMap.subs lifted: each power of a value formed
    once, by Poly products."""
    vals = {}
    for v, val in assignment.items():
        if v not in p.ctx.index:
            raise UnknownVariable(v)
        vals[p.ctx.index[v]] = (
            val if isinstance(val, Poly) else Poly.const(p.ctx, val))
    powers: Dict = {}
    out = Poly(p.ctx)
    for e, c in p.terms.items():
        t = {tuple(0 if i in vals else k for i, k in enumerate(e)): c}
        for i, k in enumerate(e):
            if k and i in vals:
                if (i, k) not in powers:
                    powers[i, k] = (vals[i] ** k).terms
                t = add_product({}, t, powers[i, k])
        add_terms(out.terms, t.items())
    return out


def shift_s(P, amounts):
    """WeylOp.shift_s: s -> s + amount for the named s-variables, each
    power of s + amount a Weyl product."""
    ctx = P.ctx
    n = ctx.n
    out = WeylOp.zero(ctx)
    for e, c in P.terms.items():
        term = WeylOp(ctx, {e[:2 * n] + (0,) * ctx.r: c})
        for j, name in enumerate(ctx.s_names):
            k = e[2 * n + j]
            if not k:
                continue
            base = WeylOp.var(ctx, name) + Fraction(amounts.get(name, 0))
            term = term * base ** k
        out = out + term
    return out


def specialized_generators(fspec, A):
    """nabla._specialized_generators through subs_s, drop_s_context and
    from_poly: theta_F at S = A - 1, then f, in plain D_n."""
    shift = {name: Fraction(a) - 1 for name, a in zip(fspec.weyl.s_names, A)}
    gens = [drop_s_context(subs_s(t, shift))
            for t in fspec.theta_generators()]
    gens.append(from_poly(fspec.weyl.plain, fspec.f))
    return gens


def gr_symbol(P, filtration):
    """weyl.gr_symbol, one monomial added to the symbol at a time."""
    ctx = P.ctx
    if filtration == "(0,1)":
        if not P.s_free():
            raise FiltrationMismatch("(0,1) filtration needs an s-free "
                                     "operator")
        wts = (0,) * ctx.n + (1,) * ctx.n + (0,) * ctx.r
    elif filtration == "(0,1,1)":
        wts = (0,) * ctx.n + (1,) * ctx.n + (1,) * ctx.r
    else:
        raise FiltrationMismatch(f"unknown filtration {filtration!r}")
    if not P.terms:
        return Poly.zero(ctx.symbol_vc)
    top = max(sum(w * x for w, x in zip(wts, e)) for e in P.terms)
    out = Poly.zero(ctx.symbol_vc)
    for e, c in P.terms.items():
        if sum(w * x for w, x in zip(wts, e)) == top:
            out = out + Poly.monomial(ctx.symbol_vc, e, c)
    return out


def times_var(ctx, p, name):
    """logder._times_var: the terms of p * v, v a d_i or an s_k."""
    v = ctx.var_exp(name)
    return {exp_add(e, v): c for e, c in from_poly(ctx, p).terms.items()}


def symbol(delta, ctx):
    """LogDerivation.symbol: sum a_i y_i over ctx.symbol_vc, by products."""
    vc = ctx.symbol_vc
    out = Poly.zero(vc)
    for a, y in zip(delta.coeffs, ctx.y_names):
        out = out + map_context(a, vc) * Poly.var(vc, y)
    return out


def merge_last_s(P, src, dst):
    """bside.merge_last_s: s_{r-1}, s_r of src both onto the last
    s-variable of dst."""
    wsrc, wdst = src.weyl, dst.weyl
    n, r = src.n, src.r
    out: Dict[Tuple[int, ...], Fraction] = {}
    for e, c in P.terms.items():
        ee = [0] * wdst.nv
        for i in range(2 * n):
            ee[i] = e[i]
        for k in range(r - 2):
            ee[wdst.vc.index[dst.s_names[k]]] = e[wsrc.vc.index[src.s_names[k]]]
        merged = e[wsrc.vc.index[src.s_names[r - 2]]] \
            + e[wsrc.vc.index[src.s_names[r - 1]]]
        ee[wdst.vc.index[dst.s_names[-1]]] += merged
        key = tuple(ee)
        out[key] = out.get(key, Fraction(0)) + c
    return WeylOp(wdst, {e: c for e, c in out.items() if c != 0})


def diagonal_substitution(I):
    """bside.diagonal_substitution: the image under s_k -> s."""
    one = VarContext([("S", ["s"])])
    gens = []
    for g in I.gens:
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in g.terms.items():
            ee = (sum(e),)
            terms[ee] = terms.get(ee, Fraction(0)) + c
        q = Poly(one, {e: c for e, c in terms.items() if c != 0})
        if not q.is_zero():
            gens.append(q)
    return IdealHandle(gens, ctx=one)


def to_big(p, big, where):
    """to_big of symbol_reference.graph_phi_F_kernel: Q[x, S] into the
    graph ring, source position i onto position where[i]."""
    out = {}
    for e, c in p.terms.items():
        ee = [0] * big.n
        for i, k in zip(where, e):
            ee[i] = k
        out[tuple(ee)] = c
    return Poly(big, out)


def substitute_t(I, value):
    """liouville.substitute_t: the image under t -> value."""
    ctx_t = I.ctx
    base = VarContext([(b, vs) for b, vs in ctx_t.blocks if b != "T"])
    t_idx = ctx_t.index["t"]
    gens = []
    for g in I.gens:
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in g.terms.items():
            coeff = c * Fraction(value) ** e[t_idx]
            if coeff == 0:
                continue
            ee = tuple(v for i, v in enumerate(e) if i != t_idx)
            terms[ee] = terms.get(ee, Fraction(0)) + coeff
        p = Poly(base, {e: c for e, c in terms.items() if c != 0})
        if not p.is_zero():
            gens.append(p)
    return IdealHandle(gens, ctx=base)


def bs_poly_generator(b):
    """The bs-poly report's rewrap of B_F's generator in the variable s."""
    return Poly(VarContext([("S", ["s"])]), dict(b.terms))


def leading_exponents(I, order):
    """liouville.leading_exponents: the leads of the reduced basis,
    pruned to the minimal ones."""
    if I.is_zero_ideal():
        return []
    gb = groebner_basis(I.gens, order)
    exps = [max(g.terms, key=order.key) for g in gb]
    out = []
    for e in exps:
        if not any(all(a >= b for a, b in zip(e, o)) and e != o
                   for o in exps if o != e):
            out.append(e)
    return sorted(set(out))
