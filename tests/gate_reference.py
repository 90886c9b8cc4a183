"""The hypothesis checks and theta_F builders that logder replaced, kept for
the tests as a reference.

reducedness_check decided squarefreeness by the colon ideal (f) : Jac(f),
as an intersection of one colon per partial derivative (ideal_colon_ideal,
which left gb with it).  Each colon was the tag-variable one that gb
replaced by syzygies: ideal_colon intersects I with (g) by eliminating the
tag w from w*I + (1-w)*(g) (intersect) and divides each generator by g
exactly.  jacobian_ideal_reducedness is the one-basis check that replaced
the colon chain, on a basis of (f) + Jac(f) of its own.
saito_holonomic_check computed every minor and a
Krull dimension for every stratum, the top one included.  operator and
psi_F built a_i d_i and b_k s_k as products in D_n[S], and subs_s, which
nabla runs on every theta_F generator, rebuilt its result once per term.
subs is Poly.subs as it was before it formed each power once, the
substitution of the hyperplane test: it rebuilt every power, and the sum,
once per term.
"""

import itertools
from fractions import Fraction

from fpowers.gb import (
    IdealHandle, ResourceLimit, _with_tag, eliminate, krull_dimension,
)
from fpowers.logder import _det, log_derivations, psi_cofactors, saito_matrix
from fpowers.ring import Poly, UnknownVariable, divide_exact
from fpowers.weyl import WeylOp
from move_reference import from_poly, map_context


def intersect(I, J):
    """I cap J by the single-tag-variable trick: eliminate w from
    w*I + (1-w)*J."""
    ctx = I.ctx
    ctx2, tag = _with_tag(ctx)
    w = Poly.var(ctx2, tag)
    gens = [w * map_context(g, ctx2) for g in I.gens]
    gens += [(Poly.const(ctx2, 1) - w) * map_context(g, ctx2) for g in J.gens]
    E = eliminate(IdealHandle(gens, ctx=ctx2), "_W")
    return IdealHandle([map_context(g, ctx) for g in E.gens], ctx=ctx)


def ideal_colon(I, g):
    """(I : g) = {p : p*g in I}, g nonzero: I cap (g), divided by g."""
    if g.is_zero():
        raise ValueError("colon by zero")
    C = intersect(I, IdealHandle([g], I.order))
    gens = []
    for h in C.gens:
        q = divide_exact(h, g)
        if q is None:
            raise ArithmeticError("intersection element not divisible in colon")
        if not q.is_zero():
            gens.append(q)
    return IdealHandle(gens, ctx=I.ctx)


def ideal_colon_ideal(I, J):
    """(I : J) = intersection of (I : g) over generators g of J."""
    gens = [g for g in J.gens if not g.is_zero()]
    if not gens:
        raise ValueError("colon by zero ideal")
    acc = ideal_colon(I, gens[0])
    for g in gens[1:]:
        acc = intersect(acc, ideal_colon(I, g))
    return acc


def reducedness_check(f):
    """("yes"/"no"/"unknown", reason): f squarefree iff ((f) : Jac(f)) = (f)."""
    jac = [f.diff(x) for x in f.ctx.names]
    jac = [p for p in jac if not p.is_zero()]
    if not jac:
        return ("no", "constant-like input")
    try:
        F = IdealHandle([f])
        C = ideal_colon_ideal(F, IdealHandle(jac))
        if F.contains_ideal(C):
            return ("yes", "(f):Jac(f) = (f)")
        return ("no", "(f):Jac(f) strictly contains (f)")
    except ResourceLimit as e:
        return ("unknown", f"resource limit: {e}")


def jacobian_ideal_reducedness(f):
    """reducedness_check before it read the basis behind Der(-log f): dim
    V(f, Jac f) <= n - 2 from a basis of its own of (f) + Jac(f)."""
    jac = [p for p in (f.diff(x) for x in f.ctx.names) if not p.is_zero()]
    if not jac:
        return ("no", "constant-like input")
    try:
        if krull_dimension(IdealHandle([f] + jac)) <= f.ctx.n - 2:
            return ("yes", "(f):Jac(f) = (f)")
        return ("no", "(f):Jac(f) strictly contains (f)")
    except ResourceLimit as e:
        return ("unknown", f"resource limit: {e}")


def saito_holonomic_check(f, gens=None):
    """dim V_i <= i for every i < n, with V_i the zero set of all
    (i+1)-minors of the Der(-log f) coefficient matrix."""
    n = f.ctx.n
    if gens is None:
        gens = log_derivations(f, "log")
    rows = saito_matrix(gens)
    for i in range(n):
        minors = []
        for rsel in itertools.combinations(range(len(rows)), i + 1):
            for csel in itertools.combinations(range(n), i + 1):
                m = _det([[rows[a][b] for b in csel] for a in rsel])
                if not m.is_zero():
                    minors.append(m)
        if not minors:
            return ("no", f"fiber rank <= {i} on all of affine {n}-space")
        d = krull_dimension(IdealHandle(minors))
        if d > i:
            return ("no", f"rank-<={i} locus of the log-derivation fibers "
                          f"has dimension {d}")
    return ("yes", "every rank-i locus of the log-derivation fibers has "
                   "dimension at most i")


def operator(delta, ctx):
    """delta as sum a_i d_i, each term a product in D_n[S]."""
    out = WeylOp.zero(ctx)
    for a, dname in zip(delta.coeffs, ctx.dx_names):
        out = out + from_poly(ctx, a) * WeylOp.var(ctx, dname)
    return out


def psi_F(delta, fspec):
    """delta - sum_k b_k s_k, each b_k s_k a product in D_n[S]."""
    ctx = fspec.weyl
    out = operator(delta, ctx)
    for b, s in zip(psi_cofactors(delta, fspec), fspec.s_names):
        out = out - from_poly(ctx, b) * WeylOp.var(ctx, s)
    return out


def subs_s(P, values):
    """P with some s-variables evaluated, one addition per term."""
    ctx = P.ctx
    out = WeylOp.zero(ctx)
    idx = {name: ctx.index[name] for name in values}
    for e, c in P.terms.items():
        coef = c
        e2 = list(e)
        for name, v in values.items():
            i = idx[name]
            if e2[i]:
                coef *= Fraction(v) ** e2[i]
                e2[i] = 0
        out = out + WeylOp(ctx, {tuple(e2): coef})
    return out


def subs(p, assignment):
    """Poly.subs, one power of a substituted variable (or of a kept
    variable) built per term and factor."""
    vals = {}
    for v, val in assignment.items():
        if v not in p.ctx.index:
            raise UnknownVariable(v)
        vals[p.ctx.index[v]] = (
            val if isinstance(val, Poly) else Poly.const(p.ctx, val)
        )
    out = Poly.zero(p.ctx)
    for e, c in p.terms.items():
        t = Poly.const(p.ctx, c)
        for i, k in enumerate(e):
            if not k:
                continue
            if i in vals:
                t = t * (vals[i] ** k)
            else:
                t = t * Poly.monomial(p.ctx, p.ctx.var_exp(p.ctx.names[i]), 1) ** k
        out = out + t
    return out
