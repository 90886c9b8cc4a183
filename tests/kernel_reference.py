"""The division kernel over Fraction that the integer kernel replaced, kept
for the tests as a reference.

reduce_in_place is ring.reduce_in_place as it was, dividing a term map of
Fractions in place.  normal_form, vec_reduce, left_normal_form and
divide_exact are the four divisions on it, each with its multiple closure
(c/lc times a divisor, term by term in Fractions).  groebner_basis,
module_gb and weyl_left_gb are the three basis loops on them, forming each
S-element over Q (s_poly; m_i*v_i - m_j*v_j for vectors and operators).
They run on the library's one Buchberger engine (gb.buchberger,
gb.interreduce), so comparing them with the library isolates the kernel
and the S-elements.

value_of turns a ring.Scaled S-element into the element of its value, for
the reference divisions that stand in for a library normal form inside a
library basis loop.
"""

from fpowers import gb
from fpowers.gb import Limits, ResourceLimit
from fpowers.ring import (
    KeyCache, MonomialOrder, Poly, Scaled, exp_add, exp_divides, exp_lcm,
    exp_sub,
)
from fpowers.weyl import LeftBasis, WeylOp, _term_product


class DegreeBoundExceeded(Exception):
    """A reduction step left a term above the degree bound in the work."""


def value_of(p, basis):
    """p itself, or for a ring.Scaled S-element the element of its value,
    of the kind of basis[0]: a Poly, a WeylOp or a vector of Polys."""
    if not isinstance(p, Scaled):
        return p
    like = basis[0]
    terms = {m: p.scale * c for m, c in p.terms.items()}
    if isinstance(like, tuple):
        parts = [{} for _ in like]
        for (pos, e), c in terms.items():
            parts[pos][e] = c
        return tuple(Poly(like[0].ctx, t) for t in parts)
    return type(like)(like.ctx, terms)


def reduce_in_place(work, leads, keys, multiple, rem=None, max_degree=None,
                    divides=exp_divides, degree=sum):
    """Divide the term map `work` (monomial -> nonzero Fraction) in place.

    Each step takes the largest monomial e of work under `keys`, with
    coefficient c, and the first k with divides(leads[k], e).  If there is
    one, the terms (monomial, coefficient) of multiple(k, e, c) -- a
    multiple of divisor k whose leading term is c*e, so e cancels -- are
    subtracted from work one by one; after that step, a term of degree
    above max_degree left anywhere in work raises DegreeBoundExceeded.
    If there is none, the term moves to `rem`, or, with rem None, the
    division stops and returns False.  Returns True once work is empty.
    """
    get = keys.__getitem__
    over = set()
    if max_degree is not None:
        over = {m for m in work if degree(m) > max_degree}
    while work:
        e = max(work, key=get)
        for k, lead in enumerate(leads):
            if divides(lead, e):
                break
        else:
            if rem is None:
                return False
            rem[e] = work.pop(e)
            over.discard(e)
            continue
        for m, c in multiple(k, e, work[e]):
            old = work.get(m)
            if old is None:
                work[m] = -c
                if max_degree is not None and degree(m) > max_degree:
                    over.add(m)
                continue
            c = old - c
            if c:
                work[m] = c
            else:
                del work[m]
                over.discard(m)
        if over:
            raise DegreeBoundExceeded
    return True


def normal_form(p, basis, order, leads=None, keys=None, images=None):
    """gb.normal_form over Fraction; images are ignored."""
    if not basis:
        return p
    p = value_of(p, basis)
    if keys is None:
        keys = KeyCache(order.key)
    if leads is None:
        basis = [g for g in basis if g.terms]
        leads = [max(g.terms, key=keys.__getitem__) for g in basis]

    def multiple(k, e, c):
        g, lead = basis[k].terms, leads[k]
        m, coef = exp_sub(e, lead), c / g[lead]
        return [(exp_add(m, ge), coef * gc) for ge, gc in g.items()]
    work = dict(p.terms)
    rem = {}
    bound = Limits.current().max_degree
    try:
        reduce_in_place(work, leads, keys, multiple, rem, bound)
    except DegreeBoundExceeded:
        raise ResourceLimit(f"total degree {max(map(sum, work))} exceeds "
                            f"bound {bound}") from None
    out = Poly(p.ctx)
    out.terms = rem
    return out


def vec_reduce(v, basis, leads, mo, keys=None, images=None):
    """gb._vec_reduce over Fraction; images are ignored."""
    v = value_of(v, basis)
    keys = KeyCache(mo.key) if keys is None else keys

    def multiple(k, pe, c):
        g, (lp, lead) = basis[k], leads[k]
        m, coef = exp_sub(pe[1], lead), c / g[lp].terms[lead]
        return [((pos, exp_add(m, ge)), coef * gc)
                for pos, p in enumerate(g) for ge, gc in p.terms.items()]
    work = {(pos, e): c for pos, p in enumerate(v) for e, c in p.terms.items()}
    rem = {}
    bound = Limits.current().max_degree
    try:
        reduce_in_place(work, leads, keys, multiple, rem, bound,
                        gb._mod_divides, gb._mod_degree)
    except DegreeBoundExceeded:
        # report the first component above the bound
        degs = [-1] * len(v)
        for pos, e in work:
            degs[pos] = max(degs[pos], sum(e))
        deg = next(d for d in degs if d > bound)
        raise ResourceLimit(f"total degree {deg} exceeds bound "
                            f"{bound}") from None
    ctx = v[0].ctx
    parts = [Poly(ctx) for _ in v]
    for (pos, e), c in rem.items():
        parts[pos].terms[e] = c
    return tuple(parts)


def left_normal_form(P, basis, order, leads=None, keys=None, steps=None,
                     images=None):
    """weyl.left_normal_form over Fraction; images are ignored."""
    P = value_of(P, basis)
    ctx = P.ctx
    if keys is None:
        keys = KeyCache(order.key)
    if leads is None:
        basis = [g for g in basis if g.terms]
        leads = [max(g.terms, key=keys.__getitem__) for g in basis]

    def multiple(k, e, c):
        # x^a d^b s^w * g, normal-ordered term by term
        g, lead = basis[k].terms, leads[k]
        m, coef = exp_sub(e, lead), c / g[lead]
        if steps is not None:
            steps.append((k, m, coef))
        return [t for ge, gc in g.items()
                for t in _term_product(ctx, m, coef, ge, gc).items()]
    work = dict(P.terms)
    rem = {}
    bound = Limits.current().max_degree
    try:
        reduce_in_place(work, leads, keys, multiple, rem, bound)
    except DegreeBoundExceeded:
        raise ResourceLimit(f"total degree {max(map(sum, work))} exceeds "
                            f"bound {bound}") from None
    out = WeylOp(ctx)
    out.terms = rem
    return out


def divide_exact(p, q):
    """ring.divide_exact over Fraction."""
    if q.is_zero():
        return None
    if p.is_zero():
        return Poly.zero(p.ctx)
    keys = KeyCache(MonomialOrder.grevlex().key)
    lq = max(q.terms, key=keys.__getitem__)
    cq = q.terms[lq]
    quo = {}

    def multiple(_k, e, c):
        m, coef = exp_sub(e, lq), c / cq
        quo[m] = coef
        return [(exp_add(m, e2), coef * c2) for e2, c2 in q.terms.items()]
    if not reduce_in_place(dict(p.terms), (lq,), keys, multiple):
        return None
    out = Poly(p.ctx)
    out.terms = quo
    return out


# ---------------------------------------------------------------------------
# the S-elements over Q and the basis loops on the reference divisions


def s_poly(f, g, order, lf=None, lg=None):
    """S-polynomial of f and g; lf and lg are their leading exponents
    when the caller already knows them."""
    lf = f.leading_exp(order) if lf is None else lf
    lg = g.leading_exp(order) if lg is None else lg
    mf, mg = gb.s_pair_multipliers(f, lf, g, lg, exp_lcm(lf, lg))
    return mf * f - mg * g


def vec_sub(v, w):
    return tuple(a - b for a, b in zip(v, w))


def vec_scale(v, p):
    return tuple(p * a for a in v)


def groebner_basis(gens, order):
    """gb.groebner_basis on s_poly and the reference normal_form."""
    limits = Limits.current()
    G = []
    for g in gens:
        if not g.is_zero():
            limits.check_poly(g)
            G.append(g)
    if not G:
        return []

    keys = KeyCache(order.key)
    leading = keys.__getitem__
    lead = [max(g.terms, key=leading) for g in G]

    def step(i, j, l):
        s = s_poly(G[i], G[j], order, lead[i], lead[j])
        limits.check_poly(s)
        r = normal_form(s, G, order, leads=lead, keys=keys)
        if r.is_zero():
            return None
        limits.check_poly(r)
        G.append(r)
        lead.append(max(r.terms, key=leading))
        return lead[-1], 0
    gb.buchberger(order.key, [(e, 0) for e in lead], step,
                  coprime_criterion=True)

    def divide(i, rest):
        if not rest:
            return G[i]
        return normal_form(G[i], [G[k] for k in rest], order,
                           leads=[lead[k] for k in rest], keys=keys)
    return [g for _, _, g in gb.interreduce(G, lead, keys, divide)]


def module_gb(vectors, mo):
    """gb._module_gb on vec_sub, vec_scale and the reference vec_reduce:
    the unreduced basis, in creation order."""
    G = [v for v in vectors if not gb._vec_is_zero(v)]
    if not G:
        return []
    keys = KeyCache(mo.key)
    leads = [gb._vec_lead(v, mo, keys) for v in G]

    def step(i, j, l):
        pos = leads[i][0]
        mi, mj = gb.s_pair_multipliers(G[i][pos], leads[i][1],
                                       G[j][pos], leads[j][1], l)
        s = vec_sub(vec_scale(G[i], mi), vec_scale(G[j], mj))
        r = vec_reduce(s, G, leads, mo, keys=keys)
        if gb._vec_is_zero(r):
            return None
        G.append(r)
        leads.append(gb._vec_lead(r, mo, keys))
        return leads[-1][1], leads[-1][0]
    gb.buchberger(mo.base.key, [(e, pos) for pos, e in leads], step,
                  coprime_criterion=False)
    return G


def weyl_left_gb(gens, order):
    """weyl.weyl_left_gb on the products m_i*g_i - m_j*g_j and the
    reference left_normal_form, with the same LeftBasis log."""
    gens = list(gens)
    G, origin, steps = [], [], []
    for i, g in enumerate(gens):
        if not g.is_zero():
            G.append(g)
            origin.append(i)
            steps.append([])
    if not G:
        return LeftBasis([], gens, origin, steps, [])

    limits = Limits.current()
    keys = KeyCache(order.key)
    leading = keys.__getitem__
    lead = [max(g.terms, key=leading) for g in G]

    def step(i, j, l):
        mi, mj = gb.s_pair_multipliers(G[i], lead[i], G[j], lead[j], l)
        s = mi * G[i] - mj * G[j]
        log = []
        r = left_normal_form(s, G, order, leads=lead, keys=keys, steps=log)
        if r.is_zero():
            return None
        limits.check_poly(r)
        G.append(r)
        origin.append((i, j, mi, mj))
        steps.append(log)
        lead.append(max(r.terms, key=leading))
        return lead[-1], 0
    gb.buchberger(order.key, [(e, 0) for e in lead], step,
                  coprime_criterion=False)
    tails = {}

    def divide(i, rest):
        tail = []
        r = left_normal_form(G[i], [G[k] for k in rest], order,
                             leads=[lead[k] for k in rest], keys=keys,
                             steps=tail)
        tails[i] = [(rest[k], m, c) for k, m, c in tail]
        return r
    out = gb.interreduce(G, lead, keys, divide)
    return LeftBasis([g for _, _, g in out], gens, origin, steps,
                     [(i, c, tails[i]) for i, c, _ in out])
