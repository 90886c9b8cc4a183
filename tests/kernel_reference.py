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

Like the library divisions, each reference division takes a list of
elements or a basis computation's ring.Divisors.  value_of turns a
ring.Scaled S-element into the element of its value and elements_of a
ring.Divisors into its elements, so that a reference division can also
stand in for a library normal form inside a library basis loop.
"""

from fpowers import gb, weyl
from fpowers.gb import Limits, ResourceLimit
from fpowers.ring import (
    Divisors, KeyCache, MonomialOrder, Poly, Scaled, exp_add, exp_divides,
    exp_lcm, exp_sub,
)
from fpowers.weyl import LeftBasis, WeylContext, WeylOp, _term_product


class DegreeBoundExceeded(Exception):
    """A reduction step left a term above the degree bound in the work."""


def _element(ctx, terms):
    """The element with term map `terms` over ctx: a Poly, a WeylOp, or a
    vector of Polys over the tuple of its components' contexts."""
    if isinstance(ctx, tuple):
        parts = [{} for _ in ctx]
        for (pos, e), c in terms.items():
            parts[pos][e] = c
        return tuple(Poly(c, t) for c, t in zip(ctx, parts))
    return (WeylOp if isinstance(ctx, WeylContext) else Poly)(ctx, terms)


def value_of(p, divisors):
    """p itself, or for a ring.Scaled S-element of a basis computation the
    element of its value, over the context of its divisors."""
    if not isinstance(p, Scaled):
        return p
    return _element(divisors.ctx, {m: p.scale * c for m, c in p.terms.items()})


def elements_of(basis):
    """basis itself, or the elements g_k = tau_k * image_k of a
    ring.Divisors, term for term in the order of the originals."""
    if not isinstance(basis, Divisors):
        return basis
    return [_element(basis.ctx, {m: tau * c for m, c in image.items()})
            for image, tau in basis.images]


def _divisors(basis, key, terms):
    """(elements, leads, keys) of a ring.Divisors, or of the nonzero
    elements of a list keyed afresh; terms(g) is an element's term map."""
    if isinstance(basis, Divisors):
        return elements_of(basis), basis.leads, basis.keys
    keys = KeyCache(key)
    basis = [g for g in basis if terms(g)]
    return basis, [max(terms(g), key=keys.__getitem__) for g in basis], keys


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


def normal_form(p, basis, order):
    """gb.normal_form over Fraction."""
    if not basis:
        return p
    p = value_of(p, basis)
    basis, leads, keys = _divisors(basis, order.key, lambda g: g.terms)

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


def vec_reduce(v, basis, mo):
    """gb._vec_reduce over Fraction."""
    v = value_of(v, basis)
    basis, leads, keys = _divisors(basis, mo.key, gb._vec_terms)

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


def left_normal_form(P, basis, order, steps=None):
    """weyl.left_normal_form over Fraction."""
    P = value_of(P, basis)
    ctx = P.ctx
    basis, leads, keys = _divisors(basis, order.key, lambda g: g.terms)

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

    divisors = Divisors.of(G[0].ctx, G, order.key)
    lead = divisors.leads

    def step(i, j, l):
        s = s_poly(G[i], G[j], order, lead[i], lead[j])
        limits.check_poly(s)
        r = normal_form(s, divisors, order)
        if r.is_zero():
            return None
        limits.check_poly(r)
        G.append(r)
        return divisors.add(r.terms), 0
    gb.buchberger(order, [(e, 0, g.total_degree()) for e, g in zip(lead, G)],
                  step, coprime_criterion=True)

    def divide(i, rest):
        if not rest:
            return G[i]
        return normal_form(G[i], divisors.subset(rest), order)
    return [g for _, _, g in gb.interreduce(divisors, divide)]


def module_gb(vectors, mo):
    """gb._module_gb on vec_sub, vec_scale and the reference vec_reduce:
    the unreduced basis, in creation order."""
    G = [v for v in vectors if not gb._vec_is_zero(v)]
    if not G:
        return []
    divisors = gb._vec_divisors(gb._vec_ctx(G[0]), G, mo)
    leads = divisors.leads

    def step(i, j, l):
        pos = leads[i][0]
        mi, mj = gb.s_pair_multipliers(G[i][pos], leads[i][1],
                                       G[j][pos], leads[j][1], l)
        s = vec_sub(vec_scale(G[i], mi), vec_scale(G[j], mj))
        r = vec_reduce(s, divisors, mo)
        if gb._vec_is_zero(r):
            return None
        G.append(r)
        pos, e = divisors.add(gb._vec_terms(r))
        return e, pos
    gb.buchberger(mo, [(e, pos, max(p.total_degree() for p in v))
                       for (pos, e), v in zip(leads, G)], step,
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
    divisors = weyl._left_divisors(G[0].ctx, G, order)
    lead = divisors.leads

    def step(i, j, l):
        mi, mj = gb.s_pair_multipliers(G[i], lead[i], G[j], lead[j], l)
        s = mi * G[i] - mj * G[j]
        log = []
        r = left_normal_form(s, divisors, order, steps=log)
        if r.is_zero():
            return None
        limits.check_poly(r)
        G.append(r)
        origin.append((i, j, mi, mj))
        steps.append(log)
        return divisors.add(r.terms), 0
    gb.buchberger(order, [(e, 0, g.total_degree()) for e, g in zip(lead, G)],
                  step, coprime_criterion=False)
    tails = {}

    def divide(i, rest):
        tail = []
        r = left_normal_form(G[i], divisors.subset(rest), order, steps=tail)
        tails[i] = [(rest[k], m, c) for k, m, c in tail]
        return r
    out = gb.interreduce(divisors, divide)
    return LeftBasis([g for _, _, g in out], gens, origin, steps,
                     [(i, c, tails[i]) for i, c, _ in out])
