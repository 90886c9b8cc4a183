"""Reference left-basis loops that the library replaced, kept for the tests.

_old_left_normal_form is the left division before the in-place kernel,
with its cofactor rows; _old_weyl_left_gb and _old_reduce_left_basis are
the left basis loop (now on the sugar PairQueue) and minimalization before
the one Buchberger engine, with the cofactor tracking (track=True) that
every certificate and witness used before cofactors came from the basis
log.  reference_cofactors is how a certificate was made with them: a
tracked basis, then a tracked division.  left_interreduction is the interreduction that weyl_left_gb runs on its
basis (gb.interreduce on weyl.left_normal_form), on a plain list.
"""

from fractions import Fraction

from fpowers import gb, weyl
from fpowers.ring import exp_divides, exp_sub
from fpowers.weyl import LeftBasis, WeylOp, weyl_multiply
from kernel_reference import elements_of, value_of


def _old_left_normal_form(P, basis, order, limits=None,
                          cofactors=None, basis_cofactors=None, steps=None):
    """Re-keys every basis lead per call, rescans the working operator for
    its lead and copies it on every step; a ring.Divisors basis is read as
    its elements, and an integer S-element at its value.
    Given `steps`, it appends each step's (k, m, c) as the kernel does, so
    it can stand in for weyl.left_normal_form; without `limits` it checks
    the bound in effect, as the library does."""
    from fpowers.gb import ResourceLimit
    P = value_of(P, basis)
    basis = elements_of(basis)
    if limits is None:
        limits = gb.Limits.current()
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
            if steps is not None:
                steps.append((hit, m, coef))
            if cofactors is not None and basis_cofactors is not None:
                mono = WeylOp(ctx, {m: coef})
                for idx, cof in enumerate(basis_cofactors[hit]):
                    if not cof.is_zero():
                        cofactors[idx] = cofactors[idx] + mono * cof
    return rem


def _old_left_mono_mul(ctx, m, c, P):
    return weyl_multiply(WeylOp(ctx, {m: c}), P)


def _old_weyl_left_gb(gens, order, limits=gb.DEFAULT_LIMITS, track=False):
    """Reduced left basis by its own pair loop and its own bound checks.
    With track=True returns (basis, cofactors), where
    basis[i] = sum_j cofactors[i][j] * gens[j]."""
    from fpowers.gb import PairQueue, ResourceLimit
    from fpowers.ring import KeyCache
    left_normal_form = _old_left_normal_form
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
    queue = PairQueue(order.key, order.graded)
    for g in G:
        queue.add(max(g.terms, key=leading), 0, g.total_degree())
    lead = queue.lead
    while queue:
        i, j, l, sugar = queue.pop()
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
                                 basis_cofactors=C)
        else:
            r = left_normal_form(s, G, order, limits)
        if r.is_zero():
            continue
        if r.total_degree() > limits.max_degree:
            raise ResourceLimit("degree bound exceeded in left basis")
        G.append(r)
        if track:
            C.append([-a for a in negcof])
        if len(G) > limits.max_basis:
            raise ResourceLimit("basis size bound exceeded")
        queue.add(max(r.terms, key=leading), 0, sugar)

    return _old_reduce_left_basis(G, C, order, limits, lead, keys)


def _old_reduce_left_basis(G, C, order, limits, leads=None, keys=None):
    """Minimal, tail-reduced, monic basis by its own minimalization; with
    cofactor rows C (None when untracked) returns (basis, rows)."""
    from fpowers.ring import KeyCache
    left_normal_form = _old_left_normal_form
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
        rest_g = [G[k] for k in rest]
        if C is None:
            r = left_normal_form(G[i], rest_g, order, limits)
        else:
            delta = [WeylOp.zero(G[i].ctx) for _ in C[i]]
            r = left_normal_form(G[i], rest_g, order, limits,
                                 cofactors=delta,
                                 basis_cofactors=[C[k] for k in rest])
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


def left_interreduction(G, log, order):
    """What weyl_left_gb does with its basis, on the plain list G of
    nonzero operators: gb.interreduce with weyl.left_normal_form tail
    reductions, as a LeftBasis with the log (gens, origin, steps) of G."""
    divisors = weyl._left_divisors(G[0].ctx, G, order)
    tails = {}

    def divide(i, rest):
        tail = []
        r = weyl.left_normal_form(G[i], divisors.subset(rest), order,
                                  steps=tail)
        tails[i] = [(rest[k], m, c) for k, m, c in tail]
        return r
    out = gb.interreduce(divisors, divide)
    return LeftBasis([g for _, _, g in out], *log,
                     [(i, c, tails[i]) for i, c, _ in out])


def reference_cofactors(P, gens, order, limits=gb.DEFAULT_LIMITS):
    """(remainder, row) of P by the tracked reference basis of gens: when
    the remainder is 0, P = sum_j row[j] * gens[j]."""
    G, C = _old_weyl_left_gb(gens, order, limits, track=True)
    row = [WeylOp.zero(P.ctx) for _ in gens]
    rem = _old_left_normal_form(P, G, order, limits, cofactors=row,
                                basis_cofactors=C)
    return rem, row


def basis_rows(G):
    """The row of every element of a weyl.LeftBasis over its generators,
    rebuilt from its log: G[t] is the one multiple 1 * G[t]."""
    if not G:
        return []
    zero = G[0].ctx.zero_exp()
    return [G.cofactors([(t, zero, Fraction(1))]) for t in range(len(G))]


def combination(row, gens):
    """sum_j row[j] * gens[j]."""
    total = WeylOp.zero(gens[0].ctx)
    for c, g in zip(row, gens):
        total = total + c * g
    return total
