"""Reference left-basis loops that the library replaced, kept for the tests.

_old_left_normal_form is the left division before the in-place kernel,
with its cofactor rows; _old_weyl_left_gb and _old_reduce_left_basis are
the left basis loop (on the sugar queue of engine_reference) and minimalization before
the one Buchberger engine, with the cofactor tracking (track=True) that
every certificate and witness used before cofactors came from the basis
log.  reference_cofactors is how a certificate was made with them: a
tracked basis, then a tracked division; normal_form_surjectivity how
nabla decided and certified surjectivity before it read the unit off its
basis.  left_interreduction is the interreduction that weyl_left_gb runs on its
basis (a weyl.LeftBasis on weyl.left_normal_form), on a plain list.

fraction_cofactors is LeftBasis.cofactors before it ran on integer
operators: every product a Fraction weyl_multiply, and every entry of the
row multiplied out whether it is read or not.

per_term_left_multiple is weyl._left_multiple before each computation
kept its multiples d^c * image: every call normal-orders the image terms
it needs again; per_term_divisors builds ring.Divisors on it.

grouped_apply_to_FS, _apply_partial and _log_numerator are the F^S action
before it ran on integer images: grouped by derivative pattern as now,
but every product and division over Fraction polynomials.
"""

from fractions import Fraction
from functools import partial

from fpowers import gb, weyl
from fpowers.ring import Divisors, exp_add, exp_divides, exp_sub
from fpowers.ring import Poly, add_terms
from fpowers.weyl import FSElement, LeftBasis, WeylOp, weyl_multiply
from kernel_reference import elements_of, value_of


def _old_left_normal_form(P, basis, order, limits=None,
                          cofactors=None, basis_cofactors=None, steps=None):
    """Re-keys every basis lead per call, rescans the working operator for
    its lead and copies it on every step; a ring.Divisors basis is read as
    its elements, and an integer S-element at its value.
    Given `steps`, it appends each step's (k, m, p, q) as the kernel does
    (p/q the Fraction it divides by, in lowest terms), so it can stand in
    for weyl.left_normal_form; without `limits` it checks the bound in
    effect, as the library does."""
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
                steps.append((hit, m, coef.numerator, coef.denominator))
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
    from engine_reference import PairQueue
    from fpowers.gb import ResourceLimit
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
    nonzero operators: a LeftBasis with weyl.left_normal_form tail
    reductions and the log (gens, origin, steps) of G."""
    divisors = weyl._left_divisors(G[0].ctx, G, order)

    def reduce(i, rest):
        tail = []
        r = weyl.left_normal_form(G[i], divisors.subset(rest), order,
                                  steps=tail)
        return r, [(rest[k], *step) for k, *step in tail]
    return LeftBasis(G, divisors, reduce, *log)


def normal_form_surjectivity(gens, order):
    """nabla_surjective's test before it read the leads of its basis: 1
    divided by the whole reduced left basis of gens; onto when the
    remainder is 0, with the cofactors of that division as the
    certificate."""
    G = weyl.weyl_left_gb(gens, order)
    steps = []
    one = WeylOp.const(gens[-1].ctx, Fraction(1))
    if not weyl.left_normal_form(one, G, order, steps=steps).is_zero():
        return False, None
    return True, G.cofactors(steps)


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
    return [G.cofactors([(t, zero, 1, 1)]) for t in range(len(G))]


def fraction_cofactors(G, steps):
    """LeftBasis.cofactors as it was: the row q with sum_j q[j] * gens[j]
    equal to the sum of the multiples c*x^m * G[k] that `steps` record,
    all in Fraction operators, every entry multiplied out.  G is a
    weyl.LeftBasis or an engine_reference.ReducedLeftBasis; its log is
    read in either form (an S-pair origin (i, j, l) or (i, j, m_i, m_j),
    a step (k, m, p, q) or (k, m, c)).

    The multiples on one element are summed into one operator first; then
    the computed elements are expanded once each, latest first, into the
    earlier ones they were made of."""
    ctx = G.gens[0].ctx
    coef = {}

    def add(k, q):
        coef[k] = coef[k] + q if k in coef else q
    for t, q in _fraction_grouped(ctx, steps).items():
        _, i, scale, tail = G.entry(t)
        q = q * scale
        add(i, q)
        for k, qk in _fraction_grouped(ctx, tail).items():
            add(k, -(q * qk))
    row = [WeylOp.zero(ctx) for _ in G.gens]
    for r in range(max(coef, default=-1), -1, -1):
        a = coef.pop(r, None)
        if a is None or a.is_zero():
            continue
        if isinstance(G.origin[r], int):
            row[G.origin[r]] = a
            continue
        i, j, *m = G.origin[r]
        if len(m) == 1:
            m = [WeylOp.monomial(ctx, exp_sub(m[0], G.lead[k]),
                                 Fraction(1) / G.lc[k]) for k in (i, j)]
        add(i, a * m[0])
        add(j, -(a * m[1]))
        for k, qk in _fraction_grouped(ctx, G.steps[r]).items():
            add(k, -(a * qk))
    return row


def _fraction_grouped(ctx, steps):
    """The steps as one operator sum c*x^m per element k."""
    out = {}
    for k, m, *c in steps:
        q = out.get(k)
        if q is None:
            q = out[k] = WeylOp(ctx)
        add_terms(q.terms, ((m, Fraction(*c)),))
    return out


def combination(row, gens):
    """sum_j row[j] * gens[j]."""
    total = WeylOp.zero(gens[0].ctx)
    for c, g in zip(row, gens):
        total = total + c * g
    return total


# ---------------------------------------------------------------------------
# left multiples formed per call


def per_term_left_multiple(ctx, e, lead, image, b):
    """ring.Divisors.multiple for left division, given its context by
    functools.partial: the terms of b*x^(e - lead) * image, normal-ordered
    term by term (a monomial may come more than once).  Only an image term
    with an x where the multiplier has a d needs _term_product; every
    other term is the plain exponent sum, as in ring.poly_multiple."""
    m = exp_sub(e, lead)
    n = ctx.n
    meets = [i for i in range(n) if m[n + i]]
    if not meets:
        return [(exp_add(m, ge), b * gc) for ge, gc in image.items()]
    out = []
    for ge, gc in image.items():
        if any(ge[i] for i in meets):
            out.extend(weyl._term_product(ctx, m, b, ge, gc).items())
        else:
            out.append((exp_add(m, ge), b * gc))
    return out


def per_term_divisors(ctx, basis, order):
    """weyl._left_divisors on per_term_left_multiple."""
    return Divisors.of(ctx, basis, order.key,
                       partial(per_term_left_multiple, ctx))


# ---------------------------------------------------------------------------
# the grouped F^S action over Fraction polynomials


def grouped_apply_to_FS(P, fspec, start=None):
    """P . start (F^S by default) as sum_b p_b(x, S) d^b: each d^b . start
    made once, by _apply_partial from the memoized d^(b - e_i) . start (i
    the last index with b_i > 0), each L_i once per call, and
    sum_b p_b num_b over the one denominator f^J (Horner in f over the pole
    orders), reduced once to the canonical FSElement."""
    n = P.ctx.n
    xs = fspec.xs_vc
    if start is None:
        start = FSElement(fspec, Poly.const(xs, 1), 0)
    patterns = {}
    for e, c in P.terms.items():
        patterns.setdefault(e[n:2 * n], {})[e[:n] + e[2 * n:]] = c
    derived = {(0,) * n: start}
    logs = {}

    def derivative(b):
        elt = derived.get(b)
        if elt is None:
            i = max(k for k in range(n) if b[k])
            if i not in logs:
                logs[i] = _log_numerator(i, fspec)
            prev = derivative(b[:i] + (b[i] - 1,) + b[i + 1:])
            elt = derived[b] = _apply_partial(i, prev, fspec, logs[i])
        return elt

    by_pole = {}
    for b, pb in patterns.items():
        elt = derivative(b)
        if elt.is_zero():
            continue
        p = Poly(xs)
        p.terms = pb
        add_terms(by_pole.setdefault(elt.j, {}), (p * elt.num).terms.items())
    J = max(by_pole, default=0)
    num = Poly.zero(xs)
    for j in range(J + 1):
        num = num * fspec.f_xs
        if by_pole.get(j):
            add_terms(num.terms, by_pole[j].items())
    return FSElement(fspec, num, J)


def _log_numerator(i, fspec):
    """L_i = sum_k s_k (d_i f_k)(f/f_k): d_i(F^S) = (L_i / f) F^S."""
    xs = fspec.xs_vc
    out = Poly.zero(xs)
    for k in range(fspec.r):
        sk = Poly.var(xs, fspec.s_names[k])
        out = out + sk * fspec.dfk_xs[k][i] * fspec.cofactor_xs[k]
    return out


def _apply_partial(i, elt, fspec, log_num):
    """d_i . (h/f^j)F^S, given L_i = _log_numerator(i, fspec)."""
    h = elt.num
    num = h.diff(fspec.x_names[i]) * fspec.f_xs + h * log_num
    if elt.j:
        num = num - h * fspec.f_xs.diff(fspec.x_names[i]) * elt.j
    return FSElement(fspec, num, elt.j + 1)
