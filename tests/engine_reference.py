"""The step-closure engine that gb.buchberger replaced, kept for the tests
as a reference.

buchberger here took the (leading exponent, slot, degree) of each starting
element and a step closure, and each basis loop wrote its own step: form
the S-element, reduce it by its normal form, check it, append it and add
it to its ring.Divisors.  PairQueue is the pair queue of that engine,
keyed by (leading exponent, slot) and by the base order of a module order.
groebner_basis, module_gb and weyl_left_gb are the three loops on it, with
their steps as they were.  The three disagreed on the degree bound: the
ideal loop checked generators, S-elements and remainders, the left loop
only remainders, the module loop nothing outside the division kernel.

The library's bases, pair pop orders and LeftBasis logs equal these loops'.
Their final step is the eager interreduction that gb.Basis replaced:
interreduce minimalizes, tail-reduces and sorts every element at once, and
ReducedLeftBasis is the LeftBasis it made, with the log as it was (an
S-pair origin holds its two rational multipliers, from s_pair_multipliers)
and the Fraction cofactor rebuild of weyl_reference, and krull_dimension
read the leads of that whole reduced basis.
The normal forms are looked up on their modules at call time, so a test
that wraps one sees the divisions of both; under_one_policy wraps them so
that a loop here keeps the one bound policy of gb.buchberger.

graded_free_resolution here is the resolution that gb's ranks of constant
parts replaced: it minimalized the iterated-syzygy chain by Gaussian
cancellation (_minimalize) and read pdim and the Betti degrees off the
minimal resolution it left.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction

from fpowers import gb, weyl
from fpowers.gb import Limits
from fpowers.ring import (
    Divisors, Scaled, exp_add, exp_divides, exp_lcm, exp_sub, exp_total,
)


def interreduce(divisors, divide):
    """The minimal, tail-reduced, monic basis of the Groebner basis whose
    elements are `divisors`, ascending by leading monomial, as triples
    (i, c, g): g is c times the remainder of element i.

    divide(i, rest) returns the remainder of element i by the kept
    elements k in rest.
    """
    leads, keys = divisors.leads, divisors.keys
    # minimalize: drop g whose LM is divisible by another LM
    keep = []
    for i, li in enumerate(leads):
        drop = False
        for j, lj in enumerate(leads):
            if i == j:
                continue
            if exp_divides(lj, li) and (lj != li or j < i):
                drop = True
                break
        if not drop:
            keep.append(i)
    # tail-reduce each against the others, make monic
    out = []
    for i in keep:
        r = divide(i, [k for k in keep if k != i])
        if r.is_zero():
            continue
        lr = max(r.terms, key=keys.__getitem__)
        inv = Fraction(1) / r.terms[lr]
        out.append((keys[lr], i, inv, r * inv))
    out.sort(key=lambda t: t[0])
    return [(i, inv, g) for _, i, inv, g in out]


def s_pair_multipliers(f, lf, g, lg, l):
    """The S-pair multipliers m_f, m_g, which gb kept for the left basis
    log: m_f*f and m_g*g are both led by 1*x^l, l = lcm(lf, lg), each of
    its operand's own class."""
    return (type(f).monomial(f.ctx, exp_sub(l, lf), Fraction(1) / f.terms[lf]),
            type(g).monomial(g.ctx, exp_sub(l, lg), Fraction(1) / g.terms[lg]))


class ReducedLeftBasis(list):
    """weyl.LeftBasis as interreduce made it: the whole reduced basis and
    its `final` log at once, with the lead and leading coefficient of each
    element the loop computed, and the Fraction cofactor rebuild
    (weyl_reference.fraction_cofactors)."""

    def __init__(self, basis, gens, origin, steps, final, lead, lc):
        super().__init__(basis)
        self.gens, self.origin, self.steps, self.final = (list(gens), origin,
                                                          steps, final)
        self.lead, self.lc = lead, lc

    def entry(self, t):
        return (self[t],) + tuple(self.final[t])

    def cofactors(self, steps):
        from weyl_reference import fraction_cofactors
        return fraction_cofactors(self, steps)


def krull_dimension(I):
    """gb.krull_dimension as it was: the leads of the reduced basis, read
    whole, and maximal independent variable sets modulo them."""
    import itertools
    G = list(I.gb())
    if any(g.is_constant() and not g.is_zero() for g in G):
        return -1
    n = I.ctx.n
    supports = [frozenset(i for i, e in enumerate(g.leading_exp(I.order))
                          if e) for g in G]
    for size in range(n, -1, -1):
        for U in itertools.combinations(range(n), size):
            if all(not s <= set(U) for s in supports):
                return size
    return 0


def check_poly(limits, p):
    """The degree check the loops made on a term map or S-element p."""
    limits.check_degree(p.terms, exp_total)


class PairQueue:
    """Pending S-pairs of a growing basis, in sugar order: pairs of one
    slot, keyed once by key(lcm of the leading exponents), popped as the
    smallest (sugar, key(l), i, j)."""

    def __init__(self, key, graded):
        self.key = key
        self.graded = graded
        self.lead = []
        self.slot = []
        self.ecart = []
        self._heap = []
        self._pending = set()

    def __bool__(self):
        return bool(self._heap)

    def add(self, e, slot, sugar):
        t = len(self.lead)
        ecart = 0 if self.graded else sugar - exp_total(e)
        for k, (ek, sk, ck) in enumerate(zip(self.lead, self.slot,
                                              self.ecart)):
            if sk == slot:
                l = exp_lcm(ek, e)
                heapq.heappush(self._heap, (exp_total(l) + max(ck, ecart),
                                            self.key(l), k, t))
                self._pending.add((k, t))
        self.lead.append(e)
        self.slot.append(slot)
        self.ecart.append(ecart)

    def pop(self):
        sugar, _, i, j = heapq.heappop(self._heap)
        self._pending.discard((i, j))
        return i, j, exp_lcm(self.lead[i], self.lead[j]), sugar

    def chain_skips(self, i, j, l):
        slot = self.slot[i]
        for k, (ek, sk) in enumerate(zip(self.lead, self.slot)):
            if k == i or k == j or sk != slot or not exp_divides(ek, l):
                continue
            if ((min(i, k), max(i, k)) not in self._pending
                    and (min(j, k), max(j, k)) not in self._pending):
                return True
        return False


def buchberger(order, firsts, step, coprime_criterion):
    """The pair loop: step(i, j, l) reduces the S-element of a pair that
    no criterion skips, appends a nonzero remainder to the caller's basis
    and returns its (leading exponent, slot), or None for zero."""
    limits = Limits.current()
    base = order.base if isinstance(order, gb._ModOrder) else order
    queue = PairQueue(base.key, order.graded)
    for e, slot, sugar in firsts:
        queue.add(e, slot, sugar)
    lead = queue.lead
    limits.check_size(len(lead))
    while queue:
        i, j, l, sugar = queue.pop()
        if ((coprime_criterion and l == exp_add(lead[i], lead[j]))
                or queue.chain_skips(i, j, l)):
            continue
        new = step(i, j, l)
        if new is None:
            continue
        limits.check_size(len(lead) + 1)
        queue.add(*new, sugar)


def groebner_basis(gens, order):
    """gb.groebner_basis with its own step."""
    limits = Limits.current()
    G = []
    for g in gens:
        if not g.is_zero():
            check_poly(limits, g)
            G.append(g)
    if not G:
        return []
    divisors = Divisors.of(G[0].ctx, G, order.key)

    def step(i, j, l):
        s = divisors.s_element(i, j, l)
        check_poly(limits, s)
        r = gb.normal_form(s, divisors, order)
        if r.is_zero():
            return None
        check_poly(limits, r)
        G.append(r)
        return divisors.add(r.terms), 0
    buchberger(order, [(e, 0, g.total_degree())
                       for e, g in zip(divisors.leads, G)], step,
               coprime_criterion=True)

    def divide(i, rest):
        if not rest:
            return G[i]
        return gb.normal_form(G[i], divisors.subset(rest), order)
    return [g for _, _, g in interreduce(divisors, divide)]


def module_gb(vectors, mo):
    """gb._module_gb with its own step: the unreduced basis."""
    G = [v for v in vectors if not gb._vec_is_zero(v)]
    if not G:
        return []
    divisors = gb._vec_divisors(gb._vec_ctx(G[0]), G, mo)

    def step(i, j, l):
        s = divisors.s_element(i, j, (divisors.leads[i][0], l))
        r = gb._vec_reduce(s, divisors, mo)
        if gb._vec_is_zero(r):
            return None
        G.append(r)
        pos, e = divisors.add(gb._vec_terms(r))
        return e, pos
    buchberger(mo, [(e, pos, max(p.total_degree() for p in v))
                    for (pos, e), v in zip(divisors.leads, G)], step,
               coprime_criterion=False)
    return G


def weyl_left_gb(gens, order):
    """weyl.weyl_left_gb with its own step, and the same LeftBasis log."""
    gens = list(gens)
    G, origin, steps = [], [], []
    for i, g in enumerate(gens):
        if not g.is_zero():
            G.append(g)
            origin.append(i)
            steps.append([])
    if not G:
        return ReducedLeftBasis([], gens, origin, steps, [], [], [])

    limits = Limits.current()
    divisors = weyl._left_divisors(G[0].ctx, G, order)
    lead = divisors.leads

    def step(i, j, l):
        s = divisors.s_element(i, j, l)
        log = []
        r = weyl.left_normal_form(s, divisors, order, steps=log)
        if r.is_zero():
            return None
        check_poly(limits, r)
        G.append(r)
        origin.append((i, j) + s_pair_multipliers(G[i], lead[i], G[j],
                                                  lead[j], l))
        steps.append(log)
        return divisors.add(r.terms), 0
    buchberger(order, [(e, 0, g.total_degree()) for e, g in zip(lead, G)],
               step, coprime_criterion=False)
    tails = {}

    def divide(i, rest):
        tail = []
        r = weyl.left_normal_form(G[i], divisors.subset(rest), order,
                                  steps=tail)
        tails[i] = [(rest[k], *step) for k, *step in tail]
        return r
    out = interreduce(divisors, divide)
    return ReducedLeftBasis([g for _, _, g in out], gens, origin, steps,
                            [(i, c, tails[i]) for i, c, _ in out], lead,
                            [g.terms[m] for g, m in zip(G, lead)])


def under_one_policy(loop):
    """loop(gens, order), one of the loops above, under the bound policy of
    gb.buchberger: the degree of each nonzero generator, S-element and
    nonzero S-remainder is checked against the bound in effect, a vector's
    degree being its x-degree.  The S-elements are the ring.Scaled
    elements the loop divides."""
    def degree(g):
        if isinstance(g, tuple):
            return gb._vec_terms(g), gb._mod_degree
        return g.terms, exp_total

    def checked(real):
        def division(p, basis, order, **kwargs):
            if not isinstance(p, Scaled):
                return real(p, basis, order, **kwargs)
            limits = Limits.current()
            limits.check_degree(p.terms, basis.degree)
            r = real(p, basis, order, **kwargs)
            limits.check_degree(basis.view(r)[1], basis.degree)
            return r
        return division

    def run(gens, order):
        limits = Limits.current()
        for g in gens:
            limits.check_degree(*degree(g))
        names = ((gb, "normal_form"), (gb, "_vec_reduce"),
                 (weyl, "left_normal_form"))
        reals = [getattr(mod, name) for mod, name in names]
        for (mod, name), real in zip(names, reals):
            setattr(mod, name, checked(real))
        try:
            return loop(gens, order)
        finally:
            for (mod, name), real in zip(names, reals):
                setattr(mod, name, real)
    return run


# ---------------------------------------------------------------------------
# graded resolutions: the minimal resolution that gb.graded_free_resolution's
# ranks of constant parts replaced


@dataclass
class MinimalResolution:
    """Minimal graded free resolution 0 <- M <- F_0 <- F_1 <- ... <- F_pdim."""
    betti: list        # per step, degrees of the free basis
    matrices: list     # matrices[i]: rows = basis of F_{i+1}, entries in F_i
    pdim: int
    is_CM: object      # only set for cyclic quotients R/I


def graded_free_resolution(M):
    """Minimal graded free resolution by iterated syzygies, as a
    MinimalResolution.

    pdim is the length after minimalization.  For a cyclic quotient R/I
    (rank 1, zero shift) the Cohen-Macaulay flag is decided by graded
    Auslander-Buchsbaum: pdim(R/I) = codim(I) iff R/I is CM.
    """
    ctx = M.ctx
    steps = []      # matrices d_i: F_i -> F_{i-1}, rows = images of basis
    degs = [list(M.shifts)]
    rels = [v for v in M.relations if not gb._vec_is_zero(v)]
    cur_shifts = list(M.shifts)
    while rels:
        steps.append(rels)
        rel_degs = []
        for v in rels:
            rel_degs.append(gb.vector_degree(v, M.weights, cur_shifts))
        degs.append(rel_degs)
        syz = gb.syzygies(rels)
        rels = [v for v in syz if not gb._vec_is_zero(v)]
        cur_shifts = rel_degs

    mats = [[list(row) for row in mat] for mat in steps]
    betti = [list(d) for d in degs]
    _minimalize(mats, betti, ctx)
    # drop empty tail steps
    while mats and not mats[-1]:
        mats.pop()
    pdim = len(mats)

    is_cm = None
    if M.rank == 1 and M.shifts == (0,):
        dim = gb.krull_dimension(
            gb.IdealHandle([r[0] for r in M.relations], ctx=ctx))
        codim = ctx.n - dim if dim >= 0 else ctx.n
        is_cm = (pdim == codim)

    return MinimalResolution(
        betti=betti[: pdim + 1],
        matrices=[[tuple(row) for row in mat] for mat in mats],
        pdim=pdim,
        is_CM=is_cm,
    )


def _minimalize(mats, betti, ctx):
    """Cancel scalar (degree-zero unit) entries in place.

    mats[i] is the matrix F_{i+1} -> F_i as a list of rows; betti[i] the
    degrees of the basis of F_i.  Standard Gaussian cancellation: a scalar
    entry lets one basis element of F_{i+1} and one of F_i be struck out,
    after clearing its row and column by row/column operations (which also
    touch the neighboring matrices through the induced basis changes).
    """
    changed = True
    while changed:
        changed = False
        for i, mat in enumerate(mats):
            unit = None
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if not entry.is_zero() and entry.is_constant():
                        unit = (r, c, entry.constant_coeff())
                        break
                if unit:
                    break
            if not unit:
                continue
            r, c, u = unit
            # row operations: clear column c using row r
            for r2, row2 in enumerate(mat):
                if r2 == r or row2[c].is_zero():
                    continue
                lam = row2[c] * (Fraction(1) / u)
                mat[r2] = [a - lam * b for a, b in zip(row2, mat[r])]
                # basis change in F_{i+1} adjusts columns of mats[i+1]
                if i + 1 < len(mats):
                    for row3 in mats[i + 1]:
                        if not row3[r2].is_zero():
                            row3[r] = row3[r] + lam * row3[r2]
            # column operations: clear row r using column c
            for c2 in range(len(mat[r])):
                if c2 == c or mat[r][c2].is_zero():
                    continue
                lam = mat[r][c2] * (Fraction(1) / u)
                for row2 in mat:
                    row2[c2] = row2[c2] - lam * row2[c]
                # basis change in F_{i-1} adjusts rows of mats[i-1]
                if i - 1 >= 0:
                    mats[i - 1][c] = [
                        a + lam * b
                        for a, b in zip(mats[i - 1][c], mats[i - 1][c2])
                    ]
            # strike row r (basis of F_{i+1}) and column c (basis of F_i);
            # d.d = 0 forces the struck column/row of the neighbors to be 0
            mats[i] = [
                [e for k, e in enumerate(row) if k != c]
                for j, row in enumerate(mat) if j != r
            ]
            betti[i + 1].pop(r)
            betti[i].pop(c)
            if i + 1 < len(mats):
                assert all(row[r].is_zero() for row in mats[i + 1])
                mats[i + 1] = [
                    [e for k, e in enumerate(row) if k != r]
                    for row in mats[i + 1]
                ]
            if i - 1 >= 0:
                assert all(e.is_zero() for e in mats[i - 1][c])
                mats[i - 1] = [row for j, row in enumerate(mats[i - 1]) if j != c]
            changed = True
            break
