"""Commutative Groebner engine over Q and derived ideal queries.

One Buchberger engine serves the ideal and module bases here and the left
bases of weyl.py.  buchberger is the one pair loop: one PairQueue (each
pair keyed once by its lcm, smallest (key, i, j) first), the chain
criterion, the product criterion where sound, the basis-size bound.  Each
caller passes a step that forms the S-element (s_pair_multipliers),
reduces it by its own normal form and appends a nonzero remainder.
interreduce is the one final minimalize / tail-reduce / monic / sort.
Normal forms of polynomials and of module vectors run on
ring.reduce_in_place, sharing a basis computation's KeyCache of order keys
and its leading exponents.  On top of the basis: normal forms,
membership, elimination, intersections, colon ideals, saturation, radical
membership, Krull dimension via independent variable sets, module syzygies
(extended-basis construction), and minimal graded free resolutions with a
Cohen-Macaulay test by graded Auslander-Buchsbaum.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ring import (
    DegreeBoundExceeded, Exp, KeyCache, MonomialOrder, Poly, VarContext,
    exp_add, exp_divides, exp_lcm, exp_sub, reduce_in_place,
)


class ResourceLimit(Exception):
    """Degree or basis-size bound exceeded during a basis computation."""


class NonHomogeneousInput(Exception):
    """A graded operation received non-homogeneous data."""


@dataclass
class Limits:
    max_degree: int = 60
    max_basis: int = 20000

    def check_poly(self, p: Poly) -> None:
        d = p.total_degree()
        if d > self.max_degree:
            raise ResourceLimit(f"total degree {d} exceeds bound {self.max_degree}")

    def check_size(self, n: int) -> None:
        if n > self.max_basis:
            raise ResourceLimit(f"basis size {n} exceeds bound {self.max_basis}")


DEFAULT_LIMITS = Limits()


# ---------------------------------------------------------------------------
# division and Buchberger

def normal_form(p: Poly, basis: Sequence[Poly], order: MonomialOrder,
                limits: Limits = DEFAULT_LIMITS,
                leads: Optional[Sequence[Exp]] = None,
                keys: Optional[KeyCache] = None) -> Poly:
    """Remainder of p under multivariate division by basis.

    A basis computation passes the leading exponents of its (nonzero)
    basis elements as `leads` and its KeyCache of order keys as `keys`;
    without them, zero elements are dropped and the leads are found here.
    """
    if not basis:
        return p
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
    rem: Dict[Exp, Fraction] = {}
    try:
        reduce_in_place(work, leads, keys, multiple, rem, limits.max_degree)
    except DegreeBoundExceeded:
        raise ResourceLimit(f"total degree {max(map(sum, work))} exceeds "
                            f"bound {limits.max_degree}") from None
    out = Poly(p.ctx)
    out.terms = rem
    return out


def s_pair_multipliers(f, lf: Exp, g, lg: Exp, l: Exp):
    """The S-pair multipliers m_f, m_g: m_f*f and m_g*g are both led by
    1*x^l, l = lcm(lf, lg).  Each is of its operand's own class, so this
    serves a Poly, a weyl.WeylOp and a module vector's lead component."""
    return (type(f).monomial(f.ctx, exp_sub(l, lf), Fraction(1) / f.terms[lf]),
            type(g).monomial(g.ctx, exp_sub(l, lg), Fraction(1) / g.terms[lg]))


def _s_poly(f: Poly, g: Poly, order: MonomialOrder,
            lf: Optional[Exp] = None, lg: Optional[Exp] = None) -> Poly:
    """S-polynomial of f and g; lf and lg are their leading exponents
    when the caller already knows them."""
    lf = f.leading_exp(order) if lf is None else lf
    lg = g.leading_exp(order) if lg is None else lg
    mf, mg = s_pair_multipliers(f, lf, g, lg, exp_lcm(lf, lg))
    return mf * f - mg * g


class PairQueue:
    """Pending S-pairs of a growing basis, in normal-selection order.

    Basis elements are registered in index order by add(); each is paired
    with every earlier element of the same slot (the leading position of a
    module element, 0 for ideals).  A pair (i, j), i < j, is keyed once, on
    entry, by the order key of lcm(lead_i, lead_j) and sits on a heap as
    (key, i, j); pop() returns the pending pair with the smallest
    (key, i, j) and recomputes its lcm rather than storing it.  A set of
    the pending pairs mirrors the heap for the chain criterion; pairs leave
    both only by being popped, so the two never disagree.
    """

    __slots__ = ("key", "lead", "slot", "_heap", "_pending")

    def __init__(self, key):
        self.key = key              # MonomialOrder.key of the base order
        self.lead: List[Exp] = []   # leading exponent of each element
        self.slot: List[int] = []
        self._heap: List[Tuple[object, int, int]] = []
        self._pending = set()

    def __bool__(self):
        return bool(self._heap)

    def add(self, e: Exp, slot: int = 0) -> None:
        """Register the next basis element by its leading exponent."""
        t = len(self.lead)
        key, heap, pending = self.key, self._heap, self._pending
        for k, (ek, sk) in enumerate(zip(self.lead, self.slot)):
            if sk == slot:
                heapq.heappush(heap, (key(exp_lcm(ek, e)), k, t))
                pending.add((k, t))
        self.lead.append(e)
        self.slot.append(slot)

    def pop(self) -> Tuple[int, int, Exp]:
        """Remove the next pair; return (i, j, lcm of their leads)."""
        _, i, j = heapq.heappop(self._heap)
        self._pending.discard((i, j))
        return i, j, exp_lcm(self.lead[i], self.lead[j])

    def chain_skips(self, i: int, j: int, l: Exp) -> bool:
        """Chain criterion: some other k of the slot has lead_k | l and
        neither (i, k) nor (j, k) is still pending."""
        pending = self._pending
        slot = self.slot[i]
        for k, (ek, sk) in enumerate(zip(self.lead, self.slot)):
            if k == i or k == j or sk != slot or not exp_divides(ek, l):
                continue
            if ((min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False


def buchberger(key, firsts: Sequence[Tuple[Exp, int]], step: Callable,
               limits: Limits, coprime_criterion: bool) -> None:
    """The one Buchberger pair loop, from the (leading exponent, slot) of
    each starting element, in index order; key is the order key.

    A popped pair (i, j) with lcm l is skipped by the chain criterion, or
    by the product criterion when coprime_criterion says it is sound
    (commutative ideals).  Otherwise step(i, j, l) reduces its S-element,
    appends a nonzero remainder to the caller's basis and returns its
    (leading exponent, slot), or None for zero.
    """
    queue = PairQueue(key)
    for e, slot in firsts:
        queue.add(e, slot)
    lead = queue.lead
    while queue:
        i, j, l = queue.pop()
        if ((coprime_criterion and l == exp_add(lead[i], lead[j]))
                or queue.chain_skips(i, j, l)):
            continue
        new = step(i, j, l)
        if new is None:
            continue
        limits.check_size(len(lead) + 1)
        queue.add(*new)


def interreduce(G: Sequence, leads: Sequence[Exp], keys: KeyCache,
                divide: Callable) -> List[Tuple[object, Optional[list]]]:
    """The minimal, tail-reduced, monic basis of the Groebner basis G, as
    (element, cofactor row) pairs ascending by leading monomial.

    divide(i, rest) reduces G[i] by the kept G[k], k in rest, and returns
    the remainder and its cofactor row (None when untracked).
    """
    # minimalize: drop g whose LM is divisible by another LM
    keep: List[int] = []
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
        r, row = divide(i, [k for k in keep if k != i])
        if r.is_zero():
            continue
        lr = max(r.terms, key=keys.__getitem__)
        inv = Fraction(1) / r.terms[lr]
        if row is not None:
            row = [a * inv for a in row]
        out.append((keys[lr], r * inv, row))
    out.sort(key=lambda t: t[0])
    return [(g, row) for _, g, row in out]


def groebner_basis(gens: Sequence[Poly], order: MonomialOrder,
                   limits: Limits = DEFAULT_LIMITS) -> List[Poly]:
    """Reduced Groebner basis (monic, inter-reduced, sorted by leading
    monomial ascending).  Deterministic for a given generator sequence."""
    G: List[Poly] = []
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
        s = _s_poly(G[i], G[j], order, lead[i], lead[j])
        limits.check_poly(s)
        r = normal_form(s, G, order, limits, leads=lead, keys=keys)
        if r.is_zero():
            return None
        limits.check_poly(r)
        G.append(r)
        lead.append(max(r.terms, key=leading))
        return lead[-1], 0
    buchberger(order.key, [(e, 0) for e in lead], step, limits,
               coprime_criterion=True)
    return _reduce_basis(G, order, limits, leads=lead, keys=keys)


def _reduce_basis(G: Sequence[Poly], order: MonomialOrder,
                  limits: Limits = DEFAULT_LIMITS,
                  leads: Optional[Sequence[Exp]] = None,
                  keys: Optional[KeyCache] = None) -> List[Poly]:
    """interreduce for polynomials; a basis computation passes its leads
    and KeyCache as in normal_form."""
    if keys is None:
        keys = KeyCache(order.key)
    if leads is None:
        G = [g for g in G if not g.is_zero()]
        leads = [max(g.terms, key=keys.__getitem__) for g in G]

    def divide(i, rest):
        if not rest:
            return G[i], None
        return normal_form(G[i], [G[k] for k in rest], order, limits,
                           leads=[leads[k] for k in rest], keys=keys), None
    return [g for g, _ in interreduce(G, leads, keys, divide)]


class IdealHandle:
    """Generators plus a cached reduced Groebner basis under a fixed order."""

    def __init__(self, gens: Sequence[Poly], order: Optional[MonomialOrder] = None,
                 limits: Limits = DEFAULT_LIMITS):
        gens = list(gens)
        if not gens:
            raise ValueError("IdealHandle needs at least the ambient context; pass [Poly.zero(ctx)]")
        self.ctx = gens[0].ctx
        self.gens: List[Poly] = [g for g in gens if not g.is_zero()]
        self.order = order or MonomialOrder.grevlex()
        self.limits = limits
        self._gb: Optional[List[Poly]] = None

    @classmethod
    def zero(cls, ctx: VarContext, order: Optional[MonomialOrder] = None) -> "IdealHandle":
        h = cls([Poly.zero(ctx)], order)
        h.gens = []
        return h

    def gb(self) -> List[Poly]:
        if self._gb is None:
            self._gb = groebner_basis(self.gens, self.order, self.limits)
        return self._gb

    def is_zero_ideal(self) -> bool:
        return not self.gb()

    def is_unit_ideal(self) -> bool:
        g = self.gb()
        return len(g) == 1 and g[0].is_constant()

    def contains(self, p: Poly) -> bool:
        return normal_form(p, self.gb(), self.order, self.limits).is_zero()

    def contains_ideal(self, other: "IdealHandle") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "IdealHandle") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def __repr__(self):
        gs = ", ".join(str(g) for g in self.gens[:6])
        more = ", ..." if len(self.gens) > 6 else ""
        return f"Ideal({gs}{more})"


# ---------------------------------------------------------------------------
# elimination and the derived ideal operations

def _drop_block_context(ctx: VarContext, drop_block: str) -> VarContext:
    blocks = [(b, vs) for b, vs in ctx.blocks if b != drop_block]
    return VarContext(blocks)


def eliminate(I: IdealHandle, drop_block: str,
              limits: Limits = DEFAULT_LIMITS) -> IdealHandle:
    """Generators of I intersected with the subring without drop_block."""
    ctx = I.ctx
    rest = [b for b, _ in ctx.blocks if b != drop_block]
    if drop_block not in dict(ctx.blocks):
        raise KeyError(f"no block named {drop_block!r}")
    order = MonomialOrder.block(ctx, [drop_block] + rest)
    gb = groebner_basis(I.gens, order, limits)
    dropped = set(ctx.block_indices[drop_block])
    ctx2 = _drop_block_context(ctx, drop_block)
    kept = []
    for g in gb:
        if all(all(e[i] == 0 for i in dropped) for e in g.terms):
            kept.append(g.map_context(ctx2))
    out = IdealHandle.zero(ctx2)
    out.gens = kept
    return out


def _extend_with_var(ctx: VarContext, block: str, name: str) -> VarContext:
    if name in ctx.index:
        raise ValueError(f"variable {name} already present")
    return VarContext(list(ctx.blocks) + [(block, [name])])


def intersect(I: IdealHandle, J: IdealHandle,
              limits: Limits = DEFAULT_LIMITS) -> IdealHandle:
    """I cap J by the single-tag-variable trick: eliminate w from
    w*I + (1-w)*J."""
    ctx = I.ctx
    ctx2 = _extend_with_var(ctx, "_W", "_w")
    w = Poly.var(ctx2, "_w")
    gens = [w * g.map_context(ctx2) for g in I.gens]
    gens += [(Poly.const(ctx2, 1) - w) * g.map_context(ctx2) for g in J.gens]
    H = IdealHandle.zero(ctx2)
    H.gens = [g for g in gens if not g.is_zero()]
    E = eliminate(H, "_W", limits)
    out = IdealHandle.zero(ctx)
    out.gens = [g.map_context(ctx) for g in E.gens]
    return out


def ideal_colon(I: IdealHandle, g: Poly,
                limits: Limits = DEFAULT_LIMITS) -> IdealHandle:
    """(I : g) = {p : p*g in I}, g nonzero."""
    if g.is_zero():
        raise ValueError("colon by zero")
    P = IdealHandle([g], I.order, limits)
    C = intersect(I, P, limits)
    from .ring import divide_exact
    gens = []
    for h in C.gens:
        q = divide_exact(h, g)
        if q is None:
            raise ArithmeticError("intersection element not divisible in colon")
        if not q.is_zero():
            gens.append(q)
    out = IdealHandle.zero(I.ctx)
    out.gens = gens
    return out


def ideal_colon_ideal(I: IdealHandle, J: IdealHandle,
                      limits: Limits = DEFAULT_LIMITS) -> IdealHandle:
    """(I : J) = intersection of (I : g) over generators g of J."""
    gens = [g for g in J.gens if not g.is_zero()]
    if not gens:
        raise ValueError("colon by zero ideal")
    acc = ideal_colon(I, gens[0], limits)
    for g in gens[1:]:
        acc = intersect(acc, ideal_colon(I, g, limits), limits)
    return acc


def saturate(I: IdealHandle, g: Poly,
             limits: Limits = DEFAULT_LIMITS) -> Tuple[IdealHandle, int]:
    """(I : g^inf) by iterating colon to stability; returns (ideal, steps)."""
    steps = 0
    cur = I
    while True:
        nxt = ideal_colon(cur, g, limits)
        if nxt.equals(cur):
            return cur, steps
        cur = nxt
        steps += 1


def radical_membership(p: Poly, I: IdealHandle,
                       limits: Limits = DEFAULT_LIMITS) -> bool:
    """p in rad(I), by the inverse-tag trick: 1 in I + (1 - w*p)."""
    ctx2 = _extend_with_var(I.ctx, "_W", "_w")
    w = Poly.var(ctx2, "_w")
    gens = [g.map_context(ctx2) for g in I.gens]
    gens.append(Poly.const(ctx2, 1) - w * p.map_context(ctx2))
    H = IdealHandle(gens, MonomialOrder.grevlex(), limits)
    return H.is_unit_ideal()


def krull_dimension(I: IdealHandle, limits: Limits = DEFAULT_LIMITS) -> int:
    """dim V(I) via maximal independent variable sets modulo the
    leading-term ideal; -1 for the unit ideal."""
    gb = I.gb()
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return -1
    n = I.ctx.n
    if not gb:
        return n
    lead = [g.leading_exp(I.order) for g in gb]
    supports = [frozenset(i for i, e in enumerate(le) if e) for le in lead]
    # U independent iff no leading monomial is supported inside U
    for size in range(n, -1, -1):
        for U in itertools.combinations(range(n), size):
            Uset = set(U)
            if all(not s <= Uset for s in supports):
                return size
    return 0


# ---------------------------------------------------------------------------
# modules: syzygies and graded free resolutions

Vec = Tuple[Poly, ...]


def _vec_is_zero(v: Vec) -> bool:
    return all(p.is_zero() for p in v)


def _vec_sub(v: Vec, w: Vec) -> Vec:
    return tuple(a - b for a, b in zip(v, w))


def _vec_scale(v: Vec, p: Poly) -> Vec:
    return tuple(p * a for a in v)


class _ModOrder:
    """Module monomial order on (position, exponent).

    Positions below `split` dominate all positions at or above it
    (elimination of the leading components); within a class, compare the
    exponent by the base order, then prefer the smaller position.
    """

    def __init__(self, base: MonomialOrder, split: int = 0):
        self.base = base
        self.split = split

    def key(self, m: Tuple[int, Exp]):
        pos, e = m
        cls = 0 if pos < self.split else 1
        return (-cls, self.base.key(e), -pos)


def _vec_lead(v: Vec, mo: _ModOrder,
              keys: Optional[KeyCache] = None) -> Tuple[int, Exp]:
    keys = KeyCache(mo.key) if keys is None else keys
    terms = [(pos, e) for pos, p in enumerate(v) for e in p.terms]
    if not terms:
        raise ValueError("zero vector has no leading term")
    return max(terms, key=keys.__getitem__)


def _mod_divides(lead: Tuple[int, Exp], m: Tuple[int, Exp]) -> bool:
    return lead[0] == m[0] and exp_divides(lead[1], m[1])


def _mod_degree(m: Tuple[int, Exp]) -> int:
    return sum(m[1])


def _vec_reduce(v: Vec, basis: List[Vec], leads: List[Tuple[int, Exp]],
                mo: _ModOrder, limits: Limits,
                keys: Optional[KeyCache] = None) -> Vec:
    """Full normal form of a vector against a list of vectors.

    Module monomials are (position, exponent) pairs; a module basis
    computation passes its KeyCache of their order keys."""
    keys = KeyCache(mo.key) if keys is None else keys

    def multiple(k, pe, c):
        g, (lp, lead) = basis[k], leads[k]
        m, coef = exp_sub(pe[1], lead), c / g[lp].terms[lead]
        return [((pos, exp_add(m, ge)), coef * gc)
                for pos, p in enumerate(g) for ge, gc in p.terms.items()]
    work = {(pos, e): c for pos, p in enumerate(v) for e, c in p.terms.items()}
    rem: Dict[Tuple[int, Exp], Fraction] = {}
    try:
        reduce_in_place(work, leads, keys, multiple, rem, limits.max_degree,
                        _mod_divides, _mod_degree)
    except DegreeBoundExceeded:
        # report the first component above the bound
        degs = [-1] * len(v)
        for pos, e in work:
            degs[pos] = max(degs[pos], sum(e))
        deg = next(d for d in degs if d > limits.max_degree)
        raise ResourceLimit(f"total degree {deg} exceeds bound "
                            f"{limits.max_degree}") from None
    ctx = v[0].ctx
    parts = [Poly(ctx) for _ in v]
    for (pos, e), c in rem.items():
        parts[pos].terms[e] = c
    return tuple(parts)


def _module_gb(vectors: List[Vec], mo: _ModOrder,
               limits: Limits = DEFAULT_LIMITS) -> List[Vec]:
    """Groebner basis of the submodule generated by vectors.

    Pairs are formed only between vectors with the same leading position;
    the chain criterion applies, the product criterion does not (it is
    unsound for modules)."""
    G = [v for v in vectors if not _vec_is_zero(v)]
    if not G:
        return []
    keys = KeyCache(mo.key)
    leads = [_vec_lead(v, mo, keys) for v in G]

    def step(i, j, l):
        pos = leads[i][0]
        mi, mj = s_pair_multipliers(G[i][pos], leads[i][1],
                                    G[j][pos], leads[j][1], l)
        s = _vec_sub(_vec_scale(G[i], mi), _vec_scale(G[j], mj))
        r = _vec_reduce(s, G, leads, mo, limits, keys=keys)
        if _vec_is_zero(r):
            return None
        G.append(r)
        leads.append(_vec_lead(r, mo, keys))
        return leads[-1][1], leads[-1][0]
    buchberger(mo.base.key, [(e, pos) for pos, e in leads], step, limits,
               coprime_criterion=False)
    return G


def module_contains(vectors: Sequence[Sequence[Poly]], target: Sequence[Poly],
                    order: Optional[MonomialOrder] = None,
                    limits: Limits = DEFAULT_LIMITS) -> bool:
    """Is `target` in the submodule of R^m generated by `vectors`?"""
    vecs = [tuple(v) for v in vectors if not _vec_is_zero(tuple(v))]
    tgt = tuple(target)
    if _vec_is_zero(tgt):
        return True
    if not vecs:
        return False
    mo = _ModOrder(order or MonomialOrder.grevlex(), split=0)
    G = _module_gb(vecs, mo, limits)
    keys = KeyCache(mo.key)
    leads = [_vec_lead(v, mo, keys) for v in G]
    return _vec_is_zero(_vec_reduce(tgt, G, leads, mo, limits, keys))


def syzygies(vectors: Sequence[Sequence[Poly]],
             order: Optional[MonomialOrder] = None,
             limits: Limits = DEFAULT_LIMITS) -> List[Vec]:
    """Generating set of {(a_1..a_k) : sum a_i v_i = 0} for vectors in R^m.

    Extended-basis construction: append bookkeeping unit coordinates, take a
    module basis eliminating the first m positions, and read off the members
    supported entirely in the bookkeeping block.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return []
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise ValueError("all vectors must have the same length")
    k = len(vecs)
    ctx = vecs[0][0].ctx
    zero = Poly.zero(ctx)
    one = Poly.const(ctx, 1)
    aug: List[Vec] = []
    for i, v in enumerate(vecs):
        book = [zero] * k
        book[i] = one
        aug.append(tuple(list(v) + book))
    mo = _ModOrder(order or MonomialOrder.grevlex(), split=m)
    G = _module_gb(aug, mo, limits)
    out: List[Vec] = []
    for g in G:
        if all(g[i].is_zero() for i in range(m)):
            out.append(tuple(g[m:]))
    return out


# ---------------------------------------------------------------------------
# graded resolutions


def vector_degree(v: Sequence[Poly], weights: Sequence[int],
                  shifts: Sequence[int]) -> Optional[int]:
    """Degree of a homogeneous vector in a shifted graded free module
    (None for zero); raises NonHomogeneousInput otherwise."""
    deg = None
    for i, p in enumerate(v):
        if p.is_zero():
            continue
        degs = {sum(w * x for w, x in zip(weights, e)) for e in p.terms}
        if len(degs) != 1:
            raise NonHomogeneousInput(f"component {i} is not homogeneous")
        d = degs.pop() + shifts[i]
        if deg is None:
            deg = d
        elif d != deg:
            raise NonHomogeneousInput("components have inconsistent degrees")
    return deg


class GradedModulePresentation:
    """R^rank / image(relations), graded by a positive integer weight vector.

    relations: list of length-`rank` tuples of Poly.
    shifts: degrees of the ambient basis elements (length `rank`).
    """

    def __init__(self, ctx: VarContext, weights: Sequence[int], rank: int,
                 relations: Sequence[Sequence[Poly]],
                 shifts: Optional[Sequence[int]] = None):
        if any(w <= 0 for w in weights):
            raise ValueError("grading weights must be positive")
        self.ctx = ctx
        self.weights = tuple(weights)
        self.rank = rank
        self.relations: List[Vec] = [tuple(r) for r in relations]
        self.shifts = tuple(shifts) if shifts is not None else (0,) * rank
        for r in self.relations:
            if len(r) != rank:
                raise ValueError("relation length mismatch")
            self._degree_of(r)  # raises NonHomogeneousInput

    def _degree_of(self, v: Vec) -> Optional[int]:
        """Degree of a homogeneous vector (None for zero)."""
        return vector_degree(v, self.weights, self.shifts)


@dataclass
class Resolution:
    """Minimal graded free resolution 0 <- M <- F_0 <- F_1 <- ... <- F_pdim."""
    betti: List[List[int]]          # per step, degrees of the free basis
    matrices: List[List[Vec]]       # matrices[i]: rows = basis of F_{i+1}, entries in F_i
    pdim: int
    is_CM: Optional[bool]           # only set for cyclic quotients R/I


def graded_free_resolution(M: GradedModulePresentation,
                           limits: Limits = DEFAULT_LIMITS) -> Resolution:
    """Minimal graded free resolution by iterated syzygies.

    pdim is the length after minimalization.  For a cyclic quotient R/I
    (rank 1, zero shift) the Cohen-Macaulay flag is decided by graded
    Auslander-Buchsbaum: pdim(R/I) = codim(I) iff R/I is CM.
    """
    ctx = M.ctx
    steps: List[List[Vec]] = []      # matrices d_i: F_i -> F_{i-1}, rows = images of basis
    degs: List[List[int]] = [list(M.shifts)]
    rels = [v for v in M.relations if not _vec_is_zero(v)]
    cur_shifts = list(M.shifts)
    while rels:
        steps.append(rels)
        rel_degs = []
        pres = GradedModulePresentation(ctx, M.weights, len(rels[0]), [],
                                        shifts=cur_shifts)
        for v in rels:
            rel_degs.append(pres._degree_of(v))
        degs.append(rel_degs)
        syz = syzygies(rels, limits=limits)
        rels = [v for v in syz if not _vec_is_zero(v)]
        cur_shifts = rel_degs

    mats = [ [list(row) for row in mat] for mat in steps ]
    betti = [list(d) for d in degs]
    _minimalize(mats, betti, ctx)
    # drop empty tail steps
    while mats and not mats[-1]:
        mats.pop()
    pdim = len(mats)

    is_cm = None
    if M.rank == 1 and M.shifts == (0,):
        I = IdealHandle.zero(ctx)
        I.gens = [r[0] for r in M.relations if not r[0].is_zero()]
        dim = krull_dimension(I, limits)
        codim = ctx.n - dim if dim >= 0 else ctx.n
        is_cm = (pdim == codim)

    return Resolution(
        betti=betti[: pdim + 1],
        matrices=[[tuple(row) for row in mat] for mat in mats],
        pdim=pdim,
        is_CM=is_cm,
    )


def _minimalize(mats: List[List[List[Poly]]], betti: List[List[int]],
                ctx: VarContext) -> None:
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
