"""Commutative Groebner engine over Q and derived ideal queries.

One Buchberger engine serves the ideal and module bases here and the left
bases of weyl.py.  buchberger is the one pair loop: one PairQueue, the
chain criterion, the product criterion where sound, the basis-size bound.
The queue selects by sugar (Giovini, Mora, Niesi, Robbiano and Traverso,
"One sugar cube, please", ISSAC 1991): each pair is keyed once, and the
smallest (sugar, key(lcm), i, j) pops first; under a graded order a
pair's sugar is |lcm|, so selection there is the normal one.  Each basis
loop owns one ring.Divisors, its divisor set, and passes a step that
forms the S-element on it (Divisors.s_element), reduces it by its own
normal form and adds a nonzero remainder to it.  interreduce is the one
final minimalize / tail-reduce / monic / sort, on the same Divisors.
Normal forms of polynomials and of module vectors take a list of elements
or a basis loop's Divisors and run on ring.reduce_in_place over integers
through remainder, which also turns the kernel's degree overflow into
ResourceLimit; Fractions go in and come out.  On top of the basis:
membership, elimination, intersections, colon ideals, saturation, radical
membership, Krull dimension via independent variable sets, module syzygies
(extended-basis construction), and minimal graded free resolutions with a
Cohen-Macaulay test by graded Auslander-Buchsbaum.

No function takes a bound: the degree and basis-size bounds are request
state, set by `with Limits(max_degree=..., max_basis=...):` and read by
Limits.current() only where they are enforced (the normal forms and the
basis loops here and in weyl.py) or keyed (logder.FactorizationSpec.memo).
"""

from __future__ import annotations

import heapq
import itertools
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .ring import (
    DegreeBoundExceeded, Divisors, Exp, MonomialOrder, Poly, Scaled,
    VarContext, exp_add, exp_divides, exp_lcm, exp_sub, exp_total,
    integer_image, reduce_in_place,
)


class ResourceLimit(Exception):
    """Degree or basis-size bound exceeded during a basis computation."""


class NonHomogeneousInput(Exception):
    """A graded operation received non-homogeneous data."""


@dataclass
class Limits:
    """The degree and basis-size bounds on every basis computation.

    One bound is in effect per request: `with Limits(max_degree=...,
    max_basis=...):` sets it for the block, and leaving the block, also by
    an exception, restores the outer one.  It is context state, like the
    precision of a decimal context; Limits.current() reads it where it is
    enforced or keyed, and is DEFAULT_LIMITS outside any block.
    """
    max_degree: int = 60
    max_basis: int = 20000
    _tokens: list = field(default_factory=list, init=False, repr=False,
                          compare=False)

    @staticmethod
    def current() -> "Limits":
        return _CURRENT.get()

    def __enter__(self) -> "Limits":
        self._tokens.append(_CURRENT.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _CURRENT.reset(self._tokens.pop())

    def check_poly(self, p) -> None:
        """p a term map, or a ring.Scaled S-element."""
        d = max(map(exp_total, p.terms), default=-1)
        if d > self.max_degree:
            raise ResourceLimit(f"total degree {d} exceeds bound {self.max_degree}")

    def check_size(self, n: int) -> None:
        if n > self.max_basis:
            raise ResourceLimit(f"basis size {n} exceeds bound {self.max_basis}")


DEFAULT_LIMITS = Limits()
_CURRENT: ContextVar[Limits] = ContextVar("limits", default=DEFAULT_LIMITS)


# ---------------------------------------------------------------------------
# division and Buchberger

def normal_form(p: Poly | Scaled, basis: Sequence[Poly] | Divisors,
                order: MonomialOrder) -> Poly:
    """Remainder of p under multivariate division by basis.

    Fractions in and out, integers inside: p is divided by
    ring.reduce_in_place on integer images, and the remainder is the one
    of the division over Q, term for term.  basis is a list of
    polynomials over the context of p (zero elements are dropped), or a
    basis computation's ring.Divisors, which may divide its S-element
    (a ring.Scaled) as p."""
    if not basis:
        return p
    if not isinstance(basis, Divisors):
        basis = Divisors.of(p.ctx, basis, order.key)
    out = Poly(basis.ctx)
    out.terms = remainder(p, basis)
    return out


def remainder(p, divisors: Divisors, terms: Callable = lambda p: p.terms,
              steps: Optional[list] = None) -> Dict:
    """The remainder terms of p (an element with term map terms(p), or a
    ring.Scaled) by divisors under the degree bound in effect, which the
    kernel's DegreeBoundExceeded turns into "total degree D exceeds bound
    M": D is the largest degree left in the work or, for vectors, in its
    first component over the bound."""
    work = p if isinstance(p, Scaled) else integer_image(terms(p))
    rem: Dict = {}
    bound = Limits.current().max_degree
    try:
        reduce_in_place(work, divisors, rem, steps, bound)
    except DegreeBoundExceeded as err:
        over = [m for m in err.monomials if divisors.degree(m) > bound]
        if divisors.divides is _mod_divides:
            first = min(pos for pos, _ in over)
            over = [m for m in over if m[0] == first]
        raise ResourceLimit(f"total degree {max(map(divisors.degree, over))}"
                            f" exceeds bound {bound}") from None
    return rem


def s_pair_multipliers(f, lf: Exp, g, lg: Exp, l: Exp):
    """The S-pair multipliers m_f, m_g: m_f*f and m_g*g are both led by
    1*x^l, l = lcm(lf, lg), each of its operand's own class.  The
    S-element m_f*f - m_g*g itself is formed on integer images
    (ring.s_element); weyl.LeftBasis logs these multipliers."""
    return (type(f).monomial(f.ctx, exp_sub(l, lf), Fraction(1) / f.terms[lf]),
            type(g).monomial(g.ctx, exp_sub(l, lg), Fraction(1) / g.terms[lg]))


class PairQueue:
    """Pending S-pairs of a growing basis, in sugar order.

    Basis elements are registered in index order by add(), each with its
    sugar; each is paired with every earlier element of the same slot (the
    leading position of a module element, 0 for ideals).  A pair (i, j),
    i < j, with l = lcm(lead_i, lead_j) has sugar
    max(sugar_i + |l| - |lead_i|, sugar_j + |l| - |lead_j|).  It is
    keyed once, on entry, and sits on a heap as (sugar, key(l), i, j);
    pop() returns the pending pair with the smallest of these and
    recomputes its lcm rather than storing it.

    Under a graded order (graded true) each element's sugar is taken to
    be |lead|, its degree there, so a pair's sugar is |l|, which already
    leads key(l): the pop order is the normal selection, smallest
    (key(l), i, j) first.  A set of the pending pairs mirrors the heap
    for the chain criterion; pairs leave both only by being popped, so
    the two never disagree.
    """

    __slots__ = ("key", "graded", "lead", "slot", "ecart", "_heap",
                 "_pending")

    def __init__(self, key, graded: bool):
        self.key = key              # MonomialOrder.key of the base order
        self.graded = graded
        self.lead: List[Exp] = []   # leading exponent of each element
        self.slot: List[int] = []
        self.ecart: List[int] = []  # sugar - |lead| of each element
        self._heap: List[Tuple[int, object, int, int]] = []
        self._pending = set()

    def __bool__(self):
        return bool(self._heap)

    def add(self, e: Exp, slot: int, sugar: int) -> None:
        """Register the next basis element by its leading exponent, slot
        and sugar."""
        t = len(self.lead)
        ecart = 0 if self.graded else sugar - exp_total(e)
        key, heap, pending = self.key, self._heap, self._pending
        for k, (ek, sk, ck) in enumerate(zip(self.lead, self.slot,
                                              self.ecart)):
            if sk == slot:
                l = exp_lcm(ek, e)
                heapq.heappush(heap, (exp_total(l) + max(ck, ecart), key(l),
                                      k, t))
                pending.add((k, t))
        self.lead.append(e)
        self.slot.append(slot)
        self.ecart.append(ecart)

    def pop(self) -> Tuple[int, int, Exp, int]:
        """Remove the next pair; return (i, j, lcm of their leads, sugar)."""
        sugar, _, i, j = heapq.heappop(self._heap)
        self._pending.discard((i, j))
        return i, j, exp_lcm(self.lead[i], self.lead[j]), sugar

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


def buchberger(order, firsts: Sequence[Tuple[Exp, int, int]],
               step: Callable, coprime_criterion: bool) -> None:
    """The one Buchberger pair loop, from the (leading exponent, slot,
    degree) of each starting element, in index order; the degree of an
    element is the largest total degree of its terms.

    order is the MonomialOrder of the elements, or the _ModOrder of module
    elements, whose pairs are keyed by its base order on the lcm exponent.
    Pairs are selected by sugar (PairQueue), which is normal selection
    under a graded order.  A starting element's sugar is its degree, and
    a nonzero remainder inherits the sugar of its pair.

    The starting elements count against the basis-size bound in effect
    (Limits.current()) at once.
    A popped pair (i, j) with lcm l is skipped by the chain criterion, or
    by the product criterion when coprime_criterion says it is sound
    (commutative ideals).  Otherwise step(i, j, l) reduces its S-element,
    appends a nonzero remainder to the caller's basis and returns its
    (leading exponent, slot), or None for zero.
    """
    limits = Limits.current()
    base = order.base if isinstance(order, _ModOrder) else order
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


def interreduce(divisors: Divisors,
                divide: Callable) -> List[Tuple[int, Fraction, object]]:
    """The minimal, tail-reduced, monic basis of the Groebner basis whose
    elements are `divisors`, ascending by leading monomial, as triples
    (i, c, g): g is c times the remainder of element i.

    divide(i, rest) returns the remainder of element i by the kept
    elements k in rest.
    """
    leads, keys = divisors.leads, divisors.keys
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
        r = divide(i, [k for k in keep if k != i])
        if r.is_zero():
            continue
        lr = max(r.terms, key=keys.__getitem__)
        inv = Fraction(1) / r.terms[lr]
        out.append((keys[lr], i, inv, r * inv))
    out.sort(key=lambda t: t[0])
    return [(i, inv, g) for _, i, inv, g in out]


def groebner_basis(gens: Sequence[Poly], order: MonomialOrder) -> List[Poly]:
    """Reduced Groebner basis (monic, inter-reduced, sorted by leading
    monomial ascending).  Deterministic for a given generator sequence."""
    limits = Limits.current()
    G: List[Poly] = []
    for g in gens:
        if not g.is_zero():
            limits.check_poly(g)
            G.append(g)
    if not G:
        return []
    divisors = Divisors.of(G[0].ctx, G, order.key)

    def step(i, j, l):
        s = divisors.s_element(i, j, l)
        limits.check_poly(s)
        r = normal_form(s, divisors, order)
        if r.is_zero():
            return None
        limits.check_poly(r)
        G.append(r)
        return divisors.add(r.terms), 0
    buchberger(order, [(e, 0, g.total_degree())
                       for e, g in zip(divisors.leads, G)], step,
               coprime_criterion=True)

    def divide(i, rest):
        if not rest:
            return G[i]
        return normal_form(G[i], divisors.subset(rest), order)
    return [g for _, _, g in interreduce(divisors, divide)]


class IdealHandle:
    """Generators plus a cached reduced Groebner basis under a fixed order,
    computed on first use under the bound then in effect."""

    def __init__(self, gens: Sequence[Poly], order: Optional[MonomialOrder] = None,
                 ctx: Optional[VarContext] = None):
        """ctx, the ambient ring, is needed only when gens is empty."""
        gens = list(gens)
        if ctx is None and not gens:
            raise ValueError("IdealHandle needs a generator or a ctx")
        self.ctx = gens[0].ctx if ctx is None else ctx
        self.gens: List[Poly] = [g for g in gens if not g.is_zero()]
        self.order = order or MonomialOrder.grevlex()
        self._gb: Optional[List[Poly]] = None

    @classmethod
    def zero(cls, ctx: VarContext, order: Optional[MonomialOrder] = None) -> "IdealHandle":
        return cls([], order, ctx)

    def gb(self) -> List[Poly]:
        if self._gb is None:
            self._gb = groebner_basis(self.gens, self.order)
        return self._gb

    def is_zero_ideal(self) -> bool:
        return not self.gb()

    def is_unit_ideal(self) -> bool:
        g = self.gb()
        return len(g) == 1 and g[0].is_constant()

    def contains(self, p: Poly) -> bool:
        return normal_form(p, self.gb(), self.order).is_zero()

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


def eliminate(I: IdealHandle, drop_block: str) -> IdealHandle:
    """Generators of I intersected with the subring without drop_block."""
    ctx = I.ctx
    rest = [b for b, _ in ctx.blocks if b != drop_block]
    if drop_block not in dict(ctx.blocks):
        raise KeyError(f"no block named {drop_block!r}")
    order = MonomialOrder.block(ctx, [drop_block] + rest)
    gb = groebner_basis(I.gens, order)
    dropped = set(ctx.block_indices[drop_block])
    ctx2 = _drop_block_context(ctx, drop_block)
    kept = [g.map_context(ctx2) for g in gb
            if all(all(e[i] == 0 for i in dropped) for e in g.terms)]
    return IdealHandle(kept, ctx=ctx2)


def _with_tag(ctx: VarContext) -> Tuple[VarContext, str]:
    """ctx with one more variable, the tag of intersect and
    radical_membership, alone in a last block _W: named _w, or _w1, _w2,
    ... when ctx already has that name."""
    name, k = "_w", 0
    while name in ctx.index:
        k += 1
        name = f"_w{k}"
    return VarContext(list(ctx.blocks) + [("_W", [name])]), name


def intersect(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """I cap J by the single-tag-variable trick: eliminate w from
    w*I + (1-w)*J."""
    ctx = I.ctx
    ctx2, tag = _with_tag(ctx)
    w = Poly.var(ctx2, tag)
    gens = [w * g.map_context(ctx2) for g in I.gens]
    gens += [(Poly.const(ctx2, 1) - w) * g.map_context(ctx2) for g in J.gens]
    E = eliminate(IdealHandle(gens, ctx=ctx2), "_W")
    return IdealHandle([g.map_context(ctx) for g in E.gens], ctx=ctx)


def ideal_colon(I: IdealHandle, g: Poly) -> IdealHandle:
    """(I : g) = {p : p*g in I}, g nonzero."""
    if g.is_zero():
        raise ValueError("colon by zero")
    C = intersect(I, IdealHandle([g], I.order))
    from .ring import divide_exact
    gens = []
    for h in C.gens:
        q = divide_exact(h, g)
        if q is None:
            raise ArithmeticError("intersection element not divisible in colon")
        if not q.is_zero():
            gens.append(q)
    return IdealHandle(gens, ctx=I.ctx)


def ideal_colon_ideal(I: IdealHandle, J: IdealHandle) -> IdealHandle:
    """(I : J) = intersection of (I : g) over generators g of J."""
    gens = [g for g in J.gens if not g.is_zero()]
    if not gens:
        raise ValueError("colon by zero ideal")
    acc = ideal_colon(I, gens[0])
    for g in gens[1:]:
        acc = intersect(acc, ideal_colon(I, g))
    return acc


def saturate(I: IdealHandle, g: Poly) -> Tuple[IdealHandle, int]:
    """(I : g^inf) by iterating colon to stability; returns (ideal, steps)."""
    steps = 0
    cur = I
    while True:
        nxt = ideal_colon(cur, g)
        if nxt.equals(cur):
            return cur, steps
        cur = nxt
        steps += 1


def radical_membership(p: Poly, I: IdealHandle) -> bool:
    """p in rad(I), by the inverse-tag trick: 1 in I + (1 - w*p)."""
    ctx2, tag = _with_tag(I.ctx)
    w = Poly.var(ctx2, tag)
    gens = [g.map_context(ctx2) for g in I.gens]
    gens.append(Poly.const(ctx2, 1) - w * p.map_context(ctx2))
    return IdealHandle(gens).is_unit_ideal()


def krull_dimension(I: IdealHandle) -> int:
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


class _ModOrder:
    """Module monomial order on (position, exponent).

    Positions below `split` dominate all positions at or above it
    (elimination of the leading components); within a class, compare the
    exponent by the base order, then prefer the smaller position.  It is
    graded when no position comes first and the base order is graded.
    """

    def __init__(self, base: MonomialOrder, split: int = 0):
        self.base = base
        self.split = split
        self.graded = split == 0 and base.graded

    def key(self, m: Tuple[int, Exp]):
        pos, e = m
        cls = 0 if pos < self.split else 1
        return (-cls, self.base.key(e), -pos)


def _mod_divides(lead: Tuple[int, Exp], m: Tuple[int, Exp]) -> bool:
    return lead[0] == m[0] and exp_divides(lead[1], m[1])


def _mod_degree(m: Tuple[int, Exp]) -> int:
    return sum(m[1])


def _vec_terms(v: Vec) -> Dict[Tuple[int, Exp], Fraction]:
    """A vector as one term map over module monomials (position, exponent)."""
    return {(pos, e): c for pos, p in enumerate(v) for e, c in p.terms.items()}


def _vec_ctx(v: Vec) -> tuple:
    """The context of a vector: the tuple of its components' contexts,
    which also fixes its rank."""
    return tuple(p.ctx for p in v)


def _vec_multiple(e: Tuple[int, Exp], lead: Tuple[int, Exp], image: Dict,
                  b: int) -> list:
    """ring.Divisors.multiple for vectors: the terms of
    b*x^(e - lead) * image, the exponents of e and lead."""
    m = exp_sub(e[1], lead[1])
    return [((pos, exp_add(m, ge)), b * c) for (pos, ge), c in image.items()]


def _vec_divisors(ctx, basis: Sequence[Vec], mo: _ModOrder) -> Divisors:
    """The ring.Divisors of the vectors of basis, over ctx (_vec_ctx)."""
    return Divisors.of(ctx, basis, mo.key, _vec_multiple, _mod_divides,
                       _mod_degree,
                       view=lambda v: (_vec_ctx(v), _vec_terms(v)))


def _vec_reduce(v: Vec | Scaled, basis: Sequence[Vec] | Divisors,
                mo: _ModOrder) -> Vec:
    """Full normal form of a vector against a list of vectors.

    Module monomials are (position, exponent) pairs.  As in normal_form,
    v is divided on integer images and the remainder is the one over Q;
    basis is a list of vectors of the rank and context of v, or a module
    basis computation's ring.Divisors, which may divide its S-element (a
    ring.Scaled) as v."""
    if not isinstance(basis, Divisors):
        basis = _vec_divisors(_vec_ctx(v), basis, mo)
    parts = [Poly(ctx) for ctx in basis.ctx]
    for (pos, e), c in remainder(v, basis, _vec_terms).items():
        parts[pos].terms[e] = c
    return tuple(parts)


def _module_gb(vectors: List[Vec], mo: _ModOrder) -> List[Vec]:
    """Groebner basis of the submodule generated by vectors.

    Pairs are formed only between vectors with the same leading position;
    the chain criterion applies, the product criterion does not (it is
    unsound for modules)."""
    G = [v for v in vectors if not _vec_is_zero(v)]
    if not G:
        return []
    divisors = _vec_divisors(_vec_ctx(G[0]), G, mo)

    def step(i, j, l):
        s = divisors.s_element(i, j, (divisors.leads[i][0], l))
        r = _vec_reduce(s, divisors, mo)
        if _vec_is_zero(r):
            return None
        G.append(r)
        pos, e = divisors.add(_vec_terms(r))
        return e, pos
    buchberger(mo, [(e, pos, max(p.total_degree() for p in v))
                    for (pos, e), v in zip(divisors.leads, G)], step,
               coprime_criterion=False)
    return G


def module_contains(vectors: Sequence[Sequence[Poly]], target: Sequence[Poly],
                    order: Optional[MonomialOrder] = None) -> bool:
    """Is `target` in the submodule of R^m generated by `vectors`?"""
    vecs = [tuple(v) for v in vectors if not _vec_is_zero(tuple(v))]
    tgt = tuple(target)
    if _vec_is_zero(tgt):
        return True
    if not vecs:
        return False
    mo = _ModOrder(order or MonomialOrder.grevlex(), split=0)
    return _vec_is_zero(_vec_reduce(tgt, _module_gb(vecs, mo), mo))


def syzygies(vectors: Sequence[Sequence[Poly]],
             order: Optional[MonomialOrder] = None) -> List[Vec]:
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
    G = _module_gb(aug, mo)
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


def graded_free_resolution(M: GradedModulePresentation) -> Resolution:
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
        syz = syzygies(rels)
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
        dim = krull_dimension(IdealHandle([r[0] for r in M.relations],
                                          ctx=ctx))
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
