"""Commutative Groebner engine over Q and derived ideal queries.

One Buchberger engine serves the ideal and module bases here and the left
bases of weyl.py.  buchberger is the one basis loop: one PairQueue, the
chain criterion, the product criterion where sound, the S-pair step and
one bound policy.  The queue selects by sugar (Giovini, Mora, Niesi,
Robbiano and Traverso, "One sugar cube, please", ISSAC 1991): each pair
is keyed once, and the smallest (sugar, key(lcm), i, j) pops first; under
a graded order a pair's sugar is |lcm|, so selection there is the normal
one.  A basis computation builds one ring.Divisors, its divisor set, and
hands it to buchberger with its kind's module-level normal form;
buchberger forms each S-element on it (Divisors.s_element), divides it by
that normal form, holds generators, S-elements and remainders to the
degree bound and the basis to its size bound, and adds each nonzero
remainder.  It ends once the basis holds a unit, which generates the unit
ideal on its own (module vectors have none).  Basis, on the same
Divisors, is its reduced basis, each element reduced when first read.
Normal forms of polynomials and of module vectors take a list of elements
or a basis loop's Divisors and run on ring.reduce_in_place over integers
through remainder, which also turns the kernel's degree overflow into
ResourceLimit; Fractions go in and come out.  On top of the basis:
membership, elimination, radical membership (by a tag variable), the one
regular-sequence test (is_nonzerodivisor, from the leads of one basis),
Krull dimension via independent variable sets, module syzygies
(extended-basis construction), and graded Betti numbers, read off the
ranks over Q of the constant parts of a graded free resolution by
iterated syzygies, with pdim and a Cohen-Macaulay test by graded
Auslander-Buchsbaum.

No function takes a bound: the degree and basis-size bounds are request
state (ring.Limits, re-exported here), set by `with Limits(max_degree=...,
max_basis=...):` and read by Limits.current() only where they are
enforced (the normal forms, buchberger and the parser's powers) or keyed
(logder.FactorizationSpec.memo).
"""

from __future__ import annotations

import copy
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .arrange import row_reduce
from .ring import (  # noqa: F401 -- the bounds are re-exported from here
    DEFAULT_LIMITS, DegreeBoundExceeded, Divisors, Exp, Limits,
    MonomialOrder, Poly, ResourceLimit, Scaled, VarContext, exp_add,
    exp_divides, exp_lcm, exp_sub, integer_image, reduce_in_place,
)


class NonHomogeneousInput(Exception):
    """A graded operation received non-homogeneous data."""


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


def remainder(p, divisors: Divisors, steps: Optional[list] = None) -> Dict:
    """The remainder terms of p (an element of the kind of divisors, or a
    ring.Scaled) by divisors under the degree bound in effect, which the
    kernel's DegreeBoundExceeded turns into "total degree D exceeds bound
    M": D is the largest degree left in the work or, for vectors, in its
    first component over the bound."""
    work = p if isinstance(p, Scaled) else integer_image(divisors.view(p)[1])
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


class PairQueue:
    """Pending S-pairs of a growing basis, in sugar order.

    Basis elements are registered in index order by add(), each by its
    leading monomial and its sugar, and the monomials are measured by the
    kind's lcm, divides and degree of the computation's ring.Divisors.  Each
    is paired with every earlier element whose lead has a common multiple
    with its own: every one for ideals, those at its position for modules.
    A pair (i, j), i < j, with l = lcm(lead_i, lead_j) has sugar
    max(sugar_i + |l| - |lead_i|, sugar_j + |l| - |lead_j|).  It is keyed
    once, on entry, by the order's pair_key, and sits on a heap as
    (sugar, key(l), i, j); pop() returns the pending pair with the smallest
    of these and recomputes its lcm rather than storing it.

    Under a graded order (graded true) each element's sugar is taken to
    be |lead|, its degree there, so a pair's sugar is |l|, which already
    leads key(l): the pop order is the normal selection, smallest
    (key(l), i, j) first.  A set of the pending pairs mirrors the heap
    for the chain criterion; pairs leave both only by being popped, so
    the two never disagree.
    """

    __slots__ = ("key", "graded", "lcm", "divides", "degree", "lead",
                 "ecart", "_heap", "_pending")

    def __init__(self, divisors: Divisors, order):
        self.key, self.graded = order.pair_key, order.graded
        self.lcm, self.divides, self.degree = (divisors.lcm, divisors.divides,
                                               divisors.degree)
        self.lead: list = []        # leading monomial of each element
        self.ecart: List[int] = []  # sugar - |lead| of each element
        self._heap: List[Tuple[int, object, int, int]] = []
        self._pending = set()

    def __bool__(self):
        return bool(self._heap)

    def add(self, m, sugar: int) -> None:
        """Register the next basis element by its leading monomial and
        sugar."""
        t = len(self.lead)
        ecart = 0 if self.graded else sugar - self.degree(m)
        key, lcm, degree = self.key, self.lcm, self.degree
        heap, pending = self._heap, self._pending
        for k, (mk, ck) in enumerate(zip(self.lead, self.ecart)):
            l = lcm(mk, m)
            if l is not None:
                heapq.heappush(heap, (degree(l) + max(ck, ecart), key(l), k, t))
                pending.add((k, t))
        self.lead.append(m)
        self.ecart.append(ecart)

    def pop(self) -> Tuple[int, int, object, int]:
        """Remove the next pair; return (i, j, lcm of their leads, sugar)."""
        sugar, _, i, j = heapq.heappop(self._heap)
        self._pending.discard((i, j))
        return i, j, self.lcm(self.lead[i], self.lead[j]), sugar

    def chain_skips(self, i: int, j: int, l) -> bool:
        """Chain criterion: some other lead_k divides l and neither (i, k)
        nor (j, k) is still pending."""
        pending, divides = self._pending, self.divides
        for k, mk in enumerate(self.lead):
            if k == i or k == j or not divides(mk, l):
                continue
            if ((min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False


def buchberger(G: list, divisors: Divisors, order, divide: Callable,
               coprime_criterion: bool,
               joined: Optional[Callable] = None) -> None:
    """The one Buchberger loop: extends G, the nonzero starting elements
    (the elements of `divisors`, in order), to a Groebner basis of what
    they generate, under order (a MonomialOrder, or a _ModOrder for module
    elements).  An element's terms are divisors.view(g)[1], and a
    monomial's degree is divisors.degree of it.

    One bound policy, under the Limits in effect, holds for every kind:
    the degree (the largest of its monomials) of each starting element,
    S-element and nonzero remainder, and the basis size, the starting
    elements included.  Pairs are selected by sugar (PairQueue), which is
    normal selection under a graded order; a starting element's sugar is
    its degree, and a nonzero remainder inherits the sugar of its pair.

    A popped pair (i, j) with lcm l is skipped by the chain criterion, or
    by the product criterion when coprime_criterion says it is sound
    (commutative ideals).  Otherwise its S-element (Divisors.s_element)
    is divided by divide(s, divisors, order): the kind's module-level
    normal form, normal_form, _vec_reduce or weyl.left_normal_form, as
    the caller looked it up.  A nonzero remainder joins G and divisors,
    and then joined(i, j, l), if given, may log where it came from.

    The loop ends once G holds a unit (divisors.unit of its lead; a
    starting element, or a remainder just joined), after the checks on
    it: a set that holds a unit is a Groebner basis of the unit ideal, of
    a commutative ideal or a left ideal of the Weyl algebra alike (Becker
    and Weispfenning, Groebner Bases, ch. 5; Kandri-Rody and Weispfenning,
    J. Symbolic Comput. 9, 1990).  Every S-element the loop would still
    form reduces to zero by the unit, so G, and with it the reduced basis
    (Basis: the unit alone) and every log, are the ones of a loop that
    runs on.  Module vectors have no unit and always run to the end.
    """
    limits = Limits.current()
    degree, view, unit = divisors.degree, divisors.view, divisors.unit
    queue = PairQueue(divisors, order)
    for g, m in zip(G, divisors.leads):
        queue.add(m, limits.check_degree(view(g)[1], degree))
    limits.check_size(len(G))
    lead = queue.lead
    if any(map(unit, lead)):
        return
    while queue:
        i, j, l, sugar = queue.pop()
        if ((coprime_criterion and l == exp_add(lead[i], lead[j]))
                or queue.chain_skips(i, j, l)):
            continue
        s = divisors.s_element(i, j, l)
        limits.check_degree(s.terms, degree)
        r = divide(s, divisors, order)
        terms = view(r)[1]
        if not terms:
            continue
        limits.check_degree(terms, degree)
        G.append(r)
        limits.check_size(len(G))
        m = divisors.add(terms)
        queue.add(m, sugar)
        if joined is not None:
            joined(i, j, l)
        if unit(m):
            return


class Basis(Sequence):
    """The reduced Groebner basis (minimal, tail-reduced, monic, ascending
    by leading monomial) of the elements G a basis loop ends with, whose
    ring.Divisors are `divisors`; an element is made when it is first read.

    Its `leads`, the loop's minimal ones (of equal leads the first),
    ascending, are known before any division: tail reduction keeps each.
    Element t is reduce(i, rest), the kind's division of its loop element
    i by the other kept ones in loop order with the log of its steps, made
    monic, under the bound in effect when it is read; once all are made,
    the loop's elements and divisors are let go.  So the leading ideal
    (krull_dimension, a unit that ended the loop) costs no division, and
    an elimination only its part (prefix).
    """

    def __init__(self, G: list, divisors: Divisors, reduce: Callable):
        leads, keys = divisors.leads, divisors.keys
        self.kept = [i for i, li in enumerate(leads)
                     if not any(exp_divides(lj, li) and (lj != li or j < i)
                                for j, lj in enumerate(leads) if j != i)]
        self.index = sorted(self.kept, key=lambda i: keys[leads[i]])
        self.leads = [leads[i] for i in self.index]
        self.G, self.divisors, self._reduce = G, divisors, reduce
        self._made: Dict[int, tuple] = {}

    def __len__(self):
        return len(self.index)

    def __getitem__(self, t):
        if isinstance(t, slice):
            return [self[u] for u in range(*t.indices(len(self)))]
        return self.entry(t)[0]

    def entry(self, t: int) -> tuple:
        """(g, i, c, log): element t is g, c times the remainder of loop
        element i, whose division logged `log`."""
        i = self.index[t]
        if i not in self._made:
            rest = [k for k in self.kept if k != i]
            r, log = self._reduce(i, rest) if rest else (self.G[i], [])
            c = Fraction(1) / r.terms[self.leads[t]]
            self._made[i] = (r * c, i, c, log)
            if len(self._made) == len(self.index):  # all made: free the loop
                self.G = self.divisors = self._reduce = None
        return self._made[i]

    def prefix(self, k: int) -> "Basis":
        """The first k elements as a Basis reduced by its own kept ones:
        the elements of the whole when only their leads divide their
        monomials, as for the part free of a block that an order
        eliminates, which comes first."""
        out = copy.copy(self)
        out.index, out.leads = self.index[:k], self.leads[:k]
        out.kept = [i for i in self.kept if i in out.index]
        out._made = {}
        return out

    def __eq__(self, other):
        if not isinstance(other, (list, Basis)):
            return NotImplemented
        return list(self) == list(other)


def groebner_basis(gens: Sequence[Poly], order: MonomialOrder) -> Basis:
    """The reduced Groebner basis of gens (Basis: each element reduced
    when it is first read) from the one loop.  Deterministic for a given
    generator sequence."""
    G = [g for g in gens if not g.is_zero()]
    divisors = Divisors.of(G[0].ctx if G else None, G, order.key)
    buchberger(G, divisors, order, normal_form, coprime_criterion=True)

    def reduce(i, rest):
        return normal_form(G[i], divisors.subset(rest), order), None
    return Basis(G, divisors, reduce)


class IdealHandle:
    """Generators plus a cached reduced basis (Basis, whose leads the zero
    and unit tests read) under a fixed order, computed on first use under
    the bound then in effect."""

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

    def gb(self) -> Basis:
        if self._gb is None:
            self._gb = groebner_basis(self.gens, self.order)
        return self._gb

    def is_zero_ideal(self) -> bool:
        return not self.gb()

    def is_unit_ideal(self) -> bool:
        return not all(map(any, self.gb().leads))

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
    dropped = ctx.block_indices[drop_block]
    free = gb.prefix(sum(not any(m[i] for i in dropped) for m in gb.leads))
    ctx2 = _drop_block_context(ctx, drop_block)
    return IdealHandle([g.moved(ctx2) for g in free], ctx=ctx2)


def _with_tag(ctx: VarContext) -> Tuple[VarContext, str]:
    """ctx with one more variable, the tag of radical_membership and
    is_nonzerodivisor, alone in a last block _W: named _w, or _w1, _w2,
    ... when ctx already has that name."""
    name, k = "_w", 0
    while name in ctx.index:
        k += 1
        name = f"_w{k}"
    return VarContext(list(ctx.blocks) + [("_W", [name])]), name


def is_nonzerodivisor(I: IdealHandle, g: Poly, weights: Sequence[int]) -> bool:
    """Is g a nonzerodivisor on R/I, (I : g) = I?  I and g must be
    homogeneous for the grading by weights (nonnegative, one per variable),
    g of positive degree, else NonHomogeneousInput; g = 0 is a ValueError.

    t is g when g is a variable, else a tag (_with_tag) of degree deg g,
    and J = I + (t - g), so that R[t]/J is R/I with t acting as g.  Under
    the order by weighted degree, then the smaller power of t, then
    grevlex, in(J : t) = in(J) : t (Bayer and Stillman, Invent. Math. 87,
    1987, Lemma 2.2): g is a nonzerodivisor exactly when no lead of the
    reduced basis of J contains t."""
    if g.is_zero():
        raise ValueError("colon by zero")
    w = tuple(weights)
    for f in I.gens:
        vector_degree((f,), w, (0,))  # homogeneous, or raise
    d = vector_degree((g,), w, (0,))
    if d <= 0:
        raise NonHomogeneousInput(f"{g} has degree {d}, not a positive one")
    e, *more = g.terms
    if not more and sum(e) == 1:
        gens, t = I.gens, e.index(1)
    else:
        ctx, tag = _with_tag(I.ctx)
        gens = [f.moved(ctx) for f in I.gens]
        gens.append(Poly.var(ctx, tag) - g.moved(ctx))
        w, t = w + (d,), ctx.index[tag]
    t_last = MonomialOrder.weighted([-(i == t) for i in range(len(w))])
    leads = groebner_basis(gens, MonomialOrder.weighted(w, t_last)).leads
    return not any(m[t] for m in leads)


def radical_membership(p: Poly, I: IdealHandle) -> bool:
    """p in rad(I), by the inverse-tag trick: 1 in I + (1 - w*p)."""
    ctx2, tag = _with_tag(I.ctx)
    w = Poly.var(ctx2, tag)
    gens = [g.moved(ctx2) for g in I.gens]
    gens.append(Poly.const(ctx2, 1) - w * p.moved(ctx2))
    return IdealHandle(gens).is_unit_ideal()


def krull_dimension(I: IdealHandle) -> int:
    """dim V(I) from the leads of its basis (leads_dimension); -1 for the
    unit ideal."""
    return leads_dimension(I.gb().leads, I.ctx.n)


def leads_dimension(monomials: Sequence[Exp], n: int) -> int:
    """dim V(I), I in n variables with a Groebner basis (any one) led by
    these monomials, via maximal independent variable sets modulo them;
    -1 when one is 1."""
    if not all(map(any, monomials)):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in monomials]
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

    def pair_key(self, m: Tuple[int, Exp]):
        """S-pairs rank by the base order on the exponent of their lcm."""
        return self.base.key(m[1])


def _mod_divides(lead: Tuple[int, Exp], m: Tuple[int, Exp]) -> bool:
    return lead[0] == m[0] and exp_divides(lead[1], m[1])


def _mod_degree(m: Tuple[int, Exp]) -> int:
    return sum(m[1])


def _mod_lcm(a: Tuple[int, Exp], b: Tuple[int, Exp]):
    return (a[0], exp_lcm(a[1], b[1])) if a[0] == b[0] else None


def _mod_unit(m: Tuple[int, Exp]) -> bool:
    """A module has no unit: a constant vector, led by (pos, 0), divides
    only the monomials at pos."""
    return False


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


def _vec_view(v: Vec) -> tuple:
    return _vec_ctx(v), _vec_terms(v)


def _vec_divisors(ctx, basis: Sequence[Vec], mo: _ModOrder) -> Divisors:
    """The ring.Divisors of the vectors of basis, over ctx (_vec_ctx)."""
    return Divisors.of(ctx, basis, mo.key, _vec_multiple, _mod_divides,
                       _mod_degree, _mod_lcm, _vec_view, _mod_unit)


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
    for (pos, e), c in remainder(v, basis).items():
        parts[pos].terms[e] = c
    return tuple(parts)


def _module_gb(vectors: List[Vec], mo: _ModOrder) -> List[Vec]:
    """Groebner basis of the submodule generated by vectors.

    Pairs are formed only between vectors with the same leading position;
    the chain criterion applies, the product criterion does not (it is
    unsound for modules)."""
    G = [v for v in vectors if not _vec_is_zero(v)]
    if G:
        buchberger(G, _vec_divisors(_vec_ctx(G[0]), G, mo), mo, _vec_reduce,
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


def extended_basis(vectors: Sequence[Sequence[Poly]],
                   order: Optional[MonomialOrder] = None) -> List[Vec]:
    """The module Groebner basis of the (v_i, e_i), v_i in R^m and e_i the
    bookkeeping unit vectors, eliminating the first m positions: past m,
    its elements zero there generate syz(v_i); for m = 1 the first
    coordinates of the others are a Groebner basis of (v_i) under order."""
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
    return _module_gb(aug, _ModOrder(order or MonomialOrder.grevlex(), split=m))


def syzygies(vectors: Sequence[Sequence[Poly]],
             order: Optional[MonomialOrder] = None) -> List[Vec]:
    """Generating set of {(a_1..a_k) : sum a_i v_i = 0} for vectors in R^m:
    the members of extended_basis supported in the bookkeeping block."""
    m = len(vectors[0]) if vectors else 0
    return [g[m:] for g in extended_basis(vectors, order)
            if _vec_is_zero(g[:m])]


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
            vector_degree(r, self.weights, self.shifts)  # homogeneous or raise


@dataclass
class Resolution:
    """The graded Betti numbers of M, read off a graded free resolution
    0 <- M <- F_0 <- F_1 <- ... as beta_{i,j} = dim Tor_i(M, Q)_j
    (Eisenbud, The Geometry of Syzygies, GTM 229, ch. 1)."""
    betti: List[List[int]]  # per i: each j, beta_{i,j} times, ascending
    pdim: int
    is_CM: Optional[bool]   # only set for cyclic quotients R/I


def graded_free_resolution(M: GradedModulePresentation) -> Resolution:
    """The graded Betti numbers of M from its resolution by iterated
    syzygies, d_i: F_i -> F_{i-1} with F_0 the ambient module.

    Tensored with Q = R/(variables), d_i keeps only its constant entries,
    and under positive weights a nonzero one joins two basis elements of
    the same degree.  So beta_{i,j} is the number of degree-j basis
    elements of F_i less the ranks over Q of the degree-j constant blocks
    of d_i and d_{i+1}; pdim is the last i with beta_i nonzero.  For a
    cyclic quotient R/I (rank 1, zero shift) the Cohen-Macaulay flag is
    decided by graded Auslander-Buchsbaum: pdim(R/I) = codim(I) iff R/I
    is CM.
    """
    ctx = M.ctx
    degs: List[List[int]] = [list(M.shifts)]  # degrees of the basis of F_i
    ranks = [Counter()]                       # degree -> constant rank of d_i
    rels = [v for v in M.relations if not _vec_is_zero(v)]
    while rels:
        degs.append([vector_degree(v, M.weights, degs[-1]) for v in rels])
        ranks.append(_constant_ranks(rels, degs[-1], degs[-2]))
        rels = [v for v in syzygies(rels) if not _vec_is_zero(v)]
    ranks.append(Counter())
    betti = []
    for i, ds in enumerate(degs):
        count = Counter(ds)
        count.subtract(ranks[i])
        count.subtract(ranks[i + 1])
        betti.append(sorted(count.elements()))
    pdim = max((i for i, b in enumerate(betti) if b), default=0)

    is_cm = None
    if M.rank == 1 and M.shifts == (0,):
        dim = krull_dimension(IdealHandle([r[0] for r in M.relations],
                                          ctx=ctx))
        codim = ctx.n - dim if dim >= 0 else ctx.n
        is_cm = (pdim == codim)
    return Resolution(betti=betti[: pdim + 1], pdim=pdim, is_CM=is_cm)


def _constant_ranks(rows: Sequence[Vec], row_degs: Sequence[int],
                    col_degs: Sequence[int]) -> Counter:
    """Degree j -> the rank over Q of the block of a homogeneous matrix
    whose rows and columns both have degree j: the entries there have
    degree 0, so they are its constants."""
    ranks: Counter = Counter()
    for j in set(row_degs) & set(col_degs):
        cols = [c for c, d in enumerate(col_degs) if d == j]
        block = [[row[c].constant_coeff() for c in cols]
                 for row, d in zip(rows, row_degs) if d == j]
        ranks[j] = len(row_reduce(block, len(cols))[1])
    return ranks
