"""The Weyl algebra D_n and its central extension D_n[s_1..s_r].

Operators are stored normal-ordered (every x to the left of every d) as a
finite map (x-exponents, d-exponents, s-exponents) -> Fraction, flattened
into one exponent tuple over the context blocks X, DX, S.  The s-variables
are central.  WeylOp is a ring.TermMap, like Poly: storage, equality,
+ and -, the scalar product, powers, leading data, printing and the
parser (parse_weyl) are the ones of ring.py.  This module adds only the
normal-ordered product (weyl_multiply) and the x/d/s helpers of WeylOp.
Left Groebner bases use only the chain criterion: the
coprimality (product) criterion is unsound in a noncommutative algebra.
Their S-pairs come from gb.PairQueue, in the same normal-selection order
as the commutative engine (smallest lcm key first, ties by index).  Only
a tracked basis (track=True) carries cofactor rows; an untracked one
builds none.  Left division runs on ring.reduce_in_place: each multiple
x^a d^b s^w * g is normal-ordered term by term straight into the working
term map (and into the cofactor rows when tracking), and a basis
computation shares one KeyCache of order keys and its leading exponents
with every division it makes.

The action on F^S (apply_to_FS) is grouped by derivative pattern: an
operator is sum_b p_b(x, S) d^b, each d^b . F^S is derived once from its
prefix d^(b - e_i), and the p_b-weighted sum is taken over one common
power of f and reduced once, to the canonical FSElement.

Elimination orders placing {X, DX} before {S} are admissible here — as is
any global order — because the only nontrivial commutator is d_i x_i -
x_i d_i = 1, whose monomial is strictly smaller than x_i*d_i under every
global order; so leading exponents still add under multiplication.  The
test suite asserts this multiplicativity on randomized pairs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .ring import (
    DegreeBoundExceeded, Exp, KeyCache, MonomialOrder, Poly, TermMap,
    VarContext, _Parser, add_terms, divide_exact, exp_add, exp_divides,
    exp_sub, reduce_in_place,
)
from .gb import DEFAULT_LIMITS, Limits, PairQueue, ResourceLimit


class FiltrationMismatch(Exception):
    """Operator does not live in the subalgebra the filtration assumes."""


class WeylContext:
    """Variable bookkeeping for D_n[s_1..s_r].

    x_names are the base variables; each gets a partner derivation named
    'd'+name and a commutative dual 'y<i>'.  s-variables are s1..sr (or the
    names passed in).
    """

    def __init__(self, x_names: Sequence[str], s_names: Sequence[str]):
        x_names = list(x_names)
        s_names = list(s_names)
        self.n = len(x_names)
        self.r = len(s_names)
        self.x_names = x_names
        self.dx_names = ["d" + v for v in x_names]
        self.y_names = [f"y{i+1}" for i in range(self.n)]
        self.s_names = s_names
        self.vc = VarContext([("X", x_names), ("DX", self.dx_names), ("S", s_names)])
        # commutative companions
        self.symbol_vc = VarContext([("X", x_names), ("Y", self.y_names), ("S", s_names)])
        self.xs_vc = VarContext([("X", x_names), ("S", s_names)])
        self.x_vc = VarContext([("X", x_names)])
        self.nv = self.vc.n
        # what ring.TermMap reads of a context, taken from vc (self.n is
        # the number of x variables, not of exponent positions)
        self.names = self.vc.names
        self.index = self.vc.index

    def zero_exp(self) -> Exp:
        return self.vc.zero_exp()

    def var_exp(self, name: str) -> Exp:
        return self.vc.var_exp(name)

    def split(self, e: Exp) -> Tuple[Exp, Exp, Exp]:
        n = self.n
        return e[:n], e[n:2 * n], e[2 * n:]

    def join(self, a: Exp, b: Exp, w: Exp) -> Exp:
        return tuple(a) + tuple(b) + tuple(w)

    def __eq__(self, other):
        return isinstance(other, WeylContext) and self.vc == other.vc

    def __hash__(self):
        return hash(self.vc)


class WeylOp(TermMap):
    """Normal-ordered element of D_n[s_1..s_r] over Q.

    A ring.TermMap with the normal-ordered product and the helpers for
    the x, d and s parts of an operator."""

    __slots__ = ()

    @classmethod
    def from_poly(cls, ctx: WeylContext, p: Poly) -> "WeylOp":
        """Inject a commutative polynomial in the x (or x,s) variables."""
        out: Dict[Exp, Fraction] = {}
        for e, c in p.terms.items():
            e2 = [0] * ctx.nv
            for i, k in enumerate(e):
                if k:
                    name = p.ctx.names[i]
                    e2[ctx.index[name]] = k
            out[tuple(e2)] = c
        return cls(ctx, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return weyl_multiply(self, other)

    def order(self) -> int:
        """Order in the derivations: max total d-exponent."""
        if not self.terms:
            return -1
        n = self.ctx.n
        return max(sum(e[n:2 * n]) for e in self.terms)

    def s_free(self) -> bool:
        n = self.ctx.n
        return all(all(x == 0 for x in e[2 * n:]) for e in self.terms)

    def xd_free(self) -> bool:
        n = self.ctx.n
        return all(all(x == 0 for x in e[:2 * n]) for e in self.terms)

    def s_polynomial_part(self) -> Poly:
        """Reinterpret an operator with no x,d content as a Poly in S."""
        if not self.xd_free():
            raise ValueError("operator involves x or d variables")
        ctx = VarContext([("S", self.ctx.s_names)])
        out = {}
        n = self.ctx.n
        for e, c in self.terms.items():
            out[e[2 * n:]] = c
        return Poly(ctx, out)

    # -- substitution in the central variables -----------------------------

    def subs_s(self, values: Dict[str, Fraction]) -> "WeylOp":
        """Evaluate some s-variables at rational constants."""
        ctx = self.ctx
        out = WeylOp.zero(ctx)
        idx = {name: ctx.index[name] for name in values}
        for e, c in self.terms.items():
            coef = c
            e2 = list(e)
            for name, v in values.items():
                i = idx[name]
                if e2[i]:
                    coef *= Fraction(v) ** e2[i]
                    e2[i] = 0
            out = out + WeylOp(ctx, {tuple(e2): coef})
        return out

    def shift_s(self, amounts: Dict[str, Fraction]) -> "WeylOp":
        """Substitute s -> s + amount for the named s-variables."""
        ctx = self.ctx
        out = WeylOp.zero(ctx)
        for e, c in self.terms.items():
            term = WeylOp(ctx, {self._strip_s(e): c})
            n = ctx.n
            for j, name in enumerate(ctx.s_names):
                k = e[2 * n + j]
                if not k:
                    continue
                sv = WeylOp.var(ctx, name)
                base = sv + Fraction(amounts.get(name, 0))
                term = term * base ** k
            out = out + term
        return out

    def _strip_s(self, e: Exp) -> Exp:
        n = self.ctx.n
        return e[:2 * n] + (0,) * self.ctx.r

    def drop_s_context(self) -> "WeylOp":
        """Move an s-free operator into the r=0 context (plain D_n)."""
        if not self.s_free():
            raise ValueError("operator still involves s")
        ctx0 = WeylContext(self.ctx.x_names, [])
        n = self.ctx.n
        return WeylOp(ctx0, {e[:2 * n]: c for e, c in self.terms.items()})


def _term_product(ctx: WeylContext, e1: Exp, c1: Fraction,
                  e2: Exp, c2: Fraction) -> Dict[Exp, Fraction]:
    """Normal-ordering of (x^a1 d^b1 s^w1)(x^a2 d^b2 s^w2).

    Per variable, d^b x^a = sum_k k! C(b,k) C(a,k) x^(a-k) d^(b-k).  The
    terms come out in lexicographic order of the multi-index k.
    """
    n = ctx.n
    e = exp_add(e1, e2)
    c = c1 * c2
    # the variables where a d on the left meets an x on the right
    meets = [i for i in range(n) if e1[n + i] and e2[i]]
    if not meets:
        return {e: c}
    out: Dict[Exp, Fraction] = {}
    for ks in itertools.product(*(range(min(e1[n + i], e2[i]) + 1)
                                  for i in meets)):
        ek = list(e)
        f = 1
        for i, k in zip(meets, ks):
            if k:
                ek[i] -= k
                ek[n + i] -= k
                f *= math.comb(e1[n + i], k) * math.comb(e2[i], k) \
                    * math.factorial(k)
        out[tuple(ek)] = c * f
    return out


def _mono_times(ctx: WeylContext, e1: Exp, c1: Fraction,
                Q: Dict[Exp, Fraction]) -> Dict[Exp, Fraction]:
    """The terms of (c1 * x^a d^b s^w) * Q, for e1 = (a, b, w)."""
    acc: Dict[Exp, Fraction] = {}
    for e2, c2 in Q.items():
        add_terms(acc, _term_product(ctx, e1, c1, e2, c2).items())
    return acc


def weyl_multiply(P: WeylOp, Q: WeylOp) -> WeylOp:
    """Normal-ordered product in D_n[S]."""
    acc: Dict[Exp, Fraction] = {}
    for e1, c1 in P.terms.items():
        for e2, c2 in Q.terms.items():
            add_terms(acc, _term_product(P.ctx, e1, c1, e2, c2).items())
    out = WeylOp(P.ctx)
    out.terms = acc
    return out


# ---------------------------------------------------------------------------
# filtration symbols


def gr_symbol(P: WeylOp, filtration: str) -> Poly:
    """Top-weight part of P with d_i replaced by the commutative dual y_i.

    filtration "(0,1)" (x 0, d 1; requires an s-free operator) or
    "(0,1,1)" (x 0, d 1, s 1).  Returns a Poly over the symbol context.
    """
    ctx = P.ctx
    if filtration == "(0,1)":
        if not P.s_free():
            raise FiltrationMismatch("(0,1) filtration needs an s-free operator")
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
            # identical block layout: X, DX->Y, S
            out = out + Poly.monomial(ctx.symbol_vc, e, c)
    return out


# ---------------------------------------------------------------------------
# the action on F^S


class FSElement:
    """(numerator / f^j) * F^S with numerator in Q[x, S], reduced so that
    f does not divide the numerator while j > 0."""

    __slots__ = ("fspec", "num", "j")

    def __init__(self, fspec, num: Poly, j: int = 0):
        self.fspec = fspec
        self.num = num
        self.j = j
        self._reduce()

    def _reduce(self):
        if self.num.is_zero():
            self.j = 0
            return
        f = self.fspec.f_xs
        while self.j > 0:
            q = divide_exact(self.num, f)
            if q is None:
                break
            self.num = q
            self.j -= 1

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, FSElement) and self.j == other.j
                and self.num == other.num)

    def __str__(self):
        if self.j == 0:
            return f"({self.num}) * F^S"
        return f"({self.num}) / f^{self.j} * F^S"

    def __repr__(self):
        return f"FSElement({self})"


def apply_to_FS(P: WeylOp, fspec, start: Optional[FSElement] = None) -> FSElement:
    """Apply an operator to F^S (or to a given element) by formal calculus.

    d_i acts on (h/f^j)F^S as
        [d_i(h) f - j h d_i(f) + h L_i] / f^(j+1),
        L_i = sum_k s_k (d_i f_k)(f/f_k),
    x and s act by multiplication.  P is evaluated by derivative pattern:
    P = sum_b p_b(x, S) d^b exactly (s is central; x^a acts after d^b), so
    each d^b . start is made once, as d_i applied to the memoized
    d^(b - e_i) . start (i the last index with b_i > 0), and each L_i once
    per call.  sum_b p_b num_b / f^(j_b) is then put over the one
    denominator f^J, J = max j_b, and reduced once: the reduced numerator
    with the least pole order is unique, so the result is the canonical
    FSElement a term-by-term sum would give.  P annihilates F^S iff the
    result is 0.
    """
    n = P.ctx.n
    xs = fspec.xs_vc
    if start is None:
        start = FSElement(fspec, Poly.const(xs, 1), 0)
    # p_b as a term map over Q[x, S]: x^a d^b s^w contributes x^a s^w
    patterns: Dict[Exp, Dict[Exp, Fraction]] = {}
    for e, c in P.terms.items():
        patterns.setdefault(e[n:2 * n], {})[e[:n] + e[2 * n:]] = c
    derived = {(0,) * n: start}
    logs: Dict[int, Poly] = {}

    def derivative(b: Exp) -> FSElement:
        elt = derived.get(b)
        if elt is None:
            i = max(k for k in range(n) if b[k])
            if i not in logs:
                logs[i] = _log_numerator(i, fspec)
            prev = derivative(b[:i] + (b[i] - 1,) + b[i + 1:])
            elt = derived[b] = _apply_partial(i, prev, fspec, logs[i])
        return elt

    # sum_b p_b num_b, grouped by the pole order j_b of d^b . start
    by_pole: Dict[int, Dict[Exp, Fraction]] = {}
    for b, pb in patterns.items():
        elt = derivative(b)
        if elt.is_zero():
            continue
        p = Poly(xs)
        p.terms = pb
        add_terms(by_pole.setdefault(elt.j, {}), (p * elt.num).terms.items())
    # over f^J: sum_j (part_j) f^(J - j), Horner in f
    J = max(by_pole, default=0)
    num = Poly.zero(xs)
    for j in range(J + 1):
        num = num * fspec.f_xs
        if by_pole.get(j):
            add_terms(num.terms, by_pole[j].items())
    return FSElement(fspec, num, J)


def _log_numerator(i: int, fspec) -> Poly:
    """L_i = sum_k s_k (d_i f_k)(f/f_k): d_i(F^S) = (L_i / f) F^S."""
    xs = fspec.xs_vc
    out = Poly.zero(xs)
    for k in range(fspec.r):
        sk = Poly.var(xs, fspec.s_names[k])
        out = out + sk * fspec.dfk_xs[k][i] * fspec.cofactor_xs[k]
    return out


def _apply_partial(i: int, elt: FSElement, fspec, log_num: Poly) -> FSElement:
    """d_i . (h/f^j)F^S, given L_i = _log_numerator(i, fspec)."""
    h = elt.num
    num = h.diff(fspec.x_names[i]) * fspec.f_xs + h * log_num
    if elt.j:
        num = num - h * fspec.df_xs[i] * elt.j
    return FSElement(fspec, num, elt.j + 1)


# ---------------------------------------------------------------------------
# transpose


def transpose_tau(P: WeylOp) -> WeylOp:
    """tau(x^a d^b s^w) = (-d)^b x^a s^w, normal-ordered.

    An involutive anti-automorphism of D_n[S] fixing every s."""
    ctx = P.ctx
    out = WeylOp.zero(ctx)
    for e, c in P.terms.items():
        a, b, w = ctx.split(e)
        sign = (-1) ** sum(b)
        db = WeylOp(ctx, {ctx.join((0,) * ctx.n, b, (0,) * ctx.r): Fraction(1)})
        xa = WeylOp(ctx, {ctx.join(a, (0,) * ctx.n, w): Fraction(sign) * c})
        out = out + db * xa
    return out


# ---------------------------------------------------------------------------
# left Groebner bases


def _left_mono_mul(ctx: WeylContext, m: Exp, c: Fraction, P: WeylOp) -> WeylOp:
    return weyl_multiply(WeylOp(ctx, {m: c}), P)


def left_normal_form(P: WeylOp, basis: Sequence[WeylOp], order: MonomialOrder,
                     limits: Limits = DEFAULT_LIMITS,
                     cofactors: Optional[List[WeylOp]] = None,
                     basis_cofactors: Optional[List[List[WeylOp]]] = None,
                     leads: Optional[Sequence[Exp]] = None,
                     keys: Optional[KeyCache] = None) -> WeylOp:
    """Left-division remainder.

    When tracking, every reduction step adds its multiplier (expressed in
    the original generators through basis_cofactors) onto `cofactors` in
    place, so on return
        P = remainder + sum_i (cofactors[i] - initial cofactors[i]) * gen_i.
    Callers seed `cofactors` with zeros to get a plain division expression.
    A basis computation passes the leading exponents of its (nonzero)
    basis elements as `leads` and its KeyCache as `keys`; without them,
    zero elements are dropped and the leads are found here.
    """
    ctx = P.ctx
    if keys is None:
        keys = KeyCache(order.key)
    if leads is None:
        basis = [g for g in basis if g.terms]
        leads = [max(g.terms, key=keys.__getitem__) for g in basis]
    track = cofactors is not None and basis_cofactors is not None
    rows = [dict(c.terms) for c in cofactors] if track else None

    def multiple(k, e, c):
        # x^a d^b s^w * g, normal-ordered term by term
        g, lead = basis[k].terms, leads[k]
        m, coef = exp_sub(e, lead), c / g[lead]
        if track:
            for row, cof in zip(rows, basis_cofactors[k]):
                add_terms(row, _mono_times(ctx, m, coef, cof.terms).items())
        return [t for ge, gc in g.items()
                for t in _term_product(ctx, m, coef, ge, gc).items()]
    work = dict(P.terms)
    rem: Dict[Exp, Fraction] = {}
    try:
        reduce_in_place(work, leads, keys, multiple, rem, limits.max_degree)
    except DegreeBoundExceeded:
        raise ResourceLimit("degree bound exceeded in left normal form") from None
    if track:
        for idx, row in enumerate(rows):
            cofactors[idx] = WeylOp(ctx)
            cofactors[idx].terms = row
    out = WeylOp(ctx)
    out.terms = rem
    return out


def weyl_left_gb(gens: Sequence[WeylOp], order: MonomialOrder,
                 limits: Limits = DEFAULT_LIMITS,
                 track: bool = False):
    """Reduced left Groebner basis of the left ideal generated by gens.

    Only the chain criterion is used; the product criterion is unsound
    here.  With track=True returns (basis, cofactors) where
    basis[i] = sum_j cofactors[i][j] * gens[j].
    """
    ctx = gens[0].ctx if gens else None
    G: List[WeylOp] = []
    # cofactor rows, one per element of G, kept only when tracking
    C: Optional[List[List[WeylOp]]] = [] if track else None
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
    queue = PairQueue(order.key)
    for g in G:
        queue.add(max(g.terms, key=leading))
    lead = queue.lead
    while queue:
        i, j, l = queue.pop()
        if queue.chain_skips(i, j, l):
            continue
        mi, mj = exp_sub(l, lead[i]), exp_sub(l, lead[j])
        ci = Fraction(1) / G[i].terms[lead[i]]
        cj = Fraction(1) / G[j].terms[lead[j]]
        s = _left_mono_mul(ctx, mi, ci, G[i]) - _left_mono_mul(ctx, mj, cj, G[j])
        if track:
            cof = [WeylOp(ctx, {mi: ci}) * a - WeylOp(ctx, {mj: cj}) * b
                   for a, b in zip(C[i], C[j])]
            negcof = [-a for a in cof]
            r = left_normal_form(s, G, order, limits, cofactors=negcof,
                                 basis_cofactors=C, leads=lead, keys=keys)
        else:
            r = left_normal_form(s, G, order, limits, leads=lead, keys=keys)
        if r.is_zero():
            continue
        if r.total_degree() > limits.max_degree:
            raise ResourceLimit("degree bound exceeded in left basis")
        G.append(r)
        if track:
            C.append([-a for a in negcof])
        if len(G) > limits.max_basis:
            raise ResourceLimit("basis size bound exceeded")
        queue.add(max(r.terms, key=leading))

    return _reduce_left_basis(G, C, order, limits, lead, keys)


def _reduce_left_basis(G, C, order, limits, leads=None, keys=None):
    """Minimal, tail-reduced, monic basis sorted by leading monomial;
    with cofactor rows C (None when untracked) returns (basis, rows).
    A basis computation passes its leads and KeyCache as in
    left_normal_form."""
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
        rest_g, rest_l = [G[k] for k in rest], [leads[k] for k in rest]
        if C is None:
            r = left_normal_form(G[i], rest_g, order, limits,
                                 leads=rest_l, keys=keys)
        else:
            delta = [WeylOp.zero(G[i].ctx) for _ in C[i]]
            r = left_normal_form(G[i], rest_g, order, limits,
                                 cofactors=delta,
                                 basis_cofactors=[C[k] for k in rest],
                                 leads=rest_l, keys=keys)
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


class LeftIdeal:
    """Left ideal handle with a cached reduced left basis."""

    def __init__(self, gens: Sequence[WeylOp], order: MonomialOrder,
                 limits: Limits = DEFAULT_LIMITS):
        self.gens = [g for g in gens if not g.is_zero()]
        self.order = order
        self.limits = limits
        self._gb: Optional[List[WeylOp]] = None

    def gb(self) -> List[WeylOp]:
        if self._gb is None:
            self._gb = weyl_left_gb(self.gens, self.order, self.limits)
        return self._gb

    def member(self, P: WeylOp) -> bool:
        return left_normal_form(P, self.gb(), self.order, self.limits).is_zero()

    def contains_one(self) -> bool:
        g = self.gb()
        return len(g) == 1 and not g[0].is_zero() and g[0].total_degree() == 0


# ---------------------------------------------------------------------------
# parsing (useful in tests and the CLI)


def parse_weyl(text: str, ctx: WeylContext) -> WeylOp:
    """Parse an operator expression in the grammar of ring.parse_poly;
    products multiply left to right in the noncommutative algebra, so
    'dx*x' comes out as x*dx + 1."""
    return _Parser(text, ctx, WeylOp).parse()
