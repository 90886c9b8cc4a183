"""The Weyl algebra D_n and its central extension D_n[s_1..s_r].

Operators are stored normal-ordered (every x to the left of every d) as a
finite map (x-exponents, d-exponents, s-exponents) -> Fraction, flattened
into one exponent tuple over the context blocks X, DX, S.  The s-variables
are central.  Left Groebner bases use only the chain criterion: the
coprimality (product) criterion is unsound in a noncommutative algebra.
Their S-pairs come from gb.PairQueue, in the same normal-selection order
as the commutative engine (smallest lcm key first, ties by index).  Only
a tracked basis (track=True) carries cofactor rows; an untracked one
builds none.

Elimination orders placing {X, DX} before {S} are admissible here — as is
any global order — because the only nontrivial commutator is d_i x_i -
x_i d_i = 1, whose monomial is strictly smaller than x_i*d_i under every
global order; so leading exponents still add under multiplication.  The
test suite asserts this multiplicativity on randomized pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .ring import (
    Exp, MonomialOrder, Poly, VarContext,
    exp_add, exp_divides, exp_sub, exp_total, divide_exact,
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

    def split(self, e: Exp) -> Tuple[Exp, Exp, Exp]:
        n = self.n
        return e[:n], e[n:2 * n], e[2 * n:]

    def join(self, a: Exp, b: Exp, w: Exp) -> Exp:
        return tuple(a) + tuple(b) + tuple(w)

    def __eq__(self, other):
        return isinstance(other, WeylContext) and self.vc == other.vc

    def __hash__(self):
        return hash(self.vc)


class WeylOp:
    """Normal-ordered element of D_n[s_1..s_r] over Q."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: WeylContext, terms: Optional[Dict[Exp, Fraction]] = None):
        self.ctx = ctx
        self.terms: Dict[Exp, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[e] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: WeylContext) -> "WeylOp":
        return cls(ctx)

    @classmethod
    def const(cls, ctx: WeylContext, c) -> "WeylOp":
        c = Fraction(c)
        return cls(ctx, {(0,) * ctx.nv: c} if c else {})

    @classmethod
    def var(cls, ctx: WeylContext, name: str) -> "WeylOp":
        return cls(ctx, {ctx.vc.var_exp(name): Fraction(1)})

    @classmethod
    def from_poly(cls, ctx: WeylContext, p: Poly) -> "WeylOp":
        """Inject a commutative polynomial in the x (or x,s) variables."""
        out: Dict[Exp, Fraction] = {}
        for e, c in p.terms.items():
            e2 = [0] * ctx.nv
            for i, k in enumerate(e):
                if k:
                    name = p.ctx.names[i]
                    e2[ctx.vc.index[name]] = k
            out[tuple(e2)] = c
        return cls(ctx, out)

    # -- ring structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, WeylOp) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylOp.const(self.ctx, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return WeylOp(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return WeylOp(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeylOp.const(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return WeylOp(self.ctx, {e: k * c for e, k in self.terms.items()} if c else {})
        return weyl_multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int):
        out = WeylOp.const(self.ctx, 1)
        for _ in range(k):
            out = out * self
        return out

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(exp_total(e) for e in self.terms)

    def order(self) -> int:
        """Order in the derivations: max total d-exponent."""
        if not self.terms:
            return -1
        n = self.ctx.n
        return max(sum(e[n:2 * n]) for e in self.terms)

    def leading_exp(self, order: MonomialOrder) -> Exp:
        if not self.terms:
            raise ValueError("zero operator")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_exp(order)]

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
        idx = {name: ctx.vc.index[name] for name in values}
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

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        order = MonomialOrder.grevlex()
        names = self.ctx.vc.names
        parts = []
        for e in order.sort_desc(self.terms):
            c = self.terms[e]
            mono = "*".join(
                names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e) if k
            )
            a = abs(c)
            body = mono if (a == 1 and mono) else (f"{a}*{mono}" if mono else str(a))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"WeylOp({self})"


def _term_product(ctx: WeylContext, e1: Exp, c1: Fraction,
                  e2: Exp, c2: Fraction) -> Dict[Exp, Fraction]:
    """Normal-ordering of (x^a1 d^b1 s^w1)(x^a2 d^b2 s^w2).

    Per variable, d^b x^a = sum_k k! C(b,k) C(a,k) x^(a-k) d^(b-k).
    """
    a1, b1, w1 = ctx.split(e1)
    a2, b2, w2 = ctx.split(e2)
    w = exp_add(w1, w2)
    out: Dict[Exp, Fraction] = {}
    # iterate over contraction multi-indices k with k_i <= min(b1_i, a2_i)
    ranges = [range(min(b, a) + 1) for b, a in zip(b1, a2)]

    def rec(i, k_acc, coef):
        if i == len(ranges):
            a = tuple(x1 + x2 - k for x1, x2, k in zip(a1, a2, k_acc))
            b = tuple(y1 + y2 - k for y1, y2, k in zip(b1, b2, k_acc))
            e = ctx.join(a, b, w)
            s = out.get(e, Fraction(0)) + coef
            if s:
                out[e] = s
            else:
                out.pop(e, None)
            return
        for k in ranges[i]:
            c = coef
            if k:
                c = c * math.comb(b1[i], k) * math.comb(a2[i], k) * math.factorial(k)
            rec(i + 1, k_acc + [k], c)

    rec(0, [], c1 * c2)
    return out


def weyl_multiply(P: WeylOp, Q: WeylOp) -> WeylOp:
    """Normal-ordered product in D_n[S]."""
    ctx = P.ctx
    acc: Dict[Exp, Fraction] = {}
    for e1, c1 in P.terms.items():
        for e2, c2 in Q.terms.items():
            for e, c in _term_product(ctx, e1, c1, e2, c2).items():
                s = acc.get(e, Fraction(0)) + c
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
    return WeylOp(ctx, acc)


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

    def __add__(self, other):
        j = max(self.j, other.j)
        f = self.fspec.f_xs
        a = self.num * f ** (j - self.j)
        b = other.num * f ** (j - other.j)
        return FSElement(self.fspec, a + b, j)

    def __str__(self):
        if self.j == 0:
            return f"({self.num}) * F^S"
        return f"({self.num}) / f^{self.j} * F^S"

    def __repr__(self):
        return f"FSElement({self})"


def apply_to_FS(P: WeylOp, fspec, start: Optional[FSElement] = None) -> FSElement:
    """Apply an operator to F^S (or to a given element) by formal calculus.

    d_i acts on (h/f^j)F^S as
        [d_i(h) f - j h d_i(f) + h * sum_k s_k (d_i f_k)(f/f_k)] / f^(j+1),
    x and s act by multiplication.  P annihilates F^S iff the result is 0.
    """
    ctx = P.ctx
    xs = fspec.xs_vc
    if start is None:
        start = FSElement(fspec, Poly.const(xs, 1), 0)
    total = FSElement(fspec, Poly.zero(xs), 0)
    for e, c in P.terms.items():
        a, b, w = ctx.split(e)
        elt = start
        # s^w first (central, multiplicative)
        mono = Poly.monomial(xs, xs.zero_exp(), c)
        for j, k in enumerate(w):
            if k:
                mono = mono * Poly.var(xs, ctx.s_names[j]) ** k
        elt = FSElement(fspec, elt.num * mono, elt.j)
        # then the derivations
        for i in range(ctx.n):
            for _ in range(b[i]):
                elt = _apply_partial(i, elt, fspec)
        # then multiplication by x^a
        xmono = Poly.const(xs, 1)
        for i, k in enumerate(a):
            if k:
                xmono = xmono * Poly.var(xs, ctx.x_names[i]) ** k
        elt = FSElement(fspec, elt.num * xmono, elt.j)
        total = total + elt
    return total


def _apply_partial(i: int, elt: FSElement, fspec) -> FSElement:
    xs = fspec.xs_vc
    h = elt.num
    xname = fspec.x_names[i]
    f = fspec.f_xs
    dh = h.diff(xname)
    num = dh * f - Fraction(elt.j) * h * fspec.df_xs[i]
    for k in range(fspec.r):
        sk = Poly.var(xs, fspec.s_names[k])
        num = num + sk * fspec.dfk_xs[k][i] * fspec.cofactor_xs[k] * h
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
                     basis_cofactors: Optional[List[List[WeylOp]]] = None) -> WeylOp:
    """Left-division remainder.

    When tracking, every reduction step adds its multiplier (expressed in
    the original generators through basis_cofactors) onto `cofactors` in
    place, so on return
        P = remainder + sum_i (cofactors[i] - initial cofactors[i]) * gen_i.
    Callers seed `cofactors` with zeros to get a plain division expression.
    """
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
            work = work - _left_mono_mul(ctx, m, coef, g)
            if work.total_degree() > limits.max_degree:
                raise ResourceLimit("degree bound exceeded in left normal form")
            if cofactors is not None and basis_cofactors is not None:
                mono = WeylOp(ctx, {m: coef})
                for idx, cof in enumerate(basis_cofactors[hit]):
                    if not cof.is_zero():
                        cofactors[idx] = cofactors[idx] + mono * cof
    return rem


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

    queue = PairQueue(order.key)
    for g in G:
        queue.add(g.leading_exp(order))
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
            r = left_normal_form(s, G, order, limits,
                                 cofactors=negcof, basis_cofactors=C)
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
        queue.add(r.leading_exp(order))

    return _reduce_left_basis(G, C, order, limits)


def _reduce_left_basis(G, C, order, limits):
    """Minimal, tail-reduced, monic basis sorted by leading monomial;
    with cofactor rows C (None when untracked) returns (basis, rows)."""
    # minimalize by leading-monomial divisibility
    lead = [g.leading_exp(order) for g in G]
    keep_idx = []
    for i in range(len(G)):
        li = lead[i]
        drop = False
        for j in range(len(G)):
            if i == j:
                continue
            if exp_divides(lead[j], li) and (lead[j] != li or j < i):
                drop = True
                break
        if not drop:
            keep_idx.append(i)
    G2 = [G[i] for i in keep_idx]
    if C is None:
        out = []
        for i, g in enumerate(G2):
            r = left_normal_form(g, G2[:i] + G2[i + 1:], order, limits)
            if not r.is_zero():
                out.append(r * (Fraction(1) / r.leading_coeff(order)))
        out.sort(key=lambda g: order.key(g.leading_exp(order)))
        return out
    C2 = [C[i] for i in keep_idx]
    # tail-reduce and scale monic
    out, outc = [], []
    for i, g in enumerate(G2):
        rest = G2[:i] + G2[i + 1:]
        restc = C2[:i] + C2[i + 1:]
        delta = [WeylOp.zero(g.ctx) for _ in C2[0]]
        r = left_normal_form(g, rest, order, limits,
                             cofactors=delta, basis_cofactors=restc)
        if r.is_zero():
            continue
        # g = r + sum(delta * originals), so r = sum((C2[i] - delta) * originals)
        cof = [a - b for a, b in zip(C2[i], delta)]
        lc = r.leading_coeff(order)
        inv = Fraction(1) / lc
        out.append(r * inv)
        outc.append([a * inv for a in cof])
    pairs = sorted(zip(out, outc), key=lambda t: order.key(t[0].leading_exp(order)))
    out = [a for a, _ in pairs]
    outc = [b for _, b in pairs]
    return out, outc


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
    """Parse an operator expression; products multiply left to right in the
    noncommutative algebra, so 'dx*x' comes out as x*dx + 1."""
    from .ring import _tokenize

    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(kind=None):
        t = toks[pos[0]]
        if kind and t.kind != kind:
            raise SyntaxError(f"expected {kind} at position {t.pos}")
        pos[0] += 1
        return t

    def atom():
        t = peek()
        if t.kind == "int":
            take()
            num = t.val
            if peek().kind == "/":
                take()
                den = take("int").val
                return WeylOp.const(ctx, Fraction(num, den))
            return WeylOp.const(ctx, num)
        if t.kind == "name":
            take()
            if t.val not in ctx.vc.index:
                from .ring import UnknownVariable
                raise UnknownVariable(f"{t.val!r} at position {t.pos}")
            return WeylOp.var(ctx, t.val)
        if t.kind == "(":
            take()
            p = expr()
            if peek().kind != ")":
                raise SyntaxError(f"expected ')' at position {peek().pos}")
            take()
            return p
        if t.kind == "-":
            take()
            return -atom()
        raise SyntaxError(f"unexpected token {t.val!r} at position {t.pos}")

    def factor():
        p = atom()
        while peek().kind == "^":
            take()
            k = take("int").val
            p = p ** k
        return p

    def term():
        p = factor()
        while peek().kind == "*":
            take()
            p = p * factor()
        return p

    def expr():
        sign = 1
        if peek().kind in "+-":
            if take().kind == "-":
                sign = -1
        p = term() * sign
        while peek().kind in "+-":
            op = take().kind
            q = term()
            p = p + q if op == "+" else p - q
        return p

    p = expr()
    t = peek()
    if t.kind != "end":
        raise SyntaxError(f"unexpected token {t.val!r} at position {t.pos}")
    return p
