"""The Weyl algebra D_n and its central extension D_n[s_1..s_r].

Operators are stored normal-ordered (every x to the left of every d) as a
finite map (x-exponents, d-exponents, s-exponents) -> Fraction, flattened
into one exponent tuple over the context blocks X, DX, S.  The s-variables
are central.  WeylOp is a ring.TermMap, like Poly: storage, equality,
+ and -, the scalar product, powers, leading data, printing and the
parser (parse_weyl) are the ones of ring.py.  This module adds only the
normal-ordered product (weyl_multiply) and the x/d/s helpers of WeylOp.
Left Groebner bases run on the one engine of gb.py (gb.buchberger and
gb.interreduce, under the gb.Limits in effect) without the product
criterion, which is unsound in a noncommutative algebra; this module adds
only their step (left S-pair, left normal form) and the left normal form.
That runs on ring.reduce_in_place over integers: each multiple
b x^a d^b s^w * image(g) is normal-ordered term by term straight into the
working term map, and a basis computation shares its one ring.Divisors
(leads, integer images, KeyCache) with every division it makes and forms
its S-elements on it.
No cofactors are carried along: a basis is a LeftBasis, which logs where
each element came from (a generator, or an S-pair and the (k, m, c) steps
of its reduction), and LeftBasis.cofactors rebuilds the combination of the
generators for one element of the ideal afterwards, along only the
elements its division used.

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
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .ring import (
    Divisors, Exp, MonomialOrder, Poly, Scaled, TermMap, VarContext, _Parser,
    add_terms, divide_exact, exp_add, exp_sub,
)
from .gb import Limits, buchberger, interreduce, remainder, s_pair_multipliers


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

    def __repr__(self):
        return f"WeylContext(x={self.x_names}, s={self.s_names})"

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


def _term_product(ctx: WeylContext, e1: Exp, c1, e2: Exp, c2) -> Dict:
    """Normal-ordering of (c1 x^a1 d^b1 s^w1)(c2 x^a2 d^b2 s^w2).

    Per variable, d^b x^a = sum_k k! C(b,k) C(a,k) x^(a-k) d^(b-k).  The
    terms come out in lexicographic order of the multi-index k.  The
    coefficients are c1*c2 times integers: Fractions for weyl_multiply,
    ints for the division kernel.
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


def _left_multiple(ctx: WeylContext, e: Exp, lead: Exp, image: Dict,
                   b: int) -> list:
    """ring.Divisors.multiple for left division, given its context by
    functools.partial: the terms of b*x^(e - lead) * image, normal-ordered
    term by term (a monomial may come more than once)."""
    m = exp_sub(e, lead)
    return [t for ge, gc in image.items()
            for t in _term_product(ctx, m, b, ge, gc).items()]


def _left_divisors(ctx: WeylContext, basis: Sequence[WeylOp],
                   order: MonomialOrder) -> Divisors:
    """The ring.Divisors of the operators of basis, over ctx."""
    return Divisors.of(ctx, basis, order.key, partial(_left_multiple, ctx))


def left_normal_form(P: WeylOp | Scaled, basis: Sequence[WeylOp] | Divisors,
                     order: MonomialOrder,
                     steps: Optional[list] = None) -> WeylOp:
    """Left-division remainder.

    Fractions in and out, integers inside: P is divided by
    ring.reduce_in_place on integer images, and the remainder and the
    steps are those of the division over Q.  basis is a list of operators
    over the context of P (zero elements are dropped), or a basis
    computation's ring.Divisors, which may divide its S-element (a
    ring.Scaled) as P.  Given a list `steps`, each reduction step appends
    its (k, m, c), the multiple c*x^m * basis[k] it took away (m an
    exponent, c a Fraction; k counts the nonzero elements), so that on
    return P = remainder + sum of those multiples; LeftBasis.cofactors
    reads such steps.
    """
    if not isinstance(basis, Divisors):
        basis = _left_divisors(P.ctx, basis, order)
    log = None if steps is None else []
    out = WeylOp(basis.ctx)
    out.terms = remainder(P, basis, steps=log)
    if log:
        leads = basis.leads
        steps.extend((k, exp_sub(e, leads[k]), c) for k, e, c in log)
    return out


class LeftBasis(list):
    """A reduced left Groebner basis (WeylOps ascending by leading
    monomial) with the log of its derivation from `gens`.

    The log has one entry per element computed on the way -- the nonzero
    generators, then each nonzero S-remainder, in the order they joined:
    `origin` holds a generator index or the S-pair (i, j, m_i, m_j) the
    remainder came from, `steps` the (k, m, c) steps of its reduction (k
    an earlier element; c the Fraction of the division over Q, although
    the kernel divides integer images).  Per basis element, `final` holds
    (i, c, steps): the element is c times computed element i less the
    multiples its tail reduction took away.  Every element is thus an
    exact left combination of earlier ones, and cofactors() composes only
    the ones asked for.
    """

    def __init__(self, basis: Sequence[WeylOp], gens: Sequence[WeylOp],
                 origin: list, steps: List[list], final: list):
        super().__init__(basis)
        self.gens = list(gens)
        self.origin = origin
        self.steps = steps
        self.final = final

    def cofactors(self, steps: Sequence[Tuple[int, Exp, Fraction]]
                  ) -> List[WeylOp]:
        """The row q with sum_j q[j] * gens[j] equal to the sum of the
        multiples c*x^m * self[k] that `steps` record; for the steps
        left_normal_form appended while reducing P to zero, that sum is P.

        The multiples on one element are summed into one operator first;
        then the computed elements are expanded once each, latest first,
        into the earlier ones they were made of, so each (element, element
        it uses) costs one weyl_multiply.
        """
        ctx = self.gens[0].ctx
        coef: Dict[int, WeylOp] = {}

        def add(k, q):
            coef[k] = coef[k] + q if k in coef else q
        for t, q in _grouped(ctx, steps).items():
            i, scale, tail = self.final[t]
            q = q * scale
            add(i, q)
            for k, qk in _grouped(ctx, tail).items():
                add(k, -(q * qk))
        row = [WeylOp.zero(ctx) for _ in self.gens]
        for r in range(max(coef, default=-1), -1, -1):
            a = coef.pop(r, None)
            if a is None or a.is_zero():
                continue
            if isinstance(self.origin[r], int):
                row[self.origin[r]] = a
                continue
            i, j, mi, mj = self.origin[r]
            add(i, a * mi)
            add(j, -(a * mj))
            for k, qk in _grouped(ctx, self.steps[r]).items():
                add(k, -(a * qk))
        return row


def _grouped(ctx: WeylContext, steps) -> Dict[int, WeylOp]:
    """The (k, m, c) steps as one operator sum c*x^m per element k."""
    out: Dict[int, WeylOp] = {}
    for k, m, c in steps:
        q = out.get(k)
        if q is None:
            q = out[k] = WeylOp(ctx)
        add_terms(q.terms, ((m, c),))
    return out


def weyl_left_gb(gens: Sequence[WeylOp], order: MonomialOrder) -> LeftBasis:
    """Reduced left Groebner basis of the left ideal generated by gens.

    Only the chain criterion is used; the product criterion is unsound
    here.  The LeftBasis returned also writes any element of the ideal in
    gens (LeftBasis.cofactors).
    """
    gens = list(gens)
    G: List[WeylOp] = []
    origin: list = []
    steps: List[list] = []
    for i, g in enumerate(gens):
        if not g.is_zero():
            G.append(g)
            origin.append(i)
            steps.append([])
    if not G:
        return LeftBasis([], gens, origin, steps, [])

    limits = Limits.current()
    divisors = _left_divisors(G[0].ctx, G, order)
    lead = divisors.leads

    def step(i, j, l):
        s = divisors.s_element(i, j, l)
        log: list = []
        r = left_normal_form(s, divisors, order, steps=log)
        if r.is_zero():
            return None
        limits.check_poly(r)
        G.append(r)
        origin.append((i, j) + s_pair_multipliers(G[i], lead[i], G[j],
                                                  lead[j], l))
        steps.append(log)
        return divisors.add(r.terms), 0
    buchberger(order, [(e, 0, g.total_degree()) for e, g in zip(lead, G)],
               step, coprime_criterion=False)
    # interreduce, logging the steps of each tail reduction over G
    tails: Dict[int, list] = {}

    def divide(i, rest):
        tail: list = []
        r = left_normal_form(G[i], divisors.subset(rest), order, steps=tail)
        tails[i] = [(rest[k], m, c) for k, m, c in tail]
        return r
    out = interreduce(divisors, divide)
    return LeftBasis([g for _, _, g in out], gens, origin, steps,
                     [(i, c, tails[i]) for i, c, _ in out])


class LeftIdeal:
    """Left ideal handle with a cached reduced left basis, computed on
    first use under the bound then in effect."""

    def __init__(self, gens: Sequence[WeylOp], order: MonomialOrder):
        self.gens = [g for g in gens if not g.is_zero()]
        self.order = order
        self._gb: Optional[List[WeylOp]] = None

    def gb(self) -> List[WeylOp]:
        if self._gb is None:
            self._gb = weyl_left_gb(self.gens, self.order)
        return self._gb

    def member(self, P: WeylOp) -> bool:
        return left_normal_form(P, self.gb(), self.order).is_zero()

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
