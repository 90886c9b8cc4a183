"""The Weyl algebra D_n and its central extension D_n[s_1..s_r].

Operators are stored normal-ordered (every x to the left of every d) as a
finite map (x-exponents, d-exponents, s-exponents) -> Fraction, flattened
into one exponent tuple over the context blocks X, DX, S.  The s-variables
are central.  WeylOp is a ring.TermMap, like Poly: storage, equality,
+ and -, the scalar product, powers, leading data, printing and the
parser (parse_weyl) are the ones of ring.py, and so are the passages to
other contexts (TermMap.moved) and the substitution of the central
s-variables (TermMap.subs).  This module adds only the normal-ordered
product (weyl_multiply) and the x/d/s helpers of WeylOp.
Left Groebner bases run on the one basis loop of gb.py (gb.buchberger and
gb.Basis, under the gb.Limits in effect) without the product
criterion, which is unsound in a noncommutative algebra; this module adds
only the left normal form they divide by and the log of each remainder's
origin.  The left normal form runs on ring.reduce_in_place over integers:
each multiple b x^a d^c s^w * image(g) is the normal-ordered d^c * image(g),
formed once per computation, shifted by x^a s^w and scaled by b, and a
basis computation shares its one ring.Divisors (leads, integer images,
KeyCache, those d^c * image(g)) with every division it makes.
No cofactors are carried along: a basis is a LeftBasis, which logs where
each element came from and keeps its lead and leading coefficient.  The
log is integral: a generator index, or an S-pair (i, j, l), and the
(k, m, p, q) steps of its reduction, each the multiple (p/q)*x^m of
element k it took away, as the two integers the kernel has at hand.
LeftBasis.cofactors rebuilds the combination of the generators for one
element of the ideal afterwards, along only the elements its division
used, on integer operators with one rational scale each, and returns a
Row whose entries are multiplied out when first read: a caller pays only
for the entries it reads.

The action on F^S (apply_to_FS) is grouped by derivative pattern and
runs on integer images: an operator is sum_b p_b(x, S) d^b, and each
d^b . F^S is derived once from its prefix d^(b - e_i) as sigma*N/F^j, with
F the primitive integer image of f, N an integer term map and sigma one
Fraction.  Every exact division by F is over Z (ring.exact_quotient: by
Gauss's lemma the quotient by a primitive polynomial is integral), the
p_b-weighted sum is taken over one power of F at one scale, and only the
reduced sum becomes a Fraction polynomial, the canonical FSElement.

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
from functools import cached_property, partial
from typing import Dict, List, Optional, Sequence, Tuple

from .ring import (
    Divisors, Exp, MonomialOrder, Poly, Scaled, TermMap, VarContext, _Parser,
    add_product, add_terms, diff_terms, divide_exact, exact_quotient, exp_add,
    exp_sub, initial_form, integer_image,
)
from .gb import Basis, buchberger, remainder


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

    @cached_property
    def plain(self) -> "WeylContext":
        """The context of plain D_n over the same x variables (r = 0),
        built once per context: every operator moved out of the
        s-variables shares it."""
        return WeylContext(self.x_names, []) if self.r else self

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

    def subs(self, assignment: Dict[str, object]) -> "WeylOp":
        """TermMap.subs for the central s-variables only, by operators in
        them (or scalars): its powers are commutative products."""
        for v, val in assignment.items():
            if v not in self.ctx.s_names or not (
                    isinstance(val, (int, Fraction)) or val.xd_free()):
                raise ValueError(f"only the central s-variables can be "
                                 f"substituted, by polynomials in them: {v}")
        return super().subs(assignment)


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
    if filtration not in ("(0,1)", "(0,1,1)"):
        raise FiltrationMismatch(f"unknown filtration {filtration!r}")
    if filtration == "(0,1)" and not P.s_free():
        raise FiltrationMismatch("(0,1) filtration needs an s-free operator")
    # X, DX and S sit where X, Y and S sit in symbol_vc, whose gradings
    # are named like the filtrations
    sym = P.moved(P.ctx.symbol_vc, Poly, where=range(P.ctx.nv))
    return initial_form(sym, filtration)


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
    each d^b . start is made once, by _partial from the memoized
    d^(b - e_i) . start (i the last index with b_i > 0).

    The work is over Z.  With f = tau*F, F its primitive integer image,
    every element is sigma*N/F^j: N an integer term map and sigma one
    Fraction.  L_i/tau is imaged once per call, and each exact division by
    F runs over Z (ring.exact_quotient; by Gauss's lemma the quotient of a
    division by F is integral).  sum_b p_b N_b sigma_b / F^(j_b) is put
    over F^J, J = max j_b, at one common scale and reduced, and only then
    made a Fraction polynomial, numerator sigma*tau^J*N: the reduced
    numerator with the least pole order is unique, so the result is the
    canonical FSElement a term-by-term sum over Q would give.  P
    annihilates F^S iff the result is 0.
    """
    n = P.ctx.n
    xs = fspec.xs_vc
    f = Divisors.of(xs, [fspec.f_xs], MonomialOrder.grevlex().key)
    tau = f.images[0].scale
    if start is None:
        start = FSElement(fspec, Poly.const(xs, 1), 0)
    N, sigma = integer_image(start.num.terms)
    # p_b as a term map over Q[x, S]: x^a d^b s^w contributes x^a s^w
    patterns: Dict[Exp, Dict[Exp, Fraction]] = {}
    for e, c in P.terms.items():
        patterns.setdefault(e[n:2 * n], {})[e[:n] + e[2 * n:]] = c
    derived = {(0,) * n: (N, sigma / tau ** start.j, start.j)}
    logs: Dict[int, tuple] = {}

    def derivative(b: Exp) -> tuple:
        elt = derived.get(b)
        if elt is None:
            i = max(k for k in range(n) if b[k])
            if i not in logs:
                logs[i] = _log_image(i, fspec, f)
            prev = derivative(b[:i] + (b[i] - 1,) + b[i + 1:])
            elt = derived[b] = _partial(i, prev, f, logs[i])
        return elt

    # the terms p_b N_b at scale sigma_b, grouped by the pole order j_b
    parts = []
    for b, pb in patterns.items():
        N, sigma, j = derivative(b)
        if N:
            pb, t = integer_image(pb)
            parts.append((j, pb, N, sigma * t))
    # over F^J at the one scale g/d: Horner in F over the pole orders
    g = math.gcd(*(s.numerator for *_, s in parts))
    d = math.lcm(*(s.denominator for *_, s in parts))
    F = f.images[0].terms
    J = max((j for j, *_ in parts), default=0)
    work: Dict[Exp, int] = {}
    for j in range(J + 1):
        if work:
            work = add_product({}, work, F)
        for _, pb, N, s in (part for part in parts if part[0] == j):
            m = s.numerator // g * (d // s.denominator)
            add_product(work, {e: m * c for e, c in pb.items()}, N)
    N, sigma, J = _reduced(work, Fraction(g, d), J, f)
    c = sigma * tau ** J
    out = Poly(xs)
    out.terms = {e: c * v for e, v in N.items()}
    return FSElement(fspec, out, J)


def _log_image(i: int, fspec, f: Divisors) -> tuple:
    """(q, pL, dF) for d_i: L_i/tau = (p/q)*L in lowest terms, L the
    primitive integer image of L_i = sum_k s_k (d_i f_k)(f/f_k), so that
    d_i(F^S) = (L_i / f) F^S; pL = p*L, and dF = d_i F for f = tau*F."""
    xs = fspec.xs_vc
    L: Dict[Exp, Fraction] = {}
    for k in range(fspec.r):
        sk = {xs.var_exp(fspec.s_names[k]): 1}
        add_product(L, add_product({}, sk, fspec.dfk_xs[k][i].terms),
                     fspec.cofactor_xs[k].terms)
    F, tau = f.images[0]
    p = q = 1
    if L:
        L, t = integer_image(L)
        t /= tau
        p, q = t.numerator, t.denominator
    return q, {e: p * c for e, c in L.items()}, diff_terms(F, i)


def _partial(i: int, elt: tuple, f: Divisors, log: tuple) -> tuple:
    """d_i . (sigma*N/F^j) F^S as the reduced (N', sigma', j'), given
    log = _log_image(i, ...) = (q, p*L, d_i F):
        N' = q*(d_i(N) F - j N d_i(F)) + p N L over F^(j+1), at scale
    sigma/q, before F is divided out."""
    N, sigma, j = elt
    if not N:
        return elt
    q, pL, dF = log
    out = add_product({}, diff_terms(N, i, q), f.images[0].terms)
    if j:
        add_product(out, N, {e: -q * j * c for e, c in dF.items()})
    add_product(out, N, pL)
    return _reduced(out, sigma / q, j + 1, f)


def _reduced(N: Dict, sigma: Fraction, j: int, f: Divisors) -> tuple:
    """sigma*N/F^j as (N', sigma', j') with N' primitive and, while j' > 0,
    not divisible by F; the zero element is ({}, sigma, 0)."""
    if not N:
        return N, sigma, 0
    N, c = integer_image(N)
    sigma *= c
    while j:
        q = exact_quotient(dict(N), f)
        if q is None:
            break
        N, j = q, j - 1
    return N, sigma, j


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


def _left_multiple(ctx: WeylContext, known: Dict, e: Exp, lead: Exp,
                   image: Dict, b: int) -> list:
    """ring.Divisors.multiple for left division, given its context and the
    multiples `known` of one computation by functools.partial: the terms
    of b*x^(e - lead) * image.  With x^(e - lead) = x^a d^c s^w, the
    normal-ordered d^c * image is formed on its first use, term by term (a
    monomial may come more than once; only an image term with an x where
    d^c has a d needs _term_product), and kept in `known`.  The multiple
    is that list shifted by (a, 0, w) and scaled by b, with no reordering:
    x^a sits on the left and s is central."""
    m = exp_sub(e, lead)
    n = ctx.n
    c = m[n:2 * n]
    if not any(c):
        return [(exp_add(m, ge), b * gc) for ge, gc in image.items()]
    hit = known.get((id(image), c))
    if hit is None:
        d = (0,) * n + c + (0,) * ctx.r
        meets = [i for i in range(n) if c[i]]
        terms = []
        for ge, gc in image.items():
            if any(ge[i] for i in meets):
                terms.extend(_term_product(ctx, d, 1, ge, gc).items())
            else:
                terms.append((exp_add(d, ge), gc))
        # the entry holds the image, so its id is not reused while known lives
        hit = known[id(image), c] = image, terms
    m = m[:n] + (0,) * n + m[2 * n:]
    if not any(m):
        return [(ge, b * gc) for ge, gc in hit[1]]
    return [(exp_add(m, ge), b * gc) for ge, gc in hit[1]]


def _left_divisors(ctx: WeylContext, basis: Sequence[WeylOp],
                   order: MonomialOrder) -> Divisors:
    """The ring.Divisors of the operators of basis, over ctx, with the
    multiples d^c * image of their own computation (_left_multiple)."""
    return Divisors.of(ctx, basis, order.key, partial(_left_multiple, ctx, {}))


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
    its (k, m, p, q): it took away the multiple (p/q)*x^m * basis[k] (m an
    exponent; p and q > 0 the integers the kernel logs, not in lowest
    terms; k counts the nonzero elements), so that on return P =
    remainder + sum of those multiples; LeftBasis.cofactors reads such
    steps.
    """
    if not isinstance(basis, Divisors):
        basis = _left_divisors(P.ctx, basis, order)
    log = None if steps is None else []
    out = WeylOp(basis.ctx)
    out.terms = remainder(P, basis, steps=log)
    if log:
        leads = basis.leads
        steps.extend((k, exp_sub(e, leads[k]), p, q) for k, e, p, q in log)
    return out


class LeftBasis(Basis):
    """A reduced left Groebner basis (a gb.Basis of WeylOps) with the log
    of its derivation from `gens`.

    The log has one entry per element computed on the way -- the nonzero
    generators, then each nonzero S-remainder, in the order they joined:
    `lead` and `lc` hold its leading monomial and leading coefficient,
    `origin` a generator index or the S-pair (i, j, l) the remainder came
    from, l the lcm of lead[i] and lead[j], so that its S-element was
    x^(l - lead[i]) * g_i / lc[i] - x^(l - lead[j]) * g_j / lc[j], and
    `steps` the (k, m, p, q) steps of its reduction (left_normal_form: k
    an earlier element, p/q the value of the division over Q as two
    integers).  Per basis element, `final` holds (i, c, steps): the
    element is c times computed element i less the multiples its tail
    reduction took away.  Every element is thus an exact left combination
    of earlier ones, and cofactors() composes only the ones asked for.
    """

    def __init__(self, G: list, divisors, reduce, gens: Sequence[WeylOp],
                 origin: list, steps: List[list]):
        super().__init__(G, divisors, reduce)
        self.gens = list(gens)
        self.origin = origin
        self.steps = steps
        self.lead = divisors.leads
        self.lc = [g.terms[m] for g, m in zip(G, self.lead)]

    @property
    def final(self) -> list:
        return [self.entry(t)[1:] for t in range(len(self))]

    def cofactors(self, steps: Sequence[Tuple[int, Exp, int, int]]
                  ) -> "Row":
        """The row q with sum_j q[j] * gens[j] equal to the sum of the
        multiples (p/q)*x^m * self[k] that `steps` record; for the steps
        left_normal_form appended while reducing P to zero, that sum is P.

        The rebuild runs on integer operators, each with one rational
        scale.  The multiples on one element are summed into one operator
        first; then the computed elements are expanded once each, latest
        first, into the earlier ones they were made of, so each (element,
        element it uses) costs one weyl_multiply.  A product into a
        generator is only noted here: the Row forms the products of a
        generator's entry when that entry is first read.
        """
        ctx = self.gens[0].ctx
        # the generators come first, then the S-remainders from `first` on
        first = sum(isinstance(o, int) for o in self.origin)
        coef: Dict[int, tuple] = {}
        later: Dict[int, list] = {}

        def add(k, scale, a, b=None):  # scale * a * b (or a) on element k
            if k < first:  # a generator: its entry is formed when read
                later.setdefault(self.origin[k], []).append((scale, a, b))
            else:
                coef[k] = _plus(coef.get(k), a if b is None else a * b, scale)
        for t, (a, scale) in _grouped(ctx, steps).items():
            _, i, c, tail = self.entry(t)
            add(i, scale * c, a)
            for k, (qk, sk) in _grouped(ctx, tail).items():
                add(k, -scale * c * sk, a, qk)
        for r in range(max(coef, default=-1), first - 1, -1):
            a, scale = coef.pop(r, (None, None))
            if not a:
                continue
            i, j, l = self.origin[r]
            for k, sign in ((i, 1), (j, -1)):  # x^(l - lead[k]) / lc[k]
                x = _int_op(ctx, {exp_sub(l, self.lead[k]): 1})
                add(k, sign * scale / self.lc[k], a, x)
            for k, (qk, sk) in _grouped(ctx, self.steps[r]).items():
                add(k, -scale * sk, a, qk)
        return Row(ctx, len(self.gens), later)


class Row(Sequence):
    """The row of LeftBasis.cofactors: entry g multiplies gens[g].  The
    products that make up an entry are formed when it is first read, so a
    caller pays only for the entries it reads: scaled(g) gives it as the
    ring.Scaled (integer term map, scale) it is built as, row[g] as a
    WeylOp over Q."""

    def __init__(self, ctx: WeylContext, n: int, later: Dict[int, list]):
        self.ctx, self.n = ctx, n
        self._later = later  # per entry, its terms (scale, a, b or None)
        self._made: Dict[int, Scaled] = {}

    def __len__(self):
        return self.n

    def scaled(self, g: int) -> Scaled:
        g = range(self.n)[g]
        if g not in self._made:
            acc = None
            for scale, a, b in self._later.pop(g, ()):
                acc = _plus(acc, a if b is None else a * b, scale)
            a, scale = acc or (WeylOp(self.ctx), Fraction(1))
            self._made[g] = Scaled(a.terms, scale)
        return self._made[g]

    def __getitem__(self, g: int) -> WeylOp:
        terms, scale = self.scaled(g)
        out = WeylOp(self.ctx)
        out.terms = {e: scale * c for e, c in terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, (list, Row)):
            return NotImplemented
        return list(self) == list(other)


def _int_op(ctx: WeylContext, terms: Dict) -> WeylOp:
    """The WeylOp with integer coefficients `terms`, as weyl_multiply
    takes it (its products stay integral)."""
    out = WeylOp(ctx)
    out.terms = terms
    return out


def _plus(acc: Optional[tuple], a: WeylOp, scale: Fraction) -> tuple:
    """acc + scale*a, for acc an (integer operator, scale) pair or None, as
    one such pair: the two are put over the scale gcd(numerators) /
    lcm(denominators), by which both of theirs are integer multiples."""
    if acc is None:
        return a, scale
    b, s = acc
    common = Fraction(math.gcd(s.numerator, scale.numerator),
                      math.lcm(s.denominator, scale.denominator))
    u, v = int(s / common), int(scale / common)
    terms = {e: u * c for e, c in b.terms.items()}
    add_terms(terms, ((e, v * c) for e, c in a.terms.items()))
    return _int_op(a.ctx, terms), common


def _grouped(ctx: WeylContext, steps) -> Dict[int, tuple]:
    """The (k, m, p, q) steps as one pair (N, scale) per element k: N an
    integer operator with coprime coefficients, and scale*N the sum of
    the (p/q)*x^m on k."""
    parts: Dict[int, list] = {}
    for k, m, p, q in steps:
        parts.setdefault(k, []).append((m, p, q))
    out: Dict[int, tuple] = {}
    for k, part in parts.items():
        d = math.lcm(*(q for *_, q in part))
        terms: Dict[Exp, int] = {}
        add_terms(terms, ((m, p * (d // q)) for m, p, q in part))
        if terms:
            g = math.gcd(*terms.values())
            out[k] = (_int_op(ctx, {m: c // g for m, c in terms.items()}),
                      Fraction(g, d))
    return out


def weyl_left_gb(gens: Sequence[WeylOp], order: MonomialOrder) -> LeftBasis:
    """Reduced left Groebner basis of the left ideal generated by gens.

    Only the chain criterion is used; the product criterion is unsound
    here.  The loop ends once a unit joins: the basis is then [1] (leads
    [0]), with the log of a loop that runs on.  The LeftBasis returned also
    writes any element of the ideal in gens (LeftBasis.cofactors).
    """
    gens = list(gens)
    origin: list = [i for i, g in enumerate(gens) if not g.is_zero()]
    G = [gens[i] for i in origin]
    steps: List[list] = [[] for _ in G]
    divisors = _left_divisors(G[0].ctx if G else None, G, order)
    log: list = []

    def divide(s, divisors, order):
        nonlocal log
        log = []
        return left_normal_form(s, divisors, order, steps=log)

    def joined(i, j, l):
        origin.append((i, j, l))
        steps.append(log)
    buchberger(G, divisors, order, divide, coprime_criterion=False,
               joined=joined)

    def reduce(i, rest):  # a tail reduction, its steps logged over G
        tail: list = []
        r = left_normal_form(G[i], divisors.subset(rest), order, steps=tail)
        return r, [(rest[k], *step) for k, *step in tail]
    return LeftBasis(G, divisors, reduce, gens, origin, steps)


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
        return not all(map(any, self.gb().leads))


# ---------------------------------------------------------------------------
# parsing (useful in tests and the CLI)


def parse_weyl(text: str, ctx: WeylContext) -> WeylOp:
    """Parse an operator expression in the grammar of ring.parse_poly;
    products multiply left to right in the noncommutative algebra, so
    'dx*x' comes out as x*dx + 1."""
    return _Parser(text, ctx, WeylOp).parse()
