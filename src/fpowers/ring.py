"""Exact polynomial arithmetic over Q with named variable blocks.

Polynomials are finite maps exponent-vector -> Fraction over a VarContext.
The context owns the variable names (grouped in ordered blocks such as
X / DX / Y / S / T), the registered weight gradings, and nothing else.
Monomial orders are key functions on exponent tuples, so Python tuple
comparison does the actual work.

TermMap is that term map as an algebra element, shared by Poly and by
weyl.WeylOp (operators of D_n[S] over the same monomials): construction,
equality, + and -, the scalar product, powers, leading data, printing
and the parser are written once here.  Each subclass adds only its
product: Poly the commutative one, WeylOp the normal-ordered one.
add_terms is the one in-place accumulation of terms into a term map, and
add_product the one commutative product of term maps (Fraction or int).
Every passage between contexts is TermMap.moved, which re-indexes the
exponents (by name, or by given positions), and every substitution is
TermMap.subs, whose powers are commutative products.

reduce_in_place is the one division loop of the package: the commutative
and module normal forms of gb.py and the left normal form of weyl.py run
it.  Exact division (divide_exact here, and the F^S action of weyl.py) is
exact_quotient, a division over Z that stops at the first step with no
integer quotient.  Both keep the monomials of their work in one queue
sorted by key (_subtract), so no step scans the work, and both divide by
one Divisors, the divisor set of one computation: per divisor its
leading monomial and its primitive integer image (integer_image,
g = tau * image), one KeyCache (every order key computed once per
computation), and the element kind's multiple, divides, degree, lcm,
view and unit (does a lead make its element a unit).  Divisors.of
builds one from a list of elements and rejects an element over another
context; a basis computation builds one for gb.buchberger, which forms
the S-elements on the images (Divisors.s_element) and adds each new
element to it.
Fractions go in and come out, integers work inside: the work is an
integer term map with one rational scale (Scaled), and each step scales
the work by an integer so that one integer multiple of an image cancels
its leading term, subtracted term by term in place.
Remainder terms leave as Fractions, and the step log has one Fraction per
step, the value c/lc that the division over Q takes away.
"""

from __future__ import annotations

from bisect import insort
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, mul, sub
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

# Exact rational scalars: Fraction is already lowest-terms with positive
# denominator, which is the whole contract.
Rat = Fraction

Exp = Tuple[int, ...]


class UnknownVariable(Exception):
    """A name in the input is not declared in the variable context."""


class ResourceLimit(Exception):
    """Degree or basis-size bound exceeded: by a basis computation, or by
    a power written in the input."""


@dataclass
class Limits:
    """The degree and basis-size bounds on every basis computation, and
    the degree bound on the powers the parser expands.

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

    def check_degree(self, terms, degree: Callable) -> int:
        """The degree of an element with term map `terms`, the largest
        degree(m) of its monomials m, which must not exceed max_degree."""
        d = max(map(degree, terms), default=-1)
        if d > self.max_degree:
            raise ResourceLimit(f"total degree {d} exceeds bound {self.max_degree}")
        return d

    def check_size(self, n: int) -> None:
        if n > self.max_basis:
            raise ResourceLimit(f"basis size {n} exceeds bound {self.max_basis}")


DEFAULT_LIMITS = Limits()
_CURRENT: ContextVar[Limits] = ContextVar("limits", default=DEFAULT_LIMITS)


class VarContext:
    """Ordered named blocks of variables plus registered weight gradings.

    blocks: sequence of (block_name, [var, ...]).  Variable names must be
    unique across blocks.  The flat variable order (block by block) fixes
    exponent-tuple positions for every Poly over this context.

    Three gradings are pre-registered when the matching blocks exist:

      "(0,1)"   : X -> 0, DX/Y -> 1, S -> 0, T -> 0   (order filtration)
      "(0,1,1)" : X -> 0, DX/Y -> 1, S -> 1, T -> 0   (total order filtration)
      "(0,1,0)" : X -> 0, DX/Y -> 1, S -> 0, T -> 0   (symbol grading; same
                   weights as "(0,1)" but conventionally applied to Y)
    """

    _STANDARD = {
        "(0,1)": {"X": 0, "DX": 1, "Y": 1, "S": 0, "T": 0},
        "(0,1,1)": {"X": 0, "DX": 1, "Y": 1, "S": 1, "T": 0},
        "(0,1,0)": {"X": 0, "DX": 1, "Y": 1, "S": 0, "T": 0},
    }

    def __init__(self, blocks: Sequence[Tuple[str, Sequence[str]]]):
        self.blocks: List[Tuple[str, Tuple[str, ...]]] = [
            (bname, tuple(vs)) for bname, vs in blocks
        ]
        self.names: Tuple[str, ...] = tuple(
            v for _, vs in self.blocks for v in vs
        )
        seen: Dict[str, str] = {}
        for bname, vs in self.blocks:
            for v in vs:
                if v in seen:
                    raise ValueError(
                        f"variable names must be unique across blocks: "
                        f"{v!r} is in block {seen[v]} and in block {bname}")
                seen[v] = bname
        self.index: Dict[str, int] = {v: i for i, v in enumerate(self.names)}
        self.block_indices: Dict[str, Tuple[int, ...]] = {}
        pos = 0
        for bname, vs in self.blocks:
            self.block_indices[bname] = tuple(range(pos, pos + len(vs)))
            pos += len(vs)
        self.n = len(self.names)
        self._gradings: Dict[str, Tuple[int, ...]] = {}
        for gname, by_block in self._STANDARD.items():
            w = [0] * self.n
            for bname, _ in self.blocks:
                if bname in by_block:
                    for i in self.block_indices[bname]:
                        w[i] = by_block[bname]
            self._gradings[gname] = tuple(w)

    def register_grading(self, name: str, weights: Dict[str, int]) -> None:
        w = [0] * self.n
        for v, wt in weights.items():
            if v not in self.index:
                raise UnknownVariable(v)
            if wt < 0:
                raise ValueError("grading weights must be nonnegative")
            w[self.index[v]] = wt
        self._gradings[name] = tuple(w)

    def grading(self, name: str) -> Tuple[int, ...]:
        if name not in self._gradings:
            raise KeyError(f"grading {name!r} not registered")
        return self._gradings[name]

    def zero_exp(self) -> Exp:
        return (0,) * self.n

    def var_exp(self, name: str) -> Exp:
        if name not in self.index:
            raise UnknownVariable(name)
        e = [0] * self.n
        e[self.index[name]] = 1
        return tuple(e)

    def __repr__(self):
        parts = ", ".join(f"{b}={list(vs)}" for b, vs in self.blocks)
        return f"VarContext({parts})"

    def __eq__(self, other):
        return isinstance(other, VarContext) and self.blocks == other.blocks

    def __hash__(self):
        return hash(tuple(self.blocks))


# ---------------------------------------------------------------------------
# exponent-tuple helpers

def exp_add(a: Exp, b: Exp) -> Exp:
    return tuple(map(add, a, b))


def exp_sub(a: Exp, b: Exp) -> Exp:
    return tuple(map(sub, a, b))


def exp_divides(a: Exp, b: Exp) -> bool:
    """a | b as monomials."""
    return all(map(le, a, b))


def exp_lcm(a: Exp, b: Exp) -> Exp:
    return tuple(map(max, a, b))


def exp_total(a: Exp) -> int:
    return sum(a)


def exp_is_one(a: Exp) -> bool:
    """Is x^a the monomial 1?"""
    return not any(a)


def exp_weight(a: Exp, w: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, w))


class MonomialOrder:
    """Total multiplicative monomial order, realized as a key function.

    kinds:
      lex              -- plain lexicographic on the full exponent tuple
      grevlex          -- graded reverse lexicographic
      weight(w, tie)   -- compare w-degree, break ties with `tie`
      block(ctx, names) -- compare block by block, each block under
                          grevlex; placing the block to be eliminated
                          first gives an elimination order for it

    graded says that the key is led by the total degree, so that a larger
    total degree always means a larger monomial: grevlex, a weight order
    with every weight 1 and a block order of one block.  The Buchberger
    engine selects pairs by sugar under every other order.
    """

    def __init__(self, kind: str, key, desc: str, graded: bool = False):
        self.kind = kind
        self.key = key          # exp tuple -> sortable; bigger key = bigger monomial
        self.desc = desc
        self.graded = graded

    def __repr__(self):
        return f"MonomialOrder({self.desc})"

    @property
    def pair_key(self):
        """The key gb.buchberger ranks S-pairs by, on their lcm: the key of
        the order (a module order ranks them by its base order)."""
        return self.key

    def cmp_gt(self, a: Exp, b: Exp) -> bool:
        return self.key(a) > self.key(b)

    def sort_desc(self, exps: Iterable[Exp]) -> List[Exp]:
        return sorted(exps, key=self.key, reverse=True)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex", lambda e: e, "lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        def key(e):
            return (sum(e), tuple(-x for x in reversed(e)))
        return MonomialOrder("grevlex", key, "grevlex", graded=True)

    @staticmethod
    def weighted(w: Sequence[int], tie: Optional["MonomialOrder"] = None) -> "MonomialOrder":
        tie = tie or MonomialOrder.grevlex()
        wt = tuple(w)
        tk = tie.key

        def key(e):
            return (exp_weight(e, wt), tk(e))
        return MonomialOrder("weight", key, f"weight{list(wt)}/{tie.desc}",
                             graded=all(x == 1 for x in wt))

    @staticmethod
    def block(ctx: VarContext, block_names: Sequence[str]) -> "MonomialOrder":
        """Block order over ctx: compare the projection to block_names[0]
        first, then block_names[1], etc., each block under grevlex.  Every
        declared variable must be covered exactly once.

        The key is one flat tuple, the per-block grevlex keys (degree, then
        the reversed negated exponents) laid end to end.  Each block's
        segment has a fixed length, so comparing the flat tuples compares
        block by block."""
        groups = [ctx.block_indices[b] for b in block_names]
        covered = [i for g in groups for i in g]
        if sorted(covered) != list(range(ctx.n)):
            raise ValueError("block order must cover every variable exactly once")
        rev = [tuple(reversed(g)) for g in groups]

        def key(e):
            k = []
            for g in rev:
                seg = [-e[i] for i in g]
                k.append(-sum(seg))
                k.extend(seg)
            return tuple(k)
        return MonomialOrder("block", key, f"block{list(block_names)}",
                             graded=len(groups) == 1)


class KeyCache(dict):
    """Order keys of monomials, each computed on its first lookup.

    A cache belongs to one computation (one basis, or one division) and
    is dropped with it: it keeps every monomial it has keyed alive.
    """

    __slots__ = ("key",)

    def __init__(self, key: Callable):
        super().__init__()
        self.key = key

    def __missing__(self, m):
        k = self[m] = self.key(m)
        return k


# ---------------------------------------------------------------------------
# the division kernel


class DegreeBoundExceeded(Exception):
    """A reduction step left a term above the degree bound in the work;
    `monomials` are the monomials of the work after that step."""

    def __init__(self, monomials):
        super().__init__()
        self.monomials = monomials


class Scaled(NamedTuple):
    """scale * terms: a term map with integer coefficients and one
    rational scale."""
    terms: Dict
    scale: Fraction


def integer_image(terms: Dict) -> Scaled:
    """The primitive integer image of a term map {monomial: Fraction}:
    Scaled(image, tau) with terms = tau * image, tau > 0, and the integer
    coefficients of image coprime, in the same term order."""
    den = lcm(*[c.denominator for c in terms.values()])
    image = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = gcd(*image.values()) or 1
    if g != 1:
        image = {m: c // g for m, c in image.items()}
    return Scaled(image, Fraction(g, den))


def poly_multiple(e: Exp, lead: Exp, image: Dict, b: int) -> list:
    """Divisors.multiple for commutative term maps: the terms of
    b*x^(e - lead) * image."""
    m = exp_sub(e, lead)
    return [(exp_add(m, ge), b * gc) for ge, gc in image.items()]


class Divisors:
    """The divisors of one computation (one basis, or one division), in
    the form reduce_in_place divides by.

    Per divisor g_k: its leading monomial leads[k] and its primitive
    integer image images[k] = (image_k, tau_k), g_k = tau_k * image_k.  All
    of them share one KeyCache of order keys, `keys`.  The element kind
    enters as plain functions: multiple(e, lead, image, b), the terms
    (monomial, int) of b times the multiple of an image whose leading
    monomial moves from lead to e; divides(lead, e); degree(e), the total
    degree of a monomial; lcm(a, b), the least common multiple of two
    monomials, or None when they have none (module monomials at two
    positions); view(g), an element's (context, term map); and unit(m),
    whether an element led by m is a unit (led by 1, under a global order
    a nonzero constant; never for module vectors, where a constant vector
    divides only its own position).  ctx is the context of the divisors.

    A basis computation owns one and drops it with its result: the keys
    and images keep every monomial they hold alive, and so does any state
    its `multiple` keeps (weyl's keeps each d^c * image it forms), which
    its subsets share.
    """

    def __init__(self, ctx, key: Callable, multiple: Callable = poly_multiple,
                 divides: Callable = exp_divides, degree: Callable = sum,
                 lcm: Callable = exp_lcm,
                 view: Callable = lambda g: (g.ctx, g.terms),
                 unit: Callable = exp_is_one):
        self.ctx = ctx
        self.keys = KeyCache(key)
        self.multiple, self.divides, self.degree = multiple, divides, degree
        self.lcm, self.view, self.unit = lcm, view, unit
        self.leads: List = []
        self.images: List[Scaled] = []

    @classmethod
    def of(cls, ctx, basis: Iterable, key: Callable, *kind) -> "Divisors":
        """The divisors over ctx of the nonzero elements of basis; kind is
        (multiple, divides, degree, lcm, view, unit), or its start.  An
        element over another context raises ValueError naming both:
        exponents of different lengths would compare as the shorter one,
        and the division need not end."""
        out = cls(ctx, key, *kind)
        for g in basis:
            gctx, terms = out.view(g)
            if gctx != ctx:
                raise ValueError(f"cannot divide an element over {ctx!r} "
                                 f"by one over {gctx!r}")
            if terms:
                out.add(terms)
        return out

    def __len__(self):
        return len(self.leads)

    def add(self, terms: Dict):
        """Append the divisor with term map `terms` (nonzero); return its
        leading monomial."""
        lead = max(terms, key=self.keys.__getitem__)
        self.leads.append(lead)
        self.images.append(integer_image(terms))
        return lead

    def subset(self, ks: Sequence[int]) -> "Divisors":
        """The divisors ks, in that order, sharing the keys."""
        out = object.__new__(Divisors)
        out.__dict__.update(self.__dict__)
        out.leads = [self.leads[k] for k in ks]
        out.images = [self.images[k] for k in ks]
        return out

    def s_element(self, i: int, j: int, l) -> Scaled:
        """The S-element of divisors i and j at l, a common multiple of
        their leads, as integer work for reduce_in_place: with L_i, L_j the
        leading coefficients of their images and L = lcm(L_i, L_j),
        (L/L_i)*x^(l - lead_i)*image_i - (L/L_j)*x^(l - lead_j)*image_j at
        scale 1/L.  Its value is x^(l - lead_i)*g_i/lc(g_i) -
        x^(l - lead_j)*g_j/lc(g_j), both parts led by 1*x^l."""
        (ti, _), (tj, _) = self.images[i], self.images[j]
        li, lj = ti[self.leads[i]], tj[self.leads[j]]
        L = lcm(li, lj)
        terms: Dict = {}
        add_terms(terms, self.multiple(l, self.leads[i], ti, L // li))
        add_terms(terms, self.multiple(l, self.leads[j], tj, -(L // lj)))
        return Scaled(terms, Fraction(1, L))


def reduce_in_place(work: Scaled, divisors: Divisors, rem: Dict,
                    steps: Optional[list] = None,
                    max_degree: Optional[int] = None) -> None:
    """Divide `work` (monomial -> nonzero int, times its scale sigma) in
    place by the divisors g_k = tau_k * image_k of `divisors`.

    Each step takes the largest monomial e of the work under the divisors'
    keys, with coefficient w, and the first k whose lead divides e.  If
    there is one, let L be the coefficient of image_k at its lead,
    h = gcd(w, L), a = L/h > 0 and b = w/h: the work is multiplied by a
    (sigma divided by a) and the terms (monomial, int) of
    multiple(e, lead, image_k, b) -- b times a multiple of image_k led by
    L*e, so e cancels -- are subtracted from it one by one; after that
    step, a term of degree above max_degree left anywhere in the work
    raises DegreeBoundExceeded.  With a list `steps`, the step appends
    (k, e, p, q): it took away (p/q)*x^(e - lead) * g_k, p/q =
    sigma*b/tau_k the value (work coefficient)/(leading coefficient) of a
    division over Q, as the two integers the kernel has at hand (not in
    lowest terms; no Fraction is made per step).  If no lead divides e,
    the term moves to `rem` as the Fraction sigma*w.  The division ends
    once the work is empty.

    The monomials of the work wait in a queue sorted by key (_subtract),
    so each step pops the largest without a scan of the work.

    Every cancellation is exact and the choice of divisor reads only
    monomials, so the division takes the path, and gives the remainder
    and the step values, of the same division over Q.
    """
    terms, scale = work
    leads, images = divisors.leads, divisors.images
    multiple, divides, degree = (divisors.multiple, divisors.divides,
                                 divisors.degree)
    # sigma = num/den: dividing sigma by a is den *= a, so the only
    # Fractions made are the ones handed out
    num, den = scale.numerator, scale.denominator
    get = divisors.keys.__getitem__
    queue = sorted(terms, key=get)
    over = []
    if max_degree is not None:
        over = [m for m in terms if degree(m) > max_degree]
    while queue:
        e = queue.pop()
        w = terms.get(e)
        if w is None:
            continue
        for k, lead in enumerate(leads):
            if divides(lead, e):
                break
        else:
            rem[e] = Fraction(num * terms.pop(e), den)
            continue
        image, tau = images[k]
        lc = image[lead]
        h = gcd(w, lc)
        a, b = lc // h, w // h
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for m in terms:
                terms[m] *= a
            den *= a
        if steps is not None:
            steps.append((k, e, num * b * tau.denominator,
                          den * tau.numerator))
        new = _subtract(terms, multiple(e, lead, image, b), queue, get)
        if max_degree is not None and (over or new):
            over = [m for m in over + new
                    if m in terms and degree(m) > max_degree]
            if over:
                raise DegreeBoundExceeded(tuple(terms))


def exact_quotient(terms: Dict, divisors: Divisors) -> Optional[Dict]:
    """The quotient (monomial -> int) of the integer term map `terms` by
    the one primitive image of `divisors`, when that image divides it over
    Q; else None.  `terms` is consumed.

    By Gauss's lemma a quotient by a primitive integer polynomial is
    integral, and so is every partial quotient of the division: each step
    divides its work coefficient by the leading coefficient over Z, and a
    step where that leaves a remainder, or a leading monomial the lead
    does not divide, proves that there is no quotient.  The work waits in
    the sorted queue of reduce_in_place (_subtract); the quotient terms
    come in the order of the steps, the largest monomial first.
    """
    (image, _), lead = divisors.images[0], divisors.leads[0]
    lc, get = image[lead], divisors.keys.__getitem__
    queue = sorted(terms, key=get)
    out: Dict = {}
    while queue:
        e = queue.pop()
        w = terms.get(e)
        if w is None:
            continue
        if not divisors.divides(lead, e):
            return None
        b, r = divmod(w, lc)
        if r:
            return None
        out[exp_sub(e, lead)] = b
        _subtract(terms, divisors.multiple(e, lead, image, b), queue, get)
    return out


def _subtract(terms: Dict, products, queue: list, get: Callable) -> list:
    """terms -= products, the pairs (monomial, int) of a multiple, in place,
    dropping what cancels; return the monomials that entered terms.

    queue holds the monomials of terms ascending by key (get), so a
    division pops its largest; each monomial that enters terms is inserted
    with bisect.  One that cancels stays in the queue, and the division
    skips it when popped: a step at e adds only monomials below e, so none
    above the popped ones comes back, and one that does come back below
    them is inserted again."""
    new = []
    for m, c in products:
        old = terms.get(m)
        if old is None:
            terms[m] = -c
            insort(queue, m, key=get)
            new.append(m)
        elif old != c:
            terms[m] = old - c
        else:
            del terms[m]
    return new


# ---------------------------------------------------------------------------


def add_terms(acc: Dict, terms) -> None:
    """acc += terms in place, dropping the coefficients that cancel."""
    for e, c in terms:
        old = acc.get(e)
        if old is None:
            acc[e] = c
            continue
        c = old + c
        if c:
            acc[e] = c
        else:
            del acc[e]


def add_product(acc: Dict, a: Dict, b: Dict) -> Dict:
    """acc += a*b in place for term maps a, b of commutative monomials,
    dropping the coefficients that cancel; returns acc.  The one
    commutative product: Poly.__mul__ and the powers of TermMap.subs on
    Fractions, and the F^S action of weyl.py on integers."""
    items = b.items()
    for e1, c1 in a.items():
        for e2, c2 in items:
            e = tuple(map(add, e1, e2))
            old = acc.get(e)
            if old is None:
                acc[e] = c1 * c2
                continue
            c = old + c1 * c2
            if c:
                acc[e] = c
            else:
                del acc[e]
    return acc


def _product(a: Dict, b: Dict) -> Dict:
    return add_product({}, a, b)


def _power(base, k: int, one, times: Callable):
    """base^k by square-and-multiply under the product `times`, from its
    unit `one`.  The factors are all powers of base, which commute with
    each other, so this holds in any associative algebra."""
    if k < 0:
        raise ValueError("negative power")
    out = one
    while k:
        if k & 1:
            out = times(out, base)
        base = times(base, base) if k > 1 else base
        k >>= 1
    return out


def diff_terms(terms: Dict, i: int, c=1) -> Dict:
    """c times the partial derivative of a term map in variable i."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] * v
            for e, v in terms.items() if e[i]}


class TermMap:
    """An element {exponent tuple: nonzero Fraction} over a context.

    The common part of Poly and weyl.WeylOp: storage, constructors,
    equality (a scalar equals its constant), the additive structure, the
    scalar product, powers, the move into another context, substitution,
    leading data and printing.  A subclass adds
    only its product, __mul__, which must accept a scalar.  The context
    is read only through names, index, zero_exp() and var_exp(), which
    VarContext and weyl.WeylContext both provide.

    Immutable by convention; operators never mutate their arguments.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms: Optional[Dict[Exp, Fraction]] = None):
        self.ctx = ctx
        self.terms: Dict[Exp, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[e] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def const(cls, ctx, c):
        c = Fraction(c)
        return cls(ctx, {ctx.zero_exp(): c} if c else {})

    @classmethod
    def var(cls, ctx, name: str):
        return cls(ctx, {ctx.var_exp(name): Fraction(1)})

    @classmethod
    def monomial(cls, ctx, e: Exp, c=1):
        return cls(ctx, {tuple(e): Fraction(c)})

    def _lift(self, other):
        """other itself, or the constant of this class for a scalar."""
        if isinstance(other, (int, Fraction)):
            return self.const(self.ctx, other)
        return other

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._lift(other)
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar, so it hashes like it (0 included)
        if self.is_constant():
            return hash(self.constant_coeff())
        return hash(frozenset(self.terms.items()))

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(exp_total(e) for e in self.terms)

    def coeff(self, e: Exp) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def constant_coeff(self) -> Fraction:
        return self.terms.get(self.ctx.zero_exp(), Fraction(0))

    def is_constant(self) -> bool:
        return all(exp_total(e) == 0 for e in self.terms)

    def variables_used(self) -> Tuple[str, ...]:
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return tuple(self.ctx.names[i] for i in sorted(used))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        out = type(self)(self.ctx)
        out.terms = dict(self.terms)
        add_terms(out.terms, self._lift(other).terms.items())
        return out

    __radd__ = __add__

    def __neg__(self):
        out = type(self)(self.ctx)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c):
        """The scalar product c * self."""
        c = Fraction(c)
        out = type(self)(self.ctx)
        if c:
            out.terms = {e: k * c for e, k in self.terms.items()}
        return out

    def __rmul__(self, other):
        # scalars are central, so c * p is p * c; an element on the left
        # multiplies through its own __mul__
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, self.const(self.ctx, 1), mul)

    # -- passages between contexts -------------------------------------------

    def moved(self, ctx, cls=None, where=None):
        """This element as a `cls` (default: its own class) over ctx:
        source variable i goes to position where[i] of ctx, by default the
        position of its name there (None: nowhere).  Exponents that land
        on one position add, coefficients that land on one monomial add,
        and zeros drop; the terms keep their order.  A variable in use
        with nowhere to go raises UnknownVariable."""
        names = self.ctx.names
        if where is None:
            where = [ctx.index.get(v) for v in names]
        zero = ctx.zero_exp()
        acc: Dict[Exp, Fraction] = {}
        for e, c in self.terms.items():
            m = list(zero)
            for i, k in enumerate(e):
                if k:
                    j = where[i]
                    if j is None:
                        raise UnknownVariable(names[i])
                    m[j] += k
            m = tuple(m)
            acc[m] = acc[m] + c if m in acc else c
        out = (cls or type(self))(ctx)
        out.terms = {m: c for m, c in acc.items() if c}
        return out

    def subs(self, assignment: Dict[str, object]):
        """Substitute elements of this class over the same context (or
        scalars) for variables by name.  Each power of a value is formed
        once, by add_product, the commutative product."""
        zero = self.ctx.zero_exp()
        vals = {}
        for v, val in assignment.items():
            if v not in self.ctx.index:
                raise UnknownVariable(v)
            if isinstance(val, (int, Fraction)):
                val = {zero: Fraction(val)} if val else {}
            else:
                val = val.terms
            vals[self.ctx.index[v]] = val
        one = {zero: Fraction(1)}
        powers: Dict[Tuple[int, int], Dict] = {}
        idx = sorted(vals)
        out = type(self)(self.ctx)
        for e, c in self.terms.items():
            ks = [(i, e[i]) for i in idx if e[i]]
            if ks:
                m = list(e)
                for i, _ in ks:
                    m[i] = 0
                t = {tuple(m): c}
                for i, k in ks:
                    if (i, k) not in powers:
                        powers[i, k] = _power(vals[i], k, one, _product)
                    t = add_product({}, t, powers[i, k])
                add_terms(out.terms, t.items())
            else:
                add_terms(out.terms, ((e, c),))
        return out

    # -- leading data ------------------------------------------------------

    def leading_exp(self, order: MonomialOrder) -> Exp:
        if not self.terms:
            raise ValueError("zero element has no leading term")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_exp(order)]

    # -- printing ----------------------------------------------------------

    def _term_str(self, e: Exp, c: Fraction) -> str:
        mono = "*".join(
            self.ctx.names[i] if k == 1 else f"{self.ctx.names[i]}^{k}"
            for i, k in enumerate(e) if k
        )
        a = abs(c)
        if not mono:
            return str(a)
        if a == 1:
            return mono
        return f"{a}*{mono}"

    def __str__(self):
        """Canonical form: terms descending under grevlex of the full context,
        reduced fraction coefficients, explicit * and ^."""
        if not self.terms:
            return "0"
        order = MonomialOrder.grevlex()
        parts = []
        for e in order.sort_desc(self.terms):
            c = self.terms[e]
            s = self._term_str(e, c)
            if not parts:
                parts.append(s if c > 0 else f"-{s}")
            else:
                parts.append(f" + {s}" if c > 0 else f" - {s}")
        return "".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Poly(TermMap):
    """Multivariate polynomial over Q: {exponent tuple: Fraction} over a
    VarContext, with the commutative product."""

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        p = Poly(self.ctx)
        p.terms = add_product({}, self.terms, other.terms)
        return p

    __rmul__ = __mul__

    def diff(self, name: str) -> "Poly":
        """Partial derivative with respect to a context variable."""
        p = Poly(self.ctx)
        p.terms = diff_terms(self.terms, self.ctx.index[name])
        return p


def initial_form(p: Poly, grading: str) -> Poly:
    """Sum of the terms of maximal weighted degree; 0 for the zero poly."""
    return initial_form_weights(p, p.ctx.grading(grading))


def initial_form_weights(p: Poly, w: Sequence[int]) -> Poly:
    """initial_form against an explicit weight vector."""
    if not p.terms:
        return Poly.zero(p.ctx)
    top = max(exp_weight(e, w) for e in p.terms)
    q = Poly(p.ctx)
    q.terms = {e: c for e, c in p.terms.items() if exp_weight(e, w) == top}
    return q


# ---------------------------------------------------------------------------
# parsing


class _Tok:
    __slots__ = ("kind", "val", "pos")

    def __init__(self, kind, val, pos):
        self.kind, self.val, self.pos = kind, val, pos


def _tokenize(text: str) -> List[_Tok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            toks.append(_Tok(ch, ch, i))
            i += 1
        else:
            raise SyntaxError(f"unexpected character {ch!r} at position {i}")
    toks.append(_Tok("end", None, n))
    return toks


class _Parser:
    """expr   := ['+'|'-'] term (('+'|'-') term)*
       term   := factor ('*' factor)*
       factor := atom ('^' int)*
       atom   := rational | name | '(' expr ')'
       rational := int ('/' int)?

    Builds elements of `cls` (Poly, or weyl.WeylOp) over ctx.  The factors
    of a term multiply left to right, so in a noncommutative algebra the
    product keeps the written order."""

    def __init__(self, text: str, ctx, cls):
        self.toks = _tokenize(text)
        self.ctx = ctx
        self.cls = cls
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        t = self.toks[self.i]
        if kind and t.kind != kind:
            raise SyntaxError(f"expected {kind} at position {t.pos}")
        self.i += 1
        return t

    def parse(self) -> TermMap:
        p = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise SyntaxError(f"unexpected token {t.val!r} at position {t.pos}")
        return p

    def expr(self) -> TermMap:
        sign = 1
        if self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -1
        p = self.term() * sign
        while self.peek().kind in "+-":
            op = self.take().kind
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> TermMap:
        p = self.factor()
        while self.peek().kind == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> TermMap:
        p = self.atom()
        while self.peek().kind == "^":
            self.take()
            t = self.take("int")
            # a power above the degree bound is refused before it is
            # expanded
            d, bound = p.total_degree() * t.val, Limits.current().max_degree
            if d > bound:
                raise ResourceLimit(f"total degree {d} exceeds bound {bound}")
            p = p ** t.val
        return p

    def atom(self) -> TermMap:
        t = self.peek()
        if t.kind == "int":
            self.take()
            num = t.val
            if self.peek().kind == "/":
                self.take()
                den = self.take("int").val
                if den == 0:
                    raise SyntaxError(f"zero denominator at position {t.pos}")
                return self.cls.const(self.ctx, Fraction(num, den))
            return self.cls.const(self.ctx, num)
        if t.kind == "name":
            self.take()
            if t.val not in self.ctx.index:
                raise UnknownVariable(f"{t.val!r} at position {t.pos}")
            return self.cls.var(self.ctx, t.val)
        if t.kind == "(":
            self.take()
            p = self.expr()
            nxt = self.peek()
            if nxt.kind != ")":
                raise SyntaxError(f"expected ')' at position {nxt.pos}")
            self.take()
            return p
        if t.kind == "-":
            # unary minus inside a term: "2*-x" reads as 2*(-x), like "2*(-x)"
            self.take()
            return -self.atom()
        raise SyntaxError(f"unexpected token {t.val!r} at position {t.pos}")


def parse_poly(text: str, ctx: VarContext) -> Poly:
    """Parse a polynomial expression into canonical expanded form.

    Grammar: rational constants, declared variables, + - * ^, parentheses.
    Raises SyntaxError with a position, UnknownVariable, or ResourceLimit
    for a power above the degree bound in effect (Limits.current()).
    """
    return _Parser(text, ctx, Poly).parse()


def divide_exact(p: Poly, q: Poly) -> Optional[Poly]:
    """Return h with p = q*h if q divides p exactly, else None.

    The division runs on the primitive integer images (exact_quotient);
    each quotient term becomes one Fraction at the end.  q must be over
    the context of p (ValueError otherwise)."""
    divisors = Divisors.of(p.ctx, [q], MonomialOrder.grevlex().key)
    if not divisors:
        return None
    if p.is_zero():
        return Poly.zero(p.ctx)
    image, scale = integer_image(p.terms)
    h = exact_quotient(image, divisors)
    if h is None:
        return None
    scale /= divisors.images[0].scale
    out = Poly(p.ctx)
    out.terms = {e: scale * c for e, c in h.items()}
    return out
