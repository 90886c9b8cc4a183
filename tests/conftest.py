"""Shared fixtures."""

import heapq
from fractions import Fraction

import pytest

import engine_reference
from fpowers import gb, ring
from fpowers.ring import exp_add, exp_sub


@pytest.fixture
def queue_pops(monkeypatch):
    """Every (i, j) a gb.PairQueue, or the reference engine's queue, pops,
    in order."""
    pops = []
    for cls in (gb.PairQueue, engine_reference.PairQueue):
        def pop(self, real=cls.pop):
            out = real(self)
            pops.append(out[:2])
            return out
        monkeypatch.setattr(cls, "pop", pop)
    return pops


def _pops_up_to_unit(basis, pops, ref_pops) -> bool:
    """Do pops, the pairs a gb.buchberger loop popped to reach basis,
    equal ref_pops, those of a reference loop that runs on after a unit
    joins?  They are equal, or, when basis is the unit ideal's reduced
    basis [1] (of polynomials or operators), the start of ref_pops: after
    the unit every S-element reduces to zero."""
    if (len(basis) == 1 and not isinstance(basis[0], tuple)
            and list(basis[0].terms) == [basis[0].ctx.zero_exp()]):
        return pops == ref_pops[:len(pops)]
    return pops == ref_pops


@pytest.fixture
def pops_up_to_unit():
    """The comparison of pop sequences up to the join of a unit (see
    _pops_up_to_unit)."""
    return _pops_up_to_unit


@pytest.fixture
def unit_joins(monkeypatch, queue_pops):
    """The number of pairs popped (queue_pops) when each unit joined a
    ring.Divisors of polynomials or operators, in order."""
    joins = []
    real = ring.Divisors.add

    def add(self, terms):
        lead = real(self, terms)
        if self.unit(lead):
            joins.append(len(queue_pops))
        return lead
    monkeypatch.setattr(ring.Divisors, "add", add)
    return joins


class NormalSelectionQueue(gb.PairQueue):
    """The normal selection gb.PairQueue made before sugar, kept as a
    reference: each pair enters the heap as (0, key(lcm), i, j), so the
    smallest (key, i, j) pops first under every order, and every sugar
    reads 0."""

    def add(self, m, sugar):
        t = len(self.lead)
        for k, mk in enumerate(self.lead):
            l = self.lcm(mk, m)
            if l is not None:
                heapq.heappush(self._heap, (0, self.key(l), k, t))
                self._pending.add((k, t))
        self.lead.append(m)
        self.ecart.append(0)


@pytest.fixture
def normal_selection(monkeypatch):
    """Calling it makes gb.buchberger select pairs as before sugar."""
    return lambda: monkeypatch.setattr(gb, "PairQueue", NormalSelectionQueue)


def _old_apply_to_FS(P, fspec, start=None):
    """The term-by-term F^S action that weyl.apply_to_FS replaced, kept as a
    reference: for each term x^a d^b s^w it multiplies by s^w, applies every
    d_i from scratch (recomputing the log-derivative numerator L_i on each
    one) and multiplies by x^a, then folds the result into a running total
    lifted to a common power of f."""
    from fpowers.ring import Poly
    from fpowers.weyl import FSElement
    from weyl_reference import _apply_partial, _log_numerator
    ctx = P.ctx
    xs = fspec.xs_vc
    f = fspec.f_xs

    def add(u, v):
        j = max(u.j, v.j)
        a = u.num * f ** (j - u.j)
        b = v.num * f ** (j - v.j)
        return FSElement(fspec, a + b, j)

    if start is None:
        start = FSElement(fspec, Poly.const(xs, 1), 0)
    total = FSElement(fspec, Poly.zero(xs), 0)
    for e, c in P.terms.items():
        a, b, w = ctx.split(e)
        mono = Poly.monomial(xs, xs.zero_exp(), c)
        for j, k in enumerate(w):
            if k:
                mono = mono * Poly.var(xs, ctx.s_names[j]) ** k
        elt = FSElement(fspec, start.num * mono, start.j)
        for i in range(ctx.n):
            for _ in range(b[i]):
                elt = _apply_partial(i, elt, fspec, _log_numerator(i, fspec))
        xmono = Poly.const(xs, 1)
        for i, k in enumerate(a):
            if k:
                xmono = xmono * Poly.var(xs, ctx.x_names[i]) ** k
        elt = FSElement(fspec, elt.num * xmono, elt.j)
        total = add(total, elt)
    return total


@pytest.fixture
def old_apply_to_FS():
    """The reference term-by-term F^S action (see _old_apply_to_FS)."""
    return _old_apply_to_FS


def _old_parse_weyl(text, ctx):
    """The operator parser that weyl.parse_weyl replaced, kept as a
    reference: its own copy of the ring.py grammar over WeylOp, with no
    zero-denominator check and powers taken by repeated left
    multiplication."""
    from fractions import Fraction
    from fpowers.ring import UnknownVariable, _tokenize
    from fpowers.weyl import WeylOp

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
            out = WeylOp.const(ctx, 1)
            for _ in range(k):
                out = out * p
            p = out
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


@pytest.fixture
def old_parse_weyl():
    """The reference operator parser (see _old_parse_weyl)."""
    return _old_parse_weyl


def _canonical_log(log):
    """A left basis log in one form, every field kept, so that the logs of
    a weyl.LeftBasis and of a reference loop (engine_reference and
    kernel_reference, whose ReducedLeftBasis logs as the library did
    before its log was integral) compare field by field.

    For a basis: (origin, steps, final, lead, lc), each S-pair origin as
    (i, j, l) and each step as (k, m, c), c the Fraction of the division
    over Q.  A reference origin (i, j, m_i, m_j) is the pair at l, the
    exponent of m_i plus lead[i], and must hold exactly its multipliers
    x^(l - lead[i])/lc[i] and x^(l - lead[j])/lc[j].  A step comes as
    (k, m, p, q), the integer pair of the kernel, or as (k, m, c).  For
    the list of steps of one division: those steps as (k, m, c)."""
    def values(steps):
        return [(k, m, Fraction(*c)) for k, m, *c in steps]
    if not hasattr(log, "origin"):
        return values(log)
    lead, lc = log.lead, log.lc

    def origin(o):
        if isinstance(o, int) or len(o) == 3:
            return o
        i, j, mi, mj = o
        (m,) = mi.terms
        l = exp_add(m, lead[i])
        assert [mi, mj] == [type(mi).monomial(mi.ctx, exp_sub(l, lead[k]),
                                              1 / lc[k]) for k in (i, j)]
        return i, j, l
    return ([origin(o) for o in log.origin], [values(s) for s in log.steps],
            [(i, c, values(t)) for i, c, t in log.final], list(lead),
            list(lc))


@pytest.fixture
def left_log():
    """The normalizer of left basis logs and step lists (see
    _canonical_log)."""
    return _canonical_log
