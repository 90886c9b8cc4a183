"""Shared fixtures."""

import heapq

import pytest

from fpowers import gb
from fpowers.ring import exp_lcm


@pytest.fixture
def queue_pops(monkeypatch):
    """Every (i, j) a gb.PairQueue pops, in order."""
    pops = []
    real = gb.PairQueue.pop

    def pop(self):
        out = real(self)
        pops.append(out[:2])
        return out
    monkeypatch.setattr(gb.PairQueue, "pop", pop)
    return pops


class NormalSelectionQueue(gb.PairQueue):
    """The normal selection gb.PairQueue made before sugar, kept as a
    reference: each pair enters the heap as (0, key(lcm), i, j), so the
    smallest (key, i, j) pops first under every order, and every sugar
    reads 0."""

    def add(self, e, slot, sugar):
        t = len(self.lead)
        for k, (ek, sk) in enumerate(zip(self.lead, self.slot)):
            if sk == slot:
                heapq.heappush(self._heap, (0, self.key(exp_lcm(ek, e)), k, t))
                self._pending.add((k, t))
        self.lead.append(e)
        self.slot.append(slot)
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
    from fpowers.weyl import FSElement, _apply_partial, _log_numerator
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
