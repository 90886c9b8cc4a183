"""Closed forms and checks for the benchmark, in plain Fraction arithmetic.

Nothing here imports fpowers: the benchmark compares the program's answers
against these, so they must be computed apart from it.

Polynomials are dicts {exponent tuple: Fraction} over a list of variable
names that the caller keeps alongside.  A linear form is a pair
(coefficient tuple, constant); the Bernstein-Sato closed forms below are
lists of such forms (with repetition for multiplicity), so the benchmark
can both expand them and sample points on their zero sets.

Sources of the closed forms (see README.md for full citations):
  * Brieskorn-Pham x^a + y^b (+ z^c): b(s) = (s+1) * prod (s + alpha) over
    the distinct alpha = sum_k i_k / a_k, 1 <= i_k <= a_k - 1
    (quasi-homogeneous isolated singularities; Kashiwara, Malgrange).
  * d generic lines through the origin of the plane, one factor:
    b(s) = (s+1) * prod_{j=0}^{2d-4} (s + (j+2)/d)   (Walther 2005).
  * the same d lines as d factors:
    B_F = prod_k (s_k+1) * prod_{j=2}^{2d-2} (sum_k s_k + j)   (Maisonobe).
  * factors in disjoint variables multiply: B_(F,G) = B_F * B_G.
  * F = (x, 2x^2 + yz): the five hyperplanes s1+1, s2+1, s1+2s2+{3,4,5}.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Exp = Tuple[int, ...]
Poly = Dict[Exp, Fraction]
Linear = Tuple[Tuple[Fraction, ...], Fraction]


# ---------------------------------------------------------------------------
# arithmetic


def const(c, n: int) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(i: int, n: int) -> Poly:
    return {tuple(1 if k == i else 0 for k in range(n)): Fraction(1)}


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {e: k * c for e, k in a.items()} if c else {}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(a: Poly, k: int, n: int) -> Poly:
    out = const(1, n)
    for _ in range(k):
        out = mul(out, a)
    return out


def product(polys: Sequence[Poly], n: int) -> Poly:
    out = const(1, n)
    for p in polys:
        out = mul(out, p)
    return out


def diff(a: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in a.items():
        if e[i]:
            ee = list(e)
            ee[i] -= 1
            out[tuple(ee)] = c * e[i]
    return out


def evaluate(a: Poly, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in a.items():
        t = c
        for x, k in zip(point, e):
            if k:
                t *= Fraction(x) ** k
        total += t
    return total


def substitute(a: Poly, i: int, q: Poly) -> Poly:
    """a with variable i replaced by the polynomial q (same ring)."""
    n = len(next(iter(q))) if q else 0
    out: Poly = {}
    powers = [const(1, n)] if q else []
    for e, c in a.items():
        k = e[i]
        if not q:
            if k == 0:
                out = add(out, {e: c})
            continue
        while len(powers) <= k:
            powers.append(mul(powers[-1], q))
        rest = tuple(0 if j == i else x for j, x in enumerate(e))
        out = add(out, mul({rest: c}, powers[k]))
    return out


def embed(a: Poly, positions: Sequence[int], n: int) -> Poly:
    """Rename variable i of `a` to variable positions[i] of an n-variable
    ring."""
    out: Poly = {}
    for e, c in a.items():
        ee = [0] * n
        for i, k in enumerate(e):
            ee[positions[i]] += k
        out[tuple(ee)] = c
    return out


def diagonal(a: Poly) -> Poly:
    """a(s, ..., s) as a polynomial in one variable."""
    out: Poly = {}
    for e, c in a.items():
        key = (sum(e),)
        s = out.get(key, Fraction(0)) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def proportional(a: Poly, b: Poly) -> bool:
    """a = c*b for a nonzero constant c."""
    if not a or not b or set(a) != set(b):
        return False
    e0 = next(iter(a))
    c = a[e0] / b[e0]
    return all(a[e] == c * b[e] for e in a)


def univariate_divides(d: Poly, p: Poly) -> bool:
    """Does the one-variable polynomial d divide p exactly?"""
    def coeffs(a: Poly) -> List[Fraction]:
        out = [Fraction(0)] * (max((e[0] for e in a), default=0) + 1)
        for e, c in a.items():
            out[e[0]] = c
        while out and out[-1] == 0:
            out.pop()
        return out

    num, den = coeffs(p), coeffs(d)
    if not den:
        return False
    while len(num) >= len(den):
        q = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= q * c
        while num and num[-1] == 0:
            num.pop()
    return not num


# ---------------------------------------------------------------------------
# linear forms and closed forms


def linear_poly(form: Linear) -> Poly:
    coeffs, c0 = form
    n = len(coeffs)
    out = const(c0, n)
    for i, a in enumerate(coeffs):
        out = add(out, scale(var(i, n), a))
    return out


def expand(forms: Sequence[Linear], n: int) -> Poly:
    return product([linear_poly(f) for f in forms], n)


def _s_plus(alpha) -> Linear:
    return ((Fraction(1),), Fraction(alpha))


def brieskorn_pham(exponents: Sequence[int]) -> List[Linear]:
    """b-function of x_1^a_1 + ... + x_n^a_n as linear factors in s."""
    alphas = {sum(Fraction(i, a) for i, a in zip(idx, exponents))
              for idx in itertools.product(*[range(1, a) for a in exponents])}
    return [_s_plus(1)] + [_s_plus(a) for a in sorted(alphas)]


def generic_lines(d: int) -> List[Linear]:
    """b-function of a product of d >= 1 distinct lines through 0 in C^2."""
    return [_s_plus(1)] + [_s_plus(Fraction(j + 2, d)) for j in range(2 * d - 3)]


def generic_lines_factored(d: int) -> List[Linear]:
    """B_F of F = (l_1, ..., l_d), d >= 2 distinct lines through 0 in C^2."""
    one = Fraction(1)
    out: List[Linear] = []
    for k in range(d):
        out.append((tuple(one if i == k else Fraction(0) for i in range(d)), one))
    for j in range(2, 2 * d - 1):
        out.append(((one,) * d, Fraction(j)))
    return out


def disjoint_product(parts: Sequence[Tuple[Sequence[Linear], Sequence[int]]],
                     n: int) -> List[Linear]:
    """B_F for factors in disjoint variable sets: each part is (forms over
    its own s-variables, positions of those variables among the n)."""
    out: List[Linear] = []
    for forms, positions in parts:
        for coeffs, c0 in forms:
            full = [Fraction(0)] * n
            for i, a in enumerate(coeffs):
                full[positions[i]] = a
            out.append((tuple(full), c0))
    return out


def x_2x2yz_pair() -> List[Linear]:
    """B_F of F = (x, 2x^2 + yz): five hyperplanes."""
    one, zero, two = Fraction(1), Fraction(0), Fraction(2)
    return [((one, zero), one), ((zero, one), one),
            ((one, two), Fraction(3)), ((one, two), Fraction(4)),
            ((one, two), Fraction(5))]


def x_2x2yz_single() -> List[Linear]:
    """b-function of the cubic x(2x^2 + yz): (s+1)^3 (s+4/3) (s+5/3)."""
    return [_s_plus(1)] * 3 + [_s_plus(Fraction(4, 3)), _s_plus(Fraction(5, 3))]


# ---------------------------------------------------------------------------
# the program's printed form


_NUM = re.compile(r"^\d+(/\d+)?$")


def parse(text: str, names: Sequence[str]) -> Poly:
    """Read a polynomial (or normal-ordered operator) as fpowers prints it:
    terms joined by ' + ' / ' - ', each an optional coefficient and
    '*'-joined powers name^k."""
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    text = text.strip()
    if text == "0":
        return {}
    text = "- " + text[1:] if text.startswith("-") else "+ " + text
    out: Poly = {}
    for chunk in re.split(r" (?=[+-] )", " " + text):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign, body = chunk[0], chunk[1:].strip()
        c = Fraction(1 if sign == "+" else -1)
        e = [0] * n
        for factor in body.split("*"):
            if _NUM.match(factor):
                c *= Fraction(factor)
                continue
            name, _, k = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown name {name!r} in {text!r}")
            e[index[name]] += int(k) if k else 1
        out = add(out, {tuple(e): c})
    return out


def render(a: Poly, names: Sequence[str]) -> str:
    """Write a polynomial in the syntax fpowers parses."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a, reverse=True):
        c = a[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(names, e) if k)
        mag = abs(c)
        body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else str(mag))
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# independent actions


def apply_operator(op: Poly, n: int, p: Poly) -> Poly:
    """Act with a normal-ordered operator sum c x^a d^b (exponents over
    x_1..x_n, dx_1..dx_n) on a polynomial in x_1..x_n, by differentiating
    and multiplying directly."""
    out: Poly = {}
    for e, c in op.items():
        a, b = e[:n], e[n:2 * n]
        q = p
        for i, k in enumerate(b):
            for _ in range(k):
                q = diff(q, i)
        if not q:
            continue
        out = add(out, mul({tuple(a): c}, q))
    return out


def phi_image(g: Poly, factors: Sequence[Poly], n: int) -> Poly:
    """phi_F(g) for g over (x_1..x_n, y_1..y_n, s_1..s_r):
    x -> x, y_i -> sum_k (f/f_k)(d_i f_k) s_k, s_k -> f s_k,
    computed over (x_1..x_n, s_1..s_r); factors are over x_1..x_n."""
    r = len(factors)
    m = n + r
    lift = [embed(fk, list(range(n)), m) for fk in factors]
    f = product(lift, m)
    s = [var(n + k, m) for k in range(r)]
    y_img = []
    for i in range(n):
        img: Poly = {}
        for k in range(r):
            others = product([lift[j] for j in range(r) if j != k], m)
            img = add(img, mul(mul(others, diff(lift[k], i)), s[k]))
        y_img.append(img)
    s_img = [mul(f, s[k]) for k in range(r)]
    cache: Dict[Tuple[str, int, int], Poly] = {}

    def pw(kind: str, i: int, k: int) -> Poly:
        key = (kind, i, k)
        if key not in cache:
            base = y_img[i] if kind == "y" else s_img[i]
            cache[key] = power(base, k, m)
        return cache[key]

    out: Poly = {}
    for e, c in g.items():
        xe = tuple(e[:n]) + (0,) * r
        t: Poly = {xe: c}
        for i in range(n):
            if e[n + i]:
                t = mul(t, pw("y", i, e[n + i]))
        for k in range(r):
            if e[2 * n + k]:
                t = mul(t, pw("s", k, e[2 * n + k]))
        out = add(out, t)
    return out
