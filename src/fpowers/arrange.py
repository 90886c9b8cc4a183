"""Central hyperplane arrangement predicates.

An arrangement is a list of pairwise non-proportional homogeneous linear
forms with multiplicities, grouped into the factors of a factorization.
Essentiality is a rank computation on the normals; indecomposability is
connectivity of the linear matroid the normals define, decided by rank
queries over the subset partitions (equivalently: every pair of elements
lies on a common circuit).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ring import Poly, divide_exact


class NotLinear(Exception):
    """An arrangement form is not homogeneous linear."""


class ArrangementSpec:
    """forms: distinct linear forms; mults: positive multiplicities;
    groups: per factor, the list of form indices with repetition."""

    def __init__(self, forms: Sequence[Poly], mults: Sequence[int],
                 groups: Sequence[Sequence[int]], fspec=None):
        self.forms = list(forms)
        self.mults = list(mults)
        self.groups = [list(g) for g in groups]
        self.fspec = fspec
        for p in self.forms:
            _normal_of(p)  # raises NotLinear
        if len(merge_forms((p, 1) for p in self.forms)[0]) < len(self.forms):
            raise ValueError("forms must be pairwise non-proportional")
        if any(m <= 0 for m in self.mults):
            raise ValueError("multiplicities must be positive")

    @property
    def n(self) -> int:
        return self.forms[0].ctx.n

    def normals(self) -> List[List[Fraction]]:
        return [_normal_of(p) for p in self.forms]


def _normal_of(p: Poly) -> List[Fraction]:
    if p.is_zero():
        raise NotLinear("zero form")
    n = p.ctx.n
    normal = [Fraction(0)] * n
    for e, c in p.terms.items():
        if sum(e) != 1:
            raise NotLinear(f"form {p} is not homogeneous linear")
        normal[e.index(1)] = c
    return normal


def _proportional_forms(p: Poly, q: Poly) -> bool:
    a, b = _normal_of(p), _normal_of(q)
    # cross products vanish
    return all(a[i] * b[j] == a[j] * b[i]
               for i, j in itertools.combinations(range(len(a)), 2))


def row_reduce(vectors: Sequence[Sequence], ncols: int
               ) -> Tuple[List[List[Fraction]], List[int]]:
    """Gauss-Jordan elimination over Q: (the rows in reduced row echelon
    form, the pivot columns in order); the first len(pivots) rows carry
    the pivots."""
    rows = [list(map(Fraction, v)) for v in vectors]
    pivots: List[int] = []
    for c in range(ncols):
        if len(pivots) == len(rows):
            break
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                lam = rows[i][c]
                rows[i] = [a - lam * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    if not vectors:
        return 0
    return len(row_reduce(vectors, len(vectors[0]))[1])


def matroid_connected(normals: Sequence[Sequence[Fraction]]) -> bool:
    """Connectivity of the linear matroid on the normals.

    Disconnected iff some proper nonempty subset S satisfies
    r(S) + r(complement) = r(all); checked over all partitions (the element
    count is small at desk scale).  Pairs in a common circuit is the
    equivalent classical formulation.
    """
    m = len(normals)
    if m <= 1:
        return True
    total = _rank(normals)
    idx = range(m)
    for size in range(1, m // 2 + 1):
        for S in itertools.combinations(idx, size):
            Sset = set(S)
            a = _rank([normals[i] for i in S])
            b = _rank([normals[i] for i in idx if i not in Sset])
            if a + b == total:
                return False
    return True


def arrangement_analyze(A: ArrangementSpec) -> Dict[str, Tuple[str, str]]:
    """Predicates feeding the arrangement hypotheses.

    central: true by construction (all forms homogeneous).
    essential: the normals span the ambient space.
    indecomposable: the matroid on the normals is connected.
    tame_shortcut: true when the rank is at most 3.
    saito_holonomic: true for every arrangement.
    """
    normals = A.normals()
    n = A.n
    rank = _rank(normals)
    report: Dict[str, Tuple[str, str]] = {}
    report["central"] = ("yes", "homogeneous linear forms")
    report["essential"] = (
        ("yes", f"normals have rank {rank} = n") if rank == n
        else ("no", f"normals have rank {rank} < {n}")
    )
    conn = matroid_connected(normals)
    report["indecomposable"] = (
        ("yes", "normal matroid is connected") if conn
        else ("no", "normal matroid is disconnected")
    )
    report["tame_shortcut"] = (
        ("yes", f"rank {rank} <= 3") if rank <= 3
        else ("unknown", f"rank {rank} > 3: shortcut does not apply")
    )
    report["saito_holonomic"] = ("yes", "hyperplane arrangement")
    return report


# ---------------------------------------------------------------------------
# splitting factors into linear forms (best effort, exact)


def linear_form_factorization(p: Poly) -> Optional[List[Tuple[Poly, int]]]:
    """Write p as a product of homogeneous linear forms, if we can see how.

    Handles: monomial content, a single linear form, and homogeneous
    polynomials in two effective variables via rational-root peeling.
    Returns None when no splitting is found (which does not prove there is
    none; see definitely_not_linear_split for a certified negative).
    """
    if p.is_zero() or p.is_constant():
        return None
    ctx = p.ctx
    out: List[Tuple[Poly, int]] = []
    # monomial content
    mexp = [min(e[i] for e in p.terms) for i in range(ctx.n)]
    work = p
    for i, m in enumerate(mexp):
        if m > 0:
            out.append((Poly.var(ctx, ctx.names[i]), m))
            for _ in range(m):
                work = divide_exact(work, Poly.var(ctx, ctx.names[i]))
    if work.is_constant():
        return _merge(out, p)
    degs = {sum(e) for e in work.terms}
    if len(degs) != 1:
        return None  # not homogeneous, cannot be central
    d = degs.pop()
    if d == 1:
        out.append((work, 1))
        return _merge(out, p)
    used = [i for i in range(ctx.n) if any(e[i] for e in work.terms)]
    if len(used) != 2:
        return None
    u, v = used
    # work = sum c_j u^j v^(d-j); peel rational roots of g(t) = work(t, 1)
    coeffs = [Fraction(0)] * (d + 1)
    for e, c in work.terms.items():
        coeffs[e[u]] = c
    roots = rational_roots(coeffs)
    if sum(m for _, m in roots) != d:
        return None
    for alpha, m in roots:
        # u - alpha*v, cleared to integer coefficients
        den = alpha.denominator
        form = Poly.var(ctx, ctx.names[u]) * den \
            - Poly.var(ctx, ctx.names[v]) * (alpha * den)
        out.append((form, m))
    return _merge(out, p)


def merge_forms(pairs: Iterable[Tuple[Poly, int]]):
    """(forms, mults, where): the pairs (form, multiplicity) with
    proportional forms combined under the first of them, and the index in
    forms that each pair went to."""
    forms, mults, where = [], [], []
    for form, m in pairs:
        i = next((i for i, known in enumerate(forms)
                  if _proportional_forms(form, known)), len(forms))
        if i == len(forms):
            forms.append(form)
            mults.append(0)
        mults[i] += m
        where.append(i)
    return forms, mults, where


def _merge(pairs: List[Tuple[Poly, int]], target: Poly):
    """Combine duplicate (proportional) forms and sanity-check the product:
    None unless target is a scalar multiple of it."""
    merged = list(zip(*merge_forms(pairs)[:2]))
    prod = Poly.const(target.ctx, 1)
    for form, m in merged:
        prod = prod * form ** m
    lead = min(prod.terms)
    lam = target.terms.get(lead)
    if lam is not None and prod * (lam / prod.terms[lead]) == target:
        return merged
    return None


def rational_roots(coeffs: Sequence[Fraction]) -> List[Tuple[Fraction, int]]:
    """All rational roots (with multiplicity) of sum coeffs[j] t^j."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return []
    # clear denominators to integers
    den = math.lcm(*[c.denominator for c in cs])
    ics = [int(c * den) for c in cs]
    roots: List[Tuple[Fraction, int]] = []
    work = ics
    changed = True
    while changed and len(work) > 1:
        changed = False
        for cand in _root_candidates(work):
            q, rem = _divide_linear(work, cand)
            if rem == 0:
                work = q
                for i, (r, m) in enumerate(roots):
                    if r == cand:
                        roots[i] = (r, m + 1)
                        break
                else:
                    roots.append((cand, 1))
                changed = True
                break
    return roots


def _root_candidates(ics: List[int]):
    # leading/trailing divisors; zero root handled via trailing zero coeffs
    if ics[0] == 0:
        yield Fraction(0)
        return
    qs = _divisors(abs(ics[-1]))
    seen = set()
    for pnum in _divisors(abs(ics[0])):
        for qden in qs:
            for sgn in (1, -1):
                c = Fraction(sgn * pnum, qden)
                if c not in seen:
                    seen.add(c)
                    yield c


def _divisors(n: int) -> List[int]:
    """The positive divisors of n >= 1, ascending, by trial division up to
    sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _divide_linear(ics: List[int], root: Fraction):
    """Synthetic division by (t - root): returns (quotient, remainder).
    Quotient coefficients are cleared to integers when the division is exact."""
    d = len(ics) - 1
    q = [Fraction(0)] * d
    q[d - 1] = Fraction(ics[d])
    for j in range(d - 1, 0, -1):
        q[j - 1] = Fraction(ics[j]) + root * q[j]
    rem = Fraction(ics[0]) + root * q[0]
    if rem != 0:
        return ics, rem
    den = math.lcm(*[c.denominator for c in q])
    return [int(c * den) for c in q], 0


def definitely_not_linear_split(p: Poly) -> bool:
    """Certified 'p is not a product of linear forms' for the cases we can
    decide: inhomogeneous p, and homogeneous quadrics of Gram rank >= 3."""
    if p.is_zero() or p.is_constant():
        return True
    degs = {sum(e) for e in p.terms}
    if len(degs) != 1:
        return True
    d = degs.pop()
    if d != 2:
        return False
    n = p.ctx.n
    gram = [[Fraction(0)] * n for _ in range(n)]
    for e, c in p.terms.items():
        idxs = [i for i, k in enumerate(e) for _ in range(k)]
        i, j = idxs[0], idxs[1]
        if i == j:
            gram[i][i] = c
        else:
            gram[i][j] = gram[i][j] + c / 2
            gram[j][i] = gram[j][i] + c / 2
    return _rank(gram) >= 3
