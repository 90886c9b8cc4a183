"""Bernstein-Sato ideals of a factorization, with exact witnesses.

The annihilator of F^S is taken to be the left ideal generated by theta_F
(the derivation-shaped operators from psi_F); this equals the full
annihilator exactly under the recorded hypotheses, and is contained in it
unconditionally.  B_F is then Q[S] cap (D[S]*f + D[S]*theta_F), computed by
a left GB under an order eliminating {x, dx}.  The elimination is admissible
because every commutator relation dx*x = x*dx + 1 replaces a product by
strictly smaller monomials under any global order, so Buchberger theory for
this solvable relation set carries over verbatim.

That left basis (elimination_basis) is computed once per bound for a
spec, and only its pure-S part is reduced.  A generator b of B_F is not
just a membership fact: the derivation log of the same GB writes b = sum
c_i theta_i + Q*f, and then Q is an operator with Q . (f*F^S) = b(S)*F^S
-- the functional equation, verified exactly through the formal-calculus
action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .arrange import rational_roots
from .gb import IdealHandle
from .ring import MonomialOrder, Poly, VarContext, divide_exact
from .weyl import (
    FSElement,
    LeftBasis,
    WeylContext,
    WeylOp,
    apply_to_FS,
    left_normal_form,
    weyl_left_gb,
)
from .logder import FactorizationSpec, assumed_table, required_hold


class WitnessExtractionFailed(Exception):
    """The cofactor log did not produce a verified functional equation."""


def elimination_order(wctx: WeylContext) -> MonomialOrder:
    """{x, dx} >> {S}: any monomial containing x or dx beats any pure-S
    monomial, so the pure-S part of a left GB generates the intersection
    with Q[S].  Realized as weight 1 on x and dx, weight 0 on S, grevlex
    tie -- much lighter in practice than a lexicographic block order."""
    w = [0] * wctx.nv
    for name in list(wctx.x_names) + list(wctx.dx_names):
        w[wctx.vc.index[name]] = 1
    return MonomialOrder.weighted(w)


def s_context(fspec: FactorizationSpec) -> VarContext:
    return VarContext([("S", fspec.s_names)])


# ---------------------------------------------------------------------------
# annihilator


@dataclass
class AnnResult:
    fspec: FactorizationSpec
    theta: List[WeylOp]
    validity: str                 # "full" or "contained"
    hypotheses: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def ann_FS(fspec: FactorizationSpec,
           assume_hypotheses: bool = False) -> AnnResult:
    """D[S]*theta_F with a validity tag.

    validity "full": the hypotheses under which this is the whole
    annihilator of F^S hold (or were assumed); "contained": only the always
    -true containment is claimed.  Containment itself is verified here by
    letting every generator act on F^S."""
    theta = fspec.theta_generators()
    for t in theta:
        res = apply_to_FS(t, fspec)
        if not res.is_zero():
            raise AssertionError("theta generator failed to annihilate F^S")
    if assume_hypotheses:
        return AnnResult(fspec, theta, "full", assumed_table())
    hyps = fspec.check_hypotheses()
    return AnnResult(fspec, theta,
                     "full" if required_hold(hyps) else "contained", hyps)


# ---------------------------------------------------------------------------
# the Bernstein-Sato ideal


@dataclass
class BSResult:
    fspec: FactorizationSpec
    ideal: IdealHandle            # in Q[S]
    gb: List[Poly]
    principal_generator: Optional[Poly]
    validity: str
    hypotheses: Dict[str, Tuple[str, str]]

    def roots_if_principal(self) -> Optional[List[Tuple[Fraction, int]]]:
        if self.principal_generator is None or self.fspec.r != 1:
            return None
        roots, rest = univariate_roots(self.principal_generator)
        return roots if rest.is_constant() else None


def elimination_basis(fspec: FactorizationSpec,
                      theta: Optional[Sequence[WeylOp]] = None,
                      order: Optional[MonomialOrder] = None) -> LeftBasis:
    """The pure-S part, which generates B_F, of the left basis of
    D[S]*theta_F + D[S]*f under `order` (default elimination_order),
    computed once per order and bound for this spec and shared by its
    callers, who must not modify it.  theta, when given, is
    fspec.theta_generators() as the caller already has it.  Only the part
    is tail-reduced (gb.Basis.prefix), and its log writes every element in
    theta_F and f."""
    order = order or elimination_order(fspec.weyl)

    def build():
        gens = list(fspec.theta_generators() if theta is None else theta)
        gens.append(fspec.f_xs.moved(fspec.weyl, WeylOp))
        G = weyl_left_gb(gens, order)
        return G.prefix(sum(not any(m[:2 * fspec.n]) for m in G.leads))
    return fspec.memo(("elimination", order.desc), build)


def bs_ideal(fspec: FactorizationSpec, assume_hypotheses: bool = False,
             order: Optional[MonomialOrder] = None) -> BSResult:
    ann = ann_FS(fspec, assume_hypotheses)
    G = elimination_basis(fspec, ann.theta, order)
    svc = s_context(fspec)
    ideal = IdealHandle([g.moved(svc, Poly) for g in G], ctx=svc)
    gb = ideal.gb()
    principal = gb[0] if len(gb) == 1 else None
    if ann.validity != "full":
        validity = "lower bound for B_F (annihilator only contained)"
    else:
        validity = "full"
    return BSResult(fspec, ideal, gb, principal, validity, ann.hypotheses)


# ---------------------------------------------------------------------------
# functional-equation witnesses


def functional_equation_witness(fspec: FactorizationSpec, b: Poly) -> WeylOp:
    """Q with Q . (f*F^S) = b(S)*F^S, verified exactly.

    b is a polynomial in the s-variables.  It is divided by the pure-S
    part of the elimination GB of (theta_F, f) (elimination_basis, the one
    bs_ideal reads B_F from), and the basis log rebuilds the combination
    b = sum c_i theta_i + Q f along the basis elements that division used
    (LeftBasis.cofactors); letting both sides act on F^S kills every theta
    term.  Only what is used is read: the row's entry for f, Q, is the one
    multiplied out, and no c_i is formed."""
    wctx = fspec.weyl
    order = elimination_order(wctx)
    G = elimination_basis(fspec)
    b_op = b.moved(wctx, WeylOp)
    steps: list = []
    rem = left_normal_form(b_op, G, order, steps=steps)
    if not rem.is_zero():
        raise WitnessExtractionFailed(
            f"{b} is not in the computed Bernstein-Sato ideal")
    Q = G.cofactors(steps)[-1]
    # verification: Q . (f * F^S) equals b * F^S
    start = FSElement(fspec, fspec.f_xs, 0)
    lhs = apply_to_FS(Q, fspec, start=start)
    b_xs = b.moved(fspec.xs_vc)
    rhs = FSElement(fspec, b_xs, 0)
    if not lhs == rhs:
        raise WitnessExtractionFailed("cofactor log produced an unverified Q")
    return Q


# ---------------------------------------------------------------------------
# hyperplanes and zero-set reporting


def hyperplane_containment(B, ell: Poly) -> bool:
    """Is V(ell) inside the zero set of B?  (B: BSResult or IdealHandle.)

    ell must be affine-linear and nonconstant.  Solve ell = 0 for a variable
    with nonzero coefficient and substitute the parametrization into every
    generator; containment holds iff all vanish identically."""
    gens = B.gb if isinstance(B, BSResult) else B.gens
    if ell.is_zero() or any(sum(e) > 1 for e in ell.terms):
        raise ValueError("hyperplane form must be affine-linear")
    svc = ell.ctx
    pivot = None
    for e in ell.terms:
        if sum(e) == 1:
            pivot = e.index(1)
            break
    if pivot is None:
        raise ValueError("hyperplane form must be nonconstant")
    a = ell.terms[tuple(1 if i == pivot else 0 for i in range(svc.n))]
    rest = ell - Poly(svc, {tuple(1 if i == pivot else 0
                                  for i in range(svc.n)): a})
    parametrization = rest * (Fraction(-1) / a)
    name = svc.names[pivot]
    for g in gens:
        if not g.subs({name: parametrization}).is_zero():
            return False
    return True


def univariate_roots(b: Poly) -> Tuple[List[Tuple[Fraction, int]], Poly]:
    """Rational roots (with multiplicity) of a univariate polynomial, plus
    the root-free leftover factor (monic)."""
    ctx = b.ctx
    used = [i for i in range(ctx.n) if any(e[i] for e in b.terms)]
    if len(used) > 1:
        raise ValueError("not univariate")
    if not used:
        return [], b
    i = used[0]
    deg = max(e[i] for e in b.terms)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in b.terms.items():
        coeffs[e[i]] = c
    roots = rational_roots(coeffs)
    rem = b
    for rho, m in roots:
        lin = Poly.var(ctx, ctx.names[i]) - Poly.const(ctx, rho)
        for _ in range(m):
            rem = divide_exact(rem, lin)
            assert rem is not None
    lc = rem.terms[max(rem.terms, key=lambda e: e[i])] if not rem.is_constant() \
        else rem.constant_coeff()
    if lc not in (0, 1):
        rem = rem * (Fraction(1) / lc)
    return roots, rem


def format_principal(b: Poly, split=None) -> str:
    """Render a monic univariate generator as cleared-denominator linear
    factors, e.g. (s+1)^2*(3*s+4)/3, with any root-free part verbatim.
    split is univariate_roots(b), when the caller has it already."""
    roots, rest = univariate_roots(b) if split is None else split
    ctx = b.ctx
    used = [i for i in range(ctx.n) if any(e[i] for e in b.terms)]
    name = ctx.names[used[0]] if used else ctx.names[0]
    parts = []
    denom = 1
    for rho, m in sorted(roots, key=lambda rm: rm[0], reverse=True):
        q = rho.denominator
        p = -rho.numerator  # root -p/q gives factor q*s + p
        head = name if q == 1 else f"{q}*{name}"
        if p > 0:
            fac = f"({head}+{p})"
        elif p < 0:
            fac = f"({head}-{-p})"
        else:
            fac = f"({head})"
        if m > 1:
            fac += f"^{m}"
        parts.append(fac)
        denom *= q ** m
    if not rest.is_constant() or (rest.constant_coeff() not in (0, 1)):
        parts.append(f"({rest})")
    if not parts:
        return str(b)
    out = "*".join(parts)
    if denom > 1:
        out += f"/{denom}"
    return out


def detect_hyperplane_factors(p: Poly, degrees: Sequence[int]
                              ) -> Tuple[List[Tuple[Poly, int]], Poly]:
    """Peel linear factors of the candidate shapes s_k + c and
    sum_k d_k s_k + c (c a small positive integer) off p by trial division.

    Returns (factors with multiplicity, leftover).  This is a reporting
    heuristic, not a factorization engine: the leftover is whatever no
    candidate divides."""
    ctx = p.ctx
    r = ctx.n
    cmax = sum(degrees) + len(degrees) + r + 2
    candidates: List[Poly] = []
    for k in range(r):
        for c in range(1, cmax + 1):
            candidates.append(Poly.var(ctx, ctx.names[k]) + Poly.const(ctx, c))
    dsum = Poly.zero(ctx)
    for k, d in enumerate(degrees):
        dsum = dsum + Poly.var(ctx, ctx.names[k]) * d
    if not dsum.is_zero() and sum(1 for d in degrees if d) > 1:
        for c in range(1, cmax + 1):
            candidates.append(dsum + Poly.const(ctx, c))
    factors: List[Tuple[Poly, int]] = []
    work = p
    for cand in candidates:
        mult = 0
        while True:
            q = divide_exact(work, cand)
            if q is None:
                break
            work = q
            mult += 1
        if mult:
            factors.append((cand, mult))
    return factors, work


def diagonal_substitution(I: IdealHandle) -> IdealHandle:
    """Image of an ideal of Q[s_1..s_r] under s_k -> s (one variable)."""
    one = VarContext([("S", ["s"])])
    gens = [g.moved(one, where=[0] * I.ctx.n) for g in I.gens]
    return IdealHandle([g for g in gens if g], ctx=one)


# ---------------------------------------------------------------------------
# coarsening (merging the last two factors)


def coarsen_last_two(fspec: FactorizationSpec) -> FactorizationSpec:
    if fspec.r < 2:
        raise ValueError("need at least two factors to coarsen")
    factors = list(fspec.factors[:-2]) + [fspec.factors[-2] * fspec.factors[-1]]
    return FactorizationSpec(fspec.x_names, factors)


def merge_last_s(P: WeylOp, src: FactorizationSpec,
                 dst: FactorizationSpec) -> WeylOp:
    """Send s_{r-1}, s_r of src both onto the last s-variable of dst."""
    w = dst.weyl
    onto = w.x_names + w.dx_names + dst.s_names + dst.s_names[-1:]
    return P.moved(w, where=[w.index[v] for v in onto])


def diagonal_restriction_check(src: FactorizationSpec,
                               dst: Optional[FactorizationSpec] = None
                               ) -> bool:
    """Do the theta_F generators, after identifying the last two s-variables,
    generate exactly theta_G for the coarsened factorization G?"""
    dst = dst or coarsen_last_two(src)
    if dst.f != src.f:
        raise ValueError("coarsening must preserve the product")
    images = [merge_last_s(t, src, dst) for t in src.theta_generators()]
    theta_dst = dst.theta_generators()
    order = elimination_order(dst.weyl)
    G_dst = weyl_left_gb(theta_dst, order)
    for im in images:
        if not left_normal_form(im, G_dst, order).is_zero():
            return False
    G_img = weyl_left_gb(images, order)
    for t in theta_dst:
        if not left_normal_form(t, G_img, order).is_zero():
            return False
    return True
