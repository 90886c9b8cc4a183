"""Liouville-type symbol ideals of a factorization, and their certificates.

For F = (f_1, ..., f_r) with f = prod f_k, work in Q[x, y, S] where y_i is
the (0,1,1)-symbol of d_i:

  L_F      = ideal of symbols of psi_F(Der(-log0 f)),
  Ltilde_F = ideal of symbols of psi_F(Der(-log f))  (all of theta_F),
  In010    = initial ideal of L_F when y-degree is the grading weight.

The ideal-theoretic backbone: Ltilde_F always sits inside ker(phi_F), the
defining ideal of the multi-Rees algebra of the Jacobian-type modules; when
the two coincide we get a primality certificate for Ltilde_F (a kernel into
a domain is prime), which is the computable route to the gr-equality chain.

Homogenization machinery (HOM_u, u-refined initial ideals, the t = 0 / t = 1
fibers) lives here too, since the initial-ideal comparisons ride on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .gb import (
    IdealHandle,
    eliminate,
    groebner_basis,
    is_nonzerodivisor,
    krull_dimension,
)
from .ring import MonomialOrder, Poly, VarContext, exp_weight, initial_form_weights
from .weyl import gr_symbol
from .logder import FactorizationSpec, assumed_table, psi_F, required_hold


@dataclass
class LiouvilleData:
    fspec: FactorizationSpec
    L_F: IdealHandle
    Ltilde_F: IdealHandle
    In010_LF: IdealHandle


def liouville_symbols(fspec: FactorizationSpec, variant: str) -> List[Poly]:
    """Symbols gr_{(0,1,1)}(psi_F(delta)) over Q[x,y,S] for delta running
    through the generators of Der(-log f) or Der(-log0 f)."""
    gens = fspec.log_derivations(variant)
    out = []
    for d in gens:
        P = psi_F(d, fspec)
        if P.is_zero():
            continue
        out.append(gr_symbol(P, "(0,1,1)"))
    return out


def build_liouville_ideals(fspec: FactorizationSpec) -> LiouvilleData:
    sym_vc = fspec.symbol_vc
    l_gens = liouville_symbols(fspec, "log0")
    lt_gens = liouville_symbols(fspec, "log")
    L = IdealHandle(l_gens, ctx=sym_vc)
    Lt = IdealHandle(lt_gens, ctx=sym_vc)
    w010 = sym_vc.grading("(0,1,0)")
    In010 = initial_ideal(L, w010)
    return LiouvilleData(fspec, L, Lt, In010)


def initial_ideal(I: IdealHandle, u: Sequence[int]) -> IdealHandle:
    """In_u(I): the ideal of top u-weight forms, via a u-refined GB.

    A GB under the u-refined order has the property that the u-initial
    forms of its elements generate the full initial ideal."""
    if I.is_zero_ideal():
        return IdealHandle.zero(I.ctx)
    order = MonomialOrder.weighted(u)
    gb = groebner_basis(I.gens, order)
    gens = [initial_form_weights(g, u) for g in gb]
    return IdealHandle(gens)


# ---------------------------------------------------------------------------
# the multi-Rees kernel


def phi_F_kernel(fspec: FactorizationSpec) -> IdealHandle:
    """Kernel of Q[x,y,S] -> Q[x,S] with
        x_i |-> x_i,
        y_i |-> sum_k (f/f_k) (d_i f_k) s_k,
        s_k |-> f * s_k.
    Computed from the graph ideal by eliminating the target copies: x
    maps to itself, so only S needs copies _ts*, and the graph ideal in
    Q[_ts][x, y, S] is generated by each y_i and s_k less its image, with
    the copies in place of S.  The result is prime: it is the kernel of a
    map into a polynomial ring (a domain)."""
    sym, xs = fspec.symbol_vc, fspec.xs_vc
    # the target copies, under a prefix no declared name has
    pre = "_t"
    while any(v.startswith(pre) for v in sym.index):
        pre += "_"
    ts = [f"{pre}s{k+1}" for k in range(fspec.r)]
    big = VarContext([("W", ts)] + list(sym.blocks))
    # Q[x, S] into big: x onto x, each s_k onto its copy
    where = [big.index[v] for v in fspec.x_names + ts]

    S = [Poly.var(xs, sn) for sn in fspec.s_names]
    gens = []
    for i, yn in enumerate(fspec.weyl.y_names):
        img = Poly.zero(xs)
        for k in range(fspec.r):
            img = img + fspec.cofactor_xs[k] * fspec.dfk_xs[k][i] * S[k]
        gens.append(Poly.var(big, yn) - img.moved(big, where=where))
    for k, sn in enumerate(fspec.s_names):
        gens.append(Poly.var(big, sn)
                    - (fspec.f_xs * S[k]).moved(big, where=where))
    out = eliminate(IdealHandle(gens), "W")
    # eliminate() returns generators over sym_vc's blocks in original order
    assert out.ctx == sym
    return out


# ---------------------------------------------------------------------------
# gr-equality certificate


def gr_equality_certificate(fspec: FactorizationSpec,
                            assume_hypotheses: bool = False) -> Dict[str, object]:
    """Check Ltilde_F = ker(phi_F) by two-sided membership.

    When the equality holds, Ltilde_F is prime (kernel into a domain).  If in
    addition the recorded hypotheses hold (strong Euler-homogeneity,
    Saito-holonomicity, tameness), the equality certifies the full chain
      Ltilde_F = gr_{(0,1,1)}(Ann F^S) = ker(phi_F).
    Of the Liouville ideals it builds only Ltilde_F.
    """
    Lt = IdealHandle(liouville_symbols(fspec, "log"), ctx=fspec.symbol_vc)
    K = phi_F_kernel(fspec)
    forward = K.contains_ideal(Lt)
    backward = Lt.contains_ideal(K) if Lt.gens else K.is_zero_ideal()
    equal = forward and backward
    if assume_hypotheses:
        hyps_ok = True
        hyps = assumed_table()
    else:
        hyps = fspec.check_hypotheses()
        hyps_ok = required_hold(hyps)
    if equal and hyps_ok:
        conclusion = ("Ltilde_F = gr(Ann F^S) = ker(phi_F); "
                      "Ltilde_F is prime (kernel into a domain)")
    elif equal:
        conclusion = ("Ltilde_F = ker(phi_F), hence prime; the gr(Ann) link "
                      "needs the unverified hypotheses")
    else:
        conclusion = "Ltilde_F != ker(phi_F); no certificate"
    return {
        "Ltilde_eq_kernel": equal,
        "Ltilde_in_kernel": forward,
        "hypotheses_verified": hyps_ok,
        "hypotheses": hyps,
        "primality_certificate": equal,
        "conclusion": conclusion,
    }


# ---------------------------------------------------------------------------
# homogenization (HOM_u) and the u-refined orders


def extend_with_t(ctx: VarContext) -> VarContext:
    return VarContext(list(ctx.blocks) + [("T", ["t"])])


def homogenize_u(I: IdealHandle, u: Sequence[int]) -> IdealHandle:
    """HOM_u(I) in ctx + t: each GB element g becomes
    sum c * x^e * t^(deg_u(g) - u.e).

    Homogenizing a u-refined GB (not arbitrary generators) is what makes
    this the full ideal generated by the homogenizations of every element
    of I.  Requires nonnegative u and, per the torsion-freeness and fiber
    facts, generators with zero constant term (I inside the irrelevant
    ideal)."""
    if any(w < 0 for w in u):
        raise ValueError("u must be nonnegative")
    for g in I.gens:
        if g.constant_coeff() != 0:
            raise ValueError("homogenize_u requires generators without "
                             "constant term")
    ctx_t = extend_with_t(I.ctx)
    if I.is_zero_ideal():
        return IdealHandle.zero(ctx_t)
    order = MonomialOrder.weighted(u)
    gb = groebner_basis(I.gens, order)
    t_idx = ctx_t.index["t"]
    out = []
    for g in gb:
        d = max(exp_weight(e, tuple(u)) for e in g.terms)
        terms = {}
        for e, c in g.terms.items():
            ee = list(e) + [0]
            ee[t_idx] = d - exp_weight(e, tuple(u))
            terms[tuple(ee)] = c
        out.append(Poly(ctx_t, terms))
    return IdealHandle(out)


def substitute_t(I: IdealHandle, value: int) -> IdealHandle:
    """Image of I under t |-> value, as an ideal of the t-free subring."""
    base = VarContext([(b, vs) for b, vs in I.ctx.blocks if b != "T"])
    gens = [g.subs({"t": value}).moved(base) for g in I.gens]
    return IdealHandle([g for g in gens if g], ctx=base)


def tau_u_order(u: Sequence[int],
                tie: Optional[MonomialOrder] = None) -> MonomialOrder:
    """Monomial order refining the u-grading (ties by `tie`)."""
    return MonomialOrder.weighted(u, tie)


def tau_u_prime_order(ctx_t: VarContext, u: Sequence[int],
                      tie: Optional[MonomialOrder] = None) -> MonomialOrder:
    """Extension to ctx + t: compare (u,1)-weight first, then *smaller*
    t-degree wins, then the tie order on the t-free part."""
    tie = tie or MonomialOrder.grevlex()
    t_idx = ctx_t.index["t"]
    uprime = tuple(u) + (1,)

    def key(e):
        base = tuple(v for i, v in enumerate(e) if i != t_idx)
        return (exp_weight(e, uprime), -e[t_idx], tie.key(base))

    return MonomialOrder("tau_u_prime", key, f"tau_u'({list(u)})")


def leading_exponents(I: IdealHandle, order: MonomialOrder
                      ) -> List[Tuple[int, ...]]:
    """Minimal generating exponents of the leading-term ideal under order."""
    if I.is_zero_ideal():
        return []
    return sorted(groebner_basis(I.gens, order).leads)


def monomial_ideals_equal(exps_a: Sequence[Tuple[int, ...]],
                          exps_b: Sequence[Tuple[int, ...]]) -> bool:
    def contained(A, B):
        return all(any(all(x >= y for x, y in zip(e, b)) for b in B)
                   for e in A)
    if not exps_a or not exps_b:
        return not exps_a and not exps_b
    return contained(exps_a, exps_b) and contained(exps_b, exps_a)


# ---------------------------------------------------------------------------
# randomized property suite for the homogenization toolkit


def homogenization_property_suite(count: int = 20, seed: int = 0
                                  ) -> Dict[str, object]:
    """Check the HOM_u toolkit on `count` random ideals over a coefficient
    ring: 1-2 weight-zero coefficient variables, 1-2 positively weighted main
    variables, every generator term with positive main-variable degree so
    that I sits inside the ideal of the main variables.

    Per ideal: (HOM_u(I):t) = HOM_u(I) (gb.is_nonzerodivisor under the
    grading (u, 1)); the t->0 / t->1 fibers recover
    In_u(I) / I; the leading ideals under the u-refined orders agree up to
    the extra t coordinate; dim In_u(I) >= dim I.
    """
    rng = random.Random(seed)
    tally = {"colon_stable": 0, "fiber_t0": 0, "fiber_t1": 0,
             "initial_identity": 0, "dim_inequality": 0}
    failures: List[str] = []
    checked = 0
    attempts = 0
    while checked < count and attempts < 60 * count:
        attempts += 1
        ncoef = rng.randint(1, 2)
        nmain = rng.randint(1, 2)
        names_r = ["a", "b"][:ncoef]
        names_x = ["w1", "w2"][:nmain]
        vc = VarContext([("R", names_r), ("X", names_x)])
        u = [0] * ncoef + [rng.randint(1, 2) for _ in range(nmain)]
        gens: List[Poly] = []
        for _ in range(rng.randint(1, 3)):
            terms: Dict[Tuple[int, ...], Fraction] = {}
            for _ in range(rng.randint(1, 4)):
                while True:
                    e = tuple(rng.randint(0, 3) for _ in range(vc.n))
                    if sum(e) <= 3 and sum(e[ncoef:]) > 0:
                        break
                c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                terms[e] = terms.get(e, Fraction(0)) + c
            terms = {e: c for e, c in terms.items() if c}
            if terms:
                gens.append(Poly(vc, terms))
        if not gens:
            continue
        I = IdealHandle(gens)
        checked += 1
        tag = f"trial {checked} (seed {seed})"
        H = homogenize_u(I, u)
        if is_nonzerodivisor(H, Poly.var(H.ctx, "t"), tuple(u) + (1,)):
            tally["colon_stable"] += 1
        else:
            failures.append(f"{tag}: (HOM_u(I):t) != HOM_u(I)")
        In = initial_ideal(I, u)
        if substitute_t(H, 0).equals(In):
            tally["fiber_t0"] += 1
        else:
            failures.append(f"{tag}: t->0 fiber differs from In_u(I)")
        if substitute_t(H, 1).equals(I):
            tally["fiber_t1"] += 1
        else:
            failures.append(f"{tag}: t->1 fiber differs from I")
        lm_i = leading_exponents(I, tau_u_order(u))
        lm_h = leading_exponents(H, tau_u_prime_order(H.ctx, u))
        if monomial_ideals_equal([e + (0,) for e in lm_i], lm_h):
            tally["initial_identity"] += 1
        else:
            failures.append(f"{tag}: refined-order leading ideals differ")
        if krull_dimension(In) >= krull_dimension(I):
            tally["dim_inequality"] += 1
        else:
            failures.append(f"{tag}: dim dropped when passing to In_u(I)")
    return {
        "count": checked,
        "seed": seed,
        **tally,
        "failures": failures,
        "all_pass": checked == count and not failures,
    }
