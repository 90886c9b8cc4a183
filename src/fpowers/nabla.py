"""Surjectivity of the shift map on F^S and the s-regularity certificates.

Shifting every s_k by one sends D[S]F^S/(S-A)D[S]F^S onto the corresponding
quotient at A+1 (multiplication by f on powers); that map is onto exactly
when 1 lies in the D_n-ideal generated by f together with theta_F evaluated
at S = A-1, that is, when the basis loop of those generators ends on a
unit (the leads of its reduced basis are then [0]; no element is reduced).
The certificate, 1 as a left combination of the generators, is read from
the one step that divides 1 by that unit; every entry of its row is read,
as the integer operator and scale the rebuild made it, and checked
exactly on their integer images.
Injectivity has no direct test here -- only the implications that relate it
to surjectivity under checked hypotheses are reported.

The regular-sequence side: the s_i act on Q[x,y,S]/Ltilde_F like a regular
sequence, verified step by step from the leads of one basis each
(logder.colon_stable_steps), and the final quotient collapses to the
single-factor data L_f + (gr E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .gb import IdealHandle
from .liouville import liouville_symbols
from .logder import (
    FactorizationSpec, colon_stable_steps, euler_and_seh_check, required_hold,
)
from .ring import MonomialOrder, Poly, Scaled, add_terms, exp_add
from .weyl import WeylOp, _left_divisors, weyl_left_gb

from .bside import BSResult


@dataclass
class NablaReport:
    A: Tuple[Fraction, ...]
    surjective: bool
    injective: str                     # "yes" / "no" / "unknown"
    reasoning: str
    certificate: Optional[List[WeylOp]]   # 1 = sum cert_i * gen_i when onto
    generators: Optional[List[WeylOp]] = None


def _specialized_generators(fspec: FactorizationSpec,
                            A: Sequence[Fraction]) -> List[WeylOp]:
    """theta_F at S = A-1, plus f, all in plain D_n (the one context
    fspec.weyl.plain)."""
    shift = {name: Fraction(a) - 1
             for name, a in zip(fspec.weyl.s_names, A)}
    plain = fspec.weyl.plain
    gens = [t.subs(shift).moved(plain) for t in fspec.theta_generators()]
    gens.append(fspec.f.moved(plain, WeylOp))
    return gens


def nabla_surjective(fspec: FactorizationSpec, A: Sequence[Fraction],
                     assume_hypotheses: bool = False) -> NablaReport:
    """Is the shift-by-one map at the point A onto?

    Criterion: 1 in D_n * ({theta_F at S=A-1} union {f}), that is, the
    basis loop ends on a unit, and the reduced basis is [1] (its leads are
    [0]); a basis without a unit is not onto, with no division at all.
    Only when onto is the certificate built: the division of 1 by [1] is
    the one step (0, 0, 1), and the basis log gives 1 as an explicit left
    combination of the generators along it (LeftBasis.cofactors), verified
    exactly on integer images (_certificate_holds).
    """
    A = tuple(Fraction(a) for a in A)
    if len(A) != fspec.r:
        raise ValueError("point length must match the number of factors")
    gens = _specialized_generators(fspec, A)
    order = MonomialOrder.grevlex()
    G = weyl_left_gb(gens, order)
    zero = gens[-1].ctx.zero_exp()
    surjective = G.leads == [zero]
    certificate = None
    if surjective:
        cof = G.cofactors([(0, zero, 1, 1)])
        rows = [cof.scaled(i) for i in range(len(gens))]
        if not _certificate_holds(rows, gens, order):
            raise AssertionError("membership certificate failed to multiply out")
        certificate = list(cof)

    hyps = fspec.check_hypotheses()
    flag = lambda k: hyps[k][0] == "yes"
    full = assume_hypotheses or required_hold(hyps)
    iff_case = (flag("reduced") and flag("free")
                and (assume_hypotheses
                     or (flag("strong_euler_origin") and flag("saito_holonomic"))))
    if iff_case:
        injective = "yes" if surjective else "no"
        reasoning = ("injectivity is equivalent to surjectivity for reduced "
                     "free divisors (hypotheses verified)")
    elif full:
        if surjective:
            injective = "unknown"
            reasoning = ("injectivity implies surjectivity under the verified "
                         "hypotheses; the converse is not available")
        else:
            injective = "no"
            reasoning = ("not surjective, and injectivity would force "
                         "surjectivity under the verified hypotheses")
    else:
        injective = "unknown"
        reasoning = "hypotheses unverified; no implication applies"
    return NablaReport(A, surjective, injective, reasoning, certificate, gens)


def _certificate_holds(rows: Sequence[Scaled], gens: Sequence[WeylOp],
                       order: MonomialOrder) -> bool:
    """Is sum_i rows[i] * gens[i] = 1 in D_n, row i being sigma_i * R_i,
    R_i an integer term map (the ring.Scaled of Row.scaled, as the
    rebuild made it)?

    Checked on integer images, with no Fraction product: the ring.Divisors
    of gens holds each nonzero g_i as tau_i * image_i, and a term r*x^m of
    R_i adds the one Divisors.multiple r * x^m * image_i at the scale
    sigma_i*tau_i.  All of them are taken at one common scale 1/D, D the
    least common denominator of the sigma_i*tau_i, so their integer sum
    is D times the combination, which must be the constant D."""
    ctx = gens[0].ctx
    divisors = _left_divisors(ctx, gens, order)
    # the rows of the nonzero generators, in the order of divisors
    rows = [row for row, g in zip(rows, gens) if not g.is_zero()]
    parts = []
    for lead, (image, tau), (R, sigma) in zip(divisors.leads,
                                              divisors.images, rows):
        if R:
            parts.append((lead, image, R, sigma * tau))
    D = math.lcm(*(t.denominator for *_, t in parts))
    total: dict = {}
    for lead, image, R, t in parts:
        b = t.numerator * (D // t.denominator)
        for m, r in R.items():
            add_terms(total, divisors.multiple(exp_add(m, lead), lead, image,
                                               b * r))
    return total == {ctx.zero_exp(): D}


def bs_variety_membership(B, A: Sequence[Fraction]) -> bool:
    """Does the point A lie in the zero set of B?  (B: BSResult or
    IdealHandle over the s-variables.)"""
    gens = B.gb if isinstance(B, BSResult) else list(B.gens)
    if not gens:
        return True
    ctx = gens[0].ctx
    A = [Fraction(a) for a in A]
    if len(A) != ctx.n:
        raise ValueError("point length must match the s-variable count")
    assignment = dict(zip(ctx.names, A))
    return all(not g.subs(assignment) for g in gens)


# ---------------------------------------------------------------------------
# graded regularity of the s-variables


@dataclass
class SRegularityReport:
    passed: bool
    steps: List[Tuple[str, bool]]        # (variable, colon stabilized?)
    final_quotient_matches: bool
    reason: str

    def __bool__(self) -> bool:
        return self.passed and self.final_quotient_matches


def s_regularity_check(fspec: FactorizationSpec,
                       s_order: Optional[Sequence[int]] = None
                       ) -> SRegularityReport:
    """Are s_1, ..., s_r a regular sequence on Q[x,y,S]/Ltilde_F?

    Step i verifies (Ltilde + (s_1..s_{i-1})) : s_i stays put.  At the end
    the quotient by all of S must collapse to the single-factor picture:
    Ltilde + (S) = L_f + (gr E) + (S), with E an Euler derivation of f.
    L_f is spanned by the (0,1) symbols of the Der(-log0 f) generators,
    which psi_f leaves as they are (delta(f) = 0).
    """
    sym = fspec.symbol_vc
    s_names = fspec.weyl.s_names
    idx = list(s_order) if s_order is not None else list(range(fspec.r))
    if sorted(idx) != list(range(fspec.r)):
        raise ValueError("s_order must be a permutation of the factor indices")

    base = liouville_symbols(fspec, "log")
    taken = [Poly.var(sym, s_names[i]) for i in idx]
    stable = list(colon_stable_steps(base, taken, sym))
    steps = [(s_names[i], ok) for i, ok in zip(idx, stable)]
    passed = all(stable)

    final = IdealHandle(base + taken)
    lf = [d.symbol(fspec.weyl) for d in fspec.log_derivations("log0")]
    rep = euler_and_seh_check(fspec.f)
    if rep.euler is None:
        return SRegularityReport(passed, steps, False,
                                 "no Euler derivation certificate for f")
    target = IdealHandle(lf + [rep.euler.symbol(fspec.weyl)] + taken)
    match = final.equals(target)
    reason = ("quotient by (S) equals L_f + (gr E)" if match
              else "quotient by (S) differs from L_f + (gr E)")
    return SRegularityReport(passed, steps, match, reason)
