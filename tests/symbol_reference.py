"""The symbol-ideal checks that nabla and liouville replaced, kept for the
tests as a reference.

Both built all three Liouville ideals (build_liouville_ideals, with the
In010 basis) to read one of them, and s_regularity_check built a second,
single-factor FactorizationSpec for L_f and ran its own colon loop, each
colon the tag-variable one (gate_reference.ideal_colon).
"""

from fpowers.gb import IdealHandle
from fpowers.liouville import build_liouville_ideals, phi_F_kernel
from fpowers.logder import (
    FactorizationSpec, assumed_table, euler_and_seh_check, required_hold,
)
from fpowers.nabla import SRegularityReport
from fpowers.ring import Poly, VarContext, parse_poly

from gate_reference import ideal_colon

# the six factorizations of the symbol_certs benchmark workload (without
# its random scalars), and x^2 + y^2 + x^3, which has no Euler derivation
FIXTURES = {
    "x": (["x"], ["x"]),
    "x_y": (["x", "y"], ["x", "y"]),
    "x_y_xy": (["x", "y"], ["x", "y", "x + y"]),
    "x_2x2yz": (["x", "y", "z"], ["x", "2*x^2 + y*z"]),
    "x_y_z": (["x", "y", "z"], ["x", "y", "z"]),
    "x_yxy": (["x", "y"], ["x", "y*(x + y)"]),
    "no_euler": (["x", "y"], ["x^2 + y^2 + x^3"]),
}


def spec(key):
    """A fresh FactorizationSpec of FIXTURES[key]."""
    names, factors = FIXTURES[key]
    vc = VarContext([("X", names)])
    return FactorizationSpec(names, [parse_poly(f, vc) for f in factors])


def s_regularity_check(fspec, s_order=None):
    """Are s_1, ..., s_r a regular sequence on Q[x,y,S]/Ltilde_F, and does
    Ltilde + (S) equal L_f + (gr E) + (S)?"""
    data = build_liouville_ideals(fspec)
    sym = fspec.symbol_vc
    s_names = fspec.weyl.s_names
    idx = list(s_order) if s_order is not None else list(range(fspec.r))
    if sorted(idx) != list(range(fspec.r)):
        raise ValueError("s_order must be a permutation of the factor indices")

    base = list(data.Ltilde_F.gens)
    taken = []
    steps = []
    passed = True
    for i in idx:
        J = IdealHandle(base + taken)
        s_i = Poly.var(sym, s_names[i])
        C = ideal_colon(J, s_i)
        stable = J.contains_ideal(C)
        steps.append((s_names[i], stable))
        passed = passed and stable
        taken.append(s_i)

    final = IdealHandle(base + taken)
    single = FactorizationSpec(fspec.x_names, [fspec.f])
    lf = build_liouville_ideals(single).L_F
    target_gens = [g.map_context(sym) for g in lf.gens]
    rep = euler_and_seh_check(fspec.f)
    if rep.euler is None:
        return SRegularityReport(passed, steps, False,
                                 "no Euler derivation certificate for f")
    target = IdealHandle(target_gens + [rep.euler.symbol(fspec.weyl)] + taken)
    match = final.equals(target)
    reason = ("quotient by (S) equals L_f + (gr E)" if match
              else "quotient by (S) differs from L_f + (gr E)")
    return SRegularityReport(passed, steps, match, reason)


def gr_equality_certificate(fspec, assume_hypotheses=False):
    """Ltilde_F = ker(phi_F) by two-sided membership, and the conclusion
    the hypotheses allow."""
    data = build_liouville_ideals(fspec)
    K = phi_F_kernel(fspec)
    forward = K.contains_ideal(data.Ltilde_F)
    backward = data.Ltilde_F.contains_ideal(K) if data.Ltilde_F.gens else \
        K.is_zero_ideal()
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
