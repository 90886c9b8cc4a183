"""The symbol-ideal checks that nabla and liouville replaced, kept for the
tests as a reference.

graph_phi_F_kernel is ker(phi_F) as liouville.phi_F_kernel computed it
before the saturation Ltilde_F : f^inf: from the graph ideal, eliminating
target copies _ts* of S.  two_copy_phi_F_kernel is the same with copies
_tx* of x as well, and full_eliminate the gb.eliminate it ran on, which
reduced the whole block-order basis on the replaced engine
(engine_reference) and kept its elements free of the block.

Both built all three Liouville ideals (build_liouville_ideals, with the
In010 basis) to read one of them, and s_regularity_check built a second,
single-factor FactorizationSpec for L_f and ran its own colon loop, each
colon the tag-variable one (gate_reference.ideal_colon).
"""

import engine_reference
from fpowers.gb import IdealHandle, _drop_block_context, eliminate
from fpowers.liouville import build_liouville_ideals
from fpowers.logder import (
    FactorizationSpec, assumed_table, euler_and_seh_check, required_hold,
)
from fpowers.nabla import SRegularityReport
from fpowers.ring import MonomialOrder, Poly, VarContext, parse_poly

from gate_reference import ideal_colon
from move_reference import map_context

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
    target_gens = [map_context(g, sym) for g in lf.gens]
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
    K = graph_phi_F_kernel(fspec)
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


def full_eliminate(I, drop_block):
    """I intersected with the subring without drop_block: the elements
    free of the block of the whole reduced basis under the block order
    that puts it first, on the replaced engine."""
    ctx = I.ctx
    rest = [b for b, _ in ctx.blocks if b != drop_block]
    order = MonomialOrder.block(ctx, [drop_block] + rest)
    dropped = set(ctx.block_indices[drop_block])
    ctx2 = _drop_block_context(ctx, drop_block)
    kept = [map_context(g, ctx2)
            for g in engine_reference.groebner_basis(I.gens, order)
            if all(all(e[i] == 0 for i in dropped) for e in g.terms)]
    return IdealHandle(kept, ctx=ctx2)


def graph_phi_F_kernel(fspec):
    """ker(phi_F) from the graph ideal in Q[_ts][x, y, S], generated by
    each y_i and s_k less its image with the copies _ts* in place of S
    (x maps to itself, so it needs no copies), eliminating the copies."""
    sym, xs = fspec.symbol_vc, fspec.xs_vc
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
    assert out.ctx == sym
    return out


def two_copy_phi_F_kernel(fspec):
    """ker(phi_F) from the graph ideal in Q[_tx, _ts][x, y, S], x_i less
    its copy _tx_i among its generators, eliminating both copies."""
    sym = fspec.symbol_vc
    n, r = fspec.n, fspec.r
    pre = "_t"
    while any(v.startswith(pre) for v in sym.index):
        pre += "_"
    tx = [f"{pre}x{i+1}" for i in range(n)]
    ts = [f"{pre}s{k+1}" for k in range(r)]
    big = VarContext([("W", tx + ts)] + list(sym.blocks))

    def tvar(name):
        return Poly.var(big, name)

    def to_big_from_xs(p):
        out = Poly.zero(big)
        for e, c in p.terms.items():
            ee = [0] * big.n
            for i in range(n):
                ee[big.index[tx[i]]] = e[fspec.xs_vc.index[fspec.x_names[i]]]
            for k in range(r):
                ee[big.index[ts[k]]] = e[fspec.xs_vc.index[fspec.s_names[k]]]
            out = out + Poly(big, {tuple(ee): c})
        return out

    gens = []
    for i, xn in enumerate(fspec.x_names):
        gens.append(Poly.var(big, xn) - tvar(tx[i]))
    f_t = to_big_from_xs(fspec.f_xs)
    for i in range(n):
        img = Poly.zero(big)
        for k in range(r):
            img = img + to_big_from_xs(fspec.cofactor_xs[k]
                                       * fspec.dfk_xs[k][i]) * tvar(ts[k])
        gens.append(Poly.var(big, fspec.weyl.y_names[i]) - img)
    for k, sn in enumerate(fspec.s_names):
        gens.append(Poly.var(big, sn) - f_t * tvar(ts[k]))
    return full_eliminate(IdealHandle(gens), "W")
