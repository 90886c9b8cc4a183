"""The three workloads: inputs made from the seed, operations, checks.

A workload function takes the fpowers modules, a seeded random generator and
a work directory, and returns (operations, check).  Each operation is
(name, thunk); a thunk receives the results of the earlier operations of
the same round.  Operations named "<problem>#<k>" are the queries of one
problem (the nabla sweep's points on one factorization); any other
operation is a problem of its own.  check(results) returns a list of problems found, empty
when every answer is right.  Checks run outside the timed region and never
call fpowers: they compare against oracle.py.

The seed changes coefficients, never the shape of the work: factors are
scaled by nonzero constants (which leaves every Bernstein-Sato ideal and
every certificate unchanged), Brieskorn-Pham terms get seeded signs, the
three-line cone gets a seeded slope, and the nabla sweep draws its points.
The four-line cone keeps its slopes: other slopes make its Groebner basis
two to three times slower, and the figures would then measure the seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import oracle as O

Ops = List[Tuple[str, Callable[[Dict[str, object]], object]]]
Check = Callable[[Dict[str, object]], List[str]]

# a whole polynomial is scaled by one of SCALARS; a factor of a
# multi-factor F by one of FACTOR_SCALARS (symbol_certs: SIGNS)
SCALARS = [Fraction(c) for c in (1, -1, 2, -2, 3, -3)] + \
    [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 2)]
FACTOR_SCALARS = [Fraction(c) for c in (1, -1, 2, -2)]
SIGNS = [Fraction(1), Fraction(-1)]
SLOPES = [Fraction(c) for c in (1, -1, 2, -2, 3)] + \
    [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)]


def _lin(names: Sequence[str], coeffs: Sequence) -> O.Poly:
    n = len(names)
    out: O.Poly = {}
    for i, a in enumerate(coeffs):
        out = O.add(out, O.scale(O.var(i, n), a))
    return out


def _scaled(rng: random.Random, polys: Sequence[O.Poly],
            scalars: Sequence[Fraction] = FACTOR_SCALARS) -> List[O.Poly]:
    return [O.scale(p, rng.choice(scalars)) for p in polys]


def _spec(M, names: Sequence[str], factors: Sequence[O.Poly]):
    """A factory of fresh FactorizationSpecs for these factors.

    The factors are parsed once, at set-up; every operation builds its own
    spec, because a spec caches its hypothesis table and a shared one would
    make every round after the first skip that work."""
    vc = M["ring"].VarContext([("X", list(names))])
    polys = [M["ring"].parse_poly(O.render(f, names), vc) for f in factors]
    logder = M["logder"]
    return lambda: logder.FactorizationSpec(list(names), polys)


def _s_names(r: int) -> List[str]:
    return [f"s{k + 1}" for k in range(r)]


def _bs_check(name: str, B, forms, r: int) -> Tuple[List[str], O.Poly]:
    """The program's B_F against the closed form; returns (problems, B)."""
    gens = [O.parse(str(g), _s_names(r)) for g in B.gb]
    if len(gens) != 1:
        return [f"{name}: {len(gens)} generators, expected a principal ideal"], {}
    if not O.proportional(gens[0], O.expand(forms, r)):
        return [f"{name}: B_F differs from the closed form"], gens[0]
    return [], gens[0]


# ---------------------------------------------------------------------------
# bs_ideals


def bs_ideals(M, rng: random.Random, workdir: str) -> Tuple[Ops, Check]:
    X2, X3 = ["x", "y"], ["x", "y", "z"]
    x, y = O.var(0, 2), O.var(1, 2)
    bside = M["bside"]

    def brieskorn(exps):
        names = X2 if len(exps) == 2 else X3
        n = len(names)
        terms = [O.scale(O.power(O.var(i, n), a, n), rng.choice(SIGNS))
                 for i, a in enumerate(exps)]
        total: O.Poly = {}
        for t in terms:
            total = O.add(total, t)
        return names, [O.scale(total, rng.choice(SCALARS))], \
            O.brieskorn_pham(exps)

    singles = {
        "bp_2_3": brieskorn([2, 3]),
        "bp_2_5": brieskorn([2, 5]),
        "bp_3_4": brieskorn([3, 4]),
        "bp_2_2_2": brieskorn([2, 2, 2]),
        "bp_2_2_3": brieskorn([2, 2, 3]),
        "lines3": (X2, [O.scale(O.product(
            [x, y, _lin(X2, [1, rng.choice(SLOPES)])], 2), rng.choice(SCALARS))],
            O.generic_lines(3)),
        "lines4": (X2, [O.scale(O.product(
            [x, y, _lin(X2, [1, 1]), _lin(X2, [1, -1])], 2), rng.choice(SCALARS))],
            O.generic_lines(4)),
    }
    z3 = [O.var(i, 3) for i in range(3)]
    multis = {
        "F_x_y_xy": (X2, _scaled(rng, [x, y, _lin(X2, [1, 1])]),
                     O.generic_lines_factored(3), O.generic_lines(3)),
        "F_x_2x2yz": (X3, _scaled(rng, [z3[0], O.add(
            O.scale(O.mul(z3[0], z3[0]), 2), O.mul(z3[1], z3[2]))]),
            O.x_2x2yz_pair(), O.x_2x2yz_single()),
        # factors in disjoint variables: the product rule
        "F_x2y3_z": (X3, _scaled(rng, [O.add(O.power(z3[0], 2, 3),
                                             O.power(z3[1], 3, 3)), z3[2]]),
                     O.disjoint_product([(O.brieskorn_pham([2, 3]), [0]),
                                         (O.generic_lines(1), [1])], 2),
                     O.brieskorn_pham([2, 3]) + O.generic_lines(1)),
    }

    specs = {k: _spec(M, v[0], v[1]) for k, v in {**singles, **multis}.items()}
    ring = M["ring"]
    # b-polynomials handed to the witness and the hyperplane test, parsed by
    # the program from the oracle's own expansion
    b_23 = ring.parse_poly(O.render(O.expand(singles["bp_2_3"][2], 1), ["s1"]),
                           bside.s_context(specs["bp_2_3"]()))
    b_lines = ring.parse_poly(
        O.render(O.expand(multis["F_x_y_xy"][2], 3), _s_names(3)),
        bside.s_context(specs["F_x_y_xy"]()))
    plane = ring.parse_poly("s1 + s2 + s3 + 2",
                           bside.s_context(specs["F_x_y_xy"]()))

    def with_witness(make, b):
        F = make()
        return bside.bs_ideal(F), bside.functional_equation_witness(F, b)

    def with_hyperplane(make):
        B = bside.bs_ideal(make())
        return B, bside.hyperplane_containment(B, plane)

    # one operation per problem; the cheap witness and the hyperplane test
    # ride on the B_F of their input
    ops: Ops = []
    for key in list(singles) + list(multis):
        if key == "bp_2_3":
            thunk = lambda res, make=specs[key]: with_witness(make, b_23)
        elif key == "F_x_y_xy":
            thunk = lambda res, make=specs[key]: with_hyperplane(make)
        else:
            thunk = lambda res, make=specs[key]: (bside.bs_ideal(make()), None)
        ops.append((f"bs_ideal:{key}", thunk))
    ops.append(("witness:F_x_y_xy", lambda res: bside.functional_equation_witness(
        specs["F_x_y_xy"](), b_lines)))

    def check(res: Dict[str, object]) -> List[str]:
        problems: List[str] = []
        for key, (_names, _f, forms) in singles.items():
            problems += _bs_check(key, res[f"bs_ideal:{key}"][0], forms, 1)[0]
        for key, (_names, _f, forms, single) in multis.items():
            r = len(_f)
            bad, B = _bs_check(key, res[f"bs_ideal:{key}"][0], forms, r)
            problems += bad
            if B and not O.univariate_divides(O.expand(single, 1), O.diagonal(B)):
                problems.append(f"{key}: b_f does not divide B_F(s,...,s)")
            if key == "F_x_y_xy" and B:
                # s3 = -2 - s1 - s2 on the hyperplane sum s_k + 2 = 0
                if O.substitute(B, 2, O.parse("-s1 - s2 - 2", _s_names(3))):
                    problems.append(f"{key}: B_F does not vanish on s1+s2+s3+2")
        if res["bs_ideal:F_x_y_xy"][1] is not True:
            problems.append("hyperplane s1+s2+s3+2 not reported inside V(B_F)")
        for Q in (res["bs_ideal:bp_2_3"][1], res["witness:F_x_y_xy"]):
            if Q is None or Q.is_zero():
                problems.append("a witness returned no verified functional equation")
        return problems

    return ops, check


# ---------------------------------------------------------------------------
# nabla_sweep

NABLA_POINTS = 60          # per problem and round
CERT_SAMPLES = 6           # surjective answers whose certificate is replayed


def _grid_value(rng: random.Random) -> Fraction:
    d = rng.choice((1, 2, 3))
    return Fraction(rng.randint(-4 * d, 4 * d), d)


def _point_on(rng: random.Random, form: O.Linear) -> List[Fraction]:
    """A with A - 1 on the hyperplane `form`."""
    coeffs, c0 = form
    pivot = rng.choice([i for i, a in enumerate(coeffs) if a])
    A = [_grid_value(rng) for _ in coeffs]
    rest = sum(a * (A[i] - 1) for i, a in enumerate(coeffs) if i != pivot)
    A[pivot] = 1 + (-c0 - rest) / coeffs[pivot]
    return A


def nabla_sweep(M, rng: random.Random, workdir: str) -> Tuple[Ops, Check]:
    cli = M["cli"]
    problems_in = {
        "lines": (["x", "y"], ["x", "y", "x + y"], O.generic_lines_factored(3)),
        "cubic": (["x", "y", "z"], ["x", "2*x^2 + y*z"], O.x_2x2yz_pair()),
    }
    ops: Ops = []
    meta: Dict[str, Tuple[str, List[Fraction]]] = {}
    for key, (names, factors, forms) in problems_in.items():
        path = os.path.join(workdir, f"nabla_{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"variables": names, "factors": factors}, fh)
        for i in range(NABLA_POINTS):
            A = _point_on(rng, rng.choice(forms)) if i % 2 == 0 \
                else [_grid_value(rng) for _ in forms[0][0]]
            # "--point=" keeps a leading minus sign away from argparse
            argv = ["nabla", "--input", path,
                    "--point=" + ",".join(str(a) for a in A)]
            name = f"nabla:{key}#{i}"
            meta[name] = (key, A)
            ops.append((name, lambda res, argv=argv: cli.run_command(argv)))
    oracle_B = {key: O.expand(forms, len(forms[0][0]))
                for key, (_n, _f, forms) in problems_in.items()}
    sample_rng = random.Random(rng.random())
    test_polys = {}
    for key, (names, _f, _forms) in problems_in.items():
        n = len(names)
        polys = []
        for _ in range(2):
            p: O.Poly = {}
            for _ in range(3):
                e = tuple(sample_rng.randint(0, 2) for _ in range(n))
                p = O.add(p, {e: Fraction(sample_rng.randint(1, 5))})
            polys.append(p)
        test_polys[key] = polys

    def check(res: Dict[str, object]) -> List[str]:
        problems: List[str] = []
        onto = 0
        replayed = 0
        for name, (key, A) in meta.items():
            code, payload = res[name]
            if code != 0:
                problems.append(f"{name}: exit code {code}")
                continue
            out = payload["results"]
            surjective = out["surjective"]
            onto += surjective
            shifted = [a - 1 for a in A]
            if not surjective and O.evaluate(oracle_B[key], shifted) != 0:
                problems.append(f"{name}: not onto at A={A} but A-1 is off V(B_F)")
            if "reduced free" in out["reasoning"]:
                if out["injective"] != ("yes" if surjective else "no"):
                    problems.append(f"{name}: injectivity differs from "
                                    f"surjectivity in the reduced free case")
            if surjective and replayed < CERT_SAMPLES and \
                    int(name.rsplit("#", 1)[1]) % 7 == 0:
                replayed += 1
                problems += _replay_certificate(
                    name, payload, problems_in[key][0], test_polys[key])
        total = len(meta)
        if min(onto, total - onto) * 10 < total:
            problems.append(f"only {onto} of {total} queries onto: both "
                            f"outcomes must make up a tenth")
        if replayed == 0:
            problems.append("no certificate was replayed")
        return problems

    return ops, check


def _replay_certificate(name: str, payload, names: Sequence[str],
                        polys: Sequence[O.Poly]) -> List[str]:
    """1 = sum c_i g_i, so sum c_i(g_i(p)) must give back p."""
    cert = payload.get("certificates", {})
    ops_names = list(names) + ["d" + v for v in names]
    n = len(names)
    cofs = [O.parse(t, ops_names) for t in cert.get("reduction", [])]
    gens = [O.parse(t, ops_names) for t in cert.get("generators", [])]
    if not cofs or len(cofs) != len(gens):
        return [f"{name}: surjective without a usable certificate"]
    for p in polys:
        total: O.Poly = {}
        for c, g in zip(cofs, gens):
            total = O.add(total, O.apply_operator(c, n, O.apply_operator(g, n, p)))
        if total != p:
            return [f"{name}: certificate does not act as the identity"]
    return []


# ---------------------------------------------------------------------------
# symbol_certs

# gr_equality_certificate runs where it finishes in seconds (on (x, y, x+y)
# and (x, 2x^2 + yz) it takes close to a minute); phi_F_kernel runs on its
# own, for the benchmark's check of its generators, only where it takes
# well under a second, so that a round stays short enough to repeat
GR_CERT_FIXTURES = {"x", "x_y", "x_y_z", "x_yxy"}
KERNEL_FIXTURES = {"x", "x_y", "x_y_z"}


def symbol_certs(M, rng: random.Random, workdir: str) -> Tuple[Ops, Check]:
    X1, X2, X3 = ["x"], ["x", "y"], ["x", "y", "z"]
    v = {n: [O.var(i, len(names)) for i, _ in enumerate(names)]
         for n, names in (("1", X1), ("2", X2), ("3", X3))}
    fixtures = {
        "x": (X1, [v["1"][0]], True),
        "x_y": (X2, v["2"], True),
        "x_y_xy": (X2, v["2"] + [_lin(X2, [1, 1])], True),
        "x_2x2yz": (X3, [v["3"][0], O.add(O.scale(O.mul(v["3"][0], v["3"][0]), 2),
                                          O.mul(v["3"][1], v["3"][2]))], False),
        "x_y_z": (X3, v["3"], True),
        "x_yxy": (X2, [v["2"][0], O.mul(v["2"][1], _lin(X2, [1, 1]))], True),
    }
    fixtures = {k: (names, _scaled(rng, fs, SIGNS), free)
                for k, (names, fs, free) in fixtures.items()}
    specs = {k: _spec(M, names, fs) for k, (names, fs, _free) in fixtures.items()}
    gb, liou, nabla, sp = M["gb"], M["liouville"], M["nabla"], M["spencer"]

    def certify(key: str, free: bool) -> Dict[str, object]:
        """Every symbol-ideal certificate of one fixture, each call on a
        fresh spec."""
        make = specs[key]
        F = make()
        data = liou.build_liouville_ideals(F)
        out: Dict[str, object] = {"dim": gb.krull_dimension(data.Ltilde_F)}
        weights = [1] * (2 * F.n) + [2] * F.r
        out["cm"] = [gb.graded_free_resolution(gb.GradedModulePresentation(
            F.symbol_vc, weights, 1, [[g] for g in handle.gens])).is_CM
            for handle in (data.L_F, data.Ltilde_F) if handle.gens]
        out["sreg"] = nabla.s_regularity_check(make())
        if free:
            C = sp.spencer_complex(make())
            rep = sp.verify_chain_conditions(C)
            out["spencer"] = [rep.d2_zero, rep.terminal_image_eq_thetaF,
                              rep.gr_exactness_certificate, sp.dual_lift_check(C),
                              sp.tau_transposed_chain_holds(C)]
        if key in KERNEL_FIXTURES:
            out["kernel"] = liou.phi_F_kernel(make())
        if key in GR_CERT_FIXTURES:
            out["gr_cert"] = liou.gr_equality_certificate(make())
        return out

    # one operation per fixture: a request for all of its certificates
    ops: Ops = [(f"certify:{key}", lambda res, key=key, free=free: certify(key, free))
                for key, (_names, _fs, free) in fixtures.items()]

    def check(res: Dict[str, object]) -> List[str]:
        problems: List[str] = []
        for key, (names, fs, free) in fixtures.items():
            n, r = len(names), len(fs)
            out = res[f"certify:{key}"]
            if out["dim"] != n + r:
                problems.append(f"{key}: dim Ltilde_F = {out['dim']}, expected {n + r}")
            if not out["cm"] or not all(flag is True for flag in out["cm"]):
                problems.append(f"{key}: R/L_F or R/Ltilde_F not certified CM")
            rep = out["sreg"]
            if not (rep.passed and rep.final_quotient_matches
                    and all(ok for _, ok in rep.steps)):
                problems.append(f"{key}: s-regularity check failed")
            if free and not all(out["spencer"]):
                problems.append(f"{key}: a Spencer chain check failed")
            if key in KERNEL_FIXTURES:
                sym = list(names) + [f"y{i + 1}" for i in range(n)] + _s_names(r)
                if not out["kernel"].gens:
                    problems.append(f"{key}: empty kernel")
                for g in out["kernel"].gens:
                    if O.phi_image(O.parse(str(g), sym), fs, n):
                        problems.append(f"{key}: kernel generator {g} survives phi_F")
                        break
            if key in GR_CERT_FIXTURES and \
                    out["gr_cert"]["Ltilde_eq_kernel"] is not True:
                problems.append(f"{key}: Ltilde_F != ker phi_F")
        return problems

    return ops, check


BUILDERS = {
    "bs_ideals": bs_ideals,
    "nabla_sweep": nabla_sweep,
    "symbol_certs": symbol_certs,
}
