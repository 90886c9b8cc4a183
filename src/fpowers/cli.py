"""Command-line surface: problem files in, line-oriented or JSON reports out.

Problem files are UTF-8 JSON::

    {"variables": ["x", "y"],
     "factors": ["x", "y"],
     "arrangement": {"forms": ["x", "y"], "multiplicities": [1, 1],
                     "grouping": [[0], [1]]},
     "options": {"order": "grevlex", "max_degree": 60, "max_basis": 20000}}

The optional arrangement block must multiply out, group by group, to the
declared factors.  Options can also be set per run with ``--order``,
``--max-degree`` and ``--max-basis``; the order is "grevlex" or "lex", the
bounds positive integers.  Each command runs inside one
``with gb.Limits(...)`` block built from the two bounds, so every basis
computation of the request sees the same bound (gb.Limits.current()), and
the problem file's polynomials are parsed under it: a power above the
degree bound is exit 3 before it is expanded.

Exit codes: 0 success; 1 usage or parse error (with a position diagnostic
where one exists); 2 a required hypothesis did not check out (the result is
still emitted, downgraded to containment-level validity); 3 resource limit.

Text reports are line-oriented so they diff cleanly; ``--json`` emits the
same payload as JSON.  Reruns on the same input are byte-identical apart
from the timing field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .arrange import ArrangementSpec, NotLinear, arrangement_analyze
from .bside import (
    WitnessExtractionFailed,
    ann_FS,
    bs_ideal,
    detect_hyperplane_factors,
    format_principal,
    functional_equation_witness,
    hyperplane_containment,
    s_context,
    univariate_roots,
)
from .gb import DEFAULT_LIMITS, IdealHandle, Limits, ResourceLimit, krull_dimension
from .liouville import (
    build_liouville_ideals,
    gr_equality_certificate,
    homogenization_property_suite,
)
from .logder import REQUIRED_HYPOTHESES, FactorizationSpec, required_hold
from .nabla import nabla_surjective, s_regularity_check
from .ring import (
    MonomialOrder,
    Poly,
    UnknownVariable,
    VarContext,
    parse_poly,
)
from .spencer import (
    NotFree,
    NotKoszulFree,
    dual_lift_check,
    spencer_complex,
    tau_transposed_chain_holds,
    verify_chain_conditions,
)


COMMANDS = (
    "hypotheses", "logder", "theta", "liouville", "gr-check", "bs-ideal",
    "bs-poly", "witness", "hyperplane", "nabla", "regularity", "spencer",
    "arrangement", "appendix-check",
)

# the orders for displayed commutative bases
ORDERS = ("grevlex", "lex")

# full-validity output of these rests on theta_F generating the annihilator
GATED = {"theta", "gr-check", "bs-ideal", "bs-poly", "hyperplane", "nabla"}

# name of the operation backing each hypothesis verdict
_CHECKER = {
    "strong_euler_origin": "euler_and_seh_check",
    "reduced": "reducedness_check",
    "arrangement": "linear_form_factorization",
    "free": "saito_basis",
    "tame": "tameness_check",
    "saito_holonomic": "saito_holonomic_check",
    "assumed": "caller assertion",
}

_ASSUME_CAVEAT = ("hypothesis checks were bypassed or failed; results below "
                  "ASSUME strong Euler-homogeneity, Saito-holonomicity and "
                  "tameness (--assume-hypotheses)")
_GATE_CAVEAT = ("a required hypothesis is not verified; equality-level "
                "claims are downgraded to containments (validity: contained)")


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """--help was given; carries the help text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise _UsageError(message)

    def print_help(self, file=None):  # hand the text back, do not exit
        raise _HelpRequested(self.format_help())


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every request can share it."""
    p = _Parser(prog="fpowers", add_help=True,
                description="exact annihilator / Bernstein-Sato toolkit")
    sub = p.add_subparsers(dest="command", metavar="command",
                           parser_class=_Parser)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", help="problem file (JSON)")
        sp.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
        sp.add_argument("--order", choices=ORDERS,
                        help="order for displayed commutative bases")
        sp.add_argument("--point", help="a1,...,ar (nabla)")
        sp.add_argument("--form", help="polynomial in the s-variables "
                                       "(hyperplane, witness)")
        sp.add_argument("--max-degree", type=int, help="degree bound")
        sp.add_argument("--max-basis", type=int, help="basis-size bound")
        sp.add_argument("--assume-hypotheses", action="store_true",
                        help="proceed as if all hypotheses held (flagged)")
    return p


# ---------------------------------------------------------------------- I/O


class Problem:
    def __init__(self, variables: List[str], factor_strings: List[str],
                 fspec: FactorizationSpec,
                 arrangement: Optional[ArrangementSpec],
                 arrangement_echo: Optional[Dict[str, object]],
                 options: Dict[str, object]):
        self.variables = variables
        self.factor_strings = factor_strings
        self.fspec = fspec
        self.arrangement = arrangement
        self.arrangement_echo = arrangement_echo
        self.options = options


def load_problem(path: str, args=None) -> Problem:
    """The problem file at path.  Its polynomials are parsed under the
    request's bound (_limits: the --max-degree and --max-basis of args,
    else the file's options, else the default), so a power above the
    degree bound raises ResourceLimit before it is expanded."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise _UsageError(f"cannot read input file: {e}")
    except json.JSONDecodeError as e:
        raise _UsageError(f"input file is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise _UsageError("input file must hold a JSON object")
    variables = data.get("variables")
    if (not isinstance(variables, list) or not variables
            or not all(isinstance(v, str) for v in variables)):
        raise _UsageError('"variables" must be a nonempty list of names')
    if len(set(variables)) != len(variables):
        raise _UsageError('"variables" contains a repeated name')
    factor_strings = data.get("factors")
    if (not isinstance(factor_strings, list) or not factor_strings
            or not all(isinstance(s, str) for s in factor_strings)):
        raise _UsageError('"factors" must be a nonempty list of polynomial '
                          'strings')
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise _UsageError('"options" must be an object')
    unknown = set(options) - {"order", "max_degree", "max_basis",
                              "appendix_count", "appendix_seed"}
    if unknown:
        raise _UsageError(f"unknown options: {sorted(unknown)}")
    if options.get("order", "grevlex") not in ORDERS:
        raise _UsageError(f'option "order" must be one of {list(ORDERS)}, '
                          f'not {options["order"]!r}')
    for name in ("max_degree", "max_basis", "appendix_count"):
        if name in options:
            _positive_int(f'option "{name}"', options[name])
    if "appendix_seed" in options:
        _nonnegative_int('option "appendix_seed"', options["appendix_seed"])
    limits = _limits(args, options)
    vc = VarContext([("X", list(variables))])
    factors = []
    for k, s in enumerate(factor_strings):
        try:
            with limits:
                factors.append(parse_poly(s, vc))
        except (SyntaxError, UnknownVariable) as e:
            raise _UsageError(f"factor {k + 1}: {e}")
    if any(f.is_zero() for f in factors):
        raise _UsageError("factors must be nonzero")
    try:
        fspec = FactorizationSpec(list(variables), factors)
    except ValueError as e:  # a constant factor
        raise _UsageError(str(e))
    arrangement = None
    arrangement_echo = None
    if "arrangement" in data:
        with limits:
            arrangement, arrangement_echo = _load_arrangement(
                data["arrangement"], vc, fspec)
    return Problem(list(variables), list(factor_strings), fspec,
                   arrangement, arrangement_echo, options)


def _load_arrangement(block, vc: VarContext, fspec: FactorizationSpec
                      ) -> Tuple[ArrangementSpec, Dict[str, object]]:
    if not isinstance(block, dict):
        raise _UsageError('"arrangement" must be an object')
    form_strings = block.get("forms")
    mults = block.get("multiplicities")
    groups = block.get("grouping")
    if not isinstance(form_strings, list) or not form_strings:
        raise _UsageError('arrangement "forms" must be a nonempty list')
    if not isinstance(mults, list) or len(mults) != len(form_strings) \
            or not all(_is_int(m) for m in mults):
        raise _UsageError('arrangement "multiplicities" must be integers, '
                          'one per form')
    if not isinstance(groups, list) or len(groups) != fspec.r:
        raise _UsageError('arrangement "grouping" must list form indices '
                          'for each factor')
    forms = []
    for k, s in enumerate(form_strings):
        try:
            forms.append(parse_poly(s, vc))
        except (SyntaxError, UnknownVariable) as e:
            raise _UsageError(f"arrangement form {k + 1}: {e}")
    for g in groups:
        if not isinstance(g, list) or not all(
                _is_int(i) and 0 <= i < len(forms) for i in g):
            raise _UsageError("arrangement grouping entries must be valid "
                              "form indices")
    # the block must multiply out to the declared factors
    for k, g in enumerate(groups):
        prod = Poly.const(vc, Fraction(1))
        for i in g:
            prod = prod * forms[i]
        if prod != fspec.factors[k]:
            raise _UsageError(
                f"arrangement grouping {k + 1} multiplies out to {prod}, "
                f"not to factor {fspec.factors[k]}")
    counts = [sum(g.count(i) for g in groups) for i in range(len(forms))]
    if counts != mults:
        raise _UsageError(
            f"arrangement multiplicities {mults} disagree with the grouping "
            f"(which uses each form {counts} times)")
    try:
        A = ArrangementSpec(forms, mults, groups, fspec)
    except (NotLinear, ValueError) as e:
        raise _UsageError(f"arrangement block: {e}")
    echo = {"forms": list(form_strings), "multiplicities": list(mults),
            "grouping": [list(g) for g in groups]}
    return A, echo


# ------------------------------------------------------------- serialization


def _plain(v):
    if isinstance(v, (bool, int, str, float)) or v is None:
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return str(v)


def _emit_value(lines: List[str], key: str, v) -> None:
    if isinstance(v, dict):
        for k2, v2 in v.items():
            _emit_value(lines, f"{key}.{k2}", v2)
    elif isinstance(v, list):
        scalars = all(isinstance(x, (str, int, bool, float)) or x is None
                      for x in v)
        # comma-joining items that contain separators would be ambiguous
        clean = scalars and not any(
            isinstance(x, str) and ("," in x or ";" in x) for x in v)
        if not v:
            lines.append(f"{key}: (none)")
        elif clean:
            lines.append(f"{key}: " + ", ".join(str(x) for x in v))
        elif scalars:
            for i, x in enumerate(v):
                lines.append(f"{key}[{i}]: {x}")
        else:
            for i, x in enumerate(v):
                _emit_value(lines, f"{key}[{i}]", x)
    else:
        lines.append(f"{key}: {v}")


def render_text(payload: Dict[str, object]) -> str:
    lines = [f"command: {payload.get('command', '')}"]
    if "error" in payload:
        lines.append(f"error: {payload['error']}")
    inp = payload.get("input") or {}
    if "variables" in inp:
        lines.append("variables: " + ", ".join(inp["variables"]))
    if "factors" in inp:
        lines.append("factors: " + ", ".join(inp["factors"]))
    arr = inp.get("arrangement")
    if arr:
        lines.append("arrangement forms: " + ", ".join(arr["forms"]))
        lines.append("arrangement multiplicities: "
                     + ", ".join(str(m) for m in arr["multiplicities"]))
        lines.append("arrangement grouping: "
                     + "; ".join(",".join(str(i) for i in g)
                                 for g in arr["grouping"]))
    for k, v in (payload.get("options") or {}).items():
        lines.append(f"option {k}: {v}")
    for name, h in (payload.get("hypotheses") or {}).items():
        lines.append(f"hypothesis {name}: {h['status']}  [{h['provenance']}]")
    for c in payload.get("caveats") or []:
        lines.append(f"caveat: {c}")
    for k, v in (payload.get("results") or {}).items():
        _emit_value(lines, f"result {k}", v)
    for k, v in (payload.get("certificates") or {}).items():
        _emit_value(lines, f"certificate {k}", v)
    if "timing_seconds" in payload:
        lines.append(f"timing: {payload['timing_seconds']}s")
    return "\n".join(lines)


def _hyp_table(hyps: Dict[str, Tuple[str, str]]) -> Dict[str, Dict[str, str]]:
    return {
        name: {"status": verdict,
               "provenance": f"{_CHECKER.get(name, name)}: {reason}"}
        for name, (verdict, reason) in hyps.items()
    }


# ----------------------------------------------------------------- commands


def _serialize_derivation(d, fspec: FactorizationSpec) -> str:
    cofs = ", ".join("-" if q is None else str(q)
                     for q in d.factor_cofactors(fspec.factors))
    return f"{d.operator(fspec.weyl)} ; cofactors {cofs}"


def _gb_strings(gens: Sequence[Poly], order: MonomialOrder) -> List[str]:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    return [str(g) for g in IdealHandle(gens, order=order).gb()]


def _roots_table(roots: List[Tuple[Fraction, int]], rest: Poly
                 ) -> Tuple[List[Dict[str, object]], Optional[str]]:
    """The root table and the root-free leftover of univariate_roots."""
    roots = sorted(roots, key=lambda rm: rm[0], reverse=True)
    table = [{"root": str(root), "multiplicity": mult}
             for root, mult in roots]
    leftover = None if rest == Poly.const(rest.ctx, Fraction(1)) else str(rest)
    return table, leftover


def _gate(cmd: str, fspec: FactorizationSpec, assume: bool,
          payload: Dict[str, object]) -> int:
    """Fill the hypothesis table; return the exit code the gate dictates."""
    hyps = fspec.check_hypotheses()
    payload["hypotheses"] = _hyp_table(hyps)
    if cmd not in GATED or required_hold(hyps):
        return 0
    caveats = payload.setdefault("caveats", [])
    if assume:
        caveats.append(_ASSUME_CAVEAT)
        return 0
    caveats.append(_GATE_CAVEAT)
    return 2


def _is_int(value) -> bool:
    """A JSON integer: a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(source: str, value) -> int:
    if not _is_int(value) or value <= 0:
        raise _UsageError(f"{source} must be a positive integer, "
                          f"not {value!r}")
    return value


def _nonnegative_int(source: str, value) -> int:
    if not _is_int(value) or value < 0:
        raise _UsageError(f"{source} must be a non-negative integer, "
                          f"not {value!r}")
    return value


def _limits(args, options: Dict[str, object]) -> Limits:
    """The request's bound, which its command runs under: each of the
    degree and basis-size bounds is the command-line value if given, else
    the problem file's option (checked by load_problem), else the
    default."""
    bounds = {}
    for name in ("max_degree", "max_basis"):
        value = getattr(args, name, None)
        if value is None:
            bounds[name] = options.get(name, getattr(DEFAULT_LIMITS, name))
        else:
            bounds[name] = _positive_int("--" + name.replace("_", "-"), value)
    return Limits(**bounds)


def _dispatch(args, payload: Dict[str, object]) -> int:
    cmd = args.command
    if cmd == "appendix-check":
        return _cmd_appendix(args, payload)
    if not args.input:
        raise _UsageError(f"{cmd} requires --input FILE")
    pf = load_problem(args.input, args)
    payload["input"] = {"variables": pf.variables,
                        "factors": pf.factor_strings}
    if pf.arrangement_echo:
        payload["input"]["arrangement"] = pf.arrangement_echo
    limits = _limits(args, pf.options)
    order_name = args.order or pf.options.get("order", "grevlex")
    payload["options"] = {"order": order_name,
                          "max_degree": limits.max_degree,
                          "max_basis": limits.max_basis,
                          "assume_hypotheses": args.assume_hypotheses}
    payload["results"] = {}
    order = MonomialOrder.lex() if order_name == "lex" \
        else MonomialOrder.grevlex()
    with limits:
        return _run(args, pf, order, payload)


def _run(args, pf: Problem, order: MonomialOrder,
         payload: Dict[str, object]) -> int:
    """Run one problem-file command; order is the display order of the
    commutative bases reported."""
    cmd = args.command
    assume = args.assume_hypotheses
    F = pf.fspec
    results = payload["results"]

    if cmd == "hypotheses":
        code = _gate(cmd, F, assume, payload)
        results["all_required_yes"] = required_hold(F.check_hypotheses())
        results["required"] = list(REQUIRED_HYPOTHESES)
        return code

    if cmd == "logder":
        code = _gate(cmd, F, assume, payload)
        log_b = F.log_derivations("log")
        log0_b = F.log_derivations("log0")
        results["log"] = [_serialize_derivation(d, F) for d in log_b]
        results["log0"] = [_serialize_derivation(d, F) for d in log0_b]
        return code

    if cmd == "theta":
        code = _gate(cmd, F, assume, payload)
        ann = ann_FS(F, assume_hypotheses=assume)
        results["generators"] = [str(t) for t in ann.theta]
        results["validity"] = ann.validity
        return code

    if cmd == "liouville":
        code = _gate(cmd, F, assume, payload)
        data = build_liouville_ideals(F)
        results["L_F"] = _gb_strings(data.L_F.gens, order)
        results["Ltilde_F"] = _gb_strings(data.Ltilde_F.gens, order)
        results["In010_L_F"] = _gb_strings(data.In010_LF.gens, order)
        results["L_in_Ltilde"] = data.Ltilde_F.contains_ideal(data.L_F)
        results["dim_Ltilde_F"] = krull_dimension(data.Ltilde_F)
        results["dim_L_F"] = krull_dimension(data.L_F)
        results["dim_In010_L_F"] = krull_dimension(data.In010_LF)
        results["ambient_n_plus_r"] = F.n + F.r
        return code

    if cmd == "gr-check":
        rep = gr_equality_certificate(F, assume_hypotheses=assume)
        code = _gate(cmd, F, assume, payload)
        results["Ltilde_eq_kernel"] = rep["Ltilde_eq_kernel"]
        results["Ltilde_in_kernel"] = rep["Ltilde_in_kernel"]
        results["hypotheses_verified"] = required_hold(F.check_hypotheses())
        payload["certificates"] = {
            "primality": rep["primality_certificate"],
            "conclusion": rep["conclusion"],
        }
        return code

    if cmd == "bs-ideal":
        code = _gate(cmd, F, assume, payload)
        B = bs_ideal(F, assume_hypotheses=assume)
        results["generators"] = [str(g) for g in B.gb]
        results["principal"] = B.principal_generator is not None
        results["validity"] = B.validity
        if B.principal_generator is not None:
            b = B.principal_generator
            results["generator"] = format_principal(b) if F.r == 1 else str(b)
            comps, leftover = detect_hyperplane_factors(b, F.degrees)
            results["components"] = [
                {"form": str(form), "multiplicity": m} for form, m in comps]
            if leftover != Poly.const(leftover.ctx, Fraction(1)):
                results["unfactored_part"] = str(leftover)
        return code

    if cmd == "bs-poly":
        F1 = F if F.r == 1 else FactorizationSpec(pf.variables, [F.f])
        code = _gate(cmd, F1, assume, payload)
        B = bs_ideal(F1, assume_hypotheses=assume)
        # single-s reports read better in the classical variable "s"
        b = B.principal_generator.moved(VarContext([("S", ["s"])]), where=[0])
        split = univariate_roots(b)
        results["generator"] = format_principal(b, split)
        table, leftover = _roots_table(*split)
        results["roots"] = table
        if leftover:
            results["nonrational_factor"] = leftover
        results["validity"] = B.validity
        return code

    if cmd == "witness":
        code = _gate(cmd, F, assume, payload)
        svc = s_context(F)
        if args.form:
            try:
                b = parse_poly(args.form, svc)
            except (SyntaxError, UnknownVariable) as e:
                raise _UsageError(f"--form: {e}")
        else:
            b = bs_ideal(F, assume_hypotheses=True).gb[0]
        results["b"] = str(b)
        try:
            Q = functional_equation_witness(F, b)
        except WitnessExtractionFailed as e:
            results["verified"] = False
            results["reason"] = str(e)
            return code
        results["verified"] = True
        payload["certificates"] = {
            "Q": str(Q),
            "identity": f"({b}) * F^S = Q applied to f * F^S",
        }
        return code

    if cmd == "hyperplane":
        if not args.form:
            raise _UsageError('hyperplane requires --form "a1*s1 + ... + c"')
        code = _gate(cmd, F, assume, payload)
        svc = s_context(F)
        try:
            ell = parse_poly(args.form, svc)
        except (SyntaxError, UnknownVariable) as e:
            raise _UsageError(f"--form: {e}")
        B = bs_ideal(F, assume_hypotheses=assume)
        try:
            contained = hyperplane_containment(B, ell)
        except ValueError as e:
            raise _UsageError(f"--form: {e}")
        results["form"] = str(ell)
        results["contained"] = contained
        results["validity"] = B.validity
        return code

    if cmd == "nabla":
        if not args.point:
            raise _UsageError("nabla requires --point a1,...,ar")
        try:
            A = [Fraction(tok.strip()) for tok in args.point.split(",")]
        except (ValueError, ZeroDivisionError) as e:
            raise _UsageError(f"--point: {e}")
        if len(A) != F.r:
            raise _UsageError(
                f"--point needs {F.r} coordinates, got {len(A)}")
        code = _gate(cmd, F, assume, payload)
        rep = nabla_surjective(F, A, assume_hypotheses=assume)
        results["point"] = [str(a) for a in rep.A]
        results["surjective"] = rep.surjective
        results["injective"] = rep.injective
        results["reasoning"] = rep.reasoning
        if rep.surjective and rep.certificate is not None:
            payload["certificates"] = {
                "reduction": [str(c) for c in rep.certificate],
                "identity": "1 = sum_i c_i * g_i over the specialized "
                            "generators (theta at S = A - 1, then f)",
            }
            if rep.generators is not None:
                payload["certificates"]["generators"] = [
                    str(g) for g in rep.generators]
        return code

    if cmd == "regularity":
        code = _gate(cmd, F, assume, payload)
        rep = s_regularity_check(F)
        results["passed"] = rep.passed
        results["steps"] = [{"variable": v, "colon_stabilized": ok}
                            for v, ok in rep.steps]
        results["final_quotient_matches"] = rep.final_quotient_matches
        results["reason"] = rep.reason
        return code

    if cmd == "spencer":
        code = _gate(cmd, F, assume, payload)
        try:
            C = spencer_complex(F)
        except (NotFree, NotKoszulFree) as e:
            results["built"] = False
            results["reason"] = str(e)
            payload.setdefault("caveats", []).append(
                "the construction needs a free (and Koszul-free) divisor")
            return 2
        results["built"] = True
        results["basis"] = [_serialize_derivation(d, F) for d in C.basis]
        results["structure_constants"] = {
            f"[{i},{j}]": [str(c) for c in cs]
            for (i, j), cs in sorted(C.structure.items())
        }
        results["differentials"] = {
            f"d^-{k}": [[str(e) for e in row] for row in M]
            for k, M in sorted(C.differentials.items())
        }
        rep = verify_chain_conditions(C)
        results["d2_zero"] = rep.d2_zero
        results["terminal_image_eq_thetaF"] = rep.terminal_image_eq_thetaF
        results["gr_exactness_certificate"] = rep.gr_exactness_certificate
        results["dual_lift"] = dual_lift_check(C)
        results["tau_transposed_chain"] = tau_transposed_chain_holds(C)
        return code

    if cmd == "arrangement":
        code = _gate(cmd, F, assume, payload)
        A = pf.arrangement or F.try_arrangement()
        if A is None:
            results["is_arrangement"] = False
            results["reason"] = ("the factors do not split into linear "
                                 "forms over Q")
            return 2
        results["is_arrangement"] = True
        results["forms"] = [str(form) for form in A.forms]
        results["multiplicities"] = list(A.mults)
        results["analysis"] = {
            name: {"status": verdict, "provenance": reason}
            for name, (verdict, reason) in arrangement_analyze(A).items()
        }
        return code

    raise _UsageError(f"unknown command {cmd!r}")


def _cmd_appendix(args, payload: Dict[str, object]) -> int:
    options: Dict[str, object] = {}
    pf = None
    if args.input:
        pf = load_problem(args.input, args)
        payload["input"] = {"variables": pf.variables,
                            "factors": pf.factor_strings}
        options = pf.options
    limits = _limits(args, options)
    # both checked by load_problem
    count = options.get("appendix_count", 20)
    seed = options.get("appendix_seed", 0)
    with limits:
        file_check = None
        if pf is not None:
            data = build_liouville_ideals(pf.fspec)
            dim_l = krull_dimension(data.L_F)
            dim_in = krull_dimension(data.In010_LF)
            file_check = {"dim_L_F": dim_l, "dim_In010_L_F": dim_in,
                          "initial_dim_ge": dim_in >= dim_l}
        payload["options"] = {"max_degree": limits.max_degree,
                              "max_basis": limits.max_basis,
                              "appendix_count": count, "appendix_seed": seed}
        rep = homogenization_property_suite(count=count, seed=seed)
    payload["results"] = dict(rep)
    if file_check is not None:
        payload["results"]["file_check"] = file_check
    return 0


# options whose value may start with "-" (a negative coordinate, a negated
# form); argparse would read a separate "-1,0" as an unknown option
_SIGNED_VALUE_OPTIONS = ("--point", "--form")


def _attach_signed_values(argv: Sequence[str]) -> List[str]:
    """Rewrite "--point -1,0" as "--point=-1,0" (likewise --form)."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _SIGNED_VALUE_OPTIONS and i + 1 < len(argv)
                and not argv[i + 1].startswith("--")):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def run_command(argv: Sequence[str]) -> Tuple[int, Dict[str, object]]:
    payload: Dict[str, object] = {"command": argv[0] if argv else ""}
    try:
        args = _build_parser().parse_args(_attach_signed_values(argv))
    except _UsageError as e:
        payload["error"] = str(e)
        return 1, payload
    except _HelpRequested as e:
        payload["help"] = e.args[0]
        return 0, payload
    if not args.command:
        payload["error"] = "missing command; see --help"
        return 1, payload
    payload["command"] = args.command
    t0 = time.perf_counter()
    try:
        code = _dispatch(args, payload)
    except _UsageError as e:
        payload["error"] = str(e)
        return 1, _plain(payload)
    except ResourceLimit as e:
        payload["error"] = f"resource limit: {e}"
        return 3, _plain(payload)
    payload["timing_seconds"] = round(time.perf_counter() - t0, 3)
    return code, _plain(payload)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    code, payload = run_command(argv)
    if "help" in payload:
        sys.stdout.write(payload["help"])
    elif "--json" in argv:
        print(json.dumps(payload, indent=2))
    else:
        print(render_text(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
