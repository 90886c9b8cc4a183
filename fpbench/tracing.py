"""Per-layer tracing by wrapping fpowers' public functions from outside.

Every target is rebound wherever the original object is reachable: in its
own module (so calls inside that module go through the wrapper) and in
every other fpowers module that imported it by name (bside and nabla bind
weyl_left_gb and left_normal_form at import, cli binds most of the rest).
Methods are patched on their class.

Each wrapped call is a span (name, start, end, parent, operation id).  A
span's self time is its duration minus the durations of its direct child
spans.  The hottest leaves (the Weyl product and the two normal forms) are
timed and counted the same way but not kept one by one, so the span list
stays small; their time still counts as child time of the span that called
them.  ring.poly_mul is counted only, never timed: a clock read
per polynomial product would cost more than the product.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (metric prefix, module, attribute or "Class.method", keep spans?, extra)
TARGETS = [
    ("weyl.left_gb", "weyl", "weyl_left_gb", True, None),
    ("weyl.left_normal_form", "weyl", "left_normal_form", False, "zero"),
    ("weyl.multiply", "weyl", "weyl_multiply", False, "weyl_terms"),
    ("weyl.apply_to_FS", "weyl", "apply_to_FS", True, None),
    ("bside.bs_ideal", "bside", "bs_ideal", True, None),
    ("bside.witness", "bside", "functional_equation_witness", True, None),
    ("bside.ann_FS", "bside", "ann_FS", True, None),
    ("logder.log_derivations", "logder", "log_derivations", True, None),
    ("logder.theta_generators", "logder", "FactorizationSpec.theta_generators",
     True, None),
    ("logder.check_hypotheses", "logder", "FactorizationSpec.check_hypotheses",
     True, None),
    ("cli.load_problem", "cli", "load_problem", True, None),
    ("cli.run_command", "cli", "run_command", True, None),
    ("nabla.nabla_surjective", "nabla", "nabla_surjective", True, None),
    ("nabla.s_regularity_check", "nabla", "s_regularity_check", True, None),
    ("gb.groebner_basis", "gb", "groebner_basis", True, None),
    ("gb.eliminate", "gb", "eliminate", True, None),
    ("gb.normal_form", "gb", "normal_form", False, "zero"),
    ("gb.syzygies", "gb", "syzygies", True, None),
    ("gb.graded_free_resolution", "gb", "graded_free_resolution", True, None),
    ("gb.krull_dimension", "gb", "krull_dimension", True, None),
    ("liouville.phi_F_kernel", "liouville", "phi_F_kernel", True, None),
    ("liouville.build_liouville_ideals", "liouville", "build_liouville_ideals",
     True, None),
    ("spencer.build", "spencer", "spencer_complex", True, None),
    ("spencer.checks", "spencer", "verify_chain_conditions", True, None),
    ("spencer.checks", "spencer", "dual_lift_check", True, None),
    ("spencer.checks", "spencer", "tau_transposed_chain_holds", True, None),
]

# the per-layer metrics, in BENCHMARK.json order: (name, unit)
METRICS: List[Tuple[str, str]] = [
    ("weyl.left_gb.calls", "count"), ("weyl.left_gb.s", "s"),
    ("weyl.left_gb.self_s", "s"),
    ("weyl.left_normal_form.calls", "count"), ("weyl.left_normal_form.s", "s"),
    ("weyl.left_normal_form.zero_ratio", "ratio"),
    ("weyl.multiply.calls", "count"), ("weyl.multiply.s", "s"),
    ("weyl.multiply.term_products", "count"),
    ("weyl.apply_to_FS.s", "s"),
    ("bside.bs_ideal.s", "s"), ("bside.witness.s", "s"), ("bside.ann_FS.s", "s"),
    ("logder.log_derivations.calls", "count"), ("logder.log_derivations.s", "s"),
    ("logder.theta_generators.calls", "count"),
    ("logder.check_hypotheses.s", "s"),
    ("cli.load_problem.s", "s"), ("cli.run_command.self_s", "s"),
    ("nabla.nabla_surjective.s", "s"), ("nabla.s_regularity_check.s", "s"),
    ("gb.groebner_basis.calls", "count"), ("gb.groebner_basis.s", "s"),
    ("gb.groebner_basis.self_s", "s"), ("gb.eliminate.s", "s"),
    ("gb.normal_form.calls", "count"), ("gb.normal_form.s", "s"),
    ("gb.normal_form.zero_ratio", "ratio"), ("gb.syzygies.s", "s"),
    ("gb.graded_free_resolution.s", "s"), ("gb.krull_dimension.s", "s"),
    ("liouville.phi_F_kernel.s", "s"),
    ("liouville.build_liouville_ideals.s", "s"),
    ("spencer.build.s", "s"), ("spencer.checks.s", "s"),
    ("ring.poly_mul.calls", "count"), ("ring.poly_mul.term_products", "count"),
    ("trace.overhead_s", "s"),
]


class _Stat:
    __slots__ = ("calls", "s", "self_s", "zeros", "term_products", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0            # inclusive time, outermost calls only
        self.self_s = 0.0
        self.zeros = 0
        self.term_products = 0
        self.active = 0


class Tracer:
    """Installs wrappers on the given fpowers modules; collects spans and
    per-name statistics until uninstalled."""

    def __init__(self, modules: Dict[str, object]):
        self.modules = modules
        self.stats: Dict[str, _Stat] = defaultdict(_Stat)
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.operation = 0
        # [id of the nearest kept span, start, child time]
        self._stack: List[list] = []
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for metric, modname, attr, keep, extra in TARGETS:
            owner = self.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(metric, getattr(cls, meth),
                                                  keep, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(metric, original, keep, extra)
            for mod in self.modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        poly = self.modules["ring"].Poly
        counted = self._count_poly_mul(poly.__mul__)
        self._patch(poly, "__mul__", counted)
        self._patch(poly, "__rmul__", counted)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    def _patch(self, obj, name: str, value) -> None:
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, metric: str, fn: Callable, keep: bool,
              extra: Optional[str]) -> Callable:
        stat = self.stats[metric]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent     # children of a leaf hang on its parent
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            stat.active += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                stat.calls += 1
                stat.self_s += dur - frame[2]
                if not stat.active:
                    stat.s += dur
                if keep:
                    tracer.spans.append((span_id, metric, frame[1], end,
                                         parent, tracer.operation))
            if extra == "zero":
                stat.zeros += result.is_zero()
            elif extra == "weyl_terms":
                stat.term_products += len(args[0].terms) * len(args[1].terms)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_poly_mul(self, fn: Callable) -> Callable:
        stat = self.stats["ring.poly_mul"]

        def wrapper(self_, other):
            stat.calls += 1
            if hasattr(other, "terms"):     # not a scalar
                stat.term_products += len(self_.terms) * len(other.terms)
            return fn(self_, other)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of what was traced, except the overhead,
        which the caller measures."""
        out: Dict[str, float] = {}
        for name, _unit in METRICS:
            if name == "trace.overhead_s":
                continue
            prefix, stat_name = name.rsplit(".", 1)
            st = self.stats.get(prefix)
            if st is None:
                value = 0.0
            elif stat_name == "zero_ratio":
                value = st.zeros / st.calls if st.calls else 0.0
            else:
                value = getattr(st, stat_name)
            out[name] = value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
