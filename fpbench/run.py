"""Benchmark runner for fpowers.

    python3 fpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  One process, one thread, closed loop with one client: each round
calls the workload's fixed list of operations in order, and rounds repeat
until S seconds of measured time have passed (at least one round).

--trace 0 prints the end-to-end metrics.  --trace 1 first runs the same
untraced rounds, then one round with every public fpowers function of
interest wrapped (tracing.py) and one more untraced round, and prints the
per-layer metrics of the traced round plus trace.overhead_s, its time minus
the mean of the untraced rounds just before and after it; its span file
goes to .bench_work/.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Every answer is checked against oracle.py outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work"

MODULES = ("ring", "gb", "weyl", "logder", "arrange", "bside", "nabla",
           "liouville", "spencer", "cli")
SETUP_REPEATS = 9

clock = time.perf_counter


def setup(workload: str, seed: int):
    """Import fpowers afresh, make the inputs and prepare the oracle."""
    for name in [m for m in sys.modules
                 if m == "fpowers" or m.startswith("fpowers.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"fpowers.{name}")
               for name in MODULES}
    from workloads import BUILDERS
    ops, check = BUILDERS[workload](modules, random.Random(seed), str(WORKDIR))
    return modules, ops, check


class Runner:
    """Runs whole rounds and keeps what the metrics need."""

    def __init__(self, ops, check, tracer=None):
        self.ops, self.check, self.tracer = ops, check, tracer
        self.round_times = []
        self.op_times = {name: [] for name, _ in ops}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def round(self) -> float:
        results = {}
        start = clock()
        for index, (name, thunk) in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.operation = index
            t0 = clock()
            try:
                results[name] = thunk(results)
            except Exception:
                self.failed += 1
                results[name] = None
                print(f"operation {name} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            self.op_times[name].append(clock() - t0)
        elapsed = clock() - start
        self.round_times.append(elapsed)
        self.attempted += len(self.ops)
        try:
            self.problems += self.check(results)
        except Exception:
            self.problems.append("check raised:\n" + traceback.format_exc())
        return elapsed

    def run(self, seconds: float) -> None:
        """Whole rounds until `seconds` of measured time have passed."""
        measured = 0.0
        while measured < seconds or not self.round_times:
            measured += self.round()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def slowest_problem(runner: Runner) -> float:
    """The largest median over rounds of the time one problem took in a
    round; a problem is an operation, or the "<problem>#<k>" queries on it
    taken together."""
    per_problem = {}
    for name, times in runner.op_times.items():
        acc = per_problem.setdefault(name.split("#")[0], [0.0] * len(times))
        for i, t in enumerate(times):
            acc[i] += t
    return max(statistics.median(times) for times in per_problem.values())


def end_to_end(runner: Runner, setup_times) -> dict:
    samples = [t for times in runner.op_times.values() for t in times]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(runner.round_times), "s"),
        "op_p50_ms": (statistics.median(statistics.median(t) for t in
                                        runner.op_times.values()) * 1e3, "ms"),
        "op_p95_ms": (percentile(samples, 0.95) * 1e3, "ms"),
        "max_op_s": (slowest_problem(runner), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import BUILDERS
    if args.workload not in BUILDERS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(BUILDERS)}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            modules, ops, check = setup(args.workload, args.seed)
            setup_times.append(clock() - t0)
    except ImportError as e:
        print(f"cannot import the program from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    gc.collect()

    plain = Runner(ops, check)
    plain.run(args.seconds)
    runners = [plain]
    if args.trace:
        from tracing import METRICS, Tracer
        tracer = Tracer(modules)
        traced = Runner(ops, check, tracer)
        tracer.install()
        try:
            traced.round()
        finally:
            tracer.uninstall()
        # the machine's speed drifts over tens of seconds, so the traced
        # round is compared with the untraced rounds right before and after
        plain.round()
        runners.append(traced)
        tracer.write_spans(str(WORKDIR / f"spans_{args.workload}_{args.seed}.jsonl"))
        values = tracer.metrics()
        values["trace.overhead_s"] = (traced.round_times[0]
                                      - statistics.mean(plain.round_times[-2:]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in METRICS}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(plain, setup_times).items()}

    print(f"{len(plain.round_times)} round(s); per-operation median seconds:",
          file=sys.stderr)
    for name, times in plain.op_times.items():
        print(f"  {statistics.median(times):9.4f}  {name}", file=sys.stderr)
    problems = [p for r in runners for p in r.problems]
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
