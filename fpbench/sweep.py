"""Run the benchmark once per seed and workload and keep each result.

    python3 fpbench/sweep.py --out .bench_work/runs/A --seeds 1-10 \
        [--workloads bs_ideals,nabla_sweep] [--trace 0|1]

Each run is a separate `python3 fpbench/run.py` process with the run length
from BENCHMARK.json; its last output line is written to
OUT/<workload>/seed<N>.json and its standard error next to it.  Feed two
such directories to compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in args.workloads.split(","):
        out = Path(args.out) / workload
        out.mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            took = time.monotonic() - t0
            (out / f"seed{seed}.err").write_text(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                continue
            (out / f"seed{seed}.json").write_text(lines[-1] + "\n")
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: {took:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
