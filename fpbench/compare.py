"""Summarise one set of runs, or compare two, against BENCHMARK.json.

    python3 fpbench/compare.py A [B]

A and B are directories written by sweep.py (one subdirectory per
workload, one seed<N>.json per run).  For each workload and metric this
prints the median and quartiles of each set (statistics.quantiles, n=4)
and the spread, (Q3 - Q1) / median.  An end-to-end metric is steady when
its spread is within its bound (setup_s is exempt).  With two sets it also
says whether B's median is worse than A's by more than the bound, and
whether the share of failed operations is the same.  Exits 1 when any of
these does not hold.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path):
    """{workload: [result, ...]} from a sweep.py directory."""
    out = {}
    for sub in sorted(p for p in directory.iterdir() if p.is_dir()):
        runs = [json.loads(f.read_text()) for f in sorted(sub.glob("seed*.json"))]
        if runs:
            out[sub.name] = runs
    return out


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(Path(a)) for a in argv]
    ok = True
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        groups = [s.get(workload, []) for s in sets]
        for label, runs in zip("AB", groups):
            if runs:
                shares = {r["failed"] / r["attempted"] for r in runs}
                wrong = sum(1 for r in runs if not r["correct"])
                print(f"  {label}: {len(runs)} runs, failed share {sorted(shares)}, "
                      f"{wrong} incorrect")
                ok &= wrong == 0
        if len(groups) == 2 and all(groups):
            same = ({r["failed"] / r["attempted"] for r in groups[0]}
                    == {r["failed"] / r["attempted"] for r in groups[1]})
            print(f"  failed share identical: {same}")
            ok &= same
        names = sorted(set().union(*[r["metrics"] for g in groups for r in g]))
        for name in names:
            m = meta.get(name, {})
            bound = m.get("bound")
            cells = []
            stats = []
            for runs in groups:
                values = [r["metrics"][name]["value"] for r in runs
                          if name in r["metrics"]]
                if not values:
                    stats.append(None)
                    cells.append("-")
                    continue
                med, q1, q3, spread = summary(values)
                stats.append((med, spread))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}")
                if bound is not None and name != "setup_s" and spread > bound:
                    ok = False
                    cells[-1] += " UNSTEADY"
            verdict = ""
            if bound is not None and len(stats) == 2 and all(stats):
                a, b = stats[0][0], stats[1][0]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = f" change {worse:+.3f} (bound {bound})"
                if worse > bound:
                    ok = False
                    verdict += " WORSE"
            elif bound is not None:
                verdict = f" (bound {bound})"
            print(f"  {name}: " + " | ".join(cells) + verdict)
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
