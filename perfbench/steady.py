"""Steadiness check: two sets of runs per workload, compared against the bounds.

    python3 perfbench/steady.py

Runs every workload in ``BENCHMARK.json`` five times in set A and again in
set B, for ``run_seconds`` each, with seeds 1 to 5 in set A and 6 to 10 in
set B, one run at a time.  For each end-to-end metric it prints the median,
the quartiles, the spread (distance between the quartiles over the median)
and the number of runs, per set and over both sets.  A workload agrees when,
in each set, every spread is within the metric's bound in ``BENCHMARK.json``;
when set B's median differs from set A's by at most the bound, in either
direction, for every metric; and when the share of failed operations is the
same in both sets.  The raw results go to
``perfbench/results/steady-<time>.json``.  Exits 1 if any workload disagrees.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_PER_SET = 5


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - start
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values)}


def judge(bench: dict, sets: list) -> tuple[bool, list]:
    """Compare set B against set A by the rules stated in the module doc."""
    lines, ok = [], True
    shares = {r["failed"] / r["attempted"] for s in sets for r in s}
    if len(shares) != 1:
        ok = False
        lines.append(f"  failed share differs between runs: {sorted(shares)}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        per_set = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
        both = summary([r["metrics"][name]["value"] for s in sets for r in s])
        shift = (per_set[1]["median"] - per_set[0]["median"]) / per_set[0]["median"]
        good = abs(shift) <= bound and all(p["spread"] <= bound for p in per_set)
        ok &= good
        for label, st in (("A", per_set[0]), ("B", per_set[1]), ("A+B", both)):
            lines.append(
                f"  {name:12s} {label:3s} median {st['median']:10.4f} {m['unit']:3s} "
                f"q1 {st['q1']:10.4f} q3 {st['q3']:10.4f} spread {st['spread']:6.3f} "
                f"n {st['n']}")
        lines.append(f"  {name:12s} bound {bound}: B vs A {shift:+.3f} -> "
                     f"{'agrees' if good else 'DISAGREES'}")
    return ok, lines


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    raw, all_ok = {}, True
    for name in names:
        sets = []
        for k in range(2):
            first = 1 + k * RUNS_PER_SET
            sets.append([run_once(name, seed, seconds)
                         for seed in range(first, first + RUNS_PER_SET)])
        raw[name] = sets
        ok, lines = judge(bench, sets)
        correct = all(r["correct"] for s in sets for r in s)
        all_ok &= ok and correct
        print(f"{name}: {'steady' if ok else 'NOT STEADY'}, "
              f"answers {'correct' if correct else 'WRONG'}")
        run_s = [r["run_s"] for s in sets for r in s]
        lines.append(f"  run time per run: median {statistics.median(run_s):.1f} s, "
                     f"max {max(run_s):.1f} s")
        print("\n".join(lines), flush=True)
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": raw}, indent=1))
    print(f"raw results: {out.relative_to(ROOT)}")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
