"""Benchmark entry point: one run of one workload, one JSON line out.

    python3 perfbench/run.py --workload {hh1-prime,ext-field,certify}
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the ``tamecoh`` found in
``src/`` there.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mb``; with
``--trace 1`` it carries the per-layer metrics.  Both also carry the number
of operations attempted and failed, and whether every answer checked out.

``setup_s`` is the median of five set-ups, each in a fresh process: two
that stop after set-up, the measuring process itself, and two more that
stop after set-up once the measuring process has ended.  The samples are
spread over the run rather than taken back to back, so that one slow
stretch of the machine does not hold them all.  Each is scaled to the
reference speed of ``gauge.py`` by the reference loop's mean time, run for
``SETUP_LOOP_S`` just before the process starts and again just after its
set-up.  Processes run one after another, never side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import SETUP_LOOP_S, Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hh1-prime", "ext-field", "certify")
DEADLINE_S = 170
SETUPS_EACH_SIDE = 2   # set-up-only processes before and after the measuring one


def _child(args, extra: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn-ts", repr(time.time())] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("benchmark worker ran past the deadline")
    if proc.returncode != 0:
        sys.exit(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "tamecoh" / "__init__.py").is_file():
        sys.exit(f"no tamecoh sources under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        res = _child(args, [], deadline)
        metrics = res["metrics"]
    else:
        gauge = Gauge()
        setups = []

        def sampled(extra: list) -> dict:
            """Run one child; scale its set-up by the loop before and after it."""
            before = gauge.measure(SETUP_LOOP_S)
            out = _child(args, extra, deadline)
            setups.append((out["setup"]["setup_s"],
                           (before + out["setup"]["loop_s"]) / 2))
            return out

        for _ in range(SETUPS_EACH_SIDE):
            sampled(["--setup-only"])
        res = sampled([])
        for _ in range(SETUPS_EACH_SIDE):
            sampled(["--setup-only"])
        metrics = res["metrics"]
        metrics["setup_s"] = {
            "value": statistics.median(gauge.at_reference(t, k) for t, k in setups),
            "unit": "s"}
        print(f"set-ups {[round(t, 3) for t, _ in setups]} s, reference loop "
              f"{[round(k * 1e3, 3) for _, k in setups]} ms", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds",
          file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
