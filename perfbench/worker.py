"""One measuring process: set up a workload, then run whole rounds of it.

Started by ``run.py``; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawn-ts T [--setup-only]

``--spawn-ts`` is the ``time.time()`` at which the parent started this
process, so the set-up time covers interpreter start, imports and every
``families.make`` of the workload.  Untraced, the process then runs the
reference loop of ``gauge.py`` and reports the set-up time with the loop's
mean, for ``run.py`` to scale.  With ``--setup-only`` it stops there.
Otherwise it runs rounds until the next round would end past
``--seconds``.  ``wall_s`` is the program's time for one round at the
reference speed: each step (one timed part of an operation) is scaled by
the reference loop's mean over its round, and ``wall_s`` sums each step's
median over the rounds.  The loop runs after every step for a tenth of the
step's time.  A step's time covers only its calls into ``tamecoh``, not
the benchmark's own input making, answer checking or reference loop.

With ``--trace 1`` the set-up is traced, and after one untraced warm-up
round, rounds alternate between traced and untraced (at least one of
each); the per-layer figures are the set-up totals plus the mean over
traced rounds, and the tracing overhead is the median traced round over the
median untraced one, both in program time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import tamecoh

    where = Path(tamecoh.__file__).resolve().parent
    if where != ROOT / "src" / "tamecoh":
        raise SystemExit(f"tamecoh was imported from {where}, not from this checkout")


def run_rounds(runner, seconds: float, tracer, gauge) -> dict:
    attempted = failed = 0
    problems: list[str] = []
    plain, traced_rounds, loop_means = [], [], []
    op_times: dict[tuple, list] = {}   # (operation, step) -> time per round
    t0 = time.perf_counter()
    rnd = 0
    while True:
        # a traced run starts with a warm-up round that neither list keeps,
        # then alternates traced and untraced rounds
        traced = tracer is not None and rnd % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        runner.results.clear()
        start = time.perf_counter()
        program_s = 0.0
        steps = {}
        for label, op in runner.operations(rnd):
            attempted += 1
            region = tracer.region(label) if traced else contextlib.nullcontext()
            runner.elapsed = {}
            try:
                with region:
                    found = op()
            except Exception:  # a failing operation is counted; the run goes on
                failed += 1
                print(f"FAILED {label}\n{traceback.format_exc()}", file=sys.stderr)
                continue
            program_s += sum(runner.elapsed.values())
            steps.update(((label, step), took) for step, took in runner.elapsed.items())
            problems += [f"{label}: {p}" for p in found]
        if gauge is not None:
            loop_means.append(gauge.take())
            for key, took in steps.items():
                op_times.setdefault(key, []).append(
                    gauge.at_reference(took, loop_means[-1]))
        if traced:
            traced_rounds.append(program_s)
        elif tracer is None or rnd > 0:
            plain.append(program_s)
        rnd += 1
        took = time.perf_counter() - start
        if rnd >= (3 if tracer is not None else 1) and \
                time.perf_counter() - t0 + took > seconds:
            break
    for p in problems[:20]:
        print(f"WRONG {p}", file=sys.stderr)
    print(f"round times {[round(t, 2) for t in plain]} traced "
          f"{[round(t, 2) for t in traced_rounds]}, reference loop "
          f"{[round(k * 1e3, 3) for k in loop_means]} ms", file=sys.stderr)
    wall_s = sum(statistics.median(t) for t in op_times.values()) if gauge is not None else None
    return {"attempted": attempted, "failed": failed, "correct": not problems,
            "plain": plain, "traced": traced_rounds, "rounds": rnd,
            "wall_s": wall_s}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ts", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import trace
    import workloads

    tracer = None
    if args.trace:
        tracer = trace.Tracer()
        trace.instrument(tracer)
        tracer.install()
    runner = workloads.Runner(workloads.WORKLOADS[args.workload], args.seed)
    runner.setup()
    setup_s = time.time() - args.spawn_ts
    gauge = None
    if not args.trace:
        from gauge import SETUP_LOOP_S, Gauge   # after the set-up clock has stopped
        gauge = Gauge()
        setup = {"setup_s": setup_s, "loop_s": gauge.measure(SETUP_LOOP_S)}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return

    setup_stats = tracer.take() if tracer is not None else None
    if gauge is not None:
        runner.after_step = gauge.keep_up
    out = run_rounds(runner, args.seconds, tracer, gauge)
    result = {k: out[k] for k in ("correct", "attempted", "failed")}
    if tracer is None:
        result["setup"] = setup
        result["metrics"] = {
            "wall_s": {"value": out["wall_s"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    else:
        tracer.uninstall()
        round_stats = tracer.take()
        n = len(out["traced"])
        metrics = trace.layer_values(setup_stats, round_stats, n)
        overhead = statistics.median(out["traced"]) / statistics.median(out["plain"]) - 1
        metrics["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
        result["metrics"] = metrics
        dump = {
            "workload": args.workload, "seed": args.seed,
            "plain_round_s": out["plain"], "traced_round_s": out["traced"],
            "metrics": metrics,
            "setup_spans": {" > ".join(k): v for k, v in setup_stats.items()},
            "round_spans": {" > ".join(k): v for k, v in round_stats.items()},
        }
        path = HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(dump, indent=1))
    result["rounds"] = out["rounds"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
