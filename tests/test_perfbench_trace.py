"""The benchmark's tracer still finds every function it reports on.

``perfbench/trace.py`` wraps functions of ``tamecoh`` by name.  A refactor
that renames or removes one of them would make a per-layer metric read
zero, or make the traced run fail; this test catches that without running
the benchmark.
"""

import collections
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_trace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # loaded from its file under its own name: the standard library also
    # has a module called trace
    spec = importlib.util.spec_from_file_location("perfbench_trace", PERFBENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_has_a_planned_wrapper(monkeypatch):
    trace = load_trace(monkeypatch)
    planned = collections.Counter()

    def counting(plan):
        def method(self, name, *args, **kwargs):
            before = len(self._plan)
            plan(self, name, *args, **kwargs)
            planned[name] += len(self._plan) - before
        return method

    kinds = ("plan_function", "plan_method", "plan_first_access")
    CountingTracer = type("CountingTracer", (trace.Tracer,),
                          {kind: counting(getattr(trace.Tracer, kind)) for kind in kinds})
    tracer = CountingTracer()
    trace.instrument(tracer)
    assert not tracer._installed
    for metric, (_, spans, _) in trace.LAYER_METRICS.items():
        for span in spans:
            assert planned[span] >= 1, f"{metric}: nothing wraps {span}"
