"""One round of every benchmark workload runs clean on the current library.

``perfbench/workloads.py`` calls ``tamecoh`` through a fixed interface:
``check_complex(rng, probes=)``, ``check_exactness(rng, probes=)`` with the
full path taken exactly at dim <= 30, and ``fingerprint(..., nilradical_limit=0)``
among others.  A change that breaks one of them would otherwise show only
as failed operations in a benchmark run; here it fails a test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    # workloads.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["hh1-prime", "ext-field", "certify"])
def test_one_round_of_each_workload_has_no_problems(name, monkeypatch):
    workloads = load_workloads(monkeypatch)
    runner = workloads.Runner(workloads.WORKLOADS[name], seed=0)
    runner.setup()
    ops = runner.operations(0)
    assert ops
    for label, op in ops:
        assert op() == [], label
