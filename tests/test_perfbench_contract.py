"""One round of every benchmark workload runs clean on the current library.

``perfbench/workloads.py`` calls ``tamecoh`` through a fixed interface:
``check_complex(rng, probes=)``, ``check_exactness(rng, probes=)`` with the
full path taken exactly at dim <= 30, and ``fingerprint(..., nilradical_limit=0)``
among others.  A change that breaks one of them would otherwise show only
as failed operations in a benchmark run; here it fails a test.

``nilradical_limit`` has no effect: the nilradical is always decided, so the
benchmark's fallback for a ``None`` nilradical dim can no longer fire.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from tamecoh.lie import fingerprint
from test_lie import PIPELINE, hh1_algebra, random_invertible

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


@pytest.mark.parametrize("family,field,params", PIPELINE,
                         ids=[f"{fam}({','.join(map(str, ps.values()))})/{f}" for fam, f, ps in PIPELINE])
def test_nilradical_limit_has_no_effect(family, field, params):
    """One fingerprint, with an int nilradical dim, in the canonical basis
    and a seeded conjugate, at limit 0, at 10^6 and by default."""
    lie = hh1_algebra(family, field, **params)
    conjugate = lie.conjugate(random_invertible(field, lie.dim, random.Random(5)))
    probes = list(range(1, field.q))
    fps = [fingerprint(alg, probes, **limit) for alg in (lie, conjugate)
           for limit in ({}, {"nilradical_limit": 0}, {"nilradical_limit": 10 ** 6})]
    assert all(fp == fps[0] for fp in fps)
    assert type(fps[0].nilradical_dim) is int
