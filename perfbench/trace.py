"""Spans around the public functions of ``tamecoh``, installed from outside.

A wrapper replaces a function at every name where callers look it up: the
class attribute for methods, and every module attribute that holds the
function for module-level functions (``matmul`` is bound in five modules).
Each call records its duration; a span's self time is its duration minus
the time of the spans it encloses.  Spans are aggregated in memory by their
path from the outermost span, so the record stays small however many calls
there are, and the whole record is written out when the run ends.

Scalar ``Field.add``/``Field.mul`` are not wrapped: a span per scalar
operation would cost more than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref

import numpy as np


class Tracer:
    """Records spans into ``stats``: path -> [calls, total_s, self_s, cells]."""

    def __init__(self):
        self.stats: dict[tuple, list] = {}
        self._stack: list[list] = []      # [name, start, child_time, cells]
        self._installed: list[tuple] = []
        self._plan: list[tuple] = []

    # ---- recording ----

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        dt = time.perf_counter() - frame[1]
        path = tuple(f[0] for f in self._stack)
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += dt
        st = self.stats.setdefault(path, [0, 0.0, 0.0, 0])
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame[2]
        st[3] += frame[3]

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around one of the benchmark's own steps."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def take(self) -> dict:
        """Return the stats recorded so far and start afresh."""
        out, self.stats = self.stats, {}
        return out

    def _wrap(self, name: str, fn, cells=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
                if cells is not None:
                    frame[3] = cells(args, out)
                return out
            finally:
                tracer._exit(frame)

        return wrapper

    # ---- installation ----

    def plan_function(self, name: str, module, attr: str, cells=None) -> None:
        """Wrap a module-level function wherever a tamecoh module binds it."""
        fn = getattr(module, attr)
        wrapper = self._wrap(name, fn, cells)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "tamecoh":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._plan.append((mod, key, fn, wrapper))

    def plan_method(self, name: str, cls, attr: str, cells=None) -> None:
        fn = vars(cls)[attr]
        self._plan.append((cls, attr, fn, self._wrap(name, fn, cells)))

    def plan_first_access(self, name: str, cls, attr: str, cells=None) -> None:
        """Span a lazily built property only on its first access per object."""
        prop = vars(cls)[attr]
        built = weakref.WeakSet()
        timed = self._wrap(name, prop.fget, cells)

        def getter(obj):
            if obj in built:
                return prop.fget(obj)
            built.add(obj)
            return timed(obj)

        self._plan.append((cls, attr, prop, property(getter, doc=prop.__doc__)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = list(self._plan)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []


def _shape_cells(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape)) if shape else 0


def instrument(tracer: Tracer) -> None:
    """Plan the spans of every layer; call after ``tamecoh`` is imported."""
    from tamecoh import algebra, cohomology, families, field, fixtures, lie, resolution

    seen_induced = weakref.WeakValueDictionary()

    def induced_cells(args, out):
        # a cached matrix comes back as the same object; count it once
        if seen_induced.get(id(out)) is out:
            return 0
        seen_induced[id(out)] = out
        return _shape_cells(out)

    tracer.plan_function("families.make", families, "make")
    tracer.plan_first_access("algebra.table", algebra.Algebra, "table",
                             cells=lambda args, out: _shape_cells(out))
    tracer.plan_method("algebra.validate", algebra.Algebra, "validate")
    tracer.plan_method("algebra.multiply", algebra.Algebra, "multiply")
    tracer.plan_method("algebra.normal_form", algebra.RewriteEngine, "normal_form_word")
    tracer.plan_function("field.rref", field, "rref",
                         cells=lambda args, out: _shape_cells(args[1]))
    tracer.plan_function("field.matmul", field, "matmul")
    tracer.plan_method("field.rand", field.Field, "rand")
    tracer.plan_method("resolution.induced_matrix", resolution.ResolutionSpec,
                       "induced_matrix", cells=induced_cells)
    tracer.plan_method("resolution.check_complex", resolution.ResolutionSpec,
                       "check_complex")
    tracer.plan_method("resolution.check_exactness", resolution.ResolutionSpec,
                       "check_exactness")
    tracer.plan_function("cohomology.hh", cohomology, "hh")
    tracer.plan_function("cohomology.oracle", cohomology,
                         "check_hh1_against_derivations")
    tracer.plan_function("lie.bracket", lie, "bracket")
    tracer.plan_function("lie.fingerprint", lie, "fingerprint")
    tracer.plan_function("lie.distinguish", lie, "distinguish")
    tracer.plan_function("fixtures.fixture_check", fixtures, "fixture_check")
    tracer.plan_function("lie.check_bracket_table", lie, "check_bracket_table")


# per-layer metric -> (unit, span names, what is summed)
LAYER_METRICS = {
    "families.make_s": ("s", ("families.make",), "self"),
    "algebra.table_s": ("s", ("algebra.table",), "self"),
    "algebra.table_mb": ("MB", ("algebra.table",), "mb"),
    "algebra.validate_s": ("s", ("algebra.validate",), "self"),
    "algebra.multiply_s": ("s", ("algebra.multiply",), "self"),
    "algebra.multiply_calls": ("count", ("algebra.multiply",), "calls"),
    "algebra.normal_form_calls": ("count", ("algebra.normal_form",), "calls"),
    "field.rref_s": ("s", ("field.rref",), "self"),
    "field.rref_calls": ("count", ("field.rref",), "calls"),
    "field.rref_cells": ("count", ("field.rref",), "cells"),
    "field.matmul_s": ("s", ("field.matmul",), "self"),
    "field.rand_s": ("s", ("field.rand",), "self"),
    "resolution.induced_matrix_s": ("s", ("resolution.induced_matrix",), "self"),
    "resolution.induced_matrix_cells": ("count", ("resolution.induced_matrix",), "cells"),
    "resolution.check_exactness_s": ("s", ("resolution.check_exactness",), "self"),
    "resolution.check_complex_s": ("s", ("resolution.check_complex",), "self"),
    "cohomology.hh_s": ("s", ("cohomology.hh",), "self"),
    "cohomology.oracle_s": ("s", ("cohomology.oracle",), "self"),
    "lie.bracket_s": ("s", ("lie.bracket",), "self"),
    "lie.bracket_calls": ("count", ("lie.bracket",), "calls"),
    "lie.fingerprint_s": ("s", ("lie.fingerprint",), "self"),
    "lie.distinguish_s": ("s", ("lie.distinguish",), "self"),
    "fixtures.check_s": ("s", ("fixtures.fixture_check",
                               "lie.check_bracket_table"), "self"),
}


def by_name(stats: dict) -> dict:
    """Fold path-keyed stats into name -> [calls, total_s, self_s, cells]."""
    out: dict[str, list] = {}
    for path, row in stats.items():
        acc = out.setdefault(path[-1], [0, 0.0, 0.0, 0])
        for i, value in enumerate(row):
            acc[i] += value
    return out


def layer_values(setup: dict, rounds: dict, n_rounds: int) -> dict:
    """Per-layer metric values: set-up totals plus the mean over traced rounds."""
    s_names, r_names = by_name(setup), by_name(rounds)
    out = {}
    for metric, (unit, spans, kind) in LAYER_METRICS.items():
        value = 0.0
        for part, scale in ((s_names, 1.0), (r_names, 1.0 / n_rounds)):
            for span in spans:
                calls, _, self_s, cells = part.get(span, [0, 0.0, 0.0, 0])
                value += scale * {"self": self_s, "calls": calls, "cells": cells,
                                  "mb": cells * 8 / 2 ** 20}[kind]
        out[metric] = {"value": value, "unit": unit}
    return out
