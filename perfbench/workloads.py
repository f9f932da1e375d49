"""The three workloads: their instances, their operations and their checks.

A workload is a fixed instance grid.  The seed chooses only what a user
could vary without changing the answers: the random change of basis each
Lie algebra is conjugated by, and the random generators the certificate
checks draw their probes from.  Every round runs the same operations, so
each run attempts whole rounds.

Each operation returns a list of problems; an empty list means every answer
it produced passed its checks.  An operation that raises counts as failed.
Calls into ``tamecoh`` go through module attributes, so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from tamecoh import cohomology, families, fixtures, lie
from tamecoh.field import Field
from tamecoh.resolution import ResolutionSpec, TensorExpr

import oracle


@dataclass(frozen=True)
class Spec:
    """One family instance: family id, field order and parameters."""

    family: str
    q: int
    params: tuple

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})/GF({self.q})"

    def kwargs(self) -> dict:
        return dict(self.params)


def spec(family: str, q: int, **params) -> Spec:
    return Spec(family, q, tuple(params.items()))


@dataclass(frozen=True)
class Pair:
    """Two instances with equal dim HH^1, compared by ``distinguish``.

    ``mapping`` builds the recorded isomorphism on the named bases from the
    first instance's fixture set; a pair with a mapping must come out
    ``inconclusive``.
    """

    a: Spec
    b: Spec
    mapping: Optional[Callable] = None


@dataclass
class Workload:
    pipeline: list                  # Specs taken from spec to fingerprint
    pairs: list = dc_field(default_factory=list)
    certify: list = dc_field(default_factory=list)   # Specs whose certificates run
    degrees: dict = dc_field(default_factory=dict)   # Spec -> HH degrees beyond 0, 1
    canonical_only: set = dc_field(default_factory=set)  # skip the named basis
    complex_probes: int = 400
    exactness_probes: int = 150
    negative_control: Optional[Spec] = None

    def specs(self) -> list:
        """Every instance to build; pairs and the negative control reuse these."""
        return list(dict.fromkeys(self.pipeline + self.certify))


GF4 = Field(2, 2)

_SD2B1_66_2 = spec("SD2B1", 2, k=6, s=6, c=0)
_SD2B1_34_3 = spec("SD2B1", 3, k=3, s=4, c=0)
_SD2B1_43_3 = spec("SD2B1", 3, k=4, s=3, c=0)
_D1A2_6 = spec("D1A2", 2, k=6, d=0)
_SD1A2_7 = spec("SD1A2", 2, k=7, c=1, d=0)

_Q1A2_3_d2 = spec("Q1A2", 4, k=3, c=0, d=2)
_Q1A2_3_d3 = spec("Q1A2", 4, k=3, c=0, d=3)
_SD1A2_3_c2 = spec("SD1A2", 4, k=3, c=2, d=1)
_SD1A2_3_c3 = spec("SD1A2", 4, k=3, c=3, d=1)
_Q1A2_5 = spec("Q1A2", 4, k=5, c=0, d=2)
_SD1A2_5 = spec("SD1A2", 4, k=5, c=2, d=1)
_Q1A2_2_gf8 = spec("Q1A2", 8, k=2, c=0, d=3)
_SD1A2_2_gf8 = spec("SD1A2", 8, k=2, c=2, d=1)

_SD2B1_22_3 = spec("SD2B1", 3, k=2, s=2, c=0)

WORKLOADS = {
    "hh1-prime": Workload(
        pipeline=[_SD2B1_66_2, _SD2B1_34_3, _SD2B1_43_3,
                  spec("SD2B1", 5, k=3, s=3, c=0), _D1A2_6, _SD1A2_7],
        pairs=[
            Pair(_SD2B1_34_3, _SD2B1_43_3, fixtures.sd2b1_swap_map),
            Pair(_D1A2_6, _SD1A2_7),
        ],
        certify=[spec("SD2B1", 5, k=2, s=2, c=0)],
        canonical_only={_SD2B1_66_2},
        complex_probes=100,
        exactness_probes=30,
    ),
    "ext-field": Workload(
        pipeline=[
            _Q1A2_3_d2, _Q1A2_3_d3, _SD1A2_3_c2, _SD1A2_3_c3, _Q1A2_5, _SD1A2_5,
            _Q1A2_2_gf8, _SD1A2_2_gf8, spec("SD2B1", 4, k=3, s=2, c=2),
        ],
        pairs=[
            Pair(_Q1A2_3_d2, _Q1A2_3_d3,
                 lambda fix: fixtures.quaternion_scaling_map(GF4, 3, 2, 3)),
            Pair(_SD1A2_3_c2, _SD1A2_3_c3,
                 lambda fix: fixtures.sd_local_scaling_map(GF4, 3, 2, 3)),
            Pair(_Q1A2_5, _SD1A2_5),
            Pair(_Q1A2_2_gf8, _SD1A2_2_gf8),
        ],
        certify=[_Q1A2_3_d2],
        degrees={s: (2, 3, 4) for s in (_Q1A2_3_d2, _Q1A2_3_d3, _Q1A2_5, _Q1A2_2_gf8)},
        complex_probes=50,
        exactness_probes=10,
    ),
    "certify": Workload(
        pipeline=[_SD2B1_22_3],
        certify=[
            _SD2B1_22_3,
            spec("SD1A2", 2, k=5, c=1, d=0),
            spec("Q1A2", 2, k=4, c=1, d=1),
            spec("SD2B2", 5, k=2, s=3, c=0),
            spec("SD2B1", 3, k=3, s=4, c=0),
            spec("SD1A2", 4, k=2, c=1, d=1),
        ],
        negative_control=_SD2B1_22_3,
    ),
}


def field_of(q: int) -> Field:
    return Field.parse(f"GF({q})")


def build(spec_: Spec):
    """Set-up: build and certify the instance (``families.make`` caches it)."""
    return families.make(spec_.family, field_of(spec_.q), **spec_.kwargs())


def fresh_resolution(res: ResolutionSpec) -> ResolutionSpec:
    """The same complex with empty caches, so each round redoes the work."""
    return ResolutionSpec(res.algebra, res.summands, res.diffs,
                          relations=res.relations, periodic=res.periodic)


def corrupted(res: ResolutionSpec) -> ResolutionSpec:
    """A copy whose first degree-2 term has its coefficient 1 turned into 2."""
    p = res.algebra.field.p
    diffs = list(res.diffs)
    first = diffs[2][0]
    s_idx, left, right = first.terms[0]
    bad = TensorExpr(first.terms)
    bad.terms[0] = (s_idx, (2 * left) % p, right)
    diffs[2] = [bad] + list(diffs[2][1:])
    return ResolutionSpec(res.algebra, res.summands, diffs,
                          relations=res.relations, periodic=res.periodic)


@dataclass
class Result:
    space: object
    lie: object
    fix: object
    fp: object


class Runner:
    """Holds one run's instances and the outputs a round shares between ops.

    Operations time only their calls into ``tamecoh``, inside
    ``timed(step)``; making inputs and checking answers stay outside, so
    ``elapsed`` (step -> seconds, for the operation last run) is the
    program's time alone.  Steps split the longer operations into parts of
    a second or less.  ``after_step``, if set, is called with each step's
    time once the step's clock has stopped.
    """

    def __init__(self, workload: Workload, seed: int):
        self.wl = workload
        self.seed = seed
        self.insts = {}
        self.results: dict[Spec, Result] = {}
        self.elapsed: dict[str, float] = {}
        self.after_step: Optional[Callable[[float], None]] = None

    @contextlib.contextmanager
    def timed(self, step: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            self.elapsed[step] = self.elapsed.get(step, 0.0) + took
            if self.after_step is not None:
                self.after_step(took)

    def setup(self) -> None:
        for s in self.wl.specs():
            self.insts[s] = build(s)

    def operations(self, rnd: int) -> list:
        """(label, thunk) for every operation of round ``rnd``, in order."""
        ops = []
        for i, s in enumerate(self.wl.pipeline):
            ops.append((f"pipeline {s.label}",
                        lambda s=s, i=i: self.pipeline(s, rnd, i)))
        for p in self.wl.pairs:
            ops.append((f"pair {p.a.label} ~ {p.b.label}",
                        lambda p=p: self.pair(p)))
        for i, s in enumerate(self.wl.certify):
            for check in ("complex", "minimality", "exactness", "oracle", "fixtures"):
                if check == "fixtures" and s.family not in fixtures.FIXTURE_FAMILIES:
                    continue
                ops.append((f"certify {check} {s.label}",
                            lambda s=s, i=i, c=check: self.certify(s, c, rnd, i)))
        if self.wl.negative_control:
            for check in ("complex", "exactness"):
                ops.append((f"negative control {check}",
                            lambda c=check: self.negative(c, rnd)))
        return ops

    def _rng(self, rnd: int, idx: int, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{rnd}/{idx}/{tag}")

    # ---- spec -> HH^n -> Lie algebra -> fingerprint ----

    def pipeline(self, s: Spec, rnd: int, idx: int) -> list:
        inst = self.insts[s]
        f = inst.field
        probes = list(range(1, f.q))
        named = s.family in fixtures.FIXTURE_FAMILIES and s not in self.wl.canonical_only
        fix = fix_report = fp_named = None
        algebras = []
        spaces = {}
        with self.timed("resolution"):
            res = fresh_resolution(inst.resolution)
        for d in (0, 1) + self.wl.degrees.get(s, ()):
            with self.timed(f"hh{d}"):
                spaces[d] = cohomology.hh(res, d)
        with self.timed("lie"):
            canon = lie.from_cohomology(spaces[1])
        with self.timed("fingerprint"):
            fp = lie.fingerprint(canon, probes)
        if named:
            with self.timed("named"):
                fix = fixtures.fixtures_for(inst)
                fix_report = fixtures.fixture_check(spaces[1], fix)
                algebras.append(lie.from_cohomology(spaces[1], fix))
            with self.timed("named fingerprint"):
                fp_named = lie.fingerprint(algebras[-1], probes)
        ref = oracle.RefField(f.p, f.m)
        mat = ref.random_invertible(np.random.default_rng([self.seed, rnd, idx]),
                                    canon.dim)
        with self.timed("conjugate"):
            conj = canon.conjugate(mat, check=False)
            # limit 0 skips the nilradical's line search, whose cost in a random
            # basis varies by orders of magnitude from seed to seed; the
            # nilradical is then compared only where the greedy pass decides it
            fp_conj = lie.fingerprint(conj, probes, nilradical_limit=0)
            if fp_conj.nilradical_dim is None:
                fp_conj = dataclasses.replace(fp_conj, nilradical_dim=fp.nilradical_dim)
            verdict = lie.distinguish(fp, fp_conj)
        self.results[s] = Result(spaces[1], canon, fix, fp)

        problems = []
        for degree, space in spaces.items():
            want = oracle.hh_closed_form(s.family, f.p, s.kwargs(), degree)
            if space.dim != want:
                problems.append(f"dim HH^{degree} = {space.dim}, closed form {want}")
        if named:
            if not fix_report["passed"]:
                problems.append("fixture_check failed")
            if fp_named != fp:
                problems.append("named-basis fingerprint differs from canonical")
        if fp_conj != fp or verdict != "inconclusive":
            problems.append("fingerprint changed under a change of basis")
        for alg in [canon, conj] + algebras:
            problems += oracle.lie_axiom_failures(ref, alg.structure)
        if fp.dim != oracle.hh1_closed_form(s.family, f.p, s.kwargs()):
            problems.append(f"Lie algebra has dim {fp.dim}")
        return problems

    def pair(self, p: Pair) -> list:
        ra, rb = self.results[p.a], self.results[p.b]
        accepted = None
        with self.timed("pair"):
            verdict = lie.distinguish(ra.fp, rb.fp)
            if p.mapping is not None:
                iso = fixtures.iso_matrix(ra.space, ra.fix, rb.space, rb.fix,
                                          p.mapping(ra.fix))
                accepted = lie.verify_iso(ra.lie, rb.lie, iso)
        problems = []
        if p.mapping is not None:
            if not accepted:
                problems.append("verify_iso rejected the recorded map")
            if verdict != "inconclusive":
                problems.append(f"isomorphic pair {verdict}")
        elif None not in (ra.fp.nilradical_dim, rb.fp.nilradical_dim):
            if (verdict == "inconclusive") != (ra.fp == rb.fp):
                problems.append(f"verdict {verdict!r} disagrees with the fingerprints")
        return problems

    # ---- certificates ----

    def certify(self, s: Spec, check: str, rnd: int, idx: int) -> list:
        inst = self.insts[s]
        rng = self._rng(rnd, idx, check)
        with self.timed(check):
            res = fresh_resolution(inst.resolution)
            if check == "complex":
                rep = res.check_complex(rng, probes=self.wl.complex_probes)
            elif check == "minimality":
                rep = res.check_minimality()
            elif check == "exactness":
                rep = res.check_exactness(rng, probes=self.wl.exactness_probes)
            elif check == "oracle":
                rep = cohomology.check_hh1_against_derivations(res)
            else:
                fix = fixtures.fixtures_for(inst)
                space = cohomology.hh(res, 1)
                rep = fixtures.fixture_check(space, fix)
                table = lie.check_bracket_table(space, fix)
        if check == "exactness":
            full = any("full bimodule" in e[0] for e in rep["entries"])
            if full != (inst.algebra.dim <= 30):
                return [f"exactness took the {'full' if full else 'one-sided'} path "
                        f"at dim {inst.algebra.dim}"]
        elif check == "oracle":
            want = oracle.hh1_closed_form(s.family, inst.field.p, s.kwargs())
            if rep["der_dim"] - rep["inn_dim"] != want or rep["hh1_dim"] != want:
                return [f"Leibniz oracle gives {rep['der_dim'] - rep['inn_dim']}, "
                        f"complex {rep['hh1_dim']}, closed form {want}"]
        elif check == "fixtures" and not table["passed"]:
            return ["bracket table check failed"]
        failed = [e[0] for e in rep["entries"] if not e[1]]
        return [] if rep["passed"] else [f"{check} check failed: {failed[:3]}"]

    def negative(self, check: str, rnd: int) -> list:
        """The corrupted complex must be caught; catching it is a success."""
        res = corrupted(self.insts[self.wl.negative_control].resolution)
        rng = self._rng(rnd, -1, check)
        with self.timed(check):
            if check == "complex":
                rep = res.check_complex(rng, probes=self.wl.complex_probes)
            else:
                rep = res.check_exactness(rng, probes=self.wl.exactness_probes)
        return [f"corrupted complex passed check_{check}"] if rep["passed"] else []
