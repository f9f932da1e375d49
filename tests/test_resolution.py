"""Bimodule complexes: construction, verification, and deliberate sabotage.

The truncated polynomial ring gives an independently known exact complex
(the classical two-step resolution of k[t]/t^n), so the checkers are tested
against ground truth before being pointed at the families.
"""

import random
import re

import numpy as np
import pytest

from tamecoh.algebra import Algebra, AlgebraError, Quiver, Rule
from tamecoh.families import make
from tamecoh.field import Field, matvec, rank
from tamecoh.resolution import (
    FreeSummand,
    ResolutionSpec,
    TensorExpr,
    diff1,
    expand_relation,
    quaternion_resolution,
    standard_resolution,
    vertex_summands,
)

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)


def trunc_poly(field, n=3):
    q = Quiver(1, [("t", 0, 0)])
    return Algebra(field, q, [Rule(q, field, (0,) * n)], name=f"k[t]/t^{n}",
                   expected_dim=n)


def trunc_resolution(field, n=3):
    alg = trunc_poly(field, n)
    return alg, standard_resolution(alg, [("t^n", [(1, (0,) * n)])])


# ---------------------------------------------------------------------------
# ground truth: k[t]/t^n
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,n", [(GF2, 3), (GF3, 3), (GF3, 4), (GF4, 2)])
def test_trunc_poly_resolution_is_exact(field, n):
    alg, res = trunc_resolution(field, n)
    rng = random.Random(5)
    assert res.check_complex(rng)["passed"]
    assert res.check_minimality()["passed"]
    assert res.check_exactness(rng)["passed"]


def test_trunc_poly_differentials_have_expected_shape():
    alg, res = trunc_resolution(GF3, 3)
    # d1 on the arrow generator: t (x) 1 - 1 (x) t
    (expr,) = res.diff_at(1)
    assert len(expr) == 2
    # d2 expands t^3 into 1 (x) t^2 + t (x) t + t^2 (x) 1
    (expr2,) = res.diff_at(2)
    assert len(expr2) == 3


def test_expand_relation_prefix_suffix_split():
    alg = trunc_poly(GF3, 4)
    expr = expand_relation(alg, [(1, (0, 0, 0, 0))])
    got = set()
    for s, l, r in expr.terms:
        li = np.nonzero(l)[0]
        ri = np.nonzero(r)[0]
        assert len(li) == 1 and len(ri) == 1
        got.add((int(li[0]), int(ri[0])))
    # basis of k[t]/t^4 is 1, t, t^2, t^3 in enumeration order
    assert got == {(0, 3), (1, 2), (2, 1), (3, 0)}


# ---------------------------------------------------------------------------
# degree bookkeeping
# ---------------------------------------------------------------------------


def test_standard_resolution_stops_at_degree_two():
    alg, res = trunc_resolution(GF2, 3)
    assert res.depth == 2
    with pytest.raises(AlgebraError, match="degree unavailable"):
        res.diff_at(3)
    with pytest.raises(AlgebraError, match="degree unavailable"):
        res.summands_at(5)


def test_periodic_folding():
    inst = make("Q1A1", GF2, k=2)
    res = inst.resolution
    assert res.depth == 4
    assert res.periodic
    assert res.summands_at(5) == res.summands_at(1)
    assert res.summands_at(8) == res.summands_at(4)
    assert res.diff_at(6) is res.diff_at(2)
    assert res.hom_dim(7) == res.hom_dim(3)


def test_summand_labels_follow_their_role():
    inst = make("Q1A2", GF2, k=2, c=1, d=0)
    labels = [[s.label for s in level] for level in inst.resolution.summands]
    assert labels[0] == ["1"]
    assert labels[1] == ["x", "y"]
    assert labels[3] == ["third syzygy"]
    assert labels[4] == ["fourth syzygy"]


# ---------------------------------------------------------------------------
# cochain plumbing
# ---------------------------------------------------------------------------


def test_pack_unpack_roundtrip():
    inst = make("D1A2", GF2, k=2, d=0)
    res = inst.resolution
    rng = random.Random(7)
    for degree in (0, 1, 2):
        vec = GF2.rand(rng, res.hom_dim(degree))
        values = res.unpack_cochain(degree, vec)
        assert np.array_equal(res.pack_cochain(degree, values), vec)
        # stacks of any leading shape, the empty one included
        for shape in ((2, 3), (0,)):
            vecs = GF2.rand(rng, (*shape, res.hom_dim(degree)))
            values = res.unpack_cochain(degree, vecs)
            assert values.shape == (*shape, len(res.summands_at(degree)), inst.algebra.dim)
            assert np.array_equal(res.pack_cochain(degree, values), vecs)
            for index in np.ndindex(*shape):
                assert np.array_equal(values[index], res.unpack_cochain(degree, vecs[index]))


def test_hom_dims_for_local_family():
    inst = make("D1A2", GF2, k=3, d=1)
    res = inst.resolution
    n = inst.algebra.dim
    # every summand of a one-vertex quiver contributes the whole algebra;
    # degree 2 has one summand per defining relation (three of them)
    assert res.hom_dim(0) == n
    assert res.hom_dim(1) == 2 * n
    assert res.hom_dim(2) == 3 * n


def apply_diff(res, degree, values):
    """Evaluate f . d^degree term by term, f given by its summand values."""
    alg = res.algebra
    out = []
    for expr in res.diff_at(degree):
        acc = alg.zero()
        for s_idx, l, r in expr.terms:
            acc = alg.field.add(acc, alg.multiply(alg.multiply(l, values[s_idx]), r))
        out.append(acc)
    return out


def test_induced_matrix_agrees_with_apply_diff():
    # degrees 5-8 of the quaternion complex wrap around the period
    cases = [
        (make("SD1A2", GF2, k=2, c=1, d=1), range(1, 3)),
        (make("SD2B1", GF3, k=2, s=2, c=0), range(1, 3)),
        (make("Q1A2", GF4, k=3, c=0, d=2), range(1, 9)),
    ]
    rng = random.Random(3)
    for inst, degrees in cases:
        res = inst.resolution
        f = inst.field
        for degree in degrees:
            mat = res.induced_matrix(degree)
            for _ in range(20):
                vec = f.rand(rng, res.hom_dim(degree - 1))
                values = res.unpack_cochain(degree - 1, vec)
                image = res.pack_cochain(degree, apply_diff(res, degree, values))
                assert np.array_equal(image, matvec(f, mat, vec))


def test_induced_matrix_periodic_cache():
    inst = make("Q1A1", GF2, k=2)
    res = inst.resolution
    assert res.induced_matrix(6) is res.induced_matrix(2)


# ---------------------------------------------------------------------------
# family resolutions pass the checkers
# ---------------------------------------------------------------------------


FAMILY_CASES = [
    ("D1A2", GF2, dict(k=2, d=0)),
    ("D1A2", GF2, dict(k=3, d=1)),
    ("SD1A1", GF2, dict(k=2)),
    ("SD1A2", GF2, dict(k=3, c=1, d=1)),
    ("SD2B1", GF3, dict(k=2, s=2, c=1)),
    ("SD2B2", GF2, dict(k=2, s=3, c=0)),
    ("SD2B2", GF2, dict(k=2, s=2, c=1)),
    ("Q1A2", GF2, dict(k=2, c=1, d=0)),
    ("Q1A2", GF2, dict(k=2, c=1, d=1)),
    ("Q1A1", GF2, dict(k=3)),
    ("Q2B1", GF2, dict(k=1, s=4, a=1, c=0)),
]


@pytest.mark.parametrize("family,field,params", FAMILY_CASES)
def test_family_resolution_checks(family, field, params):
    inst = make(family, field, **params)
    res = inst.resolution
    rng = random.Random(11)
    assert res.check_complex(rng, probes=300)["passed"]
    assert res.check_minimality()["passed"]
    assert res.check_exactness(rng, probes=300)["passed"]


def test_quaternion_resolution_over_extension_field():
    inst = make("Q1A2", GF4, k=2, c=2, d=3)
    res = inst.resolution
    rng = random.Random(11)
    assert res.check_complex(rng, probes=100)["passed"]
    assert res.check_exactness(rng, probes=100)["passed"]


# ---------------------------------------------------------------------------
# sabotage: the checkers must notice broken input
# ---------------------------------------------------------------------------


def test_tampered_differential_fails_complex_check():
    alg, res = trunc_resolution(GF3, 3)
    bad_d2 = TensorExpr(list(res.diff_at(2)[0].terms))
    bad_d2.add_term(GF3, 0, alg.basis_vector(1), alg.basis_vector(0))
    bad = ResolutionSpec(alg, res.summands, [res.diffs[0], res.diffs[1], [bad_d2]])
    assert not bad.check_complex(random.Random(0))["passed"]


def test_missing_relation_fails_exactness():
    # drop one defining relation from a two-generator algebra: the complex
    # condition still holds but im d2 is too small
    inst = make("D1A2", GF2, k=2, d=0)
    alg = inst.algebra
    partial = standard_resolution(alg, inst.resolution.relations[:1])
    assert partial.check_complex(random.Random(0))["passed"]
    report = partial.check_exactness(random.Random(0))
    assert not report["passed"]


def test_unit_coefficient_fails_minimality():
    alg = trunc_poly(GF2, 3)
    d2 = TensorExpr()
    d2.add_term(GF2, 0, alg.one(), alg.one())
    res = ResolutionSpec(
        alg,
        [vertex_summands(alg), [FreeSummand(0, 0, "t")], [FreeSummand(0, 0, "r")]],
        [None, diff1(alg), [d2]],
    )
    report = res.check_minimality()
    assert not report["passed"]


def test_differentials_must_match_the_summands():
    """Without the check, d2 with its last generator image dropped gives
    dim HH^1 = 5 instead of 4 on SD2B1(2,2)/GF(3) while check_complex
    passes, and a term in a summand out of range fails later with a bare
    IndexError."""
    res = make("SD2B1", GF3, k=2, s=2, c=0).resolution
    summands, diffs = res.summands, list(res.diffs)
    with pytest.raises(ValueError, match="degree 2 has 4 generator images for 5 summands"):
        ResolutionSpec(res.algebra, summands, diffs[:2] + [diffs[2][:-1]])
    for s_idx in (len(summands[1]), -1):
        expr = diffs[2][0]
        moved = TensorExpr([(s_idx, *expr.terms[0][1:])] + expr.terms[1:])
        used = sorted({0, 1, 2, 3, s_idx})
        with pytest.raises(ValueError, match=re.escape(f"terms in summands {used} of 4")):
            ResolutionSpec(res.algebra, summands, diffs[:2] + [[moved] + diffs[2][1:]])
    with pytest.raises(ValueError, match="3 degrees of summands but 2 of diffs"):
        ResolutionSpec(res.algebra, summands, diffs[:2])
    assert ResolutionSpec(res.algebra, summands, diffs).check_complex()["passed"]


def test_wrong_quaternion_parameters_fail_checks():
    # build the resolution with mismatched parameters on purpose
    inst = make("Q1A2", GF2, k=2, c=1, d=1)
    wrong = quaternion_resolution(inst.algebra, k=2, c=0, d=0)
    ok_complex = wrong.check_complex(random.Random(0))["passed"]
    ok_exact = wrong.check_exactness(random.Random(0))["passed"]
    assert not (ok_complex and ok_exact)


# ---------------------------------------------------------------------------
# full matrices
# ---------------------------------------------------------------------------


def dense(rows, cols, codes, shape):
    """The dense matrix of sparse entries (rows, cols, codes, shape)."""
    out = np.zeros(shape, dtype=np.int64)
    out[rows, cols] = codes
    return out


def test_augmentation_matrix_surjective():
    alg, res = trunc_resolution(GF3, 3)
    aug = dense(*res.full_matrix_aug())
    assert aug.shape[0] == alg.dim
    assert rank(GF3, aug) == alg.dim


def test_one_sided_degree_one_hits_radical():
    inst = make("SD2B1", GF2, k=2, s=2, c=0)
    res = inst.resolution
    alg = inst.algebra
    for v in range(2):
        starts = sum(1 for w in alg.basis if w.source == v)
        m = dense(*res.full_matrix(1, vertex=v))
        assert rank(GF2, m) == starts - 1


def test_tensor_expr_drops_zero_terms():
    alg = trunc_poly(GF2, 3)
    e = TensorExpr()
    e.add_term(GF2, 0, alg.one(), alg.one(), coeff=0)
    assert len(e) == 0
    e.add_term(GF2, 0, alg.one(), alg.basis_vector(1), coeff=1)
    assert len(e) == 1
    with pytest.raises(ValueError, match="not a field code"):
        e.add_term(GF4, 0, alg.one(), alg.one(), coeff=-1)
