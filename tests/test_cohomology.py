"""Cohomology spaces against closed-form dimensions and the Leibniz oracle."""

import random

import numpy as np
import pytest

from tamecoh.algebra import Algebra, AlgebraError, Quiver, Rule
from tamecoh.cohomology import (
    centre_cochain,
    check_hh1_against_derivations,
    cochain_derivation,
    derivation_from_arrow_values,
    hh,
)
from tamecoh.families import make
from tamecoh.field import Field, matmul
from tamecoh.resolution import standard_resolution

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF5 = Field(5)


def trunc_setup(field, n=3):
    q = Quiver(1, [("t", 0, 0)])
    alg = Algebra(field, q, [Rule(q, field, (0,) * n)], expected_dim=n)
    return alg, standard_resolution(alg, [("t^n", [(1, (0,) * n)])])


# ---------------------------------------------------------------------------
# hand-checkable: k[t]/t^3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,h1", [(GF3, 3), (GF2, 2), (GF5, 2)])
def test_trunc_poly_dims(field, h1):
    # HH^1 of k[t]/t^3 is 3-dimensional exactly in characteristic 3,
    # where the t^2 obstruction 3t^2 D(t) vanishes identically
    _, res = trunc_setup(field)
    assert hh(res, 0).dim == 3
    assert hh(res, 1).dim == h1
    rep = check_hh1_against_derivations(res)
    assert (rep["der_dim"], rep["inn_dim"], rep["hh1_dim"]) == (h1, 0, h1)


def test_trunc_poly_oracle_agreement():
    _, res = trunc_setup(GF3)
    assert check_hh1_against_derivations(res)["passed"]


# ---------------------------------------------------------------------------
# degree bookkeeping
# ---------------------------------------------------------------------------


def test_standard_resolution_degree_two_unavailable():
    inst = make("D1A2", GF2, k=2, d=0)
    with pytest.raises(AlgebraError, match="degree unavailable"):
        hh(inst.resolution, 2)
    with pytest.raises(AlgebraError, match="negative"):
        hh(inst.resolution, -1)


def test_quaternion_tower_and_periodicity():
    inst = make("Q1A2", GF2, k=3, c=1, d=1)
    dims = [hh(inst.resolution, n).dim for n in range(9)]
    assert dims == [inst.hh_dim(n) for n in range(9)]
    assert dims[1:5] == dims[5:9]
    assert dims[0] == dims[3] == dims[4] == 6   # k + 3
    assert dims[1] == dims[2] == 7              # k + 4, since (c, d) != 0, k odd


# ---------------------------------------------------------------------------
# degree zero is the centre
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,field,params", [
    ("D1A2", GF2, dict(k=2, d=0)),
    ("SD1A2", GF2, dict(k=3, c=1, d=0)),
    ("SD2B1", GF5, dict(k=2, s=3, c=0)),
    ("SD2B2", GF3, dict(k=2, s=2, c=0)),
])
def test_hh0_matches_centre(family, field, params):
    inst = make(family, field, **params)
    space = hh(inst.resolution, 0)
    centre = inst.algebra.center()
    assert space.dim == centre.dim == inst.centre_dim
    for row in centre.rows:
        vec = centre_cochain(inst.resolution, row)
        assert space.is_cocycle(vec)


# ---------------------------------------------------------------------------
# degree one against the closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("d", [0, 1])
def test_hh1_dihedral(k, d):
    inst = make("D1A2", GF2, k=k, d=d)
    assert hh(inst.resolution, 1).dim == inst.hh1_dim


@pytest.mark.parametrize("k,c,d", [
    (2, 0, 0), (2, 1, 0), (2, 0, 1), (2, 1, 1),
    (3, 0, 0), (3, 1, 0), (3, 0, 1), (3, 1, 1),
])
def test_hh1_semidihedral_local(k, c, d):
    inst = make("SD1A2", GF2, k=k, c=c, d=d) if (c, d) != (0, 0) else \
        make("SD1A1", GF2, k=k)
    assert hh(inst.resolution, 1).dim == inst.hh1_dim


@pytest.mark.parametrize("field", [GF2, GF3, GF5])
@pytest.mark.parametrize("k,s", [(2, 2), (2, 3), (3, 2)])
def test_hh1_sd2b1(field, k, s):
    for c in ({0, 1} if field.q > 1 else {0}):
        inst = make("SD2B1", field, k=k, s=s, c=c)
        assert hh(inst.resolution, 1).dim == inst.hh1_dim, inst.label


@pytest.mark.parametrize("field", [GF2, GF3, GF5])
@pytest.mark.parametrize("k,s", [(2, 2), (2, 3), (3, 3)])
def test_hh1_sd2b2(field, k, s):
    for c in (0, 1):
        inst = make("SD2B2", field, k=k, s=s, c=c)
        assert hh(inst.resolution, 1).dim == inst.hh1_dim, inst.label


def test_hh1_extension_field_follows_same_formula():
    inst = make("SD1A2", GF4, k=2, c=2, d=3)
    assert hh(inst.resolution, 1).dim == inst.hh1_dim == 7
    inst2 = make("Q1A2", GF4, k=2, c=2, d=3)
    assert hh(inst2.resolution, 1).dim == inst2.hh1_dim == 7


# ---------------------------------------------------------------------------
# class coordinates
# ---------------------------------------------------------------------------


def test_class_coords_roundtrip():
    inst = make("SD1A1", GF2, k=2)
    space = hh(inst.resolution, 1)
    rng = random.Random(2)
    for _ in range(10):
        coords = GF2.rand(rng, space.dim)
        rep = space.representative(coords)
        assert space.is_cocycle(rep)
        assert np.array_equal(space.class_coords(rep), coords)


def test_class_coords_kill_coboundaries():
    inst = make("SD1A1", GF2, k=2)
    space = hh(inst.resolution, 1)
    for row in space.coboundaries.rows:
        assert not space.class_coords(row).any()
        assert space.same_class(row, np.zeros_like(row))


@pytest.mark.parametrize("family,field,params", [
    ("SD1A1", GF2, dict(k=2)),
    ("SD2B1", GF3, dict(k=2, s=3, c=1)),
    ("Q1A2", GF4, dict(k=2, c=2, d=3)),
])
def test_class_coords_of_a_stack(family, field, params):
    space = hh(make(family, field, **params).resolution, 1)
    rng = random.Random(3)
    stack = matmul(field, field.rand(rng, (6, space.cocycles.dim)), space.cocycles.rows)
    assert np.array_equal(space.class_coords(stack), [space.class_coords(v) for v in stack])
    outside = next(e for e in np.eye(stack.shape[1], dtype=np.int64)
                   if not space.cocycles.contains(e))
    for r in (0, 5):
        bent = stack.copy()
        bent[r] = field.add(bent[r], outside)
        with pytest.raises(AlgebraError, match="not a cocycle"):
            space.class_coords(bent)


def test_non_cocycle_rejected():
    inst = make("D1A2", GF2, k=2, d=0)
    space = hh(inst.resolution, 1)
    # the cocycle space is a proper subspace, so some vector falls outside
    outside = None
    n = inst.resolution.hom_dim(1)
    eye = np.eye(n, dtype=np.int64)
    for i in range(n):
        if not space.cocycles.contains(eye[i]):
            outside = eye[i]
            break
    assert outside is not None
    with pytest.raises(AlgebraError, match="not a cocycle"):
        space.class_coords(outside)


# ---------------------------------------------------------------------------
# derivation oracle
# ---------------------------------------------------------------------------


# Q2B1 has no closed form here; its dims come from the Leibniz oracle alone
Q2B1_HH1 = [
    (GF2, dict(k=1, s=4, a=1, c=0), 4),
    (GF2, dict(k=2, s=3, a=1, c=1), 6),
    (GF3, dict(k=2, s=4, a=1, c=0), 5),
    (GF3, dict(k=1, s=4, a=2, c=1), 4),
    (GF4, dict(k=1, s=3, a=2, c=1), 4),
    (GF5, dict(k=2, s=3, a=3, c=0), 4),
]


@pytest.mark.parametrize("family,field,params", [
    ("D1A2", GF2, dict(k=2, d=0)),
    ("SD1A2", GF2, dict(k=2, c=1, d=1)),
    ("Q1A1", GF2, dict(k=2)),
    ("SD2B1", GF3, dict(k=2, s=2, c=0)),
    ("SD2B2", GF2, dict(k=2, s=2, c=1)),
    ("SD1A2", GF4, dict(k=2, c=2, d=3)),
    *[("Q2B1", field, params) for field, params, _ in Q2B1_HH1],
])
def test_hh1_agrees_with_leibniz_oracle(family, field, params):
    inst = make(family, field, **params)
    report = check_hh1_against_derivations(inst.resolution)
    assert report["passed"], report["entries"]


@pytest.mark.parametrize("field,params,dim", Q2B1_HH1)
def test_hh1_q2b1(field, params, dim):
    assert hh(make("Q2B1", field, **params).resolution, 1).dim == dim


def test_arrow_value_window_enforced():
    inst = make("SD2B1", GF2, k=2, s=2, c=0)
    alg = inst.algebra
    vals = [alg.zero() for _ in alg.quiver.arrows]
    vals[1] = alg.one()   # arrow b goes between distinct vertices; 1 does not
    with pytest.raises(AlgebraError, match="vertex window"):
        derivation_from_arrow_values(alg, vals)


def test_cochain_derivation_satisfies_leibniz():
    inst = make("Q1A2", GF2, k=2, c=1, d=0)
    alg = inst.algebra
    f = alg.field
    space = hh(inst.resolution, 1)
    D = cochain_derivation(inst.resolution, space.representatives()[0])
    rng = random.Random(9)
    for _ in range(50):
        u = f.rand(rng, alg.dim)
        v = f.rand(rng, alg.dim)
        uv = alg.multiply(u, v)
        lhs = np.zeros(alg.dim, dtype=np.int64)
        for t in np.nonzero(uv)[0]:
            lhs = f.add(lhs, f.mul(D[:, t], int(uv[t])))
        Du = np.zeros(alg.dim, dtype=np.int64)
        for t in np.nonzero(u)[0]:
            Du = f.add(Du, f.mul(D[:, t], int(u[t])))
        Dv = np.zeros(alg.dim, dtype=np.int64)
        for t in np.nonzero(v)[0]:
            Dv = f.add(Dv, f.mul(D[:, t], int(v[t])))
        rhs = f.add(alg.multiply(Du, v), alg.multiply(u, Dv))
        assert np.array_equal(lhs, rhs)
