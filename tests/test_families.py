"""Construction and certification of the algebra families.

Dimension and centre oracles here are independent of the closed-form tables:
the basis comes from exhaustive path enumeration and the centre from a
commutation kernel, so agreement with the formulas is a real check.
"""

import random

import numpy as np
import pytest

from tamecoh import families
from tamecoh.algebra import AlgebraError
from tamecoh.families import FamilyError, make, normalize_sd_local
from tamecoh.field import Field

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(2, 2)
GF5 = Field(5)


# ---------------------------------------------------------------------------
# local families: dimension 4k, centre k + 3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("d", [0, 1])
def test_dihedral_dim_and_centre(k, d):
    inst = make("D1A2", GF2, k=k, d=d)
    assert inst.algebra.dim == 4 * k
    assert inst.algebra.center().dim == k + 3
    assert inst.centre_dim == k + 3


@pytest.mark.parametrize("family,params", [
    ("SD1A1", dict(k=2)),
    ("SD1A2", dict(k=3, c=1, d=0)),
    ("SD1A2", dict(k=2, c=1, d=1)),
    ("Q1A1", dict(k=3)),
    ("Q1A2", dict(k=2, c=1, d=1)),
])
def test_local_dim_and_centre(family, params):
    inst = make(family, GF2, **params)
    k = params["k"]
    assert inst.algebra.dim == 4 * k
    assert inst.algebra.center().dim == k + 3


def test_local_over_extension_field():
    inst = make("SD1A2", GF4, k=2, c=2, d=3)
    assert inst.algebra.dim == 8
    assert inst.algebra.center().dim == 5


def test_q1a2_degenerate_point_matches_q1a1():
    # (c, d) = (0, 0) is allowed and presents the same ideal as Q1A1
    inst = make("Q1A2", GF2, k=2, c=0, d=0)
    ref = make("Q1A1", GF2, k=2)
    assert inst.algebra.dim == ref.algebra.dim
    assert inst.relations == ref.relations
    assert inst.hh1_dim == ref.hh1_dim


# ---------------------------------------------------------------------------
# two-vertex families: dimension 9k + s, centre k + s + 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [GF2, GF3, GF5])
@pytest.mark.parametrize("k,s", [(2, 3), (3, 2), (2, 2)])
def test_sd2b1_dim_and_centre(field, k, s):
    inst = make("SD2B1", field, k=k, s=s, c=1 % field.q)
    assert inst.algebra.dim == 9 * k + s
    assert inst.algebra.center().dim == k + s + 2


@pytest.mark.parametrize("field", [GF2, GF3])
@pytest.mark.parametrize("k,s", [(2, 3), (3, 3), (2, 2), (3, 2)])
def test_sd2b2_dim_and_centre(field, k, s):
    inst = make("SD2B2", field, k=k, s=s, c=0)
    assert inst.algebra.dim == 9 * k + s
    assert inst.algebra.center().dim == k + s + 2


def test_sd2b2_short_quiver_has_three_arrows():
    # s = 2 uses the reduced presentation without the extra loop
    inst = make("SD2B2", GF2, k=2, s=2, c=1)
    assert len(inst.algebra.quiver.arrows) == 3
    inst_long = make("SD2B2", GF2, k=2, s=3, c=1)
    assert len(inst_long.algebra.quiver.arrows) == 4


def test_q2b1_dim_centre_and_resolution():
    inst = make("Q2B1", GF4, k=1, s=3, a=2, c=1)
    assert inst.algebra.dim == 12
    assert inst.algebra.center().dim == 6
    # a^2 b and g a^2 follow from the other relations and get no summand
    assert inst.resolution.relations == inst.relations[:4]
    with pytest.raises(FamilyError, match="no closed-form"):
        inst.hh_dim(1)


@pytest.mark.parametrize("family,field,params", [
    ("Q1A2", GF4, dict(k=3, c=0, d=2)),   # the quaternion closed form
    ("Q1A1", GF2, dict(k=2)),
    ("SD2B1", GF2, dict(k=2, s=2, c=0)),
])
def test_hh_dim_rejects_negative_degrees(family, field, params):
    inst = make(family, field, **params)
    assert inst.hh_dim(0) == inst.centre_dim
    for degree in (-1, -4):
        with pytest.raises(FamilyError, match=f"negative degree {degree}"):
            inst.hh_dim(degree)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_wrong_characteristic_rejected():
    with pytest.raises(FamilyError, match="wrong characteristic"):
        make("D1A2", GF3, k=2, d=0)
    with pytest.raises(FamilyError, match="wrong characteristic"):
        make("Q1A2", GF5, k=2, c=1, d=1)


def test_invalid_parameters_rejected():
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("D1A2", GF2, k=1, d=0)
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("D1A2", GF2, k=2, d=2)
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("SD2B1", GF2, k=2, s=1, c=0)
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("SD2B2", GF2, k=2, s=1, c=0)
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("Q2B1", GF4, k=1, s=3, a=0, c=0)
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("Q2B1", GF4, k=1, s=3, a=1, c=0)  # a = 1 excluded when k + s = 4
    with pytest.raises(FamilyError):
        make("NOPE", GF2, k=2)
    # parameters that are not integers, and unknown or missing names
    before = len(families._CACHE)
    for params in (dict(k=2.5, s=2), dict(k=2, s=2.0), dict(k=2, s=2, c=1.5), dict(k="2", s=2)):
        with pytest.raises(FamilyError, match="invalid parameters: .* is not an integer"):
            make("SD2B1", GF3, **params)
    with pytest.raises(FamilyError, match="is not an integer"):
        make("Q2B1", GF4, k=1, s=3, a=np.float64(2), c=0)
    with pytest.raises(FamilyError, match=r"for SD2B1: it takes k, s, c; got k, s, q"):
        make("SD2B1", GF3, k=2, s=2, q=1)
    with pytest.raises(FamilyError, match=r"for SD1A1: it takes k; got none"):
        make("SD1A1", GF2)
    assert len(families._CACHE) == before
    assert make("SD2B1", GF3, k=np.int64(2), s=np.int32(2)).params["k"] == 2


def test_a_default_left_out_and_given_is_one_cached_instance(monkeypatch):
    monkeypatch.setattr(families, "_CACHE", {})
    inst = make("SD2B1", GF3, k=3, s=4)
    assert make("SD2B1", GF3, k=3, s=4, c=0) is inst
    assert make("SD2B1", GF3, s=4, k=3) is inst
    assert len(families._CACHE) == 1
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("SD2B1", GF3, k=3, s=4, c=0, d=1)
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("SD2B1", GF3, k=3, s=1)
    with pytest.raises(FamilyError, match="s=4.0 is not an integer"):
        make("SD2B1", GF3, k=3, s=4.0)
    assert len(families._CACHE) == 1


def test_scalar_codes_validated():
    with pytest.raises(FamilyError, match="invalid parameters"):
        make("SD1A2", GF2, k=2, c=2, d=0)  # 2 is not a GF(2) code


# ---------------------------------------------------------------------------
# certification side effects
# ---------------------------------------------------------------------------


def test_relations_certified_on_build():
    inst = make("SD1A2", GF2, k=2, c=1, d=1)
    inst.check_relations()  # idempotent, still passes


def test_tampered_relation_detected():
    inst = make("SD1A1", GF2, k=2)
    q = inst.algebra.quiver
    bad = ("not a relation", [(1, tuple(q.arrow_index[n] for n in "xy"))])
    tampered = families.FamilyInstance(
        family=inst.family, field=inst.field, params=inst.params,
        algebra=inst.algebra, relations=[bad], socle_words=inst.socle_words,
        lam=inst.lam, resolution=inst.resolution,
        centre_dim=inst.centre_dim, hh1_dim=inst.hh1_dim,
    )
    with pytest.raises(AlgebraError, match="does not vanish"):
        tampered.check_relations()


def test_symmetrizing_form_nondegenerate():
    inst = make("Q1A2", GF2, k=2, c=1, d=0)
    g = inst.algebra.gram_matrix(inst.lam)
    assert np.array_equal(g, g.T)
    from tamecoh.field import rank
    assert rank(inst.field, g) == inst.algebra.dim


def test_make_caches_instances():
    a = make("D1A2", GF2, k=2, d=0)
    b = make("D1A2", GF2, k=2, d=0)
    assert a is b


def test_label_mentions_family_and_field():
    inst = make("D1A2", GF2, k=2, d=1)
    assert inst.label == "D1A2(k=2, d=1) over GF(2)"


# ---------------------------------------------------------------------------
# closed-form cohomology dimensions (case logic only; values are checked
# against actual kernels in the cohomology tests)
# ---------------------------------------------------------------------------


def test_hh1_dihedral_parity_cases():
    assert families.hh1_dim_dihedral(k=2, d=0) == 8
    assert families.hh1_dim_dihedral(k=2, d=1) == 7
    assert families.hh1_dim_dihedral(k=3, d=0) == 8
    assert families.hh1_dim_dihedral(k=3, d=1) == 7


def test_hh1_semidihedral_cases():
    assert families.hh1_dim_semidihedral_local(k=2, c=0, d=0) == 8
    assert families.hh1_dim_semidihedral_local(k=2, c=1, d=1) == 7
    assert families.hh1_dim_semidihedral_local(k=3, c=0, d=0) == 9
    assert families.hh1_dim_semidihedral_local(k=3, c=1, d=0) == 8
    assert families.hh1_dim_semidihedral_local(k=3, c=1, d=1) == 7


def test_hh_quaternion_periodicity():
    inst = make("Q1A1", GF2, k=2)
    dims = [inst.hh_dim(n) for n in range(9)]
    # four-periodic pattern from degree 1 on, HH^0 = HH^3 = HH^4 = k + 3
    assert dims[0] == 5
    assert dims[1] == dims[2] == 7
    assert dims[3] == dims[4] == 5
    assert dims[1:5] == dims[5:9]


def test_hh1_two_vertex_characteristic_split():
    assert families.hh1_dim_sd2b1(2, k=2, s=2, c=0) == 7
    assert families.hh1_dim_sd2b1(2, k=2, s=3, c=1) == 7
    assert families.hh1_dim_sd2b1(3, k=3, s=3, c=0) == 8
    assert families.hh1_dim_sd2b1(3, k=3, s=2, c=0) == 6
    assert families.hh1_dim_sd2b1(5, k=5, s=5, c=0) == 11
    assert families.hh1_dim_sd2b1(5, k=2, s=3, c=0) == 5
    assert families.hh1_dim_sd2b2(2, k=2, s=2, c=1) == 6
    assert families.hh1_dim_sd2b2(2, k=2, s=2, c=0) == 7
    assert families.hh1_dim_sd2b2(3, k=3, s=3, c=0) == 7
    assert families.hh1_dim_sd2b2(5, k=2, s=3, c=0) == 5


# ---------------------------------------------------------------------------
# parameter normalization for the semidihedral local family
# ---------------------------------------------------------------------------


def test_normalize_fixed_points_over_gf2():
    # over GF(2) the only rescaling is trivial
    for c in (0, 1):
        for d in (0, 1):
            assert normalize_sd_local(GF2, 2, c, d) == (c, d)


def test_normalize_is_orbit_invariant_over_gf4():
    f = GF4
    k = 3
    for c in range(4):
        for d in range(4):
            rep = normalize_sd_local(f, k, c, d)
            for mu in range(1, 4):
                cc = f.mul(c, f.pow(mu, k))
                dd = f.mul(d, f.pow(mu, 5 * k - 6))
                assert normalize_sd_local(f, k, cc, dd) == rep


def test_normalize_prefers_d_equal_one():
    f = GF4
    rep = normalize_sd_local(f, 2, 1, 2)
    assert rep[1] == 1


# ---------------------------------------------------------------------------
# textual emission
# ---------------------------------------------------------------------------


def test_dsl_text_structure():
    text = make("D1A2", GF2, k=2, d=1).dsl_text()
    assert text.startswith("field GF(2)\n")
    for block in ("quiver {", "relations {", "socle {"):
        assert block in text
    assert "let k = 2" in text
    assert "let d = 1" in text
    assert "x: v1 -> v1" in text


def test_dsl_text_compresses_powers():
    text = make("D1A2", GF2, k=4, d=0).dsl_text()
    assert "(x*y)^4" in text


def test_dsl_two_vertex_arrows():
    text = make("SD2B1", GF3, k=2, s=2, c=1).dsl_text()
    assert "b: v1 -> v2" in text
    assert "g: v2 -> v1" in text
    assert "e: v2 -> v2" in text
