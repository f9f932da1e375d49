"""Rewriting engine and algebra structure on small hand-checkable quotients."""

import functools
import itertools
import random
import re

import numpy as np
import pytest

from tamecoh.algebra import Algebra, AlgebraError, PathWord, Quiver, RewriteError, Rule
from tamecoh.field import Field, matmul


def trunc_poly(field, n=3):
    """k[t] / (t^n) as a one-loop quiver algebra."""
    q = Quiver(1, [("t", 0, 0)])
    return Algebra(field, q, [Rule(q, field, (0,) * n)], name=f"k[t]/t^{n}",
                   expected_dim=n)


def cyclic_group_algebra(field):
    """k[C_2]: one loop g with g^2 -> e."""
    q = Quiver(1, [("g", 0, 0)])
    return Algebra(field, q, [Rule(q, field, (0, 0), [(1, ())])], expected_dim=2)


def commutative_toy(field):
    """k[a,b] / (a^2 - b^2, b^3), oriented as a confluent rewriting system."""
    q = Quiver(1, [("a", 0, 0), ("b", 0, 0)])
    rules = [
        Rule(q, field, (1, 1, 1)),               # bbb -> 0
        Rule(q, field, (0, 0), [(1, (1, 1))]),   # aa -> bb
        Rule(q, field, (1, 0), [(1, (0, 1))]),   # ba -> ab
    ]
    return Algebra(field, q, rules, expected_dim=6)


def noncommutative_toy(field):
    """<x,y> / (x^2, y^2, yx): basis e, x, y, xy."""
    q = Quiver(1, [("x", 0, 0), ("y", 0, 0)])
    rules = [Rule(q, field, (0, 0)), Rule(q, field, (1, 1)), Rule(q, field, (1, 0))]
    return Algebra(field, q, rules, expected_dim=4)


def two_vertex_path_algebra(field):
    q = Quiver(2, [("a", 0, 1)])
    return Algebra(field, q, [], expected_dim=3)


def all_vectors(alg):
    for coeffs in itertools.product(range(alg.field.q), repeat=alg.dim):
        yield np.array(coeffs, dtype=np.int64)


# ---------------------------------------------------------------------------
# construction, basis, normal forms
# ---------------------------------------------------------------------------


def test_trunc_poly_basis_and_table():
    a = trunc_poly(Field(3), 3)
    assert a.dim == 3
    a.validate()
    t = a.word_element("t")
    t2 = a.multiply(t, t)
    assert np.array_equal(t2, a.basis_vector(2))
    assert not np.any(a.multiply(t2, t))
    assert not np.any(a.multiply(t2, t2))


def test_basis_is_prefix_closed_and_sorted():
    a = commutative_toy(Field(2))
    words = {w.arrows for w in a.basis}
    for w in a.basis:
        for cut in range(len(w.arrows)):
            assert w.arrows[:cut] in words
    lens = [len(w.arrows) for w in a.basis]
    assert lens == sorted(lens)


def test_group_algebra_identity_rhs():
    a = cyclic_group_algebra(Field(2))
    a.validate()
    g = a.word_element("g")
    assert np.array_equal(a.multiply(g, g), a.one())


def test_element_reduces_arbitrary_words():
    a = trunc_poly(Field(5), 3)
    q = a.quiver
    w4 = q.word_from_indices((0, 0, 0, 0))
    assert not np.any(a.element([(2, w4)]))
    w2 = q.word_from_indices((0, 0))
    w1 = q.word_from_indices((0,))
    v = a.element([(1, w2), (3, w1)])
    expect = a.zero()
    expect[1], expect[2] = 3, 1
    assert np.array_equal(v, expect)


def test_coefficients_must_be_field_codes():
    # over GF(4) integers do not map onto the codes: -1 must not wrap to
    # code 3 (w+1), and 7 must not reach the log table as an index
    gf4 = trunc_poly(Field(2, 2), 3)
    q = gf4.quiver
    t = q.word_from_indices((0,))
    for bad in (-1, 4, 7):
        with pytest.raises(ValueError, match="not a field code"):
            gf4.element([(bad, t)])
        with pytest.raises(ValueError, match="not a field code"):
            Rule(q, gf4.field, (0, 0), [(bad, (0,))])
    gf3 = trunc_poly(Field(3), 3)
    assert gf3.element([(-1, t)]).tolist() == [0, 2, 0]
    assert Rule(q, gf3.field, (0, 0), [(-1, (0,))]).rhs == ((2, (0,)),)


def test_commutative_toy_structure():
    for f in (Field(2), Field(2, 2), Field(3)):
        a = commutative_toy(f)
        a.validate()
        # commutative: center is everything, commutators vanish
        assert a.center().dim == a.dim
        assert a.commutator_space().dim == 0
        av = a.word_element("a")
        bv = a.word_element("b")
        assert np.array_equal(a.multiply(av, av), a.multiply(bv, bv))
        ab = a.multiply(av, bv)
        assert np.array_equal(ab, a.multiply(bv, av))
        # a * b^2 is the socle: killed by both generators
        soc = a.multiply(av, a.multiply(bv, bv))
        assert np.any(soc)
        assert not np.any(a.multiply(soc, av)) and not np.any(a.multiply(soc, bv))


def test_two_vertex_path_algebra_center():
    f = Field(2)
    a = two_vertex_path_algebra(f)
    a.validate()
    # brute force: elements commuting with everything
    brute = [v for v in all_vectors(a)
             if all(np.array_equal(a.multiply(v, w), a.multiply(w, v))
                    for w in map(a.basis_vector, range(a.dim)))]
    z = a.center()
    assert len(brute) == f.q**z.dim
    for v in brute:
        assert z.contains(v)
    assert z.dim == 1  # only scalars of the identity


def test_noncommutative_toy_center_and_commutators():
    f = Field(2)
    a = noncommutative_toy(f)
    a.validate()
    x = a.word_element("x")
    y = a.word_element("y")
    xy = a.multiply(x, y)
    assert np.any(xy)
    assert not np.any(a.multiply(y, x))
    k = a.commutator_space()
    assert k.dim == 1 and k.contains(xy)
    brute = [v for v in all_vectors(a)
             if all(np.array_equal(a.multiply(v, w), a.multiply(w, v))
                    for w in map(a.basis_vector, range(a.dim)))]
    assert len(brute) == f.q**a.center().dim


def test_expected_dim_mismatch_raises():
    f = Field(2)
    q = Quiver(1, [("t", 0, 0)])
    with pytest.raises(AlgebraError):
        Algebra(f, q, [Rule(q, f, (0, 0, 0))], expected_dim=4).validate()


def test_infinite_dimensional_detection():
    f = Field(2)
    q = Quiver(1, [("t", 0, 0)])
    with pytest.raises(AlgebraError):
        Algebra(f, q, [])


def test_rule_endpoint_validation():
    f = Field(2)
    q = Quiver(2, [("a", 0, 1), ("b", 1, 0)])
    with pytest.raises(ValueError):
        # rhs ends at the wrong vertex
        Rule(q, f, (0, 1), [(1, (0,))])
    # composable lhs required
    with pytest.raises(ValueError):
        Rule(q, f, (0, 0))


def test_length_cap_raises_rewrite_error():
    f = Field(2)
    q = Quiver(1, [("t", 0, 0)])
    # t -> t^2 grows without bound; keep it legal at rule level
    from tamecoh.algebra import RewriteEngine

    eng = RewriteEngine(f, q, [Rule(q, f, (0,), [(1, (0, 0))])], length_cap=12)
    with pytest.raises(RewriteError):
        eng.normal_form_word((0,))


# ---------------------------------------------------------------------------
# confluence probes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [trunc_poly, cyclic_group_algebra, commutative_toy,
                                  noncommutative_toy])
def test_random_strategy_agrees_with_deterministic(make):
    f = Field(2)
    a = make(f)
    rng = random.Random(424242)
    n_arrows = len(a.quiver.arrows)
    for _ in range(60):
        length = rng.randrange(1, 9)
        word = tuple(rng.randrange(n_arrows) for _ in range(length))
        det = a.engine.normal_form_word(word)
        for _ in range(3):
            assert a.engine.random_strategy_normal_form(word, rng) == det


def test_power_matches_repeated_multiplication():
    a = commutative_toy(Field(3))
    rng = random.Random(77)
    for _ in range(20):
        v = a.field.rand(rng, (a.dim,))
        acc = a.one()
        for e in range(6):
            assert np.array_equal(a.power(v, e), acc)
            acc = a.multiply(acc, v)


# ---------------------------------------------------------------------------
# forms and power-map subspaces
# ---------------------------------------------------------------------------


def test_symmetrizing_form_on_commutative_toy():
    f = Field(2)
    a = commutative_toy(f)
    soc = a.multiply(a.word_element("a"), a.word_element("b"))
    soc = a.multiply(soc, a.word_element("b"))  # a b^2
    lam = soc.copy()  # dual vector: coefficient of the socle word
    idx = int(np.nonzero(soc)[0][0])
    lam = a.zero()
    lam[idx] = 1
    a.check_symmetrizing(lam)


def test_degenerate_form_rejected():
    f = Field(2)
    a = trunc_poly(f, 2)
    lam = a.zero()
    lam[0] = 1  # coefficient of the identity pairs t with nothing
    with pytest.raises(AlgebraError):
        a.check_symmetrizing(lam)


def test_power_subspace_group_algebra():
    f = Field(2)
    a = cyclic_group_algebra(f)
    t1 = a.power_subspace(1)
    assert t1.dim == 1
    one_plus_g = a.field.add(a.one(), a.word_element("g"))
    assert t1.contains(one_plus_g)
    lam = a.zero()
    lam[a.index[a.quiver.word_from_indices((0,))]] = 1  # coefficient of g
    a.check_symmetrizing(lam)
    perp = a.power_subspace_perp(lam, 1)
    assert perp.dim == 1 and perp.contains(one_plus_g)
    assert a.stable_center_quotient_dim(lam, 1) == 1


def test_power_subspace_brute_force_noncommutative():
    f = Field(2)
    a = noncommutative_toy(f)
    k = a.commutator_space()
    brute = [v for v in all_vectors(a) if k.contains(a.power(v, 2))]
    t1 = a.power_subspace(1)
    assert len(brute) == f.q**t1.dim
    for v in brute:
        assert t1.contains(v)


def test_power_subspace_extension_field_brute_force():
    f = Field(2, 2)
    a = cyclic_group_algebra(f)
    k = a.commutator_space()
    brute = [v for v in all_vectors(a) if k.contains(a.power(v, 2))]
    t1 = a.power_subspace(1)
    assert len(brute) == f.q**t1.dim
    for v in brute:
        assert t1.contains(v)
    # T_2 uses the square of the Frobenius, which is trivial on GF(4)
    brute2 = [v for v in all_vectors(a) if k.contains(a.power(v, 4))]
    t2 = a.power_subspace(2)
    assert len(brute2) == f.q**t2.dim


# ---------------------------------------------------------------------------
# misc display helpers
# ---------------------------------------------------------------------------


def test_format_element_and_word_str():
    a = noncommutative_toy(Field(2))
    v = a.field.add(a.one(), a.multiply(a.word_element("x"), a.word_element("y")))
    s = a.format_element(v)
    assert "I(0)" in s and "x*y" in s
    assert a.format_element(a.zero()) == "0"


def test_left_right_mult_matrices():
    a = commutative_toy(Field(3))
    rng = random.Random(3)
    for _ in range(10):
        u = a.field.rand(rng, (a.dim,))
        v = a.field.rand(rng, (a.dim,))
        lu = a.left_mult_matrix(u)
        rv = a.right_mult_matrix(v)
        from tamecoh.field import matvec

        assert np.array_equal(matvec(a.field, lu, v), a.multiply(u, v))
        assert np.array_equal(matvec(a.field, rv, u), a.multiply(u, v))


# ---------------------------------------------------------------------------
# contractions against per-coordinate loops, and associativity certificates
# ---------------------------------------------------------------------------


def ref_dense_table(alg):
    """The dense (n, n, n) table, t[i, j, :] = b_i b_j, built as the
    ``table`` property built it before it became a list of nonzero products."""
    n = alg.dim
    t = np.zeros((n, n, n), dtype=np.int64)
    for i, wi in enumerate(alg.basis):
        for j, wj in enumerate(alg.basis):
            if wi.target != wj.source:
                continue
            nf = alg.engine.normal_form_word(wi.arrows + wj.arrows)
            for arrows, c in nf.items():
                w2 = PathWord(arrows, wi.source, wj.target)
                idx = alg.index.get(w2)
                if idx is None:
                    raise AlgebraError(
                        f"product {alg.quiver.word_str(wi)}*"
                        f"{alg.quiver.word_str(wj)} reduced to non-basis "
                        f"word {alg.quiver.word_str(w2)}"
                    )
                t[i, j, idx] = c
    return t


# one build per algebra; callers copy before they change it
ref_table = functools.cache(ref_dense_table)


def ref_product(alg, u, v, t=None):
    """uv by loops over the dense reference table, or over t if given."""
    f, t = alg.field, ref_table(alg) if t is None else t
    out = [0] * alg.dim
    for i in np.flatnonzero(u):
        for j in np.flatnonzero(v):
            c = f.mul(int(u[i]), int(v[j]))
            for k in np.flatnonzero(t[i, j]):
                out[k] = f.add(out[k], f.mul(c, int(t[i, j, k])))
    return np.array(out, dtype=np.int64)


CONTRACTION_CASES = [("SD1A2", Field(2, 2), dict(k=2, c=2, d=3)),
                     ("Q1A2", Field(2, 3), dict(k=2, c=0, d=3)),
                     ("SD2B1", Field(3), dict(k=2, s=2, c=0))]


def table_cases():
    from test_certificates import DERIVATION_CASES
    from test_golden import GRID

    return GRID + CONTRACTION_CASES + DERIVATION_CASES


def assert_table_is_the_dense_build(alg):
    ref = ref_dense_table(alg)
    x, y, z, c = alg.table
    assert all(a.dtype == np.int64 for a in (x, y, z, c))
    for got, want in zip((x, y, z), np.nonzero(ref)):
        assert np.array_equal(got, want)
    assert np.array_equal(c, ref[x, y, z])


@pytest.mark.parametrize("family,field,params", table_cases())
def test_table_is_the_nonzero_entries_of_the_dense_build(family, field, params):
    from tamecoh.families import make

    assert_table_is_the_dense_build(make(family, field, **params).algebra)


def test_table_is_sorted_where_normal_forms_are_not():
    """k[t]/(t^3 - t^2 - t): t^2 t reduces to t^2 + t, the larger basis
    index first, so the list is sorted after it is built."""
    q = Quiver(1, [("t", 0, 0)])
    alg = Algebra(Field(3), q, [Rule(q, Field(3), (0, 0, 0), [(1, (0, 0)), (1, (0,))])],
                  expected_dim=3)
    alg.validate()
    assert list(alg.engine.normal_form_word((0, 0, 0))) == [(0, 0), (0,)]
    assert_table_is_the_dense_build(alg)


@pytest.mark.parametrize("family,field,params", CONTRACTION_CASES)
def test_products_and_matrices_match_loops(family, field, params):
    from tamecoh.families import make

    alg = make(family, field, **params).algebra
    rng = random.Random(8)
    n = alg.dim
    for _ in range(5):
        u, v, lam = (field.rand(rng, n) for _ in range(3))
        u[rng.randrange(n)] = 0
        want = ref_product(alg, u, v)
        assert np.array_equal(alg.multiply(u, v), want)
        lu, rv = alg.left_mult_matrix(u), alg.right_mult_matrix(v)
        eye = np.eye(n, dtype=np.int64)
        assert all(np.array_equal(lu[:, j], ref_product(alg, u, eye[j])) for j in range(n))
        assert all(np.array_equal(rv[:, i], ref_product(alg, eye[i], v)) for i in range(n))
        gram = alg.gram_matrix(lam)
        for i in range(n):
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = field.add(acc, field.mul(int(ref_table(alg)[i, j, k]), int(lam[k])))
                assert gram[i, j] == acc


def corrupted_copy(alg):
    """A fresh copy of alg whose table loses one product b_i b_j of two
    arrow paths, with b_i of length two or more, and the dense reference
    with the same loss: its entries leave the list, its row the reference."""
    bad = Algebra(alg.field, alg.quiver, alg.rules)
    t = ref_table(alg).copy()
    for i, wi in enumerate(bad.basis):
        if len(wi) < 2:
            continue
        for j, wj in enumerate(bad.basis):
            if len(wj) and np.any(t[i, j]):
                t[i, j] = 0
                x, y, z, c = bad.table
                keep = (x != i) | (y != j)
                bad._table = x[keep], y[keep], z[keep], c[keep]
                return bad, t
    raise AssertionError("no product to corrupt")


def ref_first_failing_triple(alg, t):
    """The dense check ``validate`` made up to dim 30 before, on the dense
    table t: for each i, all (b_i b_j) b_k and b_i (b_j b_k) in two matmuls,
    the first failing (j, k)."""
    f, n = alg.field, alg.dim
    for i in range(n):
        left = matmul(f, t[i], t.reshape(n, n * n)).reshape(n, n, n)
        right = matmul(f, t.reshape(n * n, n), t[i]).reshape(n, n, n)
        bad = np.argwhere(np.any(left != right, axis=-1))
        if len(bad):
            return (i, *(int(x) for x in bad[0]))
    return None


def triple_fails(alg, t, i, j, k):
    eye = np.eye(alg.dim, dtype=np.int64)
    left = ref_product(alg, ref_product(alg, eye[i], eye[j], t), eye[k], t)
    right = ref_product(alg, eye[i], ref_product(alg, eye[j], eye[k], t), t)
    return not np.array_equal(left, right)


@pytest.mark.parametrize("family,field,params,path", [
    ("SD1A2", Field(2), dict(k=3, c=1, d=1), "exhaustive"),
    ("SD1A2", Field(2, 2), dict(k=2, c=2, d=3), "exhaustive"),
    ("SD2B1", Field(3), dict(k=3, s=4, c=0), "exhaustive"),
    ("SD2B1", Field(2), dict(k=6, s=6, c=0), "exhaustive"),
    ("SD2B1", Field(2, 2), dict(k=3, s=4, c=2), "exhaustive"),
])
def test_validate_names_a_failing_triple_of_a_corrupted_table(family, field, params, path):
    """Every triple is checked at every dimension, above 30 included."""
    from tamecoh.families import make

    alg = make(family, field, **params).algebra
    assert alg.validate()["associativity"] == path
    bad, t = corrupted_copy(alg)
    with pytest.raises(AlgebraError, match="associativity fails at") as err:
        bad.validate()
    i, j, k = (int(x) for x in re.findall(r"\d+", str(err.value))[-3:])
    assert triple_fails(bad, t, i, j, k)
    assert (i, j, k) == ref_first_failing_triple(bad, t)


ALL_FIELDS = [Field(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3, 4)]


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
def test_stacked_multiply_matches_rows(field):
    a = noncommutative_toy(field)
    n = a.dim
    rng = random.Random(field.q)
    us, vs = field.rand(rng, (6, n)), field.rand(rng, (6, n))
    us[1] = 0
    vs[2] = 0
    us[3] = a.basis_vector(2)
    prods = a.multiply(us, vs)
    assert prods.shape == (6, n)
    for u, v, uv in zip(us, vs, prods):
        assert np.array_equal(a.multiply(u, v), uv)
        assert np.array_equal(uv, ref_product(a, u, v))
    # a 1-D factor broadcasts against a stack, on either side
    assert np.array_equal(a.multiply(us[0], vs), [a.multiply(us[0], v) for v in vs])
    assert np.array_equal(a.multiply(us, vs[0]), [a.multiply(u, vs[0]) for u in us])
    empty = np.zeros((0, n), dtype=np.int64)
    assert a.multiply(empty, vs[0]).shape == (0, n)
    assert a.multiply(empty, empty).shape == (0, n)
    assert not a.multiply(np.zeros((3, n), dtype=np.int64), vs[:3]).any()
