"""Field arithmetic and exact linear algebra, checked against brute-force oracles."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tamecoh.field import (
    CHUNK_CELLS,
    Field,
    _entries,
    _peel,
    _tables,
    Section,
    Subspace,
    as_matrix,
    block_eliminate,
    block_kernel,
    block_rank,
    expand_vector,
    image_basis,
    join,
    kernel_basis,
    group_sums,
    kernel_space,
    matmul,
    matvec,
    pack_vector,
    product_vanishes,
    rank,
    rref,
    semilinear_kernel,
)

ALL_PARAMS = [(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3, 4)]


# ---------------------------------------------------------------------------
# reference arithmetic: digit-wise addition mod p and the schoolbook product,
# neither of which reads the lookup tables
# ---------------------------------------------------------------------------


def ref_digits(f, a):
    return [(int(a) // f.p**i) % f.p for i in range(f.m)]


def ref_code(f, digits):
    return sum((d % f.p) * f.p**i for i, d in enumerate(digits))


def ref_add(f, a, b):
    return ref_code(f, [x + y for x, y in zip(ref_digits(f, a), ref_digits(f, b))])


def ref_neg(f, a):
    return ref_code(f, [-x for x in ref_digits(f, a)])


def ref_sub(f, a, b):
    return ref_add(f, a, ref_neg(f, b))


def ref_mul(f, a, b):
    return f._mul_slow(int(a), int(b))


def ref_matmul(f, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = ref_add(f, acc, ref_mul(f, a[i, k], b[k, j]))
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# field axioms and tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_field_constructs_and_generator_is_primitive(p, m):
    f = Field(p, m)
    assert f.q == p**m
    # exp table hits every nonzero element exactly once
    assert sorted(int(x) for x in f.exp[: f.q - 1]) == list(range(1, f.q))


def brute_axiom_check(f, triples):
    for a, b, c in triples:
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 1) == a
        assert f.add(a, 0) == a
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive_small(p, m):
    f = Field(p, m)
    brute_axiom_check(f, itertools.product(f.elements(), repeat=3))


@pytest.mark.parametrize("p,m", [(5, 2), (7, 2), (2, 4), (3, 3), (3, 4), (5, 3), (5, 4), (7, 3), (7, 4)])
def test_field_axioms_sampled_large(p, m):
    f = Field(p, m)
    rng = random.Random(20260823)
    triples = [(rng.randrange(f.q), rng.randrange(f.q), rng.randrange(f.q)) for _ in range(300)]
    brute_axiom_check(f, triples)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3), (5, 2), (7, 2), (3, 4)])
def test_mul_matches_schoolbook(p, m):
    f = Field(p, m)
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == f._mul_slow(a, b)


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_frobenius_is_field_automorphism_fixing_prime_field(p, m):
    f = Field(p, m)
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
        assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
        assert f.frobenius(a) == f.pow(a, p)
        assert f.frobenius(f.frobenius(a)) == f.frobenius(a, 2)
    for c in range(p):
        assert f.frobenius(c) == c
    # m-fold Frobenius is the identity
    for _ in range(20):
        a = rng.randrange(f.q)
        assert f.frobenius(a, m) == a


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_tables_match_digitwise_reference(p, m):
    """Exhaustive up to q = 49, 3000 sampled pairs above."""
    f = Field(p, m)
    if f.q <= 49:
        pairs = list(itertools.product(range(f.q), repeat=2))
    else:
        rng = random.Random(p * 10 + m)
        pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(3000)]
        pairs += [(0, b) for b in range(0, f.q, 97)] + [(a, 0) for a in range(0, f.q, 89)]
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    for op, ref in ((f.add, ref_add), (f.sub, ref_sub), (f.mul, ref_mul)):
        got = op(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == [ref(f, x, y) for x, y in pairs]
    assert f.neg(np.arange(f.q)).tolist() == [ref_neg(f, x) for x in range(f.q)]


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_neg_in_characteristic_2_returns_a_new_array(m):
    f = Field(2, m)
    a = np.arange(f.q)
    got = f.neg(a)
    assert np.array_equal(got, a) and not np.shares_memory(got, a)


def test_tables_are_shared_small_and_int64():
    f, g = Field(7, 4), Field(7, 4)
    for name in ("_add", "_neg", "exp", "log", "_digits", "_mats"):
        assert getattr(f, name) is getattr(g, name)
    tables = _tables(7, 4)
    assert sum(t.nbytes for t in tables) <= 48 * 10**6
    for p, m in ALL_PARAMS:
        assert all(t.dtype == np.int64 and not t.flags.writeable for t in _tables(p, m))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_PARAMS), st.data())
def test_array_ops_match_reference_on_any_shape(pm, data):
    f = Field(*pm)
    shape = data.draw(array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4))
    codes = st.integers(0, f.q - 1)
    a = data.draw(arrays(np.int64, shape, elements=codes))
    b = data.draw(arrays(np.int64, shape, elements=codes))
    for op, ref in ((f.add, ref_add), (f.sub, ref_sub), (f.mul, ref_mul)):
        got = op(a, b)
        assert np.shape(got) == shape and np.asarray(got).dtype == np.int64
        want = [ref(f, x, y) for x, y in zip(a.reshape(-1), b.reshape(-1))]
        assert np.asarray(got).reshape(-1).tolist() == want
        # scalars, and a scalar against an array
        x, y = data.draw(codes), data.draw(codes)
        assert op(x, y) == ref(f, x, y)
        assert np.asarray(op(x, b)).reshape(-1).tolist() == [ref(f, x, v) for v in b.reshape(-1)]
    got = f.neg(a)
    assert np.shape(got) == shape and np.asarray(got).dtype == np.int64
    assert np.asarray(got).reshape(-1).tolist() == [ref_neg(f, x) for x in a.reshape(-1)]
    fr = f.frobenius(a)
    assert np.shape(fr) == shape and np.asarray(fr).dtype == np.int64


def test_rand_is_one_seeded_draw():
    for p, m in [(2, 1), (2, 2), (7, 4)]:
        f = Field(p, m)
        a = f.rand(random.Random(3), (40, 7))
        b = f.rand(random.Random(3), (40, 7))
        assert a.dtype == np.int64 and a.shape == (40, 7)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < f.q
        assert f.rand(random.Random(3), 5).shape == (5,)
        assert f.rand(random.Random(4)) == random.Random(4).randrange(f.q)
    rng = random.Random(5)
    assert not np.array_equal(Field(7, 2).rand(rng, 50), Field(7, 2).rand(rng, 50))
    # k draws of length n equal one (k, n) draw, so a probe's draws can be stacked
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)]:
        f = Field(p, m)
        for k, n in [(1, 1), (2, 3), (3, 8), (5, 20), (2, 0)]:
            rng = random.Random(k * 100 + n)
            rows = np.array([f.rand(rng, n) for _ in range(k)]).reshape(k, n)
            assert np.array_equal(rows, f.rand(random.Random(k * 100 + n), (k, n)))


def test_array_ops_match_scalar_ops():
    for p, m in [(2, 2), (3, 1), (5, 2), (7, 1), (2, 4)]:
        f = Field(p, m)
        rng = random.Random(23)
        a = f.rand(rng, (6, 5))
        b = f.rand(rng, (6, 5))
        s = f.add(a, b)
        d = f.sub(a, b)
        pr = f.mul(a, b)
        fr = f.frobenius(a)
        for i in range(6):
            for j in range(5):
                assert s[i, j] == f.add(int(a[i, j]), int(b[i, j]))
                assert d[i, j] == f.sub(int(a[i, j]), int(b[i, j]))
                assert pr[i, j] == f.mul(int(a[i, j]), int(b[i, j]))
                assert fr[i, j] == f.frobenius(int(a[i, j]))


def test_parse_descriptors():
    assert Field.parse("GF(4)") == Field(2, 2)
    assert Field.parse("GF(3^2)") == Field(3, 2)
    assert Field.parse("GF(7)") == Field(7, 1)
    assert Field.parse("GF(625)") == Field(5, 4)
    with pytest.raises(ValueError):
        Field.parse("GF(6)")
    with pytest.raises(ValueError):
        Field.parse("GF(11)")
    with pytest.raises(ValueError, match="0 is not a supported prime power"):
        Field.parse("GF(0)")


def test_code_takes_integers_only():
    gf3, gf4 = Field(3), Field(2, 2)
    assert gf3.code(4) == gf3.code(np.int64(4)) == gf3.code(np.int8(1)) == 1
    assert gf3.code(-1) == 2 and gf4.code(np.int64(3)) == 3
    for f in (gf3, gf4):
        for value in (1.5, 1.0, np.float64(2.0), "1", None):
            with pytest.raises(ValueError, match="is not an integer"):
                f.code(value)
    with pytest.raises(ValueError, match="not a field code"):
        gf4.code(4)


def test_constructor_takes_integers_only():
    assert Field(np.int64(2), np.int8(2)) == Field(2, 2)
    assert type(Field(np.int64(3)).p) is int
    for p, m in [(2.0, 1), ("3", 1), (np.float64(2.0), 1), (None, 1)]:
        with pytest.raises(ValueError, match=re.escape(f"characteristic {p!r} is not an integer")):
            Field(p, m)
    for m in (2.0, 1.5, "2"):
        with pytest.raises(ValueError, match=re.escape(f"extension degree {m!r} is not an integer")):
            Field(3, m)
    with pytest.raises(ValueError, match="unsupported characteristic 11"):
        Field(11)
    with pytest.raises(ValueError, match="unsupported extension degree 5"):
        Field(2, np.int64(5))


def test_element_str_round_trip_notation():
    f = Field(2, 2)
    assert f.element_str(0) == "0"
    assert f.element_str(1) == "1"
    assert f.element_str(2) == "w"
    assert f.element_str(3) == "1+w"


# ---------------------------------------------------------------------------
# linear algebra against oracles
# ---------------------------------------------------------------------------


def span_size(f, rows):
    """Brute-force span enumeration; returns |span| (so rank = log_q)."""
    vecs = {tuple(np.zeros(rows.shape[1], dtype=np.int64))}
    for r in rows:
        new = set(vecs)
        for c in range(1, f.q):
            scaled = f.mul(c, r)
            for v in vecs:
                new.add(tuple(f.add(np.array(v), scaled)))
        vecs = new
        # close under addition until stable
        changed = True
        while changed:
            changed = False
            for v1 in list(vecs):
                for v2 in list(vecs):
                    s = tuple(f.add(np.array(v1), np.array(v2)))
                    if s not in vecs:
                        vecs.add(s)
                        changed = True
    return len(vecs)


def test_rank_matches_span_enumeration_gf2():
    f = Field(2)
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    assert span_size(f, m) == 2**2
    assert rank(f, m) == 2


def test_rank_matches_span_enumeration_random():
    rng = random.Random(101)
    for p in (2, 3):
        f = Field(p)
        for _ in range(10):
            m = f.rand(rng, (3, 3))
            sz = span_size(f, m)
            r = 0
            while p**r < sz:
                r += 1
            assert rank(f, m) == r


def test_rref_is_idempotent_and_preserves_row_space():
    rng = random.Random(5)
    for p, m in [(2, 1), (3, 1), (5, 1), (2, 2)]:
        f = Field(p, m)
        for _ in range(20):
            a = f.rand(rng, (4, 6))
            r1, piv1 = rref(f, a)
            r2, piv2 = rref(f, r1)
            assert r1.shape == (len(piv1), 6)
            assert np.array_equal(r1, r2) and piv1 == piv2
            assert Subspace(f, 6, a) == Subspace(f, 6, r1)


def ref_rref(field, mat):
    """The per-pivot elimination that ``rref`` ran on every matrix before it
    took rows in blocks, kept verbatim; it returns all rows.  It calls
    ``Field.mul`` and ``Field.sub``, so it shares their arithmetic (the bitwise
    ops in characteristic 2); that arithmetic is held to the digit-wise
    reference by ``test_tables_match_digitwise_reference`` and
    ``test_array_ops_match_reference_on_any_shape``."""
    r_mat = as_matrix(mat).copy()
    n_rows, n_cols = r_mat.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        col = r_mat[r:, c]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            r_mat[[r, pr]] = r_mat[[pr, r]]
        # row r is zero left of column c, so only columns c.. change
        piv = int(r_mat[r, c])
        if piv != 1:
            r_mat[r, c:] = field.mul(r_mat[r, c:], field.inv(piv))
        col_vals = r_mat[:, c].copy()
        col_vals[r] = 0
        rows_nz = np.nonzero(col_vals)[0]
        if len(rows_nz):
            update = field.mul(col_vals[rows_nz][:, None], r_mat[r, c:][None, :])
            r_mat[rows_nz, c:] = field.sub(r_mat[rows_nz, c:], update)
        pivots.append(c)
        r += 1
    return r_mat, pivots


def block_rows(n_cols):
    """The rows per block of ``rref``: about 2^16 entries, at least n_cols."""
    return max(n_cols, 2**16 // n_cols)


def rref_cases(f, rng):
    """Named matrices that span several of rref's row blocks."""
    def sparse(rows, cols, nnz):
        a = np.zeros(rows * cols, dtype=np.int64)
        a[[rng.randrange(rows * cols) for _ in range(nnz)]] = [
            1 + rng.randrange(f.q - 1) for _ in range(nnz)]
        return a.reshape(rows, cols)

    def low_rank(rows, cols, r):
        return matmul(f, f.rand(rng, (rows, r)), f.rand(rng, (r, cols)))

    b = block_rows(16)
    # the first block touches only the right half, so later blocks bring new
    # pivots to the left of old ones and the basis is back-reduced
    right = np.zeros((b, 16), dtype=np.int64)
    right[:, 8:] = low_rank(b, 8, 5)
    # full rank only with the last block's rows, which bring column 0
    late_full = f.rand(rng, (b + 2, 16))
    late_full[:b, 0] = 0
    zeros_between = f.rand(rng, (2 * b + 3, 16))
    zeros_between[b - 2: 2 * b + 1] = 0
    top = f.q - 1  # not 1 unless q = 2
    # at column 1 the pivot is found in row 2, and row 0 above it is cleared
    pivot_below = np.array([[1, top, 0, 1], [0, 0, top, 1], [0, top, 1, 0]])
    small = {}
    if f.q in (2, 3):
        for i, entries in enumerate(itertools.product(range(f.q), repeat=6)):
            small[f"2 x 3 number {i}"] = np.array(entries).reshape(2, 3)
    return small | {
        "leading entry not 1": np.array([[top, 1, 0], [top, 0, 1]]),
        "pivot below row r": pivot_below,
        "zero columns between pivots": np.array([[0, top, 0, 0, 1, 0, 0, top],
                                                 [0, 1, 0, 0, top, 0, 0, 1],
                                                 [0, 0, 0, 0, 0, 0, 0, top]]),
        "0 x n": np.zeros((0, 5), dtype=np.int64),
        "n x 0": np.zeros((5, 0), dtype=np.int64),
        "1 x n": np.array([[0, 0, top, 1, 0]]),
        "n x 1": np.array([[0], [top], [1], [0]]),
        "tall dense": f.rand(rng, (2 * b + 7, 16)),
        "tall sparse": sparse(3 * b, 16, 12),
        "rank-deficient": np.vstack([right, low_rank(2 * b, 16, 6)]),
        "last pivot late": late_full,
        "zero rows": zeros_between,
        "all zero": np.zeros((b + 1, 16), dtype=np.int64),
        "block - 1": sparse(b - 1, 16, 20),
        "block + 1": sparse(b + 1, 16, 20),
        "wide, block + 1": low_rank(block_rows(300) + 1, 300, 9),
        "wide sparse": sparse(2 * block_rows(300) + 1, 300, 150),
    }


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_block_rref_matches_per_pivot_rref(p, m):
    f = Field(p, m)
    for name, a in rref_cases(f, random.Random(p * 10 + m)).items():
        got, piv = rref(f, a)
        want, want_piv = ref_rref(f, a)
        assert piv == want_piv, name
        assert np.array_equal(got, want[: len(piv)]), name


def test_subspace_canonical_under_row_mixing():
    rng = random.Random(6)
    f = Field(3)
    base = f.rand(rng, (3, 5))
    s0 = Subspace(f, 5, base)
    for _ in range(20):
        mixer = f.rand(rng, (3, 3))
        while rank(f, mixer) < 3:
            mixer = f.rand(rng, (3, 3))
        assert Subspace(f, 5, matmul(f, mixer, base)) == s0


def test_subspace_rows_must_have_the_ambient_width():
    f = Field(2)
    for rows in ([[1, 0]], [[1, 0, 0, 1]], np.zeros((2, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="rows of width [24] in a space of dim 3"):
            Subspace(f, 3, rows)
    assert Subspace(f, 3, [[1, 0, 1]]).dim == 1
    assert Subspace(f, 3, []).dim == 0
    assert Subspace(f, 3, np.zeros((2, 3), dtype=np.int64)).dim == 0


def test_kernel_basis_annihilates_and_has_right_dim():
    rng = random.Random(9)
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = Field(p, m)
        for _ in range(15):
            a = f.rand(rng, (4, 7))
            k = kernel_basis(f, a)
            assert k.shape[0] == 7 - rank(f, a)
            for v in k:
                assert not np.any(matvec(f, a, v))
            assert rank(f, k) == k.shape[0]


def test_kernel_exhaustive_small():
    f = Field(2)
    a = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.int64)
    ker = kernel_space(f, a)
    brute = [v for v in itertools.product(range(2), repeat=4)
             if not np.any(matvec(f, a, np.array(v)))]
    assert len(brute) == 2**ker.dim
    for v in brute:
        assert ker.contains(np.array(v))


def ref_solve(field, a, b):
    """One solution of a @ x = b read off the RREF of [a | b], or None if
    inconsistent."""
    a_m = as_matrix(a)
    r_mat, pivots = rref(field, np.hstack([a_m, np.reshape(b, (-1, 1))]))
    n_cols = a_m.shape[1]
    if n_cols in pivots:
        return None
    x = np.zeros(n_cols, dtype=np.int64)
    x[pivots] = r_mat[:, n_cols]
    return x


def test_solve_consistent_and_inconsistent():
    rng = random.Random(13)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        f = Field(p, m)
        for _ in range(15):
            a = f.rand(rng, (4, 5))
            x0 = f.rand(rng, (5,))
            b = matvec(f, a, x0)
            x = ref_solve(f, a, b)
            assert x is not None
            assert np.array_equal(matvec(f, a, x), b)
    f = Field(2)
    a = np.array([[1, 0], [1, 0]], dtype=np.int64)
    assert ref_solve(f, a, np.array([1, 0])) is None


def test_image_basis_is_column_space():
    f = Field(3)
    a = np.array([[1, 2, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int64)
    img = image_basis(f, a)
    assert img.dim == rank(f, a)
    for j in range(3):
        assert img.contains(a[:, j])


def test_matmul_matches_naive_extension_field():
    """Every field, shapes with r, k or c equal to 0, and stacks of matrices."""
    rng = random.Random(17)
    for p, m in ALL_PARAMS:
        f = Field(p, m)
        for r, k, c in itertools.product((0, 1, 3), (0, 1, 4), (0, 2)):
            a = f.rand(rng, (r, k))
            b = f.rand(rng, (k, c))
            got = matmul(f, a, b)
            assert got.dtype == np.int64 and got.shape == (r, c)
            assert np.array_equal(got, ref_matmul(f, a, b))
        a = f.rand(rng, (2, 3, 4))
        b = f.rand(rng, (2, 4, 2))
        got = matmul(f, a, b)
        assert got.shape == (2, 3, 2)
        for s in range(2):
            assert np.array_equal(got[s], ref_matmul(f, a[s], b[s]))
        # a vector is a one-row matrix, broadcast against the stack
        assert np.array_equal(matmul(f, a[0, 0], b),
                              [ref_matmul(f, a[0, :1], b[s]) for s in range(2)])


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_matmul_is_exact_at_inner_dim_2_16(p, m):
    """Every digit p - 1 on both sides, against Python integers."""
    f = Field(p, m)
    top = f.q - 1   # the code whose digits are all p - 1
    k = 2**16
    # sum of k equal products: k times the digits of top * top, mod p
    want = ref_code(f, [k * d for d in ref_digits(f, ref_mul(f, top, top))])
    for a_shape, b_shape, out_shape in [((2, k), (k, 3), (2, 3)),
                                        ((2, 2, k), (2, k, 2), (2, 2, 2))]:
        got = matmul(f, np.full(a_shape, top), np.full(b_shape, top))
        assert got.shape == out_shape and np.all(got == want)


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_matmul_refuses_an_inner_dim_past_the_float64_range(p, m):
    f = Field(p, m)
    k = -(-2**53 // (m * (p - 1) ** 2))   # the least inner dim whose bound reaches 2^53
    # zero-stride views: no memory is allocated before the check refuses
    a = np.broadcast_to(np.int64(1), (1, k))
    b = np.broadcast_to(np.int64(1), (k, 1))
    with pytest.raises(ValueError, match="exact float64"):
        matmul(f, a, b)


def test_join_gives_every_equal_pair_in_order():
    rng = np.random.default_rng(8)
    for la, lb in [(0, 0), (0, 5), (5, 0), (7, 9), (30, 20)]:
        a, b = rng.integers(0, 4, la), rng.integers(0, 4, lb)
        s, t = join(a, b)
        want = [(i, j) for i in range(la) for j in range(lb) if a[i] == b[j]]
        assert list(zip(s.tolist(), t.tolist())) == want


def sparse(f, rng, shape, density):
    """Random codes on a random share of the entries, zero elsewhere."""
    keep = np.array([rng.random() < density for _ in range(int(np.prod(shape)))], dtype=bool)
    return f.rand(rng, shape) * keep.reshape(shape)


def vanishing_pair(f, rng, r, k, c, density):
    """[A | t A] @ [t B; -B] = 0 with no two terms equal: every entry of the
    product cancels only in the sum over k, digit by digit over GF(p^m)."""
    a, b = sparse(f, rng, (r, k), density), sparse(f, rng, (k, c), density)
    t = 1 + rng.randrange(f.q - 1)
    return np.hstack([a, f.mul(t, a)]), np.vstack([f.mul(t, b), f.neg(b)])


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_product_vanishes_matches_the_dense_product(p, m):
    f = Field(p, m)
    rng = random.Random(31 * p + m)
    pairs = []
    for r, k, c in itertools.product((0, 1, 5), (0, 1, 6), (0, 1, 4)):
        pairs += [(f.rand(rng, (r, k)), f.rand(rng, (k, c))),
                  (np.zeros((r, k), dtype=np.int64), f.rand(rng, (k, c))),
                  (sparse(f, rng, (r, k), 0.3), sparse(f, rng, (k, c), 0.3))]
    for density in (1.0, 0.3, 0.05):
        pairs += [vanishing_pair(f, rng, 6, 8, 5, density) for _ in range(4)]
    a = f.rand(rng, (5, 7))
    pairs.append((a, kernel_basis(f, a).T))   # a dense product that cancels mod p
    # one term whose only nonzero digit is the top one, two that cancel, and
    # two nonzero entries of the product that would cancel if summed together
    top = f.p ** (f.m - 1)
    pairs += [(np.array([[1]]), np.array([[top]])),
              (np.array([[1, 1]]), np.array([[top], [f.neg(top)]])),
              (np.eye(2, dtype=np.int64), np.array([[0, top], [f.neg(top), 0]])),
              (np.eye(2, dtype=np.int64), np.array([[0, 0, top], [f.neg(top), 0, 0]]))]
    results = set()
    for a, b in pairs:
        want = not matmul(f, a, b).any()
        assert product_vanishes(f, sparse_of(a), sparse_of(b)) == want, (a, b)
        results.add(want)
    assert results == {True, False}
    with pytest.raises(ValueError, match="shape mismatch"):
        product_vanishes(f, sparse_of(np.zeros((2, 3), dtype=np.int64)),
                         sparse_of(np.zeros((2, 3), dtype=np.int64)))


def sparse_of(mat):
    """A dense matrix as (rows, cols, codes, shape) of its nonzero entries."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols], mat.shape


def densify(f, rows, cols, codes, shape):
    """The dense matrix of some entries, codes at one position added up."""
    out = np.zeros(shape, dtype=np.int64)
    for r, c, v in zip(rows.tolist(), cols.tolist(), codes.tolist()):
        out[r, c] = f.add(out[r, c], v)
    return out


def block_diagonal(f, rng, n_blocks, max_rows, max_cols, density):
    """Sparse random blocks on the diagonal, rows and columns then shuffled."""
    blocks = [sparse(f, rng, (rng.randrange(max_rows + 1), 1 + rng.randrange(max_cols)), density)
              for _ in range(n_blocks)]
    out = np.zeros((sum(len(b) for b in blocks), sum(b.shape[1] for b in blocks)), dtype=np.int64)
    r = c = 0
    for b in blocks:
        out[r:r + len(b), c:c + b.shape[1]] = b
        r, c = r + len(b), c + b.shape[1]
    rows, cols = list(range(len(out))), list(range(out.shape[1]))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return out[rows][:, cols]


def block_systems(f, rng):
    """(entries, shape) of sparse systems, and the terms of some with
    colliding entries, which are summed as ``derivation_system`` sums them."""
    mats = [block_diagonal(f, rng, 12, 5, 4, 0.5) for _ in range(3)]
    mats.append(block_diagonal(f, rng, 150, 6, 5, 0.4))        # several chunks
    base = block_diagonal(f, rng, 10, 4, 4, 0.6)
    mats.append(np.vstack([base, base[::2], base[:3]]))         # duplicate rows
    mats.append(np.hstack([np.zeros((len(base), 3), dtype=np.int64), base,
                           np.zeros((len(base), 2), dtype=np.int64)]))  # untouched columns
    mats += [np.zeros((0, 5), dtype=np.int64), np.zeros((4, 0), dtype=np.int64),
             np.zeros((0, 0), dtype=np.int64), np.zeros((3, 4), dtype=np.int64)]
    mats += [f.rand(rng, (9, 7)), f.rand(rng, (4, 11))]        # a single dense block
    # one block past CHUNK_CELLS: row i joins columns i and i + 1 (mod 60)
    path = np.zeros((1100, 60), dtype=np.int64)
    path[np.arange(1100), np.arange(1100) % 60] = 1
    path[np.arange(1100), np.arange(1, 1101) % 60] = f.neg(1)
    assert path.size > CHUNK_CELLS
    mats.append(path)
    for mat in mats:
        rows, cols = np.nonzero(mat)
        yield (rows, cols, mat[rows, cols]), mat.shape
    # every entry split into two terms, plus terms that cancel in pairs, some
    # of them filling a row or a column that is otherwise zero
    for mat in (block_diagonal(f, rng, 15, 5, 4, 0.5), f.rand(rng, (6, 5))):
        mat = np.hstack([np.vstack([mat, np.zeros((1, mat.shape[1]), dtype=np.int64)]),
                         np.zeros((len(mat) + 1, 1), dtype=np.int64)])
        rows, cols = np.nonzero(mat)
        split = f.rand(rng, len(rows))
        cancel_r = np.array([rng.randrange(len(mat)) for _ in range(20)] + [len(mat) - 1] * 3)
        cancel_c = np.array([rng.randrange(mat.shape[1]) for _ in range(20)] + [0, 1, 2])
        cancel_c[:3] = mat.shape[1] - 1
        cancel = 1 + np.array([rng.randrange(f.q - 1) for _ in range(len(cancel_r))])
        terms = (np.concatenate([rows, rows, cancel_r, cancel_r]),
                 np.concatenate([cols, cols, cancel_c, cancel_c]),
                 np.concatenate([split, f.sub(mat[rows, cols], split), cancel, f.neg(cancel)]))
        assert np.array_equal(densify(f, *terms, mat.shape), mat)
        keys, group = np.unique(terms[0] * mat.shape[1] + terms[1], return_inverse=True)
        sums = group_sums(f, group, terms[2], len(keys))
        keys, sums = keys[sums != 0], sums[sums != 0]
        yield (keys // mat.shape[1], keys % mat.shape[1], sums), mat.shape


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_block_elimination_matches_the_dense_path(p, m):
    f = Field(p, m)
    rng = random.Random(17 * p + m)
    for entries, shape in block_systems(f, rng):
        dense = densify(f, *entries, shape)
        chunks = list(block_eliminate(f, *entries))
        got_rank = sum(len(pivots) for _, _, pivots in chunks)
        assert got_rank == rank(f, dense) == block_rank(f, *entries)
        kernel = block_kernel(f, *entries, shape[1])
        assert kernel.shape == (shape[1] - got_rank, shape[1])
        assert Subspace(f, shape[1], kernel) == kernel_space(f, dense)
        assert not matmul(f, dense, kernel.T).any()


def solves_sparse(f, mat, rng=None):
    """Check block_rank and block_kernel on mat's entries, shuffled by rng,
    against the dense rank and kernel; return what ``_peel`` makes of them."""
    rows, cols, codes, shape = sparse_of(mat)
    if rng is not None:
        order = list(range(len(rows)))
        rng.shuffle(order)
        rows, cols, codes = rows[order], cols[order], codes[order]
    got = block_rank(f, rows, cols, codes)
    assert got == rank(f, mat)
    kernel = block_kernel(f, rows, cols, codes, shape[1])
    assert kernel.shape == (shape[1] - got, shape[1])
    assert Subspace(f, shape[1], kernel) == kernel_space(f, mat)
    assert not matmul(f, mat, kernel.T).any()
    return _peel(*_entries(f, rows, cols, codes))


def units(f, rng, shape):
    """Random nonzero codes."""
    return 1 + f.rand(rng, shape) % (f.q - 1)


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_peeling_rules(p, m):
    f = Field(p, m)
    rng = random.Random(29 * p + m)
    a = units(f, rng, (4, 4))
    # row 0 owns the lone columns 0 and 1: one pivot, the other column free;
    # rows 1 and 2 share columns 2 and 3 and peel nothing
    mat = np.array([[a[0, 0], a[0, 1], a[0, 2], 0],
                    [0, 0, a[1, 2], a[1, 3]],
                    [0, 0, a[2, 2], a[2, 3]]])
    peeled, rest, rounds = solves_sparse(f, mat)
    assert (peeled, len(rest[2]), len(rounds)) == (1, 4, 1)
    # rows 0-2 hold column 0 alone: it adds 1 once and leaves; then rows 3
    # and 4 hold column 1 alone; column 2 is touched by nothing
    mat = np.array([[a[0, 0], 0, 0], [a[1, 0], 0, 0], [a[2, 0], 0, 0],
                    [a[3, 0], a[3, 1], 0], [a[0, 3], a[1, 3], 0]])
    peeled, rest, rounds = solves_sparse(f, mat)
    assert (peeled, len(rest[2]), len(rounds)) == (2, 0, 2)
    assert block_kernel(f, *sparse_of(mat)[:3], 3).tolist() == [[0, 0, 1]]
    # a chain: row i joins columns i and i + 1, and row 8 holds column 0
    # alone; it peels one link from each end per round, and its kernel
    # fills the pivots back over all rounds
    chain = np.zeros((9, 9), dtype=np.int64)
    chain[np.arange(8), np.arange(8)] = units(f, rng, 8)
    chain[np.arange(8), np.arange(1, 9)] = units(f, rng, 8)
    chain[8, 0] = 1
    for mat in (chain, chain[:8], chain[:8, 1:], np.hstack([chain[:8], np.zeros((8, 2), dtype=np.int64)])):
        peeled, rest, rounds = solves_sparse(f, mat, rng)
        assert peeled == rank(f, mat) and not len(rest[2]) and len(rounds) >= 4
    # every row and column with two entries or more: nothing peels, and the
    # rest is the entries themselves
    mat = np.vstack([units(f, rng, (3, 5)), np.zeros((1, 5), dtype=np.int64)])
    entries = _entries(f, *sparse_of(mat)[:3])
    peeled, rest, rounds = _peel(*entries)
    assert (peeled, rounds) == (0, [])
    assert all(x is y for x, y in zip(rest, entries))
    solves_sparse(f, np.hstack([np.zeros((4, 2), dtype=np.int64), mat]))


@pytest.mark.parametrize("p,m", ALL_PARAMS)
def test_block_rank_and_kernel_on_random_sparse_systems(p, m):
    f = Field(p, m)
    rng = random.Random(31 * p + m)
    for _ in range(125):
        shape = rng.randrange(31), rng.randrange(31)
        solves_sparse(f, sparse(f, rng, shape, rng.choice([0.02, 0.05, 0.1, 0.2, 0.3])), rng)


@pytest.mark.parametrize("entries,n_cols,message", [
    (([-1], [0], [1]), 2, "negative row index: -1"),
    (([0], [-2], [1]), 2, "negative column index: -2"),
    (([0], [0], [3]), 2, "code outside GF(3): 3"),
    (([0], [0], [-1]), 2, "code outside GF(3): -1"),
    (([0, 2, 0], [1, 1, 1], [1, 2, 2]), 2, "two entries at (row, column) (0, 1)"),
    (([1, 0, 1], [0, 1, 0], [0, 1, 0]), 2, "two entries at (row, column) (1, 0)"),
])
def test_sparse_entries_are_checked(entries, n_cols, message):
    f = Field(3)
    for call in (lambda: block_rank(f, *entries), lambda: block_kernel(f, *entries, n_cols)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    with pytest.raises(ValueError, match="column index past 2: 2"):
        block_kernel(f, [0], [2], [1], 2)


def test_zero_codes_are_no_entries():
    f = Field(3)
    assert block_rank(f, [0], [0], [0]) == 0
    assert block_kernel(f, [0], [0], [0], 2).tolist() == [[1, 0], [0, 1]]
    assert block_rank(f, [0, 0, 1], [0, 1, 1], [0, 2, 1]) == 1


def ref_reduce(sub, v):
    """The per-pivot loop that ``Subspace.reduce`` ran before."""
    f = sub.field
    res = np.asarray(v, dtype=np.int64).copy()
    for i, pc in enumerate(sub._pivots):
        c = int(res[pc])
        if c:
            res = f.sub(res, f.mul(c, sub.rows[i]))
    return res


def ref_greedy_complement(f, sub, amb_rows):
    """The complement ``Section`` chose before: one ``contains`` and one
    rebuild of the accumulated subspace per ambient row."""
    acc = Subspace(f, sub.ambient_dim, sub.rows)
    comp = []
    for row in amb_rows:
        if np.any(ref_reduce(acc, row)):
            comp.append(row.copy())
            acc = Subspace(f, sub.ambient_dim, np.vstack([acc.rows, row[None, :]]))
    return np.array(comp, dtype=np.int64).reshape(-1, sub.ambient_dim)


def test_reduce_and_section_match_the_loops():
    rng = random.Random(23)
    for p, m in [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (5, 2)]:
        f = Field(p, m)
        for sub_rows, amb_rows in [(f.rand(rng, (3, 9)), f.rand(rng, (6, 9))),
                                   (f.rand(rng, (0, 9)), f.rand(rng, (5, 9))),
                                   (f.rand(rng, (2, 9)), None),
                                   (np.eye(9, dtype=np.int64)[[1, 4]], np.eye(9, dtype=np.int64)[2:6])]:
            sub = Subspace(f, 9, sub_rows)
            vs = f.rand(rng, (7, 9))
            assert np.array_equal(sub.reduce(vs), [ref_reduce(sub, v) for v in vs])
            assert np.array_equal(sub.reduce(vs[0]), ref_reduce(sub, vs[0]))
            amb = None if amb_rows is None else Subspace(f, 9, np.vstack([sub.rows, amb_rows]))
            sec = Section(f, sub, amb)
            want = ref_greedy_complement(f, sub, np.eye(9, dtype=np.int64) if amb is None else amb.rows)
            assert np.array_equal(sec.comp, want)


def ref_decompose(sec, v):
    """The (sub, complement) coordinates of v, from the whole left inverse."""
    y = matvec(sec.field, sec._left_inv, v)
    return y[:sec._sub_dim], y[sec._sub_dim:]


def test_section_splits_ambient():
    rng = random.Random(19)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        f = Field(p, m)
        amb = Subspace(f, 8, f.rand(rng, (6, 8)))
        sub_rows = amb.rows[:2]
        sub = Subspace(f, 8, sub_rows)
        sec = Section(f, sub, amb)
        assert sec.dim == amb.dim - sub.dim
        for _ in range(10):
            coeffs = f.rand(rng, (amb.dim,))
            v = matvec(f, amb.rows.T, coeffs)
            s_part, c_part = ref_decompose(sec, v)
            recomposed = f.add(matvec(f, sub.rows.T, s_part) if sub.dim else 0,
                               matvec(f, sec.comp.T, c_part) if sec.dim else 0)
            assert np.array_equal(np.asarray(recomposed), v)
        # class coords of anything in sub vanish
        for r in sub.rows:
            assert not np.any(sec.class_coords(r))
        # lift then project is the identity on classes
        for _ in range(5):
            c = f.rand(rng, (sec.dim,))
            assert np.array_equal(sec.class_coords(sec.lift(c)), c)


def test_section_class_coords_of_a_stack():
    rng = random.Random(23)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        f = Field(p, m)
        amb = Subspace(f, 8, f.rand(rng, (6, 8)))
        vs = matmul(f, f.rand(rng, (7, amb.dim)), amb.rows)
        for sub_dim in (0, 2, amb.dim):
            sec = Section(f, Subspace(f, 8, amb.rows[:sub_dim]), amb)
            rows = [sec.class_coords(v) for v in vs]
            assert np.array_equal(sec.class_coords(vs), np.reshape(rows, (7, sec.dim)))
            # the whole left inverse gives a second route to the coordinates
            assert np.array_equal(sec.class_coords(vs), np.reshape(
                [ref_decompose(sec, v)[1] for v in vs], (7, sec.dim)))
            assert sec.class_coords(vs[:0]).shape == (0, sec.dim)


def ref_intersect(a, b):
    """a and b meet in the x A with (x, y) in the kernel of [A; B]^T."""
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.field, a.ambient_dim)
    ker = kernel_basis(a.field, np.vstack([a.rows, b.rows]).T)
    return Subspace(a.field, a.ambient_dim, matmul(a.field, ker[:, :a.dim], a.rows))


def test_subspace_intersect():
    f = Field(2)
    a = Subspace(f, 4, np.array([[1, 0, 0, 0], [0, 1, 0, 0]]))
    b = Subspace(f, 4, np.array([[0, 1, 0, 0], [0, 0, 1, 0]]))
    cap = ref_intersect(a, b)
    assert cap.dim == 1
    assert cap.contains(np.array([0, 1, 0, 0]))


# ---------------------------------------------------------------------------
# semilinear kernels
# ---------------------------------------------------------------------------


def test_semilinear_kernel_frozen_example():
    # over GF(4): w * v^2 = 0 has only v = 0
    f = Field(2, 2)
    ker = semilinear_kernel(f, np.array([[2]], dtype=np.int64), 1)
    assert ker.dim == 0


def test_semilinear_kernel_zero_map():
    f = Field(2, 2)
    ker = semilinear_kernel(f, np.array([[0, 0]], dtype=np.int64), 1)
    assert ker.dim == 4  # all of GF(4)^2 expanded over GF(2)
    # a map into the zero space has no rows; its kernel packs to the whole space
    for p, m in [(2, 1), (2, 2), (3, 2)]:
        f = Field(p, m)
        for frob_power in range(m):
            ker = semilinear_kernel(f, np.zeros((0, 3), dtype=np.int64), frob_power)
            assert ker.dim == 3 * m
            assert Subspace(f, 3, [pack_vector(f, r) for r in ker.rows]).dim == 3


def test_semilinear_kernel_matches_exhaustive_search():
    rng = random.Random(31)
    for p, m in [(2, 2), (3, 2)]:
        f = Field(p, m)
        for frob_power in (0, 1):
            mat = f.rand(rng, (2, 3))
            ker = semilinear_kernel(f, mat, frob_power)
            count = 0
            for v in itertools.product(range(f.q), repeat=3):
                v_arr = np.array(v, dtype=np.int64)
                if not np.any(matvec(f, mat, f.frobenius(v_arr, frob_power))):
                    count += 1
                    assert ker.contains(expand_vector(f, v_arr))
            assert count == p**ker.dim


def test_expand_pack_round_trip():
    for p, m in ALL_PARAMS:
        f = Field(p, m)
        rng = random.Random(37)
        v = f.rand(rng, (6,))
        digits = expand_vector(f, v)
        assert digits.dtype == np.int64
        assert digits.tolist() == [d for x in v for d in ref_digits(f, x)]
        assert np.array_equal(pack_vector(f, digits), v)
        assert pack_vector(f, expand_vector(f, v[:0])).shape == (0,)


def test_mult_and_frob_matrices_realize_maps():
    f = Field(3, 2)
    rng = random.Random(41)
    prime = Field(3, 1)
    for _ in range(30):
        a = rng.randrange(f.q)
        v = rng.randrange(f.q)
        got = matvec(prime, f._mats[a], np.array(f.digits(v)))
        assert ref_code(f, got) == f.mul(a, v)
        got_f = matvec(prime, f.frob_matrix(1), np.array(f.digits(v)))
        assert ref_code(f, got_f) == f.frobenius(v)
