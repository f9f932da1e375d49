"""The abstract Lie layer against per-coordinate loops written here.

Every contraction of ``LieAlgebra`` (bracket, ad, bracket_space, Killing
form, centre, change of basis) is recomputed entry by entry from the
structure constants with scalar field operations, on diagonal models and on
seeded random changes of basis of HH^1 Lie algebras over GF(2), GF(3), GF(4)
and GF(8).  The series, the ideal test, nilpotency of subalgebras and
quotients are held to the term-by-term loops they were first written as,
and the named-basis path of ``from_cohomology`` to its per-pair fill and to
a change of basis of the canonical algebra.  The Jacobi check is held to
the dense n^4 array it replaced.  The Leibniz builder is held to
its block-by-block Kronecker loop, the derivation probes to a brute force
over every rho, and the second-derived weights to L/D^2 of HH^1.  The
nilradical is held to a brute force over every subspace, on every Lie
algebra of dimension at most 3 over GF(2) and 2 over GF(3) and GF(4), on a
sample at dimension 3 over GF(3), and on random conjugates of them; to the
line search it replaced on HH^1 in four bases, where it must also not
depend on the basis; and on seeded Lie algebras of matrices and diagonal
models, where its trace conditions run past the first level.
"""

import collections
import functools
import itertools
import random
import re

import numpy as np
import pytest

from tamecoh.algebra import AlgebraError
from tamecoh.cohomology import derivation_system, hh
from tamecoh.families import make
from tamecoh.field import Field, Section, Subspace, inverse, kernel_space, matmul, matvec
from tamecoh.fixtures import fixtures_for
import tamecoh.lie as lie_module
from tamecoh.lie import (
    LieAlgebra,
    bracket,
    derivation_probes,
    diagonal_model,
    fingerprint,
    from_cohomology,
    second_derived_weights,
    verify_iso,
)
from test_golden import GRID

GF2, GF3, GF4, GF5, GF8 = Field(2), Field(3), Field(2, 2), Field(5), Field(2, 3)
GF7, GF9 = Field(7), Field(3, 2)


def ref_bracket(lie, u, v):
    f, n, s = lie.field, lie.dim, lie.structure
    out = [0] * n
    for i in range(n):
        for j in range(n):
            c = f.mul(int(u[i]), int(v[j]))
            if c:
                for k in range(n):
                    out[k] = f.add(out[k], f.mul(c, int(s[i, j, k])))
    return np.array(out, dtype=np.int64)


def ref_ad(lie, u):
    n = lie.dim
    cols = [ref_bracket(lie, u, np.eye(n, dtype=np.int64)[j]) for j in range(n)]
    return np.array(cols, dtype=np.int64).T.reshape(n, n)


def ref_killing(lie):
    f, n = lie.field, lie.dim
    ads = [ref_ad(lie, np.eye(n, dtype=np.int64)[i]) for i in range(n)]
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            tr = 0
            for t in range(n):
                for l in range(n):
                    tr = f.add(tr, f.mul(int(ads[i][t, l]), int(ads[j][l, t])))
            out[i, j] = tr
    return out


def ref_centre(lie):
    # v is central iff sum_i v_i [e_i, e_j] = 0 for every j
    n, s = lie.dim, lie.structure
    rows = [[int(s[i, j, k]) for i in range(n)] for j in range(n) for k in range(n)]
    return kernel_space(lie.field, np.array(rows, dtype=np.int64).reshape(n * n, n))


def ref_conjugate(lie, mat):
    f, n = lie.field, lie.dim
    minv = inverse(f, mat)
    s = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            val = ref_bracket(lie, mat[:, i], mat[:, j])
            for r in range(n):
                acc = 0
                for c in range(n):
                    acc = f.add(acc, f.mul(int(minv[r, c]), int(val[c])))
                s[i, j, r] = acc
    return s


def random_invertible(f, n, rng):
    while True:
        mat = f.rand(rng, (n, n))
        try:
            inverse(f, mat)
            return mat
        except ValueError:
            pass


def hh1_algebra(family, field, **params):
    return from_cohomology(hh(make(family, field, **params).resolution, 1))


CASES = {
    "diag/GF(2)": lambda: diagonal_model(GF2, [1, 1, 0]),
    "diag/GF(3)": lambda: diagonal_model(GF3, [1, 2, 1]),
    "diag/GF(4)": lambda: diagonal_model(GF4, [1, 2, 3]),
    "diag/GF(8)": lambda: diagonal_model(GF8, [3, 5]),
    "D1A2(2,0)/GF(2)": lambda: hh1_algebra("D1A2", GF2, k=2, d=0),
    "SD2B1(2,2,0)/GF(3)": lambda: hh1_algebra("SD2B1", GF3, k=2, s=2, c=0),
    "Q1A2(2,2,3)/GF(4)": lambda: hh1_algebra("Q1A2", GF4, k=2, c=2, d=3),
    "SD1A2(2,2,1)/GF(8)": lambda: hh1_algebra("SD1A2", GF8, k=2, c=2, d=1),
}


def algebras(case, seed):
    """The case itself and one seeded random change of basis of it."""
    lie = CASES[case]()
    mat = random_invertible(lie.field, lie.dim, random.Random(seed))
    return lie, lie.conjugate(mat), mat


@pytest.mark.parametrize("case", sorted(CASES))
def test_conjugate_matches_loops(case):
    lie, conj, mat = algebras(case, 1)
    assert np.array_equal(conj.structure, ref_conjugate(lie, mat))


@pytest.mark.parametrize("case", sorted(CASES))
def test_bracket_and_ad_match_loops(case):
    rng = random.Random(2)
    for lie in algebras(case, 3)[:2]:
        f, n = lie.field, lie.dim
        for _ in range(6):
            u, v = f.rand(rng, n), f.rand(rng, n)
            assert np.array_equal(lie.bracket(u, v), ref_bracket(lie, u, v))
            assert np.array_equal(lie.ad(u), ref_ad(lie, u))
        assert np.array_equal(lie.bracket(np.zeros(n, dtype=np.int64), u), np.zeros(n))


@pytest.mark.parametrize("case", sorted(CASES))
def test_bracket_space_matches_loops(case):
    rng = random.Random(4)
    for lie in algebras(case, 5)[:2]:
        f, n = lie.field, lie.dim
        subs = [lie.full_space(), Subspace(f, n),
                Subspace(f, n, f.rand(rng, (2, n))), Subspace(f, n, f.rand(rng, (3, n)))]
        for a in subs:
            for b in subs:
                want = Subspace(f, n, [ref_bracket(lie, x, y) for x in a.rows for y in b.rows])
                assert lie.bracket_space(a, b) == want


@pytest.mark.parametrize("case", sorted(CASES))
def test_killing_and_centre_match_loops(case):
    for lie in algebras(case, 6)[:2]:
        assert np.array_equal(lie.killing_matrix(), ref_killing(lie))
        assert lie.centre() == ref_centre(lie)


def ref_verify_iso(l1, l2, mat):
    """The per-pair check ``verify_iso`` made before, for an invertible mat."""
    f, n = l1.field, l1.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = [0] * n
            for r in range(n):
                for c in range(n):
                    lhs[r] = f.add(lhs[r], f.mul(int(mat[r, c]), int(l1.structure[i, j, c])))
            if not np.array_equal(lhs, ref_bracket(l2, mat[:, i], mat[:, j])):
                return False
    return True


@pytest.mark.parametrize("case", sorted(CASES))
def test_verify_iso_matches_pair_loop(case):
    lie, conj, mat = algebras(case, 7)
    assert verify_iso(conj, lie, mat)
    wrong = random_invertible(lie.field, lie.dim, random.Random(8))
    for l1, l2, m in [(conj, lie, wrong), (lie, conj, mat), (lie, lie, wrong)]:
        assert verify_iso(l1, l2, m) == ref_verify_iso(l1, l2, m)
    # brackets that differ on one pair only: the first, then the last
    f, n = lie.field, lie.dim
    for i, j in [(0, 1), (n - 2, n - 1)]:
        s = lie.structure.copy()
        s[i, j, 0] = f.add(s[i, j, 0], 1)
        s[j, i, 0] = f.neg(s[i, j, 0])
        bent = LieAlgebra(f, s, check=False)
        assert not verify_iso(lie, bent, np.eye(n, dtype=np.int64))


def test_axioms_reject_a_square_that_is_not_zero():
    s = np.zeros((2, 2, 2), dtype=np.int64)
    s[1, 1, 0] = 1
    with pytest.raises(AlgebraError, match=re.escape("[e_1, e_1] is not zero")):
        LieAlgebra(GF3, s)


def test_axioms_reject_a_bracket_that_is_not_antisymmetric():
    s = np.zeros((3, 3, 3), dtype=np.int64)
    s[0, 1, 2] = s[1, 0, 2] = 1
    with pytest.raises(AlgebraError, match=re.escape("bracket not antisymmetric at (0,1)")):
        LieAlgebra(GF3, s)


@pytest.mark.parametrize("field", [GF3, GF4])
def test_axioms_reject_a_jacobi_violation(field):
    # on e_1, e_2, e_3: [e_1, e_2] = e_3, [e_1, e_3] = e_1 is alternating, but
    # the Jacobi sum on (e_1, e_2, e_3) is -e_3
    s = np.zeros((4, 4, 4), dtype=np.int64)
    s[1, 2, 3], s[2, 1, 3] = 1, field.neg(1)
    s[1, 3, 1], s[3, 1, 1] = 1, field.neg(1)
    with pytest.raises(AlgebraError, match=re.escape("Jacobi identity fails on (1,2,3)")):
        LieAlgebra(field, s)


def ref_jacobi_failure(lie):
    """The dense check the constructor made before: [[e_i, e_j], e_k] for
    every triple as one (n, n, n, n) array, then the cyclic sum.  The
    message for the first failing triple i < j < k, or None."""
    f, n, s = lie.field, lie.dim, lie.structure
    nested = matmul(f, s.reshape(n * n, n), s.reshape(n, n * n)).reshape(n, n, n, n)
    jacobi = f.add(f.add(nested, nested.transpose(1, 2, 0, 3)),
                   nested.transpose(2, 0, 1, 3))
    for i, j, k in zip(*np.nonzero(np.any(jacobi, axis=-1))):
        if i < j < k:
            return f"Jacobi identity fails on ({i},{j},{k})"
    return None


def alternating(f, n, values):
    """The alternating (n, n, n) tensor with [e_i, e_j] = values[p] on the
    p-th pair i < j."""
    s = np.zeros((n, n, n), dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    s[i, j] = values
    s[j, i] = f.neg(s[i, j])
    return s


def jacobi_outcome(f, s):
    try:
        LieAlgebra(f, s)
    except AlgebraError as err:
        return str(err)
    return None


@pytest.mark.parametrize("field,n,sample", [(GF2, 3, None), (GF3, 3, 500),
                                            (GF2, 4, 300), (GF4, 4, 300)])
def test_jacobi_check_matches_the_dense_array(field, n, sample):
    """Every alternating tensor on F^3 over GF(2), and seeded samples: the
    check through ``nested_products`` accepts and rejects as the dense n^4
    check did, and names the same triple.  At dim 4 a bracket coordinate is
    zero three times in four, so that some samples satisfy Jacobi."""
    pairs = n * (n - 1) // 2
    if sample is None:
        draws = itertools.product(range(field.q), repeat=pairs * n)
    else:
        rng = random.Random(15 + field.q + n)
        draws = [field.rand(rng, pairs * n) for _ in range(sample)]
        if n == 4:
            draws = [v * np.array([rng.random() < 0.25 for _ in v]) for v in draws]
    outcomes = set()
    for values in draws:
        s = alternating(field, n, np.reshape(values, (pairs, n)))
        got = jacobi_outcome(field, s)
        assert got == ref_jacobi_failure(LieAlgebra(field, s, check=False))
        outcomes.add(got)
    # both verdicts occur, and at dim 4 more than one failing triple
    assert None in outcomes and len(outcomes) >= (2 if n == 3 else 3)


@pytest.mark.parametrize("field", [GF2, GF3, GF4])
def test_structure_constants_must_be_field_codes(field):
    for bad in (field.q, -1, field.q + 1):
        s = np.zeros((2, 2, 2), dtype=np.int64)
        s[0, 1, 1] = s[1, 0, 1] = bad
        for check in (True, False):
            with pytest.raises(ValueError, match=re.escape(f"codes in range({field.q})")):
                LieAlgebra(field, s, check=check)
    good = diagonal_model(field, [1, field.q - 1]).structure
    fractional = good.astype(np.float64)
    fractional[0, 1, 1] += 0.5
    for bad in (good + 0.5, fractional, np.where(good > 0, np.nan, 0.0)):
        for check in (True, False):
            with pytest.raises(ValueError, match="structure constants must be integers"):
                LieAlgebra(field, bad, check=check)
    # integer values are accepted whatever the dtype
    assert np.array_equal(LieAlgebra(field, good.astype(np.float64)).structure, good)


@pytest.mark.parametrize("field", [GF2, GF3, GF4])
def test_change_of_basis_entries_must_be_field_codes(field):
    """verify_iso and conjugate apply the structure constants' rule to their
    matrix.  Over GF(2) the product of codes is a bitwise AND, so without it
    I + 2 E_01 would pass verify_iso."""
    lie = diagonal_model(field, [1, field.q - 1])
    eye = np.eye(lie.dim, dtype=np.int64)
    upper = np.eye(lie.dim, k=1, dtype=np.int64)
    assert verify_iso(lie, lie, eye)
    assert np.array_equal(lie.conjugate(eye).structure, lie.structure)
    for bad in (field.q, -1, field.q + 1):
        for mat in (eye + bad * upper, bad * eye):
            with pytest.raises(ValueError, match=re.escape(f"codes in range({field.q})")):
                verify_iso(lie, lie, mat)
            for check in (True, False):
                with pytest.raises(ValueError, match=re.escape(f"codes in range({field.q})")):
                    lie.conjugate(mat, check=check)
    for mat in (eye + 0.5 * upper, np.where(upper > 0, np.nan, eye)):
        with pytest.raises(ValueError, match="entries must be integers"):
            verify_iso(lie, lie, mat)
        with pytest.raises(ValueError, match="entries must be integers"):
            lie.conjugate(mat)
    # integer values are accepted whatever the dtype
    assert verify_iso(lie, lie, eye.astype(np.float64))


def kron(f, a, b):
    """Kronecker product with entries multiplied in the field."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = f.mul(a[:, None, :, None], b[None, :, None, :])
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def ref_derivation_system(lie, lam, mu, nu):
    """The (lam, mu, nu)-derivation system block by block, as it was built
    before it was filled in place: n^2 blocks of three Kronecker products."""
    f = lie.field
    n = lie.dim
    eye = np.eye(n, dtype=np.int64)
    ads = [lie.ad(lie.basis_vector(i)) for i in range(n)]
    blocks = []
    for i in range(n):
        for j in range(n):
            block = f.mul(lam, kron(f, eye, lie.structure[i, j][None, :]))
            block = f.add(block, f.mul(mu, kron(f, ads[j], eye[i][None, :])))
            block = f.sub(block, f.mul(nu, kron(f, ads[i], eye[j][None, :])))
            blocks.append(block)
    return np.vstack(blocks)


def dense_system(f, lie, pairs, lam):
    """The entries of ``derivation_system`` as a dense (pairs * n, n^2) array."""
    n = lie.dim
    (rows, cols, codes), = derivation_system(f, n, lie.entries(), pairs, [lam])
    out = np.zeros((len(pairs[0]) * n, n * n), dtype=np.int64)
    out[rows, cols] = codes
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_derivation_system_matches_block_loop(case):
    lie, conj, _ = algebras(case, 13)
    f = lie.field
    for alg in (lie, conj):
        pairs = np.triu_indices(alg.dim, 1)
        for rho in f.elements():
            ref = kernel_space(f, ref_derivation_system(alg, rho, 1, 1))
            assert kernel_space(f, dense_system(f, alg, pairs, rho)) == ref
            assert alg.derivation_dim(rho) == ref.dim


def ref_row_can_be_nonzero(table, i, j, r):
    """Whether one of the three Leibniz terms of row (i, j, r) has a nonzero
    structure constant: b_i b_j, the r-th coordinates of the b_x b_j, or
    those of the b_i b_x."""
    return bool(table[i, j].any() or table[:, j, r].any() or table[i, :, r].any())


@pytest.mark.parametrize("case", sorted(CASES))
def test_derivation_system_keeps_exactly_the_rows_that_can_be_nonzero(case):
    lie, conj, _ = algebras(case, 17)
    f = lie.field
    rng = random.Random(3)
    for alg in (lie, conj):
        n = alg.dim
        lam = rng.randrange(f.q)
        full = ref_derivation_system(alg, lam, 1, 1).reshape(n, n, n, n * n)
        mask = np.array([ref_row_can_be_nonzero(alg.structure, *idx)
                         for idx in np.ndindex(n, n, n)], dtype=bool).reshape(n, n, n)
        pairs = tuple(a.ravel() for a in np.indices((n, n)))
        # row (i n + j) n + r of the densified entries is row (i, j, r)
        dense = dense_system(f, alg, pairs, lam).reshape(n, n, n, n * n)
        assert np.array_equal(dense[mask], full[mask])
        assert not full[~mask].any() and not dense[~mask].any()
        # a row whose terms cancel has no entries, so the rows with entries
        # are exactly the nonzero rows, all of them among those kept above
        (rows, _, codes), = derivation_system(f, n, alg.entries(), pairs, [lam])
        assert np.array_equal(np.unique(rows), np.flatnonzero(full.any(axis=3)))
        assert codes.all()


@pytest.mark.parametrize("field", [GF2, GF3, GF4])
def test_derivation_probes_must_be_field_codes(field):
    lie = diagonal_model(field, [1, 1])
    assert len(lie.derivation_dims(range(field.q))) == field.q
    for bad in (field.q, -1, field.q + 1):
        message = re.escape(f"derivation probe {bad} is not a field code in GF({field.q})")
        with pytest.raises(ValueError, match=message):
            lie.derivation_dims([bad])
        with pytest.raises(ValueError, match=message):
            fingerprint(lie, probes=[1, bad])


def test_probes_and_weights_must_be_integers():
    lie = diagonal_model(GF5, [1, 2])
    for bad in (2.7, "3", 2.0):
        with pytest.raises(ValueError, match=re.escape(f"derivation probe {bad!r} is not an integer")):
            fingerprint(lie, [1, bad])
        with pytest.raises(ValueError, match=re.escape(f"weight {bad!r} is not an integer")):
            diagonal_model(GF5, [1, bad])
    with pytest.raises(ValueError, match="weight 1.5 is not an integer"):
        diagonal_model(GF5, [1.5, 2])
    with pytest.raises(ValueError, match="weights must be field codes"):
        diagonal_model(GF5, [1, 5])
    assert fingerprint(lie, [np.int64(3)]) == fingerprint(lie, [3])
    assert np.array_equal(diagonal_model(GF5, np.array([1, 2])).structure, lie.structure)


def test_zero_dimensional_lie_algebra_fingerprint():
    lie = LieAlgebra(GF2, np.zeros((0, 0, 0), dtype=np.int64))
    assert lie.derivation_dim(1) == 0
    fp = fingerprint(lie, probes=[1])
    assert fp.derivation_dims == ((1, 0),)
    assert fp.dim == 0 and fp.nilradical_dim == 0


# ---------------------------------------------------------------------------
# derivation probes and second-derived weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [GF5, GF7, GF4, GF8, GF9], ids=str)
def test_derivation_probes_find_every_disagreement_of_diagonal_models(field):
    """Every diagonal model on at most three weights, up to order: its
    (rho,1,1)-derivation count takes one value over the nonzero rho that
    are not a ratio of two of its nonzero weights, and any two models that
    differ at some nonzero rho differ at one of their probes."""
    nonzero = range(1, field.q)
    models = [nus for r in (1, 2, 3)
              for nus in itertools.combinations_with_replacement(field.elements(), r)]
    dims = {}
    for nus in models:
        lie = diagonal_model(field, nus)
        dims[nus] = [lie.derivation_dim(rho) for rho in nonzero]
        ratios = {field.mul(b, field.inv(a)) for a in nus if a for b in nus if b}
        assert len({d for rho, d in zip(nonzero, dims[nus]) if rho not in ratios}) <= 1
    for a, b in itertools.combinations(models, 2):
        probes = derivation_probes(field, a, b)
        assert all(type(rho) is int for rho in probes)
        if dims[a] != dims[b]:
            assert any(dims[a][rho - 1] != dims[b][rho - 1] for rho in probes), (a, b)


@pytest.mark.parametrize("field", [GF5, GF7], ids=str)
@pytest.mark.parametrize("k,s", [(3, 4), (4, 3), (3, 5)])
def test_second_derived_weights_model_the_quotient_by_d2(field, k, s):
    """L/D^2, with L = HH^1 and D^2 = [D^1, D^1], has the fingerprint of the
    diagonal model on the second weights for SD2B1 and on the first for
    SD2B2, at every nonzero rho; the two models differ."""
    rhos = list(range(1, field.q))
    models = [fingerprint(diagonal_model(field, w), rhos) for w in second_derived_weights(field, k, s)]
    assert models[0] != models[1]
    for family, model in (("SD2B2", models[0]), ("SD2B1", models[1])):
        lie = hh1_algebra(family, field, k=k, s=s, c=0)
        quotient, _ = lie.quotient(lie.derived_series()[2])
        assert fingerprint(quotient, rhos) == model


def test_second_derived_weights_need_three_invertible():
    with pytest.raises(AlgebraError, match="3 invertible"):
        second_derived_weights(GF3, 3, 4)


# ---------------------------------------------------------------------------
# series, ideals and quotients against the loops they were written as
# ---------------------------------------------------------------------------


def ref_lower_central_series(lie):
    full = lie.full_space()
    series = [full]
    while series[-1].dim:
        nxt = lie.bracket_space(series[-1], full)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def ref_derived_series(lie):
    series = [lie.full_space()]
    while series[-1].dim:
        nxt = lie.bracket_space(series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def ref_ideal_closure(lie, sub):
    full = lie.full_space()
    cur = sub
    while True:
        nxt = cur.sum(lie.bracket_space(full, cur))
        if nxt == cur:
            return cur
        cur = nxt


def ref_subspace_nilpotent(lie, sub):
    if not sub.contains_space(lie.bracket_space(sub, sub)):
        raise AlgebraError("not a subalgebra")
    term = sub
    while term.dim:
        nxt = lie.bracket_space(sub, term)
        if nxt == term:
            return False
        term = nxt
    return True


def _unit(n, i):
    e = np.zeros(n, dtype=np.int64)
    e[i] = 1
    return e


def ref_quotient(lie, ideal):
    if not lie.is_ideal(ideal):
        raise AlgebraError("quotient requires an ideal")
    f = lie.field
    sec = Section(f, ideal)
    qdim = sec.dim
    lifts = [sec.lift(_unit(qdim, a)) for a in range(qdim)]
    s = np.zeros((qdim, qdim, qdim), dtype=np.int64)
    for a in range(qdim):
        for b in range(qdim):
            s[a, b] = sec.class_coords(lie.bracket(lifts[a], lifts[b]))
    return LieAlgebra(f, s, check=False), sec


def outcome(fn, *args):
    try:
        return fn(*args)
    except AlgebraError as exc:
        return ("AlgebraError", str(exc))


@pytest.mark.parametrize("case", sorted(CASES))
def test_series_match_loops(case):
    for lie in algebras(case, 9)[:2]:
        lower = lie.lower_central_series()
        assert lower == ref_lower_central_series(lie)
        assert lie.derived_series() == ref_derived_series(lie)
        assert fingerprint(lie).nilpotent == (lower[-1].dim == 0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_ideal_closure_and_nilpotency_match_loops(case):
    rng = random.Random(10)
    for lie in algebras(case, 11)[:2]:
        f, n = lie.field, lie.dim
        subs = [Subspace(f, n), lie.full_space(), lie.centre()]
        subs += [Subspace(f, n, [lie.basis_vector(i)]) for i in range(n)]
        subs += [Subspace(f, n, f.rand(rng, (k, n))) for k in (1, 2)]
        for sub in subs:
            closure = ref_ideal_closure(lie, sub)
            assert lie.is_ideal(closure) and lie.is_ideal(sub) == (closure == sub)
            # closures are ideals, hence subalgebras; the others may not be
            for cand in (sub, closure):
                assert outcome(lie.subspace_nilpotent, cand) == outcome(ref_subspace_nilpotent, lie, cand)


@pytest.mark.parametrize("case", sorted(CASES))
def test_quotient_matches_pair_loop(case):
    for lie in algebras(case, 12)[:2]:
        f, n = lie.field, lie.dim
        ideals = lie.lower_central_series() + lie.derived_series() + [lie.centre()]
        for ideal in ideals:
            quo, sec = lie.quotient(ideal)
            want, want_sec = ref_quotient(lie, ideal)
            assert quo.dim == n - ideal.dim
            assert np.array_equal(quo.structure, want.structure)
            assert np.array_equal(sec.comp, want_sec.comp)
        not_ideals = [s for s in (Subspace(f, n, [lie.basis_vector(i)]) for i in range(n))
                      if not lie.is_ideal(s)]
        for sub in not_ideals[:1]:
            with pytest.raises(AlgebraError, match="quotient requires an ideal"):
                lie.quotient(sub)


# ---------------------------------------------------------------------------
# the nilradical against every subspace of every small Lie algebra
# ---------------------------------------------------------------------------


def all_lie_algebras(field, n):
    """Every alternating tensor on F^n that passes the Jacobi check."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for coeffs in itertools.product(range(field.q), repeat=n * len(pairs)):
        s = np.zeros((n, n, n), dtype=np.int64)
        for (i, j), vec in zip(pairs, np.reshape(coeffs, (len(pairs), n))):
            s[i, j], s[j, i] = vec, field.neg(vec)
        try:
            out.append(LieAlgebra(field, s))
        except AlgebraError:
            pass
    return out


def all_subspaces(field, n):
    """Every subspace of F^n, once each: reduced echelon forms by pivots."""
    for r in range(n + 1):
        for pivots in itertools.combinations(range(n), r):
            free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, n) if j not in pivots]
            for vals in itertools.product(range(field.q), repeat=len(free)):
                rows = np.zeros((r, n), dtype=np.int64)
                rows[range(r), pivots] = 1
                for (i, j), v in zip(free, vals):
                    rows[i, j] = v
                yield Subspace(field, n, rows)


def ref_nilradical(lie, subspaces):
    """The largest nilpotent ideal, by brute force over all subspaces."""
    nil = [sub for sub in subspaces
           if ref_ideal_closure(lie, sub) == sub and ref_subspace_nilpotent(lie, sub)]
    top = max(sub.dim for sub in nil)
    (largest,) = [sub for sub in nil if sub.dim == top]
    assert all(largest.contains_space(sub) for sub in nil)
    return largest


# GF(3) at dim 3 has 1,431 Lie algebras; the whole sweep takes about seven
# times as long as this seeded sample (None runs all of them)
NILRADICAL_SWEEPS = [(GF2, 1, None), (GF2, 2, None), (GF2, 3, None),
                     (GF3, 2, None), (GF4, 2, None), (GF3, 3, 150)]


@pytest.mark.parametrize("field,n,sample", NILRADICAL_SWEEPS,
                         ids=[f"GF({f.q})^{n}" for f, n, _ in NILRADICAL_SWEEPS])
def test_nilradical_matches_brute_force_over_subspaces(field, n, sample):
    """On every Lie algebra of the sweep the nilradical is the largest
    nilpotent ideal among all subspaces, and on a seeded random conjugate of
    each it is that ideal in the new coordinates."""
    rng = random.Random(13)
    lies = all_lie_algebras(field, n)
    if sample is not None:
        lies = rng.sample(lies, sample)
    subspaces = list(all_subspaces(field, n))
    for lie in lies:
        want = ref_nilradical(lie, subspaces)
        assert lie.nilradical() == want
        # coordinates in the basis of columns of mat are mat^-1 times the old
        mat = random_invertible(field, n, rng)
        assert lie.conjugate(mat).nilradical() == Subspace(
            field, n, matmul(field, want.rows, inverse(field, mat).T))


# ---------------------------------------------------------------------------
# the nilradical against the line search it replaced, in several bases
# ---------------------------------------------------------------------------


def ref_projective_reps(f, dim):
    codes = list(f.elements())
    for lead in range(dim):
        for tail in itertools.product(codes, repeat=dim - lead - 1):
            v = np.zeros(dim, dtype=np.int64)
            v[lead] = 1
            v[lead + 1:] = tail
            yield v


def ref_nilradical_search(lie, limit):
    """The nilradical as a search: a nilpotent ideal grown greedily from the
    basis vectors, then one closure per line of the quotient until none is
    nilpotent; None once the quotient has more than ``limit`` lines."""
    f = lie.field
    n = lie.dim
    q_size = f.p ** f.m
    ideal = Subspace(f, n)
    for i in range(n):
        e = lie.basis_vector(i)
        if ideal.contains(e):
            continue
        cand = ref_ideal_closure(lie, ideal.sum(Subspace(f, n, [e])))
        if lie.subspace_nilpotent(cand):
            ideal = cand
    while True:
        codim = n - ideal.dim
        if codim == 0:
            return ideal
        lines = (q_size ** codim - 1) // (q_size - 1)
        if lines > limit:
            return None
        sec = Section(f, ideal)
        grown = None
        for coords in ref_projective_reps(f, codim):
            u = sec.lift(coords)
            cand = ref_ideal_closure(lie, ideal.sum(Subspace(f, n, [u])))
            if lie.subspace_nilpotent(cand):
                grown = cand
                break
        if grown is None:
            return ideal
        ideal = grown


def in_basis(sub, mat):
    """sub in the basis of the columns of mat: coordinates times mat^-1."""
    f = sub.field
    return Subspace(f, sub.ambient_dim, matmul(f, sub.rows, inverse(f, mat).T))


# the pipeline instances of perfbench/workloads.py, then one whose seeded
# conjugates once made the line search grow the ideal after the greedy pass
PIPELINE = [
    ("SD2B1", GF2, dict(k=6, s=6, c=0)), ("SD2B1", GF3, dict(k=3, s=4, c=0)),
    ("SD2B1", GF3, dict(k=4, s=3, c=0)), ("SD2B1", GF5, dict(k=3, s=3, c=0)),
    ("D1A2", GF2, dict(k=6, d=0)), ("SD1A2", GF2, dict(k=7, c=1, d=0)),
    ("Q1A2", GF4, dict(k=3, c=0, d=2)), ("Q1A2", GF4, dict(k=3, c=0, d=3)),
    ("SD1A2", GF4, dict(k=3, c=2, d=1)), ("SD1A2", GF4, dict(k=3, c=3, d=1)),
    ("Q1A2", GF4, dict(k=5, c=0, d=2)), ("SD1A2", GF4, dict(k=5, c=2, d=1)),
    ("Q1A2", GF8, dict(k=2, c=0, d=3)), ("SD1A2", GF8, dict(k=2, c=2, d=1)),
    ("SD2B1", GF4, dict(k=3, s=2, c=2)), ("SD2B1", GF3, dict(k=2, s=2, c=0)),
    ("SD1A2", GF4, dict(k=4, c=2, d=1)),
]
NILRADICAL_CASES = list(dict.fromkeys(
    (family, field, tuple(params.items())) for family, field, params in GRID + PIPELINE))


@pytest.mark.parametrize("family,field,params", NILRADICAL_CASES, ids=[
    f"{fam}({','.join(str(v) for _, v in ps)})/{f}" for fam, f, ps in NILRADICAL_CASES])
def test_nilradical_matches_the_unfiltered_search(family, field, params):
    """On HH^1 in its canonical basis and in three seeded changes of basis,
    the nilradical is the ideal the search finds wherever it decides, and in
    every basis it is the canonical one in the new coordinates."""
    lie = hh1_algebra(family, field, **dict(params))
    canonical = lie.nilradical()
    mats = [np.eye(lie.dim, dtype=np.int64)]
    mats += [random_invertible(field, lie.dim, random.Random(seed)) for seed in range(3)]
    for mat in mats:
        alg = lie.conjugate(mat)
        got = alg.nilradical()
        assert got == in_basis(canonical, mat)
        want = ref_nilradical_search(alg, 10 ** 6)
        assert want is None or got == want


def test_nilradical_is_decided_in_every_basis():
    """Q1A2(6,2,3)/GF(4), Lie dim 11: the search left the quotient of two of
    these bases undecided, with more than 10^6 lines.  The nilradical has
    dim 9 in every basis and is the canonical one in the new coordinates."""
    lie = hh1_algebra("Q1A2", GF4, k=6, c=2, d=3)
    canonical = lie.nilradical()
    assert canonical == ref_nilradical_search(lie, 10 ** 6)
    assert canonical.dim == 9
    for seed in (1, 2, 3, 4):
        mat = random_invertible(GF4, lie.dim, random.Random(seed))
        assert lie.conjugate(mat).nilradical() == in_basis(canonical, mat)


# ---------------------------------------------------------------------------
# the nilradical on Lie algebras of matrices, where the radical needs the
# trace conditions past the first
# ---------------------------------------------------------------------------


def commutator(f, a, b):
    return f.sub(matmul(f, a, b), matmul(f, b, a))


def matrix_lie_algebra(f, mats):
    """The Lie algebra that k x k matrices generate under the commutator, in
    the echelon basis of its span; None unless its dim is 2 to 7."""
    k = len(mats[0])
    span = Subspace(f, k * k, [a.reshape(-1) for a in mats])
    while 2 <= span.dim <= 7:
        basis = span.rows.reshape(-1, k, k)
        grown = span.sum(Subspace(f, k * k, [commutator(f, a, b).reshape(-1)
                                             for a in basis for b in basis]))
        if grown == span:
            # a vector of the span has its coordinates at the basis pivots
            pivots = [int(np.flatnonzero(row)[0]) for row in span.rows]
            return LieAlgebra(f, np.array([[commutator(f, a, b).reshape(-1)[pivots]
                                            for b in basis] for a in basis]))
        span = grown
    return None


def ref_trace_radical(lie):
    """{x : tr(ad x w) = 0} over the words w in the ad e_i that span their
    algebra, each word found as a product of a shorter one and an ad e_i."""
    f, n = lie.field, lie.dim
    ads = [ref_ad(lie, lie.basis_vector(i)) for i in range(n)]
    words = [np.eye(n, dtype=np.int64)]
    span = Subspace(f, n * n, [words[0].reshape(-1)])
    for word in words:  # grows while it is read
        for ad in ads:
            nxt = matmul(f, word, ad)
            if not span.contains(nxt.reshape(-1)):
                span = span.sum(Subspace(f, n * n, [nxt.reshape(-1)]))
                words.append(nxt)
    traces = [[functools.reduce(f.add, np.diagonal(matmul(f, ads[i], word)).tolist(), 0)
               for i in range(n)] for word in words]
    return kernel_space(f, np.array(traces, dtype=np.int64))


def matrix_lie_algebras(rng, count):
    """Seeded Lie algebras spanned by 2 or 3 sparse random k x k matrices,
    k <= 4, and their commutators, over GF(2) and GF(3)."""
    out = []
    while len(out) < count:
        f, k = rng.choice([GF2, GF3]), rng.randint(2, 4)
        density = rng.choice([0.2, 0.3, 0.5])
        mats = [np.array([[f.rand(rng) if rng.random() < density else 0 for _ in range(k)]
                          for _ in range(k)]) for _ in range(rng.randint(2, 3))]
        lie = matrix_lie_algebra(f, mats)
        if lie is not None:
            out.append(lie)
    return out


def nilradical_and_stop(monkeypatch, lie):
    """lie.nilradical(), and the last level of trace conditions it reached."""
    levels = [0]
    power_traces = lie_module._power_traces

    def spy(mats, p, level):
        levels.append(level)
        return power_traces(mats, p, level)

    with monkeypatch.context() as m:
        m.setattr(lie_module, "_power_traces", spy)
        return lie.nilradical(), max(levels)


@pytest.mark.parametrize("p,level", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_power_traces_match_exact_powers(p, level):
    """On seeded integer matrices, tr(M^(p^level)) in exact integers: its
    quotient by p^level mod p where the division is exact, else an error."""
    rng = np.random.default_rng([p, level])
    exact = 0
    for _ in range(40):
        mats = rng.integers(0, p, (2, 4, 4)) * rng.integers(0, 2, (2, 1, 1))
        traces = [np.trace(np.linalg.matrix_power(m.astype(object), p ** level)) for m in mats]
        if all(t % p ** level == 0 for t in traces):
            exact += 1
            got = lie_module._power_traces(mats.astype(np.float64), p, level)
            assert got.tolist() == [t // p ** level % p for t in traces]
        else:
            with pytest.raises(AlgebraError, match="not divisible"):
                lie_module._power_traces(mats.astype(np.float64), p, level)
    assert 0 < exact < 40


def test_nilradical_of_matrix_lie_algebras(monkeypatch):
    """The nilradical is the brute force's up to dim 4 and the search's past
    it.  The trace conditions stop at the first level whose ideal is
    nilpotent: level 0 exactly where p > dim or the trace radical of the
    ads is already the nilradical, and levels 1 and 2 both occur."""
    subspaces = {(f, n): list(all_subspaces(f, n)) for f in (GF2, GF3) for n in (2, 3, 4)}
    stops = collections.Counter()
    for lie in matrix_lie_algebras(random.Random(4), 200):
        f, n = lie.field, lie.dim
        got, stop = nilradical_and_stop(monkeypatch, lie)
        if n <= 4:
            assert got == ref_nilradical(lie, subspaces[f, n])
        else:
            assert got == ref_nilradical_search(lie, 10 ** 6)
        radical = ref_trace_radical(lie)
        assert radical.contains_space(got)
        assert (stop == 0) == (f.p > n or radical == got)
        stops[f.p, stop] += 1
    assert stops[2, 1] and stops[3, 1] and stops[2, 2]


@pytest.mark.parametrize("field,r,level", [
    (GF2, 1, 0), (GF2, 2, 1), (GF2, 3, 0), (GF2, 4, 2), (GF2, 6, 1), (GF2, 8, 3),
    (GF3, 2, 0), (GF3, 3, 1), (GF3, 6, 1), (GF3, 9, 2),
    (GF4, 2, None), (GF4, 4, None), (GF8, 2, None)],
    ids=lambda v: str(v) if isinstance(v, Field) else None)
def test_nilradical_of_diagonal_models_with_equal_weights(field, r, level, monkeypatch):
    """The sum of two diagonal models: e_0 acts as the identity on e_1..e_r,
    and e_(r+1) on e_(r+2), so the nilradical is the span of the others.
    Over GF(p), tr((ad e_0)^(p^i)) / p^i = r / p^i, so e_0 leaves at the
    level that is the power of p in r, and e_(r+1) at level 0."""
    s = np.zeros((r + 3,) * 3, dtype=np.int64)
    s[:r + 1, :r + 1, :r + 1] = diagonal_model(field, [1] * r).structure
    s[r + 1:, r + 1:, r + 1:] = diagonal_model(field, [1]).structure
    got, stop = nilradical_and_stop(monkeypatch, LieAlgebra(field, s))
    assert got == Subspace(field, r + 3, np.eye(r + 3, dtype=np.int64)[[*range(1, r + 1), r + 2]])
    if level is not None:
        assert stop == level


# ---------------------------------------------------------------------------
# the named basis of from_cohomology
# ---------------------------------------------------------------------------


NAMED = [
    ("SD1A1", GF2, dict(k=2)),
    ("SD1A1", GF4, dict(k=3)),
    ("SD1A1", GF8, dict(k=2)),
    ("SD1A2", GF2, dict(k=3, c=1, d=0)),
    ("SD1A2", GF4, dict(k=2, c=2, d=1)),
    ("SD1A2", GF8, dict(k=2, c=2, d=1)),
    ("Q1A1", GF2, dict(k=3)),
    ("Q1A1", GF4, dict(k=2)),
    ("Q1A1", GF8, dict(k=3)),
    ("Q1A2", GF2, dict(k=2, c=1, d=0)),
    ("Q1A2", GF4, dict(k=3, c=0, d=2)),
    ("Q1A2", GF8, dict(k=2, c=0, d=3)),
    ("SD2B1", GF2, dict(k=2, s=3, c=1)),
    ("SD2B1", GF4, dict(k=3, s=2, c=2)),
    ("SD2B1", GF8, dict(k=2, s=2, c=1)),
    ("SD2B1", GF3, dict(k=2, s=3, c=1)),
    ("SD2B1", GF5, dict(k=3, s=2, c=2)),
    ("SD2B2", GF2, dict(k=2, s=3, c=1)),
    ("SD2B2", GF4, dict(k=3, s=3, c=3)),
    ("SD2B2", GF8, dict(k=2, s=2, c=2)),
    ("SD2B2", GF3, dict(k=2, s=2, c=2)),
    ("SD2B2", GF5, dict(k=3, s=3, c=3)),
]


def ref_named_structure(space, fix):
    """The per-pair fill of the named basis: P^-1 times the canonical class
    coordinates of each bracket, P holding the named classes as columns."""
    f = space.algebra.field
    n = space.dim
    reps = [fix.vec(nm) for nm in fix.basis]
    p_mat = np.zeros((n, n), dtype=np.int64)
    for j, vec in enumerate(reps):
        p_mat[:, j] = space.class_coords(vec)
    p_inv = inverse(f, p_mat)
    s = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            val = matvec(f, p_inv, space.class_coords(bracket(space.resolution, reps[i], reps[j])))
            s[i, j] = val
            s[j, i] = f.neg(val)
    return s


@pytest.mark.parametrize("family,field,params", NAMED,
                         ids=[f"{fam}/GF({fd.q})" for fam, fd, _ in NAMED])
def test_named_basis_matches_pair_loop_and_change_of_basis(family, field, params):
    inst = make(family, field, **params)
    space = hh(inst.resolution, 1)
    fix = fixtures_for(inst)
    named = from_cohomology(space, fix)
    assert named.names == tuple(fix.basis)
    assert np.array_equal(named.structure, ref_named_structure(space, fix))
    # the named classes, in canonical coordinates, as the columns of P
    p_mat = np.array([space.class_coords(fix.vec(nm)) for nm in fix.basis]).T
    assert np.array_equal(named.structure, from_cohomology(space).conjugate(p_mat).structure)
