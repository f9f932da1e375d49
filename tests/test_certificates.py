"""The certifying route against the per-product loops it replaced.

``check_complex``, ``check_exactness``, the Leibniz oracle and the bracket
table are evaluated in stacked contractions.  The loops below are the
earlier per-product implementations, kept as references: every report must
come out equal, strings included, on clean complexes, on algebras whose
table has one corrupted product, and on complexes with one corrupted
coefficient.  Both complex checks are deterministic: their ``rng`` and
``probes`` arguments change nothing, and the associativity entry of
``check_exactness`` is held to a loop over every basis triple.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from tamecoh import field as field_module
from tamecoh import resolution as resolution_module
from tamecoh.algebra import Algebra, AlgebraError
from tamecoh.cohomology import (
    cochain_derivation,
    check_hh1_against_derivations,
    derivation_from_arrow_values,
    derivation_space,
    derivation_system,
    hh,
    inner_derivation_space,
)
from tamecoh.families import make
from tamecoh.field import (CHUNK_CELLS, Field, Subspace, image_basis, kernel_space, matmul, matvec,
                           rank)
from tamecoh.fixtures import FIXTURE_FAMILIES, fixtures_for
from tamecoh.lie import bracket, check_bracket_table, from_cohomology
from tamecoh.resolution import FULL_EXACTNESS_LIMIT, ResolutionSpec, TensorExpr

GF2, GF3, GF4, GF8, GF9 = Field(2), Field(3), Field(2, 2), Field(2, 3), Field(3, 2)


# ---------------------------------------------------------------------------
# references: the per-product loops
# ---------------------------------------------------------------------------


def ref_xi_extend(alg, values, elem):
    """A basis word maps to the sum over its arrow positions of
    (prefix) value (suffix); idempotent words map to zero."""
    f = alg.field
    q = alg.quiver
    acc = alg.zero()
    for i in np.nonzero(elem)[0]:
        w = alg.basis[i]
        arrows = w.arrows
        for pos, aj in enumerate(arrows):
            pre = alg.element([(1, q.word_from_indices(arrows[:pos], source=w.source))])
            post = alg.element(
                [(1, q.word_from_indices(arrows[pos + 1:], source=q.arrows[aj].target))])
            term = alg.multiply(alg.multiply(pre, values[aj]), post)
            acc = f.add(acc, f.mul(int(elem[i]), term))
    return acc


def ref_cochain_derivation(res, vec):
    alg = res.algebra
    values = res.unpack_cochain(1, vec)
    return np.array([ref_xi_extend(alg, values, alg.basis_vector(i))
                     for i in range(alg.dim)], dtype=np.int64).T


def ref_bracket(res, u, v):
    f = res.algebra.field
    m2 = res.induced_matrix(2)
    for w in (u, v):
        if np.any(matvec(f, m2, w)):
            raise AlgebraError("not a cocycle")
    uvals, vvals = res.unpack_cochain(1, u), res.unpack_cochain(1, v)
    out = [f.sub(ref_xi_extend(res.algebra, uvals, vvals[j]),
                 ref_xi_extend(res.algebra, vvals, uvals[j]))
           for j in range(len(uvals))]
    out = res.pack_cochain(1, out)
    if np.any(matvec(f, m2, out)):
        raise AlgebraError("bracket of cocycles failed to be a cocycle")
    return out


def ref_compose_pair(res, upper_degree, gen):
    alg = res.algebra
    f = alg.field
    n = alg.dim
    lower = res.diff_at(upper_degree - 1)
    acc = [np.zeros((n, n), dtype=np.int64)
           for _ in res.summands_at(upper_degree - 2)]
    for s_idx, l, r in res.diff_at(upper_degree)[gen].terms:
        for t_idx, l2, r2 in lower[s_idx].terms:
            left = alg.multiply(l, l2)
            right = alg.multiply(r2, r)
            acc[t_idx] = f.add(acc[t_idx], f.mul(left[:, None], right[None, :]))
    return acc


def ref_check_complex(res):
    alg = res.algebra
    f = alg.field
    entries = []
    top = res.depth + (1 if res.periodic else 0)
    for degree in range(2, top + 1):
        for gen in range(len(res.diff_at(degree))):
            bad = [i for i, m in enumerate(ref_compose_pair(res, degree, gen)) if m.any()]
            entries.append((f"d{degree - 1}.d{degree} generator {gen}", not bad,
                            "" if not bad else f"nonzero in summands {bad}"))
    for gen, expr in enumerate(res.diff_at(1)):
        acc = alg.zero()
        for _, l, r in expr.terms:
            acc = f.add(acc, alg.multiply(l, r))
        entries.append((f"d0.d1 generator {gen}", not acc.any(), ""))
    return {"passed": all(e[1] for e in entries), "entries": entries}


def kron(f, a, b):
    """Kronecker product with entries multiplied in the field."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = f.mul(a[:, None, :, None], b[None, :, None, :])
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def ref_assemble(f, row_sizes, col_sizes, blocks):
    """Sum of (row block, column block, matrix) contributions in one matrix."""
    roff = np.cumsum([0, *row_sizes])
    coff = np.cumsum([0, *col_sizes])
    mat = np.zeros((int(roff[-1]), int(coff[-1])), dtype=np.int64)
    for r, c, block in blocks:
        view = mat[roff[r]:roff[r + 1], coff[c]:coff[c + 1]]
        view[...] = f.add(view, block)
    return mat


def ref_bimodule_pairs(res, degree):
    alg = res.algebra
    return [(alg.window(None, s.left), alg.window(s.right, None))
            for s in res.summands_at(degree)]


def ref_full_matrix(res, degree):
    """The differential on the underlying vector spaces, densely: a term
    l (x)_s r of generator t adds the Kronecker product of the window blocks
    of R_l and L_r at (s, t)."""
    alg = res.algebra
    dom = ref_bimodule_pairs(res, degree)
    cod = ref_bimodule_pairs(res, degree - 1)
    blocks = (
        (s, t, kron(alg.field,
                    alg.right_mult_matrix(l)[np.ix_(cod[s][0], dom[t][0])],
                    alg.left_mult_matrix(r)[np.ix_(cod[s][1], dom[t][1])]))
        for t, expr in enumerate(res.diff_at(degree))
        for s, l, r in expr.terms
    )
    return ref_assemble(alg.field, (len(a) * len(b) for a, b in cod),
                        (len(a) * len(b) for a, b in dom), blocks)


def ref_one_sided_matrix(res, vertex, degree):
    """The induced right-module complex S_vertex (x) Q, densely: only the
    summands starting at the vertex survive, and a term l (x) r acts as left
    multiplication by r scaled by the idempotent coefficient of l."""
    alg = res.algebra
    f = alg.field
    e_v = alg.index[alg.quiver.idempotent_word(vertex)]
    cod = {i: alg.window(s.right, None)
           for i, s in enumerate(res.summands_at(degree - 1)) if s.left == vertex}
    dom = {i: alg.window(s.right, None)
           for i, s in enumerate(res.summands_at(degree)) if s.left == vertex}
    row_pos = {s: pos for pos, s in enumerate(cod)}
    blocks = (
        (row_pos[s], col,
         f.mul(alg.left_mult_matrix(r)[np.ix_(cod[s], dom[t])], int(l[e_v])))
        for col, t in enumerate(dom)
        for s, l, r in res.diff_at(degree)[t].terms
        if s in cod and l[e_v]
    )
    return ref_assemble(f, map(len, cod.values()), map(len, dom.values()), blocks)


def ref_induced_matrix(res, degree):
    """The cochain map densely: a term l (x)_s r of generator t adds the
    window block of L_l R_r at (t, s)."""
    alg = res.algebra
    dom, cod = res.cochain_coords(degree - 1), res.cochain_coords(degree)
    blocks = ((t, s, matmul(alg.field, alg.left_mult_matrix(l)[cod[t]],
                            alg.right_mult_matrix(r)[:, dom[s]]))
              for t, expr in enumerate(res.diff_at(degree)) for s, l, r in expr.terms)
    return ref_assemble(alg.field, map(len, cod), map(len, dom), blocks)


def ref_full_matrix_aug(res):
    alg = res.algebra
    cols = [alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
            for ii, jj in ref_bimodule_pairs(res, 0) for i in ii for j in jj]
    return np.array(cols, dtype=np.int64).T


def dense(rows, cols, codes, shape):
    """The dense matrix of a sparse one, whose entries must sit at distinct
    positions and be nonzero."""
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    assert np.all(codes != 0)
    out = np.zeros(shape, dtype=np.int64)
    out[rows, cols] = codes
    return out


def ref_check_exactness(res, full_limit=30):
    alg = res.algebra
    f = alg.field
    entries = []
    top = res.depth + (1 if res.periodic else 0)
    if alg.dim <= full_limit:
        aug = ref_full_matrix_aug(res)
        entries.append(("augmentation surjective", rank(f, aug) == alg.dim, ""))
        mats = {0: aug} | {d: ref_full_matrix(res, d) for d in range(1, top + 1)}
        prev_ker = kernel_space(f, aug)
        for d in range(1, top + 1):
            im = Subspace(f, mats[d].shape[0], mats[d].T)
            good = im == prev_ker
            entries.append((f"im d{d} = ker d{d - 1} (full bimodule spaces)", good,
                            "" if good else f"dims {im.dim} vs {prev_ker.dim}"
                            + ref_product_note(f, mats[d - 1], mats[d], d - 1)))
            prev_ker = kernel_space(f, mats[d])
        if res.periodic:
            entries.append(("wrap-in map has rank dim(A)",
                            rank(f, mats[res.depth]) == alg.dim, ""))
    for v in range(alg.quiver.n_vertices):
        mats = {d: ref_one_sided_matrix(res, v, d) for d in range(1, top + 1)}
        entries.append((f"one-sided complex at vertex {v}: im d1 = rad",
                        rank(f, mats[1]) == len(alg.window(v, None)) - 1, ""))
        for d in range(1, top):
            a, b = mats[d], mats[d + 1]
            prod_zero = not matmul(f, a, b).any() if a.size and b.size else True
            ker = kernel_space(f, a)
            im = Subspace(f, b.shape[0], b.T)
            good = prod_zero and im == ker
            entries.append((f"one-sided exactness at vertex {v}, degree {d}", good,
                            "" if good else f"ker {ker.dim} vs im {im.dim}"
                            + ref_product_note(f, a, b, d)))
    entries.append(ref_associativity(alg))
    return {"passed": all(e[1] for e in entries), "entries": entries}


def ref_product_note(f, a, b, d):
    """What a failing exactness entry adds when the dense product d_d d_(d+1)
    is nonzero."""
    nonzero = matmul(f, a, b).any() if a.size and b.size else False
    return f", product d{d} d{d + 1} nonzero" if nonzero else ""


def ref_associativity(alg):
    """(b_i b_j) b_k against b_i (b_j b_k), triple by triple in (i, j, k)
    order; the first that differs is named as ``Algebra.validate`` names it."""
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    mul = alg.multiply
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        if not np.array_equal(mul(mul(basis[i], basis[j]), basis[k]),
                              mul(basis[i], mul(basis[j], basis[k]))):
            return ("associativity on every basis triple", False,
                    f"associativity fails at basis triple ({i}, {j}, {k})")
    return ("associativity on every basis triple", True, "")


def ref_derivation_space(alg):
    """The Leibniz system block by block: three Kronecker products for each
    (generator, basis element) pair."""
    f = alg.field
    n = alg.dim
    eye = np.eye(n, dtype=np.int64)
    blocks = []
    for g in alg.generators():
        rg = alg.right_mult_matrix(g)
        for i in range(n):
            b = alg.basis_vector(i)
            block = kron(f, eye, alg.multiply(b, g)[None, :])
            block = f.sub(block, kron(f, rg, eye[i][None, :]))
            blocks.append(f.sub(block, kron(f, alg.left_mult_matrix(b), g[None, :])))
    return kernel_space(f, np.vstack(blocks))


def ref_inner_derivation_space(alg):
    f = alg.field
    cols = np.zeros((alg.dim ** 2, alg.dim), dtype=np.int64)
    for i in range(alg.dim):
        b = alg.basis_vector(i)
        cols[:, i] = f.sub(alg.left_mult_matrix(b), alg.right_mult_matrix(b)).reshape(-1)
    return image_basis(f, cols)


def ref_centre(alg):
    """The centre as the common kernel of L_g - R_g over the generators."""
    f = alg.field
    conds = [f.sub(alg.left_mult_matrix(g), alg.right_mult_matrix(g)) for g in alg.generators()]
    return kernel_space(f, np.vstack(conds))


def ref_check_hh1(res):
    alg = res.algebra
    f = alg.field
    space = hh(res, 1)
    der = ref_derivation_space(alg)
    inn = ref_inner_derivation_space(alg)
    mapped = Subspace(f, alg.dim ** 2,
                      [ref_cochain_derivation(res, r).reshape(-1) for r in space.cocycles.rows])
    cob = Subspace(f, alg.dim ** 2,
                   [ref_cochain_derivation(res, r).reshape(-1) for r in space.coboundaries.rows])
    entries = [("cocycles extend to derivations", der.contains_space(mapped)),
               ("coboundaries are inner", inn.contains_space(cob)),
               ("cocycles and inner derivations span Der", mapped.sum(inn) == der),
               ("quotient dimensions agree", space.dim == der.dim - inn.dim)]
    return {"passed": all(e[1] for e in entries), "entries": entries,
            "hh1_dim": space.dim, "der_dim": der.dim, "inn_dim": inn.dim}


def ref_check_bracket_table(space, fix):
    f = fix.field
    entries = []
    for a in fix.basis:
        for b in fix.basis:
            if a == b:
                continue
            computed = ref_bracket(space.resolution, fix.vec(a), fix.vec(b))
            if (a, b) in fix.brackets:
                expected = fix.vec(fix.brackets[(a, b)])
            elif (b, a) in fix.brackets:
                expected = f.neg(fix.vec(fix.brackets[(b, a)]))
            else:
                expected = fix.vec({})
            entries.append((a, b, bool(space.same_class(computed, expected))))
    return {"passed": all(e[2] for e in entries), "entries": entries}


# ---------------------------------------------------------------------------
# the three variants of each instance
# ---------------------------------------------------------------------------


def with_corrupted_table(res):
    """The same complex over a copy of the algebra whose table loses one
    product of two arrow paths: the first in the list whose left factor
    has length two or more, all of its entries."""
    alg = res.algebra
    bad = Algebra(alg.field, alg.quiver, alg.rules)
    x, y, z, c = bad.table
    e = next(e for e in range(len(x)) if len(bad.basis[x[e]]) >= 2 and len(bad.basis[y[e]]))
    keep = (x != x[e]) | (y != y[e])
    bad._table = x[keep], y[keep], z[keep], c[keep]
    return ResolutionSpec(bad, res.summands, res.diffs, relations=res.relations,
                          periodic=res.periodic)


def with_corrupted_coefficient(res):
    """The first degree-2 term with its left factor doubled, as in the
    benchmark's negative control."""
    p = res.algebra.field.p
    diffs = list(res.diffs)
    first = diffs[2][0]
    s_idx, left, right = first.terms[0]
    bad = TensorExpr(first.terms)
    bad.terms[0] = (s_idx, (2 * left) % p, right)
    diffs[2] = [bad] + list(diffs[2][1:])
    return ResolutionSpec(res.algebra, res.summands, diffs, relations=res.relations,
                          periodic=res.periodic)


INSTANCES = {
    "SD2B1(2,2)/GF(3)": ("SD2B1", GF3, dict(k=2, s=2, c=0)),
    "SD1A2(2,1,1)/GF(4)": ("SD1A2", GF4, dict(k=2, c=1, d=1)),
    "Q1A2(4,1,1)/GF(2)": ("Q1A2", GF2, dict(k=4, c=1, d=1)),
    "SD1A2(2,2,1)/GF(8)": ("SD1A2", GF8, dict(k=2, c=2, d=1)),
}
VARIANTS = {
    "clean": lambda res: res,
    "corrupted table": with_corrupted_table,
    "corrupted coefficient": with_corrupted_coefficient,
}


def variant(case, kind):
    family, field, params = INSTANCES[case]
    inst = make(family, field, **params)
    res = inst.resolution
    fresh = ResolutionSpec(res.algebra, res.summands, res.diffs,
                           relations=res.relations, periodic=res.periodic)
    return inst, VARIANTS[kind](fresh)


def outcome(fn, *args):
    """A report, or the type and message of what the call raised."""
    try:
        return fn(*args)
    except AlgebraError as err:
        return (type(err).__name__, str(err))


CASES = [(case, kind) for case in INSTANCES for kind in VARIANTS]


@pytest.mark.parametrize("case,kind", CASES)
def test_check_complex_matches_loops(case, kind):
    _, res = variant(case, kind)
    got = res.check_complex(random.Random(1), probes=60)
    assert got == ref_check_complex(res)
    if kind != "corrupted table":
        assert got["passed"] == (kind == "clean")


@pytest.mark.parametrize("case,kind", CASES)
def test_check_exactness_matches_loops(case, kind):
    _, res = variant(case, kind)
    got = res.check_exactness(random.Random(1), probes=40)
    assert got == ref_check_exactness(res)
    if kind != "clean":
        assert not got["passed"]


@pytest.mark.parametrize("case", INSTANCES)
def test_associativity_entry_names_the_triple_validate_names(case):
    """A corrupted table fails the last exactness entry with the message
    ``validate`` raises; clean tables and corrupted coefficients pass it."""
    for kind in VARIANTS:
        _, res = variant(case, kind)
        entry = res.check_exactness()["entries"][-1]
        assert entry[0] == "associativity on every basis triple"
        if kind == "corrupted table":
            with pytest.raises(AlgebraError) as err:
                res.algebra.validate()
            assert entry == ("associativity on every basis triple", False, str(err.value))
            assert str(err.value).startswith("associativity fails at basis triple (")
        else:
            assert entry == ("associativity on every basis triple", True, "")


@pytest.mark.parametrize("case,kind", CASES)
def test_reports_do_not_depend_on_rng_or_probes(case, kind):
    _, res = variant(case, kind)
    for check in (res.check_complex, res.check_exactness):
        want = check()
        for rng in (random.Random(1), random.Random(2), None):
            for probes in (0, 5, 2000):
                assert check(rng, probes=probes) == want


def with_spilled_factors(res):
    """The same summands with every factor of every term plus the unit, so
    that the factors leave their corners e_i A e_j: the matrices must still
    keep to the windows of the summands."""
    alg = res.algebra
    f = alg.field
    diffs = [None] + [[TensorExpr([(s, f.add(l, alg.one()), f.add(r, alg.one()))
                                   for s, l, r in expr.terms]) for expr in gens]
                      for gens in res.diffs[1:]]
    return ResolutionSpec(alg, res.summands, diffs, periodic=res.periodic)


@pytest.mark.parametrize("case,kind", CASES + [(case, "spilled") for case in INSTANCES])
def test_sparse_matrices_match_the_dense_references(case, kind):
    """The entries of full_matrix, at every vertex and in every degree
    through the periodic wrap, and of full_matrix_aug are the dense loops',
    and so is induced_matrix."""
    if kind == "spilled":
        _, res = variant(case, "clean")
        res = with_spilled_factors(res)
    else:
        _, res = variant(case, kind)
    top = res.depth + (1 if res.periodic else 0)
    assert np.array_equal(dense(*res.full_matrix_aug()), ref_full_matrix_aug(res))
    for d in range(1, 2 * top + 1 if res.periodic else top + 1):
        assert np.array_equal(dense(*res.full_matrix(d)), ref_full_matrix(res, d))
        for v in range(res.algebra.quiver.n_vertices):
            assert np.array_equal(dense(*res.full_matrix(d, vertex=v)),
                                  ref_one_sided_matrix(res, v, d))
        assert np.array_equal(res.induced_matrix(d), ref_induced_matrix(res, d))


@pytest.mark.parametrize("path", ["full", "one-sided"])
def test_exactness_catches_a_nonzero_product_at_matching_ranks(path, monkeypatch):
    """d1 with its columns reversed has the same rank, so every rank count
    still matches; only d1 d2 != 0 shows that im d2 is not ker d1."""
    _, res = variant("SD2B1(2,2)/GF(3)", "clean")
    f = res.algebra.field
    if path == "full":
        target, failing = None, "im d2 = ker d1 (full bimodule spaces)"
        ref_name, ref_where = "ref_full_matrix", (1,)
    else:
        target, failing = 0, "one-sided exactness at vertex 0, degree 1"
        ref_name, ref_where = "ref_one_sided_matrix", (0, 1)
    build, ref_build = res.full_matrix, globals()[ref_name]

    def patched(degree, vertex=None):
        rows, cols, codes, shape = build(degree, vertex)
        if (degree, vertex) == (1, target):
            cols = shape[1] - 1 - cols
        return rows, cols, codes, shape

    def ref_patched(res, *where):
        mat = ref_build(res, *where)
        return mat[:, ::-1] if where == ref_where else mat

    d2 = dense(*build(2, target))
    assert matmul(f, dense(*patched(1, target)), d2).any()
    monkeypatch.setattr(res, "full_matrix", patched)
    # the reference reads the same reversed d1
    monkeypatch.setitem(globals(), ref_name, ref_patched)
    got = res.check_exactness(random.Random(1), probes=10)
    failed = [(label, msg) for label, good, msg in got["entries"] if not good]
    r2 = rank(f, d2)
    counts = f"dims {r2} vs {r2}" if path == "full" else f"ker {r2} vs im {r2}"
    assert failed == [(failing, counts + ", product d1 d2 nonzero")]
    assert got == ref_check_exactness(res)


@pytest.mark.parametrize("family,field,params", [
    ("SD2B1", GF3, dict(k=2, s=2, c=0)),   # dim 20: full and one-sided paths
    ("Q1A2", GF2, dict(k=4, c=1, d=1)),    # dim 16, periodic: the wrap-in reads the same ranks
    ("SD2B1", GF3, dict(k=3, s=4, c=0)),   # dim 31: one-sided path only
])
def test_exactness_eliminates_each_matrix_once(family, field, params, monkeypatch):
    """Every system the check builds is ranked by block_rank exactly once,
    and rref sees only the chunks of block_eliminate: no kernel or image
    subspace is formed."""
    res = make(family, field, **params).resolution
    res = ResolutionSpec(res.algebra, res.summands, res.diffs, periodic=res.periodic)
    built, ranked, chunks, rref_calls = [], [], [], []
    for name in ("full_matrix_aug", "full_matrix"):
        def record(*args, build=getattr(res, name), **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]
        monkeypatch.setattr(res, name, record)
    block_rank, block_eliminate = resolution_module.block_rank, field_module.block_eliminate
    rref = field_module.rref

    def eliminate(f, rows, cols, codes):
        for chunk in block_eliminate(f, rows, cols, codes):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(resolution_module, "block_rank",
                        lambda f, rows, cols, codes: ranked.append(rows) or block_rank(f, rows, cols, codes))
    monkeypatch.setattr(field_module, "block_eliminate", eliminate)
    monkeypatch.setattr(field_module, "rref", lambda f, mat: rref_calls.append(mat) or rref(f, mat))
    assert res.check_exactness(random.Random(0), probes=5)["passed"]
    top = res.depth + res.periodic
    full = 1 + top if res.algebra.dim <= FULL_EXACTNESS_LIMIT else 0
    assert len(built) == full + res.algebra.quiver.n_vertices * top
    assert sorted(map(id, ranked)) == sorted(id(rows) for rows, _, _, _ in built)
    assert len(rref_calls) == len(chunks) >= len(built)


def ref_blocks(rows, cols):
    """Connected blocks of the row-column graph of some entries, by
    union-find: (rows, columns) of each block."""
    parent = {}

    def root(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for r, c in zip(rows.tolist(), cols.tolist()):
        parent[root(("r", r))] = root(("c", c))
    blocks = {}
    for x in list(parent):
        blocks.setdefault(root(x), set()).add(x)
    return [(sum(k == "r" for k, _ in b), sum(k == "c" for k, _ in b)) for b in blocks.values()]


def test_derivation_space_hands_rref_only_bounded_chunks(monkeypatch):
    """On SD2B1(3,4)/GF(3) the Leibniz system reaches rref in chunks of whole
    blocks, none with more cells than CHUNK_CELLS unless one block has more."""
    alg = make("SD2B1", GF3, k=3, s=4, c=0).algebra
    n = alg.dim
    _, gens = np.nonzero(alg.generators())
    rows, cols, _ = derivation_system(alg.field, n, alg.table,
                                      (np.repeat(np.arange(n), len(gens)), np.tile(gens, n)), 1)
    blocks = ref_blocks(rows, cols)
    assert max(w for _, w in blocks) == 29
    bound = max([CHUNK_CELLS] + [h * w for h, w in blocks])
    shapes = []
    rref = field_module.rref
    monkeypatch.setattr(field_module, "rref",
                        lambda f, mat: shapes.append(np.shape(mat)) or rref(f, mat))
    der = derivation_space(alg)
    assert der.dim == 30
    assert 1 < len(shapes) < len(blocks)
    assert max(r * c for r, c in shapes) <= bound


@pytest.mark.parametrize("case,kind", CASES)
def test_oracle_matches_loops(case, kind):
    _, res = variant(case, kind)
    assert derivation_space(res.algebra) == ref_derivation_space(res.algebra)
    assert inner_derivation_space(res.algebra) == ref_inner_derivation_space(res.algebra)
    assert res.algebra.center() == ref_centre(res.algebra)
    assert outcome(check_hh1_against_derivations, res) == outcome(ref_check_hh1, res)


def bracket_table_outcome(check, res, fix):
    space = outcome(hh, res, 1)
    return space if isinstance(space, tuple) else outcome(check, space, fix)


@pytest.mark.parametrize("case,kind", [c for c in CASES if INSTANCES[c[0]][0] in FIXTURE_FAMILIES])
def test_bracket_table_matches_loops(case, kind):
    inst, res = variant(case, kind)
    fix = fixtures_for(inst)
    got = bracket_table_outcome(check_bracket_table, res, fix)
    assert got == bracket_table_outcome(ref_check_bracket_table, res, fix)
    if kind == "clean":
        assert got["passed"]


@pytest.mark.parametrize("case", [c for c in INSTANCES if INSTANCES[c][0] in FIXTURE_FAMILIES])
def test_bracket_table_with_corrupted_fixtures_matches_loops(case):
    inst, res = variant(case, "clean")
    fix = fixtures_for(inst)
    space = hh(res, 1)
    first = next(iter(fix.brackets))
    wrong = dataclasses.replace(
        fix, brackets={k: v for k, v in fix.brackets.items() if k != first})
    got = check_bracket_table(space, wrong)
    assert got == ref_check_bracket_table(space, wrong)
    assert not got["passed"]
    outside = next(e for e in np.eye(res.hom_dim(1), dtype=np.int64)
                   if not space.cocycles.contains(e))
    broken = dataclasses.replace(fix, cochains={**fix.cochains, fix.basis[0]: outside})
    assert outcome(check_bracket_table, space, broken) == ("AlgebraError", "not a cocycle")
    assert outcome(ref_check_bracket_table, space, broken) == ("AlgebraError", "not a cocycle")


# ---------------------------------------------------------------------------
# derivation matrices and brackets
# ---------------------------------------------------------------------------


DERIVATION_CASES = [
    ("D1A2", GF2, dict(k=2, d=0)),
    ("SD2B1", GF3, dict(k=2, s=2, c=0)),
    ("Q1A2", GF4, dict(k=2, c=2, d=3)),
    ("SD1A2", GF8, dict(k=2, c=2, d=1)),
    ("Q2B1", GF3, dict(k=2, s=3, a=1, c=0)),
    ("SD2B2", GF2, dict(k=2, s=2, c=1)),
    ("SD2B1", GF9, dict(k=2, s=2, c=0)),
]


@pytest.mark.parametrize("family,field,params", DERIVATION_CASES)
def test_cochain_derivation_matches_per_position_loop(family, field, params):
    res = make(family, field, **params).resolution
    alg = res.algebra
    rng = random.Random(12)
    # cocycles and arbitrary cochains alike
    stack = np.vstack([hh(res, 1).cocycles.rows[:4],
                       field.rand(rng, (3, res.hom_dim(1))),
                       np.zeros((1, res.hom_dim(1)), dtype=np.int64)])
    mats = cochain_derivation(res, stack)
    assert mats.shape == (len(stack), alg.dim, alg.dim)
    for vec, mat in zip(stack, mats):
        want = ref_cochain_derivation(res, vec)
        assert np.array_equal(cochain_derivation(res, vec), want)
        assert np.array_equal(mat, want)
        assert np.array_equal(
            derivation_from_arrow_values(alg, res.unpack_cochain(1, vec)), want)
    assert cochain_derivation(res, stack[:0]).shape == (0, alg.dim, alg.dim)
    grid = stack[:6].reshape(2, 3, -1)
    assert np.array_equal(cochain_derivation(res, grid), mats[:6].reshape(2, 3, alg.dim, alg.dim))


def test_cochain_derivation_needs_arrow_summands_in_arrow_order():
    res = make("SD2B1", GF3, k=2, s=2, c=0).resolution
    swapped = ResolutionSpec(res.algebra, [res.summands[0], res.summands[1][::-1]],
                             res.diffs[:2])
    with pytest.raises(AlgebraError, match="not the arrow windows"):
        cochain_derivation(swapped, np.zeros(swapped.hom_dim(1), dtype=np.int64))
    with pytest.raises(AlgebraError, match="one value per arrow"):
        derivation_from_arrow_values(res.algebra, res.unpack_cochain(1, np.zeros(
            res.hom_dim(1), dtype=np.int64))[1:])


@pytest.mark.parametrize("family,field,params", DERIVATION_CASES)
def test_brackets_match_per_position_loop(family, field, params):
    res = make(family, field, **params).resolution
    space = hh(res, 1)
    reps = space.representatives()
    for u in reps[:3]:
        for v in reps[:4]:
            assert np.array_equal(bracket(res, u, v), ref_bracket(res, u, v))
    lie = from_cohomology(space)
    n = space.dim
    for i in range(n):
        for j in range(n):
            want = space.class_coords(ref_bracket(res, reps[i], reps[j]))
            assert np.array_equal(lie.structure[i, j], want)


def test_bracket_rejects_non_cocycles():
    res = make("D1A2", GF2, k=2, d=0).resolution
    space = hh(res, 1)
    n = res.hom_dim(1)
    outside = next(e for e in np.eye(n, dtype=np.int64) if not space.cocycles.contains(e))
    with pytest.raises(AlgebraError, match="not a cocycle"):
        bracket(res, space.representatives()[0], outside)
