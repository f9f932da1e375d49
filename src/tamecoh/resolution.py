"""Free-bimodule complexes with explicit differentials, plus their checks.

A complex is a list of free summands ``A e_i (x) e_j A`` per degree together
with, for every degree-n generator, the image of ``e_i (x) e_j`` under the
differential, stored as a sum of terms ``l (x)_s r`` whose factors are
algebra elements and where ``s`` indexes a degree-(n-1) summand.

Degrees 0..2 are produced uniformly: the degree-1 map sends the generator of
the arrow summand to ``arrow (x) e - e (x) arrow``, and the degree-2 map is
the position-by-position tensor expansion of each defining relation (for a
word a1..an, the sum over j of prefix (x)_{a_j} suffix).  The 4-periodic
local quaternion complex extends this with explicit degree-3 and degree-4
maps and wraps around for higher degrees.

Matrices are built from terms: the nonzero coefficients of the factors of
all terms are joined with the algebra's list of nonzero structure constants,
and products at one position are summed in the field, into a dense matrix
(``induced_matrix``) or a sparse one (rows, cols, codes, shape).
``full_matrix`` gives a differential on the underlying vector spaces; at a
vertex v it gives S_v (x)_A Q, the slice on the pairs whose left factor is e_v.

Verification is exact and deterministic: the complex property (d.d = 0 on
every generator), minimality (all images in rad*Q + Q*rad), and exactness by
ranks through ``field.block_rank`` (lone entries peeled, then blocks), on the
full matrices when the algebra is small and on the one-sided complexes of the
simple modules at any size, with associativity on every basis triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, AlgebraError
from .field import block_rank, dense_sums, join, matmul, nonzero_sums, product_vanishes

# algebras up to this dimension also get exactness checked on the full
# bimodule matrices, whose size grows as dim(A)^2 per summand
FULL_EXACTNESS_LIMIT = 30


@dataclass(frozen=True)
class FreeSummand:
    """The free bimodule summand A e_left (x) e_right A."""

    left: int
    right: int
    label: str


class TensorExpr:
    """A finite sum of tensors l (x)_s r with coefficients folded into l."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = list(terms)

    def add_term(self, field, summand: int, left_vec, right_vec, coeff=1):
        coeff = field.code(coeff)
        if coeff == 0:
            return
        if coeff != 1:
            left_vec = field.mul(left_vec, coeff)
        self.terms.append((summand, np.array(left_vec), np.array(right_vec)))

    def __len__(self) -> int:
        return len(self.terms)


def _assemble(field, rows, cols, codes, shape):
    """A sparse matrix (rows, cols, codes, shape) from unsummed terms: codes
    at one position are summed in the field, and zero sums dropped."""
    keys, sums = nonzero_sums(field, rows * shape[1] + cols, codes)
    return keys // shape[1], keys % shape[1], sums, shape


def _mult_terms(alg: Algebra, elems, left: bool, rows_ok, cols_ok):
    """Unsummed entries (k, row, col, code) of the matrices of x -> u_k x
    (left) or x -> x u_k for a stack of elements u_k, one per nonzero
    coefficient of u_k and structure constant it meets, where the masks
    rows_ok[k, row] and cols_ok[k, col] hold."""
    k, i = np.nonzero(elems)
    x, y, z, c = alg.table
    a, e = join(i, x if left else y)
    k, row, col = k[a], z[e], (y if left else x)[e]
    keep = rows_ok[k, row] & cols_ok[k, col]
    codes = alg.field.mul(elems[k, i[a]], c[e])
    return k[keep], row[keep], col[keep], codes[keep]


def _report(entries) -> dict:
    """A check's (label, good, message) entries, passed when all are good."""
    return {"passed": all(good for _, good, _ in entries), "entries": entries}


def _padded(groups, k: int, n: int) -> np.ndarray:
    """k stacks of shape (len(groups), width, n): slot [g, j] of stack i holds
    element i of the j-th tuple of group g, and unused slots hold zero."""
    grid = np.zeros((k, len(groups), max(map(len, groups), default=0), n), dtype=np.int64)
    for g, group in enumerate(groups):
        for j, elems in enumerate(group):
            grid[:, g, j] = elems
    return grid


def _slot_sums(field, stack) -> np.ndarray:
    """Field sums over the slot axis of a (groups, width, n) stack."""
    return matmul(field, np.ones((1, stack.shape[1]), dtype=np.int64), stack)[:, 0]


def arrow_summands(alg: Algebra):
    return [FreeSummand(a.source, a.target, a.name) for a in alg.quiver.arrows]


def vertex_summands(alg: Algebra):
    q = alg.quiver
    return [FreeSummand(v, v, q.vertex_labels[v]) for v in range(q.n_vertices)]


def diff1(alg: Algebra):
    """Per arrow: arrow (x) e_target - e_source (x) arrow, into degree 0."""
    f = alg.field
    out = []
    for a_idx, a in enumerate(alg.quiver.arrows):
        expr = TensorExpr()
        vec = alg.basis_vector(alg.index[alg.quiver.word_from_indices((a_idx,))])
        expr.add_term(f, a.target, vec, alg.idempotent(a.target))
        expr.add_term(f, a.source, alg.idempotent(a.source), vec, coeff=f.neg(1))
        out.append(expr)
    return out


def expand_relation(alg: Algebra, combo) -> TensorExpr:
    """Tensor expansion of a linear combination of paths into arrow summands.

    ``combo`` is a list of (coefficient, arrow-index word) pairs.  Each word
    a1..an contributes, for every position j, the term
    prefix (x)_{a_j} suffix, all factors reduced to normal form.
    """
    f = alg.field
    q = alg.quiver
    expr = TensorExpr()
    for coeff, word in combo:
        word = tuple(word)
        if not word:
            raise AlgebraError("cannot expand an idempotent term of a relation")
        for j, a_idx in enumerate(word):
            prefix = word[:j]
            suffix = word[j + 1 :]
            src = q.arrows[word[0]].source
            left = alg.element([(1, q.word_from_indices(prefix, source=src))])
            right = alg.element(
                [(1, q.word_from_indices(suffix, source=q.arrows[a_idx].target))]
            )
            expr.add_term(f, a_idx, left, right, coeff=coeff)
    return expr


class ResolutionSpec:
    """Summands and differentials of an explicit bimodule complex.

    ``summands[n]`` lists the degree-n free summands and ``diffs[n]`` (n >= 1)
    holds one TensorExpr per degree-n generator, with term indices referring
    to ``summands[n-1]`` (ValueError otherwise).  A ``periodic`` complex has
    period 4: degree n > 4 reuses degree ((n-1) mod 4) + 1.
    """

    def __init__(self, algebra: Algebra, summands, diffs, relations=None,
                 periodic: bool = False):
        if len(diffs) != len(summands):
            raise ValueError(f"{len(summands)} degrees of summands but {len(diffs)} of diffs")
        for n in range(1, len(summands)):
            used = {s for expr in diffs[n] for s, _, _ in expr.terms}
            if len(diffs[n]) != len(summands[n]) or not used <= set(range(len(summands[n - 1]))):
                raise ValueError(
                    f"degree {n} has {len(diffs[n])} generator images for {len(summands[n])} "
                    f"summands, with terms in summands {sorted(used)} of {len(summands[n - 1])}")
        self.algebra = algebra
        self.summands = summands
        self.diffs = diffs
        self.relations = relations or []
        self.periodic = periodic
        self.depth = len(summands) - 1
        self._cochain_cache: dict[int, list] = {}
        self._induced_cache: dict[int, np.ndarray] = {}

    # -- degree bookkeeping ------------------------------------------------

    def _fold(self, degree: int) -> int:
        if degree < 0:
            raise AlgebraError("negative degree")
        if degree <= self.depth:
            return degree
        if self.periodic:
            return (degree - 1) % self.depth + 1
        raise AlgebraError(
            f"degree unavailable: this complex stops at degree {self.depth}"
        )

    def summands_at(self, degree: int):
        return self.summands[self._fold(degree)]

    def diff_at(self, degree: int):
        d = self._fold(degree)
        if d == 0:
            raise AlgebraError("degree unavailable: no differential into degree -1")
        return self.diffs[d]

    # -- cochain spaces Hom(Q^n, A) ---------------------------------------

    def cochain_coords(self, degree: int):
        """Per summand, the basis indices of e_left A e_right."""
        d = self._fold(degree)
        if d not in self._cochain_cache:
            self._cochain_cache[d] = [self.algebra.window(s.left, s.right)
                                      for s in self.summands[d]]
        return self._cochain_cache[d]

    def hom_dim(self, degree: int) -> int:
        return sum(len(b) for b in self.cochain_coords(degree))

    def _slots(self, degree: int):
        """The summand and the basis index of each cochain coordinate."""
        blocks = self.cochain_coords(degree)
        return (np.repeat(np.arange(len(blocks)), list(map(len, blocks))),
                np.array([i for block in blocks for i in block], dtype=np.int64))

    def unpack_cochain(self, degree: int, vecs) -> np.ndarray:
        """Coordinate vectors of shape (..., hom_dim) as summand values of
        shape (..., summands, n), one algebra element per summand."""
        summand, idx = self._slots(degree)
        vecs = np.asarray(vecs, dtype=np.int64)
        out = np.zeros((*vecs.shape[:-1], len(self.summands_at(degree)), self.algebra.dim),
                       dtype=np.int64)
        out[..., summand, idx] = vecs
        return out

    def pack_cochain(self, degree: int, values) -> np.ndarray:
        """Summand values of shape (..., summands, n) as coordinate vectors
        (..., hom_dim); entries outside the windows are dropped."""
        summand, idx = self._slots(degree)
        return np.asarray(values, dtype=np.int64)[..., summand, idx]

    def _terms(self, degree: int):
        """Generator, summand, left and right factor of every term l (x)_s r
        of the degree's differential, as arrays (T,), (T,), (T, n), (T, n)."""
        terms = [(t, s, l, r) for t, expr in enumerate(self.diff_at(degree))
                 for s, l, r in expr.terms]
        gen, summand = (np.array([term[i] for term in terms], dtype=np.int64) for i in (0, 1))
        left, right = (np.array([term[i] for term in terms], dtype=np.int64)
                       .reshape(-1, self.algebra.dim) for i in (2, 3))
        return gen, summand, left, right

    def induced_matrix(self, degree: int) -> np.ndarray:
        """Matrix of ?.d^degree from cochains of degree-1 to cochains of degree.

        A term l (x)_s r of generator t sends the value y on summand s to
        l y r, so entry ((t, x), (s, y)) sums [l z]_x [y r]_z over the terms
        and z.  The terms are built sparse and summed into a dense matrix.
        """
        d = self._fold(degree)
        if d not in self._induced_cache:
            alg = self.algebra
            # (summands, n): the cochain coordinate of each summand's basis
            # index, -1 outside its window
            cod, dom = (self.unpack_cochain(e, np.arange(1, self.hom_dim(e) + 1)) - 1
                        for e in (d, d - 1))
            gen, summand, left, right = self._terms(d)
            anywhere = np.ones(left.shape, dtype=bool)
            k, z, y, yr = _mult_terms(alg, right, False, anywhere, dom[summand] >= 0)
            k2, x, z2, lz = _mult_terms(alg, left, True, cod[gen] >= 0, anywhere)
            p, q = join(k * alg.dim + z, k2 * alg.dim + z2)
            self._induced_cache[d] = dense_sums(
                alg.field, cod[gen[k2[q]], x[q]], dom[summand[k[p]], y[p]],
                alg.field.mul(yr[p], lz[q]), (self.hom_dim(d), self.hom_dim(d - 1)))
        return self._induced_cache[d]

    # -- verification ------------------------------------------------------

    def _composites(self, upper_degree: int) -> np.ndarray:
        """d^(n-1) . d^n on every degree-n generator, as (generator, summand,
        n, n): entry [g, t] is the sum of left (x) right over the pairs of
        terms of generator g that land in summand t."""
        alg = self.algebra
        n = alg.dim
        gens = self.diff_at(upper_degree)
        lower = self.diff_at(upper_degree - 1)
        n_target = len(self.summands_at(upper_degree - 2))
        pairs = [[(l, l2, r2, r) for s, l, r in expr.terms
                  for t2, l2, r2 in lower[s].terms if t2 == t]
                 for expr in gens for t in range(n_target)]
        l, l2, r2, r = _padded(pairs, 4, n)
        # the sum over pairs of left (x) right is left^T right
        left, right = alg.multiply(l, l2), alg.multiply(r2, r)
        sums = matmul(alg.field, left.swapaxes(1, 2), right)
        return sums.reshape(len(gens), n_target, n, n)

    def check_complex(self, rng=None, probes: int = 2000) -> dict:
        """d.d = 0 on every generator, tested entry by entry.

        d.d is a bimodule map, so this is exact.  Random element probes u M v
        are not taken: M is a composite tested here, so a probe fails only
        where its generator entry fails.  ``rng`` and ``probes`` have no
        effect; they go with the next benchmark change (ROADMAP item 6).
        """
        alg = self.algebra
        entries = []
        top = self.depth + (1 if self.periodic else 0)
        for degree in range(2, top + 1):
            for gen, mats in enumerate(self._composites(degree)):
                bad = [i for i, m in enumerate(mats) if m.any()]
                entries.append((f"d{degree - 1}.d{degree} generator {gen}", not bad,
                                f"nonzero in summands {bad}" if bad else ""))
        # degree 1 against the multiplication augmentation
        l, r = _padded([[(l, r) for _, l, r in expr.terms] for expr in self.diff_at(1)], 2, alg.dim)
        for gen, acc in enumerate(_slot_sums(alg.field, alg.multiply(l, r))):
            entries.append((f"d0.d1 generator {gen}", not acc.any(), ""))
        return _report(entries)

    def check_minimality(self) -> dict:
        """Every differential image lies in rad*Q + Q*rad.

        Written out: for each term l (x)_s r of a generator image, the
        idempotent-coefficient products must cancel per summand.
        """
        alg = self.algebra
        f = alg.field
        entries = []
        top = self.depth + (1 if self.periodic else 0)
        for degree in range(1, top + 1):
            for gen, expr in enumerate(self.diff_at(degree)):
                scalar = {}
                for s_idx, l, r in expr.terms:
                    s = self.summands_at(degree - 1)[s_idx]
                    li = alg.index[alg.quiver.idempotent_word(s.left)]
                    ri = alg.index[alg.quiver.idempotent_word(s.right)]
                    c = f.mul(int(l[li]), int(r[ri]))
                    scalar[s_idx] = f.add(scalar.get(s_idx, 0), c)
                bad = [s for s, c in scalar.items() if c]
                entries.append((f"d{degree} generator {gen} lands in the radical",
                                not bad, f"summands {bad}" if bad else ""))
        return _report(entries)

    # matrices on the underlying vector spaces

    def _pairs(self, degree: int, vertex=None):
        """The basis pairs (a, c) of the summands A e_left (x) e_right A: the
        row-major position of each as (summands, n, n), -1 off them, their
        number, and the masks (summands, n) of the a and of the c.  With a
        vertex, a is e_vertex alone: S_vertex (x)_A Q."""
        alg = self.algebra
        ends = np.array([(s.left, s.right) for s in self.summands_at(degree)]).reshape(-1, 2)
        lefts = np.array([w.target for w in alg.basis]) == ends[:, :1]
        rights = np.array([w.source for w in alg.basis]) == ends[:, 1:]
        if vertex is not None:
            lefts &= np.arange(alg.dim) == alg.index[alg.quiver.idempotent_word(vertex)]
        pairs = lefts[:, :, None] & rights[:, None, :]
        pos = np.where(pairs, np.cumsum(pairs).reshape(pairs.shape) - 1, -1)
        return pos, int(pairs.sum()), lefts, rights

    def full_matrix(self, degree: int, vertex=None):
        """The differential as a sparse matrix (rows, cols, codes, shape) on
        the underlying vector spaces, or with a vertex on S_vertex (x)_A Q.

        A term l (x)_s r of generator t sends u (x) w to u l (x)_s r w, so
        entry ((s, a, c), (t, u, w)) sums [u l]_a [r w]_c over the terms.
        S_v (x)_A (A e_i (x) e_j A) is spanned by the e_v (x) w, and l acts
        on S_v through the (e_v, e_v) entry of x -> x l, so that matrix is
        the rows and columns of the full one whose left factor is e_v.
        """
        alg = self.algebra
        (rows, n_rows, row_l, row_r), (cols, n_cols, col_l, col_r) = (
            self._pairs(e, vertex) for e in (degree - 1, degree))
        gen, summand, left, right = self._terms(degree)
        k, a, u, ul = _mult_terms(alg, left, False, row_l[summand], col_l[gen])
        k2, c, w, rw = _mult_terms(alg, right, True, row_r[summand], col_r[gen])
        p, q = join(k, k2)
        return _assemble(alg.field, rows[summand[k[p]], a[p], c[q]], cols[gen[k[p]], u[p], w[q]],
                         alg.field.mul(ul[p], rw[q]), (n_rows, n_cols))

    def full_matrix_aug(self):
        """Degree-0 augmentation u (x) w -> u w as a sparse matrix into A."""
        alg = self.algebra
        cols, n_cols, _, _ = self._pairs(0)
        x, y, z, c = alg.table
        col = cols[:, x, y].max(axis=0, initial=-1)
        inside = col >= 0
        return _assemble(alg.field, z[inside], col[inside], c[inside], (alg.dim, n_cols))

    def check_exactness(self, rng=None, probes: int = 1500) -> dict:
        """Exactness, certified by ranks, and associativity of the algebra.

        im d_d = ker d_(d-1) holds exactly when rank d_d = cols(d_(d-1)) -
        rank d_(d-1) and d_(d-1) d_d = 0: the product puts im d_d inside
        ker d_(d-1), and a subspace of equal dimension is all of it.  Every
        matrix comes from ``full_matrix`` as its nonzero entries, is ranked
        once by ``field.block_rank`` (lone entries peeled, then blocks), and
        each product is tested on the entries.  The full bimodule matrices, from
        the augmentation on, are checked up to FULL_EXACTNESS_LIMIT; the
        one-sided complexes of the simple modules, the slices of the full
        matrices at one vertex, at any size.

        The last entry, ``Algebra.check_associative``, replaces bilinearity
        probes lam (sum of l v_s r) mu = sum of ((lam l) v_s) (r mu): the
        bilinear ``multiply`` expands both sides into bracketings of basis
        products, equal once every basis triple associates.  ``rng`` and
        ``probes`` have no effect and go with a benchmark change (ROADMAP item 6).
        """
        alg = self.algebra
        f = alg.field
        entries = []
        top = self.depth + (1 if self.periodic else 0)

        def exact(mats, ranks, d, label, counts):
            # im d_(d+1) = ker d_d, worded by ``counts`` when it fails
            ker = mats[d][3][1] - ranks[d]
            vanishes = product_vanishes(f, mats[d], mats[d + 1])
            good = ranks[d + 1] == ker and vanishes
            entries.append((label, good, "" if good else counts.format(im=ranks[d + 1], ker=ker)
                            + ("" if vanishes else f", product d{d} d{d + 1} nonzero")))

        if alg.dim <= FULL_EXACTNESS_LIMIT:
            mats = {0: self.full_matrix_aug()} | {d: self.full_matrix(d) for d in range(1, top + 1)}
            ranks = {d: block_rank(f, *m[:3]) for d, m in mats.items()}
            entries.append(("augmentation surjective", ranks[0] == alg.dim, ""))
            for d in range(top):
                exact(mats, ranks, d, f"im d{d + 1} = ker d{d} (full bimodule spaces)",
                      "dims {im} vs {ker}")
            if self.periodic:
                # the wrap-in map factors through multiplication onto a free
                # rank-one image, so its matrix rank equals dim(A)
                entries.append(("wrap-in map has rank dim(A)", ranks[self.depth] == alg.dim, ""))
        # induced one-sided complexes, any size
        for v in range(alg.quiver.n_vertices):
            mats = {d: self.full_matrix(d, vertex=v) for d in range(1, top + 1)}
            ranks = {d: block_rank(f, *m[:3]) for d, m in mats.items()}
            entries.append((f"one-sided complex at vertex {v}: im d1 = rad",
                            ranks[1] == len(alg.window(v, None)) - 1, ""))
            for d in range(1, top):
                exact(mats, ranks, d, f"one-sided exactness at vertex {v}, degree {d}",
                      "ker {ker} vs im {im}")
        try:
            alg.check_associative()
            failure = ""
        except AlgebraError as err:
            failure = str(err)
        entries.append(("associativity on every basis triple", not failure, failure))
        return _report(entries)


def standard_resolution(alg: Algebra, relations) -> ResolutionSpec:
    """Degrees 0..2 from a labelled relation list.

    ``relations`` is a list of (label, combo) pairs; each combo is expanded
    position by position to give the degree-2 differential.
    """
    q = alg.quiver
    deg2 = []
    d2 = []
    for label, combo in relations:
        first = next(w for c, w in combo if c)
        w = q.word_from_indices(tuple(first))
        deg2.append(FreeSummand(w.source, w.target, label))
        d2.append(expand_relation(alg, combo))
    summands = [vertex_summands(alg), arrow_summands(alg), deg2]
    diffs = [None, diff1(alg), d2]
    return ResolutionSpec(alg, summands, diffs, relations=list(relations))


def quaternion_resolution(alg: Algebra, k: int, c: int, d: int) -> ResolutionSpec:
    """The 4-periodic complex of the local quaternion algebras.

    Degree 2 expands the two defining relations; degree 3 is
    (x (x) 1 + 1 (x) x)(1 + c x + c^2 x^2) + (y (x) 1 + 1 (x) y)(1 + d y + d^2 y^2)
    and degree 4 composes the bimodule embedding of A with the augmentation.
    """
    f = alg.field
    q = alg.quiver
    x, y = q.arrow_index["x"], q.arrow_index["y"]
    xy = (x, y)
    yx = (y, x)

    def wvec(word):
        return alg.element([(1, q.word_from_indices(tuple(word), source=0))])

    rel_x = [(1, (x, x)), (f.neg(1), yx * (k - 1) + (y,)), (f.neg(c), yx * k)]
    rel_y = [(1, (y, y)), (f.neg(1), xy * (k - 1) + (x,)), (f.neg(d), xy * k)]
    base = standard_resolution(alg, [("x^2 relation", rel_x), ("y^2 relation", rel_y)])

    # the tail is the full geometric series in the loop: x^3 equals the socle
    # word and x^4 = 0, so it stops after the cubic term
    d3 = TensorExpr()
    for s, arr, par in ((0, x, c), (1, y, d)):
        coeff = 1
        for power in range(4):
            tail = (arr,) * power
            d3.add_term(f, s, wvec((arr,)), wvec(tail), coeff=coeff)
            d3.add_term(f, s, alg.one(), wvec((arr,) + tail), coeff=coeff)
            coeff = f.mul(coeff, par)

    d4 = TensorExpr()
    for t in range(k):
        d4.add_term(f, 0, wvec(xy * t), wvec(xy * (k - t)))
        d4.add_term(f, 0, wvec(yx * (t + 1)), wvec(yx * (k - t - 1)))
        d4.add_term(f, 0, wvec(xy * t + (x,)), wvec((y,) + xy * (k - 1 - t)))
        d4.add_term(f, 0, wvec(yx * t + (y,)), wvec((x,) + yx * (k - 1 - t)))
    # extra socle-corner terms keep the generator central when c or d is
    # nonzero; without them d3 o d4 fails to vanish
    if c:
        v = wvec(yx * (k - 1) + (y,))
        d4.add_term(f, 0, v, v, coeff=c)
    if d:
        v = wvec(xy * (k - 1) + (x,))
        d4.add_term(f, 0, v, v, coeff=d)

    summands = base.summands + [
        [FreeSummand(0, 0, "third syzygy")],
        [FreeSummand(0, 0, "fourth syzygy")],
    ]
    diffs = base.diffs + [[d3], [d4]]
    return ResolutionSpec(alg, summands, diffs, relations=base.relations,
                          periodic=True)
