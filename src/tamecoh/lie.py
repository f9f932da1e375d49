"""Lie structure on first cohomology and invariants that separate algebras.

The bracket of two degree-one cocycles is computed on arrow values: a
cocycle f extends to the derivation D_f with D_f(a w) = f(a) w + a D_f(w),
and [f, g] is D_f on the values of g minus D_g on the values of f.  On
classes this is the Gerstenhaber bracket, and the result of pairing a
chosen basis of classes is a finite-dimensional Lie algebra over the ground
field.

``from_cohomology`` takes every pair of basis cochains through one bracket
table and reads all the class coordinates off one stacked section product,
in the canonical basis of the class section or in a named fixture basis.

The second half of the module works with such Lie algebras abstractly
(structure constants over GF(p^m)).  Every bracket goes through one
contraction, the adjoint matrices of a stack of rows against the structure
constants; a subspace bracket contracts one side, then the other.  Lower
central and derived series and the nilpotency test of a subalgebra are one
descending-series loop with different steps.  Beside them: centre, Killing
form, the largest nilpotent ideal (the x whose ad lies in the radical of
the algebra the ads generate, cut out by trace conditions with no search),
quotients by ideals, and dimensions of (rho, 1, 1)-derivation spaces, whose
Leibniz system comes from the builder behind the derivation oracle of
``cohomology``.  While that system fits in one dense chunk, several probes
share one elimination: its rows combined along the relations among the
brackets carry no rho, so their kernel is found once, and each probe then
solves only the rows of the pairs whose brackets span [L, L], on that
kernel.  A larger system keeps its blocks, one elimination per probe.  A
fingerprint bundles the invariants so two algebras can be compared, and
``distinguish`` names the first invariant that differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError
from .cohomology import CohomologySpace, cochain_derivation, derivation_system
from .field import (CHUNK_CELLS, Field, Section, Subspace, _kernel_rows, as_integer, as_matrix,
                    block_rank, dense_sums, digit_matrix, expand_vector, inverse, join,
                    kernel_basis, kernel_space, matmul, nested_products, nonzero_sums,
                    pack_vector, rank, rref)
from .fixtures import FixtureSet
from .resolution import ResolutionSpec

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴"
                              "⁵⁶⁷⁸⁹")


def _sup(n: int) -> str:
    return str(n).translate(_SUPERSCRIPTS)


# ---------------------------------------------------------------------------
# the bracket on degree-one cochains
# ---------------------------------------------------------------------------


def _bracket_table(resolution: ResolutionSpec, cochains, check: bool) -> np.ndarray:
    """[c_i, c_j] for every pair of a list of degree-one cocycles.

    On arrow a, [u, v] is D_u(v_a) - D_v(u_a), with D_u the derivation
    matrix of u and v_a the value of v on a: the packed images D_i(c_j),
    minus their transpose.
    """
    f = resolution.algebra.field
    k, h = len(cochains), resolution.hom_dim(1)
    cochains = np.array(cochains, dtype=np.int64).reshape(k, h)
    if check:
        m2 = resolution.induced_matrix(2)
        if np.any(matmul(f, m2, cochains.T)):
            raise AlgebraError("not a cocycle")
    values = resolution.unpack_cochain(1, cochains)
    derivs = cochain_derivation(resolution, cochains)
    # [i, j, a] = D_i applied to the value of c_j on arrow a
    applied = matmul(f, values.reshape(1, -1, values.shape[-1]), derivs.swapaxes(1, 2))
    images = resolution.pack_cochain(1, applied.reshape(k, *values.shape))
    table = f.sub(images, images.swapaxes(0, 1))
    if check and np.any(matmul(f, m2, table.reshape(k * k, h).T)):
        raise AlgebraError("bracket of cocycles failed to be a cocycle")
    return table


def bracket(resolution: ResolutionSpec, u, v) -> np.ndarray:
    """Gerstenhaber bracket of two degree-one cocycle vectors.

    Both inputs must be cocycles (checked against the second induced
    matrix); the output is again a cocycle.
    """
    return _bracket_table(resolution, [u, v], check=True)[0, 1]


# ---------------------------------------------------------------------------
# finite-dimensional Lie algebras by structure constants
# ---------------------------------------------------------------------------


def _field_codes(field: Field, values, what: str) -> np.ndarray:
    """``values`` as an int64 array, or ValueError unless every entry is an
    integer field code in range(q)."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the test below
        codes = raw.astype(np.int64)
    if np.any(codes != raw):
        raise ValueError(f"{what} must be integers")
    if np.any((codes < 0) | (codes >= field.q)):
        raise ValueError(f"{what} must be field codes in range({field.q})")
    return codes


def _probe_codes(field: Field, rhos) -> list[int]:
    """The derivation probes as ints, or ValueError unless each is an integer
    field code."""
    rhos = [as_integer(rho, "derivation probe") for rho in rhos]
    for rho in rhos:
        if rho not in range(field.q):
            raise ValueError(f"derivation probe {rho!r} is not a field code in {field}")
    return rhos


class LieAlgebra:
    """Lie algebra over GF(p^m) given by structure constants.

    ``structure[i, j, :]`` holds [e_i, e_j] in basis coordinates, as codes
    in range(q).  The constructor verifies alternation and the Jacobi
    identity unless ``check`` is disabled.
    """

    def __init__(self, field: Field, structure, names=None, check: bool = True):
        self.field = field
        self.structure = _field_codes(field, structure, "structure constants")
        n = self.structure.shape[0]
        if self.structure.shape != (n, n, n):
            raise AlgebraError(
                f"structure constants must be cubic, got {self.structure.shape}")
        self.dim = n
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise AlgebraError("one name per basis element required")
        self.names = names
        if check:
            self._check_axioms()

    def entries(self) -> tuple[np.ndarray, ...]:
        """The nonzero structure constants (x, y, z, c), as ``Algebra.table``."""
        return (*np.nonzero(self.structure), self.structure[self.structure != 0])

    # ---- the bracket and adjoint maps ----

    def _ads(self, xs) -> np.ndarray:
        """For each row x of xs, the (n, n) matrix whose row j is [x, e_j],
        all rows in one field matmul against the structure constants.

        ``matmul(f, ys, self._ads(xs))[r, s]`` is then [xs[r], ys[s]].
        """
        n = self.dim
        xs = as_matrix(xs)
        return matmul(self.field, xs, self.structure.reshape(n, n * n)).reshape(len(xs), n, n)

    def bracket(self, u, v) -> np.ndarray:
        return matmul(self.field, v, self._ads(u)[0])[0]

    def ad(self, u) -> np.ndarray:
        """Matrix of x -> [u, x]."""
        return self._ads(u)[0].T

    def basis_vector(self, i: int) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[i] = 1
        return e

    def full_space(self) -> Subspace:
        return Subspace(self.field, self.dim, np.eye(self.dim, dtype=np.int64))

    def _check_axioms(self) -> None:
        f, n, s = self.field, self.dim, self.structure
        for i in range(n):
            if np.any(s[i, i]):
                raise AlgebraError(f"[e_{i}, e_{i}] is not zero")
        for i, j in zip(*np.nonzero(np.any(s != f.neg(s.transpose(1, 0, 2)), axis=-1))):
            if i < j:
                raise AlgebraError(f"bracket not antisymmetric at ({i},{j})")
        # [[e_i, e_j], e_k] counts toward the cyclic sums at (i, j, k), (k, i, j), (j, k, i)
        i, j, k, m, codes = nested_products(f, *self.entries())
        keys = [((a * n + b) * n + c) * n + m for a, b, c in ((i, j, k), (k, i, j), (j, k, i))]
        bad, _ = nonzero_sums(f, np.concatenate(keys), np.tile(codes, 3))
        for i, j, k in zip(*np.unravel_index(bad // n, (n, n, n))):
            if i < j < k:
                raise AlgebraError(f"Jacobi identity fails on ({i},{j},{k})")

    # ---- subspace machinery ----

    def _brackets(self, a: Subspace, b: Subspace) -> np.ndarray:
        """[x, y] over the basis rows x of a and y of b, as rows.  The adjoint
        matrices of a cost a n^3, the pairs a b n^2: pass the smaller first."""
        return matmul(self.field, b.rows, self._ads(a.rows)).reshape(-1, self.dim)

    def bracket_space(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [x, y] over the basis rows x of a and y of b."""
        return Subspace(self.field, self.dim, self._brackets(a, b))

    def _series(self, sub: Subspace, step) -> list:
        """[sub, step(sub), step(step(sub)), ...] until a term is zero or
        the step returns it unchanged."""
        series = [sub]
        while series[-1].dim:
            nxt = step(series[-1])
            if nxt == series[-1]:
                break
            series.append(nxt)
        return series

    def is_ideal(self, sub: Subspace) -> bool:
        return sub.contains_space(self.bracket_space(sub, self.full_space()))

    def lower_central_series(self) -> list:
        """[L, L^1, L^2, ...] with L^(i+1) = [L^i, L], until stable."""
        full = self.full_space()
        return self._series(full, lambda cur: self.bracket_space(cur, full))

    def derived_series(self) -> list:
        """[L, D^1, D^2, ...] with D^(i+1) = [D^i, D^i], until stable."""
        return self._series(self.full_space(), lambda cur: self.bracket_space(cur, cur))

    def centre(self) -> Subspace:
        # v is central iff sum_i v_i structure[i, j, :] = 0 for every j
        mat = self.structure.transpose(1, 2, 0).reshape(self.dim ** 2, self.dim)
        return kernel_space(self.field, mat)

    def subspace_nilpotent(self, sub: Subspace) -> bool:
        """Whether a subalgebra is nilpotent (its own lower central series).

        ``sub`` must be closed under the bracket; the series then descends
        and either reaches zero or stabilizes at a nonzero term.
        """
        if not sub.contains(self._brackets(sub, sub)):
            raise AlgebraError("not a subalgebra")
        return self._series(sub, lambda term: self.bracket_space(term, sub))[-1].dim == 0

    # ---- invariants ----

    def killing_matrix(self) -> np.ndarray:
        # tr(ad e_i ad e_j) = sum over (l, k) of s[i, l, k] s[j, k, l]
        n = self.dim
        s = self.structure
        return matmul(self.field, s.reshape(n, n * n),
                      s.transpose(0, 2, 1).reshape(n, n * n).T)

    def killing_rank(self) -> int:
        return rank(self.field, self.killing_matrix())

    def nilradical(self) -> Subspace:
        """The largest nilpotent ideal N = ad^-1(J(A)), with J(A) the radical
        of the algebra A that the ads generate (de Graaf, Lie Algebras:
        Theory and Algorithms, 2000): a nilpotent ideal I gives the nilpotent
        ideal A ad(I) A of A, and ads in J(A) multiply to zero.

        J(A) = I_l, p^l <= nm < p^(l+1), in the chain of ideals of Cohen,
        Ivanyos and Wales (JPAA 117-118, 1997) on L over GF(p).  I_0 holds
        the a with tr(a b) = 0 for all b in A, a condition over GF(q) too,
        as A holds the scalars; I_i holds the a in I_(i-1) with g_i(a b) = 0
        for all b, g_i(M) = tr(M^(p^i)) / p^i mod p on integer lifts (an
        inexact division raises AlgebraError).  Each ad^-1(I_i) is an ideal
        holding N, so the first nilpotent one is N.
        """
        f, n = self.field, self.dim
        # A: words in the ad e_i, multiplied by each ad e_i until none is new
        ads = self.structure.transpose(0, 2, 1)
        algebra = Subspace(f, n * n, np.eye(n, dtype=np.int64).reshape(1, -1))
        new = algebra.rows
        while len(new):
            words = matmul(f, new.reshape(-1, 1, n, n), ads).reshape(-1, n * n)
            new = Subspace(f, n * n, algebra.reduce(words)).rows
            algebra = Subspace(f, n * n, np.vstack([algebra.rows, new]))
        # tr(ad x b) = sum over (c, r) of b[c, r] [x, e_c]_r
        nil = kernel_space(f, matmul(f, algebra.rows, self.structure.reshape(n, n * n).T))
        p, size = f.p, n * f.m
        if p > size or nil.dim == 0 or self.subspace_nilpotent(nil):
            return nil

        # in digit coordinates over GF(p), with w^t of code p^t: the matrices
        # of w^t b over a basis of A, and the vectors w^t x over one of N_0
        powers = p ** np.arange(f.m)
        products = digit_matrix(f, f.mul(algebra.rows.reshape(-1, 1, n, n), powers[:, None, None]))
        products = products.reshape(-1, size, size).astype(np.float64)
        xs = expand_vector(f, f.mul(nil.rows[:, None], powers[:, None])).reshape(-1, size)
        prime, level = Field(p), 0
        while True:
            level += 1
            adx = digit_matrix(f, self._ads(pack_vector(f, xs).reshape(-1, n)).swapaxes(1, 2))
            values = [_power_traces(ad @ products, p, level) for ad in adx.astype(np.float64)]
            xs = matmul(prime, kernel_basis(prime, np.array(values).T), xs)
            nil = Subspace(f, n, pack_vector(f, xs).reshape(-1, n))
            if p ** (level + 1) > size or nil.dim == 0 or self.subspace_nilpotent(nil):
                return nil

    def derivation_dims(self, rhos) -> list[int]:
        """dim of the space of (rho, 1, 1)-derivations for each rho, the D
        with rho D[x, y] = [Dx, y] + [x, Dy] for all x, y.  They are the
        kernel of the Leibniz system M_rho in the n^2 entries of D: row
        (p, r) is coordinate r of rho D c_p - [D e_i, e_j] - [e_i, D e_j] for
        the pair p = (i, j), i < j, with c_p = [e_i, e_j].  The rule is
        alternating in (x, y), so these pairs impose all of it.

        One probe takes n^2 - the rank of M_rho, summed over its chunks.  Two
        or more on a small M_rho (see below) share one elimination, exact for
        every rho, 0 included:

        - The pivot pairs P of the brackets give a basis c_P of [L, L], and
          each other pair q the relation c_q - sum over P of a_qp c_p = 0.
          For each r, the rows (p, r) of P and the relation rows, row (q, r)
          - sum over P of a_qp row (p, r), are M_rho's rows under an
          invertible transform, as each relation holds a unit at its own q.
        - The rho term of row (p, r), rho sum over s of D[r, s] c_p[s], is
          linear in c_p, so it cancels in every relation row.  Those rows are
          the same for every rho, and their kernel K is found once.
        - So ker M_rho is the part of K that the rows of P kill, and
          dim Der_rho is dim K - the rank of those rows on K's basis, a
          d n x dim K matrix.  Its rho part D c_p and the rest [D e_j, e_i] -
          [D e_i, e_j] come from stacked products over K's basis, once.

        The probes stay on M_rho one at a time when there is one, or when
        M_rho, n rows per pair by n^2 columns, is larger than one dense chunk
        of CHUNK_CELLS cells (from n = 11 on).  One probe gains nothing: the shared path
        eliminates as many pivots in all, n^2 - dim K and then dim K -
        dim Der_rho, and forming the relation rows costs extra.  On a larger
        M_rho ``block_rank`` peels off lone entries and splits the rest into
        blocks, which the shared path, dense in all n^2 entries of D, gives up.
        """
        f, n = self.field, self.dim
        rhos = _probe_codes(f, rhos)
        pairs = np.triu_indices(n, 1)
        if len(rhos) < 2 or len(pairs[0]) * n ** 3 > CHUNK_CELLS:
            return [n * n - block_rank(f, *derivation_system(f, n, self.entries(), pairs, rho))
                    for rho in rhos]
        brackets = self.structure[pairs]
        reduced, pivots = rref(f, brackets.T)
        relations = _kernel_rows(f, reduced, pivots)
        # relation row (l, r): its pairs' rows (q, r) of M_0 joined and summed
        rows, cols, codes = derivation_system(f, n, self.entries(), pairs, 0)
        rel, pair = np.nonzero(relations)
        s, e = join(pair, rows // n)
        kernel = kernel_basis(f, dense_sums(f, rel[s] * n + rows[e] % n, cols[e],
                                            f.mul(relations[rel, pair][s], codes[e]),
                                            (len(relations) * n, n * n)))
        # the rows of P on K's basis, at [(p, r), D]
        k, d = len(kernel), len(pivots)
        maps = kernel.reshape(k, n, n)
        i, j = pairs[0][pivots], pairs[1][pivots]

        def applied(a, b):  # [D e_a, e_b], at [p, D, r]
            return matmul(f, maps[:, :, a].transpose(2, 0, 1), self.structure[:, b].swapaxes(0, 1))

        scaled = matmul(f, maps, brackets[pivots].T).transpose(2, 1, 0).reshape(d * n, k)
        fixed = f.sub(applied(j, i), applied(i, j)).transpose(0, 2, 1).reshape(d * n, k)
        return [k - rank(f, f.add(f.mul(rho, scaled), fixed)) for rho in rhos]

    def derivation_dim(self, rho) -> int:
        return self.derivation_dims([rho])[0]

    # ---- quotients and base change ----

    def quotient(self, ideal: Subspace):
        """Quotient by an ideal: (LieAlgebra, Section onto the classes)."""
        if not self.is_ideal(ideal):
            raise AlgebraError("quotient requires an ideal")
        # the lifts of the quotient's unit vectors are the complement rows
        sec = Section(self.field, ideal)
        pairs = matmul(self.field, sec.comp, self._ads(sec.comp)).reshape(-1, self.dim)
        return LieAlgebra(self.field, sec.class_coords(pairs).reshape((sec.dim,) * 3),
                          check=False), sec

    def conjugate(self, mat, check: bool = True) -> "LieAlgebra":
        """Structure constants in the basis whose columns are ``mat``, a
        matrix of field codes (ValueError otherwise)."""
        f = self.field
        mat = _field_codes(f, mat, "change-of-basis entries")
        minv = inverse(f, mat)
        n = self.dim
        vals = matmul(f, mat.T, self._ads(mat.T)).reshape(n * n, n)
        s = matmul(f, vals, minv.T).reshape(n, n, n)
        return LieAlgebra(f, s, check=check)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, field={self.field})"


def _power_traces(mats, p: int, level: int) -> np.ndarray:
    """tr(M^(p^level)) / p^level mod p for each integer matrix M of a float64
    stack, powers mod p^(level + 1); AlgebraError unless the division is exact."""
    mod = p ** (level + 1)
    power = mats % mod
    for i in range(level):
        base = power
        # the last factor enters the trace: tr(P B) = sum of P * B^T
        for _ in range(p - 1 if i < level - 1 else p - 2):
            power = power @ base % mod
    traces = np.einsum("...ij,...ji->...", power, base).astype(np.int64) % mod
    if np.any(traces % p ** level):
        raise AlgebraError(f"a trace of a {p}^{level}-th power is not divisible by {p}^{level}")
    return traces // p ** level


def verify_iso(l1: LieAlgebra, l2: LieAlgebra, mat) -> bool:
    """Whether the invertible matrix mat intertwines the two brackets.  Its
    entries must be field codes (ValueError otherwise)."""
    if l1.dim != l2.dim or l1.field != l2.field:
        return False
    f = l1.field
    mat = _field_codes(f, mat, "isomorphism entries")
    try:
        inverse(f, mat)
    except ValueError:
        return False
    # mat [e_i, e_j] against [mat e_i, mat e_j], as rows, for every pair i < j
    i, j = np.triu_indices(l1.dim, 1)
    images = matmul(f, mat.T, l2._ads(mat.T))
    return np.array_equal(matmul(f, l1.structure[i, j], mat.T), images[i, j])


# ---------------------------------------------------------------------------
# from cohomology to a Lie algebra
# ---------------------------------------------------------------------------


def from_cohomology(space: CohomologySpace, fix: FixtureSet | None = None) -> LieAlgebra:
    """Lie algebra of a degree-one cohomology space.

    Without a fixture set the basis is the canonical one of the class
    section.  With one, the named cochains of ``fix.basis`` are used; they
    must be cocycles whose classes really form a basis.
    """
    if space.degree != 1:
        raise AlgebraError("Lie structure lives in degree one")
    f = space.algebra.field
    n = space.dim
    if fix is None:
        names, reps, p_inv = None, space.section.comp, None
    else:
        names = tuple(fix.basis)
        reps = np.array([fix.vec(nm) for nm in names])
        if len(reps) != n:
            raise AlgebraError(
                f"fixture basis has {len(reps)} elements, cohomology has dim {n}")
        # named coordinates are P^-1 times canonical ones, where the columns
        # of P are the canonical coordinates of the named classes
        try:
            p_inv = inverse(f, space.class_coords(reps).T)
        except ValueError:
            raise AlgebraError("fixture classes do not form a basis") from None
    table = _bracket_table(space.resolution, reps, check=False)
    i, j = np.triu_indices(n, 1)
    coords = space.class_coords(table[i, j])
    if p_inv is not None:
        coords = matmul(f, coords, p_inv.T)
    s = np.zeros((n, n, n), dtype=np.int64)
    s[i, j] = coords
    s[j, i] = f.neg(coords)
    return LieAlgebra(f, s, names=names)


def check_bracket_table(space: CohomologySpace, fix: FixtureSet) -> dict:
    """Compare computed brackets of basis cochains with the expected table.

    The table lists each pair once; the transposed pair is held to the
    negated combination, and pairs absent in both orientations must
    bracket to zero modulo coboundaries.  Diagonal pairs vanish
    identically and are skipped.
    """
    f = fix.field
    table = _bracket_table(space.resolution, [fix.vec(a) for a in fix.basis], check=True)
    entries = []
    for ia, a in enumerate(fix.basis):
        for ib, b in enumerate(fix.basis):
            if a == b:
                continue
            computed = table[ia, ib]
            if (a, b) in fix.brackets:
                expected = fix.vec(fix.brackets[(a, b)])
            elif (b, a) in fix.brackets:
                expected = f.neg(fix.vec(fix.brackets[(b, a)]))
            else:
                expected = fix.vec({})
            entries.append((a, b, bool(space.same_class(computed, expected))))
    return {"passed": all(good for _, _, good in entries), "entries": entries}


# ---------------------------------------------------------------------------
# diagonal models and derivation probes
# ---------------------------------------------------------------------------


def diagonal_model(field: Field, nus) -> LieAlgebra:
    """Lie algebra on e_0..e_r with [e_0, e_i] = nu_i e_i and no other
    brackets; nus holds field codes (nu_1, ..., nu_r)."""
    nus = _field_codes(field, [as_integer(nu, "weight") for nu in nus], "weights")
    n = len(nus) + 1
    i = np.arange(1, n)
    s = np.zeros((n, n, n), dtype=np.int64)
    s[0, i, i] = nus
    s[i, 0, i] = field.neg(nus)
    return LieAlgebra(field, s)


def derivation_probes(field: Field, *nu_vectors) -> list:
    """The rho values at which to compare (rho,1,1)-derivation dims of
    diagonal models, as plain field codes.

    Over nonzero rho, the derivation count of a diagonal model is constant
    off the ratios of two of its nonzero weights.  So two models that
    disagree somewhere disagree at one of those ratios or at every nonzero
    rho outside all of them: the probes are the ratios and the smallest
    nonzero code outside them, when there is one.
    """
    ratios = {int(field.mul(b, field.inv(a)))
              for nus in nu_vectors for a in nus if a for b in nus if b}
    outside = [rho for rho in range(1, field.q) if rho not in ratios]
    return sorted(ratios.union(outside[:1]))


def second_derived_weights(field: Field, k: int, s: int) -> tuple:
    """Diagonal weights (s, 2s, k, 2k, *) of the two quotient models at
    (k, s): one with tail 2ks - k - s, one with tail 2ks/3.

    With L = HH^1 and D^2 = [D^1, D^1], L/D^2 of SD2B2(k, s, 0) has the
    fingerprint of the first model and L/D^2 of SD2B1(k, s, 0) that of the
    second, at every nonzero rho, for (k, s) in {(3, 4), (4, 3), (3, 5)} over
    GF(5) and GF(7).  Outside that range the match was seen to fail: at
    (4, 5) both quotients match neither model over GF(5) and both models
    over GF(7), where the two models have equal fingerprints; at (2, 2) and
    (2, 3), D^2 = 0.
    """
    three = field.embed(3)
    if three == 0:
        raise AlgebraError("weights need 3 invertible in the field")
    base = tuple(field.embed(x) for x in (s, 2 * s, k, 2 * k))
    tail_a = field.embed(2 * k * s - k - s)
    tail_b = field.mul(field.embed(2 * k * s), field.inv(three))
    return base + (tail_a,), base + (tail_b,)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Invariants of one Lie algebra, in a comparable bundle."""

    dim: int
    lower_central_dims: tuple
    derived_dims: tuple
    centre_dim: int
    killing_rank: int
    nilpotent: bool
    nilradical_dim: int
    derivation_dims: tuple


def fingerprint(lie: LieAlgebra, probes=(), nilradical_limit: int = 10 ** 6
                ) -> Fingerprint:
    """The invariants of ``lie``, with (rho, 1, 1)-derivation dims at each
    probe, an integer field code (ValueError otherwise).

    ``nilradical_limit`` has no effect, since the nilradical is always
    decided, and goes with a benchmark change (ROADMAP item 3).
    """
    probes = _probe_codes(lie.field, probes)
    der_dims = tuple(zip(probes, lie.derivation_dims(probes)))
    lower = lie.lower_central_series()
    derived = tuple(s.dim for s in lie.derived_series()[1:])
    return Fingerprint(
        dim=lie.dim,
        lower_central_dims=tuple(s.dim for s in lower[1:]),
        derived_dims=derived,
        centre_dim=lie.centre().dim,
        killing_rank=lie.killing_rank(),
        nilpotent=lower[-1].dim == 0,
        nilradical_dim=lie.nilradical().dim,
        derivation_dims=der_dims,
    )


def _padded(a: tuple, b: tuple) -> list:
    """Align two stabilized dim sequences by repeating the last value."""
    length = max(len(a), len(b), 1)
    pa = list(a) + [a[-1] if a else 0] * (length - len(a))
    pb = list(b) + [b[-1] if b else 0] * (length - len(b))
    return list(zip(pa, pb))


def distinguish(fp1: Fingerprint, fp2: Fingerprint) -> str:
    """Name the first invariant separating the fingerprints.

    Returns "distinguished by <label> (<a> vs <b>)" or "inconclusive".
    Series entries are labelled dim L{i} / dim D{i} with superscript
    indices.
    """
    checks = [("dim", fp1.dim, fp2.dim)]
    for idx, (a, b) in enumerate(_padded(fp1.lower_central_dims,
                                         fp2.lower_central_dims), start=1):
        checks.append((f"dim L{_sup(idx)}", a, b))
    for idx, (a, b) in enumerate(_padded(fp1.derived_dims,
                                         fp2.derived_dims), start=1):
        checks.append((f"dim D{_sup(idx)}", a, b))
    checks.append(("dim centre", fp1.centre_dim, fp2.centre_dim))
    checks.append(("Killing rank", fp1.killing_rank, fp2.killing_rank))
    checks.append(("nilpotency", fp1.nilpotent, fp2.nilpotent))
    checks.append(("dim nilradical", fp1.nilradical_dim, fp2.nilradical_dim))
    probes2 = dict(fp2.derivation_dims)
    for rho, d1 in fp1.derivation_dims:
        if rho in probes2:
            checks.append((f"dim der(rho={rho})", d1, probes2[rho]))
    for label, a, b in checks:
        if a != b:
            return f"distinguished by {label} ({a} vs {b})"
    return "inconclusive"
