"""Hochschild cohomology computed from an explicit bimodule complex.

Cochains in degree n are tuples of algebra elements, one per degree-n free
summand, constrained to the vertex window of that summand.  The coboundary
is composition with the next differential, so cohomology in each degree is
a kernel modulo an image of the induced matrices.

An independent check for degree one comes from derivations: the module also
solves the Leibniz system directly on the structure constants, with no
reference to the resolution, and compares dimensions.  One builder,
``derivation_system``, gives the nonzero entries (row, column, code) of that
system at one lam, for any bilinear product given by its nonzero structure
constants (x, y, z, c), from joins over them.  No dense system is formed:
``field.block_kernel`` peels off its lone entries, and ``block_eliminate``
reduces the small independent blocks of the rest.  The Lie layer uses the
builder for (rho, 1, 1)-derivations; for several rho on a system of one
dense chunk it builds the system once, at lam = 0, since its rows combined
along the relations among the brackets carry no lam, and each rho adds only
the rows of the pairs whose brackets span the bracket space.
Degree-one cochains become derivation matrices by recursion on word
length, D(a w') = D(a) w' + a D(w'), in stacked products over any stack of
cochains.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import Algebra, AlgebraError
from .field import (Field, Section, Subspace, block_kernel, image_basis, join, kernel_space,
                    nonzero_sums)
from .resolution import ResolutionSpec


class CohomologySpace:
    """One cohomology group, with class coordinates and chosen lifts."""

    def __init__(self, resolution: ResolutionSpec, degree: int,
                 cocycles: Subspace, coboundaries: Subspace):
        self.resolution = resolution
        self.algebra = resolution.algebra
        self.degree = degree
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        if not cocycles.contains_space(coboundaries):
            raise AlgebraError("coboundaries do not lie in the cocycles")
        self.section = Section(self.algebra.field, coboundaries, cocycles)

    @property
    def dim(self) -> int:
        return self.section.dim

    def is_cocycle(self, vec) -> bool:
        return self.cocycles.contains(np.asarray(vec, dtype=np.int64))

    def class_coords(self, vec) -> np.ndarray:
        """Coordinates of the class of a cocycle in the chosen basis, or of
        each row of a stack of cocycles."""
        v = np.asarray(vec, dtype=np.int64)
        if not self.cocycles.contains(v):
            raise AlgebraError("not a cocycle")
        return self.section.class_coords(v)

    def representative(self, coords) -> np.ndarray:
        return self.section.lift(coords)

    def representatives(self) -> list[np.ndarray]:
        eye = np.eye(self.dim, dtype=np.int64)
        return [self.representative(eye[i]) for i in range(self.dim)]

    def same_class(self, u, v) -> bool:
        f = self.algebra.field
        diff = f.sub(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
        return self.coboundaries.contains(diff)

    def __repr__(self) -> str:
        return (f"CohomologySpace(degree={self.degree}, dim={self.dim}, "
                f"algebra={self.algebra.name!r})")


def hh(resolution: ResolutionSpec, degree: int) -> CohomologySpace:
    """Cohomology of Hom(resolution, algebra) in one degree.

    Degrees beyond the depth of a non-periodic complex raise AlgebraError
    ("degree unavailable"), as does a negative degree.
    """
    f = resolution.algebra.field
    n = resolution.hom_dim(degree)
    # the outgoing differential may not exist (top of a finite complex)
    outgoing = resolution.induced_matrix(degree + 1)
    cocycles = kernel_space(f, outgoing)
    if degree == 0:
        coboundaries = Subspace(f, n, np.zeros((0, n), dtype=np.int64))
    else:
        coboundaries = image_basis(f, resolution.induced_matrix(degree))
    return CohomologySpace(resolution, degree, cocycles, coboundaries)


def centre_cochain(resolution: ResolutionSpec, z) -> np.ndarray:
    """A central element as a degree-0 cochain (its vertex components)."""
    values = [np.asarray(z, dtype=np.int64)
              for _ in resolution.summands_at(0)]
    return resolution.pack_cochain(0, values)


# ---------------------------------------------------------------------------
# independent degree-one oracle: derivations from the structure constants
# ---------------------------------------------------------------------------


def derivation_system(field: Field, n: int, entries, pairs, lam):
    """Nonzero entries (row, column, code) of the system lam D(b_i b_j) -
    D(b_i) b_j - b_i D(b_j) = 0 for a product on n basis elements with
    nonzero structure constants ``entries`` = (x, y, z, c), b_x b_y = sum of
    c b_z.

    ``pairs`` holds two equal-length index arrays, the left factors i and the
    right factors j.  Row p n + r is coordinate r of the rule for pair p.
    The unknown n x n matrix D is flattened row-major, column c holding
    D(b_c), so column t n + c is the entry D[t, c].  Each term is one join
    of the pairs with the nonzero structure constants; terms that meet at
    one position are summed in the field, and sums that vanish are dropped.
    """
    nn = n * n
    i, j = (np.asarray(a, dtype=np.int64) for a in pairs)
    x, y, z, v = entries
    # lam D(b_i b_j): lam b_i b_j at D[r, s], in row r for every r
    p, e = join(i * n + j, x * n + y)
    r = np.arange(n)
    keys = [((p[:, None] * n + r) * nn + r * n + z[e][:, None]).ravel()]
    codes = [np.repeat(field.mul(lam, v[e]), n)]
    # - D(b_i) b_j: - b_t b_j at D[t, i] in row r; - b_i D(b_j): - b_i b_t at D[t, j]
    for factor, other, side, t in ((j, i, y, x), (i, j, x, y)):
        p, e = join(factor, side)
        keys.append((p * n + z[e]) * nn + t[e] * n + other[p])
        codes.append(field.neg(v[e]))
    positions, sums = nonzero_sums(field, np.concatenate(keys), np.concatenate(codes))
    return positions // nn, positions % nn, sums


def derivation_space(alg: Algebra) -> Subspace:
    """All K-linear derivations of the algebra, as flattened matrices.

    The Leibniz rule is imposed for pairs (basis element, generator) where a
    generator is a vertex idempotent or an arrow class; linearity in the
    first argument and induction on word length give the rule for all pairs.
    Column i of a derivation matrix is the image of basis element i.  The
    kernel comes from ``block_kernel``: lone entries peeled, then blocks.
    """
    n = alg.dim
    _, gens = np.nonzero(alg.generators())
    pairs = np.repeat(np.arange(n), len(gens)), np.tile(gens, n)
    system = derivation_system(alg.field, n, alg.table, pairs, 1)
    return Subspace(alg.field, n * n, block_kernel(alg.field, *system, n * n))


def inner_derivation_space(alg: Algebra) -> Subspace:
    """Span of the commutator maps ad(u) = L_u - R_u, flattened."""
    return image_basis(alg.field, alg.ad_matrix())


def _derivations(alg: Algebra, values) -> np.ndarray:
    """Matrices (..., n, n) of the derivations with arrow values (..., arrows, n).

    Idempotents go to zero and a basis word w = a w' to D(a) w' + a D(w').
    The basis is closed under prefixes and suffixes and sorted by length, so
    one pass over the lengths fills each word's column from shorter ones:
    two stacked products per length.
    """
    f, n, q = alg.field, alg.dim, alg.quiver
    values = np.asarray(values, dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    rows = np.zeros((*values.shape[:-2], n, n), dtype=np.int64)   # row i is D(b_i)
    # per word w = a w': its length, its index, a, and the indices of a and w'
    steps = []
    for i, w in enumerate(alg.basis):
        if w.arrows:
            a, tail = w.arrows[0], w.arrows[1:]
            steps.append((len(w), i, a, alg.index[q.word_from_indices((a,))],
                          alg.index[q.word_from_indices(tail, source=q.arrows[a].target)]))
    for _, group in itertools.groupby(steps, key=lambda step: step[0]):
        _, words, first, arrow, rest = map(list, zip(*group))
        rows[..., words, :] = f.add(alg.multiply(values[..., first, :], eye[rest]),
                                    alg.multiply(eye[arrow], rows[..., rest, :]))
    return rows.swapaxes(-1, -2)


def derivation_from_arrow_values(alg: Algebra, values) -> np.ndarray:
    """Matrix of the derivation with the given values on arrow classes.

    ``values[j]`` is the image of arrow j, which must lie in the matching
    vertex window.  Column i is the image of basis element i.
    """
    q = alg.quiver
    values = np.asarray(values, dtype=np.int64)
    if len(values) != len(q.arrows):
        raise AlgebraError("need one value per arrow")
    for a, v in zip(q.arrows, values):
        if np.any(np.delete(v, alg.window(a.source, a.target))):
            raise AlgebraError(f"value for arrow {a.name} leaves its vertex window")
    return _derivations(alg, values)


def cochain_derivation(resolution: ResolutionSpec, vecs) -> np.ndarray:
    """Derivation matrix attached to a degree-1 cocycle vector, or one matrix
    per row of a stack of them."""
    alg = resolution.algebra
    if ([(s.left, s.right) for s in resolution.summands_at(1)]
            != [(a.source, a.target) for a in alg.quiver.arrows]):
        raise AlgebraError("degree-one summands are not the arrow windows")
    return _derivations(alg, resolution.unpack_cochain(1, vecs))


def check_hh1_against_derivations(resolution: ResolutionSpec) -> dict:
    """Compare the resolution's degree-one space with the Leibniz oracle.

    Passes when the cocycle space maps onto Der modulo nothing: every
    degree-one cocycle extends to a derivation, coboundaries land in the
    inner derivations, and the two quotient dimensions agree.
    """
    alg = resolution.algebra
    f = alg.field
    space = hh(resolution, 1)
    der = derivation_space(alg)
    inn = inner_derivation_space(alg)
    mapped_sub, cob_sub = (
        Subspace(f, alg.dim ** 2, cochain_derivation(resolution, rows).reshape(len(rows), alg.dim ** 2))
        for rows in (space.cocycles.rows, space.coboundaries.rows))
    entries = [("cocycles extend to derivations", der.contains_space(mapped_sub)),
               ("coboundaries are inner", inn.contains_space(cob_sub)),
               # normalized derivations plus inner ones fill out Der
               ("cocycles and inner derivations span Der", mapped_sub.sum(inn) == der),
               ("quotient dimensions agree", space.dim == der.dim - inn.dim)]
    return {"passed": all(good for _, good in entries), "entries": entries,
            "hh1_dim": space.dim, "der_dim": der.dim, "inn_dim": inn.dim}
