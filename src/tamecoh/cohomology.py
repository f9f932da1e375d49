"""Hochschild cohomology computed from an explicit bimodule complex.

Cochains in degree n are tuples of algebra elements, one per degree-n free
summand, constrained to the vertex window of that summand.  The coboundary
is composition with the next differential, so cohomology in each degree is
a kernel modulo an image of the induced matrices.

An independent check for degree one comes from derivations: the module also
solves the Leibniz system directly on the multiplication table, with no
reference to the resolution, and compares dimensions.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, AlgebraError
from .field import Section, Subspace, image_basis, kernel_space, kron
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
        """Coordinates of the class of a cocycle in the chosen basis."""
        v = np.asarray(vec, dtype=np.int64)
        if not self.cocycles.contains(v):
            raise AlgebraError("not a cocycle")
        return self.section.class_coords(v)

    def representative(self, coords) -> np.ndarray:
        return self.section.lift(coords)

    def representatives(self) -> list[np.ndarray]:
        eye = np.eye(self.dim, dtype=np.int64)
        return [self.representative(eye[i]) for i in range(self.dim)]

    def unpack(self, vec):
        """Cochain vector as one algebra element per free summand."""
        return self.resolution.unpack_cochain(self.degree, vec)

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
    if degree < 0:
        raise AlgebraError("negative degree")
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
# independent degree-one oracle: derivations from the multiplication table
# ---------------------------------------------------------------------------


def derivation_space(alg: Algebra) -> Subspace:
    """All K-linear derivations of the algebra, as flattened matrices.

    The Leibniz rule is imposed for pairs (basis element, generator) where a
    generator is a vertex idempotent or an arrow class; linearity in the
    first argument and induction on word length give the rule for all pairs.
    The unknown matrix D is flattened row-major, column i holding the image
    of basis element i.
    """
    f = alg.field
    n = alg.dim
    q = alg.quiver
    eye = np.eye(n, dtype=np.int64)
    gens = []
    for v in range(q.n_vertices):
        gens.append(alg.element([(1, q.word_from_indices((), source=v))]))
    for idx in range(len(q.arrows)):
        gens.append(alg.element([(1, q.word_from_indices((idx,)))]))
    rows = []
    for g in gens:
        Rg = alg.right_mult_matrix(g)
        for i in range(n):
            b = alg.basis_vector(i)
            prod = alg.multiply(b, g)
            # D(b g) = D . prod, D(b) g = R_g D e_i, b D(g) = L_b D g
            block = kron(f, eye, prod[None, :])
            block = f.sub(block, kron(f, Rg, eye[i][None, :]))
            block = f.sub(block, kron(f, alg.left_mult_matrix(b), g[None, :]))
            rows.append(block)
    system = np.vstack(rows) if rows else np.zeros((0, n * n), dtype=np.int64)
    return kernel_space(f, system)


def inner_derivation_space(alg: Algebra) -> Subspace:
    """Span of the commutator maps ad(u) = L_u - R_u, flattened."""
    f = alg.field
    n = alg.dim
    cols = np.zeros((n * n, n), dtype=np.int64)
    for i in range(n):
        b = alg.basis_vector(i)
        ad = f.sub(alg.left_mult_matrix(b), alg.right_mult_matrix(b))
        cols[:, i] = ad.reshape(-1)
    return image_basis(f, cols)


def hh1_oracle_dims(alg: Algebra) -> tuple[int, int, int]:
    """(dim Der, dim Inn, dim Der/Inn) straight from the Leibniz system."""
    der = derivation_space(alg)
    inn = inner_derivation_space(alg)
    if not der.contains_space(inn):
        raise AlgebraError("inner derivations escaped the derivation space")
    return der.dim, inn.dim, der.dim - inn.dim


def xi_extend(alg: Algebra, values, elem) -> np.ndarray:
    """Apply the arrow-replacement extension of a cochain to an element.

    ``values[j]`` is the image of arrow j.  A basis word maps to the sum
    over its arrow positions of (prefix) value (suffix); idempotent words
    map to zero.  The extension is a derivation of the algebra precisely
    when the cochain is a cocycle.
    """
    f = alg.field
    q = alg.quiver
    elem = np.asarray(elem, dtype=np.int64)
    acc = alg.zero()
    for i in np.nonzero(elem)[0]:
        w = alg.basis[i]
        arrows = w.arrows
        coeff = int(elem[i])
        for pos, aj in enumerate(arrows):
            pre = alg.element(
                [(1, q.word_from_indices(arrows[:pos], source=w.source))])
            post = alg.element(
                [(1, q.word_from_indices(arrows[pos + 1:],
                                         source=q.arrows[aj].target))])
            term = alg.multiply(alg.multiply(pre, values[aj]), post)
            acc = f.add(acc, f.mul(coeff, term))
    return acc


def derivation_from_arrow_values(alg: Algebra, values) -> np.ndarray:
    """Matrix of the derivation with the given values on arrow classes.

    ``values[j]`` is the image of arrow j, which must lie in the matching
    vertex window.  Column i is ``xi_extend`` applied to basis element i.
    """
    q = alg.quiver
    vals = [np.asarray(v, dtype=np.int64) for v in values]
    if len(vals) != len(q.arrows):
        raise AlgebraError("need one value per arrow")
    for j, v in enumerate(vals):
        a = q.arrows[j]
        win = alg.multiply(
            alg.multiply(alg.element([(1, q.word_from_indices((), source=a.source))]), v),
            alg.element([(1, q.word_from_indices((), source=a.target))]))
        if not np.array_equal(win, v):
            raise AlgebraError(f"value for arrow {a.name} leaves its vertex window")
    return np.array([xi_extend(alg, vals, alg.basis_vector(i))
                     for i in range(alg.dim)], dtype=np.int64).T


def cochain_derivation(resolution: ResolutionSpec, vec) -> np.ndarray:
    """Derivation matrix attached to a degree-1 cocycle vector."""
    values = resolution.unpack_cochain(1, np.asarray(vec, dtype=np.int64))
    return derivation_from_arrow_values(resolution.algebra, values)


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
    entries = []
    ok = True

    mapped = []
    for row in space.cocycles.rows:
        mapped.append(cochain_derivation(resolution, row).reshape(-1))
    mapped_sub = Subspace(f, alg.dim ** 2, mapped)
    good = der.contains_space(mapped_sub)
    ok &= good
    entries.append(("cocycles extend to derivations", good))

    cob_mapped = []
    for row in space.coboundaries.rows:
        cob_mapped.append(cochain_derivation(resolution, row).reshape(-1))
    cob_sub = Subspace(f, alg.dim ** 2, cob_mapped)
    good = inn.contains_space(cob_sub)
    ok &= good
    entries.append(("coboundaries are inner", good))

    # normalized derivations plus inner ones fill out Der
    good = mapped_sub.sum(inn) == der
    ok &= good
    entries.append(("cocycles and inner derivations span Der", good))

    good = space.dim == der.dim - inn.dim
    ok &= good
    entries.append(("quotient dimensions agree", good))
    return {"passed": ok, "entries": entries,
            "hh1_dim": space.dim, "der_dim": der.dim, "inn_dim": inn.dim}
