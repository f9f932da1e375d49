"""Quiver path algebras presented by rewriting rules, with exact structure constants.

An algebra instance is built from a quiver and an ordered list of rewrite
rules (monomial left side, linear-combination right side).  Irreducible words
are enumerated breadth-first and taken as the basis; reducing concatenations
to normal form gives the structure constants, kept only as the sorted list
``table`` of nonzero products.  ``validate`` certifies dimension, identity
and associativity on every basis triple at every dimension, which together
confirm that the rule set was confluent on everything the list holds.

Also here: centers, commutator subspaces, symmetrizing forms, and the
power-map subspaces T_n = {x : x^(p^n) in span of commutators} together with
their orthogonal spaces, all as exact ``Subspace`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    Field,
    Section,
    Subspace,
    dense_sums,
    kernel_space,
    matmul,
    nested_products,
    nonzero_sums,
    pack_vector,
    rank,
    semilinear_kernel,
)


# reduction steps one normal form may take before the rules count as looping
STEP_LIMIT = 2_000_000
# basis words past which enumeration counts the algebra as infinite-dimensional
DIM_GUARD = 4000


class AlgebraError(Exception):
    pass


class RewriteError(AlgebraError):
    """Reduction exceeded its length cap or step budget."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class PathWord:
    """A path in the quiver: arrow indices composed left to right."""

    arrows: tuple[int, ...]
    source: int
    target: int

    def __len__(self) -> int:
        return len(self.arrows)


class Quiver:
    def __init__(self, n_vertices: int, arrows, vertex_labels=None):
        self.n_vertices = n_vertices
        self.arrows = []
        self.arrow_index: dict[str, int] = {}
        for name, src, tgt in arrows:
            if not 0 <= src < n_vertices or not 0 <= tgt < n_vertices:
                raise ValueError(f"arrow {name}: endpoint out of range")
            if name in self.arrow_index:
                raise ValueError(f"duplicate arrow name {name!r}")
            self.arrow_index[name] = len(self.arrows)
            self.arrows.append(Arrow(name, src, tgt))
        self.vertex_labels = list(vertex_labels) if vertex_labels else [
            str(v) for v in range(n_vertices)
        ]

    def idempotent_word(self, v: int) -> PathWord:
        return PathWord((), v, v)

    def word(self, *names: str) -> PathWord:
        """Compose named arrows left to right into a path."""
        idxs = tuple(self.arrow_index[n] for n in names)
        return self.word_from_indices(idxs)

    def word_from_indices(self, idxs, source: int | None = None) -> PathWord:
        idxs = tuple(idxs)
        if not idxs:
            if source is None:
                raise ValueError("empty word needs an explicit source vertex")
            return PathWord((), source, source)
        src = self.arrows[idxs[0]].source
        cur = src
        for i in idxs:
            a = self.arrows[i]
            if a.source != cur:
                raise ValueError(
                    f"path not composable at {a.name}: expected source "
                    f"{self.vertex_labels[cur]}, got {self.vertex_labels[a.source]}"
                )
            cur = a.target
        return PathWord(idxs, src, cur)

    def word_str(self, w: PathWord) -> str:
        if not w.arrows:
            return f"I({self.vertex_labels[w.source]})"
        return "*".join(self.arrows[i].name for i in w.arrows)


class Rule:
    """lhs -> sum of (coeff, word); an empty rhs means the lhs is zero."""

    def __init__(self, quiver: Quiver, field: Field, lhs, rhs=()):
        self.lhs = tuple(lhs)
        if not self.lhs:
            raise ValueError("rule left side must be a nonempty path")
        lw = quiver.word_from_indices(self.lhs)
        self.source, self.target = lw.source, lw.target
        cleaned = []
        for coeff, arrows in rhs:
            c = field.code(coeff)
            if c == 0:
                continue
            w = quiver.word_from_indices(tuple(arrows), source=lw.source)
            if (w.source, w.target) != (lw.source, lw.target):
                raise ValueError(
                    f"rule rhs word endpoints ({w.source},{w.target}) differ "
                    f"from lhs endpoints ({lw.source},{lw.target})"
                )
            cleaned.append((c, tuple(arrows)))
        self.rhs = tuple(cleaned)
        self.lhs_len = len(self.lhs)

    @property
    def is_zero(self) -> bool:
        return not self.rhs


class RewriteEngine:
    """Reduces linear combinations of paths with a fixed deterministic strategy.

    The strategy picks the leftmost matching position, and at that position
    the first rule in the stored order (zero rules sort first).  A random
    strategy is available separately so tests can probe confluence.
    """

    def __init__(self, field: Field, quiver: Quiver, rules, length_cap: int):
        self.field = field
        self.quiver = quiver
        self.rules = sorted(rules, key=lambda r: 0 if r.is_zero else 1)
        self.length_cap = length_cap
        self._cache: dict[tuple, tuple] = {}
        self._normal: set[tuple] = set()
        self.max_seen_len = 0

    def find_match(self, w: tuple):
        rules = self.rules
        n = len(w)
        for pos in range(n):
            rest = n - pos
            for ri, rule in enumerate(rules):
                length = rule.lhs_len
                if length <= rest and w[pos : pos + length] == rule.lhs:
                    return pos, ri
        return None

    def normal_form_word(self, word) -> dict[tuple, int]:
        word = tuple(word)
        cached = self._cache.get(word)
        if cached is not None:
            return dict(cached)
        f = self.field
        terms: dict[tuple, int] = {word: 1}
        steps = 0
        while True:
            pick = None
            for w in terms:
                if w in self._normal:
                    continue
                known = self._cache.get(w)
                if known is not None:
                    pick = (w, "cached", known)
                    break
                m = self.find_match(w)
                if m is None:
                    self._normal.add(w)
                    continue
                pick = (w, "step", m)
                break
            if pick is None:
                break
            w, kind, data = pick
            c = terms.pop(w)
            if kind == "cached":
                for w2, c2 in data:
                    merged = f.add(terms.get(w2, 0), f.mul(c, c2))
                    if merged:
                        terms[w2] = merged
                    else:
                        terms.pop(w2, None)
                continue
            pos, ri = data
            rule = self.rules[ri]
            for rc, rw in rule.rhs:
                nw = w[:pos] + rw + w[pos + rule.lhs_len :]
                if len(nw) > self.length_cap:
                    raise RewriteError(
                        f"reduction produced a word of length {len(nw)} "
                        f"(cap {self.length_cap}); rules are likely non-terminating"
                    )
                if len(nw) > self.max_seen_len:
                    self.max_seen_len = len(nw)
                merged = f.add(terms.get(nw, 0), f.mul(c, rc))
                if merged:
                    terms[nw] = merged
                else:
                    terms.pop(nw, None)
            steps += 1
            if steps > STEP_LIMIT:
                raise RewriteError(f"step limit {STEP_LIMIT} exceeded")
        result = {w: c for w, c in terms.items() if c}
        self._cache[word] = tuple(result.items())
        return result

    def random_strategy_normal_form(self, word, rng) -> dict[tuple, int]:
        """Reduce with randomly chosen redexes; no caching.  For confluence tests."""
        f = self.field
        terms: dict[tuple, int] = {tuple(word): 1}
        steps = 0
        while True:
            candidates = []
            for w in terms:
                n = len(w)
                for pos in range(n):
                    for ri, rule in enumerate(self.rules):
                        length = rule.lhs_len
                        if length <= n - pos and w[pos : pos + length] == rule.lhs:
                            candidates.append((w, pos, ri))
            if not candidates:
                break
            w, pos, ri = candidates[rng.randrange(len(candidates))]
            c = terms.pop(w)
            rule = self.rules[ri]
            for rc, rw in rule.rhs:
                nw = w[:pos] + rw + w[pos + rule.lhs_len :]
                if len(nw) > self.length_cap:
                    raise RewriteError("length cap exceeded under random strategy")
                merged = f.add(terms.get(nw, 0), f.mul(c, rc))
                if merged:
                    terms[nw] = merged
                else:
                    terms.pop(nw, None)
            steps += 1
            if steps > STEP_LIMIT:
                raise RewriteError("step limit exceeded under random strategy")
        return {w: c for w, c in terms.items() if c}


class Algebra:
    """Finite-dimensional quotient of a path algebra, with exact multiplication."""

    def __init__(self, field: Field, quiver: Quiver, rules, name: str = "",
                 expected_dim: int | None = None, length_cap: int | None = None):
        self.field = field
        self.quiver = quiver
        self.name = name
        self.expected_dim = expected_dim
        self.rules = sorted(rules, key=lambda r: 0 if r.is_zero else 1)
        self.basis = self._enumerate_basis()
        self.dim = len(self.basis)
        self.index = {w: i for i, w in enumerate(self.basis)}
        max_len = max((len(w) for w in self.basis), default=1)
        cap = length_cap if length_cap is not None else 6 * max_len + 6
        self.engine = RewriteEngine(field, quiver, self.rules, cap)
        self._table: tuple[np.ndarray, ...] | None = None
        self._center: Subspace | None = None
        self._commutator: Subspace | None = None

    def _enumerate_basis(self) -> list[PathWord]:
        q = self.quiver
        rules = self.rules
        frontier = [q.idempotent_word(v) for v in range(q.n_vertices)]
        basis = list(frontier)
        while frontier:
            new = []
            for w in frontier:
                for a_idx, arr in enumerate(q.arrows):
                    if arr.source != w.target:
                        continue
                    ext = w.arrows + (a_idx,)
                    n = len(ext)
                    blocked = any(
                        r.lhs_len <= n and ext[n - r.lhs_len :] == r.lhs
                        for r in rules
                    )
                    if not blocked:
                        new.append(PathWord(ext, w.source, arr.target))
            basis.extend(new)
            if len(basis) > DIM_GUARD:
                raise AlgebraError(
                    f"basis enumeration passed {DIM_GUARD} words; "
                    "the relations do not define a finite-dimensional algebra "
                    "with this orientation"
                )
            frontier = new
        basis.sort(key=lambda w: (len(w.arrows), w.arrows, w.source))
        return basis

    # ---- elements as coefficient vectors over self.basis ----

    def zero(self) -> np.ndarray:
        return np.zeros(self.dim, dtype=np.int64)

    def basis_vector(self, i: int) -> np.ndarray:
        v = self.zero()
        v[i] = 1
        return v

    def one(self) -> np.ndarray:
        v = self.zero()
        for vert in range(self.quiver.n_vertices):
            v[self.index[self.quiver.idempotent_word(vert)]] = 1
        return v

    def idempotent(self, vert: int) -> np.ndarray:
        return self.basis_vector(self.index[self.quiver.idempotent_word(vert)])

    def window(self, source: int | None, target: int | None) -> list[int]:
        """Basis indices of e_source A e_target, in basis order; ``None``
        leaves that end free."""
        return [i for i, w in enumerate(self.basis)
                if source in (None, w.source) and target in (None, w.target)]

    def element(self, terms) -> np.ndarray:
        """Vector of a linear combination of paths, reducing where needed.

        ``terms`` is an iterable of (coeff, PathWord) pairs.
        """
        f = self.field
        out = self.zero()
        for coeff, w in terms:
            c = f.code(coeff)
            if c == 0:
                continue
            nf = self.engine.normal_form_word(w.arrows)
            for arrows, c2 in nf.items():
                w2 = PathWord(arrows, w.source, w.target)
                idx = self.index.get(w2)
                if idx is None:
                    raise AlgebraError(
                        f"normal form contains non-basis word {self.quiver.word_str(w2)}"
                    )
                out[idx] = f.add(out[idx], f.mul(c, c2))
        return out

    def word_element(self, *names: str) -> np.ndarray:
        w = self.quiver.word(*names)
        return self.element([(1, w)])

    @property
    def table(self) -> tuple[np.ndarray, ...]:
        """The nonzero structure constants b_x b_y = sum of c b_z, as four
        int64 arrays (x, y, z, c) sorted by (x, y, z), as ``np.nonzero`` orders."""
        if self._table is None:
            entries = []
            for i, wi in enumerate(self.basis):
                for j, wj in enumerate(self.basis):
                    if wi.target != wj.source:
                        continue
                    nf = self.engine.normal_form_word(wi.arrows + wj.arrows)
                    for arrows, c in nf.items():
                        w2 = PathWord(arrows, wi.source, wj.target)
                        idx = self.index.get(w2)
                        if idx is None:
                            raise AlgebraError(
                                f"product {self.quiver.word_str(wi)}*"
                                f"{self.quiver.word_str(wj)} reduced to non-basis "
                                f"word {self.quiver.word_str(w2)}"
                            )
                        entries.append((i, j, idx, c))
            entries.sort()
            self._table = tuple(np.array(entries, dtype=np.int64).reshape(-1, 4).T.copy())
        return self._table

    def multiply(self, u, v) -> np.ndarray:
        """The product uv, or row by row for stacks that broadcast as in
        ``field.matmul``.  The contraction runs over the nonzero constants
        b_x b_y, x and y in the union of the rows' supports, one row each."""
        f = self.field
        u, v = np.broadcast_arrays(np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
        shape = u.shape
        u, v = u.reshape(-1, self.dim), v.reshape(-1, self.dim)
        x, y, z, c = self.table
        e = np.flatnonzero(u.any(axis=0)[x] & v.any(axis=0)[y])
        rows = np.zeros((len(e), self.dim), dtype=np.int64)
        rows[np.arange(len(e)), z[e]] = c[e]
        return matmul(f, f.mul(u[:, x[e]], v[:, y[e]]), rows).reshape(shape)

    def power(self, u, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("negative powers are not defined here")
        acc = self.one()
        base = np.asarray(u, dtype=np.int64)
        while e:
            if e & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            e >>= 1
        return acc

    def left_mult_matrix(self, u) -> np.ndarray:
        """Matrix of x -> ux."""
        x, y, z, c = self.table
        return dense_sums(self.field, z, y, self.field.mul(np.asarray(u)[x], c), (self.dim,) * 2)

    def right_mult_matrix(self, u) -> np.ndarray:
        """Matrix of x -> xu."""
        x, y, z, c = self.table
        return dense_sums(self.field, z, x, self.field.mul(np.asarray(u)[y], c), (self.dim,) * 2)

    # ---- derived structures ----

    def generators(self) -> list[np.ndarray]:
        gens = [self.idempotent(v) for v in range(self.quiver.n_vertices)]
        for a_idx in range(len(self.quiver.arrows)):
            gens.append(self.element([(1, self.quiver.word_from_indices((a_idx,)))]))
        return gens

    def ad_matrix(self) -> np.ndarray:
        """The (n^2, n) matrix of u -> L_u - R_u: column i is ad(b_i), with
        entry (r, c) of that matrix at row r*n + c."""
        f, n = self.field, self.dim
        x, y, z, c = self.table
        # b_x b_y = c b_z puts c in L_(b_x) at (z, y) and -c in R_(b_y) at (z, x)
        return dense_sums(f, np.concatenate([z * n + y, z * n + x]), np.concatenate([x, y]),
                          np.concatenate([c, f.neg(c)]), (n * n, n))

    def center(self) -> Subspace:
        if self._center is None:
            self._center = kernel_space(self.field, self.ad_matrix())
        return self._center

    def commutator_space(self) -> Subspace:
        if self._commutator is None:
            n = self.dim
            # row i n + j is [b_i, b_j], from column i of ad at row (r, j)
            rows = self.ad_matrix().reshape(n, n, n).transpose(2, 1, 0).reshape(-1, n)
            self._commutator = Subspace(self.field, n, rows[rows.any(axis=1)])
        return self._commutator

    def gram_matrix(self, lam) -> np.ndarray:
        """Gram matrix of the bilinear form (u, v) -> lam(u v)."""
        x, y, z, c = self.table
        return dense_sums(self.field, x, y, self.field.mul(np.asarray(lam)[z], c), (self.dim,) * 2)

    def check_symmetrizing(self, lam) -> None:
        g = self.gram_matrix(lam)
        if not np.array_equal(g, g.T):
            raise AlgebraError("form is not symmetric")
        if rank(self.field, g) != self.dim:
            raise AlgebraError("form is degenerate")

    def power_subspace(self, n: int = 1) -> Subspace:
        """T_n = {x : x^(p^n) lies in the span of commutators}, over GF(q).

        The map x -> x^(p^n) is additive modulo commutators and twists scalars
        by the (p^n)-power Frobenius, so T_n is the kernel of a semilinear map
        into A / [A, A].
        """
        f = self.field
        sec = Section(f, self.commutator_space())
        powers = self.power(np.eye(self.dim, dtype=np.int64), f.p**n)
        ker_p = semilinear_kernel(f, sec.class_coords(powers).T, n % f.m)
        packed = [pack_vector(f, r) for r in ker_p.rows]
        space = Subspace(f, self.dim, packed)
        if f.m * space.dim != ker_p.dim:
            raise AlgebraError("power subspace failed the scalar-closure check")
        return space

    def power_subspace_perp(self, lam, n: int = 1) -> Subspace:
        tn = self.power_subspace(n)
        return kernel_space(self.field, matmul(self.field, tn.rows, self.gram_matrix(lam)))

    def stable_center_quotient_dim(self, lam, n: int = 1) -> int:
        """dim of Z(A) / (T_n)^perp for the symmetrizing form lam."""
        z = self.center()
        perp = self.power_subspace_perp(lam, n)
        if not z.contains_space(perp):
            raise AlgebraError("(T_n)^perp is not contained in the center")
        return z.dim - perp.dim

    # ---- validation ----

    def validate(self) -> dict:
        if self.expected_dim is not None and self.dim != self.expected_dim:
            raise AlgebraError(
                f"{self.name or 'algebra'}: dimension {self.dim} != expected {self.expected_dim}"
            )
        one = self.one()
        lm = self.left_mult_matrix(one)
        rm = self.right_mult_matrix(one)
        eye = np.eye(self.dim, dtype=np.int64)
        if not (np.array_equal(lm, eye) and np.array_equal(rm, eye)):
            raise AlgebraError("sum of vertex idempotents is not an identity")
        self.check_associative()
        return {"dim": self.dim, "associativity": "exhaustive"}

    def check_associative(self) -> None:
        """(b_i b_j) b_k = b_i (b_j b_k) for every basis triple.  The left
        sides are ``nested_products`` of the nonzero products; the right
        sides are those of the opposite product b_y * b_x, whose (b_k * b_j)
        * b_i is b_i (b_j b_k).  The terms keyed (i, j, k, m) must sum alike."""
        f, n = self.field, self.dim
        x, y, z, c = self.table
        i, j, k, m, left_c = nested_products(f, x, y, z, c)
        left = ((i * n + j) * n + k) * n + m
        k, j, i, m, right_c = nested_products(f, y, x, z, c)
        right = ((i * n + j) * n + k) * n + m
        bad, _ = nonzero_sums(f, np.concatenate([left, right]),
                              np.concatenate([left_c, f.neg(right_c)]))
        if len(bad):
            i, j, k = (int(v) for v in np.unravel_index(bad[0] // n, (n, n, n)))
            raise AlgebraError(f"associativity fails at basis triple ({i}, {j}, {k})")

    def format_element(self, vec) -> str:
        f = self.field
        parts = []
        for i in np.nonzero(np.asarray(vec))[0]:
            c = int(vec[i])
            w = self.quiver.word_str(self.basis[i])
            if c == 1:
                parts.append(w)
            else:
                parts.append(f"{f.element_str(c)}*{w}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        label = self.name or "Algebra"
        return f"{label}(dim={self.dim}, {self.field})"

