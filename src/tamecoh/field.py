"""Exact arithmetic over small finite fields GF(p^m), p in {2, 3, 5, 7}, m <= 4.

Elements are integer codes in ``range(q)``: the element ``sum d_i w^i`` (with
``w`` the class of ``x`` modulo the field's irreducible polynomial) has code
``sum d_i p^i``.  The modulus for each ``(p, m)`` is pinned in ``MODULI``
(Conway polynomials), so codes are stable across runs and serialized data is
portable.  For every supported field the class of ``x`` (code ``p``) is a
primitive element; this is asserted at construction time.

Matrices are plain ``numpy`` integer arrays of codes.  All row reduction is
done in exact field arithmetic; ``Subspace`` keeps a reduced row echelon
basis, which makes equal subspaces bit-identical.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)

# Low-to-high coefficient tuples (c0, ..., c_{m-1}) of the monic modulus
# x^m + c_{m-1} x^{m-1} + ... + c_1 x + c_0 (Conway polynomials).
MODULI = {
    (2, 1): (1,),
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (3, 1): (1,),
    (3, 2): (2, 2),
    (3, 3): (1, 2, 0),
    (3, 4): (2, 0, 0, 2),
    (5, 1): (3,),
    (5, 2): (2, 4),
    (5, 3): (3, 3, 0),
    (5, 4): (2, 4, 4, 0),
    (7, 1): (4,),
    (7, 2): (3, 6),
    (7, 3): (4, 0, 6),
    (7, 4): (3, 4, 5, 0),
}


class Field:
    """GF(p^m) with integer-coded elements and vectorized array operations."""

    def __init__(self, p: int, m: int = 1):
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported characteristic {p}; expected one of {SUPPORTED_PRIMES}")
        if not 1 <= m <= 4:
            raise ValueError(f"unsupported extension degree {m}; expected 1 <= m <= 4")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = MODULI[(p, m)]
        self._pow_p = tuple(p**i for i in range(m))
        self._build_tables()

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        if m == 1:
            gen = (-self.modulus[0]) % p
        else:
            gen = p  # the class of x
        exp = np.zeros(2 * (q - 1), dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        a = 1
        for i in range(q - 1):
            exp[i] = a
            exp[i + q - 1] = a
            log[a] = i
            a = self._mul_slow(a, gen)
        if a != 1 or np.any(log[1:] < 0):
            raise AssertionError(f"modulus table for GF({p}^{m}) does not give a primitive generator")
        self.exp = exp
        self.log = log

    def _mul_slow(self, a: int, b: int) -> int:
        """Schoolbook polynomial product mod the modulus, used to seed tables."""
        p, m = self.p, self.m
        da = [(a // p**i) % p for i in range(m)]
        db = [(b // p**i) % p for i in range(m)]
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i, mi in enumerate(self.modulus):
                    prod[d - m + i] = (prod[d - m + i] - c * mi) % p
        return sum(prod[i] * p**i for i in range(m))

    @classmethod
    def parse(cls, text: str) -> "Field":
        """Build a field from a descriptor like ``GF(4)`` or ``GF(3^2)``."""
        t = text.strip()
        if not (t.startswith("GF(") and t.endswith(")")):
            raise ValueError(f"bad field descriptor {text!r}; expected GF(q) or GF(p^m)")
        inner = t[3:-1]
        if "^" in inner:
            p_s, m_s = inner.split("^", 1)
            return cls(int(p_s), int(m_s))
        q = int(inner)
        for p in SUPPORTED_PRIMES:
            if q % p == 0:
                m = 0
                qq = q
                while qq % p == 0:
                    qq //= p
                    m += 1
                if qq == 1:
                    return cls(p, m)
        raise ValueError(f"{q} is not a supported prime power")

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash(("Field", self.p, self.m))

    # ---- element operations (work on ints and numpy arrays alike) ----

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        out = 0
        for pi in self._pow_p:
            out = out + (((a // pi) + (b // pi)) % self.p) * pi
        return out

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.p
        out = 0
        for pi in self._pow_p:
            out = out + ((-(a // pi)) % self.p) * pi
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
            if a == 0 or b == 0:
                return 0
            return int(self.exp[self.log[a] + self.log[b]])
        a_arr = np.asarray(a)
        b_arr = np.asarray(b)
        a_b, b_b = np.broadcast_arrays(a_arr, b_arr)
        out = np.zeros(a_b.shape, dtype=np.int64)
        nz = (a_b != 0) & (b_b != 0)
        if np.any(nz):
            out[nz] = self.exp[self.log[a_b[nz]] + self.log[b_b[nz]]]
        return out

    def inv(self, a: int) -> int:
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)])

    def pow(self, a: int, n: int) -> int:
        a = int(a)
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return int(self.exp[(int(self.log[a]) * n) % (self.q - 1)])

    def frobenius(self, a, j: int = 1):
        """Apply x -> x^(p^j) elementwise."""
        e = self.p**j
        if isinstance(a, (int, np.integer)):
            return self.pow(int(a), e)
        a_arr = np.asarray(a)
        out = np.zeros(a_arr.shape, dtype=np.int64)
        nz = a_arr != 0
        if np.any(nz):
            out[nz] = self.exp[(self.log[a_arr[nz]] * e) % (self.q - 1)]
        return out

    def embed(self, n: int) -> int:
        """Image of the integer n under Z -> GF(p^m)."""
        return n % self.p

    def code(self, value) -> int:
        """A coefficient given from outside, as a field code.

        Over GF(p) every integer is reduced mod p.  Over GF(p^m) integers do
        not map onto the codes, so the value must already lie in range(q).
        """
        c = int(value)
        if self.m == 1:
            return c % self.p
        if not 0 <= c < self.q:
            raise ValueError(f"{value} is not a field code in GF({self.q})")
        return c

    def elements(self):
        return range(self.q)

    def digits(self, code: int):
        return tuple((code // pi) % self.p for pi in self._pow_p)

    def from_digits(self, digits) -> int:
        return sum(int(d) % self.p * pi for d, pi in zip(digits, self._pow_p))

    def element_str(self, code: int) -> str:
        if self.m == 1:
            return str(int(code))
        terms = []
        for i, d in enumerate(self.digits(code)):
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                mon = "w" if i == 1 else f"w^{i}"
                terms.append(mon if d == 1 else f"{d}*{mon}")
        return "+".join(terms) if terms else "0"

    def rand(self, rng, shape=None):
        if shape is None:
            return rng.randrange(self.q)
        return np.array([rng.randrange(self.q) for _ in range(int(np.prod(shape)))],
                        dtype=np.int64).reshape(shape)

    # ---- GF(p)-linear views, used by the semilinear kernel ----

    def mult_matrix(self, a: int) -> np.ndarray:
        """m x m matrix over GF(p) of v -> a*v in digit coordinates."""
        cols = []
        for i in range(self.m):
            cols.append(self.digits(self.mul(int(a), self._pow_p[i])))
        return np.array(cols, dtype=np.int64).T % self.p

    def frob_matrix(self, j: int = 1) -> np.ndarray:
        """m x m matrix over GF(p) of the j-fold Frobenius in digit coordinates."""
        cols = []
        for i in range(self.m):
            cols.append(self.digits(self.frobenius(self._pow_p[i], j)))
        return np.array(cols, dtype=np.int64).T % self.p


# ---------------------------------------------------------------------------
# dense exact linear algebra
# ---------------------------------------------------------------------------


def as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def rref(field: Field, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns."""
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
        piv = int(r_mat[r, c])
        if piv != 1:
            r_mat[r] = field.mul(r_mat[r], field.inv(piv))
        col_vals = r_mat[:, c].copy()
        col_vals[r] = 0
        rows_nz = np.nonzero(col_vals)[0]
        if len(rows_nz):
            update = field.mul(col_vals[rows_nz][:, None], r_mat[r][None, :])
            r_mat[rows_nz] = field.sub(r_mat[rows_nz], update)
        pivots.append(c)
        r += 1
    return r_mat, pivots


def rank(field: Field, mat) -> int:
    return len(rref(field, mat)[1])


def matmul(field: Field, a, b) -> np.ndarray:
    a_m = as_matrix(a)
    b_m = as_matrix(b)
    if a_m.shape[1] != b_m.shape[0]:
        raise ValueError(f"shape mismatch {a_m.shape} @ {b_m.shape}")
    if field.m == 1:
        return (a_m @ b_m) % field.p
    out = np.zeros((a_m.shape[0], b_m.shape[1]), dtype=np.int64)
    for k in range(a_m.shape[1]):
        col = a_m[:, k]
        if not np.any(col):
            continue
        out = field.add(out, field.mul(col[:, None], b_m[k][None, :]))
    return out


def kron(field: Field, a, b) -> np.ndarray:
    """Kronecker product with entries multiplied in the field."""
    a = as_matrix(a)
    b = as_matrix(b)
    out = field.mul(a[:, None, :, None], b[None, :, None, :])
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def matvec(field: Field, a, v) -> np.ndarray:
    return matmul(field, a, np.asarray(v, dtype=np.int64).reshape(-1, 1)).reshape(-1)


def kernel_basis(field: Field, mat) -> np.ndarray:
    """Canonical basis (as rows) of the right kernel {v : mat @ v = 0}."""
    m = as_matrix(mat)
    n_cols = m.shape[1]
    r_mat, pivots = rref(field, m)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for idx, f in enumerate(free):
        basis[idx, f] = 1
        for i, pc in enumerate(pivots):
            basis[idx, pc] = field.neg(int(r_mat[i, f]))
    return basis


def solve(field: Field, a, b):
    """One solution of a @ x = b, or None if inconsistent."""
    a_m = as_matrix(a)
    b_v = np.asarray(b, dtype=np.int64).reshape(-1)
    aug = np.hstack([a_m, b_v[:, None]])
    r_mat, pivots = rref(field, aug)
    n_cols = a_m.shape[1]
    if n_cols in pivots:
        return None
    x = np.zeros(n_cols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r_mat[i, n_cols]
    return x


def inverse(field: Field, a) -> np.ndarray:
    """Inverse of a square matrix; raises ValueError when singular."""
    a_m = as_matrix(a)
    n = a_m.shape[0]
    if a_m.shape != (n, n):
        raise ValueError(f"not square: {a_m.shape}")
    aug = np.hstack([a_m, np.eye(n, dtype=np.int64)])
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:n, n:]


class Subspace:
    """Subspace of F^n held as a reduced-row-echelon basis (canonical)."""

    def __init__(self, field: Field, ambient_dim: int, vectors=None):
        self.field = field
        self.ambient_dim = ambient_dim
        if vectors is None or len(vectors) == 0:
            self.rows = np.zeros((0, ambient_dim), dtype=np.int64)
            self._pivots: list[int] = []
        else:
            r_mat, pivots = rref(field, as_matrix(vectors))
            self.rows = r_mat[: len(pivots)]
            self._pivots = pivots

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def reduce(self, v) -> np.ndarray:
        """Residual of v after eliminating against the echelon basis."""
        res = np.asarray(v, dtype=np.int64).copy()
        f = self.field
        for i, pc in enumerate(self._pivots):
            c = int(res[pc])
            if c:
                res = f.sub(res, f.mul(c, self.rows[i]))
        return res

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows.shape == other.rows.shape
                and bool(np.all(self.rows == other.rows)))

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.ambient_dim,
                        np.vstack([self.rows, other.rows]))

    def intersect(self, other: "Subspace") -> "Subspace":
        # ker of the pairing with both annihilator... simplest: solve via
        # the kernel of [A^T | -B^T] stacked coefficients.
        a, b = self.rows, other.rows
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient_dim)
        big = np.vstack([a, b]).T  # n x (da+db)
        ker = kernel_basis(self.field, big)
        vecs = [matvec(self.field, a.T, k[: self.dim]) for k in ker]
        return Subspace(self.field, self.ambient_dim, vecs)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, {self.field})"


class Section:
    """Canonical splitting ambient = sub (+) complement, with class coordinates.

    The complement is chosen greedily from the ambient basis in order, so for
    a fixed (sub, ambient) pair the result is deterministic.
    """

    def __init__(self, field: Field, sub: Subspace, ambient: Subspace | None = None):
        self.field = field
        self.sub = sub
        n = sub.ambient_dim
        if ambient is None:
            amb_rows = np.eye(n, dtype=np.int64)
        else:
            if ambient.ambient_dim != n:
                raise ValueError("ambient dimension mismatch")
            amb_rows = ambient.rows
        acc = Subspace(field, n, sub.rows)
        comp = []
        for row in amb_rows:
            if not acc.contains(row):
                comp.append(row.copy())
                acc = Subspace(field, n, np.vstack([acc.rows, row[None, :]]))
        self.comp = (np.array(comp, dtype=np.int64) if comp
                     else np.zeros((0, n), dtype=np.int64))
        stack = np.vstack([sub.rows, self.comp])  # r x n, independent rows
        r = stack.shape[0]
        if r:
            aug = np.hstack([stack.T, np.eye(n, dtype=np.int64)])
            red, pivots = rref(field, aug)
            if pivots[:r] != list(range(r)):
                raise AssertionError("section basis unexpectedly dependent")
            self._left_inv = red[:r, r:]  # L with L @ stack.T = I_r
        else:
            self._left_inv = np.zeros((0, n), dtype=np.int64)
        self._sub_dim = sub.dim

    @property
    def dim(self) -> int:
        return self.comp.shape[0]

    def class_coords(self, v) -> np.ndarray:
        """Coordinates of v + sub in the complement basis (v must lie in ambient)."""
        y = matvec(self.field, self._left_inv, v)
        return y[self._sub_dim:]

    def decompose(self, v) -> tuple[np.ndarray, np.ndarray]:
        y = matvec(self.field, self._left_inv, v)
        return y[: self._sub_dim], y[self._sub_dim:]

    def lift(self, coords) -> np.ndarray:
        if self.dim == 0:
            return np.zeros(self.sub.ambient_dim, dtype=np.int64)
        return matvec(self.field, self.comp.T, coords)


def image_basis(field: Field, mat) -> Subspace:
    """Column space of mat as a canonical subspace."""
    m = as_matrix(mat)
    return Subspace(field, m.shape[0], m.T)


def kernel_space(field: Field, mat) -> Subspace:
    m = as_matrix(mat)
    return Subspace(field, m.shape[1], kernel_basis(field, m))


# ---------------------------------------------------------------------------
# semilinear kernels via GF(p)-expansion
# ---------------------------------------------------------------------------


def expand_vector(field: Field, v) -> np.ndarray:
    """GF(p) digit expansion of a GF(p^m) vector (length n -> n*m)."""
    v_arr = np.asarray(v, dtype=np.int64).reshape(-1)
    out = np.zeros(len(v_arr) * field.m, dtype=np.int64)
    for i, code in enumerate(v_arr):
        out[i * field.m : (i + 1) * field.m] = field.digits(int(code))
    return out

def pack_vector(field: Field, v) -> np.ndarray:
    """Inverse of expand_vector."""
    v_arr = np.asarray(v, dtype=np.int64).reshape(-1)
    if len(v_arr) % field.m:
        raise ValueError("length not divisible by extension degree")
    n = len(v_arr) // field.m
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        out[i] = field.from_digits(v_arr[i * field.m : (i + 1) * field.m])
    return out


def semilinear_kernel(field: Field, mat, frob_power: int) -> Subspace:
    """Kernel of v -> mat @ frobenius^frob_power(v) as a GF(p)-subspace.

    The result lives in digit coordinates (ambient dim = cols * m); use
    ``pack_vector`` on its basis rows to recover GF(p^m) vectors.
    """
    m_mat = as_matrix(mat)
    n_rows, n_cols = m_mat.shape
    deg = field.m
    prime = field if deg == 1 else Field(field.p, 1)
    frob = field.frob_matrix(frob_power % deg) if deg > 1 else np.array([[1]], dtype=np.int64)
    big = np.zeros((n_rows * deg, n_cols * deg), dtype=np.int64)
    for r in range(n_rows):
        for c in range(n_cols):
            a = int(m_mat[r, c])
            if a == 0:
                continue
            block = matmul(prime, field.mult_matrix(a), frob) if deg > 1 else \
                np.array([[a]], dtype=np.int64)
            big[r * deg : (r + 1) * deg, c * deg : (c + 1) * deg] = block
    return kernel_space(prime, big)
