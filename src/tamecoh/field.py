"""Exact arithmetic over small finite fields GF(p^m), p in {2, 3, 5, 7}, m <= 4.

Elements are integer codes in ``range(q)``: the element ``sum d_i w^i`` (with
``w`` the class of ``x`` modulo the field's irreducible polynomial) has code
``sum d_i p^i``.  The modulus for each ``(p, m)`` is pinned in ``MODULI``
(Conway polynomials), so codes are stable across runs and serialized data is
portable.  For every supported field the class of ``x`` (code ``p``) is a
primitive element; this is asserted when the tables are built.

In characteristic 2 a code is the GF(2) digits of its element packed into
bits, so ``add`` and ``sub`` are a bitwise XOR and ``neg`` is the identity
(it returns a new value, never its argument); over GF(2) itself ``mul`` is a
bitwise AND.  Every other operation is a lookup in read-only int64 tables,
built once per ``(p, m)`` in a process and shared by all ``Field`` objects
of that order:

* ``add[a, b]`` (q x q) and ``neg[a]`` (length q); ``sub`` is
  ``add[a, neg[b]]``.
* ``log`` and ``exp`` of the primitive element, with ``mul(a, b) =
  exp[log[a] + log[b]]``.  ``log[0]`` is the sentinel 2(q - 1) and ``exp``
  is zero from that index on, so products with 0 need no mask.
* ``digits[a]`` (q x m), the GF(p) coordinates of ``a``, and ``mats[a]``
  (q x m x m), the GF(p) matrix of ``v -> a v`` in those coordinates.

For odd p the sums and products stay lookups: ``%`` on int64 is an integer
division, and ``(a + b) % p`` or ``a * b % p`` over an array costs more than
the gather from a table of at most 7^4 codes.

The last two give the GF(p)-expansion used by ``matmul``: a q-ary matrix
product ``A @ B`` is the p-ary product of ``A`` with every entry replaced by
its m x m block ``mats[a]`` and ``B`` with every entry replaced by its digit
column, reduced mod p and packed back into codes.  Over GF(p) the expansion
is the identity and the product is ``(A @ B) % p``.  The same expansion gives
the GF(p)-linear matrices of semilinear maps (``semilinear_kernel``).

That product runs in float64 through BLAS, as in FFLAS-FFPACK (Dumas, Giorgi,
Pernet, ACM TOMS 2008), and is exact: every partial sum is an integer of at
most k (p - 1)^2 for inner dimension k, and ``matmul`` refuses a product
where that bound reaches 2^53.

Dense matrices are plain ``numpy`` int64 arrays of codes; all row reduction is
exact.  ``Subspace`` keeps a reduced row echelon basis, which makes equal
subspaces bit-identical.
``rref`` reduces each block of rows against the echelon basis so far in one
``matmul``, eliminates the residual pivot by pivot, and back-reduces the
basis on the new pivots in one more.  The RREF is unique, so the blocks do
not change it.  A sparse matrix is given by its nonzero entries (rows,
cols, codes), plus its shape where one is needed.  It is split into the
independent blocks of its row-column graph, which ``block_eliminate`` packs
into dense chunks of bounded size for ``rref``; ``block_rank`` sums their
ranks, and ``product_vanishes`` tests a product on the entries alone.
"""

from __future__ import annotations

import functools
import operator

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


def _mul_slow(p: int, m: int, a: int, b: int) -> int:
    """Schoolbook polynomial product mod the modulus, used to seed tables."""
    modulus = MODULI[(p, m)]
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
            for i, mi in enumerate(modulus):
                prod[d - m + i] = (prod[d - m + i] - c * mi) % p
    return sum(prod[i] * p**i for i in range(m))


@functools.cache
def _tables(p: int, m: int) -> tuple:
    """(add, neg, exp, log, digits, mats) of GF(p^m); see the module docstring."""
    q = p**m
    gen = (-MODULI[(p, m)][0]) % p if m == 1 else p  # the class of x
    exp = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
    log = np.full(q, 2 * (q - 1), dtype=np.int64)
    a = 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = a
        log[a] = i
        a = _mul_slow(p, m, a, gen)
    if a != 1 or np.any(log[1:] >= q - 1):
        raise AssertionError(f"modulus table for GF({p}^{m}) does not give a primitive generator")
    # the code of a is p * (a // p) + (a % p), so each digit of p-adic
    # addition extends the table of the higher digits by one GF(p) table
    prime_add = np.add.outer(np.arange(p), np.arange(p)) % p
    add = prime_add
    for _ in range(m - 1):
        n = add.shape[0] * p
        add = (p * add[:, None, :, None] + prime_add[None, :, None, :]).reshape(n, n)
    pow_p = p ** np.arange(m, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // pow_p % p
    neg = (-digits % p) @ pow_p
    # column j of mats[a] holds the digits of a * p^j
    mats = digits[exp[log[:, None] + log[pow_p][None, :]]].transpose(0, 2, 1).copy()
    out = (add, neg, exp, log, digits, mats)
    for t in out:
        t.setflags(write=False)
    return out


def as_integer(value, what: str) -> int:
    """value as an int (numpy integers included); ValueError for 2.7 or "3"."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


class Field:
    """GF(p^m) with integer-coded elements and vectorized array operations."""

    def __init__(self, p: int, m: int = 1):
        p, m = as_integer(p, "characteristic"), as_integer(m, "extension degree")
        if p not in SUPPORTED_PRIMES:
            raise ValueError(f"unsupported characteristic {p}; expected one of {SUPPORTED_PRIMES}")
        if not 1 <= m <= 4:
            raise ValueError(f"unsupported extension degree {m}; expected 1 <= m <= 4")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = MODULI[(p, m)]
        self._pow_p = p ** np.arange(m, dtype=np.int64)
        self._add, self._neg, self.exp, self.log, self._digits, self._mats = _tables(p, m)
        if p == 2:
            # the digits of a code are its bits, and digit sums are mod 2
            self.add = self.sub = np.bitwise_xor
            self.neg = np.positive
            if m == 1:
                self.mul = np.bitwise_and

    def _mul_slow(self, a: int, b: int) -> int:
        """Schoolbook product, the reference the tables are checked against."""
        return _mul_slow(self.p, self.m, a, b)

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
            m = 1
            while p ** m < q:
                m += 1
            if p ** m == q:
                return cls(p, m)
        raise ValueError(f"{q} is not a supported prime power")

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self) -> int:
        return hash(("Field", self.p, self.m))

    # ---- element operations (work on ints and numpy arrays alike) ----
    # the table versions; __init__ puts bitwise ufuncs in their place when p = 2

    def add(self, a, b):
        return self._add[a, b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a, self._neg[b]]

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

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
        # log[0] is a multiple of q - 1, so 0 lands on exp[0] = 1 and is masked
        return self.exp[(self.log[a] * self.p**j) % (self.q - 1)] * (np.asarray(a) != 0)

    def embed(self, n: int) -> int:
        """Image of the integer n under Z -> GF(p^m)."""
        return n % self.p

    def code(self, value) -> int:
        """A coefficient given from outside, as a field code.

        The value must be an integer (numpy integers included).  Over GF(p)
        every integer is reduced mod p.  Over GF(p^m) integers do not map
        onto the codes, so the value must already lie in range(q).
        """
        c = as_integer(value, "field code")
        if self.m == 1:
            return c % self.p
        if not 0 <= c < self.q:
            raise ValueError(f"{value} is not a field code in GF({self.q})")
        return c

    def elements(self):
        return range(self.q)

    def digits(self, code: int):
        return tuple(self._digits[code].tolist())

    def from_digits(self, digits) -> int:
        return int(np.asarray(digits, dtype=np.int64) % self.p @ self._pow_p)

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
        """A random element, or an array of them from one draw of rng's bytes."""
        if shape is None:
            return rng.randrange(self.q)
        words = np.frombuffer(rng.randbytes(8 * int(np.prod(shape))), dtype=np.uint64)
        # q is below 2^12, so reducing 64-bit words leaves a bias under 2^-52
        return (words % self.q).astype(np.int64).reshape(shape)

    # ---- GF(p)-linear views, used by the semilinear kernel ----

    def mult_matrix(self, a: int) -> np.ndarray:
        """m x m matrix over GF(p) of v -> a*v in digit coordinates."""
        return self._mats[a].copy()

    def frob_matrix(self, j: int = 1) -> np.ndarray:
        """m x m matrix over GF(p) of the j-fold Frobenius in digit coordinates."""
        return self._digits[self.frobenius(self._pow_p, j)].T.copy()


# ---------------------------------------------------------------------------
# dense exact linear algebra
# ---------------------------------------------------------------------------


def as_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def rref(field: Field, mat) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form, and its pivot columns.

    Blocks hold about 2^16 entries, and at least n_cols rows so that one
    can hold a full basis.  A matrix of one block is eliminated pivot by pivot.
    """
    a = as_matrix(mat)
    n_rows, n_cols = a.shape
    block = max(n_cols, 2**16 // max(n_cols, 1))
    basis, pivots = _eliminate(field, a[:block].copy())
    for start in range(block, n_rows, block):
        if len(pivots) == n_cols:
            break
        res = _reduce_rows(field, a[start:start + block], basis, pivots)
        new, new_pivots = _eliminate(field, res[res.any(axis=1)])
        if new_pivots:
            basis = np.vstack([_reduce_rows(field, basis, new, new_pivots), new])
            basis = basis[np.argsort(pivots + new_pivots)]
            pivots = sorted(pivots + new_pivots)
    return basis, pivots


def _reduce_rows(field: Field, rows, basis, pivots) -> np.ndarray:
    """The residual rows - rows[:, pivots] @ basis against a reduced echelon
    basis, in one matmul over the rows that touch a pivot column."""
    out = rows.copy()
    hit = np.flatnonzero(rows[:, pivots].any(axis=1))
    if len(hit):
        out[hit] = field.sub(rows[hit], matmul(field, rows[hit][:, pivots], basis))
    return out


def _eliminate(field: Field, r_mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Per-pivot elimination of r_mat in place; its nonzero RREF rows and pivots.

    Each pivot row is scaled in place when its leading entry is not 1, and
    every other row x with a nonzero a in the pivot column becomes x - a row.
    Over GF(2) every such a is 1, so the update is an XOR of the pivot row.
    """
    n_rows, n_cols = r_mat.shape
    gf2 = field.q == 2
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        nz = r_mat[r:, c].nonzero()[0]
        if not len(nz):
            continue
        pr = r + int(nz[0])
        if pr != r:
            r_mat[[r, pr]] = r_mat[[pr, r]]
        # row r is zero left of column c, so only columns c.. change
        row = r_mat[r, c:]
        if row[0] != 1:
            row[:] = field.mul(row, field.inv(int(row[0])))
        col = r_mat[:, c]
        col[r] = 0
        rows_nz = col.nonzero()[0]
        col[r] = 1
        if len(rows_nz):
            if gf2:
                r_mat[rows_nz, c:] ^= row
            else:
                r_mat[rows_nz, c:] = field.sub(r_mat[rows_nz, c:],
                                               field.mul(col[rows_nz, None], row))
        pivots.append(c)
        r += 1
    return r_mat[:r], pivots


def rank(field: Field, mat) -> int:
    return len(rref(field, mat)[1])


def matmul(field: Field, a, b) -> np.ndarray:
    """Matrix product over the field; stacks of matrices broadcast as in np.matmul.

    Over GF(p^m) every entry x of ``a`` becomes the m x m block ``mats[x]``
    and every entry y of ``b`` its digit column, so one product mod p gives
    the digits of the result.  That product runs in float64 through BLAS.
    """
    a_m = as_matrix(a)
    b_m = as_matrix(b)
    if a_m.shape[-1] != b_m.shape[-2]:
        raise ValueError(f"shape mismatch {a_m.shape} @ {b_m.shape}")
    p, m = field.p, field.m
    r, k, c = a_m.shape[-2], a_m.shape[-1], b_m.shape[-1]
    if k * m * (p - 1) ** 2 >= 2**53:
        raise ValueError(f"inner dimension {k} is past the exact float64 range")
    if m > 1:
        a_m = digit_matrix(field, a_m)
        b_m = field._digits[b_m].swapaxes(-2, -1).reshape(*b_m.shape[:-2], k * m, c)
    prod = (a_m.astype(np.float64) @ b_m.astype(np.float64)).astype(np.int64) % p
    if m == 1:
        return prod
    return field._pow_p @ prod.reshape(*prod.shape[:-2], r, m, c)


def digit_matrix(field: Field, a) -> np.ndarray:
    """The GF(p) matrix of v -> a v in digit coordinates, for a matrix or a
    stack of them: entry x becomes the m x m block ``mats[x]``."""
    r, c = a.shape[-2:]
    m = field.m
    return field._mats[a].swapaxes(-3, -2).reshape(*a.shape[:-2], r * m, c * m)


def join(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (s, t) with a[s] == b[t]."""
    order = np.argsort(b, kind="stable")
    lo = np.searchsorted(b[order], a, "left")
    counts = np.searchsorted(b[order], a, "right") - lo
    s = np.repeat(np.arange(len(a)), counts)
    return s, order[lo[s] + np.arange(len(s)) - (np.cumsum(counts) - counts)[s]]


def nonzero_sums(field: Field, keys, codes) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys whose codes sum to a nonzero element, and
    those sums."""
    uniq, group = np.unique(keys, return_inverse=True)
    sums = group_sums(field, group, codes, len(uniq))
    return uniq[sums != 0], sums[sums != 0]


def dense_sums(field: Field, rows, cols, codes, shape) -> np.ndarray:
    """The dense matrix whose entry (r, c) is the sum of the codes put there."""
    return group_sums(field, rows * shape[1] + cols, codes, shape[0] * shape[1]).reshape(shape)


def nested_products(field: Field, x, y, z, c):
    """The terms (i, j, k, m, code) of (b_i b_j) b_k for nonzero structure
    constants b_x b_y = sum of c b_z, joined on the middle element."""
    first, then = join(z, x)
    return x[first], y[first], y[then], z[then], field.mul(c[first], c[then])


def group_sums(field: Field, group, codes, n_groups: int) -> np.ndarray:
    """The field sum of the codes in each group 0 .. n_groups - 1."""
    # a sum of codes is the sum of their GF(p) digits mod p
    digits = field._digits[codes]
    sums = np.zeros(n_groups, dtype=np.int64)
    for d in range(field.m):
        digit = np.zeros(n_groups, dtype=np.int64)
        np.add.at(digit, group, digits[:, d])
        sums += digit % field.p * field.p ** d
    return sums


def product_vanishes(field: Field, a, b) -> bool:
    """Whether a b is zero, for sparse matrices (rows, cols, codes, shape):
    the terms a[i, k] b[k, j] of their nonzero entries are joined on k and
    summed per position; no dense product is formed."""
    (i, k, a_codes, a_shape), (l, j, b_codes, b_shape) = a, b
    if a_shape[1] != b_shape[0]:
        raise ValueError(f"shape mismatch {a_shape} @ {b_shape}")
    s, t = join(k, l)
    codes = field.mul(a_codes[s], b_codes[t])
    return not len(nonzero_sums(field, i[s] * b_shape[1] + j[t], codes)[0])


def matvec(field: Field, a, v) -> np.ndarray:
    return matmul(field, a, np.asarray(v, dtype=np.int64).reshape(-1, 1)).reshape(-1)


def kernel_basis(field: Field, mat) -> np.ndarray:
    """Canonical basis (as rows) of the right kernel {v : mat @ v = 0}."""
    return _kernel_rows(field, *rref(field, mat))


def _kernel_rows(field: Field, r_mat, pivots) -> np.ndarray:
    """The kernel basis read off an RREF: a unit at each free column, minus
    that column of the RREF at the pivots."""
    free = np.ones(r_mat.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), r_mat.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = field.neg(r_mat[:, free].T)
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
    x[pivots] = r_mat[:, n_cols]
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
    return red[:, n:]


class Subspace:
    """Subspace of F^n held as a reduced-row-echelon basis (canonical)."""

    def __init__(self, field: Field, ambient_dim: int, vectors=None):
        self.field = field
        self.ambient_dim = ambient_dim
        if vectors is None or len(vectors) == 0:
            vectors = np.zeros((0, ambient_dim), dtype=np.int64)
        self.rows, self._pivots = rref(field, vectors)
        if self.rows.shape[1] != ambient_dim:
            raise ValueError(f"rows of width {self.rows.shape[1]} in a space of dim {ambient_dim}")

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def contains(self, v) -> bool:
        return not np.any(self.reduce(v))

    def reduce(self, v) -> np.ndarray:
        """Residual of v, or of each row of a stack, against the echelon basis."""
        v = np.asarray(v, dtype=np.int64)
        return _reduce_rows(self.field, as_matrix(v), self.rows, self._pivots).reshape(v.shape)

    def contains_space(self, other: "Subspace") -> bool:
        return self.contains(other.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows.shape == other.rows.shape
                and bool(np.all(self.rows == other.rows)))

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.ambient_dim,
                        np.vstack([self.rows, other.rows]))

    def intersect(self, other: "Subspace") -> "Subspace":
        # (x, y) with x A + y B = 0 gives x A in both
        a, b = self.rows, other.rows
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient_dim)
        big = np.vstack([a, b]).T  # n x (da+db)
        ker = kernel_basis(self.field, big)
        return Subspace(self.field, self.ambient_dim, matmul(self.field, ker[:, : self.dim], a))

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
        # the pivot columns of [sub; ambient]^T are the rows that the greedy
        # pass keeps; sub's rows are independent, so they all come first
        _, pivots = rref(field, np.vstack([sub.rows, amb_rows]).T)
        self.comp = amb_rows[[c - sub.dim for c in pivots[sub.dim:]]]
        stack = np.vstack([sub.rows, self.comp])  # r x n, independent rows
        r = stack.shape[0]
        red, pivots = rref(field, np.hstack([stack.T, np.eye(n, dtype=np.int64)]))
        if pivots[:r] != list(range(r)):
            raise AssertionError("section basis unexpectedly dependent")
        self._left_inv = red[:r, r:]  # L with L @ stack.T = I_r
        self._sub_dim = sub.dim

    @property
    def dim(self) -> int:
        return self.comp.shape[0]

    def class_coords(self, v) -> np.ndarray:
        """Coordinates of v + sub in the complement basis, or of each row of a
        stack (v must lie in ambient)."""
        v = np.asarray(v, dtype=np.int64)
        coords = matmul(self.field, as_matrix(v), self._left_inv[self._sub_dim:].T)
        return coords.reshape(*v.shape[:-1], self.dim)

    def decompose(self, v) -> tuple[np.ndarray, np.ndarray]:
        y = matvec(self.field, self._left_inv, v)
        return y[: self._sub_dim], y[self._sub_dim:]

    def lift(self, coords) -> np.ndarray:
        return matvec(self.field, self.comp.T, coords)


# ---------------------------------------------------------------------------
# sparse systems, eliminated block by block
# ---------------------------------------------------------------------------

# cells of the dense chunks that block_eliminate hands to rref; a block
# larger than that is a chunk alone
CHUNK_CELLS = 2**16


def block_eliminate(field: Field, rows, cols, codes):
    """The RREF of a sparse system block by block: (columns, reduced rows,
    pivots) for each dense chunk, its pivots indexing its columns.

    The system has entries codes[e] at (rows[e], cols[e]), no two at one
    position, with nonnegative indices.  It splits into blocks, the
    connected parts of the graph in which each entry joins its row to its
    column.  Whole blocks, taken in order of their least column, are packed
    into dense chunks of at most CHUNK_CELLS cells, and each chunk goes
    through ``rref``; a block larger than that is a chunk alone.  A chunk is
    block diagonal, so its RREF is the RREFs of its blocks together, and the
    rank of the system is the sum of the chunks' ranks.  A system that fits
    in one chunk is one chunk, with no need to find its blocks.
    """
    rows, cols, codes = (np.asarray(a, dtype=np.int64) for a in (rows, cols, codes))
    # number the rows and the columns that entries touch, in order
    used_rows, used_cols = np.bincount(rows) > 0, np.bincount(cols) > 0
    row, col = np.cumsum(used_rows)[rows] - 1, np.cumsum(used_cols)[cols] - 1
    touched = np.flatnonzero(used_cols)
    n_rows, n_cols = int(used_rows.sum()), len(touched)
    # the columns, rows and entries of each chunk, columns and rows in order
    if n_rows * n_cols <= CHUNK_CELLS:
        groups = [np.arange(n_cols)], [np.arange(n_rows)], [np.arange(len(codes))]
    else:
        col_chunk, row_chunk = _pack_blocks(row, col, n_rows, n_cols)
        n_chunks = int(col_chunk.max()) + 1
        groups = [np.split(np.argsort(chunk, kind="stable"),
                           np.cumsum(np.bincount(chunk, minlength=n_chunks))[:-1])
                  for chunk in (col_chunk, row_chunk, row_chunk[row])]
    col_pos, row_pos = np.zeros(n_cols, dtype=np.int64), np.zeros(n_rows, dtype=np.int64)
    for cols_k, rows_k, e in zip(*groups):
        col_pos[cols_k], row_pos[rows_k] = np.arange(len(cols_k)), np.arange(len(rows_k))
        dense = np.zeros((len(rows_k), len(cols_k)), dtype=np.int64)
        dense[row_pos[row[e]], col_pos[col[e]]] = codes[e]
        yield touched[cols_k], *rref(field, dense)


def block_rank(field: Field, rows, cols, codes) -> int:
    """The rank of the sparse system of ``block_eliminate``: the sum of the
    ranks of its chunks."""
    return sum(len(pivots) for _, _, pivots in block_eliminate(field, rows, cols, codes))


def block_kernel(field: Field, rows, cols, codes, n_cols: int) -> np.ndarray:
    """A kernel basis (as rows) of the sparse system of ``block_eliminate``
    with n_cols columns: the kernels of its chunks, and a unit vector for
    each column that no entry touches."""
    parts = [(where, _kernel_rows(field, reduced, pivots))
             for where, reduced, pivots in block_eliminate(field, rows, cols, codes)]
    untouched = np.ones(n_cols, dtype=bool)
    for where, _ in parts:
        untouched[where] = False
    untouched = np.flatnonzero(untouched)
    parts.append((untouched, np.eye(len(untouched), dtype=np.int64)))
    kernel = np.zeros((sum(len(vectors) for _, vectors in parts), n_cols), dtype=np.int64)
    start = 0
    for where, vectors in parts:
        kernel[start:start + len(vectors), where] = vectors
        start += len(vectors)
    return kernel


def _pack_blocks(row, col, n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk of each column and of each row, for entries at (row[e],
    col[e]) that touch all n_rows rows and n_cols columns."""
    # label every column with the least column of its block: each row takes
    # the least label of its columns and hands it back to them, and pointer
    # jumping follows labels to their own labels
    label = np.arange(n_cols)
    while True:
        row_min = np.full(n_rows, n_cols)
        np.minimum.at(row_min, row, label[col])
        new = label.copy()
        np.minimum.at(new, col, row_min[row])
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    roots, col_block = np.unique(label, return_inverse=True)
    row_block = np.zeros(n_rows, dtype=np.int64)
    row_block[row] = col_block[col]
    # consecutive blocks share a chunk while its cells stay within the bound
    chunk_of = np.zeros(len(roots), dtype=np.int64)
    chunk = height = width = 0
    for b, (h, w) in enumerate(zip(np.bincount(row_block, minlength=len(roots)).tolist(),
                                   np.bincount(col_block, minlength=len(roots)).tolist())):
        if width and (height + h) * (width + w) > CHUNK_CELLS:
            chunk, height, width = chunk + 1, 0, 0
        chunk_of[b] = chunk
        height, width = height + h, width + w
    return chunk_of[col_block], chunk_of[row_block]


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
    return field._digits[np.asarray(v, dtype=np.int64).reshape(-1)].reshape(-1)


def pack_vector(field: Field, v) -> np.ndarray:
    """Inverse of expand_vector."""
    v_arr = np.asarray(v, dtype=np.int64).reshape(-1)
    if len(v_arr) % field.m:
        raise ValueError("length not divisible by extension degree")
    return v_arr.reshape(-1, field.m) % field.p @ field._pow_p


def semilinear_kernel(field: Field, mat, frob_power: int) -> Subspace:
    """Kernel of v -> mat @ frobenius^frob_power(v) as a GF(p)-subspace.

    The result lives in digit coordinates (ambient dim = cols * m); use
    ``pack_vector`` on its basis rows to recover GF(p^m) vectors.
    """
    m_mat = as_matrix(mat)
    n_rows, n_cols = m_mat.shape
    prime = Field(field.p)
    # block (r, c) is the GF(p) matrix of v -> mat[r, c] * frobenius(v)
    blocks = matmul(prime, field._mats[m_mat], field.frob_matrix(frob_power % field.m))
    return kernel_space(prime, blocks.swapaxes(1, 2).reshape(n_rows * field.m, n_cols * field.m))
