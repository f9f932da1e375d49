"""Answers the benchmark checks against, computed apart from ``tamecoh``.

Two kinds of reference live here:

* closed forms for dim HH^n of the families, written out case by case;
* a small finite-field arithmetic of its own (lookup tables built from the
  Conway polynomials), used to test the Lie axioms on computed structure
  constants and to make seeded changes of basis.

Nothing in this module imports ``tamecoh``.

Where the closed forms come from: the repository holds only the source
paper's abstract, so they could not be checked against its theorems.  They
are a transcription of the dimension formulas in ``tamecoh.families``
(``hh1_dim_*`` and ``hh_dim_quaternion_local``), kept here so that a change
to those formulas does not move the benchmark's reference.  A slip in those
formulas would be copied here too.  The one reference that does not rest on
them is the Leibniz oracle on the ``certify`` workload: dim Der - dim Inn,
computed from the algebra alone, must equal both the closed form and dim
HH^1 of the complex.
"""

from __future__ import annotations

import numpy as np

# Conway polynomials x^m + ... as bit masks of the lower coefficients; field
# element codes are digit vectors sum d_i w^i read as base-p integers.
_CONWAY_CHAR2 = {2: 0b11, 3: 0b011}   # x^2 + x + 1, x^3 + x + 1


LOCAL_FAMILIES = ("D1A2", "SD1A1", "SD1A2", "Q1A1", "Q1A2")


def _divides_both(p: int, k: int, s: int) -> bool:
    return k % p == 0 and s % p == 0


def _divides_one(p: int, k: int, s: int) -> bool:
    return k % p == 0 or s % p == 0


def hh1_closed_form(family: str, p: int, params: dict) -> int:
    """dim HH^1 of one family instance over a field of characteristic p."""
    k = params["k"]
    c = params.get("c", 0)
    d = params.get("d", 0)
    if family == "D1A2":
        return k + (6 if k % 2 == 0 else 5) - (1 if d else 0)
    if family in ("SD1A1", "SD1A2"):
        if d:
            return k + (5 if k % 2 == 0 else 4)
        if k % 2 == 0 or c == 0:
            return k + 6
        return k + 5
    if family in ("Q1A1", "Q1A2"):
        if k % 2 == 0 or (c == 0 and d == 0):
            return k + 5
        return k + 4
    s = params["s"]
    if family == "SD2B1":
        if p == 2:
            if k % 2 == 0 and s % 2 == 0:
                return k + s + 3
            if _divides_one(2, k, s) or c == 0:
                return k + s + 2
            return k + s + 1
        if p == 3:
            if _divides_both(3, k, s):
                return k + s + 2
            if _divides_one(3, k, s):
                return k + s + 1
            return k + s
        return k + s + (1 if _divides_both(p, k, s) else 0)
    if family == "SD2B2":
        if p == 2:
            drop = 1 if c else 0
            if k % 2 == 0 and s % 2 == 0:
                return k + s + 3 - drop
            if (k + s) % 2 == 1:
                return k + s + 2 - drop
            return k + s + 2 - 2 * drop
        return k + s + (1 if _divides_both(p, k, s) else 0)
    raise KeyError(f"no closed form for {family}")


def hh_closed_form(family: str, p: int, params: dict, degree: int) -> int:
    """dim HH^degree; degree 0 is the centre.

    Above degree 1 only the local quaternion families have a complex here,
    and their cohomology repeats with period 4: HH^2 has the dimension of
    HH^1, and HH^3 and HH^4 that of the centre.
    """
    k = params["k"]
    centre = k + 3 if family in LOCAL_FAMILIES else k + params["s"] + 2
    if degree == 0:
        return centre
    if degree == 1:
        return hh1_closed_form(family, p, params)
    if family not in ("Q1A1", "Q1A2"):
        raise KeyError(f"no complex above degree 1 for {family}")
    return hh1_closed_form(family, p, params) if degree % 4 in (1, 2) else centre


class RefField:
    """GF(p) or GF(2^m) by full addition and multiplication tables."""

    def __init__(self, p: int, m: int = 1):
        self.p, self.m, self.q = p, m, p ** m
        codes = np.arange(self.q)
        if m == 1:
            self.add = (codes[:, None] + codes[None, :]) % p
            self.mul = (codes[:, None] * codes[None, :]) % p
        elif p == 2:
            self.add = codes[:, None] ^ codes[None, :]
            self.mul = np.array([[self._clmul(a, b) for b in codes] for a in codes])
        else:
            raise ValueError(f"no reference arithmetic for GF({p}^{m})")
        self.neg = np.array([int(np.nonzero(self.add[a] == 0)[0][0]) for a in codes])

    def _clmul(self, a: int, b: int) -> int:
        out = 0
        for i in range(self.m):
            if b >> i & 1:
                out ^= a << i
        for i in range(2 * self.m - 2, self.m - 1, -1):
            if out >> i & 1:
                out ^= (1 << i) | (_CONWAY_CHAR2[self.m] << (i - self.m))
        return out

    def reduce_sum(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """Field sum along one axis."""
        if self.m == 1:
            return arr.sum(axis=axis) % self.p
        return np.bitwise_xor.reduce(arr, axis=axis)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce_sum(self.mul[a[:, :, None], b[None, :, :]], axis=1)

    def random_invertible(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """P L U with L unit lower and U upper triangular, U's diagonal nonzero."""
        low = np.tril(rng.integers(0, self.q, (n, n)), -1) + np.eye(n, dtype=np.int64)
        up = np.triu(rng.integers(0, self.q, (n, n)), 1)
        up[np.diag_indices(n)] = rng.integers(1, self.q, n)
        perm = np.eye(n, dtype=np.int64)[rng.permutation(n)]
        return self.matmul(perm, self.matmul(low, up))


def lie_axiom_failures(ref: RefField, structure) -> list[str]:
    """Where [e_i, e_j] = sum_k s[i, j, k] e_k breaks alternation or Jacobi."""
    s = np.asarray(structure, dtype=np.int64)
    n = s.shape[0]
    out = []
    diag = np.nonzero(s[np.arange(n), np.arange(n)].any(axis=1))[0]
    if len(diag):
        out.append(f"[e_i, e_i] != 0 for i in {diag.tolist()}")
    if not np.array_equal(s, ref.neg[s.transpose(1, 0, 2)]):
        out.append("bracket is not antisymmetric")
    # a[i, j, k] = [[e_i, e_j], e_k]; Jacobi sums its three cyclic shifts
    a = ref.reduce_sum(ref.mul[s[:, :, :, None, None], s[None, None, :, :, :]], axis=2)
    jac = ref.add[ref.add[a, a.transpose(2, 0, 1, 3)], a.transpose(1, 2, 0, 3)]
    bad = np.argwhere(jac.any(axis=3))
    if len(bad):
        out.append(f"Jacobi fails on {len(bad)} triples, first {tuple(bad[0].tolist())}")
    return out
