"""Constructors for the eight named families of tame symmetric algebras.

Five families live on the one-vertex quiver with loops x, y and require
characteristic 2: the dihedral algebras D1A2(k, d), the semidihedral
algebras SD1A1(k) and SD1A2(k, c, d), and the quaternion algebras Q1A1(k)
and Q1A2(k, c, d).  Three live on the two-vertex quiver with a loop a at
the first vertex, arrows b and g back and forth, and a loop e at the
second vertex: SD2B1(k, s, c) and SD2B2(k, s, c) in any characteristic,
and Q2B1(k, s, a, c).  All have dimension 4k (local) or 9k + s.

Every constructor certifies its instance: the basis enumeration must hit
the known dimension, each defining relation must rewrite to zero, the
multiplication is validated (associativity on every basis triple, at every
dimension), and the socle functional is checked to be symmetrizing.
Instances carry the start of the minimal bimodule resolution (the full
4-periodic complex in the local quaternion case).
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .algebra import Algebra, AlgebraError, Quiver, Rule
from .field import Field
from .resolution import ResolutionSpec, quaternion_resolution, standard_resolution

FAMILY_IDS = ("D1A2", "SD1A1", "SD1A2", "Q1A1", "Q1A2", "SD2B1", "SD2B2", "Q2B1")
LOCAL_FAMILIES = frozenset({"D1A2", "SD1A1", "SD1A2", "Q1A1", "Q1A2"})


class FamilyError(ValueError):
    """Bad family id, bad parameters, or wrong base field."""


def _local_quiver() -> Quiver:
    return Quiver(1, [("x", 0, 0), ("y", 0, 0)], vertex_labels=("1",))


def _two_vertex_quiver(with_loop_e: bool = True) -> Quiver:
    arrows = [("a", 0, 0), ("b", 0, 1), ("g", 1, 0)]
    if with_loop_e:
        arrows.append(("e", 1, 1))
    return Quiver(2, arrows, vertex_labels=("1", "2"))


def _w(q: Quiver, letters: str):
    return tuple(q.arrow_index[ch] for ch in letters)


def _rules(q: Quiver, f: Field, specs):
    return [Rule(q, f, _w(q, lhs), [(c, _w(q, rhs)) for c, rhs in combo])
            for lhs, combo in specs]


def _combo(q: Quiver, terms):
    return [(c, _w(q, word)) for c, word in terms if c != 0]


@dataclass
class FamilyInstance:
    """A certified algebra from one of the families, with its resolution."""

    family: str
    field: Field
    params: dict
    algebra: Algebra
    relations: list          # (label, combo) pairs, verbatim presentation
    socle_words: dict        # vertex -> arrow-index word spanning the socle
    lam: np.ndarray          # symmetrizing functional, dual to the socle
    resolution: ResolutionSpec
    centre_dim: int          # expected dimension of the centre
    hh1_dim: Optional[int]   # expected dimension of degree-1 cohomology
    hh_dim_fn: Optional[Callable[[int], int]] = dc_field(default=None, repr=False)

    @property
    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({inner}) over GF({self.field.q})"

    def hh_dim(self, degree: int) -> int:
        """Expected cohomology dimension, closed form, where one is known."""
        if degree < 0:
            raise FamilyError(f"no cohomology in negative degree {degree}")
        if degree == 0:
            return self.centre_dim
        if degree == 1 and self.hh1_dim is not None:
            return self.hh1_dim
        if self.hh_dim_fn is not None:
            return self.hh_dim_fn(degree)
        raise FamilyError(
            f"no closed-form dimension for degree {degree} of {self.family}"
        )

    def check_relations(self) -> None:
        alg = self.algebra
        for label, combo in self.relations:
            vec = alg.element(
                [(c, alg.quiver.word_from_indices(wd)) for c, wd in combo]
            )
            if vec.any():
                raise AlgebraError(
                    f"{self.label}: relation {label} does not vanish"
                )

    def dsl_text(self) -> str:
        return _emit_dsl(self)


def _socle_functional(alg: Algebra, socle_words: dict) -> np.ndarray:
    lam = np.zeros(alg.dim, dtype=np.int64)
    for v, word in socle_words.items():
        vec = alg.element([(1, alg.quiver.word_from_indices(word, source=v))])
        hits = np.nonzero(vec)[0]
        if len(hits) != 1 or vec[hits[0]] != 1:
            raise AlgebraError("socle word does not reduce to a single basis path")
        lam[hits[0]] = 1
    return lam


# ---------------------------------------------------------------------------
# dimension formulas


def _nonzero(code: int) -> int:
    return 0 if code == 0 else 1


def hh1_dim_dihedral(k: int, d: int) -> int:
    base = k + 6 if k % 2 == 0 else k + 5
    return base - _nonzero(d)


def hh1_dim_semidihedral_local(k: int, c: int, d: int) -> int:
    if d != 0:
        return k + 5 if k % 2 == 0 else k + 4
    if k % 2 == 0:
        return k + 6
    return k + 6 if c == 0 else k + 5


def hh1_dim_quaternion_local(k: int, c: int, d: int) -> int:
    if k % 2 == 0 or (c == 0 and d == 0):
        return k + 5
    return k + 4


def hh_dim_quaternion_local(k: int, c: int, d: int, degree: int) -> int:
    """Dimensions repeat with period 4 above degree 0."""
    if degree == 0:
        return k + 3
    m = (degree - 1) % 4 + 1
    if m in (1, 2):
        return hh1_dim_quaternion_local(k, c, d)
    return k + 3


def hh1_dim_sd2b1(p: int, k: int, s: int, c: int) -> int:
    if p == 2:
        if k % 2 == 0 and s % 2 == 0:
            return k + s + 3
        if k % 2 == 0 or s % 2 == 0 or c == 0:
            return k + s + 2
        return k + s + 1
    if p == 3:
        if k % 3 == 0 and s % 3 == 0:
            return k + s + 2
        if k % 3 == 0 or s % 3 == 0:
            return k + s + 1
        return k + s
    if k % p == 0 and s % p == 0:
        return k + s + 1
    return k + s


def hh1_dim_sd2b2(p: int, k: int, s: int, c: int) -> int:
    ci = _nonzero(c)
    if p == 2:
        if k % 2 == 0 and s % 2 == 0:
            return k + s + 3 - ci
        if (k + s) % 2 == 1:
            return k + s + 2 - ci
        return k + s + 2 - 2 * ci
    if k % p == 0 and s % p == 0:
        return k + s + 1
    return k + s


# ---------------------------------------------------------------------------
# the individual builders


def _require_char2(f: Field, family: str) -> None:
    if f.p != 2:
        raise FamilyError(
            f"wrong characteristic: {family} is only defined over fields of "
            f"characteristic 2, got GF({f.q})"
        )


def _integer(name: str, value) -> int:
    """An integer parameter (numpy integers included); 2.5 or "2" is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise FamilyError(f"invalid parameters: {name}={value!r} is not an integer") from None


def _check_scalar(f: Field, name: str, value) -> int:
    v = _integer(name, value)
    if not 0 <= v < f.q:
        raise FamilyError(
            f"invalid parameters: {name}={value} is not a field code in GF({f.q})"
        )
    return v


def _check_k(k, minimum: int = 2) -> int:
    k = _integer("k", k)
    if k < minimum:
        raise FamilyError(f"invalid parameters: k must be at least {minimum}, got {k}")
    return k


def _build_d1a2(f: Field, k, d=0):
    _require_char2(f, "D1A2")
    k = _check_k(k)
    d = _check_scalar(f, "d", d)
    if d not in (0, 1):
        raise FamilyError("invalid parameters: d must be 0 or 1 for D1A2")
    q = _local_quiver()
    xyk, yxk = "xy" * k, "yx" * k
    relations = [
        ("x^2 - (xy)^k", _combo(q, [(1, "xx"), (f.neg(1), xyk)])),
        ("y^2 - d (xy)^k", _combo(q, [(1, "yy"), (f.neg(d), xyk)])),
        ("(xy)^k - (yx)^k", _combo(q, [(1, xyk), (f.neg(1), yxk)])),
        ("(xy)^k x", _combo(q, [(1, xyk + "x")])),
        ("(yx)^k y", _combo(q, [(1, yxk + "y")])),
    ]
    rules = _rules(q, f, [
        (xyk + "x", []),
        (yxk + "y", []),
        (xyk, [(1, yxk)]),
        ("xx", [(1, yxk)]),
        ("yy", [(d, yxk)]),
    ])
    alg = Algebra(f, q, rules, name=f"D1A2(k={k}, d={d})", expected_dim=4 * k)
    z = [
        ("x^2 relation", _combo(q, [(1, "xx"), (f.neg(1), xyk)])),
        ("commutativity relation", _combo(q, [(1, xyk), (f.neg(1), yxk)])),
        ("y^2 relation", _combo(q, [(1, "yy"), (f.neg(d), yxk)])),
    ]
    return dict(
        algebra=alg, relations=relations, socle_words={0: _w(q, xyk)},
        resolution_z=z, centre_dim=k + 3, hh1_dim=hh1_dim_dihedral(k, d),
        params={"k": k, "d": d},
    )


def _semidihedral_local(f: Field, family: str, k: int, c: int, d: int):
    q = _local_quiver()
    xyk, yxk = "xy" * k, "yx" * k
    half = "y" + "xy" * (k - 1)          # (yx)^(k-1) y, already in normal form
    relations = [
        ("(xy)^k - (yx)^k", _combo(q, [(1, xyk), (f.neg(1), yxk)])),
        ("(xy)^k x", _combo(q, [(1, xyk + "x")])),
        ("y^2 - d (xy)^k", _combo(q, [(1, "yy"), (f.neg(d), xyk)])),
        ("x^2 - (yx)^{k-1} y + c (xy)^k",
         _combo(q, [(1, "xx"), (f.neg(1), half), (c, xyk)])),
    ]
    rules = _rules(q, f, [
        (xyk + "x", []),
        (yxk + "y", []),
        (xyk, [(1, yxk)]),
        ("xx", [(1, half), (f.neg(c), yxk)]),
        ("yy", [(d, yxk)]),
    ])
    alg = Algebra(f, q, rules, name=f"{family}(k={k}, c={c}, d={d})",
                  expected_dim=4 * k)
    z = [
        ("x^2 relation",
         _combo(q, [(1, "xx"), (f.neg(1), half), (f.neg(c), yxk)])),
        ("y^2 relation", _combo(q, [(1, "yy"), (f.neg(d), xyk)])),
    ]
    return dict(
        algebra=alg, relations=relations, socle_words={0: _w(q, xyk)},
        resolution_z=z, centre_dim=k + 3,
        hh1_dim=hh1_dim_semidihedral_local(k, c, d),
    )


def _build_sd1a1(f: Field, k):
    _require_char2(f, "SD1A1")
    k = _check_k(k)
    data = _semidihedral_local(f, "SD1A1", k, 0, 0)
    data["params"] = {"k": k}
    return data


def _build_sd1a2(f: Field, k, c=0, d=0):
    _require_char2(f, "SD1A2")
    k = _check_k(k)
    c = _check_scalar(f, "c", c)
    d = _check_scalar(f, "d", d)
    if c == 0 and d == 0:
        raise FamilyError(
            "invalid parameters: (c, d) = (0, 0) is the SD1A1 presentation"
        )
    data = _semidihedral_local(f, "SD1A2", k, c, d)
    data["params"] = {"k": k, "c": c, "d": d}
    return data


def _quaternion_local(f: Field, family: str, k: int, c: int, d: int):
    q = _local_quiver()
    xyk, yxk = "xy" * k, "yx" * k
    half_x = "y" + "xy" * (k - 1)        # (yx)^(k-1) y
    half_y = "x" + "yx" * (k - 1)        # (xy)^(k-1) x
    if c == 0 and d == 0:
        relations = [
            ("(xy)^k - (yx)^k", _combo(q, [(1, xyk), (f.neg(1), yxk)])),
            ("(xy)^k x", _combo(q, [(1, xyk + "x")])),
            ("y^2 - (xy)^{k-1} x", _combo(q, [(1, "yy"), (f.neg(1), half_y)])),
            ("x^2 - (yx)^{k-1} y", _combo(q, [(1, "xx"), (f.neg(1), half_x)])),
        ]
    else:
        relations = [
            ("x^2 - (yx)^{k-1} y - c (xy)^k",
             _combo(q, [(1, "xx"), (f.neg(1), half_x), (f.neg(c), xyk)])),
            ("y^2 - (xy)^{k-1} x - d (xy)^k",
             _combo(q, [(1, "yy"), (f.neg(1), half_y), (f.neg(d), xyk)])),
            ("(xy)^k - (yx)^k", _combo(q, [(1, xyk), (f.neg(1), yxk)])),
            ("(xy)^k x", _combo(q, [(1, xyk + "x")])),
            ("(yx)^k y", _combo(q, [(1, yxk + "y")])),
        ]
    # The two defining rewrites alone do not terminate under the leftmost
    # strategy: each substitution creates fresh doubled letters at its seams.
    # The extra rules below are consequences of the presentation (the socle
    # annihilates both arrows, squares absorb neighbouring letters, cubes
    # are the socle) and cut every growth chain short; the dimension
    # certification below proves they present the same algebra.
    rules = _rules(q, f, [
        (xyk + "x", []),
        (yxk + "y", []),
        (yxk + "x", []),
        (xyk + "y", []),
        ("xxy", []),
        ("yxx", []),
        ("xyy", []),
        ("yyx", []),
        ("xxx", [(1, yxk)]),
        ("yyy", [(1, yxk)]),
        (xyk, [(1, yxk)]),
        ("xx", [(1, half_x), (c, yxk)]),
        ("yy", [(1, half_y), (d, yxk)]),
    ])
    alg = Algebra(f, q, rules, name=f"{family}(k={k}, c={c}, d={d})",
                  expected_dim=4 * k, length_cap=40 * k + 40)
    res = quaternion_resolution(alg, k, c, d)
    return dict(
        algebra=alg, relations=relations, socle_words={0: _w(q, xyk)},
        resolution=res, centre_dim=k + 3,
        hh1_dim=hh1_dim_quaternion_local(k, c, d),
        hh_dim_fn=lambda n: hh_dim_quaternion_local(k, c, d, n),
    )


def _build_q1a1(f: Field, k):
    _require_char2(f, "Q1A1")
    k = _check_k(k)
    data = _quaternion_local(f, "Q1A1", k, 0, 0)
    data["params"] = {"k": k}
    return data


def _build_q1a2(f: Field, k, c=0, d=0):
    # (c, d) = (0, 0) gives the same ideal as Q1A1; accepted here so the
    # parameter grid stays rectangular
    _require_char2(f, "Q1A2")
    k = _check_k(k)
    c = _check_scalar(f, "c", c)
    d = _check_scalar(f, "d", d)
    data = _quaternion_local(f, "Q1A2", k, c, d)
    data["params"] = {"k": k, "c": c, "d": d}
    return data


def _check_two_vertex_params(k, s, k_min=2, s_min=2):
    k = _check_k(k, k_min)
    s = _integer("s", s)
    if s < s_min:
        hint = ""
        if s == 1:
            hint = " (with s = 1 the loop relation is not admissible)"
        raise FamilyError(
            f"invalid parameters: s must be at least {s_min}, got {s}{hint}"
        )
    return k, s


def _build_sd2b1(f: Field, k, s, c=0):
    k, s = _check_two_vertex_params(k, s)
    c = _check_scalar(f, "c", c)
    q = _two_vertex_quiver()
    abg, bga, gab = "abg" * k, "bga" * k, "gab" * k
    bg_half = "bga" * (k - 1) + "bg"
    es = "e" * s
    relations = [
        ("g b", _combo(q, [(1, "gb")])),
        ("e g", _combo(q, [(1, "eg")])),
        ("b e", _combo(q, [(1, "be")])),
        ("a^2 - (bga)^{k-1} b g - c (abg)^k",
         _combo(q, [(1, "aa"), (f.neg(1), bg_half), (f.neg(c), abg)])),
        ("e^s - (gab)^k", _combo(q, [(1, es), (f.neg(1), gab)])),
        ("(abg)^k - (bga)^k", _combo(q, [(1, abg), (f.neg(1), bga)])),
    ]
    rules = _rules(q, f, [
        ("gb", []),
        ("eg", []),
        ("be", []),
        (bga + "b", []),
        ("aa", [(1, bg_half), (c, bga)]),
        (es, [(1, gab)]),
        (abg, [(1, bga)]),
    ])
    alg = Algebra(f, q, rules, name=f"SD2B1(k={k}, s={s}, c={c})",
                  expected_dim=9 * k + s)
    z = [
        ("a^2 relation",
         _combo(q, [(1, "aa"), (f.neg(1), bg_half), (f.neg(c), abg)])),
        ("b e", _combo(q, [(1, "be")])),
        ("e g", _combo(q, [(1, "eg")])),
        ("g b", _combo(q, [(1, "gb")])),
        ("e^s relation", _combo(q, [(1, es), (f.neg(1), gab)])),
    ]
    return dict(
        algebra=alg, relations=relations,
        socle_words={0: _w(q, abg), 1: _w(q, es)},
        resolution_z=z, centre_dim=k + s + 2,
        hh1_dim=hh1_dim_sd2b1(f.p, k, s, c),
        params={"k": k, "s": s, "c": c},
    )


def _build_sd2b2(f: Field, k, s, c=0):
    k, s = _check_two_vertex_params(k, s)
    if k + s < 4:
        raise FamilyError("invalid parameters: SD2B2 needs k + s >= 4")
    c = _check_scalar(f, "c", c)
    if s == 2:
        return _build_sd2b2_short(f, k, c)
    q = _two_vertex_quiver()
    abg, bga, gab = "abg" * k, "bga" * k, "gab" * k
    ab_half = "abg" * (k - 1) + "ab"
    ga_half = "gab" * (k - 1) + "ga"
    es = "e" * s
    relations = [
        ("b e - (abg)^{k-1} a b",
         _combo(q, [(1, "be"), (f.neg(1), ab_half)])),
        ("e g - (gab)^{k-1} g a",
         _combo(q, [(1, "eg"), (f.neg(1), ga_half)])),
        ("g b - e^{s-1}", _combo(q, [(1, "gb"), (f.neg(1), "e" * (s - 1))])),
        ("a^2 - c (abg)^k", _combo(q, [(1, "aa"), (f.neg(c), abg)])),
        ("b e^2", _combo(q, [(1, "bee")])),
        ("e^2 g", _combo(q, [(1, "eeg")])),
    ]
    rules = _rules(q, f, [
        ("bee", []),
        ("eeg", []),
        (bga + "b", []),
        ("gb", [(1, "e" * (s - 1))]),
        ("be", [(1, ab_half)]),
        ("eg", [(1, ga_half)]),
        ("aa", [(c, bga)]),
        (abg, [(1, bga)]),
        (es, [(1, gab)]),
    ])
    alg = Algebra(f, q, rules, name=f"SD2B2(k={k}, s={s}, c={c})",
                  expected_dim=9 * k + s)
    z = [
        ("a^2 relation", _combo(q, [(1, "aa"), (f.neg(c), abg)])),
        ("b e relation", _combo(q, [(1, "be"), (f.neg(1), ab_half)])),
        ("e g relation", _combo(q, [(1, "eg"), (f.neg(1), ga_half)])),
        ("g b relation", _combo(q, [(1, "gb"), (f.neg(1), "e" * (s - 1))])),
    ]
    return dict(
        algebra=alg, relations=relations,
        socle_words={0: _w(q, abg), 1: _w(q, es)},
        resolution_z=z, centre_dim=k + s + 2,
        hh1_dim=hh1_dim_sd2b2(f.p, k, s, c),
        params={"k": k, "s": s, "c": c},
    )


def _build_sd2b2_short(f: Field, k: int, c: int):
    """The s = 2 member, presented on the quiver without the loop e.

    The loop would equal g b, so the presentation contracts it away; the
    second socle generator becomes (g b)^2.
    """
    s = 2
    q = _two_vertex_quiver(with_loop_e=False)
    abg, bga, gab = "abg" * k, "bga" * k, "gab" * k
    ab_half = "abg" * (k - 1) + "ab"
    ga_half = "gab" * (k - 1) + "ga"
    relations = [
        ("a^2 - c (abg)^k", _combo(q, [(1, "aa"), (f.neg(c), abg)])),
        ("b g b - (abg)^{k-1} a b",
         _combo(q, [(1, "bgb"), (f.neg(1), ab_half)])),
        ("g b g - (gab)^{k-1} g a",
         _combo(q, [(1, "gbg"), (f.neg(1), ga_half)])),
    ]
    # socle-annihilation shortcuts: without them the bgb and gbg rewrites
    # feed each other through the a^2 rule and the reduction runs away
    rules = _rules(q, f, [
        (bga + "b", []),
        (bga + "a", []),
        ("g" + bga, []),
        (gab + "g", []),
        ("bgb", [(1, ab_half)]),
        ("gbg", [(1, ga_half)]),
        ("aa", [(c, bga)]),
        (abg, [(1, bga)]),
    ])
    # reductions detour through the a^2 rule and briefly overshoot the
    # generic 6*max_len cap once k reaches 5, so give them more slack
    alg = Algebra(f, q, rules, name=f"SD2B2(k={k}, s=2, c={c})",
                  expected_dim=9 * k + 2, length_cap=40 * k + 40)
    z = [
        ("a^2 relation", _combo(q, [(1, "aa"), (f.neg(c), bga)])),
        ("b g b relation", _combo(q, [(1, "bgb"), (f.neg(1), ab_half)])),
        ("g b g relation", _combo(q, [(1, "gbg"), (f.neg(1), ga_half)])),
    ]
    return dict(
        algebra=alg, relations=relations,
        socle_words={0: _w(q, abg), 1: _w(q, "gbgb")},
        resolution_z=z, centre_dim=k + s + 2,
        hh1_dim=hh1_dim_sd2b2(f.p, k, s, c),
        params={"k": k, "s": s, "c": c},
    )


def _build_q2b1(f: Field, k, s, a=1, c=0):
    k, s = _check_two_vertex_params(k, s, k_min=1, s_min=3)
    a = _check_scalar(f, "a", a)
    c = _check_scalar(f, "c", c)
    if a == 0:
        raise FamilyError("invalid parameters: Q2B1 needs a != 0")
    if k + s == 4 and a == 1:
        raise FamilyError("invalid parameters: Q2B1 with k + s = 4 needs a != 1")
    q = _two_vertex_quiver()
    abg, bga, gab = "abg" * k, "bga" * k, "gab" * k
    bg_half = "bga" * (k - 1) + "bg"
    ab_half = "abg" * (k - 1) + "ab"
    ga_half = "gab" * (k - 1) + "ga"
    es = "e" * s
    relations = [
        ("g b - e^{s-1}", _combo(q, [(1, "gb"), (f.neg(1), "e" * (s - 1))])),
        ("b e - (abg)^{k-1} a b", _combo(q, [(1, "be"), (f.neg(1), ab_half)])),
        ("e g - (gab)^{k-1} g a", _combo(q, [(1, "eg"), (f.neg(1), ga_half)])),
        ("a^2 - a (bga)^{k-1} b g - c (bga)^k",
         _combo(q, [(1, "aa"), (f.neg(a), bg_half), (f.neg(c), bga)])),
        ("a^2 b", _combo(q, [(1, "aab")])),
        ("g a^2", _combo(q, [(1, "gaa")])),
    ]
    rules = _rules(q, f, [
        ("aab", []),
        ("gaa", []),
        (bga + "b", []),
        ("gb", [(1, "e" * (s - 1))]),
        ("be", [(1, ab_half)]),
        ("eg", [(1, ga_half)]),
        ("aa", [(a, bg_half), (c, bga)]),
        (abg, [(1, bga)]),
        (es, [(1, gab)]),
    ])
    alg = Algebra(f, q, rules, name=f"Q2B1(k={k}, s={s}, a={a}, c={c})",
                  expected_dim=9 * k + s)
    # a^2 b and g a^2 follow from the first four relations, so the
    # complex is built on those alone
    return dict(
        algebra=alg, relations=relations,
        socle_words={0: _w(q, abg), 1: _w(q, es)},
        resolution_z=relations[:4], centre_dim=k + s + 2, hh1_dim=None,
        params={"k": k, "s": s, "a": a, "c": c},
    )


_BUILDERS = {
    "D1A2": _build_d1a2,
    "SD1A1": _build_sd1a1,
    "SD1A2": _build_sd1a2,
    "Q1A1": _build_q1a1,
    "Q1A2": _build_q1a2,
    "SD2B1": _build_sd2b1,
    "SD2B2": _build_sd2b2,
    "Q2B1": _build_q2b1,
}

_CACHE: dict = {}


def make(family: str, field: Field, **params) -> FamilyInstance:
    """Build, certify and cache one instance of a family."""
    if family not in _BUILDERS:
        raise FamilyError(
            f"unknown family {family!r}; choose one of {', '.join(FAMILY_IDS)}"
        )
    build = _BUILDERS[family]
    try:
        bound = inspect.signature(build).bind(field, **params)
    except TypeError:
        accepted = ", ".join(list(inspect.signature(build).parameters)[1:])
        raise FamilyError(f"invalid parameters for {family}: it takes {accepted}; "
                          f"got {', '.join(params) or 'none'}") from None
    # defaults filled in, so a default left out and one given are one instance;
    # integers checked first, so that 2.0 cannot hit the entry of 2
    bound.apply_defaults()
    key = (family, field.p, field.m,
           tuple((name, _integer(name, v)) for name, v in list(bound.arguments.items())[1:]))
    if key in _CACHE:
        return _CACHE[key]
    data = build(field, **params)
    alg = data["algebra"]
    if "resolution" not in data:
        data["resolution"] = standard_resolution(alg, data.pop("resolution_z"))
    inst = FamilyInstance(
        family=family, field=field, params=data["params"], algebra=alg,
        relations=data["relations"], socle_words=data["socle_words"],
        lam=_socle_functional(alg, data["socle_words"]),
        resolution=data["resolution"], centre_dim=data["centre_dim"],
        hh1_dim=data["hh1_dim"], hh_dim_fn=data.get("hh_dim_fn"),
    )
    inst.check_relations()
    alg.validate()
    alg.check_symmetrizing(inst.lam)
    _CACHE[key] = inst
    return inst


def normalize_sd_local(field: Field, k: int, c: int, d: int):
    """Canonical representative of (c, d) under loop rescalings.

    Substituting x -> m^k x and y -> m^(3-k) y preserves the shape of the
    semidihedral local presentation and maps the parameters to
    (c m^k, d m^(5k-6)).  The orbit representative returned prefers d = 1,
    then d = 0, breaking ties by the smallest c code.
    """
    f = field
    candidates = set()
    for code in range(1, f.q):
        mu_k = f.pow(code, k)
        mu_d = f.pow(code, 5 * k - 6)
        candidates.add((f.mul(c, mu_k), f.mul(d, mu_d)))
    with_one = sorted((cc, dd) for cc, dd in candidates if dd == 1)
    if with_one:
        return min(with_one, key=lambda t: t[0])
    return min(candidates, key=lambda t: (t[1], t[0]))


# ---------------------------------------------------------------------------
# DSL emission, for audit


def _emit_word(letters: str) -> str:
    """Compress a letter string into a product with powers where repetitive."""
    if not letters:
        raise ValueError("empty word")
    # find a repeating block covering the whole word
    n = len(letters)
    for block in range(1, n + 1):
        if n % block == 0 and letters == letters[: block] * (n // block):
            reps = n // block
            body = "*".join(letters[:block])
            if reps == 1:
                return body
            return f"({body})^{reps}" if block > 1 else f"{body}^{reps}"
    return "*".join(letters)


def _emit_combo(q: Quiver, combo) -> str:
    parts = []
    for i, (coeff, word) in enumerate(combo):
        letters = "".join(q.arrows[idx].name for idx in word)
        body = _emit_word(letters)
        prefix = "" if coeff == 1 else f"{coeff}*"
        parts.append(f"{prefix}{body}" if i == 0 else f"+ {prefix}{body}")
    return " ".join(parts)


def _emit_dsl(inst: FamilyInstance) -> str:
    q = inst.algebra.quiver
    lines = [f"field GF({inst.field.q})"]
    for name, value in inst.params.items():
        lines.append(f"let {name} = {value}")
    vnames = [f"v{lbl}" for lbl in q.vertex_labels]
    arrows = ", ".join(
        f"{a.name}: {vnames[a.source]} -> {vnames[a.target]}" for a in q.arrows
    )
    lines.append("quiver {")
    lines.append(f"  vertices: {', '.join(vnames)}")
    lines.append(f"  arrows: {arrows}")
    lines.append("}")
    lines.append("relations {")
    for _, combo in inst.relations:
        lines.append(f"  {_emit_combo(q, combo)}")
    lines.append("}")
    lines.append("socle {")
    for v, word in sorted(inst.socle_words.items()):
        letters = "".join(q.arrows[idx].name for idx in word)
        lines.append(f"  {vnames[v]}: {_emit_word(letters)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
