"""Named degree-one cocycles for the worked families.

Every family except the dihedral one (separated by dimension counts alone)
and Q2B1 (no closed form for its first cohomology is recorded) comes with a
catalogue of named cochains, a case selection of names whose classes form a
basis of the first cohomology group, and the expected bracket table among
those names.  The tables list the potentially non-zero brackets; any basis
pair absent from a table is expected to bracket to zero, and checkers treat
it that way.

Cochains are recorded through their values on the arrows, in quiver arrow
order, and packed into the coordinate vector used by the resolution's
degree-one cochain space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError
from .families import FamilyError, FamilyInstance
from .field import inverse, matmul, rank, Subspace

FIXTURE_FAMILIES = ("SD1A1", "SD1A2", "Q1A1", "Q1A2", "SD2B1", "SD2B2")


@dataclass
class FixtureSet:
    """Named cochains plus the expected basis and bracket data."""

    instance: FamilyInstance
    cochains: dict
    basis: tuple
    brackets: dict
    coboundaries: list

    @property
    def field(self):
        return self.instance.field

    def vec(self, combo) -> np.ndarray:
        """Packed cochain of a name or of a {name: coefficient} combination."""
        if isinstance(combo, str):
            return self.cochains[combo].copy()
        f = self.field
        out = np.zeros_like(next(iter(self.cochains.values())))
        for name, coeff in combo.items():
            out = f.add(out, f.mul(coeff, self.cochains[name]))
        return out

    def names(self):
        return tuple(self.cochains)


def _sc(f, n: int) -> int:
    """Integer scalar as a field code (lands in the prime subfield)."""
    return int(n) % f.p


def _emit(alg, terms, vertex=0) -> np.ndarray:
    """Algebra element from (coefficient, arrow-letter string) pairs."""
    q = alg.quiver
    pairs = []
    for coeff, letters in terms:
        w = q.word(*letters) if letters else q.idempotent_word(vertex)
        pairs.append((coeff, w))
    return alg.element(pairs)


def _strip(combo: dict) -> dict:
    return {k: v for k, v in combo.items() if v != 0}


class _Table:
    """Accumulator for a bracket table over a fixed set of names."""

    def __init__(self, names):
        self.names = set(names)
        self.rows = {}

    def put(self, a, b, combo):
        if a not in self.names or b not in self.names:
            return
        self.rows[(a, b)] = _strip(combo)


# ----------------------------------------------------------------------
# local semi-dihedral algebras (char 2)

def sd_local_fixtures(inst: FamilyInstance) -> FixtureSet:
    """Cocycle catalogue for SD1A1 / SD1A2.

    The basis is B = {phi_t (1<=t<=k-1), theta_1, theta_-1, theta_2,
    theta_-2, theta_0} together with a parity-and-parameter dependent
    remainder: {omega, phi_0} for odd k with c=d=0, {omega, chi} for even k
    with d=0, {chi} for even k with d nonzero, {omega} for odd k with c
    nonzero and d=0, and nothing when k is odd and d is nonzero.
    """
    alg, f = inst.algebra, inst.field
    res = inst.resolution
    k = inst.params["k"]
    c = inst.params.get("c", 0)
    d = inst.params.get("d", 0)
    zero = alg.zero()

    def pk(xleg, yleg):
        return res.pack_cochain(1, [xleg, yleg])

    co = {}
    for t in range(k):
        co[f"phi_{t}"] = pk(_emit(alg, [(1, "x" + "yx" * t)]), zero)
    co["theta_1"] = pk(_emit(alg, [(1, "y" + "xy" * (k - 1))]), zero)
    co["theta_-1"] = pk(zero, _emit(alg, [(1, "x" + "yx" * (k - 1))]))
    co["theta_2"] = pk(_emit(alg, [(1, "xy" * k)]), zero)
    co["theta_-2"] = pk(zero, _emit(alg, [(1, "xy" * k)]))
    co["theta_0"] = pk(_emit(alg, [(1, ""), (c, "x")]),
                       _emit(alg, [(c, "y"), (d, "yx" * (k - 1))]))
    co["omega"] = pk(_emit(alg, [(1, "y" + "xy" * (k - 2)), (c, "yx" * (k - 1))]),
                     _emit(alg, [(1, "")]))
    co["chi"] = pk(zero, _emit(alg, [(1, "y")]))

    basis = [f"phi_{t}" for t in range(1, k)]
    basis += ["theta_1", "theta_-1", "theta_2", "theta_-2", "theta_0"]
    even = k % 2 == 0
    if even and d == 0:
        extra = ["omega", "chi"]
    elif even:
        extra = ["chi"]
    elif c == 0 and d == 0:
        extra = ["omega", "phi_0"]
    elif d == 0:
        extra = ["omega"]
    else:
        extra = []
    basis += extra

    keep = set(basis)
    co = {n: v for n, v in co.items() if n in keep}

    tb = _Table(co)
    lo = 0 if "phi_0" in co else 1
    for t in range(lo, k):
        for t2 in range(t + 1, k):
            if t + t2 <= k - 1:
                tb.put(f"phi_{t}", f"phi_{t2}",
                       {f"phi_{t + t2}": _sc(f, t + t2)})
    tb.put("theta_-2", "chi", {"theta_-2": 1})
    tb.put("theta_-1", "phi_0", {"theta_-1": 1})
    tb.put("theta_-2", "phi_0", {"theta_-2": 1})
    tb.put("theta_1", "phi_0", {"theta_1": 1})
    for t in range(lo, k):
        if t == 0:
            tb.put("phi_0", "theta_0", {"theta_0": 1})
        elif t == 1:
            tb.put("phi_1", "theta_0",
                   {"theta_-2": f.mul(_sc(f, k - 1), d)})
        else:
            tb.put(f"phi_{t}", "theta_0", {})
        if t == 1:
            tb.put("phi_1", "omega",
                   {"theta_1": _sc(f, k - 1), "theta_2": f.mul(_sc(f, k - 1), c)})
        else:
            tb.put(f"phi_{t}", "omega", {})
        tb.put(f"phi_{t}", "chi", {f"phi_{t}": _sc(f, t)})
    tb.put("theta_-2", "theta_0", {f"phi_{k - 1}": 1, "theta_-2": c})
    tb.put("theta_0", "omega", {"omega": c})
    tb.put("theta_2", "omega", {f"phi_{k - 1}": 1})
    tb.put("omega", "chi", {"omega": 1})
    if k > 2:
        tb.put("theta_-2", "omega", {"theta_-1": 1})
    else:
        tb.put("theta_-2", "omega", {"theta_-1": 1, "theta_2": 1})
    tb.put("theta_2", "theta_0", {"theta_1": 1, "theta_2": c})

    cob = []
    for t in range(1, k):
        cob.append(pk(_emit(alg, [(1, "x" + "yx" * t)]),
                      _emit(alg, [(1, "y" + "xy" * t)])))
        cob.append(pk(_emit(alg, [(1, "xy" * t), (1, "yx" * t)]), zero))
        cob.append(pk(zero, _emit(alg, [(1, "xy" * t), (1, "yx" * t)])))

    return FixtureSet(inst, co, tuple(basis), tb.rows, cob)


# ----------------------------------------------------------------------
# local quaternion algebras (char 2)

def quaternion_fixtures(inst: FamilyInstance) -> FixtureSet:
    """Cocycle catalogue for Q1A1 / Q1A2.

    For odd k with (c,d) != (0,0) only the combination psi = d*chi + c*omega
    survives as a cocycle and the basis is {theta_+-1, theta_+-2, phi_t, psi};
    otherwise chi and omega are separate classes.
    """
    alg, f = inst.algebra, inst.field
    res = inst.resolution
    k = inst.params["k"]
    c = inst.params.get("c", 0)
    d = inst.params.get("d", 0)
    zero = alg.zero()

    def pk(xleg, yleg):
        return res.pack_cochain(1, [xleg, yleg])

    co = {}
    for t in range(1, k):
        co[f"phi_{t}"] = pk(_emit(alg, [(1, "x" + "yx" * t)]), zero)
    co["theta_1"] = pk(_emit(alg, [(1, "y" + "xy" * (k - 1))]), zero)
    co["theta_-1"] = pk(zero, _emit(alg, [(1, "x" + "yx" * (k - 1))]))
    co["theta_2"] = pk(_emit(alg, [(1, "xy" * k)]), zero)
    co["theta_-2"] = pk(zero, _emit(alg, [(1, "xy" * k)]))
    if k > 2:
        chi = pk(_emit(alg, [(1, ""), (c, "x")]),
                 _emit(alg, [(1, "x" + "yx" * (k - 2)), (d, "xy" * (k - 1))]))
        omega = pk(_emit(alg, [(1, "y" + "xy" * (k - 2)), (c, "yx" * (k - 1))]),
                   _emit(alg, [(1, ""), (d, "y")]))
    else:
        # the k >= 3 formulas stop being cocycles at k = 2 (the unit legs sit
        # one step from the socle); each leg needs an extra yx term
        chi = pk(_emit(alg, [(1, ""), (c, "x"), (1, "yx")]),
                 _emit(alg, [(1, "x"), (d, "yx")]))
        omega = pk(_emit(alg, [(1, "y"), (c, "yx")]),
                   _emit(alg, [(1, ""), (d, "y"), (1, "yx")]))
    psi = f.add(f.mul(d, chi), f.mul(c, omega))

    basis = [f"phi_{t}" for t in range(1, k)]
    basis += ["theta_1", "theta_-1", "theta_2", "theta_-2"]
    if k % 2 == 1 and (c, d) != (0, 0):
        co["psi"] = psi
        basis += ["psi"]
    else:
        co["chi"], co["omega"] = chi, omega
        basis += ["chi", "omega"]
        if (c, d) != (0, 0):
            co["psi"] = psi          # dependent class, still a cocycle

    tb = _Table(co)
    km1 = _sc(f, k - 1)
    kk = _sc(f, k)
    for t in range(1, k):
        for t2 in range(t + 1, k):
            if t + t2 <= k - 1:
                tb.put(f"phi_{t}", f"phi_{t2}",
                       {f"phi_{t + t2}": _sc(f, t + t2)})
        if t == 1:
            tb.put("phi_1", "chi",
                   {"phi_1": c, "theta_-1": km1, "theta_-2": f.mul(km1, d)})
            tb.put("phi_1", "omega",
                   {"phi_1": d, "theta_1": km1, "theta_2": f.mul(km1, c)})
        else:
            tb.put(f"phi_{t}", "chi", {f"phi_{t}": f.mul(_sc(f, t), c)})
            tb.put(f"phi_{t}", "omega", {f"phi_{t}": f.mul(_sc(f, t), d)})
    # forced by bilinearity from the chi and omega rows; the k-1 factor
    # kills the whole row for the odd k at which psi is a basis element
    tb.put("phi_1", "psi",
           {"theta_1": f.mul(km1, c), "theta_2": f.mul(km1, f.mul(c, c)),
            "theta_-1": f.mul(km1, d), "theta_-2": f.mul(km1, f.mul(d, d))})
    tb.put("theta_1", "chi", {"theta_1": f.mul(kk, c)})
    tb.put("theta_1", "omega", {"theta_1": f.mul(kk, d)})
    tb.put("theta_-1", "chi", {"theta_-1": f.mul(kk, c)})
    tb.put("theta_-1", "omega", {"theta_-1": f.mul(kk, d)})
    tb.put("theta_2", "chi", {"theta_1": 1, "theta_2": f.mul(km1, c)})
    tb.put("theta_2", "omega", {f"phi_{k - 1}": 1, "theta_2": f.mul(kk, d)})
    tb.put("theta_-2", "chi", {f"phi_{k - 1}": 1, "theta_-2": f.mul(kk, c)})
    tb.put("theta_-2", "omega", {"theta_-1": 1, "theta_-2": f.mul(km1, d)})
    tb.put("theta_2", "psi",
           {f"phi_{k - 1}": c, "theta_1": d, "theta_2": f.mul(d, c)})
    tb.put("theta_-2", "psi",
           {f"phi_{k - 1}": d, "theta_-1": c, "theta_-2": f.mul(c, d)})
    if k == 2:
        # the extra yx legs of chi and omega feed the socle classes, so four
        # rows pick up theta_{+-2} terms and [chi, omega] turns non-zero
        tb.put("phi_1", "chi",
               {"phi_1": c, "theta_-1": 1, "theta_-2": d, "theta_2": 1})
        tb.put("phi_1", "omega",
               {"phi_1": d, "theta_1": 1, "theta_2": c, "theta_-2": 1})
        tb.put("theta_2", "chi", {"theta_1": 1, "theta_2": c, "theta_-2": 1})
        tb.put("theta_-2", "omega",
               {"theta_-1": 1, "theta_-2": d, "theta_2": 1})
        tb.put("chi", "omega",
               {"theta_1": c, "theta_-1": d,
                "theta_2": f.add(f.mul(c, c), d),
                "theta_-2": f.add(f.mul(d, d), c)})

    return FixtureSet(inst, co, tuple(basis), tb.rows, [])


# ----------------------------------------------------------------------
# two-vertex semi-dihedral algebras, first presentation

def sd2b1_fixtures(inst: FamilyInstance) -> FixtureSet:
    alg, f = inst.algebra, inst.field
    res = inst.resolution
    k, s = inst.params["k"], inst.params["s"]
    c = inst.params.get("c", 0)
    zero = alg.zero()

    def pk(va, vb, vg, ve):
        return res.pack_cochain(1, [va, vb, vg, ve])

    def phi(t):
        return pk(_emit(alg, [(1, "a" + "bga" * t)]), zero, zero, zero)

    def theta(r):
        return pk(zero, zero, zero, _emit(alg, [(1, "e" * (r + 1))], vertex=1))

    co = {}
    for t in range(1, k):
        co[f"phi_{t}"] = phi(t)
    for r in range(1, s):
        co[f"theta_{r}"] = theta(r)
    co["psi"] = pk(_emit(alg, [(1, "abg" * k)]), zero, zero, zero)

    if f.p == 2:
        co["chi"] = pk(_emit(alg, [(1, ""), (c, "a")]),
                       _emit(alg, [(c, "b")]), zero, zero)
        co["omega"] = pk(_emit(alg, [(1, "bga" * (k - 1) + "bg"), (c, "abg" * k)]),
                         zero, zero, zero)
        basis = list(co)
        if k % 2 == 0 and s % 2 == 0:
            co["phi_0"] = pk(zero, _emit(alg, [(1, "b")]), zero, zero)
            co["theta_0"] = theta(0)
            basis += ["phi_0", "theta_0"]
        elif (k + s) % 2 == 1:
            co["zeta_1"] = pk(zero, _emit(alg, [(_sc(f, s), "b")]), zero,
                              _emit(alg, [(_sc(f, k), "e")], vertex=1))
            basis += ["zeta_1"]
        elif c == 0:                  # k, s both odd
            co["zeta_0"] = pk(_emit(alg, [(1, "a")]), zero, zero,
                              _emit(alg, [(1, "e")], vertex=1))
            basis += ["zeta_0"]
    elif f.p == 3:
        # the coefficient on the c-correction is -c, not +c: the Leibniz
        # residual of the a^2 relation is 2c(1+u) times the socle for a
        # correction u*c, which forces u = -1
        co["omega"] = pk(
            _emit(alg, [(1, "a"), (f.neg(c), "bga" * (k - 1) + "bg"),
                        (c, "abg" * k)]),
            _emit(alg, [(f.neg(1), "b")]), zero, zero)
        basis = list(co)
        if k % 3 == 0:
            co["phi_0"] = pk(zero, _emit(alg, [(1, "b")]), zero, zero)
            basis += ["phi_0"]
        if s % 3 == 0:
            co["theta_0"] = theta(0)
            basis += ["theta_0"]
    else:
        basis = list(co)
        if k % f.p == 0 and s % f.p == 0:
            co["phi_0"] = pk(zero, _emit(alg, [(1, "b")]), zero, zero)
            co["theta_0"] = theta(0)
            basis += ["phi_0", "theta_0"]
        else:
            ks = _sc(f, k * s)
            # c-correction carries ks/2, half of what a naive count suggests,
            # again forced by the Leibniz residual of the a^2 relation
            half_ks = f.mul(ks, f.inv(2))
            co["omega"] = pk(
                _emit(alg, [(ks, "a"),
                            (f.mul(half_ks, c), "bga" * (k - 1) + "bg")]),
                _emit(alg, [(_sc(f, (3 - k) * s), "b")]), zero,
                _emit(alg, [(_sc(f, 3 * k), "e")], vertex=1))
            basis += ["omega"]

    tb = _Table(co)
    lo_t = 0 if "phi_0" in co else 1
    lo_r = 0 if "theta_0" in co else 1
    for t in range(lo_t, k):
        for t2 in range(t + 1, k):
            if t + t2 <= k - 1:
                coeff = (t + t2) if f.p == 2 else (t2 - t)
                tb.put(f"phi_{t}", f"phi_{t2}",
                       {f"phi_{t + t2}": _sc(f, coeff)})
    for r in range(lo_r, s):
        for r2 in range(r + 1, s):
            if r + r2 <= s - 1:
                coeff = (r + r2) if f.p == 2 else (r2 - r)
                tb.put(f"theta_{r}", f"theta_{r2}",
                       {f"theta_{r + r2}": _sc(f, coeff)})
    if f.p == 2:
        tb.put("psi", "chi", {"omega": 1})
        tb.put("chi", "omega", {"omega": c})
        for t in range(1, k):
            tb.put(f"phi_{t}", "zeta_1", {f"phi_{t}": _sc(f, t * s)})
            tb.put(f"phi_{t}", "zeta_0", {f"phi_{t}": _sc(f, t)})
        for r in range(1, s):
            tb.put(f"theta_{r}", "zeta_1", {f"theta_{r}": _sc(f, r * k)})
            tb.put(f"theta_{r}", "zeta_0", {f"theta_{r}": _sc(f, r)})
        tb.put("chi", "zeta_0", {"chi": 1})
        tb.put("omega", "zeta_0", {"omega": 1})
    elif f.p == 3:
        tb.put("psi", "omega", {"psi": 1})
    else:
        for t in range(1, k):
            tb.put("omega", f"phi_{t}", {f"phi_{t}": _sc(f, 3 * t * s)})
        for r in range(1, s):
            tb.put("omega", f"theta_{r}", {f"theta_{r}": _sc(f, 3 * r * k)})
        tb.put("omega", "psi", {"psi": _sc(f, 2 * k * s)})

    cob = []
    if f.p == 2:
        n1 = f.neg(1)
        for t in range(1, k):
            cob.append(pk(_emit(alg, [(1, "a" + "bga" * t)]),
                          _emit(alg, [(n1, "b" + "gab" * t)]), zero, zero))
            cob.append(pk(_emit(alg, [(1, "a" + "bga" * t)]), zero,
                          _emit(alg, [(n1, "g" + "abg" * t)]), zero))
            cob.append(pk(_emit(alg, [(1, "abg" * t), (n1, "bga" * t)]),
                          zero, zero, zero))
            cob.append(pk(zero, _emit(alg, [(1, "ab" + "gab" * t)]),
                          _emit(alg, [(n1, "ga" + "bga" * t)]), zero))
        cob.append(pk(zero, _emit(alg, [(1, "ab")]),
                      _emit(alg, [(n1, "ga")]), zero))
        cob.append(pk(zero, _emit(alg, [(1, "b")]),
                      _emit(alg, [(n1, "g")]), zero))

    return FixtureSet(inst, co, tuple(basis), tb.rows, cob)


# ----------------------------------------------------------------------
# two-vertex semi-dihedral algebras, second presentation

def sd2b2_fixtures(inst: FamilyInstance) -> FixtureSet:
    k, s = inst.params["k"], inst.params["s"]
    if s == 2:
        return _sd2b2_short_fixtures(inst)
    alg, f = inst.algebra, inst.field
    res = inst.resolution
    c = inst.params.get("c", 0)
    zero = alg.zero()

    def pk(va, vb, vg, ve):
        return res.pack_cochain(1, [va, vb, vg, ve])

    ab_word = "ab" + "gab" * (k - 1)       # (a b g)^(k-1) a b

    co = {}
    for t in range(1, k):
        co[f"phi_{t}"] = pk(_emit(alg, [(1, "a" + "bga" * t)]),
                            zero, zero, zero)
    co["theta_1"] = pk(zero, _emit(alg, [(_sc(f, s - 1), ab_word)]), zero,
                       _emit(alg, [(1, "ee")], vertex=1))
    for r in range(2, s):
        co[f"theta_{r}"] = pk(zero, zero, zero,
                              _emit(alg, [(1, "e" * (r + 1))], vertex=1))

    if f.p == 2:
        co["psi_1"] = pk(_emit(alg, [(1, "abg" * k)]), zero, zero, zero)
        co["omega"] = pk(_emit(alg, [(1, "bga" * (k - 1) + "bg")]),
                         zero, zero, zero)
        basis = list(co)
        # a is the arrow of the length-k strand and e of the length-s one,
        # so phi_0 = (a,0,0,0) needs even k and theta_0 = (a,b,0,e) even s
        if k % 2 == 0:
            co["phi_0"] = pk(_emit(alg, [(1, "a")]), zero, zero, zero)
            basis += ["phi_0"]
        if s % 2 == 0:
            co["theta_0"] = pk(_emit(alg, [(1, "a")]),
                               _emit(alg, [(1, "b")]), zero,
                               _emit(alg, [(1, "e")], vertex=1))
            basis += ["theta_0"]
        if k % 2 == 1 and s % 2 == 1 and c == 0:
            co["chi"] = pk(_emit(alg, [(1, "a")]), zero, zero,
                           _emit(alg, [(1, "e")], vertex=1))
            basis += ["chi"]
        if c == 0:
            co["psi_0"] = pk(_emit(alg, [(1, "")]), zero, zero,
                             _emit(alg, [(1, "gab" * (k - 1))], vertex=1))
            basis += ["psi_0"]
    else:
        co["psi"] = pk(_emit(alg, [(1, "abg" * k)]), zero, zero, zero)
        basis = list(co)
        if k % f.p == 0 and s % f.p == 0:
            phi0 = pk(_emit(alg, [(1, "a"),
                                  (f.neg(c), "bga" * (k - 1) + "bg")]),
                      zero, zero, zero)
            # the e-leg carries -e, not e: with +e the quadruple fails the
            # cocycle condition and [theta_r, theta_0] comes out as -r theta_r
            rest = pk(zero, _emit(alg, [(1, "b")]), zero,
                      _emit(alg, [(f.neg(1), "e")], vertex=1))
            co["phi_0"] = phi0
            co["theta_0"] = f.sub(rest, phi0)
            basis += ["phi_0", "theta_0"]
        else:
            co["omega"] = pk(
                _emit(alg, [(_sc(f, 2 * (k + s - k * s)), "a"),
                            (f.mul(_sc(f, 3 * k * s - 2 * k - 2 * s), c),
                             "bga" * (k - 1) + "bg")]),
                _emit(alg, [(_sc(f, 2 * k * (s - 1)), "b")]), zero,
                _emit(alg, [(_sc(f, 2 * k), "e")], vertex=1))
            basis += ["omega"]

    tb = _sd2b2_table(f, k, s, c, co)
    return FixtureSet(inst, co, tuple(basis), tb.rows, [])


def _sd2b2_short_fixtures(inst: FamilyInstance) -> FixtureSet:
    """The s = 2 member on the three-arrow quiver.

    The printed s = 2 catalogue is followed except for one normalization:
    in odd characteristic the general-omega formula specialized to s = 2 is
    kept (it is twice the printed s = 2 triple), so that the uniform
    bracket coefficients (2st, 2kr, 2(2ks-k-s)) apply unchanged.
    """
    alg, f = inst.algebra, inst.field
    res = inst.resolution
    k, s = inst.params["k"], 2
    c = inst.params.get("c", 0)
    zero = alg.zero()

    def pk(va, vb, vg):
        return res.pack_cochain(1, [va, vb, vg])

    ab_word = "ab" + "gab" * (k - 1)

    co = {}
    for t in range(1, k):
        co[f"phi_{t}"] = pk(_emit(alg, [(1, "a" + "bga" * t)]), zero, zero)
    co["theta_1"] = pk(zero, _emit(alg, [(1, ab_word)]), zero)
    co["psi_1" if f.p == 2 else "psi"] = pk(
        _emit(alg, [(1, "abg" * k)]), zero, zero)

    if f.p == 2:
        co["omega"] = pk(_emit(alg, [(1, "bga" * (k - 1) + "bg")]), zero, zero)
        basis = list(co)
        if c == 0:
            co["psi_0"] = pk(_emit(alg, [(1, "")]),
                             _emit(alg, [(1, "ab" + "gab" * (k - 2))]), zero)
            basis += ["psi_0"]
        co["phi_0"] = pk(_emit(alg, [(1, "a")]),
                         _emit(alg, [(_sc(f, k), "b")]), zero)
        basis += ["phi_0"]
        if k % 2 == 0:
            co["theta_0"] = pk(zero, _emit(alg, [(1, "b")]), zero)
            basis += ["theta_0"]
    else:
        co["omega"] = pk(
            _emit(alg, [(_sc(f, 2 * (k + s - k * s)), "a"),
                        (f.mul(_sc(f, 3 * k * s - 2 * k - 2 * s), c),
                         "bga" * (k - 1) + "bg")]),
            _emit(alg, [(_sc(f, 2 * k * (s - 1)), "b")]), zero)
        basis = list(co)

    tb = _sd2b2_table(f, k, s, c, co)
    return FixtureSet(inst, co, tuple(basis), tb.rows, [])


def _sd2b2_table(f, k, s, c, co) -> _Table:
    """Displayed bracket rows shared by the two SD2B2 presentations."""
    tb = _Table(co)
    one_c = f.sub(1, c)
    psi = "psi_1" if "psi_1" in co else "psi"
    for t in range(1, k):
        for t2 in range(t + 1, k):
            if t + t2 <= k - 1:
                coeff = (t + t2) if f.p == 2 else (t2 - t)
                tb.put(f"phi_{t}", f"phi_{t2}",
                       {f"phi_{t + t2}": _sc(f, coeff)})
    for r in range(1, s):
        for r2 in range(r + 1, s):
            if r + r2 <= s - 1:
                coeff = (r + r2) if f.p == 2 else (r2 - r)
                tb.put(f"theta_{r}", f"theta_{r2}",
                       {f"theta_{r + r2}": _sc(f, coeff)})
    if f.p == 2:
        for t in range(1, k):
            coeff = t * (1 + k) if s == 2 else t
            tb.put(f"phi_{t}", "phi_0", {f"phi_{t}": _sc(f, coeff)})
            tb.put(f"phi_{t}", "chi", {f"phi_{t}": _sc(f, t)})
        for r in range(1, s):
            tb.put(f"theta_{r}", "theta_0", {f"theta_{r}": _sc(f, r)})
            tb.put(f"theta_{r}", "chi", {f"theta_{r}": _sc(f, r)})
        tb.put("phi_1", "psi_0",
               {f"theta_{s - 1}": f.mul(one_c, _sc(f, 1 - k))})
        tb.put("theta_1", "psi_0",
               {f"phi_{k - 1}": f.mul(one_c, _sc(f, 1 - s))})
        tb.put("psi_1", "phi_0", {"psi_1": 1})
        tb.put("psi_0", "phi_0", {"psi_0": one_c})
        tb.put("psi_1", "psi_0", {"omega": one_c})
        tb.put("omega", "chi", {"omega": 1})
        tb.put("psi_0", "chi", {"psi_0": 1})
        if s == 2:
            # on the three-arrow quiver phi_0 = (a, kb, 0) and theta_0 =
            # (0, b, 0) put weight on the b strand, which the four-arrow
            # rows never do: theta_0 now moves the a-strand families, phi_0
            # reaches theta_1, and [psi_1, theta_0] = k psi_1 dies for the
            # even k at which theta_0 survives (likewise [psi_0, theta_0])
            for t in range(1, k):
                tb.put(f"phi_{t}", "theta_0", {f"phi_{t}": _sc(f, t)})
            tb.put("theta_1", "phi_0", {"theta_1": _sc(f, k)})
        else:
            tb.put("psi_1", "theta_0", {"psi_1": 1})
            tb.put("psi_0", "theta_0", {"psi_0": one_c})
    else:
        for t in range(1, k):
            tb.put("phi_0", f"phi_{t}", {f"phi_{t}": _sc(f, t)})
            tb.put("omega", f"phi_{t}", {f"phi_{t}": _sc(f, 2 * s * t)})
        for r in range(1, s):
            # the corrected e-leg sign of theta_0 transposes this row
            # relative to the phi side: [theta_r, theta_0] = r theta_r
            tb.put(f"theta_{r}", "theta_0", {f"theta_{r}": _sc(f, r)})
            tb.put("omega", f"theta_{r}", {f"theta_{r}": _sc(f, 2 * k * r)})
        tb.put(psi, "phi_0", {psi: 1})
        tb.put(psi, "theta_0", {psi: f.neg(1)})
        tb.put("omega", psi, {psi: _sc(f, 2 * (2 * k * s - k - s))})
    return tb


# ----------------------------------------------------------------------

_BUILDERS = {
    "SD1A1": sd_local_fixtures,
    "SD1A2": sd_local_fixtures,
    "Q1A1": quaternion_fixtures,
    "Q1A2": quaternion_fixtures,
    "SD2B1": sd2b1_fixtures,
    "SD2B2": sd2b2_fixtures,
}


def fixtures_for(inst: FamilyInstance) -> FixtureSet:
    """Named-cocycle data for one instance; raises for families without any."""
    builder = _BUILDERS.get(inst.family)
    if builder is None:
        raise FamilyError(
            f"no named cocycle fixtures for family {inst.family}")
    return builder(inst)


def fixture_check(space, fix: FixtureSet) -> dict:
    """Verify a fixture set against a computed first-cohomology space.

    Checks that every registered cochain is a cocycle, that the selected
    names are independent modulo coboundaries and count out to the computed
    dimension, and that an explicit coboundary list (when recorded) spans
    exactly the coboundary space.
    """
    f = fix.field
    entries = []
    for name, vec in fix.cochains.items():
        entries.append((f"cocycle {name}", bool(space.is_cocycle(vec))))

    try:
        mat = space.class_coords(np.array([fix.vec(n) for n in fix.basis]))
        independent = rank(f, mat) == len(fix.basis)
    except AlgebraError:
        independent = False
    entries.append(("basis classes independent", independent))
    entries.append(("basis size equals dim", len(fix.basis) == space.dim))

    if fix.coboundaries:
        listed = np.array(fix.coboundaries, dtype=np.int64)
        sub = Subspace(f, listed.shape[1], listed)
        entries.append(("coboundary list spans the coboundaries",
                        sub == space.coboundaries))

    return {"passed": all(ok for _, ok in entries), "entries": entries}


# ----------------------------------------------------------------------
# recorded isomorphisms between named bases

def sd_local_scaling_map(field, k: int, c, cp) -> dict:
    """SD1A2(c,1) -> SD1A2(c',1) for odd k, c and c' nonzero."""
    m = {f"phi_{t}": {f"phi_{t}": 1} for t in range(1, k)}
    m["theta_1"] = {"theta_1": 1}
    m["theta_-1"] = {"theta_-1": 1}
    m["theta_0"] = {"theta_0": field.mul(c, field.inv(cp))}
    ratio = field.mul(cp, field.inv(c))
    m["theta_2"] = {"theta_2": ratio}
    m["theta_-2"] = {"theta_-2": ratio}
    return m


def quaternion_scaling_map(field, k: int, d, dp) -> dict:
    """Q1A2(0,d) -> Q1A2(0,d') for odd k, d and d' nonzero."""
    m = {f"phi_{t}": {f"phi_{t}": 1} for t in range(1, k - 1)}
    ratio = field.mul(dp, field.inv(d))
    m[f"phi_{k - 1}"] = {f"phi_{k - 1}": ratio}
    m["psi"] = {"psi": field.mul(d, field.inv(dp))}
    m["theta_-2"] = {"theta_-2": ratio}
    for n in ("theta_1", "theta_-1", "theta_2"):
        m[n] = {n: 1}
    return m


def sd2b1_swap_map(fix: FixtureSet) -> dict:
    """SD2B1(k,s) -> SD2B1(s,k): exchange the phi and theta strands."""
    m = {}
    for name in fix.basis:
        if name.startswith("phi_"):
            m[name] = {"theta_" + name[4:]: 1}
        elif name.startswith("theta_"):
            m[name] = {"phi_" + name[6:]: 1}
        else:
            m[name] = {name: 1}
    return m


def sd2b1_to_sd2b2_map(fix: FixtureSet) -> dict:
    """SD2B1(k,s)(0) -> SD2B2(k,s)(0) for odd k and s."""
    ren = {"psi": "psi_1", "zeta_0": "chi", "chi": "psi_0"}
    return {name: {ren.get(name, name): 1} for name in fix.basis}


def iso_matrix(space_a, fix_a: FixtureSet, space_b, fix_b: FixtureSet,
               mapping: dict) -> np.ndarray:
    """Canonical-coordinate matrix of a map given on the named bases."""
    f = fix_a.field
    n = space_a.dim
    if space_b.dim != n:
        raise AlgebraError("dimension mismatch between the two spaces")
    pa = space_a.class_coords(np.array([fix_a.vec(name) for name in fix_a.basis])).T
    imgs = space_b.class_coords(np.array([fix_b.vec(mapping[name]) for name in fix_a.basis])).T
    try:
        pa_inv = inverse(f, pa)
    except ValueError as exc:
        raise AlgebraError(f"named basis matrix: {exc}") from None
    return matmul(f, imgs, pa_inv)
