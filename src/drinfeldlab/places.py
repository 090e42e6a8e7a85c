"""Places of K = F_p(t)(theta), their residue fields, and valuations.

The ambient curve is the projective theta-line over F = F_p(t): places
trivial on F are the monic irreducible polynomials pi(theta) over F plus the
infinite place with uniformiser 1/theta.  Each place carries the weight
N_v = [F_v : F] (the theta-degree of pi, or 1 at infinity), which makes the
product formula Sum_v N_v * v(x) = 0 hold on the nose.

Valuations at a finite place are computed inside the truncated ring
F[theta]/(pi^n): a sparse element is reduced term by term with memoised
theta-power residues, so p-th-power-dilated inputs with astronomically large
exponents cost only log(exponent) work.  The ring size is grown adaptively
and capped; anything needing more than the cap is out of desk scale and
raises.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import FElem, RPoly, check_modulus, memo_put
from .factor import bipoly_is_irreducible, factor_bipoly, rpoly_code
from .grammar import Parser
from .kfield import (BiPoly, KElem, _bipoly_to_str, bipoly_pth_root, kelem_ring,
                     kelem_to_str)

_FACTOR_DEG_CAP = 8
_RING_CAP = 600


class Place:
    """A place of K trivial on F: Finite(pi) or Infinite."""

    __slots__ = ("p", "prim", "monic_coeffs")

    def __init__(self, p: int, prim, _checked: bool = False):
        # prim: primitive irreducible BiPoly (finite place) or None (infinite)
        check_modulus(p)
        self.p = p
        self.prim = prim
        if prim is None:
            self.monic_coeffs = None
            return
        if prim.theta_degree < 1:
            raise ValueError("a finite place needs positive theta-degree")
        if prim.theta_degree > _FACTOR_DEG_CAP:
            raise ValueError(
                f"place degree {prim.theta_degree} exceeds the desk cap {_FACTOR_DEG_CAP}")
        if not _checked:
            prim = _primitive_normal(prim)
            if not bipoly_is_irreducible(prim):
                raise ValueError(
                    f"reducible place polynomial: {kelem_to_str(KElem.from_bipoly(prim))}")
            self.prim = prim
        lead = FElem.from_rpoly(prim.lead_theta_coeff())
        self.monic_coeffs = tuple(
            FElem.from_rpoly(prim.theta_coeff(i)) / lead
            for i in range(prim.theta_degree)
        )

    @classmethod
    def infinite(cls, p: int) -> "Place":
        return cls(p, None)

    @classmethod
    def finite(cls, pi: KElem) -> "Place":
        """Build from a polynomial in theta over F (denominators are cleared)."""
        if pi.den.theta_degree > 0:
            raise ValueError("place polynomial must have a theta-free denominator")
        return cls(pi.p, _primitive_normal(pi.num))

    @classmethod
    def parse(cls, p: int, text: str) -> "Place":
        """Parse ``infinite`` or ``finite:<pi>`` in the `grammar`."""
        parser = Parser(text)
        if parser.accept("infinite"):
            return parser.done(cls.infinite(p))
        parser.expect("finite")
        parser.expect(":")
        return cls.finite(parser.done(parser.expr(kelem_ring(p))))

    @property
    def is_infinite(self) -> bool:
        return self.prim is None

    @property
    def theta_degree(self) -> int:
        return 1 if self.prim is None else self.prim.theta_degree

    @property
    def weight(self) -> int:
        """N_v, the residue degree over F."""
        return 1 if self.prim is None else self.prim.theta_degree

    def uniformizer(self) -> KElem:
        if self.prim is None:
            return KElem.theta(self.p).inverse()
        return KElem.from_bipoly(self.prim)

    def monic_pi(self) -> KElem:
        """pi as the monic polynomial over F (finite places only)."""
        if self.prim is None:
            raise ValueError("the infinite place has no pi")
        acc = KElem.theta(self.p) ** self.theta_degree
        th = KElem.theta(self.p)
        for i, c in enumerate(self.monic_coeffs):
            acc = acc + KElem.from_felem(c) * th ** i
        return acc

    def sort_key(self):
        if self.prim is None:
            return (1, 0, ())
        return (0, self.prim.theta_degree,
                tuple(rpoly_code(self.prim.theta_coeff(i))
                      for i in range(self.prim.theta_degree + 1)))

    def __eq__(self, other):
        return (isinstance(other, Place) and self.p == other.p
                and self.prim == other.prim)

    def __hash__(self):
        return hash((self.p, None if self.prim is None else self.prim.key()))

    def __str__(self):
        return place_to_str(self)

    def __repr__(self):
        return f"Place({place_to_str(self)})"


def place_to_str(v: Place) -> str:
    if v.is_infinite:
        return "infinite"
    return "finite:" + _bipoly_to_str(v.prim)


def place_parse(p: int, text: str) -> Place:
    return Place.parse(p, text)


def _primitive_normal(f: BiPoly) -> BiPoly:
    cont = f.content()
    if cont.is_zero():
        raise ValueError("zero place polynomial")
    prim = BiPoly(f.p, {e: g // cont for e, g in f.c.items()})
    lead = prim.lead_theta_coeff().lead
    if lead != 1:
        from .base import inv_mod
        prim = prim.scale(inv_mod(lead, f.p))
    return prim


# -- residue field elements --------------------------------------------------


class FvElem:
    """Element of the residue field F_v = F[theta]/(pi) (or F at infinity).

    rep is a tuple of FElem coefficients of length deg(pi), ascending in the
    residue class of theta; at the infinite place it has length 1.
    """

    __slots__ = ("place", "rep")

    def __init__(self, place: Place, rep):
        self.place = place
        d = place.theta_degree
        rep = tuple(rep)
        if len(rep) != d:
            raise ValueError("residue representative has the wrong length")
        self.rep = rep

    @classmethod
    def zero(cls, place: Place) -> "FvElem":
        return cls(place, [FElem.zero(place.p)] * place.theta_degree)

    @classmethod
    def one(cls, place: Place) -> "FvElem":
        rep = [FElem.zero(place.p)] * place.theta_degree
        rep[0] = FElem.one(place.p)
        return cls(place, rep)

    @classmethod
    def from_felem(cls, place: Place, x: FElem) -> "FvElem":
        rep = [FElem.zero(place.p)] * place.theta_degree
        rep[0] = x
        return cls(place, rep)

    @property
    def p(self):
        return self.place.p

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.rep)

    def _check(self, other):
        if self.place != other.place:
            raise ValueError("residue fields of different places")

    def __eq__(self, other):
        return (isinstance(other, FvElem) and self.place == other.place
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.place, self.rep))

    def __add__(self, other):
        self._check(other)
        return FvElem(self.place, [a + b for a, b in zip(self.rep, other.rep)])

    def __neg__(self):
        return FvElem(self.place, [-a for a in self.rep])

    def __sub__(self, other):
        self._check(other)
        return FvElem(self.place, [a - b for a, b in zip(self.rep, other.rep)])

    def scale(self, c: FElem) -> "FvElem":
        return FvElem(self.place, [a * c for a in self.rep])

    def __mul__(self, other):
        self._check(other)
        d = self.place.theta_degree
        if d == 1:
            return FvElem(self.place, (self.rep[0] * other.rep[0],))
        prod = _fpoly_mul(list(self.rep), list(other.rep))
        prod = _fpoly_rem_monic(prod, self._monic_pi_list())
        prod += [FElem.zero(self.p)] * (d - len(prod))
        return FvElem(self.place, prod[:d])

    def _monic_pi_list(self):
        return list(self.place.monic_coeffs) + [FElem.one(self.p)]

    def inverse(self) -> "FvElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in the residue field")
        d = self.place.theta_degree
        if d == 1:
            return FvElem(self.place, (self.rep[0].inverse(),))
        inv = _fpoly_invert_mod(list(self.rep), self._monic_pi_list())
        inv += [FElem.zero(self.p)] * (d - len(inv))
        return FvElem(self.place, inv[:d])

    def __truediv__(self, other):
        return self * other.inverse()

    def _frob_once(self) -> "FvElem":
        """The p-th power: semilinear, so it never densifies sparse reps."""
        p = self.p
        d = self.place.theta_degree
        if d == 1:
            return FvElem(self.place, (self.rep[0] ** p,))
        gp = _gen_pth_power(self.place)
        acc = [FElem.zero(p)]
        power = [FElem.one(p)]
        pi = self._monic_pi_list()
        for a in self.rep:
            if not a.is_zero():
                ap = a ** p
                term = [c * ap for c in power]
                acc = _fpoly_add(acc, term)
            power = _fpoly_rem_monic(_fpoly_mul(power, gp), pi)
        acc += [FElem.zero(p)] * (d - len(acc))
        return FvElem(self.place, acc[:d])

    def __pow__(self, n: int) -> "FvElem":
        # base-p digits: binary powering walks through dense intermediates,
        # while x -> x^p is just a termwise stretch of the underlying reps
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return FvElem.one(self.place)
        if self.is_zero():
            return self
        result = FvElem.one(self.place)
        y = self
        while n:
            n, digit = divmod(n, self.p)
            if digit:
                acc = y
                for _ in range(digit - 1):
                    acc = acc * y
                result = result * acc
            if n:
                y = y._frob_once()
        return result

    def frobenius(self, e: int) -> "FvElem":
        """The p^e-th power."""
        out = self
        for _ in range(e):
            out = out._frob_once()
        return out

    def lift(self) -> KElem:
        """The canonical lift: the representative polynomial as a K-element."""
        acc = KElem.zero(self.p)
        th = KElem.theta(self.p)
        for i, c in enumerate(self.rep):
            if not c.is_zero():
                acc = acc + KElem.from_felem(c) * th ** i
        return acc

    def __str__(self):
        return kelem_to_str(self.lift())

    def __repr__(self):
        return f"FvElem({self.place}, {self})"


def fv_denominator(xs) -> RPoly:
    """The least common denominator of the F-coefficients of residue
    elements."""
    den = RPoly.one(xs[0].p)
    for x in xs:
        for f in x.rep:
            den = den // den.gcd(f.den) * f.den
    return den


def fv_coordinates(xs):
    """Exact F_p-coordinates of a list of residue elements: one sparse
    vector {(slot, t_exp): c} of x * fv_denominator(xs) per x, so iterate
    families with huge sparse exponents stay cheap."""
    den = FElem.from_rpoly(fv_denominator(xs))
    out = []
    for x in xs:
        vec = {}
        for slot, f in enumerate(x.rep):
            cleared = f * den
            if not cleared.den.is_one():
                raise AssertionError("denominator clearing failed")
            vec.update(((slot, e), c) for e, c in cleared.num.c.items())
        out.append(vec)
    return out


def fv_tp_eval(coeffs_bar, x: FvElem) -> FvElem:
    """sum c_i x^{p^i} for residue coefficients c_i, lowest tau-power first.

    The one evaluation of a reduced additive polynomial on F_v; x^{p^i} is
    taken as i Frobenius steps.
    """
    acc = FvElem.zero(x.place)
    for i, c in enumerate(coeffs_bar):
        if not c.is_zero():
            acc = acc + c * x.frobenius(i)
    return acc


# dense polynomial helpers over F (ascending FElem lists, no trailing zeros)


def _fpoly_trim(a):
    while a and a[-1].is_zero():
        a.pop()
    return a


def _fpoly_add(a, b):
    p = a[0].p if a else (b[0].p if b else None)
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else FElem.zero(p)
        y = b[i] if i < len(b) else FElem.zero(p)
        out.append(x + y)
    return _fpoly_trim(out)


def _fpoly_scale(a, c):
    return _fpoly_trim([x * c for x in a])


def _fpoly_mul(a, b):
    if not a or not b:
        return []
    p = a[0].p
    out = [FElem.zero(p) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return _fpoly_trim(out)


def _fpoly_divmod_monic(a, b):
    """Divide by a monic polynomial (leading coefficient literally 1)."""
    p = b[0].p
    a = list(a)
    db = len(b) - 1
    q = [FElem.zero(p) for _ in range(max(len(a) - db, 0))]
    while len(a) - 1 >= db and a:
        _fpoly_trim(a)
        if len(a) - 1 < db or not a:
            break
        coef = a[-1]
        shift = len(a) - 1 - db
        q[shift] = coef
        for i in range(db + 1):
            a[shift + i] = a[shift + i] - coef * b[i]
        a.pop()
    return _fpoly_trim(q), _fpoly_trim(a)


def _fpoly_rem_monic(a, b):
    return _fpoly_divmod_monic(a, b)[1]


_gp_cache: dict = {}


def _gen_pth_power(place: Place):
    """Reduction of g^p mod pi, for the residue generator g, memoised in
    _gp_cache by base.memo_put."""
    out = _gp_cache.get(place)
    if out is None:
        p = place.p
        raw = [FElem.zero(p)] * p + [FElem.one(p)]
        pi = list(place.monic_coeffs) + [FElem.one(p)]
        out = memo_put(_gp_cache, place, _fpoly_rem_monic(raw, pi))
    return out


def _fpoly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead = b[-1]
    if lead.is_one():
        return _fpoly_divmod_monic(a, b)
    inv = lead.inverse()
    bm = _fpoly_scale(b, inv)
    q, r = _fpoly_divmod_monic(a, bm)
    return _fpoly_scale(q, inv), r


def _fpoly_invert_mod(a, m):
    """Inverse of a modulo m over F via the extended Euclidean algorithm."""
    p = m[0].p
    r0, r1 = list(m), _fpoly_rem_monic(list(a), m)
    s0, s1 = [], [FElem.one(p)]
    while r1:
        q, r2 = _fpoly_divmod(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, _fpoly_add(s0, [-c for c in _fpoly_mul(q, s1)])
    if len(r0) != 1:
        raise ZeroDivisionError("element is not a unit modulo pi")
    return _fpoly_scale(s0, r0[0].inverse())


# -- truncated pi-adic rings -------------------------------------------------


class TruncRing:
    """F[theta]/(pi^n) with memoised theta-power residues.

    Elements are ascending FElem lists of length < n * deg(pi).  Reduction of
    a sparse bivariate polynomial costs O(log max_exponent) ring squarings
    per distinct theta-exponent.
    """

    def __init__(self, place: Place, n: int):
        if place.is_infinite:
            raise ValueError("truncated rings exist at finite places only")
        if n < 1:
            raise ValueError("precision must be >= 1")
        d = place.theta_degree
        if n * d > _RING_CAP:
            raise ValueError("truncated ring beyond desk scale")
        self.place = place
        self.n = n
        self.p = place.p
        self.pi = list(place.monic_coeffs) + [FElem.one(place.p)]
        mod = [FElem.one(place.p)]
        for _ in range(n):
            mod = _fpoly_mul(mod, self.pi)
        self.mod = mod
        self._theta_pows = {0: [FElem.one(place.p)],
                            1: _fpoly_rem_monic([FElem.zero(place.p), FElem.one(place.p)], mod)}

    def theta_power(self, e: int):
        memo = self._theta_pows
        if e in memo:
            return memo[e]
        half = self.theta_power(e // 2)
        val = _fpoly_rem_monic(_fpoly_mul(half, half), self.mod)
        if e & 1:
            val = _fpoly_rem_monic(_fpoly_mul(val, memo[1]), self.mod)
        memo[e] = val
        return val

    def reduce_bipoly(self, f: BiPoly):
        acc = []
        for e in sorted(f.c):
            coef = FElem.from_rpoly(f.c[e])
            acc = _fpoly_add(acc, _fpoly_scale(self.theta_power(e), coef))
        return acc

    def mul(self, a, b):
        return _fpoly_rem_monic(_fpoly_mul(a, b), self.mod)

    def inverse(self, a):
        return _fpoly_invert_mod(a, self.mod)

    def strip_pi(self, a):
        """(k, unit_part): a = pi^k * u with u a unit, inside the truncation.

        Returns (None, None) when a reduces to 0 in the ring (i.e. the
        valuation is >= n).
        """
        if not a:
            return None, None
        k = 0
        cur = list(a)
        while True:
            q, r = _fpoly_divmod_monic(cur, self.pi)
            if r:
                return k, cur
            k += 1
            if not q:
                return None, None
            cur = q

    def digits(self, a, count: int):
        """The first `count` pi-digits of a ring element as FvElem values."""
        out = []
        cur = list(a)
        for _ in range(count):
            q, r = _fpoly_divmod_monic(cur, self.pi)
            r = list(r) + [FElem.zero(self.p)] * (self.place.theta_degree - len(r))
            out.append(FvElem(self.place, r[:self.place.theta_degree]))
            cur = q
        return out


_ring_cache = {}


def get_trunc_ring(place: Place, n: int) -> TruncRing:
    key = (place, n)
    ring = _ring_cache.get(key)
    if ring is None:
        ring = memo_put(_ring_cache, key, TruncRing(place, n))
    return ring


def _bipoly_multiplicity(f: BiPoly, v: Place) -> int:
    """Multiplicity of pi in a nonzero bivariate polynomial."""
    if f.is_zero():
        raise ValueError("multiplicity of zero")
    prim = v.prim
    # theta itself: the multiplicity is the minimal theta-exponent
    if prim.theta_degree == 1 and prim.c.get(0) is None:
        return min(f.c)
    # a single monomial is divisible only by theta
    if f.term_count() == 1:
        return 0
    # Frobenius-dilated elements carry huge multiplicities but are literal
    # p-th powers; peel the root off instead of growing the ring
    root = bipoly_pth_root(f)
    if root is not None:
        return f.p * _bipoly_multiplicity(root, v)
    n = 4
    while True:
        ring = get_trunc_ring(v, n)
        k, _unit = ring.strip_pi(ring.reduce_bipoly(f))
        if k is not None:
            return k
        if n * v.theta_degree > _RING_CAP // 2:
            raise ValueError("valuation beyond desk scale")
        n *= 2


def valuation(x: KElem, v: Place) -> int:
    """v(x) for nonzero x; raises on x = 0."""
    if x.is_zero():
        raise ValueError("the zero element has no finite valuation")
    if x.p != v.p:
        raise ValueError("modulus mismatch")
    if v.is_infinite:
        return x.den.theta_degree - x.num.theta_degree
    return _bipoly_multiplicity(x.num, v) - _bipoly_multiplicity(x.den, v)


def residue_reduce(x: KElem, v: Place) -> FvElem:
    """Reduction of a v-integral element to the residue field."""
    if x.is_zero():
        return FvElem.zero(v)
    if v.is_infinite:
        w = valuation(x, v)
        if w < 0:
            raise ValueError("element is not integral at the infinite place")
        if w > 0:
            return FvElem.zero(v)
        num_lead = FElem.from_rpoly(x.num.lead_theta_coeff())
        den_lead = FElem.from_rpoly(x.den.lead_theta_coeff())
        return FvElem.from_felem(v, num_lead / den_lead)
    kn = _bipoly_multiplicity(x.num, v)
    kd = _bipoly_multiplicity(x.den, v)
    if kn - kd < 0:
        raise ValueError("element is not integral at this place")
    if kn - kd > 0:
        return FvElem.zero(v)
    n = max(kd + 1, 1)
    ring = get_trunc_ring(v, n)
    a = ring.reduce_bipoly(x.num)
    b = ring.reduce_bipoly(x.den)
    if kd == 0:
        val = ring.mul(a, ring.inverse(b))
        return ring.digits(val, 1)[0]
    # strip the common pi-power first
    ka, ua = ring.strip_pi(a)
    kb, ub = ring.strip_pi(b)
    if ka is None or kb is None or ka != kb:
        # precision was too small for the strip: retry one size up
        ring = get_trunc_ring(v, n + kd)
        a = ring.reduce_bipoly(x.num)
        b = ring.reduce_bipoly(x.den)
        ka, ua = ring.strip_pi(a)
        kb, ub = ring.strip_pi(b)
    val = ring.mul(ua, ring.inverse(ub))
    return ring.digits(val, 1)[0]


# -- product formula ---------------------------------------------------------


def check_product_formula(x: KElem, degree_cap: int = _FACTOR_DEG_CAP):
    """Complete place support of nonzero x with weights; checks eq-sum zero.

    Returns a tuple of (Place, valuation, weight) sorted finite-first.  The
    identity Sum N_v * v(x) = 0 is asserted on every call.
    """
    if x.is_zero():
        raise ValueError("the product formula needs a nonzero element")
    if max(x.num.theta_degree, x.den.theta_degree) > degree_cap:
        raise ValueError("theta-degree beyond the desk cap for full factorisation")
    entries = {}
    for sign, part in ((1, x.num), (-1, x.den)):
        _, _t_factors, theta_factors = factor_bipoly(part)
        for prim, mult in theta_factors:
            place = Place(x.p, prim, _checked=True)
            entries[place] = entries.get(place, 0) + sign * mult
    out = []
    for place in sorted(entries, key=lambda v: v.sort_key()):
        if entries[place]:
            out.append((place, entries[place], place.weight))
    v_inf = x.den.theta_degree - x.num.theta_degree
    if v_inf:
        out.append((Place.infinite(x.p), v_inf, 1))
    total = sum(val * w for _, val, w in out)
    if total != 0:
        raise AssertionError(f"product formula violated: weighted sum {total}")
    return tuple(out)


# -- place classification ----------------------------------------------------


@dataclass(frozen=True)
class PlaceSets:
    """Finite exclusion lists: places outside Omega_0 resp. Omega_1.

    omega0_excluded: places where some coefficient of the defining twisted
    polynomial is non-integral or its first/last nonzero coefficient is a
    non-unit.  omega1_excluded additionally drops places where a generator
    fails to be integral; it always contains omega0_excluded.
    """
    p: int
    omega0_excluded: tuple
    omega1_excluded: tuple

    def good_for_module(self, v: Place) -> bool:
        return v not in self.omega1_excluded


def _support_places(x: KElem):
    """All finite places in the support of x plus an infinite-place marker."""
    places = set()
    for part in (x.num, x.den):
        if part.theta_degree >= 1 or part.term_count() > 1:
            _, _tf, thf = factor_bipoly(part)
            for prim, _m in thf:
                places.add(Place(x.p, prim, _checked=True))
    return places


def classify_places(coefficients, generators=()) -> PlaceSets:
    """Compute the exclusion lists from phi_t coefficients and generators.

    `coefficients` are the nonzero twisted-polynomial coefficients of phi_t
    in ascending tau-order (the zero polynomial entries may be included and
    are skipped); `generators` are the K-coordinates of module generators.
    """
    coeffs = [c for c in coefficients if not c.is_zero()]
    if not coeffs:
        raise ValueError("no nonzero coefficients")
    p = coeffs[0].p
    first, last = coeffs[0], coeffs[-1]

    candidates = set()
    for c in coeffs:
        candidates |= _support_places(c)
    omega0 = set()
    for v in candidates:
        bad = any(valuation(c, v) < 0 for c in coeffs)
        bad = bad or valuation(first, v) != 0 or valuation(last, v) != 0
        if bad:
            omega0.add(v)
    v_inf = Place.infinite(p)
    inf_bad = any(valuation(c, v_inf) < 0 for c in coeffs)
    inf_bad = inf_bad or valuation(first, v_inf) != 0 or valuation(last, v_inf) != 0
    if inf_bad:
        omega0.add(v_inf)

    omega1 = set(omega0)
    for g in generators:
        if g.is_zero():
            continue
        for v in _support_places(g):
            if v not in omega1 and valuation(g, v) < 0:
                omega1.add(v)
        if v_inf not in omega1 and valuation(g, v_inf) < 0:
            omega1.add(v_inf)

    key = lambda v: v.sort_key()
    return PlaceSets(p, tuple(sorted(omega0, key=key)), tuple(sorted(omega1, key=key)))

