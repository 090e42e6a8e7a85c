"""Places of K = F_p(t)(theta), their valuations, and residues in F_p(t).

The ambient curve is the projective theta-line over F = F_p(t): places
trivial on F are the monic irreducible polynomials pi(theta) over F plus the
infinite place with uniformiser 1/theta.  Place and valuation are defined
at every one of them, because the division solver's pole profile reads
places of theta-degree up to 8.  Only two callers still factor: Place
itself, to refuse a reducible polynomial of theta-degree 2 or more (one of
theta-degree 1 is irreducible by Gauss's lemma), and that pole profile
(drinfeld._solution_denominator).  Whether a place is good for a module is
read from valuations at the place alone (adelic._good_place).

Residues live only at the places theta + g(t) of theta-degree 1, the ones
that the pipelines track: there the residue field is F_p(t), inside K, and
a residue is a plain FElem.  residue_reduce refuses every other place,
infinity included, with ValueError.  This module only reduces: lifted
back by KElem.from_felem, residues are K-elements, acted on by
drinfeld.reduction(phi, v) and coordinatised like any other point.

TruncRing, the truncated ring F[theta]/(pi^n), is the valuation engine and
computes nothing else: a sparse element is reduced term by term with
memoised theta-power residues, so p-th-power-dilated inputs with
astronomically large exponents cost only log(exponent) work, where exact
division by pi would be dense.  The ring size is grown adaptively and
capped by _RING_CAP; anything needing more is out of desk scale and raises.

The pi-digits that residues and embeddings are made of come from the
Taylor shift theta = u - c at pi = theta + c (unit_digits), with no ring:
digit k of sum_e a_e theta^e is sum_e a_e C(e, k) (-c)^(e-k), and Lucas's
theorem drops every term whose binomial vanishes mod p.
"""

from __future__ import annotations

from math import comb

from .base import FElem, RPoly, check_modulus
from .factor import factor_bipoly
from .grammar import Parser
from .kfield import (BiPoly, KElem, _bipoly_to_str, _primitive, bipoly_pth_root,
                     kelem_ring, kelem_to_str)

_FACTOR_DEG_CAP = 8
_RING_CAP = 600


class Place:
    """A place of K trivial on F: Finite(pi) or Infinite.  _rings, not part
    of its value, holds the TruncRings that get_trunc_ring built for it."""

    __slots__ = ("p", "prim", "monic_coeffs", "_rings")

    def __init__(self, p: int, prim, _checked: bool = False):
        # prim: primitive irreducible BiPoly (finite place) or None (infinite)
        check_modulus(p)
        self.p = p
        self.prim = prim
        self._rings = {}
        if prim is None:
            self.monic_coeffs = None
            return
        if prim.theta_degree < 1:
            raise ValueError("a finite place needs positive theta-degree")
        if prim.theta_degree > _FACTOR_DEG_CAP:
            raise ValueError(
                f"place degree {prim.theta_degree} exceeds the desk cap {_FACTOR_DEG_CAP}")
        if not _checked:
            # a primitive polynomial of theta-degree 1 is irreducible over
            # F_p(t) by Gauss's lemma; only higher degrees are factored
            prim = _primitive(prim)[1]
            if prim.theta_degree > 1 \
                    and [m for _g, m in factor_bipoly(prim)[2]] != [1]:
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
        if pi.is_zero():
            raise ValueError("zero place polynomial")
        return cls(pi.p, pi.num)

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


# -- residues in F_p(t) ---------------------------------------------------


def require_degree_one(v: Place):
    """Refuse every place but theta + g(t), g in F_p(t): only there is the
    residue field F_p(t), inside K."""
    if v.prim is None or v.prim.theta_degree != 1:
        raise ValueError(f"residues and completions need a place of "
                         f"theta-degree 1, not {place_to_str(v)}")


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


# -- truncated pi-adic rings -------------------------------------------------


class TruncRing:
    """F[theta]/(pi^n) with memoised theta-power residues.

    Elements are ascending FElem lists of length < n * deg(pi).  Reduction of
    a sparse bivariate polynomial costs O(log max_exponent) ring steps per
    distinct theta-exponent.
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
        # from here on theta^e is (theta^(e // p))^p theta^(e % p)
        self._frob_floor = place.p * n * d

    def theta_power(self, e: int):
        """theta^e in the ring, built up along the chain of e's prefixes.

        Below p * n * deg(pi) a step is a binary squaring.  Above it a step
        reads one base-p digit r of e: in characteristic p,
        (sum a_j theta^j)^p = sum a_j^p theta^(jp), so theta^(pq + r) is a
        termwise Frobenius, a shift by r and one reduction, and a sparse
        p-power exponent never passes through dense squarings.
        """
        memo = self._theta_pows
        p, floor = self.p, self._frob_floor
        chain = []
        while e not in memo:
            chain.append(e)
            e = e // p if e >= floor else e // 2
        val = memo[e]
        for e in reversed(chain):
            if e >= floor:
                r = e % p
                spread = [FElem.zero(p)] * ((len(val) - 1) * p + r + 1)
                for j, a in enumerate(val):
                    spread[j * p + r] = a.frob(1)
                val = _fpoly_rem_monic(spread, self.mod)
            else:
                val = _fpoly_rem_monic(_fpoly_mul(val, val), self.mod)
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


def get_trunc_ring(place: Place, n: int) -> TruncRing:
    """The place's truncated ring at precision n, built on first use."""
    ring = place._rings.get(n)
    if ring is None:
        ring = place._rings[n] = TruncRing(place, n)
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


def _binomial_mod_p(e: int, k: int, p: int) -> int:
    """C(e, k) mod p by Lucas's theorem: the product of the binomials of
    the base-p digits of e and k."""
    out = 1
    while k:
        e, ed = divmod(e, p)
        k, kd = divmod(k, p)
        if kd > ed:
            return 0
        out = out * comb(ed, kd) % p
    return out


def _taylor_digits(f: BiPoly, c: FElem, start: int, count: int):
    """Digits start, ..., start + count - 1 of f at pi = theta + c: the
    coefficients of u^k in f(u - c), sum_e a_e C(e, k) (-c)^(e-k).

    A term whose binomial vanishes mod p is skipped.  Digit k is summed
    over the common denominator den(c)^m, m the largest e - k it keeps,
    and reduced once.
    """
    p, neg_num, den = f.p, -c.num, c.den
    num_pows, den_pows = {}, {}

    def power(memo, base, j):
        if j not in memo:
            memo[j] = base ** j
        return memo[j]

    out = []
    for k in range(start, start + count):
        terms = [(e - k, b) for e in f.c
                 if e >= k and (b := _binomial_mod_p(e, k, p))]
        if not terms:
            out.append(FElem.zero(p))
            continue
        m = max(j for j, _b in terms)
        acc = RPoly.zero(p)
        for j, b in terms:
            acc = acc + (f.c[j + k] * power(num_pows, neg_num, j)
                         * power(den_pows, den, m - j)).scale(b)
        out.append(FElem.from_rpoly(acc) if den.is_one()
                   else FElem(acc, power(den_pows, den, m)))
    return out


def unit_digits(x: KElem, v: Place, kn: int, kd: int, count: int):
    """The first `count` pi-digits of num / pi^kn and of den / pi^kd, for
    x = num / den at a theta-degree-one place v = theta + c, where pi has
    multiplicity kn in num and kd in den.  Both digit lists start with a
    unit.  The digits come from the Taylor shift (_taylor_digits), with no
    truncated ring; a request past the ring cap, count + max(kn, kd) >
    _RING_CAP, is refused with ValueError all the same."""
    if count + max(kn, kd) > _RING_CAP:
        raise ValueError("truncated ring beyond desk scale")
    c = v.monic_coeffs[0]
    return (_taylor_digits(x.num, c, kn, count),
            _taylor_digits(x.den, c, kd, count))


def residue_reduce(x: KElem, v: Place) -> FElem:
    """Reduction of a v-integral element to the residue field F_p(t)."""
    require_degree_one(v)
    if x.p != v.p:
        raise ValueError("modulus mismatch")
    if x.is_zero():
        return FElem.zero(v.p)
    kn = _bipoly_multiplicity(x.num, v)
    kd = _bipoly_multiplicity(x.den, v)
    if kn < kd:
        raise ValueError("element is not integral at this place")
    if kn > kd:
        return FElem.zero(v.p)
    (un,), (ud,) = unit_digits(x, v, kn, kd, 1)
    return un / ud
