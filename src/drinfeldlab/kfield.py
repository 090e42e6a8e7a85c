"""The ambient function field K = F_p(t)(theta).

K-elements are canonical fractions of bivariate polynomials over F_p.  A
bivariate polynomial (BiPoly) is a sparse theta-major map {theta_exp: RPoly},
so both theta- and t-exponents may be huge p-th-power dilations without any
dense blowup; Frobenius powers are termwise exponent dilations.

Canonical form of a KElem: gcd(num, den) = 1 in F_p[t, theta] (content
included), and den is scaled by the unique F_p unit making the leading
t-coefficient of its leading theta-coefficient equal to 1.

Text grammar: see `grammar`, for example ``((t+1)*theta^2+t)/(theta+t^2)``;
a unicode ``θ`` reads as theta.
"""

from __future__ import annotations

from .base import RPoly, FElem, check_modulus, inv_mod, rpoly_to_str
from .grammar import Ring, parse


class BiPoly:
    """Sparse element of F_p[t, theta], keyed by theta exponent."""

    __slots__ = ("p", "c", "_key")

    def __init__(self, p: int, coeffs: dict):
        # coeffs: {theta_exp: nonzero RPoly}; callers must pass reduced data.
        self.p = p
        self.c = coeffs
        self._key = None

    @classmethod
    def zero(cls, p: int) -> "BiPoly":
        return cls(check_modulus(p), {})

    @classmethod
    def one(cls, p: int) -> "BiPoly":
        return cls.from_rpoly(RPoly.one(p))

    @classmethod
    def theta(cls, p: int) -> "BiPoly":
        return cls(check_modulus(p), {1: RPoly.one(p)})

    @classmethod
    def from_rpoly(cls, f: RPoly) -> "BiPoly":
        return cls(f.p, {} if f.is_zero() else {0: f})

    @classmethod
    def monomial(cls, p: int, theta_exp: int, t_exp: int = 0, coef: int = 1) -> "BiPoly":
        check_modulus(p)
        if theta_exp < 0 or t_exp < 0:
            raise ValueError("negative exponent in F_p[t, theta]")
        f = RPoly.monomial(p, t_exp, coef)
        return cls(p, {theta_exp: f} if not f.is_zero() else {})

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return set(self.c) == {0} and self.c[0].is_one()

    @property
    def theta_degree(self) -> int:
        return max(self.c) if self.c else -1

    @property
    def t_degree(self) -> int:
        return max((f.degree for f in self.c.values()), default=-1)

    def total_degree(self) -> int:
        return max((e + f.degree for e, f in self.c.items()), default=-1)

    def theta_coeff(self, e: int) -> RPoly:
        return self.c.get(e, RPoly.zero(self.p))

    def lead_theta_coeff(self) -> RPoly:
        if not self.c:
            raise ValueError("zero polynomial")
        return self.c[max(self.c)]

    def monomials(self):
        """Sorted (theta_exp, t_exp, coef) triples, theta-major ascending."""
        out = []
        for e in sorted(self.c):
            f = self.c[e]
            for te in sorted(f.c):
                out.append((e, te, f.c[te]))
        return out

    def term_count(self) -> int:
        return sum(len(f.c) for f in self.c.values())

    def key(self):
        if self._key is None:
            self._key = tuple((e, self.c[e].key()) for e in sorted(self.c))
        return self._key

    def __hash__(self):
        return hash((self.p, self.key()))

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.p == other.p
                and self.c == other.c)

    def __bool__(self):
        return bool(self.c)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        d = dict(self.c)
        for e, f in other.c.items():
            s = d.get(e)
            s = f if s is None else s + f
            if s.is_zero():
                d.pop(e, None)
            else:
                d[e] = s
        return BiPoly(self.p, d)

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.p, {e: -f for e, f in self.c.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        d = {}
        for e1, f1 in self.c.items():
            for e2, f2 in other.c.items():
                e = e1 + e2
                prod = f1 * f2
                s = d.get(e)
                s = prod if s is None else s + prod
                if s.is_zero():
                    d.pop(e, None)
                else:
                    d[e] = s
        return BiPoly(self.p, d)

    def scale(self, c: int) -> "BiPoly":
        c %= self.p
        if c == 0:
            return BiPoly.zero(self.p)
        return BiPoly(self.p, {e: f.scale(c) for e, f in self.c.items()})

    def scale_rpoly(self, g: RPoly) -> "BiPoly":
        if g.is_zero():
            return BiPoly.zero(self.p)
        return BiPoly(self.p, {e: f * g for e, f in self.c.items()})

    def __pow__(self, n: int) -> "BiPoly":
        # Powers are taken p-adically: f^n = prod_i (f^{d_i})^{p^i} for the
        # base-p digits d_i of n, with the p^i-th power a termwise stretch.
        # Plain square-and-multiply is a trap here: intermediate exponents
        # have dense base-p digits, so f^(2^j) can carry millions of terms
        # even when f^n itself is sparse.
        if n < 0:
            raise ValueError("negative power of a polynomial")
        p = self.p
        small = [BiPoly.one(p), self]
        result = None
        i = 0
        while n:
            d = n % p
            if d:
                while len(small) <= d:
                    small.append(small[-1] * self)
                term = small[d].stretch(p ** i) if i else small[d]
                result = term if result is None else result * term
            n //= p
            i += 1
        return BiPoly.one(p) if result is None else result

    def stretch(self, k: int) -> "BiPoly":
        """Dilate every exponent by k; equals the p^e-th power when k = p^e."""
        return BiPoly(self.p, {e * k: f.stretch(k) for e, f in self.c.items()})

    def content(self) -> RPoly:
        """Monic gcd of the theta-coefficients (zero for the zero poly)."""
        acc = RPoly.zero(self.p)
        for f in self.c.values():
            acc = acc.gcd(f)
            if acc.is_one():
                return acc
        return acc


def _bi_to_fcoeffs(a: BiPoly) -> dict:
    return {e: FElem.from_rpoly(f) for e, f in a.c.items()}


def bi_divmod_over_f(a: BiPoly, b: BiPoly):
    """Divide a by b as polynomials in theta over F = F_p(t).

    Returns (q, r) as {theta_exp: FElem} maps with a = q*b + r and
    deg_theta(r) < deg_theta(b).
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    p = a.p
    q = {}
    r = _bi_to_fcoeffs(a)
    db = b.theta_degree
    blead = FElem.from_rpoly(b.lead_theta_coeff())
    bf = _bi_to_fcoeffs(b)
    while r:
        dr = max(r)
        if dr < db:
            break
        coef = r[dr] / blead
        shift = dr - db
        q[shift] = coef
        for e, f in bf.items():
            ee = e + shift
            s = r.get(ee, FElem.zero(p)) - coef * f
            if s.is_zero():
                r.pop(ee, None)
            else:
                r[ee] = s
    return q, r


def bi_divexact(a: BiPoly, b: BiPoly) -> BiPoly:
    """Exact division in F_p[t, theta]; raises if b does not divide a."""
    if a.is_zero():
        return BiPoly.zero(a.p)
    if b.is_one():
        return a
    if b.theta_degree == 0:
        g = b.c[0]
        d = {}
        for e, f in a.c.items():
            q, rr = divmod(f, g)
            if not rr.is_zero():
                raise ValueError("inexact bivariate division")
            d[e] = q
        return BiPoly(a.p, d)
    q, r = bi_divmod_over_f(a, b)
    if r:
        raise ValueError("inexact bivariate division")
    d = {}
    for e, f in q.items():
        if not f.is_polynomial():
            raise ValueError("inexact bivariate division")
        if not f.num.is_zero():
            d[e] = f.num
    return BiPoly(a.p, d)


def _primitive(a: BiPoly):
    """(content, primitive part), each lead-normalised.

    The product equals `a` only up to an F_p unit, which is all the gcd
    computation needs.
    """
    cont = a.content()
    if cont.is_zero():
        return cont, a
    prim = BiPoly(a.p, {e: f // cont for e, f in a.c.items()})
    lead = prim.lead_theta_coeff().lead
    if lead != 1:
        prim = prim.scale(inv_mod(lead, a.p))
    return cont, prim


def _pseudo_rem(a: BiPoly, b: BiPoly) -> BiPoly:
    """Pseudo-remainder of a by b in theta over F_p[t]."""
    da, db = a.theta_degree, b.theta_degree
    lb = b.lead_theta_coeff()
    r = a
    while not r.is_zero() and r.theta_degree >= db:
        dr = r.theta_degree
        lr = r.lead_theta_coeff()
        shift = dr - db
        r = r.scale_rpoly(lb) - BiPoly(b.p, {e + shift: f * lr for e, f in b.c.items()})
    return r


def bi_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """Gcd in F_p[t, theta] via a primitive pseudo-remainder sequence.

    Normalised so the leading t-coefficient of the leading theta-coefficient
    is 1 (and the content part is monic).
    """
    if a.is_zero():
        return _canonical_scale(b)
    if b.is_zero():
        return _canonical_scale(a)
    ca, pa = _primitive(a)
    cb, pb = _primitive(b)
    cont = ca.gcd(cb)
    if pa.theta_degree < pb.theta_degree:
        pa, pb = pb, pa
    while True:
        if pb.is_zero():
            g = pa
            break
        if pb.theta_degree == 0:
            g = BiPoly.one(a.p)
            break
        r = _pseudo_rem(pa, pb)
        pa, pb = pb, _primitive(r)[1] if not r.is_zero() else BiPoly.zero(a.p)
    out = g.scale_rpoly(cont)
    return _canonical_scale(out)


def _canonical_scale(a: BiPoly) -> BiPoly:
    if a.is_zero():
        return a
    lead = a.lead_theta_coeff().lead
    if lead == 1:
        return a
    return a.scale(inv_mod(lead, a.p))


class KElem:
    """Element of K = F_p(t)(theta) in canonical num/den form.  The form is
    unique, so == and hash compare values and a KElem is its own set and
    dict key; kelem_to_str is its text, for reports only."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly, _canonical: bool = False):
        if num.p != den.p:
            raise ValueError("modulus mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in K")
        if not _canonical:
            if num.is_zero():
                den = BiPoly.one(num.p)
            elif not den.is_one():
                g = bi_gcd(num, den)
                if not g.is_one():
                    num = bi_divexact(num, g)
                    den = bi_divexact(den, g)
            lead = den.lead_theta_coeff().lead
            if lead != 1:
                c = inv_mod(lead, num.p)
                num = num.scale(c)
                den = den.scale(c)
        self.num = num
        self.den = den

    @property
    def p(self):
        return self.num.p

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "KElem":
        return cls(BiPoly.zero(p), BiPoly.one(p), _canonical=True)

    @classmethod
    def one(cls, p: int) -> "KElem":
        return cls(BiPoly.one(p), BiPoly.one(p), _canonical=True)

    @classmethod
    def const(cls, p: int, c: int) -> "KElem":
        return cls.from_bipoly(BiPoly.from_rpoly(RPoly.const(p, c)))

    @classmethod
    def t(cls, p: int) -> "KElem":
        return cls.from_bipoly(BiPoly.from_rpoly(RPoly.t(p)))

    @classmethod
    def theta(cls, p: int) -> "KElem":
        return cls.from_bipoly(BiPoly.theta(p))

    @classmethod
    def from_bipoly(cls, f: BiPoly) -> "KElem":
        return cls(f, BiPoly.one(f.p), _canonical=True)

    @classmethod
    def from_rpoly(cls, f: RPoly) -> "KElem":
        return cls.from_bipoly(BiPoly.from_rpoly(f))

    @classmethod
    def from_felem(cls, x: FElem) -> "KElem":
        return cls(BiPoly.from_rpoly(x.num), BiPoly.from_rpoly(x.den),
                   _canonical=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def __hash__(self):
        return hash((self.num.key(), self.den.key()))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, KElem):
            if self.p != other.p:
                raise ValueError("modulus mismatch")
            return other
        if isinstance(other, int):
            return KElem.const(self.p, other)
        if isinstance(other, RPoly):
            return KElem.from_rpoly(other)
        if isinstance(other, FElem):
            return KElem.from_felem(other)
        return None

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return KElem(self.num + other.num, self.den)
        return KElem(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return KElem(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return KElem.zero(self.p)
        if self.den.is_one() and other.den.is_one():
            return KElem(self.num * other.num, self.den, _canonical=True)
        return KElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "KElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in K")
        return KElem(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self.inverse()

    def __pow__(self, n: int) -> "KElem":
        # num and den stay coprime under powering and den's normalisation
        # survives (its lead-of-lead is 1), so no re-canonicalisation needed.
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return KElem.one(self.p)
        if self.is_zero():
            return self
        return KElem(self.num ** n, self.den ** n, _canonical=True)

    def frob(self, e: int) -> "KElem":
        """The p^e-th power via termwise exponent dilation (exact, O(#terms))."""
        if e < 0:
            raise ValueError("negative Frobenius power")
        k = self.p ** e
        return KElem(self.num.stretch(k), self.den.stretch(k), _canonical=True)

    def __str__(self):
        return kelem_to_str(self)

    def __repr__(self):
        return f"KElem(p={self.p}, {self})"


def kelem_sort_key(x: KElem):
    """Deterministic structural order: by height, then monomial data."""
    return (height(x), x.den.key(), x.num.key())


def bipoly_pth_root(f: BiPoly):
    """g with g**p == f, or None.  Over F_p this is a pure exponent test."""
    p = f.p
    if any(e % p for e in f.c):
        return None
    if any(a % p for g in f.c.values() for a in g.c):
        return None
    return BiPoly(p, {e // p: g.compress(p) for e, g in f.c.items()})


def height(x: KElem) -> int:
    """Max of the total (t, theta)-degrees of numerator and denominator."""
    return max(x.num.total_degree(), x.den.total_degree(), 0)


# -- coordinates -------------------------------------------------------------


def common_denominator(xs) -> BiPoly:
    """Least common denominator of a family of K-elements."""
    if not xs:
        raise ValueError("empty family")
    p = xs[0].p
    d = BiPoly.one(p)
    for x in xs:
        if x.p != p:
            raise ValueError("modulus mismatch")
        if x.den.is_one():
            continue
        g = bi_gcd(d, x.den)
        d = bi_divexact(d, g) * x.den
    return _canonical_scale(d)


def coordinates(xs):
    """Exact F_p-coordinates of a list of K-elements: one sparse vector
    {(theta_exp, t_exp): c} of x * common_denominator(xs) per x.  Each x
    is canonical, so that product is x.num * (D / x.den); a unit D costs
    no product at all."""
    xs = list(xs)
    d = common_denominator(xs)
    if d.is_one():
        return [bipoly_vector(x.num) for x in xs]
    return [bipoly_vector(x.num * bi_divexact(d, x.den)) for x in xs]


def bipoly_vector(f: BiPoly) -> dict:
    """The F_p-coefficients {(theta_exp, t_exp): c} of f."""
    return {(e, te): c for e, g in f.c.items() for te, c in g.c.items()}


# -- text --------------------------------------------------------------------


def _bipoly_to_str(f: BiPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for e in sorted(f.c, reverse=True):
        coef = f.c[e]
        if e == 0:
            parts.append(rpoly_to_str(coef))
            continue
        tp = "theta" if e == 1 else f"theta^{e}"
        if coef.is_one():
            parts.append(tp)
        elif len(coef.c) == 1:
            parts.append(f"{rpoly_to_str(coef)}*{tp}")
        else:
            parts.append(f"({rpoly_to_str(coef)})*{tp}")
    return "+".join(parts)


def kelem_to_str(x: KElem) -> str:
    if x.den.is_one():
        return _bipoly_to_str(x.num)
    return f"({_bipoly_to_str(x.num)})/({_bipoly_to_str(x.den)})"


def kelem_ring(p: int) -> Ring:
    """K as a target of the `grammar`: names t, theta and θ, field division."""
    theta = KElem.theta(p)
    return Ring(p, {"t": KElem.t(p), "theta": theta, "θ": theta}.get,
                lambda c: KElem.const(p, c),
                lambda x: max(x.num.term_count(), x.den.term_count()))


def kelem_parse(p: int, text: str) -> KElem:
    return parse(text, kelem_ring(p))
