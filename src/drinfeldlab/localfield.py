"""Finite-precision completions K_v and the local divisibility verdict.

A local element is a truncated expansion sum_e c_e u^e with u the declared
uniformizer, integer exponents e below the element's precision, and digits
in the residue field F_v.  Sums are digit-wise at every place.  Products
and Frobenius powers are digit-wise too, which is exact only where lifting
the digits into K_v is a ring map: at infinity and at the places of
theta-degree 1, whose residue field F_p(t) lies in K.  At a finite place of
higher theta-degree both refuse with ValueError; embed reaches those places
through places.TruncRing.

Whether y lies in Phi_a(O_v) at a good place is decided by the residue
field alone (hensel_solve): every residue root lifts, so no lift is built.

Precision is tracked per value, never globally; operations propagate the
honest cutoff and raise rather than silently losing digits.
"""

from __future__ import annotations

from .base import Echelon, FElem, RPoly, fp_span, memo_put
from .drinfeld import DrinfeldModule, _pole_bound, phi_action
from .factor import factor_rpoly, rpoly_code
from .kfield import KElem
from .places import (FvElem, Place, _bipoly_multiplicity, fv_coordinates,
                     fv_denominator, fv_tp_eval, get_trunc_ring, residue_reduce,
                     valuation)
from .twisted import TwistedPoly


class NoResidueRoot(ValueError):
    """The residue equation has no root (and hence no local solution).

    certified is True when the underlying residue search is provably
    complete (degree-one places); otherwise the verdict is bounded.
    """

    def __init__(self, message: str, certified: bool):
        super().__init__(message)
        self.certified = certified


def _check_digitwise_products(v: Place):
    if not v.is_infinite and v.theta_degree > 1:
        raise ValueError(f"digit-wise products are not K_v products at {v}")


class LocalElem:
    """Truncated u-adic expansion at a place, with per-value precision."""

    __slots__ = ("place", "terms", "precision")

    def __init__(self, place: Place, terms, precision: int):
        clean = {}
        for e, c in terms.items():
            if e >= precision:
                continue
            if not c.is_zero():
                if c.place != place:
                    raise ValueError("digit from the wrong residue field")
                clean[e] = c
        self.place = place
        self.terms = clean
        self.precision = precision

    @classmethod
    def zero_to(cls, place: Place, precision: int) -> "LocalElem":
        return cls(place, {}, precision)

    @property
    def p(self) -> int:
        return self.place.p

    def val(self):
        """Least exponent, or None for zero-to-precision."""
        return min(self.terms) if self.terms else None

    def _eff_val(self) -> int:
        v = self.val()
        return self.precision if v is None else v

    def frobenius(self, e: int = 1) -> "LocalElem":
        """The p^e-th power; precision scales with the exponents."""
        if e < 0:
            raise ValueError("negative Frobenius power")
        _check_digitwise_products(self.place)
        q = self.p ** e
        return LocalElem(self.place,
                         {ex * q: c ** q for ex, c in self.terms.items()},
                         self.precision * q)

    def _check_place(self, other: "LocalElem"):
        if not isinstance(other, LocalElem) or self.place != other.place:
            raise ValueError("local elements live at different places")

    def __add__(self, other: "LocalElem") -> "LocalElem":
        self._check_place(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return LocalElem(self.place, terms, min(self.precision, other.precision))

    def __neg__(self) -> "LocalElem":
        return LocalElem(self.place, {e: -c for e, c in self.terms.items()},
                         self.precision)

    def __sub__(self, other: "LocalElem") -> "LocalElem":
        return self + (-other)

    def __mul__(self, other: "LocalElem") -> "LocalElem":
        self._check_place(other)
        _check_digitwise_products(self.place)
        prec = min(self.precision + other._eff_val(),
                   other.precision + self._eff_val())
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e >= prec:
                    continue
                c = c1 * c2
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        return LocalElem(self.place, terms, prec)

    def truncate(self, n: int) -> "LocalElem":
        if n > self.precision:
            raise ValueError(f"cannot raise precision {self.precision} to {n}")
        return LocalElem(self.place, self.terms, n)

    def __eq__(self, other):
        return (isinstance(other, LocalElem) and self.place == other.place
                and self.terms == other.terms
                and self.precision == other.precision)

    def __str__(self):
        return local_to_str(self)

    def __repr__(self):
        return f"LocalElem({self.place}, {local_to_str(self)})"


def _exp_str(e: int) -> str:
    return str(e) if e >= 0 else f"({e})"


def local_to_str(z: LocalElem) -> str:
    parts = []
    for e in sorted(z.terms):
        rep = f"[{z.terms[e]}]"
        if e == 0:
            parts.append(rep)
        elif e == 1:
            parts.append(f"u*{rep}")
        else:
            parts.append(f"u^{_exp_str(e)}*{rep}")
    parts.append(f"O(u^{_exp_str(z.precision)})")
    return " + ".join(parts)


# -- embedding K into its completions ----------------------------------------


def embed(x: KElem, v: Place, n: int) -> LocalElem:
    """u-adic expansion of x to precision n (exponents < n are exact).

    embed itself memoises nothing; tp_eval_local memoises the coefficients
    it embeds.  A unit part of the denominator that is exactly 1 skips the
    inversion modulo pi^count.
    """
    if x.p != v.p:
        raise ValueError("modulus mismatch")
    if x.is_zero():
        return LocalElem.zero_to(v, n)
    if v.is_infinite:
        return _embed_infinite(x, v, n)
    kn = _bipoly_multiplicity(x.num, v)
    kd = _bipoly_multiplicity(x.den, v)
    val = kn - kd
    count = n - val
    if count <= 0:
        return LocalElem.zero_to(v, n)
    ring = get_trunc_ring(v, count + kn + kd)
    _, un = ring.strip_pi(ring.reduce_bipoly(x.num))
    _, ud = ring.strip_pi(ring.reduce_bipoly(x.den))
    if len(ud) != 1 or not ud[0].is_one():
        un = ring.mul(un, ring.inverse(ud))
    digits = ring.digits(un, count)
    return LocalElem(v, {val + i: d for i, d in enumerate(digits)}, n)


def _embed_infinite(x: KElem, v: Place, n: int) -> LocalElem:
    dn, dd = x.num.theta_degree, x.den.theta_degree
    val = dd - dn
    count = n - val
    if count <= 0:
        return LocalElem.zero_to(v, n)
    num_rev = [FElem.from_rpoly(x.num.theta_coeff(dn - j)) for j in range(dn + 1)]
    den_rev = [FElem.from_rpoly(x.den.theta_coeff(dd - j)) for j in range(dd + 1)]
    inv_lead = den_rev[0].inverse()
    series = []
    for j in range(count):
        acc = num_rev[j] if j < len(num_rev) else FElem.zero(x.p)
        for i in range(j):
            if j - i < len(den_rev):
                acc = acc - series[i] * den_rev[j - i]
        series.append(acc * inv_lead)
    terms = {val + j: FvElem.from_felem(v, c)
             for j, c in enumerate(series)}
    return LocalElem(v, terms, n)


# -- residue-root solving for additive polynomials over F_v ------------------

_KERNEL_DIM_CAP = 6


def _rpoly_mult(f: RPoly, q: RPoly) -> int:
    k = 0
    while True:
        quo, rem = divmod(f, q)
        if not rem.is_zero():
            return k
        f = quo
        k += 1


def _felem_val(x: FElem, q: RPoly) -> int:
    if x.is_zero():
        raise ValueError("valuation of zero")
    return _rpoly_mult(x.num, q) - _rpoly_mult(x.den, q)


def _felem_deg(x: FElem) -> int:
    return x.num.degree - x.den.degree


def residue_solve(coeffs, ybar: FvElem, v: Place):
    """All X in F_v with sum coeffs[i] X^{p^i} = ybar, within derived bounds.

    Returns (roots, certified).  At degree-one places the pole and degree
    analysis of the additive equation is exhaustive, so certified is True:
    an empty result proves nonexistence.  At higher-degree places the
    candidate space is a bounded heuristic and only found roots are certain.
    """
    p = v.p
    nz = [(i, c) for i, c in enumerate(coeffs) if not c.is_zero()]
    if not nz:
        raise ValueError("residue equation for the zero map")
    d = v.theta_degree

    if d == 1:
        cs = [(i, c.rep[0]) for i, c in nz]
        y = ybar.rep[0]
        primes = {}
        for _i, c in cs:
            for part in (c.num, c.den):
                if part.degree >= 1:
                    for q, _m in factor_rpoly(part)[1]:
                        primes[rpoly_code(q)] = q
        if not y.is_zero() and y.den.degree >= 1:
            for q, _m in factor_rpoly(y.den)[1]:
                primes[rpoly_code(q)] = q
        e_den = RPoly.one(p)
        for code in sorted(primes):
            q = primes[code]
            vy = None if y.is_zero() else min(0, _felem_val(y, q))
            e = _pole_bound(p, [(i, _felem_val(c, q)) for i, c in cs], vy)
            if e >= 1:
                e_den = e_den * q ** e
        b = _pole_bound(p, [(i, -_felem_deg(c)) for i, c in cs],
                        None if y.is_zero() else -_felem_deg(y))
        bound = b + e_den.degree
        basis = [FElem(RPoly.monomial(p, j), e_den) for j in range(bound + 1)]
        certified = True
    else:
        # heuristic bounded space over the theta-bar power basis
        data = [c for _i, c in nz] + [ybar]
        den = fv_denominator(data)
        t_deg = max(max((f.num.degree for f in fv.rep), default=0)
                    for fv in data)
        bound = max(4, t_deg) + den.degree
        basis = [FElem(RPoly.monomial(p, j), den) for j in range(bound + 1)]
        certified = False

    theta_bar = (residue_reduce(KElem.theta(p), v) if d > 1 else None)
    candidates = []
    for slot in range(d if d > 1 else 1):
        for b_el in basis:
            x = FvElem.from_felem(v, b_el)
            if d > 1 and slot:
                x = x * theta_bar ** slot
            candidates.append(x)

    images = [fv_tp_eval(coeffs, x) for x in candidates]
    vecs = fv_coordinates(images + [ybar])
    echelon = Echelon(vecs[:-1], p)
    sol = echelon.solve(vecs[-1])
    null = echelon.kernel()
    if sol is None:
        return (), certified
    if len(null) > _KERNEL_DIM_CAP:
        raise RuntimeError("residue kernel beyond the desk cap")

    def combine(weights):
        x = FvElem.zero(v)
        for w, cand in zip(weights, candidates):
            if w:
                x = x + FvElem.from_felem(v, FElem.const(p, w)) * cand
        return x

    roots = []
    seen = set()
    for (x,) in fp_span(p, [(combine(vec),) for vec in null], (combine(sol),)):
        if x.rep in seen:
            continue
        seen.add(x.rep)
        if fv_tp_eval(coeffs, x) == ybar:
            roots.append(x)
    roots.sort(key=_fv_sort_key)
    return tuple(roots), certified


def _fv_sort_key(x: FvElem):
    return tuple((rpoly_code(f.num), rpoly_code(f.den)) for f in x.rep)


# -- local evaluation and the divisibility verdict ---------------------------


_COEFF_CACHE: dict = {}

# digits of each embedded coefficient beyond the cutoff that z drives
_EMBED_MARGIN = 2


def _embed_coeff(c: KElem, v: Place, n: int) -> LocalElem:
    """embed(c, v, n), memoised by value in _COEFF_CACHE, which
    base.memo_put clears once it holds more than 64 entries."""
    key = (c, v, n)
    z = _COEFF_CACHE.get(key)
    if z is None:
        z = memo_put(_COEFF_CACHE, key, embed(c, v, n))
    return z


def tp_eval_local(f: TwistedPoly, z: LocalElem) -> LocalElem:
    """Evaluate a twisted polynomial at a local point.

    Coefficients are embedded with enough precision that the propagated
    cutoff is driven by z, not by the embeddings.  Each embedding goes
    through _embed_coeff, so a (coefficient, place, precision) triple is
    embedded once until that bounded memo is cleared.  The products make
    this a ValueError at finite places of theta-degree > 1.
    """
    v = z.place
    acc = None
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        zi = z.frobenius(i)
        n_embed = zi.precision - min(0, zi._eff_val()) + _EMBED_MARGIN + 1
        term = _embed_coeff(c, v, max(n_embed, 1)) * zi
        acc = term if acc is None else acc + term
    if acc is None:
        return LocalElem.zero_to(v, z.precision)
    return acc


def _check_good_place(coeffs, v: Place):
    nz = [(i, c) for i, c in enumerate(coeffs) if not c.is_zero()]
    for _i, c in nz:
        if valuation(c, v) < 0:
            raise ValueError("a coefficient is not integral at this place")
    if valuation(nz[0][1], v) != 0:
        raise ValueError("the differential is not a unit at this place")


def hensel_solve(phi: DrinfeldModule, a: RPoly, ybar: FvElem) -> FvElem:
    """A root of the residue equation of Phi_a(X) = y, or NoResidueRoot.

    ybar is the residue of a v-integral target y at the place v = ybar.place.
    Write Phi_a = g tau^kappa with kappa the tau-valuation of Phi_a.  At a
    good place every coefficient c_i of g is integral and c_0 is a unit
    (_check_good_place), and g is additive.  So a step X -> X + c_0^-1 r
    with r = y - g(X) leaves the residual -sum_{i>=1} c_i (c_0^-1 r)^{p^i},
    of valuation >= p*v(r): by Hensel's lemma every residue root of g(X) = y
    lifts to a root in O_v, and its p^kappa-th root, in the perfection when
    kappa > 0, solves Phi_a(X) = y.  A root in O_v reduces to a residue root,
    so y is in Phi_a(O_v) exactly when the residue equation has a root, and
    no lift is built.  NoResidueRoot carries residue_solve's certified flag.
    """
    if a.is_zero():
        raise ValueError("division by the zero operator")
    v = ybar.place
    f = phi_action(phi, a)
    g = f.coeffs[f.tau_valuation:]
    _check_good_place(g, v)
    roots, certified = residue_solve([residue_reduce(c, v) for c in g], ybar, v)
    if not roots:
        raise NoResidueRoot(
            "the residue equation has no root at this place", certified)
    return roots[0]
