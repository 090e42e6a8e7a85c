"""Finite-precision completions K_v and the local divisibility verdict.

Completions live only at the places v = theta + g(t) of theta-degree 1.
There the residue field is F_p(t), which lies in K, so K_v is the Laurent
series field F_p(t)((u)) in the uniformizer u = theta + g, and lifting
digits into K_v is a ring map.  A local element is a truncated expansion
sum_e c_e u^e with integer exponents e below the element's precision and
digits c_e in F_p(t); sums, products and Frobenius powers are all
digit-wise.  Every other place, infinity included, is refused with
ValueError.

embed takes the u-digits of a K-element's numerator and denominator from
the Taylor shift theta = u - g (places.unit_digits) and divides them as
power series; the truncated rings of places only compute valuations.

Whether y lies in Phi_a(O_v) at a good place is decided by the residue
field alone (hensel_solve): every residue root lifts, so no lift is built.
The residue equation is an additive equation over F_p(t), inside K, so
residue_solve hands it to the division solver of drinfeld.

Precision is tracked per value, never globally; operations propagate the
honest cutoff and raise rather than silently losing digits.
"""

from __future__ import annotations

from .base import FElem, RPoly
from .drinfeld import DrinfeldModule, phi_action, solve_additive_many
from .factor import rpoly_code
from .kfield import KElem
from .places import (Place, _bipoly_multiplicity, require_degree_one,
                     residue_reduce, unit_digits, valuation)
from .twisted import TwistedPoly


class NoResidueRoot(ValueError):
    """The residue equation has no root, so the equation has no local
    solution."""


class LocalElem:
    """Truncated u-adic expansion at a place, with per-value precision."""

    __slots__ = ("place", "terms", "precision")

    def __init__(self, place: Place, terms, precision: int):
        require_degree_one(place)
        self.place = place
        self.terms = {e: c for e, c in terms.items()
                      if e < precision and not c.is_zero()}
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
        q = self.p ** e
        return LocalElem(self.place,
                         {ex * q: c.frob(e) for ex, c in self.terms.items()},
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

    The u-digits of num / u^kn and den / u^kd come from places.unit_digits,
    by the Taylor shift theta = u - g, with no truncated ring; the ring
    only computes the multiplicities kn and kd.  Their power-series
    quotient is the expansion of x / u^(kn - kd).  embed memoises
    nothing: a place keeps its rings, a module lineage its embedded families.
    """
    require_degree_one(v)
    if x.p != v.p:
        raise ValueError("modulus mismatch")
    if x.is_zero():
        return LocalElem.zero_to(v, n)
    kn = _bipoly_multiplicity(x.num, v)
    kd = _bipoly_multiplicity(x.den, v)
    val = kn - kd
    count = n - val
    if count <= 0:
        return LocalElem.zero_to(v, n)
    num, den = unit_digits(x, v, kn, kd, count)
    inv_lead = den[0].inverse()
    series = []
    for j in range(count):
        acc = num[j]
        for i in range(j):
            if not den[j - i].is_zero():
                acc = acc - series[i] * den[j - i]
        series.append(acc * inv_lead)
    return LocalElem(v, {val + j: c for j, c in enumerate(series)}, n)


# -- residue-root solving for additive polynomials over F_p(t) ---------------


def residue_solve(coeffs, ybar: FElem, v: Place):
    """All X in F_p(t) with sum coeffs[i] X^{p^i} = ybar, at a place v of
    theta-degree 1, sorted.

    F_p(t) lies in K, so this is drinfeld.solve_additive_many on
    theta-free data, whose theta-bound is then 0.  Its pole bounds at each
    prime q(t) of the data and at t = infinity bound every root, so the
    search is exhaustive: an empty result proves nonexistence.  A flagged
    solve raises RuntimeError instead.
    """
    require_degree_one(v)
    f = TwistedPoly(v.p, [KElem.from_felem(c) for c in coeffs])
    res = solve_additive_many(f, [KElem.from_felem(ybar)])[0]
    if res.info.flags:
        raise RuntimeError(f"residue search flagged: {', '.join(res.info.flags)}")
    roots = (FElem(x.num.theta_coeff(0), x.den.theta_coeff(0), _canonical=True)
             for x in res.points)
    return tuple(sorted(roots, key=lambda x: (rpoly_code(x.num),
                                              rpoly_code(x.den))))


# -- local evaluation and the divisibility verdict ---------------------------


# digits of each embedded coefficient beyond the cutoff that z drives
_EMBED_MARGIN = 2


def tp_eval_local(f: TwistedPoly, z: LocalElem, embedded: dict) -> LocalElem:
    """Evaluate a twisted polynomial at a local point.

    Coefficients are embedded with enough precision that the propagated
    cutoff is driven by z, not by the embeddings.  embedded maps each
    (coefficient, place, precision) to its embed and gains what is missing.
    adelic._embedded_family passes one per build of a family, which the
    module lineage keeps; embed's valuations read the place's own rings.
    """
    v = z.place
    acc = None
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        zi = z.frobenius(i)
        n_embed = zi.precision - min(0, zi._eff_val()) + _EMBED_MARGIN + 1
        key = (c, v, max(n_embed, 1))
        lifted = embedded.get(key)
        if lifted is None:
            lifted = embedded[key] = embed(*key)
        term = lifted * zi
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


def hensel_solve(phi: DrinfeldModule, a: RPoly, ybar: FElem, v: Place) -> FElem:
    """A root of the residue equation of Phi_a(X) = y at v, or NoResidueRoot.

    ybar is the residue of a v-integral target y at the theta-degree-one
    place v.  Write Phi_a = g tau^kappa with kappa the tau-valuation of
    Phi_a.  At a good place every coefficient c_i of g is integral and c_0
    is a unit (_check_good_place), and g is additive.  So a step
    X -> X + c_0^-1 r with r = y - g(X) leaves the residual
    -sum_{i>=1} c_i (c_0^-1 r)^{p^i}, of valuation >= p*v(r): by Hensel's
    lemma every residue root of g(X) = y lifts to a root in O_v, and its
    p^kappa-th root, in the perfection when kappa > 0, solves Phi_a(X) = y.
    A root in O_v reduces to a residue root, so y is in Phi_a(O_v) exactly
    when the residue equation has a root, and no lift is built.
    residue_solve's search is exhaustive, with proven bounds, so
    NoResidueRoot is a proof; a search that a cap would clip raises
    RuntimeError rather than answer.
    """
    if a.is_zero():
        raise ValueError("division by the zero operator")
    f = phi_action(phi, a)
    g = f.coeffs[f.tau_valuation:]
    _check_good_place(g, v)
    roots = residue_solve([residue_reduce(c, v) for c in g], ybar, v)
    if not roots:
        raise NoResidueRoot("the residue equation has no root at this place")
    return roots[0]
