"""Finite-precision completions K_v on a ramified exponent grid.

A local element is a truncated expansion sum_e c_e u^e with u the declared
uniformizer, exponents on the lattice (1/p^grid) * Z, and digits in the
residue field.  The grid tag exists only to carry the p^kappa-th root that
hensel_solve's inseparable branch returns: a digit at level k stores the
residue rep that stands for itself with t and theta-bar replaced by p^k-th
roots.  So refining a level is a digit-wise Frobenius, a p-th root is a pure
relabeling (exponents divide by p, digits unchanged, grid up one), and the
inseparable branch is a separable solve of the index-shifted operator against
the original target, relabeled at the end by kappa such roots.

Precision is tracked per value, never globally; operations propagate the
honest cutoff and raise rather than silently losing digits.
"""

from __future__ import annotations

from fractions import Fraction

from .base import (FElem, RPoly, fp_nullspace, fp_solve_many, fp_span, fp_system,
                   memo_put)
from .drinfeld import DrinfeldModule, _pole_bound, phi_action
from .factor import factor_rpoly, rpoly_code
from .kfield import KElem
from .places import (FvElem, Place, _bipoly_multiplicity, fv_coordinates,
                     fv_denominator, fv_tp_eval, get_trunc_ring, residue_reduce,
                     valuation)
from .twisted import TwistedPoly


class PrecisionUnderflow(ArithmeticError):
    """An operation left no reliable digits."""


class DivisionByZeroToPrecision(ZeroDivisionError):
    """Inverting something indistinguishable from zero at this precision."""


class NoResidueRoot(ValueError):
    """The residue equation has no root (and hence no local solution).

    certified is True when the underlying residue search is provably
    complete (degree-one places); otherwise the verdict is bounded.
    """

    def __init__(self, message: str, certified: bool):
        super().__init__(message)
        self.certified = certified


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LocalElem:
    """Truncated u-adic expansion at a place, with per-value precision."""

    __slots__ = ("place", "grid", "terms", "precision")

    def __init__(self, place: Place, terms, precision, grid: int = 0):
        precision = _frac(precision)
        if grid < 0:
            raise ValueError("grid tag must be nonnegative")
        step = place.p ** grid
        clean = {}
        for e, c in terms.items():
            e = _frac(e)
            if (e * step).denominator != 1:
                raise ValueError(f"exponent {e} is off the 1/p^{grid} lattice")
            if e >= precision:
                continue
            if not c.is_zero():
                if c.place != place:
                    raise ValueError("digit from the wrong residue field")
                clean[e] = c
        self.place = place
        self.grid = grid
        self.terms = clean
        self.precision = precision

    @classmethod
    def zero_to(cls, place: Place, precision, grid: int = 0) -> "LocalElem":
        return cls(place, {}, precision, grid)

    @classmethod
    def from_digit(cls, place: Place, exp, coeff: FvElem, precision,
                   grid: int = 0) -> "LocalElem":
        return cls(place, {_frac(exp): coeff}, precision, grid)

    @property
    def p(self) -> int:
        return self.place.p

    def val(self):
        """Least exponent, or None for zero-to-precision."""
        return min(self.terms) if self.terms else None

    def is_zero_to_precision(self) -> bool:
        return not self.terms

    def _eff_val(self) -> Fraction:
        v = self.val()
        return self.precision if v is None else v

    def refine(self, delta: int) -> "LocalElem":
        """Same value, grid `delta` finer: digit-wise Frobenius."""
        if delta < 0:
            raise ValueError("grids only refine")
        if delta == 0:
            return self
        return LocalElem(self.place,
                         {e: c.frobenius(delta) for e, c in self.terms.items()},
                         self.precision, self.grid + delta)

    def pth_root(self) -> "LocalElem":
        """Exponents divide by p, digits unchanged, grid up one."""
        p = self.p
        return LocalElem(self.place,
                         {e / p: c for e, c in self.terms.items()},
                         self.precision / p, self.grid + 1)

    def frobenius(self, e: int = 1) -> "LocalElem":
        """The p^e-th power; precision scales with the exponents."""
        if e < 0:
            raise ValueError("negative Frobenius power")
        q = self.p ** e
        return LocalElem(self.place,
                         {ex * q: c ** q for ex, c in self.terms.items()},
                         self.precision * q, self.grid)

    def _common(self, other: "LocalElem"):
        if not isinstance(other, LocalElem) or self.place != other.place:
            raise ValueError("local elements live at different places")
        g = max(self.grid, other.grid)
        return self.refine(g - self.grid), other.refine(g - other.grid)

    def __add__(self, other: "LocalElem") -> "LocalElem":
        a, b = self._common(other)
        prec = min(a.precision, b.precision)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return LocalElem(a.place, terms, prec, a.grid)

    def __neg__(self) -> "LocalElem":
        return LocalElem(self.place, {e: -c for e, c in self.terms.items()},
                         self.precision, self.grid)

    def __sub__(self, other: "LocalElem") -> "LocalElem":
        return self + (-other)

    def __mul__(self, other: "LocalElem") -> "LocalElem":
        a, b = self._common(other)
        prec = min(a.precision + b._eff_val(), b.precision + a._eff_val())
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = e1 + e2
                if e >= prec:
                    continue
                c = c1 * c2
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        return LocalElem(a.place, terms, prec, a.grid)

    def shift(self, delta) -> "LocalElem":
        """Multiply by u^delta."""
        delta = _frac(delta)
        return LocalElem(self.place,
                         {e + delta: c for e, c in self.terms.items()},
                         self.precision + delta, self.grid)

    def invert(self) -> "LocalElem":
        if self.is_zero_to_precision():
            raise DivisionByZeroToPrecision(
                f"inverting zero-to-precision O(u^{self.precision})")
        v = self.val()
        rel = self.precision - v
        if rel <= 0:
            raise PrecisionUnderflow("no reliable digits to invert")
        w = self.shift(-v)               # unit, valuation 0, precision rel
        lead = w.terms[Fraction(0)]
        inv = LocalElem.from_digit(self.place, 0, lead.inverse(), rel, self.grid)
        one = LocalElem.from_digit(self.place, 0, FvElem.one(self.place), rel,
                                   self.grid)
        while True:
            err = one - w * inv
            if err.is_zero_to_precision():
                break
            inv = inv + inv * err
        return inv.shift(-v)

    def truncate(self, n) -> "LocalElem":
        n = _frac(n)
        if n > self.precision:
            raise PrecisionUnderflow(
                f"cannot raise precision {self.precision} to {n}")
        return LocalElem(self.place, self.terms, n, self.grid)

    def agrees(self, other: "LocalElem", upto) -> bool:
        """v(self - other) >= upto, both known at least that far."""
        d = self - other
        if d.precision < _frac(upto):
            raise PrecisionUnderflow("difference is not known that far")
        v = d.val()
        return v is None or v >= _frac(upto)

    def __eq__(self, other):
        return (isinstance(other, LocalElem) and self.place == other.place
                and self.grid == other.grid and self.terms == other.terms
                and self.precision == other.precision)

    def __str__(self):
        return local_to_str(self)

    def __repr__(self):
        return f"LocalElem({self.place}, {local_to_str(self)})"


def _exp_str(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return str(e.numerator)
    if e.denominator == 1:
        return f"({e.numerator})"
    return f"({e.numerator}/{e.denominator})"


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


def embed(x: KElem, v: Place, n) -> LocalElem:
    """u-adic expansion of x to precision n (exponents < n are exact).

    embed itself memoises nothing; tp_eval_local memoises the coefficients
    it embeds.  A unit part of the denominator that is exactly 1 skips the
    inversion modulo pi^count.
    """
    n = _frac(n)
    if n.denominator != 1:
        raise ValueError("embedding precision must be an integer")
    n_int = n.numerator
    if x.p != v.p:
        raise ValueError("modulus mismatch")
    if x.is_zero():
        return LocalElem.zero_to(v, n)
    if v.is_infinite:
        return _embed_infinite(x, v, n_int)
    kn = _bipoly_multiplicity(x.num, v)
    kd = _bipoly_multiplicity(x.den, v)
    val = kn - kd
    count = n_int - val
    if count <= 0:
        return LocalElem.zero_to(v, n)
    ring = get_trunc_ring(v, count + kn + kd)
    _, un = ring.strip_pi(ring.reduce_bipoly(x.num))
    _, ud = ring.strip_pi(ring.reduce_bipoly(x.den))
    if len(ud) != 1 or not ud[0].is_one():
        un = ring.mul(un, ring.invert(ud))
    digits = ring.digits(un, count)
    return LocalElem(v, {Fraction(val + i): d for i, d in enumerate(digits)}, n)


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
    terms = {Fraction(val + j): FvElem.from_felem(v, c)
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
    rows, rhs = fp_system(vecs[:-1], vecs[-1:])
    sol = fp_solve_many(rows, rhs, p, len(candidates))[0]
    null = fp_nullspace(rows, p, len(candidates))
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


# -- local evaluation and Hensel lifting -------------------------------------


_COEFF_CACHE: dict = {}


def _embed_coeff(c: KElem, v: Place, n: int) -> LocalElem:
    """embed(c, v, n), memoised by value in _COEFF_CACHE, which
    base.memo_put clears once it holds more than 64 entries."""
    key = (c, v, n)
    z = _COEFF_CACHE.get(key)
    if z is None:
        z = memo_put(_COEFF_CACHE, key, embed(c, v, n))
    return z


def tp_eval_local(f: TwistedPoly, z: LocalElem, margin: int = 2) -> LocalElem:
    """Evaluate a twisted polynomial at a local point.

    Coefficients are embedded with enough precision that the propagated
    cutoff is driven by z, not by the embeddings.  Each embedding goes
    through _embed_coeff, so a (coefficient, place, precision) triple is
    embedded once until that bounded memo is cleared.
    """
    v = z.place
    acc = None
    for i, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        zi = z.frobenius(i)
        need = zi.precision - min(0, zi._eff_val()) + margin
        n_embed = need.numerator // need.denominator + 1
        term = _embed_coeff(c, v, max(n_embed, 1)) * zi
        acc = term if acc is None else acc + term
    if acc is None:
        return LocalElem.zero_to(v, z.precision, z.grid)
    return acc


def _check_good_place(coeffs, v: Place):
    nz = [(i, c) for i, c in enumerate(coeffs) if not c.is_zero()]
    for _i, c in nz:
        if valuation(c, v) < 0:
            raise ValueError("a coefficient is not integral at this place")
    if valuation(nz[0][1], v) != 0:
        raise ValueError("the differential is not a unit at this place")


def _newton_lift(g: TwistedPoly, x0: LocalElem, y: LocalElem, n: Fraction) -> LocalElem:
    """Lift a residue root of the separable g(X) = y to precision n."""
    v = y.place
    c0_inv = _embed_coeff(g.coeff(0), v,
                          n.numerator // n.denominator + 2).invert()
    x = x0.truncate(min(x0.precision, n))
    x = LocalElem(v, x.terms, n, x.grid)
    while True:
        residual = y.truncate(n) - tp_eval_local(g, x).truncate(n)
        if residual.is_zero_to_precision():
            return x
        x = (x + c0_inv * residual).truncate(n)


def hensel_solve(phi: DrinfeldModule, a: RPoly, y: LocalElem, n) -> LocalElem:
    """X with valuation(Phi_a(X) - y) >= n, or NoResidueRoot.

    Separable operators lift a residue root by Newton iteration.  For
    t-divisible operators on a special module, the index-shifted operator is
    solved against the same target and the answer is relabeled onto the
    1/p^{m*l} grid; the Frobenius identity keeps the residual guarantee at n
    on the refined grid.
    """
    n = _frac(n)
    if n < 1:
        raise ValueError("residual target must be at least 1")
    if a.is_zero():
        raise ValueError("division by the zero operator")
    if y.grid != 0:
        raise ValueError("the target must live on the base grid")
    v = y.place
    ev = y._eff_val()
    if ev < 0:
        raise ValueError("the target is not integral")
    if y.precision < n:
        raise PrecisionUnderflow(
            f"target known to O(u^{y.precision}) but residual {n} requested")
    f = phi_action(phi, a)
    kappa = f.tau_valuation
    g = TwistedPoly(phi.p, f.coeffs[kappa:]) if kappa else f
    _check_good_place(g.coeffs, v)

    gbar = [residue_reduce(c, v) for c in g.coeffs]
    ybar = (y.terms.get(Fraction(0), FvElem.zero(v)) if y.precision > 0
            else FvElem.zero(v))
    roots, certified = residue_solve(gbar, ybar, v)
    if not roots:
        raise NoResidueRoot(
            "the residue equation has no root at this place", certified)
    x0 = LocalElem.from_digit(v, 0, roots[0], 1) if not roots[0].is_zero() \
        else LocalElem.zero_to(v, 1)
    x_hat = _newton_lift(g, x0, y, n)
    for _ in range(kappa):
        x_hat = x_hat.pth_root()
    _assert_residual(phi, a, x_hat, y, n)
    return x_hat


def _assert_residual(phi, a, x_hat, y, n):
    lhs = tp_eval_local(phi_action(phi, a), x_hat)
    diff = lhs - y
    if diff.precision < n:
        raise PrecisionUnderflow("residual cannot be verified to the target")
    w = diff.val()
    if w is not None and w < n:
        raise AssertionError("Hensel residual fell short of the target")
