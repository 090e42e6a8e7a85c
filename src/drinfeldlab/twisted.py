"""Additive polynomials over K under addition and composition.

A twisted polynomial c_0 x + c_1 x^p + ... + c_D x^{p^D} is stored as its
coefficient sequence.  The grid tag handles coefficients that live in the
perfection layer K^{1/p^g}: a tagged polynomial stores each coefficient as a
plain K-element that stands for itself with t and theta replaced by their
p^g-th roots.  Refining the grid by one step is therefore a termwise
Frobenius on the stored data, and taking a p-th root of an inseparable
polynomial is a pure index shift with the tag bumped by one.
"""

from __future__ import annotations

from .grammar import Parser
from .kfield import KElem, kelem_pth_root, kelem_ring, kelem_to_str


class PrecisionGridError(ValueError):
    """A p-th root or grid move that the representation cannot express."""


class ZeroMapError(ValueError):
    """The zero map has no inseparability data."""


class TwistedPoly:
    """x -> sum c_i x^{p^i}, coefficients read on the 1/p^grid variable grid."""

    __slots__ = ("p", "coeffs", "grid")

    def __init__(self, p: int, coeffs, grid: int = 0):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if grid < 0:
            raise ValueError("grid tag must be nonnegative")
        for c in coeffs:
            if c.p != p:
                raise ValueError("modulus mismatch in coefficients")
        self.p = p
        self.coeffs = tuple(coeffs)
        self.grid = grid

    @classmethod
    def zero(cls, p: int, grid: int = 0) -> "TwistedPoly":
        return cls(p, (), grid)

    @classmethod
    def identity(cls, p: int) -> "TwistedPoly":
        return cls(p, (KElem.one(p),))

    @classmethod
    def tau_power(cls, p: int, i: int, c: KElem | None = None) -> "TwistedPoly":
        """c * x^{p^i}."""
        coeffs = [KElem.zero(p)] * i + [KElem.one(p) if c is None else c]
        return cls(p, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def tau_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def tau_valuation(self) -> int:
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        raise ZeroMapError("the zero map has no tau-valuation")

    def coeff(self, i: int) -> KElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return KElem.zero(self.p)

    def refine(self, delta: int) -> "TwistedPoly":
        """The same map with coefficients re-read on a grid `delta` finer."""
        if delta < 0:
            raise ValueError("grids only refine")
        if delta == 0:
            return self
        return TwistedPoly(self.p, [c.frob(delta) for c in self.coeffs],
                           self.grid + delta)

    def reduce_grid(self) -> "TwistedPoly":
        """Drop the tag as far as the stored exponents allow."""
        cur = self
        while cur.grid > 0:
            roots = [kelem_pth_root(c) for c in cur.coeffs]
            if any(r is None for r in roots):
                return cur
            cur = TwistedPoly(cur.p, roots, cur.grid - 1)
        return cur

    def __eq__(self, other):
        if not isinstance(other, TwistedPoly) or self.p != other.p:
            return NotImplemented
        a, b = self, other
        if a.grid != b.grid:
            g = max(a.grid, b.grid)
            a, b = a.refine(g - a.grid), b.refine(g - b.grid)
        return a.coeffs == b.coeffs

    def __hash__(self):
        base = self.reduce_grid()
        return hash((base.p, base.grid, base.coeffs))

    def __str__(self):
        return tp_to_str(self)

    def __repr__(self):
        tag = f", grid=1/p^{self.grid}" if self.grid else ""
        return f"TwistedPoly({tp_to_str(self)}{tag})"


def _common_grid(f: TwistedPoly, g: TwistedPoly):
    if f.p != g.p:
        raise ValueError("modulus mismatch")
    grid = max(f.grid, g.grid)
    return f.refine(grid - f.grid), g.refine(grid - g.grid), grid


def tp_add(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    f, g, grid = _common_grid(f, g)
    n = max(len(f.coeffs), len(g.coeffs))
    return TwistedPoly(f.p, [f.coeff(i) + g.coeff(i) for i in range(n)], grid)


def tp_neg(f: TwistedPoly) -> TwistedPoly:
    return TwistedPoly(f.p, [-c for c in f.coeffs], f.grid)


def tp_sub(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    return tp_add(f, tp_neg(g))


def tp_scale(f: TwistedPoly, c: KElem) -> TwistedPoly:
    if c.p != f.p:
        raise ValueError("modulus mismatch")
    return TwistedPoly(f.p, [c * a for a in f.coeffs], f.grid)


def tp_compose(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    """(f o g)(x) = f(g(x)); coefficient rule (f o g)_k = sum f_i * g_j^{p^i}."""
    f, g, grid = _common_grid(f, g)
    if f.is_zero() or g.is_zero():
        return TwistedPoly.zero(f.p, grid)
    out = [KElem.zero(f.p)] * (f.tau_degree + g.tau_degree + 1)
    for i, fi in enumerate(f.coeffs):
        if fi.is_zero():
            continue
        for j, gj in enumerate(g.coeffs):
            if gj.is_zero():
                continue
            out[i + j] = out[i + j] + fi * gj.frob(i)
    return TwistedPoly(f.p, out, grid)


def tp_eval_rep(f: TwistedPoly, x_rep: KElem) -> KElem:
    """Evaluate on stored data: both x and the result read on f's grid."""
    acc = KElem.zero(f.p)
    for i, c in enumerate(f.coeffs):
        if not c.is_zero():
            acc = acc + c * x_rep.frob(i)
    return acc


def tp_eval(f: TwistedPoly, x: KElem) -> KElem:
    """f(x) for x in K.  The result must land in K; a tagged polynomial
    whose value genuinely needs a p-th root raises PrecisionGridError."""
    if x.p != f.p:
        raise ValueError("modulus mismatch")
    value = tp_eval_rep(f, x.frob(f.grid))
    for _ in range(f.grid):
        root = kelem_pth_root(value)
        if root is None:
            raise PrecisionGridError("value does not descend to the base grid")
        value = root
    return value


def tp_pth_root(f: TwistedPoly, k: int) -> TwistedPoly:
    """h with h(x)^{p^k} = f(x): index shift by k, grid refined by k.

    Needs tau_valuation(f) >= k; the zero map roots to itself.
    """
    if k < 0:
        raise ValueError("root depth must be nonnegative")
    if k == 0:
        return f
    if f.is_zero():
        return TwistedPoly.zero(f.p, f.grid + k)
    if f.tau_valuation < k:
        raise PrecisionGridError(
            f"tau-valuation {f.tau_valuation} is below the root depth {k}")
    return TwistedPoly(f.p, f.coeffs[k:], f.grid + k)


def tp_inseparability(f: TwistedPoly):
    """(tau_valuation, differential c_0); raises ZeroMapError on the zero map."""
    if f.is_zero():
        raise ZeroMapError("the zero map has no inseparability data")
    return f.tau_valuation, f.coeff(0)


def tp_to_str(f: TwistedPoly) -> str:
    return "[" + ", ".join(kelem_to_str(c) for c in f.coeffs) + "]"


def tp_parse(p: int, text: str) -> TwistedPoly:
    parser = Parser(text)
    return TwistedPoly(p, parser.done(parser.items("[", "]", kelem_ring(p))))
