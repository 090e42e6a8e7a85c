"""Additive polynomials over K under addition and composition.

A twisted polynomial c_0 x + c_1 x^p + ... + c_D x^{p^D} is stored as its
coefficient sequence.
"""

from __future__ import annotations

from .grammar import Parser
from .kfield import KElem, kelem_ring, kelem_to_str


class ZeroMapError(ValueError):
    """The zero map has no inseparability data."""


class TwistedPoly:
    """x -> sum c_i x^{p^i} with coefficients in K."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        for c in coeffs:
            if c.p != p:
                raise ValueError("modulus mismatch in coefficients")
        self.p = p
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, p: int) -> "TwistedPoly":
        return cls(p, ())

    @classmethod
    def identity(cls, p: int) -> "TwistedPoly":
        return cls(p, (KElem.one(p),))

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

    def __eq__(self, other):
        if not isinstance(other, TwistedPoly) or self.p != other.p:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self):
        return tp_to_str(self)

    def __repr__(self):
        return f"TwistedPoly({tp_to_str(self)})"


def tp_add(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    if f.p != g.p:
        raise ValueError("modulus mismatch")
    n = max(len(f.coeffs), len(g.coeffs))
    return TwistedPoly(f.p, [f.coeff(i) + g.coeff(i) for i in range(n)])


def tp_scale(f: TwistedPoly, c: KElem) -> TwistedPoly:
    if c.p != f.p:
        raise ValueError("modulus mismatch")
    return TwistedPoly(f.p, [c * a for a in f.coeffs])


def tp_compose(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    """(f o g)(x) = f(g(x)); coefficient rule (f o g)_k = sum f_i * g_j^{p^i}."""
    if f.p != g.p:
        raise ValueError("modulus mismatch")
    if f.is_zero() or g.is_zero():
        return TwistedPoly.zero(f.p)
    out = [KElem.zero(f.p)] * (f.tau_degree + g.tau_degree + 1)
    for i, fi in enumerate(f.coeffs):
        if fi.is_zero():
            continue
        for j, gj in enumerate(g.coeffs):
            if gj.is_zero():
                continue
            out[i + j] = out[i + j] + fi * gj.frob(i)
    return TwistedPoly(f.p, out)


def tp_eval(f: TwistedPoly, x: KElem) -> KElem:
    """f(x) = sum c_i x^{p^i} for x in K."""
    if x.p != f.p:
        raise ValueError("modulus mismatch")
    acc = KElem.zero(f.p)
    for i, c in enumerate(f.coeffs):
        if not c.is_zero():
            acc = acc + c * x.frob(i)
    return acc


def tp_to_str(f: TwistedPoly) -> str:
    return "[" + ", ".join(kelem_to_str(c) for c in f.coeffs) + "]"


def tp_parse(p: int, text: str) -> TwistedPoly:
    parser = Parser(text)
    return TwistedPoly(p, parser.done(parser.items("[", "]", kelem_ring(p))))
