"""Exact factorisation engines.

Univariate: monic polynomials in F_p[t] via squarefree decomposition (one
level per base-p digit of the multiplicities, each level's p-th power
compressed for the next), distinct-degree splitting, and deterministic
equal-degree splitting (splitting candidates are enumerated in a fixed order
instead of sampled, so results are reproducible bit for bit).

Bivariate: primitive polynomials in F_p[t, theta] via Kronecker substitution
t -> y, theta -> y^M with M = deg_t + 1, univariate factorisation of the
image, and recombination of factor sub-multisets in increasing size order.
Every accepted factor is verified by exact division, so the output is
unconditionally correct; inseparable irreducibles (theta^3 + t and friends)
need no special casing.  A pool cap keeps the recombination at desk scale.
"""

from __future__ import annotations

from itertools import combinations

from .base import RPoly, check_modulus
from .kfield import BiPoly, _canonical_scale, _primitive, bi_divexact

_POOL_CAP = 20
_DEGREE_CAP = 512


def rpoly_code(f: RPoly) -> int:
    """Integer code Sum c_i * p^i; gives the canonical enumeration order."""
    return sum(c * f.p ** e for e, c in f.c.items())


def iter_monic_rpolys(p: int, min_deg: int = 0):
    """Yield monic polynomials of degree >= min_deg in code order per degree."""
    check_modulus(p)
    deg = min_deg
    while True:
        for code in range(p ** deg):
            coeffs = []
            x = code
            for _ in range(deg):
                coeffs.append(x % p)
                x //= p
            coeffs.append(1)
            yield RPoly.from_coeffs(p, coeffs)
        deg += 1


def iter_irreducible_rpolys(p: int):
    """Yield monic irreducibles in F_p[t] by (degree, code) order."""
    for f in iter_monic_rpolys(p, min_deg=1):
        if rpoly_is_irreducible(f):
            yield f


def _pow_mod(base: RPoly, e: int, mod: RPoly) -> RPoly:
    result = RPoly.one(base.p)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def _squarefree_decomposition(f: RPoly):
    """[(g_i, m_i)] with monic f = prod g_i^m_i, g_i squarefree monic.

    One level per base-p digit of the multiplicities, not one Euclid step
    per multiplicity.  With f = prod q_i^m_i, c = gcd(f, f') and w = f / c
    is the product of the q_i with p not dividing m_i, and f'/c - r w' =
    sum (m_i - r) q_i' w / q_i over them, so z_r = gcd(w, f'/c - r w')
    collects the q_i with m_i = r mod p.  What is left of f after dividing
    out prod z_r^r is a p-th power, compressed for the next level.  The
    g_i of one level are pairwise coprime; those of two levels need not be.
    """
    p = f.p
    out = []
    scale = 1
    while f.degree >= 1:
        d = f.derivative()
        c = f.gcd(d)
        w = f // c
        if not w.is_one():
            dc, dw = d // c, w.derivative()
            for r in range(1, p):
                z = w.gcd(dc - dw.scale(r))
                if not z.is_one():
                    out.append((z, r * scale))
                    f = f // z ** r
        f = f.compress(p)
        scale *= p
    return out


def _distinct_degree(f: RPoly):
    """[(product_of_deg_d_factors, d)] for squarefree monic f."""
    p = f.p
    out = []
    h = RPoly.t(p) % f
    d = 0
    g = f
    while g.degree >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, g)
        gd = g.gcd(h - RPoly.t(p))
        if gd.degree > 0:
            out.append((gd, d))
            g = g // gd
            h = h % g
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def _equal_degree(f: RPoly, d: int):
    """Split squarefree monic f whose irreducible factors all have degree d."""
    p = f.p
    if f.degree == d:
        return [f]
    stack = [f]
    done = []
    while stack:
        h = stack.pop()
        if h.degree == d:
            done.append(h)
            continue
        split = None
        tried = 0
        for r in iter_monic_rpolys(p, min_deg=1):
            tried += 1
            if tried > 4 * p ** (2 * d + 2) + 64:
                raise RuntimeError("equal-degree splitting exhausted its candidates")
            if p == 2:
                s = RPoly.zero(p)
                acc = r % h
                for _ in range(d):
                    s = (s + acc) % h
                    acc = (acc * acc) % h
            else:
                s = _pow_mod(r, (p ** d - 1) // 2, h) - RPoly.one(p)
            g = h.gcd(s)
            if 0 < g.degree < h.degree:
                split = g
                break
        if split is None:
            raise RuntimeError("equal-degree splitting failed")
        stack.append(split)
        stack.append(h // split)
    return done


def factor_rpoly(f: RPoly):
    """Full factorisation in F_p[t].

    Returns (unit, factors) with unit in F_p and factors a tuple of
    (monic irreducible, multiplicity) sorted by (degree, code).
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lead
    work = f.monic()
    found = []
    for g, mult in _squarefree_decomposition(work):
        for h, d in _distinct_degree(g):
            for q in _equal_degree(h, d):
                found.append((q, mult))
    merged = {}
    for q, m in found:
        merged[q] = merged.get(q, 0) + m
    ordered = sorted(merged.items(), key=lambda it: (it[0].degree, rpoly_code(it[0])))
    return unit, tuple(ordered)


def rpoly_is_irreducible(f: RPoly) -> bool:
    """Ben-Or's test: f of degree d >= 1 is irreducible iff
    gcd(f, t^(p^i) - t mod f) = 1 for every i <= d / 2.  t^(p^i) - t is
    the product of the monic irreducibles of degree dividing i, and f is
    reducible iff it has an irreducible factor of degree <= d / 2."""
    if f.degree < 1:
        return False
    t = RPoly.monomial(f.p, 1)
    h = t
    for _ in range(f.degree // 2):
        h = _pow_mod(h, f.p, f)
        if f.gcd(h - t).degree > 0:
            return False
    return True


# -- bivariate ---------------------------------------------------------------


def _kron_image(g: BiPoly, m: int) -> RPoly:
    d = {}
    for the, te, c in g.monomials():
        d[te + m * the] = c
    return RPoly(g.p, d)


def _unkron(q: RPoly, m: int, p: int) -> BiPoly:
    out = {}
    for e, c in q.c.items():
        a, b = e % m, e // m
        f = out.setdefault(b, {})
        f[a] = (f.get(a, 0) + c) % p
    d = {}
    for b, f in out.items():
        rp = RPoly(p, {a: c for a, c in f.items() if c})
        if not rp.is_zero():
            d[b] = rp
    return BiPoly(p, d)


def _try_divide(num: BiPoly, den: BiPoly):
    try:
        return bi_divexact(num, den)
    except ValueError:
        return None


def _factor_primitive(g: BiPoly):
    """Irreducible factors (with multiplicity) of a primitive bivariate poly."""
    p = g.p
    if g.theta_degree == 0:
        return []
    if (g.t_degree + 1) * (g.theta_degree + 1) > _DEGREE_CAP * 4:
        raise ValueError("bivariate factorisation beyond desk scale")
    m = g.t_degree + 1
    img = _kron_image(g, m)
    _, img_factors = factor_rpoly(img)
    pool = []
    for q, mult in img_factors:
        pool.extend([q] * mult)
    if len(pool) > _POOL_CAP:
        raise ValueError(f"factor recombination pool exceeds {_POOL_CAP}")
    current = g
    found = []
    while pool:
        if current.theta_degree == 0:
            # leftover unit/content; by primitivity it is a constant
            break
        hit = None
        seen = set()
        for size in range(1, len(pool)):
            for combo in combinations(range(len(pool)), size):
                sig = tuple(sorted(pool[i].key() for i in combo))
                if sig in seen:
                    continue
                seen.add(sig)
                prod = RPoly.one(p)
                for i in combo:
                    prod = prod * pool[i]
                cand = _unkron(prod, m, p)
                if cand.theta_degree < 1:
                    continue
                cand = _primitive(cand)[1]
                quot = _try_divide(current, cand)
                if quot is not None:
                    hit = (cand, combo)
                    current = quot
                    break
            if hit:
                break
        if hit is None:
            # no proper sub-multiset works: what remains is irreducible
            found.append(_canonical_scale(current))
            pool = []
            break
        cand, combo = hit
        found.append(cand)
        pool = [q for i, q in enumerate(pool) if i not in set(combo)]
    merged = {}
    for q in found:
        merged[q] = merged.get(q, 0) + 1
    return sorted(merged.items(),
                  key=lambda it: (it[0].theta_degree, it[0].t_degree, it[0].key()))


def factor_bipoly(f: BiPoly):
    """Full factorisation in F_p[t, theta].

    Returns (unit, t_factors, theta_factors): unit in F_p, t_factors the
    (monic irreducible RPoly, multiplicity) content part, theta_factors the
    (lead-normalised irreducible BiPoly, multiplicity) part with positive
    theta-degree.  The product of everything reproduces f exactly.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    p = f.p
    # the content is monic, so f's leading F_p coefficient is the primitive
    # part's unit
    cont, prim = _primitive(f)
    t_unit, t_factors = factor_rpoly(cont) if not cont.is_one() else (1, ())
    unit = (f.lead_theta_coeff().lead * t_unit) % p
    theta_factors = tuple(_factor_primitive(prim))
    return unit, t_factors, theta_factors

