"""Desk-scale closure experiments: exact K-side enumeration against
bound-qualified adelic certificates.

Two theorem pipelines (generic characteristic via discreteness, special
characteristic for zero-dimensional varieties via torsion snapping), an
image-chain uniformity probe, and the reduction of a hypersurface instance
to a zero-dimensional one through quotient cosets.  Every verdict is
derived from certified sub-results and carries its bounds; varieties are
K-rational by construction (zero-dimensional input with coordinates
outside K is not representable and therefore out of scope).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .adelic import (
    STANDARD_CUTOFF,
    STANDARD_DEG_BOUND,
    Report,
    closure_member,
    closure_torsion_check,
    discreteness_certificate,
    quotient_iso_check,
    require_places,
    standard_tracked_places,
)
from .base import Echelon, RPoly, fp_span
from .drinfeld import (
    GENERIC,
    SPECIAL,
    estimate_torsion_level_m,
    modular_transcendence_probe,
    solve_additive_many,
    torsion_annihilator,
)
from .grammar import Ring, parse
from .kfield import KElem, coordinates, kelem_ring, kelem_to_str
from .phimodule import (
    PhiModule,
    _op_on_point,
    _window_vectors,
    is_full,
    member,
    point_add,
    point_neg,
    point_sort_key,
    point_to_str,
    quotient,
)
from .places import place_to_str, residue_reduce
from .twisted import TwistedPoly, tp_compose

SCHEMA = "drinfeldlab.experiments/1"

CONFIRMED = "TheoremConfirmed"
INCONCLUSIVE = "BoundInconclusive"
COUNTEREXAMPLE = "CounterexampleCandidate"

_ENUM_CAP = 3 ** 9


def _over_enum_cap(p: int, exponent: int) -> bool:
    """Whether p^exponent points exceed _ENUM_CAP; a huge exponent is
    clipped where the power already passes the cap, so it costs nothing."""
    return p ** min(exponent, _ENUM_CAP.bit_length()) > _ENUM_CAP


# -- multivariate polynomials over K ------------------------------------------


class MultiPoly:
    """Polynomial over K in g variables, stored as exponent-tuple terms."""

    __slots__ = ("p", "g", "terms")

    def __init__(self, p: int, g: int, terms=None):
        self.p = p
        self.g = g
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != g or any(e < 0 for e in exps):
                raise ValueError("malformed exponent vector")
            if not c.is_zero():
                clean[exps] = clean[exps] + c if exps in clean else c
        self.terms = {e: c for e, c in clean.items() if not c.is_zero()}

    @classmethod
    def constant(cls, p: int, g: int, c: KElem) -> "MultiPoly":
        return cls(p, g, {(0,) * g: c})

    @classmethod
    def variable(cls, p: int, g: int, i: int) -> "MultiPoly":
        if not 0 <= i < g:
            raise ValueError(f"variable index {i} outside width {g}")
        exps = tuple(1 if j == i else 0 for j in range(g))
        return cls(p, g, {exps: KElem.one(p)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return MultiPoly(self.p, self.g, out)

    def __neg__(self) -> "MultiPoly":
        zero = KElem.zero(self.p)
        return MultiPoly(self.p, self.g,
                         {e: zero - c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return MultiPoly(self.p, self.g, out)

    def __truediv__(self, other: "MultiPoly") -> "MultiPoly":
        c = other.terms.get((0,) * self.g)
        if c is None or len(other.terms) > 1:
            raise ValueError("a polynomial divides only by a nonzero constant")
        inv = c.inverse()
        return MultiPoly(self.p, self.g, {e: v * inv for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        # f^p = sum c_e^p x^(p e) in characteristic p, so f^n is the product
        # over the base-p digits d_i of n of d_i copies of f^(p^i)
        p = self.p
        acc = MultiPoly.constant(p, self.g, KElem.one(p))
        frob = self
        while n:
            n, d = divmod(n, p)
            for _ in range(d):
                acc = acc * frob
            if n:
                frob = MultiPoly(p, self.g, {
                    tuple(p * e for e in exps): c.frob(1)
                    for exps, c in frob.terms.items()})
        return acc

    def evaluate(self, point) -> KElem:
        if len(point) != self.g:
            raise ValueError("point width disagrees with the polynomial")
        # x_i^e for the exponents e in use only, each x_i^gap times the one below
        tables = []
        for i, x in enumerate(point):
            row, below = {}, 0
            for e in sorted({exps[i] for exps in self.terms} - {0}):
                step = x if e - below == 1 else x ** (e - below)
                row[e] = step if not below else row[below] * step
                below = e
            tables.append(row)
        acc = None
        for exps, c in self.terms.items():
            term = None
            for row, e in zip(tables, exps):
                if e:
                    term = row[e] if term is None else term * row[e]
            if term is None:
                term = c
            elif not c.is_one():
                term = c * term
            acc = term if acc is None else acc + term
        return KElem.zero(self.p) if acc is None else acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                            for i, e in enumerate(exps) if e)
            ctext = kelem_to_str(c)
            if not mono:
                parts.append(f"({ctext})")
            elif ctext == "1":
                parts.append(mono)
            else:
                parts.append(f"({ctext})*{mono}")
        return " + ".join(parts)


def poly_parse(p: int, g: int, text: str) -> MultiPoly:
    """Parse a polynomial over K in x0..x{g-1} (aliases x, y, z) in the
    `grammar`; '/' divides by a nonzero constant only."""
    k = kelem_ring(p)
    indices = {f"x{i}": i for i in range(g)} | {"x": 0, "y": 1, "z": 2}

    def name(s: str):
        if s in indices:
            return MultiPoly.variable(p, g, indices[s])
        c = k.names(s)
        return None if c is None else MultiPoly.constant(p, g, c)

    return parse(text, Ring(p, name, lambda c: MultiPoly.constant(p, g, k.const(c)),
                            lambda f: sum(map(k.size, f.terms.values()))))


# -- variety specifications ----------------------------------------------------


@dataclass(frozen=True)
class ZeroDim:
    """Finitely many K-rational points, pairwise distinct."""
    g: int
    points: tuple
    # every point, for membership by lookup
    keys: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(tuple(x) for x in self.points)
        for x in pts:
            if len(x) != self.g:
                raise ValueError("point width disagrees with g")
        coords = [c for x in pts for c in x]
        if not all(isinstance(c, KElem) for c in coords) \
                or len({c.p for c in coords}) > 1:
            raise ValueError("point coordinates must live in one field K")
        keys = frozenset(pts)
        if len(keys) != len(pts):
            raise ValueError("zero-dimensional points must be distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "keys", keys)

    def to_json_dict(self):
        return {"kind": "zero-dim", "g": self.g,
                "points": sorted(map(point_to_str, self.points))}


@dataclass(frozen=True)
class Hypersurface:
    poly: MultiPoly

    def __post_init__(self):
        if not isinstance(self.poly, MultiPoly):
            raise ValueError("hypersurface wants a MultiPoly")
        if self.poly.is_zero():
            raise ValueError("hypersurface polynomial must be nonzero")

    @property
    def g(self) -> int:
        return self.poly.g

    def to_json_dict(self):
        return {"kind": "hypersurface", "g": self.g, "poly": str(self.poly)}


def _require_variety(variety, p: int):
    if not isinstance(variety, (ZeroDim, Hypersurface)):
        raise ValueError("variety must be a ZeroDim or a Hypersurface")
    fields = {variety.poly.p} if isinstance(variety, Hypersurface) \
        else {c.p for x in variety.points for c in x}
    if fields - {p}:
        raise ValueError(f"variety lives over another field than F_{p}")


def variety_contains(spec, x) -> bool:
    if isinstance(spec, ZeroDim):
        return tuple(x) in spec.keys
    return spec.poly.evaluate(x).is_zero()


# -- shared report shape -------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport(Report):
    kind: str
    verdict: str
    k_side: tuple
    adelic_side: tuple | None
    certificates: tuple           # ((label, json-able dict), ...)
    bounds: dict                  # {name: value}
    assumptions: tuple
    trace: tuple
    notes: tuple = ()

    SCHEMA = SCHEMA


def _verdict(trace, inconclusive: bool) -> str:
    """A traced contradiction outranks an open bound, which outranks
    confirmation."""
    if trace:
        return COUNTEREXAMPLE
    return INCONCLUSIVE if inconclusive else CONFIRMED


def _fullness_notes(full) -> list:
    """One fullness-capped note per note of the fullness scan: a scan cut
    short by a cap or a bound leaves fullness open, so the verdict on top of
    it is inconclusive."""
    return [f"fullness-capped:{note}" for note in full.notes]


def _require_bounds(deg_bound=0, precision=0, cutoff=0, enum_deg=0):
    """Refuse a negative bound up front, before any scan, minimisation or
    certificate runs on it."""
    for value, what in ((deg_bound, "degree bound"), (precision, "precision"),
                        (cutoff, "cutoff"), (enum_deg, "enumeration degree")):
        if value < 0:
            raise ValueError(f"negative {what}")


def _sorted_points(points):
    return tuple(sorted({tuple(x) for x in points}, key=point_sort_key))


class _Fp2:
    """F_{p^2} = F_p[i]/(r(i)), r = i^2 + c1*i + c0 the first monic
    irreducible quadratic in (c1, c0) order.  u + v*i is the plain int
    u + v*p, so F_p is the ints below p."""

    def __init__(self, p: int):
        self.p = p
        self.c1, self.c0 = next(
            (c1, c0) for c1 in range(p) for c0 in range(p)
            if all((z * z + c1 * z + c0) % p for z in range(p)))

    def sum(self, terms):
        """sum c*z over the pairs (c, z), c an int and z in F_{p^2}."""
        p = self.p
        u = v = 0
        for c, z in terms:
            hi, lo = divmod(z, p)
            u += c * lo
            v += c * hi
        return u % p + v % p * p

    def mul(self, x, y):
        p = self.p
        (v, u), (w, s) = divmod(x, p), divmod(y, p)
        vw = v * w
        return (u * s - self.c0 * vw) % p + \
            (u * w + v * s - self.c1 * vw) % p * p

    def power(self, x, e: int):
        """x^e for e >= 0; off F_p, e is first reduced mod p^2 - 1, so a
        huge exponent costs one short ladder."""
        if x < self.p:
            return pow(x, e, self.p)
        e %= self.p * self.p - 1
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, x)
            x, e = self.mul(x, x), e >> 1
        return out

    def frob(self, x):
        """x^p, the conjugate: the roots i and i^p of r add up to -c1."""
        v, u = divmod(x, self.p)
        return (u - self.c1 * v) % self.p + -v % self.p * self.p

    def value(self, terms, y):
        """sum c * prod y_j^e_j over the pairs (e, c) of terms."""
        return self.sum((1, functools.reduce(self.mul, map(
            self.power, y, exps), c)) for exps, c in terms)

    def maps(self, moves_t: bool, moves_theta: bool):
        """The ring maps (a, b), t -> a and theta -> b, one per Frobenius
        orbit of pairs not both in F_p, lazily.  Conjugate maps test the
        same equation.  A map moving theta (a in F_p, b running fastest)
        alternates with one moving t (b in F_p, a running fastest); the F_p
        value runs 1, ..., p - 1 before 0, because sending a variable to 0
        kills every monomial divisible by it.

        On data free of t, only where theta goes matters, so only maps
        moving theta are listed, with a = 0 (likewise with t and theta
        exchanged): the others repeat an equation, or test one of F_p.
        """
        p = self.p
        order = [*range(1, p), 0]

        def reps():
            return (x for x in range(p, p * p) if x < self.frob(x))

        theta_moving = ((a, b) for a in (order if moves_t else [0])
                        for b in reps()) if moves_theta else ()
        t_moving = ((a, b) for b in (order if moves_theta else [0])
                    for a in reps()) if moves_t else ()
        return (m for pair in itertools.zip_longest(theta_moving, t_moving)
                for m in pair if m)


def _ring_maps(field: _Fp2, maps):
    """x -> [x under each ring map (a, b) of maps], t -> a and theta -> b
    into F_{p^2}, with None where x's canonical denominator vanishes; the
    F_p maps are those with a, b < p.  Each monomial t^te*theta^e is read
    from a table of its values under the maps, filled when first met, so
    each power is taken once per map and monomial, not once per element."""
    p, mul, power = field.p, field.mul, field.power
    table = {}    # (e, te) -> its values u + v*p: the u, the v (None in F_p)

    def value(f):
        lo = hi = [0] * len(maps)
        for e, coef in f.c.items():
            for te, c in coef.c.items():
                z = table.get((e, te))
                if z is None:
                    w = [mul(power(b, e), power(a, te)) for a, b in maps]
                    z = table[e, te] = ([u % p for u in w], [u // p for u in w]
                                        if max(w, default=0) >= p else None)
                lo = [u + c * v for u, v in zip(lo, z[0])]
                if z[1]:
                    hi = [u + c * v for u, v in zip(hi, z[1])]
        return [u % p + v % p * p for u, v in zip(lo, hi)]

    def images(x):
        num = value(x.num)
        if x.den.is_one():
            return num
        return [mul(n, power(d, p * p - 2)) if d else None
                for n, d in zip(num, value(x.den))]

    return images


def _fp_filter(poly: MultiPoly, points):
    """(rows, vanish, lifted), the two stages of a reduction filter that
    only ever rules a point out: a ring map sends zeros of poly to zeros
    of the image polynomial, and F_p-combinations of points to the same
    combinations of their images.  Both stages read coefficients and
    coordinates through _ring_maps, list their maps by the rule of
    _Fp2.maps (on data free of t only maps moving theta, and likewise),
    and memoise each map's verdict per image point: at p = 3 and g = 1 a
    map evaluates its image polynomial at most 9 times.

    Stage 1: rows[i] is points[i]'s images under the usable ring maps
    t -> a, theta -> b into F_p, g ints per map in the order b*p + a, and
    vanish(flat) tests that every image polynomial vanishes on flat, a row
    of such images.  A map is usable when it is defined on every
    coefficient of poly and coordinate of a point; one whose images all
    equal an earlier map's tests nothing new and is dropped.

    Stage 2: lifted(combination) tests sum d*points[i] over the pairs
    (i, d) under the first maps of _Fp2.maps, one per equation that stage 1
    could test: p^2 of them, or p when the data involve only one of t and
    theta.  A point's images under all of them are computed when it first
    reaches stage 2, the coefficients' with the first point.  A map
    undefined on a coefficient of poly is never used, and one undefined on
    a point is skipped only for the combinations that touch it.
    """
    p, g = poly.p, poly.g
    field, coefs = _Fp2(p), list(poly.terms.values())
    data = coefs + [c for x in points for c in x]
    polys = [f for c in data for f in (c.num, c.den)]
    moves_t = any(te for f in polys for coef in f.c.values() for te in coef.c)
    moves_theta = any(e for f in polys for e in f.c)
    image = _ring_maps(field, [(a, b) for b in range(p if moves_theta else 1)
                               for a in range(p if moves_t else 1)])
    columns = list(dict.fromkeys(column for column in zip(*map(image, data))
                                 if None not in column))
    n, k = len(coefs), len(columns)
    rows = [tuple(column[n + i * g + j] for column in columns
                  for j in range(g)) for i in range(len(points))]
    lifts = list(itertools.islice(field.maps(moves_t, moves_theta),
                                  p ** (moves_t + moves_theta)))
    lift = _ring_maps(field, lifts)

    @functools.cache
    def images(i):    # point index, or None for poly -> images per lift
        return [None if None in z else z for z in zip(*map(
            lift, coefs if i is None else points[i]))]

    @functools.cache
    def terms(u):     # map u's image polynomial: stage 1's maps, the lifts
        return [*zip(poly.terms, columns[u] if u < k else images(None)[u - k])]

    @functools.cache
    def zero(u, y):   # stage 1's image points may come unreduced
        return not field.value(terms(u), y if u >= k else [s % p for s in y])

    def vanish(flat):
        for u in range(k):
            if not zero(u, flat[u * g:(u + 1) * g]):
                return False
        return True

    def lifted(combination):
        parts = [(d, images(i)) for i, d in combination if d % p]
        ds = [d for d, _ in parts]
        for u, c in enumerate(images(None)):
            zs = [z[u] for _, z in parts]
            if c is None or None in zs:
                continue
            if not zero(k + u, tuple(field.sum(zip(ds, column))
                                     for column in zip(*zs))):
                return False
        return True

    return rows, vanish, lifted


def _swept_zeros(offset, vectors, poly: MultiPoly):
    """The points offset + sum d_k vectors[k], d_k in F_p, on which poly
    vanishes, in fp_span's order.

    The span is swept under _fp_filter's two stages, which only ever rule
    a point out.  Stage 1 walks the F_p-images through the pivot rows of
    one Echelon, p^rank images for p^n points; each image that passes
    vanish is expanded through the kernel into its indices in the span,
    sorted into fp_span's digit-counter order.  A point that
    passes lifted too is built exactly from its digits, and kept when exact
    evaluation gives zero.  Both stages read the data through _ring_maps,
    whose monomial values are tabled per map, and look a map's verdict up
    per image point, so most tested points cost neither a power nor an
    evaluation of an image polynomial.
    """
    p, n = poly.p, len(vectors)
    rows, vanish, lifted = _fp_filter(poly, [offset, *vectors])
    echelon = Echelon([dict(enumerate(row)) for row in rows[1:]], p)
    free = {k for k, _ in echelon.free}
    pivots = [k for k in range(n) if k not in free]
    kernel, weights = echelon.kernel(), [p ** (n - 1 - k) for k in range(n)]
    images = fp_span(p, [rows[k + 1] for k in pivots], rows[0])
    indices = []
    for digits, flat in zip(itertools.product(range(p), repeat=len(pivots)),
                            images):
        if vanish(flat):
            start = [0] * n
            for k, d in zip(pivots, digits):
                start[k] = d
            indices += (sum(d % p * w for d, w in zip(preimage, weights))
                        for preimage in fp_span(p, kernel, start))
    out = []
    for index in sorted(indices):
        digits = [index // w % p for w in weights]
        if lifted([(0, 1)] + [(k + 1, d) for k, d in enumerate(digits)]):
            x = offset
            for v, d in zip(vectors, digits):
                for _ in range(d):
                    x = point_add(x, v)
            if poly.evaluate(x).is_zero():
                out.append(x)
    return out


def _swept_window(gamma: PhiModule, poly: MultiPoly, enum_deg: int):
    """_swept_zeros over the window Phi_c(gens), deg c_i <= enum_deg, in
    _window_vectors' order; a window of more than _ENUM_CAP points is
    refused before any iterate is built."""
    if gamma.rank and _over_enum_cap(gamma.p, gamma.rank * (enum_deg + 1)):
        raise ValueError("enumeration bound too large for an exact sweep")
    return _swept_zeros(gamma.zero_point(), _window_vectors(gamma, enum_deg),
                        poly)


def _minimize_generators(gamma: PhiModule, deg_bound: int) -> PhiModule:
    """Drop generators that the remaining ones already produce.

    Each candidate is gamma.sub of the remaining generators: it reads their
    orbits from the lineage memo, and the family it prepares serves every
    later module of the lineage on the same generators, the one returned
    included.
    """
    i = 0
    while i < gamma.rank:
        gens = gamma.gens
        rest = gamma.sub(gens[:i] + gens[i + 1:], gamma.notes)
        if rest.rank and member(rest, gens[i], deg_bound).found:
            gamma = rest
        else:
            i += 1
    return gamma


def _closure_checks(gamma: PhiModule, points, tracked_places,
                    precision: int, deg_bound: int, certificates, notes):
    """closure_member at each point, in order: each report is appended to
    certificates and each open rejection noted.  Returns the K-side, since
    in_gamma rides on an exact membership certificate, and whether some
    rejection was open."""
    k_side, open_ = [], False
    for x in points:
        rep = closure_member(gamma, x, tracked_places, precision, deg_bound)
        certificates.append((f"closure:{point_to_str(x)}",
                             rep.to_json_dict()))
        if rep.in_gamma:
            k_side.append(x)
        elif not rep.conclusive:
            open_ = True
            notes.append(f"closure-open-at-{point_to_str(x)}")
    return k_side, open_


# -- generic characteristic ----------------------------------------------------


def generic_char_experiment(gamma: PhiModule, variety,
                            tracked_places=None,
                            deg_bound: int = STANDARD_DEG_BOUND,
                            cutoff: int = STANDARD_CUTOFF,
                            precision: int = STANDARD_CUTOFF,
                            enum_deg: int = 3) -> ExperimentReport:
    """Generic-characteristic closure theorem on one instance.

    Discreteness certificates at the tracked places pin the closure to the
    module itself inside the bounded window, so the K-side intersection is
    the whole answer; zero-dimensional instances get closure-membership
    spot checks on top.  A hypersurface's K-side is swept over the window
    of operator degree <= enum_deg by _swept_zeros: vanishing images under
    the ring maps into F_p (stage 1) and then into F_{p^2} (stage 2) are
    only necessary conditions that rule points out, and every K-side point
    is still evaluated exactly.
    """
    if gamma.phi.characteristic != GENERIC:
        raise ValueError("generic-characteristic module required")
    _require_variety(variety, gamma.p)
    _require_bounds(deg_bound, precision, cutoff, enum_deg)
    if variety.g != gamma.g:
        raise ValueError("variety width disagrees with the module")
    tracked_places = (standard_tracked_places(gamma) if tracked_places is None
                      else require_places(tracked_places))

    certificates = []
    notes = []
    discrete_ok = True
    for v in tracked_places:
        cert = discreteness_certificate(gamma, v, deg_bound, cutoff)
        certificates.append((f"discreteness:{place_to_str(v)}",
                             cert.to_json_dict()))
        if "cutoff-reached" in cert.notes:
            discrete_ok = False
            notes.append(f"discreteness-open-at-{place_to_str(v)}")

    inconclusive = not discrete_ok
    if isinstance(variety, ZeroDim):
        k_side, open_ = _closure_checks(gamma, variety.points, tracked_places,
                                        precision, deg_bound, certificates,
                                        notes)
        inconclusive = inconclusive or open_
        adelic = k_side
    else:
        k_side = _swept_window(gamma, variety.poly, enum_deg)
        adelic = list(k_side) if discrete_ok else None
        notes.append(f"hypersurface-swept-to-operator-degree-{enum_deg}")

    k_side = _sorted_points(k_side)
    adelic_side = None if adelic is None else _sorted_points(adelic)
    if adelic_side is not None:
        if not set(k_side) <= set(adelic_side):
            raise AssertionError("K-side escaped the adelic side")

    verdict = _verdict((), inconclusive)
    bounds = {"deg_bound": deg_bound, "cutoff": cutoff,
              "precision": precision, "enum_deg": enum_deg}
    return ExperimentReport("generic-characteristic", verdict, k_side,
                            adelic_side, tuple(certificates), bounds,
                            ("module-discrete-at-tracked-places",),
                            (), tuple(notes))


# -- special characteristic, zero-dimensional ----------------------------------


def _torsion_reduction_injective(torsion_points, v) -> bool:
    images = {tuple(residue_reduce(c, v) for c in x) for x in torsion_points}
    return len(images) == len(torsion_points)


def zero_dim_intersection(gamma: PhiModule, variety: ZeroDim,
                          tracked_places=None, precision: int = STANDARD_CUTOFF,
                          deg_bound: int = STANDARD_DEG_BOUND) -> ExperimentReport:
    """Special-characteristic closure theorem for finite point sets.

    Mixed limit assignments (different variety points at different places)
    are ruled out pairwise: a non-torsion difference is rejected by the
    bounded annihilator search, a torsion difference by injectivity of the
    reduction on the finite torsion set.  What survives is per-point
    closure membership, so the two sides are compared point by point.
    """
    if gamma.phi.characteristic != SPECIAL:
        raise ValueError("special-characteristic module required")
    if not isinstance(variety, ZeroDim):
        raise ValueError("zero-dimensional variety required")
    _require_variety(variety, gamma.p)
    _require_bounds(deg_bound, precision)
    if variety.g != gamma.g:
        raise ValueError("variety width disagrees with the module")
    if tracked_places is not None:
        tracked_places = require_places(tracked_places)
    full = is_full(gamma, member_bound=deg_bound)
    if full.kind != "full_up_to_bounds":
        raise ValueError("module not full up to the stated bounds")
    gamma = _minimize_generators(gamma, deg_bound)
    if tracked_places is None:
        tracked_places = standard_tracked_places(gamma)
    return _zero_dim_report(gamma, variety, tracked_places, precision,
                            deg_bound, full)


def _zero_dim_report(gamma: PhiModule, variety: ZeroDim, tracked_places,
                     precision: int, deg_bound: int, full):
    """zero_dim_intersection on a module already minimised, whose fullness
    scan gave the report full."""
    notes = _fullness_notes(full)
    assumptions = ["full-up-to-bounds"]
    m_rep = estimate_torsion_level_m(gamma.phi, 4)
    assumptions.append(f"t-power-torsion-level-m<={m_rep.m}")
    if m_rep.inconclusive:
        notes.append("m-estimate-inconclusive")
    probe = modular_transcendence_probe(gamma.phi)
    assumptions.append(f"modular-transcendence:{probe.verdict}")

    certificates = []
    inconclusive = bool(notes)      # a capped fullness scan or an open m

    # pseudo-torsion at finitely many witness places, each leak resting on
    # a bounded annihilator search, is a bounded finding, not a contradiction
    ctc = closure_torsion_check(gamma, tracked_places, deg_bound)
    certificates.append(("closure-torsion", ctc.to_json_dict()))
    if ctc.kind == "mismatch":
        inconclusive = True
        notes.append(f"closure-torsion-mismatch-at-"
                     f"{len(ctc.witness_places)}-places")

    injective_at = [v for v in tracked_places
                    if _torsion_reduction_injective(ctc.torsion_points, v)]
    pts = variety.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diff = point_add(pts[i], point_neg(pts[j]))
            torsion = all(torsion_annihilator(gamma.phi, c,
                                              max_deg=deg_bound).is_torsion
                          for c in diff)
            pair = f"{point_to_str(pts[i])}-{point_to_str(pts[j])}"
            if not torsion:
                notes.append(f"mixed-assignment-rejected-nontorsion:{pair}")
            elif injective_at:
                notes.append(f"mixed-assignment-rejected-reduction:{pair}")
            else:
                inconclusive = True
                notes.append(f"mixed-assignment-unresolved:{pair}")

    k_side, open_ = _closure_checks(gamma, pts, tracked_places, precision,
                                    deg_bound, certificates, notes)
    inconclusive = inconclusive or open_

    k_side = _sorted_points(k_side)
    adelic_side = list(k_side)
    if not set(k_side) <= set(adelic_side):
        raise AssertionError("K-side escaped the adelic side")

    verdict = _verdict((), inconclusive)
    bounds = {"deg_bound": deg_bound, "precision": precision,
              "prime_bound": full.prime_bound}
    return ExperimentReport("zero-dimensional", verdict, k_side, adelic_side,
                            tuple(certificates), bounds, tuple(assumptions),
                            (), tuple(notes))


# -- uniformity probe -----------------------------------------------------------


@dataclass(frozen=True)
class UniformityTable(Report):
    """Counts of (a + X) inside psi^m(K^g) per translate and level.

    certified means that no division solve raised a flag and that the
    image chain nests: each level's survivors lie inside the level below's.
    A flagged solve (theta-bound-capped, denominator-profile-truncated, ...)
    is listed in flags, and the counts at its level are relative to the
    capped bound.
    """
    psi: str
    variety: dict
    translates: tuple
    rows: tuple                   # ((translate_index, m, count), ...)
    max_counts: tuple             # ((m, max over translates), ...)
    certified: bool
    flags: tuple
    notes: tuple = ()

    SCHEMA = SCHEMA
    KIND = "uniformity-table"


def theta_box(p: int, g: int, theta_degree: int):
    """All points whose coordinates are theta-polynomials with F_p digits;
    a box of more than _ENUM_CAP points is refused before it is built.

    The box is the fp_span of _theta_box_vectors, the first coordinate
    slowest and, within a coordinate, the constant digit slowest.
    """
    zero = tuple(KElem.zero(p) for _ in range(g))
    return tuple(fp_span(p, _theta_box_vectors(p, g, theta_degree), zero))


def _theta_box_vectors(p: int, g: int, theta_degree: int):
    """The points theta^j e_k spanning theta_box, after its refusals."""
    if theta_degree < 0:
        raise ValueError("negative theta degree")
    if _over_enum_cap(p, g * (theta_degree + 1)):
        raise ValueError("theta box too large to enumerate")
    zero = tuple(KElem.zero(p) for _ in range(g))
    powers = [KElem.theta(p) ** j for j in range(theta_degree + 1)]
    return [zero[:k] + (power,) + zero[k + 1:]
            for k in range(g) for power in powers]


def _reject_parametrized_lines(spec, hits, p: int, translate=None):
    """Refutation probe: a full F_p-line inside the variety that also
    survives two transcendental direction probes is treated as a line.
    The hits lie on the variety, or on its translate by translate, and are
    probed as the points hit - translate of the variety."""
    if not isinstance(spec, Hypersurface) or len(hits) < p:
        return
    if translate is not None:
        hits = sorted((point_add(x, point_neg(translate)) for x in hits),
                      key=point_to_str)
    probes = [KElem.theta(p), KElem.t(p)]
    consts = [KElem.const(p, c) for c in range(p)]
    for base, other in itertools.combinations(hits[:12], 2):
        direction = point_add(other, point_neg(base))
        scalars = consts[1:] + probes
        on_line = True
        for s in scalars:
            shifted = point_add(base, tuple(s * c for c in direction))
            if not spec.poly.evaluate(shifted).is_zero():
                on_line = False
                break
        if on_line:
            raise ValueError("variety contains an additively parametrized"
                             " line inside the box")


def _coordinate_keys(points):
    """One key per K-point of a family: slot by slot, the F_p-coefficients
    of x_j * D_j, D_j the slot's common denominator (kfield.coordinates),
    dense over the union of the slot's supports.

    y -> y * D_j is injective and a polynomial is its coefficients, so
    the key of x - a, the coordinatewise difference of x's and a's keys mod
    p, is equal for two shifted points of the family exactly when the
    points are equal.
    """
    slots = []
    for column in zip(*points):
        vectors = coordinates(column)
        support = sorted(set().union(*vectors))
        slots.append([tuple(v.get(m, 0) for m in support) for v in vectors])
    return [sum(parts, ()) for parts in zip(*slots)]


def uniformity_probe(psi: TwistedPoly, variety, translates, m_range,
                     box) -> UniformityTable:
    """Counts of (a + X) inside successive images psi^m within a box.

    Membership in psi^m(K^g) is decided coordinate-wise by the bounded
    division solver; the image chain is verified to nest exactly, which
    certifies the non-increasing counts rather than merely observing them.

    The hit sets run on F_p-coordinates.  The memo of variety tests is
    keyed by the key of x - a, the difference mod p of the keys of x and a
    from _coordinate_keys, so each distinct shifted point is tested once
    per call, however many translates reach it, and is built exactly only
    on a memo miss.  On a Hypersurface, box points are grouped by their
    rows under stage 1 of _fp_filter (ring maps into F_p), and a class is
    tried for a translate only when its row minus the translate's passes;
    on a memo miss, x - a must pass stage 2 (ring maps into F_{p^2}) as the
    combination (1*x, (p-1)*a) before it is built.  Both stages only ever
    rule a point out; they read box and translates through _ring_maps,
    under p maps each when no coordinate involves t, and memoise each
    map's verdict per image point.  The line probe runs on translate 0's
    hits x as the points x - a_0 of the variety.

    The solver runs once per level, on the distinct hits of all
    translates together, and each translate reads its survivors off that
    one solve.  Every target is therefore solved under the bounds derived
    from the level's whole target set, which are never below the bounds
    its own translate's hits would derive; since every solution is
    re-verified, a survivor set can only grow against a per-translate
    solve, never lose a point.
    """
    if psi.is_zero() or psi.tau_valuation < 1:
        raise ValueError("probe wants an inseparable additive map")
    p = psi.p
    _require_variety(variety, p)
    g = variety.g
    translates, box = [tuple(a) for a in translates], [tuple(x) for x in box]
    for what, points in (("translate", translates), ("box point", box)):
        for x in points:
            if len(x) != g:
                raise ValueError(f"{what} width disagrees with the variety")
            if not all(isinstance(c, KElem) and c.p == p for c in x):
                raise ValueError(f"{what} coordinates outside K over F_{p}")
    ms = sorted(set(int(m) for m in m_range))
    if ms and ms[0] < 0:
        raise ValueError("negative iterate")

    powers = {}
    acc = None
    for level in range(1, (ms[-1] if ms else 0) + 1):
        acc = psi if acc is None else tp_compose(acc, psi)
        powers[level] = acc

    points = box + translates
    if isinstance(variety, Hypersurface):
        rows, vanish, lifted = _fp_filter(variety.poly, points)
    else:
        rows = [()] * len(points)
        vanish = lifted = lambda _: True
    keys = _coordinate_keys(points)
    classes = {}
    for i, (x, row, key) in enumerate(zip(box, rows, keys)):
        classes.setdefault(row, []).append((i, x, key))

    # x - a revisits the same points across translates (a shifted box is
    # mostly the box again): key -> whether x - a lies on the variety
    contains = {}
    hit_sets = []
    distinct = {}
    for idx, a in enumerate(translates):
        neg_a = point_neg(a)
        shift, key_a = rows[len(box) + idx], keys[len(box) + idx]
        hits = {}
        for row, members in classes.items():
            if not vanish(tuple((r - s) % p for r, s in zip(row, shift))):
                continue
            for i, x, key_x in members:
                key = tuple([(u - v) % p for u, v in zip(key_x, key_a)])
                hit = contains.get(key)
                if hit is None:
                    hit = contains[key] = lifted(
                        ((i, 1), (len(box) + idx, p - 1))) and \
                        variety_contains(variety, point_add(x, neg_a))
                if hit:
                    hits[x] = None
        if idx == 0:
            _reject_parametrized_lines(variety, list(hits), p, a)
        hit_sets.append(set(hits))
        distinct.update(hits)

    # each level is solved independently from the hits, so the nesting
    # check below cross-examines the solver rather than restating the
    # construction
    distinct = list(distinct)
    targets = [c for x in distinct for c in x]
    flags = set()
    survivors = {}
    for m in ms:
        if m == 0:
            continue
        results = solve_additive_many(powers[m], targets) if targets else []
        for r in results:
            flags.update(r.info.flags)
        survivors[m] = {x for which, x in enumerate(distinct)
                        if all(r.points
                               for r in results[which * g:(which + 1) * g])}

    rows = []
    notes = []
    certified = not flags
    per_m_max = {m: 0 for m in ms}
    for idx, hits in enumerate(hit_sets):
        level_sets = {m: hits if m == 0 else hits & survivors[m] for m in ms}
        for m in ms:
            rows.append((idx, m, len(level_sets[m])))
            per_m_max[m] = max(per_m_max[m], len(level_sets[m]))
        for lo, hi in zip(ms, ms[1:]):
            if not level_sets[hi] <= level_sets[lo]:
                certified = False
                notes.append(f"nesting-violated-by-bounds:translate-{idx}"
                             f":m-{lo}-to-{hi}")

    return UniformityTable(
        str(psi), variety.to_json_dict(),
        tuple(point_to_str(a) for a in translates), tuple(rows),
        tuple((m, per_m_max[m]) for m in ms), certified,
        tuple(sorted(flags)), tuple(notes))


# -- reduction of a hypersurface instance to a zero-dimensional one -------------


def uniform_dml_reduce(gamma: PhiModule, variety: Hypersurface, m: int,
                       tracked_places=None, precision: int = STANDARD_CUTOFF,
                       deg_bound: int = STANDARD_DEG_BOUND, box_degree: int = 2,
                       enum_deg: int = 3):
    """Replace a hypersurface instance by a finite candidate set W.

    Coset representatives of the quotient by Phi_{t^m} tile the module, so
    the variety meets each tile in the points enumerated here; W collects
    them and the zero-dimensional pipeline finishes the job.  Candidate
    windows are bounded, and a bounded module point on the variety that
    escapes W downgrades the verdict instead of being absorbed.  Those
    module points, and the tiles' points, come from the same sweep as the
    generic pipeline's: the ring maps into F_p and F_{p^2} of _fp_filter's
    two stages only rule points out, and every point reported is evaluated
    exactly.
    """
    if gamma.phi.characteristic != SPECIAL:
        raise ValueError("special-characteristic module required")
    if not isinstance(variety, Hypersurface):
        raise ValueError("hypersurface instance required")
    _require_variety(variety, gamma.p)
    if variety.g != gamma.g:
        raise ValueError("variety width disagrees with the module")
    if m < 0:
        raise ValueError("negative power of t")
    _require_bounds(deg_bound, precision, enum_deg=enum_deg)
    if tracked_places is not None:
        tracked_places = require_places(tracked_places)
    box_vectors = _theta_box_vectors(gamma.p, gamma.g, box_degree)
    full = is_full(gamma, member_bound=deg_bound)
    if full.kind != "full_up_to_bounds":
        raise ValueError("module not full up to the stated bounds")
    gamma = _minimize_generators(gamma, deg_bound)
    if tracked_places is None:
        tracked_places = standard_tracked_places(gamma)
    p = gamma.p

    certificates = []
    notes = _fullness_notes(full)
    inconclusive = bool(notes)

    a = RPoly.from_coeffs(p, [0] * m + [1])
    q = quotient(gamma, a, deg_bound)
    if "representatives-omitted" in q.flags:
        # no tile is swept, so W covers none of the module
        inconclusive = True
        notes.append("quotient-representatives-omitted")
    iso = quotient_iso_check(gamma, a, tracked_places, precision, deg_bound)
    certificates.append(("quotient-iso", iso.to_json_dict()))
    if iso.kind != "confirmed":
        inconclusive = True
        notes.append("quotient-separation-open")

    # Phi_a is F_p-linear, so each tile rep + Phi_a(box) is the span of the
    # images of the box's spanning vectors, offset by rep
    images = [_op_on_point(gamma.phi, a, z) for z in box_vectors]
    w = ZeroDim(gamma.g, _sorted_points(
        x for rep in q.reps for x in _swept_zeros(rep, images, variety.poly)))
    for x in w.points:
        if not variety.poly.evaluate(x).is_zero():
            raise AssertionError("W left the variety")
    _reject_parametrized_lines(variety, list(w.points), p)

    sub = _zero_dim_report(gamma, w, tracked_places, precision, deg_bound,
                           full) if w.points else None
    if sub is not None:
        certificates.append(("zero-dim", sub.to_json_dict()))
        k_side = sub.k_side
        adelic_side = sub.adelic_side
    else:
        k_side = ()
        adelic_side = ()
        notes.append("empty-candidate-set")

    trace = []
    k_points = set(k_side)
    for x in _swept_window(gamma, variety.poly, enum_deg):
        if x not in w.keys:
            inconclusive = True
            notes.append(f"module-point-outside-window:{point_to_str(x)}")
        elif x not in k_points:
            trace.append(f"swept point {point_to_str(x)} missing from the"
                         " K side")

    if sub is not None and sub.verdict == INCONCLUSIVE:
        inconclusive = True

    verdict = _verdict(trace, inconclusive)
    bounds = {"deg_bound": deg_bound, "precision": precision,
              "box_degree": box_degree, "enum_deg": enum_deg,
              "m": m, "quotient_order": q.order}
    report = ExperimentReport("uniform-reduction", verdict, k_side,
                              adelic_side, tuple(certificates), bounds,
                              ("full-up-to-bounds",
                               "no-parametrized-line-found-in-window"),
                              tuple(trace), tuple(notes))
    return w, report
