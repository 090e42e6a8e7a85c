"""Drinfeld modules over K and their torsion / division-point solvers.

A module is determined by the image of t: a twisted polynomial with
differential t (generic characteristic) or 0 (special characteristic, where
the lowest surviving tau-index is the inseparability depth d).  The action
of any operator a(t) follows by composition, so solving Phi_a(X) = y is an
F_p-linear problem once a search space is fixed.  The search space is where
honesty lives.  Newton-polygon balancing of the additive polynomial (Goss,
Basic Structures of Function Field Arithmetic, 1996; see _pole_bound) bounds
the pole order of a solution at every prime of F_p[t, theta] and at the
two infinities: the primes that can carry a pole give the denominator
profile, theta = infinity gives the theta-degree and t = infinity the
t-degree.  All three are proven, so the search is exhaustive, and a cap
that clips it is reported as a flag when it fires.  Every returned point is
re-verified, so false positives are impossible and completeness claims are
always relative to the reported bounds.  Over F_p(t), which lies in K, the
same solver answers the residue equations of localfield, and the reduction
of phi at a place theta + g(t) is a DrinfeldModule over it (reduction), so
torsion_annihilator searches residue torsion too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .base import Echelon, RPoly, fp_span
from .factor import factor_bipoly, factor_rpoly
from .kfield import (BiPoly, KElem, bi_divexact, bipoly_pth_root, bipoly_vector,
                     common_denominator, coordinates, height, kelem_sort_key,
                     kelem_to_str)
from .places import _FACTOR_DEG_CAP, Place, residue_reduce, valuation
from .twisted import TwistedPoly, tp_add, tp_compose, tp_eval, tp_parse, tp_scale, tp_to_str

GENERIC = "generic"
SPECIAL = "special"


class DrinfeldModule:
    """phi: F_p[t] -> K{tau}, pinned down by phi_t."""

    __slots__ = ("phi_t", "characteristic", "_t_powers")

    def __init__(self, phi_t: TwistedPoly):
        if phi_t.tau_degree < 1:
            raise ValueError("phi_t must have positive tau-degree")
        c0 = phi_t.coeff(0)
        if c0 == KElem.t(phi_t.p):
            self.characteristic = GENERIC
        elif c0.is_zero():
            self.characteristic = SPECIAL
        else:
            raise ValueError("differential must be t (generic) or 0 (special)")
        self.phi_t = phi_t
        self._t_powers = [TwistedPoly.identity(phi_t.p), phi_t]

    @classmethod
    def from_coeffs(cls, p: int, coeffs) -> "DrinfeldModule":
        return cls(TwistedPoly(p, coeffs))

    @classmethod
    def parse(cls, p: int, text: str, characteristic: str | None = None) -> "DrinfeldModule":
        phi = cls(tp_parse(p, text))
        if characteristic is not None and characteristic != phi.characteristic:
            raise ValueError(
                f"declared characteristic {characteristic!r} but phi_t is {phi.characteristic}")
        return phi

    @property
    def p(self) -> int:
        return self.phi_t.p

    def phi_t_power(self, j: int) -> TwistedPoly:
        """Phi_{t^j}, cached."""
        if j < 0:
            raise ValueError("negative operator power")
        while len(self._t_powers) <= j:
            self._t_powers.append(tp_compose(self.phi_t, self._t_powers[-1]))
        return self._t_powers[j]

    def __eq__(self, other):
        return isinstance(other, DrinfeldModule) and self.phi_t == other.phi_t

    def __repr__(self):
        return f"DrinfeldModule({tp_to_str(self.phi_t)}, {self.characteristic})"


def reduction(phi: DrinfeldModule, v: Place) -> DrinfeldModule:
    """The reduction of phi at a good place v = theta + g(t): the Drinfeld
    module over the residue field F_p(t), inside K, whose phi_t has the
    residues of phi's coefficients (Goss, Basic Structures of Function
    Field Arithmetic, 1996).  At a good place the differential, t or 0,
    and the tau-degree survive, so reduction commutes with every Phi_a."""
    return DrinfeldModule.from_coeffs(phi.p, [
        KElem.from_felem(residue_reduce(c, v)) for c in phi.phi_t.coeffs])


def reduce_point(x, v: Place):
    """The residues of a v-integral point, as a point over F_p(t) in K."""
    return tuple(KElem.from_felem(residue_reduce(c, v)) for c in x)


def phi_action(phi: DrinfeldModule, a: RPoly) -> TwistedPoly:
    """Phi_a = a(Phi_t)."""
    if a.p != phi.p:
        raise ValueError("modulus mismatch")
    acc = TwistedPoly.zero(phi.p)
    for j, e in a.c.items():
        acc = tp_add(acc, tp_scale(phi.phi_t_power(j), KElem.const(phi.p, e)))
    return acc


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the monomial conjugation scan.

    degree_zero_witness: some gamma = t^i theta^j makes every coefficient of
    the conjugate constant.  inconclusive_positive: no monomial works inside
    the range; the probe cannot decide anything stronger.
    """
    verdict: str
    witness: KElem | None
    scanned: int
    max_exponent: int


def modular_transcendence_probe(phi: DrinfeldModule) -> ProbeReport:
    """The first gamma = t^i theta^j, |i|, |j| <= 2 (by |i| + |j|, i, j),
    whose conjugate gamma^{-1} phi_t(gamma x) has its coefficients
    c_k gamma^(p^k - 1) in F_p: each c_k is 0 or a t^(-i(p^k - 1))
    theta^(-j(p^k - 1)), a in F_p^x, so the scan reads exponents and
    builds only the witness."""
    p = phi.p
    max_exponent = 2
    candidates = sorted(
        ((i, j) for i in range(-max_exponent, max_exponent + 1)
         for j in range(-max_exponent, max_exponent + 1)),
        key=lambda ij: (abs(ij[0]) + abs(ij[1]), ij[0], ij[1]))
    terms = [(p ** k - 1, (c.num.t_degree - c.den.t_degree,
                           c.num.theta_degree - c.den.theta_degree)
              if c.num.term_count() == c.den.term_count() == 1 else None)
             for k, c in enumerate(phi.phi_t.coeffs) if not c.is_zero()]
    for scanned, (i, j) in enumerate(candidates, 1):
        if all(e == (-i * q, -j * q) for q, e in terms):
            gamma = KElem.t(p) ** i * KElem.theta(p) ** j
            return ProbeReport("degree_zero_witness", gamma, scanned, max_exponent)
    return ProbeReport("inconclusive_positive", None, len(candidates),
                       max_exponent)


# -- the bounded F_p-linear division solver ----------------------------------


# the most unknowns per degree of a clipped search basis, and the most
# points p^k of a solution kernel that is enumerated
_HARD_CAP = 24
_ENUM_CAP = 7000


@dataclass(frozen=True)
class SolveInfo:
    theta_bound: int
    t_bound: int
    denominator: str
    kernel_dim: int
    flags: tuple = ()


@dataclass(frozen=True)
class DivisionResult:
    points: tuple
    info: SolveInfo


def _pole_bound(p: int, vals, vy) -> int:
    """The largest pole order e >= 0 that X with f(X) = y can have at a place.

    vals lists (i, v(c_i)) for the nonzero coefficients of f = sum c_i tau^i
    in ascending i; vy is a lower bound for v(y) over the nonzero targets, or
    None when every target is zero.  If X has a pole of order e >= 1, the
    term c_i X^{p^i} has valuation v(c_i) - e p^i, and one of two cases holds:

    - two terms i < j tie at the minimum, so e = (v(c_j) - v(c_i)) /
      (p^j - p^i), which needs v(c_j) > v(c_i);
    - one term is the unique minimum, so v(y) = min_k (v(c_k) - e p^k) is at
      most v(c_i) - e p^i for every i, and e <= (v(c_i) - vy) / p^i for
      every i.  A zero target rules this case out.

    This is the Newton polygon of an additive polynomial (Goss, Basic
    Structures of Function Field Arithmetic, 1996).
    """
    e = 0
    for (i, vi), (j, vj) in itertools.combinations(vals, 2):
        if vj > vi:
            e = max(e, (vj - vi) // (p ** j - p ** i))
    if vy is not None:
        e = max(e, min((vi - vy) // p ** i for i, vi in vals))
    return e


def _rpoly_mult(f: RPoly, q: RPoly) -> int:
    """The multiplicity of q in a nonzero f."""
    k = 0
    while True:
        quo, rem = divmod(f, q)
        if not rem.is_zero():
            return k
        f = quo
        k += 1


def _solution_denominator(f: TwistedPoly, ys, flags) -> BiPoly:
    """Exact pole profile for X with f(X) = y, from valuation balancing.

    The primes of F_p[t, theta] are the theta-primes, each a finite place
    of K over F_p(t), and the t-primes q(t), whose Gauss valuation
    w_q(sum a_b theta^b) = min_b v_q(a_b) is a valuation of K by Gauss's
    lemma.  At each prime in the support below, _pole_bound caps the pole
    order of X, and den is the product of each prime to that order.  No
    other prime can carry a pole: there every c_i is integral, the leading
    coefficient c_D is a unit and y is integral, and a pole of order e >= 1
    would make c_D X^{p^D}, of valuation -e p^D, the unique term of least
    valuation, since -e p^i > -e p^D for i < D; then v(y) = -e p^D < 0.  So
    den X lies in F_p[t, theta] for every solution X, and the support is
    the primes dividing a coefficient denominator, the leading
    coefficient's numerator or a target denominator; the numerators of the
    lower coefficients are not factored.
    """
    p = f.p
    nz = [(i, c) for i, c in enumerate(f.coeffs) if not c.is_zero()]
    nonzero = [y for y in ys if not y.is_zero()]
    prims = {}
    t_content = {}      # factored part -> {q: multiplicity of q}

    def collect(part):
        if len(part.c) == 1:
            # c(t) theta^k: theta is the one theta-prime, if any
            (k, c), = part.c.items()
            if k:
                theta = BiPoly.theta(p)
                prims[theta.key()] = theta
            t_content[part] = dict(factor_rpoly(c)[1]) if c.degree >= 1 else {}
            return
        root, scale = part, 1
        while root.theta_degree > _FACTOR_DEG_CAP:
            # a p-th power has the primes of its root
            root = bipoly_pth_root(root)
            if root is None:
                flags.add("denominator-profile-truncated")
                return
            scale *= p
        _, tf, thf = factor_bipoly(root)
        for prim, _m in thf:
            prims[prim.key()] = prim
        t_content[part] = {q: m * scale for q, m in tf}

    for _i, c in nz:
        collect(c.den)
    collect(nz[-1][1].num)
    for y in nonzero:
        collect(y.den)

    def mult(part, q):
        m = t_content.get(part)
        return _rpoly_mult(part.content(), q) if m is None else m.get(q, 0)

    primes = [(prim, lambda x, v=Place(p, prim, _checked=True): valuation(x, v))
              for _key, prim in sorted(prims.items())]
    primes += [(BiPoly.from_rpoly(q), lambda x, q=q: mult(x.num, q) - mult(x.den, q))
               for q in {q for m in t_content.values() for q in m}]
    den = BiPoly.one(p)
    for prime, val in primes:
        # a polynomial y has v(y) >= 0 at every finite prime, so 0 bounds
        # it from below and only genuine fractions need a valuation
        vy = min([0] + [val(y) for y in nonzero
                        if not y.den.is_one()]) if nonzero else None
        den = den * prime ** _pole_bound(p, [(i, val(c)) for i, c in nz], vy)
    return den


def _fraction_free_images(f: TwistedPoly, nums, d: BiPoly):
    """Numerators N_k and one denominator E with f(nums[k] / d) = N_k / E.

    Write f = sum_i c_i tau^i with c_i = a_i / b_i, L = lcm(b_i) and D the
    tau-degree.  Then, with no gcd anywhere,

        f(n / d) = sum_i a_i (L / b_i) n^{p^i} d^{p^D - p^i} / (L d^{p^D}),

    so E = L d^{p^D}, each p^i-th power of n is an exponent stretch and the
    d-powers are formed once per call.  The quotient n / d need not be
    reduced, which lets the division solver keep its shared denominator.
    """
    p = f.p
    terms = [(i, c) for i, c in enumerate(f.coeffs) if not c.is_zero()]
    lcm = common_denominator([c for _i, c in terms])
    top = p ** f.tau_degree
    weights = [(p ** i, bi_divexact(lcm, c.den) * c.num * d ** (top - p ** i))
               for i, c in terms]
    images = []
    for n in nums:
        acc = BiPoly.zero(p)
        for q, w in weights:
            acc = acc + n.stretch(q) * w
        images.append(acc)
    return images, lcm * d ** top


def _degree_bounds(f: TwistedPoly, ys, den: BiPoly):
    """The derived bounds (b_theta, b_t) of _division_system."""
    nz = [(i, c) for i, c in enumerate(f.coeffs) if not c.is_zero()]
    nonzero = [y for y in ys if not y.is_zero()]

    def bound(deg):
        return deg(den) + _pole_bound(
            f.p, [(i, deg(c.den) - deg(c.num)) for i, c in nz],
            min((deg(y.den) - deg(y.num) for y in nonzero), default=None))

    return bound(lambda g: g.theta_degree), bound(lambda g: g.t_degree)


def _division_system(f: TwistedPoly, ys):
    """The bounded F_p-linear system of f(X) = y, y in ys: (den, (b_theta,
    b_t), basis_nums, columns, rhs, flags), where X = sum u_k basis_nums[k]
    / den solves f(X) = ys[m] iff sum u_k columns[k] = rhs[m].  den and
    the bounds hold for every F_p-combination of ys as well.

    The search space is t^a theta^b / den with b <= b_theta, a <= b_t and
    den in F_p[t, theta] the denominator profile of _solution_denominator,
    so every solution X has den X in F_p[t, theta].  The bounds are
    derived from the data (_degree_bounds):

    - b_theta is E + deg_theta(den), E the pole bound of _pole_bound at
      theta = infinity, where v(x) = deg_theta(den x) - deg_theta(num x);
    - b_t is E_t + deg_t(den), E_t the pole bound at t = infinity, where
      v(x) = deg_t(den x) - deg_t(num x).

    Both are proven: deg X <= E in either variable, so den X has degree
    at most E + deg(den) in it.  _HARD_CAP bounds the count of unknowns:
    a derived basis with (b_theta + 1)(b_t + 1) > (_HARD_CAP + 1)^2 is
    clipped at _HARD_CAP in each degree and flagged, and a solution
    outside the derived bounds exists only when such a flag fired.
    """
    p = f.p
    flags = set()
    den = _solution_denominator(f, ys, flags)
    bounds = _degree_bounds(f, ys, den)
    if (bounds[0] + 1) * (bounds[1] + 1) > (_HARD_CAP + 1) ** 2:
        flags.update(f"{name}-bound-capped"
                     for name, b in zip(("theta", "t"), bounds) if b > _HARD_CAP)
        bounds = tuple(min(b, _HARD_CAP) for b in bounds)
    b_theta, b_t = bounds

    basis_nums = [BiPoly.monomial(p, b, a)
                  for b in range(b_theta + 1) for a in range(b_t + 1)]
    images, image_den = _fraction_free_images(f, basis_nums, den)
    y_den = common_denominator(ys) if ys else BiPoly.one(p)
    if not y_den.is_one():
        images = [n * y_den for n in images]
    rhs = [bipoly_vector(y.num * image_den * bi_divexact(y_den, y.den))
           for y in ys]
    return (den, (b_theta, b_t), basis_nums,
            [bipoly_vector(n) for n in images], rhs, flags)


def solve_additive_many(f: TwistedPoly, ys):
    """All bounded X with f(X) = y, for each y, sharing one elimination.

    Returns a list of DivisionResult in the order of ys.  The search
    bounds are derived only, from f and ys (_division_system).  Soundness
    is absolute (every point re-verified); completeness is relative to the
    reported bounds and denominator profile, and a kernel of more than
    _ENUM_CAP points raises RuntimeError.
    """
    if f.is_zero():
        raise ValueError("cannot divide by the zero map")
    p = f.p
    ys = list(ys)
    den, (b_theta, b_t), basis_nums, columns, rhs, flags = \
        _division_system(f, ys)
    echelon = Echelon(columns, p)
    sols = [echelon.solve(vec) for vec in rhs]
    null = echelon.kernel()

    if p ** len(null) > _ENUM_CAP:
        raise RuntimeError(
            f"solution space too large to enumerate (p^{len(null)})")

    def combine(weights):
        acc = BiPoly.zero(p)
        for u, n in zip(weights, basis_nums):
            if u:
                acc = acc + n.scale(u)
        return acc

    kernel_offsets = [off for (off,) in fp_span(
        p, [(combine(vec),) for vec in null], (BiPoly.zero(p),))]

    info_base = SolveInfo(b_theta, b_t, kelem_to_str(KElem.from_bipoly(den)),
                          len(null), tuple(sorted(flags)))
    out = []
    for y, sol in zip(ys, sols):
        if sol is None:
            out.append(DivisionResult((), info_base))
            continue
        x0 = combine(sol)
        # distinct numerators over the shared den are distinct points
        points = []
        for off in kernel_offsets:
            x = KElem(x0 + off, den)
            if tp_eval(f, x) == y:
                points.append(x)
        points.sort(key=kelem_sort_key)
        out.append(DivisionResult(tuple(points), info_base))
    return out


def division_points(phi: DrinfeldModule, a: RPoly, y: KElem) -> DivisionResult:
    """All bounded X in K with Phi_a(X) = y."""
    if a.is_zero():
        raise ValueError("division by the zero operator")
    return solve_additive_many(phi_action(phi, a), [y])[0]


# -- torsion -----------------------------------------------------------------


@dataclass(frozen=True)
class TorsionCertificate:
    """Either a verified annihilator or a bounded non-torsion verdict.

    The not-torsion branch carries the height trace of the iterates as an
    auditable escape note; there is no effective global torsion bound to
    appeal to.
    """
    kind: str                       # "torsion" | "not_torsion_up_to"
    annihilator: RPoly | None
    degree_bound: int
    height_trace: tuple = ()

    @classmethod
    def torsion(cls, phi: DrinfeldModule, x: KElem, a: RPoly,
                degree_bound: int) -> "TorsionCertificate":
        if not tp_eval(phi_action(phi, a), x).is_zero():
            raise AssertionError("annihilator fails its defining identity")
        return cls("torsion", a, degree_bound)

    @classmethod
    def not_torsion(cls, degree_bound: int, trace) -> "TorsionCertificate":
        return cls("not_torsion_up_to", None, degree_bound, tuple(trace))

    @property
    def is_torsion(self) -> bool:
        return self.kind == "torsion"


def torsion_annihilator(phi: DrinfeldModule, x: KElem,
                        max_deg: int = 8) -> TorsionCertificate:
    """Search an F_p[t]-annihilator of x of degree <= max_deg.

    Iterates x_j = Phi_{t^j}(x) are coordinatised once and tested for
    F_p-linear dependence; the first dependence gives the monic minimal
    annihilator directly.
    """
    if max_deg < 1:
        raise ValueError("max_deg must be >= 1")
    if x.p != phi.p:
        raise ValueError("modulus mismatch")
    p = phi.p
    if x.is_zero():
        return TorsionCertificate.torsion(phi, x, RPoly.one(p), max_deg)
    iterates = [x]
    for j in range(1, max_deg + 1):
        iterates.append(tp_eval(phi.phi_t, iterates[-1]))
    relation = Echelon(coordinates(iterates), p).first_relation()
    if relation is not None:
        j, weights = relation
        a = RPoly.monomial(p, j) - RPoly.from_coeffs(p, weights)
        return TorsionCertificate.torsion(phi, x, a, max_deg)
    return TorsionCertificate.not_torsion(max_deg, (height(z) for z in iterates))


def k_rational_torsion(phi: DrinfeldModule, a: RPoly) -> DivisionResult:
    """Phi[a](K) within bounds; closure laws are re-checked exhaustively."""
    if a.is_zero():
        raise ValueError("torsion of the zero operator")
    res = division_points(phi, a, KElem.zero(phi.p))
    pts = set(res.points)
    for u in res.points:
        for v in res.points:
            if u + v not in pts:
                raise AssertionError("torsion set is not additively closed")
        if tp_eval(phi.phi_t, u) not in pts:
            raise AssertionError("torsion set is not an operator module")
    return res


@dataclass(frozen=True)
class TorsionLevelReport:
    m: int
    inconclusive: bool
    kernel_sizes: tuple


def estimate_torsion_level_m(phi: DrinfeldModule, m_max: int) -> TorsionLevelReport:
    """Smallest m with Phi[t^{m+1}](K) = Phi[t^m](K), or m_max inconclusive.

    K-rational proxy: the stabilisation statement lives over the separable
    closure, which no bounded K-side search can certify.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if phi.characteristic != SPECIAL:
        raise ValueError("torsion level estimation applies to special characteristic")
    p = phi.p
    t = RPoly.t(p)
    prev = set(k_rational_torsion(phi, RPoly.one(p)).points)
    sizes = [len(prev)]
    for m in range(m_max + 1):
        cur = set(k_rational_torsion(phi, t ** (m + 1)).points)
        sizes.append(len(cur))
        if cur == prev:
            return TorsionLevelReport(m, False, tuple(sizes))
        prev = cur
    return TorsionLevelReport(m_max, True, tuple(sizes))
