"""Finitely generated operator-submodules of K^g.

A module is presented by its generators; the operator ring acts diagonally
through the Drinfeld structure.  Everything linear over F_p[t] is pushed
down to F_p linear algebra on coordinate vectors of the bounded iterate
family {Phi_{t^j}(x_i)}, so syzygies, membership, quotients, and torsion all
ride on one base.Echelon of that family plus Smith reduction over F_p[t].
The fullness scan asks one F_p-kernel question per prime q, for the
division points of all its targets at once (_hull_scan).

PhiModule.family(deg_bound) is the family prepared once per generator
tuple and bound: the points, each slot's common denominator D_s and the
Echelon of the sparse F_p-vectors {(s, monomial): c} of x_s * D_s
(_family_vectors, which adelic also uses for residue families and digits).
Syzygies are its kernel; membership of y reduces y's vector against it.
Every F_p-combination of the family, times D_s, is a polynomial whose
monomials lie in the family's support, so a y failing either test is
decided not_found_up_to before any reduction.

A module lineage shares one memo: the module built by the caller and every
module derived from it through PhiModule.sub (divisible_hull's rounds and
result, _minimize_generators' candidates, quotient_iso_check's image) read
the same orbit of each generator and the same family, digit filtrations
and presentation of each generator tuple, so a sub-module on some of the
hull's generators iterates phi_t on none of them again.  No memo is
module-global: what a place alone determines, its truncated rings, the
place keeps.

_iterate_family is the one exact family: generator-major, then j = 0..bound,
so the weight of Phi_{t^j}(x_i) sits at index i * (bound + 1) + j.  It
reads orbit prefixes from the lineage memo and iterates only the missing
tail.  It and _op_on_point, the one application of Phi_a to a point, both
iterate phi_t on values and never compose Phi_{t^j} or Phi_a.
_op_on_point does not read the memo, so every re-verification evaluates
afresh.

No operation here is complete in an absolute sense: the ring is infinite
and the underlying search spaces are degree-bounded, so every negative
verdict is tagged with the bound it holds up to.  Positive answers are
always re-verified by exact evaluation before they are returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .base import Echelon, RMatrix, RPoly, fp_span, smith_normal_form
from .drinfeld import (DrinfeldModule, _division_system, phi_action,
                       solve_additive_many, torsion_annihilator)
from .factor import iter_irreducible_rpolys, rpoly_code
from .grammar import Parser
from .kfield import (BiPoly, KElem, bipoly_vector, common_denominator,
                     kelem_ring, kelem_sort_key, kelem_to_str)
from .twisted import tp_eval, tp_to_str

_REP_ENUM_CAP = 6561
_DEFAULT_BOUND = 8


# -- points of K^g ------------------------------------------------------------


def point_is_zero(x) -> bool:
    return all(c.is_zero() for c in x)


def point_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def point_neg(x):
    return tuple(-a for a in x)


def point_apply(f, x):
    """Coordinatewise twisted-polynomial action on a point."""
    return tuple(tp_eval(f, c) for c in x)


def point_sort_key(x):
    return tuple(kelem_sort_key(c) for c in x)


def point_to_str(x) -> str:
    """Text for reports, notes and printed orders; a point's identity is
    its value, the tuple of its KElem coordinates."""
    return "(" + ", ".join(kelem_to_str(c) for c in x) + ")"


def point_parse(p: int, text: str):
    parser = Parser(text)
    return tuple(parser.done(parser.items("(", ")", kelem_ring(p))))


def _iter_rpolys_below(p: int, deg: int):
    """All operator polynomials of degree < deg, in code order."""
    vectors = [(RPoly.monomial(p, j),) for j in reversed(range(deg))]
    return (c for (c,) in fp_span(p, vectors, (RPoly.zero(p),)))


# -- the module type ----------------------------------------------------------


class PhiModule:
    """Submodule of K^g spanned by finitely many points.

    A module built by the constructor starts a lineage memo, _memo, that
    every module made by sub shares.  It maps ("orbit", x) to x, Phi_t(x),
    ... as far as iterated; ("family", gens, deg_bound) to the
    IterateFamily; ("presentation", gens) to the syzygies at the largest
    bound so far, which serve any lower bound; and, for adelic,
    ("filtration", gens, deg_bound, v, n) to the digit filtration of the
    family embedded at v and ("discreteness", gens, v, deg_bound, cutoff)
    to a certificate.
    Entries are only replaced by longer orbits or presentations, or
    written once, so a concurrent first computation is redundant, never
    wrong; a filtration gains levels in place, from one thread at a time.
    """

    __slots__ = ("phi", "g", "gens", "notes", "_memo")

    def __init__(self, phi: DrinfeldModule, g: int, gens, notes=()):
        if g < 1:
            raise ValueError("ambient power must be positive")
        clean = []
        for x in gens:
            x = tuple(x)
            if len(x) != g:
                raise ValueError("generator of the wrong ambient power")
            for c in x:
                if not isinstance(c, KElem) or c.p != phi.p:
                    raise ValueError("generator coordinates must live in K")
            if not point_is_zero(x):
                clean.append(x)
        self.phi = phi
        self.g = g
        self.gens = tuple(clean)
        self.notes = tuple(notes)
        self._memo = {}

    def sub(self, gens, notes=()) -> "PhiModule":
        """The module on gens over the same phi and g, in this module's
        lineage: it shares the lineage memo."""
        out = PhiModule(self.phi, self.g, gens, notes)
        out._memo = self._memo
        return out

    @property
    def p(self) -> int:
        return self.phi.p

    @property
    def rank(self) -> int:
        return len(self.gens)

    def zero_point(self):
        return tuple(KElem.zero(self.p) for _ in range(self.g))

    def presentation(self, deg_bound: int = _DEFAULT_BOUND):
        """The syzygies at deg_bound, or those at a larger bound already
        computed in the lineage for these generators."""
        if deg_bound < 1:
            raise ValueError("deg_bound must be >= 1")
        key = ("presentation", self.gens)
        cached = self._memo.get(key)
        if cached is not None and cached[0] >= deg_bound:
            return cached[1]
        rel = syzygies(self, deg_bound)
        self._memo[key] = (deg_bound, rel)
        return rel

    def family(self, deg_bound: int) -> "IterateFamily":
        """The prepared iterate family at deg_bound, built on first use in
        the lineage for these generators."""
        if deg_bound < 0:
            raise ValueError("negative degree bound")
        key = ("family", self.gens, deg_bound)
        prepared = self._memo.get(key)
        if prepared is None:
            prepared = self._memo[key] = _prepare_family(self, deg_bound)
        return prepared

    def __eq__(self, other):
        return (isinstance(other, PhiModule) and self.phi == other.phi
                and self.g == other.g and self.gens == other.gens)

    def __repr__(self):
        return f"PhiModule({module_to_str(self)})"


def module_to_str(gamma: PhiModule) -> str:
    pts = "; ".join(point_to_str(x) for x in gamma.gens)
    return f"{tp_to_str(gamma.phi.phi_t)} :: {gamma.g} :: {pts}"


def module_parse(p: int, text: str) -> PhiModule:
    """Parse ``<phi_t> :: <g> :: <point>; <point>; ...`` in the `grammar`."""
    parser = Parser(text)
    ring = kelem_ring(p)
    phi = DrinfeldModule.from_coeffs(p, parser.items("[", "]", ring))
    parser.expect("::")
    g = parser.integer()
    parser.expect("::")
    gens = []
    while parser.peek() is not None:
        if gens:
            parser.expect(";")
        gens.append(tuple(parser.items("(", ")", ring)))
    return PhiModule(phi, g, gens)


# -- linearization ------------------------------------------------------------


def _orbit(phi: DrinfeldModule, x, n: int):
    """x, Phi_t(x), ..., Phi_{t^n}(x), by iterating phi_t on values."""
    out = [tuple(x)]
    for _ in range(n):
        out.append(point_apply(phi.phi_t, out[-1]))
    return out


def _iterate_family(gamma: PhiModule, deg_bound: int):
    """Points Phi_{t^j}(x_i): generator-major, then j = 0..deg_bound.

    Each orbit is read from the lineage memo; phi_t is applied only past
    the longest prefix iterated so far, and the longer orbit replaces it.
    """
    out = []
    for x in gamma.gens:
        orbit = gamma._memo.get(("orbit", x), [x])
        if len(orbit) <= deg_bound:
            orbit = orbit[:-1] + _orbit(gamma.phi, orbit[-1],
                                        deg_bound + 1 - len(orbit))
            gamma._memo["orbit", x] = orbit
        out.extend(orbit[:deg_bound + 1])
    return out


def _cleared_vector(x, dens):
    """The F_p-coefficients {(s, (theta_exp, t_exp)): c} of the polynomials
    x_s * dens[s], or None when one of them is not a polynomial."""
    vec = {}
    for s, (c, den) in enumerate(zip(x, dens)):
        cleared = c if den.is_one() else c * den
        if not cleared.is_polynomial():
            return None
        vec.update(((s, key), v) for key, v in bipoly_vector(cleared.num).items())
    return vec


@dataclass(frozen=True)
class IterateFamily:
    """_iterate_family at one bound, coordinatised and eliminated once."""
    points: list
    dens: tuple                  # D_s: the common denominator of slot s
    echelon: Echelon

    def solve(self, y):
        """Weights w with sum w_k points[k] = y, or None when y is not an
        F_p-combination of the family."""
        vec = _cleared_vector(y, self.dens)
        return None if vec is None else self.echelon.solve(vec)


def _family_vectors(points):
    """(dens, vectors) for a non-empty list of points of one width: D_s,
    the common denominator of slot s, and one sparse F_p-vector
    _cleared_vector(x, dens) per point x.  A combination of the points is
    zero iff the same combination of the vectors is."""
    dens = tuple(KElem.from_bipoly(common_denominator([x[s] for x in points]))
                 for s in range(len(points[0])))
    return dens, [_cleared_vector(x, dens) for x in points]


def _prepare_family(gamma: PhiModule, deg_bound: int) -> IterateFamily:
    points = _iterate_family(gamma, deg_bound)
    dens, vectors = _family_vectors(points)
    return IterateFamily(points, dens, Echelon(vectors, gamma.p))


def _weights_to_operators(weights, rank: int, deg_bound: int, p: int):
    """a_i = sum_j w_(i, j) t^j for weights laid out as _iterate_family."""
    width = deg_bound + 1
    return tuple(RPoly.from_coeffs(p, weights[i * width:(i + 1) * width])
                 for i in range(rank))


def _op_on_point(phi: DrinfeldModule, a: RPoly, x):
    """Phi_a at a point, as sum a_j Phi_{t^j}(x) over the orbit of x.

    Composing the twisted polynomial Phi_a first can blow up badly when
    phi_t has denominators (coefficient degrees square per factor), while
    the point iterates only grow with the orbit actually traversed.
    """
    acc = tuple(KElem.zero(phi.p) for _ in x)
    for j, z in enumerate(_orbit(phi, x, a.degree)):
        for _ in range(a.coeff(j)):
            acc = point_add(acc, z)
    return acc


def _apply_operators(gamma: PhiModule, ops):
    """sum Phi_{a_i}(x_i) over the generators."""
    acc = gamma.zero_point()
    for a, x in zip(ops, gamma.gens):
        if not a.is_zero():
            acc = point_add(acc, _op_on_point(gamma.phi, a, x))
    return acc


# -- syzygies and membership --------------------------------------------------


def syzygies(gamma: PhiModule, deg_bound: int = _DEFAULT_BOUND) -> RMatrix:
    """All relations sum Phi_{b_i}(x_i) = 0 with deg b_i <= deg_bound.

    The rows are an F_p-basis of the bounded relation space, each row
    normalized so its first nonzero operator is monic and re-verified by
    exact evaluation.
    """
    if deg_bound < 1:
        raise ValueError("deg_bound must be >= 1")
    p = gamma.p
    if gamma.rank == 0:
        return RMatrix(p, [])
    relations = []
    for vec in gamma.family(deg_bound).echelon.kernel():
        ops = _weights_to_operators(vec, gamma.rank, deg_bound, p)
        lead = next(a for a in ops if not a.is_zero())
        scale = pow(lead.lead, p - 2, p)
        if scale != 1:
            ops = tuple(a * RPoly.const(p, scale) for a in ops)
        if not point_is_zero(_apply_operators(gamma, ops)):
            raise AssertionError("syzygy fails its defining identity")
        relations.append(ops)
    relations.sort(key=lambda ops: tuple(rpoly_code(a) for a in ops))
    return RMatrix(p, relations)


@dataclass(frozen=True)
class MemberCertificate:
    """Either exact operators writing y in the module, or a bounded miss."""
    kind: str                    # "certificate" | "not_found_up_to"
    operators: tuple | None
    bound: int

    @property
    def found(self) -> bool:
        return self.kind == "certificate"

    def __str__(self):
        if self.found:
            return "Certificate(" + ", ".join(str(a) for a in self.operators) + ")"
        return f"NotFoundUpTo({self.bound})"


def member(gamma: PhiModule, y, deg_bound: int = _DEFAULT_BOUND) -> MemberCertificate:
    """Bounded search for operators with sum Phi_{a_i}(x_i) = y."""
    return member_many(gamma, [y], deg_bound)[0]


def member_many(gamma: PhiModule, ys, deg_bound: int = _DEFAULT_BOUND):
    """member for many points, each reduced against gamma.family(deg_bound).

    Returns the certificates in the order of ys; every found certificate is
    re-verified by exact evaluation.
    """
    if deg_bound < 0:
        raise ValueError("negative degree bound")
    ys = [tuple(y) for y in ys]
    if any(len(y) != gamma.g for y in ys):
        raise ValueError("point of the wrong ambient power")
    p = gamma.p
    zero = tuple(RPoly.zero(p) for _ in range(gamma.rank))
    out = []
    for y in ys:
        if point_is_zero(y):
            out.append(MemberCertificate("certificate", zero, deg_bound))
            continue
        sol = gamma.family(deg_bound).solve(y) if gamma.rank else None
        if sol is None:
            cert = MemberCertificate("not_found_up_to", None, deg_bound)
        else:
            ops = _weights_to_operators(sol, gamma.rank, deg_bound, p)
            if _apply_operators(gamma, ops) != y:
                raise AssertionError("membership certificate fails its identity")
            cert = MemberCertificate("certificate", ops, deg_bound)
        out.append(cert)
    return out


# -- quotients ----------------------------------------------------------------


def _module_structure(rows, rank: int, p: int):
    """(d, vinv): the invariant factors d_1 | d_2 | ... of the Smith form of
    the operator tuples rows, padded with zeros to rank, and the rows of
    V^{-1}, so that U * rows * V = diag(d).

    Read as a quotient, R^rank / (rows) is the direct sum of the R/(d_i),
    the class of vinv[i] generating the i-th summand: the torsion, the
    quotients and the free rank (the zero d_i) come from that reading.  Read
    as a submodule, the span of rows has the R-basis d_i * vinv[i] over the
    nonzero d_i: the small-ball generators of a discreteness certificate.
    This is the package's one Smith form.
    """
    if not rows:
        return (RPoly.zero(p),) * rank, RMatrix.identity(p, rank).rows
    snf = smith_normal_form(RMatrix(p, rows))
    diag = snf.invariant_factors
    return diag + (RPoly.zero(p),) * (rank - len(diag)), snf.vinv.rows


@dataclass(frozen=True)
class QuotientStructure:
    """Gamma / Phi_a(Gamma) as invariant factors plus realized cosets."""
    invariant_factors: tuple
    reps: tuple
    rep_operators: tuple
    order: int
    flags: tuple = ()
    # per representative, its residue tuple rho (deg rho_i < deg of the
    # i-th invariant factor), so that rep_operators = rho * V^{-1} mod a;
    # two representatives differ by the class of their rho's difference
    residues: tuple = ()


def quotient(gamma: PhiModule, a: RPoly,
             deg_bound: int = _DEFAULT_BOUND) -> QuotientStructure:
    """Structure of Gamma / Phi_a(Gamma) from the bounded presentation.

    With Gamma = R^r / (syzygies) = sum R/(d_i) read off the presentation's
    Smith form, Gamma / Phi_a(Gamma) is the sum of the R/gcd(d_i, a), where
    gcd(0, a) = a for the free summands.  Each representative is
    rho * V^{-1} mod a for one residue tuple rho with deg rho_i <
    deg gcd(d_i, a); they are listed in code order of their operators, and
    omitted, with the flag representatives-omitted, when the order exceeds
    _REP_ENUM_CAP.
    """
    if a.is_zero():
        raise ValueError("quotient by the zero operator")
    p = gamma.p
    r = gamma.rank
    diag, vinv = _module_structure(gamma.presentation(deg_bound).rows, r, p)
    diag = tuple(d.gcd(a) for d in diag)
    order = p ** sum(d.degree for d in diag)
    if order > _REP_ENUM_CAP:
        return QuotientStructure(diag, (), (), order,
                                 ("representatives-omitted",))
    pairs = []
    for rho in itertools.product(*(_iter_rpolys_below(p, d.degree)
                                   for d in diag)):
        ops = tuple(sum((c * row[j] for c, row in zip(rho, vinv)),
                        RPoly.zero(p)) % a for j in range(r))
        pairs.append((ops, rho))
    pairs.sort(key=lambda pair: tuple(rpoly_code(x) for x in pair[0]))
    rep_ops = tuple(ops for ops, _ in pairs)
    return QuotientStructure(
        diag, tuple(_apply_operators(gamma, ops) for ops in rep_ops),
        rep_ops, order, (), tuple(rho for _, rho in pairs))


# -- torsion ------------------------------------------------------------------


def torsion_submodule(gamma: PhiModule,
                      deg_bound: int = _DEFAULT_BOUND):
    """Explicit points of the torsion part seen by the bounded presentation."""
    p = gamma.p
    zero = gamma.zero_point()
    diag, vinv = _module_structure(gamma.presentation(deg_bound).rows,
                                   gamma.rank, p)
    torsion_idx = [i for i, d in enumerate(diag) if d.degree >= 1]
    if not torsion_idx:
        return (zero,)
    total = p ** sum(diag[i].degree for i in torsion_idx)
    if total > _REP_ENUM_CAP:
        raise RuntimeError("torsion enumeration beyond the desk cap")
    vectors = []
    for i in torsion_idx:
        x = _apply_operators(gamma, vinv[i])
        vectors.extend(_orbit(gamma.phi, x, diag[i].degree - 1))
    out = sorted(set(fp_span(p, vectors, zero)), key=point_sort_key)
    for x in out:
        for c in x:
            if not torsion_annihilator(gamma.phi, c, max_deg=deg_bound).is_torsion:
                raise AssertionError("enumerated torsion point fails verification")
    return tuple(out)


# -- divisible hulls and fullness ----------------------------------------------


def _primes_up_to(p: int, prime_bound: int):
    out = []
    for q in iter_irreducible_rpolys(p):
        if q.degree > prime_bound:
            break
        out.append(q)
    return out


def _window_vectors(gamma: PhiModule, deg: int):
    """The iterates Phi_{t^j}(x_i), generator-major with j = deg, ..., 0.

    Their fp_span is the window sum Phi_{c_i}(x_i), deg c_i <= deg, with
    the operators c_i in the code order of _iter_rpolys_below, the first
    generator's slowest; this digit order orders the hull scan's targets.
    """
    family = _iterate_family(gamma, deg)
    width = deg + 1
    return [z for i in range(0, len(family), width)
            for z in reversed(family[i:i + width])]


def _least_outside(vectors, sub, p: int):
    """The least vector of span(vectors) outside span(sub), index 0 most
    significant, or None: rows reduced on leading entries, sub's first,
    are normal forms, and the new row with the last lead is the least."""
    rows = []
    for k, v in enumerate(list(sub) + list(vectors)):
        for _, lead, row in rows:
            v = [(a - v[lead] * b) % p for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if a % p), None)
        if lead is not None:
            inv = pow(v[lead], p - 2, p)
            rows.append((k >= len(sub), lead, [a * inv % p for a in v]))
    return max(rows)[2] if rows and max(rows)[0] else None


def _hull_scan(gamma: PhiModule, prime_bound: int, member_bound: int,
               notes: set):
    """(x, q) for the first module point x not in gamma with Phi_q(x) in
    gamma, or (None, None).

    The targets of q are y_c = sum_j c_j w_j over the window w of degree
    deg q - 1, in the digit order of c.  Phi_q is F_p-linear, so the pairs
    (X, c) with Phi_q(X) = y_c are the kernel of one Echelon over the
    division systems of the w_j, a column block per slot and c shared; den
    and bounds derived from the w_j hold for every y_c.  Members of gamma
    form a subspace, so q passes when the kernel basis's X-parts do.  Else
    the first target with a non-member point is 0 if ker Phi_q has one,
    or the least c outside the c's of member pairs; only its points are
    listed, and the first non-member in slot-product order is returned.
    """
    p = gamma.p
    windows = {}
    for q in _primes_up_to(p, prime_bound):
        if q.degree not in windows:
            windows[q.degree] = _window_vectors(gamma, q.degree - 1)
        window = windows[q.degree]
        f = phi_action(gamma.phi, q)
        slots, columns, c_columns = [], [], [{} for _ in window]
        for s in range(gamma.g):
            den, _, basis, cols, rhs, flags = _division_system(
                f, [w[s] for w in window])
            notes.update(flags)
            slots.append((den, basis))
            columns += [{(s, e): c for e, c in col.items()} for col in cols]
            for col, y in zip(c_columns, rhs):
                col.update(((s, e), -c) for e, c in y.items())
        kernel = Echelon(columns + c_columns, p).kernel()
        xs = []
        for vec in kernel:
            u = iter(vec)       # zip stops at the end of each basis
            xs.append(tuple(KElem(sum((n.scale(a) for n, a in zip(basis, u)
                                       if a), BiPoly.zero(p)), den)
                            for den, basis in slots))
        found = [cert.found for cert in member_many(gamma, xs, member_bound)]
        if all(found):
            continue
        cs = [vec[len(columns):] for vec in kernel]
        if any(not ok and not any(c) for ok, c in zip(found, cs)):
            least = [0] * len(window)
        else:
            points = gamma.family(member_bound).points
            relations = Echelon(_family_vectors(points + xs)[1], p).kernel()
            least = _least_outside(cs, [
                [sum(a * c[j] for a, c in zip(rel[len(points):], cs)) % p
                 for j in range(len(window))] for rel in relations], p)
        y = gamma.zero_point()
        for cj, w in zip(least, window):
            y = point_add(y, tuple(KElem.const(p, cj) * z for z in w))
        per_slot = [solve_additive_many(
            f, [y[s]] + [w[s] for w in window])[0].points
            for s in range(gamma.g)]
        candidates = [x for x in itertools.product(*per_slot)
                      if not point_is_zero(x)]
        for x, cert in zip(candidates, member_many(gamma, candidates,
                                                   member_bound)):
            if not cert.found:
                return x, q
        raise AssertionError("hull scan lost its non-member division point")
    return None, None


def divisible_hull(gamma: PhiModule, prime_bound: int = 2,
                   member_bound: int = _DEFAULT_BOUND,
                   max_rounds: int = 4) -> PhiModule:
    """Close gamma under division by primes of degree <= prime_bound.

    Each round reduces operator coefficients mod q, so only finitely many
    division targets arise per prime; new points are adjoined until a
    fixpoint or the round cap.  Bounds travel in the module notes.
    """
    if prime_bound < 1 or max_rounds < 1:
        raise ValueError("bounds must be positive")
    notes = set(gamma.notes)
    current = gamma
    for _ in range(max_rounds):
        x, q = _hull_scan(current, prime_bound, member_bound, notes)
        if x is None:
            return current.sub(current.gens, tuple(sorted(notes)))
        current = current.sub(current.gens + (x,))
    notes.add("hull-rounds-capped")
    return current.sub(current.gens, tuple(sorted(notes)))


@dataclass(frozen=True)
class FullnessReport:
    """Bounded fullness verdict; a NotFull witness is certified both ways."""
    kind: str                    # "full_up_to_bounds" | "not_full"
    witness: tuple | None
    prime: RPoly | None
    prime_bound: int
    member_bound: int
    notes: tuple = ()


def is_full(gamma: PhiModule, prime_bound: int = 2,
            member_bound: int = _DEFAULT_BOUND) -> FullnessReport:
    """Does gamma already contain every bounded division point?"""
    if prime_bound < 1:
        raise ValueError("prime bound must be positive")
    notes = set()
    x, q = _hull_scan(gamma, prime_bound, member_bound, notes)
    if x is None:
        return FullnessReport("full_up_to_bounds", None, None,
                              prime_bound, member_bound, tuple(sorted(notes)))
    image = _op_on_point(gamma.phi, q, x)
    if not member_many(gamma, [image], member_bound)[0].found:
        raise AssertionError("fullness witness image left the module")
    return FullnessReport("not_full", x, q, prime_bound, member_bound,
                          tuple(sorted(notes)))
