"""Bound-qualified closure certificates over a tracked set of places.

The closure of a module inside the restricted product of completions is an
infinite-precision object; everything here replaces it by an explicit
policy (a finite tracked place set, a valuation cutoff per place, and a
degree bound on module operators) and emits certificates that carry their
bounds.  Verdicts never overstate: a rejection lists the exact local data
that blocks membership.

The engine behind the discreteness and closeness certificates is the digit
filtration: at a good place the completion is a Laurent series field over
the residue field, addition is digit-wise, so "valuation > m" is a linear
condition over F_p on operator weights.  _Filtration stacks the digits
of levels 0..m of each iterate into one sparse column, lifted into K and
coordinatised like any point (phimodule._family_vectors).  The kernel of
one Echelon per level is then the exact valuation stratum of a bounded
family, with no enumeration of the p^(r*(bound+1)) element combinations,
and closure membership solves the same echelons for the target's digits,
cleared with the family's denominators.

The module lineage's memo keeps ("filtration", gens, deg_bound, v, n) and
("discreteness", gens, v, deg_bound, cutoff), so the pipeline calls on one
module share them.

Residues go the same way: the reduction of Phi at a good place is again a
Drinfeld module over F_p(t), inside K (drinfeld.reduction), so the
closure-torsion check runs the K-side orbit, torsion search and
coordinates on it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from .base import Echelon, FElem, RPoly, fp_span
from .drinfeld import (DrinfeldModule, phi_action, reduce_point, reduction,
                       torsion_annihilator)
from .kfield import KElem, kelem_to_str
from .localfield import NoResidueRoot, embed, hensel_solve, tp_eval_local
from .phimodule import (
    _DEFAULT_BOUND,
    MemberCertificate,
    PhiModule,
    _apply_operators,
    _cleared_vector,
    _family_vectors,
    _iter_rpolys_below,
    _iterate_family,
    _module_structure,
    _op_on_point,
    _orbit,
    _weights_to_operators,
    member,
    member_many,
    point_add,
    point_apply,
    point_is_zero,
    point_neg,
    point_to_str,
    quotient,
    torsion_submodule,
)
from .places import (
    Place,
    place_to_str,
    require_degree_one,
    residue_reduce,
    valuation,
)

SCHEMA = "drinfeldlab.adelic/1"

STANDARD_PLACE_COUNT = 3
STANDARD_CUTOFF = 10
STANDARD_DEG_BOUND = _DEFAULT_BOUND

_PSEUDO_ENUM_CAP = 729


# -- shared helpers -----------------------------------------------------------


def _point_valuation(x, v: Place):
    """min over coordinates of v(coordinate); None for the zero point."""
    best = None
    for c in x:
        if c.is_zero():
            continue
        w = valuation(c, v)
        if best is None or w < best:
            best = w
    return best


def _good_place(gamma: PhiModule, v: Place, extra_points=()) -> bool:
    """Whether Phi has good reduction at v and the module and the extra
    points are integral there: every nonzero coefficient of phi_t has
    v >= 0, the first and the last v = 0, and every nonzero coordinate of a
    generator or an extra point v >= 0."""
    vals = [valuation(c, v) for c in gamma.phi.phi_t.coeffs if not c.is_zero()]
    if min(vals) < 0 or vals[0] != 0 or vals[-1] != 0:
        return False
    return all(valuation(c, v) >= 0
               for x in (*gamma.gens, *extra_points) for c in x
               if not c.is_zero())


def hilbertian_places(p: int):
    """The places theta + g, g in F_p[t], in the deterministic scan order.

    g runs over F_p[t] by increasing degree, then code order.  These places
    have theta-degree 1, so their residue field is F_p(t), and they are the
    only places where localfield and places.residue_reduce work; there
    are infinitely many, so a bounded scan never runs out of them.
    """
    theta = KElem.theta(p)
    for deg in itertools.count(0):
        for g in _iter_rpolys_below(p, deg + 1):
            if deg > 0 and g.degree != deg:
                continue
            yield Place.finite(theta + KElem.from_rpoly(g))


def standard_tracked_places(gamma: PhiModule, count: int = STANDARD_PLACE_COUNT,
                            extra_points=()):
    """The first `count` places of hilbertian_places that are good for the
    module and the extra points (_good_place): every nonzero coefficient of
    phi_t is integral there, the first and the last are units, and every
    nonzero coordinate of a generator or an extra point is integral.  A
    count below 1 is refused before the scan, which would never end."""
    if count < 1:
        raise ValueError("place count must be positive")
    out = []
    for v in hilbertian_places(gamma.p):
        if _good_place(gamma, v, extra_points):
            out.append(v)
            if len(out) == count:
                return tuple(out)
    raise RuntimeError("place scan exhausted")


def _embed_point(x, v: Place, n: int):
    return tuple(embed(c, v, n) for c in x)


def _embedded_family(gamma: PhiModule, v: Place, n: int, deg_bound: int):
    """phimodule._iterate_family embedded at the theta-degree-one place v,
    to precision n.

    Each iterate is phi_t evaluated on the previous embedding
    (localfield.tp_eval_local), which is exact because K_v is a Laurent
    series field over F_p(t), and which avoids re-reducing K-elements whose
    degrees grow geometrically with j; one dict per build embeds each
    coefficient of phi_t once per precision.  Layout matches the exact
    iterate family: generator-major, then increasing power of t.  The
    lineage's filtration keeps it; the place keeps the rings behind it.
    """
    out, coeffs = [], {}
    for x in gamma.gens:
        z = _embed_point(x, v, n)
        out.append(z)
        for _ in range(deg_bound):
            z = tuple(tp_eval_local(gamma.phi.phi_t, c, coeffs).truncate(n)
                      for c in z)
            out.append(z)
    return out


def _digits(x, m: int):
    """The digits at level m of a point of LocalElem, lifted into K."""
    return tuple(KElem.from_felem(z.terms.get(m, FElem.zero(z.p))) for z in x)


class _Filtration:
    """The digit filtration of points, tuples of LocalElem at one place.

    dens[m] are the slot denominators of the points' digits at level m
    (_family_vectors; all 1 with no points, whose span holds only zero);
    columns hold one sparse F_p-column {(level, key): c} per point, its
    digits of the levels read so far; echelon(k) eliminates the columns of
    levels 0..k-1, so a combination of the points has valuation >= k iff it
    is in that kernel.  The echelons share one key set: a key names its
    level, so for a target of levels below k it rejects what the keys of
    levels 0..k-1 alone would.  Each level is read once, on demand.  A digit below
    level 0, which the columns would drop, raises ValueError: an iterate
    has one where phi_t or a generator has a pole.
    """

    def __init__(self, points, p: int, width: int):
        for z in itertools.chain.from_iterable(points):
            if any(e < 0 for e in z.terms):
                raise ValueError(
                    f"module not integral at {place_to_str(z.place)}")
        self.points, self.p, self.width = points, p, width
        self.dens = []
        self.columns = [{} for _ in points]
        self.keys = set()
        self._echelons = [Echelon(self.columns, p, self.keys)]

    def echelon(self, k: int) -> Echelon:
        while len(self._echelons) <= k:
            m = len(self.dens)
            digits = [_digits(x, m) for x in self.points]
            dens, vectors = (_family_vectors(digits) if digits else
                             ((KElem.one(self.p),) * self.width, []))
            self.dens.append(dens)
            for col, vec in zip(self.columns, vectors):
                col.update(((m, key), c) for key, c in vec.items())
            self._echelons.append(Echelon(self.columns, self.p, self.keys))
        return self._echelons[k]


def _filtration(gamma: PhiModule, v: Place, n: int,
                deg_bound: int) -> _Filtration:
    """The lineage's filtration of the embedded iterate family."""
    key = ("filtration", gamma.gens, deg_bound, v, n)
    out = gamma._memo.get(key)
    if out is None:
        out = gamma._memo[key] = _Filtration(
            _embedded_family(gamma, v, n, deg_bound), gamma.p, gamma.g)
    return out


def _syzygy_space_dim(gamma: PhiModule, deg_bound: int) -> int:
    return len(gamma.family(deg_bound).echelon.kernel())


def to_json(value):
    """The JSON form of a report value, chosen by its type.

    Field elements, places and polynomials print as text; a non-empty tuple
    of field elements is a point; other tuples and lists become lists, and
    dicts and dataclasses become objects, encoded item by item.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, KElem):
        return kelem_to_str(value)
    if isinstance(value, Place):
        return place_to_str(value)
    if isinstance(value, (Fraction, RPoly, MemberCertificate)):
        return str(value)
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, tuple) and value \
            and all(isinstance(c, KElem) for c in value):
        return point_to_str(value)
    if isinstance(value, (tuple, list)):
        return [to_json(item) for item in value]
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name))
                for f in fields(value)}
    raise TypeError(f"no JSON form for {type(value).__name__}")


class Report:
    """A report whose JSON is its schema, its KIND if the class sets one,
    and its fields through to_json."""

    SCHEMA = SCHEMA
    KIND = None

    def to_json_dict(self):
        head = {"schema": self.SCHEMA}
        if self.KIND is not None:
            head["kind"] = self.KIND
        return head | to_json(self)


def certificate_json(cert, indent=None) -> str:
    """Deterministic JSON for any report object with a to_json_dict."""
    return json.dumps(cert.to_json_dict(), sort_keys=True, indent=indent)


# -- discreteness -------------------------------------------------------------


@dataclass(frozen=True)
class DiscretenessCertificate(Report):
    """Exact small-ball data for a bounded piece of a module at one place.

    i_generators is an R-basis of the bounded operator tuples whose value
    lands in the maximal ideal; closure under addition is automatic for a
    module, and the t-closure check is the recorded lemma verification
    v(Phi_t(y) - t*y) > v(y).
    """
    place: Place
    deg_bound: int
    cutoff: int
    i_generators: tuple
    ideal_checked: bool
    min_positive_valuation: Fraction | None
    witness: tuple | None
    attained_valuations: tuple
    notes: tuple = ()

    KIND = "discreteness-certificate"


def discreteness_certificate(gamma: PhiModule, v: Place,
                             deg_bound: int = STANDARD_DEG_BOUND,
                             cutoff: int = STANDARD_CUTOFF) -> DiscretenessCertificate:
    """Valuations attained by bounded module elements at v, with witnesses.

    The digit filtration enumerates the attained valuations exactly; the
    kernel at level one, converted back to operator tuples and put in Smith
    form, is the bounded small-ball module with its R-basis.  A zero ideal
    (every nonzero bounded element is a v-unit) is reported with generator
    list empty and min_positive_valuation None, which is the valuation of
    the zero witness under the v(0) = infinity convention; cutoff 0 reads
    no level and claims no ideal.  The module lineage keeps the report.
    """
    require_degree_one(v)
    if deg_bound < 0:
        raise ValueError("negative degree bound")
    if cutoff < 0:
        raise ValueError("negative cutoff")
    key = ("discreteness", gamma.gens, v, deg_bound, cutoff)
    cert = gamma._memo.get(key)
    if cert is not None:
        return cert
    p = gamma.p
    if not _good_place(gamma, v):
        raise ValueError(f"place {place_to_str(v)} is excluded for this module")
    notes = []
    if gamma.rank == 0:
        return DiscretenessCertificate(v, deg_bound, cutoff, (), True, None,
                                       None, (), ("empty-module",))
    # bases[m] is the reduced echelon basis (Echelon.kernel) of the stratum
    # V_m of weights whose combination has valuation >= m; V_0 is every
    # weight, and the scan stops at the first zero stratum
    filtration = _filtration(gamma, v, cutoff, deg_bound)
    bases = []
    for m in range(cutoff + 1):
        bases.append(filtration.echelon(m).kernel())
        if not bases[-1]:
            break
    attained = [m for m in range(len(bases) - 1)
                if len(bases[m]) > len(bases[m + 1])]

    # a vector of bases[m] that lies in V_{m+1} is a vector of bases[m + 1],
    # the reduced basis being unique, so the others have digit m nonzero
    min_pos = None
    witness_ops = None
    m = next((m for m in attained if m >= 1), None)
    if m is not None:
        b = next(b for b in bases[m] if b not in bases[m + 1])
        min_pos = Fraction(m)
        witness_ops = _weights_to_operators(b, gamma.rank, deg_bound, p)

    level_one = bases[1] if len(bases) > 1 else []
    if len(bases) > 1 and not level_one:
        notes.append("zero-ideal")
    diag, vinv = _module_structure(
        [_weights_to_operators(b, gamma.rank, deg_bound, p) for b in level_one],
        gamma.rank, p)
    gens = [tuple(d * c for c in row) for d, row in zip(diag, vinv)
            if not d.is_zero()]

    t_el = KElem.t(p)
    checked = True
    for ops in gens:
        y = _apply_operators(gamma, ops)
        if point_is_zero(y):
            continue
        vy = _point_valuation(y, v)
        if vy is None or vy < 1:
            checked = False
            notes.append("generator-left-the-ball")
            continue
        ty = point_apply(gamma.phi.phi_t, y)
        lin = tuple(t_el * c for c in y)
        rem = point_add(ty, point_neg(lin))
        vr = _point_valuation(rem, v)
        if vr is not None and vr <= vy:
            checked = False
            notes.append("t-closure-lemma-failed")

    if len(bases) == cutoff + 1 and bases[-1]:
        if len(bases[-1]) > _syzygy_space_dim(gamma, deg_bound):
            notes.append("cutoff-reached")

    cert = gamma._memo[key] = DiscretenessCertificate(
        v, deg_bound, cutoff, tuple(gens), checked, min_pos, witness_ops,
        tuple(Fraction(m) for m in attained), tuple(notes))
    return cert


# -- closure membership --------------------------------------------------------


@dataclass(frozen=True)
class PlaceCloseness:
    """How closely bounded module elements approach the target at one place."""
    place: Place
    best_valuation: int
    reached_cutoff: bool
    close_dim: int | None
    sample_operators: tuple | None


@dataclass(frozen=True)
class ClosureMembership(Report):
    kind: str                      # "in_gamma" | "rejected_up_to_bounds"
    certificate: MemberCertificate | None
    place_reports: tuple
    conclusive: bool
    deg_bound: int
    precision: int
    notes: tuple = ()

    @property
    def in_gamma(self) -> bool:
        return self.kind == "in_gamma"


def require_places(places) -> tuple:
    """The places as a tuple; refuse an empty list and every place of
    theta-degree above 1."""
    places = tuple(places)
    if not places:
        raise ValueError("empty place list")
    for v in places:
        require_degree_one(v)
    return places


def _require_integral_at(y, places):
    """Refuse an empty place list, a place of theta-degree above 1, or one
    where a coordinate of y has a pole."""
    for v in require_places(places):
        for c in y:
            if not c.is_zero() and valuation(c, v) < 0:
                raise ValueError(f"point not integral at {place_to_str(v)}")


def closure_member(gamma: PhiModule, y, tracked_places=None,
                   precision: int = STANDARD_CUTOFF,
                   deg_bound: int = STANDARD_DEG_BOUND) -> ClosureMembership:
    """Membership in the module closure, decided at the stated bounds.

    in_gamma always rides on an exact membership certificate.  A rejection
    reports, for each tracked place, the best valuation any bounded element
    achieves against y; a place stuck below the precision cutoff already
    blocks every approximating sequence, and when all places allow
    approximants the joint system across places is solved so near-misses
    are accounted for rather than hidden.
    """
    if deg_bound < 0:
        raise ValueError("negative degree bound")
    if precision < 0:
        raise ValueError("negative precision")
    p = gamma.p
    if len(y) != gamma.g:
        raise ValueError("point width disagrees with the module")
    # explicit places are checked before anything else; the default ones
    # are good for y too (v(y_s) >= 0), and the exact membership check,
    # cheaper than the place scan, runs before they are picked
    if tracked_places is not None:
        _require_integral_at(y, tracked_places)
    cert = member(gamma, y, deg_bound)
    if cert.found:
        return ClosureMembership("in_gamma", cert, (), True, deg_bound,
                                 precision)
    if tracked_places is None:
        tracked_places = standard_tracked_places(gamma, extra_points=(y,))

    # one sparse column {(level, key): c} per weight, the target's last,
    # cleared with the family's denominators (a digit that does not clear
    # is outside the span); the joint system tags each entry with its place
    reports = []
    joint_columns = [{} for _ in range(gamma.rank * (deg_bound + 1) + 1)]
    any_blocking = False
    for i, v in enumerate(tracked_places):
        filtration = _filtration(gamma, v, precision, deg_bound)
        z = _embed_point(y, v, precision)
        target, best = {}, 0
        while best < precision:
            echelon = filtration.echelon(best + 1)
            vec = _cleared_vector(_digits(z, best), filtration.dens[best])
            if vec is None:
                break
            target.update(((best, key), c) for key, c in vec.items())
            if echelon.solve(target) is None:
                break
            best += 1
        reached = best == precision
        close_dim = sample = None
        if reached:
            echelon = filtration.echelon(precision)
            close_dim = len(echelon.kernel())
            sample = _weights_to_operators(echelon.solve(target),
                                           gamma.rank, deg_bound, p)
            for joint, col in zip(joint_columns,
                                  filtration.columns + [target]):
                joint.update(((i,) + key, c) for key, c in col.items())
        else:
            any_blocking = True
        reports.append(PlaceCloseness(v, best, reached, close_dim, sample))

    notes = []
    if any_blocking:
        conclusive = True
        notes.append("blocked-at-place")
    elif Echelon(joint_columns[:-1], p).solve(joint_columns[-1]) is not None:
        conclusive = False
        notes.append("approximant-within-precision")
    else:
        conclusive = True
        notes.append("no-joint-approximant")
    return ClosureMembership("rejected_up_to_bounds", None, tuple(reports),
                             conclusive, deg_bound, precision, tuple(notes))


# -- closure torsion -------------------------------------------------------------


@dataclass(frozen=True)
class ClosureTorsionReport(Report):
    kind: str                      # "confirmed" | "mismatch"
    torsion_points: tuple
    pseudo_torsion_points: tuple | None
    pseudo_torsion_dim: int
    witness_places: tuple
    free_rank: int                 # R-corank of the pseudo-torsion span
    leak: tuple | None
    notes: tuple = ()


def _residue_torsion_annihilator_bound(gamma: PhiModule, family_res,
                                       deg_bound: int) -> RPoly:
    """Annihilator of the torsion part of the reduced bounded module, from
    the residue family family_res of the module's iterate family."""
    p = gamma.p
    kernel = Echelon(_family_vectors(family_res)[1], p).kernel()
    diag, _ = _module_structure(
        [_weights_to_operators(b, gamma.rank, deg_bound, p) for b in kernel],
        gamma.rank, p)
    return next((d for d in reversed(diag) if d.degree >= 1), RPoly.one(p))


def closure_torsion_check(gamma: PhiModule, witness_places=None,
                          deg_bound: int = STANDARD_DEG_BOUND) -> ClosureTorsionReport:
    """Torsion of the closure, pinned to the module's own torsion.

    Computes the pseudo-torsion space: the bounded elements whose
    reductions are torsion at every witness place, as the kernel of one
    Echelon over the stacked residue families.  Its operator tuples span
    the reduction-torsion part of the module, and free_rank is the
    R-corank of that span.  Each pseudo-torsion point is re-verified to be
    exact torsion over K; a failure is reported as a leak instead of being
    absorbed.  The space is compared with the known torsion by rank; its
    points are listed in the report only up to _PSEUDO_ENUM_CAP of them.
    """
    p = gamma.p
    if witness_places is None:
        witness_places = standard_tracked_places(gamma, 5)
    witness_places = require_places(witness_places)
    notes = []
    tor = torsion_submodule(gamma, deg_bound)
    tor_points = set(tor)

    if gamma.rank == 0:
        return ClosureTorsionReport("confirmed", tor, tor, 0,
                                    witness_places, 0, None,
                                    ("empty-module",))

    stacked = [{} for _ in range(gamma.rank * (deg_bound + 1))]
    for i, v in enumerate(witness_places):
        # reduction commutes with the action at a good place, so the
        # residues of the iterate family are the reduced module's orbits
        phibar = reduction(gamma.phi, v)
        res = [z for x in gamma.gens
               for z in _orbit(phibar, reduce_point(x, v), deg_bound)]
        ann = _residue_torsion_annihilator_bound(gamma, res, deg_bound)
        f = phi_action(phibar, ann)
        images = [point_apply(f, r) for r in res]
        for col, vec in zip(stacked, _family_vectors(images)[1]):
            col.update(((i, key), c) for key, c in vec.items())
    kernel = Echelon(stacked, p).kernel()
    op_rows = [_weights_to_operators(b, gamma.rank, deg_bound, p)
               for b in kernel]
    free_rank = sum(d.is_zero() for d in
                    _module_structure(op_rows, gamma.rank, p)[0])

    leak = None
    kernel_points = []
    for ops in op_rows:
        pt = _apply_operators(gamma, ops)
        if not all(torsion_annihilator(gamma.phi, c, max_deg=deg_bound).is_torsion
                   for c in pt):
            leak = pt
            break
        kernel_points.append(pt)

    pseudo_points = None
    kind = "confirmed"
    if leak is not None:
        kind = "mismatch"
        notes.append("pseudo-torsion-leak")
    else:
        # equal F_p-spaces: one inside the other, as many points each
        rank = len(Echelon(_family_vectors(
            kernel_points or [gamma.zero_point()])[1], p).pivots)
        if not (set(kernel_points) <= tor_points
                and p ** rank == len(tor_points)):
            kind = "mismatch"
            notes.append("pseudo-torsion-exceeds-known-torsion")
        if p ** len(kernel) <= _PSEUDO_ENUM_CAP:
            seen = set(fp_span(p, kernel_points, gamma.zero_point()))
            pseudo_points = tuple(sorted(seen, key=point_to_str))
        else:
            notes.append("pseudo-torsion-enumeration-capped")

    return ClosureTorsionReport(kind, tor, pseudo_points, len(kernel),
                                witness_places, free_rank, leak,
                                tuple(notes))


# -- quotient isomorphism at precision -------------------------------------------


@dataclass(frozen=True)
class PairSeparation:
    i: int
    j: int
    place: Place | None
    coordinate: int | None
    delta_valuation: int | None
    detail: str


@dataclass(frozen=True)
class QuotientIsoReport(Report):
    kind: str                     # "confirmed" | "not_separated"
    a: RPoly
    order: int
    separations: tuple
    unresolved: tuple
    classified_samples: int
    unclassified_samples: int
    witness_places: tuple
    precision: int
    notes: tuple = ()


def _locally_divisible(phi: DrinfeldModule, a: RPoly, x, v: Place) -> bool:
    """Whether x is in Phi_a(O_v^g), by the residue verdict at each
    coordinate."""
    for c in x:
        if c.is_zero():
            continue
        try:
            hensel_solve(phi, a, residue_reduce(c, v), v)
        except NoResidueRoot:
            return False
    return True


def quotient_iso_check(gamma: PhiModule, a: RPoly, witness_places=None,
                       precision: int = STANDARD_CUTOFF,
                       deg_bound: int = STANDARD_DEG_BOUND) -> QuotientIsoReport:
    """Coset representatives stay separated in the completion picture.

    Injectivity: for each pair of representatives some witness place
    refuses to divide their difference by Phi_a inside the integers there,
    certified by the residue verdict of localfield.hensel_solve.
    Phi_a(O_v^g), taken in the perfection when Phi_a has tau-valuation > 0,
    is an additive group, and it holds Phi_a(Gamma) where the generators are
    v-integral; so a pair's difference is divisible at v exactly when the
    representative of its class is, and each class is decided once, at the
    first witness place that separates it.  Each pair still reports the
    coordinate and valuation of its own difference.  An explicit witness
    place where a generator has a pole is refused before any scan; the
    default places are good for the module.
    Surjectivity: bounded module elements all classify onto exactly one
    representative through the exact quotient membership.  Neither half
    reads `precision`; it is only carried into the report and its JSON.
    A quotient whose representatives were omitted is noted
    quotient-representatives-omitted and cannot be confirmed.
    """
    if a.is_zero():
        raise ValueError("quotient by the zero operator")
    p = gamma.p
    explicit = witness_places is not None
    if not explicit:
        witness_places = standard_tracked_places(gamma, 3)
    witness_places = require_places(witness_places)
    if explicit:
        for x in gamma.gens:
            _require_integral_at(x, witness_places)
    q = quotient(gamma, a, deg_bound)
    notes = []
    if q.order == 1:
        return QuotientIsoReport("confirmed", a, 1, (), (), 0, 0,
                                 witness_places, precision,
                                 ("trivial-quotient",))
    if "representatives-omitted" in q.flags:
        notes.append("quotient-representatives-omitted")

    index = {rho: k for k, rho in enumerate(q.residues)}
    separating = {}          # class index -> first separating place, or None
    separations = []
    unresolved = []
    for i in range(len(q.reps)):
        for j in range(i + 1, len(q.reps)):
            k = index[tuple((x - y) % d for x, y, d in zip(
                q.residues[i], q.residues[j], q.invariant_factors))]
            if k not in separating:
                separating[k] = next(
                    (v for v in witness_places
                     if not _locally_divisible(gamma.phi, a, q.reps[k], v)),
                    None)
            v = separating[k]
            if v is None:
                unresolved.append(PairSeparation(
                    i, j, None, None, None,
                    "locally-divisible-at-all-witnesses"))
                continue
            delta = point_add(q.reps[i], point_neg(q.reps[j]))
            coord = next(s for s, c in enumerate(delta) if not c.is_zero())
            separations.append(PairSeparation(
                i, j, v, coord, valuation(delta[coord], v),
                "certified-residue-obstruction"))

    image = gamma.sub([_op_on_point(gamma.phi, a, x) for x in gamma.gens])
    samples = _iterate_family(gamma, deg_bound)
    n = len(q.reps)
    found = [c.found for c in member_many(
        image, [point_add(z, point_neg(r)) for z in samples for r in q.reps],
        deg_bound)]
    classified = sum(sum(found[k * n:(k + 1) * n]) == 1
                     for k in range(len(samples)))
    unclassified = len(samples) - classified
    if unclassified:
        notes.append("sample-unclassified")

    kind = "confirmed" if not unresolved and not unclassified else "not_separated"
    return QuotientIsoReport(kind, a, q.order, tuple(separations),
                             tuple(unresolved), classified, unclassified,
                             witness_places, precision, tuple(notes))
