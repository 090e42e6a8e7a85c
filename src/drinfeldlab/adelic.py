"""Bound-qualified closure certificates over a tracked set of places.

The closure of a module inside the restricted product of completions is an
infinite-precision object; everything here replaces it by an explicit
policy (a finite tracked place set, a valuation cutoff per place, and a
degree bound on module operators) and emits certificates that carry their
bounds.  Verdicts never overstate: a rejection lists the exact local data
that blocks membership.

The engine behind the discreteness and closeness certificates is the digit
filtration: at a good place the completion is a Laurent series field over
the residue field, addition is digit-wise, so "valuation >= m" is a linear
condition over F_p on operator coefficients.  Successive digit kernels give
the exact valuation strata of a bounded family without enumerating the
p^(r*(bound+1)) element combinations.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from .base import (Echelon, FElem, RMatrix, RPoly, fp_span, memo_put,
                   smith_normal_form)
from .drinfeld import DrinfeldModule, phi_action, torsion_annihilator
from .kfield import KElem, kelem_to_str
from .localfield import (
    LocalElem,
    NoResidueRoot,
    embed,
    hensel_solve,
    tp_eval_local,
)
from .phimodule import (
    MemberCertificate,
    PhiModule,
    _apply_operators,
    _iter_rpolys_below,
    _iterate_family,
    _op_on_point,
    _weights_to_operators,
    decompose,
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
    classify_places,
    fv_coordinates,
    fv_tp_eval,
    place_to_str,
    require_degree_one,
    residue_reduce,
    valuation,
)

SCHEMA = "drinfeldlab.adelic/1"

STANDARD_PLACE_COUNT = 3
STANDARD_CUTOFF = 10
STANDARD_DEG_BOUND = 8

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


def _module_place_sets(gamma: PhiModule, extra_points=()):
    coords = []
    for x in tuple(gamma.gens) + tuple(extra_points):
        coords.extend(x)
    return classify_places(gamma.phi.phi_t.coeffs, coords)


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
    """First `count` scan places that are good for the module and extras."""
    sets = _module_place_sets(gamma, extra_points)
    out = []
    for v in hilbertian_places(gamma.p):
        if sets.good_for_module(v):
            out.append(v)
            if len(out) == count:
                return tuple(out)
    raise RuntimeError("place scan exhausted")


def _embed_point(x, v: Place, n: int):
    return tuple(embed(c, v, n) for c in x)


_EMBED_CACHE: dict = {}


def _embedded_family(gamma: PhiModule, v: Place, n: int, deg_bound: int):
    """phimodule._iterate_family embedded at the theta-degree-one place v,
    cached by value.

    Each iterate is phi_t evaluated on the previous embedding
    (localfield.tp_eval_local), which is exact because K_v is a Laurent
    series field over F_p(t), and which avoids re-reducing K-elements whose
    degrees grow geometrically with j; tp_eval_local's memo embeds each
    coefficient of phi_t once per precision.  Layout matches the exact
    iterate family: generator-major, then increasing power of t.  Families
    are memoised in _EMBED_CACHE, keyed by (phi_t, generators, g, v, n,
    deg_bound), which base.memo_put clears once it holds more than 64
    entries.
    """
    key = (gamma.phi.phi_t.coeffs, tuple(gamma.gens), gamma.g, v, n, deg_bound)
    hit = _EMBED_CACHE.get(key)
    if hit is not None:
        return hit
    out = []
    for x in gamma.gens:
        z = _embed_point(x, v, n)
        out.append(z)
        for _ in range(deg_bound):
            z = tuple(tp_eval_local(gamma.phi.phi_t, c).truncate(n) for c in z)
            out.append(z)
    return memo_put(_EMBED_CACHE, key, out)


def _scale_local(z: LocalElem, c: int) -> LocalElem:
    c %= z.p
    if c == 0:
        return LocalElem.zero_to(z.place, z.precision)
    acc = z
    for _ in range(c - 1):
        acc = acc + z
    return acc


def _combine_embedded(embedded, vec, v: Place, n: int, g: int):
    acc = tuple(LocalElem.zero_to(v, n) for _ in range(g))
    for c, pt in zip(vec, embedded):
        if c % v.p:
            acc = tuple(a + _scale_local(z, c) for a, z in zip(acc, pt))
    return acc


def _digit(z: LocalElem, m: int) -> FElem:
    c = z.terms.get(m)
    return c if c is not None else FElem.zero(z.p)


def _fv_vectors(points):
    """One sparse F_p-vector {(s, key): c} per point of a non-empty list of
    residue points: slot s of every point goes over one common denominator
    (places.fv_coordinates), so a combination of the points is zero iff the
    same combination of the vectors is."""
    out = [{} for _ in points]
    for s in range(len(points[0])):
        for vec, part in zip(out, fv_coordinates([x[s] for x in points])):
            vec.update(((s, key), c) for key, c in part.items())
    return out


def _digit_vectors(points, level: int):
    """_fv_vectors of the level-m digits of points, tuples of LocalElem."""
    return _fv_vectors([tuple(_digit(z, level) for z in pt) for pt in points])


def _family_residues(gamma: PhiModule, v: Place, deg_bound: int):
    """Residues of the iterate family, computed by reduced dynamics.

    Reduction commutes with the action at a good place, so the residue of
    Phi_{t^{j+1}}(x) is the reduced operator applied to the previous
    residue; multiplicities pile up fast along torsion orbits and reducing
    the exact deep iterates would have to grow a truncated ring that far.
    """
    fbar = [residue_reduce(c, v) for c in gamma.phi.phi_t.coeffs]
    out = []
    for x in gamma.gens:
        w = tuple(residue_reduce(c, v) for c in x)
        out.append(w)
        for _ in range(deg_bound):
            w = tuple(fv_tp_eval(fbar, c) for c in w)
            out.append(w)
    return out


def _vec_combine(basis, coeffs, p: int):
    n = len(basis[0])
    out = [0] * n
    for c, b in zip(coeffs, basis):
        if c % p:
            for i in range(n):
                out[i] = (out[i] + c * b[i]) % p
    return out


def _strata_levels(embedded, g: int, p: int, v: Place, cutoff: int):
    """Bases of the valuation strata V_m = {vec : val(sum) >= m}, m = 0..cutoff.

    Returns a list of (level, basis) with basis the F_p coefficient vectors
    spanning V_level; V_0 is the full space.  Stops early once a stratum is
    zero.
    """
    n = len(embedded)
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    out = [(0, basis)]
    for m in range(cutoff):
        if not basis:
            break
        elems = [_combine_embedded(embedded, b, v, cutoff, g) for b in basis]
        ker = Echelon(_digit_vectors(elems, m), p).kernel()
        basis = [_vec_combine(basis, lam, p) for lam in ker]
        out.append((m + 1, basis))
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
    the zero witness under the v(0) = infinity convention.
    """
    require_degree_one(v)
    if deg_bound < 0:
        raise ValueError("negative degree bound")
    p = gamma.p
    if not _module_place_sets(gamma).good_for_module(v):
        raise ValueError(f"place {place_to_str(v)} is excluded for this module")
    notes = []
    if gamma.rank == 0:
        return DiscretenessCertificate(v, deg_bound, cutoff, (), True, None,
                                       None, (), ("empty-module",))
    embedded = _embedded_family(gamma, v, cutoff, deg_bound)
    strata = _strata_levels(embedded, gamma.g, p, v, cutoff)

    dims = {m: len(basis) for m, basis in strata}
    attained = []
    for m, basis in strata[:-1]:
        if dims[m] > dims.get(m + 1, 0):
            attained.append(m)

    min_pos = None
    witness_ops = None
    for m, basis in strata:
        if m == 0:
            continue
        if dims[m] > dims.get(m + 1, 0):
            for b in basis:
                elem = _combine_embedded(embedded, b, v, cutoff, gamma.g)
                if any(not _digit(z, m).is_zero() for z in elem):
                    min_pos = Fraction(m)
                    witness_ops = _weights_to_operators(b, gamma.rank,
                                                        deg_bound, p)
                    break
            break

    level_one = dict(strata).get(1, [])
    gens = []
    if level_one:
        op_rows = [_weights_to_operators(b, gamma.rank, deg_bound, p)
                   for b in level_one]
        snf = smith_normal_form(RMatrix(p, op_rows))
        for i, d in enumerate(snf.invariant_factors):
            if d.is_zero():
                continue
            gens.append(tuple(d * c for c in snf.vinv.rows[i]))
    else:
        notes.append("zero-ideal")

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

    final_m, final_basis = strata[-1]
    if final_m == cutoff and final_basis:
        if len(final_basis) > _syzygy_space_dim(gamma, deg_bound):
            notes.append("cutoff-reached")

    return DiscretenessCertificate(v, deg_bound, cutoff, tuple(gens), checked,
                                   min_pos, witness_ops,
                                   tuple(Fraction(m) for m in attained),
                                   tuple(notes))


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
    p = gamma.p
    if len(y) != gamma.g:
        raise ValueError("point width disagrees with the module")
    if tracked_places is None:
        tracked_places = standard_tracked_places(gamma, extra_points=(y,))
    for v in tracked_places:
        require_degree_one(v)
        for c in y:
            if not c.is_zero() and valuation(c, v) < 0:
                raise ValueError(
                    f"target not integral at {place_to_str(v)}")

    cert = member(gamma, y, deg_bound)
    if cert.found:
        return ClosureMembership("in_gamma", cert, (), True, deg_bound,
                                 precision)

    # one sparse column {(level, key): c} per weight, and the target's
    # digits the same way; the joint system tags each entry with its place
    n_weights = gamma.rank * (deg_bound + 1)
    reports = []
    joint_columns, joint_target = [{} for _ in range(n_weights)], {}
    any_blocking = False
    for i, v in enumerate(tracked_places):
        embedded = _embedded_family(gamma, v, precision, deg_bound)
        target = _embed_point(y, v, precision)
        columns, rhs = [{} for _ in range(n_weights)], {}
        echelon, best = Echelon(columns, p), 0     # what precision 0 reads
        for m in range(precision):
            vecs = _digit_vectors(embedded + [target], m)
            for col, vec in zip(columns, vecs):
                col.update(((m, key), c) for key, c in vec.items())
            rhs.update(((m, key), c) for key, c in vecs[-1].items())
            echelon = Echelon(columns, p)
            if echelon.solve(rhs) is None:
                break
            best = m + 1
        reached = best == precision
        close_dim = sample = None
        if reached:
            close_dim = len(echelon.kernel())
            sample = _weights_to_operators(echelon.solve(rhs), gamma.rank,
                                           deg_bound, p)
            for joint, col in zip(joint_columns, columns):
                joint.update(((i,) + key, c) for key, c in col.items())
            joint_target.update(((i,) + key, c) for key, c in rhs.items())
        else:
            any_blocking = True
        reports.append(PlaceCloseness(v, best, reached, close_dim, sample))

    notes = []
    if any_blocking:
        conclusive = True
        notes.append("blocked-at-place")
    elif Echelon(joint_columns, p).solve(joint_target) is not None:
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
    free_rank: int
    leak: tuple | None
    notes: tuple = ()


def _residue_torsion_annihilator_bound(gamma: PhiModule, family_res, v: Place,
                                       deg_bound: int) -> RPoly:
    """Annihilator of the torsion part of the reduced bounded module at v."""
    p = gamma.p
    kernel = Echelon(_fv_vectors(family_res), p).kernel()
    if not kernel:
        return RPoly.one(p)
    op_rows = [_weights_to_operators(b, gamma.rank, deg_bound, p)
               for b in kernel]
    snf = smith_normal_form(RMatrix(p, op_rows))
    last = RPoly.one(p)
    for d in snf.invariant_factors:
        if not d.is_zero() and d.degree >= 1:
            last = d
    return last


def closure_torsion_check(gamma: PhiModule, witness_places=None,
                          deg_bound: int = STANDARD_DEG_BOUND) -> ClosureTorsionReport:
    """Torsion of the closure, pinned to the module's own torsion.

    Splits the module into a reduction-torsion part and a free complement,
    then computes the pseudo-torsion space: bounded elements whose
    reductions are torsion at every witness place.  Each pseudo-torsion
    point is re-verified to be exact torsion over K; a failure is reported
    as a leak instead of being absorbed.
    """
    p = gamma.p
    if witness_places is None:
        witness_places = standard_tracked_places(gamma, 5)
    for v in witness_places:
        require_degree_one(v)
    notes = []
    d = decompose(gamma, witness_places, deg_bound)
    tor = torsion_submodule(gamma, deg_bound)
    tor_points = set(tor)
    if d.gamma0.rank:
        if set(torsion_submodule(d.gamma0, deg_bound)) != tor_points:
            notes.append("torsion-part-differs-from-split")

    if gamma.rank == 0:
        return ClosureTorsionReport("confirmed", tor, tor, 0,
                                    tuple(witness_places), 0, None,
                                    ("empty-module",))

    stacked = [{} for _ in range(gamma.rank * (deg_bound + 1))]
    for i, v in enumerate(witness_places):
        res = _family_residues(gamma, v, deg_bound)
        ann = _residue_torsion_annihilator_bound(gamma, res, v, deg_bound)
        fbar = [residue_reduce(c, v) for c in phi_action(gamma.phi, ann).coeffs]
        images = [tuple(fv_tp_eval(fbar, c) for c in r) for r in res]
        for col, vec in zip(stacked, _fv_vectors(images)):
            col.update(((i, key), c) for key, c in vec.items())
    kernel = Echelon(stacked, p).kernel()

    leak = None
    kernel_points = []
    for b in kernel:
        pt = _apply_operators(
            gamma, _weights_to_operators(b, gamma.rank, deg_bound, p))
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
    elif p ** len(kernel) <= _PSEUDO_ENUM_CAP:
        seen = set(fp_span(p, kernel_points, gamma.zero_point()))
        pseudo_points = tuple(sorted(seen, key=point_to_str))
        if seen != tor_points:
            kind = "mismatch"
            notes.append("pseudo-torsion-exceeds-known-torsion")
    else:
        notes.append("pseudo-torsion-enumeration-capped")

    return ClosureTorsionReport(kind, tor, pseudo_points, len(kernel),
                                tuple(witness_places), d.gamma1.rank, leak,
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
    Surjectivity: bounded module elements all classify onto exactly one
    representative through the exact quotient membership.  Neither half
    reads `precision`; it is only carried into the report and its JSON.
    """
    if a.is_zero():
        raise ValueError("quotient by the zero operator")
    p = gamma.p
    if witness_places is None:
        witness_places = standard_tracked_places(gamma, 3)
    for v in witness_places:
        require_degree_one(v)
    q = quotient(gamma, a, deg_bound)
    notes = []
    if q.order == 1:
        return QuotientIsoReport("confirmed", a, 1, (), (), 0, 0,
                                 tuple(witness_places), precision,
                                 ("trivial-quotient",))

    separations = []
    unresolved = []
    for i in range(len(q.reps)):
        for j in range(i + 1, len(q.reps)):
            delta = point_add(q.reps[i], point_neg(q.reps[j]))
            for v in witness_places:
                if not _locally_divisible(gamma.phi, a, delta, v):
                    coord = next(s for s, c in enumerate(delta)
                                 if not c.is_zero())
                    separations.append(PairSeparation(
                        i, j, v, coord, valuation(delta[coord], v),
                        "certified-residue-obstruction"))
                    break
            else:
                unresolved.append(PairSeparation(
                    i, j, None, None, None,
                    "locally-divisible-at-all-witnesses"))

    image = PhiModule(gamma.phi, gamma.g,
                      [_op_on_point(gamma.phi, a, x) for x in gamma.gens])
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
                             tuple(witness_places), precision, tuple(notes))
