"""Builders of test data and reference oracles that the package itself
never needs."""

import itertools

from drinfeldlab.adelic import (ClosureMembership, PairSeparation,
                               PlaceCloseness, _locally_divisible)
from drinfeldlab.base import (Echelon, FElem, RMatrix, RPoly, fp_span,
                             smith_normal_form)
from drinfeldlab.drinfeld import (ProbeReport, phi_action, reduce_point,
                                  reduction, solve_additive_many,
                                  torsion_annihilator)
from drinfeldlab.factor import factor_bipoly
from drinfeldlab.kfield import BiPoly, KElem
from drinfeldlab.localfield import embed, tp_eval_local
from drinfeldlab.phimodule import (PhiModule, _family_vectors,
                                   _iter_rpolys_below, _primes_up_to,
                                   _weights_to_operators, _window_vectors,
                                   member, member_many, point_add,
                                   point_is_zero, point_neg)
from drinfeldlab.places import (Place, TruncRing, _fpoly_divmod_monic,
                                _fpoly_mul, _fpoly_rem_monic, valuation)
from drinfeldlab.twisted import TwistedPoly, tp_eval


def bipoly_from_theta_coeffs(p: int, coeffs) -> BiPoly:
    """The bivariate polynomial with the ascending theta-coefficients
    coeffs, each an RPoly or an int."""
    d = {}
    for e, f in enumerate(coeffs):
        if isinstance(f, int):
            f = RPoly.const(p, f)
        if not f.is_zero():
            d[e] = f
    return BiPoly(p, d)


def determinant(m: RMatrix) -> RPoly:
    """Cofactor expansion along the first row."""
    n, cols = m.shape
    if n != cols:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return RPoly.one(m.p)
    acc = RPoly.zero(m.p)
    for j, entry in enumerate(m.rows[0]):
        if not entry.is_zero():
            minor = RMatrix(m.p, [row[:j] + row[j + 1:] for row in m.rows[1:]])
            term = entry * determinant(minor)
            acc = acc + (term if j % 2 == 0 else -term)
    return acc


def is_unimodular(m: RMatrix) -> bool:
    d = determinant(m)
    return d.degree == 0


def uniformizer(v: Place) -> KElem:
    """The place's polynomial as a K-element, or 1/theta at infinity."""
    if v.is_infinite:
        return KElem.theta(v.p).inverse()
    return KElem.from_bipoly(v.prim)


def monic_pi(v: Place) -> KElem:
    """pi as the monic polynomial over F (finite places only)."""
    if v.is_infinite:
        raise ValueError("the infinite place has no pi")
    theta = KElem.theta(v.p)
    acc = theta ** v.theta_degree
    for i, c in enumerate(v.monic_coeffs):
        acc = acc + KElem.from_felem(c) * theta ** i
    return acc


def digits_by_division(f: BiPoly, v: Place, start: int, count: int):
    """pi-digits start, ..., start + count - 1 of f at a theta-degree-one
    place, by exact division by pi once per digit: each remainder modulo
    pi is a constant."""
    p = f.p
    a = [FElem.from_rpoly(f.theta_coeff(e)) for e in range(f.theta_degree + 1)]
    pi = list(v.monic_coeffs) + [FElem.one(p)]
    out = []
    for _ in range(start + count):
        a, r = _fpoly_divmod_monic(a, pi)
        out.append(r[0] if r else FElem.zero(p))
    return out[start:]


def theta_power_by_squaring(ring: TruncRing, e: int):
    """theta^e in the ring by binary squaring alone."""
    acc, base = [FElem.one(ring.p)], ring.theta_power(1)
    while e:
        if e & 1:
            acc = _fpoly_rem_monic(_fpoly_mul(acc, base), ring.mod)
        base = _fpoly_rem_monic(_fpoly_mul(base, base), ring.mod)
        e >>= 1
    return acc


def bipoly_is_irreducible(f: BiPoly) -> bool:
    """Irreducibility in F[theta] (up to F_p(t)-units) of a primitive poly."""
    if f.is_zero() or f.theta_degree < 1:
        return False
    _, t_factors, theta_factors = factor_bipoly(f)
    return (not t_factors and len(theta_factors) == 1
            and theta_factors[0][1] == 1)


def _support_places(x: KElem):
    """The finite places in the support of x, by factoring its numerator
    and denominator."""
    places = set()
    for part in (x.num, x.den):
        if part.theta_degree >= 1 or part.term_count() > 1:
            for prim, _m in factor_bipoly(part)[2]:
                places.add(Place(x.p, prim, _checked=True))
    return places


def classify_places(coefficients, generators=()):
    """(omega0_excluded, omega1_excluded), the sets of finite places where
    the nonzero coefficients of phi_t fail good reduction (a coefficient
    not integral, or the first or the last nonzero one not a unit), and
    where, in addition, a nonzero generator coordinate is not integral.
    Every place in one of the sets is found by factoring."""
    coeffs = [c for c in coefficients if not c.is_zero()]
    first, last = coeffs[0], coeffs[-1]
    omega0 = set()
    for c in coeffs:
        for v in _support_places(c):
            if any(valuation(b, v) < 0 for b in coeffs) \
                    or valuation(first, v) != 0 or valuation(last, v) != 0:
                omega0.add(v)
    omega1 = set(omega0)
    for g in generators:
        if not g.is_zero():
            omega1 |= {v for v in _support_places(g) if valuation(g, v) < 0}
    return omega0, omega1


def hull_targets(gamma, dq: int):
    """The distinct division targets sum Phi_{rem_i}(x_i), deg rem_i < dq,
    as the fp_span of the window of degree dq - 1, first occurrences kept."""
    span = fp_span(gamma.p, _window_vectors(gamma, dq - 1), gamma.zero_point())
    return list(dict.fromkeys(span))


def enumerated_hull_scan(gamma, prime_bound: int, member_bound: int = 8):
    """(x, q, notes) by listing every division target of each prime, every
    division point of each target and testing each for membership, in
    order: the first x not in gamma with Phi_q(x) in gamma, or None."""
    notes = set()
    for q in _primes_up_to(gamma.p, prime_bound):
        targets = hull_targets(gamma, q.degree)
        f = phi_action(gamma.phi, q)
        per_slot = []
        for s in range(gamma.g):
            results = solve_additive_many(f, [y[s] for y in targets])
            per_slot.append(results)
            for res in results:
                notes.update(res.info.flags)
        candidates = [x for m in range(len(targets))
                      for x in itertools.product(
                          *(per_slot[s][m].points for s in range(gamma.g)))
                      if not point_is_zero(x)]
        for x, cert in zip(candidates, member_many(gamma, candidates,
                                                   member_bound)):
            if not cert.found:
                return x, q, notes
    return None, None, notes


def enumerated_hull(gamma, prime_bound: int, member_bound: int = 8,
                    max_rounds: int = 4):
    """(generators, notes) of divisible_hull, each round by
    enumerated_hull_scan."""
    gens, notes = gamma.gens, set(gamma.notes)
    for _ in range(max_rounds):
        x, _q, found = enumerated_hull_scan(gamma.sub(gens), prime_bound,
                                            member_bound)
        notes |= found
        if x is None:
            return gens, tuple(sorted(notes))
        gens += (x,)
    return gens, tuple(sorted(notes | {"hull-rounds-capped"}))


def embedded_family_unmemoised(gamma, v: Place, n: int, deg_bound: int):
    """adelic._embedded_family with no memo at all: each application of
    phi_t embeds its coefficients afresh."""
    out = []
    for x in gamma.gens:
        z = tuple(embed(c, v, n) for c in x)
        out.append(z)
        for _ in range(deg_bound):
            z = tuple(tp_eval_local(gamma.phi.phi_t, c, {}).truncate(n)
                      for c in z)
            out.append(z)
    return out


class ForgetfulMemo(dict):
    """A lineage memo that keeps nothing, so every request computes
    afresh."""

    def __setitem__(self, key, value):
        pass


def unmemoised_module(gamma):
    """A module equal to gamma whose lineage memo keeps nothing."""
    out = PhiModule(gamma.phi, gamma.g, gamma.gens)
    out._memo = ForgetfulMemo()
    return out


def closure_member_unmemoised(gamma, y, places, precision: int,
                              deg_bound: int):
    """adelic.closure_member at explicit places, with nothing memoised: each
    place embeds the family afresh, and the columns of each level are
    cleared with the denominators of the family's digits and the target's
    together, each level eliminated from scratch."""
    p = gamma.p
    cert = member(unmemoised_module(gamma), y, deg_bound)
    if cert.found:
        return ClosureMembership("in_gamma", cert, (), True, deg_bound,
                                 precision)
    reports = []
    joint = [{} for _ in range(gamma.rank * (deg_bound + 1) + 1)]
    for i, v in enumerate(places):
        points = embedded_family_unmemoised(gamma, v, precision, deg_bound) \
            + [tuple(embed(c, v, precision) for c in y)]
        columns = [{} for _ in points]
        echelon, best = Echelon(columns[:-1], p), 0
        for m in range(precision):
            digits = [tuple(KElem.from_felem(z.terms.get(m, FElem.zero(p)))
                            for z in x) for x in points]
            for col, vec in zip(columns, _family_vectors(digits)[1]):
                col.update(((m, key), c) for key, c in vec.items())
            echelon = Echelon(columns[:-1], p)
            if echelon.solve(columns[-1]) is None:
                break
            best += 1
        close_dim = sample = None
        if best == precision:
            close_dim = len(echelon.kernel())
            sample = _weights_to_operators(echelon.solve(columns[-1]),
                                           gamma.rank, deg_bound, p)
            for whole, col in zip(joint, columns):
                whole.update(((i,) + key, c) for key, c in col.items())
        reports.append(PlaceCloseness(v, best, best == precision, close_dim,
                                      sample))
    if not all(r.reached_cutoff for r in reports):
        conclusive, note = True, "blocked-at-place"
    elif Echelon(joint[:-1], p).solve(joint[-1]) is not None:
        conclusive, note = False, "approximant-within-precision"
    else:
        conclusive, note = True, "no-joint-approximant"
    return ClosureMembership("rejected_up_to_bounds", None, tuple(reports),
                             conclusive, deg_bound, precision, (note,))


def conjugate(phi, gamma: KElem) -> TwistedPoly:
    """gamma^{-1} * phi_t(gamma x): coefficients gamma^{p^i - 1} c_i."""
    if gamma.is_zero():
        raise ZeroDivisionError("conjugation by zero")
    return TwistedPoly(phi.p, [c * gamma ** (phi.p ** i - 1)
                               for i, c in enumerate(phi.phi_t.coeffs)])


def probe_by_conjugation(phi, max_exponent: int = 2) -> ProbeReport:
    """drinfeld.modular_transcendence_probe by conjugating phi with each
    candidate t^i theta^j in the probe's order and testing every
    coefficient of the conjugate for lying in F_p."""
    p = phi.p
    candidates = sorted(
        ((i, j) for i in range(-max_exponent, max_exponent + 1)
         for j in range(-max_exponent, max_exponent + 1)),
        key=lambda ij: (abs(ij[0]) + abs(ij[1]), ij[0], ij[1]))
    for scanned, (i, j) in enumerate(candidates, 1):
        gamma = KElem.t(p) ** i * KElem.theta(p) ** j
        if all(c.den.is_one() and c.num.theta_degree <= 0
               and c.num.t_degree <= 0
               for c in conjugate(phi, gamma).coeffs):
            return ProbeReport("degree_zero_witness", gamma, scanned,
                               max_exponent)
    return ProbeReport("inconclusive_positive", None, len(candidates),
                       max_exponent)


def brute_force_free_rank(gamma, places, deg_bound: int, max_deg: int) -> int:
    """r minus the R-rank of the operator tuples (a_1, .., a_r), each a_i of
    degree <= deg_bound, whose element sum Phi_{a_i}(x_i) reduces to
    torsion at every place.  Every tuple is tried, each element is built
    from the composed operators Phi_a, and each residue coordinate is
    tested by torsion_annihilator of reduction(phi, v) up to max_deg."""
    p, r = gamma.p, gamma.rank
    ops = [RPoly.from_coeffs(p, digits)
           for digits in itertools.product(range(p), repeat=deg_bound + 1)]
    values = {(a.key(), i): tuple(tp_eval(phi_action(gamma.phi, a), c)
                                  for c in x)
              for a in ops for i, x in enumerate(gamma.gens)}
    reduced = [(v, reduction(gamma.phi, v)) for v in places]
    # the passing tuples' Smith rank, grown one independent tuple at a time
    # so that each Smith form has at most r + 1 rows
    independent = []
    for tup in itertools.product(ops, repeat=r):
        y = gamma.zero_point()
        for i, a in enumerate(tup):
            y = point_add(y, values[a.key(), i])
        if all(torsion_annihilator(phibar, c, max_deg).is_torsion
               for v, phibar in reduced for c in reduce_point(y, v)):
            snf = smith_normal_form(RMatrix(p, independent + [tup]))
            if sum(not d.is_zero() for d in snf.invariant_factors) \
                    > len(independent):
                independent.append(tup)
    return r - len(independent)


def coset_oracle(gamma, a: RPoly, deg_bound: int):
    """Gamma / Phi_a(Gamma) by the Smith form of the presentation stacked on
    a * I, with no gcd: (invariant_factors, order, key, firsts).  key(ops)
    names the coset of an operator tuple, its Smith coordinates ops * V
    reduced modulo the invariant factors, and firsts maps each coset's key
    to its first tuple of degree < deg a in product order."""
    p, r = gamma.p, gamma.rank
    a_block = [[a if i == j else RPoly.zero(p) for j in range(r)]
               for i in range(r)]
    snf = smith_normal_form(RMatrix(
        p, list(gamma.presentation(deg_bound).rows) + a_block))
    diag = snf.invariant_factors
    order = p ** sum(d.degree for d in diag if d.degree >= 1)

    def key(ops):
        out = []
        for i, d in enumerate(diag):
            acc = RPoly.zero(p)
            for k in range(r):
                acc = acc + ops[k] * snf.v.rows[k][i]
            out.append((acc % d if d.degree >= 1 else RPoly.zero(p)).key())
        return tuple(out)

    firsts = {}
    for combo in itertools.product(_iter_rpolys_below(p, a.degree), repeat=r):
        firsts.setdefault(key(combo), combo)
        if len(firsts) == order:
            break
    return diag, order, key, firsts


def pairwise_separations(gamma, a: RPoly, reps, places):
    """(separations, unresolved) of adelic.quotient_iso_check with each pair
    of representatives decided on its own difference: at the first place
    that refuses to divide it by Phi_a, or at none."""
    separations, unresolved = [], []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            delta = point_add(reps[i], point_neg(reps[j]))
            for v in places:
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
    return tuple(separations), tuple(unresolved)
