import collections
import contextlib
import functools
import itertools
import json
import math
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab import adelic, drinfeld, localfield, places
from drinfeldlab import experiments as ex
from drinfeldlab import phimodule as pm
from drinfeldlab.base import RPoly, fp_span
from drinfeldlab.drinfeld import DrinfeldModule, solve_additive_many
from drinfeldlab.kfield import BiPoly, KElem, kelem_parse
from drinfeldlab.phimodule import (PhiModule, divisible_hull, is_full, member,
                                   member_many, point_add, point_to_str)
from drinfeldlab.twisted import tp_compose, tp_eval, tp_parse

from helpers import bipoly_from_theta_coeffs

P = 3


@pytest.fixture(scope="module")
def paper_hull():
    """The rank-3 special-characteristic hull of Phi_t(theta), phi_t = theta*tau + tau^2."""
    phi = DrinfeldModule.parse(P, "[0, theta, 1]")
    start = PhiModule(phi, 1, [(tp_eval(phi.phi_t, KElem.theta(P)),)])
    return divisible_hull(start, prime_bound=1)


class TestPaperInstance:
    def test_hull(self, paper_hull):
        assert [point_to_str(x) for x in paper_hull.gens] == [
            "(theta^9+theta^4)", "(theta)", "(1)"]

    def test_full_with_no_capped_bound(self, paper_hull):
        rep = is_full(paper_hull)
        assert rep.kind == "full_up_to_bounds"
        assert rep.witness is None
        assert rep.notes == ()

    def test_zero_dim_sides(self, paper_hull):
        theta = KElem.theta(P)
        points = [(theta,), (theta + KElem.one(P),)]
        rep = ex.zero_dim_intersection(paper_hull, ex.ZeroDim(1, points))
        k_side = {point_to_str(x) for x in rep.k_side}
        assert k_side == {point_to_str(x) for x in points}
        assert k_side <= {point_to_str(x) for x in rep.adelic_side}
        assert rep.verdict == ex.CONFIRMED
        assert not [n for n in rep.notes if n.startswith("fullness-capped")]

    def test_zero_dim_membership_family_shared_by_points(self, paper_hull,
                                                         family_bounds):
        # the fullness scan prepares the deg-8 family of this copy of the
        # hull and _minimize_generators those of its two smaller modules;
        # the last of them is the minimised module, whose family the
        # presentation and the four closure reports' exact membership
        # solves reuse, since they share its lineage memo
        gamma = PhiModule(paper_hull.phi, paper_hull.g, paper_hull.gens)
        rng = random.Random(5)
        theta = KElem.theta(P)
        pts = {}
        while len(pts) < 4:
            x = (sum((KElem.const(P, rng.randrange(P)) * theta ** j
                      for j in range(3)), KElem.zero(P)),)
            pts[point_to_str(x)] = x
        rep = ex.zero_dim_intersection(gamma, ex.ZeroDim(1, list(pts.values())))
        assert family_bounds.count(8) == 3
        assert [point_to_str(x) for x in rep.k_side] == ["(2*theta+2)"]
        assert rep.trace == ()

    def test_batched_membership_matches_single(self, paper_hull):
        texts = ["theta", "theta+1", "theta^9+theta^4", "theta^2", "1/theta",
                 "0", "theta^3+2*theta", "t*theta"]
        ys = [(kelem_parse(P, s),) for s in texts]
        batched = member_many(paper_hull, ys)
        single = [member(paper_hull, y) for y in ys]
        assert [str(c) for c in batched] == [str(c) for c in single]
        assert any(c.found for c in single)
        assert any(not c.found for c in single)

    def test_scan_builds_each_family_once(self, paper_hull, monkeypatch,
                                          family_bounds):
        # the windows of degree 0 and 1 are built once each, shared by the
        # three primes of degree 1 and of degree 2, and the deg-8
        # membership family is built once for all six primes
        gamma = PhiModule(paper_hull.phi, paper_hull.g, paper_hull.gens)
        windows = []
        window_vectors = pm._window_vectors

        def counting_window(gamma, deg):
            windows.append(deg)
            return window_vectors(gamma, deg)

        monkeypatch.setattr(pm, "_window_vectors", counting_window)
        assert is_full(gamma).kind == "full_up_to_bounds"
        assert windows == [0, 1]
        assert sorted(family_bounds) == [0, 1, 8]

    def test_pseudo_torsion_list_cap_leaves_the_verdict(self, paper_hull,
                                                        monkeypatch):
        # the pseudo-torsion space is compared with the torsion by rank, so
        # a cap on listing its points only empties the report's list
        monkeypatch.setattr(adelic, "_PSEUDO_ENUM_CAP", 0)
        theta = KElem.theta(P)
        rep = ex.zero_dim_intersection(
            paper_hull, ex.ZeroDim(1, [(theta,), (theta + KElem.one(P),)]))
        assert rep.verdict == ex.CONFIRMED
        ctc = dict(rep.certificates)["closure-torsion"]
        assert ctc["kind"] == "confirmed"
        assert ctc["pseudo_torsion_points"] is None

    def test_zero_dim_k_side_is_per_point_member(self, paper_hull):
        # the K-side read off the closure reports is the one per-point
        # member calls give, on seeded theta-polynomials of degree <= 2
        rng = random.Random(5)
        theta = KElem.theta(P)
        pts = {}
        while len(pts) < 4:
            x = (sum((KElem.const(P, rng.randrange(P)) * theta ** j
                      for j in range(3)), KElem.zero(P)),)
            pts[point_to_str(x)] = x
        pts = list(pts.values())
        rep = ex.zero_dim_intersection(paper_hull, ex.ZeroDim(1, pts))
        want = sorted(point_to_str(x) for x in pts
                      if member(paper_hull, x, 8).found)
        assert sorted(point_to_str(x) for x in rep.k_side) == want
        assert 0 < len(want) < len(pts)


# -- the exact sweeps, against slow references ------------------------------


def _carlitz_plane():
    phi = DrinfeldModule.parse(P, "[t, 1]")
    theta, zero = KElem.theta(P), KElem.zero(P)
    return PhiModule(phi, 2, [(theta, zero), (zero, theta)])


def _digit_counter_sweep(gamma, enum_deg):
    """Every sum of digit * iterate, one digit counter per generator."""
    width = enum_deg + 1
    iterates = []
    for x in gamma.gens:
        row = [tuple(x)]
        for _ in range(enum_deg):
            row.append(tuple(tp_eval(gamma.phi.phi_t, c) for c in row[-1]))
        iterates.append(row)
    out = []
    for codes in itertools.product(range(P ** width), repeat=gamma.rank):
        acc = [KElem.zero(P)] * gamma.g
        for i, code in enumerate(codes):
            for j in range(width):
                digit = (code // P ** j) % P
                acc = [s + KElem.const(P, digit) * c
                       for s, c in zip(acc, iterates[i][j])]
        out.append(tuple(acc))
    return out


def _exact_span(gamma, enum_deg):
    """The same window in the same order, built exactly one iterate
    vector at a time, slowest digit first (one addition per point)."""
    p = gamma.p
    out = [tuple(KElem.zero(p) for _ in range(gamma.g))]
    for x in gamma.gens:
        row = [tuple(x)]
        for _ in range(enum_deg):
            row.append(tuple(tp_eval(gamma.phi.phi_t, c) for c in row[-1]))
        for v in reversed(row):
            multiples = [tuple(KElem.const(p, k) * c for c in v)
                         for k in range(1, p)]
            out = [w for a in out
                   for w in (a, *(point_add(a, kv) for kv in multiples))]
    return out


def _zero_poly(gamma):
    return ex.MultiPoly(gamma.p, gamma.g)


class TestBoundedElements:
    """The swept window itself: with the zero polynomial every image
    vanishes, so _swept_window returns the whole window."""

    @pytest.mark.parametrize("gens, enum_deg", [
        (["theta"], 3),
        (["1/theta"], 2),
    ])
    def test_rank_one_order(self, gens, enum_deg):
        phi = DrinfeldModule.parse(P, "[0, theta, 1]")
        gamma = PhiModule(phi, 1, [(kelem_parse(P, s),) for s in gens])
        fast = ex._swept_window(gamma, _zero_poly(gamma), enum_deg)
        slow = _digit_counter_sweep(gamma, enum_deg)
        assert [point_to_str(x) for x in fast] == \
            [point_to_str(x) for x in slow]

    def test_rank_two_order(self):
        gamma = _carlitz_plane()
        fast = ex._swept_window(gamma, _zero_poly(gamma), 2)
        assert len(fast) == P ** 6
        assert fast == _digit_counter_sweep(gamma, 2)
        assert fast == _exact_span(gamma, 2)

    @pytest.mark.parametrize("enum_deg", [4, 10 ** 9])
    def test_cap_unchanged(self, enum_deg):
        # 3^10 and 3^(2*(10^9+1)) points; the second is refused without
        # computing the power
        start = time.perf_counter()
        with pytest.raises(ValueError):
            ex._swept_window(_carlitz_plane(), _zero_poly(_carlitz_plane()),
                             enum_deg)
        assert time.perf_counter() - start < 1.0


def _rpolys(p=P):
    return st.lists(st.integers(0, p - 1), min_size=1, max_size=3).map(
        lambda cs: RPoly.from_coeffs(p, cs))


def _kelems(nonzero=False, p=P):
    bipolys = st.lists(_rpolys(p), min_size=1, max_size=3).map(
        lambda rs: bipoly_from_theta_coeffs(p, rs))
    nums = bipolys.filter(lambda f: not f.is_zero()) if nonzero else bipolys
    dens = st.one_of(st.just(BiPoly.one(p)),
                     bipolys.filter(lambda f: not f.is_zero()))
    return st.builds(KElem, nums, dens)


@st.composite
def _poly_and_point(draw):
    g = draw(st.integers(1, 3))
    coeffs = st.one_of(st.just(KElem.one(P)), st.just(KElem.const(P, 2)),
                       _kelems(nonzero=True))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * g), coeffs,
                                 max_size=4))
    point = tuple(draw(_kelems()) for _ in range(g))
    return ex.MultiPoly(P, g, terms), point


def _naive_evaluate(f, point):
    acc = KElem.zero(f.p)
    for exps, c in f.terms.items():
        term = c
        for x, e in zip(point, exps):
            for _ in range(e):
                term = term * x
        acc = acc + term
    return acc


class TestEvaluate:
    @settings(max_examples=60, deadline=None)
    @given(_poly_and_point())
    def test_matches_term_by_term(self, case):
        f, point = case
        assert f.evaluate(point) == _naive_evaluate(f, point)

    def test_absent_variable_and_rational_point(self):
        f = ex.poly_parse(P, 3, "theta*x^2*z + 2*z^3 + t")
        point = (kelem_parse(P, "1/theta"), kelem_parse(P, "theta^5"),
                 kelem_parse(P, "(theta+t)/(theta^2+1)"))
        assert f.evaluate(point) == _naive_evaluate(f, point)

    def test_large_exponent_fast(self):
        f = ex.poly_parse(P, 1, "x^200000")
        start = time.perf_counter()
        value = f.evaluate((KElem.theta(P),))
        assert time.perf_counter() - start < 0.1
        assert value == KElem.theta(P) ** 200000


def _probe_reference(psi, on_variety, translates, ms, box):
    """uniformity_probe computed translate by translate: every translate's
    hits recomputed under the predicate on_variety(x - a) and solved on
    their own at every level.  Returns the table's rows, max_counts,
    certified and flags, and the surviving point keys of every
    (translate, level)."""
    g = len(translates[0])
    powers, acc = {}, None
    for level in range(1, max(ms) + 1):
        acc = psi if acc is None else tp_compose(acc, psi)
        powers[level] = acc
    rows, levels, flags = [], {}, set()
    for idx, a in enumerate(translates):
        hits = {}
        for x in box:
            if on_variety(tuple(c - s for c, s in zip(x, a))):
                hits[point_to_str(x)] = x
        keys = sorted(hits)
        for m in ms:
            if m == 0:
                levels[idx, 0] = set(keys)
            else:
                targets = [c for k in keys for c in hits[k]]
                results = solve_additive_many(powers[m], targets) \
                    if targets else []
                for r in results:
                    flags.update(r.info.flags)
                levels[idx, m] = {
                    k for i, k in enumerate(keys)
                    if all(r.points for r in results[i * g:(i + 1) * g])}
            rows.append((idx, m, len(levels[idx, m])))
    indices = range(len(translates))
    return {
        "rows": tuple(rows),
        "max_counts": tuple((m, max(len(levels[i, m]) for i in indices))
                            for m in ms),
        "certified": not flags and all(
            levels[i, hi] <= levels[i, lo] for i in indices
            for lo, hi in zip(ms, ms[1:])),
        "flags": tuple(sorted(flags)),
        "levels": levels,
    }


def _on_hypersurface(poly):
    return lambda y: _naive_evaluate(poly, y).is_zero()


def _assert_matches_reference(table, expected):
    assert table.rows == expected["rows"]
    assert table.max_counts == expected["max_counts"]
    assert table.certified is expected["certified"]
    assert table.flags == expected["flags"]


@contextlib.contextmanager
def _solver_calls():
    """Record (operator, targets, results) of every division solve the
    probe makes."""
    calls = []

    def spy(f, ys, *args, **kwargs):
        ys = list(ys)
        results = solve_additive_many(f, ys, *args, **kwargs)
        calls.append((f, ys, results))
        return results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ex, "solve_additive_many", spy)
        yield calls


def _solved_keys(call, g):
    """Keys of the points whose every coordinate the recorded solve hit."""
    _f, ys, results = call
    return {point_to_str(tuple(ys[i:i + g])) for i in range(0, len(ys), g)
            if all(r.points for r in results[i:i + g])}


_CUBIC = "x^3 - theta^2*x"
# roots of the varieties the property test draws
_PROBE_ROOTS = {_CUBIC: ["0", "theta", "2*theta"],
                "x*(x-theta-1)*(x-theta^2)": ["0", "theta+1", "theta^2"]}
# theta-polynomials of degree <= 2, a few fractions and psi(1/theta)
_PROBE_POOL = [x for (x,) in ex.theta_box(P, 1, 2)] + [
    kelem_parse(P, s) for s in ["1/theta", "1/theta+theta", "2/theta",
                                "1/theta^2+1/theta^9"]]


class TestUniformityProbe:
    def test_matches_per_translate_reference(self):
        psi = tp_parse(P, "[0, theta, 1]")
        poly = ex.poly_parse(P, 1, "x^3 - theta^2*x")
        box = list(ex.theta_box(P, 1, 2))
        # a repeated point, and points only the translate theta^3 reaches
        box += [box[4], (kelem_parse(P, "theta^3+theta"),),
                (kelem_parse(P, "theta^3"),)]
        translates = [(kelem_parse(P, s),)
                      for s in ["0", "theta", "2*theta+1", "theta^3",
                                "1/theta"]]
        ms = (0, 1, 2)
        table = ex.uniformity_probe(psi, ex.Hypersurface(poly), translates,
                                    ms, box)
        expected = _probe_reference(psi, _on_hypersurface(poly), translates,
                                    ms, box)
        _assert_matches_reference(table, expected)
        assert table.rows[9] == (3, 0, 2)      # theta^3 and theta^3+theta
        assert table.rows[12] == (4, 0, 0)

    @pytest.mark.golden
    def test_golden_cubic(self):
        psi = tp_parse(P, "[0, theta, 1]")
        variety = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
        translates = [(kelem_parse(P, s),)
                      for s in ["0", "theta", "theta+1", "2*theta^2"]]
        table = ex.uniformity_probe(psi, variety, translates, (0, 1, 2),
                                    ex.theta_box(P, 1, 2))
        assert table.rows == (
            (0, 0, 3), (0, 1, 1), (0, 2, 1), (1, 0, 3), (1, 1, 1), (1, 2, 1),
            (2, 0, 3), (2, 1, 1), (2, 2, 0), (3, 0, 3), (3, 1, 0), (3, 2, 0))
        assert table.max_counts == ((0, 3), (1, 1), (2, 1))
        assert table.certified is True

    @pytest.mark.parametrize("first", [0, 1])
    def test_line_refutation_ignores_translate_order(self, first):
        """X: y = 0 is a line, and the box holds F_p-lines on it; the
        probe refutes X whichever translate comes first, because it probes
        translate 0's hits x as the points x - a of X, not as points of
        X + a."""
        zero, theta = KElem.zero(P), KElem.theta(P)
        translates = [(zero, zero), (theta, theta)]
        variety = ex.Hypersurface(ex.poly_parse(P, 2, "y"))
        with pytest.raises(ValueError, match="parametrized line"):
            ex.uniformity_probe(tp_parse(P, "[0, theta, 1]"), variety,
                                translates[first:] + translates[:first],
                                (0, 1), ex.theta_box(P, 2, 1))

    def test_one_solve_per_positive_level(self):
        psi = tp_parse(P, "[0, theta, 1]")
        variety = ex.Hypersurface(ex.poly_parse(P, 1, _CUBIC))
        translates = [(x,) for x in _PROBE_POOL[:9]]
        with _solver_calls() as calls:
            ex.uniformity_probe(psi, variety, translates, (0, 1, 2, 3),
                                ex.theta_box(P, 1, 2))
        assert len(calls) == 3
        assert [f.tau_degree for f, _ys, _r in calls] == [2, 4, 6]

    def test_batched_level_matches_a_translates_own(self):
        """At m = 1 the sharp theta-bound is 0 for the translate 0 alone
        and for the level's whole target set; the counts match the
        per-translate solve, rational translate and rational box point
        included."""
        psi = tp_parse(P, "[0, theta, 1]")
        poly = ex.poly_parse(P, 1, _CUBIC)
        translates = [(kelem_parse(P, s),)
                      for s in ["0", "theta^2+1", "1/theta"]]
        box = list(ex.theta_box(P, 1, 2)) + [
            (kelem_parse(P, s),) for s in ["1/theta", "1/theta+theta"]]
        ms = (0, 1, 2)
        with _solver_calls() as calls:
            table = ex.uniformity_probe(psi, ex.Hypersurface(poly),
                                        translates, ms, box)
        expected = _probe_reference(psi, _on_hypersurface(poly), translates,
                                    ms, box)
        own = solve_additive_many(psi, [KElem.zero(P), KElem.theta(P),
                                        -KElem.theta(P)])
        assert own[0].info.theta_bound == 0
        assert calls[0][2][0].info.theta_bound == 0
        _assert_matches_reference(table, expected)
        assert table.rows[6] == (2, 0, 2)      # 1/theta and 1/theta+theta

    def test_zero_dim_variety(self):
        psi = tp_parse(P, "[0, theta, 1]")
        theta, zero, one = KElem.theta(P), KElem.zero(P), KElem.one(P)
        points = [(zero, zero), (theta, zero), (zero, theta),
                  (theta, theta * theta), (one / theta, one)]
        variety = ex.ZeroDim(2, points)
        translates = [(zero, zero), (one, theta), (theta, one / theta)]
        # the last box point is (1/theta, 1) shifted by the last translate
        box = list(ex.theta_box(P, 2, 1)) + [
            (one / theta, one), (theta + one / theta, one + one / theta)]
        ms = (0, 1, 2)
        table = ex.uniformity_probe(psi, variety, translates, ms, box)
        keys = {point_to_str(x) for x in points}
        expected = _probe_reference(
            psi, lambda y: point_to_str(y) in keys, translates, ms, box)
        _assert_matches_reference(table, expected)
        assert [r[2] for r in table.rows if r[1] == 0] == [4, 3, 1]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(_PROBE_ROOTS)),
           st.lists(st.sampled_from(_PROBE_POOL), min_size=1, max_size=4),
           st.data())
    def test_batched_survivors_contain_per_translate(self, text, translates,
                                                     data):
        # box points drawn from the translates' hits and the pool
        roots = [kelem_parse(P, r) for r in _PROBE_ROOTS[text]]
        shifted = {point_to_str((a + r,)): (a + r,)
                   for a in translates for r in roots}
        candidates = [x for _, x in sorted(shifted.items())] + \
            [(x,) for x in _PROBE_POOL]
        box = data.draw(st.lists(st.sampled_from(candidates), max_size=12))
        translates = [(a,) for a in translates]
        psi = tp_parse(P, "[0, theta, 1]")
        poly = ex.poly_parse(P, 1, text)
        ms = (0, 1, 2)
        with _solver_calls() as calls:
            table = ex.uniformity_probe(psi, ex.Hypersurface(poly),
                                        translates, ms, box)
        expected = _probe_reference(psi, _on_hypersurface(poly), translates,
                                    ms, box)
        levels = expected["levels"]
        assert [r for r in table.rows if r[1] == 0] == \
            [r for r in expected["rows"] if r[1] == 0]
        hit = any(levels[i, 0] for i in range(len(translates)))
        assert len(calls) == (2 if hit else 0)
        solved = {m: _solved_keys(call, 1) for m, call in zip((1, 2), calls)}
        for idx, m, count in table.rows:
            if m == 0:
                continue
            batched = levels[idx, 0] & solved.get(m, set())
            assert count == len(batched)
            assert levels[idx, m] <= batched


def _hyperbola_points(p, c, us):
    """Points (u, c/u) of x*y = c."""
    c = kelem_parse(p, c)
    return [(u, c / u) for u in (kelem_parse(p, s) for s in us)]


def _roots(p, texts):
    return [(kelem_parse(p, s),) for s in texts]


# name -> (p, variety text or None for zero-dim, points of X, translates);
# the denominators theta+1 and t+theta make some ring maps undefined
_FILTER_CASES = {
    "p2-g1-rational-roots": (
        2, "x*(x-1/(theta+1))*(x-t-theta)",
        _roots(2, ["0", "1/(theta+1)", "t+theta"]),
        ["0", "theta", "1/(t+theta)", "theta+1"]),
    "p3-g1-t-coefficients": (
        3, "x^3 - t^2*x", _roots(3, ["0", "t", "2*t"]),
        ["0", "t", "1/(theta+1)", "theta^2+t"]),
    "p5-g1-cubic": (
        5, "x^3 - theta^2*x", _roots(5, ["0", "theta", "4*theta"]),
        ["0", "theta", "1/(t+theta)"]),
    # x^3 - x vanishes on all of F_3, so no F_p-image rules a point out
    "p3-g1-nothing-filtered": (
        3, "(x^3 - x)*(x - theta)", _roots(3, ["0", "1", "2", "theta"]),
        ["0", "theta", "1/(theta+1)"]),
    "p2-g2-hyperbola": (
        2, "x*y - theta - 1",
        _hyperbola_points(2, "theta+1", ["1", "theta", "1/(t+theta)"]),
        ["0 1", "theta 1/(theta+1)", "1 theta"]),
    "p3-g2-hyperbola-t": (
        3, "x*y - t*theta",
        _hyperbola_points(3, "t*theta", ["1", "theta", "t", "1/(theta+1)"]),
        ["0 0", "theta 1", "1/(t+theta) 0"]),
    "p5-g2-hyperbola": (
        5, "x*y - theta", _hyperbola_points(5, "theta", ["1", "2", "theta"]),
        ["0 0", "1 2"]),
    "p2-g2-zero-dim": (
        2, None, [(KElem.zero(2), KElem.zero(2))] +
        _hyperbola_points(2, "t", ["theta", "1/(theta+1)"]),
        ["0 0", "1 theta", "theta 1/(t+theta)"]),
    "p5-g1-zero-dim": (
        5, None, _roots(5, ["0", "theta", "1/(t+theta)"]), ["0", "2*theta"]),
}


def _filter_case(name):
    """(psi, variety, translates, box) of a _FILTER_CASES entry.  The box
    holds a + x for every translate a and point x of X, a seeded sample of
    the theta-box and of rational points, and a repeated point."""
    p, text, points, translate_texts = _FILTER_CASES[name]
    g = len(points[0])
    rng = random.Random(name)
    variety = ex.ZeroDim(g, points) if text is None else \
        ex.Hypersurface(ex.poly_parse(p, g, text))
    translates = [tuple(kelem_parse(p, c) for c in a.split())
                  for a in translate_texts]
    pool = [kelem_parse(p, s) for s in ["1/(theta+1)", "1/(t+theta)", "t",
                                        "theta/(t+1)"]]
    box = [tuple(c + s for c, s in zip(x, a)) for a in translates
           for x in points]
    theta_box = ex.theta_box(p, g, 2 // g)
    box += rng.sample(theta_box, min(12, len(theta_box)))
    box += [tuple(rng.choice(pool) for _ in range(g)) for _ in range(4)]
    box.append(box[rng.randrange(len(box))])
    rng.shuffle(box)
    return tp_parse(p, "[0, theta, 1]"), variety, translates, box


def _filtered_shifts(variety, translates, box):
    """Keys of the distinct shifted points x - a that pass both stages of
    the filter, x - a read as the combination (1*x, (p-1)*a) in stage 2
    (all of them for a ZeroDim)."""
    n, p = len(box), box[0][0].p
    if isinstance(variety, ex.Hypersurface):
        rows, vanish, lifted = _all_maps_filter(variety.poly, box + translates)
    else:
        rows = [()] * (n + len(translates))
        vanish = lifted = lambda _: True
    return {point_to_str(tuple(c - s for c, s in zip(x, a)))
            for j, a in enumerate(translates)
            for i, x in enumerate(box)
            if vanish(tuple(r - s for r, s in zip(rows[i], rows[n + j])))
            and lifted(((i, 1), (n + j, p - 1)))}


def _counting_lifted(monkeypatch):
    """The combinations that _fp_filter's stage 2 is asked about, in call
    order: the points that pass stage 1 and reach stage 2."""
    calls = []
    build = ex._fp_filter

    def counting_filter(poly, points):
        rows, vanish, lifted = build(poly, points)

        def counting(combination):
            calls.append(combination)
            return lifted(combination)

        return rows, vanish, counting

    monkeypatch.setattr(ex, "_fp_filter", counting_filter)
    return calls


def _counted_seed0_probe(monkeypatch, text, extra=()):
    """(exact tests, point_add calls outside the line probe, shifted points
    that reach stage 2) of the seed-0 uniformity-sweep probe on text, 27
    translates over the 243-point theta-box and the extra points, at level
    0; its rows are checked against the per-translate reference."""
    tested, added, in_line_probe = [], [], []
    contains, add = ex.variety_contains, ex.point_add
    reject = ex._reject_parametrized_lines

    def counting(spec, y):
        tested.append(y)
        return contains(spec, y)

    def counting_add(x, y):
        if not in_line_probe:
            added.append(x)
        return add(x, y)

    def line_probe(*args):
        in_line_probe.append(True)
        try:
            return reject(*args)
        finally:
            in_line_probe.pop()

    monkeypatch.setattr(ex, "variety_contains", counting)
    monkeypatch.setattr(ex, "point_add", counting_add)
    monkeypatch.setattr(ex, "_reject_parametrized_lines", line_probe)
    lifted = _counting_lifted(monkeypatch)
    psi = tp_parse(P, "[0, theta, 1]")
    poly = ex.poly_parse(P, 1, text)
    box = list(ex.theta_box(P, 1, 4)) + list(extra)
    translates = ex.theta_box(P, 1, 2)
    table = ex.uniformity_probe(psi, ex.Hypersurface(poly), translates, (0,),
                                box)
    # the reference's 6,561 shifted points are 243 distinct ones
    on_x = functools.cache(_on_hypersurface(poly))
    assert table.rows == _probe_reference(psi, on_x, translates, (0,),
                                          box)["rows"]
    return len(tested), len(added), len(lifted)


# the seed-0 probe's exact tests, after stage 2 of the filter
_SEED0_PROBE_EXACT = {_CUBIC: 9,
                      "x*(x-theta-1)*(x-theta^3-theta)*(x-theta^2)": 7}


class TestProbeHitSets:
    """The probe's hit sets, built from F_p-image classes, against exact
    evaluation of every (translate, box point) pair."""

    @pytest.mark.parametrize("name", sorted(_FILTER_CASES))
    def test_matches_exact_evaluation(self, name, monkeypatch):
        psi, variety, translates, box = _filter_case(name)
        tested = []
        contains = ex.variety_contains

        def counting(spec, y):
            tested.append(point_to_str(y))
            return contains(spec, y)

        monkeypatch.setattr(ex, "variety_contains", counting)
        with _solver_calls() as calls:
            table = ex.uniformity_probe(psi, variety, translates, (0, 1), box)
        if isinstance(variety, ex.Hypersurface):
            on_variety = _on_hypersurface(variety.poly)
        else:
            keys = variety.keys
            on_variety = lambda y: tuple(y) in keys    # noqa: E731
        expected = _probe_reference(psi, on_variety, translates, (0,), box)
        levels = expected["levels"]
        assert [r for r in table.rows if r[1] == 0] == list(expected["rows"])
        assert all(levels[i, 0] for i in range(len(translates)))
        # the level-1 solve's targets are the hits of every translate
        (call,) = calls
        g = variety.g
        hits = set().union(*(levels[i, 0] for i in range(len(translates))))
        assert {point_to_str(tuple(call[1][i:i + g]))
                for i in range(0, len(call[1]), g)} == hits
        solved = _solved_keys(call, g)
        assert [r[2] for r in table.rows if r[1] == 1] == \
            [len(levels[i, 0] & solved) for i in range(len(translates))]
        # each shifted point that every usable map lets through is tested
        # exactly once, and no other
        assert sorted(tested) == sorted(_filtered_shifts(variety, translates,
                                                         box))

    def test_nothing_filtered(self):
        """x^3 - x vanishes on all of F_3, so stage 1 rules no shifted
        point out; it does not vanish off F_3, so stage 2 does."""
        _psi, variety, translates, box = _filter_case(
            "p3-g1-nothing-filtered")
        n = len(box)
        rows, vanish, lifted = ex._fp_filter(variety.poly, box + translates)
        pairs = [(i, n + j) for j in range(len(translates)) for i in range(n)]
        assert all(vanish(tuple((r - s) % P for r, s in zip(rows[i], rows[k])))
                   for i, k in pairs)
        assert not all(lifted(((i, 1), (k, P - 1))) for i, k in pairs)
        assert _filtered_shifts(variety, translates, box) < {
            point_to_str(tuple(c - s for c, s in zip(x, a)))
            for a in translates for x in box}

    @pytest.mark.parametrize("text, bound", [
        ("x^3 - theta^2*x", 81),
        ("x*(x-theta-1)*(x-theta^3-theta)*(x-theta^2)", 108)])
    def test_seed0_benchmark_exact_tests(self, text, bound, monkeypatch):
        """The uniformity-sweep instances at seed 0: 27 translates over the
        243-point theta-box.  bound distinct shifted points pass stage 1,
        and only those that pass stage 2 too are built and tested."""
        exact = _SEED0_PROBE_EXACT[text]
        assert _counted_seed0_probe(monkeypatch, text) == (exact, exact,
                                                           bound)

    @pytest.mark.parametrize("text", sorted(_SEED0_PROBE_EXACT))
    def test_seed0_stage2_evaluates_once_per_image_point(self, text,
                                                         monkeypatch):
        """Stage 2 evaluates a map's image polynomial at most once per
        image point: the data are free of t, so p = 3 maps, each with at
        most p^2 = 9 image points at g = 1.  The exact tests and the calls
        into stage 2 are the counts of test_seed0_benchmark_exact_tests."""
        evaluated, in_stage_2 = [], []
        value, build = ex._Fp2.value, ex._fp_filter

        def counting_value(field, terms, y):
            if in_stage_2:
                evaluated.append((id(terms), y))
            return value(field, terms, y)

        def flagged_filter(poly, points):
            rows, vanish, lifted = build(poly, points)

            def flagged(combination):
                in_stage_2.append(True)
                try:
                    return lifted(combination)
                finally:
                    in_stage_2.pop()

            return rows, vanish, flagged

        monkeypatch.setattr(ex._Fp2, "value", counting_value)
        monkeypatch.setattr(ex, "_fp_filter", flagged_filter)
        exact = _SEED0_PROBE_EXACT[text]
        counts = _counted_seed0_probe(monkeypatch, text)
        assert counts[:2] == (exact, exact)
        assert len(set(evaluated)) == len(evaluated)
        per_map = collections.Counter(key for key, _ in evaluated)
        assert len(per_map) <= P
        assert max(per_map.values()) <= P * P
        # without the memo every call into stage 2 evaluates at least once
        assert len(evaluated) < counts[2]

    def test_rational_box_point_keeps_the_filter(self, monkeypatch):
        """1/theta in the box makes the maps theta -> 0 undefined, so stage
        1 drops them for the whole box and lets 270 shifted points through;
        stage 2 skips a map only where it is undefined."""
        extra = [(kelem_parse(P, "1/theta"),)]
        assert _counted_seed0_probe(monkeypatch, _CUBIC, extra) == (9, 9, 270)

    @pytest.mark.parametrize("name", sorted(_FILTER_CASES))
    def test_coordinate_keys_separate_shifted_points(self, name):
        """The key of x - a, the difference of the keys mod p, is equal for
        two shifted points exactly when their text forms are."""
        _psi, variety, translates, box = _filter_case(name)
        p = _FILTER_CASES[name][0]
        keys = ex._coordinate_keys(box + translates)
        assert len(keys) == len(box) + len(translates)
        pairs = {(tuple((u - v) % p for u, v in zip(kx, ka)),
                  point_to_str(tuple(c - s for c, s in zip(x, a))))
                 for x, kx in zip(box, keys)
                 for a, ka in zip(translates, keys[len(box):])}
        assert len({key for key, _ in pairs}) == len(pairs)
        assert len({text for _, text in pairs}) == len(pairs)


@pytest.mark.golden
class TestGenericSweepGolden:
    @pytest.mark.parametrize("text, k_side", [
        ("x*y - theta", []),
        ("x^2 - theta*y", ["(0, 0)", "(theta, theta)", "(2*theta, theta)"]),
    ])
    def test_golden(self, text, k_side):
        variety = ex.Hypersurface(ex.poly_parse(P, 2, text))
        rep = ex.generic_char_experiment(_carlitz_plane(), variety,
                                         enum_deg=2)
        assert rep.verdict == ex.CONFIRMED
        assert [point_to_str(x) for x in rep.k_side] == k_side
        assert [point_to_str(x) for x in rep.adelic_side] == k_side
        assert rep.notes == ("hypersurface-swept-to-operator-degree-2",)


class TestGenericZeroDimKSide:
    @pytest.mark.parametrize("seed", [7, 9])
    def test_is_per_point_member(self, seed):
        # the K-side read off the closure reports is the one per-point
        # member calls give; both seeds draw members and non-members
        rng = random.Random(seed)
        gamma = _carlitz_plane()
        theta = KElem.theta(P)

        def coord():
            return KElem.const(P, rng.randrange(P)) * theta + \
                KElem.const(P, rng.randrange(P))

        pts = list({point_to_str(x): x for x in
                    ((coord(), coord()) for _ in range(5))}.values())
        rep = ex.generic_char_experiment(gamma, ex.ZeroDim(2, pts))
        want = sorted(point_to_str(x) for x in pts
                      if member(gamma, x, 8).found)
        assert sorted(point_to_str(x) for x in rep.k_side) == want
        assert 0 < len(want) < len(pts)

    def test_rank_zero_module(self):
        # the closure of the zero module holds no nonzero point
        gamma = PhiModule(DrinfeldModule.parse(P, "[t, 1]"), 1, [])
        rep = ex.generic_char_experiment(gamma,
                                         ex.ZeroDim(1, [(KElem.theta(P),)]))
        assert rep.verdict == ex.CONFIRMED
        assert rep.k_side == () and rep.adelic_side == ()

    def test_membership_family_shared_by_points(self, family_bounds):
        # the four closure reports' exact membership solves share one
        # deg_bound family
        theta, zero = KElem.theta(P), KElem.zero(P)
        pts = [(theta, zero), (zero, theta), (theta, theta),
               (theta + KElem.one(P), zero)]
        rep = ex.generic_char_experiment(_carlitz_plane(), ex.ZeroDim(2, pts),
                                         deg_bound=4, cutoff=4, precision=4)
        assert family_bounds.count(4) == 1
        assert [point_to_str(x) for x in rep.k_side] == \
            [point_to_str(x) for x in ex._sorted_points(pts[:3])]
        assert rep.trace == ()


GOLDEN_SEED0 = pathlib.Path(__file__).parent / "data" / "generic_char_seed0.json"


@pytest.mark.golden
class TestGenericCertificatesGolden:
    def test_reports_byte_for_byte(self):
        """The seed-0 generic-sweep reports, certificates included, as the
        JSON that the recorded file holds."""
        theta, zero = KElem.theta(P), KElem.zero(P)
        points = [(theta, zero), (zero, theta), (theta, theta),
                  (theta + 1, zero)]
        varieties = {
            "x*y - theta": ex.Hypersurface(ex.poly_parse(P, 2, "x*y - theta")),
            "4-points": ex.ZeroDim(2, points),
        }
        reports = {label: ex.generic_char_experiment(_carlitz_plane(), v)
                   .to_json_dict() for label, v in varieties.items()}
        text = json.dumps(reports, sort_keys=True, indent=1) + "\n"
        assert text == GOLDEN_SEED0.read_text()


def _memo_kinds(gamma):
    """How many entries of each kind gamma's lineage memo holds."""
    return collections.Counter(key[0] for key in gamma._memo)


class TestMemoTraffic:
    """The seed-0 generic-sweep pass: three pipeline calls on one module,
    whose lineage memo serves the discreteness certificates and the
    filtrations with their embedded families, and whose family builds
    each own one dict of coefficient embeddings."""

    @pytest.fixture
    def traffic(self, monkeypatch):
        """The result of each filtration request, each embedded family
        build, each certificate request, and each embed call made through
        localfield (coefficients of phi_t, in tp_eval_local) and through
        adelic (points: generators and targets)."""
        counts = {kind: [] for kind in ("requests", "builds", "certificates",
                                        "coefficients", "points")}

        def counting(kind, call):
            def wrapped(*args):
                counts[kind].append(call(*args))
                return counts[kind][-1]
            return wrapped

        for module, name, kind in (
                (adelic, "_filtration", "requests"),
                (adelic, "_embedded_family", "builds"),
                (ex, "discreteness_certificate", "certificates"),
                (localfield, "embed", "coefficients"),
                (adelic, "embed", "points")):
            monkeypatch.setattr(module, name,
                                counting(kind, getattr(module, name)))
        return counts

    @staticmethod
    def _sweep(gamma):
        theta, zero = KElem.theta(P), KElem.zero(P)
        varieties = [
            ex.Hypersurface(ex.poly_parse(P, 2, "x*y - theta")),
            ex.Hypersurface(ex.poly_parse(P, 2, "x^2 - theta*y")),
            ex.ZeroDim(2, [(theta, zero), (zero, theta), (theta, theta),
                           (theta + 1, zero)]),
        ]
        for variety in varieties:
            ex.generic_char_experiment(gamma, variety)

    def test_seed0_generic_sweep(self, traffic):
        # the first call's three certificates and the outsider's closure
        # check at the three places ask for the same three filtrations
        gamma = _carlitz_plane()
        self._sweep(gamma)
        built = {id(out) for out in traffic["requests"]}
        assert (len(traffic["requests"]), len(built)) == (6, 3)
        assert len(traffic["builds"]) == 3
        certificates = {id(out) for out in traffic["certificates"]}
        assert (len(traffic["certificates"]), len(certificates)) == (9, 3)
        assert _memo_kinds(gamma) == {"discreteness": 3, "filtration": 3,
                                      "orbit": 2, "family": 1}
        assert len(traffic["coefficients"]) == 6
        assert len(traffic["coefficients"] + traffic["points"]) == 24

    def test_a_fresh_equal_module_builds_its_own(self, traffic):
        gamma = _carlitz_plane()
        self._sweep(gamma)
        fresh = _carlitz_plane()
        assert fresh == gamma
        self._sweep(fresh)
        built = {id(out) for out in traffic["requests"]}
        assert (len(traffic["requests"]), len(built)) == (12, 6)
        assert len(traffic["builds"]) == 6
        assert len({id(out) for out in traffic["certificates"]}) == 6
        assert _memo_kinds(fresh) == _memo_kinds(gamma)
        assert len(traffic["coefficients"]) == 12


@pytest.fixture
def builds_per_module(monkeypatch):
    """How often each (module object, deg_bound) pair builds its iterate
    family ("family") and its prepared family with the echelon
    ("prepared"); the modules are kept alive so no id is reused."""
    builds = {"family": {}, "prepared": {}}
    kept = []

    def counting(kind, build):
        def wrapper(gamma, deg_bound):
            kept.append(gamma)
            key = (id(gamma), deg_bound)
            builds[kind][key] = builds[kind].get(key, 0) + 1
            return build(gamma, deg_bound)
        return wrapper

    family = counting("family", pm._iterate_family)
    monkeypatch.setattr(pm, "_iterate_family", family)
    monkeypatch.setattr(adelic, "_iterate_family", family)
    monkeypatch.setattr(pm, "_prepare_family",
                        counting("prepared", pm._prepare_family))
    return builds


class TestPreparedFamilies:
    """No module object eliminates its family twice at one bound."""

    def test_seed0_zero_dim(self, paper_hull, builds_per_module):
        gamma = PhiModule(paper_hull.phi, paper_hull.g, paper_hull.gens)
        theta = KElem.theta(P)
        ex.zero_dim_intersection(gamma, ex.ZeroDim(1, [(theta,), (theta + 1,)]))
        assert max(builds_per_module["family"].values()) == 1
        assert max(builds_per_module["prepared"].values()) == 1
        # the copy of the hull, <theta, 1> and <1>, the minimised module,
        # whose family every later check finds in the lineage memo
        assert len(builds_per_module["prepared"]) == 3

    def test_seed0_generic(self, builds_per_module):
        theta, zero = KElem.theta(P), KElem.zero(P)
        points = [(theta, zero), (zero, theta), (theta, theta),
                  (theta + 1, zero)]
        for variety in (ex.Hypersurface(ex.poly_parse(P, 2, "x*y - theta")),
                        ex.ZeroDim(2, points)):
            ex.generic_char_experiment(_carlitz_plane(), variety)
        assert max(builds_per_module["family"].values()) == 1
        assert list(builds_per_module["prepared"].values()) == [1]


def _count_lineage_work(monkeypatch):
    """From now on: how often _iterate_family applies phi_t to a point, and
    the generators of each module that _prepare_family runs on.  The exact
    re-verification (_apply_operators) applies phi_t outside
    _iterate_family and is not counted."""
    work = {"applied": 0, "prepared": []}
    depth = []
    point_apply, iterate, prepare = (pm.point_apply, pm._iterate_family,
                                     pm._prepare_family)

    def counting_apply(f, x):
        work["applied"] += bool(depth)
        return point_apply(f, x)

    def inside_iterate(gamma, deg_bound):
        depth.append(gamma)
        try:
            return iterate(gamma, deg_bound)
        finally:
            depth.pop()

    def recording_prepare(gamma, deg_bound):
        work["prepared"].append(
            ([pm.point_to_str(x) for x in gamma.gens], deg_bound))
        return prepare(gamma, deg_bound)

    monkeypatch.setattr(pm, "point_apply", counting_apply)
    monkeypatch.setattr(pm, "_iterate_family", inside_iterate)
    monkeypatch.setattr(adelic, "_iterate_family", inside_iterate)
    monkeypatch.setattr(pm, "_prepare_family", recording_prepare)
    return work


class TestLineageWork:
    """Each generator's orbit is iterated once per lineage, so the seed-0
    zero-dim run's sub-modules (_minimize_generators' candidates) apply
    phi_t to none of the hull's generators."""

    def _run(self, gamma):
        theta = KElem.theta(P)
        rep = ex.zero_dim_intersection(gamma,
                                       ex.ZeroDim(1, [(theta,), (theta + 1,)]))
        assert rep.verdict == ex.CONFIRMED

    def test_fresh_copy_of_the_hull(self, paper_hull, monkeypatch):
        # the fullness scan iterates the copy's 3 generators to t^8 once
        gamma = PhiModule(paper_hull.phi, paper_hull.g, paper_hull.gens)
        work = _count_lineage_work(monkeypatch)
        self._run(gamma)
        assert work["applied"] == 3 * 8
        assert work["prepared"] == [
            (["(theta^9+theta^4)", "(theta)", "(1)"], 8),
            (["(theta)", "(1)"], 8), (["(1)"], 8)]

    def test_module_divisible_hull_returned(self, monkeypatch):
        # its last scan iterated the orbits and prepared its deg-8 family
        phi = DrinfeldModule.parse(P, "[0, theta, 1]")
        start = PhiModule(phi, 1, [(tp_eval(phi.phi_t, KElem.theta(P)),)])
        hull = divisible_hull(start, prime_bound=1)
        work = _count_lineage_work(monkeypatch)
        self._run(hull)
        assert work["applied"] == 0
        assert work["prepared"] == [(["(theta)", "(1)"], 8), (["(1)"], 8)]


GOLDEN_ZERO_DIM = pathlib.Path(__file__).parent / "data" / "zero_dim_seed0.json"


@pytest.mark.golden
class TestZeroDimGolden:
    def test_one_syzygy_solve(self, paper_hull, monkeypatch):
        # the presentation; the closure-torsion check reads the free rank
        # off its pseudo-torsion kernel and solves for no syzygies
        calls = []
        solve = pm.syzygies

        def counting(gamma, *args):
            calls.append(gamma)
            return solve(gamma, *args)

        monkeypatch.setattr(pm, "syzygies", counting)
        monkeypatch.setattr(adelic, "syzygies", counting, raising=False)
        # a copy, so that no presentation is cached on it yet
        gamma = PhiModule(paper_hull.phi, paper_hull.g, paper_hull.gens)
        theta = KElem.theta(P)
        ex.zero_dim_intersection(gamma,
                                 ex.ZeroDim(1, [(theta,), (theta + 1,)]))
        assert len(calls) == 1

    def test_report_byte_for_byte(self, paper_hull):
        """zero_dim_intersection on the seed-0 special-zero-dim instance,
        certificates included, as the JSON that the recorded file holds."""
        theta = KElem.theta(P)
        variety = ex.ZeroDim(1, [(theta,), (theta + 1,)])
        rep = ex.zero_dim_intersection(paper_hull, variety)
        text = json.dumps(rep.to_json_dict(), sort_keys=True, indent=1) + "\n"
        assert text == GOLDEN_ZERO_DIM.read_text()


GOLDEN_UNIFORM = pathlib.Path(__file__).parent / "data" / \
    "uniform_reduction_seed0.json"


class TestUniformReduction:
    @pytest.mark.golden
    def test_w_and_reports_byte_for_byte(self, paper_hull):
        """W and the report of two reductions on the paper's hull, as the
        JSON that the recorded file holds."""
        phi = paper_hull.phi
        u = tp_eval(phi.phi_t, tp_eval(phi.phi_t, KElem.one(P)))
        five = [(u + 1,), (u * 2,), (u,), (KElem.zero(P),), (KElem.theta(P),)]
        cases = {
            "x^3-theta^2*x:m=1:box_degree=1": (
                ex.poly_parse(P, 1, "x^3 - theta^2*x"), 1, {"box_degree": 1}),
            "five-window-zeros:m=0:enum_deg=2": (
                _vanishing_on(P, five), 0, {"enum_deg": 2}),
        }
        out = {}
        for label, (poly, m, window) in cases.items():
            w, rep = ex.uniform_dml_reduce(paper_hull, ex.Hypersurface(poly),
                                           m, **window)
            out[label] = {"w": [point_to_str(x) for x in w.points],
                          "report": rep.to_json_dict()}
        text = json.dumps(out, sort_keys=True, indent=1) + "\n"
        assert text == GOLDEN_UNIFORM.read_text()

    def test_window_sweep_evaluates_few_points(self, exact_evaluations,
                                               monkeypatch):
        """The hull of <Phi_t(theta)> for phi_t = (theta+t)*tau + tau^2:
        81 of the 243 window points pass stage 1 of the filter, with
        theta-degrees up to 729 and t-degrees up to 81, and stage 2 leaves
        9 of them, among them the 3 zeros, to evaluate exactly."""
        phi = DrinfeldModule.parse(P, "[0, theta+t, 1]")
        hull = divisible_hull(
            PhiModule(phi, 1, [(tp_eval(phi.phi_t, KElem.theta(P)),)]),
            prime_bound=1)
        assert [point_to_str(x) for x in hull.gens] == [
            "(theta^9+theta^4+t*theta^3)", "(theta)"]
        lifted = _counting_lifted(monkeypatch)
        sweep, counts = ex._swept_window, []

        def counting(*args):
            before = len(lifted), len(exact_evaluations)
            zeros = sweep(*args)
            counts.append((len(lifted) - before[0],
                           len(exact_evaluations) - before[1], len(zeros)))
            return zeros

        monkeypatch.setattr(ex, "_swept_window", counting)
        _, rep = ex.uniform_dml_reduce(
            hull, ex.Hypersurface(ex.poly_parse(P, 1, _CUBIC)), 1,
            box_degree=1)
        assert rep.verdict == ex.CONFIRMED
        assert counts == [(81, 9, 3)]

    def test_omitted_representatives_noted(self, paper_hull):
        # 3^9 cosets at t^9 pass _REP_ENUM_CAP, so no tile is swept
        variety = ex.Hypersurface(ex.poly_parse(P, 1, _CUBIC))
        w, rep = ex.uniform_dml_reduce(paper_hull, variety, 9, box_degree=1)
        assert w.points == ()
        assert rep.verdict == ex.INCONCLUSIVE
        assert rep.notes[:2] == ("quotient-representatives-omitted",
                                 "quotient-separation-open")
        assert dict(rep.certificates)["quotient-iso"]["notes"][0] == \
            "quotient-representatives-omitted"

    def test_one_fullness_scan(self, paper_hull, monkeypatch):
        # the zero-dimensional step reuses the reduction's fullness scan
        # and minimised module
        scans = []
        scan = ex.is_full

        def counting(gamma, *args, **kwargs):
            scans.append(gamma)
            return scan(gamma, *args, **kwargs)

        monkeypatch.setattr(ex, "is_full", counting)
        variety = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
        w, _ = ex.uniform_dml_reduce(paper_hull, variety, 1, box_degree=1)
        assert w.points
        assert scans == [paper_hull]

    @pytest.mark.parametrize("m, box_degree, text, scale", [
        (1, 1, "x^3 - theta^2*x", "1"),
        (1, 2, None, "1"),
        (2, 1, None, "1"),
        # 1/(theta+t) is undefined at the ring maps with a + b = 0
        (1, 2, None, "1/(theta+t)"),
    ])
    def test_tiles_match_pointwise(self, paper_hull, m, box_degree, text,
                                   scale):
        """Each tile's zeros from the image span equal the zeros among
        rep + Phi_a(z), z in theta_box, built point by point, in order."""
        phi = paper_hull.phi
        a = RPoly.monomial(P, m)
        reps = pm.quotient(paper_hull, a).reps
        tiles = [point_add(rep, pm._op_on_point(phi, a, z)) for rep in reps
                 for z in ex.theta_box(P, 1, box_degree)]
        poly = ex.poly_parse(P, 1, text) if text else \
            _vanishing_on(P, [tiles[i] for i in (1, 7, len(tiles) - 2)])
        poly = _scaled(poly, scale)
        images = [pm._op_on_point(phi, a, z)
                  for z in ex._theta_box_vectors(P, 1, box_degree)]
        got = [x for rep in reps for x in ex._swept_zeros(rep, images, poly)]
        want = [x for x in tiles if poly.evaluate(x).is_zero()]
        assert [point_to_str(x) for x in got] == \
            [point_to_str(x) for x in want]
        assert len(want) >= 3
    def test_one_image_per_box_point(self, paper_hull, monkeypatch):
        # Phi_t is F_p-linear, so the three coset tiles rep + Phi_t(box)
        # share the images of the box's two spanning vectors 1 and theta
        calls = []
        op_on_point = ex._op_on_point

        def counting(phi, a, x):
            calls.append(x)
            return op_on_point(phi, a, x)

        monkeypatch.setattr(ex, "_op_on_point", counting)
        variety = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
        w, rep = ex.uniform_dml_reduce(paper_hull, variety, 1, box_degree=1)
        assert dict(rep.bounds)["quotient_order"] == 3
        assert calls == [(KElem.one(P),), (KElem.theta(P),)]
        assert [point_to_str(x) for x in w.points] == \
            ["(0)", "(theta)", "(2*theta)"]
        assert rep.verdict == ex.CONFIRMED


class TestVerdictLadder:
    @pytest.mark.parametrize("trace, inconclusive, verdict", [
        ((), False, ex.CONFIRMED),
        ((), True, ex.INCONCLUSIVE),
        (("contradiction",), False, ex.COUNTEREXAMPLE),
        (("contradiction",), True, ex.COUNTEREXAMPLE),
    ])
    def test_trace_outranks_open_bounds(self, trace, inconclusive, verdict):
        assert ex._verdict(trace, inconclusive) == verdict


class TestClosureTorsionMismatch:
    """At p >= 5 the default witness places are theta + c, c in F_p, where
    the point 1 reduces to torsion though it is not torsion over K.  The
    closure-torsion mismatch that this gives is a bounded finding, so the
    verdict is BoundInconclusive with a note, never CounterexampleCandidate."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("op", ["[0, theta, 1]", "[0, theta^2, 1]",
                                    "[0, theta+1, 1]", "[0, 1, theta]"])
    def test_no_counterexample(self, p, op):
        phi = DrinfeldModule.parse(p, op)
        theta = KElem.theta(p)
        gamma = divisible_hull(PhiModule(phi, 1, [(theta,)]), prime_bound=1)
        rep = ex.zero_dim_intersection(
            gamma, ex.ZeroDim(1, [(theta,), (theta + KElem.one(p),)]))
        assert rep.trace == ()
        mismatch = "closure-torsion-mismatch-at-3-places" in rep.notes
        if p <= 3:
            assert rep.verdict == ex.CONFIRMED and not mismatch
        else:
            assert rep.verdict == ex.INCONCLUSIVE
        if p == 5:
            assert mismatch

    def test_p7_digits_build_no_deep_ring(self, monkeypatch):
        # the digits of the witness-place embeddings come from the Taylor
        # shift; only the valuations build rings, from n = 4 up
        built = []

        class CountingRing(places.TruncRing):
            def __init__(self, place, n):
                built.append(n)
                super().__init__(place, n)

        monkeypatch.setattr(places, "TruncRing", CountingRing)
        p = 7
        phi = DrinfeldModule.parse(p, "[0, theta^2, 1]")
        theta = KElem.theta(p)
        gamma = divisible_hull(PhiModule(phi, 1, [(theta,)]), prime_bound=1)
        rep = ex.zero_dim_intersection(
            gamma, ex.ZeroDim(1, [(theta,), (theta + KElem.one(p),)]))
        assert built and max(built) <= 4
        assert rep.verdict == ex.INCONCLUSIVE
        assert set(rep.notes) == {
            "closure-torsion-mismatch-at-3-places",
            "mixed-assignment-rejected-nontorsion:(theta)-(theta+1)"}


class TestCapsWeakenVerdicts:
    """A cap that fires below a pipeline rules out TheoremConfirmed and
    certified: true.  No cap fires at the defaults on these instances, so
    the cap is lowered inside the test only."""

    @pytest.fixture
    def no_headroom(self, monkeypatch):
        # the solver's hard cap at 0, so that any derived bound above 0 is
        # capped and flagged
        monkeypatch.setattr(drinfeld, "_HARD_CAP", 0)

    def test_zero_dim_intersection(self, paper_hull, no_headroom):
        theta = KElem.theta(P)
        points = [(theta,), (theta + KElem.one(P),)]
        rep = ex.zero_dim_intersection(paper_hull, ex.ZeroDim(1, points))
        assert rep.verdict == ex.INCONCLUSIVE
        assert "fullness-capped:theta-bound-capped" in rep.notes
        assert {point_to_str(x) for x in rep.k_side} == \
            {point_to_str(x) for x in points}

    def test_uniform_dml_reduce(self, paper_hull, no_headroom):
        variety = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
        w, rep = ex.uniform_dml_reduce(paper_hull, variety, 1, box_degree=1)
        assert w.points
        assert rep.verdict == ex.INCONCLUSIVE
        assert "fullness-capped:theta-bound-capped" in rep.notes

    def test_uniformity_probe(self, no_headroom):
        # theta^9 + theta^4 = psi(theta) needs theta-bound 1 at m = 1
        psi = tp_parse(P, "[0, theta, 1]")
        point = (kelem_parse(P, "theta^9+theta^4"),)
        table = ex.uniformity_probe(psi, ex.ZeroDim(1, [point]),
                                    [(KElem.zero(P),)], (0, 1), [point])
        assert "theta-bound-capped" in table.flags
        assert table.certified is False


class TestEmptyPlaceList:
    """Each pipeline refuses an empty list of tracked places before any
    scan; the generic one used to confirm the hypersurface instance with
    no certificate at all."""

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("scanned before refusing the place list")
        for name in ("is_full", "discreteness_certificate", "_swept_window",
                     "standard_tracked_places"):
            monkeypatch.setattr(ex, name, refuse)

    @pytest.mark.parametrize("run", [
        lambda hull: ex.generic_char_experiment(
            _carlitz_plane(),
            ex.Hypersurface(ex.poly_parse(P, 2, "x*y - theta")),
            tracked_places=()),
        lambda hull: ex.zero_dim_intersection(
            hull, ex.ZeroDim(1, [(KElem.theta(P),)]), tracked_places=()),
        lambda hull: ex.uniform_dml_reduce(
            hull, ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x")), 1,
            tracked_places=(), box_degree=1),
    ], ids=["generic_char_experiment", "zero_dim_intersection",
            "uniform_dml_reduce"])
    def test_refused(self, run, paper_hull, no_scan):
        with pytest.raises(ValueError, match="empty place list"):
            run(paper_hull)


class TestRejectedInput:
    def test_negative_window_generic(self):
        variety = ex.Hypersurface(ex.poly_parse(P, 2, "x*y - theta"))
        with pytest.raises(ValueError, match="negative enumeration degree"):
            ex.generic_char_experiment(_carlitz_plane(), variety, enum_deg=-1)

    def test_negative_theta_box(self):
        with pytest.raises(ValueError, match="negative theta degree"):
            ex.theta_box(P, 1, -1)

    @pytest.mark.parametrize("g, degree", [(1, 9), (3, 5), (1, 10 ** 9)])
    def test_oversized_theta_box(self, g, degree):
        # 3^10, 3^18 and 3^(10^9) points against a cap of 3^9
        start = time.perf_counter()
        with pytest.raises(ValueError, match="theta box too large"):
            ex.theta_box(P, g, degree)
        assert time.perf_counter() - start < 1.0

    def test_enum_cap_boundary(self):
        assert not ex._over_enum_cap(3, 9)
        assert ex._over_enum_cap(3, 10)
        assert not ex._over_enum_cap(2, 14)
        assert ex._over_enum_cap(2, 15)

    def test_oversized_box_reduction(self, paper_hull):
        variety = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="theta box too large"):
            ex.uniform_dml_reduce(paper_hull, variety, 1, box_degree=9)
        # refused before the fullness scan
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("window", [{"box_degree": -1}, {"enum_deg": -1}])
    def test_negative_windows_reduction(self, paper_hull, window):
        variety = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="negative"):
            ex.uniform_dml_reduce(paper_hull, variety, 1, **window)
        # refused before the fullness scan
        assert time.perf_counter() - start < 1.0

    def test_bare_polynomial_generic(self):
        with pytest.raises(ValueError, match="ZeroDim or a Hypersurface"):
            ex.generic_char_experiment(_carlitz_plane(),
                                       ex.poly_parse(P, 2, "x*y - theta"))

    def test_bare_polynomial_probe(self):
        psi = tp_parse(P, "[0, theta, 1]")
        with pytest.raises(ValueError, match="ZeroDim or a Hypersurface"):
            ex.uniformity_probe(psi, ex.poly_parse(P, 1, "x^3 - theta^2*x"),
                                [(KElem.zero(P),)], (0, 1),
                                ex.theta_box(P, 1, 1))

    def test_box_width_probe(self):
        # a two-wide box point was truncated against a one-wide translate
        psi = tp_parse(P, "[0, theta, 1]")
        variety = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
        theta, zero, one = KElem.theta(P), KElem.zero(P), KElem.one(P)
        with pytest.raises(ValueError, match="box point width"):
            ex.uniformity_probe(psi, variety, [(zero,)], (0, 1),
                                [(theta, zero), (zero, one)])

    @pytest.mark.parametrize("translates, box, what", [
        # a bare-int translate raised AttributeError; a bare-int box point
        # was accepted and counted 0
        ([(1,)], [(KElem.zero(P),)], "translate"),
        ([(KElem.zero(P),)], [(5,)], "box point"),
        ([(KElem.theta(2),)], [(KElem.zero(P),)], "translate"),
        ([(KElem.zero(P),)], [(KElem.zero(P),), (KElem.one(2),)], "box point"),
    ])
    def test_probe_points_outside_k(self, translates, box, what):
        psi = tp_parse(P, "[0, theta, 1]")
        for variety in (ex.Hypersurface(ex.poly_parse(P, 1, _CUBIC)),
                        ex.ZeroDim(1, [(KElem.zero(P),)])):
            with pytest.raises(ValueError, match=f"{what} coordinates"):
                ex.uniformity_probe(psi, variety, translates, (0, 1), box)

    def test_hypersurface_wants_a_polynomial(self):
        with pytest.raises(ValueError, match="wants a MultiPoly"):
            ex.Hypersurface("x*y - theta")

    def test_variety_over_another_field(self, paper_hull):
        # x - theta over F_2 against a module over F_3 was swept and
        # reported TheoremConfirmed
        line = ex.Hypersurface(ex.poly_parse(2, 2, "x - theta"))
        point = ex.ZeroDim(2, [(KElem.theta(2), KElem.zero(2))])
        for variety in (line, point):
            with pytest.raises(ValueError, match="another field"):
                ex.generic_char_experiment(_carlitz_plane(), variety)
        psi = tp_parse(P, "[0, theta, 1]")
        with pytest.raises(ValueError, match="another field"):
            ex.uniformity_probe(psi, ex.Hypersurface(
                ex.poly_parse(2, 1, "x - theta")), [(KElem.zero(P),)], (0,),
                ex.theta_box(P, 1, 0))
        with pytest.raises(ValueError, match="another field"):
            ex.zero_dim_intersection(paper_hull,
                                     ex.ZeroDim(1, [(KElem.theta(2),)]))
        with pytest.raises(ValueError, match="another field"):
            ex.uniform_dml_reduce(paper_hull, ex.Hypersurface(
                ex.poly_parse(2, 1, "x - theta")), 1)

    @pytest.mark.parametrize("points", [
        [(1,)],
        [(KElem.theta(P),), ("theta",)],
        [(KElem.theta(P),), (KElem.theta(2),)],
    ])
    def test_zero_dim_coordinates_in_one_field(self, points):
        with pytest.raises(ValueError, match="one field K"):
            ex.ZeroDim(1, points)


class TestConstantPowers:
    @pytest.mark.parametrize("text, expected", [
        ("2^800000", KElem.one(P)),
        ("t^8524785", KElem.from_rpoly(RPoly.monomial(P, 8524785))),
        # (theta+1)^3000 = prod over the base-3 digits of 3000 (3^7 + 3^6
        # + 3^4 + 3) of the Frobenius powers theta^(3^i) + 1
        ("(theta+1)^3000", (KElem.theta(P) + 1).frob(7)
         * (KElem.theta(P) + 1).frob(6) * (KElem.theta(P) + 1).frob(4)
         * (KElem.theta(P) + 1).frob(1)),
    ])
    def test_large_exponent_fast(self, text, expected):
        start = time.perf_counter()
        f = ex.poly_parse(P, 2, text)
        assert time.perf_counter() - start < 1.0
        assert f.terms == {(0, 0): expected}

    @pytest.mark.parametrize("base", ["theta+1", "2", "0", "t/(theta+t)"])
    def test_matches_repeated_product(self, base):
        c = ex.MultiPoly.constant(P, 1, kelem_parse(P, base))
        for n in range(8):
            acc = ex.MultiPoly.constant(P, 1, KElem.one(P))
            for _ in range(n):
                acc = acc * c
            assert (c ** n).terms == acc.terms


class TestPolynomialPowers:
    @pytest.mark.parametrize("p, g, text", [
        (2, 1, "x+theta"),
        (3, 1, "x+theta"),
        (2, 2, "x*y + t*x + theta^2"),
        (3, 2, "x*y - t*x + theta^2"),
        (3, 2, "x^2 + 2*y + t*theta + 1"),
    ])
    def test_matches_repeated_product(self, p, g, text):
        f = ex.poly_parse(p, g, text)
        acc = ex.MultiPoly.constant(p, g, KElem.one(p))
        for n in range(12):
            assert (f ** n).terms == acc.terms
            acc = acc * f

    def test_large_power_of_non_constant_base_fast(self):
        start = time.perf_counter()
        f = ex.poly_parse(P, 1, "(x+theta)^729")
        assert time.perf_counter() - start < 0.1
        assert f.terms == {(729,): KElem.one(P),
                           (0,): KElem.theta(P).frob(6)}


# -- the F_p-point filter of the sweep ---------------------------------------


def _vanishing_on(p, points):
    """The product of (x - s) over the given rank-one points (s,)."""
    f = ex.MultiPoly.constant(p, 1, KElem.one(p))
    for (s,) in points:
        f = f * (ex.MultiPoly.variable(p, 1, 0)
                 - ex.MultiPoly.constant(p, 1, s))
    return f


def _scaled(poly, text):
    """poly with every coefficient multiplied by the K-element text."""
    c = kelem_parse(poly.p, text)
    return ex.MultiPoly(poly.p, poly.g,
                        {e: c * d for e, d in poly.terms.items()})


@pytest.fixture
def exact_evaluations(monkeypatch):
    """Counts the calls of MultiPoly.evaluate."""
    calls = []
    evaluate = ex.MultiPoly.evaluate

    def counted(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(ex.MultiPoly, "evaluate", counted)
    return calls


def _rank_one_case(p, text, gen, enum_deg, picks):
    """gamma = <gen>, and a polynomial vanishing on two window points whose
    coefficients carry the generator's denominators."""
    gamma = PhiModule(DrinfeldModule.parse(p, text), 1,
                      [(kelem_parse(p, gen),)])
    span = _exact_span(gamma, enum_deg)
    return gamma, _vanishing_on(p, [span[i] for i in picks]), enum_deg


def _p2_plane():
    theta, zero, one = KElem.theta(2), KElem.zero(2), KElem.one(2)
    return PhiModule(DrinfeldModule.parse(2, "[t, 1]"), 2,
                     [(theta, zero), (one, theta)])


def _seed0_parabola():
    return ex.poly_parse(P, 2, "x^2 - theta*y")


# name -> () -> (gamma, poly, enum_deg)
_SWEEP_CASES = {
    "p3-rank1-theta-den": lambda: _rank_one_case(
        3, "[0, theta, 1]", "1/theta", 2, (5, 7)),
    "p2-rank1-t-den": lambda: _rank_one_case(
        2, "[t, 1]", "theta/(t+1)", 3, (3, 10)),
    "p2-rank2": lambda: (
        _p2_plane(), ex.poly_parse(2, 2, "x*y + x^2 + theta*x"), 2),
    # 1/(theta+t) is undefined at the three points with a + b = 0
    "p3-rank2-coefficient-den": lambda: (
        _carlitz_plane(), _scaled(_seed0_parabola(), "1/(theta+t)"), 1),
    # theta^3 - theta vanishes at every theta = b in F_3
    "p3-rank2-all-points-undefined": lambda: (
        _carlitz_plane(), _scaled(_seed0_parabola(), "1/(theta^3-theta)"),
        1),
    # the seed-0 benchmark instance
    "p3-rank2-seed0": lambda: (_carlitz_plane(), _seed0_parabola(), 3),
}


# name -> window points evaluated exactly, after both stages of the filter
_SWEEP_EXACT = {
    "p3-rank1-theta-den": 2,
    "p2-rank1-t-den": 8,
    "p2-rank2": 4,
    "p3-rank2-coefficient-den": 3,
    "p3-rank2-all-points-undefined": 3,
    "p3-rank2-seed0": 3,
}


class TestSweptZeros:
    @pytest.mark.parametrize("name, zeros, survivors", [
        ("p3-rank1-theta-den", 2, 12),
        ("p2-rank1-t-den", 2, 8),
        ("p2-rank2", 4, 16),
        ("p3-rank2-coefficient-den", 3, 3),
        ("p3-rank2-all-points-undefined", 3, 3 ** 4),
        ("p3-rank2-seed0", 3, 243),
    ])
    def test_matches_exact_sweep(self, name, zeros, survivors,
                                 exact_evaluations, monkeypatch):
        """survivors: the window points that pass stage 1 of the filter and
        reach stage 2; exactly those that pass stage 2 too are evaluated
        exactly."""
        gamma, poly, deg = _SWEEP_CASES[name]()
        lifted = _counting_lifted(monkeypatch)
        fast = ex._swept_window(gamma, poly, deg)
        assert len(lifted) == survivors
        assert len(exact_evaluations) == _SWEEP_EXACT[name]
        exact_evaluations.clear()
        reference = [x for x in _exact_span(gamma, deg)
                     if _naive_evaluate(poly, x).is_zero()]
        assert [point_to_str(x) for x in fast] == \
            [point_to_str(x) for x in reference]
        assert len(fast) == zeros

    def test_reduction_notes_in_sweep_order(self, paper_hull):
        # five zeros in the window of Gamma = <1>, three of them outside the
        # theta-box of the candidate set W; the reduction notes those three
        # in digit-counter order, which is not their sorted order
        phi = paper_hull.phi
        u = tp_eval(phi.phi_t, tp_eval(phi.phi_t, KElem.one(P)))
        points = [(u + 1,), (u * 2,), (u,), (KElem.zero(P),),
                  (KElem.theta(P),)]
        variety = ex.Hypersurface(_vanishing_on(P, points))
        _, rep = ex.uniform_dml_reduce(paper_hull, variety, 0, enum_deg=2)
        outside = [n.split(":", 1)[1] for n in rep.notes
                   if n.startswith("module-point-outside-window:")]
        assert outside == ["(theta^9+theta^4+theta+1)",
                           "(theta^9+theta^4+theta+2)",
                           "(2*theta^9+2*theta^4+2*theta+2)"]
        assert [point_to_str(x) for x in rep.k_side] == ["(0)", "(theta)"]
        assert rep.verdict == ex.INCONCLUSIVE


_HUGE = [BiPoly.monomial(P, 3 ** 40), BiPoly.monomial(P, 0, 3 ** 30),
         BiPoly.monomial(P, 3 ** 40, 3 ** 30, 2)]


def _huge_polys():
    """Polynomials in K with stretched exponents such as theta^(3^40)."""
    small = st.lists(_rpolys(), min_size=1, max_size=3).map(
        lambda rs: bipoly_from_theta_coeffs(P, rs))
    return st.builds(
        lambda f, picks, k: KElem.from_bipoly(
            sum((h for h, on in zip(_HUGE, picks) if on), f.stretch(3 ** k))),
        small, st.tuples(*[st.booleans()] * len(_HUGE)),
        st.sampled_from([0, 1, 30]))


def _value_at(f, a, b):
    """f(t = a, theta = b) term by term."""
    return sum(c * pow(a, te, f.p) * pow(b, e, f.p)
               for e, te, c in f.monomials()) % f.p


def _fp_value(x, a, b):
    """x at t = a, theta = b in F_p term by term, or None where its
    denominator vanishes."""
    den = _value_at(x.den, a, b)
    return _value_at(x.num, a, b) * pow(den, -1, x.p) % x.p if den else None


# (a, b) in the order of stage 1 of the filter, b*p + a
_F_P_POINTS = [(a, b) for b in range(P) for a in range(P)]


def _fp_images(x):
    """x under every ring map t -> a, theta -> b into F_p, indexed b*p + a,
    through _ring_maps."""
    return ex._ring_maps(ex._Fp2(P), _F_P_POINTS)(x)


class TestFpImage:
    """_ring_maps on the maps into F_p: _fp_images(x)[b*p + a] is x under
    the ring map t -> a, theta -> b."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.tuples(_kelems(), _kelems()),
                     st.tuples(_huge_polys(), _huge_polys())))
    def test_ring_map(self, pair):
        x, y = pair
        images = [_fp_images(z) for z in (x, y, x + y, x * y)]
        for ix, iy, isum, iprod in zip(*images):
            if ix is None or iy is None:
                continue
            assert isum == (ix + iy) % P
            assert iprod == ix * iy % P

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_kelems(), _huge_polys()), st.sampled_from([1, 40]))
    def test_undefined_exactly_where_the_denominator_vanishes(self, x, k):
        images = _fp_images(x)
        # Frobenius fixes F_p, so x^(p^k) has the same images
        assert _fp_images(x.frob(k)) == images
        for (a, b), image in zip(_F_P_POINTS, images):
            den = _value_at(x.den, a, b)
            assert (image is None) == (den == 0)
            if image is not None:
                num = _value_at(x.num, a, b)
                assert image * den % P == num

    def test_generators(self):
        assert _fp_images(KElem.t(P)) == [a for a, _ in _F_P_POINTS]
        assert _fp_images(KElem.theta(P)) == [b for _, b in _F_P_POINTS]
        assert _fp_images(KElem.one(P)) == [1] * P * P


def _fp2_maps(p):
    """The first p^2 maps of _Fp2.maps, with the field."""
    field = ex._Fp2(p)
    return field, list(itertools.islice(field.maps(True, True), p * p))


def _huge_polys_at(p):
    """Polynomials with exponents such as theta^(p^20)."""
    huge = [BiPoly.monomial(p, p ** 20), BiPoly.monomial(p, 0, p ** 20),
            BiPoly.monomial(p, p ** 20, 1)]
    small = st.lists(_rpolys(p), min_size=1, max_size=3).map(
        lambda rs: bipoly_from_theta_coeffs(p, rs))
    return st.builds(
        lambda f, picks: KElem.from_bipoly(
            sum((h for h, on in zip(huge, picks) if on), f)),
        small, st.tuples(*[st.booleans()] * len(huge)))


def _image(field, x, a, b):
    """x under the one ring map t -> a, theta -> b, through _ring_maps."""
    return ex._ring_maps(field, [(a, b)])(x)[0]


class TestFp2Image:
    """_ring_maps on one map: _image(field, x, a, b) is x under the ring
    map t -> a, theta -> b into F_{p^2}, against pair arithmetic term by
    term."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ring_map(self, p, data):
        # huge exponents only with huge exponents: a sum of theta^(p^20)
        # and a fraction would take a gcd of degree p^20
        elems = data.draw(st.sampled_from([_kelems(p=p), _huge_polys_at(p)]))
        x, y = data.draw(elems), data.draw(elems)
        field, maps = _fp2_maps(p)
        for a, b in maps:
            ix, iy = _image(field, x, a, b), _image(field, y, a, b)
            if ix is None or iy is None:
                continue
            assert _image(field, x + y, a, b) == field.sum([(1, ix), (1, iy)])
            assert _image(field, x * y, a, b) == field.mul(ix, iy)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_undefined_exactly_where_the_denominator_vanishes(self, p, data):
        x = data.draw(st.one_of(_kelems(p=p), _huge_polys_at(p)))
        field, maps = _fp2_maps(p)
        for a, b in maps:
            image = _image(field, x, a, b)
            expected = _fp2_value(x, _pair(a, p), _pair(b, p))
            assert (image is None) == (expected is None)
            if image is not None:
                assert _pair(image, p) == expected
                # x^p goes to the Frobenius of the image, so a map and its
                # conjugate test the same equation
                assert _image(field, x.frob(1), a, b) == field.frob(image)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_generators(self, p):
        field, maps = _fp2_maps(p)
        assert (field.c1, field.c0) == next(
            (c1, c0) for c1, c0 in itertools.product(range(p), repeat=2)
            if all((z * z + c1 * z + c0) % p for z in range(p)))
        for a, b in maps:
            assert _image(field, KElem.t(p), a, b) == a
            assert _image(field, KElem.theta(p), a, b) == b
            assert _image(field, KElem.one(p), a, b) == 1

    def test_huge_exponent_costs_one_reduced_power(self):
        field = ex._Fp2(P)
        calls = []
        mul = field.mul
        field.mul = lambda x, y: (calls.append(1), mul(x, y))[1]
        x = KElem.theta(P) ** (3 ** 20)
        for a, b in _fp2_maps(P)[1]:
            calls.clear()
            assert _pair(_image(field, x, a, b), P) == _fp2_value(
                x, _pair(a, P), _pair(b, P))
            assert len(calls) <= 2 * (P * P).bit_length() + 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_maps_one_per_orbit_alternating(self, p):
        field = ex._Fp2(p)
        maps = list(field.maps(True, True))
        orbits = {frozenset([(a, b), (field.frob(a), field.frob(b))])
                  for a, b in maps}
        # one map per orbit: p * (p^2 - p) / 2 moving theta, each with a
        # in F_p, alternating with as many moving t, each with b in F_p
        assert len(orbits) == len(maps) == p ** 3 - p ** 2
        assert all(max(m) >= p and min(m) < p for m in maps)
        assert [a < p for a, _ in maps] == [True, False] * (len(maps) // 2)
        # on data free of t only theta moves: one map per orbit of b
        only_theta = list(field.maps(False, True))
        assert all(a == 0 and b >= p for a, b in only_theta)
        assert len({frozenset([b, field.frob(b)])
                    for _, b in only_theta}) == len(only_theta) == \
            (p * p - p) // 2

    def test_p251_sweep_stays_small(self, monkeypatch):
        """At p = 251 the sweep of x - theta over F_p * theta reads theta
        through p maps into F_{p^2}, not p^2 of them, so neither the map
        list nor the images grow like p^4; stage 1 likewise reads it
        through p maps into F_p, not p^2."""
        p = 251
        calls = []
        ring_maps = ex._ring_maps

        def counting(field, maps):
            images = ring_maps(field, maps)

            def counted(x):
                calls.extend(maps)
                return images(x)

            return counted

        monkeypatch.setattr(ex, "_ring_maps", counting)
        theta = KElem.theta(p)
        start = time.perf_counter()
        zeros = ex._swept_zeros((KElem.zero(p),), [(theta,)],
                                ex.poly_parse(p, 1, "x - theta"))
        assert time.perf_counter() - start < 2.0
        assert zeros == [(theta,)]
        for into_fp in (True, False):
            maps = [m for m in calls if (max(m) < p) == into_fp]
            assert len(set(maps)) == p
            assert len(maps) <= 4 * p


def _ring_map_corpus(p, seed):
    """Seeded elements in t and theta: small fractions whose denominators
    vanish at some maps, the same raised to p^20 (exponents >= p^20 in
    numerator and denominator), and polynomials with such exponents."""
    rng = random.Random(seed)
    small = ["t", "theta", "t*theta+1", "theta^2+t", "1/(theta+1)",
             "1/(t+theta)", "theta/(t+1)", "(t^2+theta)/(theta^2+t*theta)",
             "1/(theta^2-theta)", "(t+1)/(t^3-t)"]
    out = []
    for _ in range(12):
        x = kelem_parse(p, rng.choice(small))
        out.append(x)
        out.append(x.frob(20))
        out.append(KElem.from_bipoly(sum(
            (BiPoly.monomial(p, e, te, rng.randrange(1, p))
             for e, te in rng.sample([(p ** 20, 0), (0, p ** 20),
                                      (p ** 20 + 1, p ** 21), (1, 0),
                                      (0, 1)], 3)),
            BiPoly.zero(p))))
    return out


class TestRingMaps:
    """_ring_maps against the term-by-term oracles _fp_value and
    _fp2_value, one routine per map list fed a whole corpus, so the
    monomial values tabled for one element serve the later ones."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_term_by_term_oracles(self, p):
        corpus = _ring_map_corpus(p, p)
        field = ex._Fp2(p)
        fp_maps = [(a, b) for b in range(p) for a in range(p)]
        lifts = list(itertools.islice(field.maps(True, True), p * p))
        images = ex._ring_maps(field, fp_maps)
        lifted = ex._ring_maps(field, lifts)
        undefined = 0
        for x in corpus:
            expected = [_fp_value(x, a, b) for a, b in fp_maps]
            assert images(x) == expected
            undefined += expected.count(None)
            got = [None if z is None else _pair(z, p) for z in lifted(x)]
            assert got == [_fp2_value(x, _pair(a, p), _pair(b, p))
                           for a, b in lifts]
            undefined += got.count(None)
        assert undefined


def _fp2_field(p):
    """(mul, power) of F_{p^2} on pairs (u, v) = u + v*i, i a root of the
    first monic irreducible i^2 + c1*i + c0 in (c1, c0) order, found here
    by search; power is plain square-and-multiply on the whole exponent."""
    c1, c0 = next((c1, c0) for c1, c0 in itertools.product(range(p), repeat=2)
                  if all((z * z + c1 * z + c0) % p for z in range(p)))

    def mul(x, y):
        (u, v), (s, w) = x, y
        return (u * s - c0 * v * w) % p, (u * w + v * s - c1 * v * w) % p

    def power(x, e):
        out = (1, 0)
        while e:
            if e & 1:
                out = mul(out, x)
            x, e = mul(x, x), e >> 1
        return out

    return mul, power


def _pair(code, p):
    """The pair (u, v) of the plain int u + v*p."""
    return code % p, code // p


def _fp2_value(x, a, b):
    """x at t = a, theta = b in F_{p^2} (pairs) term by term, or None where
    its denominator vanishes."""
    p = x.p
    mul, power = _fp2_field(p)

    def at(f):
        out = (0, 0)
        for e, te, c in f.monomials():
            z = mul(power(a, te), power(b, e))
            out = ((out[0] + c * z[0]) % p, (out[1] + c * z[1]) % p)
        return out

    den = at(x.den)
    return None if den == (0, 0) else mul(at(x.num), power(den, p * p - 2))


def _all_maps_filter(poly, points):
    """_fp_filter's contract with every map t -> a, theta -> b defined on
    the coefficients and coordinates kept, none dropped for an equal
    column, images taken term by term and nothing memoised; and stage 2
    over every orbit representative that _Fp2.maps lists for the data,
    the first p^2 (p when the data involve one of t and theta), in pair
    arithmetic, each image recomputed for every combination."""
    p, g = poly.p, poly.g
    coords = list(poly.terms.values()) + [c for x in points for c in x]
    maps = [(a, b) for a, b in itertools.product(range(p), repeat=2)
            if None not in [_fp_value(c, a, b) for c in coords]]
    rows = [tuple(_fp_value(c, a, b) for a, b in maps for c in x)
            for x in points]

    def vanish(flat):
        return all(not sum(
            _fp_value(c, a, b) * math.prod(
                pow(s, e, p) for s, e in zip(flat[u * g:(u + 1) * g], exps))
            for exps, c in poly.terms.items()) % p
            for u, (a, b) in enumerate(maps))

    monomials = [m for c in coords for f in (c.num, c.den)
                 for m in f.monomials()]
    moves_t = any(te for _, te, _ in monomials)
    moves_theta = any(e for e, _, _ in monomials)
    lifts = itertools.islice(ex._Fp2(p).maps(moves_t, moves_theta),
                             p ** (moves_t + moves_theta))
    lifts = [(_pair(a, p), _pair(b, p)) for a, b in lifts]
    mul, power = _fp2_field(p)

    def lifted(combination):
        for a, b in lifts:
            coefs = [_fp2_value(c, a, b) for c in poly.terms.values()]
            parts = [(d, [_fp2_value(c, a, b) for c in points[i]])
                     for i, d in combination if d % p]
            if None in coefs or any(None in z for _, z in parts):
                continue
            y = [tuple(sum(d * z[j][k] for d, z in parts) % p for k in (0, 1))
                 for j in range(g)]
            value = (0, 0)
            for exps, c in zip(poly.terms, coefs):
                for s, e in zip(y, exps):
                    c = mul(c, power(s, e))
                value = ((value[0] + c[0]) % p, (value[1] + c[1]) % p)
            if value != (0, 0):
                return False
        return True

    return rows, vanish, lifted


def _random_span_case(seed):
    """A seeded span offset + sum d_k vectors[k] over F_2 or F_3, of width
    1 or 2, with coordinates from a pool holding t and denominators that
    vanish at some ring maps, and a polynomial vanishing on two points of
    the span whose coefficients carry those coordinates."""
    rng = random.Random(seed)
    p, g = rng.choice([2, 3]), rng.choice([1, 2])
    pool = ["0", "1", "theta", "theta^2+1", "t", "t*theta+1", "1/(theta+1)",
            "1/(t+theta)", "theta/(t+1)"]

    def point():
        return tuple(kelem_parse(p, rng.choice(pool)) for _ in range(g))

    offset, vectors = point(), [point() for _ in range(rng.randrange(1, 4))]
    span = list(fp_span(p, vectors, offset))
    u, v = rng.sample(span, 2)
    x = [ex.MultiPoly.variable(p, g, i) for i in range(g)]

    def c(z):
        return ex.MultiPoly.constant(p, g, z)

    if g == 1:
        poly = (x[0] - c(u[0])) * (x[0] - c(v[0]))
    else:
        # a conic through u and v
        poly = (x[0] - c(u[0])) * (x[0] - c(v[0])) + \
            (x[1] - c(u[1])) * (x[0] - c(v[0]))
    return p, g, offset, vectors, poly


class TestFpFilter:
    @pytest.mark.parametrize("seed", range(12))
    def test_dropped_maps_change_no_sweep(self, seed, exact_evaluations,
                                          monkeypatch):
        """The filter without its equal-column maps sweeps the same zeros
        in the same order, after as many exact evaluations, as the filter
        of every usable map."""
        _p, _g, offset, vectors, poly = _random_span_case(seed)
        fast = ex._swept_zeros(offset, vectors, poly)
        evaluated = len(exact_evaluations)
        exact_evaluations.clear()
        monkeypatch.setattr(ex, "_fp_filter", _all_maps_filter)
        full = ex._swept_zeros(offset, vectors, poly)
        assert [point_to_str(x) for x in fast] == \
            [point_to_str(x) for x in full]
        assert evaluated == len(exact_evaluations)
        assert len(fast) >= 2

    def test_maps_of_equal_columns_are_dropped(self):
        # theta-only data: the 9 maps collapse to one per theta = b
        poly = ex.poly_parse(P, 1, "x - theta")
        rows, _, _ = ex._fp_filter(poly, ex.theta_box(P, 1, 2))
        assert {len(row) for row in rows} == {P}
        # the cubic's images see b only through b^2, so the point t keeps
        # the maps (a, 0) and (a, 1), a in F_3
        rows, _, _ = ex._fp_filter(ex.poly_parse(P, 1, _CUBIC),
                                   [(KElem.t(P),)])
        assert rows == [(0, 1, 2, 0, 1, 2)]

    def test_no_usable_map_passes_everything(self):
        # 1/(theta^3 - theta) is undefined at every theta = b in F_3, but
        # defined at every b off F_3, so stage 2 still reads it
        poly = ex.poly_parse(P, 1, "x - 1")
        rows, vanish, lifted = ex._fp_filter(
            poly, [(kelem_parse(P, "1/(theta^3-theta)"),), (KElem.one(P),)])
        assert rows == [(), ()]
        assert vanish(())
        assert not lifted([(0, 1)])
        assert lifted([(1, 1)])

    def test_map_undefined_on_a_point_is_skipped_only_there(self):
        # every map theta -> b, b off F_3, is undefined on 1/(theta^9 -
        # theta), so the combinations touching it pass stage 2; the others
        # are still ruled out
        poly = ex.poly_parse(P, 1, "x - theta")
        points = [(KElem.one(P),), (kelem_parse(P, "1/(theta^9-theta)"),),
                  (KElem.theta(P),)]
        _, _, lifted = ex._fp_filter(poly, points)
        assert not lifted([(0, 1)])
        assert lifted([(0, 1), (1, 1)])
        assert lifted([(2, 1)])
        assert not lifted([(0, 1), (2, 1)])


class TestNegativePrecision:
    """A negative digit count is refused up front, as a negative degree
    bound is: before the membership shortcut and the rank-0 shortcut, and
    so by the pipelines that make these calls."""

    @pytest.mark.parametrize("call", [
        lambda gamma, y: adelic.closure_member(gamma, y, precision=-1),
        lambda gamma, y: adelic.closure_member(gamma, (KElem.theta(P) + 1,
                                                       KElem.zero(P)),
                                               precision=-1),
        lambda gamma, y: adelic.closure_member(gamma, (KElem.zero(P),) * 2,
                                               precision=-3),
        lambda gamma, y: adelic.discreteness_certificate(
            gamma, adelic.standard_tracked_places(gamma)[0], cutoff=-1),
        lambda gamma, y: adelic.discreteness_certificate(
            PhiModule(gamma.phi, 2, []),
            adelic.standard_tracked_places(gamma)[0], cutoff=-3),
    ], ids=["member", "non-member", "zero-point", "discreteness",
            "rank-0-discreteness"])
    def test_refused(self, call, family_bounds):
        gamma = _carlitz_plane()
        with pytest.raises(ValueError, match="negative (precision|cutoff)"):
            call(gamma, (KElem.theta(P), KElem.zero(P)))
        assert family_bounds == []
        assert not gamma._memo

    @pytest.mark.parametrize("bounds", [{"precision": -1}, {"cutoff": -1}])
    def test_refused_by_the_generic_pipeline(self, bounds):
        theta = KElem.theta(P)
        gamma = PhiModule(DrinfeldModule.parse(P, "[t, 1]"), 1, [(theta,)])
        with pytest.raises(ValueError, match="negative (precision|cutoff)"):
            ex.generic_char_experiment(gamma, ex.ZeroDim(1, [(theta,)]),
                                       **bounds)

    @pytest.mark.parametrize("pipeline, bound", [
        (pipeline, bound)
        for pipeline, bounds in [
            ("generic", ("precision", "cutoff", "deg_bound", "enum_deg")),
            ("zero-dim", ("precision", "deg_bound")),
            ("reduction", ("precision", "deg_bound", "enum_deg"))]
        for bound in bounds])
    def test_refused_at_entry(self, pipeline, bound, monkeypatch):
        """Each pipeline refuses a negative bound before any fullness
        scan, minimisation or discreteness certificate runs."""
        calls = []
        for name in ("is_full", "_minimize_generators",
                     "discreteness_certificate"):
            monkeypatch.setattr(ex, name, lambda *args, name=name, **kw:
                                calls.append(name))
        theta = KElem.theta(P)
        generic = PhiModule(DrinfeldModule.parse(P, "[t, 1]"), 1, [(theta,)])
        special = PhiModule(DrinfeldModule.parse(P, "[0, theta, 1]"), 1,
                            [(theta,)])
        curve = ex.Hypersurface(ex.poly_parse(P, 1, _CUBIC))
        run = {
            "generic": lambda **kw: ex.generic_char_experiment(
                generic, curve, **kw),
            "zero-dim": lambda **kw: ex.zero_dim_intersection(
                special, ex.ZeroDim(1, [(theta,)]), **kw),
            "reduction": lambda **kw: ex.uniform_dml_reduce(
                special, curve, 1, **kw),
        }[pipeline]
        with pytest.raises(ValueError, match="negative "):
            run(**{bound: -1})
        assert calls == []


class TestNegativeDegBound:
    """A negative operator degree bound has no bounded family: each entry
    point that builds one refuses it before any family is prepared."""

    @pytest.mark.parametrize("deg_bound", [-1, -2])
    @pytest.mark.parametrize("call", [
        lambda gamma, y, d: member(gamma, y, d),
        lambda gamma, y, d: member_many(gamma, [y, y], d),
        lambda gamma, y, d: adelic.closure_member(gamma, y, deg_bound=d),
        lambda gamma, y, d: adelic.discreteness_certificate(
            gamma, adelic.standard_tracked_places(gamma)[0], deg_bound=d),
        lambda gamma, y, d: ex.generic_char_experiment(
            gamma, ex.ZeroDim(2, [y]), deg_bound=d),
    ], ids=["member", "member_many", "closure_member",
            "discreteness_certificate", "generic_char_experiment"])
    def test_refused(self, call, deg_bound, family_bounds):
        gamma = _carlitz_plane()
        y = (KElem.theta(P), KElem.zero(P))
        with pytest.raises(ValueError, match="negative degree bound"):
            call(gamma, y, deg_bound)
        assert family_bounds == []
        assert not gamma._memo

    @pytest.mark.parametrize("call", [
        # the zero point, which needs no family, at -1 and -2
        lambda: member(_carlitz_plane(), (KElem.zero(P),) * 2, -1),
        lambda: adelic.closure_member(_carlitz_plane(), (KElem.zero(P),) * 2,
                                      deg_bound=-2),
        # a module of rank 0, which has no family to build
        lambda: member(PhiModule(DrinfeldModule.parse(P, "[t, 1]"), 1, []),
                       (KElem.theta(P),), -1),
    ], ids=["zero-point-member", "zero-point-closure_member", "rank-0-member"])
    def test_refused_before_the_shortcuts(self, call, family_bounds):
        with pytest.raises(ValueError, match="negative degree bound"):
            call()
        assert family_bounds == []
