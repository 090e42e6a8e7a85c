import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab import drinfeld
from drinfeldlab.base import Echelon, RPoly, rpoly_to_str
from drinfeldlab.drinfeld import (
    DrinfeldModule,
    GENERIC,
    SPECIAL,
    division_points,
    estimate_torsion_level_m,
    k_rational_torsion,
    modular_transcendence_probe,
    phi_action,
    reduce_point,
    reduction,
    solve_additive_many,
    torsion_annihilator,
)
from drinfeldlab.factor import factor_bipoly
from drinfeldlab.kfield import BiPoly, KElem, kelem_parse, kelem_sort_key, kelem_to_str
from drinfeldlab.phimodule import PhiModule
from drinfeldlab.adelic import _good_place, hilbertian_places
from drinfeldlab.places import Place, valuation
from drinfeldlab.twisted import (TwistedPoly, tp_add, tp_compose, tp_eval, tp_parse,
                                 tp_to_str)

from helpers import conjugate, probe_by_conjugation


P = 3


def carlitz():
    return DrinfeldModule.parse(P, "[t, 1]")


def psi():
    return DrinfeldModule.parse(P, "[0, theta, 1]")


def theta_kernel_module():
    # phi_t = t x + 2t theta^{-2} x^3: the t-kernel over K is {0, theta, 2theta}
    return DrinfeldModule.parse(P, "[t, (2*t)/(theta^2)]")


class TestConstruction:
    def test_characteristic_classification(self):
        assert carlitz().characteristic == GENERIC
        assert psi().characteristic == SPECIAL

    def test_bad_differential(self):
        with pytest.raises(ValueError):
            DrinfeldModule.parse(P, "[theta, 1]")

    def test_declared_characteristic_checked(self):
        with pytest.raises(ValueError):
            DrinfeldModule.parse(P, "[t, 1]", characteristic="special")
        assert DrinfeldModule.parse(P, "[t, 1]", characteristic="generic")

    def test_constant_map_rejected(self):
        with pytest.raises(ValueError):
            DrinfeldModule.parse(P, "[t]")


class TestAction:
    def test_frozen_values(self):
        C = carlitz()
        t = RPoly.t(P)
        assert tp_to_str(phi_action(C, t * t)) == "[t^2, t^3+t, 1]"
        assert tp_to_str(phi_action(C, RPoly.one(P))) == "[1]"
        a = t + RPoly.const(P, 2)
        assert tp_to_str(phi_action(psi(), a)) == "[2, theta, 1]"
        assert phi_action(C, RPoly.zero(P)).is_zero()

    def test_ring_homomorphism_laws(self):
        rng = random.Random(81)
        for phi in (carlitz(), psi()):
            for _ in range(40):
                a = RPoly.from_coeffs(P, [rng.randrange(P) for _ in range(5)])
                b = RPoly.from_coeffs(P, [rng.randrange(P) for _ in range(5)])
                assert phi_action(phi, a * b) == tp_compose(
                    phi_action(phi, a), phi_action(phi, b))
                assert phi_action(phi, a + b) == tp_add(
                    phi_action(phi, a), phi_action(phi, b))

    def test_power_cache_consistency(self):
        C = carlitz()
        t = RPoly.t(P)
        direct = phi_action(C, t ** 4)
        assert direct == tp_compose(C.phi_t, phi_action(C, t ** 3))


# generic and special modules, with phi_t-coefficients that are not units
# at some of the scanned places
_REDUCTION_MODULES = {
    2: ["[t, 1]", "[t, theta, 1]", "[0, theta+1, 1]", "[0, 1, t*theta]"],
    3: ["[t, (2*t)/(theta^2)]", "[t, theta, 1]", "[0, theta, 1]"],
    5: ["[t, 1]", "[t, 0, theta+t]", "[0, theta+2, 1]"],
}


class TestReduction:
    """reduction(phi, v) is phi's reduction at a good place v: residues of
    Phi_a(x) are its Phi_a at the residue of x."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_commutes_with_the_action(self, data):
        p = data.draw(st.sampled_from(sorted(_REDUCTION_MODULES)))
        phi = DrinfeldModule.parse(
            p, data.draw(st.sampled_from(_REDUCTION_MODULES[p])))
        gamma = PhiModule(phi, 1, [])
        v = data.draw(st.sampled_from(
            [v for v in itertools.islice(hilbertian_places(p), 8)
             if _good_place(gamma, v)]))
        x = KElem.zero(p)
        for e in range(3):
            c = RPoly.from_coeffs(p, data.draw(st.lists(
                st.integers(0, p - 1), min_size=1, max_size=3)))
            x = x + KElem.from_rpoly(c) * KElem.theta(p) ** e
        a = RPoly.from_coeffs(p, data.draw(st.lists(
            st.integers(0, p - 1), min_size=1, max_size=3)))
        phibar = reduction(phi, v)
        assert phibar.characteristic == phi.characteristic
        assert phibar.phi_t.tau_degree == phi.phi_t.tau_degree
        assert all(c.num.theta_degree <= 0 and c.den.theta_degree == 0
                   for c in phibar.phi_t.coeffs)
        (xbar,) = reduce_point((x,), v)
        assert reduce_point((tp_eval(phi_action(phi, a), x),), v) \
            == (tp_eval(phi_action(phibar, a), xbar),)


class TestConjugate:
    def test_frozen_values(self):
        assert tp_to_str(conjugate(psi(), KElem.one(P))) == "[0, theta, 1]"
        assert tp_to_str(conjugate(psi(), KElem.theta(P))) == "[0, theta^3, theta^8]"
        assert tp_to_str(conjugate(carlitz(), KElem.t(P))) == "[t, t^2]"

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            conjugate(psi(), KElem.zero(P))

    def test_conjugation_preserves_hom_law(self):
        gamma = kelem_parse(P, "theta+1")
        psi_t = conjugate(carlitz(), gamma)
        # gamma^{-1} C_{t^2}(gamma x) should equal psi_t o psi_t
        c_sq = phi_action(carlitz(), RPoly.t(P) ** 2)
        conj_sq = TwistedPoly(P, [c * gamma ** (P ** i - 1)
                                  for i, c in enumerate(c_sq.coeffs)])
        assert tp_compose(psi_t, psi_t) == conj_sq


class TestProbe:
    def test_special_module_inconclusive(self):
        rep = modular_transcendence_probe(psi())
        assert rep.verdict == "inconclusive_positive"
        assert rep.witness is None

    def test_constant_coefficients(self):
        rep = modular_transcendence_probe(DrinfeldModule.parse(P, "[0, 1, 1]"))
        assert rep.verdict == "degree_zero_witness"
        assert rep.witness == KElem.one(P)

    def test_probe_inverts_conjugation(self):
        base = DrinfeldModule.parse(P, "[0, 1, 1]")
        twisted = DrinfeldModule(conjugate(base, KElem.theta(P)))
        rep = modular_transcendence_probe(twisted)
        assert rep.verdict == "degree_zero_witness"
        assert rep.witness == KElem.theta(P).inverse()

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exponent_scan_equals_the_conjugation_scan(self, p):
        # special modules with constant coefficients conjugated by a
        # random monomial have a witness; mixing in zero, non-monomial and
        # rational coefficients, and the generic differential t, mostly not
        rng = random.Random(p)
        t, theta = KElem.t(p), KElem.theta(p)
        monomials = [KElem.const(p, a) * t ** i * theta ** j
                     for a in range(1, p) for i in range(-2, 3)
                     for j in range(-2, 3)]
        others = [KElem.zero(p), theta + 1, (theta + t) / t,
                  t / (theta ** 2 + KElem.one(p)), theta / (t + 1)]
        phis = [DrinfeldModule(conjugate(DrinfeldModule.parse(p, "[t, 1]"),
                                         theta))]
        for _ in range(12):
            rank = rng.randrange(1, 3)
            consts = [KElem.const(p, rng.randrange(p)) for _ in range(rank)]
            consts[-1] = KElem.const(p, rng.randrange(1, p))
            base = DrinfeldModule.from_coeffs(p, [KElem.zero(p)] + consts)
            gamma = rng.choice(monomials[:25])      # t^i theta^j
            phis.append(DrinfeldModule(conjugate(base, gamma)))
            coeffs = [rng.choice([KElem.zero(p), t])]
            coeffs += [rng.choice(monomials + others) for _ in range(rank)]
            coeffs[-1] = rng.choice(monomials)
            phis.append(DrinfeldModule.from_coeffs(p, coeffs))
        verdicts = set()
        for phi in phis:
            rep = modular_transcendence_probe(phi)
            assert rep == probe_by_conjugation(phi), tp_to_str(phi.phi_t)
            verdicts.add(rep.verdict)
        assert verdicts == {"degree_zero_witness", "inconclusive_positive"}


class TestDivision:
    def test_carlitz_t_kernel_trivial(self):
        res = division_points(carlitz(), RPoly.t(P), KElem.zero(P))
        assert [kelem_to_str(x) for x in res.points] == ["0"]

    def test_divide_back(self):
        C = carlitz()
        y = tp_eval(C.phi_t, KElem.theta(P))
        res = division_points(C, RPoly.t(P), y)
        assert [kelem_to_str(x) for x in res.points] == ["theta"]

    def test_nontrivial_kernel(self):
        res = division_points(theta_kernel_module(), RPoly.t(P), KElem.zero(P))
        assert [kelem_to_str(x) for x in res.points] == ["0", "theta", "2*theta"]
        assert res.info.kernel_dim == 1

    def test_soundness_on_random_targets(self):
        rng = random.Random(82)
        C = carlitz()
        f = phi_action(C, RPoly.t(P))
        pool = [KElem.theta(P), kelem_parse(P, "theta+t"),
                kelem_parse(P, "t*theta^2+1"), kelem_parse(P, "theta/(theta+1)")]
        for x in pool:
            y = tp_eval(f, x)
            res = division_points(C, RPoly.t(P), y)
            assert x in res.points
            for z in res.points:
                assert tp_eval(f, z) == y

    def test_insoluble_target(self):
        res = division_points(carlitz(), RPoly.t(P),
                              kelem_parse(P, "theta/(theta+1)"))
        assert res.points == ()

    def test_batch_shares_results(self):
        C = carlitz()
        f = phi_action(C, RPoly.t(P))
        xs = [KElem.zero(P), KElem.theta(P), kelem_parse(P, "theta+1")]
        ys = [tp_eval(f, x) for x in xs]
        many = solve_additive_many(f, ys)
        assert [r.points for r in many] == [
            (KElem.zero(P),), (KElem.theta(P),), (kelem_parse(P, "theta+1"),)]

    def test_one_echelon_per_call(self, monkeypatch):
        # the particular solutions and the kernel come from one elimination
        built = []

        class CountingEchelon(Echelon):
            def __init__(self, columns, p):
                built.append(p)
                super().__init__(columns, p)

        monkeypatch.setattr(drinfeld, "Echelon", CountingEchelon)
        f = phi_action(carlitz(), RPoly.t(P))
        ys = [tp_eval(f, KElem.theta(P)), kelem_parse(P, "theta/(theta+1)"),
              KElem.zero(P)]
        res = solve_additive_many(f, ys)
        assert built == [P]
        assert [[kelem_to_str(x) for x in r.points] for r in res] == [
            ["theta"], [], ["0"]]
        built.clear()
        res = division_points(theta_kernel_module(), RPoly.t(P), KElem.zero(P))
        assert built == [P]
        assert res.info.kernel_dim == 1

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            division_points(carlitz(), RPoly.zero(P), KElem.zero(P))


class TestTorsion:
    def test_zero_is_torsion(self):
        cert = torsion_annihilator(carlitz(), KElem.zero(P), 5)
        assert cert.is_torsion and cert.annihilator.is_one()

    def test_constructed_torsion_point(self):
        cert = torsion_annihilator(theta_kernel_module(), KElem.theta(P), 5)
        assert cert.is_torsion
        assert rpoly_to_str(cert.annihilator) == "t"

    def test_non_torsion_escape(self):
        cert = torsion_annihilator(carlitz(), KElem.theta(P), 8)
        assert not cert.is_torsion
        assert cert.degree_bound == 8
        # theta-degrees of the iterates strictly grow
        assert cert.height_trace == (1, 3, 9, 27, 81, 243, 729, 2187, 6561)

    def test_one_coordinates_call_per_search(self, monkeypatch):
        # the orbit is coordinatised once, not once per candidate degree
        calls = []

        def counted(xs):
            calls.append(len(xs))
            return coordinate(xs)

        coordinate = drinfeld.coordinates
        monkeypatch.setattr(drinfeld, "coordinates", counted)
        cases = [(theta_kernel_module(), KElem.theta(P), 5, True),
                 (carlitz(), KElem.theta(P), 4, False),
                 (psi(), kelem_parse(P, "theta+1"), 3, False)]
        for phi, x, bound, torsion in cases:
            assert torsion_annihilator(phi, x, bound).is_torsion == torsion
        assert calls == [6, 5, 4]

    def test_k_rational_torsion_closures(self):
        res = k_rational_torsion(theta_kernel_module(), RPoly.t(P))
        assert len(res.points) == 3
        res = k_rational_torsion(psi(), RPoly.t(P))
        assert [kelem_to_str(x) for x in res.points] == ["0"]

    def test_torsion_level(self):
        rep = estimate_torsion_level_m(psi(), 3)
        assert rep.m == 0 and not rep.inconclusive
        assert rep.kernel_sizes == (1, 1)

    def test_torsion_level_needs_special(self):
        with pytest.raises(ValueError):
            estimate_torsion_level_m(carlitz(), 3)

    @pytest.mark.parametrize("m_max", [-1, -5])
    def test_negative_torsion_level_refused(self, m_max):
        with pytest.raises(ValueError, match="m_max must be >= 0"):
            estimate_torsion_level_m(psi(), m_max)


def brute_force_points(f, y, den, theta_bound, t_bound):
    """Every F_p-combination of the basis t^a theta^b / den, b <= theta_bound
    and a <= t_bound, with f(x) = y."""
    den = kelem_parse(P, den)
    basis = [KElem.t(P) ** a * KElem.theta(P) ** b / den
             for b in range(theta_bound + 1) for a in range(t_bound + 1)]
    found = set()
    for combo in itertools.product(range(P), repeat=len(basis)):
        x = KElem.zero(P)
        for c, m in zip(combo, basis):
            if c:
                x = x + KElem.const(P, c) * m
        if tp_eval(f, x) == y:
            found.add(kelem_to_str(x))
    return found



class TestBruteForceOracle:
    """The solver's points equal an exhaustive search over the solver's
    denominator and each case's own (theta, t) bounds, which contain the
    derived ones, so nothing solves just outside the proven bounds
    either."""

    @pytest.mark.parametrize("f_text, x_texts, miss_texts, bounds", [
        # torsion of phi_t = theta*tau + tau^2, and a kernel of dimension 1
        ("[0, theta, 1]", ["0"], [], (2, 1)),
        ("[t, (2*t)/(theta^2)]", ["theta", "t*theta"], [], (2, 1)),
        # rational targets
        ("[0, theta, 1]", ["(theta+1)/theta", "1/theta"], ["1/theta"], (4, 0)),
        # den is the primitive (t+2)*theta+2*t+2, and the first point sits
        # on the derived t-bound 2
        ("[0, (t+2)*theta+2*t+2]", ["(t^2+2*t)/((t+2)*theta+2*t+2)", "0"],
         ["1"], (1, 2)),
        # den = t^2+t from the pole bounds at t and at t+1
        ("[0, theta, 1]", ["1/t", "(theta+1)/(t+1)"], [], (1, 2)),
    ])
    def test_points_equal_enumeration(self, f_text, x_texts, miss_texts, bounds):
        f = tp_parse(P, f_text)
        xs = [kelem_parse(P, x) for x in x_texts]
        ys = [tp_eval(f, x) for x in xs] + [kelem_parse(P, y) for y in miss_texts]
        results = solve_additive_many(f, ys)
        for y, res in zip(ys, results):
            assert res.info.theta_bound <= bounds[0] and res.info.t_bound <= bounds[1]
            assert set(kelem_to_str(x) for x in res.points) == \
                brute_force_points(f, y, res.info.denominator, *bounds)
        for x, res in zip(xs, results):
            assert x in res.points


# The Moore polynomials prod_{c in span(1, theta)} (X - c): additive, with
# kernel F_p + F_p theta of dimension 2
MOORE = {2: "[theta^2+theta, theta^2+theta+1, 1]",
         3: "[theta^6+theta^4+theta^2, 2*theta^6+2*theta^4+2*theta^2+2, 1]"}


def kernel_coset(p, x, kernel):
    """x + sum c_k kernel[k] over itertools.product digits, by scaling."""
    return {kelem_to_str(sum((KElem.const(p, c) * z
                              for c, z in zip(digits, kernel)), x))
            for digits in itertools.product(range(p), repeat=len(kernel))}


class TestKernelCosets:
    @pytest.mark.parametrize("p", [2, 3])
    def test_points_are_the_kernel_coset(self, p):
        f = tp_parse(p, MOORE[p])
        xs = [kelem_parse(p, s) for s in ("0", "t*theta^2+1", "theta^3+t")]
        results = solve_additive_many(f, [tp_eval(f, x) for x in xs])
        kernel = [KElem.one(p), KElem.theta(p)]
        for x, res in zip(xs, results):
            assert res.info.kernel_dim == 2
            assert [kelem_to_str(z) for z in res.points] == sorted(
                kernel_coset(p, x, kernel),
                key=lambda text: kelem_sort_key(kelem_parse(p, text)))


class TestSharpBounds:
    """The Newton-polygon theta-bound and the denominator profile that
    factors only coefficient denominators, the leading numerator and the
    target denominators."""

    def test_zero_target_kernel_with_no_equations(self):
        # the sharp theta-bound 1 puts the whole basis {1, theta} inside the
        # kernel, so the system has no equations and all of span(1, theta)
        # solves f(X) = 0
        f = tp_parse(P, MOORE[P])
        res = solve_additive_many(f, [KElem.zero(P)])[0]
        assert res.info.theta_bound == 1
        assert res.info.kernel_dim == 2
        assert [kelem_to_str(x) for x in res.points] == sorted(
            kernel_coset(P, KElem.zero(P), [KElem.one(P), KElem.theta(P)]),
            key=lambda text: kelem_sort_key(kelem_parse(P, text)))

    @pytest.mark.parametrize("f_text, y_text, theta_bound, denominator", [
        # deg X = e >= 1 gives deg(theta X^3) = 3e + 1 < deg(X^9) = 9e
        ("[0, theta, 1]", "theta^9", 1, "1"),
        ("[0, theta, 1]", "theta^8", 0, "1"),
        ("[0, theta, 1]", "0", 0, "1"),
        # the lower coefficient theta vanishes at theta = 0, but a pole of
        # X there would need v(y) <= -9
        ("[0, theta, 1]", "1/theta", 0, "1"),
        # here a pole of order 1 at theta = 0 gives v(y) = -3
        ("[theta, 1]", "1/theta^3", 1, "theta"),
        # the leading coefficient vanishes at theta = 0: v(y) = 1 - 9e
        ("[0, 1, theta]", "1/theta^8", 1, "theta"),
        ("[0, 1, theta]", "1/theta^7", 0, "1"),
    ])
    def test_bounds(self, f_text, y_text, theta_bound, denominator):
        res = solve_additive_many(tp_parse(P, f_text),
                                  [kelem_parse(P, y_text)])[0]
        assert (res.info.theta_bound, res.info.denominator) == \
            (theta_bound, denominator)
        assert res.info.flags == ()

    def test_solution_on_the_bound(self):
        # 1/theta solves X^3 + theta X^9 = theta^-3 + theta^-8 with a pole
        # at the zero of the leading coefficient
        f = tp_parse(P, "[0, 1, theta]")
        x = kelem_parse(P, "1/theta")
        res = solve_additive_many(f, [tp_eval(f, x)])[0]
        assert res.info.denominator == "theta"
        assert res.points == (x,)

    def test_monomial_denominator_needs_no_factoring(self):
        # theta^9 lies above the factoring cap, but a denominator
        # c(t) theta^k has the single place theta, so the profile stays
        # complete: 1/theta solves theta X^3 + X^9 = (theta^7 + 1)/theta^9
        y = kelem_parse(P, "(theta^7+1)/theta^9")
        res = solve_additive_many(psi().phi_t, [y])[0]
        assert res.points == (kelem_parse(P, "1/theta"),)
        assert res.info.flags == ()

    @pytest.mark.parametrize("f_text, x_text, denominator", [
        # the coefficient denominator t is a unit at every finite place and
        # the target denominator t theta^9 is a monomial with c(t) = t
        ("[0, theta/t, 1]", "1/theta", "theta"),
        ("[0, theta/t, 1]", "(theta+t)/theta^2", "theta^2"),
        # the target denominator theta^18 is twice the factoring cap
        ("[0, theta, 1]", "1/theta^2", "theta^2"),
    ])
    def test_monomial_denominators_past_the_cap(self, f_text, x_text,
                                                denominator):
        f = tp_parse(P, f_text)
        x = kelem_parse(P, x_text)
        res = solve_additive_many(f, [tp_eval(f, x)])[0]
        assert res.info.denominator == denominator
        assert res.points == (x,)
        assert res.info.flags == ()

    def test_pth_power_denominator_past_the_cap(self):
        # the target denominator (theta^2+t)^9 = theta^18 + t^9 lies above
        # the factoring cap; its second p-th root theta^2+t does not
        x = kelem_parse(P, "(theta+1)/(theta^2+t)")
        res = solve_additive_many(psi().phi_t, [tp_eval(psi().phi_t, x)])[0]
        assert res.points == (x,)
        assert res.info.denominator == "theta^2+t"
        assert res.info.flags == ()

    def test_pole_at_a_zero_of_the_leading_coefficient(self):
        # at p = 2, X^2 + theta^4 X^4 = X^2 (1 + theta^2 X)^2: the root
        # 1/theta^2 balances the two terms at theta = 0, where only the
        # leading coefficient vanishes and the target has no pole
        f = tp_parse(2, "[0, 1, theta^4]")
        res = solve_additive_many(f, [KElem.zero(2)])[0]
        assert res.info.denominator == "theta^2"
        assert [kelem_to_str(x) for x in res.points] == ["0", "(1)/(theta^2)"]

    def test_capped_sharp_bound_still_flagged(self):
        # X of degree 27 in theta and in t balances X^9 against
        # (t theta)^250: the derived basis has 28^2 > (_HARD_CAP + 1)^2 = 625
        # unknowns, so each bound is clipped at _HARD_CAP = 24
        y = (KElem.t(P) * KElem.theta(P)) ** 250
        res = solve_additive_many(psi().phi_t, [y])[0]
        cap = drinfeld._HARD_CAP
        assert (res.info.theta_bound, res.info.t_bound) == (cap, cap)
        assert {"theta-bound-capped", "t-bound-capped"} <= set(res.info.flags)

    def test_hard_cap_bounds_the_count_of_unknowns(self):
        # theta^250 alone gives the theta-bound 27 > _HARD_CAP, but the
        # basis has 28 <= 625 unknowns, so nothing is clipped
        res = solve_additive_many(psi().phi_t, [KElem.theta(P) ** 250])[0]
        assert (res.info.theta_bound, res.info.t_bound) == (27, 0)
        assert res.info.flags == ()


class TestTDenominators:
    """The Gauss valuation w_q at each t-prime q(t) of the data bounds the
    t-part of the denominator, and t = infinity bounds the t-degree."""

    @pytest.mark.parametrize("x_text, denominator", [
        ("1/t", "t"),
        ("1/(t*theta)", "t*theta"),
        ("t^2/(t+1)", "t+1"),
        ("(t*theta+1)/(t^2+t+1)", "t^2+t+1"),
    ])
    def test_point_is_found(self, x_text, denominator):
        f = psi().phi_t
        x = kelem_parse(P, x_text)
        res = solve_additive_many(f, [tp_eval(f, x)])[0]
        assert res.points == (x,)
        assert res.info.denominator == denominator
        assert res.info.flags == ()

    def test_large_t_poles_stay_desk_scale(self):
        # theta/(t+1)^3000 bounds the pole order at t+1 by 3000 // 9 = 333,
        # a basis of 334 unknowns; 1/t^20000 gives 2223 unknowns, which is
        # clipped at _HARD_CAP and flagged
        f = psi().phi_t
        t = RPoly.t(P)
        y = KElem.theta(P) * KElem.from_rpoly((t + 1) ** 3000).inverse()
        res = solve_additive_many(f, [y])[0]
        assert (res.info.theta_bound, res.info.t_bound) == (0, 333)
        assert res.info.flags == ()
        res = solve_additive_many(f, [KElem.from_rpoly(t ** 20000).inverse()])[0]
        assert res.info.t_bound == drinfeld._HARD_CAP
        assert res.info.flags == ("t-bound-capped",)


def _random_bipoly_kelem(rng, p, theta_deg, t_deg):
    acc = KElem.zero(p)
    for b in range(theta_deg + 1):
        for a in range(t_deg + 1):
            c = rng.randrange(p)
            if c:
                acc = acc + KElem.const(p, c) * KElem.t(p) ** a * KElem.theta(p) ** b
    return acc


_DENOMINATORS = {2: ["1", "theta", "theta+1", "theta+t"],
                 3: ["1", "theta", "theta+t"]}
# factor_bipoly refuses theta * (theta + t)^4 at p = 2 (its recombination
# pool overflows), so at tau-degree 2 the box has no denominator theta+t
_T_FREE_DENOMINATORS = {2: ["1", "theta", "theta+1"], 3: _DENOMINATORS[3]}
# the box adds the t-primes t and t+1 (t+2 at p = 3) and t*theta
_BOX_DENOMINATORS = {2: _T_FREE_DENOMINATORS[2] + ["t", "t+1", "t*theta"],
                     3: _T_FREE_DENOMINATORS[3] + ["t", "t+2", "t*theta"]}


def _random_additive(rng, p):
    """f = sum c_i tau^i, tau-degree 1 or 2 at p = 2 and 1 at p = 3, each
    c_i a random polynomial of theta- and t-degree <= 1 over one of
    _DENOMINATORS (c_0 may vanish).  The images of _box then keep their
    denominators inside the factoring cap of the denominator profile."""
    coeffs = []
    for i in range(rng.choice((2, 3)) if p == 2 else 2):
        num = _random_bipoly_kelem(rng, p, 1, 1)
        while num.is_zero() and i > 0:
            num = _random_bipoly_kelem(rng, p, 1, 1)
        coeffs.append(num / kelem_parse(p, rng.choice(_DENOMINATORS[p])))
    return TwistedPoly(p, coeffs)


def _box(p):
    """An enumeration independent of the solver: P / Q with P any
    F_p-combination of 1, theta, t, t*theta and Q from _BOX_DENOMINATORS."""
    monomials = [KElem.one(p), KElem.theta(p), KElem.t(p),
                 KElem.t(p) * KElem.theta(p)]
    out = {}
    for q in _BOX_DENOMINATORS[p]:
        den = kelem_parse(p, q)
        for digits in itertools.product(range(p), repeat=len(monomials)):
            x = sum((KElem.const(p, c) * m for c, m in zip(digits, monomials)),
                    KElem.zero(p)) / den
            out[kelem_to_str(x)] = x
    return list(out.values())


class TestBruteForceBox:
    """No solution is lost: every point of an enumerated box of rational X
    is among the solver's points for f(X), under the default bounds."""

    @pytest.mark.parametrize("p, seed", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
    def test_box_points_are_found(self, p, seed):
        rng = random.Random(1000 * p + seed)
        f = _random_additive(rng, p)
        by_target = {}
        for x in _box(p):
            y = tp_eval(f, x)
            by_target.setdefault(kelem_to_str(y), (y, set()))[1].add(
                kelem_to_str(x))
        targets = [y for y, _xs in by_target.values()]
        # one batched solve of every image, and a sample solved alone
        misses = [_random_bipoly_kelem(rng, p, 2, 1)
                  / kelem_parse(p, rng.choice(_BOX_DENOMINATORS[p]))
                  for _ in range(3)]
        batched = solve_additive_many(f, targets + misses)
        alone = rng.sample(targets, min(8, len(targets))) + misses
        for y, res in list(zip(targets + misses, batched)) + [
                (y, solve_additive_many(f, [y])[0]) for y in alone]:
            found = {kelem_to_str(x) for x in res.points}
            _y, want = by_target.get(kelem_to_str(y), (y, set()))
            assert want <= found
            assert res.info.flags == ()
            for x in res.points:
                assert tp_eval(f, x) == y


def _loose_solution_denominator(f, ys, flags):
    """The denominator profile before the sharp bounds: the numerator of
    every coefficient was factored too, and the unique-minimum case took
    the largest ceil((v(c_i) - v(y)) / p^i) over i instead of the least."""
    p = f.p
    nz = [(i, c) for i, c in enumerate(f.coeffs) if not c.is_zero()]
    prims = {}
    for part in [c.den for _i, c in nz] + [c.num for _i, c in nz] + [
            y.den for y in ys if not y.is_zero()]:
        if part.theta_degree < 1 and part.term_count() <= 1:
            continue
        if part.theta_degree > drinfeld._FACTOR_DEG_CAP:
            flags.add("denominator-profile-truncated")
            continue
        for prim, _m in factor_bipoly(part)[2]:
            prims[prim.key()] = prim
    den = BiPoly.one(p)
    for key in sorted(prims):
        v = Place(p, prims[key], _checked=True)
        vals = [(i, valuation(c, v)) for i, c in nz]
        vy = min(0, min((valuation(y, v) for y in ys if not y.den.is_one()),
                        default=0))
        e = max(-(-(vi - vy) // p ** i) for i, vi in vals)
        for (i, vi), (j, vj) in itertools.combinations(vals, 2):
            if vj > vi:
                e = max(e, (vj - vi) // (p ** j - p ** i))
        if e >= 1:
            den = den * prims[key] ** e
    return den


class TestAgainstLooseBounds:
    """Seeded differential test against the solver with the loose
    denominator profile and a generous theta-bound of 20, patched in for
    the derived one: every point it finds, the sharp solver finds with its
    derived bounds.  The points have t-free denominators, since the loose
    profile has no t-primes."""

    @pytest.mark.parametrize("p, seed", [(2, s) for s in range(6)]
                             + [(3, s) for s in range(6)])
    def test_loose_points_are_found(self, p, seed, monkeypatch):
        rng = random.Random(2000 * p + seed)
        f = _random_additive(rng, p)
        xs = [_random_bipoly_kelem(rng, p, rng.choice((1, 2)), 1)
              / kelem_parse(p, rng.choice(_T_FREE_DENOMINATORS[p]))
              for _ in range(3)]
        ys = [tp_eval(f, x) for x in xs] + [KElem.zero(p)] + [
            _random_bipoly_kelem(rng, p, 2, 1)]
        sharp = solve_additive_many(f, ys)
        derived = drinfeld._degree_bounds
        with monkeypatch.context() as m:
            m.setattr(drinfeld, "_solution_denominator",
                      _loose_solution_denominator)
            m.setattr(drinfeld, "_degree_bounds",
                      lambda f, ys, den: (20, derived(f, ys, den)[1]))
            loose = solve_additive_many(f, ys)
        for x, res in zip(xs, sharp):
            assert x in res.points
        for y, s, lo in zip(ys, sharp, loose):
            found = {kelem_to_str(x) for x in s.points}
            assert {kelem_to_str(x) for x in lo.points} <= found
            for x in s.points:
                assert tp_eval(f, x) == y
            assert "theta-bound-capped" not in s.info.flags
