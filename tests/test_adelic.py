import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

from drinfeldlab import adelic, phimodule, places
from drinfeldlab.adelic import (
    STANDARD_PLACE_COUNT,
    _point_valuation,
    certificate_json,
    closure_member,
    closure_torsion_check,
    discreteness_certificate,
    hilbertian_places,
    quotient_iso_check,
    standard_tracked_places,
)
from drinfeldlab.base import Echelon, RPoly, rpoly_parse, smith_normal_form
from drinfeldlab.drinfeld import DrinfeldModule, phi_action
from drinfeldlab.kfield import KElem, kelem_parse
from drinfeldlab.phimodule import (PhiModule, _apply_operators, _op_on_point,
                                   _weights_to_operators, point_add,
                                   point_to_str, quotient, torsion_submodule)
from drinfeldlab.places import place_parse, place_to_str, valuation
from drinfeldlab.twisted import TwistedPoly, tp_eval

from helpers import (brute_force_free_rank, classify_places,
                     closure_member_unmemoised, embedded_family_unmemoised,
                     pairwise_separations, unmemoised_module)


def k(p, text):
    return kelem_parse(p, text)


def carlitz_theta(p=3):
    phi = DrinfeldModule.parse(p, "[t, 1]")
    return PhiModule(phi, 1, [(KElem.theta(p),)])


def special_theta(p=3):
    phi = DrinfeldModule.parse(p, "[0, theta, 1]")
    return PhiModule(phi, 1, [(KElem.theta(p),)])


def drinfeld_one(p=3):
    # phi_t = t + theta tau + tau^2 on <1>: at theta + t + 1 the operator t
    # is the smallest whose value leaves the units
    phi = DrinfeldModule.parse(p, "[t, theta, 1]")
    return PhiModule(phi, 1, [(KElem.one(p),)])


def torsion_only_theta():
    # phi_t = tau - theta^{-6} tau^2 sends theta to theta^3 - theta^3 = 0,
    # so <theta> is t-torsion while the module map stays height two
    p = 3
    theta = KElem.theta(p)
    low = KElem.one(p)
    high = KElem.zero(p) - KElem.one(p) / theta ** 6
    phi = DrinfeldModule(TwistedPoly(p, (KElem.zero(p), low, high)))
    return PhiModule(phi, 1, [(theta,)])


def paper_hull_gens():
    """The paper's hull of Phi_t(theta) for phi_t = theta*tau + tau^2 at
    p = 3, from its generators."""
    theta = KElem.theta(3)
    return PhiModule(DrinfeldModule.parse(3, "[0, theta, 1]"), 1,
                     [(theta ** 9 + theta ** 4,), (theta,), (KElem.one(3),)])


def op_value(gamma, a):
    # value of Phi_a(theta) for the rank-one generator, computed directly
    if isinstance(a, str):
        a = rpoly_parse(gamma.p, a)
    x = gamma.gens[0][0]
    acc = KElem.zero(gamma.p)
    power = x
    for e in range(a.degree + 1):
        c = a.coeff(e)
        if c:
            acc = acc + KElem.from_rpoly(RPoly.from_coeffs(gamma.p, [c])) * power
        power = tp_eval(gamma.phi.phi_t, power)
    return acc


class TestEmbedCache:
    """Embedded families live in the module lineage's memo, inside the
    filtration of each family and place."""

    def test_memoised_family_equals_the_unmemoised_oracle(self):
        gam = carlitz_theta()
        v = place_parse(3, "finite:theta+1")
        for n, d in itertools.product(range(1, 11), range(7)):
            first = adelic._filtration(gam, v, n, d)
            assert adelic._filtration(gam, v, n, d) is first
            assert first.points == embedded_family_unmemoised(gam, v, n, d)
        assert {key[0] for key in gam._memo} == {"filtration"}

    def test_lineage_shares_and_a_fresh_module_builds_its_own(self):
        gam = carlitz_theta()
        v = place_parse(3, "finite:theta+1")
        first = adelic._filtration(gam, v, 5, 3)
        assert adelic._filtration(gam.sub(gam.gens), v, 5, 3) is first
        fresh = adelic._filtration(carlitz_theta(), v, 5, 3)
        assert fresh is not first and fresh.points == first.points


class TestFiltrationKeySet:
    """The echelons of one filtration share one key set, and each answers
    as an echelon of its own levels' columns with its own key set."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_shared_keys_answer_as_own_keys(self, p):
        gam = carlitz_theta(p)
        filtration = adelic._filtration(gam, place_parse(p, "finite:theta+1"),
                                        6, 3)
        echelons = [filtration.echelon(n) for n in range(6)]
        assert {id(e.support) for e in echelons} == {id(filtration.keys)}
        keys = sorted(filtration.keys) + [(0, "absent"), (5, "absent")]
        rng = random.Random(p)
        for n, echelon in enumerate(echelons):
            own = Echelon([{key: c for key, c in col.items() if key[0] < n}
                           for col in filtration.columns], p)
            assert own.support <= filtration.keys
            targets = [{key: c for key, c in col.items() if key[0] < n}
                       for col in filtration.columns]
            targets += [{key: rng.randrange(1, p)
                         for key in rng.sample(keys, rng.randrange(1, 4))}
                        for _ in range(40)]
            for target in targets:
                assert echelon.solve(target) == own.solve(target)


class TestMemoisedEqualsFresh:
    """One lineage answers every certificate and closure check from its
    memo as a module that memoises nothing does, and the closure reports
    as the elimination that clears each target with its own denominators;
    a fresh equal module builds its own filtration."""

    TARGETS = ["theta", "t*theta+theta^2", "theta+1", "theta/(t+1)",
               "(theta^2+theta)/t", "1"]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_memoised_answers_equal_fresh_ones(self, p):
        gam = carlitz_theta(p)
        tracked = [place_parse(p, text) for text in
                   ("finite:theta", "finite:theta+1", "finite:theta+t")]
        targets = [(k(p, text),) for text in self.TARGETS]
        targets.append((tp_eval(gam.phi.phi_t, KElem.theta(p)),))
        for n, d in itertools.product((0, 1, 5, 10), (0, 2, 8)):
            # the certificates read the filtrations first at even
            # precision, the closure checks at odd
            if n % 2:
                checks = [closure_member(gam, y, tracked, n, d)
                          for y in targets]
            certs = [discreteness_certificate(gam, v, d, n) for v in tracked]
            if n % 2 == 0:
                checks = [closure_member(gam, y, tracked, n, d)
                          for y in targets]
            assert [certificate_json(c) for c in certs] == [
                certificate_json(discreteness_certificate(
                    unmemoised_module(gam), v, d, n)) for v in tracked]
            assert [certificate_json(c) for c in checks] == [
                certificate_json(closure_member_unmemoised(
                    gam, y, tracked, n, d)) for y in targets]
        assert {"discreteness", "filtration"} <= {key[0] for key in gam._memo}
        other = carlitz_theta(p)
        assert other == gam
        assert adelic._filtration(other, tracked[0], 5, 2) \
            is not adelic._filtration(gam, tracked[0], 5, 2)


class TestRefusedOffThetaDegreeOne:
    """Each certificate reads completions or residues at every place it is
    given, so it refuses a place of theta-degree > 1 or infinity up front,
    even where a shortcut would need none."""

    @pytest.mark.parametrize("ptext", ["finite:theta^2+t", "infinite"])
    @pytest.mark.parametrize("call", [
        lambda gam, v: closure_member(gam, gam.gens[0], [v]),
        lambda gam, v: closure_torsion_check(gam, [v]),
        lambda gam, v: quotient_iso_check(gam, rpoly_parse(3, "1"), [v]),
    ], ids=["closure_member", "closure_torsion_check", "quotient_iso_check"])
    def test_refused(self, call, ptext):
        with pytest.raises(ValueError, match="theta-degree 1"):
            call(carlitz_theta(), place_parse(3, ptext))


class TestEmptyPlaceList:
    """An empty place list certifies nothing, so each entry point that takes
    one refuses it before any scan."""

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("scanned before refusing the place list")
        for name in ("member", "torsion_submodule", "quotient", "_filtration"):
            monkeypatch.setattr(adelic, name, refuse)

    @pytest.mark.parametrize("call", [
        lambda gam: closure_member(gam, gam.gens[0], ()),
        lambda gam: closure_torsion_check(gam, ()),
        lambda gam: quotient_iso_check(gam, rpoly_parse(3, "t"), ()),
    ], ids=["closure_member", "closure_torsion_check", "quotient_iso_check"])
    def test_refused(self, call, no_scan):
        with pytest.raises(ValueError, match="empty place list"):
            call(special_theta())


class TestDiscreteness:
    def test_principal_at_linear_place(self):
        gam = carlitz_theta()
        cert = discreteness_certificate(gam, place_parse(3, "finite:theta"))
        assert [[str(a) for a in row] for row in cert.i_generators] == [["1"]]
        assert cert.ideal_checked
        assert cert.min_positive_valuation == Fraction(1)
        assert [str(a) for a in cert.witness] == ["1"]
        assert cert.attained_valuations == (Fraction(1),)
        assert cert.notes == ()

    def test_zero_ideal_at_torsion_orbit_place(self):
        # theta = -t there, so every Phi_a(theta) is a unit or zero exactly
        gam = carlitz_theta()
        cert = discreteness_certificate(gam, place_parse(3, "finite:theta+t"))
        assert cert.i_generators == ()
        assert cert.min_positive_valuation is None
        assert cert.witness is None
        assert cert.attained_valuations == (Fraction(0),)
        assert cert.notes == ("zero-ideal",)
        assert cert.ideal_checked

    @pytest.mark.parametrize("index", range(STANDARD_PLACE_COUNT))
    def test_cutoff_zero_claims_no_ideal(self, index):
        # cutoff 0 reads no digit, so it knows nothing of the ideal; at
        # cutoff 2 finite:theta, the first place, has two generators
        p = 3
        theta, zero = KElem.theta(p), KElem.zero(p)
        gam = PhiModule(DrinfeldModule.parse(p, "[t, 1]"), 2,
                        [(theta, zero), (zero, theta)])
        v = standard_tracked_places(gam)[index]
        cert = discreteness_certificate(gam, v, 8, 0)
        assert cert.notes == ("cutoff-reached",)
        assert (cert.i_generators, cert.attained_valuations) == ((), ())
        assert cert.min_positive_valuation is None
        if index == 0:
            assert place_to_str(v) == "finite:theta"
            assert len(discreteness_certificate(gam, v, 8, 2).i_generators) \
                == 2

    def test_non_unit_generators(self):
        gam = drinfeld_one()
        for ptext, gen in (("finite:theta+t+1", "t"),
                           ("finite:theta+t", "t+2"),
                           ("finite:theta+t+2", "t+1")):
            cert = discreteness_certificate(gam, place_parse(3, ptext))
            assert [[str(a) for a in row] for row in cert.i_generators] == [[gen]]
            assert cert.min_positive_valuation == Fraction(1)
            assert [str(a) for a in cert.witness] == [gen]
            assert cert.attained_valuations == (Fraction(0), Fraction(1))
            assert cert.ideal_checked

    def test_min_is_the_generator_value(self):
        for gam, ptext in ((carlitz_theta(), "finite:theta"),
                           (drinfeld_one(), "finite:theta+t+1"),
                           (drinfeld_one(), "finite:theta+t"),
                           (drinfeld_one(), "finite:theta+t+2")):
            v = place_parse(3, ptext)
            cert = discreteness_certificate(gam, v)
            gen = str(cert.i_generators[0][0])
            assert cert.min_positive_valuation == valuation(op_value(gam, gen), v)

    def test_ideal_multiples_stay_in_ball(self):
        rng = random.Random(61)
        gam = drinfeld_one()
        v = place_parse(3, "finite:theta+t+1")
        c1 = rpoly_parse(3, "t")
        base = valuation(op_value(gam, c1), v)
        for btext in ("1", "t", "t+1", "t^2+2*t", "2*t^3+1", "t^2+t+2"):
            assert valuation(op_value(gam, rpoly_parse(3, btext) * c1), v) == base
        for _ in range(6):
            coeffs = [rng.randrange(3) for _ in range(4)]
            coeffs[rng.randrange(4)] = 1 + rng.randrange(2)
            b = RPoly.from_coeffs(3, coeffs)
            assert valuation(op_value(gam, b * c1), v) >= base

    def test_rank_two_diagonal(self):
        p = 3
        phi = DrinfeldModule.parse(p, "[t, theta, 1]")
        one = KElem.one(p)
        zero = KElem.zero(p)
        gam = PhiModule(phi, 2, [(one, zero), (zero, one)])
        cert = discreteness_certificate(gam, place_parse(p, "finite:theta+t+1"),
                                        deg_bound=4)
        assert [[str(a) for a in row] for row in cert.i_generators] == \
            [["t", "0"], ["0", "t"]]
        assert cert.min_positive_valuation == Fraction(1)
        assert [str(a) for a in cert.witness] == ["t", "0"]
        assert cert.ideal_checked

    @pytest.mark.parametrize("ptext", ["finite:theta^2+t", "infinite"])
    def test_refused_off_theta_degree_one(self, ptext):
        # completions exist only at the places theta + g(t); the empty
        # module, which needs none, is refused too
        p = 3
        phi = DrinfeldModule.parse(p, "[t, 1]")
        for gam in (PhiModule(phi, 1, [(KElem.one(p) / KElem.theta(p),)]),
                    PhiModule(phi, 1, [])):
            with pytest.raises(ValueError, match="theta-degree 1"):
                discreteness_certificate(gam, place_parse(p, ptext),
                                         deg_bound=4, cutoff=6)

    def test_excluded_place_rejected(self):
        gam = special_theta()
        with pytest.raises(ValueError):
            discreteness_certificate(gam, place_parse(3, "finite:theta"))

    def test_json_fields(self):
        gam = drinfeld_one()
        cert = discreteness_certificate(gam, place_parse(3, "finite:theta+t+1"))
        d = json.loads(certificate_json(cert))
        assert d["kind"] == "discreteness-certificate"
        assert d["place"] == "finite:theta+t+1"
        assert d["i_generators"] == [["t"]]
        assert d["min_positive_valuation"] == "1"
        assert d["attained_valuations"] == ["0", "1"]


# (p, phi_t, generators, place, deg_bound, cutoff): valuations from 0 to
# 16, witnesses at valuations 1 and 2, and strata cut off at the cutoff
_BRUTE_FORCE_CASES = [
    (2, "[t, 1]", ["theta^2"], "finite:theta", 2, 5),
    (2, "[t, theta, 1]", ["1", "theta+t"], "finite:theta+t", 2, 3),
    (2, "[t, 1]", ["theta^2+t^2", "theta^3+t*theta^2+t^2*theta+t^3"],
     "finite:theta+t", 2, 4),
    (2, "[0, theta+1, 1]", ["theta^2+theta", "theta^3"], "finite:theta", 1, 5),
    (2, "[0, theta+1, 1]", ["theta^2", "theta^4"], "finite:theta", 2, 3),
    (3, "[t, 1]", ["theta^2+2*t*theta+t^2"], "finite:theta+t", 2, 4),
    (3, "[t, 1]", ["theta^2", "theta^3"], "finite:theta", 1, 4),
    (3, "[t, theta, 1]", ["1", "theta+t+1"], "finite:theta+t+1", 2, 3),
    (3, "[0, theta, 1]", ["theta+1", "theta^2+2*theta+1"], "finite:theta+1",
     1, 4),
    (3, "[0, theta, 1]", ["theta^2+2*t*theta+t^2"], "finite:theta+2*t", 2, 2),
]


class TestDiscretenessBruteForce:
    """The valuation strata against every bounded module element: each
    weight vector is evaluated exactly and its valuation read off."""

    @pytest.mark.parametrize("p, text, gens, ptext, deg_bound, cutoff",
                             _BRUTE_FORCE_CASES)
    def test_strata_match_enumeration(self, p, text, gens, ptext, deg_bound,
                                      cutoff):
        phi = DrinfeldModule.parse(p, text)
        gamma = PhiModule(phi, 1, [(k(p, g),) for g in gens])
        v = place_parse(p, ptext)
        cert = discreteness_certificate(gamma, v, deg_bound, cutoff)
        values = set()
        for w in itertools.product(range(p), repeat=gamma.rank * (deg_bound + 1)):
            ops = _weights_to_operators(w, gamma.rank, deg_bound, p)
            val = _point_valuation(_apply_operators(gamma, ops), v)
            if val is not None and val < cutoff:
                values.add(val)
        assert cert.attained_valuations == tuple(
            Fraction(m) for m in sorted(values))
        positive = [m for m in values if m > 0]
        if not positive:
            assert cert.min_positive_valuation is None and cert.witness is None
            return
        assert cert.min_positive_valuation == min(positive)
        witness = _apply_operators(gamma, cert.witness)
        assert _point_valuation(witness, v) == min(positive)


def _theta4_module():
    """Phi_t = t + tau at p = 2 on one generator of theta-degree 4, whose
    iterates' numerators factor past the recombination pool."""
    p = 2
    phi = DrinfeldModule.parse(p, "[t, 1]")
    gen = kelem_parse(p, "t*theta^4+(t^2+1)*theta^3+(t^3+t)*theta^2"
                         "+(t^4+t^2)*theta+t^3")
    return PhiModule(phi, 1, [(gen,)])


class TestClosureMember:
    def test_default_tracked_places(self):
        gam = special_theta()
        got = [place_to_str(v) for v in standard_tracked_places(gam)]
        assert got == ["finite:theta+1", "finite:theta+2", "finite:theta+t"]

    @pytest.mark.parametrize("count", [0, -1])
    def test_place_count_below_one_refused_before_the_scan(
            self, count, monkeypatch):
        # hilbertian_places never ends, so a scan for no place would not
        # return; the count is refused before the scan starts
        def no_scan(p):
            raise AssertionError("place scan started")

        monkeypatch.setattr(adelic, "hilbertian_places", no_scan)
        with pytest.raises(ValueError, match="place count must be positive"):
            standard_tracked_places(special_theta(), count)

    def test_exact_member_short_circuits(self):
        gam = special_theta()
        y = (tp_eval(gam.phi.phi_t, KElem.theta(3)),)
        rep = closure_member(gam, y, standard_tracked_places(gam))
        assert rep.kind == "in_gamma"
        assert rep.in_gamma
        assert rep.conclusive
        assert str(rep.certificate) == "Certificate(t)"
        assert rep.place_reports == ()

    def test_member_before_default_places(self):
        """With the default places, the exact membership check runs first:
        y = Phi_{t^2}(gen) lies in Gamma.  The default places for y are read
        from valuations, with no factoring of y's coordinate.  Explicit
        places are still refused first."""
        p = 2
        gam = _theta4_module()
        (gen,) = gam.gens[0]
        y = (tp_eval(gam.phi.phi_t, tp_eval(gam.phi.phi_t, gen)),)
        assert [place_to_str(v) for v in standard_tracked_places(
            gam, extra_points=(y,))] == [
                "finite:theta", "finite:theta+1", "finite:theta+t"]
        rep = closure_member(gam, y, None, 3, 2)
        assert rep.in_gamma
        assert str(rep.certificate) == "Certificate(t^2)"
        with pytest.raises(ValueError, match="theta-degree 1"):
            closure_member(gam, y, [place_parse(p, "finite:theta^2+theta+1")],
                           3, 2)

    def test_blocked_rejection(self):
        gam = special_theta()
        y = (KElem.theta(3) + KElem.one(3),)
        rep = closure_member(gam, y, standard_tracked_places(gam))
        assert rep.kind == "rejected_up_to_bounds"
        assert not rep.in_gamma
        assert rep.conclusive
        assert rep.notes == ("blocked-at-place",)
        table = [(place_to_str(r.place), r.best_valuation, r.reached_cutoff,
                  r.close_dim) for r in rep.place_reports]
        assert table == [("finite:theta+1", 10, True, 5),
                         ("finite:theta+2", 10, True, 5),
                         ("finite:theta+t", 0, False, None)]

    def test_close_places_carry_sample_operators(self):
        gam = special_theta()
        y = (KElem.theta(3) + KElem.one(3),)
        rep = closure_member(gam, y, standard_tracked_places(gam))
        close = rep.place_reports[0]
        assert close.sample_operators is not None
        assert len(close.sample_operators) == gam.rank

    def test_non_integral_target_rejected(self):
        gam = special_theta()
        y = (KElem.one(3) / (KElem.theta(3) + KElem.one(3)),)
        with pytest.raises(ValueError):
            closure_member(gam, y, standard_tracked_places(gam))

    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_zero_module(self, p):
        # with no weights a target digit is in the span only when it is
        # zero, so the best valuation is the target's own
        gam = PhiModule(DrinfeldModule.parse(p, "[t, 1]"), 1, [])
        v = place_parse(p, "finite:theta+1")
        got = []
        for text in ("theta", "theta+1", "(theta+1)^2/t", "(theta+1)^4"):
            y = (k(p, text),)
            rep = closure_member(gam, y, [v], 4, 2)
            assert certificate_json(rep) == certificate_json(
                closure_member_unmemoised(gam, y, [v], 4, 2))
            got.append((rep.notes, [r.best_valuation
                                    for r in rep.place_reports]))
        assert got == [(("blocked-at-place",), [0]),
                       (("blocked-at-place",), [1]),
                       (("blocked-at-place",), [2]),
                       (("approximant-within-precision",), [4])]

    # a generator and a coefficient of phi_t with a pole at theta
    POLES = [("[t, 1]", "theta+1/theta", "theta"), ("[t, 1/theta]", "1", "t")]

    @staticmethod
    def pole_instance(phi_text, gen, y):
        phi = DrinfeldModule.parse(3, phi_text)
        return PhiModule(phi, 1, [(kelem_parse(3, gen),)]), (kelem_parse(3, y),)

    @pytest.mark.parametrize("phi_text, gen, y", POLES)
    def test_pole_of_the_module_at_an_explicit_place_refused(
            self, phi_text, gen, y):
        # the iterates' digits below level 0 would be dropped, and the
        # report would read approximant-within-precision at theta
        gam, y = self.pole_instance(phi_text, gen, y)
        with pytest.raises(ValueError,
                           match="module not integral at finite:theta"):
            closure_member(gam, y, [place_parse(3, "finite:theta")],
                           precision=6, deg_bound=2)

    def test_pole_of_phi_unread_at_degree_bound_zero(self):
        # at deg_bound 0 phi_t is never applied and the family is <1>
        gam, y = self.pole_instance(*self.POLES[1])
        rep = closure_member(gam, y, [place_parse(3, "finite:theta")],
                             precision=6, deg_bound=0)
        assert [r.best_valuation for r in rep.place_reports] == [0]
        assert rep.notes == ("blocked-at-place",)

    @pytest.mark.parametrize("phi_text, gen, y", POLES)
    def test_default_places_unchanged(self, phi_text, gen, y):
        gam, y = self.pole_instance(phi_text, gen, y)
        rep = closure_member(gam, y, precision=6, deg_bound=2)
        assert [(place_to_str(r.place), r.best_valuation)
                for r in rep.place_reports] == [
            ("finite:theta+1", 1), ("finite:theta+2", 1),
            ("finite:theta+t", 0)]
        assert rep.notes == ("blocked-at-place",)


def _random_kelem(rng, p):
    """A seeded element of K whose denominator is a product of up to two
    small polynomials, some of them places of the scan."""
    def poly(theta_deg, t_deg):
        out = KElem.zero(p)
        for e in range(theta_deg + 1):
            c = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(t_deg + 1)])
            out = out + KElem.from_rpoly(c) * KElem.theta(p) ** e
        return out
    num = poly(rng.randrange(3), rng.randrange(3))
    den = KElem.one(p)
    for _ in range(rng.randrange(3)):
        d = poly(rng.randrange(1, 3), rng.randrange(2))
        if not d.is_zero():
            den = den * d
    return num / den


class TestGoodPlace:
    """adelic._good_place reads good reduction and integrality from the
    valuations at the place; no polynomial is factored."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_the_factoring_oracle(self, p):
        rng = random.Random(70 + p)
        scan = list(itertools.islice(hilbertian_places(p), 12))
        outcomes = set()
        for _ in range(12):
            # the differential is t or 0, so in special characteristic the
            # first nonzero coefficient is a random one
            coeffs = [rng.choice([KElem.t(p), KElem.zero(p)])] \
                + [_random_kelem(rng, p) for _ in range(rng.randrange(1, 3))]
            if coeffs[-1].is_zero():
                coeffs[-1] = KElem.one(p)
            phi = DrinfeldModule(TwistedPoly(p, tuple(coeffs)))
            gens = [(_random_kelem(rng, p),) for _ in range(rng.randrange(3))]
            extra = [(_random_kelem(rng, p),) for _ in range(rng.randrange(2))]
            gam = PhiModule(phi, 1, gens)
            try:
                _omega0, omega1 = classify_places(
                    phi.phi_t.coeffs, [x[0] for x in gam.gens + tuple(extra)])
            except ValueError:
                continue
            for v in scan:
                good = adelic._good_place(gam, v, extra)
                assert good == (v not in omega1)
                outcomes.add(good)
        assert outcomes == {True, False}

    def test_default_places_for_unfactorable_targets(self):
        """Default places for targets that factoring refused: Phi_{t^2}(gen)
        + 1 has an irreducible factor of theta-degree 16, past the place
        cap, and theta (theta + t)^4 a recombination pool past its cap."""
        p = 2
        gam = _theta4_module()
        (gen,) = gam.gens[0]
        targets = [
            (tp_eval(phi_action(gam.phi, rpoly_parse(p, "t^2")), gen)
             + KElem.one(p),),
            (kelem_parse(p, "theta*(theta+t)^4"),),
        ]
        tables = []
        for y in targets:
            rep = closure_member(gam, y, None, 3, 2)
            assert rep.kind == "rejected_up_to_bounds"
            tables.append([(place_to_str(r.place), r.best_valuation)
                           for r in rep.place_reports])
        assert tables == [
            [("finite:theta", 0), ("finite:theta+1", 0), ("finite:theta+t", 0)],
            [("finite:theta", 1), ("finite:theta+1", 2), ("finite:theta+t", 3)]]

    def test_place_scan_factors_nothing(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("factored while picking places")
        monkeypatch.setattr(places, "factor_bipoly", refuse)
        gam = _theta4_module()
        y = (kelem_parse(2, "theta*(theta+t)^4"),)
        assert len(standard_tracked_places(gam, 5, (y,))) == 5


class TestHilbertianPlaces:
    @pytest.mark.parametrize("p, want", [
        (3, ["finite:theta", "finite:theta+1", "finite:theta+2",
             "finite:theta+t", "finite:theta+t+1", "finite:theta+t+2"]),
        (2, ["finite:theta", "finite:theta+1", "finite:theta+t",
             "finite:theta+t+1"]),
    ], ids=["p3", "p2"])
    def test_hilbertian_scan_order(self, p, want):
        it = hilbertian_places(p)
        assert [place_to_str(next(it)) for _ in want] == want

class TestClosureTorsion:
    def test_torsion_free_module(self):
        gam = special_theta()
        rep = closure_torsion_check(gam, standard_tracked_places(gam, 5))
        assert rep.kind == "confirmed"
        assert [point_to_str(x) for x in rep.torsion_points] == ["(0)"]
        assert [point_to_str(x) for x in rep.pseudo_torsion_points] == ["(0)"]
        assert rep.pseudo_torsion_dim == 0
        assert rep.free_rank == 1
        assert rep.leak is None
        assert rep.notes == ()
        assert len(rep.witness_places) == 5

    def test_pure_torsion_module(self):
        # t kills theta for this twist, so the closure torsion is all of
        # the module and the pseudo-torsion enumeration collapses onto it
        p = 3
        phi = DrinfeldModule.parse(p, "[t, (2*t)/(theta^2)]")
        gam = PhiModule(phi, 1, [(KElem.theta(p),)])
        rep = closure_torsion_check(gam, standard_tracked_places(gam, 3),
                                    deg_bound=4)
        assert rep.kind == "confirmed"
        want = ["(0)", "(2*theta)", "(theta)"]
        assert sorted(point_to_str(x) for x in rep.torsion_points) == want
        assert sorted(point_to_str(x) for x in rep.pseudo_torsion_points) == want
        assert rep.free_rank == 0
        assert rep.leak is None


    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("p, deg_bound", [(2, 4), (3, 2)])
    def test_points_match_operator_enumeration(self, p, deg_bound, seed):
        gamma = _torsion_and_free(p, seed)
        want = _operator_torsion(gamma, deg_bound)
        assert len(want) == p ** 2
        assert sorted(point_to_str(x)
                      for x in torsion_submodule(gamma, deg_bound)) == want
        rep = closure_torsion_check(gamma, standard_tracked_places(gamma, 3),
                                    deg_bound=deg_bound)
        assert rep.kind == "confirmed"
        assert sorted(point_to_str(x)
                      for x in rep.pseudo_torsion_points) == want

    @pytest.mark.parametrize("p, deg_bound", [(2, 4), (3, 2)])
    @pytest.mark.parametrize("known", ["exact", "zero", "one-more"])
    def test_rank_decides_as_the_listed_points(self, p, deg_bound, known,
                                               monkeypatch):
        # with no points listed, the kind and the notes other than the
        # listing cap's are those of comparing the listed points; a known
        # torsion of 0 alone fails the inclusion, one with the free
        # generator added fails the count
        gamma = _torsion_and_free(p, 0)
        tracked = standard_tracked_places(gamma, 3)
        exact = torsion_submodule
        monkeypatch.setattr(adelic, "torsion_submodule", {
            "exact": exact,
            "zero": lambda gam, _bound: (gam.zero_point(),),
            "one-more": lambda gam, bound: exact(gam, bound) + gam.gens[-1:],
        }[known])
        listed = closure_torsion_check(gamma, tracked, deg_bound)
        monkeypatch.setattr(adelic, "_PSEUDO_ENUM_CAP", 0)
        ranked = closure_torsion_check(gamma, tracked, deg_bound)
        assert listed.kind == ranked.kind == \
            ("confirmed" if known == "exact" else "mismatch")
        assert ranked.notes == \
            listed.notes + ("pseudo-torsion-enumeration-capped",)
        assert ranked.pseudo_torsion_points is None


# p -> (phi_t, torsion generators); (t + 1) theta / t is (t + 1)-torsion at
# p = 2, so there the torsion is cyclic with annihilator t(t + 1)
_TORSION = {2: ("[t, t/theta]", [("theta", "(t+1)*theta/t")]),
            3: ("[t, (2*t)/(theta^2)]", [("theta", "0"), ("0", "theta")])}


def _torsion_and_free(p, seed):
    """The torsion generators of _TORSION[p] and a seeded theta-polynomial
    point."""
    rng = random.Random(seed)
    text, torsion = _TORSION[p]
    free = tuple(sum((KElem.const(p, rng.randrange(p)) * KElem.theta(p) ** j
                      for j in range(3)), KElem.one(p)) for _ in range(2))
    return PhiModule(DrinfeldModule.parse(p, text), 2,
                     [tuple(k(p, s) for s in x) for x in torsion] + [free])


def _operator_torsion(gamma, deg_bound):
    """sum Phi_{c_i}(x_i) over the torsion invariant factors d_i of the
    presentation, for every tuple of residues c_i mod d_i, one operator at
    a time."""
    p = gamma.p
    snf = smith_normal_form(gamma.presentation(deg_bound))
    torsion = [(d, _apply_operators(gamma, tuple(snf.vinv.rows[i])))
               for i, d in enumerate(snf.invariant_factors)
               if not d.is_zero() and d.degree >= 1]
    residues = [[RPoly.from_coeffs(p, digits)
                 for digits in itertools.product(range(p), repeat=d.degree)]
                for d, _ in torsion]
    points = set()
    for rho in itertools.product(*residues):
        acc = gamma.zero_point()
        for c, (_, x) in zip(rho, torsion):
            acc = point_add(acc, _op_on_point(gamma.phi, c, x))
        points.add(point_to_str(acc))
    return sorted(points)


_FREE_RANK_OPS = {
    2: ["[t, t/theta]", "[0, 1]", "[0, theta]", "[0, theta+t]", "[t, 1]",
        "[0, t]", "[t, theta]"],
    3: ["[t, (2*t)/(theta^2)]", "[0, 1]", "[0, theta]", "[0, theta+t]",
        "[t, 1]", "[0, t]", "[0, theta+1]"]}
_FREE_RANK_POINTS = ["1", "theta", "theta+1", "t", "theta+t", "t*theta",
                     "theta^2"]


def _free_rank_instance(seed):
    """A seeded module of rank <= 2 in K^1 at p = 2 or 3; the operators
    include t-torsion twists and ones whose reductions at theta + c have
    coefficients in F_p, where points of F_p reduce to torsion."""
    rng = random.Random(seed)
    p = rng.choice([2, 3])
    phi = DrinfeldModule.parse(p, rng.choice(_FREE_RANK_OPS[p]))
    return PhiModule(phi, 1, [(k(p, rng.choice(_FREE_RANK_POINTS)),)
                              for _ in range(rng.randint(1, 2))])


class TestFreeRankBruteForce:
    """free_rank, the R-corank of the pseudo-torsion kernel, against every
    bounded operator tuple whose element reduces to torsion at each
    witness place, tested one residue at a time.  Two places let more
    elements leak: at seeds 5 and 11 a leaked element is no Smith
    generator of the module, and the free rank must not count it."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration(self, seed):
        gamma = _free_rank_instance(seed)
        tracked = standard_tracked_places(gamma, 2)
        rep = closure_torsion_check(gamma, tracked, 2)
        assert rep.free_rank == brute_force_free_rank(gamma, tracked, 2, 3)


class TestQuotientIso:
    def test_image_family_built_once(self, monkeypatch):
        # one membership solve classifies the whole sample against every
        # representative
        gam = special_theta()
        a = rpoly_parse(3, "t")
        image_gens = tuple(_op_on_point(gam.phi, a, x) for x in gam.gens)
        built = []
        build = phimodule._iterate_family

        def counting(gamma, deg_bound):
            built.append(gamma.gens)
            return build(gamma, deg_bound)

        monkeypatch.setattr(phimodule, "_iterate_family", counting)
        monkeypatch.setattr(adelic, "_iterate_family", counting)
        rep = quotient_iso_check(gam, a)
        assert (rep.classified_samples, rep.unclassified_samples) == (9, 0)
        assert built.count(image_gens) == 1

    def test_t_quotient_separated(self):
        gam = special_theta()
        rep = quotient_iso_check(gam, rpoly_parse(3, "t"))
        assert rep.kind == "confirmed"
        assert rep.order == 3
        assert len(rep.separations) == 3
        for sep in rep.separations:
            assert place_to_str(sep.place) == "finite:theta+1"
            assert sep.coordinate == 0
            assert sep.delta_valuation == 0
            assert sep.detail == "certified-residue-obstruction"
        assert rep.unresolved == ()
        assert rep.classified_samples == 9
        assert rep.unclassified_samples == 0

    def test_trivial_quotient(self):
        gam = special_theta()
        rep = quotient_iso_check(gam, rpoly_parse(3, "1"))
        assert rep.kind == "confirmed"
        assert rep.order == 1
        assert rep.notes == ("trivial-quotient",)

    def test_zero_operator_rejected(self):
        gam = special_theta()
        with pytest.raises(ValueError):
            quotient_iso_check(gam, rpoly_parse(3, "0"))

    def test_one_residue_verdict_per_class(self, monkeypatch):
        # the paper's hull at t^4: 81 classes and 3240 pairs, which took
        # 5346 residue verdicts when each pair was decided on its own
        calls = []
        solve = adelic.hensel_solve

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(adelic, "hensel_solve", counting)
        rep = quotient_iso_check(paper_hull_gens(), rpoly_parse(3, "t^4"))
        assert (rep.kind, rep.order, len(rep.separations)) == \
            ("confirmed", 81, 3240)
        assert len(calls) <= 80 * len(rep.witness_places)

    def test_pole_of_a_generator_at_an_explicit_place_refused(
            self, monkeypatch):
        # Phi_a(O_v) holds Phi_a(Gamma) only where the generators are
        # v-integral, so the per-class verdict needs them integral
        def refuse(*_args, **_kwargs):
            raise AssertionError("scanned before refusing the place")
        monkeypatch.setattr(adelic, "quotient", refuse)
        gam = PhiModule(DrinfeldModule.parse(3, "[t, 1]"), 1,
                        [(k(3, "theta"),), (k(3, "1/theta"),)])
        with pytest.raises(ValueError,
                           match="point not integral at finite:theta$"):
            quotient_iso_check(gam, rpoly_parse(3, "t"), [
                place_parse(3, "finite:theta+1"),
                place_parse(3, "finite:theta")])

    def test_omitted_representatives_noted(self):
        # 3^9 cosets at t^9 pass _REP_ENUM_CAP
        rep = quotient_iso_check(paper_hull_gens(), rpoly_parse(3, "t^9"))
        assert (rep.kind, rep.order) == ("not_separated", 3 ** 9)
        assert rep.notes == ("quotient-representatives-omitted",
                             "sample-unclassified")


def _iso_grid():
    """(p, module, a, place count): at p in {2, 3, 5}, per module and
    degree 1 or 2 with at most 25 cosets, one seeded a and either the
    three standard places or the first alone, which leaves pairs
    unresolved."""
    cases = []
    for p in (2, 3, 5):
        theta, one, zero = KElem.theta(p), KElem.one(p), KElem.zero(p)
        special = DrinfeldModule.parse(p, "[0, theta, 1]")
        car = DrinfeldModule.parse(p, "[t, 1]")
        modules = [(PhiModule(special, 1, [(theta,)]), 1),
                   (PhiModule(car, 1, [(theta,)]), 1),
                   (PhiModule(special, 1, [(theta,), (one,)]), 1),
                   (PhiModule(car, 2, [(theta, zero), (zero, theta)]), 2)]
        if p == 3:
            modules.append((paper_hull_gens(), 1))
        for idx, (gam, rank) in enumerate(modules):
            for d in (1, 2):
                if p ** (rank * d) > 25:
                    continue
                rng = random.Random(100 * p + 10 * idx + d)
                a = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(d)]
                                      + [rng.randrange(1, p)])
                cases.append((p, gam, a, rng.choice((1, 3))))
    return cases


class TestQuotientIsoPerPair:
    """One residue verdict per class reports as deciding every pair of
    representatives on its own difference."""

    def test_equals_the_per_pair_loop(self):
        resolved = unresolved = 0
        for p, gam, a, count in _iso_grid():
            rep = quotient_iso_check(gam, a,
                                     standard_tracked_places(gam, 3)[:count])
            seps, unres = pairwise_separations(
                gam, a, quotient(gam, a, adelic.STANDARD_DEG_BOUND).reps,
                rep.witness_places)
            kind = "not_separated" if unres or rep.unclassified_samples \
                else "confirmed"
            assert rep.to_json_dict() == dataclasses.replace(
                rep, kind=kind, separations=seps,
                unresolved=unres).to_json_dict()
            resolved += len(seps)
            unresolved += len(unres)
        assert resolved and unresolved
