import itertools
import random

import pytest

from drinfeldlab import places
from drinfeldlab.adelic import _good_place, hilbertian_places
from drinfeldlab.base import FElem, RPoly
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.kfield import KElem, kelem_parse
from drinfeldlab.phimodule import PhiModule, _family_vectors
from drinfeldlab.localfield import embed
from drinfeldlab.places import (
    _RING_CAP,
    Place,
    TruncRing,
    _bipoly_multiplicity,
    place_parse,
    place_to_str,
    residue_reduce,
    unit_digits,
    valuation,
)
from drinfeldlab.twisted import TwistedPoly, tp_eval

from helpers import digits_by_division, theta_power_by_squaring, uniformizer


def k(p, text):
    return kelem_parse(p, text)


def fv_tp_eval(coeffs_bar, x: FElem) -> FElem:
    """sum c_i x^{p^i} for residue coefficients c_i, lowest tau-power
    first: the residue equations' oracle, computed in F_p(t) alone."""
    acc = FElem.zero(x.p)
    for i, c in enumerate(coeffs_bar):
        if not c.is_zero():
            acc = acc + c * x.frob(i)
    return acc


class TestPlace:
    def test_parse_print_roundtrip(self):
        p = 3
        for text in ("finite:theta", "finite:theta+t", "finite:theta^2+t", "infinite"):
            v = place_parse(p, text)
            assert place_to_str(v) == text
            assert place_parse(p, place_to_str(v)) == v

    def test_theta_degree(self):
        p = 3
        assert place_parse(p, "finite:theta+t").theta_degree == 1
        assert place_parse(p, "finite:theta^2+t").theta_degree == 2
        assert Place.infinite(p).theta_degree == 1

    def test_reducible_rejected(self):
        p = 3
        with pytest.raises(ValueError):
            place_parse(p, "finite:theta^2+2*t^2")  # (theta+t)(theta+2t)

    def test_theta_free_rejected(self):
        with pytest.raises(ValueError):
            place_parse(3, "finite:t+1")

    def test_denominator_cleared(self):
        # theta + 1/t names the same place as t*theta + 1
        p = 3
        v = place_parse(p, "finite:(t*theta+1)/(t)")
        w = place_parse(p, "finite:t*theta+1")
        assert v == w

    def test_uniformizer(self):
        p = 3
        v = place_parse(p, "finite:theta+t")
        assert valuation(uniformizer(v), v) == 1
        vi = Place.infinite(p)
        assert valuation(uniformizer(vi), vi) == 1


class TestValuation:
    def test_frozen_examples(self):
        p = 3
        x = k(p, "theta^2/(theta+t)")
        assert valuation(x, Place.infinite(p)) == -1
        assert valuation(x, place_parse(p, "finite:theta")) == 2
        assert valuation(x, place_parse(p, "finite:theta+t")) == -1
        assert valuation(x, place_parse(p, "finite:theta+1")) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            valuation(KElem.zero(3), Place.infinite(3))

    def test_additive_on_products(self):
        rng = random.Random(57)
        p = 3
        places = [place_parse(p, "finite:theta"),
                  place_parse(p, "finite:theta+t"),
                  place_parse(p, "finite:theta^2+t"),
                  Place.infinite(p)]
        pool = [k(p, "theta"), k(p, "theta+t"), k(p, "theta^2+t"),
                k(p, "t"), k(p, "theta+1"), k(p, "(theta+t)/(theta+2)")]
        for _ in range(20):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            for v in places:
                assert valuation(a * b, v) == valuation(a, v) + valuation(b, v)

    def test_frobenius_dilated(self):
        # p-th-power inputs carry their multiplicity up without ring growth
        p = 3
        v = place_parse(p, "finite:theta+t")
        big = k(p, "theta+t") ** (3 ** 12)
        assert valuation(big, v) == 3 ** 12
        assert valuation(big, place_parse(p, "finite:theta")) == 0
        mono = KElem.theta(p) ** (3 ** 15)
        assert valuation(mono, place_parse(p, "finite:theta")) == 3 ** 15
        assert valuation(mono, v) == 0

    def test_degree_two_place(self):
        p = 3
        v = place_parse(p, "finite:theta^2+t")
        x = k(p, "theta^2+t") ** 2 * k(p, "theta+1") / k(p, "theta+t")
        assert valuation(x, v) == 2

    def test_sparse_power_at_a_non_monomial_place(self):
        # theta^(3^9) is 7 Frobenius steps above theta^9 in the ring
        p = 3
        x = KElem.theta(p) ** (3 ** 9) + KElem.t(p)
        assert valuation(x, place_parse(p, "finite:theta+t^2+1")) == 0
        assert valuation(x - k(p, "t"), place_parse(p, "finite:theta")) == 3 ** 9


class TestTruncRing:
    @pytest.mark.parametrize("place_text, n", [("finite:theta+t^2+1", 4),
                                               ("finite:theta^2+t*theta+t", 3)])
    def test_theta_power_equals_binary_squaring(self, place_text, n):
        # the Frobenius steps start at p * n * deg(pi): 12 and 18 here
        p = 3
        ring = TruncRing(place_parse(p, place_text), n)
        for e in (0, 1, 2, 11, 12, 17, 18, 26, 27, 28, 3 ** 5, 3 ** 5 + 2,
                  2 * 3 ** 5 + 3 ** 3 + 1, 3 ** 6 - 1):
            assert ring.theta_power(e) == theta_power_by_squaring(ring, e), e

    def test_a_place_keeps_its_rings(self, monkeypatch):
        # two valuations at one place build its ring at n = 4 once; an
        # equal new place owns rings of its own
        built = []

        class CountingRing(TruncRing):
            def __init__(self, place, n):
                built.append(n)
                super().__init__(place, n)

        monkeypatch.setattr(places, "TruncRing", CountingRing)
        p = 3
        v = place_parse(p, "finite:theta+t")
        for text in ("theta^2+1", "theta^4+t*theta+1"):
            valuation(k(p, text), v)
        assert built == [4] and set(v._rings) == {4}
        w = place_parse(p, "finite:theta+t")
        assert w == v
        valuation(k(p, "theta^2+1"), w)
        assert built == [4, 4] and w._rings[4] is not v._rings[4]


# theta-degree-one places: c = 0, constant, polynomial, 1/t and t/(t+1)
DIGIT_PLACES = ["finite:theta", "finite:theta+1", "finite:theta+t",
                "finite:theta+t^2+1", "finite:t*theta+1",
                "finite:(t+1)*theta+t"]


class TestUnitDigits:
    @staticmethod
    def samples(p, place_text):
        """Elements with theta-exponents p^j and p^j + small, up to 27 + 2,
        multiplied by powers of pi in the numerator or the denominator;
        counts 1 to 12."""
        rng = random.Random(f"unit-digits/{p}/{place_text}")
        top = 3 if p <= 3 else 2
        v = place_parse(p, place_text)
        pi, theta = uniformizer(v), KElem.theta(p)

        def rnd_coeff():
            return KElem.from_rpoly(
                RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(3)]))

        for count in range(1, 13):
            exps = [rng.randrange(3), p ** rng.randint(1, top),
                    p ** rng.randint(1, top) + rng.randint(1, 2)]
            num = sum((rnd_coeff() * theta ** e for e in exps), KElem.one(p))
            den = rnd_coeff() + theta ** (p ** rng.randint(0, 2))
            x = num * pi ** rng.randrange(3) / (den * pi ** rng.randrange(3))
            yield v, x, count

    @pytest.mark.parametrize("place_text", DIGIT_PLACES)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_digits_equal_exact_division(self, p, place_text):
        for v, x, count in self.samples(p, place_text):
            kn = _bipoly_multiplicity(x.num, v)
            kd = _bipoly_multiplicity(x.den, v)
            num, den = unit_digits(x, v, kn, kd, count)
            assert num == digits_by_division(x.num, v, kn, count), (x, count)
            assert den == digits_by_division(x.den, v, kd, count), (x, count)
            assert not num[0].is_zero() and not den[0].is_zero()

    @pytest.mark.parametrize("place_text", ["finite:theta", "finite:theta+t"])
    def test_refused_past_the_ring_cap(self, place_text):
        # count + max(kn, kd) may reach _RING_CAP and no further
        p = 3
        v = place_parse(p, place_text)
        pi = uniformizer(v)
        for x, kn, kd in ((pi, 1, 0), (pi ** -2, 0, 2)):
            count = _RING_CAP - max(kn, kd)
            num, den = unit_digits(x, v, kn, kd, count)
            assert len(num) == len(den) == count
            with pytest.raises(ValueError, match="beyond desk scale"):
                unit_digits(x, v, kn, kd, count + 1)
        assert embed(pi, v, _RING_CAP).precision == _RING_CAP
        with pytest.raises(ValueError, match="beyond desk scale"):
            embed(pi, v, _RING_CAP + 1)


class TestResidue:
    def test_frozen_reduction(self):
        # theta = -t = 2t in the residue field F_3(t) at theta + t
        p = 3
        v = place_parse(p, "finite:theta+t")
        r = residue_reduce(KElem.theta(p), v)
        assert r == FElem.from_rpoly(RPoly.from_coeffs(p, [0, 2]))
        assert str(r) == "2*t"

    def test_non_monic_place(self):
        # t*theta + 1 is the place theta = -1/t
        p = 3
        v = place_parse(p, "finite:t*theta+1")
        assert str(residue_reduce(k(p, "theta^2+t"), v)) == "(t^3+1)/(t^2)"

    def test_zero_and_positive_valuation(self):
        p = 3
        v = place_parse(p, "finite:theta+t")
        assert residue_reduce(KElem.zero(p), v).is_zero()
        assert residue_reduce(k(p, "theta+t"), v).is_zero()

    def test_non_integral_rejected(self):
        p = 3
        v = place_parse(p, "finite:theta+t")
        with pytest.raises(ValueError):
            residue_reduce(k(p, "1/(theta+t)"), v)

    def test_is_ring_morphism(self):
        rng = random.Random(58)
        p = 3
        for vtext in ("finite:theta+t", "finite:t*theta+1"):
            v = place_parse(p, vtext)
            pool = [k(p, "theta"), k(p, "theta+1"), k(p, "t*theta+2"),
                    k(p, "theta^2+t+1"), k(p, "t")]
            for _ in range(12):
                a = pool[rng.randrange(len(pool))]
                b = pool[rng.randrange(len(pool))]
                assert residue_reduce(a + b, v) == residue_reduce(a, v) + residue_reduce(b, v)
                assert residue_reduce(a * b, v) == residue_reduce(a, v) * residue_reduce(b, v)

    @pytest.mark.parametrize("place", ["finite:theta^2+t", "infinite"])
    def test_refused_off_theta_degree_one(self, place):
        # the residue field there is not F_p(t); even 0 and 1 are refused
        v = place_parse(3, place)
        for x in (KElem.zero(3), KElem.one(3), k(3, "(2*theta+t)/(theta+1)")):
            with pytest.raises(ValueError, match="theta-degree 1"):
                residue_reduce(x, v)

    def test_cancel_common_power(self):
        # both num and den vanish at the place; the ratio is still a unit
        p = 3
        v = place_parse(p, "finite:theta+t")
        x = k(p, "(theta+t)*(theta+1)") / k(p, "(theta+t)*(theta+2)")
        assert valuation(x, v) == 0
        got = residue_reduce(x, v)
        want = residue_reduce(k(p, "theta+1"), v) / residue_reduce(k(p, "theta+2"), v)
        assert got == want


class TestFvCoordinates:
    def test_reconstruction_random(self):
        # residues lifted into K are coordinatised by the K-side family
        # vectors: one slot, one common denominator, each vector the
        # numerator over it
        rng = random.Random(37)
        p = 3

        def rnd_rpoly(nonzero):
            while True:
                f = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(3)])
                if f or not nonzero:
                    return f

        points = [(KElem.from_felem(FElem(rnd_rpoly(False), rnd_rpoly(True))),)
                  for _ in range(4)]
        (den,), vectors = _family_vectors(points)
        assert den.num.theta_degree == 0 and den.den.is_one()
        for vec, (x,) in zip(vectors, points):
            assert all(s == 0 and e == 0 for s, (e, _te) in vec)
            num = RPoly(p, {te: c for (_s, (_e, te)), c in vec.items()})
            assert KElem.from_rpoly(num) / den == x


class TestFvTpEval:
    @staticmethod
    def residues(p, v, rng, count):
        def residue():
            c = KElem.zero(p)
            for i in range(3):
                c = c + KElem.const(p, rng.randrange(p)) \
                    * KElem.t(p) ** rng.randrange(3) * KElem.theta(p) ** i
            return residue_reduce(c, v)
        return [residue() for _ in range(count)]

    @pytest.mark.parametrize("place", ["finite:theta+1", "finite:theta+t"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_term_by_term(self, place, seed):
        p = 3
        v = place_parse(p, place)
        rng = random.Random(seed)
        coeffs = self.residues(p, v, rng, 4)
        coeffs[1] = FElem.zero(p)
        for x in self.residues(p, v, rng, 3):
            want = FElem.zero(p)
            for i, c in enumerate(coeffs):
                want = want + c * x ** (p ** i)
            assert fv_tp_eval(coeffs, x) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_tp_eval_on_lifted_values(self, p, seed):
        # F_p(t) lies in K, so the oracle is tp_eval on the lifted data
        v = place_parse(p, "finite:theta+t")
        rng = random.Random(seed)
        coeffs = self.residues(p, v, rng, 3)
        f = TwistedPoly(p, [KElem.from_felem(c) for c in coeffs])
        for x in self.residues(p, v, rng, 3):
            assert KElem.from_felem(fv_tp_eval(coeffs, x)) \
                == tp_eval(f, KElem.from_felem(x))


class TestClassification:
    """A place is good for a module when phi_t has good reduction and the
    generators are integral there (adelic._good_place)."""

    def module(self, p, phi_t, gens=()):
        return PhiModule(DrinfeldModule.parse(p, phi_t), 1,
                         [(k(p, g),) for g in gens])

    def good(self, gamma, places):
        return [place_to_str(v) for v in places if _good_place(gamma, v)]

    def test_carlitz_no_exclusions(self):
        p = 3
        places = list(itertools.islice(hilbertian_places(p), 12))
        assert len(self.good(self.module(p, "[t, 1]"), places)) == 12

    def test_special_module_exclusions(self):
        # theta*x^3 + x^9: theta is a non-unit lowest coefficient
        p = 3
        gamma = self.module(p, "[0, theta, 1]")
        places = list(itertools.islice(hilbertian_places(p), 6))
        assert self.good(gamma, places) == [
            "finite:theta+1", "finite:theta+2", "finite:theta+t",
            "finite:theta+t+1", "finite:theta+t+2"]

    def test_generator_denominators(self):
        p = 3
        v = place_parse(p, "finite:theta^2+t")
        assert _good_place(self.module(p, "[t, 1]"), v)
        assert not _good_place(
            self.module(p, "[t, 1]", ["theta/(theta^2+t)"]), v)
        assert not _good_place(self.module(p, "[t, 1]"), v,
                               [(k(p, "theta/(theta^2+t)"),)])
        assert _good_place(self.module(p, "[t, 1]", ["theta/(theta^2+t)"]),
                           place_parse(p, "finite:theta+t"))

    def test_non_integral_middle_coefficient(self):
        p = 3
        gamma = self.module(p, "[t, 1/(theta+t), 1]")
        assert not _good_place(gamma, place_parse(p, "finite:theta+t"))
        assert _good_place(gamma, place_parse(p, "finite:theta+t+1"))

    def test_infinite_generator_exclusion(self):
        # theta^2 has its only pole at infinity, which is never tracked, so
        # it excludes no finite place
        p = 3
        gamma = self.module(p, "[t, 1]", ["theta^2"])
        places = list(itertools.islice(hilbertian_places(p), 12))
        assert len(self.good(gamma, places)) == 12
        assert not _good_place(self.module(p, "[t, 1]", ["1/theta^2"]),
                               place_parse(p, "finite:theta"))
