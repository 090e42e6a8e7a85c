import random

import pytest

from drinfeldlab.base import FElem, RPoly
from drinfeldlab.kfield import KElem, kelem_parse
from drinfeldlab.places import (
    FvElem,
    Place,
    check_product_formula,
    classify_places,
    fv_coordinates,
    fv_denominator,
    fv_tp_eval,
    place_parse,
    place_to_str,
    residue_reduce,
    valuation,
)


def k(p, text):
    return kelem_parse(p, text)


class TestPlace:
    def test_parse_print_roundtrip(self):
        p = 3
        for text in ("finite:theta", "finite:theta+t", "finite:theta^2+t", "infinite"):
            v = place_parse(p, text)
            assert place_to_str(v) == text
            assert place_parse(p, place_to_str(v)) == v

    def test_weights(self):
        p = 3
        assert place_parse(p, "finite:theta+t").weight == 1
        assert place_parse(p, "finite:theta^2+t").weight == 2
        assert Place.infinite(p).weight == 1

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
        assert valuation(v.uniformizer(), v) == 1
        vi = Place.infinite(p)
        assert valuation(vi.uniformizer(), vi) == 1


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


class TestResidue:
    def test_frozen_reduction(self):
        # theta = -t = 2t in the residue field at theta + t
        p = 3
        v = place_parse(p, "finite:theta+t")
        r = residue_reduce(KElem.theta(p), v)
        assert str(r) == "2*t"

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
        with pytest.raises(ValueError):
            residue_reduce(k(p, "theta^2"), Place.infinite(p))

    def test_is_ring_morphism(self):
        rng = random.Random(58)
        p = 3
        for vtext in ("finite:theta+t", "finite:theta^2+t"):
            v = place_parse(p, vtext)
            pool = [k(p, "theta"), k(p, "theta+1"), k(p, "t*theta+2"),
                    k(p, "theta^2+t+1"), k(p, "t")]
            for _ in range(12):
                a = pool[rng.randrange(len(pool))]
                b = pool[rng.randrange(len(pool))]
                assert residue_reduce(a + b, v) == residue_reduce(a, v) + residue_reduce(b, v)
                assert residue_reduce(a * b, v) == residue_reduce(a, v) * residue_reduce(b, v)

    def test_infinite_residue(self):
        p = 3
        vi = Place.infinite(p)
        x = k(p, "(2*theta+t)/(theta+1)")
        r = residue_reduce(x, vi)
        assert str(r) == "2"
        assert residue_reduce(k(p, "1/theta"), vi).is_zero()

    def test_cancel_common_power(self):
        # both num and den vanish at the place; the ratio is still a unit
        p = 3
        v = place_parse(p, "finite:theta+t")
        x = k(p, "(theta+t)*(theta+1)") / k(p, "(theta+t)*(theta+2)")
        assert valuation(x, v) == 0
        got = residue_reduce(x, v)
        want = residue_reduce(k(p, "theta+1"), v) / residue_reduce(k(p, "theta+2"), v)
        assert got == want


class TestFvElem:
    def test_field_axioms_degree_two(self):
        p = 3
        v = place_parse(p, "finite:theta^2+t")
        a = residue_reduce(KElem.theta(p), v)
        b = residue_reduce(k(p, "theta+t"), v)
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a == FvElem.from_felem(v, FElem.from_rpoly(RPoly.from_coeffs(p, [0, 2])))
        assert a ** 0 == FvElem.one(v)
        assert a ** -1 == a.inverse()

    def test_frobenius_is_power(self):
        p = 3
        v = place_parse(p, "finite:theta^2+t")
        a = residue_reduce(k(p, "theta+t+1"), v)
        assert a.frobenius(1) == a ** p
        assert a.frobenius(2) == a ** (p * p)

    def test_lift_reduces_back(self):
        p = 3
        v = place_parse(p, "finite:theta^2+t")
        a = residue_reduce(k(p, "t*theta+1"), v)
        assert residue_reduce(a.lift(), v) == a

    def test_zero_inverse_raises(self):
        v = place_parse(3, "finite:theta+t")
        with pytest.raises(ZeroDivisionError):
            FvElem.zero(v).inverse()


class TestFvCoordinates:
    @pytest.mark.parametrize("place", ["finite:theta+t", "finite:theta^2+t",
                                       "infinite"])
    def test_reconstruction_random(self, place):
        rng = random.Random(37)
        p = 3
        v = place_parse(p, place)

        def rnd_rpoly(nonzero):
            while True:
                f = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(3)])
                if f or not nonzero:
                    return f

        xs = [FvElem(v, [FElem(rnd_rpoly(False), rnd_rpoly(True))
                         for _ in range(v.theta_degree)]) for _ in range(4)]
        den = fv_denominator(xs)
        for vec, x in zip(fv_coordinates(xs), xs):
            for slot, f in enumerate(x.rep):
                num = RPoly(p, {e: c for (s, e), c in vec.items() if s == slot})
                assert FElem(num, den) == f


class TestFvTpEval:
    @pytest.mark.parametrize("place", ["finite:theta+1", "finite:theta^2+t"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_term_by_term(self, place, seed):
        p = 3
        v = place_parse(p, place)
        rng = random.Random(seed)

        def residue():
            c = KElem.zero(p)
            for i in range(3):
                c = c + KElem.const(p, rng.randrange(p)) \
                    * KElem.t(p) ** rng.randrange(3) * KElem.theta(p) ** i
            return residue_reduce(c, v)

        coeffs = [residue() for _ in range(4)]
        coeffs[1] = FvElem.zero(v)
        for _ in range(3):
            x = residue()
            want = FvElem.zero(v)
            for i, c in enumerate(coeffs):
                want = want + c * x ** (p ** i)
            assert fv_tp_eval(coeffs, x) == want


class TestProductFormula:
    def test_frozen_example(self):
        p = 3
        entries = check_product_formula(k(p, "theta^2/(theta+t)"))
        table = [(place_to_str(v), val, w) for v, val, w in entries]
        assert table == [("finite:theta", 2, 1),
                         ("finite:theta+t", -1, 1),
                         ("infinite", -1, 1)]

    def test_weighted_at_higher_degree(self):
        p = 3
        entries = check_product_formula(k(p, "(theta^2+t)/theta"))
        table = [(place_to_str(v), val, w) for v, val, w in entries]
        assert table == [("finite:theta", -1, 1),
                         ("finite:theta^2+t", 1, 2),
                         ("infinite", -1, 1)]
        assert sum(val * w for _, val, w in entries) == 0

    def test_random_elements_sum_zero(self):
        rng = random.Random(59)
        p = 3
        pool = [k(p, "theta"), k(p, "theta+t"), k(p, "theta^2+t"),
                k(p, "theta+1"), k(p, "t")]
        for _ in range(10):
            x = KElem.one(p)
            for _ in range(rng.randrange(1, 4)):
                f = pool[rng.randrange(len(pool))]
                x = x * f if rng.randrange(2) else x / f
            entries = check_product_formula(x)
            assert sum(val * w for _, val, w in entries) == 0

    def test_constants_have_empty_support(self):
        p = 3
        assert check_product_formula(k(p, "2")) == ()
        assert check_product_formula(k(p, "t^2+1")) == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            check_product_formula(KElem.zero(3))

    def test_degree_cap(self):
        p = 3
        with pytest.raises(ValueError):
            check_product_formula(KElem.theta(p) ** 9 + KElem.one(p))


class TestClassification:
    def test_carlitz_no_exclusions(self):
        p = 3
        sets = classify_places([k(p, "t"), k(p, "1")])
        assert sets.omega0_excluded == ()
        assert sets.omega1_excluded == ()

    def test_special_module_exclusions(self):
        # theta*x^3 + x^9: theta is a non-unit lowest coefficient, and both
        # coefficients fail integrality or unit checks at infinity
        p = 3
        sets = classify_places([k(p, "theta"), k(p, "1")])
        assert [place_to_str(v) for v in sets.omega0_excluded] == [
            "finite:theta", "infinite"]

    def test_generator_denominators(self):
        p = 3
        sets = classify_places([k(p, "t"), k(p, "1")],
                               [k(p, "theta/(theta^2+t)")])
        assert sets.omega0_excluded == ()
        assert [place_to_str(v) for v in sets.omega1_excluded] == ["finite:theta^2+t"]
        assert not sets.good_for_module(place_parse(p, "finite:theta^2+t"))

    def test_non_integral_middle_coefficient(self):
        p = 3
        sets = classify_places([k(p, "t"), k(p, "1/(theta+t)"), k(p, "1")])
        assert "finite:theta+t" in [place_to_str(v) for v in sets.omega0_excluded]

    def test_infinite_generator_exclusion(self):
        p = 3
        sets = classify_places([k(p, "t"), k(p, "1")], [k(p, "theta^2")])
        assert [place_to_str(v) for v in sets.omega1_excluded] == ["infinite"]
