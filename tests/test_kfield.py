import random

import pytest

from drinfeldlab.base import RPoly
from drinfeldlab.kfield import (
    BiPoly,
    KElem,
    bi_divexact,
    bi_gcd,
    common_denominator,
    coordinates,
    height,
    kelem_parse,
    kelem_to_str,
)


def rnd_bipoly(rng, p, tdeg, thdeg, nonzero=False):
    while True:
        d = {}
        for e in range(thdeg + 1):
            f = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(tdeg + 1)])
            if not f.is_zero():
                d[e] = f
        f = BiPoly(p, d)
        if not nonzero or not f.is_zero():
            return f


def rnd_kelem(rng, p, deg=2):
    num = rnd_bipoly(rng, p, deg, deg)
    den = rnd_bipoly(rng, p, deg, deg, nonzero=True)
    return KElem(num, den)


class TestBiPoly:
    def test_gcd_and_divexact(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            for _ in range(15):
                a = rnd_bipoly(rng, p, 2, 2, nonzero=True)
                b = rnd_bipoly(rng, p, 2, 2, nonzero=True)
                g = rnd_bipoly(rng, p, 1, 1, nonzero=True)
                gg = bi_gcd(a * g, b * g)
                # g divides the gcd of (ag, bg)
                assert bi_divexact(gg, bi_gcd(g, gg)) is not None
                assert bi_divexact(a * b, b) == a

    def test_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t, th = sympy.symbols("t theta")

        def to_sympy(f, p):
            expr = sum(c * th ** e * t ** te for e, te, c in f.monomials())
            return sympy.Poly(expr, th, t, modulus=p)

        rng = random.Random(33)
        for p in (2, 3, 5):
            for _ in range(12):
                g = rnd_bipoly(rng, p, 1, 2, nonzero=True)
                a = rnd_bipoly(rng, p, 2, 2, nonzero=True) * g
                b = rnd_bipoly(rng, p, 2, 2, nonzero=True) * g
                # sympy's lex order (theta, t) makes monic() the same
                # normalisation as bi_gcd's: lead t-coefficient of the lead
                # theta-coefficient equal to 1
                expected = to_sympy(a, p).gcd(to_sympy(b, p)).monic()
                got = {(e, te): c for e, te, c in bi_gcd(a, b).monomials()}
                assert got == {m: c % p for m, c in expected.terms()}

    def test_divexact_rejects_nondivisor(self):
        p = 3
        th = BiPoly.theta(p)
        one = BiPoly.one(p)
        with pytest.raises(ValueError):
            bi_divexact(th + one, th * th)

    def test_stretch_is_frobenius(self):
        rng = random.Random(32)
        for p in (2, 3):
            f = rnd_bipoly(rng, p, 2, 2)
            assert f ** p == f.stretch(p)


def _canon(a):
    from drinfeldlab.kfield import _canonical_scale
    return _canonical_scale(a)


class TestKElem:
    def test_addition_shared_denominator_example(self):
        # theta^2/(theta+t) + (t*theta+t^2)/(theta+t) keeps the denominator:
        # the numerator theta^2+t*theta+t^2 has no root at theta = -t
        p = 3
        a = kelem_parse(p, "(theta^2)/(theta+t)")
        b = kelem_parse(p, "(t*theta+t^2)/(theta+t)")
        s = a + b
        assert s == kelem_parse(p, "(theta^2+t*theta+t^2)/(theta+t)")
        assert s.den == kelem_parse(p, "theta+t").num

    def test_cancellation(self):
        p = 3
        x = kelem_parse(p, "(2*theta^2+2*t*theta)/(2*theta+2*t)")
        assert x == KElem.theta(p)

    def test_canonical_invariants_random(self):
        rng = random.Random(33)
        for p in (2, 3, 5):
            for _ in range(20):
                x = rnd_kelem(rng, p)
                if x.is_zero():
                    assert x.den.is_one()
                    continue
                assert bi_gcd(x.num, x.den).is_one()
                assert x.den.lead_theta_coeff().lead == 1

    def test_field_laws_random(self):
        rng = random.Random(34)
        for p in (2, 3, 5):
            for _ in range(15):
                a = rnd_kelem(rng, p)
                b = rnd_kelem(rng, p)
                c = rnd_kelem(rng, p)
                assert a * (b + c) == a * b + a * c
                assert (a - b) + b == a
                if not b.is_zero():
                    assert (a / b) * b == a

    def test_frobenius_power(self):
        rng = random.Random(35)
        p = 3
        x = rnd_kelem(rng, p, deg=2)
        assert x.frob(1) == x ** p
        assert x.frob(2) == x ** (p * p)
        y = kelem_parse(p, "theta+t")
        assert y.frob(1) == kelem_parse(p, "theta^3+t^3")

    def test_frobenius_huge_stays_sparse(self):
        p = 3
        x = kelem_parse(p, "theta+t")
        big = x.frob(20)
        assert big.num.term_count() == 2
        assert big.num.theta_degree == 3 ** 20

    def test_height(self):
        p = 3
        assert height(kelem_parse(p, "(theta^3+t)/(theta+1)")) == 3
        assert height(KElem.zero(p)) == 0
        assert height(kelem_parse(p, "(t^2*theta)/(theta^4+t)")) == 4

    def test_mixed_modulus_rejected(self):
        with pytest.raises(ValueError):
            KElem.theta(3) + KElem.theta(5)


class TestCoordinates:
    def test_polynomial_family(self):
        p = 3
        xs = [kelem_parse(p, "theta+t"), kelem_parse(p, "theta+2*t")]
        assert common_denominator(xs).is_one()
        # keys (theta_exp, t_exp): t is (0, 1), theta is (1, 0)
        assert coordinates(xs) == [{(0, 1): 1, (1, 0): 1},
                                   {(0, 1): 2, (1, 0): 1}]

    def test_denominator_family(self):
        p = 3
        xs = [kelem_parse(p, "theta/t"), kelem_parse(p, "1/t")]
        assert common_denominator(xs) == kelem_parse(p, "t").num
        assert coordinates(xs) == [{(1, 0): 1}, {(0, 0): 1}]  # theta, 1

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("rational", [False, True])
    def test_matches_clearing_by_product(self, p, rational):
        """Each vector is the numerator of x * D as a product in K, D the
        common denominator, on a unit D and on a non-unit one."""
        rng = random.Random(p * 10 + rational)
        for _ in range(8):
            xs = [rnd_kelem(rng, p) if rational
                  else KElem.from_bipoly(rnd_bipoly(rng, p, 2, 3))
                  for _ in range(rng.randrange(1, 5))]
            den = KElem.from_bipoly(common_denominator(xs))
            assert den.is_one() == all(x.is_polynomial() for x in xs)
            expected = []
            for x in xs:
                y = x * den
                assert y.is_polynomial()
                expected.append({(e, te): c for e, te, c in y.num.monomials()})
            assert coordinates(xs) == expected

    def test_reconstruction_random(self):
        rng = random.Random(36)
        p = 3
        xs = [rnd_kelem(rng, p, deg=2) for _ in range(4)]
        den = KElem.from_bipoly(common_denominator(xs))
        for vec, x in zip(coordinates(xs), xs):
            acc = KElem.zero(p)
            for (the, te), c in vec.items():
                acc = acc + KElem.from_bipoly(BiPoly.monomial(p, the, te, c))
            assert acc / den == x

    def test_common_denominator_lcm(self):
        p = 3
        xs = [kelem_parse(p, "1/(theta+t)"), kelem_parse(p, "1/(theta^2+t^2)")]
        d = common_denominator(xs)
        # theta^2+t^2 is not divisible by theta+t over F_3 (only theta-t is),
        # so the lcm is the product
        assert d.theta_degree == 3


class TestGrammar:
    def test_spec_example(self):
        p = 3
        x = kelem_parse(p, "((t+1)*theta^2 + t)/(theta + t^2)")
        assert x.num.theta_degree == 2
        assert str(x) == "((t+1)*theta^2+t)/(theta+t^2)"

    def test_unicode_theta_accepted(self):
        p = 3
        assert kelem_parse(p, "θ^2+t") == kelem_parse(p, "theta^2+t")

    def test_roundtrip_random(self):
        rng = random.Random(37)
        for p in (2, 3, 5):
            for _ in range(20):
                x = rnd_kelem(rng, p)
                assert kelem_parse(p, kelem_to_str(x)) == x

    def test_rejects_garbage(self):
        for bad in ("", "theta^", "x+1", "(theta", "theta)/(", "t//t"):
            with pytest.raises((ValueError, ZeroDivisionError)):
                kelem_parse(3, bad)

    def test_nested_parens_and_signs(self):
        p = 5
        x = kelem_parse(p, "-(theta+t)*(theta-t)+theta^2")
        assert x == kelem_parse(p, "t^2")
