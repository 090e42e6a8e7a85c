import random

import pytest

from drinfeldlab.kfield import KElem, kelem_parse, kelem_to_str
from drinfeldlab.twisted import (
    TwistedPoly,
    ZeroMapError,
    tp_add,
    tp_compose,
    tp_eval,
    tp_parse,
    tp_scale,
    tp_to_str,
)


def carlitz(p=3):
    return TwistedPoly(p, [KElem.t(p), KElem.one(p)])


def special_psi(p=3):
    return TwistedPoly(p, [KElem.zero(p), KElem.theta(p), KElem.one(p)])


def rnd_tp(rng, p, pool, max_len=3):
    return TwistedPoly(p, [pool[rng.randrange(len(pool))]
                           for _ in range(rng.randrange(1, max_len + 1))])


class TestCompose:
    def test_carlitz_square(self):
        C = carlitz()
        assert tp_to_str(tp_compose(C, C)) == "[t^2, t^3+t, 1]"

    def test_special_square(self):
        Psi = special_psi()
        assert tp_to_str(tp_compose(Psi, Psi)) == "[0, 0, theta^4, theta^9+theta, 1]"

    def test_identity_neutral(self):
        C = carlitz()
        I = TwistedPoly.identity(3)
        assert tp_compose(C, I) == C
        assert tp_compose(I, C) == C

    def test_defining_property_and_valuations(self):
        rng = random.Random(71)
        p = 3
        pool = [KElem.t(p), KElem.theta(p), KElem.one(p),
                kelem_parse(p, "theta+t"), kelem_parse(p, "t*theta+1")]
        for _ in range(25):
            f = rnd_tp(rng, p, pool)
            g = rnd_tp(rng, p, pool)
            x = pool[rng.randrange(len(pool))]
            assert tp_eval(tp_compose(f, g), x) == tp_eval(f, tp_eval(g, x))
            assert tp_compose(f, g).tau_valuation == f.tau_valuation + g.tau_valuation

    def test_distributivity(self):
        rng = random.Random(72)
        p = 2
        pool = [KElem.t(p), KElem.theta(p), KElem.one(p)]
        for _ in range(15):
            f, g, h = (rnd_tp(rng, p, pool) for _ in range(3))
            assert tp_compose(f, tp_add(g, h)) == tp_add(tp_compose(f, g), tp_compose(f, h))
            assert tp_compose(tp_add(f, g), h) == tp_add(tp_compose(f, h), tp_compose(g, h))

    def test_associativity(self):
        rng = random.Random(73)
        p = 3
        pool = [KElem.t(p), KElem.theta(p), kelem_parse(p, "theta+1")]
        for _ in range(10):
            f, g, h = (rnd_tp(rng, p, pool, 2) for _ in range(3))
            assert tp_compose(tp_compose(f, g), h) == tp_compose(f, tp_compose(g, h))


class TestEval:
    def test_frozen_values(self):
        C = carlitz()
        assert kelem_to_str(tp_eval(C, KElem.theta(3))) == "theta^3+t*theta"
        assert kelem_to_str(tp_eval(C, KElem.one(3))) == "t+1"
        assert tp_eval(C, KElem.zero(3)).is_zero()

    def test_additive(self):
        rng = random.Random(74)
        p = 3
        pool = [KElem.t(p), KElem.theta(p), kelem_parse(p, "theta^2+t")]
        C = carlitz()
        for _ in range(10):
            x = pool[rng.randrange(len(pool))]
            y = pool[rng.randrange(len(pool))]
            assert tp_eval(C, x + y) == tp_eval(C, x) + tp_eval(C, y)

    def test_plain_frobenius_sum(self):
        # f(x) = sum c_i x^{p^i}, checked against field powers
        p = 3
        f = tp_parse(p, "[t, 0, theta+1, 1/theta]")
        for x in (KElem.theta(p), kelem_parse(p, "theta+t"),
                  kelem_parse(p, "1/(theta^2+t)")):
            expected = sum((c * x ** (p ** i) for i, c in enumerate(f.coeffs)),
                           KElem.zero(p))
            assert tp_eval(f, x) == expected


class TestEquality:
    def test_trailing_zeros_dropped(self):
        C = TwistedPoly(3, [KElem.t(3), KElem.one(3), KElem.zero(3)])
        assert C == carlitz()
        assert C.tau_degree == 1

    def test_equal_polys_share_a_hash(self):
        assert len({carlitz(), tp_parse(3, "[t, 1]"), special_psi(),
                    tp_parse(3, "[0, theta, 1]")}) == 2

    def test_modulus_distinguishes(self):
        assert TwistedPoly.identity(2) != TwistedPoly.identity(3)

    def test_repr_lists_the_coefficients(self):
        assert repr(special_psi()) == "TwistedPoly([0, theta, 1])"


@pytest.mark.parametrize("op", [
    lambda f, g: tp_add(f, g),
    lambda f, g: tp_compose(f, g),
    lambda f, g: tp_scale(f, g.coeff(0)),
    lambda f, g: tp_eval(f, g.coeff(0)),
], ids=["add", "compose", "scale", "eval"])
def test_modulus_mismatch_rejected(op):
    with pytest.raises(ValueError):
        op(carlitz(3), carlitz(2))


class TestValuation:
    def test_cases(self):
        assert carlitz().tau_valuation == 0
        assert special_psi().tau_valuation == 1
        assert tp_parse(3, "[0, 0, 1]").tau_valuation == 2

    def test_zero_map(self):
        with pytest.raises(ZeroMapError):
            TwistedPoly.zero(3).tau_valuation


class TestSerialization:
    def test_roundtrip(self):
        p = 3
        for text in ("[t, 1]", "[0, theta, 1]", "[t^2, t^3+t, 1]",
                     "[(theta+t)/(theta+1), 0, 2]"):
            f = tp_parse(p, text)
            assert tp_parse(p, tp_to_str(f)) == f

    def test_scale(self):
        p = 3
        C = carlitz(p)
        s = tp_scale(C, KElem.const(p, 2))
        assert tp_add(C, s).is_zero()  # 1 + 2 = 0 mod 3

    def test_malformed(self):
        with pytest.raises(ValueError):
            tp_parse(3, "t, 1")
