import random

import pytest

from drinfeldlab.base import RPoly, rpoly_parse, rpoly_to_str
from drinfeldlab.factor import (
    factor_bipoly,
    factor_rpoly,
    iter_irreducible_rpolys,
    iter_monic_rpolys,
    rpoly_code,
    rpoly_is_irreducible,
)
from drinfeldlab.kfield import BiPoly

from helpers import bipoly_is_irreducible


def rnd_monic(rng, p, deg):
    coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
    return RPoly.from_coeffs(p, coeffs)


class TestUnivariate:
    def test_small_frozen(self):
        p = 3
        # t^2+2 = (t+1)(t+2)
        unit, factors = factor_rpoly(rpoly_parse(p, "t^2+2"))
        assert unit == 1
        assert [(rpoly_to_str(f), m) for f, m in factors] == [("t+1", 1), ("t+2", 1)]
        # t^2+1 is irreducible mod 3
        assert rpoly_is_irreducible(rpoly_parse(p, "t^2+1"))
        assert not rpoly_is_irreducible(rpoly_parse(p, "t^2+2"))

    def test_random_products_reconstruct(self):
        rng = random.Random(41)
        for p in (2, 3, 5):
            for _ in range(20):
                parts = [rnd_monic(rng, p, rng.randrange(1, 4))
                         for _ in range(rng.randrange(1, 4))]
                unit = rng.randrange(1, p)
                f = RPoly.const(p, unit)
                for g in parts:
                    f = f * g
                u, factors = factor_rpoly(f)
                rebuilt = RPoly.const(p, u)
                for g, m in factors:
                    rebuilt = rebuilt * g ** m
                assert rebuilt == f
                assert all(rpoly_is_irreducible(g) for g, _ in factors)

    def test_multiplicities(self):
        p = 2
        f = rpoly_parse(p, "t+1") ** 4 * rpoly_parse(p, "t^2+t+1") ** 2
        _, factors = factor_rpoly(f)
        assert [(rpoly_to_str(g), m) for g, m in factors] == [
            ("t+1", 4), ("t^2+t+1", 2)]

    def test_inseparable_univariate(self):
        # derivative vanishes but the polynomial is a perfect p-th power
        p = 3
        f = rpoly_parse(p, "t+1") ** 9
        _, factors = factor_rpoly(f)
        assert [(rpoly_to_str(g), m) for g, m in factors] == [("t+1", 9)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_multiplicities_match_sympy(self, p):
        # multiplicities p, p + 1, p^2 and p^2 + 1 put factors on two and
        # three base-p levels of the squarefree decomposition at once
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        rng = random.Random(44 + p)
        for mults in ([p], [p + 1], [p * p], [p * p + 1], [1, p, p + 1],
                      [2, p * p, p * p + 1], [p + 1, p * p + p + 1]):
            f = RPoly.const(p, rng.randrange(1, p))
            for m in mults:
                f = f * rnd_monic(rng, p, rng.randrange(1, 4)) ** m
            unit, want = sympy.Poly(
                sum(c * t ** e for e, c in f.c.items()), t,
                modulus=p).factor_list()
            got = factor_rpoly(f)
            assert got[0] == int(unit) % p
            assert sorted(([int(c) % p for c in g.all_coeffs()][::-1], m)
                          for g, m in want) \
                == sorted(([g.coeff(e) for e in range(g.degree + 1)], m)
                          for g, m in got[1])

    @pytest.mark.parametrize("p, max_deg", [(2, 4), (3, 4), (5, 3)])
    def test_irreducible_matches_sympy(self, p, max_deg):
        # every monic f of degree <= max_deg, squares and other repeated
        # factors included, against sympy's irreducibility test
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        f = None
        for f in iter_monic_rpolys(p):
            if f.degree > max_deg:
                break
            want = f.degree >= 1 and sympy.Poly(
                sum(c * t ** e for e, c in f.c.items()), t,
                modulus=p).is_irreducible
            assert rpoly_is_irreducible(f) == want, rpoly_to_str(f)
        assert f.degree == max_deg + 1

    def test_multiplicities_with_many_base_p_digits(self):
        # one level per base-3 digit of 6000, not one Euclid step per unit
        p = 3
        f = rpoly_parse(p, "t+1") ** 6000 * rpoly_parse(p, "t^2+1") ** 3001
        _, factors = factor_rpoly(f)
        assert [(rpoly_to_str(g), m) for g, m in factors] == [
            ("t+1", 6000), ("t^2+1", 3001)]

    def test_enumeration_order(self):
        p = 3
        first = []
        it = iter_monic_rpolys(p, 1)
        for _ in range(4):
            first.append(rpoly_to_str(next(it)))
        assert first == ["t", "t+1", "t+2", "t^2"]
        irr = iter_irreducible_rpolys(p)
        got = [rpoly_to_str(next(irr)) for _ in range(5)]
        assert got == ["t", "t+1", "t+2", "t^2+1", "t^2+t+2"]

    def test_code_roundtrip(self):
        rng = random.Random(42)
        for p in (2, 5):
            for _ in range(10):
                f = rnd_monic(rng, p, 3)
                assert rpoly_code(f) >= p ** 3


def rnd_bipoly_monicish(rng, p, tdeg, thdeg):
    d = {thdeg: RPoly.one(p)}
    for e in range(thdeg):
        f = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(tdeg + 1)])
        if not f.is_zero():
            d[e] = f
    return BiPoly(p, d)


class TestBivariate:
    def test_inseparable_irreducible(self):
        # theta^3 + t: irreducible although d/d(theta) = 0
        p = 3
        f = BiPoly(p, {3: RPoly.one(p), 0: RPoly.t(p)})
        assert bipoly_is_irreducible(f)

    def test_split_quadratic(self):
        # theta^2 - t^2 = (theta+t)(theta+2t) at p = 3
        p = 3
        f = BiPoly(p, {2: RPoly.one(p), 0: RPoly.monomial(p, 2, 2)})
        unit, t_factors, theta_factors = factor_bipoly(f)
        assert unit == 1 and t_factors == ()
        keys = [sorted(g.monomials()) for g, _ in theta_factors]
        assert len(theta_factors) == 2
        assert all(m == 1 for _, m in theta_factors)
        assert keys[0] != keys[1]
        prod = theta_factors[0][0] * theta_factors[1][0]
        assert prod == f

    def test_content_and_theta_factors(self):
        p = 3
        t = RPoly.t(p)
        f = BiPoly(p, {1: RPoly.one(p), 0: t}).scale_rpoly(t * t + t)
        unit, t_factors, theta_factors = factor_bipoly(f)
        rebuilt = BiPoly.one(p).scale(unit)
        for g, m in t_factors:
            rebuilt = rebuilt.scale_rpoly(g ** m)
        for g, m in theta_factors:
            rebuilt = rebuilt * g ** m
        assert rebuilt == f
        assert [rpoly_to_str(g) for g, _ in t_factors] == ["t", "t+1"]

    def test_random_products_reconstruct(self):
        rng = random.Random(43)
        for p in (2, 3, 5):
            for _ in range(12):
                parts = [rnd_bipoly_monicish(rng, p, 1, rng.randrange(1, 3))
                         for _ in range(rng.randrange(1, 4))]
                f = BiPoly.one(p)
                for g in parts:
                    f = f * g
                unit, t_factors, theta_factors = factor_bipoly(f)
                rebuilt = BiPoly.one(p).scale(unit)
                for g, m in t_factors:
                    rebuilt = rebuilt.scale_rpoly(g ** m)
                for g, m in theta_factors:
                    rebuilt = rebuilt * g ** m
                assert rebuilt == f
                assert all(bipoly_is_irreducible(g) for g, _ in theta_factors)

    def test_multiplicity_merge(self):
        p = 3
        g = BiPoly(p, {1: RPoly.one(p), 0: RPoly.t(p)})
        f = g * g * g
        _, _, theta_factors = factor_bipoly(f)
        assert len(theta_factors) == 1
        assert theta_factors[0][1] == 3

    def test_deterministic(self):
        p = 5
        f = BiPoly(p, {2: RPoly.one(p), 0: RPoly.monomial(p, 2, 4)})
        runs = [factor_bipoly(f) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor_bipoly(BiPoly.zero(3))
