import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab import grammar
from drinfeldlab.base import FElem, RPoly, felem_parse, rpoly_parse
from drinfeldlab.experiments import MultiPoly, poly_parse
from drinfeldlab.kfield import BiPoly, KElem, kelem_parse
from drinfeldlab.phimodule import module_parse, point_parse
from drinfeldlab.places import place_parse
from drinfeldlab.twisted import tp_parse

from helpers import bipoly_from_theta_coeffs

ENTRY_POINTS = {
    "rpoly": lambda p, s: rpoly_parse(p, s),
    "felem": lambda p, s: felem_parse(p, s),
    "kelem": lambda p, s: kelem_parse(p, s),
    "poly": lambda p, s: poly_parse(p, 2, s),
    "tp": lambda p, s: tp_parse(p, f"[{s}]"),
    "point": lambda p, s: point_parse(p, f"({s})"),
    "module": lambda p, s: module_parse(p, f"[t, 1] :: 1 :: ({s})"),
    "place": lambda p, s: place_parse(p, f"finite:{s}"),
}


def _random_expr(rng, names, depth=0):
    """A random expression over the given names, integers, + - * ^ and ()."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice(names + [str(rng.randrange(12))])
    if roll < 0.45:
        return f"({_random_expr(rng, names, depth + 1)})^{rng.randrange(5)}"
    if roll < 0.55:
        return f"-({_random_expr(rng, names, depth + 1)})"
    op = rng.choice(["+", "-", "*"])
    return (f"({_random_expr(rng, names, depth + 1)}){op}"
            f"({_random_expr(rng, names, depth + 1)})")


def _poly_constant(p, text):
    f = poly_parse(p, 2, text)
    assert set(f.terms) <= {(0, 0)}
    return f.terms.get((0, 0), KElem.zero(p))


class TestCrossGrammar:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_polynomial_sublanguage_agrees(self, p):
        rng = random.Random(1000 + p)
        texts = ["t^2+2*t+1", "(t+1)^3", "-(t+2)*(t^4-1)", "2*t*t^3 - 7",
                 "((t))^5 + 0*t", "+t", "12345678901234567890*t"]
        texts += [_random_expr(rng, ["t"]) for _ in range(40)]
        for text in texts:
            expected = KElem.from_rpoly(rpoly_parse(p, text))
            assert KElem.from_felem(felem_parse(p, text)) == expected, text
            assert kelem_parse(p, text) == expected, text
            assert _poly_constant(p, text) == expected, text

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_fraction_sublanguage_agrees(self, p):
        rng = random.Random(2000 + p)
        texts = ["(t^2+2*t+1)/(t^3+1)", "1/t*t^2", "t+1/t", "1/(t+1)^2",
                 "(1)/(t)/(t+1)"]
        for _ in range(30):
            den = _random_expr(rng, ["t"])
            if not rpoly_parse(p, den).is_zero():
                texts.append(f"({_random_expr(rng, ['t'])})/({den})")
        for text in texts:
            expected = KElem.from_felem(felem_parse(p, text))
            assert kelem_parse(p, text) == expected, text
            assert _poly_constant(p, text) == expected, text

    def test_rpoly_rejects_division(self):
        with pytest.raises(ValueError):
            rpoly_parse(3, "t/1")


def _kelems(p):
    rpolys = st.lists(st.integers(0, p - 1), min_size=1, max_size=3).map(
        lambda cs: RPoly.from_coeffs(p, cs))
    bipolys = st.lists(rpolys, min_size=1, max_size=3).map(
        lambda rs: bipoly_from_theta_coeffs(p, rs))
    nonzero = bipolys.filter(lambda f: not f.is_zero())
    return st.builds(KElem, nonzero, st.one_of(st.just(BiPoly.one(p)), nonzero))


@st.composite
def _multipolys(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    g = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * g),
                                 _kelems(p), max_size=4))
    return MultiPoly(p, g, terms)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_multipolys())
    def test_poly_reads_back_its_print(self, f):
        assert poly_parse(f.p, f.g, str(f)).terms == f.terms

    def test_rational_coefficient(self):
        f = poly_parse(3, 2, "((1)/(theta+t))*x0 + x1^2")
        assert str(f) == "((1)/(theta+t))*x0 + x1^2"
        assert f.terms[(1, 0)] == kelem_parse(3, "theta+t").inverse()

    def test_division_by_a_non_constant_rejected(self):
        for text in ("1/x", "x/(x+1)", "x/0"):
            with pytest.raises(ValueError):
                poly_parse(3, 1, text)


class TestPrecedence:
    def test_division_binds_left_to_right(self):
        theta, t = KElem.theta(3), KElem.t(3)
        assert kelem_parse(3, "1/t*theta") == theta / t
        assert poly_parse(3, 1, "1/t*theta").terms == {(0,): theta / t}
        assert felem_parse(3, "1/t*t^2") == FElem.from_rpoly(RPoly.t(3))

    def test_division_binds_tighter_than_addition(self):
        theta, t = KElem.theta(3), KElem.t(3)
        assert kelem_parse(3, "theta+1/t") == theta + 1 / t
        assert kelem_parse(3, "theta+1/t") != (theta + 1) / t

    def test_power_binds_tighter_than_sign(self):
        assert rpoly_parse(5, "-t^2") == -(RPoly.t(5) ** 2)

    def test_theta_in_poly_parse(self):
        assert poly_parse(3, 1, "θ*x + θ^2").terms == \
            poly_parse(3, 1, "theta*x + theta^2").terms


class TestHostileText:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_deep_nesting_is_a_value_error(self, entry):
        deep = "(" * 2000 + "t" + ")" * 2000
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](3, deep)

    def test_nesting_within_the_cap_reads(self):
        text = "(" * grammar._NESTING_CAP + "t" + ")" * grammar._NESTING_CAP
        assert kelem_parse(3, text) == KElem.t(3)

    @pytest.mark.parametrize("entry", ["rpoly", "felem", "kelem", "poly"])
    def test_exponent_budget(self, entry):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](3, "(t+1)^99999999999999")
        # 3^9 - 1 has nine digits 2 in base 3, so (t+1)^(3^9-1) has 3^9 terms
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](3, f"(t+1)^{3 ** 9 - 1}")
        assert time.perf_counter() - start < 0.1
        ENTRY_POINTS[entry](3, f"(t+1)^{3 ** 8 - 1}")

    def test_product_budget_refuses_fast(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="product"):
            kelem_parse(3, "(t+theta+1)^242*(t+2*theta+1)^242")
        with pytest.raises(ValueError, match="product"):
            kelem_parse(3, "(t+theta+1)^242/(t+2*theta+1)^242")
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("entry", ["rpoly", "felem", "kelem", "poly"])
    def test_product_budget_boundary(self, entry):
        def poly(m):
            return "(" + "+".join(f"t^{i}" for i in range(m)) + ")"
        # sizes 100 and 100 meet the cap of 10^4; 101 and 100 exceed it
        ENTRY_POINTS[entry](3, f"{poly(100)}*{poly(100)}")
        with pytest.raises(ValueError, match="product"):
            ENTRY_POINTS[entry](3, f"{poly(101)}*{poly(100)}")
        with pytest.raises(ValueError, match="product"):
            ENTRY_POINTS[entry](3, f"2*{poly(101)}*t*{poly(100)}")

    @pytest.mark.parametrize("entry", ["felem", "kelem"])
    def test_product_budget_applies_to_division(self, entry):
        big = "(" + "+".join(f"t^{i}" for i in range(101)) + ")"
        small = "(" + "+".join(f"t^{i}" for i in range(100)) + ")"
        with pytest.raises(ValueError, match="product"):
            ENTRY_POINTS[entry](3, f"{big}/{small}")
        ENTRY_POINTS[entry](3, f"{big}/(t+1)")

    def test_monomial_factors_exempt(self):
        ts = "+".join(f"t^{i}" for i in range(100))
        thetas = "+".join(f"theta^{i}" for i in range(100))
        big = f"(({ts})*({thetas})+t^999)"          # 10^4 + 1 terms
        x = kelem_parse(3, f"2*t^7*{big}*theta/t^3*theta^{3 ** 40}")
        assert x.num.term_count() == 10 ** 4 + 1

    def test_monomial_bases_exempt(self):
        n = 3 ** 40 + 5
        start = time.perf_counter()
        x = kelem_parse(3, f"(2*t/theta)^{n}")
        f = poly_parse(3, 1, f"(2*t*x)^{n}")
        assert time.perf_counter() - start < 0.1
        assert x == (2 * KElem.t(3) / KElem.theta(3)) ** n
        assert f.terms == {(n,): (2 * KElem.t(3)) ** n}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_budget_bounds_the_terms(self, p):
        rng = random.Random(300 + p)
        for _ in range(20):
            f = bipoly_from_theta_coeffs(p, [
                RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(3)])
                for _ in range(3)])
            n = rng.randrange(60)
            bound = grammar._lucas_terms(f.term_count(), n, p)
            if bound <= grammar._POWER_TERM_CAP:
                assert (f ** n).term_count() <= bound


# the grammar's alphabet: digits, names, operators, separators and space
_ALPHABET = list("0123456789+-*/^()[],:; ") + [
    "t", "theta", "θ", "x", "y", "z", "x1", "finite", "infinite", "q"]


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(_ALPHABET), max_size=30).map("".join))
    def test_only_value_or_zero_division_errors(self, text):
        raw = [rpoly_parse, felem_parse, kelem_parse, tp_parse, point_parse,
               module_parse, place_parse, lambda p, s: poly_parse(p, 2, s)]
        for entry in raw + list(ENTRY_POINTS.values()):
            start = time.perf_counter()
            try:
                entry(3, text)
            except (ValueError, ZeroDivisionError):
                pass
            assert time.perf_counter() - start < 1.0
