import itertools
import json
import pathlib
import random

import pytest

from drinfeldlab import drinfeld, localfield
from drinfeldlab.adelic import _locally_divisible
from drinfeldlab.base import Echelon, FElem, RPoly, rpoly_parse
from drinfeldlab.drinfeld import DrinfeldModule, phi_action
from drinfeldlab.kfield import KElem, kelem_parse
from drinfeldlab.localfield import (
    LocalElem,
    NoResidueRoot,
    embed,
    hensel_solve,
    local_to_str,
    residue_solve,
    tp_eval_local,
)
from drinfeldlab.places import Place, residue_reduce, valuation
from drinfeldlab.twisted import tp_eval, tp_parse

from helpers import bipoly_from_theta_coeffs, monic_pi, uniformizer
from test_drinfeld import MOORE
from test_places import fv_tp_eval

P = 3


def k(text):
    return kelem_parse(P, text)


def vft():
    return Place.parse(P, "finite:theta+t")


def carlitz():
    return DrinfeldModule.parse(P, "[t, 1]")


def psi():
    return DrinfeldModule.parse(P, "[0, theta, 1]")


def phi3():
    return DrinfeldModule.parse(P, "[t, (2*t)/(theta^2)]")


T_OP = RPoly.monomial(P, 1)


def agree(a, b, upto):
    """v(a - b) >= upto, with the difference known at least that far."""
    d = a - b
    assert d.precision >= upto, "difference is not known that far"
    w = d.val()
    return w is None or w >= upto


class TestEmbed:
    def test_theta_at_linear_place(self):
        z = embed(k("theta"), vft(), 3)
        assert local_to_str(z) == "[2*t] + u*[1] + O(u^3)"

    def test_inverse_uniformizer(self):
        z = embed(k("theta+t").inverse(), vft(), 2)
        assert local_to_str(z) == "u^(-1)*[1] + O(u^2)"
        assert z.val() == -1

    def test_zero(self):
        z = embed(KElem.zero(P), vft(), 5)
        assert z.val() is None
        assert local_to_str(z) == "O(u^5)"

    def test_deep_value_truncates_to_zero(self):
        z = embed(k("theta+t") ** 4, vft(), 3)
        assert z.val() is None

    def test_valuation_agrees_with_places(self):
        v = vft()
        samples = [k("theta"), k("t*theta+1"), k("(theta^2+1)/(theta+t)"),
                   k("theta+t") ** 2 * k("t+1")]
        for x in samples:
            assert embed(x, v, 6).val() == valuation(x, v)

    def test_ring_homomorphism_window(self):
        v = vft()
        a = k("theta^2 + t*theta + 1")
        b = k("(theta+t) * (theta + 2*t + 1)")
        assert agree(embed(a, v, 6) + embed(b, v, 6), embed(a + b, v, 6), 6)
        prod = embed(a, v, 6) * embed(b, v, 6)
        n = prod.precision
        assert agree(prod, embed(a * b, v, n), n)

    def test_non_monic_place(self):
        # at t*theta + 1 the uniformizer is u = theta + 1/t, so
        # theta = -1/t + u and theta^2 = 1/t^2 - (2/t) u + u^2
        v = Place.parse(P, "finite:t*theta+1")
        assert local_to_str(embed(k("theta^2"), v, 4)) == \
            "[(1)/(t^2)] + u*[(1)/(t)] + u^2*[1] + O(u^4)"

    @pytest.mark.parametrize("place_text", ["finite:theta^2+t", "infinite"])
    def test_refused_off_theta_degree_one(self, place_text):
        v = Place.parse(P, place_text)
        for x in (KElem.zero(P), k("theta^2"), k("(theta^2+1)/(theta^3+t)")):
            with pytest.raises(ValueError, match="theta-degree 1"):
                embed(x, v, 3)
        with pytest.raises(ValueError, match="theta-degree 1"):
            LocalElem.zero_to(v, 3)

    def test_big_sparse_element(self):
        v = vft()
        x = k("theta") ** (3 ** 9) + k("theta+t")
        z = embed(x, v, 2)
        # theta^(3^9) reduces to (-t)^(3^9) at this place, plus u from the tail
        assert z.val() == 0
        assert KElem.from_felem(z.terms[0]) == (-k("t")) ** (3 ** 9)


def _embed_peeling(x, v, n):
    """The u-digits of x by exact K-arithmetic: strip the power of the
    monic uniformizer u, then take a residue and divide its difference by
    u, once per digit."""
    if x.is_zero():
        return LocalElem.zero_to(v, n)
    u = monic_pi(v)
    val = valuation(x, v)
    z = x * u ** -val
    terms = {}
    for e in range(val, n):
        c = residue_reduce(z, v)
        terms[e] = c
        z = (z - KElem.from_felem(c)) / u
    return LocalElem(v, terms, n)


def _rnd_bipoly(rng, theta_deg=2, t_deg=2):
    return bipoly_from_theta_coeffs(P, [
        RPoly.from_coeffs(P, [rng.randrange(P) for _ in range(t_deg + 1)])
        for _ in range(theta_deg + 1)])


def _unit_at(x, v):
    """x times the power of the uniformizer that makes it a unit at v."""
    u = uniformizer(v)
    m = valuation(x, v)
    return x * (u.inverse() ** m if m >= 0 else u ** -m)


def _denominator(rng, kind, v):
    if kind == "one":
        return KElem.one(P)
    if kind == "theta-free":
        while True:
            d = RPoly.from_coeffs(P, [rng.randrange(P) for _ in range(3)])
            if d.degree >= 1:
                return KElem.from_rpoly(d)
    while True:
        d = KElem.from_bipoly(_rnd_bipoly(rng))
        if not d.is_zero():
            break
    d = _unit_at(d, v)
    if kind == "pi-divisible":
        d = d * uniformizer(v) ** rng.randint(1, 2)
    return d


# monic and non-monic degree-one places
DEGREE_ONE_PLACES = ["finite:theta", "finite:theta+t", "finite:t*theta+1"]
DENOMINATOR_KINDS = ["one", "theta-free", "unit", "pi-divisible"]


class TestEmbedAgainstOracles:
    """embed divides the digit series of num and den; the first oracle
    peels digits off x by exact K-arithmetic, the second multiplies the
    denominator back."""

    @staticmethod
    def samples(place_text, kind):
        v = Place.parse(P, place_text)
        rng = random.Random(f"{place_text}/{kind}")
        for _ in range(8):
            x = KElem.from_bipoly(_rnd_bipoly(rng)) / _denominator(rng, kind, v)
            yield v, x, rng.randint(1, 6)

    @pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
    @pytest.mark.parametrize("place_text", DEGREE_ONE_PLACES)
    def test_matches_digit_peeling(self, place_text, kind):
        for v, x, n in self.samples(place_text, kind):
            assert embed(x, v, n) == _embed_peeling(x, v, n), (x, n)

    @pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
    @pytest.mark.parametrize("place_text", DEGREE_ONE_PLACES)
    def test_matches_quotient_of_embeddings(self, place_text, kind):
        # embed(x) * embed(den) = embed(num), each factor known to n digits
        # past its valuation
        for v, x, n in self.samples(place_text, kind):
            num, den = KElem.from_bipoly(x.num), KElem.from_bipoly(x.den)
            wx, wd = valuation(x, v), valuation(den, v)
            prod = embed(x, v, wx + n) * embed(den, v, wd + n)
            assert prod == embed(num, v, wx + wd + n), (x, n)


class TestCoefficientMemo:
    """The caller's dict holds the coefficient embeddings: one dict serves
    every call that shares it, and a fresh dict embeds afresh."""

    @pytest.mark.parametrize("place_text", ["finite:theta+t",
                                            "finite:t*theta+1"])
    def test_repeated_calls_equal_unmemoised(self, place_text):
        v = Place.parse(P, place_text)
        ops = [phi_action(carlitz(), RPoly.monomial(P, 2)), phi3().phi_t]
        points = []
        for text, n in [("theta", 4), ("theta^2+t*theta+1", 8)]:
            z = embed(k(text), v, n)
            points += [z, z.truncate(n // 2)]
        schedule = [(f, z) for f in ops for z in points] * 2
        shared = {}
        got = [tp_eval_local(f, z, shared) for f, z in schedule]
        want = [tp_eval_local(f, z, {}) for f, z in schedule]
        assert got == want

    def test_each_coefficient_embedded_once(self, monkeypatch):
        z = embed(k("theta"), vft(), 5)
        calls = []

        def counting_embed(x, v, n):
            calls.append((x, n))
            return embed(x, v, n)

        monkeypatch.setattr(localfield, "embed", counting_embed)
        shared = {}
        for _ in range(4):
            tp_eval_local(carlitz().phi_t, z, shared)  # t + tau: two coefficients
        assert len(calls) == 2
        tp_eval_local(carlitz().phi_t, z, {})
        assert len(calls) == 4


class TestLocalArithmetic:
    def test_add_precision_is_min(self):
        v = vft()
        a = embed(k("theta"), v, 5)
        b = embed(k("t"), v, 3)
        assert (a + b).precision == 3

    def test_mul_precision_shifts_by_valuation(self):
        v = vft()
        a = embed(k("theta+t"), v, 5)      # val 1, known to 5
        b = embed(k("theta"), v, 4)        # val 0, known to 4
        assert (a * b).precision == 5      # min(5 + 0, 4 + 1)

    def test_truncate_cannot_gain_precision(self):
        z = embed(k("theta"), vft(), 3)
        with pytest.raises(ValueError):
            z.truncate(5)

    def test_frobenius_scales_exponents_and_precision(self):
        z = embed(k("theta"), vft(), 3)
        w = z.frobenius(1)
        assert w.precision == 9
        assert agree(w, embed(k("theta") ** 3, vft(), 9), 9)

    def test_different_places_rejected(self):
        other = Place.parse(P, "finite:theta+1")
        with pytest.raises(ValueError):
            embed(k("theta"), vft(), 3) + embed(k("theta"), other, 3)


class TestResidueSolve:
    def test_certified_kernel_at_linear_place(self):
        v = vft()
        gbar = [residue_reduce(c, v) for c in phi3().phi_t_power(1).coeffs]
        roots = residue_solve(gbar, FElem.zero(P), v)
        assert [str(r) for r in roots] == ["0", "t", "2*t"]

    def test_one_echelon_per_call(self, monkeypatch):
        # the particular root and the kernel come from the division
        # solver's one elimination
        built = []

        class CountingEchelon(Echelon):
            def __init__(self, columns, p):
                built.append(p)
                super().__init__(columns, p)

        monkeypatch.setattr(drinfeld, "Echelon", CountingEchelon)
        v = vft()
        gbar = [residue_reduce(c, v) for c in phi3().phi_t_power(1).coeffs]
        roots = residue_solve(gbar, gbar[0] + gbar[1], v)
        assert built == [P] and len(roots) == 3
        built.clear()
        gbar = [residue_reduce(c, v) for c in carlitz().phi_t_power(1).coeffs]
        roots = residue_solve(gbar, residue_reduce(k("t^2"), v), v)
        assert built == [P] and roots == ()

    def test_certified_no_root(self):
        v = vft()
        gbar = [residue_reduce(c, v) for c in carlitz().phi_t_power(1).coeffs]
        assert residue_solve(gbar, residue_reduce(k("t^2"), v), v) == ()

    def test_particular_plus_kernel(self):
        v = vft()
        gbar = [residue_reduce(c, v) for c in phi3().phi_t_power(1).coeffs]
        y = gbar[0] + gbar[1]  # the image of 1 under the map
        roots = residue_solve(gbar, y, v)
        assert len(roots) == 3
        for r in roots:
            img = gbar[0] * r + gbar[1] * r ** P
            assert img == y
        assert FElem.one(P) in roots

    def test_flagged_search_raises(self):
        # -t X + X^3 = t^2187 + t bounds deg X by 729: 730 unknowns exceed
        # (_HARD_CAP + 1)^2 = 625, so the search is clipped and refuses
        v = vft()
        gbar = [FElem.from_rpoly(-RPoly.t(P)), FElem.one(P)]
        y = FElem.from_rpoly(RPoly.monomial(P, 3 ** 7) + RPoly.t(P))
        with pytest.raises(RuntimeError, match="t-bound-capped"):
            residue_solve(gbar, y, v)

    @pytest.mark.parametrize("place_text", ["finite:theta^2+t", "infinite"])
    def test_refused_off_theta_degree_one(self, place_text):
        # the residue fields there are not F_p(t), so no search is exhaustive
        coeffs = [KElem.t(P), KElem.one(P)]
        gbar = [residue_reduce(c, vft()) for c in coeffs]
        with pytest.raises(ValueError, match="theta-degree 1"):
            residue_solve(gbar, FElem.zero(P), Place.parse(P, place_text))

    def test_kernel_of_an_all_zero_system(self):
        # both basis elements 1 and t of the Moore polynomial's reduction
        # at theta = -t are roots, so the linear system has no equations;
        # the kernel is all of span(1, t), nine roots a + bt
        v = vft()
        gbar = [residue_reduce(c, v) for c in tp_parse(P, MOORE[P]).coeffs]
        roots = residue_solve(gbar, FElem.zero(P), v)
        want = {FElem.from_rpoly(RPoly.from_coeffs(P, [a, b]))
                for a in range(P) for b in range(P)}
        assert set(roots) == want and len(roots) == len(want)
        assert all(fv_tp_eval(gbar, r).is_zero() for r in roots)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("place", ["finite:theta+t", "finite:t*theta+1"])
    def test_roots_are_the_kernel_coset(self, p, place):
        # the Moore polynomial of span(1, theta) reduces to an additive map
        # whose kernel is F_p + F_p theta-bar
        v = Place.parse(p, place)
        f = tp_parse(p, MOORE[p])
        gbar = [residue_reduce(c, v) for c in f.coeffs]
        kernel = [FElem.one(p), residue_reduce(KElem.theta(p), v)]
        for text in ("t*theta^2+1", "theta^3+t"):
            xbar = residue_reduce(kelem_parse(p, text), v)
            roots = residue_solve(gbar, fv_tp_eval(gbar, xbar), v)
            want = set()
            for digits in itertools.product(range(p), repeat=2):
                z = xbar
                for c, w in zip(digits, kernel):
                    z = z + w * FElem.const(p, c)
                want.add(z)
            assert set(roots) == want and len(roots) == len(want)


class TestResidueSolveBruteForce:
    """At a degree-one place the residue field is F_p(t), so every X = n/d
    with deg n, deg d <= 2 can be tried, and residue_solve must return each
    root of f(X) = f(X0) among them."""

    def test_finds_every_small_root(self):
        p = 2
        v = Place.parse(p, "finite:theta+t")
        rng = random.Random(2024)
        polys = [RPoly.from_coeffs(p, c)
                 for c in itertools.product(range(p), repeat=3)]
        small = [FElem(n, d) for n in polys for d in polys if d]

        checked = 0
        for _ in range(12):
            coeffs = [rng.choice(small) for _ in range(rng.randrange(2, 4))]
            if coeffs[-1].is_zero():
                coeffs[-1] = FElem.one(p)
            y = fv_tp_eval(coeffs, rng.choice(small))
            roots = residue_solve(coeffs, y, v)
            for x in small:
                if fv_tp_eval(coeffs, x) == y:
                    assert x in roots
                    checked += 1
        assert checked >= 12


class TestHensel:
    """hensel_solve is the residue verdict: a residue root of the
    tau-stripped operator, or NoResidueRoot."""

    @staticmethod
    def stripped_residues(phi, a, v):
        f = phi_action(phi, a)
        return [residue_reduce(c, v) for c in f.coeffs[f.tau_valuation:]]

    def test_returns_a_residue_root(self):
        phi = carlitz()
        v = vft()
        ybar = residue_reduce(tp_eval(phi.phi_t, k("theta")), v)
        root = hensel_solve(phi, T_OP, ybar, v)
        gbar = self.stripped_residues(phi, T_OP, v)
        roots = residue_solve(gbar, ybar, v)
        assert root == roots[0]
        assert residue_reduce(k("theta"), v) in roots

    def test_certified_obstruction(self):
        with pytest.raises(NoResidueRoot):
            hensel_solve(carlitz(), T_OP, residue_reduce(k("t^2"), vft()),
                         vft())

    @pytest.mark.parametrize("a", ["t", "t^2"])
    def test_inseparable_operator_is_stripped(self, a):
        # psi_a = g tau^kappa: the verdict solves g(Z) = y, and Z is the
        # p^kappa-th power of theta when y = psi_a(theta)
        phi = psi()
        v = vft()
        op = rpoly_parse(P, a)
        f = phi_action(phi, op)
        ybar = residue_reduce(tp_eval(f, k("theta")), v)
        gbar = self.stripped_residues(phi, op, v)
        assert fv_tp_eval(gbar, hensel_solve(phi, op, ybar, v)) == ybar
        z = residue_reduce(k("theta"), v) ** (P ** f.tau_valuation)
        assert fv_tp_eval(gbar, z) == ybar

    def test_bad_place_rejected(self):
        # psi's linear coefficient theta is not a unit at theta = 0
        v = Place.parse(P, "finite:theta")
        with pytest.raises(ValueError):
            hensel_solve(psi(), T_OP, FElem.one(P), v)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError):
            hensel_solve(carlitz(), RPoly.zero(P), FElem.one(P), vft())

    def test_nonintegral_target_rejected(self):
        with pytest.raises(ValueError):
            _locally_divisible(carlitz(), T_OP, (k("theta+t").inverse(),),
                               vft())

    @pytest.mark.parametrize("place_text", ["finite:theta^2+t", "infinite"])
    def test_refused_off_theta_degree_one(self, place_text):
        with pytest.raises(ValueError):
            hensel_solve(carlitz(), T_OP, FElem.one(P),
                         Place.parse(P, place_text))

    def test_image_of_an_integral_point_is_divisible(self):
        # y = phi_{t^2}(2) for phi_t = t + theta tau + tau^2 is divisible at
        # every good place theta + g(t); theta^2 + t is refused
        phi = DrinfeldModule.parse(P, "[t, theta, 1]")
        a = rpoly_parse(P, "t^2")
        y = k("2*theta^9+2*theta^4+(2*t^3+2*t+2)*theta+2*t^9+2*t^2+2*t+2")
        assert tp_eval(phi_action(phi, a), k("2")) == y
        for text in ("finite:theta+1", "finite:theta+t"):
            assert _locally_divisible(phi, a, (y,), Place.parse(P, text)) is True
        with pytest.raises(ValueError):
            _locally_divisible(phi, a, (y,), Place.parse(P, "finite:theta^2+t"))


CORPUS = pathlib.Path(__file__).parent / "data" / "local_divisibility_corpus.json"
RECORDED = {"lifted": True, "certified": False}


def _verdict(case):
    p = case["p"]
    try:
        return _locally_divisible(DrinfeldModule.parse(p, case["phi"]),
                                  rpoly_parse(p, case["a"]),
                                  (kelem_parse(p, case["y"]),),
                                  Place.parse(p, case["place"]))
    except ValueError:
        return ValueError


@pytest.mark.golden
class TestLocalDivisibilityCorpus:
    """The residue verdict against the outcomes recorded with the Newton
    lift that it replaced.  The corpus: Carlitz, theta tau + tau^2 and
    t + theta tau + tau^2 at p = 2 and 3; operators t, t^2 and t+1; the
    places theta, theta+1, theta+t and theta^2+t; three seeded targets and
    three Phi_a-images of seeded polynomials for each.  Where the lift ran
    past the truncated-ring cap, every target is such an image, so the
    verdict is divisible.  The place theta^2 + t has theta-degree 2, so
    each of its cases is now a refusal."""

    @staticmethod
    def cases():
        return json.loads(CORPUS.read_text())["cases"]

    def test_corpus_shape(self):
        cases = self.cases()
        degree_one = [c for c in cases if c["place"] != "finite:theta^2+t"]
        assert (len(cases), len(degree_one)) == (432, 324)
        assert {c["parent"] for c in cases} == \
            {"lifted", "certified", "uncertified", "ValueError"}

    @pytest.mark.parametrize("p", [2, 3])
    def test_verdicts_equal_the_recorded_outcomes(self, p):
        for case in self.cases():
            if case["p"] != p:
                continue
            if case["place"] == "finite:theta^2+t":
                want = ValueError
            elif case["parent"] != "ValueError":
                want = RECORDED[case["parent"]]
            elif case["error"] == "truncated ring beyond desk scale":
                want = True
            else:
                want = ValueError
            assert _verdict(case) is want, case
