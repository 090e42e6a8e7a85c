import itertools
import random
from fractions import Fraction

import pytest

from drinfeldlab import localfield
from drinfeldlab.base import FElem, RPoly
from drinfeldlab.drinfeld import DrinfeldModule, phi_action
from drinfeldlab.kfield import BiPoly, KElem, kelem_parse
from drinfeldlab.localfield import (
    DivisionByZeroToPrecision,
    LocalElem,
    NoResidueRoot,
    PrecisionUnderflow,
    embed,
    hensel_solve,
    local_to_str,
    residue_solve,
    tp_eval_local,
)
from drinfeldlab.places import (FvElem, Place, _bipoly_multiplicity, fv_tp_eval,
                                get_trunc_ring, residue_reduce, valuation)
from drinfeldlab.twisted import tp_eval, tp_parse

from test_drinfeld import MOORE

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
        assert z.is_zero_to_precision()
        assert local_to_str(z) == "O(u^5)"

    def test_deep_value_truncates_to_zero(self):
        z = embed(k("theta+t") ** 4, vft(), 3)
        assert z.is_zero_to_precision()

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
        assert (embed(a, v, 6) + embed(b, v, 6)).agrees(embed(a + b, v, 6), 6)
        prod = embed(a, v, 6) * embed(b, v, 6)
        n = prod.precision
        assert prod.agrees(embed(a * b, v, int(n)), n)

    def test_quadratic_place(self):
        v = Place.parse(P, "finite:theta^2+t")
        z = embed(k("theta^2"), v, 2)
        # theta^2 = -t + pi, so the residue digit is -t and the next is 1
        assert z.terms[Fraction(0)] == residue_reduce(k("2*t"), v)
        assert z.terms[Fraction(1)] == FvElem.one(v)
        assert embed(k("theta^2+t"), v, 3).val() == 1

    def test_infinite_place(self):
        vi = Place.infinite(P)
        z = embed(k("(theta^2+1)/(theta^3+t)"), vi, 7)
        assert z.val() == 1
        assert local_to_str(z) == \
            "u*[1] + u^3*[1] + u^4*[2*t] + u^6*[2*t] + O(u^7)"

    def test_infinite_product_consistency(self):
        vi = Place.infinite(P)
        x = k("(theta^2+1)/(theta^3+t)")
        back = embed(k("theta^3+t"), vi, 9) * embed(x, vi, 7)
        assert back.agrees(embed(k("theta^2+1"), vi, int(back.precision)),
                           back.precision)

    def test_big_sparse_element(self):
        v = vft()
        x = k("theta") ** (3 ** 9) + k("theta+t")
        z = embed(x, v, 2)
        # theta^(3^9) reduces to (-t)^(3^9) at this place, plus u from the tail
        assert z.val() == 0
        assert z.terms[Fraction(0)].lift() == (-k("t")) ** (3 ** 9)


def _embed_inverting(x, v, n):
    """embed's finite-place formula with the denominator's unit part always
    inverted modulo pi^count, the slow path that the unit skip replaces."""
    if x.is_zero():
        return LocalElem.zero_to(v, n)
    kn = _bipoly_multiplicity(x.num, v)
    kd = _bipoly_multiplicity(x.den, v)
    count = n - (kn - kd)
    if count <= 0:
        return LocalElem.zero_to(v, n)
    ring = get_trunc_ring(v, count + kn + kd)
    _, un = ring.strip_pi(ring.reduce_bipoly(x.num))
    _, ud = ring.strip_pi(ring.reduce_bipoly(x.den))
    digits = ring.digits(ring.mul(un, ring.invert(ud)), count)
    return LocalElem(v, {Fraction(kn - kd + i): d for i, d in enumerate(digits)},
                     n)


def _embed_quotient(x, v, n):
    """x = num/den as embed(num) * embed(den)^-1, inverted by Newton
    iteration in LocalElem arithmetic, then cut to precision n.  Digit-wise
    products carry nothing, so this holds at degree-one places and at
    infinity only."""
    num, den = KElem.from_bipoly(x.num), KElem.from_bipoly(x.den)
    kn = valuation(num, v) if not num.is_zero() else 0
    kd = valuation(den, v)
    big = n + 2 * abs(kd) + abs(kn) + 2
    return (embed(num, v, big) * embed(den, v, big).invert()).truncate(n)


def _rnd_bipoly(rng, theta_deg=2, t_deg=2):
    return BiPoly.from_theta_coeffs(P, [
        RPoly.from_coeffs(P, [rng.randrange(P) for _ in range(t_deg + 1)])
        for _ in range(theta_deg + 1)])


def _unit_at(x, v):
    """x times the power of the uniformizer that makes it a unit at v."""
    u = v.uniformizer()
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
        d = d * v.uniformizer() ** rng.randint(1, 2)
    return d


# monic and non-monic degree-one places
DEGREE_ONE_PLACES = ["finite:theta", "finite:theta+t", "finite:t*theta+1"]
DENOMINATOR_KINDS = ["one", "theta-free", "unit", "pi-divisible"]


class TestEmbedAgainstInversion:
    """embed skips the inversion of a unit part equal to 1; both oracles
    always invert."""

    @staticmethod
    def samples(place_text, kind):
        v = Place.parse(P, place_text)
        rng = random.Random(f"{place_text}/{kind}")
        for _ in range(8):
            x = KElem.from_bipoly(_rnd_bipoly(rng)) / _denominator(rng, kind, v)
            yield v, x, rng.randint(1, 6 if v.theta_degree == 1 else 3)

    @pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
    @pytest.mark.parametrize("place_text",
                             DEGREE_ONE_PLACES + ["finite:theta^2+t"])
    def test_matches_always_inverting_formula(self, place_text, kind):
        for v, x, n in self.samples(place_text, kind):
            assert embed(x, v, n) == _embed_inverting(x, v, n), (x, n)

    @pytest.mark.parametrize("kind", DENOMINATOR_KINDS)
    @pytest.mark.parametrize("place_text", DEGREE_ONE_PLACES + ["infinite"])
    def test_matches_quotient_of_embeddings(self, place_text, kind):
        for v, x, n in self.samples(place_text, kind):
            assert embed(x, v, n) == _embed_quotient(x, v, n), (x, n)


def _tp_eval_unmemoised(f, z, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(localfield, "_embed_coeff", embed)
        return tp_eval_local(f, z)


class TestCoefficientMemo:
    @pytest.mark.parametrize("place_text", ["finite:theta+t", "finite:theta^2+t"])
    def test_repeated_calls_equal_unmemoised(self, place_text, monkeypatch):
        monkeypatch.setattr(localfield, "_COEFF_CACHE", {})
        v = Place.parse(P, place_text)
        ops = [phi_action(carlitz(), RPoly.monomial(P, 2)), phi3().phi_t]
        points = []
        for text, n in [("theta", 4), ("theta^2+t*theta+1", 8)]:
            z = embed(k(text), v, n)
            points += [z, z.pth_root()]           # grids 0 and 1
        schedule = [(f, z) for f in ops for z in points] * 2
        got = [tp_eval_local(f, z) for f, z in schedule]
        want = [_tp_eval_unmemoised(f, z, monkeypatch) for f, z in schedule]
        assert got == want

    def test_each_coefficient_embedded_once(self, monkeypatch):
        monkeypatch.setattr(localfield, "_COEFF_CACHE", {})
        z = embed(k("theta"), vft(), 5)
        calls = []

        def counting_embed(x, v, n):
            calls.append((x, n))
            return embed(x, v, n)

        monkeypatch.setattr(localfield, "embed", counting_embed)
        for _ in range(4):
            tp_eval_local(carlitz().phi_t, z)   # t + tau: two coefficients
        assert len(calls) == 2

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(localfield, "_COEFF_CACHE", {})
        v = vft()
        x = k("theta^2+1")
        for n in range(1, 71):
            localfield._embed_coeff(x, v, n)
            assert len(localfield._COEFF_CACHE) <= 65
        assert localfield._embed_coeff(x, v, 3) == embed(x, v, 3)


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

    def test_invert_zero_to_precision(self):
        with pytest.raises(DivisionByZeroToPrecision):
            LocalElem.zero_to(vft(), 4).invert()

    def test_invert_roundtrip(self):
        v = vft()
        b = embed(k("theta+t") ** 2 + k("theta"), v, 6)
        one = b * b.invert()
        assert one.terms == {Fraction(0): FvElem.one(v)}

    def test_truncate_cannot_gain_precision(self):
        z = embed(k("theta"), vft(), 3)
        with pytest.raises(PrecisionUnderflow):
            z.truncate(5)

    def test_frobenius_scales_exponents_and_precision(self):
        z = embed(k("theta"), vft(), 3)
        w = z.frobenius(1)
        assert w.precision == 9
        assert w.agrees(embed(k("theta") ** 3, vft(), 9), 9)

    def test_pth_root_relabels_onto_finer_grid(self):
        z = embed(k("theta"), vft(), 3)
        r = z.pth_root()
        assert r.grid == 1
        assert r.precision == Fraction(1)
        assert sorted(r.terms) == [Fraction(0), Fraction(1, 3)]
        # digits are carried unchanged by the relabeling
        assert r.terms[Fraction(0)] == z.terms[Fraction(0)]
        assert r.frobenius(1).agrees(z.refine(1), 3)

    def test_fractional_rendering(self):
        r = embed(k("theta"), vft(), 3).pth_root()
        assert local_to_str(r) == "[2*t] + u^(1/3)*[1] + O(u^1)"

    def test_grid_mixing_refines_automatically(self):
        z = embed(k("theta"), vft(), 3)
        r = z.pth_root()
        d = z - r.frobenius(1)
        assert d.is_zero_to_precision()
        assert d.grid == 1

    def test_refine_preserves_value(self):
        z = embed(k("theta") + k("t") ** 2, vft(), 4)
        w = z.refine(2)
        assert w.grid == 2
        assert (w - z).is_zero_to_precision()

    def test_off_lattice_exponent_rejected(self):
        v = vft()
        with pytest.raises(ValueError):
            LocalElem(v, {Fraction(1, 3): FvElem.one(v)}, 2, grid=0)


class TestResidueSolve:
    def test_certified_kernel_at_linear_place(self):
        v = vft()
        gbar = [residue_reduce(c, v) for c in phi3().phi_t_power(1).coeffs]
        roots, certified = residue_solve(gbar, FvElem.zero(v), v)
        assert certified
        assert [str(r) for r in roots] == ["0", "t", "2*t"]

    def test_certified_no_root(self):
        v = vft()
        gbar = [residue_reduce(c, v) for c in carlitz().phi_t_power(1).coeffs]
        roots, certified = residue_solve(gbar, residue_reduce(k("t^2"), v), v)
        assert certified and roots == ()

    def test_particular_plus_kernel(self):
        v = vft()
        gbar = [residue_reduce(c, v) for c in phi3().phi_t_power(1).coeffs]
        y = gbar[0] + gbar[1]  # the image of 1 under the map
        roots, certified = residue_solve(gbar, y, v)
        assert certified and len(roots) == 3
        for r in roots:
            img = gbar[0] * r + gbar[1] * r ** P
            assert img == y
        assert FvElem.one(v) in roots

    def test_quadratic_place_kernel_found(self):
        # over F_3(t)[g]/(g^2+t) the kernel of tX + X^3 is {0, g, -g}
        v = Place.parse(P, "finite:theta^2+t")
        gbar = [residue_reduce(c, v) for c in carlitz().phi_t_power(1).coeffs]
        roots, certified = residue_solve(gbar, FvElem.zero(v), v)
        assert not certified
        assert len(roots) == 3
        gbar_elem = residue_reduce(k("theta"), v)
        assert gbar_elem in roots

    def test_kernel_of_an_all_zero_system(self):
        # both basis elements 1 and t of the Moore polynomial's reduction
        # at theta = -t are roots, so the linear system has no equations;
        # the kernel is all of span(1, t), nine roots a + bt
        v = vft()
        gbar = [residue_reduce(c, v) for c in tp_parse(P, MOORE[P]).coeffs]
        roots, certified = residue_solve(gbar, FvElem.zero(v), v)
        assert certified
        want = {str(FvElem.from_felem(v, FElem.from_rpoly(
            RPoly.from_coeffs(P, [a, b])))) for a in range(P) for b in range(P)}
        assert sorted(str(r) for r in roots) == sorted(want)
        assert all(fv_tp_eval(gbar, r).is_zero() for r in roots)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("place", ["finite:theta+t",
                                       "finite:theta^2+theta+t"])
    def test_roots_are_the_kernel_coset(self, p, place):
        # the Moore polynomial of span(1, theta) reduces to an additive map
        # whose kernel is F_p + F_p theta-bar
        v = Place.parse(p, place)
        f = tp_parse(p, MOORE[p])
        gbar = [residue_reduce(c, v) for c in f.coeffs]
        kernel = [FvElem.one(v), residue_reduce(KElem.theta(p), v)]
        for text in ("t*theta^2+1", "theta^3+t"):
            xbar = residue_reduce(kelem_parse(p, text), v)
            roots, _ = residue_solve(gbar, fv_tp_eval(gbar, xbar), v)
            want = set()
            for digits in itertools.product(range(p), repeat=2):
                z = xbar
                for c, w in zip(digits, kernel):
                    z = z + w.scale(FElem.const(p, c))
                want.add(str(z))
            assert sorted(str(r) for r in roots) == sorted(want)


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

        def fv(x):
            return FvElem.from_felem(v, x)

        checked = 0
        for _ in range(12):
            coeffs = [fv(rng.choice(small)) for _ in range(rng.randrange(2, 4))]
            if coeffs[-1].is_zero():
                coeffs[-1] = FvElem.one(v)
            y = fv_tp_eval(coeffs, fv(rng.choice(small)))
            roots, certified = residue_solve(coeffs, y, v)
            assert certified
            for x in small:
                if fv_tp_eval(coeffs, fv(x)) == y:
                    assert fv(x) in roots
                    checked += 1
        assert checked >= 12


class TestHensel:
    def test_separable_recovers_known_root(self):
        phi = carlitz()
        v = vft()
        y = embed(tp_eval(phi.phi_t_power(1), k("theta")), v, 6)
        x = hensel_solve(phi, T_OP, y, 6)
        assert x.agrees(embed(k("theta"), v, 6), 6)

    def test_residual_meets_target(self):
        phi = carlitz()
        v = vft()
        data = tp_eval(phi.phi_t_power(1), k("theta")) \
            + k("theta+t") ** 5 * k("t+1")
        y = embed(data, v, 8)
        x = hensel_solve(phi, T_OP, y, 8)
        residual = tp_eval_local(phi.phi_t_power(1), x) - y
        assert residual.is_zero_to_precision()
        assert residual.precision >= 8
        # the correction away from theta sits at depth 5 - v(t) = 5
        assert (x - embed(k("theta"), v, 8)).val() == 5

    def test_certified_obstruction(self):
        with pytest.raises(NoResidueRoot) as info:
            hensel_solve(carlitz(), T_OP, embed(k("t^2"), vft(), 4), 4)
        assert info.value.certified

    def test_inseparable_lands_on_refined_grid(self):
        phi = psi()
        v = vft()
        y = embed(tp_eval(phi.phi_t_power(1), k("theta")), v, 6)
        x = hensel_solve(phi, T_OP, y, 6)
        assert x.grid == 1
        assert x.precision == Fraction(2)
        assert x.agrees(embed(k("theta"), v, 6).refine(1), 2)

    def test_inseparable_square_operator(self):
        phi = psi()
        v = vft()
        a = RPoly.monomial(P, 2)  # t^2: root depth two, grid 1/9
        y = embed(tp_eval(phi.phi_t_power(2), k("theta")), v, 9)
        x = hensel_solve(phi, a, y, 9)
        assert x.grid == 2
        assert x.agrees(embed(k("theta"), v, 9).refine(2), x.precision)

    def test_shallow_target_rejected(self):
        phi = carlitz()
        y = embed(k("theta"), vft(), 2)
        with pytest.raises(PrecisionUnderflow):
            hensel_solve(phi, T_OP, y, 5)

    def test_nonintegral_target_rejected(self):
        with pytest.raises(ValueError):
            hensel_solve(carlitz(), T_OP,
                         embed(k("theta+t").inverse(), vft(), 3), 3)

    def test_quadratic_place_lift(self):
        phi = carlitz()
        v = Place.parse(P, "finite:theta^2+t")
        y = embed(tp_eval(phi.phi_t_power(1), k("theta")), v, 4)
        x = hensel_solve(phi, T_OP, y, 4)
        residual = tp_eval_local(phi.phi_t_power(1), x) - y
        assert residual.is_zero_to_precision()
