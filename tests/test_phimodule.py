import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab import drinfeld
from drinfeldlab.adelic import closure_torsion_check, quotient_iso_check
from drinfeldlab.base import Echelon, RPoly
from drinfeldlab.drinfeld import (DrinfeldModule, phi_action, reduce_point,
                                  reduction, torsion_annihilator)
from drinfeldlab.kfield import KElem, kelem_parse, kelem_to_str
from drinfeldlab.phimodule import (
    PhiModule,
    _apply_operators,
    _iterate_family,
    _op_on_point,
    _orbit,
    _weights_to_operators,
    divisible_hull,
    is_full,
    member,
    member_many,
    module_parse,
    module_to_str,
    point_add,
    point_apply,
    point_neg,
    point_parse,
    point_to_str,
    quotient,
    syzygies,
    torsion_submodule,
)
from drinfeldlab.places import Place, place_parse, residue_reduce
from drinfeldlab.twisted import tp_eval

from helpers import (coset_oracle, enumerated_hull, enumerated_hull_scan,
                     hull_targets)

P = 3
T_OP = RPoly.monomial(P, 1)


def k(text):
    return kelem_parse(P, text)


def carlitz():
    return DrinfeldModule.parse(P, "[t, 1]")


def psi():
    return DrinfeldModule.parse(P, "[0, theta, 1]")


def phi3():
    return DrinfeldModule.parse(P, "[t, (2*t)/(theta^2)]")


def free_line():
    return PhiModule(carlitz(), 1, [(k("theta"),)])


class TestPointGrammar:
    def test_roundtrip(self):
        x = point_parse(P, "(theta, (2*t)/(theta^2))")
        assert point_to_str(x) == "(theta, (2*t)/(theta^2))"

    def test_module_roundtrip(self):
        gamma = PhiModule(phi3(), 1, [(k("theta"),), (k("1"),)])
        assert module_parse(P, module_to_str(gamma)) == gamma

    def test_zero_generators_dropped(self):
        gamma = PhiModule(carlitz(), 2,
                          [(KElem.zero(P), KElem.zero(P)),
                           (k("theta"), k("1"))])
        assert gamma.rank == 1


class TestSyzygies:
    def test_free_rank_one(self):
        assert syzygies(free_line(), 8).shape[0] == 0

    def test_dependent_pair(self):
        phi = carlitz()
        theta = k("theta")
        gamma = PhiModule(phi, 1, [(theta,), (tp_eval(phi.phi_t, theta),)])
        rel = syzygies(gamma, 1)
        assert rel.shape == (1, 2)
        assert [str(e) for e in rel.rows[0]] == ["t", "2"]

    def test_cyclic_torsion(self):
        gamma = PhiModule(phi3(), 1, [(k("theta"),)])
        rel = syzygies(gamma, 1)
        assert [[str(e) for e in row] for row in rel.rows] == [["t"]]

    def test_zero_family_relates_everything(self):
        # the constructor drops zero generators, so set one directly: its
        # iterate family is all zero and gives no equations, and every
        # operator (1, t, t^2 up to deg_bound) is then a relation
        gamma = free_line()
        gamma.gens = ((KElem.zero(P),),)
        rel = syzygies(gamma, 2)
        assert [[str(e) for e in row] for row in rel.rows] == [
            ["1"], ["t"], ["t^2"]]

    def test_presentation_cache_reused(self):
        gamma = free_line()
        first = gamma.presentation(4)
        assert gamma.presentation(3) is first
        bigger = gamma.presentation(6)
        assert bigger.shape[0] == 0


class TestMember:
    def test_certificate(self):
        phi = carlitz()
        cert = member(free_line(), (tp_eval(phi.phi_t, k("theta")),), 2)
        assert cert.found
        assert str(cert) == "Certificate(t)"

    def test_zero_is_always_member(self):
        cert = member(free_line(), (KElem.zero(P),), 5)
        assert cert.found and all(a.is_zero() for a in cert.operators)

    def test_bounded_miss(self):
        cert = member(free_line(), (k("theta^2"),), 6)
        assert not cert.found
        assert str(cert) == "NotFoundUpTo(6)"

    def test_certificates_verify(self):
        phi = carlitz()
        theta = k("theta")
        y = tp_eval(phi.phi_t_power(2), theta) + theta
        cert = member(free_line(), (y,), 3)
        assert cert.found and str(cert.operators[0]) == "t^2+1"


_PREPARED_DEG = 3
_ZERO = KElem.zero(P)
# a member sum Phi_{a_i}(x_i) with deg a_i <= 2, or one shifted off the
# module by a polynomial or by a denominator that no D_s has
_TARGETS = st.tuples(
    st.lists(st.lists(st.integers(0, P - 1), min_size=3, max_size=3),
             min_size=2, max_size=2),
    st.sampled_from([None, "theta^2", "1/(theta+1)"]))


def _rational_plane():
    """Carlitz, g = 2, with a pole at theta in slot 1: D_1 = theta^27."""
    return PhiModule(carlitz(), 2, [(k("theta"), k("1/theta")),
                                    (KElem.one(P), k("theta^2"))])


def _target(gamma, drawn):
    coeffs, shift = drawn
    y = _apply_operators(gamma, [RPoly.from_coeffs(P, c) for c in coeffs])
    return y if shift is None else point_add(y, (k(shift), _ZERO))


class TestPreparedFamily:
    """PhiModule.family is a cache: it never changes an answer."""

    @settings(max_examples=25, deadline=None)
    @given(_TARGETS, _TARGETS, st.booleans())
    def test_warm_module_answers_like_a_fresh_one(self, drawn, other, warm_first):
        fresh = _rational_plane()
        want = member(fresh, _target(fresh, drawn), _PREPARED_DEG)
        assert want.found == (drawn[1] is None)
        want_syz = syzygies(_rational_plane(), _PREPARED_DEG)
        warm = _rational_plane()
        y, z = _target(warm, drawn), _target(warm, other)
        if warm_first:
            member_many(warm, [z], _PREPARED_DEG)
            got = member(warm, y, _PREPARED_DEG)
        else:
            got = member(warm, y, _PREPARED_DEG)
            member_many(warm, [z], _PREPARED_DEG)
        assert got == want
        assert member(warm, y, _PREPARED_DEG) == want
        assert syzygies(warm, _PREPARED_DEG) == want_syz
        assert warm.family(_PREPARED_DEG) is warm.family(_PREPARED_DEG)

    def test_denominator_outside_d_s_is_decided_before_reduction(self, monkeypatch):
        gamma = _rational_plane()
        family = gamma.family(_PREPARED_DEG)
        assert [str(d) for d in family.dens] == ["1", "theta^27"]
        solves = []
        monkeypatch.setattr(Echelon, "solve",
                            lambda self, target: solves.append(target))
        for y in [(k("1/(theta+1)"), _ZERO), (_ZERO, k("1/theta^28")),
                  (k("theta"), k("t/(theta^2+1)"))]:
            assert str(member(gamma, y, _PREPARED_DEG)) == \
                f"NotFoundUpTo({_PREPARED_DEG})"
        assert solves == []

    def test_monomial_outside_the_support_is_decided_before_reduction(
            self, monkeypatch):
        gamma = _rational_plane()
        gamma.family(_PREPARED_DEG)
        reductions = []
        monkeypatch.setattr(Echelon, "_reduce",
                            lambda self, col, comb: reductions.append(col))
        cert = member(gamma, (k("theta^2"), _ZERO), _PREPARED_DEG)
        assert not cert.found and reductions == []


class TestQuotient:
    def test_free_mod_t(self):
        q = quotient(free_line(), T_OP)
        assert q.order == 3
        assert [str(d) for d in q.invariant_factors] == ["t"]
        assert [point_to_str(r) for r in q.reps] == ["(0)", "(theta)", "(2*theta)"]

    def test_unit_operator(self):
        q = quotient(free_line(), RPoly.one(P))
        assert q.order == 1 and len(q.reps) == 1

    def test_rank_two(self):
        zero = KElem.zero(P)
        gamma = PhiModule(carlitz(), 2, [(k("theta"), zero), (zero, k("theta"))])
        q = quotient(gamma, T_OP)
        assert q.order == 9 and len(q.reps) == 9

    def test_reps_are_lex_minimal(self):
        q = quotient(free_line(), RPoly.monomial(P, 1) + RPoly.one(P))
        codes = [tuple(str(a) for a in ops) for ops in q.rep_operators]
        assert codes[0] == ("0",)
        assert len(set(codes)) == q.order

    def test_reps_pairwise_inequivalent(self):
        gamma = free_line()
        q = quotient(gamma, T_OP)
        image = PhiModule(gamma.phi, 1,
                          [(tp_eval(gamma.phi.phi_t, x[0]),) for x in gamma.gens])
        for i in range(len(q.reps)):
            for j in range(i + 1, len(q.reps)):
                diff = (q.reps[i][0] - q.reps[j][0],)
                assert not member(image, diff, 8).found

    def test_order_stable_across_presentations(self):
        # <theta, C_t(theta)> and <theta> present the same module, so the
        # quotients by t must agree
        phi = carlitz()
        theta = k("theta")
        redundant = PhiModule(phi, 1, [(theta,), (tp_eval(phi.phi_t, theta),)])
        q1 = quotient(redundant, T_OP)
        q2 = quotient(free_line(), T_OP)
        assert q1.order == q2.order == 3
        assert {point_to_str(r) for r in q1.reps} == {point_to_str(r) for r in q2.reps}

    def test_torsion_quotient(self):
        gamma = PhiModule(phi3(), 1, [(k("theta"),)])
        q = quotient(gamma, T_OP)
        assert q.order == 3
        assert {point_to_str(r) for r in q.reps} == {"(0)", "(theta)", "(2*theta)"}


# modules by name, each at p: free, torsion (theta is (t+1)-torsion for
# phi_t = t - (t+1)/theta^(p-1) tau) and mixed, of rank 0 to 3
_QUOTIENT_MODULES = ("zero", "free", "plane", "redundant", "torsion", "mixed",
                     "mixed3", "twisted")
_ORACLE_DEG = 4


def _quotient_module(p, name):
    theta, one, zero = KElem.theta(p), KElem.one(p), KElem.zero(p)
    car = DrinfeldModule.parse(p, "[t, 1]")
    tor = DrinfeldModule.parse(p, f"[t, ({p - 1}*t+{p - 1})/(theta^{p - 1})]")
    return {
        "paper-hull": lambda: PhiModule(psi(), 1, [
            (theta ** 9 + theta ** 4,), (theta,), (one,)]),
        "zero": lambda: PhiModule(car, 1, []),
        "free": lambda: PhiModule(car, 1, [(theta,)]),
        "plane": lambda: PhiModule(car, 2, [(theta, zero), (zero, theta)]),
        # one relation of degree 3, so at _ORACLE_DEG it has two rows
        # for rank 3, and two free summands
        "redundant": lambda: PhiModule(car, 1, [
            (theta,), _op_on_point(car, RPoly.from_coeffs(p, [1, 0, 0, 1]),
                                   (theta,)), (theta ** 2,)]),
        "torsion": lambda: PhiModule(tor, 1, [(theta,)]),
        "mixed": lambda: PhiModule(tor, 1, [(theta,), (one,)]),
        "mixed3": lambda: PhiModule(tor, 1, [(theta,), (one,),
                                             (theta + one,)]),
        # theta^2 and theta - Phi_t(theta^2): the relation (t^2 + t, t + 1)
        # pivots on its second entry, so V is not triangular and the
        # torsion row of V^{-1} is (t, 1)
        "twisted": lambda: PhiModule(tor, 1, [
            (theta ** 2,), point_add((theta,), point_neg(_op_on_point(
                tor, RPoly.monomial(p, 1), (theta ** 2,))))]),
    }[name]()


def _quotient_grid():
    """(p, module name, coefficients of a): for each module and degree
    1..3 with p^(rank * deg a) <= 6561, one seeded a, a power of t + 1
    times a random factor, so that gcd(d_i, a) ranges over 1, d_i and a;
    then the paper's hull at t^3, whose rank-3 box holds 19683 tuples."""
    ranks = {"zero": 0, "free": 1, "plane": 2, "redundant": 3, "torsion": 1,
             "mixed": 2, "mixed3": 3, "twisted": 2}
    cases = []
    for p in (2, 3, 5):
        for idx, name in enumerate(_QUOTIENT_MODULES):
            for d in (1, 2, 3):
                if p ** (ranks[name] * d) > 6561:
                    continue
                rng = random.Random(1000 * p + 10 * idx + d)
                k = rng.randrange(d + 1)
                a = RPoly.from_coeffs(p, [1, 1]) ** k * RPoly.from_coeffs(
                    p, [rng.randrange(p) for _ in range(d - k)]
                    + [rng.randrange(1, p)])
                cases.append((p, name, tuple(a.coeff(j)
                                             for j in range(d + 1))))
    cases.append((3, "paper-hull", (0, 0, 0, 1)))
    return cases


class TestQuotientOracle:
    """quotient against the coset enumeration of the presentation stacked
    on a * I: a wrong invariant factor, a wrong V^{-1} or an unreduced
    representative fails it."""

    @pytest.mark.parametrize("p, name, coeffs", _quotient_grid(),
                             ids=lambda v: "-".join(map(str, v))
                             if isinstance(v, tuple) else str(v))
    def test_matches_coset_enumeration(self, p, name, coeffs):
        gamma = _quotient_module(p, name)
        a = RPoly.from_coeffs(p, coeffs)
        q = quotient(gamma, a, _ORACLE_DEG)
        diag, order, key, firsts = coset_oracle(gamma, a, _ORACLE_DEG)
        assert (q.order, q.invariant_factors) == (order, diag)
        assert all(op.degree < a.degree for ops in q.rep_operators
                   for op in ops)
        keys = [key(ops) for ops in q.rep_operators]
        assert len(set(keys)) == len(keys) and set(keys) == set(firsts)
        assert q.reps == tuple(_apply_operators(gamma, ops)
                               for ops in q.rep_operators)

    def test_grid_covers_every_kind(self):
        grid = _quotient_grid()
        assert {name for _, name, _ in grid} == \
            set(_QUOTIENT_MODULES) | {"paper-hull"}
        assert {p for p, _, _ in grid} == {2, 3, 5}
        assert {len(coeffs) - 1 for _, _, coeffs in grid} == {1, 2, 3}

    def test_order_beyond_the_cap_omits_representatives(self):
        # the plane at p = 3 and a = t^5 has 3^10 cosets
        q = quotient(_quotient_module(3, "plane"), RPoly.monomial(3, 5))
        assert q.order == 3 ** 10
        assert (q.reps, q.flags) == ((), ("representatives-omitted",))


class TestTorsionSubmodule:
    def test_free_module(self):
        assert [point_to_str(x) for x in torsion_submodule(free_line())] == ["(0)"]

    def test_cyclic_torsion(self):
        gamma = PhiModule(phi3(), 1, [(k("theta"),)])
        pts = torsion_submodule(gamma)
        assert [point_to_str(x) for x in pts] == ["(0)", "(theta)", "(2*theta)"]

    def test_zero_module(self):
        gamma = PhiModule(carlitz(), 1, [])
        assert [point_to_str(x) for x in torsion_submodule(gamma)] == ["(0)"]

    def test_mixed_module(self):
        # keep the bound small: phi3 iterates of 1 grow theta-denominators fast
        gamma = PhiModule(phi3(), 1, [(k("theta"),), (k("1"),)])
        pts = torsion_submodule(gamma, deg_bound=4)
        assert [point_to_str(x) for x in pts] == ["(0)", "(theta)", "(2*theta)"]


class TestHull:
    def test_hull_gains_division_point(self):
        phi = psi()
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])
        hull = divisible_hull(gamma, prime_bound=1)
        assert member(hull, (k("theta"),), 2).found

    def test_fixpoint_idempotent(self):
        phi = psi()
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])
        hull = divisible_hull(gamma, prime_bound=1)
        again = divisible_hull(hull, prime_bound=1)
        assert again.gens == hull.gens

    def test_already_full(self):
        # theta^2 under Carlitz has no bounded division points below it
        gamma = PhiModule(carlitz(), 1, [(k("theta^2"),)])
        hull = divisible_hull(gamma, prime_bound=2)
        assert hull.gens == gamma.gens

    def test_monotone(self):
        phi = psi()
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])
        hull = divisible_hull(gamma, prime_bound=1)
        for x in gamma.gens:
            assert member(hull, x, 4).found


class TestIsFull:
    def test_not_full_witness(self):
        phi = psi()
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])
        rep = is_full(gamma, prime_bound=1)
        assert rep.kind == "not_full"
        assert point_to_str(rep.witness) == "(theta)"
        assert str(rep.prime) == "t"

    def test_witness_check_reuses_the_scan_family(self, family_bounds):
        # the witness image is checked against the deg-8 membership family
        # that the scan built, so the family is built once, after the
        # degree-0 family of the division targets
        phi = psi()
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])
        assert is_full(gamma, prime_bound=1).kind == "not_full"
        assert family_bounds == [0, 8]

    @pytest.mark.parametrize("spec, gen", [
        ("[0, theta, 1]", "theta"),
        ("[0, theta, 1]", "theta+1"),
        ("[t, 1]", "theta^2"),
        ("[t, theta, 1]", "theta"),
    ])
    def test_witness_agrees_with_member(self, spec, gen):
        # the witness check over the scan's family gives what an
        # independent member solve gives: the witness is outside gamma and
        # its Phi_q-image inside
        phi = DrinfeldModule.parse(P, spec)
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k(gen)),)])
        rep = is_full(gamma, prime_bound=1)
        assert rep.kind == "not_full"
        image = _op_on_point(phi, rep.prime, rep.witness)
        assert member(gamma, image, rep.member_bound).found
        assert not member(gamma, rep.witness, rep.member_bound).found

    def test_hull_is_full(self):
        phi = psi()
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])
        hull = divisible_hull(gamma, prime_bound=1)
        assert is_full(hull, prime_bound=1).kind == "full_up_to_bounds"

    def test_torsion_module_full_once_complete(self):
        gamma = PhiModule(phi3(), 1, [(k("theta"),)])
        rep = is_full(gamma, prime_bound=1)
        assert rep.kind == "full_up_to_bounds"


class TestDecompose:
    """The split of a module into a part whose reductions at the witness
    places are torsion and a free complement, read off closure_torsion_check:
    free_rank is the rank of the complement."""

    @staticmethod
    def split(gamma, deg_bound):
        v = Place.parse(P, "finite:theta+t")
        return closure_torsion_check(gamma, [v], deg_bound)

    def test_free_line_is_all_free(self):
        rep = self.split(PhiModule(psi(), 1, [(k("theta"),)]), 6)
        assert rep.free_rank == 1

    def test_pure_torsion(self):
        rep = self.split(PhiModule(phi3(), 1, [(k("theta"),)]), 4)
        assert rep.free_rank == 0

    def test_mixed_split(self):
        # the torsion part is theta's span, and 1 spans the complement
        gamma = PhiModule(phi3(), 1, [(k("theta"),), (k("1"),)])
        rep = self.split(gamma, 4)
        assert rep.free_rank == 1
        assert sorted(point_to_str(x) for x in rep.pseudo_torsion_points) \
            == ["(0)", "(2*theta)", "(theta)"]

    def test_zero_module(self):
        rep = self.split(PhiModule(carlitz(), 1, []), 4)
        assert rep.free_rank == 0


class TestFvTorsionAnnihilator:
    """The torsion search over the residue field F_v: torsion_annihilator
    of reduction(phi, v) on residues lifted into K."""

    @staticmethod
    def residue(text, v):
        return reduce_point((k(text),), v)[0]

    def test_reduced_torsion(self):
        v = Place.parse(P, "finite:theta+t")
        cert = torsion_annihilator(reduction(phi3(), v),
                                   self.residue("theta", v), 4)
        assert str(cert.annihilator) == "t"
        assert all(torsion_annihilator(reduction(phi3(), v), c, 4).is_torsion
                   for c in reduce_point((k("theta"),), v))

    def test_reduced_non_torsion_up_to_bound(self):
        v = Place.parse(P, "finite:theta+t")
        cert = torsion_annihilator(reduction(psi(), v),
                                   self.residue("theta", v), 8)
        assert not cert.is_torsion
        assert not all(torsion_annihilator(reduction(psi(), v), c, 8).is_torsion
                       for c in reduce_point((k("theta"),), v))

    def test_one_coordinates_call_per_search(self, monkeypatch):
        # the residue orbit is coordinatised once, not once per degree
        calls = []

        def counted(xs):
            xs = list(xs)
            calls.append(len(xs))
            return coordinate(xs)

        coordinate = drinfeld.coordinates
        monkeypatch.setattr(drinfeld, "coordinates", counted)
        v = Place.parse(P, "finite:theta+t")
        xbar = self.residue("theta", v)
        assert str(torsion_annihilator(reduction(phi3(), v), xbar, 4)
                   .annihilator) == "t"
        assert not torsion_annihilator(reduction(psi(), v), xbar, 8).is_torsion
        assert calls == [5, 9]

    def test_zero_is_torsion(self):
        v = Place.parse(P, "finite:theta+t")
        cert = torsion_annihilator(reduction(psi(), v), KElem.zero(P), 3)
        assert cert.annihilator.is_one()


# -- the one iterate family and operator application, against composed oracles


_ACTIONS = [(2, "[t, 1]"), (2, "[t, theta, 1]"), (3, "[0, theta, 1]"),
            (3, "[t, (2*t)/(theta^2)]")]


def _seeded_module(p, text, seed, rank=2, g=2):
    """Generators with random coordinates c(t) * theta^j + d, small degrees."""
    rng = random.Random(seed)
    theta = KElem.theta(p)

    def coord():
        c = KElem.from_rpoly(RPoly.from_coeffs(
            p, [rng.randrange(p) for _ in range(2)]))
        return c * theta ** rng.randrange(3) + KElem.const(p, rng.randrange(p))

    gens = [tuple(coord() for _ in range(g)) for _ in range(rank)]
    return PhiModule(DrinfeldModule.parse(p, text), g, gens)


def _seeded_ops(p, rank, seed, deg=3):
    rng = random.Random(seed)
    return tuple(RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(deg + 1)])
                 for _ in range(rank))


class TestIterateFamily:
    @pytest.mark.parametrize("p, text", _ACTIONS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_composed_powers(self, p, text, seed):
        gamma = _seeded_module(p, text, seed)
        bound = 3
        composed = [point_apply(gamma.phi.phi_t_power(j), x)
                    for x in gamma.gens for j in range(bound + 1)]
        assert _iterate_family(gamma, bound) == composed

    @pytest.mark.parametrize("p, text", _ACTIONS)
    def test_weights_read_in_family_layout(self, p, text):
        # a weight vector on the family and the operators it encodes name
        # the same point
        gamma = _seeded_module(p, text, 2)
        bound = 2
        rng = random.Random(3)
        weights = [rng.randrange(p) for _ in range(gamma.rank * (bound + 1))]
        acc = gamma.zero_point()
        for w, z in zip(weights, _iterate_family(gamma, bound)):
            for _ in range(w):
                acc = point_add(acc, z)
        ops = _weights_to_operators(weights, gamma.rank, bound, p)
        assert _apply_operators(gamma, ops) == acc


class TestApplyOperators:
    @pytest.mark.parametrize("p, text", _ACTIONS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_composed_action(self, p, text, seed):
        gamma = _seeded_module(p, text, seed)
        ops = _seeded_ops(p, gamma.rank, seed)
        want = gamma.zero_point()
        for a, x in zip(ops, gamma.gens):
            want = point_add(want, point_apply(phi_action(gamma.phi, a), x))
        assert _apply_operators(gamma, ops) == want

    @pytest.mark.parametrize("p, text", _ACTIONS)
    def test_one_point(self, p, text):
        gamma = _seeded_module(p, text, 4)
        x = gamma.gens[0]
        for a in _seeded_ops(p, 3, 5) + (RPoly.zero(p), RPoly.one(p)):
            assert _op_on_point(gamma.phi, a, x) == \
                point_apply(phi_action(gamma.phi, a), x)


# -- the lineage memo ------------------------------------------------------------


_LINEAGE_ACTIONS = [(2, "[t, theta, 1]"), (3, "[0, theta, 1]"), (5, "[t, 1]")]


def _unshared(gamma):
    """A copy of gamma that starts a lineage of its own."""
    return PhiModule(gamma.phi, gamma.g, gamma.gens)


def _lineage(p, text, seed, member_bound=8):
    """Modules of one lineage, each built when it is drawn: a seeded rank-3
    root, its sub-modules on every non-empty subset of the generators
    (ranks 1-3), and the divisible hulls of its first generator and of the
    root, whose scans iterate the orbits to member_bound."""
    root = _seeded_module(p, text, seed, rank=3, g=1 + seed % 2)
    yield root
    for r in (1, 2, 3):
        for gens in itertools.combinations(root.gens, r):
            yield root.sub(gens)
    for m in (root.sub(root.gens[:1]), root):
        yield divisible_hull(m, prime_bound=1, member_bound=member_bound,
                             max_rounds=2)


def _seeded_points(family, p, seed, count=20):
    """F_p-combinations of the family's points, every other one shifted off
    the span by a constant in slot 0."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        y = tuple(KElem.zero(p) for _ in family.points[0])
        for z in family.points:
            w = KElem.const(p, rng.randrange(p))
            y = point_add(y, tuple(w * c for c in z))
        if n % 2:
            y = (y[0] + KElem.const(p, 1 + rng.randrange(p - 1)),) + y[1:]
        out.append(y)
    return out


class TestLineageMemo:
    """Modules of one lineage share orbits and families; neither changes
    an answer."""

    @pytest.mark.parametrize("p, text", _LINEAGE_ACTIONS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_shared_family_equals_unshared(self, p, text, seed):
        # the bound-8 families come from the memo's longer orbits; solve
        # runs at bound 3, where the echelons are small
        for m in _lineage(p, text, seed):
            for bound in (8, 3):
                got, want = m.family(bound), _unshared(m).family(bound)
                assert got.points == want.points
                assert got.dens == want.dens
            ys = _seeded_points(want, p, seed)
            assert [got.solve(y) for y in ys] == [want.solve(y) for y in ys]

    @pytest.mark.parametrize("p, text", _LINEAGE_ACTIONS)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bounds", [(3, 8), (8, 3)])
    def test_orbit_prefixes_match_a_fresh_module(self, p, text, seed, bounds):
        # the memo starts cold, so (3, 8) extends every orbit's tail, the
        # hulls' new generators included, and (8, 3) reads prefixes
        for m in _lineage(p, text, seed, member_bound=3):
            for bound in bounds:
                got = _iterate_family(m, bound)
                assert got == _iterate_family(_unshared(m), bound)
                assert got == [z for x in m.gens
                               for z in _orbit(m.phi, x, bound)]

    def test_sub_shares_the_memo(self):
        phi = psi()
        gamma = PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])
        hull = divisible_hull(gamma, prime_bound=1)
        sub = hull.sub(hull.gens[1:], ("note",))
        assert (sub.phi, sub.g, sub.notes) == (hull.phi, hull.g, ("note",))
        assert sub._memo is gamma._memo
        assert _unshared(sub)._memo is not gamma._memo

    def test_presentation_and_family_kept_per_generator_tuple(self):
        # the lineage serves a sub-module on the same generators; a fresh
        # but equal module builds its own
        gamma = free_line()
        first, family = gamma.presentation(4), gamma.family(4)
        same = gamma.sub(gamma.gens)
        assert same.presentation(3) is first and same.family(4) is family
        fresh = _unshared(gamma)
        assert fresh == gamma
        assert fresh.presentation(4) is not first
        assert fresh.family(4) is not family

    @pytest.mark.parametrize("call", [
        lambda gamma, bound: quotient(gamma, T_OP, bound),
        lambda gamma, bound: torsion_submodule(gamma, bound),
        lambda gamma, bound: quotient_iso_check(gamma, T_OP, deg_bound=bound),
    ], ids=["quotient", "torsion_submodule", "quotient_iso_check"])
    @pytest.mark.parametrize("bound", [0, -1])
    def test_bad_bound_refused_fresh_and_after_the_memo(self, call, bound):
        # a presentation at bound 2 in the lineage must not serve bound 0
        gamma = PhiModule(psi(), 1, [(k("theta"),), (k("theta^2"),)])
        for warm in (False, True):
            if warm:
                gamma.presentation(2)
            with pytest.raises(ValueError, match="deg_bound must be >= 1"):
                call(gamma, bound)


# -- the hull scan against the enumerating scan -------------------------------


def _product_hull_targets(gamma, dq):
    """The division targets sum Phi_{rem_i}(x_i), deg rem_i < dq, by nested
    itertools.product over the remainders' coefficient vectors, then
    deduplicated."""
    p, r = gamma.p, gamma.rank
    zero = gamma.zero_point()
    family = _iterate_family(gamma, dq - 1)
    rems = [digits[::-1] for digits in itertools.product(range(p), repeat=dq)]
    targets = []
    seen = set()
    for rem in itertools.product(rems, repeat=r):
        y = zero
        for c, z in zip(itertools.chain.from_iterable(rem), family):
            if c:
                y = point_add(y, tuple(KElem.const(p, c) * u for u in z))
        key = point_to_str(y)
        if key not in seen:
            seen.add(key)
            targets.append(y)
    return targets


_SPAN_ACTIONS = {2: "[t, theta, 1]", 3: "[0, theta, 1]"}


class TestHullTargets:
    """The enumerating scan's targets, the fp_span of _window_vectors, come
    in remainder order: the digit order of c in which the hull scan's
    least target is defined."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("dq", [1, 2])
    def test_matches_product_construction(self, p, rank, dq):
        gamma = _seeded_module(p, _SPAN_ACTIONS[p], rank, rank=rank, g=1)
        assert hull_targets(gamma, dq) == _product_hull_targets(gamma, dq)

    def test_rank_zero(self):
        gamma = PhiModule(psi(), 2, [])
        assert hull_targets(gamma, 2) == [gamma.zero_point()]


_SCAN_ACTIONS = [(2, "[t, theta, 1]"), (2, "[t, 1]"), (2, "[0, 1, theta]"),
                 (3, "[0, theta, 1]"), (3, "[t, 1]"), (3, "[0, theta^2, 1]"),
                 (5, "[t, 1]"), (5, "[0, theta, 1]")]
_SCAN_GRID = [(p, text, rank, g, prime_bound)
              for p, text in _SCAN_ACTIONS for rank in (1, 2, 3)
              for g in (1, 2) for prime_bound in (1, 2)
              if p ** (rank * prime_bound) <= 729]


def _divided_module(p, text, seed, rank, g, prime_bound):
    """Generators Phi_b(x), some plus the generator before: each x is a
    division point of a prime factor of b, of degree <= prime_bound."""
    rng = random.Random(seed)
    phi = DrinfeldModule.parse(p, text)
    theta = KElem.theta(p)
    gens = []
    for _ in range(rank):
        x = tuple(theta ** rng.randrange(2) * KElem.const(p, rng.randrange(p))
                  + KElem.const(p, rng.randrange(p)) for _ in range(g))
        b = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(
            rng.randrange(1, prime_bound + 1))] + [1])
        y = point_apply(phi_action(phi, b), x)
        if gens and rng.randrange(2):
            y = point_add(y, gens[-1])
        gens.append(y)
    return PhiModule(phi, g, gens)


class TestHullScanMatchesEnumeration:
    """is_full and divisible_hull against the scan that lists every
    division target and point (helpers.enumerated_hull_scan): the same
    witness, prime, notes and hull generators, on seeded modules, which
    are mostly full, and on divided ones, which are mostly not full, with
    the first non-member in ker Phi_q or in a later target."""

    @pytest.mark.parametrize("p, text, rank, g, prime_bound", _SCAN_GRID)
    def test_is_full(self, p, text, rank, g, prime_bound):
        for seed in (0, 1):
            for gamma in (_seeded_module(p, text, seed, rank=rank, g=g),
                          _divided_module(p, text, seed, rank, g,
                                          prime_bound)):
                want = enumerated_hull_scan(_unshared(gamma), prime_bound, 3)
                rep = is_full(gamma, prime_bound=prime_bound, member_bound=3)
                assert (rep.witness, rep.prime, set(rep.notes)) == want
                assert rep.kind == ("full_up_to_bounds" if want[0] is None
                                    else "not_full")

    @pytest.mark.parametrize("p, text", _SCAN_ACTIONS)
    @pytest.mark.parametrize("prime_bound", [1, 2])
    def test_divisible_hull(self, p, text, prime_bound):
        for rank in (1, 2):
            if p ** (rank * prime_bound) > 729:
                continue
            gamma = _divided_module(p, text, rank, rank, 1, prime_bound)
            hull = divisible_hull(gamma, prime_bound=prime_bound,
                                  member_bound=3, max_rounds=2)
            want = enumerated_hull(_unshared(gamma), prime_bound, 3, 2)
            assert (hull.gens, hull.notes) == want

    def test_p5_rank3_hull(self):
        # 5^6 = 15,625 targets for each degree-2 prime
        phi = DrinfeldModule.parse(5, "[0, theta, 1]")
        start = PhiModule(phi, 1, [(tp_eval(phi.phi_t, KElem.theta(5)),)])
        hull = divisible_hull(start, prime_bound=1)
        assert [point_to_str(x) for x in hull.gens] == \
            ["(theta^25+theta^6)", "(theta)", "(1)"]
        rep = is_full(hull)
        assert (rep.kind, rep.notes) == ("full_up_to_bounds", ())
        assert enumerated_hull_scan(_unshared(hull), 2) == (None, None, set())

    @pytest.mark.parametrize("prime_bound", [0, -1])
    def test_prime_bound_below_one_refused(self, prime_bound):
        with pytest.raises(ValueError, match="prime bound must be positive"):
            is_full(_psi_start(), prime_bound=prime_bound)


def _psi_start():
    phi = psi()
    return PhiModule(phi, 1, [(tp_eval(phi.phi_t, k("theta")),)])


class TestFullnessRecorded:
    """is_full and divisible_hull against values recorded before the hull
    scan shared its division targets and membership family.  The notes are
    those of the sharp solver bounds: the loose ones flagged
    theta-bound-capped and denominator-profile-truncated on the psi cases
    at prime bound 2."""

    @pytest.mark.parametrize("build, prime_bound, kind, witness, prime, notes", [
        (_psi_start, 1, "not_full", "(theta)", "t", ()),
        (_psi_start, 2, "not_full", "(theta)", "t", ()),
        (lambda: PhiModule(carlitz(), 1, [(k("theta^2"),)]), 2,
         "full_up_to_bounds", None, None, ()),
        (lambda: PhiModule(phi3(), 1, [(k("theta"),)]), 1,
         "full_up_to_bounds", None, None, ()),
        (lambda: PhiModule(psi(), 1, []), 2, "full_up_to_bounds", None, None,
         ()),
        (lambda: module_parse(2, "[t, 1] :: 1 :: (theta)"), 2,
         "not_full", "(t)", "t", ()),
        (lambda: module_parse(2, "[t, theta, 1] :: 2 :: (theta, 0); (1, theta)"),
         1, "full_up_to_bounds", None, None, ()),
    ])
    def test_is_full(self, build, prime_bound, kind, witness, prime, notes):
        rep = is_full(build(), prime_bound=prime_bound)
        assert rep.kind == kind
        assert (None if rep.witness is None else point_to_str(rep.witness)) \
            == witness
        assert (None if rep.prime is None else str(rep.prime)) == prime
        assert rep.notes == notes

    @pytest.mark.parametrize("build, prime_bound, gens, notes", [
        (_psi_start, 1, ["(theta^9+theta^4)", "(theta)", "(1)"], ()),
        (_psi_start, 2, ["(theta^9+theta^4)", "(theta)", "(1)"], ()),
        (lambda: PhiModule(psi(), 1, []), 2, [], ()),
        (lambda: module_parse(2, "[t, 1] :: 1 :: (theta)"), 2,
         ["(theta)", "(t)", "(t+1)"], ()),
    ])
    def test_divisible_hull(self, build, prime_bound, gens, notes):
        hull = divisible_hull(build(), prime_bound=prime_bound)
        assert [point_to_str(x) for x in hull.gens] == gens
        assert hull.notes == notes


def _small_poly(data, p):
    """A drawn polynomial sum c_ij t^i theta^j, i <= 1, j <= 2."""
    digits = data.draw(st.lists(st.integers(0, p - 1), min_size=6, max_size=6))
    t, theta = KElem.t(p), KElem.theta(p)
    acc = KElem.zero(p)
    for (i, j), c in zip(itertools.product(range(2), range(3)), digits):
        acc = acc + KElem.const(p, c) * t ** i * theta ** j
    return acc


def _small_kelem(data, p):
    den = _small_poly(data, p)
    return _small_poly(data, p) / (den if den else KElem.one(p))


def _paths(x, y, z):
    """Elements reached from x, y, z along several arithmetic paths, many
    of them equal by the field laws."""
    out = [x, (x + y) - y, y + x - y + z - z, x + y, y + x, z,
           x ** x.p, x.frob(1)]
    if y:
        out += [x * y / y, (x / y) * y]
    return out


def _assert_value_is_identity(values, text):
    for a, b in itertools.product(values, repeat=2):
        assert (a == b) == (text(a) == text(b))
        if a == b:
            assert hash(a) == hash(b)


class TestValueIsIdentity:
    """Two values along different arithmetic paths are equal exactly when
    they print equally, and equal values hash equally: text is for
    reports, and the value itself is the set and dict key."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_kelems_and_points(self, p, data):
        x, y, z = (_small_kelem(data, p) for _ in range(3))
        values = _paths(x, y, z)
        _assert_value_is_identity(values, kelem_to_str)
        points = list(itertools.product(values[:4], values[5:7]))
        _assert_value_is_identity(points, point_to_str)
        assert len(set(points)) == len({point_to_str(x) for x in points})

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("place", ["finite:theta+t"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_residues(self, p, place, data):
        v = place_parse(p, place)
        pi = kelem_parse(p, place.split(":")[1])
        x, y, z = (_small_poly(data, p) for _ in range(3))
        values = [x, (x + y) - y, x + pi * z, x * (KElem.one(p) + pi * y),
                  y, x + y, z]
        residues = [residue_reduce(c, v) for c in values]
        _assert_value_is_identity(residues, str)
        assert residues[0] == residues[2] == residues[3]
