import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldlab.base import (
    Echelon,
    FElem,
    RMatrix,
    RPoly,
    check_modulus,
    felem_parse,
    fp_solve_many,
    fp_span,
    inv_mod,
    rpoly_parse,
    rpoly_to_str,
    smith_normal_form,
)
from drinfeldlab.kfield import KElem
from drinfeldlab.places import place_parse, residue_reduce

from helpers import bipoly_from_theta_coeffs, is_unimodular


def rnd_rpoly(rng, p, max_deg, nonzero=False):
    while True:
        f = RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(max_deg + 1)])
        if not nonzero or not f.is_zero():
            return f


def rnd_felem(rng, p, max_deg):
    num = rnd_rpoly(rng, p, max_deg)
    den = rnd_rpoly(rng, p, max_deg, nonzero=True)
    return FElem(num, den)


class TestModulus:
    def test_valid_primes(self):
        for p in (2, 3, 5, 7, 251):
            assert check_modulus(p) == p

    def test_rejects_nonprimes_and_range(self):
        for bad in (0, 1, 4, 6, 252, 257, -3, "3", True):
            with pytest.raises(ValueError):
                check_modulus(bad)

    def test_mixing_moduli_is_an_error(self):
        a = RPoly.t(3)
        b = RPoly.t(5)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            FElem.one(3) * FElem.one(5)

    def test_inv_mod(self):
        for p in (2, 3, 5, 7):
            for c in range(1, p):
                assert (c * inv_mod(c, p)) % p == 1
        with pytest.raises(ZeroDivisionError):
            inv_mod(0, 5)


class TestRPoly:
    def test_product_example_p3(self):
        # (t+1)(t+2) = t^2 + 3t + 2 = t^2 + 2 over F_3
        a = rpoly_parse(3, "t+1")
        b = rpoly_parse(3, "t+2")
        assert str(a * b) == "t^2+2"

    def test_gcd_example_p3(self):
        # t^2 - 1 = (t-1)(t+1); the gcd with t-1 is t-1, returned monic
        a = rpoly_parse(3, "t^2-1")
        b = rpoly_parse(3, "t-1")
        g = a.gcd(b)
        assert g == rpoly_parse(3, "t+2")
        assert g.lead == 1

    def test_ring_laws_random(self):
        rng = random.Random(101)
        for p in (2, 3, 5):
            for _ in range(40):
                a = rnd_rpoly(rng, p, 5)
                b = rnd_rpoly(rng, p, 5)
                c = rnd_rpoly(rng, p, 5)
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)
                assert a * RPoly.one(p) == a
                assert a + (-a) == RPoly.zero(p)

    def test_divmod_contract(self):
        rng = random.Random(202)
        for p in (2, 3, 5):
            for _ in range(40):
                a = rnd_rpoly(rng, p, 6)
                b = rnd_rpoly(rng, p, 3, nonzero=True)
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(RPoly.t(3), RPoly.zero(3))

    def test_gcd_contract(self):
        rng = random.Random(303)
        for p in (2, 3, 5):
            for _ in range(25):
                a = rnd_rpoly(rng, p, 4, nonzero=True)
                b = rnd_rpoly(rng, p, 4, nonzero=True)
                d = rnd_rpoly(rng, p, 3, nonzero=True)
                g = a.gcd(b)
                assert (a % g).is_zero() and (b % g).is_zero()
                assert g.lead == 1
                assert (a * d).gcd(b * d) == d.monic() * g

    def test_stretch_is_p_power(self):
        rng = random.Random(404)
        for p in (2, 3, 5):
            f = rnd_rpoly(rng, p, 4)
            assert f ** p == f.stretch(p)
            assert f ** (p * p) == f.stretch(p * p)

    def test_compress_roundtrip_and_error(self):
        f = rpoly_parse(3, "t^6+2*t^3+1")
        assert f.compress(3) == rpoly_parse(3, "t^2+2*t+1")
        with pytest.raises(ValueError):
            rpoly_parse(3, "t^2+t").compress(2)

    def test_evaluate_huge_exponent(self):
        f = RPoly.monomial(5, 10 ** 12, 3)
        x = 2
        assert f.evaluate(x) == (3 * pow(2, 10 ** 12, 5)) % 5

    def test_str_canonical(self):
        assert str(RPoly.zero(3)) == "0"
        assert str(rpoly_parse(3, "1+t+0*t^5")) == "t+1"
        assert str(rpoly_parse(5, "3*t^2+4")) == "3*t^2+4"

    def test_parse_rejects_garbage(self):
        for bad in ("", "t^", "q+1", "2**t", "t^-1"):
            with pytest.raises(ValueError):
                rpoly_parse(3, bad)

    def test_parse_print_roundtrip(self):
        rng = random.Random(505)
        for p in (2, 3, 5):
            for _ in range(30):
                f = rnd_rpoly(rng, p, 6)
                assert rpoly_parse(p, rpoly_to_str(f)) == f


class TestFElem:
    def test_canonical_form(self):
        # (t^2-1)/(2t-2) reduces to (t+1)/2 = 2t+2 over F_3 with monic den
        x = felem_parse(3, "(t^2+2)/(2*t+1)")
        assert x.den.is_one() or x.den.lead == 1
        num, den = x.num, x.den
        assert num.gcd(den).is_one()

    def test_parse_example(self):
        x = felem_parse(3, "(t^2+2*t+1)/(t^3+1)")
        # t^3+1 = (t+1)^3 over F_3 and t^2+2t+1 = (t+1)^2, so x = 1/(t+1)
        assert str(x) == "(1)/(t+1)"

    def test_field_laws_random(self):
        rng = random.Random(606)
        for p in (2, 3, 5):
            for _ in range(30):
                a = rnd_felem(rng, p, 3)
                b = rnd_felem(rng, p, 3)
                c = rnd_felem(rng, p, 3)
                assert a * (b + c) == a * b + a * c
                assert (a - b) + b == a
                if not b.is_zero():
                    assert (a / b) * b == a
        with pytest.raises(ZeroDivisionError):
            FElem.one(3) / FElem.zero(3)

    def test_pow_and_frob(self):
        rng = random.Random(707)
        for p in (2, 3, 5):
            a = rnd_felem(rng, p, 3)
            if a.is_zero():
                a = FElem.one(p) + a
            assert a ** 3 == a * a * a
            assert a ** (-2) == (a * a).inverse()
            assert a.frob(1) == a ** p
            assert a.frob(2) == a ** (p * p)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            FElem(RPoly.one(3), RPoly.zero(3))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_add_matches_general_formula(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        digits = st.lists(st.integers(0, p - 1), max_size=5)

        def felem():
            num = RPoly.from_coeffs(p, data.draw(digits))
            den = RPoly.from_coeffs(p, data.draw(digits))
            if den.is_zero() or data.draw(st.booleans()):
                den = RPoly.one(p)
            return FElem(num, den)

        a, b = felem(), felem()
        s = a + b
        want = FElem(a.num * b.den + b.num * a.den, a.den * b.den)
        assert (s.num, s.den) == (want.num, want.den)
        assert s.den.lead == 1 and s.num.gcd(s.den).is_one()


class TestSmith:
    def test_frozen_example(self):
        # [[t, 1], [0, t]] has invariant factors (1, t^2)
        p = 3
        t = RPoly.t(p)
        one = RPoly.one(p)
        zero = RPoly.zero(p)
        a = RMatrix(p, [[t, one], [zero, t]])
        s = smith_normal_form(a)
        assert s.invariant_factors == (one, t * t)
        assert s.u @ a @ s.v == s.d
        assert is_unimodular(s.u) and is_unimodular(s.v)
        assert s.v @ s.vinv == RMatrix.identity(p, 2)

    def test_random_contract(self):
        rng = random.Random(808)
        for p in (2, 3, 5):
            for _ in range(15):
                n = rng.choice((1, 2, 3))
                m = rng.choice((1, 2, 3))
                a = RMatrix(p, [[rnd_rpoly(rng, p, 2) for _ in range(m)]
                                for _ in range(n)])
                s = smith_normal_form(a)
                assert s.u @ a @ s.v == s.d
                assert is_unimodular(s.u) and is_unimodular(s.v)
                assert s.v @ s.vinv == RMatrix.identity(p, m)
                rows = s.d.rows
                for i in range(n):
                    for j in range(m):
                        if i != j:
                            assert rows[i][j].is_zero()
                diag = [rows[i][i] for i in range(min(n, m))]
                for d1, d2 in zip(diag, diag[1:]):
                    if not d1.is_zero():
                        if d2.is_zero():
                            continue
                        assert (d2 % d1).is_zero()
                    else:
                        assert d2.is_zero()
                for d in diag:
                    assert d.is_zero() or d.lead == 1

    def test_determinism(self):
        p = 3
        t = RPoly.t(p)
        a = RMatrix(p, [[t + 1, t], [t, t * t]])
        s1 = smith_normal_form(a)
        s2 = smith_normal_form(a)
        assert s1.u == s2.u and s1.v == s2.v and s1.d == s2.d


def _rnd_sparse(rng, p, keys):
    """A sparse vector over F_p on a random subset of keys."""
    return {key: rng.randrange(1, p) for key in keys if rng.random() < 0.5}


def _dense(vec, keys):
    return [vec.get(key, 0) for key in keys]


def _fp_vectors(p, m):
    return itertools.product(range(p), repeat=m)


# -- the dense oracle of Echelon ----------------------------------------------


def _gauss_jordan(rows, p, ncols):
    """Reduced row echelon form over F_p, pivoting in the first ncols
    columns: (rref, pivot_cols).  Columns past ncols (an augmented block)
    are carried along but never pivoted on.  A dense elimination that
    shares no code with Echelon, which it is the oracle of."""
    mat = [[x % p for x in row] for row in rows]
    n = len(mat)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == n:
            break
        sel = None
        for i in range(r, n):
            if mat[i][col]:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = inv_mod(mat[r][col], p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(n):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


def _oracle_solve(rows, rhs, p, ncols):
    rref, pivots = _gauss_jordan([row + [b] for row, b in zip(rows, rhs)],
                                 p, ncols)
    if any(row[ncols] for row in rref[len(pivots):]):
        return None
    sol = [0] * ncols
    for row, pc in zip(rref, pivots):
        sol[pc] = row[ncols]
    return sol


def _oracle_kernel(rows, p, ncols):
    rref, pivots = _gauss_jordan(rows, p, ncols)
    basis = []
    for fc in (j for j in range(ncols) if j not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


def _oracle_first_relation(rows, p, ncols):
    rref, pivots = _gauss_jordan(rows, p, ncols)
    j = next((j for j in range(1, ncols) if j not in pivots), None)
    if j is None:
        return None
    weights = [0] * j
    for row, pc in zip(rref, pivots):
        if pc < j:
            weights[pc] = row[j]
    return j, weights


def _rnd_columns(rng, p, keys, n):
    """n sparse columns over keys, with zero columns and repeats (plain and
    scaled) mixed in."""
    cols = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            cols.append({})
        elif kind < 0.35 and cols:
            c = rng.randrange(1, p)
            cols.append({key: c * x % p for key, x in rng.choice(cols).items()})
        else:
            cols.append(_rnd_sparse(rng, p, keys))
    return cols


class TestEchelonAgainstGaussJordan:
    """Echelon's solve, kernel and first relation equal the dense oracle's on
    seeded systems, with the same vectors, not just the same spans."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_seeded_systems(self, p):
        rng = random.Random(1800 + p)
        seen = set()
        for _ in range(150):
            keys = [(a, b) for a in range(rng.randrange(4)) for b in range(2)]
            cols = _rnd_columns(rng, p, keys, rng.randrange(7))
            weights = [rng.randrange(p) for _ in cols]
            inside = {}
            for w, col in zip(weights, cols):
                for key, c in col.items():
                    inside[key] = (inside.get(key, 0) + w * c) % p
            targets = [{k: c for k, c in inside.items() if c},
                       _rnd_sparse(rng, p, keys + [("extra",)])]
            support = sorted({key for vec in cols + targets for key in vec},
                             key=str)
            rows = [[col.get(key, 0) for col in cols] for key in support]
            echelon = Echelon(cols, p)
            for target in targets:
                want = _oracle_solve(rows, [target.get(key, 0) for key in support],
                                     p, len(cols))
                assert echelon.solve(target) == want
                seen.add("inconsistent" if want is None else "consistent")
            assert echelon.kernel() == _oracle_kernel(rows, p, len(cols))
            assert echelon.first_relation() == \
                _oracle_first_relation(rows, p, len(cols))
            seen.add("no rows" if not rows else "rows")
            seen.add("no columns" if not cols else "columns")
        assert seen == {"consistent", "inconsistent", "no rows", "rows",
                        "no columns", "columns"}

    def test_edge_systems(self):
        # no columns, no rows, a zero column first and a repeated column
        assert Echelon([], 3).solve({}) == []
        assert Echelon([], 3).solve({(0,): 1}) is None
        assert Echelon([], 3).kernel() == []
        assert Echelon([{}, {}], 3).kernel() == [[1, 0], [0, 1]]
        assert Echelon([{}, {}], 3).first_relation() == (1, [0])
        echelon = Echelon([{}, {0: 1}, {0: 2}], 3)
        assert echelon.kernel() == [[1, 0, 0], [0, 1, 1]]
        assert echelon.first_relation() == (2, [0, 2])
        assert echelon.solve({0: 2}) == [0, 2, 0]

    def test_dense_rows_equal_sparse_columns(self):
        rng = random.Random(1818)
        for p in (2, 3, 5):
            for _ in range(30):
                n, m = rng.randrange(4), rng.randrange(5)
                rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
                rhs = [rng.randrange(p) for _ in range(n)]
                assert fp_solve_many(rows, [rhs], p, m) == \
                    [_oracle_solve(rows, rhs, p, m)]
                assert Echelon.from_rows(rows, p, m).kernel() == \
                    _oracle_kernel(rows, p, m)


class TestEchelonInput:
    @pytest.mark.parametrize("p", [0, 1, 4, 6])
    def test_rejects_a_non_prime_modulus(self, p):
        # at p = 4 the dense elimination once returned [[0, 0]] for this
        # system, which it does not solve, and claimed {0: 1} = 0
        with pytest.raises(ValueError):
            Echelon([{0: 2}, {0: 1}], p)
        with pytest.raises(ValueError):
            Echelon.from_rows([[2, 1], [1, 1]], p, 2)
        with pytest.raises(ValueError):
            fp_solve_many([[2, 1], [1, 1]], [[1, 0]], p, 2)

    def test_rejects_a_ragged_row(self):
        with pytest.raises(ValueError):
            Echelon.from_rows([[1, 2], [1]], 3, 2)
        with pytest.raises(ValueError):
            fp_solve_many([[1, 2], [1]], [[0, 0]], 3, 2)

    def test_rejects_a_target_wider_than_the_system(self):
        with pytest.raises(ValueError):
            fp_solve_many([[1, 2]], [[0, 1]], 3, 2)
        with pytest.raises(ValueError):
            fp_solve_many([], [[1]], 3, 2)


class TestFpAgainstEnumeration:
    """Echelon.first_relation and fp_solve_many on small seeded systems,
    against enumeration of every vector of F_p^m."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_first_relation(self, p):
        rng = random.Random(40 + p)
        keys = [(0,), (1,), (2,)]
        for _ in range(40):
            vectors = [_rnd_sparse(rng, p, keys) for _ in range(rng.randrange(1, 5))]
            dense = [_dense(vec, keys) for vec in vectors]

            def relation(j):
                for w in _fp_vectors(p, j):
                    comb = [sum(c * x[i] for c, x in zip(w, dense[:j])) % p
                            for i in range(len(keys))]
                    if comb == dense[j]:
                        return list(w)
                return None

            want_j = next((j for j in range(1, len(vectors))
                           if relation(j) is not None), None)
            got = Echelon(vectors, p).first_relation()
            if want_j is None:
                assert got is None
                continue
            j, weights = got
            assert j == want_j
            comb = [sum(c * x[i] for c, x in zip(weights, dense[:j])) % p
                    for i in range(len(keys))]
            assert comb == dense[j]

    @pytest.mark.parametrize("p", [2, 3])
    def test_solve_many(self, p):
        rng = random.Random(70 + p)
        inconsistent = 0
        for _ in range(40):
            n, m = rng.randrange(1, 4), rng.randrange(1, 4)
            a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
            rhss = [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
            for b, sol in zip(rhss, fp_solve_many(a, rhss, p, m)):
                solutions = [list(x) for x in _fp_vectors(p, m)
                             if all(sum(r * v for r, v in zip(row, x)) % p == bb
                                    for row, bb in zip(a, b))]
                if not solutions:
                    inconsistent += 1
                    assert sol is None
                else:
                    assert sol in solutions
        assert inconsistent  # the seeds reach the inconsistent branch


class TestFpLinear:
    def test_frozen_nullspace_example(self):
        # over F_5 the kernel of [[1,2],[2,4]] is spanned by (3, 1)
        assert Echelon.from_rows([[1, 2], [2, 4]], 5, 2).kernel() == [[3, 1]]

    def test_nullspace_without_rows_is_the_identity(self):
        # no equation constrains any of the three unknowns
        assert Echelon.from_rows([], 3, 3).kernel() == \
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert Echelon.from_rows([], 3, 0).kernel() == []

    def test_nullspace_rejects_a_row_of_the_wrong_width(self):
        with pytest.raises(ValueError):
            Echelon.from_rows([[1, 2]], 3, 3)

    def test_nullspace_against_bruteforce(self):
        rng = random.Random(909)
        for p in (2, 3):
            for _ in range(20):
                n = rng.choice((1, 2, 3))
                m = rng.choice((1, 2, 3, 4))
                a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
                basis = Echelon.from_rows(a, p, m).kernel()
                for vec in basis:
                    assert all(
                        sum(r * x for r, x in zip(row, vec)) % p == 0
                        for row in a
                    )
                # brute-force kernel size = p^dim(basis)
                count = 0
                vec = [0] * m
                for code in range(p ** m):
                    x = code
                    for i in range(m):
                        vec[i] = x % p
                        x //= p
                    if all(sum(r * v for r, v in zip(row, vec)) % p == 0
                           for row in a):
                        count += 1
                assert count == p ** len(basis)

    def test_solve(self):
        rng = random.Random(111)
        for p in (2, 3, 5):
            for _ in range(20):
                n, m = rng.choice(((2, 2), (3, 2), (2, 3)))
                a = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
                x = [rng.randrange(p) for _ in range(m)]
                b = [sum(r * v for r, v in zip(row, x)) % p for row in a]
                sol = fp_solve_many(a, [b], p, m)[0]
                assert sol is not None
                assert all(sum(r * v for r, v in zip(row, sol)) % p == bb
                           for row, bb in zip(a, b))

    def test_solve_inconsistent(self):
        assert fp_solve_many([[1, 1], [1, 1]], [[0, 1]], 3, 2)[0] is None

    def test_solve_without_rows_is_full_width(self):
        # no equation constrains any of the four unknowns
        assert fp_solve_many([], [[], []], 3, 4) == [[0] * 4, [0] * 4]
        assert fp_solve_many([], [], 3, 4) == []
        with pytest.raises(ValueError):
            fp_solve_many([[1, 2]], [[0]], 3, 3)

    def test_solve_many_matches_single(self):
        rng = random.Random(222)
        p = 3
        a = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
        rhss = [[rng.randrange(p) for _ in range(4)] for _ in range(6)]
        batch = fp_solve_many(a, rhss, p, 3)
        for rhs, got in zip(rhss, batch):
            single = fp_solve_many(a, [rhs], p, 3)[0]
            assert (single is None) == (got is None)
            if got is not None:
                assert all(
                    sum(r * v for r, v in zip(row, got)) % p == b
                    for row, b in zip(a, rhs)
                )


# -- the affine F_p-span enumerator -----------------------------------------


def _rnd_bipoly(rng, p):
    return bipoly_from_theta_coeffs(p, [rnd_rpoly(rng, p, 1) for _ in range(2)])


def _rnd_residue(rng, p):
    """A residue in F_p(t) at the place theta + t, from a K-element whose
    denominator is a unit there."""
    den = rng.choice([KElem.one(p), KElem.t(p) + KElem.one(p)])
    return residue_reduce(KElem.from_bipoly(_rnd_bipoly(rng, p)) / den,
                          place_parse(p, "finite:theta+t"))


# kind -> (p -> (rng -> entry, (d, entry) -> d * entry by scaling, not
# by addition), key), where key maps a span point to what must agree
_SPAN_KINDS = {
    "int": lambda p: (lambda rng: rng.randrange(3 * p), lambda d, c: d * c,
                      lambda x: tuple(c % p for c in x)),
    "BiPoly": lambda p: (lambda rng: _rnd_bipoly(rng, p),
                         lambda d, c: c.scale(d), tuple),
    "FElem": lambda p: (lambda rng: _rnd_residue(rng, p),
                        lambda d, c: FElem.const(p, d) * c, tuple),
    # polynomial entries: a sum of fractions canonicalises through bi_gcd,
    # which takes seconds on such spans
    "KElem": lambda p: (lambda rng: KElem.from_bipoly(_rnd_bipoly(rng, p)),
                        lambda d, c: KElem.const(p, d) * c, tuple),
}


def _product_span(p, vectors, start, scale):
    """start + sum d_k v_k over itertools.product digits, first vector
    slowest, each multiple formed by scaling."""
    out = []
    for digits in itertools.product(range(p), repeat=len(vectors)):
        y = tuple(start)
        for d, v in zip(digits, vectors):
            y = tuple(a + scale(d, c) for a, c in zip(y, v))
        out.append(y)
    return out


def _check_span(kind, p, n):
    """fp_span of n seeded vectors of width 2, from a seeded start, equals
    _product_span."""
    entry, scale, key = _SPAN_KINDS[kind](p)
    rng = random.Random(100 * p + n)
    start = (entry(rng), entry(rng))
    vectors = [(entry(rng), entry(rng)) for _ in range(n)]
    got = [key(x) for x in fp_span(p, vectors, start)]
    assert got == [key(x) for x in _product_span(p, vectors, start, scale)]
    assert got[0] == key(start)


class TestFpSpan:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_digit_counter_order(self, p, n):
        _check_span("KElem", p, n)

    @pytest.mark.parametrize("kind", ["int", "BiPoly", "FElem"])
    @pytest.mark.parametrize("p, n", [(2, 0), (2, 3), (3, 1), (3, 3),
                                      (5, 2)])
    def test_matches_product(self, kind, p, n):
        _check_span(kind, p, n)

    def test_lazy(self):
        # 3^12 points; taking the first few builds only those
        vectors = [(KElem.theta(3) ** j,) for j in range(12)]
        head = itertools.islice(fp_span(3, vectors, (KElem.one(3),)), 4)
        assert [str(x) for (x,) in head] == \
            ["1", "theta^11+1", "2*theta^11+1", "theta^10+1"]
