"""Exact base arithmetic for the workbench.

Implements F_p scalar helpers, the polynomial ring R = F_p[t], its
fraction field F = F_p(t), small matrices over R, Smith normal form, and
the F_p linear algebra everything downstream leans on: one sparse column
echelon (solutions, kernels, first relations) and one enumerator of affine
spans.

R-polynomials are sparse maps {exponent: coefficient} with coefficients in
1..p-1; zero coefficients are never stored.  Exponents are plain Python ints
and may be astronomically large -- Frobenius-heavy callers depend on that, so
nothing here ever materialises a dense coefficient list.  The modulus p
travels with every element and mixing moduli is a hard error.

Text is read in the grammar of `grammar`: ``t^2+2*t+1`` for R,
``(t^2+2*t+1)/(t^3+1)`` for F.  Printing is canonical: descending exponents,
monic denominators, ``*`` between coefficient and power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import Ring, parse

_PRIME_CAP = 251


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_PRIMES = frozenset(n for n in range(2, _PRIME_CAP + 1) if _is_prime(n))


def check_modulus(p) -> int:
    """Validate a session modulus: a prime with 2 <= p <= 251."""
    if not isinstance(p, int) or isinstance(p, bool) or p not in _PRIMES:
        raise ValueError(f"modulus must be a prime in [2, {_PRIME_CAP}], got {p!r}")
    return p


def inv_mod(c: int, p: int) -> int:
    c %= p
    if c == 0:
        raise ZeroDivisionError("inverse of 0 in F_p")
    return pow(c, p - 2, p)


def _require_same_p(a, b):
    if a.p != b.p:
        raise ValueError(f"modulus mismatch: F_{a.p} vs F_{b.p}")


class RPoly:
    """Element of R = F_p[t], stored sparsely."""

    __slots__ = ("p", "c", "_key")

    def __init__(self, p: int, coeffs: dict):
        # Private: use from_coeffs / parse / zero / one / t.  `coeffs` must
        # already be reduced mod p with no zero entries.
        self.p = p
        self.c = coeffs
        self._key = None

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "RPoly":
        return cls(check_modulus(p), {})

    @classmethod
    def one(cls, p: int) -> "RPoly":
        return cls.const(p, 1)

    @classmethod
    def t(cls, p: int) -> "RPoly":
        return cls(check_modulus(p), {1: 1})

    @classmethod
    def const(cls, p: int, c: int) -> "RPoly":
        check_modulus(p)
        c %= p
        return cls(p, {0: c} if c else {})

    @classmethod
    def monomial(cls, p: int, exp: int, c: int = 1) -> "RPoly":
        check_modulus(p)
        if exp < 0:
            raise ValueError("negative exponent in R")
        c %= p
        return cls(p, {exp: c} if c else {})

    @classmethod
    def from_coeffs(cls, p: int, coeffs) -> "RPoly":
        """Build from an ascending coefficient list [c0, c1, ...]."""
        check_modulus(p)
        d = {}
        for e, c in enumerate(coeffs):
            c %= p
            if c:
                d[e] = c
        return cls(p, d)

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1."""
        return max(self.c) if self.c else -1

    @property
    def lead(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[max(self.c)]

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == {0: 1}

    def coeff(self, e: int) -> int:
        return self.c.get(e, 0)

    def key(self):
        if self._key is None:
            self._key = tuple(sorted(self.c.items()))
        return self._key

    def __hash__(self):
        return hash((self.p, self.key()))

    def __eq__(self, other):
        if isinstance(other, int):
            other = RPoly.const(self.p, other)
        if not isinstance(other, RPoly):
            return NotImplemented
        return self.p == other.p and self.c == other.c

    def __bool__(self):
        return bool(self.c)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return RPoly.const(self.p, other)
        if isinstance(other, RPoly):
            _require_same_p(self, other)
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        d = dict(self.c)
        for e, c in other.c.items():
            s = (d.get(e, 0) + c) % p
            if s:
                d[e] = s
            elif e in d:
                del d[e]
        return RPoly(p, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return RPoly(p, {e: p - c for e, c in self.c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        if not self.c or not other.c:
            return RPoly(p, {})
        d = {}
        for e1, c1 in self.c.items():
            for e2, c2 in other.c.items():
                e = e1 + e2
                s = (d.get(e, 0) + c1 * c2) % p
                if s:
                    d[e] = s
                elif e in d:
                    del d[e]
        return RPoly(p, d)

    __rmul__ = __mul__

    def scale(self, c: int) -> "RPoly":
        c %= self.p
        if c == 0:
            return RPoly(self.p, {})
        return RPoly(self.p, {e: (c0 * c) % self.p for e, c0 in self.c.items()})

    def __pow__(self, n: int) -> "RPoly":
        # base-p digit decomposition: the p^i-th power is a termwise stretch,
        # so sparse polynomials never pass through dense intermediates
        if n < 0:
            raise ValueError("negative power of an R-polynomial")
        p = self.p
        small = [RPoly.one(p), self]
        result = RPoly.one(p)
        i = 0
        while n:
            d = n % p
            if d:
                while len(small) <= d:
                    small.append(small[-1] * self)
                result = result * small[d].stretch(p ** i)
            n //= p
            i += 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        db = other.degree
        inv_lead = inv_mod(other.lead, p)
        q = {}
        r = dict(self.c)

        def deg(d):
            return max(d) if d else -1

        while True:
            dr = deg(r)
            if dr < db:
                break
            shift = dr - db
            coef = (r[dr] * inv_lead) % p
            q[shift] = coef
            for e, c in other.c.items():
                ee = e + shift
                s = (r.get(ee, 0) - coef * c) % p
                if s:
                    r[ee] = s
                elif ee in r:
                    del r[ee]
        return RPoly(p, q), RPoly(p, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "RPoly":
        if self.is_zero() or self.lead == 1:
            return self
        return self.scale(inv_mod(self.lead, self.p))

    def gcd(self, other: "RPoly") -> "RPoly":
        """Monic gcd via Euclid's algorithm."""
        _require_same_p(self, other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def evaluate(self, x: int) -> int:
        """Evaluate at x in F_p; exponents may be huge, so use modular pow."""
        p = self.p
        x %= p
        acc = 0
        for e, c in self.c.items():
            acc = (acc + c * pow(x, e, p)) % p
        return acc

    def stretch(self, k: int) -> "RPoly":
        """Exponent dilation t -> t^k.

        Since F_p coefficients are Frobenius-fixed, f^(p^e) == f.stretch(p^e);
        callers use this to take p-power powers in O(#terms).
        """
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        return RPoly(self.p, {e * k: c for e, c in self.c.items()})

    def compress(self, k: int) -> "RPoly":
        """Inverse of stretch: t^k -> t; errors unless every exponent divides."""
        d = {}
        for e, c in self.c.items():
            if e % k:
                raise ValueError(f"exponent {e} not divisible by {k}")
            d[e // k] = c
        return RPoly(self.p, d)

    def derivative(self) -> "RPoly":
        p = self.p
        d = {}
        for e, c in self.c.items():
            ce = (c * (e % p)) % p
            if e >= 1 and ce:
                d[e - 1] = ce
        return RPoly(p, d)

    # -- text ----------------------------------------------------------

    def __str__(self):
        return rpoly_to_str(self)

    def __repr__(self):
        return f"RPoly(p={self.p}, {rpoly_to_str(self)})"


def rpoly_to_str(f: RPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for e in sorted(f.c, reverse=True):
        c = f.c[e]
        if e == 0:
            parts.append(str(c))
        else:
            power = "t" if e == 1 else f"t^{e}"
            parts.append(power if c == 1 else f"{c}*{power}")
    return "+".join(parts)


def rpoly_parse(p: int, text: str) -> RPoly:
    """Parse an element of R = F_p[t] in the `grammar`; '/' is an error."""
    return parse(text, Ring(p, {"t": RPoly.t(p)}.get, lambda c: RPoly.const(p, c),
                            lambda f: len(f.c), divides=False))


class FElem:
    """Element of F = F_p(t) as a canonical num/den pair (den monic, coprime)."""

    __slots__ = ("num", "den")

    def __init__(self, num: RPoly, den: RPoly, _canonical: bool = False):
        _require_same_p(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in F_p(t)")
        if not _canonical:
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
            if den.lead != 1:
                c = inv_mod(den.lead, den.p)
                num = num.scale(c)
                den = den.scale(c)
        self.num = num
        self.den = den

    @property
    def p(self):
        return self.num.p

    @classmethod
    def from_rpoly(cls, f: RPoly) -> "FElem":
        return cls(f, RPoly.one(f.p), _canonical=True)

    @classmethod
    def zero(cls, p: int) -> "FElem":
        return cls.from_rpoly(RPoly.zero(p))

    @classmethod
    def one(cls, p: int) -> "FElem":
        return cls.from_rpoly(RPoly.one(p))

    @classmethod
    def const(cls, p: int, c: int) -> "FElem":
        return cls.from_rpoly(RPoly.const(p, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def __hash__(self):
        return hash((self.num.key(), self.den.key()))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, FElem):
            _require_same_p(self.num, other.num)
            return other
        if isinstance(other, RPoly):
            _require_same_p(self.num, other)
            return FElem.from_rpoly(other)
        if isinstance(other, int):
            return FElem.const(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return FElem(self.num + other.num, self.den, _canonical=True)
        return FElem(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return FElem(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return FElem.zero(self.p)
        if self.den.is_one() and other.den.is_one():
            return FElem(self.num * other.num, self.den, _canonical=True)
        return FElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "FElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in F_p(t)")
        num, den = self.den, self.num
        if den.lead != 1:
            c = inv_mod(den.lead, den.p)
            num = num.scale(c)
            den = den.scale(c)
        return FElem(num, den, _canonical=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return other * self.inverse()

    def __pow__(self, n: int) -> "FElem":
        # coprimality and the monic denominator survive powering, so this
        # needs no re-reduction
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return FElem.one(self.p)
        if self.is_zero():
            return self
        return FElem(self.num ** n, self.den ** n, _canonical=True)

    def frob(self, e: int) -> "FElem":
        """The p^e-th power, done termwise (coprimality is preserved)."""
        k = self.p ** e
        return FElem(self.num.stretch(k), self.den.stretch(k), _canonical=True)

    def __str__(self):
        if self.den.is_one():
            return rpoly_to_str(self.num)
        return f"({rpoly_to_str(self.num)})/({rpoly_to_str(self.den)})"

    def __repr__(self):
        return f"FElem(p={self.p}, {self})"


def felem_parse(p: int, text: str) -> FElem:
    return parse(text, Ring(p, {"t": FElem.from_rpoly(RPoly.t(p))}.get,
                            lambda c: FElem.const(p, c),
                            lambda x: max(len(x.num.c), len(x.den.c))))


# -- matrices over R -------------------------------------------------------


class RMatrix:
    """Immutable small matrix over R = F_p[t]."""

    __slots__ = ("p", "rows")

    def __init__(self, p: int, rows):
        check_modulus(p)
        self.p = p
        self.rows = tuple(tuple(entry for entry in row) for row in rows)
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise ValueError("ragged matrix")
        for row in self.rows:
            for entry in row:
                if not isinstance(entry, RPoly) or entry.p != p:
                    raise ValueError("matrix entries must be RPoly over the same F_p")

    @classmethod
    def identity(cls, p: int, n: int) -> "RMatrix":
        one, zero = RPoly.one(p), RPoly.zero(p)
        return cls(p, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __eq__(self, other):
        return isinstance(other, RMatrix) and self.p == other.p and self.rows == other.rows

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.p != other.p:
            raise ValueError("modulus mismatch in matrix product")
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError("shape mismatch in matrix product")
        zero = RPoly.zero(self.p)
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = zero
                for s in range(k):
                    acc = acc + self.rows[i][s] * other.rows[s][j]
                row.append(acc)
            out.append(row)
        return RMatrix(self.p, out)

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ..."""
    u: RMatrix
    d: RMatrix
    v: RMatrix
    vinv: RMatrix

    @property
    def invariant_factors(self):
        n, m = self.d.shape
        return tuple(self.d.rows[i][i] for i in range(min(n, m)))


def smith_normal_form(a: RMatrix) -> SmithForm:
    """Smith normal form over R = F_p[t].

    Pivots are chosen by minimal degree, ties broken by lowest row index then
    lowest column index, so the reduction (and the returned transforms) are
    deterministic.  Invariant factors come out monic.
    """
    p = a.p
    n, m = a.shape
    rows = [list(r) for r in a.rows]
    u = [list(r) for r in RMatrix.identity(p, n).rows]
    v = [list(r) for r in RMatrix.identity(p, m).rows]
    vinv = [list(r) for r in RMatrix.identity(p, m).rows]

    def swap_rows(i, j):
        if i != j:
            rows[i], rows[j] = rows[j], rows[i]
            u[i], u[j] = u[j], u[i]

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src
        for col in range(m):
            rows[dst][col] = rows[dst][col] - q * rows[src][col]
        for col in range(n):
            u[dst][col] = u[dst][col] - q * u[src][col]

    def swap_cols(i, j):
        if i != j:
            for r in rows:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]
            vinv[i], vinv[j] = vinv[j], vinv[i]

    def addmul_col(dst, src, q):
        # col_dst -= q * col_src;  inverse: row_src += q * row_dst (on vinv)
        for r in rows:
            r[dst] = r[dst] - q * r[src]
        for r in v:
            r[dst] = r[dst] - q * r[src]
        for col in range(m):
            vinv[src][col] = vinv[src][col] + q * vinv[dst][col]

    def scale_row(i, c):
        for col in range(m):
            rows[i][col] = rows[i][col].scale(c)
        for col in range(n):
            u[i][col] = u[i][col].scale(c)

    k = 0
    while k < min(n, m):
        # locate minimal-degree nonzero pivot in the trailing submatrix
        pivot = None
        for i in range(k, n):
            for j in range(k, m):
                e = rows[i][j]
                if e.is_zero():
                    continue
                if pivot is None or e.degree < rows[pivot[0]][pivot[1]].degree:
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        while True:
            # clear column k below the pivot
            dirty = False
            for i in range(k + 1, n):
                if rows[i][k].is_zero():
                    continue
                q, r = divmod(rows[i][k], rows[k][k])
                addmul_row(i, k, q)
                if not r.is_zero():
                    # remainder has smaller degree: promote it to pivot
                    swap_rows(k, i)
                    dirty = True
            for j in range(k + 1, m):
                if rows[k][j].is_zero():
                    continue
                q, r = divmod(rows[k][j], rows[k][k])
                addmul_col(j, k, q)
                if not r.is_zero():
                    swap_cols(k, j)
                    dirty = True
            if dirty:
                continue
            # pivot divides every remaining entry?
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, m):
                    if not (rows[i][j] % rows[k][k]).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into row k and keep reducing
            addmul_row(k, offender, RPoly.const(p, -1))
        if rows[k][k].lead != 1:
            scale_row(k, inv_mod(rows[k][k].lead, p))
        k += 1

    return SmithForm(RMatrix(p, u), RMatrix(p, rows), RMatrix(p, v), RMatrix(p, vinv))


# -- F_p linear algebra ----------------------------------------------------
#
# Every F_p system of the package is one Echelon of sparse columns, the
# vectors that K's coordinates already are (kfield.bipoly_vector and
# coordinates, phimodule._family_vectors; residues in F_p(t) are
# K-elements too); fp_solve_many is the dense row-matrix door to it.


class Echelon:
    """Column echelon form over F_p of the sparse columns {key: c}.

    Each column is reduced, in column order, against the pivots kept so
    far, and its combination over the column indices is tracked.  Column k
    is a pivot iff it lies outside the span of the columns before it, so
    every answer below is the unique one in the pivot columns, whatever
    elimination order produced it: the same vectors as row reduction that
    pivots on columns in order.  Keys need only be hashable.

    support, the keys of the columns, lets solve reject a target with a key
    outside it at once.  Echelons of growing column sets can share one
    set: it gains the columns' keys, and a larger set only rejects less.
    """

    __slots__ = ("p", "n", "pivots", "free", "support")

    def __init__(self, columns, p: int, support=None):
        self.p = check_modulus(p)
        columns = list(columns)
        self.n = len(columns)
        self.pivots = []        # (key, vector with vector[key] == 1, combination)
        self.free = []          # (column index, combination reducing it to 0)
        self.support = set() if support is None else support
        for k, col in enumerate(columns):
            self.support.update(col)
            vec, comb = self._reduce(col, {k: 1})
            if not vec:
                self.free.append((k, comb))
                continue
            key = next(iter(vec))
            inv = inv_mod(vec[key], p)
            self.pivots.append((key, {e: c * inv % p for e, c in vec.items()},
                                {j: c * inv % p for j, c in comb.items()}))

    @classmethod
    def from_rows(cls, rows, p: int, ncols: int) -> "Echelon":
        """The echelon of a dense matrix: ncols columns keyed by row index."""
        check_modulus(p)
        if any(len(row) != ncols for row in rows):
            raise ValueError("row length differs from the number of unknowns")
        return cls([{i: row[k] for i, row in enumerate(rows) if row[k] % p}
                    for k in range(ncols)], p)

    def _reduce(self, col, comb):
        """(residue, comb): col minus its pivot components; comb starts as
        the combination of col and follows every subtraction."""
        p = self.p
        vec = {e: c % p for e, c in col.items() if c % p}
        for key, pvec, pcomb in self.pivots:
            f = vec.get(key)
            if not f:
                continue
            for e, c in pvec.items():
                s = (vec.get(e, 0) - f * c) % p
                if s:
                    vec[e] = s
                else:
                    vec.pop(e, None)
            for j, c in pcomb.items():
                s = (comb.get(j, 0) - f * c) % p
                if s:
                    comb[j] = s
                else:
                    comb.pop(j, None)
        return vec, comb

    def solve(self, target):
        """The width-n weights u with sum u_k columns[k] = target, zero on
        every free column, or None when target is outside the span."""
        p = self.p
        if any(c % p and e not in self.support for e, c in target.items()):
            return None
        vec, comb = self._reduce(target, {})
        if vec:
            return None
        return [(-comb.get(k, 0)) % p for k in range(self.n)]

    def kernel(self):
        """One relation per free column, in ascending order: a 1 there and
        the weights of the pivot columns before it."""
        out = []
        for k, comb in self.free:
            vec = [0] * self.n
            for j, c in comb.items():
                vec[j] = c
            out.append(vec)
        return out

    def first_relation(self):
        """(j, weights) for the first free column j >= 1, with columns[j] =
        sum_k weights[k] columns[k] over k < j; or None."""
        p = self.p
        for j, comb in self.free:
            if j >= 1:
                return j, [(-comb.get(k, 0)) % p for k in range(j)]
        return None


def fp_solve_many(rows, rhs_list, p, ncols):
    """Solve A x = b over ncols unknowns for many right-hand sides with one
    Echelon.  Returns a list whose entries are a solution vector of width
    ncols or None (inconsistent system); with no rows, every right-hand
    side gets the zero vector.
    """
    echelon = Echelon.from_rows(rows, p, ncols)
    if any(len(rhs) != len(rows) for rhs in rhs_list):
        raise ValueError("right-hand side length differs from the number of rows")
    return [echelon.solve(dict(enumerate(rhs))) for rhs in rhs_list]


def fp_span(p: int, vectors, start):
    """The affine F_p-span start + sum_k d_k vectors[k], lazily.

    start and the vectors are tuples of one width, added coordinatewise by
    `+`, which must be the group law of an F_p-vector space: K-points,
    tuples of BiPoly or FElem, or tuples of plain ints whose residues mod
    p are the values (ints are never reduced here).

    Order contract: digit-counter order.  The first vector's digit runs
    slowest and the last vector's fastest, each digit through 0, 1, ...,
    p - 1, so the span starts at start, and the point at index i has the
    base-p digits of i, the first vector's most significant.  Each point
    is one addition from the point of its digit prefix, and the multiples
    2v, ..., (p - 1)v of each vector are formed once, by addition.
    """
    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    multiples = []
    for v in vectors:
        row = [None, tuple(v)]
        while len(row) < p:
            row.append(add(row[-1], row[1]))
        multiples.append(row)
    n = len(multiples)
    digits = [0] * n
    prefix = [tuple(start)] * (n + 1)    # prefix[k]: the point of digits[:k]
    yield prefix[0]
    while True:
        k = n - 1
        while k >= 0 and digits[k] == p - 1:
            digits[k] = 0
            k -= 1
        if k < 0:
            return
        digits[k] += 1
        x = add(prefix[k], multiples[k][digits[k]])
        prefix[k + 1:] = [x] * (n - k)
        yield x
