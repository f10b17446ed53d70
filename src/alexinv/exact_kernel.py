"""Exact scalar arithmetic and exact dense linear algebra.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always in
lowest terms, denominator positive.  Cyclotomic numbers are elements of
``Q(zeta_N)`` stored as coefficient vectors of length ``phi(N)``, i.e. as the
unique remainder of a polynomial in ``zeta_N`` modulo the N-th cyclotomic
polynomial.  Reducing modulo the cyclotomic polynomial (rather than modulo
``x^N - 1``) makes zero-testing and equality plain coefficient comparisons.

Univariate polynomials inside this module are dense coefficient tuples with
the constant term first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import DimensionError, LimitError

MAX_RATIONAL_DIGITS = 4300
"""Most digits in the numerator or the denominator of a rational read or
written as text; the same limit as Python's for JSON integers."""

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?", re.ASCII)
_TOO_LONG = 10 ** MAX_RATIONAL_DIGITS  # the least integer with one digit more


def parse_rational(text: str | int) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``, digits with an optional sign on ``p``, at
    most :data:`MAX_RATIONAL_DIGITS` digits each (or an int, not a bool);
    else ``ValueError``."""
    if type(text) is int:
        return Fraction(text)
    match = _RATIONAL.fullmatch(str(text).strip())
    if match is None:
        raise ValueError(f"not a rational p or p/q: {text!r}")
    numerator, denominator = match.groups()
    if max(len(numerator.lstrip("+-")), len(denominator or "")) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"a rational has more than {MAX_RATIONAL_DIGITS} digits")
    if denominator is None:
        return Fraction(int(numerator))
    if not int(denominator):
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(numerator), int(denominator))


def format_rational(q: Fraction) -> str:
    """Render as ``"p/q"``, or ``"p"`` when the denominator is 1; a value
    with more than :data:`MAX_RATIONAL_DIGITS` digits in either part is a
    ``LimitError``."""
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    if not -_TOO_LONG < n < _TOO_LONG or d >= _TOO_LONG:
        raise LimitError(f"a rational has more than {MAX_RATIONAL_DIGITS} digits")
    return str(n) if d == 1 else f"{n}/{d}"


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n`` in increasing order."""
    if n <= 0:
        raise ValueError("divisors() needs a positive integer")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    """Euler's totient."""
    if n <= 0:
        raise ValueError("euler_phi() needs a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers (constant term first).


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _poly_divmod(num, den):
    """Exact division with remainder; works over any field scalars."""
    num = list(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c == 0:
            continue
        q = c / lead if lead != 1 else c
        quot[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    return _trim(quot), _trim(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial as an integer coefficient tuple.

    Computed by dividing ``x^n - 1`` by the cyclotomic polynomials of all
    proper divisors of ``n``; the result is monic of degree ``phi(n)``.
    """
    if n < 1:
        raise ValueError("cyclotomic_poly() needs a positive integer")
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    result = poly
    for d in divisors(n)[:-1]:
        quot, rem = _poly_divmod(result, list(cyclotomic_poly(d)))
        if rem:
            raise ArithmeticError(
                f"cyclotomic polynomial {d} does not divide x^{n} - 1 exactly"
            )
        result = quot
    return tuple(int(c) for c in result)


def _ext_gcd_poly(a, b):
    """Extended Euclid over Fraction polynomials: g, u, v with u*a + v*b = g."""
    r0, r1 = _trim(a), _trim(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _trim([x - y for x, y in _zip_sub(u0, _poly_mul(q, u1))])
        v0, v1 = v1, _trim([x - y for x, y in _zip_sub(v0, _poly_mul(q, v1))])
    return r0, u0, v0


def _zip_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return zip(a, b)


@dataclass(frozen=True, eq=False)
class CyclotomicNumber:
    """An element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial.

    ``coeffs`` always has length ``phi(conductor)``.  Values with different
    conductors compare (and combine) by lifting both to the lcm conductor via
    the canonical embedding ``zeta_N = zeta_M ** (M // N)``.
    """

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.conductor):
            raise DimensionError(
                f"cyclotomic coefficient vector must have length "
                f"phi({self.conductor}) = {euler_phi(self.conductor)}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def _make(cls, conductor: int, coeffs) -> CyclotomicNumber:
        phi = euler_phi(conductor)
        modulus = [Fraction(c) for c in cyclotomic_poly(conductor)]
        _, rem = _poly_divmod([Fraction(c) for c in coeffs], modulus)
        rem = rem + [Fraction(0)] * (phi - len(rem))
        return cls(conductor, tuple(rem))

    @classmethod
    def zero(cls, conductor: int = 1) -> CyclotomicNumber:
        return cls._make(conductor, [])

    @classmethod
    def one(cls, conductor: int = 1) -> CyclotomicNumber:
        return cls._make(conductor, [Fraction(1)])

    @classmethod
    def from_rational(cls, value, conductor: int = 1) -> CyclotomicNumber:
        return cls._make(conductor, [Fraction(value)])

    @classmethod
    def root_of_unity(cls, conductor: int, power: int = 1) -> CyclotomicNumber:
        """``zeta_N ** power`` where ``zeta_N = exp(2*pi*i/N)``."""
        power %= conductor
        return cls._make(conductor, [Fraction(0)] * power + [Fraction(1)])

    # -- representation helpers --------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lift(self, conductor: int) -> CyclotomicNumber:
        """Re-express in Q(zeta_M) for a multiple M of the conductor."""
        if conductor % self.conductor:
            raise ValueError("target conductor must be a multiple")
        if conductor == self.conductor:
            return self
        step = conductor // self.conductor
        poly = [Fraction(0)] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            poly[i * step] = c
        return CyclotomicNumber._make(conductor, poly)

    def _paired(self, other):
        if isinstance(other, CyclotomicNumber):
            n = lcm(self.conductor, other.conductor)
            return self.lift(n), other.lift(n)
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicNumber.from_rational(other).lift(self.conductor)
        return self, None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._paired(other)
        if b is None:
            return NotImplemented
        return CyclotomicNumber._make(
            a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)]
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        a, b = self._paired(other)
        if b is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._paired(other)
        if b is None:
            return NotImplemented
        return CyclotomicNumber._make(a.conductor, _poly_mul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> CyclotomicNumber:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        modulus = [Fraction(c) for c in cyclotomic_poly(self.conductor)]
        g, u, _ = _ext_gcd_poly(list(self.coeffs), modulus)
        # The cyclotomic polynomial is irreducible over Q, so g is a nonzero
        # constant.
        if len(g) != 1:
            raise ArithmeticError(
                f"value shares a factor with cyclotomic polynomial {self.conductor}"
            )
        return CyclotomicNumber._make(self.conductor, [c / g[0] for c in u])

    def __truediv__(self, other):
        a, b = self._paired(other)
        if b is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._paired(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # values of equal magnitude may live at several conductors

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {self.coeffs})"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> CyclotomicNumber:
        return cls._make(
            int(data["conductor"]), [parse_rational(c) for c in data["coeffs"]]
        )


# ---------------------------------------------------------------------------
# Exact dense matrices.


@dataclass(frozen=True)
class ExactMatrix:
    """A dense row-major matrix of exact field elements.

    Entries are either all Fractions or all cyclotomic numbers; mixing ints in
    is fine since they coerce.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count must equal rows * cols")

    @classmethod
    def from_rows(cls, rows) -> ExactMatrix:
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, tuple(x for r in rows for x in r))

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


def _rref(rows, ncols):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the matrix's coefficient field."""
    rows = matrix.row_lists()
    return len(_rref(rows, matrix.cols))


def kernel_basis(matrix: ExactMatrix) -> list[list]:
    """A basis of the right null space, one vector per free column."""
    rows = matrix.row_lists()
    pivots = _rref(rows, matrix.cols)
    pivot_set = set(pivots)
    basis = []
    for c in range(matrix.cols):
        if c in pivot_set:
            continue
        vec = [Fraction(0)] * matrix.cols
        vec[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            if rows[r][c] != 0:
                vec[pc] = -rows[r][c]
        basis.append(vec)
    return basis


def det(matrix: ExactMatrix):
    """Exact determinant of a square matrix."""
    if matrix.rows != matrix.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return Fraction(1)
    rows = matrix.row_lists()
    sign = 1
    result = None
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return 0 * rows[0][0]
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pivot = rows[c][c]
        result = pivot if result is None else result * pivot
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / pivot
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result if sign > 0 else -result


def integer_vector(values) -> tuple[tuple[int, ...], int]:
    """``(n, L)`` with ``L`` the least common denominator of ``values`` and
    ``n = L * values``, so that ``values == n / L`` entrywise."""
    values = [Fraction(v) for v in values]
    common = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (common // v.denominator) for v in values), common


def integer_rank(rows) -> int:
    """Rank of an integer matrix, given as equal-length rows, over Q.

    Fraction-free Bareiss elimination (E. H. Bareiss, Math. Comp. 22, 1968):
    after each pivot, every remaining entry is a minor of the input, so the
    division by the previous pivot is exact and entries stay integers.
    """
    rows = [list(row) for row in rows if any(row)]
    if not rows:
        return 0
    found, previous = 0, 1
    for c in range(len(rows[0])):
        pivot = next((i for i in range(found, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        top = rows[found]
        p = top[c]
        for i in range(found + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // previous for x, y in zip(rows[i], top)]
        previous = p
        found += 1
        if found == len(rows):
            break
    return found


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise DimensionError("inner dimensions do not match")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc = acc + a.at(i, k) * b.at(k, j)
            row.append(acc)
        out.append(row)
    if not out or not out[0]:
        return ExactMatrix(a.rows, b.cols, tuple())
    return ExactMatrix.from_rows(out)


def is_zero_matrix(m: ExactMatrix) -> bool:
    return all(x == 0 for x in m.entries)
