"""Exact scalar arithmetic and exact dense linear algebra.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always in
lowest terms, denominator positive.  A :class:`CyclotomicNumber` is a value
of ``Q(zeta_N)``, stored without field arithmetic as the ``phi(N)``
coefficients of its remainder modulo the N-th cyclotomic polynomial, so that
zero-testing is a plain coefficient comparison.

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


def format_rational(q: int | Fraction) -> str:
    """Render an ``int`` or ``Fraction`` as ``"p/q"``, or ``"p"`` when the
    denominator is 1; a value with more than :data:`MAX_RATIONAL_DIGITS`
    digits in either part is a ``LimitError``."""
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


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing ``n``, in increasing order."""
    if n <= 0:
        raise ValueError(f"not a positive integer: {n}")
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def euler_phi(n: int) -> int:
    """Euler's totient, ``n * prod (1 - 1/p)`` over the primes of ``n``."""
    for p in prime_divisors(n):
        n -= n // p
    return n


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers (constant term first).


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(num, den):
    """Exact division with remainder by a monic integer divisor, over any
    scalars of ``num``; integer quotients stay ``int``."""
    num = list(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if den[-1] != 1:
        raise ValueError("polynomial division by a divisor that is not monic")
    quot = [0] * max(0, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c == 0:
            continue
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    return _trim(quot), _trim(num)


def mobius_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs ``(d, mu(n/d))`` over the divisors ``d`` of ``n`` with
    ``n/d`` squarefree, so that ``Phi_n = prod (x^d - 1)^mu(n/d)``."""
    pairs = [(n, 1)]
    for p in prime_divisors(n):
        pairs += [(d // p, -mu) for d, mu in pairs]
    return pairs


@lru_cache(maxsize=256)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial as an integer coefficient tuple.

    Built as the product of ``(x^d - 1)^mu(n/d)`` over the divisors ``d`` of
    ``n`` with ``n/d`` squarefree: the factors with ``mu = 1`` are multiplied
    in first and the others divided out exactly, each in one pass over the
    coefficients.  The result is monic of degree ``phi(n)``.  The last 256
    are kept.
    """
    if n < 1:
        raise ValueError("cyclotomic_poly() needs a positive integer")
    poly = [1]
    for d, mu in sorted(mobius_pairs(n), key=lambda factor: -factor[1]):
        if mu > 0:
            out = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly):
                out[i + d] += c
        else:
            # q * (x^d - 1) = poly gives q[i] = q[i - d] - poly[i].
            out = [-c for c in poly[: len(poly) - d]]
            for i in range(d, len(out)):
                out[i] += out[i - d]
        poly = out
    return tuple(poly)


@dataclass(frozen=True)
class CyclotomicNumber:
    """An element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial.

    ``coeffs`` always has length ``phi(conductor)``.  Equality and hashing
    compare ``(conductor, coeffs)``, so one value written at two conductors
    gives two unequal objects; :meth:`is_zero` holds at any conductor.
    """

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.conductor):
            raise DimensionError(
                f"cyclotomic coefficient vector must have length "
                f"phi({self.conductor}) = {euler_phi(self.conductor)}"
            )

    @classmethod
    def _make(cls, conductor: int, coeffs) -> CyclotomicNumber:
        phi = euler_phi(conductor)
        _, rem = _poly_divmod([Fraction(c) for c in coeffs], cyclotomic_poly(conductor))
        rem = rem + [Fraction(0)] * (phi - len(rem))
        return cls(conductor, tuple(rem))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# ---------------------------------------------------------------------------
# Exact dense matrices.


@dataclass(frozen=True)
class ExactMatrix:
    """A dense row-major matrix of exact rationals.

    Entries are Fractions; mixing ints in is fine since they coerce.
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
