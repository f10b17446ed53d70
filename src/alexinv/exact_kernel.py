"""Exact scalar arithmetic, cyclotomic polynomials and exact integer rank.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always in
lowest terms, denominator positive.  Integer matrices are lists of rows, and
their rank over Q is found without leaving the integers.

Univariate polynomials inside this module are dense coefficient tuples with
the constant term first.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import LimitError, moved

MAX_RATIONAL_DIGITS = 4300
"""Most digits in the numerator or the denominator of a rational read or
written as text; the same limit as Python's for JSON integers."""

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?", re.ASCII)
_TOO_LONG = 10 ** MAX_RATIONAL_DIGITS  # the least integer with one digit more

__getattr__ = moved(__name__, "CyclotomicNumber ExactMatrix _rref euler_phi integer_vector "
                              "mat_mul rank")


def parse_rational(text: str | int) -> Fraction:
    """:func:`rational_terms` as a ``Fraction``, or an int (not a bool) as one."""
    if type(text) is int:
        return Fraction(text)
    return Fraction(*rational_terms(text))


def rational_terms(text: str) -> tuple[int, int]:
    """``(p, q)`` as written in ``"p/q"``, or ``(p, 1)`` for ``"p"``: digits
    with an optional sign on ``p``, at most :data:`MAX_RATIONAL_DIGITS`
    digits each, and ``q`` not zero; else ``ValueError``."""
    match = _RATIONAL.fullmatch(str(text).strip())
    if match is None:
        raise ValueError(f"not a rational p or p/q: {text!r}")
    numerator, denominator = match.groups()
    if max(len(numerator.lstrip("+-")), len(denominator or "")) > MAX_RATIONAL_DIGITS:
        raise ValueError(f"a rational has more than {MAX_RATIONAL_DIGITS} digits")
    q = int(denominator or 1)
    if not q:
        raise ValueError(f"zero denominator in {text!r}")
    return int(numerator), q


def format_rational(q: int | Fraction) -> str:
    """:func:`format_ratio` of an ``int`` or a ``Fraction``."""
    return format_ratio(q.numerator, q.denominator)


def format_ratio(numerator: int, denominator: int) -> str:
    """``numerator / denominator``, ``denominator > 0``, in lowest terms as
    ``"p/q"``, or ``"p"`` when ``q`` is 1; a value with more than
    :data:`MAX_RATIONAL_DIGITS` digits in either part is a ``LimitError``."""
    g = gcd(numerator, denominator)
    n, d = numerator // g, denominator // g
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


# ---------------------------------------------------------------------------
# Exact rank of integer matrices.


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
