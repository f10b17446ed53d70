"""Sparse multivariate Laurent polynomials with rational coefficients.

A polynomial in ``s`` variables ``t1 .. ts`` is a mapping from exponent
tuples (length ``s``, negative entries allowed) to nonzero rationals, ``int``
when integral and ``Fraction`` otherwise; the zero polynomial has no terms.
No ``/`` may run between two ``int`` coefficients: it would give a ``float``.

Text grammar (whitespace insignificant)::

    poly   := [sign] term (sign term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    coeff  := INT ['/' INT]
    factor := VAR ['^' ['-'] INT]
    VAR    := 't' DIGITS        (bare 't' is accepted when s = 1)

Validation happens at the public boundaries only: ``LaurentPoly(...)``
checks exponent lengths, converts coefficients and drops zeros, and
``parse_poly`` checks the text.  Ring operations, shifts and the gcd
machinery build their results with the trusted ``LaurentPoly._make``, which
takes a term dict that is already clean as it is.

Unit normalization and gcd work up to multiplication by units of the
Laurent ring (nonzero rationals times monomials); the canonical
representative of a unit class shifts every variable's minimum exponent to 0,
clears denominators to integer content 1, and makes the graded-lex leading
coefficient positive.  Exact division and divisibility work on Laurent
polynomials as they are, negative exponents included; only the canonical
form and the primitive PRS shift to ordinary form (every minimum exponent 0).
``gcd`` first tries the shorter argument as an exact divisor of the other
and runs the PRS only when that fails; the PRS takes every content through
``gcd``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice, product
from math import gcd as int_gcd, lcm as int_lcm
from operator import add, sub

from .errors import DimensionError, LimitError, ParseError, Record, _set
from .exact_kernel import CyclotomicNumber, format_ratio, format_rational


class LaurentPoly:
    """Immutable sparse Laurent polynomial."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(int, exps))
            if len(exps) != nvars:
                raise DimensionError(
                    f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                )
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            clean[exps] = clean.get(exps, 0) + coeff
        _set(self, "nvars", nvars)
        _set(self, "terms", {e: c for e, c in clean.items() if c})

    @classmethod
    def _make(cls, nvars: int, terms: dict) -> LaurentPoly:
        """Wrap ``terms`` as it is: exponent tuples of length ``nvars`` and
        nonzero ``int``/``Fraction`` coefficients, owned by the new polynomial."""
        p = object.__new__(cls)
        _set(p, "nvars", nvars)
        _set(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor, not
        # by setting the slots, which __setattr__ refuses.
        return LaurentPoly, (self.nvars, self.terms)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> LaurentPoly:
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars: int) -> LaurentPoly:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> LaurentPoly:
        return cls.constant(1, nvars)

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> LaurentPoly:
        """The monomial ``t{index+1} ** power``."""
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def term(cls, nvars: int, coeff, exps) -> LaurentPoly:
        return cls(nvars, {tuple(exps): coeff})

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    @property
    def is_unit(self) -> bool:
        """Units of the Laurent ring are single nonzero terms."""
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise DimensionError(
                    f"mixing polynomials in {self.nvars} and {other.nvars} variables"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other, self.nvars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c += terms.pop(e, 0)
            if c:
                terms[e] = c
        return LaurentPoly._make(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(self.nvars, {e: -c for e, c in self.terms.items()})

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
        terms = {}
        get = terms.get
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        return LaurentPoly._make(self.nvars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if not self.is_unit:
                raise ValueError("negative power of a non-unit")
            ((e, c),) = self.terms.items()
            inv = LaurentPoly(self.nvars, {tuple(-x for x in e): Fraction(1) / c})
            return inv ** (-n)
        result = LaurentPoly.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self.nvars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {format_poly(self)!r})"

    # -- structure helpers ---------------------------------------------------

    def min_exponents(self) -> tuple[int, ...]:
        if self.is_zero:
            return (0,) * self.nvars
        return tuple(map(min, zip(*self.terms)))

    def max_exponents(self) -> tuple[int, ...]:
        if self.is_zero:
            return (0,) * self.nvars
        return tuple(map(max, zip(*self.terms)))

    def shifted(self, delta) -> LaurentPoly:
        """Multiply by the monomial with exponent vector ``delta``."""
        return LaurentPoly._make(
            self.nvars,
            {tuple(map(add, e, delta)): c for e, c in self.terms.items()},
        )


def _grlex_key(exps):
    return (sum(exps), exps)


def _shift_to_ordinary(p: LaurentPoly) -> LaurentPoly:
    mins = p.min_exponents()
    if not any(mins):
        return p
    return p.shifted(tuple(-m for m in mins))


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of the unit class of ``p``.

    Shifts every variable's minimum exponent to 0, scales to primitive
    ``int`` coefficients, and makes the graded-lex leading coefficient
    positive.  Idempotent; maps 0 to 0.
    """
    if p.is_zero:
        return p
    q = _shift_to_ordinary(p)
    coeffs = q.terms.values()
    integral = all(type(c) is int for c in coeffs)
    den = 1 if integral else int_lcm(*(c.denominator for c in coeffs))
    num = int_gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    if q.terms[max(q.terms, key=_grlex_key)] < 0:
        num = -num
    if integral and num == 1:
        return q
    return LaurentPoly._make(
        q.nvars,
        {e: c.numerator * (den // c.denominator) // num for e, c in q.terms.items()},
    )


def divide_exact(p: LaurentPoly, q: LaurentPoly):
    """The Laurent polynomial ``r`` with ``q * r == p`` exactly, or None when
    there is none.  ``divide_exact(0, q)`` is 0 for every ``q``, 0 included;
    a nonzero ``p`` over 0 raises ``ZeroDivisionError``.  Works on one
    remainder dict, in place."""
    if p.nvars != q.nvars:
        raise DimensionError("division between different variable counts")
    if p.is_zero:
        return p
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    # Each variable's least and greatest exponents add in a product, so
    # every quotient exponent lies in this box.
    low = tuple(map(sub, p.min_exponents(), q.min_exponents()))
    high = tuple(map(sub, p.max_exponents(), q.max_exponents()))
    if any(map(int.__gt__, low, high)):
        return None
    # An exact quotient is unique, so any monomial order finds it: plain
    # tuple (lex) order needs no key function.
    lead_e = max(q.terms)
    lead_c = q.terms[lead_e]
    others = [(e, c) for e, c in q.terms.items() if e != lead_e]
    rem = dict(p.terms)
    quot = {}
    while rem:
        r_e = max(rem)
        diff = tuple(map(sub, r_e, lead_e))
        if any(map(int.__lt__, diff, low)) or any(map(int.__gt__, diff, high)):
            return None
        c = rem.pop(r_e)
        quot[diff] = r = c // lead_c if c % lead_c == 0 else Fraction(c) / lead_c
        for e, c in others:
            e = tuple(map(add, e, diff))
            s = rem.get(e, 0) - r * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    return LaurentPoly._make(p.nvars, quot)


def divides(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True iff ``q = p * r`` for some Laurent polynomial ``r``."""
    if p.nvars != q.nvars:
        raise DimensionError("divisibility between different variable counts")
    return q.is_zero or (not p.is_zero and divide_exact(q, p) is not None)


# ---------------------------------------------------------------------------
# Multivariate gcd: a primitive PRS that takes every content through ``gcd``.


def _degree_in(p: LaurentPoly, v: int) -> int:
    return max((e[v] for e in p.terms), default=0)


def _univ_coeffs(p: LaurentPoly, v: int) -> dict[int, LaurentPoly]:
    """Coefficients of powers of variable ``v`` (with that exponent zeroed)."""
    buckets: dict[int, dict] = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = c
    return {d: LaurentPoly._make(p.nvars, t) for d, t in buckets.items()}


def _content(p: LaurentPoly, v: int) -> LaurentPoly:
    """Normalized gcd of the coefficients of ``p`` in variable ``v``."""
    return gcd_all(_univ_coeffs(p, v).values(), p.nvars)


def _pseudo_rem(a: LaurentPoly, b: LaurentPoly, v: int) -> LaurentPoly:
    db = _degree_in(b, v)
    lead_b = _univ_coeffs(b, v)[db]
    r = a
    while not r.is_zero:
        dr = _degree_in(r, v)
        if dr < db:
            break
        lead_r = _univ_coeffs(r, v)[dr]
        shift = [0] * a.nvars
        shift[v] = dr - db
        r = lead_b * r - lead_r * b.shifted(tuple(shift))
    return r


def _gcd_prs(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The PRS step of ``gcd`` and ``gcd_all``: ``a`` and ``b`` are nonzero and
    the shorter does not divide the longer, so neither is a single term (a
    unit) and, in ordinary form, some variable has positive degree."""
    a, b = _shift_to_ordinary(a), _shift_to_ordinary(b)
    v = max(
        j
        for j in range(a.nvars)
        if _degree_in(a, j) > 0 or _degree_in(b, j) > 0
    )
    ca = _content(a, v)
    cb = _content(b, v)
    pa = divide_exact(a, ca)
    pb = divide_exact(b, cb)
    if _degree_in(pa, v) < _degree_in(pb, v):
        pa, pb = pb, pa
    while not pb.is_zero and _degree_in(pb, v) > 0:
        r = _pseudo_rem(pa, pb, v)
        if not r.is_zero:
            r = normalize_unit(divide_exact(r, _content(r, v)))
        pa, pb = pb, r
    c = gcd(ca, cb)
    # A nonzero remainder of degree 0 in v: the primitive parts are coprime.
    return normalize_unit(c if pb else c * pa)


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Normalized greatest common divisor in the unit-class sense."""
    if p.nvars != q.nvars:
        raise DimensionError("gcd between different variable counts")
    if p.is_zero:
        return normalize_unit(q)
    if q.is_zero:
        return normalize_unit(p)
    if len(p.terms) > len(q.terms):
        p, q = q, p
    # An exact divisor is the gcd: no PRS needed.
    if divide_exact(q, p) is not None:
        return normalize_unit(p)
    return _gcd_prs(p, q)


def gcd_all(polys, nvars: int) -> LaurentPoly:
    """Normalized gcd of nonzero ``polys`` (0 when there are none); it stops
    at 1, and a polynomial that the gcd so far divides leaves it as it is."""
    g = LaurentPoly.zero(nvars)
    for p in polys:
        if g and len(g.terms) <= len(p.terms):
            # gcd would give normalize_unit(g), which is g: it is normalized.
            if divide_exact(p, g) is not None:
                continue
            g = _gcd_prs(g, p)  # gcd(g, p) would try that division again
        else:
            g = gcd(g, p) if g else normalize_unit(p)
        if g.is_one:
            break
    return g


# ---------------------------------------------------------------------------
# Torsion points and evaluation.


class TorsionPoint(Record):
    """A point of the torus with all coordinates N-th roots of unity.

    Coordinate ``j`` of the point is ``exp(-2*pi*i*numerators[j]/level)``,
    each numerator in ``[0, level)``; ``beta`` holds the residue classes
    ``numerators[j] / level``.  Every point is range-checked, grid points
    too; ``str`` joins each coordinate's ``format_ratio(n, level)``.
    """

    _fields = ("level", "numerators")

    def __init__(self, level: int, numerators: tuple[int, ...]):
        if level < 1:
            raise LimitError("level must be positive")
        for n in numerators:
            if not 0 <= n < level:
                raise LimitError(f"numerator {n} outside [0, {level})")
        _set(self, "level", level)
        _set(self, "numerators", numerators)

    @classmethod
    def from_numerators(cls, level: int, numerators) -> TorsionPoint:
        if level < 1:
            raise LimitError("level must be positive")
        return cls(level, tuple(n % level for n in numerators))

    @classmethod
    def from_residues(cls, level: int, residues) -> TorsionPoint:
        """Build from arbitrary rationals, reducing each mod 1."""
        numerators = []
        for r in residues:
            scaled = Fraction(r) * level
            if scaled.denominator != 1:
                raise LimitError(f"residue class {r} has level not dividing {level}")
            numerators.append(scaled.numerator)
        return cls.from_numerators(level, numerators)

    @property
    def beta(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.level) for n in self.numerators)

    @property
    def nvars(self) -> int:
        return len(self.numerators)

    def negate(self) -> TorsionPoint:
        return TorsionPoint.from_numerators(self.level, (-n for n in self.numerators))

    def is_trivial(self) -> bool:
        return not any(self.numerators)

    def __str__(self):
        return "(" + ",".join(format_ratio(n, self.level) for n in self.numerators) + ")"


MAX_SCAN_POINTS = 100_000
"""Largest torsion grid, ``level ** nvars`` points, that a scan accepts."""

MAX_NVARS = 100
"""Most variables a presentation, or residue parameters a scenario, may
declare: a term stores one exponent, and a grid point one numerator, each."""


def torsion_grid(level: int, nvars: int):
    """All level-N torsion points, in lexicographic order of numerators.

    The grid size is checked when this is called, before any point exists.
    """
    check_grid(level, nvars)
    return (TorsionPoint(level, nums) for nums in product(range(level), repeat=nvars))


def check_grid(level: int, nvars: int) -> None:
    """``LimitError`` unless the level-N grid has 1 to ``MAX_SCAN_POINTS`` points."""
    if level < 1:
        raise LimitError(f"level must be >= 1, got {level}")
    # 2 ** bit_length passes the cap, so no larger power needs building.
    if level > MAX_SCAN_POINTS or (
            level ** min(nvars, MAX_SCAN_POINTS.bit_length()) > MAX_SCAN_POINTS):
        raise LimitError(
            f"level {level} gives {level}^{nvars} torsion points, "
            f"more than the limit of {MAX_SCAN_POINTS}"
        )


def grid_points(level: int, nvars: int, indices) -> tuple[TorsionPoint, ...]:
    """The points at lexicographic ``indices`` of :func:`torsion_grid`: the
    numerators of index ``k`` are its base-``level`` digits."""
    places = [level ** j for j in range(nvars - 1, -1, -1)]
    return tuple(TorsionPoint(level, tuple(k // p % level for p in places)) for k in indices)


def evaluate_at_torsion(p: LaurentPoly, point: TorsionPoint) -> CyclotomicNumber:
    """Substitute ``tj -> exp(-2*pi*i*beta[j])``, exactly, in Q(zeta_N)."""
    if p.nvars != point.nvars:
        raise DimensionError(
            f"polynomial in {p.nvars} variables evaluated at a point of length {point.nvars}"
        )
    n = point.level
    nums = point.numerators
    # Accumulate by power of zeta_N, then reduce once.
    powers = [Fraction(0)] * n
    for exps, coeff in p.terms.items():
        k = -sum(e * b for e, b in zip(exps, nums)) % n
        powers[k] += coeff
    return CyclotomicNumber._make(n, powers)


# ---------------------------------------------------------------------------
# Parsing and formatting.

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<var>t\d*)|(?P<op>[*/^+-])|(?P<bad>\S)")


def parse_poly(text: str, nvars: int) -> LaurentPoly:
    """Parse the textual grammar into a polynomial in ``nvars`` variables.

    One pass over the tokens, each a ``(int, var, op, bad)`` tuple with one
    field set; ``state`` says what the next may be: 0 a sign or a term, 1
    and 2 a term (after a leading sign, and after a sign between terms), 3
    a factor (after ``*``), 4-6 the rest of a term (after a coefficient, a
    variable, and a denominator or an exponent), 7 a denominator, 8 and 9
    an exponent (after ``^``, and after ``^-``).  Each variable adds 1 to
    its exponent when read, and its exponent ``e`` adds ``e - 1``."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    terms = {}
    sign, coeff, exps, state = 1, 1, [0] * nvars, 0
    try:
        for at, (digits, var, op, _) in enumerate(tokens):
            if var and state < 4:
                if var == "t":
                    if nvars != 1:
                        raise _parse_error(
                            text, tokens, at,
                            "bare variable 't' is ambiguous; use t1..t%d" % nvars)
                    idx = 0
                else:
                    idx = int(var[1:]) - 1
                    if not 0 <= idx < nvars:
                        raise _parse_error(
                            text, tokens, at, f"unknown variable {var!r} (nvars = {nvars})")
                exps[idx] += 1
                state = 5
            elif digits and state < 3:
                coeff, state = int(digits), 4
            elif digits and state == 7:
                den = int(digits)
                if not den:
                    raise _parse_error(text, tokens, at, "zero denominator")
                coeff, state = Fraction(coeff, den), 6
            elif digits and state > 7:
                power = int(digits)
                exps[idx] += (power if state == 8 else -power) - 1
                state = 6
            elif op == "*" and 3 < state < 7:
                state = 3
            elif op == "/" and state == 4:
                state = 7
            elif op == "^" and state == 5:
                state = 8
            elif op == "-" and state == 8:
                state = 9
            elif (op == "+" or op == "-") and (state == 0 or 3 < state < 7):
                if state:
                    key = tuple(exps)
                    terms[key] = terms.get(key, 0) + sign * coeff
                    coeff, exps = 1, [0] * nvars
                sign = -1 if op == "-" else 1
                state = 2 if state else 1
            else:
                raise _parse_error(text, tokens, at, _expected(state))
    except ParseError:
        raise
    except ValueError as exc:  # more digits than int() converts
        raise _parse_error(text, tokens, at, str(exc))
    if state == 2:
        raise _parse_error(text, tokens, len(tokens) - 1, "dangling sign")
    if not 3 < state < 7:
        raise _parse_error(text, tokens, len(tokens), _expected(state))
    key = tuple(exps)
    terms[key] = terms.get(key, 0) + sign * coeff
    # A Fraction sum of denominator 1 is stored as its int, as the
    # constructor stores it.
    return LaurentPoly._make(nvars, {
        e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c})


def _expected(state: int) -> str:
    """What ``parse_poly`` wanted in ``state`` and did not find."""
    if state < 4:
        return "expected a variable factor"
    if state < 7:
        return "expected '+' or '-' between terms"
    return "expected a denominator" if state == 7 else "expected an integer exponent"


def _parse_error(text: str, tokens: list, at: int, message: str) -> ParseError:
    """``message`` at token ``at`` (past the last token: at the end of the
    text), unless a token is an unexpected character: the first of those
    is the error, wherever it is, as no grammar holds for such text.  Only
    this re-scans the text for token positions."""
    bad = next((j for j, token in enumerate(tokens) if token[3]), None)
    if bad is not None:
        at, message = bad, f"unexpected character {tokens[bad][3]!r}"
    if at == len(tokens):
        return ParseError(message, len(text))
    return ParseError(message, next(islice(_TOKEN.finditer(text), at, None)).start())


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form; ``parse_poly(format_poly(p), p.nvars) == p``.  A
    coefficient too long to print is a ``LimitError`` (``format_rational``)."""
    if p.is_zero:
        return "0"
    parts = []
    for exps in sorted(p.terms, key=_grlex_key, reverse=True):
        coeff = p.terms[exps]
        factors = [
            f"t{j + 1}" + (f"^{e}" if e != 1 else "")
            for j, e in enumerate(exps)
            if e != 0
        ]
        mag = abs(coeff)
        if not factors:
            body = format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_rational(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)
