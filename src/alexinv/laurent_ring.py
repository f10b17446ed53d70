"""Sparse multivariate Laurent polynomials with rational coefficients.

A polynomial in ``s`` variables ``t1 .. ts`` is a mapping from exponent
tuples (length ``s``, negative entries allowed) to nonzero rationals, ``int``
when integral and ``Fraction`` otherwise, whatever op built it; 0 has no
terms.  No ``/`` may run between two ``int`` coefficients: it gives a ``float``.

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

Unit normalization and gcd work up to multiplication by units of the Laurent
ring (nonzero rationals times monomials); the canonical representative of a
unit class shifts every variable's minimum exponent to 0, clears denominators
to integer content 1, and makes the graded-lex leading coefficient positive:
that of the greatest total degree, ties going to the greatest exponent tuple,
which ``format_poly`` prints first.  Exact division takes Laurent polynomials
as they are, negative exponents included; only the canonical form and the
primitive PRS shift to ordinary form (least exponents 0).  ``gcd_all`` is the
one gcd loop and ``gcd`` its two-argument form: each step tries the shorter
polynomial as an exact divisor of the other and runs the PRS only when that
fails; the PRS takes every content through ``gcd_all``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, islice
from math import gcd as int_gcd, lcm as int_lcm
from operator import add, sub

from .errors import DimensionError, LimitError, ParseError, _set, moved
from .exact_kernel import _TOO_LONG, format_rational

__getattr__ = moved(__name__, "TorsionPoint divides evaluate_at_torsion grid_points torsion_grid")


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
            clean[exps] = clean.get(exps, 0) + coeff
        _set(self, "nvars", nvars)
        _set(self, "terms", _ints(clean))

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
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, value, nvars: int) -> LaurentPoly:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int) -> LaurentPoly:
        return cls._make(nvars, {(0,) * nvars: 1})

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
        if type(sum(other.terms.values())) is not int:  # a Fraction; two may sum to an int
            terms = _ints(terms)
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
        if type(sum(self.terms.values()) + sum(other.terms.values())) is not int:
            return LaurentPoly._make(self.nvars, _ints(terms))
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
        return tuple(map(min, zip(*self.terms))) or (0,) * self.nvars

    def max_exponents(self) -> tuple[int, ...]:
        return tuple(map(max, zip(*self.terms))) or (0,) * self.nvars

    def shifted(self, delta) -> LaurentPoly:
        """Multiply by the monomial with exponent vector ``delta``."""
        return LaurentPoly._make(
            self.nvars,
            {tuple(map(add, e, delta)): c for e, c in self.terms.items()},
        )


def _ints(terms: dict) -> dict:
    """``terms`` without its zeros, each integral ``Fraction`` as its ``int``."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c}


def exponent_box(p: LaurentPoly) -> tuple[list, list]:
    """Each variable's greatest and least exponent in ``p``, none for 0, in
    one pass over the terms: ``map(sub, *exponent_box(p))`` gives the spans."""
    high, low = [], []
    for exps in zip(*p.terms):
        high.append(max(exps))
        low.append(min(exps))
    return high, low


def _shift_to_ordinary(p: LaurentPoly) -> LaurentPoly:
    mins = p.min_exponents()
    return p.shifted(tuple(-m for m in mins)) if any(mins) else p


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of the unit class of ``p``.

    Shifts every variable's minimum exponent to 0, scales to primitive
    ``int`` coefficients, and makes the graded-lex leading coefficient
    positive.  Idempotent; maps 0 to 0.
    """
    if p.is_zero:
        return p
    q = _shift_to_ordinary(p)
    terms = q.terms
    integral = set(map(type, terms.values())) == {int}
    den = 1 if integral else int_lcm(*(c.denominator for c in terms.values()))
    num = int_gcd(*(terms.values() if integral else (int(c * den) for c in terms.values())))
    # The graded-lex leading term has the greatest (degree, exponents) pair.
    if terms[max(zip(map(sum, terms), terms))[1]] < 0:
        num = -num
    if integral and num == 1:
        return q
    return LaurentPoly._make(q.nvars, {e: c * den // num for e, c in terms.items()})


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
    (p_high, p_low), (q_high, q_low) = exponent_box(p), exponent_box(q)
    low, high = list(map(sub, p_low, q_low)), list(map(sub, p_high, q_high))
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


# ---------------------------------------------------------------------------
# Multivariate gcd: a primitive PRS that takes every content through ``gcd_all``.


def _degree_in(p: LaurentPoly, v: int) -> int:
    return max((e[v] for e in p.terms), default=0)


def _univ_coeffs(p: LaurentPoly, v: int) -> dict[int, LaurentPoly]:
    """Coefficients of powers of variable ``v`` (with that exponent zeroed)."""
    buckets: dict[int, dict] = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1 :]] = c
    return {d: LaurentPoly._make(p.nvars, t) for d, t in buckets.items()}


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
    """The PRS step of ``gcd_all``: ``a`` and ``b`` are nonzero and the
    shorter does not divide the longer, so neither is a single term (a unit)
    and, in ordinary form, some variable has positive degree."""
    a, b = _shift_to_ordinary(a), _shift_to_ordinary(b)
    v = max(j for j in range(a.nvars) if _degree_in(a, j) > 0 or _degree_in(b, j) > 0)
    ca = gcd_all(_univ_coeffs(a, v).values(), a.nvars)
    cb = gcd_all(_univ_coeffs(b, v).values(), a.nvars)
    pa = divide_exact(a, ca)
    pb = divide_exact(b, cb)
    if _degree_in(pa, v) < _degree_in(pb, v):
        pa, pb = pb, pa
    while not pb.is_zero and _degree_in(pb, v) > 0:
        r = _pseudo_rem(pa, pb, v)
        if not r.is_zero:
            r = normalize_unit(divide_exact(r, gcd_all(_univ_coeffs(r, v).values(), a.nvars)))
        pa, pb = pb, r
    c = gcd_all((ca, cb), a.nvars)
    # A nonzero remainder of degree 0 in v: the primitive parts are coprime.
    return normalize_unit(c if pb else c * pa)


def gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Normalized greatest common divisor in the unit-class sense: the
    two-argument form of ``gcd_all``."""
    if p.nvars != q.nvars:
        raise DimensionError("gcd between different variable counts")
    return gcd_all((p, q), p.nvars)


def gcd_all(polys, nvars: int) -> LaurentPoly:
    """Normalized gcd of ``polys``, zeros skipped (0 when none is nonzero); it
    stops at 1.  Each step tries the shorter of the gcd so far and the next
    polynomial (the gcd so far on a tie) as an exact divisor of the other,
    and runs the PRS only when that division fails."""
    g = LaurentPoly.zero(nvars)
    for p in polys:
        if p.is_zero:
            continue
        if g.is_zero:
            g = normalize_unit(p)
        elif len(g.terms) <= len(p.terms):
            if divide_exact(p, g) is None:
                g = _gcd_prs(g, p)
        elif divide_exact(g, p) is not None:
            g = normalize_unit(p)
        else:
            g = _gcd_prs(p, g)
        if g.is_one:
            break
    return g


# ---------------------------------------------------------------------------
# Torsion grids.


MAX_SCAN_POINTS = 100_000
"""Largest torsion grid, ``level ** nvars`` points, that a scan accepts."""

MAX_NVARS = 100
"""Most variables a presentation, or residue parameters a scenario, may
declare: a term stores one exponent, and a grid point one numerator, each."""


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
    return LaurentPoly._make(nvars, _ints(terms))


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
    coefficient too long to print is a ``LimitError`` (``format_rational``).
    Terms go greatest first in graded-lex order, each a sign and magnitude
    (``" - 4"``) and a factor per variable (``"*t1^2"``, ``""``), each text made
    once a call; a unit magnitude before a factor is then cut (`` 1*``)."""
    if p.is_zero:
        return "0"
    terms = p.terms
    heads = {}
    for c in set(terms.values()):
        mag = str(abs(c)) if type(c) is int and abs(c) < _TOO_LONG else format_rational(abs(c))
        heads[c] = (" - " if c < 0 else " + ") + mag
    order = sorted(sorted(terms, reverse=True), key=sum, reverse=True)  # lex, then degree
    columns = [map(heads.__getitem__, map(terms.__getitem__, order))]
    for j, exps in enumerate(zip(*order), 1):
        names = {0: "", 1: f"*t{j}"}
        for e in set(exps) - names.keys():
            names[e] = f"*t{j}^{e}"
        columns.append(map(names.__getitem__, exps))
    text = "".join(chain.from_iterable(zip(*columns))).replace(" 1*", " ")
    return text[3:] if text[1] == "+" else "-" + text[3:]
