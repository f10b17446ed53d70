"""Earlier implementations kept as oracles for the ones that replaced them.

``parse_poly`` is the recursive-descent parser over match objects that the
one-pass ``laurent_ring.parse_poly`` replaced; ``format_poly`` is the printer
that built each term's text on its own, with one key-function call per term
to sort and one ``format_rational`` call per coefficient, before
``laurent_ring.format_poly`` made each distinct text once per call;
``zeros_per_pivot`` is the scan step that tested every peeled pivot at every
candidate before ``alexander_modules._zeros`` walked the pivots' divisibility
runs; ``peeled`` is ``Presentation._peeled`` as it was when its row check and
column quotients still divided the candidate entry by itself.

The helpers after them read records the way tests do and no command does:
``is_zero_matrix`` was ``exact_kernel.is_zero_matrix``;
``is_zero_ideal(ideal)`` and ``is_full_ring(ideal)`` were the properties
``IdealGenerators.is_zero_ideal`` and ``is_full_ring``;
``from_residues(level, residues)``, ``negate(point)`` and
``is_trivial(point)`` were ``TorsionPoint.from_residues``, ``negate`` and
``is_trivial``; ``points_with_dim_above(scan, i)`` was
``CharvarScan.points_with_dim_above``; ``presentation(nvars, rows)`` was
``Presentation.from_rows``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from alexinv.alexander_modules import Presentation, _minors, _vanishing
from alexinv.constructions import TorsionPoint
from alexinv.errors import LimitError, ParseError
from alexinv.exact_kernel import format_rational
from alexinv.laurent_ring import _TOKEN, LaurentPoly, divide_exact, exponent_box


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens


def parse_poly(text: str, nvars: int) -> LaurentPoly:
    """Parse the textual grammar into a polynomial in ``nvars`` variables."""
    tokens = _tokenize(text)
    pos = 0
    n = len(tokens)

    def fail(message, at=None):
        where = tokens[at][2] if at is not None and at < n else len(text)
        raise ParseError(message, where)

    def peek():
        return tokens[pos] if pos < n else (None, None, len(text))

    def number(digits, at):
        try:
            return int(digits)
        except ValueError as exc:  # more digits than int() converts
            fail(str(exc), at)

    def var_index(name, at):
        digits = name[1:]
        if not digits:
            if nvars == 1:
                return 0
            fail("bare variable 't' is ambiguous; use t1..t%d" % nvars, at)
        idx = number(digits, at)
        if not 1 <= idx <= nvars:
            fail(f"unknown variable {name!r} (nvars = {nvars})", at)
        return idx - 1

    def parse_factor():
        nonlocal pos
        kind, value, _ = peek()
        if kind != "var":
            fail("expected a variable factor", pos)
        idx = var_index(value, pos)
        pos += 1
        power = 1
        if peek()[1] == "^":
            pos += 1
            sign = 1
            if peek()[1] == "-":
                sign = -1
                pos += 1
            kind, value, _ = peek()
            if kind != "int":
                fail("expected an integer exponent", pos)
            power = sign * number(value, pos)
            pos += 1
        return idx, power

    def parse_term():
        nonlocal pos
        coeff = 1
        exps = [0] * nvars
        kind, value, _ = peek()
        if kind == "int":
            coeff = number(value, pos)
            pos += 1
            if peek()[1] == "/":
                pos += 1
                kind, value, _ = peek()
                if kind != "int":
                    fail("expected a denominator", pos)
                denom = number(value, pos)
                if denom == 0:
                    fail("zero denominator", pos)
                coeff = Fraction(coeff, denom)
                pos += 1
            if peek()[1] != "*":
                return coeff, tuple(exps)
            pos += 1
        while True:
            idx, power = parse_factor()
            exps[idx] += power
            if peek()[1] != "*":
                break
            pos += 1
        return coeff, tuple(exps)

    if not tokens:
        raise ParseError("empty polynomial text", 0)

    terms: dict = {}
    sign = -1 if peek()[1] == "-" else 1
    if peek()[1] in ("+", "-"):
        pos += 1
    while True:
        coeff, exps = parse_term()
        terms[exps] = terms.get(exps, 0) + sign * coeff
        if pos >= n:
            break
        kind, value, _ = peek()
        if value not in ("+", "-"):
            fail("expected '+' or '-' between terms", pos)
        sign = -1 if value == "-" else 1
        pos += 1
        if pos >= n:
            fail("dangling sign", pos - 1)
    return LaurentPoly(nvars, terms)


def _grlex_key(exps):
    return (sum(exps), exps)


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


def zeros_per_pivot(pres, i: int, level: int, candidates) -> list:
    """The candidates where every generator of the (i-1)-st elementary ideal
    vanishes: each pivot in turn is tested at every candidate whose rank is
    not yet settled, then the residual's minors where it is not."""
    pivots, rest = pres._peeled
    need = dict.fromkeys(candidates, pres.generators - i + 1)  # k - z
    for a in pivots:
        live = [nums for nums, k in need.items() if k > 0]
        if not live:
            break
        zeros = set(_vanishing((a,), level, live))
        for nums in live:
            if nums not in zeros:
                need[nums] -= 1
    groups = {}
    for nums, k in need.items():
        groups.setdefault(k, []).append(nums)
    return [nums for k, group in groups.items() if k > 0
            for nums in _vanishing(_minors(rest, rest.generators - k), level, group)]


def peeled(pres) -> tuple:
    """``(pivots, rest)``: the entries split off as 1 x 1 blocks, by
    increasing total degree span, and the residual presentation (the
    presentation itself when none splits)."""
    rows, pivots = pres.matrix, []
    while True:
        order = sorted((len(a.terms), r, c)
                       for r, row in enumerate(rows) for c, a in enumerate(row) if a)
        for _, r, c in order:
            a = rows[r][c]
            if all(divide_exact(x, a) is not None for x in rows[r]):
                col = [divide_exact(row[c], a) for row in rows]
                if None not in col:
                    break
        else:
            break
        pivots.append(a)
        top = rows[r]
        rows = tuple(
            tuple(x - q * y if q and y else x
                  for j, (x, y) in enumerate(zip(row, top)) if j != c)
            for s, (row, q) in enumerate(zip(rows, col)) if s != r)
    if not pivots:
        return (), pres
    n = len(pivots)
    pivots.sort(key=lambda a: sum(map(sub, *exponent_box(a))))
    return tuple(pivots), Presentation(
        pres.nvars, pres.generators - n, pres.relations - n, rows)


def is_zero_matrix(m) -> bool:
    return all(x == 0 for x in m.entries)


def is_zero_ideal(ideal) -> bool:
    return not ideal.gens


def is_full_ring(ideal) -> bool:
    return any(g.is_unit for g in ideal.gens)


def from_residues(level: int, residues) -> TorsionPoint:
    """The level-N point of arbitrary rationals, each reduced mod 1."""
    numerators = []
    for r in residues:
        scaled = Fraction(r) * level
        if scaled.denominator != 1:
            raise LimitError(f"residue class {r} has level not dividing {level}")
        numerators.append(scaled.numerator)
    return TorsionPoint.from_numerators(level, numerators)


def negate(point: TorsionPoint) -> TorsionPoint:
    return TorsionPoint.from_numerators(point.level, (-n for n in point.numerators))


def is_trivial(point: TorsionPoint) -> bool:
    return not any(point.numerators)


def presentation(nvars: int, rows) -> Presentation:
    """The presentation whose generator rows are ``rows``."""
    rows = tuple(tuple(r) for r in rows)
    return Presentation(nvars, len(rows), len(rows[0]) if rows else 0, rows)


def points_with_dim_above(scan, i: int) -> tuple:
    """The points of a ``CharvarScan`` with ``dim H^degree > i``, sorted by
    numerators."""
    out = []
    for dim in sorted(scan.by_dimension):
        if dim > i:
            out.extend(scan.by_dimension[dim])
    return tuple(sorted(out, key=lambda p: p.numerators))
