"""Finitely presented modules over the Laurent polynomial ring.

A module is given by an n x m presentation matrix (rows = generators,
columns = relations).  From it we compute elementary ideals, characteristic
polynomials (gcds of minors), supports and Fitting-stratified variety scans
over torsion points of a chosen level.

Conventions for the i-th elementary ideal of an n-generator presentation:
the full ring when ``i >= n``, the zero ideal when ``n - i > m``, and
otherwise the ideal of all ``(n-i) x (n-i)`` minors.

Minors are shared: each is a Laplace expansion along its first row, memoised
on its (row subset, column subset), so one table of sub-minors serves all
``C(n,k) * C(m,k)`` minors of an ideal instead of ``k!`` products each.  The
table is a dict the presentation keeps (``Presentation.minors`` fills it),
serves every index and every op, lives as long as the presentation (in the
CLI, as long as its decoded-input cache keeps it), goes with it into pickles
and copies, never holds more than every minor of the matrix, and takes no
part in ``==``, ``hash``, ``repr`` or the dataclass fields.  An op builds
only the minors its answer needs: it reads them one at a time, in
``elementary_ideal``'s order, and stops once the answer is settled
(``char_poly`` at a gcd of 1, a vanishing test once no point is left where
every minor so far vanishes).  An answer that never settles early, such as
a scan of an ideal whose every minor vanishes at the trivial point, still
builds every minor.

Vanishing at torsion points is decided in integers: each ideal generator is
scaled by the lcm of its denominators (which does not change where it
vanishes) and compiled once to ``(exponents, coefficient)`` pairs; at a
level-N point its value is summed by power of ``zeta_N`` into a ``P`` of
degree below N.  ``P(zeta_N) = 0`` iff ``P * M = 0`` modulo ``x^N - 1`` for
``M = prod (x^(N/p) - 1)`` over the primes ``p | N``, since ``x^N - 1`` is
the product of the ``Phi_d``, ``d | N``, and ``M`` is zero at each
``zeta_d`` with ``d < N`` but not at ``zeta_N``.  ``in_support`` runs this
test at its one point.  A scan runs it once per orbit of ``(Z/N)^x`` acting
on numerators by ``n -> u*n``, and the verdict holds on the whole orbit:
the coefficients are rational, so a generator's value at ``u*n`` is
``sigma_u`` of its value at ``n``, where ``sigma_u: zeta_N -> zeta_N^u`` is
a field automorphism of ``Q(zeta_N)``, and an automorphism sends only zero
to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd as int_gcd, lcm
from operator import mul, sub
from pathlib import Path

from . import laurent_ring
from .errors import DimensionError, LimitError, ParseError, SchemaError
from .errors import fields, integers, load_json
from .exact_kernel import prime_divisors
from .laurent_ring import (
    LaurentPoly,
    TorsionPoint,
    format_poly,
    gcd,
    parse_poly,
    torsion_grid,
)


@dataclass(frozen=True)
class Presentation:
    """Presentation matrix of a module: ``generators`` rows, ``relations`` columns."""

    nvars: int
    generators: int
    relations: int
    matrix: tuple  # tuple of generator rows, each a tuple of LaurentPoly

    def __post_init__(self):
        if len(self.matrix) != self.generators:
            raise DimensionError("matrix must have one row per generator")
        for row in self.matrix:
            if len(row) != self.relations:
                raise DimensionError("matrix must have one column per relation")
            for entry in row:
                if entry.nvars != self.nvars:
                    raise DimensionError("matrix entry has wrong variable count")

    @classmethod
    def from_rows(cls, nvars: int, rows) -> Presentation:
        rows = tuple(tuple(r) for r in rows)
        m = len(rows[0]) if rows else 0
        return cls(nvars, len(rows), m, rows)

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.matrix[i][j]

    @cached_property
    def _minor_memo(self) -> dict:
        """Every minor built so far, by its (rows, cols) index tuples."""
        return {}

    def minors(self, rows, cols) -> LaurentPoly:
        """``det(rows, cols)`` of sorted index tuples, by Laplace expansion
        along the first row; every sub-minor is computed once and kept."""
        memo = self._minor_memo
        found = memo.get((rows, cols))
        if found is None:
            top = self.matrix[rows[0]]
            if len(rows) == 1:
                found = top[cols[0]]
            else:
                found = LaurentPoly.zero(self.nvars)
                for j, c in enumerate(cols):
                    if top[c]:
                        term = top[c] * self.minors(rows[1:], cols[:j] + cols[j + 1 :])
                        found = found - term if j % 2 else found + term
            memo[rows, cols] = found
        return found


@dataclass(frozen=True)
class IdealGenerators:
    """Generators of an ideal; empty means the zero ideal, a unit generator
    means the full ring."""

    gens: tuple

    @property
    def is_zero_ideal(self) -> bool:
        return not self.gens

    @property
    def is_full_ring(self) -> bool:
        return any(g.is_unit for g in self.gens)


def _minors(pres: Presentation, i: int):
    """The i-th elementary ideal's generators, each built when asked for."""
    n, m = pres.generators, pres.relations
    if i >= n:
        yield LaurentPoly.one(pres.nvars)
    elif n - i <= m:
        for rsel in combinations(range(n), n - i):
            for csel in combinations(range(m), n - i):
                minor = pres.minors(rsel, csel)
                if minor:
                    yield minor


def elementary_ideal(pres: Presentation, i: int) -> IdealGenerators:
    """The i-th elementary ideal, by the conventions of the module docstring."""
    return IdealGenerators(tuple(_minors(pres, i)))


def char_poly(pres: Presentation, i: int) -> LaurentPoly:
    """Normalized gcd of the i-th elementary ideal (0 for the zero ideal,
    1 for the full ring); it stops at the first minor that brings it to 1."""
    g = LaurentPoly.zero(pres.nvars)
    for gen in _minors(pres, i):
        g = gcd(g, gen)
        if g.is_one:
            break
    return g


def direct_sum(p1: Presentation, p2: Presentation) -> Presentation:
    """Block-diagonal presentation of the direct sum."""
    if p1.nvars != p2.nvars:
        raise DimensionError("direct sum of modules over different rings")
    zero = LaurentPoly.zero(p1.nvars)
    rows = []
    for row in p1.matrix:
        rows.append(tuple(row) + (zero,) * p2.relations)
    for row in p2.matrix:
        rows.append((zero,) * p1.relations + tuple(row))
    return Presentation(
        p1.nvars,
        p1.generators + p2.generators,
        p1.relations + p2.relations,
        tuple(rows),
    )


def cyclic_module(gens, nvars: int | None = None) -> Presentation:
    """Presentation of ``R / (gens)`` on one generator; an empty generator
    list gives the free rank-one module (``nvars`` is then required)."""
    gens = tuple(gens)
    if nvars is None:
        if not gens:
            raise ValueError("nvars is required for an empty generator list")
        nvars = gens[0].nvars
    return Presentation(nvars, 1, len(gens), (gens,))


def tensor_cyclic(p1: Presentation, p2: Presentation) -> Presentation:
    """Tensor product of cyclic modules: ``R/I (x) R/J = R/(I + J)``."""
    if p1.generators != 1 or p2.generators != 1:
        raise ValueError("tensor_cyclic needs cyclic presentations")
    if p1.nvars != p2.nvars:
        raise DimensionError("tensor product of modules over different rings")
    return cyclic_module(p1.matrix[0] + p2.matrix[0], p1.nvars)


def _vanishing(gens, level: int, candidates):
    """The candidate numerators of level-N points where all ``gens`` vanish;
    each generator is compiled and tested only where those before it vanish."""
    *steps, last = [level // p for p in prime_divisors(level)] or [0]
    for g in gens:
        den = lcm(*(c.denominator for c in g.terms.values()))
        terms = [(e, c.numerator * (den // c.denominator)) for e, c in g.terms.items()]
        kept = []
        for nums in candidates:
            powers = [0] * level
            for exps, c in terms:
                powers[-sum(map(mul, exps, nums)) % level] += c
            # Multiply by x^s - 1 mod x^N - 1 for each s = N/p but the last;
            # times the last, the product is zero iff the list has period s.
            for s in steps:
                powers = list(map(sub, powers[-s:] + powers[:-s], powers))
            if (powers[last:] == powers[:-last]) if last else not powers[0]:
                kept.append(nums)
        candidates = kept
        if not candidates:
            break
    return candidates


def in_support(pres: Presentation, point: TorsionPoint) -> bool:
    """True iff every generator of the 0-th elementary ideal vanishes at the
    point (zero ideal: always true; full ring: always false).  It costs
    about ``omega(N) * N`` steps per generator at level N, where ``omega(N)``
    is the number of distinct primes of N: a level past ``MAX_SCAN_POINTS``
    is refused, as in a scan."""
    if pres.nvars != point.nvars:
        raise DimensionError("point length does not match the module's ring")
    if point.level > (cap := laurent_ring.MAX_SCAN_POINTS):
        raise LimitError(f"level {point.level} is more than the limit of {cap}")
    return bool(_vanishing(_minors(pres, 0), point.level, [point.numerators]))


def _scan(pres: Presentation, i: int, level: int) -> tuple[TorsionPoint, ...]:
    """Level-N points where every generator of the (i-1)-st elementary ideal
    vanishes, in lexicographic order; the grid is checked first, also when
    the ideal is the full ring, and one point per orbit is decided."""
    grid = list(torsion_grid(level, pres.nvars))
    units = [u for u in range(1, level + 1) if int_gcd(u, level) == 1]
    first = {}  # numerators -> those of the first grid point of their orbit
    for point in grid:
        nums = point.numerators
        if nums not in first:
            for u in units:
                first[tuple(u * n % level for n in nums)] = nums
    zeros = set(_vanishing(_minors(pres, i - 1), level, set(first.values())))
    return tuple(pt for pt in grid if first[pt.numerators] in zeros)


def support_scan(pres: Presentation, level: int) -> tuple[TorsionPoint, ...]:
    """All level-N torsion points in the support, in lexicographic order."""
    return _scan(pres, 1, level)


def fitting_variety_scan(
    pres: Presentation, i: int, level: int
) -> tuple[TorsionPoint, ...]:
    """Torsion points where every generator of the (i-1)-st elementary ideal
    vanishes (the i-th Fitting-stratified characteristic variety)."""
    if i < 1:
        raise ValueError("variety index must be >= 1")
    return _scan(pres, i, level)


# ---------------------------------------------------------------------------
# Presentation files.


MAX_NVARS = 100
"""Most variables a presentation may declare; a term stores one exponent each."""

MAX_DEGREE_SPAN = 64
"""Largest spread ``max - min`` of one variable's exponents in one entry; the
gcd and the cyclotomic factoring of ``charpoly`` work one degree at a time."""

MAX_TERMS = 64
"""Most terms one presentation entry may have."""


def presentation_from_dict(data: dict, path: str = "") -> Presentation:
    nvars, n, m, raw = fields(data, path, "nvars", "generators", "relations", "matrix")
    integers(nvars, f"{path}/nvars", 1)
    if nvars > MAX_NVARS:
        raise LimitError(f"{path}/nvars: {nvars} is more than the limit of {MAX_NVARS}")
    if not (type(n) is int and n >= 0 and type(m) is int and m >= 0):
        raise SchemaError(f"{path}/generators", "counts must be non-negative integers")
    if not isinstance(raw, list) or len(raw) != n:
        raise SchemaError(f"{path}/matrix", f"expected {n} generator rows")
    rows = []
    for i, raw_row in enumerate(raw):
        if not isinstance(raw_row, list) or len(raw_row) != m:
            raise SchemaError(f"{path}/matrix/{i}", f"expected {m} relation entries")
        row = []
        for j, text in enumerate(raw_row):
            here = f"{path}/matrix/{i}/{j}"
            try:
                entry = parse_poly(str(text), nvars)
            except (ParseError, DimensionError) as exc:
                raise SchemaError(here, str(exc)) from exc
            if len(entry.terms) > MAX_TERMS:
                raise LimitError(
                    f"{here}: {len(entry.terms)} terms, more than the limit of "
                    f"{MAX_TERMS}"
                )
            span = max(map(sub, entry.max_exponents(), entry.min_exponents()))
            if span > MAX_DEGREE_SPAN:
                raise LimitError(
                    f"{here}: degree span {span} is more than the limit of "
                    f"{MAX_DEGREE_SPAN}"
                )
            row.append(entry)
        rows.append(tuple(row))
    return Presentation(nvars, n, m, tuple(rows))


def presentation_to_dict(pres: Presentation) -> dict:
    return {
        "nvars": pres.nvars,
        "generators": pres.generators,
        "relations": pres.relations,
        "matrix": [[format_poly(e) for e in row] for row in pres.matrix],
    }


def presentation_from_json(data: bytes) -> Presentation:
    return presentation_from_dict(load_json(data))


def load_presentation(path: str) -> Presentation:
    return presentation_from_json(Path(path).read_bytes())
