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
table belongs to the presentation (``Presentation.minors``): every index
``i`` and every op (``elementary_ideal``, ``char_poly``, the scans and
``in_support``) reads the same one, and it lives as long as the presentation
does, which for the CLI is as long as its decoded-input cache keeps it.  It
never holds more than every minor of the matrix, and takes no part in
``==``, ``hash`` or ``repr``.

Vanishing at torsion points is decided in integers: each ideal generator is
scaled by the lcm of its denominators (which does not change where it
vanishes) and compiled once to ``(exponents, coefficient)`` pairs; at a
level-N point its value is summed by power of ``zeta_N`` and reduced by the
monic integer cyclotomic polynomial ``Phi_N``, and it vanishes iff the
remainder is zero.  ``in_support`` runs this test at its one point.  A scan
runs it once per orbit of ``(Z/N)^x`` acting on numerators by ``n -> u*n``,
and the verdict holds on the whole orbit: the coefficients are rational, so
a generator's value at ``u*n`` is ``sigma_u`` of its value at ``n``, where
``sigma_u: zeta_N -> zeta_N^u`` is a field automorphism of ``Q(zeta_N)``,
and an automorphism sends only zero to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd as int_gcd, lcm
from operator import mul, sub
from pathlib import Path

from .errors import DimensionError, LimitError, ParseError, SchemaError
from .errors import fields, integers, load_json
from .exact_kernel import cyclotomic_poly
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
    def minors(self):
        """The shared minor table of this matrix (``_minor_table``), built on
        first use and kept with the presentation."""
        return _minor_table(self)

    def __getstate__(self):
        # The table is a closure, which pickle refuses; a copy builds its own.
        state = dict(self.__dict__)
        state.pop("minors", None)
        return state


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


def _minor_table(pres: Presentation):
    """``det(rows, cols)`` of sorted index tuples, by Laplace expansion along
    the first row; every sub-minor is computed once and shared."""
    memo = {}
    matrix = pres.matrix
    zero = LaurentPoly.zero(pres.nvars)

    def det(rows, cols):
        found = memo.get((rows, cols))
        if found is None:
            top = matrix[rows[0]]
            if len(rows) == 1:
                found = top[cols[0]]
            else:
                found = zero
                for j, c in enumerate(cols):
                    if top[c]:
                        term = top[c] * det(rows[1:], cols[:j] + cols[j + 1 :])
                        found = found - term if j % 2 else found + term
            memo[rows, cols] = found
        return found

    return det


def elementary_ideal(pres: Presentation, i: int) -> IdealGenerators:
    """The i-th elementary ideal: all ``(n-i) x (n-i)`` minors, with the
    conventions for ``i >= n`` (full ring) and ``n - i > m`` (zero ideal)."""
    n, m = pres.generators, pres.relations
    if i >= n:
        return IdealGenerators((LaurentPoly.one(pres.nvars),))
    if n - i > m:
        return IdealGenerators(())
    k = n - i
    det = pres.minors
    gens = []
    for rsel in combinations(range(n), k):
        for csel in combinations(range(m), k):
            minor = det(rsel, csel)
            if minor:
                gens.append(minor)
    return IdealGenerators(tuple(gens))


def char_poly(pres: Presentation, i: int) -> LaurentPoly:
    """Normalized gcd of the i-th elementary ideal (0 for the zero ideal,
    1 for the full ring)."""
    ideal = elementary_ideal(pres, i)
    g = LaurentPoly.zero(pres.nvars)
    for gen in ideal.gens:
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


def _vanishing_test(gens, level: int):
    """Predicate on numerator tuples of level-N points: every generator
    vanishes there.  Integers only, see the module docstring."""
    compiled = []
    for g in gens:
        den = lcm(*(c.denominator for c in g.terms.values()))
        compiled.append(
            [(e, c.numerator * (den // c.denominator)) for e, c in g.terms.items()]
        )
    modulus = cyclotomic_poly(level)[:-1]
    deg = len(modulus)

    def vanishes(nums) -> bool:
        for terms in compiled:
            powers = [0] * level
            for exps, c in terms:
                powers[-sum(map(mul, exps, nums)) % level] += c
            # Subtract multiples of the monic Phi_N from the top down.
            for k in range(level - 1, deg - 1, -1):
                c = powers[k]
                if c:
                    for j, d in enumerate(modulus, k - deg):
                        powers[j] -= c * d
            if any(powers[:deg]):
                return False
        return True

    return vanishes


def in_support(pres: Presentation, point: TorsionPoint) -> bool:
    """True iff every generator of the 0-th elementary ideal vanishes at the
    point (zero ideal: always true; full ring: always false)."""
    if pres.nvars != point.nvars:
        raise DimensionError("point length does not match the module's ring")
    ideal = elementary_ideal(pres, 0)
    return _vanishing_test(ideal.gens, point.level)(point.numerators)


def _vanishing_points(gens, level, grid):
    vanishes = _vanishing_test(gens, level)
    units = [u for u in range(1, level + 1) if int_gcd(u, level) == 1]
    verdicts = {}  # filled a whole (Z/N)^x orbit at its first grid point
    found = []
    for point in grid:
        nums = point.numerators
        if nums not in verdicts:
            verdict = vanishes(nums)
            for u in units:
                verdicts[tuple(u * n % level for n in nums)] = verdict
        if verdicts[nums]:
            found.append(point)
    return tuple(found)


def support_scan(pres: Presentation, level: int) -> tuple[TorsionPoint, ...]:
    """All level-N torsion points in the support, in lexicographic order."""
    grid = torsion_grid(level, pres.nvars)
    return _vanishing_points(elementary_ideal(pres, 0).gens, level, grid)


def fitting_variety_scan(
    pres: Presentation, i: int, level: int
) -> tuple[TorsionPoint, ...]:
    """Torsion points where every generator of the (i-1)-st elementary ideal
    vanishes (the i-th Fitting-stratified characteristic variety)."""
    if i < 1:
        raise ValueError("variety index must be >= 1")
    # The grid is checked first, also when the ideal needs no scan.
    grid = torsion_grid(level, pres.nvars)
    ideal = elementary_ideal(pres, i - 1)
    if ideal.is_full_ring:
        return tuple()
    return _vanishing_points(ideal.gens, level, grid)


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
