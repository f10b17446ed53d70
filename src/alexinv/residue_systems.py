"""Residue data of an embedded resolution as integer linear forms.

Each divisor (component or exceptional) contributes one row of integer
coefficients; its logarithmic residue at a parameter vector ``alpha`` is the
dot product of the row with ``alpha``.  A choice of residues is admissible
when no residue is a strictly positive integer.

``admissible_search`` looks for an admissible representative of a residue
class vector ``beta`` by trying integer shifts inside a box, in a fixed
deterministic order (total absolute shift first, then lexicographic), so that
searches are reproducible.  Failure inside the box is reported as absence,
never as a certificate of non-admissibility.  The search itself runs on
integers, ``beta`` over a common denominator, and once per blocking
pattern: ``admissible_shifts`` takes any points one by one, and
``grid_shifts`` a whole torsion grid, visiting for each row only the points
where it can block and returning only the points that need a nonzero shift.
One residue vector has one integer entry, ``admissible_numerators``, which
takes ``beta`` as numerators over a common denominator and answers in
numerators over the same denominator; ``admissible_search`` is its
``Fraction`` form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from .errors import DimensionError, LimitError, SchemaError, fields, integers
from .exact_kernel import integer_vector
from .laurent_ring import MAX_NVARS

@dataclass(frozen=True)
class ResidueRow:
    label: str
    coeffs: tuple
    is_component: bool

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))


@dataclass(frozen=True)
class ResidueSystem:
    nparams: int
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if len(row.coeffs) != self.nparams:
                raise DimensionError(
                    f"row {row.label!r} has {len(row.coeffs)} coefficients, "
                    f"expected {self.nparams}"
                )


def residues(system: ResidueSystem, alpha) -> list[tuple[str, Fraction]]:
    """All residues, labeled, in row order."""
    numerators, denominator = integer_vector(alpha)
    if len(numerators) != system.nparams:
        raise DimensionError(
            f"alpha has length {len(numerators)}, expected {system.nparams}"
        )
    return [
        (row.label, Fraction(sum(map(mul, row.coeffs, numerators)), denominator))
        for row in system.rows
    ]


def is_admissible(system: ResidueSystem, alpha) -> bool:
    """True iff no residue is a strictly positive integer."""
    return not any(v > 0 and v.denominator == 1 for _, v in residues(system, alpha))


MAX_SHIFT_BOX = 100_000
"""Largest search box, ``(2 * bound + 1) ** nparams`` shifts, that a search
may use.  Each box's shift order is kept for reuse, so it must stay small."""


def shift_vectors(nparams: int, bound: int) -> list[tuple[int, ...]]:
    """Integer shift vectors with entries in [-bound, bound], ordered by total
    absolute shift and then lexicographically."""
    return list(shift_order(nparams, bound))


def shift_order(nparams: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """:func:`shift_vectors` as a kept tuple, after every check a search
    makes on its box; a caller that reuses an earlier search calls it too.

    The checks stay outside the cached ``_sorted_box``: the cap is read on
    every call, so a box cached earlier still obeys a lowered cap."""
    if bound < 0:
        raise LimitError("search bound must be >= 0")
    if (2 * bound + 1) ** nparams > MAX_SHIFT_BOX:
        raise LimitError(
            f"search box (2*{bound}+1)^{nparams} exceeds {MAX_SHIFT_BOX} shifts"
        )
    return _sorted_box(nparams, bound)


@lru_cache(maxsize=8)
def _sorted_box(nparams: int, bound: int) -> tuple[tuple[int, ...], ...]:
    grid = product(range(-bound, bound + 1), repeat=nparams)
    return tuple(sorted(grid, key=lambda k: (sum(map(abs, k)), k)))


def admissible_shifts(rows, points, denominator: int, bound: int) -> list:
    """For each numerator vector ``n`` in ``points``: the first shift ``k`` in
    :func:`shift_vectors` order that makes ``alpha = n / denominator + k``
    admissible for the integer ``rows``, or None.  Every point has the same
    length.

    With ``L = denominator``, a row's residue at alpha is ``v / L`` with
    ``v = row.n + L * (row.k)``: a positive integer exactly when ``v > 0``
    and ``v % L == 0``.  As ``v % L`` does not depend on k, only rows with
    ``row.n % L == 0`` can ever block, and such a row blocks k exactly when
    ``row.k + row.n // L > 0``.  So the answer depends only on the blocking
    pattern, the index and offset ``row.n // L`` of each row that can block,
    and a point with no blocking row takes the zero shift, the first in the
    order, at once.  Each pattern is searched once per call.
    """
    if not points:
        return []
    order = shift_order(len(points[0]), bound)
    patterns = [_blocking(rows, n, denominator) for n in points]
    found = _search(rows, order, filter(None, patterns))
    found[()] = order[0]  # no row blocks
    return list(map(found.__getitem__, patterns))


def grid_shifts(rows, level: int, nparams: int, bound: int) -> dict:
    """:func:`admissible_shifts` with ``denominator = level`` over the grid
    ``product(range(level), repeat=nparams)``, as ``{grid index: shift or
    None}`` for the points whose shift is not the zero shift.

    A row blocks only where its value ``h + c * x``, for ``h`` the sum of
    its head terms and ``x`` the last coordinate, is a multiple of
    ``level``: each ``h`` looks up its ``x`` by ``h % level``.
    """
    order = shift_order(nparams, bound)
    patterns = {}  # grid index -> its (row index, offset) pairs, in row order
    for r, (*head, c) in enumerate(rows):
        sums = [0]
        for a in head:
            sums = [h + a * x for h in sums for x in range(level)]
        solutions = [[] for _ in range(level)]
        for x in range(level):
            solutions[-c * x % level].append(x)
        for j, h in enumerate(sums):
            for x in solutions[h % level]:
                index = j * level + x
                patterns[index] = patterns.get(index, ()) + ((r, (h + c * x) // level),)
    found = _search(rows, order, patterns.values())
    return {index: found[key] for index, key in patterns.items() if found[key] != order[0]}


def _search(rows, order, patterns) -> dict:
    """Each distinct ``(row index, offset)`` pattern: its first unblocked shift."""
    return {
        pattern: _first_unblocked(order, [(rows[r], offset) for r, offset in pattern])
        for pattern in set(patterns)
    }


def _blocking(rows, numerators, denominator: int) -> tuple:
    """The blocking pattern at one point: ``(row index, offset)`` for each
    row that can block there."""
    values = [sum(map(mul, row, numerators)) for row in rows]
    return tuple((r, v // denominator) for r, v in enumerate(values) if not v % denominator)


def _first_unblocked(order, blocking):
    """The first shift in ``order`` that no ``(row, offset)`` pair blocks."""
    for shift in order:
        for row, offset in blocking:
            if sum(map(mul, row, shift)) + offset > 0:
                break
        else:
            return shift
    return None


def admissible_numerators(system: ResidueSystem, numerators, denominator: int, bound: int):
    """For ``beta = n / L``, with ``n = numerators`` and ``L = denominator``:
    the numerators ``n + L * k`` of the first admissible ``beta + k`` inside
    the shift box, or None.  Absence does not certify non-admissibility."""
    if len(numerators) != system.nparams:
        raise DimensionError(f"beta has length {len(numerators)}, expected {system.nparams}")
    rows = [row.coeffs for row in system.rows]
    shift = admissible_shifts(rows, (numerators,), denominator, bound)[0]
    return None if shift is None else [n + denominator * k for n, k in zip(numerators, shift)]


def admissible_search(system: ResidueSystem, beta, bound: int = 3):
    """:func:`admissible_numerators` in ``Fraction`` values: the first
    admissible ``alpha`` congruent to ``beta`` mod 1 inside the shift box, or
    None."""
    numerators, denominator = integer_vector(beta)
    alpha = admissible_numerators(system, numerators, denominator, bound)
    return None if alpha is None else tuple(Fraction(a, denominator) for a in alpha)


def equimonodromic_beta(order: int, k: int, nparams: int) -> tuple[Fraction, ...]:
    """Residue classes of the local system whose component monodromies all
    equal ``exp(-2*pi*i*k/order)``."""
    if not 0 <= k < order:
        raise ValueError(f"k must lie in [0, {order})")
    return (Fraction(k, order),) * nparams


# ---------------------------------------------------------------------------
# JSON schema.


def residue_system_from_dict(data: dict, path: str = "/residue_system") -> ResidueSystem:
    nparams, raw_rows = fields(data, path, "nparams", "rows")
    integers(nparams, f"{path}/nparams", 1)
    if nparams > MAX_NVARS:
        raise LimitError(f"{path}/nparams: {nparams} is more than the limit of {MAX_NVARS}")
    if not isinstance(raw_rows, list):
        raise SchemaError(f"{path}/rows", "must be a list")
    rows = []
    for k, raw in enumerate(raw_rows):
        here = f"{path}/rows/{k}"
        if not isinstance(raw, dict):
            raise SchemaError(here, "row must be an object")
        label = raw.get("label")
        if not isinstance(label, str) or not label:
            raise SchemaError(f"{here}/label", "must be a non-empty string")
        # Inline rather than errors.integers: this runs once per row.
        coeffs = raw.get("coeffs")
        if not isinstance(coeffs, list) or len(coeffs) != nparams or not all(
            type(c) is int for c in coeffs
        ):
            raise SchemaError(f"{here}/coeffs", f"must be a list of {nparams} integers")
        component = raw.get("component", False)
        if not isinstance(component, bool):
            raise SchemaError(f"{here}/component", "must be a boolean")
        rows.append(ResidueRow(label, coeffs, component))
    return ResidueSystem(nparams, tuple(rows))
