"""Residue data of an embedded resolution as integer linear forms.

Each divisor (component or exceptional) contributes one row of integer
coefficients; its logarithmic residue at a parameter vector ``alpha`` is the
dot product of the row with ``alpha``.  A choice of residues is admissible
when no residue is a strictly positive integer.

``admissible_search`` looks for an admissible representative of a residue
class vector ``beta`` by trying integer shifts inside a box, in a fixed
deterministic order (total absolute shift first, then lexicographic), so that
searches are reproducible.  Failure inside the box is reported as absence,
never as a certificate of non-admissibility.  The search itself
(``admissible_shifts``, for many points at once) runs on integers: ``beta``
over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from .errors import DimensionError, LimitError, SchemaError, fields, integers
from .exact_kernel import integer_vector

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
    return list(_shift_order(nparams, bound))


def _shift_order(nparams: int, bound: int) -> tuple[tuple[int, ...], ...]:
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


COLUMNS_FROM = 8
"""Fewest points that :func:`admissible_shifts` takes a column at a time.
On the bundled scenarios' rows that is about even with point by point at 8
points, 1.5 to 2.5 times faster at 32, and 3 to 5 times slower at one."""


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
    pattern, each row's offset ``row.n // L`` or None where it cannot block,
    and a point with no blocking row takes the zero shift, the first in the
    order, at once.  From ``COLUMNS_FROM`` points on, the rows are summed a
    column of points at a time and each pattern is searched once per call.
    """
    if not points:
        return []
    order = _shift_order(len(points[0]), bound)
    if len(points) < COLUMNS_FROM:
        return [_first_unblocked(order, _blocking(rows, n, denominator)) for n in points]
    columns = list(zip(*points))
    offsets = []  # per row, per point: the row's offset, or None
    for row in rows:
        values = [0] * len(points)
        for c, column in zip(row, columns):
            if c:
                values = [v + c * x for v, x in zip(values, column)]
        offsets.append([None if v % denominator else v // denominator for v in values])
    patterns = list(zip(*offsets)) if offsets else [()] * len(points)
    found = {}  # blocking pattern -> its first admissible shift, or None
    for pattern in set(patterns):
        found[pattern] = _first_unblocked(order, [
            (row, offset) for row, offset in zip(rows, pattern) if offset is not None
        ])
    return [found[pattern] for pattern in patterns]


def _blocking(rows, numerators, denominator: int) -> list:
    """The ``(row, offset)`` pairs of the rows that can block at one point."""
    blocking = []
    for row in rows:
        v = sum(map(mul, row, numerators))
        if v % denominator == 0:
            blocking.append((row, v // denominator))
    return blocking


def _first_unblocked(order, blocking):
    """The first shift in ``order`` that no ``(row, offset)`` pair blocks."""
    for shift in order:
        for row, offset in blocking:
            if sum(map(mul, row, shift)) + offset > 0:
                break
        else:
            return shift
    return None


def admissible_search(system: ResidueSystem, beta, bound: int = 3):
    """First admissible ``alpha`` congruent to ``beta`` mod 1 inside the shift
    box, or None.  Absence does not certify non-admissibility."""
    beta = tuple(Fraction(b) for b in beta)
    if len(beta) != system.nparams:
        raise DimensionError(
            f"beta has length {len(beta)}, expected {system.nparams}"
        )
    numerators, denominator = integer_vector(beta)
    rows = [row.coeffs for row in system.rows]
    shift = admissible_shifts(rows, (numerators,), denominator, bound)[0]
    if shift is None:
        return None
    return tuple(b + k for b, k in zip(beta, shift))


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


def residue_system_to_dict(system: ResidueSystem) -> dict:
    return {
        "nparams": system.nparams,
        "rows": [
            {
                "label": row.label,
                "coeffs": list(row.coeffs),
                "component": row.is_component,
            }
            for row in system.rows
        ],
    }
