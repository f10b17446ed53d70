"""Residue data of an embedded resolution as integer linear forms.

Each divisor (component or exceptional) contributes one row of integer
coefficients; its logarithmic residue at a parameter vector ``alpha`` is the
dot product of the row with ``alpha``.  A choice of residues is admissible
when no residue is a strictly positive integer.

The search looks for an admissible representative of a residue class
vector ``beta`` among its integer shifts in a box, in a fixed order
(total absolute shift first, then lexicographic) that is built as it is read.
A search tries at most ``MAX_SHIFT_BOX`` shifts, and failure is absence, never
a certificate of non-admissibility; one that would make more than
``MAX_SEARCH_WORK`` row tests is a ``LimitError``.  The search runs on integers, ``beta``
over a common denominator, in one walk of the order for all blocking
patterns that have a positive offset (every other one takes the zero shift),
and keeps nothing between calls: ``admissible_shifts`` takes any points one
by one, and ``grid_shifts`` a whole torsion grid, visiting for each row only
the points where it can block and building a pattern only at the points
that need a nonzero shift.  ``admissible_numerators`` searches one vector,
as numerators over a common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from operator import mul

from .errors import DimensionError, LimitError, Record, SchemaError, _set, fields, integers, moved
from .laurent_ring import MAX_NVARS

__getattr__ = moved(__name__, "admissible_search is_admissible residues shift_vectors")


class ResidueRow(Record):
    _fields = ("label", "coeffs", "is_component")

    def __init__(self, label: str, coeffs: tuple, is_component: bool):
        _set(self, "label", label)
        _set(self, "coeffs", tuple(int(c) for c in coeffs))
        _set(self, "is_component", is_component)


class ResidueSystem(Record):
    _fields = ("nparams", "rows")

    def __init__(self, nparams: int, rows: tuple):
        for row in rows:
            if len(row.coeffs) != nparams:
                raise DimensionError(
                    f"row {row.label!r} has {len(row.coeffs)} coefficients, "
                    f"expected {nparams}"
                )
        _set(self, "nparams", nparams)
        _set(self, "rows", rows)


MAX_SHIFT_BOX = 100_000
"""Budget of one search: it tries at most this many shifts of
:func:`shift_order`, and a pattern still blocked then certifies nothing."""

MAX_SEARCH_WORK = 100_000_000
"""Most row tests one search may count: each shift it walks counts one test
per residue row for every pattern still pending, and a search past this is
a ``LimitError``."""


def check_bound(bound: int) -> None:
    """``LimitError`` unless the search bound is at least 0."""
    if bound < 0:
        raise LimitError("search bound must be >= 0")


def shift_order(nparams: int, bound: int):
    """Integer shift vectors with entries in [-bound, bound], ordered by total
    absolute shift and then lexicographically, as an iterator that builds
    each shell ``|k|_1 = s`` when it reaches it; the bound is checked on the
    call."""
    check_bound(bound)
    return _shifts(nparams, bound)


def _shifts(nparams: int, bound: int):
    yield (0,) * nparams  # before any shell is built
    for total in range(1, nparams * bound + 1):
        yield from _shell(nparams, total, bound)


def _shell(nparams: int, total: int, bound: int):
    """Shifts in [-bound, bound] with absolute values summing to ``total >= 1``,
    lexicographically; each head leaves a tail, so no range is empty."""
    if nparams == 1:
        yield from ((-total,), (total,))
        return
    low, high = max(0, total - (nparams - 1) * bound), min(total, bound)
    for head in chain(range(-high, 1 - low), range(max(low, 1), high + 1)):
        rest = total - abs(head)
        for tail in _shell(nparams - 1, rest, bound) if rest else ((0,) * (nparams - 1),):
            yield (head,) + tail


def admissible_shifts(rows, points, denominator: int, bound: int) -> list:
    """For each numerator vector ``n`` in ``points``: the first shift ``k`` in
    :func:`shift_order` that makes ``alpha = n / denominator + k`` admissible
    for the integer ``rows``, or None.  Every point has the same length.

    With ``L = denominator``, a row's residue at alpha is ``v / L`` with
    ``v = row.n + L * (row.k)``: a positive integer exactly when ``v > 0``
    and ``v % L == 0``.  As ``v % L`` does not depend on k, only rows with
    ``row.n % L == 0`` can ever block, and such a row blocks k exactly when
    ``row.k + row.n // L > 0``.  So the answer depends only on the blocking
    pattern, the index and offset ``row.n // L`` of each row that can block,
    and a pattern with no positive offset takes the zero shift, the first in
    the order, at once.  One walk of the order serves every pattern of a call.
    """
    if not points:
        return []
    nparams = len(points[0])
    patterns = [_blocking(rows, n, denominator) for n in points]
    found = _search(rows, nparams, bound, (
        p for p in patterns if any(offset > 0 for _, offset in p)))
    zero = (0,) * nparams
    return [found.get(pattern, zero) for pattern in patterns]


def grid_shifts(rows, level: int, nparams: int, bound: int) -> dict:
    """:func:`admissible_shifts` with ``denominator = level`` over the grid
    ``product(range(level), repeat=nparams)``, as ``{grid index: shift or
    None}`` for the points whose shift is not the zero shift.

    A row blocks only where its value ``h + c * x``, for ``h`` the sum of
    its head terms and ``x`` the last coordinate, is a multiple of
    ``level``: each ``h`` looks up its ``x`` by ``h % level``.  A point
    needs a shift exactly when some row there has a positive offset, and
    only those points get a pattern.
    """
    blocking = []  # each row's (grid index, offset) pairs where it can block
    for *head, c in rows:
        sums = [0]
        for a in head:
            sums = [h + a * x for h in sums for x in range(level)]
        solutions = [[] for _ in range(level)]
        for x in range(level):
            solutions[-c * x % level].append(x)
        blocking.append([(j * level + x, (h + c * x) // level)
                         for j, h in enumerate(sums) for x in solutions[h % level]])
    patterns = {  # each moved point's (row index, offset) pairs, in row order
        index: () for pairs in blocking for index, offset in pairs if offset > 0}
    for r, pairs in enumerate(blocking):
        for index, offset in pairs:
            if index in patterns:
                patterns[index] += ((r, offset),)
    found = _search(rows, nparams, bound, patterns.values())
    return {index: found[key] for index, key in patterns.items()}


def _search(rows, nparams: int, bound: int, patterns) -> dict:
    """Each distinct ``(row index, offset)`` pattern, all blocking the zero
    shift: its first unblocked shift in one walk of :func:`shift_order`, or
    None after ``MAX_SHIFT_BOX``.  The bound is checked even when no pattern
    is given.  Each shift first counts ``len(pending) * len(rows)`` row
    tests, and past ``MAX_SEARCH_WORK`` the search is a ``LimitError``."""
    order = shift_order(nparams, bound)
    found = dict.fromkeys(patterns)
    pending = list(found)
    work = 0
    for shift in islice(order, 1, MAX_SHIFT_BOX) if pending else ():
        work += len(pending) * len(rows)
        if work > MAX_SEARCH_WORK:
            raise LimitError(
                f"the admissible search needs more than the limit of {MAX_SEARCH_WORK} "
                f"row tests, with {len(pending)} blocking patterns still pending"
            )
        values = {}  # each row's value at this shift, once a pattern asks
        blocked = []
        for pattern in pending:
            for r, offset in pattern:
                value = values.get(r)
                if value is None:
                    value = values[r] = sum(map(mul, rows[r], shift))
                if value + offset > 0:
                    blocked.append(pattern)
                    break
            else:
                found[pattern] = shift
        pending = blocked
        if not pending:
            break
    return found


def _blocking(rows, numerators, denominator: int) -> tuple:
    """The blocking pattern at one point: ``(row index, offset)`` for each
    row that can block there."""
    values = [sum(map(mul, row, numerators)) for row in rows]
    return tuple((r, v // denominator) for r, v in enumerate(values) if not v % denominator)


def admissible_numerators(system: ResidueSystem, numerators, denominator: int, bound: int):
    """For ``beta = n / L``, with ``n = numerators`` and ``L = denominator``:
    the numerators ``n + L * k`` of the first admissible ``beta + k`` in the
    shift order, or None.  Absence does not certify non-admissibility."""
    if len(numerators) != system.nparams:
        raise DimensionError(f"beta has length {len(numerators)}, expected {system.nparams}")
    rows = [row.coeffs for row in system.rows]
    shift = admissible_shifts(rows, (numerators,), denominator, bound)[0]
    return None if shift is None else [n + denominator * k for n, k in zip(numerators, shift)]


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
