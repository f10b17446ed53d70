"""End-to-end computations on arrangement scenarios.

A scenario bundles everything needed to compute twisted cohomology of an
arrangement complement: the component degrees, the cohomology algebra with
its structure constants, the residue rows of an embedded resolution, and the
linear map sending residue parameters to one-form coefficients.

On top of a scenario, this module scans the jumping loci over all torsion
points of a level, each point by its index into the grid and its cohomology
read at an admissible residue representative, and computes monodromy
characteristic polynomials of the associated Milnor fiber via equimonodromic
local systems, a scan of the ``order`` classes ``(k/order, ..., k/order)``.

A point's admissible representative depends on its class and the search
bound, not on the degree, and ``dim H^p = b_p - rank D_p - rank D_{p-1}``.
So a scenario keeps each scan (``Scenario.grids``) by effective bound: its
search, its ``L * alpha`` columns and each degree's rank column, which every
later scan of that grid or of the Milnor classes reads, at any degree.
"""

from __future__ import annotations

import threading
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from math import gcd as int_gcd, prod

from . import laurent_ring
from .aomoto_complex import (
    GradedAlgebra,
    IntegerDifferential,
    algebra_from_dict,
    ensure_valid,
)
from .errors import (
    DegreeError,
    DimensionError,
    InconclusiveSearchError,
    LimitError,
    Record,
    SchemaError,
    _set,
    moved,
)
from .errors import fields, integers, load_json
from .exact_kernel import (
    _poly_divmod,
    cyclotomic_poly,
    divisors,
    format_rational,
    mobius_pairs,
    parse_rational,
    prime_divisors,
)
from .laurent_ring import check_grid
from .residue_systems import (
    ResidueSystem,
    admissible_shifts,
    check_bound,
    equimonodromic_beta,
    grid_shifts,
    residue_system_from_dict,
)

__getattr__ = moved(__name__, "CharvarScan charvar_scan twisted_cohomology")


class Scenario(Record):
    """A complete arrangement description consumed by the pipeline and CLI.

    ``omega_map`` is an ``nparams x dim(A^1)`` rational matrix sending residue
    parameters to one-form coefficients.  ``max_shift``, when set, caps the
    admissible-search box for this scenario regardless of the caller's bound
    (used when only small residues are known to be admissible).
    """

    _fields = ("name", "components", "degrees", "algebra", "residue_system",
               "omega_map", "include_infinity_in_milnor", "intersection_points",
               "max_shift")

    def __init__(
        self,
        name: str,
        components: int,
        degrees: tuple,
        algebra: GradedAlgebra,
        residue_system: ResidueSystem,
        omega_map: tuple,
        include_infinity_in_milnor: bool = True,
        intersection_points: tuple | None = None,
        max_shift: int | None = None,
    ):
        _set(self, "name", name)
        _set(self, "components", components)
        _set(self, "degrees", degrees)
        _set(self, "algebra", algebra)
        _set(self, "residue_system", residue_system)
        _set(self, "omega_map", omega_map)
        _set(self, "include_infinity_in_milnor", include_infinity_in_milnor)
        _set(self, "intersection_points", intersection_points)
        _set(self, "max_shift", max_shift)

    @property
    def nparams(self) -> int:
        return self.residue_system.nparams

    def effective_bound(self, bound: int) -> int:
        if self.max_shift is None:
            return bound
        return min(bound, self.max_shift)

    @cached_property
    def differential(self) -> IntegerDifferential:
        """The differentials as integer tensors, with every rank certificate,
        built on first use and reused for every residue class asked about.

        Residue classes arrive over a common denominator, ``beta = n / L``,
        and the tensors are evaluated at ``L * alpha``: scaling the one-form
        by ``L`` changes no cohomology dimension.
        """
        return IntegerDifferential(self.algebra, self.omega_map)

    @cached_property
    def grids(self) -> GridStore:
        """The scans of :func:`_charvar_indices` and :func:`milnor_charpoly`
        (``GridStore``), each shared by every later call on it at any degree."""
        return GridStore()


MAX_GRID_CELLS = 2**15
"""Most cells the scans of one scenario hold together: a scan's kept points
times its coordinate columns and the rank columns it holds (at most about
2.5 MB when full)."""

# Guards every change to a scenario's grid store; no search or rank runs
# under it.
_GRIDS_LOCK = threading.Lock()


class GridStore:
    """A scenario's scans, torsion grids by ``(level, effective bound)`` and
    the Milnor classes by ``("milnor", effective bound)``, the least recently
    used first, and ``cells``, the cells they hold.

    Each is ``(indices, inconclusive, columns, ranks)``: the indices kept,
    the first ``k`` or every grid index with no admissible shift, the kept
    points' ``L * alpha`` coordinate columns, and each degree's rank column of
    ``D_q``, added on first use.  Its cells are its kept points times
    ``nparams`` plus its rank columns; past ``MAX_GRID_CELLS`` the least
    recently used scans go, the one in use last.
    """

    def __init__(self):
        self.scans = {}
        self.cells = 0

    def get(self, key):
        """The grid at ``key``, now the most recently used, or None."""
        with _GRIDS_LOCK:
            grid = self.scans.pop(key, None)
            if grid is not None:
                self.scans[key] = grid
        return grid

    def put(self, key, grid) -> None:
        """Hold ``grid`` as the most recently used."""
        with _GRIDS_LOCK:
            if key not in self.scans:
                self.scans[key] = grid
                self._grow(_cells(grid))

    def add_ranks(self, key, grid, q: int, column: list) -> None:
        """Give ``grid`` the rank column of ``D_q``; a grid that is held
        counts its cells."""
        with _GRIDS_LOCK:
            if q in grid[3]:
                return
            grid[3][q] = column
            if self.scans.get(key) is grid:
                self._grow(len(column))

    def _grow(self, cells: int) -> None:
        self.cells += cells
        while self.cells > MAX_GRID_CELLS:
            self.cells -= _cells(self.scans.pop(next(iter(self.scans))))


def _cells(grid) -> int:
    indices, _, columns, ranks = grid
    return len(indices) * (len(columns) + len(ranks))


def _charvar_indices(scenario: Scenario, level: int, degree: int, bound: int):
    """Bucket every level-N torsion point by ``dim H^degree``, each by its
    lexicographic index into the grid: the indices of each dimension, by
    dimension, and the inconclusive ones.

    The degree, grid and bound checks run on every call; the rest is
    :func:`_scanned`'s."""
    top = scenario.algebra.top_degree
    if not 1 <= degree <= top:
        raise DegreeError(f"degree {degree} out of range [1, {top}]")
    check_grid(level, scenario.nparams)
    bound = scenario.effective_bound(bound)
    check_bound(bound)
    indices, inconclusive, dims = _scanned(
        scenario, (level, bound), degree, lambda: _scan_grid(scenario, level, bound))
    buckets = {dim: [] for dim in sorted(set(dims))}
    for index, dim in zip(indices, dims):
        buckets[dim].append(index)
    return buckets, inconclusive


def _scanned(scenario: Scenario, key, degree: int, search) -> tuple:
    """The scan at ``key`` in ``scenario.grids``: its indices kept, its
    inconclusive ones, and ``dim H^degree`` at each point kept.

    On a miss ``search()`` gives the indices, the inconclusive ones and the
    coordinate columns, and the d*d check runs at each point kept; the scan
    is stored only when both succeed.  The rank columns of ``D_{degree-1}``
    and ``D_degree`` are the scan's, each made on first use."""
    store, differential = scenario.grids, scenario.differential
    grid = store.get(key)
    if grid is None:
        indices, inconclusive, columns = search()
        differential.check_squares(columns, len(indices))
        grid = indices, inconclusive, columns, {}
        store.put(key, grid)
    indices, inconclusive, columns, ranks = grid
    for q in (degree - 1, degree):
        if q not in ranks and 0 <= q < scenario.algebra.top_degree:
            column = differential.rank_column(q, columns, len(indices))
            store.add_ranks(key, grid, q, column)
    zeros = [0] * len(indices)
    b = differential.betti[degree]
    dims = [b - x - y for x, y in zip(ranks.get(degree, zeros), ranks.get(degree - 1, zeros))]
    return indices, inconclusive, dims


def _scan_grid(scenario: Scenario, level: int, bound: int) -> tuple:
    """The admissible search over the level-N grid: the indices kept, the
    inconclusive ones, and the kept points' coordinate columns."""
    nparams, size = scenario.nparams, level ** scenario.nparams
    rows = [row.coeffs for row in scenario.residue_system.rows]
    shifts = grid_shifts(rows, level, nparams, bound)
    # L * alpha a coordinate column at a time: column j runs through each
    # numerator size // level ** (j + 1) times, level ** j times over.
    columns = [
        list(chain.from_iterable(repeat(n, size // level ** (j + 1)) for n in range(level)))
        * level ** j for j in range(nparams)]
    for index, shift in shifts.items():
        for column, k in zip(columns, shift or ()):
            column[index] += level * k
    inconclusive = sorted(index for index, shift in shifts.items() if shift is None)
    indices = range(size)
    if inconclusive:
        keep = [shifts.get(index, ()) is not None for index in indices]
        indices = list(compress(indices, keep))
        columns = [list(compress(column, keep)) for column in columns]
    return indices, inconclusive, columns


# ---------------------------------------------------------------------------
# Monodromy characteristic polynomials.


class MonodromyPolynomial(Record):
    """``det(t - h)`` on a cohomology degree, stored as root multiplicities.

    ``multiplicities[k]`` is the multiplicity of the root
    ``exp(-2*pi*i*k/order)``.
    """

    _fields = ("order", "multiplicities")

    def __init__(self, order: int, multiplicities: tuple):
        if len(multiplicities) != order:
            raise DimensionError("need one multiplicity per root")
        _set(self, "order", order)
        _set(self, "multiplicities", multiplicities)

    @property
    def degree(self) -> int:
        return sum(self.multiplicities)

    def multiplicity_by_root_order(self):
        """Map d -> multiplicity shared by all roots of primitive order d, or
        None when some primitive class carries unequal multiplicities."""
        out = {}
        for k, m in enumerate(self.multiplicities):
            if out.setdefault(self.order // int_gcd(k, self.order), m) != m:
                return None
        return out

    def factored_str(self) -> str:
        """Canonical factored text like ``(t-1)^2*(t^5-1)``.

        Roots are grouped into ``t^e - 1`` factors greedily (largest exponent
        first); primitive classes that cannot be completed to such a factor
        are printed as explicit cyclotomic polynomials.  When multiplicities
        are not constant on a primitive class the root list is printed
        verbatim.  The texts of the last 32 polynomials asked are kept.
        """
        return _factored_text(self.order, self.multiplicities)


@lru_cache(maxsize=32)  # about 60 bytes a root, so 6 MB at 100000 roots
def _factored_text(order: int, multiplicities: tuple) -> str:
    by_order = MonodromyPolynomial(order, multiplicities).multiplicity_by_root_order()
    if by_order is None:
        roots = ",".join(f"{k}/{order}:{m}" for k, m in enumerate(multiplicities) if m)
        return f"roots[{roots}]"
    parts = cyclotomic_factors(by_order)
    return "*".join(parts) if parts else "1"


def cyclotomic_factors(mults: dict) -> list[str]:
    """Factors of ``prod_d Phi_d ** mults[d]`` as text: complete ``t^e - 1``
    groups, taken greedily from the largest ``e``, then the cyclotomic
    polynomials left over, each with its multiplicity.  A group ``t^e - 1``
    contains ``Phi_e``, so only an order in ``mults`` can head one."""
    mults = dict(mults)
    groups = []
    for e in sorted(mults, reverse=True):
        count = min(mults.get(d, 0) for d in divisors(e))
        if count > 0:
            groups.append((e, count))
            for d in divisors(e):
                mults[d] -= count
    bases = [("(t-1)" if e == 1 else f"(t^{e}-1)", c) for e, c in sorted(groups)]
    bases += [
        ("(" + compact_univariate(cyclotomic_poly(d)) + ")", c)
        for d, c in sorted(mults.items())
        if c > 0
    ]
    return [base + (f"^{c}" if c > 1 else "") for base, c in bases]


def factor_cyclotomic(coeffs) -> str:
    """Factored text of a primitive integer polynomial in ``t``, constant
    first, with a positive leading coefficient (``normalize_unit``'s form).

    Its cyclotomic factors are found by trial division, with complete
    ``t^e - 1`` groups recombined; whatever remains is printed expanded.
    Quotients by the monic ``Phi_k`` stay primitive (Gauss's lemma), so no
    step renormalizes.  A division is tried only when ``Phi_k(2)`` divides
    ``f(2)`` for the remaining ``f``, which ``Phi_k | f`` implies.
    """
    degree = len(coeffs) - 1
    at_two = sum(c << e for e, c in enumerate(coeffs))
    mults: dict[int, int] = {}
    for k, phi_k in _cyclotomic_indices(degree):
        if phi_k >= len(coeffs):
            continue
        pairs = mobius_pairs(k)
        phi_k_at_two = prod(2**d - 1 for d, mu in pairs if mu > 0) // prod(
            2**d - 1 for d, mu in pairs if mu < 0)
        while at_two % phi_k_at_two == 0:
            quot, rem = _poly_divmod(coeffs, cyclotomic_poly(k))
            if rem:
                break
            coeffs = quot
            at_two //= phi_k_at_two
            mults[k] = mults.get(k, 0) + 1
    parts = cyclotomic_factors(mults)
    if coeffs != [1]:
        rest = compact_univariate(coeffs)
        parts.append(f"({rest})" if parts else rest)
    return "*".join(parts) if parts else "1"


def _cyclotomic_indices(degree: int) -> list:
    """``(k, phi(k))`` for each ``k`` with ``phi(k) <= max(degree, 1)``, by
    ``k``.  Each prime ``p <= degree + 1``, largest first so that the many
    large ones meet a short list, extends each index found so far by ``p^e``."""
    found = [(1, 1)]
    for p in range(degree + 1, 1, -1):
        if prime_divisors(p) == [p]:
            for k, phi_k in list(found):
                k, phi_k = k * p, phi_k * (p - 1)
                while phi_k <= degree:
                    found.append((k, phi_k))
                    k, phi_k = k * p, phi_k * p
    return sorted(found)


def compact_univariate(coeffs) -> str:
    """Spaceless display of an integer polynomial in ``t`` (constant first);
    a coefficient too long to print is a ``LimitError`` (``format_rational``)."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = format_rational(abs(c))
        if e == 0:
            body = mag
        else:
            body = ("" if mag == "1" else f"{mag}*") + ("t" if e == 1 else f"t^{e}")
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts) if parts else "0"


def milnor_order(scenario: Scenario) -> int:
    return sum(scenario.degrees) + (1 if scenario.include_infinity_in_milnor else 0)


def milnor_charpoly(scenario: Scenario, m: int, bound: int = 3) -> MonodromyPolynomial:
    """Characteristic polynomial of the degree-``m`` monodromy of the
    associated Milnor fiber, assembled from equimonodromic local systems.

    Every degree reads the same local systems, whose scan is
    :func:`_scanned`'s; the degree, order and bound checks run on every call.
    """
    if not 0 <= m <= scenario.algebra.top_degree:
        raise DegreeError(
            f"degree {m} out of range [0, {scenario.algebra.top_degree}]"
        )
    order, cap = milnor_order(scenario), laurent_ring.MAX_SCAN_POINTS
    if order > cap:
        raise LimitError(f"Milnor order {order} is more than the limit of {cap}")
    bound = scenario.effective_bound(bound)
    check_bound(bound)
    _, inconclusive, mults = _scanned(
        scenario, ("milnor", bound), m, lambda: _milnor_classes(scenario, order, bound))
    if inconclusive:
        raise InconclusiveSearchError(
            equimonodromic_beta(order, inconclusive[0], scenario.nparams), bound, scenario.name
        )
    return MonodromyPolynomial(order, tuple(mults))


def _milnor_classes(scenario: Scenario, order: int, bound: int) -> tuple:
    """The admissible search over the classes ``k/order``: ``range(stop)``,
    ``[stop]`` or ``[]``, and the columns ``k + order * shift`` of each ``k``
    before ``stop``, the first ``k`` without a representative (``order`` if
    none)."""
    points = [(k,) * scenario.nparams for k in range(order)]
    rows = [row.coeffs for row in scenario.residue_system.rows]
    shifts = admissible_shifts(rows, points, order, bound)
    # The first k without a representative stops the polynomial, but only
    # after every k before it: a nonzero square there is raised first.
    stop = shifts.index(None) if None in shifts else order
    columns = [[k + order * shift[j] for k, shift in zip(range(stop), shifts)]
               for j in range(scenario.nparams)]
    return range(stop), [stop] if stop < order else [], columns


# ---------------------------------------------------------------------------
# Scenario files.


MAX_DIFFERENTIAL_CELLS = 2**20
"""Largest differential a scenario may describe: ``sum_p dim A^{p+1} *
dim A^p * nparams`` integer cells, built on first use of the scenario."""


def scenario_from_dict(data: dict, path: str = "") -> Scenario:
    name, s, degrees, raw_algebra, raw_system, raw_map = fields(
        data, path, "name", "components", "degrees", "algebra", "residue_system",
        "omega_map",
    )
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{path}/name", "must be a non-empty string")
    integers(s, f"{path}/components", 1)
    integers(degrees, f"{path}/degrees", 1, s)
    algebra = algebra_from_dict(raw_algebra, f"{path}/algebra")
    system = residue_system_from_dict(raw_system, f"{path}/residue_system")
    cells = system.nparams * sum(
        algebra.dim(p + 1) * algebra.dim(p) for p in range(algebra.top_degree)
    )
    if cells > MAX_DIFFERENTIAL_CELLS:
        raise LimitError(
            f"{path}/algebra/basis: the differential has {cells} cells, more "
            f"than the limit of {MAX_DIFFERENTIAL_CELLS}"
        )
    dim1 = algebra.dim(1)
    if not isinstance(raw_map, list) or len(raw_map) != system.nparams:
        raise SchemaError(f"{path}/omega_map", f"must have {system.nparams} rows")
    omega_map = []
    for i, raw_row in enumerate(raw_map):
        if not isinstance(raw_row, list) or len(raw_row) != dim1:
            raise SchemaError(f"{path}/omega_map/{i}", f"must have {dim1} entries")
        try:
            omega_map.append(tuple(parse_rational(x) for x in raw_row))
        except ValueError as exc:
            raise SchemaError(f"{path}/omega_map/{i}", str(exc)) from exc
    milnor = data.get("milnor", {})
    if not isinstance(milnor, dict):
        raise SchemaError(f"{path}/milnor", "must be an object")
    include_infinity = milnor.get("include_infinity", True)
    if not isinstance(include_infinity, bool):
        raise SchemaError(f"{path}/milnor/include_infinity", "must be a boolean")
    raw_points = data.get("intersection_points")
    intersection_points = None
    if raw_points is not None:
        if not isinstance(raw_points, list):
            raise SchemaError(f"{path}/intersection_points", "must be a list")
        intersection_points = tuple(
            tuple(integers(vec, f"{path}/intersection_points/{k}", 0, s))
            for k, vec in enumerate(raw_points)
        )
    max_shift = data.get("max_shift")
    if max_shift is not None:
        integers(max_shift, f"{path}/max_shift", 0)

    # Residue rows of an affine arrangement with one free parameter per
    # component must contain the unit rows and the infinity row -degrees.
    if system.nparams == s:
        component_rows = [tuple(r.coeffs) for r in system.rows if r.is_component]
        for j in range(s):
            unit = tuple(1 if i == j else 0 for i in range(s))
            if unit not in component_rows:
                raise SchemaError(
                    f"{path}/residue_system/rows",
                    f"missing component unit row for parameter {j + 1}",
                )
        infinity = tuple(-d for d in degrees)
        if infinity not in component_rows:
            raise SchemaError(
                f"{path}/residue_system/rows",
                "missing the infinity component row (-d_1, ..., -d_s)",
            )

    return Scenario(
        name=name,
        components=s,
        degrees=tuple(degrees),
        algebra=algebra,
        residue_system=system,
        omega_map=tuple(omega_map),
        include_infinity_in_milnor=include_infinity,
        intersection_points=intersection_points,
        max_shift=max_shift,
    )


def scenario_from_json(data: bytes) -> Scenario:
    """Decode and schema-check a scenario document, and validate its algebra."""
    scenario = scenario_from_dict(load_json(data))
    ensure_valid(scenario.algebra)
    return scenario


def load_scenario(path: str) -> Scenario:
    """Load and schema-check a scenario file, and validate its algebra."""
    with open(path, "rb") as f:
        return scenario_from_json(f.read())
