"""End-to-end computations on arrangement scenarios.

A scenario bundles everything needed to compute twisted cohomology of an
arrangement complement: the component degrees, the cohomology algebra with
its structure constants, the residue rows of an embedded resolution, and the
linear map sending residue parameters to one-form coefficients.

On top of a scenario, this module computes cohomology dimensions of a given
rank-one local system (via an admissible residue search), jumping-locus scans
over all torsion points of a level, and monodromy characteristic polynomials
of the associated Milnor fiber via equimonodromic local systems.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, compress, repeat
from math import gcd as int_gcd, prod
from operator import mul

from . import laurent_ring
from .aomoto_complex import (
    GradedAlgebra,
    IntegerDifferential,
    OneForm,
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
)
from .errors import fields, integers, load_json
from .exact_kernel import (
    _poly_divmod,
    cyclotomic_poly,
    divisors,
    format_rational,
    integer_vector,
    mobius_pairs,
    parse_rational,
    prime_divisors,
)
from .laurent_ring import TorsionPoint, check_grid, grid_points, torsion_grid
from .residue_systems import (
    ResidueSystem,
    admissible_numerators,
    admissible_shifts,
    equimonodromic_beta,
    grid_shifts,
    residue_system_from_dict,
)

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

    def one_form(self, alpha) -> OneForm:
        """Map a residue parameter vector through ``omega_map``."""
        alpha = tuple(Fraction(a) for a in alpha)
        if len(alpha) != self.nparams:
            raise DimensionError(
                f"alpha has length {len(alpha)}, expected {self.nparams}"
            )
        dim1 = self.algebra.dim(1)
        coeffs = [Fraction(0)] * dim1
        for i, a in enumerate(alpha):
            if not a:
                continue
            for j in range(dim1):
                coeffs[j] += a * self.omega_map[i][j]
        return OneForm(tuple(coeffs))

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
    def milnor_search(self) -> list:
        """:func:`milnor_charpoly`'s one slot: ``(bound, stop, columns,
        polynomials)`` at the last effective bound asked, replaced whole for
        another.  ``stop`` is the first ``k`` without a representative
        (``order`` if none), ``columns`` hold those of the ``k`` before it,
        and ``polynomials`` each degree's once built, none if ``stop < order``.
        """
        return [None]


def cohomology_at(scenario: Scenario, alpha) -> tuple[int, ...]:
    """Cohomology dimensions of ``(A, w ^ .)`` at explicit residues
    ``alpha``, for the one-form ``w = scenario.one_form(alpha)``."""
    if len(alpha) != scenario.nparams:
        raise DimensionError(
            f"alpha has length {len(alpha)}, expected {scenario.nparams}"
        )
    scaled, _ = integer_vector(alpha)
    return scenario.differential.dims_many((scaled,))[0]


def twisted_cohomology(scenario: Scenario, beta, bound: int = 3) -> tuple[int, ...]:
    """Cohomology dimensions of the rank-one local system with residue
    classes ``beta``, computed from an admissible representative.

    Raises :class:`InconclusiveSearchError` when the search finds no
    representative; that outcome is "unknown", not a vanishing statement.
    """
    bound = scenario.effective_bound(bound)
    scaled = admissible_numerators(scenario.residue_system, *integer_vector(beta), bound)
    if scaled is None:
        raise InconclusiveSearchError(tuple(Fraction(b) for b in beta), bound, scenario.name)
    return scenario.differential.dims_many((scaled,))[0]


class CharvarScan(Record):
    """Result of bucketing torsion points by a twisted cohomology dimension."""

    _fields = ("level", "degree", "by_dimension", "inconclusive")

    def __init__(self, level: int, degree: int, by_dimension: dict, inconclusive: tuple):
        _set(self, "level", level)
        _set(self, "degree", degree)
        _set(self, "by_dimension", by_dimension)
        _set(self, "inconclusive", inconclusive)

    def points_with_dim_above(self, i: int) -> tuple[TorsionPoint, ...]:
        out = []
        for dim in sorted(self.by_dimension):
            if dim > i:
                out.extend(self.by_dimension[dim])
        return tuple(sorted(out, key=lambda p: p.numerators))


def charvar_scan(
    scenario: Scenario, level: int, degree: int, bound: int = 3
) -> CharvarScan:
    """Bucket every level-N torsion point by ``dim H^degree``.

    The scan enumerates all ``level ** nparams`` residue-class vectors in
    lexicographic order.
    """
    by_index, inconclusive = _charvar_indices(scenario, level, degree, bound)
    points = partial(grid_points, level, scenario.nparams)
    by_dimension = {dim: points(found) for dim, found in by_index.items()}
    return CharvarScan(level, degree, by_dimension, points(inconclusive))


def _charvar_indices(scenario: Scenario, level: int, degree: int, bound: int):
    """:func:`charvar_scan` by lexicographic index into the grid: the
    indices of each dimension, by dimension, and the inconclusive ones."""
    if not 1 <= degree <= scenario.algebra.top_degree:
        raise DegreeError(
            f"degree {degree} out of range [1, {scenario.algebra.top_degree}]"
        )
    check_grid(level, scenario.nparams)
    nparams, size = scenario.nparams, level ** scenario.nparams
    bound = scenario.effective_bound(bound)
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
    (dims,) = scenario.differential.dims_columns(columns, len(indices), (degree,))
    buckets = {dim: [] for dim in sorted(set(dims))}
    for index, dim in zip(indices, dims):
        buckets[dim].append(index)
    return buckets, inconclusive


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
        verbatim.  The text is built on the first call and kept.
        """
        return self._factored

    @cached_property
    def _factored(self) -> str:
        by_order = self.multiplicity_by_root_order()
        if by_order is None:
            roots = ",".join(
                f"{k}/{self.order}:{m}"
                for k, m in enumerate(self.multiplicities)
                if m
            )
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

    Every degree reads the same local systems, whose search
    ``scenario.milnor_search`` keeps; the checks run on every call, and no
    failure is kept."""
    if not 0 <= m <= scenario.algebra.top_degree:
        raise DegreeError(
            f"degree {m} out of range [0, {scenario.algebra.top_degree}]"
        )
    order, cap = milnor_order(scenario), laurent_ring.MAX_SCAN_POINTS
    if order > cap:
        raise LimitError(f"Milnor order {order} is more than the limit of {cap}")
    bound = scenario.effective_bound(bound)
    table = scenario.milnor_search
    search = table[0]
    if search is None or search[0] != bound:
        points = [(k,) * scenario.nparams for k in range(order)]
        rows = [row.coeffs for row in scenario.residue_system.rows]
        shifts = admissible_shifts(rows, points, order, bound)
        # The first k without a representative stops the polynomial, but only
        # after every k before it: a nonzero square there is raised first.
        stop = shifts.index(None) if None in shifts else order
        columns = [[k + order * shift[j] for k, shift in zip(range(stop), shifts)]
                   for j in range(scenario.nparams)]
        search = table[0] = (bound, stop, columns, {})
    _, stop, columns, polynomials = search
    polynomial = polynomials.get(m)
    if polynomial is None:
        (mults,) = scenario.differential.dims_columns(columns, stop, (m,))
        if stop < order:
            raise InconclusiveSearchError(
                equimonodromic_beta(order, stop, scenario.nparams), bound, scenario.name
            )
        polynomial = polynomials[m] = MonodromyPolynomial(order, tuple(mults))
    return polynomial


# ---------------------------------------------------------------------------
# Projective local systems and the added-line criterion.


def projective_points(degrees, level: int) -> tuple[TorsionPoint, ...]:
    """Level-N torsion points satisfying ``sum(d_j * beta_j)`` integral, that is
    ``sum(d_j * n_j) = 0 (mod level)``; these are the rank-one local systems
    extending to the projective complement."""
    degrees = tuple(int(d) for d in degrees)
    return tuple(
        point
        for point in torsion_grid(level, len(degrees))
        if sum(map(mul, degrees, point.numerators)) % level == 0
    )


def epsilon_line(points, point: TorsionPoint) -> int:
    """The correction term when adding a line to a plane curve arrangement.

    ``points`` lists, for each intersection point of the arrangement with the
    line, the vector of intersection multiplicities of the components there.
    Returns 0 iff some intersection point has a nontrivial monodromy product,
    else 1; the twisted first Betti number of the affine complement equals
    the projective one plus this value.
    """
    for mults in points:
        if len(mults) != point.nvars:
            raise DimensionError("multiplicity vector length must match the point")
        if sum(int(k) * n for k, n in zip(mults, point.numerators)) % point.level:
            return 0
    return 1


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
