"""Library functions that no command runs.

Building modules (direct sums, cyclic modules and their tensor products)
and testing one point of a support; the Orlik-Solomon algebra of an affine
line arrangement; the one-form of a scenario and its cohomology at explicit
residues; the projective torsion points and the added-line correction.  The
modules that ``alexinv.cli`` imports hold only what a command can reach, so
that importing the CLI does not compile these; ``from alexinv import ...``
loads this module on first use of one of its names.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import laurent_ring
from .alexander_modules import Presentation, _zeros
from .aomoto_complex import GradedAlgebra, OneForm, ProductTable
from .errors import DimensionError, LimitError
from .exact_kernel import integer_vector
from .invariant_pipeline import Scenario
from .laurent_ring import LaurentPoly, TorsionPoint, torsion_grid

# ---------------------------------------------------------------------------
# Modules.


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


def in_support(pres: Presentation, point: TorsionPoint) -> bool:
    """True iff every generator of the 0-th elementary ideal vanishes at the
    point (zero ideal: always true; full ring: always false), decided as a
    scan decides it, by the pivots and then the residual's minors.  It costs
    about ``omega(N) * N`` steps per pivot and per minor tested at level N,
    where ``omega(N)`` is the number of distinct primes of N: a level past
    ``MAX_SCAN_POINTS`` is refused, as in a scan."""
    if pres.nvars != point.nvars:
        raise DimensionError("point length does not match the module's ring")
    if point.level > (cap := laurent_ring.MAX_SCAN_POINTS):
        raise LimitError(f"level {point.level} is more than the limit of {cap}")
    return bool(_zeros(pres, 1, point.level, [point.numerators]))


# ---------------------------------------------------------------------------
# Orlik-Solomon algebras of affine line arrangements.


def os_algebra_lines(nlines: int, points) -> GradedAlgebra:
    """Cohomology algebra of an affine line arrangement complement.

    ``points`` lists the multiple and double points as subsets of line
    indices ``1..nlines``; every pair of lines must lie in exactly one point.
    Degree 2 has one basis element per point ``p`` and pair ``(j1, jb)`` with
    ``j1`` the smallest line through ``p``; the other wedges of lines through
    ``p`` rewrite via ``e_a ^ e_b = e_j1 ^ e_b - e_j1 ^ e_a``.
    """
    if nlines < 1:
        raise ValueError("need at least one line")
    normalized = []
    for k, raw in enumerate(points):
        pt = tuple(sorted(set(int(x) for x in raw)))
        if len(pt) < 2:
            raise ValueError(f"point {k} has fewer than two lines")
        if pt[0] < 1 or pt[-1] > nlines:
            raise ValueError(f"point {k} references a line outside 1..{nlines}")
        normalized.append(pt)
    seen: dict = {}
    for k, pt in enumerate(normalized):
        for i, a in enumerate(pt):
            for b in pt[i + 1 :]:
                if (a, b) in seen:
                    raise ValueError(f"line pair ({a}, {b}) lies in two points")
                seen[(a, b)] = k
    for a in range(1, nlines + 1):
        for b in range(a + 1, nlines + 1):
            if (a, b) not in seen:
                raise ValueError(f"line pair ({a}, {b}) lies in no point")

    def pair_label(a: int, b: int) -> str:
        return f"e{a}^e{b}"

    deg1 = tuple(f"e{j}" for j in range(1, nlines + 1))
    deg2 = []
    products: ProductTable = {}
    for pt in normalized:
        j1 = pt[0]
        for b in pt[1:]:
            deg2.append(pair_label(j1, b))
        for i, a in enumerate(pt):
            for b in pt[i + 1 :]:
                if a == j1:
                    vec = {pair_label(j1, b): Fraction(1)}
                else:
                    vec = {
                        pair_label(j1, b): Fraction(1),
                        pair_label(j1, a): Fraction(-1),
                    }
                products[(f"e{a}", f"e{b}")] = vec
    return GradedAlgebra(2, (("1",), deg1, tuple(deg2)), products)


# ---------------------------------------------------------------------------
# Scenarios at explicit residues.


def one_form(scenario: Scenario, alpha) -> OneForm:
    """Map a residue parameter vector through the scenario's ``omega_map``."""
    alpha = tuple(Fraction(a) for a in alpha)
    if len(alpha) != scenario.nparams:
        raise DimensionError(
            f"alpha has length {len(alpha)}, expected {scenario.nparams}"
        )
    dim1 = scenario.algebra.dim(1)
    coeffs = [Fraction(0)] * dim1
    for i, a in enumerate(alpha):
        if not a:
            continue
        for j in range(dim1):
            coeffs[j] += a * scenario.omega_map[i][j]
    return OneForm(tuple(coeffs))


def cohomology_at(scenario: Scenario, alpha) -> tuple[int, ...]:
    """Cohomology dimensions of ``(A, w ^ .)`` at explicit residues
    ``alpha``, for the one-form ``w = one_form(scenario, alpha)``."""
    if len(alpha) != scenario.nparams:
        raise DimensionError(
            f"alpha has length {len(alpha)}, expected {scenario.nparams}"
        )
    scaled, _ = integer_vector(alpha)
    return scenario.differential.dims_many((scaled,))[0]


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
