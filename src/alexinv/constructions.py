"""Library functions that no command runs.

Exact dense rational matrices and their rank; values of ``Q(zeta_N)`` and
Laurent polynomials evaluated at torsion points; divisibility, elementary
ideals as generator lists, and scans and tests that answer with torsion
points; building modules (direct sums, cyclic modules and their tensor
products); one-forms, the wedge and its matrix, and cohomology at explicit
residues; the Orlik-Solomon algebra of an affine line arrangement; labeled
residues, the admissibility test and the admissible search in ``Fraction``
values; twisted cohomology and jumping-locus scans in ``Fraction`` values;
the projective torsion points and the added-line correction.

A :class:`CyclotomicNumber` is a value of ``Q(zeta_N)``, stored without field
arithmetic as the ``phi(N)`` coefficients of its remainder modulo the N-th
cyclotomic polynomial, so that zero-testing is a plain coefficient
comparison.

The modules that ``alexinv.cli`` imports hold only what a command can reach,
so that importing the CLI does not compile these; ``from alexinv import ...``
loads this module on first use of one of its names.  Each module these
definitions left resolves their old names here on first use (``moved`` in
``errors``), so that old imports and pickles still find them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm
from operator import mul

from . import laurent_ring
from .alexander_modules import Presentation, _minors, _scan, _zeros
from .aomoto_complex import GradedAlgebra, ProductTable
from .errors import (
    DimensionError,
    InconclusiveSearchError,
    InconsistentDifferentialError,
    LimitError,
    Record,
    _set,
)
from .exact_kernel import (
    _poly_divmod,
    cyclotomic_poly,
    format_ratio,
    integer_rank,
    prime_divisors,
)
from .invariant_pipeline import Scenario, _charvar_indices
from .laurent_ring import LaurentPoly, check_grid, divide_exact
from .residue_systems import ResidueSystem, admissible_numerators, shift_order

# ---------------------------------------------------------------------------
# Exact dense matrices.


class ExactMatrix(Record):
    """A dense row-major matrix of exact rationals.

    Entries are Fractions; mixing ints in is fine since they coerce.
    """

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise DimensionError("entry count must equal rows * cols")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> ExactMatrix:
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(nrows, ncols, tuple(x for r in rows for x in r))

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


def _rref(rows, ncols):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix: ExactMatrix) -> int:
    """Exact rank over the matrix's coefficient field."""
    rows = matrix.row_lists()
    return len(_rref(rows, matrix.cols))


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise DimensionError("inner dimensions do not match")
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc = acc + a.at(i, k) * b.at(k, j)
            row.append(acc)
        out.append(row)
    if not out or not out[0]:
        return ExactMatrix(a.rows, b.cols, tuple())
    return ExactMatrix.from_rows(out)


# ---------------------------------------------------------------------------
# Cyclotomic numbers.


def euler_phi(n: int) -> int:
    """Euler's totient, ``n * prod (1 - 1/p)`` over the primes of ``n``."""
    for p in prime_divisors(n):
        n -= n // p
    return n


def integer_vector(values) -> tuple[tuple[int, ...], int]:
    """``(n, L)`` with ``L`` the least common denominator of ``values`` and
    ``n = L * values``, so that ``values == n / L`` entrywise."""
    values = [Fraction(v) for v in values]
    common = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (common // v.denominator) for v in values), common


class CyclotomicNumber(Record):
    """An element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial.

    ``coeffs`` always has length ``phi(conductor)``.  Equality and hashing
    compare ``(conductor, coeffs)``, so one value written at two conductors
    gives two unequal objects; :meth:`is_zero` holds at any conductor.
    """

    _fields = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != euler_phi(conductor):
            raise DimensionError(
                f"cyclotomic coefficient vector must have length "
                f"phi({conductor}) = {euler_phi(conductor)}"
            )
        _set(self, "conductor", conductor)
        _set(self, "coeffs", coeffs)

    @classmethod
    def _make(cls, conductor: int, coeffs) -> CyclotomicNumber:
        # Reduce modulo Phi_N in integers, over one common denominator.
        numerators, common = integer_vector(coeffs)
        _, rem = _poly_divmod(numerators, cyclotomic_poly(conductor))
        rem = [Fraction(r, common) for r in rem]
        return cls(conductor, tuple(rem + [Fraction(0)] * (euler_phi(conductor) - len(rem))))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


# ---------------------------------------------------------------------------
# Torsion points and evaluation.


class TorsionPoint(Record):
    """A point of the torus with all coordinates N-th roots of unity.

    Coordinate ``j`` of the point is ``exp(-2*pi*i*numerators[j]/level)``,
    each numerator in ``[0, level)``; ``beta`` holds the residue classes
    ``numerators[j] / level``.  Every point is range-checked, grid points
    too; ``str`` joins each coordinate's ``format_ratio(n, level)``.
    """

    _fields = ("level", "numerators")

    def __init__(self, level: int, numerators: tuple[int, ...]):
        if level < 1:
            raise LimitError("level must be positive")
        for n in numerators:
            if not 0 <= n < level:
                raise LimitError(f"numerator {n} outside [0, {level})")
        _set(self, "level", level)
        _set(self, "numerators", numerators)

    @classmethod
    def from_numerators(cls, level: int, numerators) -> TorsionPoint:
        if level < 1:
            raise LimitError("level must be positive")
        return cls(level, tuple(n % level for n in numerators))

    @property
    def beta(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.level) for n in self.numerators)

    @property
    def nvars(self) -> int:
        return len(self.numerators)

    def __str__(self):
        return "(" + ",".join(format_ratio(n, self.level) for n in self.numerators) + ")"


def torsion_grid(level: int, nvars: int):
    """All level-N torsion points, in lexicographic order of numerators.

    The grid size is checked when this is called, before any point exists.
    """
    check_grid(level, nvars)
    return (TorsionPoint(level, nums) for nums in product(range(level), repeat=nvars))


def grid_points(level: int, nvars: int, indices) -> tuple[TorsionPoint, ...]:
    """The points at lexicographic ``indices`` of :func:`torsion_grid`: the
    numerators of index ``k`` are its base-``level`` digits."""
    places = [level ** j for j in range(nvars - 1, -1, -1)]
    return tuple(TorsionPoint(level, tuple(k // p % level for p in places)) for k in indices)


def evaluate_at_torsion(p: LaurentPoly, point: TorsionPoint) -> CyclotomicNumber:
    """Substitute ``tj -> exp(-2*pi*i*beta[j])``, exactly, in Q(zeta_N)."""
    if p.nvars != point.nvars:
        raise DimensionError(
            f"polynomial in {p.nvars} variables evaluated at a point of length {point.nvars}"
        )
    n = point.level
    nums = point.numerators
    # Accumulate by power of zeta_N, then reduce once.
    powers = [Fraction(0)] * n
    for exps, coeff in p.terms.items():
        k = -sum(e * b for e, b in zip(exps, nums)) % n
        powers[k] += coeff
    return CyclotomicNumber._make(n, powers)


def divides(p: LaurentPoly, q: LaurentPoly) -> bool:
    """True iff ``q = p * r`` for some Laurent polynomial ``r``."""
    if p.nvars != q.nvars:
        raise DimensionError("divisibility between different variable counts")
    return q.is_zero or (not p.is_zero and divide_exact(q, p) is not None)


# ---------------------------------------------------------------------------
# Modules.


class IdealGenerators(Record):
    """Generators of an ideal; empty means the zero ideal, a unit generator
    means the full ring."""

    _fields = ("gens",)

    def __init__(self, gens: tuple):
        _set(self, "gens", gens)


def elementary_ideal(pres: Presentation, i: int) -> IdealGenerators:
    """The i-th elementary ideal, by the conventions of ``alexander_modules``:
    the full ring when ``i >= n``, the zero ideal when ``n - i > m``, and
    otherwise the ideal of all ``(n-i) x (n-i)`` minors.  The generators
    are the presentation's own nonzero minors, not its peel's."""
    return IdealGenerators(tuple(_minors(pres, i)))


def support_scan(pres: Presentation, level: int) -> tuple[TorsionPoint, ...]:
    """All level-N torsion points in the support, in lexicographic order."""
    return grid_points(level, pres.nvars, _scan(pres, 1, level))


def fitting_variety_scan(
    pres: Presentation, i: int, level: int
) -> tuple[TorsionPoint, ...]:
    """Torsion points where every generator of the (i-1)-st elementary ideal
    vanishes (the i-th Fitting-stratified characteristic variety)."""
    if i < 1:
        raise ValueError("variety index must be >= 1")
    return grid_points(level, pres.nvars, _scan(pres, i, level))


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
# One-forms and the wedge differential.


class OneForm(Record):
    """A degree-1 element, as coefficients over the degree-1 basis."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple):
        _set(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def scaled(self, c) -> OneForm:
        return OneForm(tuple(Fraction(c) * x for x in self.coeffs))


def wedge(algebra: GradedAlgebra, omega: OneForm, p: int, vector) -> list:
    """Image of a degree-``p`` coefficient vector under wedging with omega."""
    if not 0 <= p < algebra.top_degree:
        raise DimensionError(f"degree {p} out of range [0, {algebra.top_degree})")
    if len(omega.coeffs) != algebra.dim(1):
        raise DimensionError("one-form length does not match the degree-1 basis")
    vector = list(vector)
    if len(vector) != algebra.dim(p):
        raise DimensionError(f"vector length does not match the degree-{p} basis")
    target = algebra.basis[p + 1]
    index = {label: i for i, label in enumerate(target)}
    acc = [Fraction(0)] * len(target)
    for i, u in enumerate(algebra.basis[1]):
        a = omega.coeffs[i]
        if not a:
            continue
        for j, v in enumerate(algebra.basis[p]):
            c = Fraction(vector[j])
            if not c:
                continue
            for label, s in algebra.wedge_pair(u, v).items():
                acc[index[label]] += a * c * s
    return acc


def differential_matrix(algebra: GradedAlgebra, omega: OneForm, p: int) -> ExactMatrix:
    """Matrix of wedging with omega from degree p to degree p+1; columns are
    the images of the degree-p basis elements."""
    cols = []
    for j in range(algebra.dim(p)):
        e = [Fraction(0)] * algebra.dim(p)
        e[j] = Fraction(1)
        cols.append(wedge(algebra, omega, p, e))
    nrows = algebra.dim(p + 1)
    ncols = algebra.dim(p)
    entries = tuple(cols[j][i] for i in range(nrows) for j in range(ncols))
    return ExactMatrix(nrows, ncols, entries)


def cohomology_dims(algebra: GradedAlgebra, omega: OneForm) -> tuple[int, ...]:
    """Dimensions ``b_0 .. b_top`` of the complex ``(A, omega ^ .)``.

    Each differential is an integer matrix, cleared of denominators by one
    positive factor per degree, which changes no rank.  Verifies that
    consecutive differentials compose to zero before trusting any rank
    computation.
    """
    top = algebra.top_degree
    if top >= 1 and len(omega.coeffs) != algebra.dim(1):
        raise DimensionError("one-form length does not match the degree-1 basis")
    matrices = []
    for p in range(top):
        index = {label: t for t, label in enumerate(algebra.basis[p + 1])}
        terms = [
            (index[label], j, a.numerator * s.numerator, a.denominator * s.denominator)
            for a, u in zip(omega.coeffs, algebra.basis[1]) if a
            for j, v in enumerate(algebra.basis[p])
            for label, s in algebra.wedge_pair(u, v).items()
        ]
        scale = lcm(*(den for *_, den in terms))
        matrix = [[0] * len(algebra.basis[p]) for _ in algebra.basis[p + 1]]
        for t, j, num, den in terms:
            matrix[t][j] += num * scale // den
        matrices.append(matrix)
    for p in range(top - 1):
        columns = list(zip(*matrices[p]))
        if any(sum(map(mul, row, col)) for row in matrices[p + 1] for col in columns):
            raise InconsistentDifferentialError(
                f"wedging twice with the one-form is nonzero from degree {p}"
            )
    ranks = [integer_rank(m) for m in matrices] + [0]
    return tuple(algebra.dim(p) - ranks[p] - ranks[p - 1] for p in range(top + 1))


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
# Residues.


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


def shift_vectors(nparams: int, bound: int) -> list[tuple[int, ...]]:
    """Integer shift vectors with entries in [-bound, bound], ordered by total
    absolute shift and then lexicographically."""
    return list(shift_order(nparams, bound))


def admissible_search(system: ResidueSystem, beta, bound: int = 3):
    """``admissible_numerators`` in ``Fraction`` values: the first
    admissible ``alpha`` congruent to ``beta`` mod 1, or None."""
    numerators, denominator = integer_vector(beta)
    alpha = admissible_numerators(system, numerators, denominator, bound)
    return None if alpha is None else tuple(Fraction(a, denominator) for a in alpha)


# ---------------------------------------------------------------------------
# Scenarios at residue classes and at explicit residues.


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
