"""The compiled integer scan kernel against the public Fraction helpers.

Every reference here is built from ``shift_vectors``, ``is_admissible``,
``differential_matrix``, ``rank``, ``mat_mul`` and ``reference.is_zero_matrix``, which
do all their arithmetic in ``Fraction``s; sympy checks the integer rank.
"""

import json
import re
import time
import tracemalloc
from collections import Counter
from contextlib import ExitStack
from copy import deepcopy
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import gcd, lcm, prod
from operator import mul
from unittest.mock import patch

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from alexinv import aomoto_complex, cli, laurent_ring, residue_systems
from alexinv.aomoto_complex import GradedAlgebra, IntegerDifferential, rank_certificate
from alexinv.cli import main
from alexinv.constructions import (
    OneForm,
    admissible_search,
    charvar_scan,
    cohomology_at,
    cohomology_dims,
    differential_matrix,
    is_admissible,
    mat_mul,
    one_form,
    os_algebra_lines,
    rank,
    shift_vectors,
    torsion_grid,
)
from alexinv.corpus import bundled_scenario_names, load_bundled_scenario
from alexinv.errors import InconclusiveSearchError, InconsistentDifferentialError
from alexinv.exact_kernel import integer_rank
from alexinv.invariant_pipeline import _charvar_indices, milnor_charpoly, scenario_from_json
from alexinv.residue_systems import (
    ResidueRow,
    ResidueSystem,
    admissible_shifts,
    grid_shifts,
)
from randgen import make_rng, random_fraction
from reference import is_zero_matrix

F = Fraction
HYPOTHESIS = settings(max_examples=300, deadline=None, database=None)


def reference_dims(algebra, omega):
    mats = [differential_matrix(algebra, omega, p) for p in range(algebra.top_degree)]
    ranks = [rank(m) for m in mats] + [0]
    return tuple(
        algebra.dim(p) - ranks[p] - (ranks[p - 1] if p else 0)
        for p in range(algebra.top_degree + 1)
    )


def reference_first_nonzero_square(algebra, omega):
    mats = [differential_matrix(algebra, omega, p) for p in range(algebra.top_degree)]
    for p in range(algebra.top_degree - 1):
        if not is_zero_matrix(mat_mul(mats[p + 1], mats[p])):
            return p
    return None


def reference_representative(system, beta, bound):
    for shift in shift_vectors(system.nparams, bound):
        alpha = tuple(b + k for b, k in zip(beta, shift))
        if is_admissible(system, alpha):
            return alpha
    return None


def reference_scan(scenario, level, bound, dims_cache):
    """Per point of the level-N grid: the reference dimension vector, or None
    when the search box holds no admissible representative."""
    bound = scenario.effective_bound(bound)
    out = []
    for point in torsion_grid(level, scenario.nparams):
        alpha = reference_representative(scenario.residue_system, point.beta, bound)
        if alpha is not None and alpha not in dims_cache:
            dims_cache[alpha] = reference_dims(
                scenario.algebra, one_form(scenario, alpha)
            )
        out.append((point, None if alpha is None else dims_cache[alpha]))
    return out


def assert_scan_matches(scenario, level, bound, dims_cache):
    reference = reference_scan(scenario, level, bound, dims_cache)
    for degree in range(1, scenario.algebra.top_degree + 1):
        scan = charvar_scan(scenario, level, degree, bound)
        buckets = {}
        for point, dims in reference:
            if dims is not None:
                buckets.setdefault(dims[degree], []).append(point)
        assert scan.by_dimension == {
            dim: tuple(points) for dim, points in sorted(buckets.items())
        }
        assert scan.inconclusive == tuple(p for p, dims in reference if dims is None)
    return reference


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_charvar_scan_matches_fraction_reference(name):
    scenario = load_bundled_scenario(name)
    dims_cache = {}
    for level in range(2, 8):
        for bound in range(5):
            assert_scan_matches(scenario, level, bound, dims_cache)


def test_example_53_level12_inconclusive_points_match_reference():
    scenario = load_bundled_scenario("example_5_3")
    reference = assert_scan_matches(scenario, 12, 3, {})
    assert [p.numerators for p, dims in reference if dims is None] == [(4,), (8,)]


@st.composite
def index_scans(draw):
    """A bundled scenario, a level 1-12, one of its degrees and a bound 0-4;
    example_5_3's ``max_shift: 0`` leaves points inconclusive."""
    scenario = load_bundled_scenario(draw(st.sampled_from(bundled_scenario_names())))
    degree = draw(st.integers(1, scenario.algebra.top_degree))
    return scenario, draw(st.integers(1, 12)), degree, draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None, database=None)
@given(index_scans())
@example((load_bundled_scenario("example_5_3"), 12, 2, 3))
@example((load_bundled_scenario("lines_generic3"), 12, 1, 4))
def test_charvar_indices_match_the_point_by_point_route(scan):
    # The grid search and the coordinate columns against admissible_shifts
    # one point at a time and dims_many on the shifted points.
    scenario, level, degree, bound = scan
    rows = [row.coeffs for row in scenario.residue_system.rows]
    box = scenario.effective_bound(bound)
    points = [p.numerators for p in torsion_grid(level, scenario.nparams)]
    shifts = [admissible_shifts(rows, (n,), level, box)[0] for n in points]
    moved = [(index, [x + level * k for x, k in zip(n, shift)])
             for index, (n, shift) in enumerate(zip(points, shifts)) if shift is not None]
    dims = scenario.differential.dims_many([a for _, a in moved])
    buckets = {}
    for (index, _), point_dims in zip(moved, dims):
        buckets.setdefault(point_dims[degree], []).append(index)
    by_index, inconclusive = _charvar_indices(scenario, level, degree, bound)
    assert list(by_index.items()) == sorted(buckets.items())
    assert inconclusive == [index for index, shift in enumerate(shifts) if shift is None]


def fractions_with_mixed_denominators(n):
    return st.lists(
        st.builds(
            Fraction,
            st.integers(-40, 40),
            st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]),
        ),
        min_size=n,
        max_size=n,
    )


@st.composite
def residue_problems(draw):
    nparams = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=nparams, max_size=nparams),
            min_size=1,
            max_size=6,
        )
    )
    beta = draw(fractions_with_mixed_denominators(nparams))
    # Any common denominator works, not only the least one.
    extra = draw(st.integers(1, 4))
    return rows, tuple(beta), extra


@HYPOTHESIS
@given(residue_problems(), st.integers(0, 2))
def test_integer_admissibility_agrees_with_is_admissible(problem, bound):
    rows, beta, extra = problem
    system = ResidueSystem(
        len(beta),
        tuple(ResidueRow(f"r{i}", tuple(row), False) for i, row in enumerate(rows)),
    )
    common = extra * lcm(*(b.denominator for b in beta))
    numerators = tuple(int(b * common) for b in beta)

    zero_shift = admissible_shifts(rows, (numerators,), common, 0)[0]
    assert (zero_shift is not None) == is_admissible(system, beta)

    shift = admissible_shifts(rows, (numerators,), common, bound)[0]
    expected = reference_representative(system, beta, bound)
    got = None if shift is None else tuple(b + k for b, k in zip(beta, shift))
    assert got == expected
    # The one integer entry, and admissible_search over it, against the
    # same walk of shift_vectors with is_admissible.
    assert admissible_search(system, beta, bound) == expected
    scaled = residue_systems.admissible_numerators(system, numerators, common, bound)
    assert scaled == (None if expected is None else [a * common for a in expected])


@st.composite
def repeating_residue_grids(draw):
    """Rows, a level and every point of its grid.  Coefficients are often
    multiples of the level, so that many points block on the same rows
    with the same offsets."""
    nparams = draw(st.integers(1, 3))
    level = draw(st.integers(1, 6))
    coefficient = st.builds(
        lambda c, m: c * m, st.integers(-2, 2), st.sampled_from([1, level]))
    rows = draw(st.lists(
        st.lists(coefficient, min_size=nparams, max_size=nparams),
        min_size=0, max_size=5))
    return rows, level, list(torsion_grid(level, nparams))


@HYPOTHESIS
@given(repeating_residue_grids(), st.integers(0, 2))
# (2, 1) and (1, 2) are each blocked by one row with offset 1, but by
# different rows, so they need different shifts.
@example(([[2, 0], [0, 2]], 4, list(torsion_grid(4, 2))), 1)
def test_batch_search_agrees_with_the_reference_at_every_point(problem, bound):
    rows, level, grid = problem
    system = ResidueSystem(
        grid[0].nvars,
        tuple(ResidueRow(f"r{i}", tuple(row), False) for i, row in enumerate(rows)),
    )
    # Every point again and again, so that each pattern recurs in one call:
    # the whole batch, a prefix of it, the grid search and each point alone
    # must agree.
    many = 8
    numerators = [p.numerators for p in grid] * many
    shifts = admissible_shifts(rows, numerators, level, bound)
    assert shifts == shifts[:len(grid)] * many
    assert admissible_shifts(rows, numerators[:many - 1], level, bound) == shifts[:many - 1]
    assert expand(grid_shifts(rows, level, grid[0].nvars, bound), level,
                  grid[0].nvars) == shifts[:len(grid)]
    for point, shift in zip(grid, shifts):
        got = None if shift is None else tuple(b + k for b, k in zip(point.beta, shift))
        assert got == reference_representative(system, point.beta, bound)
        assert shift == admissible_shifts(rows, (point.numerators,), level, bound)[0]


def test_each_blocking_pattern_is_settled_in_one_walk_per_call(monkeypatch):
    box = shift_vectors(3, 3)
    walks, settled = [], []
    shift_order, search = residue_systems.shift_order, residue_systems._search

    def walked(nparams, bound):
        walk = []
        walks.append(walk)
        return map(lambda shift: walk.append(shift) or shift, shift_order(nparams, bound))

    def recording(rows, nparams, bound, patterns):
        found = search(rows, nparams, bound, patterns)
        settled.append(dict(found))
        return found

    monkeypatch.setattr(residue_systems, "shift_order", walked)
    monkeypatch.setattr(residue_systems, "_search", recording)
    system = load_bundled_scenario("example_4_1").residue_system
    rows = [row.coeffs for row in system.rows]
    points = [p.numerators for p in torsion_grid(12, 3)]
    grid = grid_shifts(rows, 12, 3, 3)
    shifts = expand(grid, 12, 3)
    patterns = {
        tuple((r, v // 12) for r, v in enumerate(sum(map(mul, row, n)) for row in rows)
              if v % 12 == 0)
        for n in points}
    blocked = [n for n in points if any(sum(map(mul, row, n)) % 12 == 0 for row in rows)]
    # Only the patterns with a positive offset are searched: the zero shift
    # settles every other one, and some are skipped.
    positive = {p for p in patterns if any(offset > 0 for _, offset in p)}
    assert len(positive) < len(patterns - {()}) < len(blocked) < len(points)
    # The grid search returns exactly the points with a positive offset.
    moved = {index for index, n in enumerate(points)
             if any(v % 12 == 0 and v > 0 for v in (sum(map(mul, row, n)) for row in rows))}
    assert set(grid) == moved and len(moved) == 275
    # One walk settles every searched pattern, and stops at the last one.
    (walk,), (in_grid,) = walks, settled
    assert set(in_grid) == positive
    assert walk == box[:len(walk)] and None not in in_grid.values()
    assert walk[-1] in in_grid.values() and box[0] not in in_grid.values()
    # Point by point, one call settles the same patterns in one walk, and
    # skips the same ones.
    walks.clear()
    settled.clear()
    assert admissible_shifts(rows, points, 12, 3) == shifts
    assert len(walks) == 1 and settled == [in_grid]
    assert shifts == [admissible_shifts(rows, (n,), 12, 3)[0] for n in points]
    # A Milnor-style batch, every equimonodromic point of a large order:
    # one walk, however many points share a pattern.
    walks.clear()
    settled.clear()
    order = 5040
    milnor = admissible_shifts(rows, [(k,) * 3 for k in range(order)], order, 3)
    assert len(walks) == len(settled) == 1 and len(settled[0]) < 20 < order
    assert milnor[:12] == [
        admissible_shifts(rows, ((k,) * 3,), order, 3)[0] for k in range(12)]


def expand(moved, level, nparams):
    """:func:`grid_shifts`' dict of moved points as a shift for every point
    of the grid, in order: the zero shift wherever the dict has none."""
    zero = (0,) * nparams
    assert zero not in moved.values()
    assert all(0 <= i < level ** nparams for i in moved)
    return [moved.get(index, zero) for index in range(level ** nparams)]


GRID_WORK = 60_000  # most grid points times box shifts per drawn problem


@st.composite
def grid_problems(draw):
    """Rows, a level and a parameter count for :func:`grid_shifts`, with
    the grid times the search box small enough for the reference at every
    point.  Coefficients are small or multiples of the level; rows may end
    in zero or a negative coefficient, be all zero, or be missing."""
    nparams = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 3))
    top = max(1, min(13, int((GRID_WORK ** (1 / nparams)) / (2 * bound + 1))))
    level = draw(st.integers(1, top))
    coefficient = st.one_of(
        st.integers(-3, 3), st.builds(lambda c: c * level, st.integers(-2, 2)))
    row = st.one_of(
        st.lists(coefficient, min_size=nparams, max_size=nparams),
        st.builds(lambda head, last: head + [last],
                  st.lists(coefficient, min_size=nparams - 1, max_size=nparams - 1),
                  st.integers(-3, 0)),
        st.just([0] * nparams),
    )
    return draw(st.lists(row, max_size=5)), level, nparams, bound


def assert_grid_matches(rows, level, nparams, bound):
    system = ResidueSystem(
        nparams,
        tuple(ResidueRow(f"r{i}", tuple(row), False) for i, row in enumerate(rows)),
    )
    shifts = expand(grid_shifts(rows, level, nparams, bound), level, nparams)
    grid = list(torsion_grid(level, nparams))
    assert shifts == admissible_shifts(rows, [p.numerators for p in grid], level, bound)
    # Rows given as tuples give the same search.
    tuples = [tuple(row) for row in rows]
    assert expand(grid_shifts(tuples, level, nparams, bound), level, nparams) == shifts
    for point, shift in zip(grid, shifts):
        got = None if shift is None else tuple(b + k for b, k in zip(point.beta, shift))
        assert got == reference_representative(system, point.beta, bound)


@settings(max_examples=150, deadline=None, database=None)
@given(grid_problems())
# Example 4.1's rows at level 5: a descending block (last coefficient -2)
# that ends at the table's first entry, where the slice stop is negative.
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -2], [1, 1, 1], [0, -1, -1],
           [1, 2, 2], [-1, -2, -2]], 5, 3, 3))
# A coefficient far past the grid's size, and rows given as lists.
@example(([[10**15, 1], [1, -1], [-3, 10**15 * 12]], 12, 2, 1))
@example(([[2, 0], [0, 2], [1, 1], [-1, 3]], 4, 2, 1))
@example(([], 3, 2, 1))
@example(([[0, 0, 0]], 2, 3, 2))
def test_grid_search_agrees_with_the_point_search_and_the_reference(problem):
    assert_grid_matches(*problem)


def test_a_huge_coefficient_is_searched_without_a_table():
    # The search visits only the points where a row's value is a multiple
    # of the level, however large its coefficients, so it stays quick.
    rows = [[10**15, 1, -1], [1, -10**15, 2], [1, 1, 1]]
    start = time.perf_counter()
    shifts = expand(grid_shifts(rows, 12, 3, 3), 12, 3)
    assert time.perf_counter() - start < 1
    points = [p.numerators for p in torsion_grid(12, 3)]
    assert shifts == admissible_shifts(rows, points, 12, 3)
    # Nor does its memory follow the span of a row's values: (level - 1)
    # times sum(|c|), here at and around the scan cap and far past it. Each
    # span leaves a point with a positive offset, so each call searches.
    cap = laurent_ring.MAX_SCAN_POINTS
    peaks = []
    for span in (cap - 1, cap, 10**15):
        rows = [[span, 1], [-1, 1]]
        tracemalloc.start()
        try:
            shifts = grid_shifts(rows, 2, 2, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert expand(shifts, 2, 2) == admissible_shifts(
            rows, [p.numerators for p in torsion_grid(2, 2)], 2, 1)
    assert max(peaks) <= 2 * min(peaks)


@st.composite
def integer_matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    inner = draw(st.integers(0, min(nrows, ncols)))
    entry = st.integers(-6, 6)
    left = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                         min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                          min_size=inner, max_size=inner))
    # A product of an nrows x inner and an inner x ncols factor has rank at
    # most inner, so low ranks are common.
    return [
        [sum(left[i][m] * right[m][j] for m in range(inner)) for j in range(ncols)]
        for i in range(nrows)
    ]


@HYPOTHESIS
@given(integer_matrices())
def test_integer_rank_agrees_with_sympy(matrix):
    assert integer_rank(matrix) == sympy.Matrix(matrix).rank()


def test_integer_rank_edge_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[0, 3], [0, 6]]) == 1
    assert integer_rank([[2, 4, 1], [1, 2, 0], [3, 6, 1]]) == 2


# ---------------------------------------------------------------------------
# The d*d check.


def nonassociative_algebra():
    # The algebra of test_inconsistent_differential_detected: it passes the
    # per-basis-element invariants, but e1^(e2^e3) + e2^(e1^e3) != 0.
    return GradedAlgebra(
        3,
        (("1",), ("a", "b", "c"), ("bc", "ac"), ("top",)),
        {
            ("b", "c"): {"bc": F(1)},
            ("a", "c"): {"ac": F(1)},
            ("a", "bc"): {"top": F(1)},
            ("b", "ac"): {"top": F(1)},
        },
    )


def random_algebra(rng):
    """Random, unvalidated structure constants, so that d*d fails in any
    degree (or none) depending on the one-form."""
    basis = (("1",), ("a", "b", "c"), ("x", "y"), ("top",))
    products = {}
    for u in basis[1]:
        for v in basis[1] + basis[2]:
            targets = basis[2] if v in basis[1] else basis[3]
            if rng.random() < 0.5:
                vec = {t: random_fraction(rng) for t in targets if rng.random() < 0.6}
                if vec:
                    products[(u, v)] = vec
    return GradedAlgebra(3, basis, products)


def compiled_first_nonzero_square(compute):
    try:
        return compute(), None
    except InconsistentDifferentialError as exc:
        return None, int(re.fullmatch(r".* from degree (\d+)", str(exc)).group(1))


def test_square_check_fires_exactly_when_mat_mul_check_does():
    rng = make_rng(2024)
    algebras = [nonassociative_algebra()] + [random_algebra(rng) for _ in range(30)]
    fired = set()
    for algebra in algebras:
        for trial in range(12):
            if trial % 2:
                coeffs = tuple(random_fraction(rng) for _ in range(3))
            else:
                coeffs = tuple(rng.randint(-3, 3) for _ in range(3))
            omega = OneForm(coeffs)
            expected = reference_first_nonzero_square(algebra, omega)
            dims, degree = compiled_first_nonzero_square(
                lambda: cohomology_dims(algebra, omega)
            )
            assert degree == expected
            if expected is None:
                assert dims == reference_dims(algebra, omega)
            fired.add(expected)
    assert fired == {None, 0, 1}


def test_square_check_through_a_rational_omega_map():
    # D_p(a) = sum_i a_i N_{p,i} with N precomposed with omega_map; the check
    # must agree with the Fraction one-form alpha . omega_map.
    rng = make_rng(77)
    for algebra in [nonassociative_algebra()] + [random_algebra(rng) for _ in range(10)]:
        omega_map = [[random_fraction(rng) for _ in range(3)] for _ in range(2)]
        compiled = IntegerDifferential(algebra, omega_map)
        for _ in range(8):
            a = [rng.randint(-4, 4) for _ in range(2)]
            omega = OneForm(
                tuple(sum(a[i] * omega_map[i][j] for i in range(2)) for j in range(3))
            )
            expected = reference_first_nonzero_square(algebra, omega)
            dims, degree = compiled_first_nonzero_square(
                lambda: compiled.dims_many((a,))[0])
            assert degree == expected
            if expected is None:
                assert dims == reference_dims(algebra, omega)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_square_check_never_fires_on_bundled_scenarios(name):
    scenario = load_bundled_scenario(name)
    assert scenario.differential.squares == []
    rng = make_rng(11)
    for _ in range(40):
        alpha = tuple(random_fraction(rng) for _ in range(scenario.nparams))
        assert cohomology_at(scenario, alpha) == reference_dims(
            scenario.algebra, one_form(scenario, alpha)
        )


# ---------------------------------------------------------------------------
# The rank memo: a rank is kept per degree and direction a // gcd(a).


@cache
def warm_differential(name):
    """One differential per bundled scenario, shared by every draw, so that
    later draws hit ranks that earlier ones stored."""
    return load_bundled_scenario(name).differential


def fresh_ranks(differential, a):
    return [
        integer_rank([[sum(x * y for x, y in zip(cell, a)) for cell in row]
                      for row in tensor])
        for tensor in differential.tensors
    ]


def dims_from_ranks(betti, ranks, degrees):
    ranks = ranks + [0]
    return tuple(betti[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in degrees)


@HYPOTHESIS
@given(st.sampled_from(bundled_scenario_names()), st.data())
def test_memoised_dims_agree_with_fresh_ranks_on_every_multiple(name, data):
    differential = warm_differential(name)
    nparams = len(differential.tensors[0][0][0])
    a = data.draw(st.lists(st.integers(-4, 4), min_size=nparams, max_size=nparams))
    top = len(differential.betti)
    degree_sets = [None, *chain.from_iterable(
        combinations(range(top), k) for k in range(1, top + 1))]
    sympy_ranks = [
        sympy.Matrix([[sum(x * y for x, y in zip(cell, a)) for cell in row]
                      for row in tensor]).rank()
        for tensor in differential.tensors
    ]
    assert fresh_ranks(differential, a) == sympy_ranks
    multiples = [[c * x for x in a] for c in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5)]
    for scaled in multiples:
        ranks = fresh_ranks(differential, scaled)
        assert ranks == sympy_ranks
        for degrees in degree_sets:
            expected = dims_from_ranks(
                differential.betti, ranks, range(top) if degrees is None else degrees)
            assert differential.dims_many((scaled,), degrees)[0] == expected
            assert differential.dims_many((tuple(scaled),), degrees)[0] == expected
    for degrees in degree_sets:
        expected = dims_from_ranks(
            differential.betti, sympy_ranks, range(top) if degrees is None else degrees)
        for batch_degrees in (degrees,) if degrees is None else (degrees, list(degrees)):
            assert differential.dims_many(multiples, batch_degrees) == [expected] * 10
    assert differential.dims_many([], None) == []
    assert len(differential.ranks) <= aomoto_complex.MAX_RANK_MEMO


def test_invalid_algebra_raises_on_every_repeat_call():
    differential = IntegerDifferential(
        nonassociative_algebra(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # a = 0 lies on the zero set of every certificate, so its ranks are
    # computed and kept.
    assert differential.dims_many(([0, 0, 0],))[0] == differential.betti
    stored = dict(differential.ranks)
    assert len(stored) == 3
    for a in ([1, 1, 1], [2, 2, 2], [1, 1, 1], [-3, -3, -3]):
        for degrees in (None, (0,), (3,)):
            with pytest.raises(InconsistentDifferentialError, match="from degree 1"):
                differential.dims_many((a,), degrees)[0]
    assert differential.ranks == stored


def test_rank_memo_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(aomoto_complex, "MAX_RANK_MEMO", 5)
    scenario = load_bundled_scenario("example_4_2")
    differential = scenario.differential
    cold = IntegerDifferential(scenario.algebra, scenario.omega_map)
    rng = make_rng(5)
    sizes = set()
    for _ in range(200):
        a = on_a_zero_set(differential, [rng.randint(-6, 6) for _ in range(3)], rng)
        degrees = rng.choice([None, (0,), (1,), (2,), (1, 2)])
        assert differential.dims_many((a,), degrees)[0] == dims_from_ranks(
            cold.betti, fresh_ranks(cold, a),
            range(3) if degrees is None else degrees)
        sizes.add(len(differential.ranks))
    assert max(sizes) == 5
    for degree in (1, 2):
        assert charvar_scan(scenario, 7, degree) == charvar_scan(
            load_bundled_scenario("example_4_2"), 7, degree)
        assert len(differential.ranks) <= 5
    # One batch of 300 points: the memo never holds more than the cap.
    differential.ranks = SizeRecorder()
    batch = [on_a_zero_set(differential, [rng.randint(-6, 6) for _ in range(3)], rng)
             for _ in range(300)]
    assert differential.dims_many(batch) == [
        dims_from_ranks(cold.betti, fresh_ranks(cold, a), range(3)) for a in batch]
    assert differential.ranks.largest == 5


def on_a_zero_set(differential, a, rng):
    """``a`` with coordinates set to zero, in a random order, until every
    minor of some degree vanishes there, so that a rank is computed and kept;
    at most every coordinate, where every nonconstant minor vanishes (each is
    homogeneous)."""
    a = list(a)
    lists = minor_lists(differential)
    for i in rng.sample(range(len(a)), len(a)):
        if any(on_every_zero_set(minors, a) for minors in lists):
            break
        a[i] = 0
    return a


def minor_lists(differential):
    """The minors of each degree of rank at least 1, in the order that
    ``rank_column`` evaluates them."""
    return [list(minor[1]) for minor in differential.minors if minor and minor[0]]


def on_every_zero_set(minors, a):
    return not any(sum(c * prod(a[i] for i in factors) for c, factors in terms)
                   for terms in minors)


class SizeRecorder(dict):
    """A dict that records the most entries it ever held."""

    largest = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))


# ---------------------------------------------------------------------------
# Rank certificates: rank D_p(a) is r_p wherever the minor M_p(a) is nonzero.


def line_arrangements():
    """Generic arrangements and pencils of 2 to 6 lines."""
    out = {}
    for n in range(2, 7):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        out[f"generic{n}"] = os_algebra_lines(n, pairs)
        out[f"pencil{n}"] = os_algebra_lines(n, [range(1, n + 1)])
    return out


ARRANGEMENTS = line_arrangements()
CERTIFIED = bundled_scenario_names() + list(ARRANGEMENTS)


def algebra_and_map(name):
    """A bundled scenario's algebra and map, or an arrangement's algebra and
    the identity map."""
    if name in ARRANGEMENTS:
        n = ARRANGEMENTS[name].dim(1)
        return ARRANGEMENTS[name], [[int(i == j) for j in range(n)] for i in range(n)]
    scenario = load_bundled_scenario(name)
    return scenario.algebra, scenario.omega_map


@cache
def certified_differential(name):
    if name in ARRANGEMENTS:
        return IntegerDifferential(*algebra_and_map(name))
    return warm_differential(name)


def certificates(differential) -> list:
    """``rank_certificate`` of each ``D_p`` of ``differential``, under the
    present ``MAX_CERTIFICATE_TERMS``."""
    nparams = len(differential.tensors[0][0][0])
    return [rank_certificate(t, nparams) for t in differential.tensors]


@st.composite
def points_on_zero_sets(draw, differential):
    """A point, and for each degree of ``differential`` the point moved onto
    the common zero set of all its minors, where the rank may drop: by
    setting coordinates to zero in a drawn order until they all vanish, and
    by solving for one coordinate (in -20..20, else the first way again);
    and a multiple of each."""
    nparams = len(differential.tensors[0][0][0])
    base = draw(st.lists(st.integers(-4, 4), min_size=nparams, max_size=nparams))
    points = [base]
    for minors in minor_lists(differential):
        on_zeros = list(base)
        for i in draw(st.permutations(range(nparams))):
            if on_every_zero_set(minors, on_zeros):
                break
            on_zeros[i] = 0
        j = draw(st.integers(0, nparams - 1))
        roots = [x for x in range(-20, 21)
                 if on_every_zero_set(minors, base[:j] + [x] + base[j + 1:])]
        solved = base[:j] + [draw(st.sampled_from(roots))] + base[j + 1:] if roots else on_zeros
        c = draw(st.sampled_from([2, -1, -3]))
        points += [on_zeros, solved, [c * x for x in on_zeros], [c * x for x in solved]]
    return points


def evaluated(tensor, a):
    return [[sum(x * y for x, y in zip(cell, a)) for cell in row] for row in tensor]


@HYPOTHESIS
@given(st.sampled_from(CERTIFIED), st.data())
def test_certified_dims_agree_with_fresh_and_sympy_ranks(name, data):
    differential = certified_differential(name)
    points = data.draw(points_on_zero_sets(differential))
    top = len(differential.betti)
    ranks = [fresh_ranks(differential, a) for a in points]
    assert ranks == [
        [sympy.Matrix(evaluated(tensor, a)).rank() for tensor in differential.tensors]
        for a in points]
    for degrees in (None, *((p,) for p in range(top))):
        wanted = range(top) if degrees is None else degrees
        assert differential.dims_many(points, degrees) == [
            dims_from_ranks(differential.betti, r, wanted) for r in ranks]


@pytest.mark.parametrize("name", CERTIFIED)
def test_certificates_are_the_generic_rank_and_a_minor(name):
    differential = certified_differential(name)
    nparams = len(differential.tensors[0][0][0])
    symbols = sympy.symbols(f"a0:{nparams}")
    for p, (tensor, certificate) in enumerate(
            zip(differential.tensors, certificates(differential))):
        matrix = DomainMatrix.from_Matrix(sympy.Matrix(
            [[sum(c * s for c, s in zip(cell, symbols)) for cell in row] for row in tensor]))
        if certificate is None:
            continue
        r, rows, cols, minor = certificate
        assert r == matrix.to_field().rank()
        if not r:
            assert rows == cols == () and minor == (((0,) * nparams, 1),)
            continue
        det = matrix.extract(list(rows), list(cols)).det()
        expected = sympy.Poly(matrix.domain.to_sympy(det), *symbols)
        assert sympy.Poly.from_dict(dict(minor), *symbols) in (expected, -expected)
        # The later minors: rank_certificate on D_p with its columns reversed
        # and with its rows reversed, their rows and columns mapped back.
        nrows, ncols = len(tensor), len(tensor[0])
        chosen = [(rows, cols)]
        for flip_rows, flip_cols in ((False, True), (True, False)):
            flipped = [row[::-1] if flip_cols else row
                       for row in (tensor[::-1] if flip_rows else tensor)]
            found = rank_certificate(flipped, nparams)
            if found is not None:
                assert found[0] == r
                chosen.append((
                    sorted(nrows - 1 - t for t in found[1]) if flip_rows else found[1],
                    sorted(ncols - 1 - j for j in found[2]) if flip_cols else found[2]))
        dets = []
        for rows, cols in chosen:
            det = sympy.Poly(matrix.domain.to_sympy(
                matrix.extract(list(rows), list(cols)).det()), *symbols)
            assert len(rows) == len(cols) == r and not det.is_zero
            if det not in dets and -det not in dets:
                dets.append(det)
        stored = [
            sympy.Poly.from_dict(
                {tuple(factors.count(i) for i in range(nparams)): c for c, factors in terms},
                *symbols)
            for terms in differential.minors[p][1]]
        assert len(stored) == len(dets)
        assert all(s in (d, -d) for s, d in zip(stored, dets))
    # The pencil of six lines meets an entry of more than 64 terms in degree 1.
    assert (None in differential.minors) == (name == "pencil6")


def test_without_certificates_the_dims_are_the_same(monkeypatch):
    # The full differentials are built before the cap is lowered, also when
    # no earlier test has built them.
    fulls = [certified_differential(name) for name in CERTIFIED]
    full_certificates = [certificates(full) for full in fulls]
    monkeypatch.setattr(aomoto_complex, "MAX_CERTIFICATE_TERMS", 1)
    rng = make_rng(12)
    dropped = dropped_later = 0
    for name, full, uncapped in zip(CERTIFIED, fulls, full_certificates):
        capped = IntegerDifferential(*algebra_and_map(name))
        # Only certificates whose elimination never met two terms are left.
        for kept, certificate in zip(certificates(capped), uncapped):
            assert kept is None or kept == certificate and len(kept[3]) <= 1
            dropped += kept is None and certificate is not None
        nparams = len(full.tensors[0][0][0])
        points = [[rng.randint(-4, 4) for _ in range(nparams)] for _ in range(20)]
        points += [on_a_zero_set(full, a, rng) for a in points]
        assert capped.dims_many(points) == full.dims_many(points) == [
            dims_from_ranks(full.betti, fresh_ranks(full, a), range(len(full.betti)))
            for a in points]
        # The later minors obey the cap too: those kept are full ones.
        for p, minor in enumerate(capped.minors):
            if minor and minor[0]:
                kept, every = set(minor[1]), set(full.minors[p][1])
                assert kept <= every and all(len(terms) <= 1 for terms in kept)
                dropped_later += len(every - kept)
    assert (dropped, dropped_later) == (5, 0)


def test_a_later_minor_over_the_cap_is_left_out(monkeypatch):
    # Under a cap of two terms, D_1 of this algebra keeps M_1 = a_0 a_2 and
    # the column-reversed a_0^2, but the row-reversed elimination meets three
    # terms and a_2 (a_0 + a_2) is left out: where a_0 = 0 and a_2 != 0 the
    # rank is then computed, not certified.
    algebra = GradedAlgebra(2, (("1",), ("x", "y", "z"), ("s", "t", "u")), {
        ("x", "y"): {"t": F(1), "u": F(-1)},
        ("x", "z"): {"s": F(-1), "t": F(1)},
        ("y", "z"): {"u": F(1)},
    })
    points = [[0, k, m] for k in range(-2, 3) for m in range(-2, 3)]
    expected = [reference_dims(algebra, OneForm(a)) for a in points]
    full = IntegerDifferential(algebra, IDENTITY3)
    assert full.dims_many(points) == expected
    monkeypatch.setattr(aomoto_complex, "MAX_CERTIFICATE_TERMS", 2)
    capped = IntegerDifferential(algebra, IDENTITY3)
    assert capped.dims_many(points) == expected
    assert [len(d.minors[1][1]) for d in (capped, full)] == [2, 3]
    assert [sum(degree == 1 for degree, _ in d.ranks) for d in (capped, full)] == [17, 3]


@pytest.mark.parametrize("n", range(7, 13))
def test_certificates_stay_cheap_on_larger_arrangements(n):
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    for algebra, certified in ((os_algebra_lines(n, pairs), True),
                               (os_algebra_lines(n, [range(1, n + 1)]), False)):
        start = time.perf_counter()
        differential = IntegerDifferential(algebra, identity)
        assert time.perf_counter() - start < 1.0
        # A pencil's degree-1 elimination meets an entry of more than 64
        # terms and stops there.
        assert (differential.minors[1] is not None) == certified
        assert differential.dims_many(([1] * n,))[0] == dims_from_ranks(
            differential.betti, fresh_ranks(differential, [1] * n), range(3))


# ---------------------------------------------------------------------------
# dims_many works a column at a time: against a Fraction rank at every point.


@st.composite
def batches(draw, differential):
    """0, 1 or many points: random ones, a = 0, and points from two draws of
    ``points_on_zero_sets(differential)``, where the ranks may drop; two
    draws give enough directions for a memo of 2 to be emptied."""
    nparams = len(differential.tensors[0][0][0])
    size = draw(st.sampled_from([0, 1, 2, 7, 16]))
    pool = [point for _ in range(2) for point in draw(points_on_zero_sets(differential))]
    pool.append([0] * nparams)
    point = st.one_of(
        st.sampled_from(pool),
        st.lists(st.integers(-4, 4), min_size=nparams, max_size=nparams))
    return draw(st.lists(point, min_size=size, max_size=size))


CAPS = {
    "certified": {},
    # Only an identically zero D_p keeps its (constant) certificate.
    "uncertified": {"MAX_CERTIFICATE_TERMS": 0},
    # The memo empties itself within every batch: D_0 keeps no certificate,
    # so its rank at each point goes through the memo, and each batch gets
    # three points in three directions.  (With certificates, the torus and
    # example_5_3 have at most two points' ranks to keep: a = 0 in each
    # nonzero degree.)
    "memo of 2": {"MAX_CERTIFICATE_TERMS": 0, "MAX_RANK_MEMO": 2},
}


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(bundled_scenario_names()), st.sampled_from(list(CAPS)), st.data())
def test_column_dims_agree_with_fraction_ranks_at_every_point(name, caps, data):
    scenario = load_bundled_scenario(name)
    top = scenario.algebra.top_degree
    with ExitStack() as stack:
        for constant, value in CAPS[caps].items():
            stack.enter_context(patch.object(aomoto_complex, constant, value))
        differential = IntegerDifferential(scenario.algebra, scenario.omega_map)
        # Aimed at the zero sets of the uncapped minors.
        points = data.draw(batches(warm_differential(name)))
        choices = [None, *((p,) for p in range(top + 1))]
        if caps == "memo of 2":
            # Degrees that need D_0, and a, -a and 0 for a unit vector a.
            unit = [1] + [0] * (scenario.nparams - 1)
            points += [unit, [-x for x in unit], [0] * scenario.nparams]
            choices = choices[:3]
            differential.ranks = ClearCounter()
        degrees = data.draw(st.sampled_from(choices))
        dims = differential.dims_many(points, degrees)
        assert len(differential.ranks) <= aomoto_complex.MAX_RANK_MEMO
    if caps != "certified":
        assert all(m is None or m[0] == 0 for m in differential.minors)
    if caps == "memo of 2":
        assert differential.ranks.clears >= 1
    wanted = range(top + 1) if degrees is None else degrees
    assert dims == [
        tuple(reference[p] for p in wanted)
        for reference in (
            reference_dims(scenario.algebra, one_form(scenario, a)) for a in points)
    ]


class ClearCounter(dict):
    """A dict that counts how often it is emptied."""

    clears = 0

    def clear(self):
        self.clears += 1
        super().clear()


def test_a_memo_emptied_within_a_batch_loses_no_rank(monkeypatch):
    monkeypatch.setattr(aomoto_complex, "MAX_RANK_MEMO", 2)
    scenario = load_bundled_scenario("example_4_1")
    differential = IntegerDifferential(scenario.algebra, scenario.omega_map)
    differential.ranks = ClearCounter()
    # Every minor of D_1 has the factor a_0 + 2 a_1 + 2 a_2, which vanishes
    # at each point, each in its own direction.
    batch = [[-2 * (k + 1), k, 1] for k in range(-4, 5)] + [[0, 0, 0], [0, 3, 0]]
    assert differential.dims_many(batch) == [
        reference_dims(scenario.algebra, one_form(scenario, a)) for a in batch]
    assert differential.ranks.clears >= 2 and len(differential.ranks) <= 2


def two_degree_square_algebra():
    """Unvalidated: ``x ^ y = y ^ x = s``, so wedging twice with ``w`` is
    nonzero from degree 0 where ``a_x a_y != 0``; ``x ^ z = t`` and
    ``z ^ t = u`` give ``w ^ (w ^ x) = -a_z^2 u``, nonzero from degree 1
    where ``a_z != 0``."""
    return GradedAlgebra(
        3,
        (("1",), ("x", "y", "z"), ("s", "t"), ("u",)),
        {
            ("x", "y"): {"s": F(1)},
            ("y", "x"): {"s": F(1)},
            ("x", "z"): {"t": F(1)},
            ("z", "t"): {"u": F(1)},
        },
    )


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_the_square_error_names_the_first_failing_points_degree():
    algebra = two_degree_square_algebra()
    differential = IntegerDifferential(algebra, IDENTITY3)
    late, early, both = [0, 1, 1], [1, 1, 0], [1, 1, 1]
    assert [reference_first_nonzero_square(algebra, OneForm(a))
            for a in (late, early, both, [0, 1, 0])] == [1, 0, 0, None]
    for batch, degree in (
        ([late, early], 1),  # the first point fails later than the second
        ([early, late], 0),
        ([[0, 0, 0], [0, 1, 0], late, early], 1),
        ([[0, 2, 0], both, late], 0),
    ):
        with pytest.raises(InconsistentDifferentialError, match=f"from degree {degree}$"):
            differential.dims_many(batch)
    # Every point's squares are checked before any rank is computed, so the
    # good points before a failing one leave nothing in the memo.
    assert differential.ranks == {}
    assert differential.dims_many([[0, 0, 0], [0, 1, 0]]) == [
        reference_dims(algebra, OneForm(a)) for a in ([0, 0, 0], [0, 1, 0])]


def test_batch_square_checks_follow_the_reference_at_the_first_failing_point():
    rng = make_rng(2121)
    algebras = [two_degree_square_algebra()] + [random_algebra(rng) for _ in range(20)]
    fired = set()
    for algebra in algebras:
        differential = IntegerDifferential(algebra, IDENTITY3)
        for _ in range(8):
            batch = [[rng.randint(-2, 2) for _ in range(3)]
                     for _ in range(rng.randint(1, 6))]
            failing = [reference_first_nonzero_square(algebra, OneForm(a)) for a in batch]
            expected = next((p for p in failing if p is not None), None)
            dims, degree = compiled_first_nonzero_square(
                lambda: differential.dims_many(batch))
            assert degree == expected
            if expected is None:
                assert dims == [reference_dims(algebra, OneForm(a)) for a in batch]
            fired.add(expected)
    assert fired == {None, 0, 1}


def dense_squares(algebra, differential):
    """The d*d terms by the dense formula: every entry of every
    ``N_{p+1,i} N_{p,j}`` summed over every middle index, zero or not."""
    nparams, squares = len(differential.tensors[0][0][0]), []
    for p in range(algebra.top_degree - 1):
        outer, inner = differential.tensors[p + 1], differential.tensors[p]
        for out_row, col in product(outer, range(algebra.dim(p))):
            pair = [[sum(x[i] * inner[m][col][j] for m, x in enumerate(out_row))
                     for j in range(nparams)] for i in range(nparams)]
            terms = [(i, j, pair[i][j] + pair[j][i] if i < j else pair[i][i])
                     for i in range(nparams) for j in range(i, nparams)]
            terms = [term for term in terms if term[2]]
            if terms:
                squares.append((p, terms))
    return squares


@st.composite
def sparse_algebras(draw):
    """Unvalidated structure constants and a one-form map that are mostly
    zero, so that whole tensor cells are zero; degrees may be empty."""
    top = draw(st.integers(2, 3))
    sizes = [1, draw(st.integers(1, 3))] + [draw(st.integers(0, 3)) for _ in range(top - 1)]
    basis = (("1",),) + tuple(
        tuple(f"b{p}.{i}" for i in range(n)) for p, n in enumerate(sizes) if p)
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, F(1, 2)])
    products = {}
    for p in range(1, top):
        for u, v in product(basis[1], basis[p]):
            products[(u, v)] = {t: draw(entry) for t in basis[p + 1]}
    nparams = draw(st.integers(1, 3))
    omega_map = draw(st.lists(st.lists(entry, min_size=sizes[1], max_size=sizes[1]),
                              min_size=nparams, max_size=nparams))
    return GradedAlgebra(top, basis, products), omega_map


@settings(max_examples=200, deadline=None, database=None)
@given(sparse_algebras())
@example((nonassociative_algebra(), IDENTITY3))
@example((two_degree_square_algebra(), [[1, 0, 0], [0, 0, 1]]))
def test_sparse_squares_agree_with_the_dense_formula(problem):
    algebra, omega_map = problem
    differential = IntegerDifferential(algebra, omega_map)
    assert differential.squares == dense_squares(algebra, differential)


def no_product_scenario(n):
    """``n`` lines with unit residue rows, the infinity row and an identity
    one-form map, over ``n`` labels in degrees 1 and 2 and no products:
    ``n * (n + n * n)`` differential cells, all zero from degree 1."""
    return json.dumps({
        "name": "no_products", "components": n, "degrees": [1] * n,
        "algebra": {"top_degree": 2, "basis": {
            "0": ["1"], "1": [f"e{i}" for i in range(n)],
            "2": [f"f{i}" for i in range(n)]}},
        "residue_system": {"nparams": n, "rows": [
            {"label": f"L{i}", "coeffs": [int(i == j) for j in range(n)], "component": True}
            for i in range(n)] + [{"label": "Linf", "coeffs": [-1] * n, "component": True}]},
        "omega_map": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
    }, separators=(",", ":"))


def test_a_scenario_at_the_cell_cap_builds_its_differential_quickly():
    # 100 parameters: 1010000 of the 1048576 cells. Every product is zero,
    # so d*d is free; the dense sum, 10^4 products over 100 middle indices
    # at each of 100 entries, took seconds.
    start = time.process_time()
    scenario = scenario_from_json(no_product_scenario(100).encode())
    squares = scenario.differential.squares
    assert time.process_time() - start < 1
    assert squares == []
    assert scenario.differential.betti == (1, 100, 100)
    assert cohomology_at(scenario, (0,) * 99 + (F(1, 2),)) == (0, 99, 100)


def test_integer_rank_count_on_a_fixed_scan_set(monkeypatch):
    # Most points have the generic rank, which the certificates give without
    # an integer_rank call: without them this set made 12130 calls, and with
    # one minor per degree (M_p alone) 1016.
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return integer_rank(rows)

    monkeypatch.setattr(aomoto_complex, "integer_rank", counting)
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        for level in range(5, 13):
            for degree in range(1, scenario.algebra.top_degree + 1):
                charvar_scan(scenario, level, degree)
    assert len(calls) == 191


class DegreeCounter(dict):
    """A rank memo that counts its lookups, one per point taken one by one,
    by degree."""

    def __init__(self):
        super().__init__()
        self.lookups = Counter()

    def get(self, key, default=None):
        self.lookups[key[0]] += 1
        return super().get(key, default)


def test_points_taken_one_by_one_on_example_4_1_at_level_12():
    # Only the points where every minor of a degree vanishes are ranked one
    # by one: with M_p alone, 132 of the 1728 for D_0 and 276 for D_1.  The
    # degree-2 scan reads the grid's D_1 column that the degree-1 scan left.
    scenario = load_bundled_scenario("example_4_1")
    for degree, wanted in ((1, {0: 11, 1: 154}), (2, {})):
        scenario.differential.ranks = DegreeCounter()
        charvar_scan(scenario, 12, degree)
        assert scenario.differential.ranks.lookups == wanted


def test_construction_builds_every_certificate(monkeypatch):
    # One elimination per degree, and two more (columns reversed, rows
    # reversed) per degree that gets a certificate; a later batch makes
    # none, also one that holds a = 0, where every minor vanishes.
    build, calls = aomoto_complex.rank_certificate, []

    def counted(tensor, nparams):
        calls.append(len(tensor))
        return build(tensor, nparams)

    monkeypatch.setattr(aomoto_complex, "rank_certificate", counted)
    for name in CERTIFIED:
        algebra, omega_map = algebra_and_map(name)
        calls.clear()
        differential = IntegerDifferential(algebra, omega_map)
        certified = sum(m is not None for m in differential.minors)
        assert len(calls) == len(differential.tensors) + 2 * certified
        calls.clear()
        nparams = len(omega_map)
        differential.dims_many([[0] * nparams, list(range(1, nparams + 1))])
        assert calls == []


def test_a_batch_changes_only_the_rank_memo():
    scenario = load_bundled_scenario("example_4_1")
    differential = IntegerDifferential(scenario.algebra, scenario.omega_map)
    before = deepcopy(vars(differential))
    batch = [[0, 0, 0], [-4, 1, 1], [-2, 0, 1], [3, 5, 7]]
    assert differential.dims_many(batch) == [
        reference_dims(scenario.algebra, one_form(scenario, a)) for a in batch]
    after = vars(differential)
    assert after.keys() == before.keys() and after["ranks"]
    assert {key for key, value in before.items() if after[key] != value} == {"ranks"}


def test_a_batch_with_the_trivial_point_evaluates_every_minor_once(monkeypatch):
    # a = 0 lies on every minor's zero set, so each needed degree evaluates
    # its whole list, M_p first, each minor once: M_p over the whole batch
    # and each later one at the points where those before it vanish.
    scenario = load_bundled_scenario("lines_concurrent3")
    batch = [[0, 0, 0], [1, 1, -2], [2, -1, 0], [0, 4, 0], [3, 1, 2]]
    expected = [reference_dims(scenario.algebra, one_form(scenario, a)) for a in batch]
    differential = IntegerDifferential(scenario.algebra, scenario.omega_map)
    assert all(minor[0] >= 1 for minor in differential.minors)
    evaluate, evaluated = aomoto_complex._minor_column, []

    def recorded(terms, columns, size):
        evaluated.append((terms, size))
        return evaluate(terms, columns, size)

    monkeypatch.setattr(aomoto_complex, "_minor_column", recorded)
    for degrees, needed in ((None, (0, 1)), ((0,), (0,)), ((1,), (0, 1)), ((2,), (1,))):
        evaluated.clear()
        wanted = range(3) if degrees is None else degrees
        assert differential.dims_many(batch, degrees) == [
            tuple(dims[p] for p in wanted) for dims in expected]
        assert [terms for terms, _ in evaluated] == [
            terms for q in needed for terms in differential.minors[q][1]]
        # M_p, and no later minor, sees the whole batch.
        assert [size for _, size in evaluated].count(len(batch)) == len(needed)
    assert sum(map(len, minor_lists(differential))) == 4


def test_charvar_buckets_are_galois_invariant():
    # The residues are rational, so sigma_u: zeta_N -> zeta_N^u carries the
    # twisted complex at n to the one at u*n: both have the same dimensions.
    # Every conclusive point whose conjugate is conclusive shares its bucket,
    # and the inconclusive points are closed under conjugation.
    pairs = 0
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        for level in range(2, 11):
            units = [u for u in range(2, level) if gcd(u, level) == 1]
            for degree in range(1, scenario.algebra.top_degree + 1):
                scan = charvar_scan(scenario, level, degree)
                bucket = {pt.numerators: dim
                          for dim, pts in scan.by_dimension.items() for pt in pts}
                inconclusive = {pt.numerators for pt in scan.inconclusive}
                for nums in bucket.keys() | inconclusive:
                    for u in units:
                        image = tuple(u * n % level for n in nums)
                        if nums in inconclusive or image in inconclusive:
                            assert nums in inconclusive and image in inconclusive, (
                                name, level, nums, u)
                        else:
                            assert bucket[image] == bucket[nums], (name, level, nums, u)
                            pairs += 1
    assert pairs == 87624


def run_quiet(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_warm_charvar_reports_equal_cold_ones(capsys, name):
    # Levels nest (level 12 holds every point of levels 1, 2, 3, 4 and 6)
    # and both degrees need rank D_1, so the warm calls reuse many ranks.
    top = load_bundled_scenario(name).algebra.top_degree
    calls = [
        ["charvar", name, "--level", str(level), "--degree", str(degree),
         "--format", fmt]
        for level in range(1, 13)
        for degree in range(1, top + 1)
        for fmt in ("text", "json")
    ]
    warm = [run_quiet(capsys, argv) for argv in calls]
    for argv, report in zip(calls, warm):
        cli._decode.cache_clear()
        assert run_quiet(capsys, argv) == report


# ---------------------------------------------------------------------------
# Which error a scan raises when nonzero squares and inconclusive points mix:
# the first failing point in grid order, or in k order, decides.


def square_and_search_scenario(extra_rows):
    """The nonassociative algebra with ``omega = x*a + y*b``: wedging twice
    is ``2xy * top``, nonzero exactly where both parameters are.  Degrees
    (1, 2), so ``milnor`` takes k = 0..3 over 4; ``extra_rows`` add residue
    rows that leave some classes without a representative."""
    rows = [([1, 0], True), ([0, 1], True), ([-1, -2], True)] + [
        (row, False) for row in extra_rows]
    return json.dumps({
        "name": "square_and_search",
        "components": 2,
        "degrees": [1, 2],
        "algebra": {
            "top_degree": 3,
            "basis": {"0": ["1"], "1": ["a", "b", "c"], "2": ["bc", "ac"],
                      "3": ["top"]},
            "products": [
                {"left": "b", "right": "c", "value": [{"basis": "bc"}]},
                {"left": "a", "right": "c", "value": [{"basis": "ac"}]},
                {"left": "a", "right": "bc", "value": [{"basis": "top"}]},
                {"left": "b", "right": "ac", "value": [{"basis": "top"}]},
            ],
        },
        "residue_system": {"nparams": 2, "rows": [
            {"label": f"r{i}", "coeffs": coeffs, "component": component}
            for i, (coeffs, component) in enumerate(rows)]},
        "omega_map": [["1", "0", "0"], ["0", "1", "0"]],
    })


SQUARE_ERROR = "wedging twice with the one-form is nonzero from degree 1"
ORDER_CASES = {
    # +-(2, 0): classes with n0 = 2 (of 4) are inconclusive at every bound.
    # The grid reaches the bad point (1, 1) first, and milnor's bad k = 1
    # comes before its inconclusive k = 2.
    "bad_first": ([[2, 0], [-2, 0]], InconsistentDifferentialError, InconsistentDifferentialError),
    # +-(2, 2): (0, 2) and (1, 1) are inconclusive, before the bad (1, 2);
    # milnor's k = 1 and 3 are inconclusive, and its k = 2 is admissible
    # and bad, but k = 1 decides.
    "inconclusive_first": ([[2, 2], [-2, -2]], InconsistentDifferentialError, InconclusiveSearchError),
    # +-(4, 0): only n0 = 0 is admissible, where the square vanishes.
    "no_bad_point": ([[4, 0], [-4, 0]], None, InconclusiveSearchError),
}
EXIT_CODES = {None: 2, InconsistentDifferentialError: 3, InconclusiveSearchError: 2}


@pytest.mark.parametrize("case", ORDER_CASES)
def test_scans_raise_the_first_failing_points_error(case):
    extra_rows, charvar_error, milnor_error = ORDER_CASES[case]
    scenario = scenario_from_json(square_and_search_scenario(extra_rows).encode())
    for degree in (1, 2, 3):
        if charvar_error is None:
            scan = charvar_scan(scenario, 4, degree)
            assert [p.numerators for p in scan.inconclusive] == [
                (n0, n1) for n0 in (1, 2, 3) for n1 in range(4)]
        else:
            with pytest.raises(charvar_error, match=SQUARE_ERROR):
                charvar_scan(scenario, 4, degree)
    for m in range(4):
        if milnor_error is InconsistentDifferentialError:
            with pytest.raises(milnor_error, match=SQUARE_ERROR):
                milnor_charpoly(scenario, m)
        else:
            with pytest.raises(milnor_error) as caught:
                milnor_charpoly(scenario, m)
            assert caught.value.beta == (F(1, 4), F(1, 4))


@pytest.mark.parametrize("case", ORDER_CASES)
def test_cli_exit_codes_follow_the_first_failing_point(tmp_path, capsys, case):
    extra_rows, charvar_error, milnor_error = ORDER_CASES[case]
    path = tmp_path / "scenario.json"
    path.write_text(square_and_search_scenario(extra_rows))
    assert main(["validate", str(path)]) == 0
    charvar = main(["charvar", str(path), "--level", "4", "--degree", "2"])
    milnor = main(["milnor", str(path), "--m", "1"])
    err = capsys.readouterr().err
    assert (charvar, milnor) == (EXIT_CODES[charvar_error], EXIT_CODES[milnor_error])
    assert err.count(SQUARE_ERROR) == [charvar, milnor].count(3)
