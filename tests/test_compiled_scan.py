"""The compiled integer scan kernel against the public Fraction helpers.

Every reference here is built from ``shift_vectors``, ``is_admissible``,
``differential_matrix``, ``rank``, ``mat_mul`` and ``is_zero_matrix``, which
do all their arithmetic in ``Fraction``s; sympy checks the integer rank.
"""

import re
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.aomoto_complex import (
    GradedAlgebra,
    IntegerDifferential,
    OneForm,
    cohomology_dims,
    differential_matrix,
)
from alexinv.corpus import bundled_scenario_names, load_bundled_scenario
from alexinv.errors import InconsistentDifferentialError
from alexinv.exact_kernel import integer_rank, is_zero_matrix, mat_mul, rank
from alexinv.invariant_pipeline import charvar_scan, cohomology_at
from alexinv.laurent_ring import torsion_grid
from alexinv.residue_systems import (
    ResidueRow,
    ResidueSystem,
    admissible_shift,
    is_admissible,
    shift_vectors,
)
from randgen import make_rng, random_fraction

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
                scenario.algebra, scenario.one_form(alpha)
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

    zero_shift = admissible_shift(rows, numerators, common, 0)
    assert (zero_shift is not None) == is_admissible(system, beta)

    shift = admissible_shift(rows, numerators, common, bound)
    expected = reference_representative(system, beta, bound)
    got = None if shift is None else tuple(b + k for b, k in zip(beta, shift))
    assert got == expected


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
            dims, degree = compiled_first_nonzero_square(lambda: compiled.dims(a))
            assert degree == expected
            if expected is None:
                assert dims == reference_dims(algebra, omega)


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_square_check_never_fires_on_bundled_scenarios(name):
    scenario = load_bundled_scenario(name)
    assert all(not entries for entries in scenario.compiled.differential.squares)
    rng = make_rng(11)
    for _ in range(40):
        alpha = tuple(random_fraction(rng) for _ in range(scenario.nparams))
        assert cohomology_at(scenario, alpha) == reference_dims(
            scenario.algebra, scenario.one_form(alpha)
        )
