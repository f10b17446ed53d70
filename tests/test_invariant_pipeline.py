import json
import threading
import time
from fractions import Fraction
from functools import cache, cached_property, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv import invariant_pipeline, laurent_ring, residue_systems
from alexinv.aomoto_complex import IntegerDifferential, betti_vector
from alexinv.constructions import (
    TorsionPoint,
    charvar_scan,
    cohomology_dims,
    cyclic_module,
    epsilon_line,
    is_admissible,
    one_form,
    projective_points,
    shift_vectors,
    support_scan,
    torsion_grid,
    twisted_cohomology,
)
from alexinv.corpus import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled_scenario,
)
from alexinv.errors import (
    DegreeError,
    DimensionError,
    InconclusiveSearchError,
    InconsistentDifferentialError,
    LimitError,
    SchemaError,
)
from alexinv.invariant_pipeline import (
    GridStore,
    MonodromyPolynomial,
    Scenario,
    _charvar_indices,
    milnor_charpoly,
    milnor_order,
    scenario_from_dict,
    scenario_from_json,
)
from alexinv.laurent_ring import parse_poly
from arrangements import a3_decone
from reference import negate, points_with_dim_above
from test_alexander_modules import round_trips
from test_compiled_scan import ORDER_CASES, square_and_search_scenario

F = Fraction


@pytest.fixture(scope="module")
def sc41():
    return load_bundled_scenario("example_4_1")


@pytest.fixture(scope="module")
def sc42():
    return load_bundled_scenario("example_4_2")


@pytest.fixture(scope="module")
def sc53():
    return load_bundled_scenario("example_5_3")


def test_twisted_examples(sc41, sc42, sc53):
    fifth = (F(1, 5), F(1, 5), F(1, 5))
    assert twisted_cohomology(sc41, fifth) == (0, 1, 1)
    assert twisted_cohomology(sc42, fifth) == (0, 0, 2)
    assert twisted_cohomology(sc53, (F(1, 5),)) == (0, 0, 2, 1)
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        zero = (F(0),) * scenario.nparams
        assert twisted_cohomology(scenario, zero) == betti_vector(scenario.algebra)


def test_charvar_41_level5(sc41):
    expected = {
        pt for pt in torsion_grid(5, 3)
        if sum(n * c for n, c in zip(pt.numerators, (1, 2, 2))) % 5 == 0
    }
    for degree in (1, 2):
        scan = charvar_scan(sc41, 5, degree)
        assert not scan.inconclusive
        jumping = set(points_with_dim_above(scan, 0))
        assert jumping == expected and len(jumping) == 25
        deeper = points_with_dim_above(scan, 1)
        assert [p.numerators for p in deeper] == [(0, 0, 0)]
    scan1 = charvar_scan(sc41, 5, 1)
    assert set(scan1.by_dimension) == {0, 1, 3}
    assert len(scan1.by_dimension[1]) == 24


def test_charvar_42_level5(sc42):
    scan = charvar_scan(sc42, 5, 2)
    assert not scan.inconclusive
    assert len(points_with_dim_above(scan, 0)) == 125
    assert len(points_with_dim_above(scan, 1)) == 125
    assert [p.numerators for p in points_with_dim_above(scan, 2)] == [(0, 0, 0)]
    scan1 = charvar_scan(sc42, 5, 1)
    assert [p.numerators for p in points_with_dim_above(scan1, 0)] == [(0, 0, 0)]


def test_charvar_53_level5(sc53):
    scan = charvar_scan(sc53, 5, 2)
    assert not scan.inconclusive
    assert len(points_with_dim_above(scan, 0)) == 5
    assert len(points_with_dim_above(scan, 1)) == 5


def test_charvar_scan_repeats_its_result(sc41):
    assert charvar_scan(sc41, 3, 1) == charvar_scan(sc41, 3, 1)


def test_charvar_degree_range(sc41):
    with pytest.raises(DimensionError):
        charvar_scan(sc41, 5, 3)


def test_milnor_examples(sc41, sc42):
    assert milnor_order(sc41) == 5
    results41 = [milnor_charpoly(sc41, m).factored_str() for m in range(3)]
    assert results41 == ["(t-1)", "(t-1)^2*(t^5-1)", "(t-1)*(t^5-1)"]
    results42 = [milnor_charpoly(sc42, m).factored_str() for m in range(3)]
    assert results42 == ["(t-1)", "(t-1)^3", "(t-1)^2*(t^5-1)^2"]


def test_milnor_torus():
    torus = load_bundled_scenario("torus")
    assert milnor_order(torus) == 3
    assert [milnor_charpoly(torus, m).factored_str() for m in range(3)] == [
        "(t-1)", "(t-1)^2", "(t-1)"
    ]


def assert_milnor_bookkeeping(scenario):
    """Each ``Delta_m`` has ``b_m(U)`` roots at 1, and the Milnor fiber,
    a ``milnor_order``-fold cover of ``U``, has ``chi(F) = sum_m (-1)^m
    deg Delta_m = milnor_order * chi(U)``."""
    betti = betti_vector(scenario.algebra)
    euler = 0
    for m in range(scenario.algebra.top_degree + 1):
        delta = milnor_charpoly(scenario, m)
        assert delta.degree == sum(delta.multiplicities)
        assert delta.multiplicities[0] == betti[m]
        euler += (-1) ** m * delta.degree
    assert euler == milnor_order(scenario) * sum((-1) ** p * b for p, b in enumerate(betti))


def test_milnor_degree_bookkeeping():
    for name in bundled_scenario_names():
        assert_milnor_bookkeeping(load_bundled_scenario(name))


@pytest.mark.parametrize("order, multiplicities", [(3, (1, 0)), (1, ()), (0, (1,))])
def test_monodromy_needs_one_multiplicity_per_root(order, multiplicities):
    with pytest.raises(DimensionError) as caught:
        MonodromyPolynomial(order, multiplicities)
    assert type(caught.value) is DimensionError
    assert str(caught.value) == "need one multiplicity per root"


def test_monodromy_formatting_fallback_and_leftovers():
    uneven = MonodromyPolynomial(5, (2, 1, 0, 1, 1))
    assert uneven.factored_str() == "roots[0/5:2,1/5:1,3/5:1,4/5:1]"
    primitive_only = MonodromyPolynomial(4, (0, 1, 0, 1))
    assert primitive_only.factored_str() == "(t^2+1)"
    trivial = MonodromyPolynomial(3, (0, 0, 0))
    assert trivial.factored_str() == "1"


def test_monodromy_of_a_large_order_formats_quickly():
    # 83160 has 128 divisors: its roots are grouped in one pass, not one
    # pass per divisor.
    full = MonodromyPolynomial(83160, (1,) * 83160)
    start = time.perf_counter()
    assert full.factored_str() == "(t^83160-1)"
    assert time.perf_counter() - start < 0.5


def test_projective_points_examples():
    assert len(projective_points((1, 3), 5)) == 5
    four = projective_points((1,), 4)
    assert [p.numerators for p in four] == [(0,)]
    assert len(projective_points((1, 1, 2), 5)) == 25


def test_epsilon_line_examples(sc41):
    points = sc41.intersection_points
    assert points == ((1, 0, 2), (0, 1, 0))
    trivial = TorsionPoint.from_numerators(5, (0, 0, 0))
    assert epsilon_line(points, trivial) == 1
    assert epsilon_line(points, TorsionPoint.from_numerators(5, (1, 1, 1))) == 0
    assert epsilon_line(points, TorsionPoint.from_numerators(5, (1, 0, 2))) == 1


def fraction_sum_is_integral(coeffs, point):
    return sum((c * b for c, b in zip(coeffs, point.beta)), F(0)).denominator == 1


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 12), st.lists(st.integers(1, 6), min_size=1, max_size=3))
def test_projective_points_agree_with_fraction_sums(level, degrees):
    expected = [
        p for p in torsion_grid(level, len(degrees))
        if fraction_sum_is_integral(degrees, p)
    ]
    assert list(projective_points(degrees, level)) == expected


@st.composite
def added_line_data(draw):
    nvars = draw(st.integers(1, 3))
    level = draw(st.integers(1, 12))
    numerators = draw(
        st.lists(st.integers(0, level - 1), min_size=nvars, max_size=nvars)
    )
    mults = st.lists(st.integers(0, 6), min_size=nvars, max_size=nvars)
    points = draw(st.lists(mults.map(tuple), max_size=4))
    return tuple(points), TorsionPoint(level, tuple(numerators))


@settings(max_examples=300, deadline=None, database=None)
@given(added_line_data())
def test_epsilon_line_agrees_with_fraction_sums(data):
    points, point = data
    expected = 1 if all(fraction_sum_is_integral(m, point) for m in points) else 0
    assert epsilon_line(points, point) == expected


def test_inconclusive_for_53_off_grid(sc53):
    # With exceptional residue data unavailable, the scenario refuses shifted
    # representatives; level-3 classes whose zero-shift residues hit positive
    # integers come back inconclusive.
    with pytest.raises(InconclusiveSearchError):
        twisted_cohomology(sc53, (F(1, 3),))
    scan = charvar_scan(sc53, 3, 2)
    assert [p.numerators for p in scan.inconclusive] == [(1,), (2,)]
    assert [p.numerators for p in points_with_dim_above(scan, 1)] == [(0,)]


def test_admissible_choice_independence_level5(sc41, sc42):
    # Every admissible representative inside the default box gives the same
    # dimensions (smaller box here; the acceptance suite runs the full one).
    for scenario in (sc41, sc42):
        for point in torsion_grid(5, scenario.nparams):
            dims_seen = set()
            for shift in shift_vectors(scenario.nparams, 2):
                alpha = tuple(b + k for b, k in zip(point.beta, shift))
                if is_admissible(scenario.residue_system, alpha):
                    dims_seen.add(
                        cohomology_dims(scenario.algebra, one_form(scenario, alpha))
                    )
            assert len(dims_seen) == 1


def test_jumping_sets_stable_under_inversion(sc41, sc42):
    for scenario, degree in ((sc41, 1), (sc41, 2), (sc42, 2)):
        scan = charvar_scan(scenario, 5, degree)
        jumping = set(points_with_dim_above(scan, 0))
        assert {negate(p) for p in jumping} == jumping


def test_near_trivial_neighborhood_admissible_without_shifts():
    from itertools import product as iproduct

    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        for combo in iproduct((F(0), F(1, 1000)), repeat=scenario.nparams):
            assert is_admissible(scenario.residue_system, combo)


def test_cross_module_consistency(sc41):
    cyc = cyclic_module([parse_poly("t1*t2^2*t3^2 - 1", 3)])
    from_support = set(support_scan(cyc, 5))
    scan = charvar_scan(sc41, 5, 1)
    assert set(points_with_dim_above(scan, 0)) == from_support


# ---------------------------------------------------------------------------
# The scans that a scenario keeps for charvar and milnor_charpoly.


SCAN_SCENARIOS = {
    **{name: partial(load_bundled_scenario, name) for name in bundled_scenario_names()},
    "a3_decone": lambda: scenario_from_dict(a3_decone()),
    **{case: partial(scenario_from_json, square_and_search_scenario(rows).encode())
       for case, (rows, _, _) in ORDER_CASES.items()},
}
SCAN_ERRORS = (DegreeError, LimitError, InconclusiveSearchError, InconsistentDifferentialError)
SHARED_SCANS = {}  # scenario name -> the one scenario that every example calls warm


def scan_outcome(scenario, call):
    """For ``("charvar", level, degree, bound)``, ``_charvar_indices``'
    buckets and inconclusive indices; for ``("milnor", m, bound)``,
    ``milnor_charpoly``'s polynomial and its text; or the error's type, text
    and ``beta`` (None for an error without one)."""
    command, *args = call
    try:
        if command == "charvar":
            return _charvar_indices(scenario, *args)
        delta = milnor_charpoly(scenario, *args)
        return delta, delta.factored_str()
    except SCAN_ERRORS as exc:
        return type(exc), str(exc), getattr(exc, "beta", None)


@cache
def cold_scan_outcome(name, call):
    return scan_outcome(SCAN_SCENARIOS[name](), call)


def held_cells(scenario) -> int:
    """The cells of the scans that ``scenario.grids`` holds, recounted from
    the scans themselves: kept points times (``nparams`` plus the number of
    differentials), plus inconclusive indices.  Each scan's own count and
    the store's total must agree, and stay at most ``MAX_GRID_CELLS``."""
    store = vars(scenario).get("grids")
    if store is None:
        return 0
    reserved = scenario.nparams + scenario.algebra.top_degree
    cells = 0
    for (indices, inconclusive, columns, _), held in store.scans.values():
        assert len(columns) == scenario.nparams
        assert held == len(indices) * reserved + len(inconclusive)
        cells += held
    assert store.cells == cells <= invariant_pipeline.MAX_GRID_CELLS
    return cells


BOUNDS = st.sampled_from((-1, 0, 1, 3, 23))
SCAN_CALLS = st.one_of(
    st.tuples(st.just("charvar"), st.integers(0, 7), st.integers(-1, 4), BOUNDS),
    st.tuples(st.just("milnor"), st.integers(-1, 4), BOUNDS))


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(sorted(SCAN_SCENARIOS)), st.lists(SCAN_CALLS, min_size=1, max_size=6))
def test_warm_scans_answer_as_cold_ones(name, calls):
    # Each call, repeated, answers on the shared scenario as on a fresh one,
    # under a cap low enough that scans are evicted, and the store never
    # holds more cells than the cap.
    scenario = SHARED_SCANS.setdefault(name, SCAN_SCENARIOS[name]())
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(invariant_pipeline, "MAX_GRID_CELLS", 700)
        for call in calls + calls:
            assert scan_outcome(scenario, call) == cold_scan_outcome(name, call), call
            assert held_cells(scenario) <= 700


SHARED_MILNOR = {}  # scenario name -> the one scenario that every milnor example calls warm, and its kept keys


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(sorted(SCAN_SCENARIOS)),
       st.lists(st.tuples(st.integers(-1, 4), st.sampled_from((-1, 0, 1, 2, 3, 23))),
                min_size=1, max_size=6))
def test_warm_milnor_answers_equal_cold_ones(name, calls):
    # Each call, repeated, answers on the shared scenario as on a fresh one.
    # The store keeps the classes of every effective bound that got past
    # the checks, inconclusive ones too, and none that failed the d*d check.
    scenario, kept = SHARED_MILNOR.setdefault(name, (SCAN_SCENARIOS[name](), set()))
    order = milnor_order(scenario)
    searched = None
    for m, bound in calls + calls:
        outcome = scan_outcome(scenario, ("milnor", m, bound))
        assert outcome == cold_scan_outcome(name, ("milnor", m, bound)), (m, bound)
        if outcome[0] not in (DegreeError, LimitError):
            searched = m, bound
            key = "milnor", scenario.effective_bound(bound)
            if outcome[0] is InconsistentDifferentialError:
                assert key not in scenario.grids.scans
            else:
                kept.add(key)
                inconclusive = scenario.grids.scans[key][0][1]
                assert bool(inconclusive) == (outcome[0] is InconclusiveSearchError)
        assert set(vars(scenario).get("grids", GridStore()).scans) == kept
        held_cells(scenario)
    if searched is None:
        return
    # A cap lowered after a warm call still refuses it.
    m, bound = searched
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(laurent_ring, "MAX_SCAN_POINTS", order - 1)
        with pytest.raises(LimitError, match="^Milnor order"):
            milnor_charpoly(scenario, m, bound)


def test_a_warm_scenario_still_refuses_what_a_cold_one_refuses():
    scenario, cold = (load_bundled_scenario("example_4_1") for _ in range(2))
    expected = _charvar_indices(cold, 3, 1, 3)
    assert _charvar_indices(scenario, 3, 1, 3) == expected
    assert _charvar_indices(scenario, 3, 2, 3) == _charvar_indices(cold, 3, 2, 3)
    delta = milnor_charpoly(scenario, 1)
    store = scenario.grids
    assert list(store.scans) == [(3, 3), ("milnor", 3)] and store.cells == 27 * 5 + 5 * 5
    with pytest.raises(DegreeError, match=r"^degree 3 out of range \[1, 2\]$"):
        _charvar_indices(scenario, 3, 3, 3)
    with pytest.raises(DegreeError, match=r"^degree 3 out of range \[0, 2\]$"):
        milnor_charpoly(scenario, 3)
    for scan in (lambda: _charvar_indices(scenario, 3, 1, -1), lambda: milnor_charpoly(scenario, 1, -1)):
        with pytest.raises(LimitError, match="^search bound must be >= 0$"):
            scan()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(laurent_ring, "MAX_SCAN_POINTS", 26)
        with pytest.raises(LimitError, match="^level 3 gives 3\\^3 torsion points"):
            _charvar_indices(scenario, 3, 1, 3)
        patched.setattr(laurent_ring, "MAX_SCAN_POINTS", milnor_order(scenario) - 1)
        with pytest.raises(LimitError, match="^Milnor order 5 is more than the limit of 4$"):
            milnor_charpoly(scenario, 1)
    assert list(store.scans) == [(3, 3), ("milnor", 3)] and store.cells == 27 * 5 + 5 * 5
    assert _charvar_indices(scenario, 3, 1, 3) == expected
    assert milnor_charpoly(scenario, 1) == delta


def test_a_grid_that_fails_the_square_check_is_not_kept():
    # Every call, charvar's or milnor's, fails the same way, and the store
    # holds no scan.
    rows, _, _ = ORDER_CASES["bad_first"]
    scenario = scenario_from_json(square_and_search_scenario(rows).encode())
    for scan in (lambda d: _charvar_indices(scenario, 4, d, 3), partial(milnor_charpoly, scenario)):
        for degree in (1, 2, 1):
            with pytest.raises(InconsistentDifferentialError, match="from degree 1$"):
                scan(degree)
            assert scenario.grids.scans == {} and scenario.grids.cells == 0


def test_no_grid_larger_than_the_cap_is_kept(monkeypatch):
    # A grid of example_4_1 takes 5 cells a point, its 3 coordinates and the
    # ranks of D_0 and D_1: at a cap of 100 cells the level-4 (320 cells)
    # and level-3 (135) grids are answered and never held, before or after
    # the level-2 grid (40) is, and they evict nothing.
    monkeypatch.setattr(invariant_pipeline, "MAX_GRID_CELLS", 100)
    scenario = load_bundled_scenario("example_4_1")
    cold = load_bundled_scenario("example_4_1")
    for level in (4, 3):
        assert _charvar_indices(scenario, level, 1, 3) == _charvar_indices(cold, level, 1, 3)
        assert scenario.grids.scans == {} and scenario.grids.cells == 0
    assert _charvar_indices(scenario, 2, 1, 3) == _charvar_indices(cold, 2, 1, 3)
    for level in (3, 4, 3):
        for degree in (1, 2):
            assert _charvar_indices(scenario, level, degree, 3) == _charvar_indices(
                cold, level, degree, 3)
            assert list(scenario.grids.scans) == [(2, 3)] and held_cells(scenario) == 40
    scenario.grids.put((3, 3), ([0] * 27, [], [[0] * 27] * 3, {}), 101)
    assert list(scenario.grids.scans) == [(2, 3)] and held_cells(scenario) == 40


def test_a_scan_over_the_cap_keeps_the_store_as_it_was(monkeypatch):
    # On example_4_1 at bound 0, the level-12 grid holds 1453 * 5 + 275
    # cells (its kept points' coordinates and ranks of D_0 and D_1, and its
    # inconclusive indices).  The level-20 grid would take 7221 * 5 + 779:
    # it is answered as on a cold scenario and not kept, and the level-12
    # grid is still held, so scanning it again searches nothing.
    scan, calls = invariant_pipeline._scan_grid, []

    def counted(*args):
        calls.append(args[1:])
        return scan(*args)

    monkeypatch.setattr(invariant_pipeline, "_scan_grid", counted)
    scenario, cold = (load_bundled_scenario("example_4_1") for _ in range(2))
    first = _charvar_indices(scenario, 12, 1, 0)
    assert len(first[1]) == 275 and held_cells(scenario) == 1453 * 5 + 275 == 7540
    large = _charvar_indices(scenario, 20, 1, 0)
    assert large == _charvar_indices(cold, 20, 1, 0)
    kept = sum(map(len, large[0].values()))
    assert (kept, len(large[1])) == (7221, 779)
    assert kept * 5 + len(large[1]) == 36884 > invariant_pipeline.MAX_GRID_CELLS
    assert list(scenario.grids.scans) == [(12, 0)] and held_cells(scenario) == 7540
    assert calls == [(12, 0), (20, 0), (20, 0)]
    assert _charvar_indices(scenario, 12, 1, 0) == first
    assert _charvar_indices(scenario, 12, 2, 0) == _charvar_indices(cold, 12, 2, 0)
    assert calls == [(12, 0), (20, 0), (20, 0), (12, 0)]
    assert held_cells(scenario) == 7540


def test_no_milnor_scan_larger_than_the_cap_is_kept(monkeypatch):
    # example_4_1's five classes take 5 * 3 cells, and 5 more per rank
    # column: at a cap of 14 they are answered, and never held.
    monkeypatch.setattr(invariant_pipeline, "MAX_GRID_CELLS", 14)
    scenario = load_bundled_scenario("example_4_1")
    for m in (0, 1, 2, 1):
        delta = milnor_charpoly(scenario, m)
        assert (delta, delta.factored_str()) == cold_scan_outcome("example_4_1", ("milnor", m, 3))
        assert scenario.grids.scans == {} and scenario.grids.cells == 0


def test_the_least_recently_used_grid_goes_first(monkeypatch):
    # At degree 1 a grid holds its coordinates and the ranks of D_0 and D_1:
    # 8 * 5 cells at level 2 and 27 * 5 at level 3.
    monkeypatch.setattr(invariant_pipeline, "MAX_GRID_CELLS", 200)
    scenario = load_bundled_scenario("example_4_1")
    for level, bound in ((2, 3), (3, 3), (2, 3), (3, 2)):
        charvar_scan(scenario, level, 1, bound)
    assert list(scenario.grids.scans) == [(2, 3), (3, 2)]
    assert held_cells(scenario) == 40 + 135


def test_a_search_past_the_work_limit_keeps_no_grid(monkeypatch):
    scenario = load_bundled_scenario("example_4_1")
    monkeypatch.setattr(residue_systems, "MAX_SEARCH_WORK", 10)
    for _ in range(2):
        with pytest.raises(LimitError, match="^the admissible search needs more than the limit of 10 "):
            _charvar_indices(scenario, 12, 1, 3)
        assert scenario.grids.scans == {} and scenario.grids.cells == 0
    monkeypatch.undo()
    assert _charvar_indices(scenario, 12, 1, 3) == _charvar_indices(
        load_bundled_scenario("example_4_1"), 12, 1, 3)


def test_a_second_degree_on_a_grid_searches_nothing(monkeypatch):
    # The degree-2 scan reads the grid that the degree-1 scan searched, and
    # its D_1 ranks; a new bound is a new grid.
    search, calls = invariant_pipeline.grid_shifts, []

    def counted(*args):
        calls.append(args[1:])
        return search(*args)

    monkeypatch.setattr(invariant_pipeline, "grid_shifts", counted)
    scenario = load_bundled_scenario("example_4_1")
    first = charvar_scan(scenario, 12, 1)
    assert calls == [(12, 3, 3)]
    assert charvar_scan(scenario, 12, 2) == charvar_scan(load_bundled_scenario("example_4_1"), 12, 2)
    assert calls == [(12, 3, 3)] * 2
    calls.clear()
    assert charvar_scan(scenario, 12, 2) != first
    assert charvar_scan(scenario, 12, 1) == first
    assert calls == []
    charvar_scan(scenario, 12, 1, 2)
    assert calls == [(12, 3, 2)]


def test_a_compiled_scenario_pickles_and_copies():
    scenario = load_bundled_scenario("example_4_1")
    cold_repr = repr(scenario)
    assert [name for name, value in vars(Scenario).items()
            if isinstance(value, cached_property)] == ["differential", "grids"]
    assert "differential" not in vars(scenario) and "grids" not in vars(scenario)
    charvar_scan(scenario, 4, 1)
    milnor = [milnor_charpoly(scenario, m) for m in (0, 1, 2)]
    assert [delta.factored_str() for delta in milnor] == [
        "(t-1)", "(t-1)^2*(t^5-1)", "(t-1)*(t^5-1)"]
    assert "differential" in vars(scenario) and "grids" in vars(scenario)
    # The store is no field: a cold scenario is equal and prints the same,
    # and hashing fails on the algebra, warm or cold.
    assert scenario == load_bundled_scenario("example_4_1") and repr(scenario) == cold_repr
    for value in (scenario, load_bundled_scenario("example_4_1")):
        with pytest.raises(TypeError, match="GradedAlgebra"):
            hash(value)
    for again in round_trips(scenario):
        assert again == scenario
        assert [milnor_charpoly(again, m) for m in (0, 1, 2)] == milnor


def test_a_scenario_with_scanned_grids_pickles_and_copies():
    # Pickles and copies carry the store, charvar's grids and milnor's
    # classes alike, and answer from it as the scenario they came from.
    scenario = load_bundled_scenario("example_4_1")
    answers = {(level, degree): _charvar_indices(scenario, level, degree, 3)
               for level in (4, 5) for degree in (1, 2)}
    milnor = [milnor_charpoly(scenario, m) for m in (0, 1, 2)]
    table = dict(scenario.grids.scans)
    assert list(table) == [(4, 3), (5, 3), ("milnor", 3)]
    for again in round_trips(scenario):
        assert again == scenario
        assert vars(again)["grids"].scans == table
        assert vars(again)["grids"].cells == scenario.grids.cells
        for (level, degree), expected in answers.items():
            assert _charvar_indices(again, level, degree, 3) == expected
        assert [milnor_charpoly(again, m) for m in (0, 1, 2)] == milnor


THREADED_SCANS = {  # command -> its search, its calls, and its kept key and cells
    "charvar": ("_scan_grid", lambda scenario: [charvar_scan(scenario, 6, d) for d in (1, 2)],
                (6, 3), 216 * 5),
    "milnor": ("_milnor_classes", lambda scenario: [milnor_charpoly(scenario, m) for m in range(3)],
               ("milnor", 3), 5 * 5),
}


@pytest.mark.parametrize("command", sorted(THREADED_SCANS))
def test_threads_share_a_scanned_grid(monkeypatch, command):
    # Thread A pauses in its first search until thread B, on the same cold
    # scenario, has returned: both get the cold answers, and the store holds
    # B's scan, which came first, with the ranks of both degrees that A and
    # B asked for.  Its cells do not change while those ranks are added.
    name, run_calls, key, cells = THREADED_SCANS[command]
    expected = run_calls(load_bundled_scenario("example_4_1"))
    scenario = load_bundled_scenario("example_4_1")
    search = getattr(invariant_pipeline, name)
    reached, b_done = threading.Event(), threading.Event()
    answers, built = {}, {}

    def gated(*args):
        if threading.current_thread() is a and not reached.is_set():
            reached.set()
            b_done.wait(10)
        built[threading.current_thread().name] = found = search(*args)
        return found

    def run(done):
        answers[threading.current_thread().name] = run_calls(scenario)
        done.set()

    rank_column, cells_seen = IntegerDifferential.rank_column, []

    def counted(differential, *args):
        cells_seen.append(scenario.grids.cells)
        column = rank_column(differential, *args)
        cells_seen.append(scenario.grids.cells)
        return column

    monkeypatch.setattr(invariant_pipeline, name, gated)
    monkeypatch.setattr(IntegerDifferential, "rank_column", counted)
    a = threading.Thread(target=run, args=(reached,), name="A")
    b = threading.Thread(target=run, args=(b_done,), name="B")
    a.start()
    assert reached.wait(10)
    b.start()
    b.join(10)
    a.join(10)
    assert not (a.is_alive() or b.is_alive())
    assert answers == {"A": expected, "B": expected}
    assert sorted(built) == ["A", "B"]
    ((kept, (grid, _)),) = scenario.grids.scans.items()
    assert kept == key and grid[2] is built["B"][2]
    assert sorted(grid[3]) == [0, 1] and held_cells(scenario) == cells
    assert cells_seen and set(cells_seen) == {cells}


def _document(name: str) -> dict:
    """The committed JSON document of the bundled scenario ``name``."""
    with open(bundled_scenario_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def test_scenario_schema_errors():
    bad = _document("example_4_1")
    del bad["degrees"]
    with pytest.raises(SchemaError) as err:
        scenario_from_dict(bad)
    assert "/degrees" in str(err.value)

    bad = _document("example_4_1")
    bad["omega_map"] = [["1", "0", "0"]]
    with pytest.raises(SchemaError) as err:
        scenario_from_dict(bad)
    assert "/omega_map" in str(err.value)

    bad = _document("example_4_1")
    bad["residue_system"] = {
        "nparams": 3,
        "rows": [
            {"label": "alpha1", "coeffs": [1, 0, 0], "component": True},
            {"label": "alpha2", "coeffs": [0, 1, 0], "component": True},
            {"label": "alpha3", "coeffs": [0, 0, 1], "component": True},
        ],
    }
    with pytest.raises(SchemaError) as err:
        scenario_from_dict(bad)
    assert "infinity" in str(err.value)
