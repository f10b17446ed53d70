import json
import threading
import time
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv import invariant_pipeline, laurent_ring
from alexinv import residue_systems as rs
from alexinv.alexander_modules import cyclic_module, support_scan
from alexinv.aomoto_complex import betti_vector, cohomology_dims
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
    MonodromyPolynomial,
    charvar_scan,
    epsilon_line,
    milnor_charpoly,
    milnor_order,
    projective_points,
    scenario_from_dict,
    scenario_from_json,
    twisted_cohomology,
)
from alexinv.laurent_ring import TorsionPoint, parse_poly, torsion_grid
from alexinv.residue_systems import is_admissible, shift_vectors
from arrangements import a3_decone
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
        jumping = set(scan.points_with_dim_above(0))
        assert jumping == expected and len(jumping) == 25
        deeper = scan.points_with_dim_above(1)
        assert [p.numerators for p in deeper] == [(0, 0, 0)]
    scan1 = charvar_scan(sc41, 5, 1)
    assert set(scan1.by_dimension) == {0, 1, 3}
    assert len(scan1.by_dimension[1]) == 24


def test_charvar_42_level5(sc42):
    scan = charvar_scan(sc42, 5, 2)
    assert not scan.inconclusive
    assert len(scan.points_with_dim_above(0)) == 125
    assert len(scan.points_with_dim_above(1)) == 125
    assert [p.numerators for p in scan.points_with_dim_above(2)] == [(0, 0, 0)]
    scan1 = charvar_scan(sc42, 5, 1)
    assert [p.numerators for p in scan1.points_with_dim_above(0)] == [(0, 0, 0)]


def test_charvar_53_level5(sc53):
    scan = charvar_scan(sc53, 5, 2)
    assert not scan.inconclusive
    assert len(scan.points_with_dim_above(0)) == 5
    assert len(scan.points_with_dim_above(1)) == 5


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
    assert [p.numerators for p in scan.points_with_dim_above(1)] == [(0,)]


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
                        cohomology_dims(scenario.algebra, scenario.one_form(alpha))
                    )
            assert len(dims_seen) == 1


def test_jumping_sets_stable_under_inversion(sc41, sc42):
    for scenario, degree in ((sc41, 1), (sc41, 2), (sc42, 2)):
        scan = charvar_scan(scenario, 5, degree)
        jumping = set(scan.points_with_dim_above(0))
        assert {p.negate() for p in jumping} == jumping


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
    assert set(scan.points_with_dim_above(0)) == from_support


def test_a_compiled_scenario_pickles_and_copies():
    scenario = load_bundled_scenario("example_4_1")
    cold_repr = repr(scenario)
    assert "differential" not in vars(scenario) and "milnor_search" not in vars(scenario)
    scans = [charvar_scan(scenario, 4, d) for d in (1, 2)]
    milnor = [milnor_charpoly(scenario, m) for m in (0, 1, 2)]
    texts = [delta.factored_str() for delta in milnor]
    assert texts == ["(t-1)", "(t-1)^2*(t^5-1)", "(t-1)*(t^5-1)"]
    assert "differential" in vars(scenario)
    table = vars(scenario)["milnor_search"]
    assert table[0][0] == 3 and table[0][3] == dict(enumerate(milnor))
    # The table is no field: a cold scenario is equal and prints the same,
    # and hashing fails on the algebra, warm or cold.
    assert scenario == load_bundled_scenario("example_4_1") and repr(scenario) == cold_repr
    for value in (scenario, load_bundled_scenario("example_4_1")):
        with pytest.raises(TypeError, match="GradedAlgebra"):
            hash(value)
    for again in round_trips(scenario):
        assert again == scenario
        assert vars(again)["milnor_search"] == table
        assert [charvar_scan(again, 4, d) for d in (1, 2)] == scans
        assert [milnor_charpoly(again, m) for m in (0, 1, 2)] == milnor
        kept = vars(again)["milnor_search"][0][3]
        assert [vars(kept[m])["_factored"] for m in (0, 1, 2)] == texts


# ---------------------------------------------------------------------------
# The equimonodromic search that a scenario keeps for milnor_charpoly.


MILNOR_SCENARIOS = {
    **{name: partial(load_bundled_scenario, name) for name in bundled_scenario_names()},
    "a3_decone": lambda: scenario_from_dict(a3_decone()),
    **{case: partial(scenario_from_json, square_and_search_scenario(rows).encode())
       for case, (rows, _, _) in ORDER_CASES.items()},
}
MILNOR_ERRORS = (DegreeError, LimitError, InconclusiveSearchError, InconsistentDifferentialError)
SHARED = {}  # scenario name -> the one scenario that every example calls warm


def milnor_outcome(scenario, m, bound):
    """``milnor_charpoly``'s polynomial and its text, or its error's type,
    text and ``beta`` (None for an error without one)."""
    try:
        delta = milnor_charpoly(scenario, m, bound)
    except MILNOR_ERRORS as exc:
        return type(exc), str(exc), getattr(exc, "beta", None)
    return delta, delta.factored_str()


@cache
def cold_milnor_outcome(name, m, bound):
    return milnor_outcome(MILNOR_SCENARIOS[name](), m, bound)


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(sorted(MILNOR_SCENARIOS)),
       st.lists(st.tuples(st.integers(-1, 4), st.sampled_from((-1, 0, 1, 2, 3, 23))),
                min_size=1, max_size=6))
def test_warm_milnor_answers_equal_cold_ones(name, calls):
    # Each call, repeated, answers on the shared scenario as on a fresh one;
    # the table keeps one search, at the bound of the last call that got
    # past the checks, and keeps no polynomial when the search stopped.
    scenario = SHARED.setdefault(name, MILNOR_SCENARIOS[name]())
    order = milnor_order(scenario)
    searched = None
    for m, bound in calls + calls:
        outcome = milnor_outcome(scenario, m, bound)
        assert outcome == cold_milnor_outcome(name, m, bound), (m, bound)
        if outcome[0] not in (DegreeError, LimitError):
            searched = m, scenario.effective_bound(bound)
        table = vars(scenario).get("milnor_search", [None])
        assert len(table) == 1
        if searched is not None:
            last, stop, _, polynomials = table[0]
            assert last == searched[1]
            assert stop == order or not polynomials
    if searched is None:
        return
    # Caps lowered after a warm call still refuse it.
    m, bound = searched
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(rs, "MAX_SHIFT_BOX", (2 * bound + 1) ** scenario.nparams - 1)
        with pytest.raises(LimitError, match="shifts$"):
            milnor_charpoly(scenario, m, bound)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(laurent_ring, "MAX_SCAN_POINTS", order - 1)
        with pytest.raises(LimitError, match="^Milnor order"):
            milnor_charpoly(scenario, m, bound)


def test_threads_share_the_first_milnor_search(monkeypatch):
    # Thread A pauses in its first search until thread B, on the same cold
    # scenario, has returned: each gets every degree's polynomial, and the
    # table holds one search, A's, which came last, with all three.
    expected = [milnor_charpoly(load_bundled_scenario("example_4_1"), m) for m in range(3)]
    scenario = load_bundled_scenario("example_4_1")
    search = invariant_pipeline.admissible_shifts
    reached, b_done = threading.Event(), threading.Event()
    answers, searched = {}, []

    def gated(*args):
        searched.append(threading.current_thread().name)
        if threading.current_thread() is a and not reached.is_set():
            reached.set()
            b_done.wait(10)
        return search(*args)

    def run(done):
        answers[threading.current_thread().name] = [
            milnor_charpoly(scenario, m) for m in range(3)]
        done.set()

    monkeypatch.setattr(invariant_pipeline, "admissible_shifts", gated)
    a = threading.Thread(target=run, args=(reached,), name="A")
    b = threading.Thread(target=run, args=(b_done,), name="B")
    a.start()
    assert reached.wait(10)
    b.start()
    b.join(10)
    a.join(10)
    assert not (a.is_alive() or b.is_alive())
    assert answers == {"A": expected, "B": expected}
    assert [d.factored_str() for d in expected] == ["(t-1)", "(t-1)^2*(t^5-1)", "(t-1)*(t^5-1)"]
    assert searched == ["A", "B"]
    assert scenario.milnor_search[0][3] == dict(enumerate(expected))
    assert scenario.milnor_search[0][3][0] is answers["A"][0]


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
