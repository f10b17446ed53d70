from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.constructions import (
    admissible_search,
    is_admissible,
    residues,
    shift_vectors,
    torsion_grid,
)
from alexinv.corpus import load_bundled_scenario
from alexinv import residue_systems
from alexinv.errors import DimensionError, LimitError, SchemaError
from alexinv.residue_systems import (
    ResidueRow,
    ResidueSystem,
    admissible_shifts,
    equimonodromic_beta,
    residue_system_from_dict,
    shift_order,
)
from randgen import make_rng, random_fraction

F = Fraction


@pytest.fixture(scope="module")
def system_41():
    return load_bundled_scenario("example_4_1").residue_system


@pytest.fixture(scope="module")
def system_42():
    return load_bundled_scenario("example_4_2").residue_system


def test_residues_example_41(system_41):
    values = [v for _, v in residues(system_41, (F(1, 5), F(1, 5), F(1, 5)))]
    assert values == [F(1, 5), F(1, 5), F(1, 5), F(-4, 5), F(3, 5), F(-2, 5),
                      F(1), F(-1)]
    assert [l for l, _ in residues(system_41, (0, 0, 0))] == [
        "alpha1", "alpha2", "alpha3", "alpha0", "alphaA", "alphaB",
        "alphaP", "alphaQ",
    ]


def test_residues_zero_and_42(system_41, system_42):
    assert all(v == 0 for _, v in residues(system_41, (0, 0, 0)))
    values = [v for _, v in residues(system_42, (F(-4, 5), F(1, 5), F(1, 5)))]
    assert values == [F(-4, 5), F(1, 5), F(1, 5), F(1, 5), F(-2, 5), F(0)]


def test_residues_length_mismatch(system_41):
    with pytest.raises(DimensionError):
        residues(system_41, (F(1, 5),))


@pytest.mark.parametrize("build, message", [
    (lambda: ResidueSystem(2, (ResidueRow("V1", (1, 0), True), ResidueRow("V2", (1,), True))),
     "row 'V2' has 1 coefficients, expected 2"),
    (lambda: admissible_search(load_bundled_scenario("example_4_1").residue_system,
                               (F(1, 5), F(1, 5))),
     "beta has length 2, expected 3"),
])
def test_a_residue_vector_of_the_wrong_length_is_refused(build, message):
    with pytest.raises(DimensionError) as caught:
        build()
    assert type(caught.value) is DimensionError and str(caught.value) == message


def test_is_admissible_examples(system_41):
    assert not is_admissible(system_41, (F(1, 5), F(1, 5), F(1, 5)))
    assert is_admissible(system_41, (F(-4, 5), F(1, 5), F(1, 5)))
    assert is_admissible(system_41, (0, 0, 0))


def test_residues_linear(system_41):
    rng = make_rng(51)
    for _ in range(60):
        a = tuple(random_fraction(rng) for _ in range(3))
        b = tuple(random_fraction(rng) for _ in range(3))
        left = [v for _, v in residues(system_41, tuple(x + y for x, y in zip(a, b)))]
        right = [
            va + vb
            for (_, va), (_, vb) in zip(residues(system_41, a), residues(system_41, b))
        ]
        assert left == right


def test_shift_order():
    shifts = shift_vectors(3, 1)
    assert shifts[0] == (0, 0, 0)
    assert shifts[1:7] == [
        (-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0),
    ]
    assert len(shifts) == 27


def largest_bound(nparams: int, shifts: int = 20_000) -> int:
    bound = 0
    while (2 * bound + 3) ** nparams <= shifts:
        bound += 1
    return bound


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 16).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, largest_bound(n)))))
def test_lazy_shift_order_is_the_sorted_box(box):
    # Every box of at most 20000 shifts: the lazy order is the sorted box.
    nparams, bound = box
    grid = product(range(-bound, bound + 1), repeat=nparams)
    assert shift_vectors(nparams, bound) == sorted(grid, key=lambda k: (sum(map(abs, k)), k))


def test_shift_order_reads_only_the_shells_it_reaches():
    # The shells |k|_1 <= 2 do not depend on a bound of 2 or more: 1 + 12 + 72
    # shifts in 6 parameters, whether the bound is 2 or a million.
    assert list(islice(shift_order(6, 10**6), 85)) == shift_vectors(6, 2)[:85]
    assert sum(map(abs, shift_vectors(6, 2)[85])) == 3


def test_admissible_search_examples(system_41):
    beta = (F(1, 5), F(1, 5), F(1, 5))
    alpha = admissible_search(system_41, beta, 3)
    assert alpha == (F(-4, 5), F(1, 5), F(1, 5))
    assert is_admissible(system_41, alpha)
    assert all((a - b).denominator == 1 for a, b in zip(alpha, beta))

    assert admissible_search(system_41, (0, 0, 0), 3) == (F(0), F(0), F(0))

    beta2 = (F(2, 5), F(2, 5), F(2, 5))
    alpha2 = admissible_search(system_41, beta2, 3)
    assert alpha2 is not None and is_admissible(system_41, alpha2)
    # An explicit admissible representative of the same class:
    handpicked = (F(-8, 5), F(2, 5), F(2, 5))
    assert is_admissible(system_41, handpicked)
    assert [v for _, v in residues(system_41, handpicked)] == [
        F(-8, 5), F(2, 5), F(2, 5), F(2, 5), F(-4, 5), F(-4, 5), F(0), F(0),
    ]


def test_admissible_search_exhausts_box():
    system = ResidueSystem(1, (ResidueRow("up", (1,), True),
                               ResidueRow("down", (-1,), True)))
    # Both a and -a must avoid positive integers; for beta = 0 only a = 0 works.
    assert admissible_search(system, (F(0),), 3) == (F(0),)
    # Unsatisfiable class: with rows (2) and (-2) and beta = 1/2, every shift
    # makes one of the residues +-(2k + 1) a positive odd integer.
    hard = ResidueSystem(1, (ResidueRow("p", (2,), True),
                             ResidueRow("m", (-2,), True)))
    assert admissible_search(hard, (F(1, 2),), 5) is None
    # Absence is not a certificate: the same class is fine for milder rows.
    assert admissible_search(system, (F(1, 2),), 0) == (F(1, 2),)


def test_level5_grid_always_admissible_for_41(system_41):
    # Computational confirmation at level 5: every residue class has an
    # admissible representative within shift bound 3.
    for point in torsion_grid(5, 3):
        alpha = admissible_search(system_41, point.beta, 3)
        assert alpha is not None
        assert is_admissible(system_41, alpha)
        assert all((a - b).denominator == 1 for a, b in zip(alpha, point.beta))


def test_opposite_exceptional_rows_force_zero_residue(system_41):
    # alphaP and alphaQ are negatives of each other, so any admissible choice
    # with integral alphaP must have alphaP = 0.
    index = {row.label: i for i, row in enumerate(system_41.rows)}
    for point in torsion_grid(5, 3):
        alpha = admissible_search(system_41, point.beta, 3)
        values = [v for _, v in residues(system_41, alpha)]
        rho_p = values[index["alphaP"]]
        if rho_p.denominator == 1:
            assert rho_p == 0


def test_equimonodromic_beta():
    assert equimonodromic_beta(5, 0, 3) == (F(0), F(0), F(0))
    assert equimonodromic_beta(5, 1, 3) == (F(1, 5),) * 3
    assert equimonodromic_beta(5, 3, 3) == (F(3, 5),) * 3
    with pytest.raises(ValueError):
        equimonodromic_beta(5, 5, 3)


def test_system_schema_errors():
    with pytest.raises(SchemaError) as err:
        residue_system_from_dict({"nparams": 2, "rows": [{"label": "x"}]})
    assert "/rows/0/coeffs" in str(err.value)
    with pytest.raises(SchemaError):
        residue_system_from_dict({"rows": []})


def test_the_search_work_limit_is_inclusive(monkeypatch):
    # One row at residue 1 blocks the zero shift; the first shift tried, -1,
    # clears it after one row test of the one pattern pending.
    assert admissible_shifts([[1]], [[5]], 5, 3) == [(-1,)]
    monkeypatch.setattr(residue_systems, "MAX_SEARCH_WORK", 1)
    assert admissible_shifts([[1]], [[5]], 5, 3) == [(-1,)]
    monkeypatch.setattr(residue_systems, "MAX_SEARCH_WORK", 0)
    with pytest.raises(LimitError, match=r"^the admissible search needs more than the "
                       r"limit of 0 row tests, with 1 blocking patterns still pending$"):
        admissible_shifts([[1]], [[5]], 5, 3)
    # A point that needs no search counts no work.
    assert admissible_shifts([[1]], [[4]], 5, 3) == [(0,)]
