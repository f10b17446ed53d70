from fractions import Fraction

import pytest

from alexinv.aomoto_complex import (
    GradedAlgebra,
    IntegerDifferential,
    OneForm,
    algebra_from_dict,
    algebra_to_dict,
    betti_vector,
    cohomology_dims,
    differential_matrix,
    os_algebra_lines,
    validate_algebra,
    wedge,
)
from alexinv.corpus import load_bundled_scenario
from alexinv.errors import (
    DimensionError,
    InconsistentDifferentialError,
    SchemaError,
)
from alexinv.exact_kernel import integer_vector
from randgen import make_rng, random_oneform

F = Fraction


@pytest.fixture(scope="module")
def algebra_41():
    return load_bundled_scenario("example_4_1").algebra


@pytest.fixture(scope="module")
def algebra_42():
    return load_bundled_scenario("example_4_2").algebra


@pytest.fixture(scope="module")
def exterior2():
    return load_bundled_scenario("torus").algebra


@pytest.fixture(scope="module")
def bundled_algebras():
    names = (
        "example_4_1",
        "example_4_2",
        "example_5_3",
        "torus",
        "lines_generic3",
        "lines_concurrent3",
    )
    return [load_bundled_scenario(n).algebra for n in names]


def test_validate_examples(algebra_41, exterior2):
    assert validate_algebra(algebra_41) == []
    assert validate_algebra(exterior2) == []
    broken = GradedAlgebra(
        2,
        (("1",), ("a", "b"), ("ab",)),
        {("a", "b"): {"ab": F(1)}, ("b", "a"): {"ab": F(1)}},
    )
    violations = validate_algebra(broken)
    assert violations and "antisymmetry" in violations[0]


def test_validate_reports_nonzero_square():
    broken = GradedAlgebra(
        2,
        (("1",), ("a",), ("aa",)),
        {("a", "a"): {"aa": F(1)}},
    )
    violations = validate_algebra(broken)
    assert violations and "square" in violations[0]


def test_wedge_examples(algebra_41):
    image = wedge(algebra_41, OneForm((1, 0, 0)), 1, [0, 0, 1])  # eta1 ^ eta3
    assert image == [F(1), F(1, 2)]
    assert wedge(algebra_41, OneForm((0, 0, 0)), 1, [0, 0, 1]) == [0, 0]
    assert wedge(algebra_41, OneForm((1, 0, 0)), 1, [1, 0, 0]) == [0, 0]
    with pytest.raises(DimensionError):
        wedge(algebra_41, OneForm((1, 0, 0)), 2, [1, 0])


def test_differential_matrix_examples(algebra_41):
    m = differential_matrix(algebra_41, OneForm((1, 0, 0)), 1)
    assert m.row_lists() == [[0, 1, 1], [0, 0, F(1, 2)]]
    zero = differential_matrix(algebra_41, OneForm((0, 0, 0)), 1)
    assert all(x == 0 for x in zero.entries)
    m2 = differential_matrix(algebra_41, OneForm((F(-4, 5), F(1, 5), F(1, 5))), 1)
    assert m2.row_lists() == [
        [F(-2, 5), F(-4, 5), F(-4, 5)],
        [F(-1, 10), F(-1, 5), F(-1, 5)],
    ]


def test_cohomology_dims_examples(algebra_41, algebra_42, exterior2):
    assert cohomology_dims(algebra_41, OneForm((0, 0, 0))) == (1, 3, 2)
    assert cohomology_dims(algebra_41, OneForm((F(-4, 5), F(1, 5), F(1, 5)))) == (0, 1, 1)
    assert cohomology_dims(algebra_41, OneForm((1, 0, 0))) == (0, 0, 0)
    assert cohomology_dims(algebra_42, OneForm((F(-4, 5), F(1, 5), F(1, 5)))) == (0, 0, 2)
    assert cohomology_dims(exterior2, OneForm((F(1, 2), F(1, 3)))) == (0, 0, 0)


def test_omega_zero_gives_betti(bundled_algebras):
    for algebra in bundled_algebras:
        omega = OneForm((0,) * algebra.dim(1))
        assert cohomology_dims(algebra, omega) == betti_vector(algebra)


def test_euler_and_scaling_invariance(bundled_algebras):
    rng = make_rng(41)
    for algebra in bundled_algebras:
        euler = sum(
            (-1) ** p * algebra.dim(p) for p in range(algebra.top_degree + 1)
        )
        for _ in range(25):
            omega = random_oneform(rng, algebra.dim(1))
            dims = cohomology_dims(algebra, omega)
            assert sum((-1) ** p * d for p, d in enumerate(dims)) == euler
            c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5]))
            assert cohomology_dims(algebra, omega.scaled(c)) == dims


def test_inconsistent_differential_detected():
    # Passes the per-basis-element invariants but fails d*d = 0 for a mixed
    # one-form: e1^(e2^e3) + e2^(e1^e3) does not cancel.
    algebra = GradedAlgebra(
        3,
        (("1",), ("a", "b", "c"), ("bc", "ac"), ("top",)),
        {
            ("b", "c"): {"bc": F(1)},
            ("a", "c"): {"ac": F(1)},
            ("a", "bc"): {"top": F(1)},
            ("b", "ac"): {"top": F(1)},
        },
    )
    assert validate_algebra(algebra) == []
    with pytest.raises(InconsistentDifferentialError):
        cohomology_dims(algebra, OneForm((1, 1, 0)))


def test_os_algebra_lines_examples():
    generic = os_algebra_lines(3, [{1, 2}, {1, 3}, {2, 3}])
    assert betti_vector(generic) == (1, 3, 3)
    assert validate_algebra(generic) == []

    concurrent = os_algebra_lines(3, [{1, 2, 3}])
    assert betti_vector(concurrent) == (1, 3, 2)
    assert validate_algebra(concurrent) == []

    single = os_algebra_lines(1, [])
    assert betti_vector(single) == (1, 1, 0)
    assert validate_algebra(single) == []


def test_os_algebra_rewrites_non_anchor_pairs():
    concurrent = os_algebra_lines(3, [{1, 2, 3}])
    image = wedge(concurrent, OneForm((0, 1, 0)), 1, [0, 0, 1])  # e2 ^ e3
    index = {label: i for i, label in enumerate(concurrent.basis[2])}
    assert image[index["e1^e3"]] == 1
    assert image[index["e1^e2"]] == -1


def test_os_algebra_matches_bundled_line_scenarios():
    generic = os_algebra_lines(3, [{1, 2}, {1, 3}, {2, 3}])
    assert generic == load_bundled_scenario("lines_generic3").algebra
    concurrent = os_algebra_lines(3, [{1, 2, 3}])
    assert concurrent == load_bundled_scenario("lines_concurrent3").algebra


def test_os_algebra_precondition_errors():
    with pytest.raises(ValueError):
        os_algebra_lines(3, [{1, 2}])  # pairs (1,3), (2,3) in no point
    with pytest.raises(ValueError):
        os_algebra_lines(3, [{1, 2, 3}, {1, 2}])  # pair (1,2) twice
    with pytest.raises(ValueError):
        os_algebra_lines(2, [{1}])
    with pytest.raises(ValueError):
        os_algebra_lines(2, [{1, 5}])


def test_os_algebra_generic_form_koszul_concentration():
    # For residues whose point sums and total sum are all nonintegral, the
    # cohomology sits in top degree with dimension |chi|.
    cases = [
        (os_algebra_lines(3, [{1, 2}, {1, 3}, {2, 3}]), 1),  # chi = 1 - 3 + 3
        (os_algebra_lines(3, [{1, 2, 3}]), 0),  # chi = 1 - 3 + 2
        (os_algebra_lines(4, [{1, 2, 3}, {1, 4}, {2, 4}, {3, 4}]), 2),  # 1 - 4 + 5
    ]
    omega = OneForm((F(1, 3), F(1, 7), F(1, 11)))
    for algebra, top in cases[:2]:
        assert cohomology_dims(algebra, omega) == (0, 0, top)
    algebra4, top4 = cases[2]
    omega4 = OneForm((F(1, 3), F(1, 7), F(1, 11), F(1, 13)))
    assert cohomology_dims(algebra4, omega4) == (0, 0, top4)


def test_algebra_json_round_trip(algebra_41):
    again = algebra_from_dict(algebra_to_dict(algebra_41))
    assert again == algebra_41


def test_algebra_schema_errors():
    with pytest.raises(SchemaError) as err:
        algebra_from_dict({"top_degree": 1})
    assert "/basis" in str(err.value)
    with pytest.raises(SchemaError) as err:
        algebra_from_dict(
            {
                "top_degree": 1,
                "basis": {"0": ["1"], "1": ["a"]},
                "products": [{"left": "a", "right": "zz", "value": []}],
            }
        )
    assert "/products/0/right" in str(err.value)
    with pytest.raises(SchemaError) as err:
        algebra_from_dict(
            {
                "top_degree": 1,
                "basis": {"0": ["1", "extra"], "1": ["a"]},
            }
        )
    assert "/basis/0" in str(err.value)


def test_mirror_products_autofilled(algebra_41):
    forward = algebra_41.products[("eta1", "eta3")]
    backward = algebra_41.products[("eta3", "eta1")]
    assert backward == {k: -v for k, v in forward.items()}


def test_cohomology_dims_reuses_one_identity_differential(algebra_41):
    # The identity differential is built by the first call and kept on the
    # algebra, out of its equality and repr; every later call reads it.
    algebra = algebra_from_dict(algebra_to_dict(algebra_41))
    pristine = algebra_from_dict(algebra_to_dict(algebra_41))
    rng = make_rng(8)
    forms = [random_oneform(rng, algebra.dim(1)) for _ in range(12)]
    forms.append(OneForm((F(-4, 5), F(1, 5), F(1, 5))))
    first = [cohomology_dims(algebra, omega) for omega in forms]
    built = algebra._identity
    assert built is not None
    assert [cohomology_dims(algebra, omega) for omega in forms] == first
    assert algebra._identity is built
    n = algebra.dim(1)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert first == [
        IntegerDifferential(pristine, identity).dims(integer_vector(omega.coeffs)[0])
        for omega in forms
    ]
    assert pristine._identity is None
    assert algebra == pristine and repr(algebra) == repr(pristine)
    assert algebra_to_dict(algebra) == algebra_to_dict(pristine)
