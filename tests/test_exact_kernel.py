from fractions import Fraction

import pytest

from alexinv.errors import DimensionError
from alexinv.exact_kernel import (
    CyclotomicNumber,
    ExactMatrix,
    cyclotomic_poly,
    det,
    divisors,
    euler_phi,
    format_rational,
    kernel_basis,
    parse_rational,
    rank,
)
from randgen import make_rng

F = Fraction


def mat(rows):
    return ExactMatrix.from_rows([[F(x) for x in row] for row in rows])


def test_rational_serialization():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-4, 1)) == "-4"
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("(-7)".strip("()")) == -7
    assert parse_rational(5) == 5


def test_cyclotomic_poly_base_cases():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)


def test_cyclotomic_poly_product_identity_up_to_30():
    for n in range(1, 31):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)
        prod = [1]
        for d in divisors(n):
            phi_d = cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi_d) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_d):
                    out[i + j] += a * b
            prod = out
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert prod == expected


def test_rank_examples():
    assert rank(mat([[1, 0], [0, 1]])) == 2
    assert rank(mat([[0, 1, 1], [0, 0, F(1, 2)]])) == 2
    assert rank(mat([
        [F(-2, 5), F(-4, 5), F(-4, 5)],
        [F(-1, 10), F(-1, 5), F(-1, 5)],
    ])) == 1


def test_kernel_examples():
    assert kernel_basis(mat([[1, 0], [0, 1]])) == []
    assert len(kernel_basis(mat([[0, 0, 0]]))) == 3
    (vec,) = kernel_basis(mat([[0, 1, 1], [0, 0, F(1, 2)]]))
    assert vec[0] != 0 and vec[1] == 0 and vec[2] == 0


def test_det_examples():
    assert det(mat([[1, 2], [3, 4]])) == -2
    assert det(mat([[7]])) == 7
    assert det(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    with pytest.raises(DimensionError):
        det(mat([[1, 2, 3], [4, 5, 6]]))


def test_rank_nullity_and_annihilation_random():
    rng = make_rng(101)
    for _ in range(120):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [
            [F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m = ExactMatrix.from_rows(rows)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == ncols
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_root_of_unity_identities():
    for n in (2, 3, 5, 7, 11, 13):
        zeta = CyclotomicNumber.root_of_unity(n)
        power = CyclotomicNumber.one(n)
        total = CyclotomicNumber.zero(n)
        for _ in range(n):
            total = total + power
            power = power * zeta
        assert power == 1  # zeta^n
        assert total.is_zero()  # sum of all n-th roots, n prime


def test_mixed_conductor_arithmetic():
    z2 = CyclotomicNumber.root_of_unity(2)
    z3 = CyclotomicNumber.root_of_unity(3)
    assert z2 == -1
    assert z2 * z3 == CyclotomicNumber.root_of_unity(6, 5)
    assert z3 + z2 == CyclotomicNumber.root_of_unity(6, 2) - 1
    assert (z3 * z3 * z3) == 1


def test_cyclotomic_inverse_random():
    rng = make_rng(7)
    for _ in range(40):
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        coeffs = [F(rng.randint(-2, 2)) for _ in range(euler_phi(n))]
        x = CyclotomicNumber._make(n, coeffs)
        if x.is_zero():
            continue
        assert x * x.inverse() == 1


def test_cyclotomic_matrix_rank():
    z = CyclotomicNumber.root_of_unity(5)
    one = CyclotomicNumber.one(5)
    m = ExactMatrix.from_rows([[z, one], [z * z, z]])
    assert rank(m) == 1
    assert det(m).is_zero()
    m2 = ExactMatrix.from_rows([[z, one], [one, z]])
    assert rank(m2) == 2


def test_cyclotomic_serialization_round_trip():
    z = CyclotomicNumber.root_of_unity(5, 3) * F(2, 3)
    again = CyclotomicNumber.from_dict(z.to_dict())
    assert z == again


def test_cyclotomic_vector_length_enforced():
    with pytest.raises(DimensionError):
        CyclotomicNumber(5, (F(1),))


def test_parse_rational_rejects_zero_denominator():
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)
