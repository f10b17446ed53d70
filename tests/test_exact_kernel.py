import time
from fractions import Fraction

import pytest
import sympy

from alexinv.constructions import CyclotomicNumber, ExactMatrix, euler_phi, mat_mul, rank
from alexinv.errors import DimensionError, LimitError
from alexinv.exact_kernel import (
    MAX_RATIONAL_DIGITS,
    _poly_divmod,
    cyclotomic_poly,
    divisors,
    format_rational,
    mobius_pairs,
    parse_rational,
    prime_divisors,
)
from randgen import make_rng
from reference import is_zero_matrix

F = Fraction


def mat(rows):
    return ExactMatrix.from_rows([[F(x) for x in row] for row in rows])


def test_rational_serialization():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(-4, 1)) == "-4"
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("(-7)".strip("()")) == -7
    assert parse_rational(5) == 5


@pytest.mark.parametrize("n", [0, -1, -6])
def test_cyclotomic_poly_needs_a_positive_index(n):
    with pytest.raises(ValueError) as caught:
        cyclotomic_poly(n)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "cyclotomic_poly() needs a positive integer"


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


def test_cyclotomic_poly_matches_sympy_up_to_400():
    x = sympy.Symbol("x")
    for n in range(1, 401):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(expected)


def test_prime_divisors_totient_and_mobius_match_sympy():
    for n in [*range(1, 5001), 99999, 2310 * 43, 2**16]:
        assert prime_divisors(n) == sympy.primefactors(n)
        assert euler_phi(n) == sympy.totient(n)
        mus = ((d, int(sympy.mobius(n // d))) for d in sympy.divisors(n))
        assert sorted(mobius_pairs(n)) == [(d, mu) for d, mu in mus if mu]
    for f in (prime_divisors, euler_phi, mobius_pairs):
        for n in (0, -1, -12):
            with pytest.raises(ValueError):
                f(n)


def test_poly_divmod_divides_by_monic_polynomials_only():
    assert _poly_divmod([-1, 0, 0, 1], cyclotomic_poly(1)) == ([1, 1, 1], [])
    assert _poly_divmod([F(1, 2), 0, 1], (1, 1)) == ([-1, 1], [F(3, 2)])
    for den in ((1, 2), (0, -1), (3,)):
        with pytest.raises(ValueError, match="not monic"):
            _poly_divmod([1, 2, 3], den)
    with pytest.raises(ZeroDivisionError):
        _poly_divmod([1, 2, 3], (0, 0))


def test_rank_examples():
    assert rank(mat([[1, 0], [0, 1]])) == 2
    assert rank(mat([[0, 1, 1], [0, 0, F(1, 2)]])) == 2
    assert rank(mat([
        [F(-2, 5), F(-4, 5), F(-4, 5)],
        [F(-1, 10), F(-1, 5), F(-1, 5)],
    ])) == 1


def test_rank_nullity_and_annihilation_random():
    # sympy gives the rank and a null space basis; the product with that
    # basis goes through mat_mul.
    rng = make_rng(101)
    for _ in range(120):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [
            [F(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m = ExactMatrix.from_rows(rows)
        oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                               for row in rows])
        basis = oracle.nullspace()
        assert rank(m) == oracle.rank()
        assert rank(m) + len(basis) == ncols
        for vec in basis:
            column = ExactMatrix.from_rows([[F(x.p, x.q)] for x in vec])
            assert is_zero_matrix(mat_mul(m, column))


def test_cyclotomic_vector_length_enforced():
    with pytest.raises(DimensionError):
        CyclotomicNumber(5, (F(1),))


@pytest.mark.parametrize("conductor", [1, 2, 3, 4, 6, 12, 30, 97, 210, 2310])
def test_cyclotomic_reduction_returns_the_remainder(conductor):
    # Powers built as q * Phi_N + r, with sympy's Phi_N, an integer q and a
    # rational r of degree below phi(N): the reduction, which runs over one
    # common denominator in integers, must give back r.
    rng = make_rng(conductor)
    phi = euler_phi(conductor)
    cyclotomic = sympy.cyclotomic_poly(conductor, sympy.Symbol("x"), polys=True)
    divisor = [int(c) for c in reversed(cyclotomic.all_coeffs())]
    quotient = [rng.randint(-9, 9) for _ in range(conductor - phi)]
    remainder = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12))) for _ in range(phi)]
    product = [0] * conductor
    for i, q in enumerate(quotient):
        for j, d in enumerate(divisor):
            product[i + j] += q * d
    powers = [p + r for p, r in zip(product, remainder + [0] * (conductor - phi))]
    start = time.perf_counter()
    value = CyclotomicNumber._make(conductor, powers)
    assert time.perf_counter() - start < 1
    assert value == CyclotomicNumber(conductor, tuple(remainder))
    assert all(type(c) is Fraction for c in value.coeffs)


def test_parse_rational_rejects_zero_denominator():
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


@pytest.mark.parametrize("text, value", [
    ("3", F(3)), ("+3", F(3)), ("-0", F(0)), (" -6/4 ", F(-3, 2)), ("007/014", F(1, 2)),
    ("9" * MAX_RATIONAL_DIGITS + "/" + "7" * MAX_RATIONAL_DIGITS,
     F(int("9" * MAX_RATIONAL_DIGITS), int("7" * MAX_RATIONAL_DIGITS))),
])
def test_parse_rational_accepts_its_grammar(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", [
    "1.5", ".5", "1e3", "1E-2", "1e3000000", "inf", "nan", "1_000", "3/-4", "+3/+4",
    "- 3", "3 / 4", "1/2/3", "", "/2", "\u0663", "0x10", 1.5, True, None, [1],
])
def test_parse_rational_refuses_anything_else(text):
    with pytest.raises(ValueError, match="not a rational p or p/q"):
        parse_rational(text)


@pytest.mark.parametrize("text", [
    "9" * (MAX_RATIONAL_DIGITS + 1),
    "-" + "0" * (MAX_RATIONAL_DIGITS + 1),
    "1/" + "3" * (MAX_RATIONAL_DIGITS + 1),
])
def test_parse_rational_refuses_too_many_digits(text):
    with pytest.raises(ValueError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
        parse_rational(text)


def test_format_rational_refuses_what_it_cannot_write():
    widest = 10 ** MAX_RATIONAL_DIGITS - 1
    for value in (F(widest), F(-widest), F(1, widest), F(-widest, widest - 1)):
        assert parse_rational(format_rational(value)) == value
    for value in (F(widest + 1), F(-widest - 1), F(1, widest + 1), F(-1, widest + 2)):
        with pytest.raises(LimitError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
            format_rational(value)


def test_format_rational_takes_an_int_as_it_is():
    widest = 10 ** MAX_RATIONAL_DIGITS - 1
    for value in (0, 1, -4, widest, -widest):
        assert format_rational(value) == format_rational(F(value)) == str(value)
    for value in (widest + 1, -widest - 1):
        with pytest.raises(LimitError, match=f"more than {MAX_RATIONAL_DIGITS} digits"):
            format_rational(value)
