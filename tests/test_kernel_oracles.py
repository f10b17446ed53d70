"""The Laurent-ring and module kernels against independent oracles.

sympy decides divisibility, gcds and determinants; ``evaluate_at_torsion``
(exact arithmetic in Q(zeta_N)) decides vanishing at torsion points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from alexinv.alexander_modules import (
    _minor_table,
    _vanishing_test,
    elementary_ideal,
    fitting_variety_scan,
    in_support,
    support_scan,
)
from alexinv.errors import DimensionError
from alexinv.laurent_ring import (
    LaurentPoly,
    TorsionPoint,
    divide_exact,
    divides,
    evaluate_at_torsion,
    gcd,
    torsion_grid,
)
from randgen import make_rng, random_chain_presentation, random_presentation

F = Fraction
HYPOTHESIS = settings(max_examples=150, deadline=None, database=None)
SYMBOLS = sympy.symbols("t1:4")


@st.composite
def laurent(draw, nvars, max_terms=4, lo=-2, hi=2, nonzero=True):
    n = draw(st.integers(1 if nonzero else 0, max_terms))
    terms = {}
    for _ in range(n):
        exps = tuple(draw(st.integers(lo, hi)) for _ in range(nvars))
        num = draw(st.integers(-4, 4).filter(bool))
        terms[exps] = F(num, draw(st.sampled_from([1, 1, 2, 3])))
    p = LaurentPoly(nvars, terms)
    if nonzero and p.is_zero:
        p = LaurentPoly.one(nvars)
    return p


def ordinary_poly(p: LaurentPoly) -> sympy.Poly:
    """``p`` times the monomial that makes every minimum exponent 0."""
    gens = SYMBOLS[: p.nvars]
    mins = [min(e[j] for e in p.terms) for j in range(p.nvars)]
    expr = sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(x ** (a - m) for x, a, m in zip(gens, e, mins)))
        for e, c in p.terms.items()
    )
    return sympy.Poly(expr, *gens, domain="QQ")


def as_expr(p: LaurentPoly):
    gens = SYMBOLS[: p.nvars]
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(x**a for x, a in zip(gens, e)))
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


def sympy_divides(p: LaurentPoly, q: LaurentPoly) -> bool:
    return ordinary_poly(q).rem(ordinary_poly(p)).is_zero


def same_unit_class(ours: LaurentPoly, expected: sympy.Poly) -> bool:
    """``ours`` and ``expected`` differ by a nonzero rational times a monomial."""
    _, expected = expected.terms_gcd()
    quot, rem = ordinary_poly(ours).div(expected)
    return rem.is_zero and quot.is_ground and not quot.is_zero


def shifts(nvars):
    return st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars).map(tuple)


NVARS = st.integers(1, 3)
# The primitive PRS can take minutes on trivariate inputs of about ten
# terms, so drawn inputs that may reach it have at most two variables;
# seeded trivariate gcds are in test_gcd_oracle_on_shared_factors.
PRS_NVARS = st.integers(1, 2)


@HYPOTHESIS
@given(st.data())
def test_divides_and_divide_exact_match_sympy(data):
    nvars = data.draw(NVARS)
    p = data.draw(laurent(nvars))
    q = data.draw(laurent(nvars))
    if data.draw(st.booleans()):
        q = (p * q).shifted(data.draw(shifts(nvars)))
    expected = sympy_divides(p, q)
    assert divides(p, q) == expected
    quot = divide_exact(q, p)
    assert (quot is not None) == expected
    if quot is not None:
        assert p * quot == q


@HYPOTHESIS
@given(st.data())
def test_gcd_matches_sympy(data):
    nvars = data.draw(PRS_NVARS)
    common = data.draw(laurent(nvars, max_terms=3))
    a = data.draw(laurent(nvars, max_terms=3))
    b = data.draw(laurent(nvars, max_terms=3))
    p = (common * a).shifted(data.draw(shifts(nvars)))
    q = (common * b).shifted(data.draw(shifts(nvars)))
    g = gcd(p, q)
    assert same_unit_class(g, sympy.gcd(ordinary_poly(p), ordinary_poly(q)))
    assert g == gcd(q, p)


@HYPOTHESIS
@given(st.data())
def test_gcd_trial_division_both_directions(data):
    # The shorter argument divides the longer one, in either position; the
    # longer one divides the shorter one; and coprime arguments.
    nvars = data.draw(PRS_NVARS)
    x = LaurentPoly.var(nvars, 0)
    d = data.draw(laurent(nvars, max_terms=3))
    c = data.draw(laurent(nvars, max_terms=3))
    multiple = (d * c).shifted(data.draw(shifts(nvars)))
    shifted_d = d.shifted(data.draw(shifts(nvars)))
    for p, q in ((shifted_d, multiple), (multiple, shifted_d)):
        assert same_unit_class(gcd(p, q), ordinary_poly(d))
    # 1 + t1 + t1^2 divides t1^3 - 1, which has fewer terms.
    longer = (x * x + x + 1) * d
    shorter = (x**3 - 1) * d
    for p, q in ((longer, shorter), (shorter, longer)):
        assert same_unit_class(gcd(p, q), ordinary_poly(longer))
    # Coprime: distinct linear factors in t1, times monomials.
    p = (x - 2).shifted(data.draw(shifts(nvars)))
    q = ((x - 3) * (x + 5)).shifted(data.draw(shifts(nvars)))
    assert gcd(p, q).is_one


def test_gcd_oracle_on_shared_factors():
    rng = make_rng(11)
    for nvars in (1, 2, 3):
        for _ in range(15):
            pres = random_chain_presentation(rng, nvars, (2, 2))
            p, q = pres.matrix[0][0], pres.matrix[1][1]
            if p.is_zero or q.is_zero:
                continue
            assert same_unit_class(
                gcd(p, q), sympy.gcd(ordinary_poly(p), ordinary_poly(q))
            )


@pytest.mark.parametrize("shape", [(3, 4), (4, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_shared_minors_match_sympy_det(shape, seed):
    rng = make_rng(100 + seed)
    for pres in (
        random_presentation(rng, 2, shape=shape),
        random_chain_presentation(rng, 1 + seed % 3, shape),
    ):
        det = _minor_table(pres)
        matrix = sympy.Matrix([[as_expr(e) for e in row] for row in pres.matrix])
        for k in range(1, shape[0] + 1):
            for rows in combinations(range(shape[0]), k):
                for cols in combinations(range(shape[1]), k):
                    expected = matrix.extract(list(rows), list(cols)).det(
                        method="berkowitz")
                    assert sympy.expand(as_expr(det(rows, cols)) - expected) == 0
        assert elementary_ideal(pres, 0).gens == tuple(
            m for m in (det(tuple(range(shape[0])), c)
                        for c in combinations(range(shape[1]), shape[0]))
            if m
        )


@st.composite
def level_points(draw, nvars):
    level = draw(st.integers(1, 30))
    nums = tuple(draw(st.integers(0, level - 1)) for _ in range(nvars))
    return TorsionPoint(level, nums)


def vanishing_factor(point: TorsionPoint, exps) -> LaurentPoly:
    """``1 + m + ... + m^(d-1)`` for the monomial ``m = t^exps``, where ``m``
    is a primitive d-th root of unity at the point: zero there when d > 1."""
    k = sum(e * n for e, n in zip(exps, point.numerators)) % point.level
    order = point.level // int_gcd(point.level, k)
    m = LaurentPoly.term(point.nvars, 1, exps)
    return sum((m**j for j in range(order)), LaurentPoly.zero(point.nvars))


@settings(max_examples=400, deadline=None, database=None)
@given(st.data())
def test_integer_vanishing_matches_cyclotomic_evaluation(data):
    nvars = data.draw(NVARS)
    point = data.draw(level_points(nvars))
    g = data.draw(laurent(nvars, lo=-4, hi=4))
    if data.draw(st.booleans()):
        exps = tuple(data.draw(st.integers(-3, 3)) for _ in range(nvars))
        g = g * vanishing_factor(point, exps)
    expected = evaluate_at_torsion(g, point).is_zero()
    assert _vanishing_test([g], point.level)(point.numerators) == expected
    h = data.draw(laurent(nvars))
    both = expected and evaluate_at_torsion(h, point).is_zero()
    assert _vanishing_test([g, h], point.level)(point.numerators) == both


def test_scans_match_cyclotomic_evaluation():
    rng = make_rng(5)
    for nvars, shape, levels in ((1, (3, 4), range(1, 31)), (2, (3, 4), (1, 4, 6, 9)),
                                 (3, (2, 3), (2, 3, 4))):
        pres = random_chain_presentation(rng, nvars, shape)
        for level in levels:
            grid = list(torsion_grid(level, nvars))
            for i in (0, 1):
                gens = elementary_ideal(pres, i).gens
                expected = tuple(
                    pt for pt in grid
                    if all(evaluate_at_torsion(g, pt).is_zero() for g in gens)
                )
                found = (support_scan(pres, level) if i == 0
                         else fitting_variety_scan(pres, 2, level))
                assert found == expected
                if i == 0:
                    assert [in_support(pres, pt) for pt in grid] == [
                        pt in expected for pt in grid]


# ---------------------------------------------------------------------------
# Results built with the trusted constructor are as clean as public ones.

OPS = st.sampled_from(["+", "-", "*", "**", "shift", "neg"])


def assert_clean(p: LaurentPoly):
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.nvars
        assert all(type(e) is int for e in exps)
        assert type(coeff) is Fraction and coeff != 0
    assert LaurentPoly(p.nvars, p.terms) == p


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_trusted_results_hold_no_zero_and_no_bad_exponents(data):
    nvars = data.draw(NVARS)
    p = data.draw(laurent(nvars, nonzero=False))
    for op in data.draw(st.lists(OPS, min_size=1, max_size=6)):
        q = data.draw(laurent(nvars, max_terms=3, nonzero=False))
        if op == "+":
            p = p + q
        elif op == "-":
            # Subtracting a copy of part of p cancels terms.
            p = p - (q if data.draw(st.booleans()) else p)
        elif op == "*":
            p = p * q
        elif op == "**":
            p = p ** data.draw(st.integers(0, 2 if len(p.terms) <= 4 else 1))
        elif op == "shift":
            p = p.shifted(data.draw(shifts(nvars)))
        else:
            p = -p
        assert_clean(p)
        if len(p.terms) > 16:
            p = q  # keep the gcds below cheap
        if not p.is_zero and not q.is_zero:
            if nvars < 3:
                assert_clean(gcd(p, q))
            quot = divide_exact(p * q, q)
            assert_clean(quot)
            assert quot == p


def test_public_constructor_still_validates():
    with pytest.raises(DimensionError):
        LaurentPoly(2, {(1,): 1})
    with pytest.raises(DimensionError):
        LaurentPoly(1, {(0, 1): 1})
    p = LaurentPoly(1, {(1,): 0, (2,): 3})
    assert p.terms == {(2,): 3}
    assert_clean(p)
