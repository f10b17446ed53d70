import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alexinv import laurent_ring as lr
from alexinv.constructions import (
    TorsionPoint,
    divides,
    evaluate_at_torsion,
    grid_points,
    torsion_grid,
)
from alexinv.errors import DimensionError, LimitError, ParseError
from alexinv.exact_kernel import format_rational
from alexinv.laurent_ring import (
    LaurentPoly,
    check_grid,
    divide_exact,
    format_poly,
    gcd,
    normalize_unit,
    parse_poly,
)
import reference
from randgen import make_rng, random_laurent, random_nonzero_laurent, random_product

F = Fraction


def P(text, nvars):
    return parse_poly(text, nvars)


def test_ring_arithmetic_examples():
    t1 = P("t1", 1)
    assert (t1 - 1) * (t1 + 1) == P("t1^2 - 1", 1)
    p = P("3/2*t1^-2 + t1", 1)
    assert p + LaurentPoly.zero(1) == p
    tinv = LaurentPoly(1, {(-1,): 1})
    assert tinv * t1 == LaurentPoly.one(1)


def test_nvars_mismatch_raises():
    with pytest.raises(DimensionError):
        P("t1", 1) + P("t1", 2)


def test_normalize_unit_examples():
    p = P("-2*t1^-1*t2 + 2*t1^-1", 2)  # -2 * t1^-1 * (t2 - 1)
    assert normalize_unit(p) == P("t2 - 1", 2)
    assert normalize_unit(LaurentPoly.zero(2)) == LaurentPoly.zero(2)
    q = P("1/3*t1^2 - 1/3*t1", 1)
    assert normalize_unit(q) == P("t1 - 1", 1)


def test_normalize_unit_idempotent_and_unit_invariant():
    rng = make_rng(21)
    for _ in range(120):
        nvars = rng.randint(1, 3)
        p = random_laurent(rng, nvars)
        canon = normalize_unit(p)
        assert normalize_unit(canon) == canon
        # multiply by a random unit: nonzero rational times a monomial
        exps = tuple(rng.randint(-2, 2) for _ in range(nvars))
        c = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        unit = LaurentPoly(nvars, {exps: c})
        assert normalize_unit(p * unit) == canon


def test_gcd_examples():
    t1 = P("t1", 1)
    assert gcd(t1 - 1, t1 * t1 - 1) == t1 - 1
    p = random_nonzero_laurent(make_rng(3), 2)
    assert gcd(p, LaurentPoly.zero(2)) == normalize_unit(p)
    a = P("t1*t2 - t1 - t2 + 1", 2)  # (t1-1)(t2-1)
    b = P("t1*t2 - t2", 2)  # (t1-1) t2
    assert gcd(a, b) == P("t1 - 1", 2)
    assert gcd(LaurentPoly.zero(2), LaurentPoly.zero(2)).is_zero


def test_gcd_properties_random():
    rng = make_rng(22)
    for _ in range(80):
        nvars = rng.randint(1, 2)
        p = random_product(rng, nvars)
        q = random_product(rng, nvars)
        r = random_product(rng, nvars)
        g = gcd(p, q)
        assert divides(g, p) and divides(g, q)
        assert g == gcd(q, p)
        assert gcd(gcd(p, q), r) == gcd(p, gcd(q, r))
        assert gcd(p * r, q * r) == normalize_unit(r * g)


def _dense_univariate(poly):
    w = normalize_unit(poly)
    degree = w.max_exponents()[0]
    return [F(w.terms.get((e,), 0)) for e in range(degree + 1)]


def _oracle_gcd_univariate(p, q):
    """Independent plain Euclid over dense Fraction lists."""
    a, b = _dense_univariate(p), _dense_univariate(q)
    while any(b):
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if len(a) < len(b):
            a, b = b, a
        rem = a[:]
        while rem and len(rem) >= len(b):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(b):
                break
            factor = rem[-1] / b[-1]
            offset = len(rem) - len(b)
            for i, c in enumerate(b):
                rem[offset + i] -= factor * c
            rem.pop()
        a, b = b, rem
    return normalize_unit(LaurentPoly(1, {(e,): c for e, c in enumerate(a)}))


def test_gcd_matches_plain_euclid_for_univariate():
    rng = make_rng(26)
    for _ in range(100):
        p = random_product(rng, 1, max_factors=3)
        q = random_product(rng, 1, max_factors=3)
        assert gcd(p, q) == _oracle_gcd_univariate(p, q)


def test_divides_examples():
    assert divides(P("t1 - 1", 1), P("t1^2 - 1", 1))
    assert not divides(P("t1 - 1", 2), P("t2 - 1", 2))
    assert divides(P("t1*t2 - 1", 2), P("t1^2*t2^2 - 1", 2))
    assert divides(LaurentPoly.zero(1), LaurentPoly.zero(1))
    assert not divides(LaurentPoly.zero(1), P("t1", 1))


def test_divide_exact_round_trip():
    rng = make_rng(23)
    for _ in range(60):
        nvars = rng.randint(1, 2)
        p = random_product(rng, nvars)
        q = random_product(rng, nvars)
        quotient = divide_exact(p * q, q)
        assert quotient is not None
        assert quotient * q == p * q


def test_divide_exact_keeps_its_zero_and_laurent_semantics():
    zero, t1 = LaurentPoly.zero(1), P("t1", 1)
    assert divide_exact(zero, zero) == zero
    assert divide_exact(zero, P("t1^-1 - 3", 1)) == zero
    with pytest.raises(ZeroDivisionError):
        divide_exact(t1, zero)
    assert divides(zero, zero)
    assert not divides(zero, t1)
    # The quotient has only negative exponents.
    assert divide_exact(P("t1^-2 - 1", 1), P("t1 - t1^-1", 1)) == P("-t1^-1", 1)
    assert divide_exact(P("t1^-3*t2 + t1^-1", 2), P("t1^-2*t2 + 1", 2)) == P("t1^-1", 2)
    # t1 spans fewer exponents than t1^2 - 1: no quotient's exponents fit.
    assert divide_exact(t1, P("t1^2 - 1", 1)) is None
    assert not divides(P("t1^2 - 1", 1), t1)
    # The remainder's terms fall below the box: with no lower bound the
    # division would run on, one term further down each step.
    assert divide_exact(P("t1^-1 + 1", 1), P("t1 - 1", 1)) is None


def test_divide_exact_checks_the_variable_count():
    # Checked before the zero cases, as in divides and gcd.
    for dividend in (LaurentPoly.zero(1), P("t1^2", 1)):
        with pytest.raises(DimensionError):
            divide_exact(dividend, P("t1*t2", 2))
    with pytest.raises(DimensionError):
        divide_exact(P("t1*t2", 2), LaurentPoly.zero(1))


def test_evaluate_examples():
    p = P("t1*t2^2*t3^2 - 1", 3)
    pt = TorsionPoint.from_numerators(5, (1, 1, 1))
    assert evaluate_at_torsion(p, pt).is_zero()
    q = P("t1 - 1", 1)
    assert evaluate_at_torsion(q, TorsionPoint.from_numerators(1, (0,))).is_zero()
    assert not evaluate_at_torsion(q, TorsionPoint.from_numerators(5, (1,))).is_zero()


def test_evaluate_is_ring_morphism():
    # sympy multiplies or adds the two reduced values and reduces the result
    # modulo Phi_N.
    x = sympy.Symbol("x")

    def as_poly(value):
        return sympy.Poly(value.coeffs[::-1] or [0], x, domain="QQ")

    rng = make_rng(24)
    for _ in range(60):
        nvars = rng.randint(1, 2)
        level = rng.choice([2, 3, 4, 5])
        p = random_laurent(rng, nvars)
        q = random_laurent(rng, nvars)
        pt = TorsionPoint.from_numerators(
            level, tuple(rng.randrange(level) for _ in range(nvars))
        )
        modulus = sympy.Poly(sympy.cyclotomic_poly(level, x), x, domain="QQ")
        a, b = as_poly(evaluate_at_torsion(p, pt)), as_poly(evaluate_at_torsion(q, pt))
        assert as_poly(evaluate_at_torsion(p * q, pt)) == (a * b).rem(modulus)
        assert as_poly(evaluate_at_torsion(p + q, pt)) == (a + b).rem(modulus)


def test_parse_examples():
    p = parse_poly("t1*t2^2*t3^2 - 1", 3)
    assert len(p.terms) == 2
    q = parse_poly("3/2*t1^-2", 1)
    assert q.terms == {(-2,): F(3, 2)}
    with pytest.raises(ParseError):
        parse_poly("t4", 3)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("t1 + $", 1)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("", 1)
    with pytest.raises(ParseError):
        parse_poly("t1 +", 1)
    with pytest.raises(ParseError):
        parse_poly("2 t1", 1)


def parsed(parse, text, nvars):
    """What ``parse`` makes of ``text``: the polynomial's terms in order,
    with their coefficient types, or the error's text and position."""
    try:
        p = parse(text, nvars)
    except ParseError as exc:
        return str(exc), exc.position
    return list(p.terms.items()), [type(c) for c in p.terms.values()]


# The grammar's characters, a space and one bad character.
PARSE_CHARS = "t0123456789^*/+- x"


@st.composite
def parse_text(draw):
    """A string over ``PARSE_CHARS``: drawn freely, or a grammatical text
    with up to two characters inserted, deleted or replaced."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from([*PARSE_CHARS, "t1", "t2", "t3"]),
                                     max_size=16)))
    number = st.integers(0, 12).map(str)
    factor = st.tuples(st.sampled_from(["t", "t0", "t1", "t2", "t3", "t4"]),
                       st.sampled_from(["", "^", "^-"]), number).map(
        lambda f: f[0] + (f[1] + f[2] if f[1] else ""))
    coeff = st.tuples(number, st.sampled_from(["", "/"]), number).map(
        lambda c: c[0] + (c[1] + c[2] if c[1] else ""))
    term = st.tuples(st.lists(coeff, max_size=1), st.lists(factor, max_size=3)).filter(
        lambda t: t[0] or t[1]).map(lambda t: "*".join(t[0] + t[1]))
    text = draw(st.sampled_from(["", "-", "+"])) + draw(term)
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from([" + ", " - ", "-", "+"])) + draw(term)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(["", *PARSE_CHARS]))
        text = text[:at] + new + text[at + draw(st.integers(0, 1)):]
    return text


@settings(max_examples=1000, deadline=None, database=None)
@given(parse_text(), st.integers(1, 3))
@example("1" * 5000, 1)
@example("t1^" + "9" * 5000 + " x", 1)
@example("1/" + "0" * 5000, 2)
@example("t" + "1" * 5000, 2)
def test_one_pass_parser_matches_the_recursive_descent_parser(text, nvars):
    assert parsed(parse_poly, text, nvars) == parsed(reference.parse_poly, text, nvars)


def test_bare_t_only_for_one_variable():
    assert parse_poly("t - 1", 1) == parse_poly("t1 - 1", 1)
    with pytest.raises(ParseError):
        parse_poly("t - 1", 2)


def printed(printer, p):
    """``printer(p)``, or the ``LimitError`` text it raised."""
    try:
        return printer(p)
    except LimitError as exc:
        return f"LimitError: {exc}"


TOO_LONG = 10 ** 4300  # 4301 digits: one more than a printed rational may have
COEFFICIENTS = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(1000, 4300).map(lambda d: 10 ** d - 1) | st.sampled_from([TOO_LONG]),
    st.fractions(max_denominator=10 ** 6),
).flatmap(lambda c: st.sampled_from([c, -c]))


@st.composite
def printable(draw):
    nvars = draw(st.integers(1, 4))
    exponent = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-12, 12))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = (0,) * nvars if draw(st.integers(0, 5)) == 0 else tuple(
            draw(exponent) for _ in range(nvars))
        terms[exps] = draw(COEFFICIENTS)
    return LaurentPoly(nvars, terms)


@settings(max_examples=400, deadline=None, database=None)
@given(printable())
@example(LaurentPoly(2, {(1, 0): -1, (0, 1): 1, (0, 0): -1}))
@example(LaurentPoly(3, {(0, 0, 0): 1, (-1, 0, 2): F(-1, 2), (1, 1, 0): 11}))
@example(LaurentPoly(1, {(1,): TOO_LONG - 1, (0,): -1}))
def test_format_poly_prints_the_reference_printers_bytes(p):
    assert printed(format_poly, p) == printed(reference.format_poly, p)


def test_format_poly_refuses_a_4301_digit_coefficient_as_before():
    message = "LimitError: a rational has more than 4300 digits"
    for coeff in (TOO_LONG, -TOO_LONG, F(1, TOO_LONG), F(-TOO_LONG, 7)):
        for p in (LaurentPoly(2, {(1, 0): coeff, (0, 0): 1}),
                  LaurentPoly(2, {(0, 0): coeff}),
                  LaurentPoly(2, {(2, -1): 3, (1, 0): coeff, (0, 0): 1})):
            assert printed(format_poly, p) == printed(reference.format_poly, p) == message


def test_format_round_trip_random():
    rng = make_rng(25)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        p = random_laurent(rng, nvars, max_terms=4)
        assert parse_poly(format_poly(p), nvars) == p
    assert format_poly(LaurentPoly.zero(2)) == "0"


def test_torsion_point_validation():
    with pytest.raises(ValueError):
        reference.from_residues(5, (F(1, 3),))
    with pytest.raises(ValueError):
        TorsionPoint(5, (6,))
    pt = reference.from_residues(5, (F(-4, 5),))
    assert pt.beta == (F(1, 5),)
    assert reference.negate(pt).beta == (F(4, 5),)


@pytest.mark.parametrize("level", [0, -3])
def test_torsion_point_rejects_level_below_one(level):
    for build in (TorsionPoint, TorsionPoint.from_numerators, reference.from_residues):
        with pytest.raises(ValueError, match="level must be positive"):
            build(level, (1,))


def test_torsion_grid_order():
    pts = list(torsion_grid(2, 2))
    assert [p.numerators for p in pts] == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("level, nvars", [(1, 1), (2, 2), (5, 3), (12, 1)])
def test_grid_points_equal_checked_points(level, nvars):
    grid = list(torsion_grid(level, nvars))
    assert grid_points(level, nvars, range(level ** nvars)) == tuple(grid)
    assert grid_points(level, nvars, [level ** nvars - 1, 0]) == (grid[-1], grid[0])
    checked = [TorsionPoint(level, p.numerators) for p in grid]
    assert grid == checked
    assert [hash(p) for p in grid] == [hash(p) for p in checked]
    assert [(type(p), repr(p), str(p)) for p in grid] == [
        (type(p), repr(p), str(p)) for p in checked]
    assert len(set(grid) | set(checked)) == level ** nvars
    with pytest.raises(AttributeError):
        grid[0].level = level + 1
    with pytest.raises(LimitError):
        TorsionPoint(3, (3,))


def test_check_grid_refuses_a_huge_grid_at_once():
    # 99999 ** 2**20 takes seconds to build; the power is taken only as far
    # as the cap.
    start = time.perf_counter()
    with pytest.raises(LimitError) as info:
        check_grid(99999, 2**20)
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == (
        "level 99999 gives 99999^1048576 torsion points, more than the limit of 100000")


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 400), st.integers(0, 40), st.sampled_from([0, 1, 27, 100_000]))
def test_check_grid_refuses_exactly_the_grids_past_the_cap(level, nvars, cap):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lr, "MAX_SCAN_POINTS", cap)
        if level > cap or level ** nvars > cap:
            with pytest.raises(LimitError):
                check_grid(level, nvars)
        else:
            check_grid(level, nvars)


@st.composite
def torsion_points(draw):
    level = draw(st.integers(1, 30))
    numerators = draw(st.lists(st.integers(0, level - 1), min_size=1, max_size=4))
    return TorsionPoint(level, tuple(numerators))


@settings(max_examples=300, deadline=None, database=None)
@given(torsion_points(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_torsion_point_residues_round_trip(point, shifts):
    assert reference.from_residues(point.level, point.beta) == point
    # Residue classes are taken mod 1.
    shifted = tuple(b + k for b, k in zip(point.beta, shifts))
    assert reference.from_residues(point.level, shifted) == point
    rendered = ",".join(format_rational(F(n, point.level)) for n in point.numerators)
    assert str(point) == "(" + rendered + ")"


@settings(max_examples=300, deadline=None, database=None)
@given(torsion_points())
def test_torsion_point_negate_is_an_involution(point):
    negated = reference.negate(point)
    assert reference.negate(negated) == point
    assert all(
        (n + m) % point.level == 0
        for n, m in zip(point.numerators, negated.numerators)
    )
