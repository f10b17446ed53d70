"""The Laurent-ring and module kernels against independent oracles.

sympy decides divisibility, gcds, determinants and cyclotomic factors;
``evaluate_at_torsion`` (exact arithmetic in Q(zeta_N)) decides vanishing at
torsion points.
"""

from __future__ import annotations

import copy
import inspect
import os
import re
import threading
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd as int_gcd
from operator import mul
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alexinv import alexander_modules as am
from alexinv import laurent_ring as lr
from alexinv.alexander_modules import Presentation, char_poly
from alexinv.cli import format_charpoly
from alexinv.constructions import (
    TorsionPoint,
    cyclic_module,
    direct_sum,
    divides,
    elementary_ideal,
    evaluate_at_torsion,
    fitting_variety_scan,
    in_support,
    support_scan,
    torsion_grid,
)
from alexinv.errors import DimensionError, LimitError
from alexinv.exact_kernel import cyclotomic_poly, divisors
from alexinv.invariant_pipeline import (
    MonodromyPolynomial,
    _cyclotomic_indices,
    factor_cyclotomic,
)
from alexinv.laurent_ring import (
    LaurentPoly,
    divide_exact,
    gcd,
    gcd_all,
    normalize_unit,
    parse_poly,
)
from randgen import (
    make_rng,
    random_binomial_factor,
    random_chain_presentation,
    random_laurent,
    random_partial_presentation,
    random_presentation,
    random_product,
)
import reference
from reference import presentation, zeros_per_pivot
from test_alexander_modules import round_trips
from test_golden_module import GOLDEN_DIR

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
    x = parse_poly("t1", nvars)
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


@HYPOTHESIS
@given(st.integers(0, 2**32 - 1), PRS_NVARS)
def test_gcd_is_gcd_all_in_either_order_and_among_zeros(seed, nvars):
    # gcd is gcd_all of its two arguments, which skips zeros: the normalized
    # gcd is unique, so no order of the arguments, zeros among them, moves it.
    # The PRS runs only where the shorter (the gcd so far on a tie) does not
    # divide the other.
    rng = make_rng(seed)
    common = random_product(rng, nvars)
    p = common * random_laurent(rng, nvars)
    q = common * random_laurent(rng, nvars)
    zero = LaurentPoly.zero(nvars)
    prs = lr._gcd_prs

    def checked_prs(a, b):
        assert len(a.terms) <= len(b.terms) and divide_exact(b, a) is None
        return prs(a, b)

    with mock.patch.object(lr, "_gcd_prs", checked_prs):
        assert gcd(p, q) == gcd(q, p) == gcd_all((p, zero, q), nvars) == gcd_all(
            (zero, q, p, zero), nvars)
        assert gcd(p, zero) == normalize_unit(p)
        assert gcd(zero, zero).is_zero and gcd_all((), nvars).is_zero


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


@pytest.mark.parametrize("a, b, c", [
    ("-t3^2 - t1^2*t3^-1 - 1/3*t3 + 3*t1^-2*t2^2*t3^-2",
     "3*t2^2*t3^-1 + 3/2*t1^-1*t3^-1 + 2*t1^-2*t2^-2*t3^2",
     "-2*t1^2*t2 - t1*t2^-1*t3^-2"),
    ("-t1^2*t2*t3^2 + 3/2*t1^-1*t2^-1 - 2*t1^-2*t2^-2*t3^2",
     "3*t1*t3^-1 + 2/3*t1^-2*t2^-1*t3^2",
     "t1^2*t3^-1 - t1*t3^-2 - 3/2*t1*t2^-2*t3^-1"),
    ("-t1^2*t3^-2 - t1*t3^-2 - t1^-1 + t1^-2",
     "-2*t1*t2^-2*t3 + 3*t1^-2*t2^2*t3^-2 + t1^-2*t3^-2",
     "2/3*t1 + t1*t2^-2*t3^-1 + 3/2*t1^-1*t2^-1*t3^-1 + t1^-2*t2^-1*t3^-1"),
], ids=["case5", "case17", "case37"])
def test_gcd_of_trivariate_prs_inputs_matches_sympy(a, b, c):
    # gcd(c*a*a, c*b) for three seeded trivariate draws that reach the PRS.
    # The first and last take seconds unless the PRS's content gcds go
    # through gcd_all's division shortcut; the 1 s bound catches that.
    a, b, c = (parse_poly(text, 3) for text in (a, b, c))
    p, q = c * a * a, c * b
    start = time.perf_counter()
    g = gcd(p, q)
    assert time.perf_counter() - start < 1.0
    assert same_unit_class(g, sympy.gcd(ordinary_poly(p), ordinary_poly(q)))


def test_gcd_all_does_not_repeat_a_failed_division(monkeypatch):
    # When divide_exact(p, g) fails with g the shorter, gcd_all goes on to
    # the PRS step; gcd(g, p) would try that same division again first.
    calls = []

    def spy(p, q):
        quotient = divide_exact(p, q)
        calls.append((p, q, quotient is None))
        return quotient

    monkeypatch.setattr(lr, "divide_exact", spy)
    for seed in range(20):
        pres = random_presentation(make_rng(seed), 2, shape=(3, 4))
        for i in range(4):
            char_poly(pres, i)
    assert sum(failed for _, _, failed in calls) > 50
    repeats = [k for k in range(1, len(calls))
               if calls[k - 1][2] and calls[k][:2] == calls[k - 1][:2]]
    assert repeats == []


@pytest.mark.parametrize("shape", [(3, 4), (4, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_shared_minors_match_sympy_det(shape, seed):
    rng = make_rng(100 + seed)
    for pres in (
        random_presentation(rng, 2, shape=shape),
        random_chain_presentation(rng, 1 + seed % 3, shape),
    ):
        det = pres.minors
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


def fresh(pres: Presentation) -> Presentation:
    """An equal presentation whose minor table is not built yet."""
    return Presentation(pres.nvars, pres.generators, pres.relations, pres.matrix)


@HYPOTHESIS
@given(st.data())
def test_one_minor_table_serves_every_call_on_a_presentation(data):
    # Whatever ran on the presentation before, a call reads the shared table
    # and gives what it gives on a fresh equal presentation.
    rng = make_rng(data.draw(st.integers(0, 10**6)))
    pres = random_presentation(rng, max_gens=4, max_rels=4)
    n = pres.generators
    for _ in range(data.draw(st.integers(1, 8))):
        op = data.draw(st.sampled_from(
            ("char_poly", "elementary_ideal", "support_scan",
             "fitting_variety_scan", "in_support")))
        level = data.draw(st.integers(1, 6))
        if op in ("char_poly", "elementary_ideal"):
            args = (data.draw(st.integers(0, n + 1)),)
        elif op == "support_scan":
            args = (level,)
        elif op == "fitting_variety_scan":
            args = (data.draw(st.integers(1, n + 2)), level)
        else:
            args = (data.draw(level_points(pres.nvars)),)
        call = in_support if op == "in_support" else getattr(am, op)
        assert call(pres, *args) == call(fresh(pres), *args), (op, args)


def test_minor_table_is_built_once_per_presentation(monkeypatch):
    # The presentation peels completely, so every Delta_k is a prefix product
    # c_1...c_k of the pivot chain, built with the chain: the first round of
    # char_poly over every i multiplies only what the peel and its chain
    # multiply (c_1*c_2, *c_3 and *c_4), and a second round and both scans
    # multiply nothing.
    pres = random_chain_presentation(make_rng(11), 2, (4, 5))
    calls = []
    multiply = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(None)
        return multiply(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)

    def products(action) -> int:
        before = len(calls)
        action()
        return len(calls) - before

    cold = fresh(pres)
    peel = products(lambda: (cold._peeled, cold._chain))
    assert cold._peeled[1].generators == 0
    first = products(lambda: [char_poly(pres, i) for i in range(5)])
    again = products(lambda: (
        [char_poly(pres, i) for i in range(5)],
        support_scan(pres, 6),
        fitting_variety_scan(pres, 2, 6),
    ))
    assert (first, again) == (peel, 0)
    assert peel == 3
    # A chain block summed with a random block peels partly.  Its residual's
    # minors are built in the first round; a second round (which multiplies
    # each c_1...c_j by its Delta_{k-j} of the residual again) and both scans
    # build none.
    for seed in (0, 2, 3):
        pres = direct_sum(random_chain_presentation(make_rng(11), 2, (4, 5)),
                          random_presentation(make_rng(seed), 2, shape=(2, 3)))
        rest = pres._peeled[1]
        assert 0 < rest.generators < pres.generators
        assert products(lambda: [char_poly(pres, i) for i in range(7)]) > 0
        built = dict(rest._minor_memo)
        for i in range(7):
            char_poly(pres, i)
        support_scan(pres, 6)
        fitting_variety_scan(pres, 2, 6)
        assert rest._minor_memo == built and built
        assert "_minor_memo" not in vars(pres)


def test_threads_share_a_warm_presentation(monkeypatch):
    # Thread A pauses in its first product until thread B has returned; a
    # char_poly that grew shared state while A was paused would leave a
    # wrong prefix for A and for every later call.  Reading the chain, A
    # may have no product to pause in, and then runs through.
    pres = random_chain_presentation(make_rng(11), 2, (4, 5))
    expected = [char_poly(fresh(pres), i) for i in range(6)]
    assert pres._peeled and pres._chain  # built before either thread starts
    multiply = LaurentPoly.__mul__
    reached, b_done = threading.Event(), threading.Event()
    answers = {}

    def gated(self, other):
        if threading.current_thread() is a and not reached.is_set():
            reached.set()
            b_done.wait(10)
        return multiply(self, other)

    def run(name, i, done):
        answers[name] = char_poly(pres, i)
        done.set()

    monkeypatch.setattr(LaurentPoly, "__mul__", gated)
    a = threading.Thread(target=run, args=("A", 0, reached))
    b = threading.Thread(target=run, args=("B", 2, b_done))
    a.start()
    assert reached.wait(10)
    b.start()
    b.join(10)
    a.join(10)
    assert not (a.is_alive() or b.is_alive())
    assert answers == {"A": expected[0], "B": expected[2]}
    assert [char_poly(pres, i) for i in range(6)] == expected


def test_pickles_and_copies_carry_the_warm_minor_table(monkeypatch):
    pres = random_chain_presentation(make_rng(11), 2, (4, 5))
    names = ["nvars", "generators", "relations", "matrix"]
    assert list(inspect.signature(Presentation).parameters) == names
    assert Presentation._fields == tuple(names)
    fields = {name: getattr(pres, name) for name in names}
    warm = {"_minor_memo", "_peeled", "_chain"}
    assert not warm & vars(pres).keys()
    expected = [char_poly(pres, i) for i in range(5)]
    assert {"_peeled", "_chain"} <= vars(pres).keys()
    cold = Presentation(*fields.values())
    assert cold == pres and hash(cold) == hash(pres) and repr(cold) == repr(pres)
    assert {name: getattr(pres, name) for name in names} == fields
    calls = []
    multiply = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(None)
        return multiply(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    for again in round_trips(pres):
        assert again == pres and hash(again) == hash(pres)
        assert {"_peeled", "_chain"} <= vars(again).keys()
        assert again._chain == pres._chain and len(pres._chain) == 5
        assert [char_poly(again, i) for i in range(5)] == expected
    assert calls == []


def binomial_presentation(seed: int, shape) -> Presentation:
    """A two-variable presentation whose every entry is one binomial
    ``t_i^a - c``."""
    rng = make_rng(seed)
    n, m = shape
    return presentation(2, [
        [random_product(rng, 2, max_factors=1) for _ in range(m)] for _ in range(n)])


@pytest.mark.parametrize("shape, seed, op, answer, products", [
    ((10, 10), 11, lambda pres: char_poly(pres, 5), LaurentPoly.one(2), 384),
    ((6, 20), 0, lambda pres: support_scan(pres, 2), (), 186),
], ids=["charpoly-10x10", "support-6x20"])
def test_a_settled_answer_builds_no_more_minors(monkeypatch, shape, seed, op,
                                                answer, products):
    # The ideals have C(10,5)^2 = 63504 and C(20,6) = 38760 minors.  The gcd
    # reaches 1, and no level-2 point is left where every minor so far
    # vanishes, after a few of them.
    pres = binomial_presentation(seed, shape)
    calls = []
    multiply = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(None)
        return multiply(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    start = time.perf_counter()
    assert op(pres) == answer
    assert time.perf_counter() - start < 2.0
    assert len(calls) == products


def chain_diagonal(seed: int, nvars: int, shape) -> list:
    """The diagonal ``d_1 | d_2 | ...`` of ``random_chain_presentation(
    make_rng(seed), nvars, shape)``, from the same first draws."""
    rng, d, diagonal = make_rng(seed), LaurentPoly.one(nvars), []
    for _ in range(min(shape)):
        d = d * random_binomial_factor(rng, nvars)
        diagonal.append(d)
    return diagonal


@pytest.mark.parametrize("nvars, shape, op", [
    (2, (12, 12), "charpoly"), (2, (12, 12), "fitting"), (1, (6, 30), "support")])
def test_peelable_large_inputs_answer_in_two_seconds(nvars, shape, op):
    # U*D*V with unimodular U and V: Delta_6 = d_1...d_6, and the rank at a
    # point is the number of d_j nonzero there, so the Fitting scan for i = 6
    # (7-minors) and the support (6-minors) are the zeros of d_7 and d_6.
    # Taken minor by minor, the first two ran past a minute.
    pres = random_chain_presentation(make_rng(5), nvars, shape)
    diagonal = chain_diagonal(5, nvars, shape)
    level, i = (4, 6) if op == "fitting" else (3, 1)
    start = time.perf_counter()
    found = (char_poly(pres, 6) if op == "charpoly"
             else fitting_variety_scan(pres, i, level) if op == "fitting"
             else support_scan(pres, level))
    assert time.perf_counter() - start < 2.0
    if op == "charpoly":
        assert found == normalize_unit(reduce(mul, diagonal[:6]))
    else:
        d = diagonal[pres.generators - i]
        grid = list(torsion_grid(level, nvars))
        expected = tuple(pt for pt in grid if evaluate_at_torsion(d, pt).is_zero())
        assert found == expected and 0 < len(expected) < len(grid)


def test_warm_minor_table_is_not_part_of_the_value():
    pres = random_chain_presentation(make_rng(12), 2, (3, 4))
    before = (repr(pres), hash(pres), copy.deepcopy(pres))
    char_poly(pres, 0)
    assert {"_peeled", "_chain"} <= vars(pres).keys()
    assert (repr(pres), hash(pres), pres) == before
    assert pres == fresh(pres) and fresh(pres) == pres
    assert hash(fresh(pres)) == hash(pres)


def peel_kind(pres: Presentation) -> str:
    pivots, rest = pres._peeled
    if not pivots:
        return "none"
    return "full" if 0 in (rest.generators, rest.relations) else "partial"


def with_zero_line(rng, pres: Presentation) -> Presentation:
    """``pres`` with a zero row or a zero column put in at a drawn place."""
    rows = [list(row) for row in pres.matrix]
    zero = LaurentPoly.zero(pres.nvars)
    if rng.random() < 0.5 or not rows:
        rows.insert(rng.randint(0, len(rows)), [zero] * pres.relations)
        return Presentation(pres.nvars, len(rows), pres.relations, tuple(map(tuple, rows)))
    at = rng.randint(0, pres.relations)
    return presentation(pres.nvars, [row[:at] + [zero] + row[at:] for row in rows])


def peel_cases():
    """Explicit cases, then seeded draws of 1-3 variables: random, chain and
    partial presentations, some with a zero line or a row scaled by 2/3."""
    P = parse_poly
    cases = [
        # Delta_1 = 1, yet I_1 vanishes at (1, 1): the gcd chain is no ideal.
        presentation(2, [[P("t1 - 1", 2), P("0", 2)],
                         [P("0", 2), P("t2 - 1", 2)]]),
        # Unit pivots with rational coefficients, m > n and m < n.
        presentation(2, [[P("2*t1", 2), P("t1 - 1", 2), P("t2 + 1", 2)],
                         [P("t2^2 - 1", 2), P("3", 2), P("1/2*t1", 2)]]),
        presentation(1, [[P("t1^2 - 1", 1)], [P("1/3*t1 - 1/3", 1)],
                         [P("t1 + 1", 1)]]),
    ]
    rng = make_rng(25)
    for seed in range(72):
        nvars = 1 + seed % 3
        kind = seed % 4
        if kind == 0:
            shape = (rng.randint(1, 4), rng.randint(0, 4))
            pres = random_presentation(rng, nvars, shape=shape)
        elif kind == 1:
            pres = random_chain_presentation(rng, nvars, (rng.randint(2, 4), rng.randint(2, 4)))
        else:
            shape = (rng.randint(4, 5), rng.randint(4, 5))
            pres = random_partial_presentation(rng, nvars, shape)
        if rng.random() < 0.25:
            pres = with_zero_line(rng, pres)
        if rng.random() < 0.25 and pres.generators:
            rows = [list(row) for row in pres.matrix]
            rows[0] = [F(2, 3) * x for x in rows[0]]
            pres = Presentation(nvars, pres.generators, pres.relations, tuple(map(tuple, rows)))
        cases.append(pres)
    return cases


def test_peel_draws_cover_full_partial_and_no_peel():
    cases = peel_cases()
    kinds = [(peel_kind(pres), pres.nvars) for pres in cases]
    assert {nvars for kind, nvars in kinds if kind == "full"} == {1, 2, 3}
    assert {nvars for kind, nvars in kinds if kind == "partial"} == {1, 2, 3}
    assert {nvars for kind, nvars in kinds if kind == "none"} == {1, 2, 3}
    assert any(pres.generators > pres.relations for pres in cases)
    assert any(not any(row) for pres in cases for row in pres.matrix)
    assert any(not any(col) for pres in cases for col in zip(*pres.matrix))
    assert any(a.is_unit for pres in cases for a in pres._peeled[0])
    assert any(type(c) is Fraction for pres in cases for row in pres.matrix
               for x in row for c in x.terms.values())


def test_peel_matches_the_minors_of_the_unpeeled_matrix():
    # char_poly against the gcd of elementary_ideal's minors, and the scans
    # and in_support against _vanishing of those minors point by point, all
    # on a fresh copy that has not peeled.
    for pres in peel_cases():
        ref = fresh(pres)
        n = pres.generators
        for i in range(-1, n + 2):
            expected = LaurentPoly.zero(pres.nvars)
            for gen in elementary_ideal(ref, i).gens:
                expected = gcd(expected, gen)
            assert char_poly(pres, i) == expected, (pres, i)
        for level in range(1, 4 if pres.nvars == 3 else 7):
            grid = list(torsion_grid(level, pres.nvars))
            for i in range(1, n + 3):
                gens = elementary_ideal(ref, i - 1).gens
                expected = tuple(pt for pt in grid
                                 if am._vanishing(gens, level, [pt.numerators]))
                assert fitting_variety_scan(pres, i, level) == expected, (pres, i, level)
                if i == 1:
                    assert support_scan(pres, level) == expected
                    assert [in_support(pres, pt) for pt in grid] == [
                        pt in expected for pt in grid]


def test_the_gcd_chain_serves_char_poly_only():
    diagonal = peel_cases()[0]
    one = LaurentPoly.one(2)
    assert diagonal._chain == (one, one, parse_poly("t1*t2 - t1 - t2 + 1", 2))
    assert char_poly(diagonal, 1) == LaurentPoly.one(2)
    assert support_scan(diagonal, 1) == (TorsionPoint(1, (0, 0)),)
    assert fitting_variety_scan(diagonal, 2, 2) == (TorsionPoint(2, (0, 0)),)


def diagonal(nvars: int, *texts) -> Presentation:
    """The square diagonal presentation of the parsed ``texts``."""
    zero = LaurentPoly.zero(nvars)
    return presentation(nvars, [
        [parse_poly(text, nvars) if j == i else zero for j in range(len(texts))]
        for i, text in enumerate(texts)])


def walk_cases() -> dict:
    """Presentations whose pivots the chain walk must order and cut right."""
    block = presentation(2, [[parse_poly(x, 2) for x in row] for row in (
        ("t1 + 1", "t2 + 1"), ("t2 - 1", "t1 - 1"))])
    return {
        # Fewest terms peels first: t1^3 - 1 before its divisor.
        "out of span order": diagonal(1, "t1^2 + t1 + 1", "t1^3 - 1"),
        "associates": diagonal(2, "2*t1^-1 - 2", "t1 - 1", "t1*t2 + t1 - t2 - 1"),
        "units": diagonal(2, "3", "1/2*t2", "t1*t2 - 1", "t1^2*t2^2 - 1"),
        "residual behind a chain": direct_sum(
            diagonal(2, "t1 - 1", "t1*t2 - t1 - t2 + 1"), block),
    }


def assert_walk_matches_per_pivot(pres: Presentation, levels) -> None:
    """Every scan of ``pres`` equals the one that tests every pivot."""
    for level in levels:
        for i in range(1, pres.generators + 3):
            with mock.patch.object(am, "_zeros", zeros_per_pivot):
                expected = fitting_variety_scan(pres, i, level)
            assert fitting_variety_scan(pres, i, level) == expected, (pres, i, level)
        with mock.patch.object(am, "_zeros", zeros_per_pivot):
            expected = support_scan(pres, level)
        assert support_scan(pres, level) == expected, (pres, level)


def walk_levels(nvars: int) -> range:
    return range(1, 5 if nvars == 3 else 13)


def test_walk_cases_peel_as_named():
    cases = walk_cases()
    runs = {name: [len(run) for run in pres._runs] for name, pres in cases.items()}
    assert runs == {"out of span order": [2], "associates": [3], "units": [4],
                    "residual behind a chain": [2]}
    assert cases["out of span order"]._peeled[0][0] == parse_poly("t1^2 + t1 + 1", 1)
    assert cases["residual behind a chain"]._peeled[1].generators == 2


@pytest.mark.parametrize("name", list(walk_cases()))
def test_chain_walk_on_named_cases(name):
    pres = walk_cases()[name]
    assert_walk_matches_per_pivot(pres, walk_levels(pres.nvars))


def test_chain_walk_on_peel_cases():
    for pres in peel_cases():
        assert_walk_matches_per_pivot(pres, walk_levels(pres.nvars))


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_chain_walk_on_drawn_presentations(data):
    nvars = data.draw(NVARS)
    rng = make_rng(data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        pres = random_chain_presentation(rng, nvars, (rng.randint(2, 4), rng.randint(2, 4)))
    else:
        pres = random_partial_presentation(rng, nvars, (rng.randint(4, 5), rng.randint(4, 5)))
    assert_walk_matches_per_pivot(pres, walk_levels(pres.nvars))


def test_a_fully_peeled_chain_tests_one_pivot_per_candidate():
    counted = []
    vanishing = am._vanishing

    def counting(gens, level, candidates):
        if type(gens) is tuple:  # a pivot; the residual's minors come as a generator
            counted.append(len(candidates))
        return vanishing(gens, level, candidates)

    chains = [pres for pres in peel_cases() + list(walk_cases().values())
              if peel_kind(pres) == "full" and len(pres._runs) == 1]
    assert {pres.nvars for pres in chains} == {1, 2, 3}
    with mock.patch.object(am, "_vanishing", counting):
        for pres in chains:
            for level in walk_levels(pres.nvars):
                grid = [pt.numerators for pt in torsion_grid(level, pres.nvars)]
                for i in range(1, pres.generators + 3):
                    counted.clear()
                    am._zeros(pres, i, level, grid)
                    assert sum(counted) <= len(grid), (pres, i, level)


def assert_peel_unchanged(pres: Presentation):
    """``_peeled`` on a fresh copy gives the reference's pivots, in its
    order, and its residual, and never divides an entry by itself."""
    expected = reference.peeled(pres)
    divided = []

    def spy(p, q):
        divided.append(p is q)
        return divide_exact(p, q)

    with mock.patch.object(am, "divide_exact", spy):
        pivots, rest = fresh(pres)._peeled
    assert pivots == expected[0], pres
    assert rest == expected[1], pres
    assert not any(divided), pres
    return len(divided)


def test_the_peel_is_the_reference_on_peel_cases():
    for pres in peel_cases():
        assert_peel_unchanged(pres)


@settings(max_examples=60, deadline=None, database=None)
@given(NVARS, st.integers(0, 10**6), st.sampled_from(["random", "chain", "partial"]))
def test_the_peel_is_the_reference_on_drawn_presentations(nvars, seed, kind):
    rng = make_rng(seed)
    if kind == "random":
        pres = random_presentation(rng, nvars, shape=(rng.randint(1, 4), rng.randint(0, 4)))
    elif kind == "chain":
        pres = random_chain_presentation(rng, nvars, (rng.randint(2, 4), rng.randint(2, 4)))
    else:
        pres = random_partial_presentation(rng, nvars, (rng.randint(4, 5), rng.randint(4, 5)))
    assert_peel_unchanged(pres)


def test_the_peel_of_a_golden_presentation_makes_sixteen_divisions():
    # bi_4x5 peels fully in four pivots: 16 divisions, where dividing each
    # candidate by itself in its row and its column made 24.
    with open(os.path.join(GOLDEN_DIR, "bi_4x5.json"), "rb") as handle:
        pres = am.presentation_from_json(handle.read())
    assert assert_peel_unchanged(pres) == 16
    assert len(pres._peeled[0]) == 4 and peel_kind(pres) == "full"


def vanishing_factor(point: TorsionPoint, exps) -> LaurentPoly:
    """``1 + m + ... + m^(d-1)`` for the monomial ``m = t^exps``, where ``m``
    is a primitive d-th root of unity at the point: zero there when d > 1."""
    k = sum(e * n for e, n in zip(exps, point.numerators)) % point.level
    order = point.level // int_gcd(point.level, k)
    m = LaurentPoly(point.nvars, {tuple(exps): 1})
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
    assert in_support(cyclic_module([g]), point) == expected
    h = data.draw(laurent(nvars))
    both = expected and evaluate_at_torsion(h, point).is_zero()
    assert in_support(cyclic_module([g, h]), point) == both


# Level 1; primes and prime powers; two to four primes.  Level 2310 has its
# own test: the reference reduces by Phi_2310 in Fractions, about 2 s a point.
PERIOD_LEVELS = (1, 2, 3, 5, 7, 4, 8, 9, 16, 27, 6, 12, 30, 105, 210)


def period_check_agrees(data, level):
    nvars = data.draw(NVARS)
    nums = tuple(data.draw(st.integers(0, level - 1)) for _ in range(nvars))
    point = TorsionPoint(level, nums)
    g = data.draw(laurent(nvars, lo=-4, hi=4))
    if data.draw(st.booleans()):
        exps = tuple(data.draw(st.integers(-3, 3)) for _ in range(nvars))
        g = g * vanishing_factor(point, exps)
    expected = evaluate_at_torsion(g, point).is_zero()
    assert am._vanishing([g], level, [nums]) == ([nums] if expected else [])


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_period_check_matches_reduction_by_phi_n(data):
    # _vanishing never builds Phi_N; evaluate_at_torsion reduces by it.
    period_check_agrees(data, data.draw(st.sampled_from(PERIOD_LEVELS)))


@settings(max_examples=3, deadline=None, database=None)
@given(st.data())
def test_period_check_matches_reduction_by_phi_n_at_four_primes(data):
    period_check_agrees(data, 2310)


@st.composite
def zero_at(draw, nvars, level, candidates):
    """``c * (m^d - 1)`` for a drawn ``c`` and a monomial ``m`` of order d at
    a drawn candidate: zero there and wherever ``m`` has an order dividing d."""
    point = TorsionPoint(level, draw(st.sampled_from(candidates)))
    exps = draw(st.tuples(*[st.integers(-2, 2)] * nvars).filter(any))
    k = sum(e * n for e, n in zip(exps, point.numerators)) % level
    order = level // int_gcd(level, k)
    m = LaurentPoly(nvars, {tuple(order * e for e in exps): 1})
    return draw(laurent(nvars, max_terms=2)) * (m - 1)


@HYPOTHESIS
@given(st.data())
def test_cover_rule_keeps_exactly_the_common_zeros(data):
    # Generators that divide one another: each one that _vanishing tests
    # narrows the candidates to its zeros, whatever the order.  Here d, its
    # multiples d*q and d*q2 and an unrelated c come in a drawn order, and
    # the reference evaluates every generator at every candidate.
    nvars = data.draw(NVARS)
    level = data.draw(st.sampled_from(PERIOD_LEVELS))
    nums = st.tuples(*[st.integers(0, level - 1)] * nvars)
    candidates = data.draw(st.lists(nums, min_size=1, max_size=24, unique=True))
    d, q, q2, c = (data.draw(zero_at(nvars, level, candidates)) for _ in range(4))
    gens = data.draw(st.permutations([d, d * q, c, d * q2]))
    expected = {
        point for point in candidates
        if all(evaluate_at_torsion(g, TorsionPoint(level, point)).is_zero()
               for g in gens)
    }
    assert set(am._vanishing(gens, level, candidates)) == expected


@pytest.mark.parametrize("level", [1, 2, 12, 30, 105, 210, 2310, 9999])
def test_phi_n_vanishes_exactly_at_the_primitive_points(level):
    phi = cyclotomic_poly(level)
    cyc = cyclic_module([LaurentPoly(1, {(e,): c for e, c in enumerate(phi) if c})])
    assert [pt.numerators for pt in support_scan(cyc, level)] == [
        (n,) for n in range(level) if int_gcd(n, level) == 1]
    # One numerator per (Z/N)^x orbit, each decided on its own.
    reps = [(d % level,) for d in divisors(level)]
    assert am._vanishing(cyc.matrix[0], level, reps) == [(1 % level,)]


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


@st.composite
def scan_ideal(draw, nvars, level):
    """Generators with rational coefficients: none (the zero ideal), a unit
    among them (the full ring), or products with ``vanishing_factor`` at
    drawn points, so that part of some orbits lies in the variety."""
    kind = draw(st.sampled_from(["zero", "full", "vanishing", "vanishing"]))
    if kind == "zero":
        return []
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        g = draw(laurent(nvars, max_terms=2))
        for _ in range(draw(st.integers(0 if kind == "full" else 1, 2))):
            nums = tuple(draw(st.integers(0, level - 1)) for _ in range(nvars))
            exps = tuple(draw(st.integers(-2, 2)) for _ in range(nvars))
            g = g * vanishing_factor(TorsionPoint(level, nums), exps)
        gens.append(g)
    if kind == "full":
        exps = tuple(draw(st.integers(-2, 2)) for _ in range(nvars))
        unit = LaurentPoly(nvars, {exps: F(2, 3)})
        gens.insert(draw(st.integers(0, len(gens))), unit)
    return gens


@HYPOTHESIS
@given(st.data())
def test_orbit_scans_match_the_per_point_test(data):
    # The scans decide one point per (Z/N)^x orbit; the reference decides
    # every point of the grid on its own (``in_support`` of the cyclic module
    # on the ideal's generators), in the grid's lexicographic order.
    nvars = data.draw(NVARS)
    level = data.draw(st.integers(1, 6 if nvars == 3 else 30))
    first = cyclic_module(data.draw(scan_ideal(nvars, level)), nvars)
    # Ideal 1 of the direct sum is generated by both ideals' generators.
    pres = direct_sum(first, cyclic_module(data.draw(scan_ideal(nvars, level)), nvars))
    grid = list(torsion_grid(level, nvars))
    for module, k, found in ((first, 0, support_scan(first, level)),
                             (pres, 1, fitting_variety_scan(pres, 2, level)),
                             (pres, 2, fitting_variety_scan(pres, 3, level))):
        cyc = cyclic_module(elementary_ideal(module, k).gens, nvars)
        assert found == tuple(pt for pt in grid if in_support(cyc, pt))


@HYPOTHESIS
@given(st.data())
def test_a_warm_orbit_table_answers_as_a_cold_one(data):
    # A sequence of scans whose levels repeat, run once with the orbit
    # tables cleared before each scan and once in a row, so that later scans
    # read tables that earlier ones left; both equal the per-point test.
    nvars = data.draw(NVARS)
    levels = data.draw(st.lists(st.integers(1, 4 if nvars == 3 else 12),
                                min_size=1, max_size=3))
    scans = []
    for _ in range(data.draw(st.integers(2, 5))):
        level = data.draw(st.sampled_from(levels))
        first = cyclic_module(data.draw(scan_ideal(nvars, level)), nvars)
        pres = direct_sum(first, cyclic_module(data.draw(scan_ideal(nvars, level)), nvars))
        module, i = data.draw(st.sampled_from([(first, 1), (pres, 1), (pres, 2), (pres, 3)]))
        scans.append((module, i, level))

    def scan(module, i, level):
        return (support_scan(module, level) if i == 1
                else fitting_variety_scan(module, i, level))

    cold = []
    for module, i, level in scans:
        am._orbits.cache_clear()
        cold.append(scan(module, i, level))
    am._orbits.cache_clear()
    warm = [scan(*args) for args in scans]
    assert am._orbits.cache_info().misses == len({level for *_, level in scans})
    assert warm == cold
    for (module, i, level), found in zip(scans, warm):
        cyc = cyclic_module(elementary_ideal(module, i - 1).gens, nvars)
        assert found == tuple(pt for pt in torsion_grid(level, nvars) if in_support(cyc, pt))


@pytest.mark.parametrize("level, nvars", [(1, 1), (1, 3), (2, 3), (7, 1), (12, 1), (12, 2),
                                          (9, 2), (4, 3), (6, 3)])
def test_orbit_tables_are_the_orbits_of_the_units(level, nvars):
    reps, orbit_of = am._orbits(level, nvars)
    assert type(reps) is tuple and type(orbit_of) is tuple
    assert all(type(nums) is tuple for nums in reps)
    grid = [pt.numerators for pt in torsion_grid(level, nvars)]
    units = [u for u in range(1, level + 1) if int_gcd(u, level) == 1]
    orbits = {nums: min(tuple(u * n % level for n in nums) for u in units) for nums in grid}
    assert reps == tuple(sorted(set(orbits.values())))
    assert len(orbit_of) == len(grid)
    assert [reps[k] for k in orbit_of] == [orbits[nums] for nums in grid]


@pytest.mark.parametrize("level, nvars", [(0, 1), (-3, 2), (lr.MAX_SCAN_POINTS + 1, 1),
                                          (317, 2)])
def test_an_orbit_table_is_built_only_for_a_grid_that_passes(level, nvars):
    pres = cyclic_module([parse_poly("t1 - 1", nvars)], nvars)
    am._orbits.cache_clear()
    with pytest.raises(LimitError):
        am._scan(pres, 1, level)
    with pytest.raises(LimitError):
        am._scan(cyclic_module([LaurentPoly.one(nvars)], nvars), 1, level)
    assert am._orbits.cache_info().currsize == 0


def test_the_orbit_tables_keep_at_most_their_bound():
    assert am._orbits.cache_info().maxsize == am.MAX_ORBIT_TABLES == 16
    am._orbits.cache_clear()
    pres = cyclic_module([parse_poly("t1 - 1", 1)], 1)
    for level in range(1, 2 * am.MAX_ORBIT_TABLES + 1):
        assert am._scan(pres, 1, level) == [0]
        assert am._orbits.cache_info().currsize == min(level, am.MAX_ORBIT_TABLES)
    am._orbits(2 * am.MAX_ORBIT_TABLES, 1)
    assert am._orbits.cache_info().hits == 1


# ---------------------------------------------------------------------------
# Results built with the trusted constructor are as clean as public ones.

OPS = st.sampled_from(["+", "-", "*", "**", "shift", "neg"])


def assert_clean(p: LaurentPoly):
    for exps, coeff in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.nvars
        assert all(type(e) is int for e in exps)
        assert type(coeff) in (int, Fraction) and coeff != 0
        assert type(coeff) is int or coeff.denominator != 1, p.terms  # int when integral
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


# ---------------------------------------------------------------------------
# Coefficients are ints when integral, Fractions otherwise, never floats.

EXACT_OPS = st.sampled_from(
    ["+", "-", "*", "**", "shift", "divide_exact", "normalize_unit", "gcd"]
)


@st.composite
def mixed_laurent(draw, nvars, integral):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = tuple(draw(st.integers(-2, 2)) for _ in range(nvars))
        num = draw(st.integers(-4, 4).filter(bool))
        den = 1 if integral else draw(st.sampled_from([1, 2, 3]))
        # The public constructor stores F(4, 2) as the int 2.
        terms[exps] = F(num, den) if den > 1 or draw(st.booleans()) else num
    return LaurentPoly(nvars, terms) or LaurentPoly.one(nvars)


def assert_exact(p: LaurentPoly, integral: bool):
    assert_clean(p)
    if integral:
        assert all(type(c) is int for c in p.terms.values()), p.terms


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_coefficients_are_int_or_fraction_never_float(data):
    nvars = data.draw(PRS_NVARS)
    integral = data.draw(st.booleans())
    p = data.draw(mixed_laurent(nvars, integral))
    for op in data.draw(st.lists(EXACT_OPS, min_size=1, max_size=6)):
        q = data.draw(mixed_laurent(nvars, integral))
        if op == "+":
            p = p + q
        elif op == "-":
            p = p - (q if data.draw(st.booleans()) else p)
        elif op == "*":
            p = p * q
        elif op == "**":
            n = data.draw(st.integers(-2 if p.is_unit else 0, 2 if len(p.terms) <= 4 else 1))
            if n < 0 and abs(next(iter(p.terms.values()))) != 1:
                integral = False
            power = p ** n
            if n < 0:
                assert power * p ** -n == 1
            p = power
        elif op == "shift":
            p = p.shifted(data.draw(shifts(nvars)))
        elif op == "divide_exact":
            quot = divide_exact(p * q, q)
            assert quot == p
            p = quot
        else:
            p = normalize_unit(p) if op == "normalize_unit" else gcd(p, q)
            assert_exact(p, True)
        assert_exact(p, integral)
        if len(p.terms) > 16:
            p = q  # keep the gcds below cheap


def test_coefficient_types_on_explicit_cases():
    t1 = parse_poly("t1", 1)
    half = divide_exact(t1 + 1, 2 * t1 + 2)
    assert half.terms == {(0,): F(1, 2)} and type(half.terms[(0,)]) is Fraction
    inv = (2 * t1) ** -1
    assert inv.terms == {(-1,): F(1, 2)} and type(inv.terms[(-1,)]) is Fraction
    assert ((-3 * t1) ** -2).terms == {(-2,): F(1, 9)}
    two = parse_poly("4/2*t1", 1)
    assert two.terms == {(1,): 2} and type(two.terms[(1,)]) is int
    for value in (True, F(6, 3), 2):
        (c,) = LaurentPoly(1, {(0,): value}).terms.values()
        assert type(c) is int
    assert_exact(t1 ** -3, True)
    assert_exact(divide_exact(t1 ** 2 - 1, t1 + 1), True)
    assert_exact(normalize_unit(parse_poly("1/2*t - 3/4", 1)), True)
    assert normalize_unit(parse_poly("1/2*t - 3/4", 1)).terms == {(1,): 2, (0,): -3}
    # Fraction arithmetic gives integral values typed Fraction; the ring
    # operations store them as ints.
    half = parse_poly("1/2*t + 1/2", 1)
    doubled = half * 2
    assert doubled.terms == {(1,): 1, (0,): 1}
    assert_exact(doubled, True)
    assert_exact(normalize_unit(doubled), True)
    for value, terms in (
        (half * (t1 + 1), {(2,): F(1, 2), (1,): 1, (0,): F(1, 2)}),
        (half + parse_poly("1/2*t", 1), {(1,): 1, (0,): F(1, 2)}),
        (half - F(-1, 2), {(1,): F(1, 2), (0,): 1}),
        (F(1, 2) - half, {(1,): F(-1, 2)}),
        (LaurentPoly(1, {("1",): F(1, 2), (1,): F(1, 2)}), {(1,): 1}),  # one exponent, twice
    ):
        assert value.terms == terms
        assert_clean(value)
    # A minor sums its Laplace terms itself: -1/2*t - 1/2*t is the int -1 there too.
    one = LaurentPoly.one(1)
    minor = presentation(1, [[half - F(1, 2), half - F(1, 2)], [one, -one]]).minors((0, 1), (0, 1))
    assert minor.terms == {(1,): -1}
    assert_clean(minor)
    assert_exact(gcd(doubled, t1 ** 2 - 1), True)
    # Plain Euclid on these divides 1 by 4 at its second step: a float if
    # that ran between two ints.
    g = gcd(parse_poly("t - 1", 1) ** 3 * parse_poly("t + 1", 1),
            parse_poly("t^4 + 2*t^3 - t^2 - 4*t - 2", 1))
    assert g == parse_poly("t + 1", 1)
    assert_exact(g, True)


# ---------------------------------------------------------------------------
# The canonical form against sympy's graded-lex order.


def grlex_leading_coefficient(p: LaurentPoly):
    return ordinary_poly(p).LC(order="grlex")


@st.composite
def normal_form_input(draw):
    """A polynomial with negative exponents, ``int`` or ``Fraction``
    coefficients, and, when drawn, two terms of one top total degree: the
    lex-larger of the two negative."""
    nvars = draw(st.integers(1, 3))
    den = st.sampled_from([1]) if draw(st.booleans()) else st.sampled_from([1, 2, 3, 6])
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = tuple(draw(st.integers(-3, 2)) for _ in range(nvars))
        terms[exps] = F(draw(st.integers(-12, 12).filter(bool)), draw(den))
    if nvars > 1 and draw(st.booleans()):
        # Every other term has total degree at most 2 * nvars < 3 * nvars + 1.
        i, j = sorted(draw(st.lists(st.integers(0, nvars - 1), min_size=2, max_size=2,
                                    unique=True)))
        top = [3] * nvars
        larger, smaller = list(top), list(top)
        larger[i] += 1
        smaller[j] += 1
        terms[tuple(larger)] = -F(draw(st.integers(1, 6)), draw(den))
        terms[tuple(smaller)] = F(draw(st.integers(1, 6)), draw(den))
    return LaurentPoly(nvars, terms)


@HYPOTHESIS
@given(normal_form_input(), st.integers(-2, 2), st.sampled_from([1, -1, 2, F(-3, 2)]))
def test_normalize_unit_is_sympys_grlex_normal_form(p, shift, scale):
    ours = normalize_unit(p)
    assert all(min(column) == 0 for column in zip(*ours.terms))
    assert all(type(c) is int for c in ours.terms.values())
    assert int_gcd(*ours.terms.values()) == 1
    assert grlex_leading_coefficient(ours) > 0
    assert same_unit_class(ours, ordinary_poly(p))
    unit = LaurentPoly(p.nvars, {(shift,) * p.nvars: scale})
    assert normalize_unit(p * unit) == ours


def test_normalize_unit_leads_with_graded_lex_not_lex():
    # Lex would lead with t1 in the first two; graded-lex leads with t2^2,
    # and with t1 of the tied t1, t2.  The third shifts and clears a Fraction.
    for text, normal in (("t1 - t2^2", "t2^2 - t1"), ("t2 - t1", "t1 - t2"),
                         ("t1^-1*t2 - t1^-1*t3^2 + 1/2*t1^3", "t1^4 - 2*t3^2 + 2*t2")):
        nvars = 3 if "t3" in text else 2
        ours = normalize_unit(parse_poly(text, nvars))
        assert ours == parse_poly(normal, nvars)
        assert grlex_leading_coefficient(ours) > 0


# ---------------------------------------------------------------------------
# Cyclotomic factoring of univariate charpolys and Milnor roots.

FACTOR = re.compile(r"\(([^()]*)\)(?:\^(\d+))?")
T = sympy.Symbol("t")


def integer_poly(p: LaurentPoly) -> sympy.Poly:
    """A univariate polynomial with ``int`` coefficients as a sympy one."""
    return sympy.Poly.from_dict({e: int(c) for (e,), c in p.terms.items()}, T)


def printed_factors(text: str) -> list:
    """``(base, power)`` pairs of a parenthesized ``format_charpoly`` text,
    each base parsed back with ``parse_poly``."""
    matches = list(FACTOR.finditer(text))
    assert "*".join(m.group() for m in matches) == text
    return [(integer_poly(parse_poly(m.group(1), 1)), int(m.group(2) or 1))
            for m in matches]


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.lists(st.tuples(st.integers(1, 60), st.integers(1, 2)), max_size=3),
    st.lists(st.integers(-5, 5), max_size=5),
    st.sampled_from([1, -1, 2, -3, F(1, 2), F(-2, 3)]),
    st.integers(-4, 4),
)
@example([(1, 1), (2, 1)], [], 1, 0)  # t^2 - 1, one complete group
@example([(1, 2), (2, 1), (3, 1)], [1, 1], 1, 0)  # Phi_2 again inside g
@example([(4, 1)], [0, 2, 0, 2], -3, 2)  # Phi_4 again inside g
@example([], [1, 0, 3], 1, 0)  # no cyclotomic factor
@example([], [7], -1, 0)  # a unit: prints "1"
def test_format_charpoly_factors_match_sympy(cyclotomic, g, unit, shift):
    f = sympy.Poly(g[::-1] if any(g) else [1], T) * sympy.Rational(
        unit.numerator, unit.denominator)
    for k, m in cyclotomic:
        f *= sympy.cyclotomic_poly(k, T, polys=True) ** m
    poly = LaurentPoly(1, {(e + shift,): F(int(c.p), int(c.q))
                           for (e,), c in f.terms()})
    normal = integer_poly(normalize_unit(poly))
    text = format_charpoly(poly)
    # sympy's split of the normal form: its cyclotomic irreducible factors,
    # and the product of the others (1 when there are none).
    content, irreducibles = sympy.factor_list(normal)
    cyclotomic_part = sympy.Poly(1, T)
    rest = sympy.Poly(content, T)
    for p, m in irreducibles:
        if p.is_cyclotomic:
            cyclotomic_part *= p ** m
        else:
            rest *= p ** m
    if "(" not in text:  # the rest alone, printed bare
        assert cyclotomic_part.is_one
        assert integer_poly(parse_poly(text, 1)) == rest
        return
    factors = printed_factors(text)
    if not rest.is_one:  # printed last, in parentheses
        assert factors.pop() == (rest, 1)
    product = sympy.Poly(1, T)
    for base, power in factors:
        assert base.is_cyclotomic or base == sympy.Poly(T ** base.degree() - 1, T)
        product *= base ** power
    assert product == cyclotomic_part


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.lists(st.tuples(st.integers(1, 60), st.integers(1, 2)), max_size=3),
    st.integers(1, 3),
    st.lists(st.integers(-5, 5), max_size=4),
)
@example([], 1, [])  # t - 2 alone, printed bare
@example([(1, 1), (2, 1), (6, 2)], 2, [1, 1])  # Phi_2 again inside g
def test_factor_cyclotomic_with_a_root_at_two(cyclotomic, twos, g):
    # f(2) = 0, so Phi_k(2) divides f(2) for every k: the pre-test lets
    # every trial division through, and the divisions alone decide.
    f = sympy.Poly(T - 2, T) ** twos
    if any(g):
        f *= sympy.Poly(g[::-1], T)
    for k, m in cyclotomic:
        f *= sympy.cyclotomic_poly(k, T, polys=True) ** m
    f = f.primitive()[1]
    if f.LC() < 0:
        f = -f
    text = factor_cyclotomic([int(c) for c in reversed(f.all_coeffs())])
    if "(" in text:
        factors = printed_factors(text)
    else:
        factors = [(integer_poly(parse_poly(text, 1)), 1)]
    rest, power = factors.pop()  # printed last: it holds every t - 2
    assert power == 1 and rest.eval(2) == 0
    assert not any(p.is_cyclotomic for p, _ in sympy.factor_list(rest)[1])
    product = rest
    for base, power in factors:
        assert base.is_cyclotomic or base == sympy.Poly(T ** base.degree() - 1, T)
        product *= base ** power
    assert product == f


def test_cyclotomic_indices_match_a_totient_sieve():
    # The reference sieves totients up to max(6, d^2), which holds every k
    # with phi(k) <= d, since phi(k) >= sqrt(k) for k > 6.
    top = 600
    phi = list(range(top * top + 1))
    for p in range(2, len(phi)):
        if phi[p] == p:
            for k in range(p, len(phi), p):
                phi[k] -= phi[k] // p
    small = [(k, f) for k, f in enumerate(phi) if 1 <= k and f <= top]
    for degree in range(1, top + 1):
        expected = [(k, f) for k, f in small
                    if f <= degree and k <= max(6, degree * degree)]
        assert _cyclotomic_indices(degree) == expected, degree


def primitive_order(k: int, order: int) -> int:
    """The least ``d`` with ``d * k = 0 mod order``: the order of the root
    ``exp(2 pi i k / order)``."""
    return next(d for d in range(1, order + 1) if d * k % order == 0)


def brute_multiplicity_by_root_order(order: int, multiplicities) -> dict | None:
    classes = {}
    for k, m in enumerate(multiplicities):
        classes.setdefault(primitive_order(k, order), set()).add(m)
    if any(len(values) > 1 for values in classes.values()):
        return None
    return {d: values.pop() for d, values in classes.items()}


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.integers(1, 120),
    st.lists(st.integers(0, 3), min_size=120, max_size=120),
    st.none() | st.tuples(st.integers(0, 119), st.integers(1, 2)),
)
@example(6, [1] * 120, (4, 1))  # 2/6 and 4/6 both have order 3: unequal
@example(12, [2, 1, 0, 3, 0, 1] + [0] * 114, None)  # one value per class
def test_multiplicity_by_root_order_matches_brute_grouping(order, by_class, bump):
    """Multiplicities constant on each class of roots of one order, and
    with ``bump`` one root moved off its class's multiplicity."""
    multiplicities = [by_class[primitive_order(k, order) - 1] for k in range(order)]
    if bump is not None:
        multiplicities[bump[0] % order] += bump[1]
    poly = MonodromyPolynomial(order, tuple(multiplicities))
    assert poly.multiplicity_by_root_order() == brute_multiplicity_by_root_order(
        order, multiplicities)


def test_monodromy_and_charpoly_printers_agree():
    # A multiplicity vector constant on primitive classes is the product of
    # Phi_d^m_d over the divisors d of the order; factored_str prints it from
    # the multiplicities, factor_cyclotomic from the expanded coefficients.
    rng = make_rng(17)
    for _ in range(400):
        order = rng.randint(1, 60)
        by_order = {d: rng.choice((0, 0, 1, 1, 2, 3))
                    for d in sympy.divisors(order)}
        poly = MonodromyPolynomial(order, tuple(
            by_order[primitive_order(k, order)] for k in range(order)))
        product = sympy.Poly(1, T)
        for d, m in by_order.items():
            product *= sympy.cyclotomic_poly(d, T, polys=True) ** m
        coeffs = [int(c) for c in reversed(product.all_coeffs())]
        assert poly.factored_str() == factor_cyclotomic(coeffs), by_order
