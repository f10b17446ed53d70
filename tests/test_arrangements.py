"""Line arrangements against the literature.

The braid arrangement A3 in the decone chart: with the affine lines x=0,
x=1, y=0, y=1, x=y numbered 1..5 and the sixth line at infinity, ``V_1`` is
five 2-dimensional subtori through 1
(D. C. Cohen and A. I. Suciu, "Characteristic varieties of arrangements",
Math. Proc. Cambridge Philos. Soc. 127, 1999): one local component for each
of the four triple points, two affine and two at infinity, and the non-local
one that pairs the lines of the three double points.  The Milnor fiber has
``Delta_1 = (t-1)^5 (t^2+t+1)`` (D. C. Cohen and A. I. Suciu, "On Milnor
fibrations of arrangements", J. London Math. Soc., 1995).

A3 in the generic chart has the same five subtori, now in six parameters.
Every point ``p`` of ``m >= 3`` lines gives the local subtorus
``{t_j = 1 off p, prod_{j in p} t_j = 1}``, on which ``dim H^1 >= m - 2``
(Cohen-Suciu 1999; A. Libgober and S. Yuzvinsky, "Cohomology of the
Orlik-Solomon algebras and local systems", Compositio Math. 121, 2000).
For the non-Fano arrangement that inclusion is pinned, and that its one
inconclusive point at level 2 lies on all three of its braid subtori (each
from a copy of A3 among its lines).  Scenarios of six or more parameters
walk the shift order lazily at the default bound.
"""

from __future__ import annotations

from itertools import product

import pytest

from alexinv.aomoto_complex import betti_vector
from alexinv.invariant_pipeline import charvar_scan, milnor_charpoly, scenario_from_dict
from alexinv.residue_systems import grid_shifts
from arrangements import A3_GENERIC, NON_FANO, a3_decone, a3_generic, generic_lines_11, non_fano
from test_invariant_pipeline import assert_milnor_bookkeeping


@pytest.fixture(scope="module")
def a3():
    return scenario_from_dict(a3_decone())


def v1_components(level: int) -> set:
    """Numerators of the level-N points of the five subtori of ``V_1``,
    written with no ``alexinv`` code."""
    def on(n1, n2, n3, n4, n5):
        return any([
            # The affine triple points {1,3,5} and {2,4,5}.
            n2 == n4 == 0 and (n1 + n3 + n5) % level == 0,
            n1 == n3 == 0 and (n2 + n4 + n5) % level == 0,
            # The triple points at infinity, {1,2,inf} and {3,4,inf}.
            n3 == n4 == n5 == 0,
            n1 == n2 == n5 == 0,
            # The double points {1,4}, {2,3} and {5,inf}: t1 = t4,
            # t2 = t3, t5 = t_inf, and t1 t2 t5 = 1.
            n1 == n4 and n2 == n3 and (n1 + n2 + n5) % level == 0,
        ])

    return {nums for nums in product(range(level), repeat=5) if on(*nums)}


def test_a3_decone_betti_and_milnor_polynomials(a3):
    assert betti_vector(a3.algebra) == (1, 5, 6)
    assert [milnor_charpoly(a3, m).factored_str() for m in range(3)] == [
        "(t-1)", "(t-1)^4*(t^3-1)", "(t-1)^3*(t^3-1)*(t^6-1)^2"]
    # 1 - 7 + 18 = 6 * (1 - 5 + 6).
    assert_milnor_bookkeeping(a3)


@pytest.mark.parametrize("level", [2, 3, 4, 6])
def test_a3_decone_first_characteristic_variety(a3, level):
    scan = charvar_scan(a3, level, 1)
    assert not scan.inconclusive
    jumps = v1_components(level) - {(0,) * 5}
    assert len(jumps) == 5 * (level ** 2 - 1)
    assert {p.numerators for p in scan.by_dimension[1]} == jumps
    assert [p.numerators for p in scan.by_dimension[5]] == [(0,) * 5]
    assert set(scan.by_dimension) == {0, 1, 5}


def test_a3_decone_rows_at_infinity_block_no_search(a3):
    # A row at infinity, -(sum of the alpha_j off its lines), is <= 0 at the
    # zero shift, and the shifts that the other rows force leave it off the
    # positive integers: without it the search picks the same shift at
    # every point, so the row changes no answer.
    rows = [row.coeffs for row in a3.residue_system.rows]
    at_infinity = [r for r, row in enumerate(a3.residue_system.rows)
                   if row.label.startswith("Einf")]
    assert len(at_infinity) == 2
    for level in range(2, 7):
        shifts = grid_shifts(rows, level, 5, 3)
        for r in at_infinity:
            assert grid_shifts(rows[:r] + rows[r + 1:], level, 5, 3) == shifts


@pytest.fixture(scope="module")
def a3_gen():
    return scenario_from_dict(a3_generic())


def v1_generic_components(level: int) -> set:
    """:func:`v1_components` in the generic chart, whose lines 1..6 are
    x_i = x_j for ij = 12, 13, 14, 23, 24, 34."""
    def on(n1, n2, n3, n4, n5, n6):
        return any([
            # The triple points {12,13,23}, {12,14,24}, {13,14,34} and {23,24,34}.
            n3 == n5 == n6 == 0 and (n1 + n2 + n4) % level == 0,
            n2 == n4 == n6 == 0 and (n1 + n3 + n5) % level == 0,
            n1 == n4 == n5 == 0 and (n2 + n3 + n6) % level == 0,
            n1 == n2 == n3 == 0 and (n4 + n5 + n6) % level == 0,
            # The double points {12,34}, {13,24} and {14,23}: t12 = t34,
            # t13 = t24, t14 = t23, and t12 t13 t14 = 1.
            n1 == n6 and n2 == n5 and n3 == n4 and (n1 + n2 + n3) % level == 0,
        ])

    return {nums for nums in product(range(level), repeat=6) if on(*nums)}


def local_components(nlines: int, points, level: int) -> set:
    """Numerators of the level-N points of the local subtori, one for each
    point of three or more lines, written with no ``alexinv`` code."""
    return {
        tuple(dict(zip(point, values)).get(j, 0) for j in range(1, nlines + 1))
        for point in points if len(point) >= 3
        for values in product(range(level), repeat=len(point)) if sum(values) % level == 0
    }


def braid_components(nlines: int, points, level: int) -> dict:
    """Numerators of the level-N points of the braid subtori, keyed by the
    line that each one's subarrangement drops, written with no ``alexinv``
    code.  A subarrangement of all lines but one is a braid arrangement when
    its points are four triple points and three double points; on its
    subtorus ``t_a = t_b`` for each double point ``{a, b}``, the product over
    one line of each double point is 1, and so are the dropped line and
    ``t_inf = (t_1 ... t_n)^-1``."""
    components = {}
    for dropped in range(1, nlines + 1):
        kept = [tuple(j for j in point if j != dropped) for point in points]
        doubles = [point for point in kept if len(point) == 2]
        if (sum(len(point) == 3 for point in kept), len(doubles)) != (4, 3):
            continue
        components[dropped] = {
            nums for nums in product(range(level), repeat=nlines)
            if nums[dropped - 1] == 0 and sum(nums) % level == 0
            and all(nums[a - 1] == nums[b - 1] for a, b in doubles)
            and sum(nums[a - 1] for a, _ in doubles) % level == 0
        }
    return components


def test_a3_generic_betti_and_milnor_polynomials(a3_gen):
    assert betti_vector(a3_gen.algebra) == (1, 6, 11)
    assert [milnor_charpoly(a3_gen, m).factored_str() for m in range(3)] == [
        "(t-1)", "(t-1)^6", "(t-1)^5*(t^7-1)^6"]
    # 1 - 6 + 47 = 7 * (1 - 6 + 11).
    assert_milnor_bookkeeping(a3_gen)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_a3_generic_first_characteristic_variety(a3_gen, level):
    scan = charvar_scan(a3_gen, level, 1)
    assert not scan.inconclusive
    jumps = v1_generic_components(level) - {(0,) * 6}
    assert len(jumps) == 5 * (level ** 2 - 1)
    assert local_components(6, A3_GENERIC["points"], level) <= v1_generic_components(level)
    assert {p.numerators for p in scan.by_dimension[1]} == jumps
    assert [p.numerators for p in scan.by_dimension[6]] == [(0,) * 6]
    assert set(scan.by_dimension) == {0, 1, 6}
    # Bound 2 picks the same shift at every point, so it has the same
    # buckets and no inconclusive point either.
    rows = [row.coeffs for row in a3_gen.residue_system.rows]
    assert grid_shifts(rows, level, 6, 2) == grid_shifts(rows, level, 6, 3)


@pytest.mark.parametrize("level", [2, 3])
def test_non_fano_local_components_lie_in_v1(level):
    # Seven parameters: the default bound's box has 7^7 shifts, more than
    # a search's budget.
    scan = charvar_scan(scenario_from_dict(non_fano()), level, 1)
    jumps = {p.numerators for dim, found in scan.by_dimension.items() if dim >= 1
             for p in found}
    assert local_components(7, NON_FANO["points"], level) <= jumps
    if level == 2:
        # Lines 2, 4, 5, 6 at 1/2 make all six triple rows 1 and Linf -2;
        # no integer shift clears them all, so the search spends its budget
        # and the point is reported inconclusive, in no bucket.
        assert [p.numerators for p in scan.inconclusive] == [(0, 1, 0, 1, 1, 1, 0)]
        assert all((0, 1, 0, 1, 1, 1, 0) not in {p.numerators for p in found}
                   for found in scan.by_dimension.values())
        # The point lies on all three braid subtori, those of the
        # subarrangements that drop line 1, 3 or 7.
        braids = braid_components(7, NON_FANO["points"], level)
        assert sorted(braids) == [1, 3, 7]
        assert all((0, 1, 0, 1, 1, 1, 0) in found and len(found) == level ** 2
                   for found in braids.values())


def test_eleven_generic_lines():
    lines = scenario_from_dict(generic_lines_11())
    scan = charvar_scan(lines, 2, 1)
    assert not scan.inconclusive
    assert {dim: len(found) for dim, found in scan.by_dimension.items()} == {0: 2047, 11: 1}
    assert [milnor_charpoly(lines, m).factored_str() for m in (1, 2)] == [
        "(t-1)^11", "(t-1)^10*(t^12-1)^45"]
