"""The braid arrangement A3 in the decone chart, against the literature.

With the affine lines x=0, x=1, y=0, y=1, x=y numbered 1..5 and the sixth
line at infinity, ``V_1`` is five 2-dimensional subtori through 1
(D. C. Cohen and A. I. Suciu, "Characteristic varieties of arrangements",
Math. Proc. Cambridge Philos. Soc. 127, 1999): one local component for each
of the four triple points, two affine and two at infinity, and the non-local
one that pairs the lines of the three double points.  The Milnor fiber has
``Delta_1 = (t-1)^5 (t^2+t+1)`` (D. C. Cohen and A. I. Suciu, "On Milnor
fibrations of arrangements", J. London Math. Soc., 1995).
"""

from __future__ import annotations

from itertools import product

import pytest

from alexinv.aomoto_complex import betti_vector
from alexinv.invariant_pipeline import charvar_scan, milnor_charpoly, scenario_from_dict
from alexinv.residue_systems import grid_shifts
from arrangements import a3_decone
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
