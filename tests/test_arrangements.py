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

Deleted B3 in the decone chart is where the method must abstain.  Its
characteristic variety has a component that is a translated subtorus, off
every subtorus through 1 (A. I. Suciu, "Translated tori in the
characteristic varieties of complex hyperplane arrangements", Topology
Appl. 118, 2002).  The exponential of a resonance component is a subtorus
through 1, so a point of the translated one has no admissible residue
representative, and "inconclusive" is the only correct output there.  The
family ``C = (t, -1/t, -1, -1/t, t, t^2, t^-2)`` pinned below is not checked
against the paper's coordinates: the pin rests on the argument above and on
a swap check.  With ``t^2`` and ``t^-2`` swapped, the search finds a
representative at the level-6 points with ``t``'s numerator 1, 2, 4 or 5,
and they read ``dim H^1 = 0``.  Dropping the row
``Einf367``, ``E157`` or ``E123`` turns the inconclusive points of ``C``
into answers, and these tests fail.  Its lattice, computed here from the
lines' normals, has one quadruple and six triple points and five braid
subarrangements; at levels 2 and 4 the conclusive points that jump are
exactly those on these 12 subtori through 1 (Cohen-Suciu 1999), and the
level-4 points of ``C`` lie on none of them.  Reading a shift that the
search did not find as the zero shift turns those points into answers.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from itertools import combinations, product

import pytest

from alexinv.aomoto_complex import betti_vector
from alexinv.cli import main
from alexinv.constructions import charvar_scan
from alexinv.invariant_pipeline import milnor_charpoly, scenario_from_dict
from alexinv.residue_systems import grid_shifts
from arrangements import (
    A3_GENERIC,
    DELETED_B3_DECONE,
    NON_FANO,
    a3_decone,
    a3_generic,
    deleted_b3_decone,
    deleted_b3_generic,
    generic_lines_11,
    non_fano,
)
from test_galois_orbits import orbit_conflicts, scan_dims
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


@pytest.fixture(scope="module")
def deleted_b3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("deleted_b3") / "deleted_b3.json"
    path.write_text(json.dumps(deleted_b3_decone()), encoding="utf-8")
    return str(path)


def json_report(capsys, *argv):
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture(scope="module")
def deleted_b3_charvar(deleted_b3_file):
    """The exit code and JSON report of ``charvar --degree 1`` on deleted
    B3, by level, each level scanned once."""
    reports = {}

    def at(level: int):
        if level not in reports:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["charvar", deleted_b3_file, "--level", str(level),
                             "--degree", "1", "--format", "json"])
            reports[level] = code, json.loads(out.getvalue())
        return reports[level]

    return at


def family_c(level: int, swapped: bool = False) -> list:
    """The level-N points of ``C = (t, -1/t, -1, -1/t, t, t^2, t^-2)``, for
    ``t`` of numerator ``k = 0 .. N-1``, as ``--beta`` text; ``swapped``
    trades the last two coordinates."""
    half, points = level // 2, []
    for k in range(level):
        squares = (-2 * k, 2 * k) if swapped else (2 * k, -2 * k)
        numerators = (k, half - k, half, half - k, k, *squares)
        points.append(",".join(f"{n % level}/{level}" for n in numerators))
    return points


def test_deleted_b3_first_characteristic_variety_at_level_2(deleted_b3_charvar):
    code, report = deleted_b3_charvar(2)
    buckets = report["results"]["buckets"]
    assert code == 2
    assert (len(buckets["1"]), len(buckets["2"]), len(report["warnings"])) == (26, 7, 3)
    # The level-2 points of C are two of the three.
    assert {"inconclusive at beta=(0,1/2,1/2,1/2,0,0,0)",
            "inconclusive at beta=(1/2,0,1/2,0,1/2,0,0)"} < set(report["warnings"])


def test_deleted_b3_abstains_on_the_translated_component(capsys, deleted_b3_file):
    for beta in family_c(4):
        code, report = json_report(capsys, "twisted", deleted_b3_file, f"--beta={beta}")
        assert (code, report["results"]["dims"]) == (2, None), beta
    # The swapped family is off the component: at k = 1, 2, 4, 5 the search
    # succeeds, and H^1 vanishes.
    for k, beta in enumerate(family_c(6, swapped=True)):
        if k % 3:
            code, report = json_report(capsys, "twisted", deleted_b3_file, f"--beta={beta}")
            assert (code, report["results"]["dims"][1]) == (0, 0), beta


# Deleted B3 in the projective plane: the normals of x, y, z, x-y, x-z, y-z,
# x-y-z and x-y+z, lines 1..8.  The decone chart's affine lines 1..7 are the
# projective lines other than z, in order.
DELETED_B3_NORMALS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1),
                      (1, -1, -1), (1, -1, 1)]
DECONE_LINES = (1, 2, 4, 5, 6, 7, 8)


def lattice_points(normals) -> list:
    """The points of the projective line arrangement with these ``normals``,
    each as the sorted tuple of its line numbers, written with no ``alexinv``
    code."""
    points = set()
    for (a1, a2, a3), (b1, b2, b3) in combinations(normals, 2):
        meet = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
        points.add(tuple(j for j, normal in enumerate(normals, 1)
                         if sum(map(int.__mul__, normal, meet)) == 0))
    return sorted(points)


def subtori_through_1(points, nlines: int, level: int) -> dict:
    """Numerators of the level-N points of the subtori through 1 of ``V_1``
    of a projective arrangement with these ``points``, written with no
    ``alexinv`` code, keyed by the lines on which ``t_j = 1``.  A local one
    for each point of three or more lines, ``t_j = 1`` off the point; a
    braid one for each six lines with four triple and three double points,
    as in :func:`braid_components`: ``t_j = 1`` on the two lines dropped,
    ``t_a = t_b`` for each double point ``{a, b}``, and the product over one
    line of each double point is 1."""
    lines = range(1, nlines + 1)
    subtori = {}
    for point in points:
        if len(point) >= 3:
            subtori[tuple(j for j in lines if j not in point)] = {
                tuple(dict(zip(point, values)).get(j, 0) for j in lines)
                for values in product(range(level), repeat=len(point))
                if sum(values) % level == 0}
    for dropped in combinations(lines, 2):
        kept = [tuple(j for j in point if j not in dropped) for point in points]
        if sorted(map(len, kept))[-7:] != [2, 2, 2, 3, 3, 3, 3]:
            continue
        doubles = [point for point in kept if len(point) == 2]
        subtori[dropped] = {
            tuple(next((x for x, double in zip(xs, doubles) if j in double), 0) for j in lines)
            for xs in product(range(level), repeat=3) if sum(xs) % level == 0}
    return subtori


def projective_numerators(names, level: int) -> list:
    """The numerators of each decone point, named as a report names it, in
    the 8 projective coordinates: ``t_z = (t_1 ... t_7)^-1``."""
    numerator = {str(Fraction(k, level)): k for k in range(level)}
    found = []
    for name in names:
        affine = [numerator[c] for c in name.strip("()").split(",")]
        n = [0] * 8
        for j, value in zip(DECONE_LINES, affine):
            n[j - 1] = value
        n[2] = -sum(affine) % level
        found.append(tuple(n))
    return found


def test_deleted_b3_lattice_and_its_decone_chart():
    points = lattice_points(DELETED_B3_NORMALS)
    assert [p for p in points if len(p) >= 3] == [
        (1, 2, 4), (1, 3, 5), (1, 6, 8), (2, 3, 6), (2, 5, 7), (3, 4, 7, 8), (4, 5, 6)]
    assert [p for p in points if len(p) == 2] == [(1, 7), (2, 8), (5, 8), (6, 7)]
    # The builder's chart: the affine points, and each parallel class with z.
    to_projective = dict(enumerate(DECONE_LINES, 1))
    decone = [tuple(sorted(map(to_projective.get, p))) for p in DELETED_B3_DECONE["points"]]
    decone += [tuple(sorted([3, *map(to_projective.get, c)]))
               for c in DELETED_B3_DECONE["parallel"]]
    assert sorted(decone) == points
    subtori = subtori_through_1(points, 8, 2)
    assert len(subtori) == 12
    assert sorted(key for key in subtori if len(key) == 2) == [
        (1, 8), (2, 7), (5, 7), (6, 8), (7, 8)]


def test_deleted_b3_first_characteristic_variety_at_level_4(deleted_b3_charvar):
    code, report = deleted_b3_charvar(4)
    buckets = report["results"]["buckets"]
    assert code == 2
    assert {dim: len(found) for dim, found in buckets.items()} == {
        "0": 16157, "1": 158, "2": 63, "7": 1}
    assert report["warnings"] == [f"inconclusive at beta={beta}" for beta in [
        "(0,1/2,1/2,1/2,0,0,0)", "(1/4,1/4,1/2,1/4,1/4,1/2,1/2)", "(1/2,0,1/2,0,1/2,0,0)",
        "(1/2,1/2,0,1/2,1/2,0,0)", "(3/4,3/4,1/2,3/4,3/4,1/2,1/2)"]]


def test_deleted_b3_generic_chart_reads_as_the_decone_chart(tmp_path, deleted_b3_charvar):
    # In the generic chart every line is affine.  A point that does not read
    # 0 extends to the projective complement, so its coordinates sum to 0
    # mod 1, and without z's coordinate (line 3) it is the decone chart's
    # point with the same reading; the trivial point reads 8 against 7.
    path = tmp_path / "deleted_b3_generic.json"
    path.write_text(json.dumps(deleted_b3_generic()), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["charvar", str(path), "--level", "2", "--degree", "1", "--format", "json"])
    report = json.loads(out.getvalue())
    buckets = report["results"]["buckets"]
    assert code == 2
    assert ({dim: len(found) for dim, found in buckets.items() if dim != "0"},
            len(report["warnings"])) == ({"1": 26, "2": 7, "8": 1}, 3)
    assert buckets["8"] == ["(0,0,0,0,0,0,0,0)"]

    def readings(report, top):
        found = {name: "inconclusive" for name in (
            warning.removeprefix("inconclusive at beta=") for warning in report["warnings"])}
        for dim, names in report["results"]["buckets"].items():
            if dim != "0":
                found.update(dict.fromkeys(names, "top" if dim == top else dim))
        return found

    decone = readings(deleted_b3_charvar(2)[1], "7")
    generic = readings(report, "8")
    for name, reading in generic.items():
        coordinates = [Fraction(c) for c in name.strip("()").split(",")]
        assert sum(coordinates) % 1 == 0, name
        dropped = "(" + ",".join(map(str, coordinates[:2] + coordinates[3:])) + ")"
        assert decone.get(dropped) == reading, name
    assert len(generic) == len(decone) == 37


@pytest.mark.parametrize("level", [2, 4])
def test_deleted_b3_jumps_exactly_on_the_subtori_through_1(deleted_b3_charvar, level):
    # Every conclusive point off the subtori reads 0, and every one on them,
    # the trivial point included, reads at least 1.
    subtori = subtori_through_1(lattice_points(DELETED_B3_NORMALS), 8, level)
    on = set().union(*subtori.values())
    _, report = deleted_b3_charvar(level)
    for dim, found in report["results"]["buckets"].items():
        wrong = [name for name, n in zip(found, projective_numerators(found, level))
                 if (n in on) != (dim != "0")]
        assert wrong == [], dim
    if level == 4:
        # The level-4 points of C, both inconclusive, lie on none of them.
        names = ["(" + ",".join(str(Fraction(c)) for c in beta.split(",")) + ")"
                 for beta in family_c(4)[1::2]]
        assert {f"inconclusive at beta={name}" for name in names} < set(report["warnings"])
        assert not on & set(projective_numerators(names, 4))


def test_deleted_b3_milnor_polynomials(capsys, deleted_b3_file):
    for m, delta in enumerate(["(t-1)", "(t-1)^7", "(t-1)^6*(t^8-1)^6"]):
        code, report = json_report(capsys, "milnor", deleted_b3_file, "--m", str(m))
        assert (code, report["results"]["delta"]) == (0, delta)
    # 1 - 7 + 54 = 8 * (1 - 7 + 12).
    assert_milnor_bookkeeping(scenario_from_dict(deleted_b3_decone()))


def test_arrangement_buckets_are_constant_on_galois_orbits(a3, a3_gen, deleted_b3_charvar):
    # The scans the tests above make on the same fixtures, at each level
    # with a unit other than 1; a grid small enough for the scenario's
    # store is not searched again.
    for scenario, levels in ((a3, (3, 4, 6)), (a3_gen, (3, 4, 5, 6))):
        for level in levels:
            dims = scan_dims(scenario, level, 1)
            assert orbit_conflicts(level, scenario.nparams, dims) == [], level
    _, report = deleted_b3_charvar(4)
    numerator = {str(Fraction(k, 4)): k for k in range(4)}
    dims = {}
    for dim, found in report["results"]["buckets"].items():
        for name in found:
            index = 0
            for c in name.strip("()").split(","):
                index = index * 4 + numerator[c]
            dims[index] = int(dim)
    assert len(dims) == 4 ** 7 - 5
    assert orbit_conflicts(4, 7, dims) == []
