"""Line arrangement scenarios built from their intersection lattice.

An arrangement of ``nlines`` affine lines, numbered ``1..nlines``, is built
in one of two charts.  In both the residue rows are one unit row per line,
``Linf = -sum`` for the line at infinity, and, for every affine point of
three or more lines, the sum of its lines.

- The generic chart puts a generic line at infinity: every pair of lines
  meets at an affine point.  The algebra is the Orlik-Solomon algebra that
  ``constructions.os_algebra_lines`` builds.
- The decone chart puts one line of a projective arrangement at infinity;
  two affine lines meet either at an affine point or, when they are
  parallel, only at infinity.  Parallel lines have the product 0, a case
  that ``os_algebra_lines`` refuses, so the algebra is built here.  Every
  point at infinity with affine lines ``S``, ``|S| >= 2``, adds the row
  ``-sum_{j not in S} alpha_j``, which is ``Linf`` plus the rows of ``S``.

Write the A3 braid arrangement in the decone chart to a scenario file with::

    PYTHONPATH=src python tests/arrangements.py OUT.json
"""

from __future__ import annotations

import json
import sys

from alexinv.constructions import os_algebra_lines

# The braid arrangement A3 with one line at infinity: the affine lines
# x=0, x=1, y=0, y=1 and x=y.  Its affine points are (0,0), (1,1), (0,1) and
# (1,0); the parallel pairs meet the line at infinity in two triple points.
A3_DECONE = {
    "nlines": 5,
    "points": [(1, 3, 5), (2, 4, 5), (1, 4), (2, 3)],
    "parallel": [(1, 2), (3, 4)],
}

# The braid arrangement A3 in the generic chart: the lines x_i = x_j of
# 12, 13, 14, 23, 24, 34 are 1..6.  They meet in the four triple points
# {ij, ik, jk} and the three double points {ij, kl}.
A3_GENERIC = {
    "nlines": 6,
    "points": [(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6), (1, 6), (2, 5), (3, 4)],
}

# The non-Fano arrangement: the Fano plane's seven lines less one of its
# triple points, which splits into the three double points 17, 13 and 37.
NON_FANO = {
    "nlines": 7,
    "points": [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6), (2, 6, 7),
               (1, 7), (1, 3), (3, 7)],
}

# Deleted B3 (A. I. Suciu, "Translated tori in the characteristic varieties
# of complex hyperplane arrangements", Topology Appl. 118, 2002): the lines
# x, y, z, x-y, x-z, y-z, x-y-z and x-y+z, decone with z at infinity.  The
# affine lines x, y, x-y, x-z, y-z, x-y-z, x-y+z are 1..7; the quadruple
# point and the two triple points through z become the parallel classes.
DELETED_B3_DECONE = {
    "nlines": 7,
    "points": [(1, 2, 3), (1, 5, 7), (2, 4, 6), (3, 4, 5), (1, 6), (2, 7), (4, 7), (5, 6)],
    "parallel": [(3, 6, 7), (1, 4), (2, 5)],
}

# Deleted B3 in the generic chart, lines numbered as in the projective
# arrangement: x, y, z, x-y, x-z, y-z, x-y-z, x-y+z are 1..8.
DELETED_B3_GENERIC = {
    "nlines": 8,
    "points": [(3, 4, 7, 8), (1, 2, 4), (1, 3, 5), (1, 6, 8), (2, 3, 6), (2, 5, 7), (4, 5, 6),
               (1, 7), (2, 8), (5, 8), (6, 7)],
}


def _row(label, coeffs, component=False):
    return {"label": label, "coeffs": coeffs, "component": component}


def _scenario(name, nlines, algebra, rows, points) -> dict:
    """The scenario of ``nlines`` lines over the ``algebra`` dict, with the
    unit rows, ``Linf``, one row per affine point of three or more lines,
    and then ``rows``."""
    lines = range(1, nlines + 1)
    rows = [
        *(_row(f"L{j}", [int(j == k) for k in lines], True) for j in lines),
        _row("Linf", [-1] * nlines, True),
        *(_row("E" + "".join(map(str, point)), [int(k in point) for k in lines])
          for point in points if len(point) >= 3),
        *rows,
    ]
    return {
        "name": name,
        "components": nlines,
        "degrees": [1] * nlines,
        "algebra": algebra,
        "residue_system": {"nparams": nlines, "rows": rows},
        "omega_map": [[str(int(j == k)) for k in lines] for j in lines],
        "milnor": {"include_infinity": True},
    }


def generic_scenario(name: str, nlines: int, points) -> dict:
    """The scenario of an arrangement in the generic chart, as the dict that
    ``invariant_pipeline.scenario_from_dict`` reads.

    ``points`` lists the multiple and double points, each as a tuple of line
    numbers; every pair of lines lies in exactly one of them.
    """
    algebra = os_algebra_lines(nlines, points)
    products = [
        {"left": left, "right": right,
         "value": [{"basis": target, "coeff": str(c)} for target, c in vec.items()]}
        for (left, right), vec in algebra.products.items()
        if left < right  # one of each pair and its antisymmetric mirror
    ]
    basis = {str(p): list(labels) for p, labels in enumerate(algebra.basis)}
    return _scenario(name, nlines, {"top_degree": 2, "basis": basis, "products": products},
                     [], points)


def decone_scenario(name: str, nlines: int, points, parallel) -> dict:
    """The scenario of an arrangement in the decone chart, as the dict that
    ``invariant_pipeline.scenario_from_dict`` reads.

    ``points`` lists the affine multiple and double points and ``parallel``
    the classes of parallel lines, each as a tuple of line numbers; every
    pair of lines lies in exactly one of them.
    """
    lines = range(1, nlines + 1)
    pairs = [(a, b) for group in list(points) + list(parallel)
             for i, a in enumerate(group) for b in group[i + 1:]]
    if sorted(pairs) != [(a, b) for a in lines for b in lines if a < b]:
        raise ValueError("every pair of lines must lie in exactly one point or class")

    def wedge(a, b):
        return f"e{a}^e{b}"

    deg2, products = [], []
    for point in points:
        first = point[0]
        deg2 += [wedge(first, b) for b in point[1:]]
        for i, a in enumerate(point):
            for b in point[i + 1:]:
                value = [{"basis": wedge(first, b), "coeff": "1"}]
                if a != first:
                    value.append({"basis": wedge(first, a), "coeff": "-1"})
                products.append({"left": f"e{a}", "right": f"e{b}", "value": value})

    algebra = {
        "top_degree": 2,
        "basis": {"0": ["1"], "1": [f"e{j}" for j in lines], "2": deg2},
        "products": products,
    }
    at_infinity = [_row("Einf" + "".join(map(str, group)), [-int(k not in group) for k in lines])
                   for group in parallel if len(group) >= 2]
    return _scenario(name, nlines, algebra, at_infinity, points)


def a3_decone() -> dict:
    return decone_scenario("a3_decone", **A3_DECONE)


def a3_generic() -> dict:
    return generic_scenario("a3_generic", **A3_GENERIC)


def non_fano() -> dict:
    return generic_scenario("non_fano", **NON_FANO)


def deleted_b3_decone() -> dict:
    return decone_scenario("deleted_b3_decone", **DELETED_B3_DECONE)


def deleted_b3_generic() -> dict:
    return generic_scenario("deleted_b3_generic", **DELETED_B3_GENERIC)


def generic_lines_11() -> dict:
    """Eleven lines in general position: every point is a double point."""
    return generic_scenario("generic_lines_11", 11, [
        (a, b) for a in range(1, 12) for b in range(a + 1, 12)])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/arrangements.py OUT.json")
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(a3_decone(), handle, indent=2)
        handle.write("\n")
