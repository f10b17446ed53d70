"""Line arrangement scenarios built from their intersection lattice.

The decone chart puts one line of a projective arrangement at infinity.  The
other ``nlines`` lines are affine, numbered ``1..nlines``; two of them meet
either at an affine point or, when they are parallel, only at infinity.

- The algebra is the Orlik-Solomon algebra of the affine arrangement, as
  ``aomoto_complex.os_algebra_lines`` builds it.  Parallel lines have the
  product 0, a case that ``os_algebra_lines`` refuses.
- The residue rows are:
  - one unit row per line;
  - ``Linf = -sum``, the line at infinity;
  - for every affine point of three or more lines, the sum of its lines;
  - for every point at infinity with affine lines ``S``, ``|S| >= 2``, the
    row ``-sum_{j not in S} alpha_j``, which is ``Linf`` plus the rows of
    ``S``.

Write the A3 braid arrangement in this chart to a scenario file with::

    python tests/arrangements.py OUT.json
"""

from __future__ import annotations

import json
import sys

# The braid arrangement A3 with one line at infinity: the affine lines
# x=0, x=1, y=0, y=1 and x=y.  Its affine points are (0,0), (1,1), (0,1) and
# (1,0); the parallel pairs meet the line at infinity in two triple points.
A3_DECONE = {
    "nlines": 5,
    "points": [(1, 3, 5), (2, 4, 5), (1, 4), (2, 3)],
    "parallel": [(1, 2), (3, 4)],
}


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

    def row(label, coeffs, component=False):
        return {"label": label, "coeffs": coeffs, "component": component}

    rows = [row(f"L{j}", [int(j == k) for k in lines], True) for j in lines]
    rows.append(row("Linf", [-1] * nlines, True))
    rows += [row("E" + "".join(map(str, point)), [int(k in point) for k in lines])
             for point in points if len(point) >= 3]
    rows += [row("Einf" + "".join(map(str, group)), [-int(k not in group) for k in lines])
             for group in parallel if len(group) >= 2]
    return {
        "name": name,
        "components": nlines,
        "degrees": [1] * nlines,
        "algebra": {
            "top_degree": 2,
            "basis": {"0": ["1"], "1": [f"e{j}" for j in lines], "2": deg2},
            "products": products,
        },
        "residue_system": {"nparams": nlines, "rows": rows},
        "omega_map": [[str(int(j == k)) for k in lines] for j in lines],
        "milnor": {"include_infinity": True},
    }


def a3_decone() -> dict:
    return decone_scenario("a3_decone", **A3_DECONE)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/arrangements.py OUT.json")
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(a3_decone(), handle, indent=2)
        handle.write("\n")
