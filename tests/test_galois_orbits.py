"""Galois orbits of the torsion grid as a consistency check on ``charvar``.

For a unit ``u`` of ``Z/N``, the level-N points ``n/N`` and ``(u*n mod N)/N``
are Galois-conjugate local systems, so ``dim H^k`` is the same at both:
the cohomology is that of a finite complex over ``Q(zeta_N)``, and
``zeta -> zeta^u`` carries one onto the other.  So the conclusive buckets of
a scan must be constant on every orbit of ``(Z/N)^x``.  A scenario whose data
breaks the paper's hypotheses, such as a changed ``omega_map`` entry, can
fail this, which no schema check sees.
"""

from __future__ import annotations

import copy
import json
from itertools import product
from math import gcd

import pytest

from alexinv.corpus import bundled_scenario_names, bundled_scenario_path, load_bundled_scenario
from alexinv.invariant_pipeline import _charvar_indices, scenario_from_dict


def orbit_conflicts(level: int, nparams: int, dims: dict) -> list:
    """The pairs ``(index, u)`` where the conclusive point at grid index
    ``index`` and its conjugate by the unit ``u`` of ``Z/level`` are both in
    ``dims`` (grid index -> dimension) with different dimensions."""
    points = list(product(range(level), repeat=nparams))
    units = [u for u in range(2, level) if gcd(u, level) == 1]
    found = []
    for index, dim in dims.items():
        for u in units:
            other = 0
            for n in points[index]:
                other = other * level + u * n % level
            if dims.get(other, dim) != dim:
                found.append((index, u))
    return found


def scan_dims(scenario, level: int, degree: int) -> dict:
    """``charvar``'s conclusive dimensions as grid index -> dimension."""
    buckets, _ = _charvar_indices(scenario, level, degree, 3)
    return {index: dim for dim, found in buckets.items() for index in found}


def test_orbit_conflicts_sees_a_split_orbit():
    # Level 5 in one parameter: 1/5 and 2/5 share an orbit, 0 is alone.
    assert orbit_conflicts(5, 1, {0: 3, 1: 1, 2: 1, 3: 1, 4: 1}) == []
    assert orbit_conflicts(5, 1, {1: 1, 2: 0}) == [(1, 2), (2, 3)]
    # An orbit member with no conclusive dimension conflicts with nothing.
    assert orbit_conflicts(5, 1, {1: 1, 3: 1}) == []


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_buckets_are_constant_on_galois_orbits(name):
    scenario = load_bundled_scenario(name)
    for level in range(5, 13):
        for degree in range(1, scenario.algebra.top_degree + 1):
            dims = scan_dims(scenario, level, degree)
            assert orbit_conflicts(level, scenario.nparams, dims) == [], (level, degree)


def _example_4_1() -> dict:
    with open(bundled_scenario_path("example_4_1"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("entry, value", [((1, 0), "2"), ((2, 2), "-1")])
def test_a_changed_omega_map_entry_is_caught(entry, value):
    # The perturbed scenario passes every schema check, but its answers
    # differ on conjugate points at every level from 5 to 12.
    document = copy.deepcopy(_example_4_1())
    (i, j) = entry
    document["omega_map"][i][j] = value
    scenario = scenario_from_dict(document)
    for level in (5, 7, 12):
        dims = scan_dims(scenario, level, 1)
        assert orbit_conflicts(level, 3, dims), level
