"""Golden scenario reports: text and json, exit codes and stderr.

Each ``tests/golden/scenario/<name>-<format>.golden`` file holds every
report, on one bundled scenario, of ``validate``, ``milnor`` at every ``m``,
``charvar`` at levels 1-9 and every degree from 1, and seeded samples of
``twisted``, ``admissible`` and ``aomoto``.  Any change to the scenario
reader or the pipeline must leave them byte-identical.

Regenerate (only when a report is meant to change) with::

    PYTHONPATH=src python tests/test_golden_scenario.py --write
"""

from __future__ import annotations

import os
import random

import pytest

from alexinv.corpus import bundled_scenario_names, load_bundled_scenario
from test_golden_module import FORMATS, HERE, compare, record, write, write_main

GOLDEN_DIR = os.path.join(HERE, "golden", "scenario")
LEVELS = range(1, 10)
SAMPLES = 4


def _rationals(rng: random.Random, count: int, low: int) -> str:
    return ",".join(
        f"{rng.randint(low, 6)}/{rng.randint(1, 6)}" for _ in range(count)
    )


def _calls(name: str, fmt: str):
    scenario = load_bundled_scenario(name)
    degrees = [str(k) for k in range(scenario.algebra.top_degree + 1)]
    tail = ["--format", fmt]
    yield ["validate", name, *tail]
    for m in degrees:
        yield ["milnor", name, "--m", m, *tail]
    for level in LEVELS:
        for k in degrees[1:]:
            yield ["charvar", name, "--level", str(level), "--degree", k, *tail]
    rng = random.Random(name)
    for _ in range(SAMPLES):
        beta = _rationals(rng, scenario.nparams, 0)
        bound = str(rng.randint(0, 3))
        yield ["twisted", name, "--beta", beta, "--bound", bound, *tail]
        yield ["admissible", name, "--beta", beta, "--bound", bound, *tail]
        alpha = _rationals(rng, scenario.nparams, -6)
        yield ["aomoto", name, f"--alpha={alpha}", *tail]


def _golden_path(name: str, fmt: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}-{fmt}.golden")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_scenario_reports_match_golden(name, fmt):
    compare(_golden_path(name, fmt), record(_calls(name, fmt)))


def _write() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in bundled_scenario_names():
        for fmt in FORMATS:
            write(_golden_path(name, fmt), record(_calls(name, fmt)))


if __name__ == "__main__":
    write_main(__doc__, _write)
