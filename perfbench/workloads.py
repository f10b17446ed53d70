"""Seeded job lists for the benchmark's three workloads.

A job is the argv of one ``alexinv`` call.  A workload is a list of blocks;
every block has the same mix of job kinds, scenarios, levels and sizes, and
the seed picks the parts that leave the cost of a block about the same:
degrees, residue classes, where the rotation of scenarios over levels
starts, the factors and multipliers of each presentation, and the order of
the jobs.  That
keeps time to solution comparable between seeds.  The number of blocks
follows ``--seconds`` through each workload's nominal block time, measured at
the commit that added the benchmark; a faster program finishes the same list
sooner.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import PresentationAnswer, binomial, format_poly, poly_add, poly_mul

WORKLOADS = ("charvar_scan", "module_invariants", "cli_oneshot")

# Nominal seconds per block at the commit that added the benchmark, at the
# reference speed of speed.py.
BLOCK_SECONDS = {"charvar_scan": 2.2, "module_invariants": 1.35, "cli_oneshot": 0.31}

# Block counts are rounded up to a multiple of this, so that every job list
# holds whole rotations: charvar_scan's four blocks give each of its four
# scenarios each level slot once, whatever the seed.
BLOCK_MULTIPLE = {"charvar_scan": 4}

# Bundled scenarios with three residue parameters, the scanning load of
# charvar_scan; torus (two) and example_5_3 (one) add small scans.
SCAN_SCENARIOS = ("example_4_1", "example_4_2", "lines_concurrent3", "lines_generic3")


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list = field(default_factory=list)  # argv lists, without "alexinv"
    files: dict = field(default_factory=dict)  # relative path -> file text
    answers: dict = field(default_factory=dict)  # path -> PresentationAnswer


def input_dir(name: str, seed: int) -> str:
    return f".perfbench_out/inputs/{name}-s{seed}"


def generate(name: str, seed: int, seconds: int, scenarios: dict) -> Workload:
    """The job list of ``name`` for ``seed``; ``scenarios`` maps each bundled
    scenario name to its ``oracle.ScenarioAnswer``."""
    work = Workload(name, seed)
    blocks = max(1, round(seconds / BLOCK_SECONDS[name]))
    whole = BLOCK_MULTIPLE.get(name, 1)
    blocks = -(-blocks // whole) * whole
    for b in range(blocks):
        rng = random.Random(f"{name}/{seed}/{b}")
        block = _BLOCKS[name](work, rng, b, scenarios)
        rng.shuffle(block)
        work.jobs.extend(block)
    return work


def _charvar(scenario: str, level: int, degree: int, bound=None) -> list:
    argv = ["charvar", scenario, "--level", str(level), "--degree", str(degree)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    return argv + ["--format", "json"]


def _charvar_block(work, rng, b, scenarios) -> list:
    """Eight three-parameter scans at levels 5-12, six torus scans and one
    example_5_3 level-12 scan, which has two inconclusive points."""
    levels = [5, 5, 5, 6, 6, 7, 8, (9, 10, 11, 12)[b % 4]]
    # Scenarios rotate over the level slots from block to block, from a
    # seeded start, so that each level goes to each scenario about equally
    # often: their costs per point differ by a quarter.
    offset = random.Random(f"{work.name}/{work.seed}").randrange(4)
    names = [SCAN_SCENARIOS[(k + b + offset) % 4] for k in range(len(levels))]
    jobs = []
    for k, (scenario, level) in enumerate(zip(names, levels)):
        # Two fixed slots exercise non-default search boxes.
        bound = {3: 2, 5: 4}.get(k)
        jobs.append(_charvar(scenario, level, rng.choice((1, 2)), bound))
    for k, level in enumerate(sorted(rng.sample(range(5, 13), 6))):
        jobs.append(_charvar("torus", level, rng.choice((1, 2)), 4 if k == 0 else None))
    jobs.append(_charvar("example_5_3", 12, rng.choice((1, 2, 3))))
    return jobs


def _rationals(rng, count: int, shift: int) -> str:
    level = rng.randint(2, 12)
    values = [
        Fraction(rng.randrange(level), level) + rng.randint(-shift, shift)
        for _ in range(count)
    ]
    return ",".join(str(v) for v in values)


def _cli_block(work, rng, b, scenarios) -> list:
    """Every command once or more on each bundled scenario, plus a small
    presentation: fixed per-call costs dominate."""
    jobs = []
    for idx, (name, sc) in enumerate(sorted(scenarios.items())):
        fmt = ["--format", "json"]
        jobs.append(["validate", name] + fmt)
        for _ in range(2):
            alpha = _rationals(rng, sc.nparams, 1)
            jobs.append(["aomoto", name, f"--alpha={alpha}"] + fmt)
            beta = _rationals(rng, sc.nparams, 0)
            jobs.append(["twisted", name, f"--beta={beta}"] + fmt)
            beta = _rationals(rng, sc.nparams, 0)
            bound = rng.randint(1, 3)
            jobs.append(["admissible", name, f"--beta={beta}", "--bound", str(bound)] + fmt)
        for m in range(sc.top + 1):
            jobs.append(["milnor", name, "--m", str(m)] + fmt)
        level = (2, 3, 4)[(b + idx) % 3]
        jobs.append(_charvar(name, level, rng.randint(1, sc.top)))
    path = _presentation(work, rng, f"q{b}", nvars=1 + b % 2, generators=2,
                         relations=3, factors=(1, 1), ops=2)
    jobs.append(_module(path, "charpoly", i=rng.randint(0, 2)))
    jobs.append(_module(path, "charpoly", i=rng.randint(0, 2)))
    jobs.append(_module(path, "support", level=rng.randint(2, 6)))
    jobs.append(_module(path, "fitting", i=rng.randint(1, 2), level=rng.randint(2, 6)))
    return jobs


def _module(path: str, op: str, i=None, level=None) -> list:
    argv = ["module", "--presentation", path, "--op", op]
    if i is not None:
        argv += ["--i", str(i)]
    if level is not None:
        argv += ["--level", str(level)]
    return argv + ["--format", "json"]


def _module_block(work, rng, b, scenarios) -> list:
    """Three 4x5 presentations with charpoly for every i: two in two
    variables, each with one support scan and two Fitting scans at levels
    6-12, and one in three variables.  The levels rotate over the scans from
    block to block, the same for every seed, as a scan's cost grows with its
    level.  The three-variable one gets no scans: there a scan evaluates
    level^3 points, up to 0.7 s at levels 10-11, and the few presentations
    that would fit in a list would decide the per-call percentiles, as the
    cost of one presentation's charpoly varies twofold with its draw."""
    jobs = []
    for stem, nvars, levels in (("a", 2, (6, 9, 12)),
                                ("b", 2, ((7, 8, 10), (7, 10, 11))[b % 2]),
                                ("c", 3, None)):
        path = _presentation(work, rng, f"p{b}{stem}", nvars=nvars, generators=4,
                             relations=5, factors=(1, 1, 1, 0), ops=2, min_terms=44)
        for i in range(5):
            jobs.append(_module(path, "charpoly", i=i))
        if levels is None:
            continue
        turn = (b if stem == "a" else b // 2) % 3
        levels = levels[turn:] + levels[:turn]
        jobs.append(_module(path, "support", level=levels[0]))
        jobs.append(_module(path, "fitting", i=1, level=levels[1]))
        jobs.append(_module(path, "fitting", i=2, level=levels[2]))
    return jobs


def _presentation(work, rng, stem, nvars, generators, relations, factors, ops,
                  min_terms=0) -> str:
    """Write ``U * D * V`` with a divisibility chain on the diagonal of ``D``.

    ``factors[j]`` binomials ``t^e - 1`` (with ``|e| = 2``) are added to the
    chain at ``d_{j+1}``.  ``U`` and ``V`` are ``ops`` elementary row and
    ``ops`` column operations with multipliers ``+-t_j^(+-1)``, followed by
    permutations of the rows and of the columns.  Draws with fewer than
    ``min_terms`` terms in all (where terms merged or cancelled) are drawn
    again, so that the presentations of a workload cost about the same.
    """
    while True:
        chain, matrix = _udv(rng, nvars, generators, relations, factors, ops)
        if sum(len(x) for row in matrix for x in row) >= min_terms:
            break
    path = f"{input_dir(work.name, work.seed)}/{stem}.json"
    work.files[path] = json.dumps({
        "nvars": nvars,
        "generators": generators,
        "relations": relations,
        "matrix": [[format_poly(x) for x in row] for row in matrix],
    }, indent=1) + "\n"
    work.answers[path] = PresentationAnswer(nvars, generators, relations, chain)
    return path


def _udv(rng, nvars, generators, relations, factors, ops):
    chain, current = [], []
    for count in factors:
        for _ in range(count):
            exps = [0] * nvars
            for _ in range(2):
                exps[rng.randrange(nvars)] += 1
            current = current + [tuple(exps)]
        chain.append(list(current))
    matrix = [[{} for _ in range(relations)] for _ in range(generators)]
    for j, d in enumerate(chain):
        poly = {(0,) * nvars: 1}
        for exps in d:
            poly = poly_mul(poly, binomial(exps))
        matrix[j][j] = poly

    def multiplier():
        exps = [0] * nvars
        exps[rng.randrange(nvars)] = rng.choice((-1, 1))
        return {tuple(exps): rng.choice((-1, 1))}

    # The operations follow a fixed pattern, so that the presentations of a
    # workload fill the same entries; the seed picks the multipliers, the
    # factors and the order of rows and columns.
    for a in range(ops):
        mult, c = multiplier(), (a + 1) % generators
        matrix[a] = [poly_add(x, poly_mul(mult, y)) for x, y in zip(matrix[a], matrix[c])]
    for a in range(ops):
        target = relations - 1 - a
        if target == a:
            target = (a + 1) % relations
        mult = multiplier()
        for row in matrix:
            row[target] = poly_add(row[target], poly_mul(mult, row[a]))
    rng.shuffle(matrix)
    order = list(range(relations))
    rng.shuffle(order)
    return chain, [[row[j] for j in order] for row in matrix]


_BLOCKS = {
    "charvar_scan": _charvar_block,
    "module_invariants": _module_block,
    "cli_oneshot": _cli_block,
}
