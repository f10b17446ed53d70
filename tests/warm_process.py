"""A warm process answers as separate processes do.

Usage, from anywhere inside a checkout:

    python3 tests/warm_process.py [--seed S]

In one process, through ``alexinv.cli.main``, it runs on every bundled
scenario ``charvar`` at levels 2-6 and at every degree, ``milnor`` at every
degree, ``aomoto`` with every residue ``-4/5`` and with every residue
``1/5``, and ``twisted`` and ``admissible`` with every residue class ``1/5``
and with every class ``1/3``; ``milnor``, ``twisted`` and ``admissible`` at
the default bound and at ``--bound 0``.  On every presentation under
``tests/golden/module/`` it runs ``module --op charpoly`` at every ``--i``
from 0 to the number of generators, and ``--op support`` and ``--op fitting
--i 1|2`` at levels 2-6.  Each argv runs twice, in an order shuffled by the
seed (default 0).  So later calls find the scenario or presentation in the
decode cache, the scans of ``charvar`` and ``milnor`` in the scenario's one
store, the ranks of every command in its differential's rank memo, the peel
and the minors in the presentation, and the orbits of a module scan in the
process's table for its level and variable count.
Each stdout and exit code must equal those of ``python -m alexinv`` run on
the same argv in a process of its own, two such processes at a time.  It
prints one line per mismatch and exits 1 if there is any, else prints the
number of calls compared and exits 0.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = os.path.join(ROOT, "tests", "golden", "module")
sys.path.insert(0, SRC)

from alexinv import cli  # noqa: E402
from alexinv.corpus import bundled_scenario_names, load_bundled_scenario  # noqa: E402

LEVELS = range(2, 7)


ALPHAS = ("-4/5", "1/5")
BETAS = ("1/5", "1/3")
BOUNDS = ([], ["--bound", "0"])


def calls() -> list:
    """Every ``charvar`` argv of the bundled scenarios at ``LEVELS``, every
    ``milnor``, ``aomoto``, ``twisted`` and ``admissible`` argv at
    ``ALPHAS``, ``BETAS`` and ``BOUNDS``, and every ``module`` argv of the
    golden presentations."""
    found = []
    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        top = scenario.algebra.top_degree
        for level in LEVELS:
            for degree in range(1, top + 1):
                found.append(["charvar", name, "--level", str(level), "--degree", str(degree)])
        for bound in BOUNDS:
            found += [["milnor", name, "--m", str(m), *bound] for m in range(top + 1)]
        for alpha in ALPHAS:
            found.append(["aomoto", name, "--alpha=" + ",".join([alpha] * scenario.nparams)])
        for beta in BETAS:
            for command in ("twisted", "admissible"):
                for bound in BOUNDS:
                    found.append([command, name, "--beta=" + ",".join([beta] * scenario.nparams),
                                  *bound])
    for entry in sorted(os.listdir(MODULES)):
        if entry.endswith(".json"):
            path = os.path.join(MODULES, entry)
            with open(path, encoding="utf-8") as handle:
                generators = json.load(handle)["generators"]
            module = ["module", "--presentation", path, "--op"]
            found += [[*module, "charpoly", "--i", str(i)] for i in range(generators + 1)]
            for level in LEVELS:
                found.append([*module, "support", "--level", str(level)])
                found += [[*module, "fitting", "--i", str(i), "--level", str(level)]
                          for i in (1, 2)]
    return found


def in_process(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def own_process(argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "alexinv", *argv], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    argvs = calls()
    order = argvs + argvs
    random.Random(args.seed).shuffle(order)
    with ThreadPoolExecutor(2) as pool:  # two separate processes at a time
        cold = dict(zip(map(tuple, argvs), pool.map(own_process, argvs)))
    wrong = 0
    for argv in order:
        if in_process(argv) != cold[tuple(argv)]:
            print(f"differs (seed {args.seed}):", " ".join(argv))
            wrong += 1
    if wrong:
        return 1
    print(f"{len(order)} calls in one process (seed {args.seed}) answer as their own processes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
