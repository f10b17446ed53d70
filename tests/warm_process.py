"""A warm process answers as separate processes do.

Usage, from anywhere inside a checkout:

    python3 tests/warm_process.py [--seed S]

In one process, through ``alexinv.cli.main``, it runs ``charvar`` on every
bundled scenario at levels 2-6 and at every degree, and ``milnor`` at every
degree at the default bound and at ``--bound 0``, each argv twice, in an
order shuffled by the seed (default 0).  So later calls find the scenario
in the decode cache and the scans of both commands in the scenario's one
store.  Each stdout and exit code must equal those of ``python -m alexinv``
run on the same argv in a process of its own.  It prints one line per
mismatch and exits 1 if there is any, else prints the number of calls
compared and exits 0.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from alexinv import cli  # noqa: E402
from alexinv.corpus import bundled_scenario_names, load_bundled_scenario  # noqa: E402

LEVELS = range(2, 7)


def calls() -> list:
    """Every ``charvar`` argv of the bundled scenarios at ``LEVELS``, and
    every ``milnor`` argv at the default bound and at bound 0."""
    found = []
    for name in bundled_scenario_names():
        top = load_bundled_scenario(name).algebra.top_degree
        for level in LEVELS:
            for degree in range(1, top + 1):
                found.append(["charvar", name, "--level", str(level), "--degree", str(degree)])
        for m in range(top + 1):
            found += [["milnor", name, "--m", str(m)], ["milnor", name, "--m", str(m), "--bound", "0"]]
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
    cold = {tuple(argv): own_process(argv) for argv in argvs}
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
