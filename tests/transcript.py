"""Digest of every report the benchmark's job lists produce.

Usage, from anywhere inside a checkout:

    python3 tests/transcript.py

It writes the seed 0-2 inputs of all three workloads of
``perfbench/workloads.py`` under ``.perfbench_out/`` (as
``perfbench/run.py`` does, with its default ``--seconds``), runs every job
once in-process through ``alexinv.cli.main`` on a fresh import per job
list, and prints the job count and a sha256 over each job's argv, exit code,
stdout and stderr.  Two checkouts that print the same line give
byte-identical reports on those lists.  pytest does not collect this file.

``tests/transcript.sha256`` holds the line, and CI checks it with

    python3 tests/transcript.py | diff tests/transcript.sha256 -

A change that alters a report on purpose, or a benchmark change that alters
the job lists, updates that file and says why; any other change leaves the
line as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(3)


def main() -> int:
    os.chdir(ROOT)
    digest = hashlib.sha256()
    count = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            args = argparse.Namespace(workload=name, seed=seed, seconds=25)
            cli, _, work = run.setup(args)
            for argv in work.jobs:
                _, (code, out, err, _) = run.run_job(cli, argv)
                digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
                count += 1
    print(f"jobs {count} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
