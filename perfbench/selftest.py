"""Self-test of the benchmark: determinism of the generator and a checker
that rejects corrupted reports.

    python3 perfbench/selftest.py

Runs a few real jobs, corrupts their reports in the ways a defect could
(a point moved between buckets, an inconclusive point dropped or turned into
a dimension, a charpoly off by one factor, a wrong monodromy polynomial, a
report that differs from the golden one), and requires the checker to pass
every original and fail every corruption.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import os
import random
import sys
from types import SimpleNamespace

import checker
import oracle
import run
import workloads


def corrupt(report: dict, edit) -> str:
    report = json.loads(json.dumps(report))
    edit(report)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def move_point(report):
    buckets = report["results"]["buckets"]
    src = max(buckets, key=lambda k: len(buckets[k]))
    dst = next((k for k in buckets if k != src), str(int(src) + 1))
    buckets.setdefault(dst, []).append(buckets[src].pop())


def drop_inconclusive(report):
    report["warnings"].pop()


def decide_inconclusive(report):
    point = report["warnings"].pop().split("=", 1)[1]
    report["results"]["buckets"].setdefault("0", []).append(point)


def extra_factor(report):
    poly = oracle.parse_poly(report["results"]["expanded"], 2)
    report["results"]["expanded"] = oracle.format_poly(
        oracle.poly_mul(poly, oracle.binomial((1, 1))))


def missing_factor(report):
    res = report["results"]
    poly = oracle.parse_poly(res["expanded"], 1)
    res["expanded"] = oracle.format_poly(oracle.divide_univariate(poly, oracle.binomial((1,))))
    res["charpoly"] = f"({res['expanded']})"


def wrong_delta(report):
    report["results"]["delta"] = "(t-1)^3*(t^5-1)"


def main() -> int:
    os.chdir(run.ROOT)
    problems = []

    for name in workloads.WORKLOADS:
        args = SimpleNamespace(workload=name, seed=7, seconds=1)
        first = run.setup(args)[2]
        second = run.setup(args)[2]
        if (first.jobs, first.files) != (second.jobs, second.files):
            problems.append(f"{name}: two generations with seed 7 differ")
        third = run.setup(SimpleNamespace(workload=name, seed=8, seconds=1))[2]
        if (first.jobs, first.files) == (third.jobs, third.files):
            problems.append(f"{name}: seeds 7 and 8 give the same jobs")

    cli, scenarios, work = run.setup(SimpleNamespace(workload="module_invariants",
                                                     seed=7, seconds=1))
    univariate = workloads._presentation(work, random.Random(7), "u",
                                         nvars=1, generators=2, relations=3,
                                         factors=(1, 1), ops=2)
    with open(univariate, "w", encoding="utf-8") as handle:
        handle.write(work.files[univariate])
    bivariate = next(p for p, a in work.answers.items() if a.nvars == 2)
    fmt = ["--format", "json"]
    cases = [
        (["charvar", "example_4_1", "--level", "5", "--degree", "1"] + fmt, [move_point]),
        (["charvar", "example_5_3", "--level", "12", "--degree", "2"] + fmt,
         [move_point, drop_inconclusive, decide_inconclusive]),
        (["module", "--presentation", bivariate, "--op", "charpoly", "--i", "1"] + fmt,
         [extra_factor]),
        (["module", "--presentation", univariate, "--op", "charpoly", "--i", "0"] + fmt,
         [missing_factor]),
        (["milnor", "example_4_1", "--m", "1"] + fmt, [wrong_delta]),
    ]
    check = checker.Checker(work, scenarios)
    _, _, outcomes = run.run_jobs(cli, [argv for argv, _ in cases])
    attempted = failed = 0
    for (argv, edits), (code, stdout, stderr, error) in zip(cases, outcomes):
        reason = check.check_job(argv, code, stdout, stderr, error)
        if reason is not None:
            problems.append(f"{' '.join(argv)}: original report rejected: {reason}")
        report = json.loads(stdout)
        for edit in edits:
            attempted += 1
            bad = corrupt(report, edit)
            # The exit code follows the warnings, as the CLI's does.
            bad_code = 2 if json.loads(bad)["warnings"] else 0
            reason = check.check_job(argv, bad_code, bad, stderr, error)
            if reason is None:
                problems.append(f"{' '.join(argv)}: {edit.__name__} not detected")
            else:
                failed += 1
                print(f"{argv[0]} {argv[1]}: {edit.__name__} rejected: {reason[:120]}")
        golden = {checker.job_key(argv, work.files): checker.report_key(code, stdout)}
        attempted += 1
        work.jobs = [argv]
        _, compared = run.check_run(work, scenarios, [(code, stdout, stderr, error)], golden)
        failures, _ = run.check_run(work, scenarios,
                                    [(code, stdout + " ", stderr, error)], golden)
        if compared != 1 or failures[0] is None:
            problems.append(f"{' '.join(argv)}: golden mismatch not detected")
        else:
            failed += 1

    for problem in problems:
        print("FAIL " + problem)
    print(f"selftest: {failed}/{attempted} corrupted reports rejected "
          f"(failed_ratio {failed / attempted:.2f}), {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
