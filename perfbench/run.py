"""alexinv benchmark: the real CLI, driven in-process on seeded job lists.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload charvar_scan --seed 1 --seconds 25 --trace 0

Each run is one process and one closed-loop client: the next job starts when
the previous ``alexinv.cli.main(argv)`` call returns.  The run sets up
(imports ``alexinv`` from ``src/``, generates the jobs, writes the input
files), times the job list, checks every report against independent answers
(``checker.py``), and prints one JSON line last.  With ``--trace 0`` it
times the list two or three times, each on a fresh import, reads every time
at a reference speed of the host (``speed.py``) and prints the end-to-end
metrics.  With ``--trace 1`` it runs every job twice,
untraced and with spans around each module's public functions
(``tracing.py``), and prints the per-layer metrics.  ``README.md`` beside
this file lists the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".perfbench_out"
SETUP_REPEATS = 15
# The untraced run times its job list ROUNDS times, or MIN_ROUNDS times
# when those already took --seconds on a slow host, and keeps each job's
# median time at the reference speed (speed.py).
ROUNDS = 3
MIN_ROUNDS = 2
DEFAULT_SEED = 0

import checker  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import alexinv from this checkout's ``src/``, discarding any copy
    already loaded, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "alexinv" or n.startswith("alexinv.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import alexinv.cli

    if not os.path.abspath(alexinv.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"alexinv imported from {alexinv.cli.__file__}, not {SRC}")
    return alexinv.cli


def scenario_answers() -> dict:
    folder = os.path.join("src", "alexinv", "data", "scenarios")
    return {
        entry[: -len(".json")]: oracle.ScenarioAnswer(os.path.join(folder, entry))
        for entry in sorted(os.listdir(folder))
        if entry.endswith(".json")
    }


def list_seconds(args) -> float:
    """Nominal seconds of one pass over the job list, the same list in
    both modes: the untraced run makes up to ROUNDS passes, the traced run
    two (untraced and traced)."""
    return args.seconds / ROUNDS


def setup(args):
    """One set-up: import, generate, write the input files."""
    cli = fresh_import()
    scenarios = scenario_answers()
    work = workloads.generate(args.workload, args.seed, list_seconds(args), scenarios)
    os.makedirs(workloads.input_dir(args.workload, args.seed), exist_ok=True)
    for path, text in work.files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return cli, scenarios, work


def run_job(cli, argv):
    """One CLI call; returns (seconds, (exit code, stdout, stderr, error))."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # a crash is a failed job
        code, error = None, repr(exc)
    return time.perf_counter() - t0, (code, out.getvalue(), err.getvalue(), error)


def run_jobs(cli, jobs, meter=None):
    """Time every job; returns (wall seconds, per-job seconds, outcomes).
    With a ``speed.Speedometer``, it also samples the host's speed between
    jobs (outside their times) and returns each job's kernel time around
    it as a fourth value."""
    times, outcomes, spans = [], [], []
    start = time.perf_counter()
    if meter is not None:
        meter.sample()
    for argv in jobs:
        t0 = time.perf_counter()
        seconds, outcome = run_job(cli, argv)
        spans.append((t0, t0 + seconds))
        times.append(seconds)
        outcomes.append(outcome)
        if meter is not None:
            meter.tick()
    if meter is None:
        return time.perf_counter() - start, times, outcomes
    meter.sample()
    return time.perf_counter() - start, times, outcomes, [meter.around(*s) for s in spans]


def run_rounds(jobs, seconds: float):
    """Run the job list ROUNDS times (MIN_ROUNDS when those took
    ``seconds``), each on a fresh import of alexinv, so that no round reuses
    what an earlier one left in memory; returns each job's seconds per
    round, the kernel's seconds around it per round, the first round's
    outcomes, and the jobs whose outcome in a later round differs from the
    first."""
    times = [[] for _ in jobs]
    kernel = [[] for _ in jobs]
    first, differs = None, set()
    meter = speed.Speedometer()
    start = time.perf_counter()
    for done in range(ROUNDS):
        if done >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
        cli = fresh_import()
        gc.collect()
        _, job_s, outcomes, around = run_jobs(cli, jobs, meter)
        for k, (s, r) in enumerate(zip(job_s, around)):
            times[k].append(s)
            kernel[k].append(r)
        if first is None:
            first = outcomes
        else:
            differs.update(k for k, (a, b) in enumerate(zip(first, outcomes)) if a != b)
    return times, kernel, first, differs


def run_paired(cli, jobs, tracer):
    """Run every job untraced and traced, back to back, alternating which
    goes first, so both see the same state of a shared machine; returns the
    untraced and the traced (per-job seconds, outcomes)."""
    runs = {False: ([], []), True: ([], [])}
    for k, argv in enumerate(jobs):
        for traced in (k % 2 == 1, k % 2 == 0):
            if traced:
                tracer.install()
            try:
                seconds, outcome = run_job(cli, argv)
            finally:
                tracer.uninstall()
            runs[traced][0].append(seconds)
            runs[traced][1].append(outcome)
    return runs[False], runs[True]


def quantile(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def source_digest() -> str:
    h = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "alexinv"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return None


def golden_path(workload: str) -> str:
    return os.path.join(HERE, "golden", f"{workload}.json")


def check_run(work, scenarios, outcomes, golden):
    """One entry per job, None or why the job failed, and the number of
    reports compared with a golden digest."""
    check = checker.Checker(work, scenarios)
    failures = []
    compared = 0
    for argv, outcome in zip(work.jobs, outcomes):
        reason = check.check_job(argv, *outcome)
        key = checker.job_key(argv, work.files)
        if reason is None and key in golden:
            compared += 1
            if golden[key] != checker.report_key(outcome[0], outcome[1]):
                reason = "report differs from the recorded golden report"
        failures.append(reason)
    return failures, compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write this run's report digests as the golden file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    os.chdir(ROOT)
    os.environ.pop("ALEXINV_THREADS", None)

    # Set-up times, like job times, are read at the reference speed.
    setup_times, meter = [], speed.Speedometer()
    meter.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli, scenarios, work = setup(args)
        t1 = time.perf_counter()
        meter.sample()
        setup_times.append(speed.REFERENCE_S * (t1 - t0) / meter.around(t0, t1))

    if args.trace:
        tracer = tracing.Tracer()
        (times, outcomes), (traced_times, traced) = run_paired(cli, work.jobs, tracer)
        wall = sum(times)
    else:
        rounds, kernel, outcomes, differs = run_rounds(work.jobs, args.seconds)
        scaled = [[speed.REFERENCE_S * t / k for t, k in zip(ts, ks)]
                  for ts, ks in zip(rounds, kernel)]
        # Time to solution counts each job once, at its median over the
        # rounds; the percentiles are over every call of every round.
        wall = sum(statistics.median(ts) for ts in scaled)
        times = [t for ts in scaled for t in ts]
        raw_wall = sum(statistics.median(ts) for ts in rounds)
        kernel_ms = statistics.median(k for ks in kernel for k in ks) * 1e3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    golden = {}
    if args.seed == DEFAULT_SEED and os.path.exists(golden_path(args.workload)):
        with open(golden_path(args.workload), encoding="utf-8") as handle:
            golden = json.load(handle)
    failures, compared = check_run(work, scenarios, outcomes, golden)

    if args.trace:
        for k, (first, again) in enumerate(zip(outcomes, traced)):
            if failures[k] is None and first != again:
                failures[k] = "traced run printed another report"
        metrics = per_layer(tracer.summary(), work, traced, sum(traced_times), wall)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.tsv.gz"))
    else:
        for k in differs:
            if failures[k] is None:
                failures[k] = "a later round printed another report"
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "job_p90_ms": (quantile(times, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    if args.record_golden:
        os.makedirs(os.path.dirname(golden_path(args.workload)), exist_ok=True)
        with open(golden_path(args.workload), "w", encoding="utf-8") as handle:
            json.dump({checker.job_key(a, work.files): checker.report_key(o[0], o[1])
                       for a, o in zip(work.jobs, outcomes)}, handle, indent=0,
                      sort_keys=True)
            handle.write("\n")

    failed = sum(reason is not None for reason in failures)
    for job, reason in zip(work.jobs, failures):
        if reason is not None:
            print(f"FAILED alexinv {' '.join(job)}: {reason}", file=sys.stderr)

    inputs = [checker.options(a).get("presentation") or a[1] for a in work.jobs]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(work.jobs),
        "job_time_samples": len(times),
        "failed_ratio": failed / len(work.jobs),
        "input_reuse_ratio": 1 - len(set(inputs)) / len(inputs),
        "golden_compared": compared,
        "setup_samples_s": setup_times,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ALEXINV_THREADS": os.environ.get("ALEXINV_THREADS", "unset"),
    }
    if not args.trace:
        info["rounds"] = len(rounds[0])
        info["raw_wall_s"] = raw_wall
        info["kernel_ms"] = kernel_ms
    if args.trace:
        info["binding_sites"] = {
            k[: -len(".binding_sites")]: v
            for k, v in tracer.counts.items() if k.endswith(".binding_sites")
        }
    result = {
        "correct": failed == 0,
        "attempted": len(work.jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        record = {"info": info, **result}
        if not args.trace:
            record["job_round_s"] = rounds
            record["job_round_kernel_s"] = kernel
        json.dump(record, handle, indent=1)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


def per_layer(summary, work, traced, traced_wall, wall) -> dict:
    """Calls and self time of every spanned function and of every layer, and
    the work counts and ratios the spans and hooks give."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    under, layers = summary["under"], summary["layers"]
    m = {}
    for mod, fn in tracing.SPANS:
        name = f"{mod}.{fn}"
        m[name + ".calls"] = (calls[name], "count")
        m[name + ".self_s"] = (self_s[name], "s")
    for layer in tracing.LAYERS:
        m[layer + ".self_s"] = (layers[layer], "s")
    points = sum(
        json.loads(stdout)["results"]["total_points"]
        for argv, (code, stdout, _, _) in zip(work.jobs, traced)
        if argv[0] == "charvar" and code in (0, 2)
    )
    shifts = counts["residue_systems.is_admissible.calls"]
    char_polys = calls["alexander_modules.char_poly"]
    scanned = counts["alexander_modules.scan_points"]
    evals = (under["laurent_ring.evaluate_at_torsion", "alexander_modules.support_scan"]
             + under["laurent_ring.evaluate_at_torsion",
                     "alexander_modules.fitting_variety_scan"])
    m["invariant_pipeline.points_scanned"] = (points, "count")
    m["residue_systems.is_admissible.calls"] = (shifts, "count")
    m["residue_systems.hit_ratio"] = (
        counts["residue_systems.found"] / shifts if shifts else 0.0, "ratio")
    m["residue_systems.inconclusive"] = (counts["residue_systems.inconclusive"], "count")
    for name in ("alexander_modules.minors_nonzero", "alexander_modules.minors_total"):
        m[name] = (counts[name], "count")
    m["alexander_modules.gcd_per_char_poly"] = (
        under["laurent_ring.gcd", "alexander_modules.char_poly"] / char_polys
        if char_polys else 0.0, "ratio")
    m["alexander_modules.evals_per_point"] = (evals / scanned if scanned else 0.0, "ratio")
    m["trace_wall_s"] = (traced_wall, "s")
    m["trace_overhead_ratio"] = (traced_wall / wall, "ratio")
    return m


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import alexinv from {SRC}: {exc}", file=sys.stderr)
        sys.exit(1)
