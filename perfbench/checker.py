"""Check every CLI report of a run against the oracle's answers.

``check_job`` returns None for a correct job and a one-line reason for a
wrong one.  A job is wrong when it raised, exited with another code than
expected, wrote to stderr while succeeding, or printed a report that differs
from the answer in any field.  The run calls it after the timed phase.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import gcd

import oracle

# Values the README states for the bundled scenarios.
README_MILNOR = {("example_4_1", 1): "(t-1)^2*(t^5-1)"}


def options(argv) -> dict:
    """``--key value`` and ``--key=value`` pairs of an argv."""
    out, k = {}, 0
    while k < len(argv):
        token = argv[k]
        if token.startswith("--"):
            key, eq, value = token[2:].partition("=")
            if not eq:
                k += 1
                value = argv[k]
            out[key] = value
        k += 1
    return out


def point_str(numerators, level: int) -> str:
    return "(" + ",".join(str(Fraction(k, level)) for k in numerators) + ")"


def job_key(argv, files: dict) -> str:
    """Identity of a job: its argv and the content of its input file."""
    parts = list(argv) + [files.get(options(argv).get("presentation"), "")]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:12]


def report_key(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:12]


class Checker:
    def __init__(self, workload, scenarios: dict):
        self.workload = workload
        self.scenarios = scenarios
        self._digests: dict = {}

    def _digest(self, path: str) -> str:
        if path not in self._digests:
            with open(path, "rb") as handle:
                self._digests[path] = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
        return self._digests[path]

    def check_job(self, argv, code, stdout: str, stderr: str, error) -> str | None:
        if error is not None:
            return f"raised {error}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"exit {code}, no JSON report; stderr: {stderr.strip()[:200]}"
        if report.get("command") != ["alexinv"] + list(argv):
            return "command echo differs"
        cmd = argv[0]
        opts = options(argv)
        if cmd == "module":
            path = opts["presentation"]
            expected = self._module(self.workload.answers[path], opts)
        else:
            sc = self.scenarios[argv[1]]
            path = sc.path
            expected = getattr(self, "_" + cmd)(sc, opts)
        results, warnings = expected
        if report.get("digest") != self._digest(path):
            return "input digest differs"
        want_code = 2 if warnings else 0
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if stderr:
            return f"stderr not empty: {stderr.strip()[:200]}"
        if isinstance(warnings, list):
            if report.get("warnings") != warnings:
                return f"warnings differ: {report.get('warnings')} != {warnings}"
        elif len(report.get("warnings", [])) != warnings:
            return f"expected {warnings} warning(s), got {report.get('warnings')}"
        if callable(results):
            return results(report.get("results"))
        if report.get("results") != results:
            return f"results differ: {_diff(report.get('results'), results)}"
        return None

    # Each expectation is (results or a checking function, warnings), where
    # warnings is the exact list or the number of warnings expected.

    def _validate(self, sc, opts):
        return {
            "name": sc.name,
            "valid": True,
            "components": sc.components,
            "degrees": sc.degrees,
            "betti": sc.betti(),
        }, 0

    def _aomoto(self, sc, opts):
        alpha = [Fraction(a) for a in opts["alpha"].split(",")]
        return {
            "alpha": [str(a) for a in alpha],
            "admissible": sc.is_admissible(alpha),
            "residues": {
                label: str(v) for label, v in zip(sc.labels, sc.residues(alpha))
            },
            "dims": list(sc.dims(alpha)),
        }, 0

    def _twisted(self, sc, opts):
        beta = [Fraction(b) for b in opts["beta"].split(",")]
        found = sc.twisted(beta, int(opts.get("bound", 3)))
        results = {"beta": [str(b) for b in beta], "alpha": None, "dims": None}
        if found is None:
            return results, 1
        alpha, dims = found
        results.update(alpha=[str(a) for a in alpha], dims=list(dims))
        return results, 0

    def _admissible(self, sc, opts):
        beta = [Fraction(b) for b in opts["beta"].split(",")]
        bound = int(opts.get("bound", 3))
        alpha = sc.search(beta, bound)
        results = {
            "beta": [str(b) for b in beta],
            "bound": sc.effective_bound(bound),
            "found": alpha is not None,
            "alpha": None,
        }
        if alpha is None:
            return results, 1
        results["alpha"] = [str(a) for a in alpha]
        results["residues"] = {
            label: str(v) for label, v in zip(sc.labels, sc.residues(alpha))
        }
        return results, 0

    def _charvar(self, sc, opts):
        level, degree = int(opts["level"]), int(opts["degree"])
        bound = int(opts.get("bound", 3))
        buckets: dict = {}
        inconclusive = []
        for nums in product(range(level), repeat=sc.nparams):
            found = sc.twisted([Fraction(k, level) for k in nums], bound)
            label = point_str(nums, level)
            if found is None:
                inconclusive.append(label)
            else:
                buckets.setdefault(str(found[1][degree]), []).append(label)
        total = level ** sc.nparams

        def check(results):
            got = results.get("buckets", {})
            if results.get("total_points") != total:
                return f"total_points {results.get('total_points')} != {total}"
            if sum(map(len, got.values())) + len(inconclusive) != total:
                return "buckets plus inconclusive points do not cover the grid"
            expected = {"level": level, "degree": degree, "total_points": total,
                        "buckets": buckets}
            if results != expected:
                return f"buckets differ: {_diff(results, expected)}"
            return None

        return check, [f"inconclusive at beta={p}" for p in inconclusive]

    def _milnor(self, sc, opts):
        m, bound = int(opts["m"]), int(opts.get("bound", 3))
        order = sc.milnor_order
        mults = []
        for k in range(order):
            found = sc.twisted([Fraction(k, order)] * sc.nparams, bound)
            if found is None:
                return {"m": m, "delta": None}, 1
            mults.append(found[1][m])
        readme = README_MILNOR.get((sc.name, m))

        def check(results):
            expected = {"m": m, "order": order, "multiplicities": mults,
                        "degree": sum(mults), "delta": results.get("delta")}
            if results != expected:
                return f"results differ: {_diff(results, expected)}"
            delta = results["delta"]
            if readme is not None and delta != readme:
                return f"delta {delta} != README value {readme}"
            return _check_delta(delta, order, mults)

        return check, 0

    def _module(self, answer, opts):
        op = opts["op"]
        i = int(opts.get("i", 0))
        if op == "charpoly":
            expected = answer.charpoly(i)

            def check(results):
                if set(results) != {"op", "i", "charpoly", "expanded"} or (
                        results["op"], results["i"]) != (op, i):
                    return f"results fields differ: {sorted(results)}"
                expanded = oracle.parse_poly(results["expanded"], answer.nvars)
                if not oracle.same_up_to_unit(expanded, expected):
                    return f"charpoly {results['expanded']} is not Delta_{i} of the construction"
                if answer.nvars > 1:
                    shown = oracle.parse_poly(results["charpoly"], answer.nvars)
                else:
                    shown = oracle.parse_factored(results["charpoly"])
                if shown != expanded:
                    return f"factored charpoly {results['charpoly']} != expanded form"
                return None

            return check, 0
        level = int(opts["level"])
        index = 0 if op == "support" else i - 1
        points = [point_str(k, level) for k in answer.vanishing_points(index, level)]
        results = {"op": op, "level": level, "count": len(points), "points": points}
        if op == "fitting":
            results["i"] = i
        return results, 0


def _check_delta(delta: str, order: int, mults) -> str | None:
    """The factored text must expand to the product of ``(t - zeta^k)`` over
    the roots, or list the roots when a primitive class is uneven."""
    classes: dict = {}
    for k, mult in enumerate(mults):
        classes.setdefault(order // gcd(k, order), set()).add(mult)
    if any(len(v) > 1 for v in classes.values()):
        roots = ",".join(f"{k}/{order}:{m}" for k, m in enumerate(mults) if m)
        return None if delta == f"roots[{roots}]" else f"delta {delta} should list roots"
    expected = oracle.poly_one(1)
    for d, (mult,) in classes.items():
        for _ in range(mult):
            expected = oracle.poly_mul(expected, oracle.cyclotomic(d))
    if oracle.parse_factored(delta) != expected:
        return f"delta {delta} does not expand to the root multiplicities"
    return None


def _diff(got, want) -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return "; ".join(f"{k}: {str(got.get(k))[:80]} != {str(want.get(k))[:80]}"
                         for k in keys[:3])
    return f"{str(got)[:80]} != {str(want)[:80]}"
