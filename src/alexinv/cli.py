"""Command-line front end.

Exit codes: 0 success, 1 usage or schema error, 2 inconclusive points
present, 3 internal inconsistency (invalid algebra, nonzero square of the
differential).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import alexander_modules as am
from . import corpus
from . import invariant_pipeline as pipeline
from . import laurent_ring as lr
from . import residue_systems as rs
from .aomoto_complex import betti_vector
from .errors import (
    AlgebraInvalidError,
    DegreeError,
    InconclusiveSearchError,
    InconsistentDifferentialError,
    LimitError,
    ParseError,
    SchemaError,
)
from .exact_kernel import (
    cyclotomic_poly,
    euler_phi,
    format_rational,
    parse_rational,
)
from .invariant_pipeline import compact_univariate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INCONSISTENT = 3


@dataclass
class Report:
    command: list
    digest: str
    results: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "digest": self.digest,
            "results": self.results,
            "warnings": self.warnings,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            "command: " + " ".join(self.command),
            "digest: " + self.digest,
        ]
        lines.extend(_flatten("results", self.results))
        for w in self.warnings:
            lines.append("warning: " + w)
        return "\n".join(lines)


def _flatten(prefix: str, value) -> list[str]:
    if isinstance(value, dict):
        out = []
        for key, sub in value.items():
            out.extend(_flatten(f"{prefix}.{key}", sub))
        return out
    if isinstance(value, list):
        rendered = ", ".join(_render_scalar(x) for x in value)
        return [f"{prefix}: [{rendered}]"]
    return [f"{prefix}: {_render_scalar(value)}"]


def _render_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)


@functools.lru_cache(maxsize=32)
def _decode(decoder, data: bytes):
    """``decoder(data)``, kept for later calls on equal bytes; errors are not kept."""
    return decoder(data)


def _read_input(args, path: str, decoder):
    """The checked object in the file at ``path``, and a report whose digest
    is of the same bytes."""
    data = Path(path).read_bytes()
    report = Report(_echo(args), "sha256:" + hashlib.sha256(data).hexdigest())
    return _decode(decoder, data), report


def _resolve_scenario_path(token: str) -> str:
    if os.path.exists(token):
        return token
    try:
        return corpus.bundled_scenario_path(token)
    except KeyError:
        raise SchemaError("", f"scenario file or bundled name not found: {token!r}")


def _parse_fraction_list(text: str, expect: int, what: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")] if text else []
    try:
        values = tuple(parse_rational(p) for p in parts)
    except ValueError:
        raise SchemaError("", f"{what} must be a comma-separated list of rationals")
    if len(values) != expect:
        raise SchemaError("", f"{what} must have {expect} entries, got {len(values)}")
    return values


# ---------------------------------------------------------------------------
# Factored display of univariate characteristic polynomials.


def format_charpoly(poly: lr.LaurentPoly) -> str:
    """Canonical text for a characteristic polynomial.

    Univariate polynomials are factored over cyclotomic polynomials by trial
    division, with complete ``t^e - 1`` groups recombined; whatever remains is
    printed expanded.  Multivariate polynomials are printed expanded.
    """
    if poly.is_zero:
        return "0"
    if poly.nvars != 1:
        return lr.format_poly(poly)
    work = lr.normalize_unit(poly)
    original_degree = work.max_exponents()[0]
    mults: dict[int, int] = {}
    # phi(k) >= sqrt(k) for k > 6, so cyclotomic factors of a degree-d
    # polynomial have index at most max(6, d^2).
    for k in range(1, max(6, original_degree * original_degree) + 1):
        if work.is_one:
            break
        if euler_phi(k) > work.max_exponents()[0]:
            continue
        coeffs = cyclotomic_poly(k)
        phi_k = lr.LaurentPoly(1, {(e,): c for e, c in enumerate(coeffs)})
        while True:
            quotient = lr.divide_exact(work, phi_k)
            if quotient is None:
                break
            work = lr.normalize_unit(quotient)
            mults[k] = mults.get(k, 0) + 1
    parts = pipeline.cyclotomic_factors(mults, range(1, original_degree + 1))
    if not work.is_one:
        degree = work.max_exponents()[0]
        rest = compact_univariate(
            [work.terms.get((e,), 0) for e in range(degree + 1)]
        )
        parts.append(f"({rest})" if parts else rest)
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Commands.


def _cmd_validate(args) -> Report:
    scenario, report = _load_scenario(args)
    report.results = {
        "name": scenario.name,
        "valid": True,
        "components": scenario.components,
        "degrees": list(scenario.degrees),
        "betti": list(betti_vector(scenario.algebra)),
    }
    return report


def _load_scenario(args) -> tuple[pipeline.Scenario, Report]:
    path = _resolve_scenario_path(args.scenario)
    return _read_input(args, path, pipeline.scenario_from_json)


def _cmd_aomoto(args) -> Report:
    scenario, report = _load_scenario(args)
    alpha = _parse_fraction_list(args.alpha, scenario.nparams, "--alpha")
    rho = rs.residues(scenario.residue_system, alpha)
    dims = pipeline.cohomology_at(scenario, alpha)
    report.results = {
        "alpha": [format_rational(a) for a in alpha],
        "admissible": not any(v > 0 and v.denominator == 1 for _, v in rho),
        "residues": {label: format_rational(v) for label, v in rho},
        "dims": list(dims),
    }
    return report


def _cmd_twisted(args) -> Report:
    scenario, report = _load_scenario(args)
    beta = _parse_fraction_list(args.beta, scenario.nparams, "--beta")
    alpha = pipeline.admissible_representative(scenario, beta, args.bound)
    dims = None
    if alpha is None:
        bound = scenario.effective_bound(args.bound)
        report.warnings.append(str(InconclusiveSearchError(beta, bound, scenario.name)))
    else:
        dims = list(pipeline.cohomology_at(scenario, alpha))
        alpha = [format_rational(a) for a in alpha]
    report.results = {
        "beta": [format_rational(b) for b in beta],
        "alpha": alpha,
        "dims": dims,
    }
    return report


def _cmd_admissible(args) -> Report:
    scenario, report = _load_scenario(args)
    beta = _parse_fraction_list(args.beta, scenario.nparams, "--beta")
    alpha = pipeline.admissible_representative(scenario, beta, args.bound)
    results = {
        "beta": [format_rational(b) for b in beta],
        "bound": scenario.effective_bound(args.bound),
        "found": alpha is not None,
    }
    if alpha is None:
        results["alpha"] = None
        report.warnings.append(
            "no admissible representative inside the search box; this does "
            "not certify non-admissibility"
        )
    else:
        results["alpha"] = [format_rational(a) for a in alpha]
        results["residues"] = {
            label: format_rational(v)
            for label, v in rs.residues(scenario.residue_system, alpha)
        }
    report.results = results
    return report


def _cmd_charvar(args) -> Report:
    scenario, report = _load_scenario(args)
    scan = pipeline.charvar_scan(scenario, args.level, args.degree, args.bound)
    buckets = {
        str(dim): [str(p) for p in points]
        for dim, points in scan.by_dimension.items()
    }
    report.results = {
        "level": args.level,
        "degree": args.degree,
        "total_points": args.level ** scenario.nparams,
        "buckets": buckets,
    }
    for point in scan.inconclusive:
        report.warnings.append(f"inconclusive at beta={point}")
    return report


def _cmd_milnor(args) -> Report:
    scenario, report = _load_scenario(args)
    try:
        delta = pipeline.milnor_charpoly(scenario, args.m, args.bound)
    except InconclusiveSearchError as exc:
        report.results = {"m": args.m, "delta": None}
        report.warnings.append(str(exc))
        return report
    report.results = {
        "m": args.m,
        "order": delta.order,
        "multiplicities": list(delta.multiplicities),
        "degree": delta.degree,
        "delta": delta.factored_str(),
    }
    return report


def _cmd_module(args) -> Report:
    pres, report = _read_input(args, args.presentation, am.presentation_from_json)
    if args.op == "charpoly":
        if args.i < 0:
            raise SchemaError("", "--i must be >= 0 for --op charpoly")
        poly = am.char_poly(pres, args.i)
        report.results = {
            "op": "charpoly",
            "i": args.i,
            "charpoly": format_charpoly(poly),
            "expanded": lr.format_poly(poly),
        }
    else:
        if args.level is None:
            raise SchemaError("", f"--level is required for --op {args.op}")
        if args.op == "support":
            head = {"op": "support"}
            points = am.support_scan(pres, args.level)
        else:
            if args.i < 1:
                raise SchemaError("", "--i must be >= 1 for --op fitting")
            head = {"op": "fitting", "i": args.i}
            points = am.fitting_variety_scan(pres, args.i, args.level)
        report.results = {
            **head,
            "level": args.level,
            "count": len(points),
            "points": [str(p) for p in points],
        }
    return report


def _echo(args) -> list:
    return list(args._argv)


# ---------------------------------------------------------------------------
# Argument parsing.


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built by the first ``main`` call and reused."""
    parser = argparse.ArgumentParser(
        prog="alexinv",
        description=(
            "Exact Alexander invariants and twisted cohomology of "
            "hypersurface arrangement complements"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def arg(flag, **options):
        return flag, options

    def command(name, help, func, *arguments):
        p = sub.add_parser(name, help=help)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="report format (default: text)",
        )
        p.set_defaults(func=func)

    scenario = arg(
        "scenario",
        help="scenario file path or bundled scenario name "
        f"({', '.join(corpus.bundled_scenario_names())})",
    )
    rationals = "comma-separated rationals"
    beta = arg("--beta", required=True, help=rationals)
    bound = arg("--bound", type=int, default=3, help="search box (default 3)")
    level = "torsion level N"

    command("validate", "schema and algebra checks of a scenario", _cmd_validate,
            scenario)
    command("aomoto", "complex dimensions at explicit residues", _cmd_aomoto,
            scenario, arg("--alpha", required=True, help=rationals))
    command("twisted", "twisted cohomology at residue classes", _cmd_twisted,
            scenario, beta, bound)
    command("admissible", "search for admissible residues", _cmd_admissible,
            scenario, beta, bound)
    command("charvar", "jumping-locus scan over torsion points", _cmd_charvar,
            scenario,
            arg("--level", type=int, required=True, help=level),
            arg("--degree", type=int, required=True, help="cohomology degree k"),
            bound)
    command("milnor", "monodromy characteristic polynomial", _cmd_milnor,
            scenario, arg("--m", type=int, required=True, help="cohomology degree"),
            bound)
    command("module", "invariants of a presented module", _cmd_module,
            arg("--presentation", required=True, help="presentation JSON file"),
            arg("--op", choices=("charpoly", "support", "fitting"), required=True),
            arg("--i", type=int, default=0, help="ideal/variety index"),
            arg("--level", type=int, default=None, help=level))
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    args._argv = ["alexinv"] + argv
    try:
        report = args.func(args)
    except (SchemaError, ParseError, DegreeError, LimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlgebraInvalidError as exc:
        print(f"error: algebra invariants violated: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InconsistentDifferentialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_INCONCLUSIVE if report.warnings else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
