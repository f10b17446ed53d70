"""Command-line front end.

Exit codes: 0 success, 1 usage or schema error (or, from ``run``, a closed
stdout), 2 inconclusive points present, 3 internal inconsistency (invalid
algebra, nonzero square of the differential), 4 internal error (an exception
that escapes ``main``, a bug in the library; only ``run`` gives this code).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from operator import mul

from . import alexander_modules as am
from . import corpus
from . import invariant_pipeline as pipeline
from . import laurent_ring as lr
from .aomoto_complex import betti_vector
from .errors import (
    AlgebraInvalidError,
    DegreeError,
    InconclusiveSearchError,
    InconsistentDifferentialError,
    LimitError,
    ParseError,
    Record,
    SchemaError,
    _set,
)
from .exact_kernel import format_ratio, rational_terms
from .residue_systems import admissible_numerators

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INCONSISTENT = 3
EXIT_INTERNAL = 4


class Report(Record):
    _fields = ("command", "digest", "results", "warnings")

    def __init__(self, command: list, digest: str, results: dict, warnings: list | None = None):
        _set(self, "command", command)
        _set(self, "digest", digest)
        _set(self, "results", results)
        _set(self, "warnings", [] if warnings is None else warnings)

    def to_json(self) -> str:
        return _render({"command": self.command, "digest": self.digest,
                        "results": self.results, "warnings": self.warnings}, "\n")

    def to_text(self) -> str:
        lines = [
            "command: " + " ".join(self.command),
            "digest: " + self.digest,
        ]
        lines.extend(_flatten("results", self.results))
        for w in self.warnings:
            lines.append("warning: " + w)
        return "\n".join(lines)


def _render(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, with ``pad`` the line
    break and indent of ``value``'s line.  A value whose type is not exactly
    dict with str keys, list, tuple, str, int, bool or None raises
    ``TypeError``: a subclass, an ``IntEnum`` say, is refused."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    if kind is list or kind is tuple:
        brackets, items = "[]", [encode_basestring_ascii(v) if type(v) is str
                                 else _render(v, inner) for v in value]
    elif kind is dict:
        brackets = "{}"  # the encoder refuses a key that is not a str
        items = [encode_basestring_ascii(k) + ": " + _render(value[k], inner)
                 for k in sorted(value)]
    else:
        raise TypeError(f"{kind.__name__} is not a report value")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


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


def _path_name(path: str) -> str:
    """``str(pathlib.PurePosixPath(path))``: no empty or ``.`` part, and a
    root of ``//`` kept as it is, of more slashes made ``/``; ``..`` stays."""
    rest = path.lstrip("/")
    slashes = len(path) - len(rest)
    parts = [part for part in rest.split("/") if part and part != "."]
    return ("//" if slashes == 2 else "/" if slashes else "") + "/".join(parts) or "."


def _read_input(path: str, decoder):
    """The checked object in the file at ``path``, and the digest of the same
    bytes.  The name opened, and so every OSError's text, is the one pathlib
    normalises (``_path_name``): ``./x`` is ``x``, and ``""`` is ``.``."""
    with open(_path_name(path), "rb", buffering=0) as f:
        data = f.readall()
    return _decode(decoder, data), "sha256:" + hashlib.sha256(data).hexdigest()


def _resolve_scenario_path(token: str) -> str:
    if os.path.exists(token):
        return token
    try:
        return corpus.bundled_scenario_path(token)
    except KeyError:
        raise SchemaError("", f"scenario file or bundled name not found: {token!r}")


def _parse_residues(text: str, expect: int, what: str) -> tuple[list[int], int]:
    """The ``expect`` comma-separated rationals ``values`` in ``text`` as
    ``(n, L)``: ``L`` their least common denominator, ``n = L * values``."""
    parts = [p.strip() for p in text.split(",")] if text else []
    try:
        terms = [rational_terms(p) for p in parts]
    except ValueError:
        raise SchemaError("", f"{what} must be a comma-separated list of rationals")
    if len(terms) != expect:
        raise SchemaError("", f"{what} must have {expect} entries, got {len(terms)}")
    common = lcm(*(q // gcd(p, q) for p, q in terms))
    return [p * common // q for p, q in terms], common


# ---------------------------------------------------------------------------
# Factored display of univariate characteristic polynomials.


def format_charpoly(poly: lr.LaurentPoly) -> str:
    """Canonical text for a characteristic polynomial: univariate ones
    factored over cyclotomic polynomials (``factor_cyclotomic``),
    multivariate ones expanded."""
    if poly.is_zero:
        return "0"
    if poly.nvars != 1:
        return lr.format_poly(poly)
    work = lr.normalize_unit(poly)
    degree = work.max_exponents()[0]
    return pipeline.factor_cyclotomic(
        [work.terms.get((e,), 0) for e in range(degree + 1)])


# ---------------------------------------------------------------------------
# Commands.


def _cmd_validate(args) -> Report:
    scenario, digest = _load_scenario(args)
    return Report(args._argv, digest, {
        "name": scenario.name,
        "valid": True,
        "components": scenario.components,
        "degrees": list(scenario.degrees),
        "betti": list(betti_vector(scenario.algebra)),
    })


def _load_scenario(args) -> tuple[pipeline.Scenario, str]:
    path = _resolve_scenario_path(args.scenario)
    return _read_input(path, pipeline.scenario_from_json)


def _cmd_aomoto(args) -> Report:
    scenario, digest = _load_scenario(args)
    alpha, common = _parse_residues(args.alpha, scenario.nparams, "--alpha")
    rows = scenario.residue_system.rows
    values = [sum(map(mul, row.coeffs, alpha)) for row in rows]
    dims = scenario.differential.dims_many((alpha,))[0]
    return Report(args._argv, digest, {
        "alpha": [format_ratio(a, common) for a in alpha],
        "admissible": not any(v > 0 and not v % common for v in values),
        "residues": {row.label: format_ratio(v, common) for row, v in zip(rows, values)},
        "dims": list(dims),
    })


def _cmd_twisted(args) -> Report:
    scenario, digest = _load_scenario(args)
    beta, common = _parse_residues(args.beta, scenario.nparams, "--beta")
    bound = scenario.effective_bound(args.bound)
    alpha = admissible_numerators(scenario.residue_system, beta, common, bound)
    beta = [format_ratio(b, common) for b in beta]
    dims, warnings = None, []
    if alpha is None:
        warnings.append(str(InconclusiveSearchError(beta, bound, scenario.name)))
    else:
        dims = list(scenario.differential.dims_many((alpha,))[0])
        alpha = [format_ratio(a, common) for a in alpha]
    return Report(args._argv, digest, {"beta": beta, "alpha": alpha, "dims": dims}, warnings)


def _cmd_admissible(args) -> Report:
    scenario, digest = _load_scenario(args)
    beta, common = _parse_residues(args.beta, scenario.nparams, "--beta")
    bound = scenario.effective_bound(args.bound)
    alpha = admissible_numerators(scenario.residue_system, beta, common, bound)
    results = {
        "beta": [format_ratio(b, common) for b in beta],
        "bound": bound,
        "found": alpha is not None,
    }
    if alpha is None:
        results["alpha"] = None
        return Report(args._argv, digest, results, [
            "no admissible representative inside the search box; this does "
            "not certify non-admissibility"])
    results["alpha"] = [format_ratio(a, common) for a in alpha]
    results["residues"] = {
        row.label: format_ratio(sum(map(mul, row.coeffs, alpha)), common)
        for row in scenario.residue_system.rows
    }
    return Report(args._argv, digest, results)


def _point_names(level: int, nvars: int) -> list[str]:
    """``str`` of each level-N torsion point (``nvars >= 1``), by lexicographic
    grid index: every prefix grows by each label, a coordinate at a time."""
    labels = [format_ratio(n, level) for n in range(level)]
    names, heads = ["("], [label + "," for label in labels]
    for _ in range(nvars - 1):
        names = [name + head for name in names for head in heads]
    tails = [label + ")" for label in labels]
    return [name + tail for name in names for tail in tails]


def _names_at(level: int, nvars: int, indices) -> list[str]:
    """``str`` of the level-N torsion point at each grid index, from its digits."""
    places = [level ** j for j in range(nvars - 1, -1, -1)]
    digits = [[k // p % level for k in indices] for p in places]
    labels = {n: format_ratio(n, level) for n in set().union(*digits)}
    return ["(" + ",".join(t) + ")" for t in zip(*[map(labels.get, c) for c in digits])]


def _cmd_charvar(args) -> Report:
    scenario, digest = _load_scenario(args)
    by_index, inconclusive = pipeline._charvar_indices(
        scenario, args.level, args.degree, args.bound)
    names = _point_names(args.level, scenario.nparams)
    return Report(args._argv, digest, {
        "level": args.level,
        "degree": args.degree,
        "total_points": len(names),
        "buckets": {
            str(dim): list(map(names.__getitem__, found))
            for dim, found in by_index.items()
        },
    }, [f"inconclusive at beta={names[index]}" for index in inconclusive])


def _cmd_milnor(args) -> Report:
    scenario, digest = _load_scenario(args)
    try:
        delta = pipeline.milnor_charpoly(scenario, args.m, args.bound)
    except InconclusiveSearchError as exc:
        return Report(args._argv, digest, {"m": args.m, "delta": None}, [str(exc)])
    return Report(args._argv, digest, {
        "m": args.m,
        "order": delta.order,
        "multiplicities": list(delta.multiplicities),
        "degree": delta.degree,
        "delta": delta.factored_str(),
    })


def _cmd_module(args) -> Report:
    pres, digest = _read_input(args.presentation, am.presentation_from_json)
    if args.op == "charpoly":
        if args.i < 0:
            raise SchemaError("", "--i must be >= 0 for --op charpoly")
        poly = am.char_poly(pres, args.i)
        expanded = lr.format_poly(poly)
        results = {
            "op": "charpoly",
            "i": args.i,
            "charpoly": format_charpoly(poly) if poly.nvars == 1 else expanded,
            "expanded": expanded,
        }
    else:
        if args.level is None:
            raise SchemaError("", f"--level is required for --op {args.op}")
        if args.op == "support":
            head, i = {"op": "support"}, 1
        else:
            if args.i < 1:
                raise SchemaError("", "--i must be >= 1 for --op fitting")
            head, i = {"op": "fitting", "i": args.i}, args.i
        found = am._scan(pres, i, args.level)
        results = {
            **head,
            "level": args.level,
            "count": len(found),
            "points": _names_at(args.level, pres.nvars, found),
        }
    return Report(args._argv, digest, results)


# ---------------------------------------------------------------------------
# Argument parsing.


def _commands(scenario_help: str | None = None) -> list:
    """Each subcommand's name, help, function and arguments, as ``(flag,
    options)`` pairs in the order ``add_argument`` takes them."""

    def arg(flag, **options):
        return flag, options

    scenario = arg("scenario", help=scenario_help)
    rationals = "comma-separated rationals"
    beta = arg("--beta", required=True, help=rationals)
    bound = arg("--bound", type=int, default=3, help="search box (default 3)")
    level = "torsion level N"
    commands = [
        ("validate", "schema and algebra checks of a scenario", _cmd_validate,
         scenario),
        ("aomoto", "complex dimensions at explicit residues", _cmd_aomoto,
         scenario, arg("--alpha", required=True, help=rationals)),
        ("twisted", "twisted cohomology at residue classes", _cmd_twisted,
         scenario, beta, bound),
        ("admissible", "search for admissible residues", _cmd_admissible,
         scenario, beta, bound),
        ("charvar", "jumping-locus scan over torsion points", _cmd_charvar,
         scenario,
         arg("--level", type=int, required=True, help=level),
         arg("--degree", type=int, required=True, help="cohomology degree k"),
         bound),
        ("milnor", "monodromy characteristic polynomial", _cmd_milnor,
         scenario, arg("--m", type=int, required=True, help="cohomology degree"),
         bound),
        ("module", "invariants of a presented module", _cmd_module,
         arg("--presentation", required=True, help="presentation JSON file"),
         arg("--op", choices=("charpoly", "support", "fitting"), required=True),
         arg("--i", type=int, default=0, help="ideal/variety index"),
         arg("--level", type=int, default=None, help=level)),
    ]
    formats = arg("--format", choices=("text", "json"), default="text",
                  help="report format (default: text)")
    return [(name, help, func, (*arguments, formats))
            for name, help, func, *arguments in commands]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, for the argvs that ``_parse_exact`` declines,
    built by the first of them and reused."""
    parser = argparse.ArgumentParser(
        prog="alexinv",
        description=(
            "Exact Alexander invariants and twisted cohomology of "
            "hypersurface arrangement complements"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    names = ", ".join(corpus.bundled_scenario_names())
    for name, help, func, arguments in _commands(
            f"scenario file path or bundled scenario name ({names})"):
        p = sub.add_parser(name, help=help)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def _exact_table(commands) -> dict:
    """What ``_parse_exact`` reads of ``commands``: for each subcommand its
    positionals' dests, each flag's ``(dest, type, choices)`` by option
    string (None for a flag that is not a plain store of one value), the
    namespace's defaults, and the dests of its required flags."""
    table = {}
    for name, _, func, arguments in commands:
        positionals, flags, required = [], {}, set()
        defaults = {"subcommand": name, "func": func}
        for flag, options in arguments:
            dest = flag.lstrip("-")
            defaults[dest] = options.get("default")
            if dest == flag:
                positionals.append(dest)
                continue
            plain = options.keys() <= {"type", "choices", "default", "required", "help"}
            flags[flag] = (dest, options.get("type"), options.get("choices")) if plain else None
            if options.get("required"):
                required.add(dest)
        table[name] = (positionals, flags, defaults, required)
    return table


_EXACT = _exact_table(_commands())


def _parse_exact(table: dict, argv: list):
    """The namespace ``parse_args(argv)`` returns, when ``argv`` is a
    subcommand followed only by positionals and that subcommand's flags,
    each flag spelled out in full, given once and as ``--flag value`` (a
    value not starting with ``-``) or ``--flag=value``.  None for any other
    argv, which is left to argparse: its help, usage and errors included,
    and any flag that ``table`` marks as not a plain store of one value
    (``append``, ``count``, ``store_true``, a store with ``nargs``)."""
    spec = table.get(argv[0]) if argv else None
    if spec is None:
        return None
    positionals, flags, defaults, required = spec
    values, given, bare = dict(defaults), set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            bare.append(token)
            continue
        flag, eq, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None or spec[0] in given:
            return None
        dest, kind, choices = spec
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        given.add(dest)
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if len(bare) != len(positionals) or not required <= given:
        return None
    values.update(zip(positionals, bare))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse_exact(_EXACT, argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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


def run(argv=None) -> int:
    """``main`` at the process boundary.  In-process callers of ``main`` see
    its exceptions; here one that escapes it is a bug in the library, not a
    usage error, so its traceback goes to stderr and the code is
    ``EXIT_INTERNAL``.  A closed stdout (``| head``) exits ``EXIT_USAGE``, with
    stdout on the null device so that the final flush stays quiet."""
    try:
        return main(argv)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except Exception:
        import traceback  # only on this path: it would add to every start-up

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(run())
