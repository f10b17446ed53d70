import argparse
import ast
import collections
import contextlib
import enum
import hashlib
import importlib.resources
import io
import itertools
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import alexinv
from alexinv import alexander_modules as am
from alexinv import cli, constructions
from alexinv import invariant_pipeline as pipeline
from alexinv import laurent_ring as lr
from alexinv import residue_systems as rs
from alexinv.cli import format_charpoly, main
from alexinv.corpus import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled_scenario,
)
from alexinv.errors import DimensionError, LimitError
from alexinv.exact_kernel import cyclotomic_poly, format_rational
from alexinv.laurent_ring import parse_poly
import arrangements
import reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_bundled_scenarios_are_the_package_resources():
    folder = importlib.resources.files("alexinv") / "data" / "scenarios"
    files = {entry.name[: -len(".json")]: Path(str(entry))
             for entry in folder.iterdir() if entry.name.endswith(".json")}
    assert bundled_scenario_names() == sorted(files) and len(files) == 6
    assert {name: Path(bundled_scenario_path(name)) for name in files} == files


def test_validate_bundled(capsys):
    code, out, _ = run_cli(capsys, "validate", "example_4_1")
    assert code == 0
    assert "results.valid: true" in out
    assert "results.betti: [1, 3, 2]" in out


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-scenario")
    assert code == 1
    assert "error" in err


def test_validate_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "components": 1}))
    code, _, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "/degrees" in err


def test_validate_algebra_violation(tmp_path, capsys):
    scenario = {
        "name": "broken",
        "components": 1,
        "degrees": [1],
        "algebra": {
            "top_degree": 2,
            "basis": {"0": ["1"], "1": ["a", "b"], "2": ["ab"]},
            "products": [
                {"left": "a", "right": "b", "value": [{"basis": "ab", "coeff": "1"}]},
                {"left": "b", "right": "a", "value": [{"basis": "ab", "coeff": "1"}]},
            ],
        },
        "residue_system": {
            "nparams": 1,
            "rows": [
                {"label": "V1", "coeffs": [1], "component": True},
                {"label": "Vinf", "coeffs": [-1], "component": True},
            ],
        },
        "omega_map": [["1", "0"]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(scenario))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert "antisymmetry" in err


def test_inconsistent_differential_exit_code(tmp_path, capsys):
    scenario = {
        "name": "nonassoc",
        "components": 3,
        "degrees": [1, 1, 1],
        "algebra": {
            "top_degree": 3,
            "basis": {"0": ["1"], "1": ["a", "b", "c"], "2": ["bc", "ac"],
                      "3": ["top"]},
            "products": [
                {"left": "b", "right": "c", "value": [{"basis": "bc", "coeff": "1"}]},
                {"left": "a", "right": "c", "value": [{"basis": "ac", "coeff": "1"}]},
                {"left": "a", "right": "bc", "value": [{"basis": "top", "coeff": "1"}]},
                {"left": "b", "right": "ac", "value": [{"basis": "top", "coeff": "1"}]},
            ],
        },
        "residue_system": {
            "nparams": 3,
            "rows": [
                {"label": "V1", "coeffs": [1, 0, 0], "component": True},
                {"label": "V2", "coeffs": [0, 1, 0], "component": True},
                {"label": "V3", "coeffs": [0, 0, 1], "component": True},
                {"label": "Vinf", "coeffs": [-1, -1, -1], "component": True},
            ],
        },
        "omega_map": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(scenario))
    code, _, _ = run_cli(capsys, "validate", str(path))
    assert code == 0  # per-element invariants hold
    code, _, err = run_cli(capsys, "twisted", str(path), "--beta", "1/2,1/2,0")
    assert code == 3
    assert "degree" in err


def test_aomoto_command(capsys):
    code, out, _ = run_cli(
        capsys, "aomoto", "example_4_1", "--alpha=-4/5,1/5,1/5"
    )
    assert code == 0
    assert "results.admissible: true" in out
    assert "results.dims: [0, 1, 1]" in out

    code, out, _ = run_cli(capsys, "aomoto", "example_4_1", "--alpha=1/5,1/5,1/5")
    assert code == 0
    assert "results.admissible: false" in out
    assert "results.residues.alphaP: 1" in out

    code, out, _ = run_cli(capsys, "aomoto", "example_4_1", "--alpha=0,0,0")
    assert "results.dims: [1, 3, 2]" in out


def test_aomoto_length_mismatch(capsys):
    code, _, err = run_cli(capsys, "aomoto", "example_4_1", "--alpha=1/5")
    assert code == 1
    assert "3 entries" in err


def test_twisted_command(capsys):
    code, out, _ = run_cli(capsys, "twisted", "example_5_3", "--beta", "1/5")
    assert code == 0
    assert "results.dims: [0, 0, 2, 1]" in out


def test_admissible_command(capsys):
    code, out, _ = run_cli(
        capsys, "admissible", "example_4_1", "--beta", "1/5,1/5,1/5", "--bound", "3"
    )
    assert code == 0
    assert "results.found: true" in out
    assert "results.alpha: [-4/5, 1/5, 1/5]" in out


# ---------------------------------------------------------------------------
# aomoto, twisted and admissible keep residues as integers over a common
# denominator: against the Fraction-valued public API at every bundled scenario.


@st.composite
def rational_texts(draw, count):
    """``count`` rationals, each as its Fraction and as text: numerators with
    zero and negative ones, denominators 1 to 30, now and then hundreds of
    digits; written unreduced, signed or as a bare integer."""
    values, texts = [], []
    for _ in range(count):
        if draw(st.integers(0, 4)):
            p, q = draw(st.integers(-90, 90)), draw(st.integers(1, 30))
        else:
            p = draw(st.integers(-(10 ** 400), 10 ** 400))
            q = draw(st.integers(1, 10 ** draw(st.integers(1, 300))))
        plus = "+" * (p >= 0)
        text = draw(st.sampled_from(
            [f"{p}/{q}", f"{plus}{p}/{q}"] + [f"{p}", f"{plus}{p}"] * (q == 1)))
        values.append(Fraction(p, q))
        texts.append(text)
    return tuple(values), ",".join(texts)


def fraction_api_report(command, name, values, bound):
    """The exit code and JSON report of ``command`` at ``values``, built from
    ``admissible_search``, ``residues`` and ``cohomology_at``."""
    scenario = load_bundled_scenario(name)
    system = scenario.residue_system
    with open(bundled_scenario_path(name), "rb") as handle:
        digest = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
    written = [format_rational(v) for v in values]
    warnings = []
    if command == "aomoto":
        rho = constructions.residues(system, values)
        results = {
            "alpha": written,
            "admissible": not any(v > 0 and v.denominator == 1 for _, v in rho),
            "residues": {label: format_rational(v) for label, v in rho},
            "dims": list(constructions.cohomology_at(scenario, values)),
        }
    else:
        box = scenario.effective_bound(3 if bound is None else bound)
        alpha = constructions.admissible_search(system, values, box)
        results = {"beta": written, "alpha": None}
        if command == "twisted":
            results["dims"] = None
            if alpha is None:
                warnings.append(
                    f"no admissible representative for {name} with shifts bounded "
                    f"by {box} for beta={tuple(str(b) for b in values)}")
            else:
                results["dims"] = list(constructions.cohomology_at(scenario, alpha))
        else:
            results.update(bound=box, found=alpha is not None)
            if alpha is None:
                warnings.append("no admissible representative inside the search "
                                "box; this does not certify non-admissibility")
            else:
                results["residues"] = {label: format_rational(v)
                                       for label, v in constructions.residues(system, alpha)}
        if alpha is not None:
            results["alpha"] = [format_rational(a) for a in alpha]
    return 2 if warnings else 0, {"digest": digest, "results": results, "warnings": warnings}


def run_quietly(argv):
    """``main(argv)`` with its output caught: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(bundled_scenario_names()),
       st.sampled_from(["aomoto", "twisted", "admissible"]),
       st.sampled_from([None, 0, 1, 2, 3]), st.data())
def test_residue_reports_match_the_fraction_api(name, command, bound, data):
    nparams = load_bundled_scenario(name).nparams
    values, text = data.draw(rational_texts(nparams))
    flag = "--alpha" if command == "aomoto" else "--beta"
    argv = [command, name, f"{flag}={text}", "--format", "json"]
    if bound is not None and command != "aomoto":
        argv += ["--bound", str(bound)]
    code, report = fraction_api_report(command, name, values, bound)
    report["command"] = ["alexinv"] + argv
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert run_quietly(argv) == (code, expected, "")


NINES = "9" * 4300


@pytest.mark.parametrize("argv", [
    # Each entry fits, but the residue at infinity has a denominator of
    # 8600 digits.
    ["aomoto", "torus", f"--alpha=1/{NINES},1/{int(NINES) - 1}"],
    # The first admissible shift is (0, 0, 1): alpha_3 = (10^4300 + 1) / 2.
    ["twisted", "lines_generic3", f"--beta=-5{'0' * 4299},-1/2,{NINES}/2"],
    ["admissible", "lines_generic3", f"--beta=-5{'0' * 4299},-1/2,{NINES}/2"],
    # alpha is beta, and its residue at infinity has too long a denominator.
    ["admissible", "torus", f"--beta=1/{NINES},1/{int(NINES) - 1}", "--bound", "0"],
], ids=["aomoto", "twisted", "admissible", "admissible-residue"])
def test_a_residue_too_long_to_print_is_a_usage_error(argv):
    for fmt in ("text", "json"):
        assert run_quietly(argv + ["--format", fmt]) == (
            1, "", "error: a rational has more than 4300 digits\n")


@pytest.mark.parametrize("argv", [
    ["aomoto", "example_4_1", "--alpha=-4/5,1/5,1/5"],
    ["twisted", "example_4_1", "--beta=1/5,1/5,1/5"],
    ["twisted", "example_5_3", "--beta=1/3"],
    ["admissible", "example_4_1", "--beta=1/5,2/3,0"],
])
def test_residue_commands_convert_each_vector_at_most_once(monkeypatch, argv):
    calls = []
    integer_vector = constructions.integer_vector

    def counted(values):
        calls.append(values)
        return integer_vector(values)

    monkeypatch.setattr(constructions, "integer_vector", counted)
    assert run_quietly(argv)[0] in (0, 2)
    assert len(calls) <= 1


def test_charvar_command_json(capsys):
    code, out, _ = run_cli(
        capsys, "charvar", "example_4_2", "--level", "5", "--degree", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    buckets = payload["results"]["buckets"]
    assert sum(len(v) for v in buckets.values()) == 125
    assert len(buckets["4"]) == 1
    assert len(buckets["2"]) == 124
    assert payload["warnings"] == []


def test_charvar_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "charvar", "example_5_3", "--level", "3", "--degree", "2"
    )
    assert code == 2
    assert out.count("warning: inconclusive") == 2


@pytest.mark.parametrize("level", ["0", "-3"])
def test_charvar_rejects_level_below_one(capsys, level):
    code, out, err = run_cli(
        capsys, "charvar", "torus", "--level", level, "--degree", "1"
    )
    assert code == 1
    assert out == ""
    assert "level must be >= 1" in err


def test_charvar_rejects_grid_over_the_point_cap(capsys, monkeypatch):
    # 47^3 > 100000 and 100001 > 100000 are refused before any point is made.
    for name, level in (("example_4_1", "47"), ("example_5_3", "100001")):
        code, out, err = run_cli(
            capsys, "charvar", name, "--level", level, "--degree", "1"
        )
        assert code == 1
        assert out == ""
        assert "more than the limit" in err
    # The cap is inclusive: with a cap of 27, level 3 of a 3-parameter
    # scenario is scanned and level 4 is refused.
    monkeypatch.setattr(lr, "MAX_SCAN_POINTS", 27)
    code, _, _ = run_cli(capsys, "charvar", "example_4_1", "--level", "3", "--degree", "1")
    assert code == 0
    code, _, err = run_cli(capsys, "charvar", "example_4_1", "--level", "4", "--degree", "1")
    assert code == 1
    assert "4^3 torsion points" in err


def _charvar_report(name, level, degree, fmt):
    """The ``charvar`` report built from ``charvar_scan``'s torsion points,
    each rendered by ``str``, and its exit code."""
    scenario = load_bundled_scenario(name)
    scan = constructions.charvar_scan(scenario, level, degree)
    argv = ["charvar", name, "--level", str(level), "--degree", str(degree), "--format", fmt]
    with open(bundled_scenario_path(name), "rb") as handle:
        digest = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
    report = cli.Report(["alexinv"] + argv, digest, {
        "level": level,
        "degree": degree,
        "total_points": level ** scenario.nparams,
        "buckets": {
            str(dim): [str(p) for p in points]
            for dim, points in scan.by_dimension.items()
        },
    }, [f"inconclusive at beta={p}" for p in scan.inconclusive])
    text = report.to_json() if fmt == "json" else report.to_text()
    return argv, (2 if report.warnings else 0), text + "\n"


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_charvar_reports_match_the_scans_torsion_points(capsys, name):
    scenario = load_bundled_scenario(name)
    for level in range(1, 14):
        if level ** scenario.nparams > lr.MAX_SCAN_POINTS:
            continue
        for degree in range(1, scenario.algebra.top_degree + 1):
            for fmt in ("json", "text"):
                argv, code, text = _charvar_report(name, level, degree, fmt)
                assert run_cli(capsys, *argv) == (code, text, "")


MODULE_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "module")
MODULE_PRESENTATIONS = sorted(
    name for name in os.listdir(MODULE_GOLDEN_DIR) if name.endswith(".json"))


def _presentation(path):
    """The presentation in the file at ``path``, decoded as the CLI decodes it."""
    with open(path, "rb") as handle:
        return am.presentation_from_json(handle.read())


@pytest.mark.parametrize("name", MODULE_PRESENTATIONS)
def test_module_reports_match_the_public_scans(capsys, name):
    # The goldens cover levels 2-12 and --i 1-2; this covers level 1 and
    # every --i up to generators + 1, the full ring's variety.
    path = os.path.join(MODULE_GOLDEN_DIR, name)
    pres = _presentation(path)
    ops = [(("support",), lambda level: constructions.support_scan(pres, level))]
    for i in range(1, pres.generators + 2):
        ops.append((("fitting", "--i", str(i)),
                    lambda level, i=i: constructions.fitting_variety_scan(pres, i, level)))
    for level in range(1, 13):
        for op, scan in ops:
            points = [str(p) for p in scan(level)]
            argv = ["module", "--presentation", path, "--op", *op, "--level", str(level)]
            code, out, err = run_cli(capsys, *argv, "--format", "json")
            assert (code, err) == (0, "")
            results = json.loads(out)["results"]
            assert (results["points"], results["count"]) == (points, len(points))
            code, out, err = run_cli(capsys, *argv, "--format", "text")
            assert (code, err) == (0, "")
            assert f"results.count: {len(points)}" in out.splitlines()
            assert f"results.points: [{', '.join(points)}]" in out.splitlines()


# Runs each argv, read as JSON lines from stdin, through ``cli.main`` in one
# fresh process, counting the calls of ``Presentation.minors`` and
# ``_gcd_prs``, and prints the exit codes, the counts and the loaded modules.
EVERY_COMMAND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from alexinv import alexander_modules, cli, laurent_ring
calls = {"minors": 0, "_gcd_prs": 0}

def counted(name, function):
    def wrapper(*args):
        calls[name] += 1
        return function(*args)
    return wrapper

alexander_modules.Presentation.minors = counted("minors", alexander_modules.Presentation.minors)
laurent_ring._gcd_prs = counted("_gcd_prs", laurent_ring._gcd_prs)
codes = []
for line in sys.stdin:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(json.loads(line)))
print(json.dumps([codes, calls, sorted(n for n in sys.modules if n.startswith("alexinv"))]))
"""


def test_no_command_loads_the_constructions(tmp_path):
    # Every subcommand in both formats on each bundled scenario and golden
    # presentation, a presentation that does not peel, example_5_3 and a
    # Milnor search at their inconclusive points, help and usage errors.
    from test_compiled_scan import square_and_search_scenario

    argvs = []
    for name in bundled_scenario_names():
        values = ",".join(["1/3"] * load_bundled_scenario(name).nparams)
        for argv in (["validate", name], ["aomoto", name, f"--alpha={values}"],
                     ["twisted", name, f"--beta={values}"],
                     ["admissible", name, f"--beta={values}", "--bound", "2"],
                     ["charvar", name, "--level", "3", "--degree", "1"],
                     ["milnor", name, "--m", "1"]):
            argvs += [argv + ["--format", form] for form in ("text", "json")]
    unpeeled = tmp_path / "unpeeled.json"
    unpeeled.write_text(json.dumps({"nvars": 2, "generators": 2, "relations": 2, "matrix": [
        ["t1 - 1", "t2 - 1"], ["t2 - 1", "t1 + 1"]]}))
    presentations = sorted(Path(MODULE_GOLDEN_DIR).glob("*.json")) + [unpeeled]
    for path in presentations:
        for op in (["charpoly", "--i", "1"], ["support", "--level", "4"],
                   ["fitting", "--i", "2", "--level", "4"]):
            for form in ("text", "json"):
                argvs.append(["module", "--presentation", str(path), "--op", *op,
                              "--format", form])
    inconclusive = tmp_path / "inconclusive.json"
    inconclusive.write_text(square_and_search_scenario([[4, 0], [-4, 0]]))
    argvs += [["twisted", "example_5_3", "--beta=1/3"],
              ["admissible", "example_5_3", "--beta=1/3", "--format", "json"],
              ["charvar", "example_5_3", "--level", "3", "--degree", "2"],
              ["charvar", "example_5_3", "--level", "12", "--degree", "2", "--format", "json"],
              ["milnor", str(inconclusive), "--m", "1"],
              ["--help"], ["module", "--help"], ["charvar", "torus", "--bogus"],
              ["validate", str(tmp_path / "missing.json")]]
    src = str(Path(alexinv.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-S", "-c", EVERY_COMMAND, src], text=True,
                          input="".join(json.dumps(argv) + "\n" for argv in argvs),
                          capture_output=True, timeout=300, check=True)
    codes, calls, loaded = json.loads(done.stdout)
    assert len(codes) == len(argvs)
    assert codes[-9:] == [2, 2, 2, 2, 2, 0, 0, 1, 1]
    assert set(codes[:-9]) == {0, 2}
    assert calls["minors"] > 0 and calls["_gcd_prs"] > 0
    assert "alexinv.constructions" not in loaded and "alexinv.cli" in loaded


def test_no_scan_command_builds_a_torsion_point(capsys, monkeypatch):
    path = os.path.join(MODULE_GOLDEN_DIR, "bi_5x6.json")
    commands = [
        ("charvar", "example_4_1", "--level", "5", "--degree", "1"),
        ("charvar", "torus", "--level", "12", "--degree", "1"),
        ("module", "--presentation", path, "--op", "support", "--level", "6"),
        ("module", "--presentation", path, "--op", "fitting", "--i", "2", "--level", "6"),
    ]
    before = [run_cli(capsys, *argv) for argv in commands]

    def refuse(self, *args):
        raise RuntimeError("a TorsionPoint was built")

    monkeypatch.setattr(constructions.TorsionPoint, "__init__", refuse)
    with pytest.raises(RuntimeError, match="was built"):
        constructions.support_scan(_presentation(path), 6)
    assert [run_cli(capsys, *argv) for argv in commands] == before
    assert all(code in (0, 2) and out for code, out, _ in before)


def test_a_module_scan_labels_only_its_hits(tmp_path, capsys, monkeypatch):
    # Only charvar, where every point lands in a bucket, labels the whole
    # grid; a module scan labels the points it found.
    labelled = []
    names_at = cli._names_at

    def spy(level, nvars, indices):
        labelled.append(len(indices))
        return names_at(level, nvars, indices)

    line = tmp_path / "line.json"
    line.write_text(json.dumps(
        {"nvars": 1, "generators": 1, "relations": 1, "matrix": [["t1 - 1"]]}))
    cases = [
        (os.path.join(MODULE_GOLDEN_DIR, "bi_5x6.json"), ("support",), 6, 2),
        (os.path.join(MODULE_GOLDEN_DIR, "bi_5x6.json"), ("fitting", "--i", "2"), 12, 2),
        (str(line), ("support",), 100000, 1),
    ]
    for path, op, level, nvars in cases:
        argv = ("module", "--presentation", path, "--op", *op, "--level", str(level))
        before = [run_cli(capsys, *argv, "--format", form) for form in ("json", "text")]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_names_at", spy)
            patch.setattr(cli, "_point_names", None)
            labelled.clear()
            after = [run_cli(capsys, *argv, "--format", form) for form in ("json", "text")]
        assert after == before
        assert all(code == 0 and out for code, out, _ in before)
        count = json.loads(after[0][1])["results"]["count"]
        assert labelled == [count, count] and count < level ** nvars


def test_point_names_are_the_torsion_points_strings():
    cases = [(level, nvars) for level in range(1, 14) for nvars in range(1, 5)
             if level ** nvars <= lr.MAX_SCAN_POINTS] + [(46, 3)]
    for level, nvars in cases:
        assert cli._point_names(level, nvars) == [
            str(p) for p in constructions.torsion_grid(level, nvars)], (level, nvars)


@st.composite
def _grid_indices(draw):
    level = draw(st.integers(1, 13))
    nvars = draw(st.integers(1, 4))
    size = level ** nvars
    return level, nvars, draw(st.lists(st.integers(0, size - 1), max_size=40))


@settings(max_examples=300, deadline=None, database=None)
@given(_grid_indices())
@example((6, 2, []))
@example((5, 3, [124, 0, 124, 7, 0]))
def test_names_at_reads_the_same_names_as_the_whole_grid(case):
    level, nvars, indices = case
    names = cli._point_names(level, nvars)
    assert cli._names_at(level, nvars, indices) == [names[k] for k in indices]


def test_a_closed_stdout_exits_1_quietly():
    # The level-46 report is far larger than a pipe's buffer, so the write
    # is still blocked when the reader closes its end.
    for form in ("json", "text"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "alexinv", "charvar", "lines_concurrent3",
             "--level", "46", "--degree", "1", "--format", form],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=os.path.dirname(os.path.dirname(alexinv.__file__)))
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b""), form
        assert head == (b'{\n  "comma' if form == "json" else b"command: a")


def test_charvar_over_the_point_cap_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "charvar", "example_4_1", "--level", "47", "--degree", "1")
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "")
    assert err == "error: level 47 gives 47^3 torsion points, more than the limit of 100000\n"


def test_charvar_with_a_huge_residue_coefficient(tmp_path, capsys):
    # A non-component row with a 10**15 coefficient: too large for a table
    # of the row's values, so the scan sums it point by point.
    with open(bundled_scenario_path("example_4_1"), encoding="utf-8") as handle:
        data = json.load(handle)
    data["residue_system"]["rows"].append(
        {"label": "huge", "coeffs": [10**15, -(10**15) + 1, 12], "component": False})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    argv = ["charvar", str(path), "--level", "12", "--degree", "1", "--format", "json"]
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    scenario = pipeline.load_scenario(str(path))
    scan = constructions.charvar_scan(scenario, 12, 1)
    assert code == (2 if scan.inconclusive else 0)
    assert json.loads(out)["results"]["buckets"] == {
        str(dim): [str(p) for p in points] for dim, points in scan.by_dimension.items()
    }


def test_search_past_the_shift_budget_is_inconclusive(capsys, monkeypatch):
    # No box is refused: a search walks at most MAX_SHIFT_BOX shifts of its
    # order, at any bound, and a point still blocked after them is
    # inconclusive, never negative.
    argv = ("twisted", "example_4_1", "--beta", "1/5,1/5,1/5")
    for bound in ("3", "1000000"):
        code, out, _ = run_cli(capsys, *argv, "--bound", bound)
        assert code == 0
        assert "results.alpha: [-4/5, 1/5, 1/5]" in out
    for other in (
        ("charvar", "example_4_1", "--level", "2", "--degree", "1", "--bound", "23"),
        ("admissible", "torus", "--beta", "1/2,1/3", "--bound", "1000000"),
        ("milnor", "torus", "--m", "1", "--bound", "1000000"),
    ):
        assert run_cli(capsys, *other)[0] == 0
    # The budget applies to the box searched, after a scenario's max_shift.
    code, _, _ = run_cli(capsys, "twisted", "example_5_3", "--beta", "1/5", "--bound", "1000000")
    assert code == 0
    # A budget of one shift tries only the zero shift, and (-1, 0, 0) is
    # never reached.
    monkeypatch.setattr(rs, "MAX_SHIFT_BOX", 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == ""
    assert "results.alpha: null" in out
    assert (
        "warning: no admissible representative for example_4_1 with shifts "
        "bounded by 3 for beta=('1/5', '1/5', '1/5')"
    ) in out


@pytest.mark.parametrize("argv", [
    ("charvar", "torus", "--level", "2", "--degree", "1"),
    ("twisted", "torus", "--beta", "1/2,1/3"),
    ("admissible", "torus", "--beta", "1/2,1/3"),
    ("milnor", "torus", "--m", "1"),
])
def test_negative_bound_is_refused_where_no_row_blocks(capsys, argv):
    # At beta = (1/2, 1/3) no residue is an integer, so the search tries no
    # shift: the bound is checked anyway, before any shift is read.
    code, out, err = run_cli(capsys, *argv, "--bound=-1")
    assert code == 1
    assert out == ""
    assert "search bound must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("charvar", "example_4_1", "--level", "12", "--degree", "1"),
    ("twisted", "example_4_1", "--beta", "1/5,1/5,1/5"),
    ("admissible", "example_4_2", "--beta", "1/2,1/2,0"),
    ("milnor", "example_4_1", "--m", "1"),
])
def test_negative_bound_is_refused_after_a_search_that_walks(capsys, monkeypatch, argv):
    # Rows block here, so the first call walks the shift order. For milnor,
    # the scenario's Milnor table then answers the next call, which walks
    # no shift. A negative bound is still refused on every command.
    walked = []
    order = rs.shift_order
    monkeypatch.setattr(rs, "shift_order", lambda *args: map(
        lambda shift: walked.append(shift) or shift, order(*args)))
    assert run_cli(capsys, *argv)[0] == 0 and walked
    if argv[0] == "milnor":
        walked.clear()
        assert run_cli(capsys, *argv)[0] == 0 and walked == []
    code, out, err = run_cli(capsys, *argv, "--bound=-1")
    assert (code, out) == (1, "")
    assert "search bound must be >= 0" in err


def test_milnor_command(capsys):
    code, out, _ = run_cli(capsys, "milnor", "example_4_1", "--m", "1")
    assert code == 0
    assert "results.delta: (t-1)^2*(t^5-1)" in out
    assert "results.multiplicities: [3, 1, 1, 1, 1]" in out


def test_module_charpoly(tmp_path, capsys):
    pres = {
        "nvars": 1,
        "generators": 2,
        "relations": 2,
        "matrix": [["t^2-2*t+1", "0"], ["0", "t-1"]],
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(pres))
    code, out, _ = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "charpoly", "--i", "0"
    )
    assert code == 0
    assert "results.charpoly: (t-1)^3" in out

    free = {"nvars": 1, "generators": 2, "relations": 0, "matrix": [[], []]}
    path2 = tmp_path / "free.json"
    path2.write_text(json.dumps(free))
    code, out, _ = run_cli(
        capsys, "module", "--presentation", str(path2), "--op", "charpoly", "--i", "0"
    )
    assert code == 0
    assert "results.charpoly: 0" in out


def test_module_support_and_fitting(tmp_path, capsys):
    pres = {
        "nvars": 3,
        "generators": 1,
        "relations": 1,
        "matrix": [["t1*t2^2*t3^2-1"]],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(pres))
    code, out, _ = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "support",
        "--level", "5",
    )
    assert code == 0
    assert "results.count: 25" in out

    code, _, err = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "support"
    )
    assert code == 1 and "--level" in err

    code, out, _ = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "fitting",
        "--i", "1", "--level", "5",
    )
    assert code == 0
    assert "results.count: 25" in out


@pytest.fixture
def bivariate_presentation(tmp_path):
    pres = {"nvars": 2, "generators": 1, "relations": 1, "matrix": [["t1*t2-1"]]}
    path = tmp_path / "bivariate.json"
    path.write_text(json.dumps(pres))
    return str(path)


MODULE_SCANS = (("support",), ("fitting", "--i", "1"), ("fitting", "--i", "2"))


@pytest.mark.parametrize("op", MODULE_SCANS)
@pytest.mark.parametrize("level", ["0", "-3"])
def test_module_scans_reject_level_below_one(capsys, bivariate_presentation, op, level):
    # "--i 2" asks for the full ring's variety, which needs no scan: the
    # level is refused all the same.
    code, out, err = run_cli(
        capsys, "module", "--presentation", bivariate_presentation, "--op", *op,
        "--level", level,
    )
    assert code == 1
    assert out == ""
    assert "level must be >= 1" in err


@pytest.mark.parametrize("op", MODULE_SCANS)
def test_module_scans_reject_grid_over_the_point_cap(
    capsys, monkeypatch, bivariate_presentation, op
):
    # Inclusive: with a cap of 25, level 5 of a bivariate module is scanned
    # and level 6 is refused.
    monkeypatch.setattr(lr, "MAX_SCAN_POINTS", 25)
    argv = ("module", "--presentation", bivariate_presentation, "--op", *op)
    code, out, _ = run_cli(capsys, *argv, "--level", "5")
    assert code == 0
    assert "results.level: 5" in out
    code, out, err = run_cli(capsys, *argv, "--level", "6")
    assert code == 1
    assert out == ""
    assert "6^2 torsion points, more than the limit of 25" in err


@pytest.mark.parametrize("argv, message", [
    (("--op", "charpoly", "--i", "-1"), "--i must be >= 0 for --op charpoly"),
    (("--op", "charpoly", "--i=-1"), "--i must be >= 0 for --op charpoly"),
    (("--op", "fitting", "--level", "3"), "--i must be >= 1 for --op fitting"),
    (("--op", "fitting", "--level", "3", "--i", "0"), "--i must be >= 1 for --op fitting"),
])
def test_module_rejects_an_index_below_the_op_minimum(
    capsys, bivariate_presentation, argv, message
):
    # "--i=-1" is read by the exact parse; fitting's --i defaults to 0.
    argv = ("module", "--presentation", bivariate_presentation, *argv)
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


# One component and no degree-1 class: the algebra is the unit alone.
POINT_ALGEBRA = {
    "name": "point",
    "components": 1,
    "degrees": [1],
    "algebra": {"top_degree": 0, "basis": {"0": ["1"]}},
    "residue_system": {
        "nparams": 1,
        "rows": [
            {"label": "V1", "coeffs": [1], "component": True},
            {"label": "Vinf", "coeffs": [-1], "component": True},
        ],
    },
    "omega_map": [[]],
}


@pytest.mark.parametrize("argv, code, line, printed", [
    (("validate",), 0, "results.betti: [1]", ""),
    (("aomoto", "--alpha=1/2"), 0, "results.dims: [1]", ""),
    (("twisted", "--beta=1/2"), 0, "results.dims: [1]", ""),
    (("milnor", "--m", "0"), 0, "results.delta: (t^2-1)", ""),
    (("charvar", "--level", "2", "--degree", "1"), 1, None,
     "error: degree 1 out of range [1, 0]\n"),
])
def test_a_scenario_whose_algebra_has_top_degree_zero(
    tmp_path, capsys, argv, code, line, printed
):
    path = tmp_path / "point.json"
    path.write_text(json.dumps(POINT_ALGEBRA))
    command, *rest = argv
    found, out, err = run_cli(capsys, command, str(path), *rest)
    assert (found, err) == (code, printed)
    assert line in out.splitlines() if line else out == ""


def run_json(capsys, *argv) -> tuple:
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


def test_milnor_multiplicities_are_twisted_dimensions(tmp_path, capsys):
    # Two paths through cli.main: milnor's multiplicity at k is dim H^m of
    # twisted at beta = (k/order, ..., k/order), at every degree and bound;
    # where milnor finds no representative, twisted gives the same warning
    # at the beta it names, and no dimensions.
    paths = [bundled_scenario_path(name) for name in bundled_scenario_names()]
    for fixture in (arrangements.a3_decone, arrangements.deleted_b3_decone,
                    arrangements.non_fano):
        data = fixture()
        paths.append(tmp_path / f"{data['name']}.json")
        paths[-1].write_text(json.dumps(data))
    compared = refused = 0
    for path, bound in itertools.product(map(str, paths), ("0", "1", "3")):
        scenario = pipeline.load_scenario(path)
        order = pipeline.milnor_order(scenario)
        for m in range(scenario.algebra.top_degree + 1):
            code, milnor = run_json(capsys, "milnor", path, "--m", str(m), "--bound", bound)
            if code == 2:
                (warning,) = milnor["warnings"]
                beta = ",".join(ast.literal_eval(warning.rpartition("beta=")[2]))
                found, report = run_json(capsys, "twisted", path, f"--beta={beta}", "--bound", bound)
                assert (found, report["warnings"], report["results"]["dims"]) == (2, [warning], None)
                refused += 1
                continue
            assert code == 0 and milnor["results"]["order"] == order
            for k, multiplicity in enumerate(milnor["results"]["multiplicities"]):
                beta = ",".join([str(Fraction(k, order))] * scenario.nparams)
                found, report = run_json(capsys, "twisted", path, f"--beta={beta}", "--bound", bound)
                assert (found, report["results"]["dims"][m]) == (0, multiplicity), (path, bound, m, k)
                compared += 1
    assert (compared, refused) == (387, 9)


def test_range_checks_raise_limit_error():
    for check in (
        lambda: constructions.torsion_grid(0, 2),
        lambda: constructions.torsion_grid(400, 2),
        lambda: constructions.TorsionPoint(0, ()),
        lambda: constructions.TorsionPoint(3, (3,)),
        lambda: constructions.TorsionPoint.from_numerators(-1, (0,)),
        lambda: reference.from_residues(4, ("1/3",)),
        lambda: constructions.shift_vectors(2, -1),
        lambda: rs.shift_order(2, -1),  # on the call, before any shift is read
    ):
        with pytest.raises(LimitError):
            check()


def test_internal_value_error_is_not_a_usage_error(
    capsys, monkeypatch, bivariate_presentation
):
    # A plain ValueError from inside the library is a bug, not bad input: it
    # propagates instead of being reported as a usage error with exit 1.
    def broken(pres, i):
        raise ValueError("kernel slip")

    monkeypatch.setattr(am, "char_poly", broken)
    with pytest.raises(ValueError, match="kernel slip"):
        main(["module", "--presentation", bivariate_presentation, "--op", "charpoly"])
    assert capsys.readouterr().err == ""


def test_undecodable_input_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    for argv in (("validate", str(bad)),
                 ("module", "--presentation", str(bad), "--op", "charpoly")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "codec can't decode" in err


def test_bool_is_not_an_integer_in_a_presentation(tmp_path, capsys):
    # JSON true is a Python bool, and bool is a subclass of int.
    base = {"nvars": 1, "generators": 1, "relations": 1, "matrix": [["t-1"]]}
    for key, where in (("nvars", "/nvars: must be a positive integer"),
                       ("generators", "/generators: counts must be"),
                       ("relations", "/generators: counts must be")):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(dict(base, **{key: True})))
        code, out, err = run_cli(
            capsys, "module", "--presentation", str(path), "--op", "charpoly")
        assert (code, out) == (1, "")
        assert err.startswith("error: " + where), err


SCENARIO_BOOLS = (
    (("components",), "/components: must be a positive integer"),
    (("degrees", 0), "/degrees: must be a list of 3 positive integers"),
    (("intersection_points", 1, 1), "/intersection_points/1: must be a list"),
    (("max_shift",), "/max_shift: must be a non-negative integer"),
    (("algebra", "top_degree"), "/algebra/top_degree: must be a non-negative"),
    (("residue_system", "nparams"), "/residue_system/nparams: must be a positive"),
    (("residue_system", "rows", 0, "coeffs", 0), "/residue_system/rows/0/coeffs:"),
    (("omega_map", 0, 0), "/omega_map/0: "),
)


@pytest.mark.parametrize("keys,where", SCENARIO_BOOLS)
def test_bool_is_not_an_integer_in_a_scenario(tmp_path, capsys, keys, where):
    from alexinv.corpus import bundled_scenario_path

    with open(bundled_scenario_path("example_4_1"), encoding="utf-8") as handle:
        data = json.load(handle)
    parent = data
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = True
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: " + where), err


def test_internal_parser_error_is_not_a_schema_error(
    capsys, monkeypatch, bivariate_presentation
):
    # Only the parser's own ParseError and DimensionError are bad input.
    def broken(text, nvars):
        raise RuntimeError("parser slip")

    monkeypatch.setattr(am, "parse_poly", broken)
    with pytest.raises(RuntimeError, match="parser slip"):
        main(["module", "--presentation", bivariate_presentation, "--op", "charpoly"])
    assert capsys.readouterr().err == ""


def test_run_gives_an_escaped_exception_its_own_exit_code(
    capsys, monkeypatch, bivariate_presentation
):
    # At the process boundary an exception that escapes main is a bug in the
    # library: exit 4 with its traceback, never the usage code 1.
    def broken(pres, i):
        raise RuntimeError("kernel slip")

    monkeypatch.setattr(am, "char_poly", broken)
    code = cli.run(["module", "--presentation", bivariate_presentation, "--op", "charpoly"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: kernel slip")


def test_run_passes_main_exit_codes_through(capsys, bivariate_presentation):
    assert cli.run(["module", "--presentation", bivariate_presentation,
                    "--op", "charpoly"]) == 0
    assert cli.run(["validate", "no-such-scenario"]) == 1
    assert cli.run(["no-such-command"]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_entry_points_go_through_run():
    # python -m alexinv exits 4 on an escaped exception, as the script does.
    code = (
        "import runpy, sys\n"
        "import alexinv.alexander_modules as am\n"
        "def broken(pres, i): raise RuntimeError('kernel slip')\n"
        "am.char_poly = broken\n"
        "sys.argv = ['alexinv', 'module', '--presentation', sys.argv[1],"
        " '--op', 'charpoly']\n"
        "runpy.run_module('alexinv', run_name='__main__')\n"
    )
    src = os.path.dirname(os.path.dirname(alexinv.__file__))
    path = os.path.join(os.path.dirname(__file__), "golden", "module", "bi_2x3.json")
    proc = subprocess.run([sys.executable, "-c", code, path],
                          capture_output=True, text=True, cwd=src)
    assert proc.returncode == 4
    assert "RuntimeError: kernel slip" in proc.stderr
    pyproject = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
    if os.path.exists(pyproject):
        with open(pyproject, encoding="utf-8") as handle:
            assert 'alexinv = "alexinv.cli:run"' in handle.read()


def test_overlong_printed_coefficient_is_a_limit_error(tmp_path, capsys):
    # Each entry is inside every cap, but the determinant's coefficients
    # have about 6000 digits: too long to print, so exit 1 with one error line.
    entry = "9" * 3000 + "*t1-1"
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"nvars": 1, "generators": 2, "relations": 2,
                                "matrix": [[entry, "0"], ["0", entry]]}))
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "module", "--presentation", str(path),
                                 "--op", "charpoly", "--i", "0", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "error: a rational has more than 4300 digits\n"
    code, out, _ = run_cli(capsys, "module", "--presentation", str(path),
                           "--op", "charpoly", "--i", "1")
    assert code == 0
    assert "9" * 3000 in out


def test_printers_refuse_overlong_coefficients():
    big = 10 ** 4300
    with pytest.raises(LimitError):
        pipeline.compact_univariate([1, big])
    for coeff in (big, -big, Fraction(1, big)):
        with pytest.raises(LimitError):
            lr.format_poly(lr.LaurentPoly(1, {(1,): coeff, (0,): 1}))
        with pytest.raises(LimitError):
            lr.format_poly(lr.LaurentPoly(1, {(0,): coeff}))
    assert pipeline.compact_univariate([-1, big - 1]) == "9" * 4300 + "*t-1"
    assert lr.format_poly(lr.LaurentPoly(1, {(0,): Fraction(-1, 2)})) == "-1/2"


def test_overlong_integer_literal_is_a_schema_error(tmp_path, capsys):
    # int() refuses digit strings over the interpreter's limit with a plain
    # ValueError; the parser turns that into a ParseError.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer string conversion is unlimited")
    digits = "1" * (limit + 1)
    for text in (digits + "*t-1", "t^" + digits, "1/" + digits, "t" + digits):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(
            {"nvars": 1, "generators": 1, "relations": 1, "matrix": [[text]]}))
        code, out, err = run_cli(
            capsys, "module", "--presentation", str(path), "--op", "charpoly")
        assert (code, out) == (1, "")
        assert err.startswith("error: /matrix/0/0: Exceeds the limit"), err


def test_usage_error_exit_code(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["milnor"]) == 1  # missing required arguments


def test_golden_stability(capsys):
    from alexinv.corpus import bundled_scenario_names

    _, first, _ = run_cli(capsys, "charvar", "example_4_1", "--level", "5",
                          "--degree", "1")
    _, second, _ = run_cli(capsys, "charvar", "example_4_1", "--level", "5",
                           "--degree", "1")
    assert first == second
    for name in bundled_scenario_names():
        for argv in (["validate", name], ["milnor", name, "--m", "1"]):
            _, one, _ = run_cli(capsys, *argv)
            _, two, _ = run_cli(capsys, *argv)
            assert one == two and one


def test_json_and_text_agree(capsys):
    _, text_out, _ = run_cli(capsys, "milnor", "example_4_2", "--m", "2")
    _, json_out, _ = run_cli(
        capsys, "milnor", "example_4_2", "--m", "2", "--format", "json"
    )
    payload = json.loads(json_out)
    assert payload["results"]["delta"] == "(t-1)^2*(t^5-1)^2"
    assert "results.delta: (t-1)^2*(t^5-1)^2" in text_out
    mults = payload["results"]["multiplicities"]
    rendered = "results.multiplicities: [" + ", ".join(str(m) for m in mults) + "]"
    assert rendered in text_out


def test_format_charpoly_edge_cases():
    assert format_charpoly(parse_poly("t^3-3*t^2+3*t-1", 1)) == "(t-1)^3"
    assert format_charpoly(parse_poly("t^5-1", 1)) == "(t^5-1)"
    assert format_charpoly(parse_poly("t-2", 1)) == "t-2"
    assert format_charpoly(parse_poly("t^3-2*t^2-t+2", 1)) == "(t^2-1)*(t-2)"
    assert format_charpoly(parse_poly("t1*t2-1", 2)) == "t1*t2 - 1"
    assert format_charpoly(parse_poly("t^2+t+1", 1)) == "(t^2+t+1)"


def test_module_entry_point_subprocess():
    # Run from the directory that holds the imported package, so that
    # "-m alexinv" finds it without an install or PYTHONPATH.
    proc = subprocess.run(
        [sys.executable, "-m", "alexinv", "validate", "example_4_1"],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(alexinv.__file__)),
    )
    assert proc.returncode == 0
    assert "results.valid: true" in proc.stdout


def test_reused_parser_matches_fresh_parsers(capsys, bivariate_presentation):
    # The argparse tree is built by the first main call and reused; a run of
    # calls mixing subcommands, usage errors, --help and defaults must print
    # what the same calls print each on a parser of its own.
    import alexinv.cli as cli

    calls = [
        ["validate", "example_4_1"],
        ["charvar", "example_4_1", "--level", "3", "--degree", "1"],
        ["charvar", "example_4_1", "--level", "3", "--degree", "1", "--bound", "1"],
        ["milnor", "example_4_2", "--m", "1", "--format", "json"],
        ["milnor"],
        ["no-such-command"],
        [],
        ["--help"],
        ["module", "--help"],
        ["twisted", "example_4_1", "--beta", "1/3,1/3,1/3"],
        ["admissible", "example_4_1", "--beta", "1/2,1/2,0", "--bound", "2"],
        ["module", "--presentation", bivariate_presentation, "--op", "support",
         "--level", "4"],
        ["module", "--presentation", bivariate_presentation, "--op", "fitting"],
        ["validate", "no-such-scenario"],
        ["charvar", "example_4_1", "--level", "3", "--degree", "1"],
    ]
    cli._build_parser.cache_clear()
    # The exact parse reads the first four, and builds no parser for them.
    reused = [run_cli(capsys, *argv) for argv in calls[:4]]
    assert cli._build_parser.cache_info().misses == 0
    reused += [run_cli(capsys, *argv) for argv in calls[4:]]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0]


# Tokens for the argv draws: values that argparse reads as options or as
# negative numbers, that int() takes in forms of its own, or that are empty
# or hold a space; flags that are help, the end of options, abbreviations,
# one dash, or an empty "=" value.
ARGV_VALUES = ("example_4_1", "torus", "0", "1", "3", "-1/2", "-3", "+5", "1_0",
               "", "x y", "\u0663", "1/3,0,0", "json", "text", "xml", "charpoly",
               "support", "fitting")
INT_VALUES = ("0", "1", "3", "+5", "1_0", "\u0663")
ODD_FLAGS = ("--", "-h", "--help", "--lev", "--form", "--b", "--pres", "--al",
             "-m", "--level=")


@st.composite
def argvs(draw):
    """A subcommand, mostly as many positionals as it takes, and most of its
    flags, each with a value that mostly fits it, as ``--flag value`` or
    ``--flag=value``; sometimes a few stray tokens (any flag, an odd one, a
    value); all shuffled."""
    table = cli._EXACT
    name = draw(st.sampled_from([*table, "no-such-command"]))
    positionals, flags, _, _ = table.get(name, table["milnor"])
    value = st.sampled_from(ARGV_VALUES)
    count = draw(st.sampled_from([len(positionals)] * 4 + [0, len(positionals) + 1]))
    items = [(draw(value),) for _ in range(count)]
    for flag, (_, kind, choices) in flags.items():
        if draw(st.integers(0, 3)):
            fits = INT_VALUES if kind is int else choices or ARGV_VALUES
            pair = (flag, draw(st.sampled_from(fits) if draw(st.integers(0, 3)) else value))
            items.append(draw(st.sampled_from((pair, ("=".join(pair),)))))
    every = sorted({flag for _, flags, _, _ in table.values() for flag in flags})
    flag = st.sampled_from(every + list(ODD_FLAGS))
    if not draw(st.integers(0, 2)):
        items += draw(st.lists(st.one_of(
            st.tuples(flag, value),
            st.tuples(flag, value).map(lambda pair: ("=".join(pair),)),
            st.tuples(value),
            st.tuples(flag),
        ), max_size=2))
    return [name, *(token for item in draw(st.permutations(items)) for token in item)]


@settings(max_examples=1000, deadline=None, database=None)
@given(argvs())
def test_the_exact_parse_gives_argparses_namespace(argv):
    parser, table = cli._build_parser(), cli._EXACT
    exact = cli._parse_exact(table, argv)
    if exact is not None:
        try:
            parsed = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}, which the exact parse took")
        assert parsed == exact


def test_the_exact_table_agrees_with_the_argparse_tree():
    # Both are built from _commands: for every subcommand, the positionals in
    # order, and each flag's dest, type, choices, default and required; every
    # flag is a plain store of one value, so none is marked None.
    parser = cli._build_parser()
    (subcommands,) = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    assert list(cli._EXACT) == list(subcommands.choices)
    for name, sub in subcommands.choices.items():
        positionals, flags, defaults, required = cli._EXACT[name]
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert positionals == [a.dest for a in actions if not a.option_strings]
        assert all(a.required for a in actions if not a.option_strings)
        assert flags == {flag: (a.dest, a.type, a.choices)
                         for a in actions for flag in a.option_strings}
        assert all(type(a) is argparse._StoreAction and a.nargs is None
                   for a in actions if a.option_strings)
        assert defaults == {"subcommand": name, "func": sub.get_default("func"),
                            **{a.dest: a.default for a in actions}}
        assert required == {a.dest for a in actions if a.option_strings and a.required}


def test_the_exact_parse_leaves_flags_without_one_value_to_argparse(capsys):
    # A hand-built table in the layout of _exact_table's, with a store_true
    # flag, which takes no value (nargs 0) and so is marked None; argparse
    # refuses "--stats=1" and reads "x" after "--stats" as a stray positional.
    parser = argparse.ArgumentParser(prog="alexinv")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    scan = sub.add_parser("scan")
    scan.add_argument("scenario")
    scan.add_argument("--level", type=int, default=3)
    scan.add_argument("--stats", action="store_true")
    table = {"scan": (
        ["scenario"],
        {"--level": ("level", int, None), "--stats": None},
        {"subcommand": "scan", "scenario": None, "level": 3, "stats": False},
        set(),
    )}
    argv = ["scan", "torus", "--level", "4"]
    assert cli._parse_exact(table, argv) == parser.parse_args(argv)
    for argv in (["scan", "torus", "--stats=1"], ["scan", "torus", "--stats", "x"]):
        assert cli._parse_exact(table, argv) is None
        with pytest.raises(SystemExit) as caught:
            parser.parse_args(argv)
        assert caught.value.code == 2
    assert cli._parse_exact(table, ["scan", "torus", "--stats"]) is None
    assert "error:" in capsys.readouterr().err
    declared = cli._exact_table([("scan", "", None, (
        ("scenario", {}), ("--level", {"type": int, "default": 3}),
        ("--stats", {"action": "store_true"})))])
    assert declared["scan"][1] == table["scan"][1]


@pytest.mark.parametrize("options", [
    {"action": "append"},
    {"action": "count"},
    {"action": "store_const", "const": "c"},
    {"action": "append_const", "const": "c"},
    {"action": "extend", "nargs": "+"},
])
def test_the_exact_parse_leaves_every_other_action_to_argparse(options):
    # A hand-built table in the layout of _exact_table's, with one "--tag"
    # flag that is not a plain store, so marked None: "--tag a" as argparse
    # reads it would give ["a"] (append), 1 (count) or a stray positional,
    # never "a".
    parser = argparse.ArgumentParser(prog="alexinv")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    scan = sub.add_parser("scan")
    scan.add_argument("scenario")
    scan.add_argument("--tag", **options)
    table = {"scan": (
        ["scenario"],
        {"--tag": None},
        {"subcommand": "scan", "scenario": None, "tag": None},
        set(),
    )}
    assert cli._parse_exact(table, ["scan", "x"]) == parser.parse_args(["scan", "x"])
    assert cli._parse_exact(table, ["scan", "x", "--tag", "a"]) is None
    assert cli._parse_exact(table, ["scan", "x", "--tag=a"]) is None
    # _exact_table marks such a flag None from its declaration.
    declared = cli._exact_table([("scan", "", None, (("scenario", {}), ("--tag", options)))])
    assert declared["scan"][1] == {"--tag": None}


@pytest.mark.parametrize("argv, exact", [
    (["milnor", "example_4_1", "--m", "1"], True),
    (["aomoto", "example_4_1", "--alpha=-1/3,0,0", "--format", "json"], True),
    (["admissible", "--bound", "2", "example_4_1", "--beta=1/2,1/2,0"], True),
    (["module", "--presentation", "PRES", "--op=support"], True),
    (["module", "--presentation", "PRES", "--op", "fitting", "--i", "1",
      "--level", "4", "--format=json"], True),
    (["twisted", "example_4_1", "--beta", "-1/3,0,0"], False),
    (["charvar", "example_4_1", "--lev", "3", "--degree", "1"], False),
    (["charvar", "example_4_1", "--level", "3", "--level", "4", "--degree", "1"], False),
    (["charvar", "example_4_1", "--level=", "--degree", "1"], False),
    (["milnor", "example_4_1", "--m", "1", "--format=xml"], False),
    (["charvar", "torus", "--", "--level", "3"], False),
    (["milnor", "-h"], False),
])
def test_main_prints_what_argparse_alone_prints(
    capsys, monkeypatch, bivariate_presentation, argv, exact
):
    argv = [bivariate_presentation if token == "PRES" else token for token in argv]
    assert (cli._parse_exact(cli._EXACT, argv) is not None) == exact
    ours = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_exact", lambda table, argv: None)
    assert run_cli(capsys, *argv) == ours


def _bundled_with(name, keys, value):
    """The bundled scenario ``name`` as JSON text, with the value at ``keys``
    replaced (the whole document for no keys); a list index one past the
    end appends."""
    from alexinv.corpus import bundled_scenario_path

    with open(bundled_scenario_path(name), encoding="utf-8") as handle:
        data = json.load(handle)
    if not keys:
        return json.dumps(value)
    parent = data
    for key in keys[:-1]:
        parent = parent[key]
    if isinstance(parent, list) and keys[-1] == len(parent):
        parent.append(value)
    else:
        parent[keys[-1]] = value
    return json.dumps(data)


PRODUCT = ("algebra", "products", 0)
SCENARIO_HOLES = (
    ((), 5, "must be an object"),
    (("algebra",), [], "/algebra: must be an object"),
    (("residue_system",), "rows", "/residue_system: must be an object"),
    (PRODUCT, 7, "/algebra/products/0: must be an object"),
    (PRODUCT + ("value", 0), None, "/algebra/products/0/value/0: must be an object"),
    (("residue_system", "rows"), {}, "/residue_system/rows: must be a list"),
    (("algebra", "products"), {}, "/algebra/products: must be a list"),
    (PRODUCT + ("value",), {}, "/algebra/products/0/value: must be a list"),
    (PRODUCT + ("left",), ["eta1"], "/algebra/products/0/left: unknown basis label"),
    (PRODUCT + ("right",), [], "/algebra/products/0/right: unknown basis label"),
    (("omega_map", 0, 0), "1/0", "/omega_map/0: zero denominator"),
    (PRODUCT + ("value", 0, "coeff"), "1/0",
     "/algebra/products/0/value/0/coeff: zero denominator"),
    (PRODUCT + ("value", 0, "basis"), "eta3",
     "/algebra/products/0/value/0/basis: target degree must equal the sum of factor degrees"),
    (("algebra", "products", 3), {"left": "eta12", "right": "eta23", "value": []},
     "/algebra/products/3: one factor must have degree 1"),
    (("algebra", "products", 3), {"left": "eta1", "right": "eta2", "value": []},
     "/algebra/products/3: duplicate product for ('eta1', 'eta2')"),
    (("algebra", "basis"), [], "/algebra/basis: must map degree strings to label lists"),
    (("algebra", "basis"), {"0": ["1"], "1": ["eta1", "eta2", "eta3"]},
     "/algebra/basis/2: missing degree"),
    (("algebra", "basis", "2"), ["eta12", "eta1"], "/algebra/basis: duplicate basis label"),
    (("name",), "", "/name: must be a non-empty string"),
    (("milnor",), [], "/milnor: must be an object"),
    (("milnor", "include_infinity"), 1, "/milnor/include_infinity: must be a boolean"),
    (("intersection_points",), {}, "/intersection_points: must be a list"),
    (("residue_system", "rows", 0, "component"), False,
     "/residue_system/rows: missing component unit row for parameter 1"),
    (("residue_system", "nparams"), 101,
     "/residue_system/nparams: 101 is more than the limit of 100"),
)


@pytest.mark.parametrize("keys,value,where", SCENARIO_HOLES)
def test_malformed_scenario_is_a_schema_error(tmp_path, capsys, keys, value, where):
    path = tmp_path / "scenario.json"
    path.write_text(_bundled_with("example_4_1", keys, value))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: " + where), err


def exterior_scenario(n, swapped):
    """The exterior algebra on ``n`` generators over ``n`` lines, with unit
    residue rows, the infinity row and an identity one-form map.  Each
    product ``e_i * e_S`` is written degree-1 first, or, when ``swapped``
    and ``|S| > 1``, as ``e_S * e_i``, which is ``(-1)^|S|`` times it."""
    gens = range(1, n + 1)

    def label(s):
        return "e" + "".join(map(str, s)) if s else "1"

    products = []
    for p in range(1, n):
        for s in itertools.combinations(gens, p):
            for i in gens:
                if i in s:
                    continue
                sign = (-1) ** sum(j < i for j in s)
                target = label(sorted(s + (i,)))
                if swapped and p > 1:
                    left, right, sign = label(s), label((i,)), sign * (-1) ** p
                else:
                    left, right = label((i,)), label(s)
                products.append({"left": left, "right": right,
                                 "value": [{"basis": target, "coeff": str(sign)}]})
    return json.dumps({
        "name": f"exterior_{n}", "components": n, "degrees": [1] * n,
        "algebra": {"top_degree": n, "products": products, "basis": {
            str(p): [label(s) for s in itertools.combinations(gens, p)]
            for p in range(n + 1)}},
        "residue_system": {"nparams": n, "rows": [
            {"label": f"L{i}", "coeffs": [int(i == j) for j in gens], "component": True}
            for i in gens] + [{"label": "Linf", "coeffs": [-1] * n, "component": True}]},
        "omega_map": [["1" if i == j else "0" for j in gens] for i in gens],
    })


@pytest.mark.parametrize("n", [3, 4])
def test_a_product_written_degree_one_last_takes_the_graded_sign(tmp_path, capsys, n):
    # A product with its degree-1 factor on the right is stored degree-1
    # first, times (-1)^(degree of the left factor): +1 for the degree-2
    # factors of n = 3, and -1 for the degree-3 factors of n = 4.
    first, swapped = (pipeline.scenario_from_json(exterior_scenario(n, s).encode())
                      for s in (False, True))
    assert swapped.algebra.products == first.algebra.products
    reports = []
    for spelling in (False, True):
        path = tmp_path / f"{spelling}.json"
        path.write_text(exterior_scenario(n, spelling))
        lines = []
        for argv in (("validate",), ("aomoto", "--alpha=" + ",".join("0" * n)),
                     ("aomoto", "--alpha=1/2" + ",0" * (n - 1))):
            code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert code == 0
            lines.append(out.splitlines()[2:])  # below the argv and digest
        reports.append(lines)
    assert reports[0] == reports[1]
    betti = [math.comb(n, p) for p in range(n + 1)]
    assert f"results.betti: {betti}" in reports[0][0]
    assert f"results.dims: {betti}" in reports[0][1]
    assert f"results.dims: {[0] * (n + 1)}" in reports[0][2]


PRESENTATION = '{"nvars": %s, "generators": 1, "relations": 1, "matrix": [["t1-1"]]}'
HUGE = "1" * 5000
NESTED = "[" * 100_000 + "]" * 100_000
UNDECODABLE = (
    ("5", "must be an object"),
    (json.dumps({"name": "x", "components": HUGE}).replace(f'"{HUGE}"', HUGE),
     "invalid JSON: Exceeds the limit"),
    (PRESENTATION % HUGE, "invalid JSON: Exceeds the limit"),
    (NESTED, "invalid JSON: maximum recursion depth exceeded"),
    (PRESENTATION % NESTED, "invalid JSON: maximum recursion depth exceeded"),
)


@pytest.mark.parametrize("command", ["validate", "module"])
@pytest.mark.parametrize("text,reason", UNDECODABLE, ids=range(len(UNDECODABLE)))
def test_unreadable_document_is_a_schema_error(tmp_path, capsys, command, text, reason):
    path = tmp_path / "document.json"
    path.write_text(text)
    argv = {"validate": ("validate", str(path)),
            "module": ("module", "--presentation", str(path), "--op", "support",
                       "--level", "2")}[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: " + reason), err


ANY_TEXT = st.text(st.characters(exclude_categories=()))  # lone surrogates too
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | ANY_TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(ANY_TEXT, inner)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None)
@given(JSON_VALUES)
def test_json_reports_render_as_json_dumps(value):
    assert cli._render(value, "\n") == json.dumps(value, indent=2, sort_keys=True)
    report = cli.Report(["alexinv"], "sha256:0", {"value": value}, ["w"])
    assert report.to_json() == json.dumps(
        {"command": ["alexinv"], "digest": "sha256:0", "results": {"value": value},
         "warnings": ["w"]}, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, {"a": [0.0]}, {"a": 1, 2: "b"}])
def test_json_reports_refuse_values_json_would_change(value):
    # json.dumps prints floats and turns int keys into strings; a report
    # holds neither, so one that does is a bug in the command that built it.
    with pytest.raises(TypeError):
        cli._render(value, "\n")


@pytest.mark.parametrize("value", [
    [True, False, None],
    {"yes": True, "no": False, "none": None},
    [[True], {"a": None}, ([False],)],
    {"list": [], "tuple": (), "dict": {}, "nested": [[], {}, [[]], [{}], {"a": []}]},
    [[[[]]], {"a": {"b": {}}}],
], ids=["list", "dict", "mixed", "empty", "deep"])
def test_constants_and_empty_containers_render_as_json_dumps(value):
    assert cli._render(value, "\n") == json.dumps(value, indent=2, sort_keys=True)


class Level(enum.IntEnum):
    ONE = 1


class Label(str):
    pass


class Row(list):
    pass


@pytest.mark.parametrize("value", [
    Level.ONE, [Level.ONE], {"a": Level.ONE}, Label("x"), [Label("x")],
    {"a": Label("x")}, collections.OrderedDict(a=1), [Row()],
], ids=["intenum", "intenum-in-list", "intenum-value", "str", "str-in-list",
        "str-value", "dict", "list"])
def test_subclasses_of_report_types_are_refused(value):
    # Reports are built from exact types; a subclass is a value json.dumps
    # might print its own way (an IntEnum as its int, say), so it is refused.
    with pytest.raises(TypeError, match="is not a report value"):
        cli._render(value, "\n")


def test_a_float_in_a_report_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "betti_vector", lambda algebra: (1.0,))
    assert cli.run(["validate", "example_4_1"]) == 0
    assert "results.betti: [1.0]" in capsys.readouterr().out
    assert cli.run(["validate", "example_4_1", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith("TypeError: float is not a report value")


def test_directory_path_is_a_usage_error(tmp_path, capsys):
    for argv in (("validate", str(tmp_path)),
                 ("module", "--presentation", str(tmp_path), "--op", "charpoly")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


@pytest.mark.parametrize("argv, err", [
    (("validate", "./missing.json"),
     "error: scenario file or bundled name not found: './missing.json'\n"),
    (("module", "--presentation", "./missing.json", "--op", "charpoly"),
     "error: [Errno 2] No such file or directory: 'missing.json'\n"),
    (("module", "--presentation", "", "--op", "charpoly"),
     "error: [Errno 21] Is a directory: '.'\n"),
    (("validate", "sub/"), "error: [Errno 21] Is a directory: 'sub'\n"),
    (("module", "--presentation", "./sub/", "--op", "support", "--level", "2"),
     "error: [Errno 21] Is a directory: 'sub'\n"),
])
def test_read_errors_name_the_path_as_pathlib_normalises_it(
        tmp_path, capsys, monkeypatch, argv, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run_cli(capsys, *argv) == (1, "", err)


@settings(max_examples=500, deadline=None, database=None)
@given(st.text(alphabet="/.a", max_size=12))
@example("")
@example("//a/./b//")
@example("///..")
def test_path_names_are_what_pathlib_prints(path):
    assert cli._path_name(path) == str(PurePosixPath(path))


def test_presentation_nvars_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.json"
    path.write_text(PRESENTATION % 2_000_000)
    code, out, err = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "charpoly")
    assert (code, out) == (1, "")
    assert err == "error: /nvars: 2000000 is more than the limit of 100\n"
    # Inclusive: with a cap of 2, a bivariate presentation is read and a
    # trivariate one is refused.
    monkeypatch.setattr(lr, "MAX_NVARS", 2)
    refused = "error: /nvars: 3 is more than the limit of 2\n"
    for nvars, expect in ((2, ""), (3, refused)):
        path.write_text(PRESENTATION % nvars)
        _, _, err = run_cli(
            capsys, "module", "--presentation", str(path), "--op", "charpoly")
        assert err == expect


def test_a_scenario_over_the_parameter_cap_is_refused_at_load(tmp_path):
    # One degree-1 element makes 2^17 differential cells, under their cap,
    # but milnor would build order x nparams entries for its local systems
    # and charvar would size a grid of level ** nparams points.  Each command
    # runs in a child whose address space is capped at 1 GB.
    nparams = 2**17
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "name": "wide", "components": 1, "degrees": [2000],
        "algebra": {"top_degree": 1, "basis": {"0": ["1"], "1": ["a"]}},
        "residue_system": {"nparams": nparams, "rows": [
            {"label": "r", "coeffs": [0] * nparams, "component": False}]},
        "omega_map": [["0"]] * nparams,
    }))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    for argv in (("milnor", "--m", "0"), ("charvar", "--level", "2", "--degree", "1")):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "alexinv", argv[0], str(path), *argv[1:]],
            capture_output=True, text=True, preexec_fn=cap_memory, timeout=60,
            cwd=os.path.dirname(os.path.dirname(alexinv.__file__)))
        assert time.perf_counter() - start < 1.0, argv
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: /residue_system/nparams: {nparams} is more "
                               "than the limit of 100\n")


def test_a_search_past_the_work_limit_is_refused_at_once(tmp_path):
    # Two rows U = (L, L^2) and W = (-L, -L^2) on torus: every level-L point
    # with n_1 != 0 has its own blocking pattern, and none has an admissible
    # shift, which would need L | n_1.  At level 316 and bound 200 the walk
    # would take over an hour; the work limit stops it within seconds.
    level = 316
    path = tmp_path / "hostile.json"
    path.write_text(_bundled_with("torus", ("residue_system", "rows", 3), {
        "label": "U", "coeffs": [level, level ** 2]}))
    data = json.loads(path.read_text())
    data["residue_system"]["rows"].append({"label": "W", "coeffs": [-level, -level ** 2]})
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "alexinv", "charvar", str(path), "--level", str(level),
         "--degree", "1", "--bound", "200"],
        capture_output=True, text=True, timeout=60,
        cwd=os.path.dirname(os.path.dirname(alexinv.__file__)))
    assert time.perf_counter() - start < 10.0
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(
        r"error: the admissible search needs more than the limit of 100000000 row "
        r"tests, with \d+ blocking patterns still pending\n", proc.stderr), proc.stderr


def test_milnor_order_cap(tmp_path, capsys, monkeypatch):
    # example_5_3 has one residue parameter, so its degrees are free; its
    # order is sum(degrees), checked before any local system is built.
    path = tmp_path / "steep.json"
    path.write_text(_bundled_with("example_5_3", ("degrees",), [1, 10**9]))
    assert run_cli(capsys, "validate", str(path))[0] == 0
    code, out, err = run_cli(capsys, "milnor", str(path), "--m", "1")
    assert (code, out) == (1, "")
    assert err == "error: Milnor order 1000000001 is more than the limit of 100000\n"
    # Inclusive: example_4_1 has order 1 + 1 + 2 + 1 = 5.
    monkeypatch.setattr(lr, "MAX_SCAN_POINTS", 5)
    assert run_cli(capsys, "milnor", "example_4_1", "--m", "1")[0] == 0
    monkeypatch.setattr(lr, "MAX_SCAN_POINTS", 4)
    code, _, err = run_cli(capsys, "milnor", "example_4_1", "--m", "1")
    assert code == 1
    assert "Milnor order 5 is more than the limit of 4" in err


def test_steep_presentation_is_refused_at_once(tmp_path, capsys):
    # One exponent of 10^8: the gcd and the cyclotomic factoring of charpoly
    # would work through it one degree at a time.
    path = tmp_path / "steep.json"
    path.write_text('{"nvars":1,"generators":1,"relations":2,'
                    '"matrix":[["t^100000000-1","t-1"]]}')
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "charpoly", "--i", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == (
        "error: /matrix/0/0: degree span 100000000 is more than the limit of 64\n")


def test_charpoly_of_a_high_degree_diagonal_is_quick(tmp_path, capsys):
    # Delta_0 = (t^64 - 2)^4 has degree 256, so the cyclotomic trial
    # division builds Phi_k for every k with phi(k) <= 256, from a cold cache.
    path = tmp_path / "diagonal.json"
    matrix = [["t^64-2" if i == j else "0" for j in range(4)] for i in range(4)]
    path.write_text(json.dumps(
        {"nvars": 1, "generators": 4, "relations": 4, "matrix": matrix}))
    cyclotomic_poly.cache_clear()
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "charpoly", "--i", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "results.charpoly: t^256-8*t^192+24*t^128-32*t^64+16" in out


def test_charpoly_of_a_degree_384_diagonal_is_quick(tmp_path, capsys):
    # (t^64 - 2)^6 has degree 384: 759 indices k have phi(k) <= 384, each
    # a trial division on the dense coefficients, from a cold cache.
    path = tmp_path / "diagonal.json"
    matrix = [["t^64-2" if i == j else "0" for j in range(6)] for i in range(6)]
    path.write_text(json.dumps(
        {"nvars": 1, "generators": 6, "relations": 6, "matrix": matrix}))
    cyclotomic_poly.cache_clear()
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "charpoly", "--i", "0")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "results.charpoly: t^384-12*t^320+60*t^256-160*t^192" in out


def test_charpoly_of_a_degree_512_diagonal_is_quick(tmp_path, capsys):
    # (t^64 - 2)^8 has degree 512: 1005 indices k have phi(k) <= 512.  Only
    # those with Phi_k(2) dividing f(2) = (2^64 - 2)^8 get a trial division.
    path = tmp_path / "diagonal.json"
    matrix = [["t^64-2" if i == j else "0" for j in range(8)] for i in range(8)]
    path.write_text(json.dumps(
        {"nvars": 1, "generators": 8, "relations": 8, "matrix": matrix}))
    cyclotomic_poly.cache_clear()
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "charpoly", "--i", "0")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "results.charpoly: t^512-16*t^448+112*t^384-448*t^320" in out


def _wide_scenario(n):
    """The torus's parameters and residue rows over ``n`` labels in degrees
    1 and 2 and no products: a differential of ``2 * (n + n * n)`` cells."""
    data = json.loads(_bundled_with("torus", ("name",), "wide"))
    data["algebra"] = {"top_degree": 2, "basis": {
        "0": ["1"], "1": [f"e{i}" for i in range(n)], "2": [f"f{i}" for i in range(n)]}}
    data["omega_map"] = [["1"] + ["0"] * (n - 1), ["0", "1"] + ["0"] * (n - 2)]
    return json.dumps(data)


def test_scenario_differential_cell_cap(tmp_path, capsys, monkeypatch):
    # 800 labels: 2 * (800 + 800^2) = 1281600 cells, which took 4.3 s to
    # build before the cap; a 21 KB file.
    path = tmp_path / "wide.json"
    path.write_text(_wide_scenario(800))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "twisted", str(path), "--beta", "1/2,1/3")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", (
        "error: /algebra/basis: the differential has 1281600 cells, more than "
        "the limit of 1048576\n"))
    # Inclusive: 3 labels make 24 cells.
    path.write_text(_wide_scenario(3))
    monkeypatch.setattr(pipeline, "MAX_DIFFERENTIAL_CELLS", 24)
    assert run_cli(capsys, "twisted", str(path), "--beta", "1/2,1/3")[0] == 0
    monkeypatch.setattr(pipeline, "MAX_DIFFERENTIAL_CELLS", 23)
    cli._decode.cache_clear()  # it holds the file, checked under the old cap
    assert run_cli(capsys, "twisted", str(path), "--beta", "1/2,1/3") == (
        1, "", "error: /algebra/basis: the differential has 24 cells, more than "
        "the limit of 23\n")


def test_bundled_scenarios_are_far_inside_the_cell_cap():
    from alexinv.corpus import bundled_scenario_names, load_bundled_scenario

    for name in bundled_scenario_names():
        scenario = load_bundled_scenario(name)
        algebra = scenario.algebra
        for p in range(algebra.top_degree):
            assert algebra.dim(p + 1) * algebra.dim(p) * scenario.nparams <= 36


@pytest.mark.parametrize("argv, scenario_value, message", [
    # Fraction would read exponents, and build 10^3000000 for the last one.
    (["aomoto", "torus", "--alpha", "1e5000,1"], None,
     "error: --alpha must be a comma-separated list of rationals\n"),
    (["aomoto", "torus", "--alpha", "1.5,1"], None,
     "error: --alpha must be a comma-separated list of rationals\n"),
    # 4300 nines are allowed, but the residue at infinity has 4301 digits.
    (["aomoto", "torus", "--alpha", "9" * 4300 + ",1"], None,
     "error: a rational has more than 4300 digits\n"),
    (["validate"], "1e3000000", "error: /omega_map/0: not a rational p or p/q: '1e3000000'\n"),
    (["validate"], "1" * 4301, "error: /omega_map/0: a rational has more than 4300 digits\n"),
], ids=["exponent", "decimal", "residue-digits", "file-exponent", "file-digits"])
def test_rationals_outside_the_grammar_or_limit_are_refused(
        tmp_path, capsys, argv, scenario_value, message):
    if scenario_value is not None:
        path = tmp_path / "torus.json"
        path.write_text(_bundled_with("torus", ("omega_map", 0, 0), scenario_value))
        argv = argv + [str(path)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", message)


def _module_call(capsys, path, nvars, matrix, *op):
    path.write_text(json.dumps({
        "nvars": nvars, "generators": len(matrix), "relations": len(matrix[0]),
        "matrix": matrix}))
    return run_cli(capsys, "module", "--presentation", str(path), *op)


@pytest.mark.parametrize("nvars, allowed, refused", [
    (1, "t^-2 + t", "t^-2 + t^2"),
    # The span is taken per variable: t1^-1*t2^2 spans 3 in t2 and 1 in t1.
    (2, "t1^-1*t2^2 + t1^2 + t2^-1", "t1^-1*t2^2 + t1^2 + t2^-2"),
])
def test_presentation_degree_span_cap(tmp_path, capsys, monkeypatch, nvars,
                                      allowed, refused):
    monkeypatch.setattr(am, "MAX_DEGREE_SPAN", 3)
    path = tmp_path / "span.json"
    one = "1" if nvars == 1 else "t1-t2"
    assert _module_call(capsys, path, nvars, [[one, allowed]], "--op", "charpoly")[0] == 0
    assert _module_call(capsys, path, nvars, [[one, refused]], "--op", "charpoly") == (
        1, "", "error: /matrix/0/1: degree span 4 is more than the limit of 3\n")


def test_presentation_term_cap(tmp_path, capsys, monkeypatch):
    # Terms are counted after like terms merge.
    monkeypatch.setattr(am, "MAX_TERMS", 3)
    path = tmp_path / "terms.json"
    scan = ("--op", "support", "--level", "2")
    for entry in ("t^3 + t^2 + t", "t^3 + t^2 + t + 1 - 1"):
        assert _module_call(capsys, path, 1, [["t-1"], [entry]], *scan)[0] == 0
    assert _module_call(capsys, path, 1, [["t-1"], ["t^3 + t^2 + t + 1"]], *scan) == (
        1, "", "error: /matrix/1/0: 4 terms, more than the limit of 3\n")


@pytest.mark.parametrize("argv, message", [
    (["charvar", "example_4_1", "--level", "3", "--degree", "3"],
     "error: degree 3 out of range [1, 2]\n"),
    (["charvar", "example_4_1", "--level", "3", "--degree", "0"],
     "error: degree 0 out of range [1, 2]\n"),
    (["milnor", "example_4_1", "--m", "3"], "error: degree 3 out of range [0, 2]\n"),
    (["milnor", "example_5_3", "--m", "-1"], "error: degree -1 out of range [0, 3]\n"),
])
def test_degree_out_of_range_is_a_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", message)


def test_internal_dimension_error_is_not_a_usage_error(capsys, monkeypatch):
    # Only a degree the caller asked for is bad input; any other shape
    # mismatch inside the library is a bug, and it propagates.
    def broken(scenario, level, degree, bound):
        raise DimensionError("shape slip")

    monkeypatch.setattr(pipeline, "_charvar_indices", broken)
    with pytest.raises(DimensionError, match="shape slip"):
        main(["charvar", "example_4_1", "--level", "3", "--degree", "1"])
    assert capsys.readouterr().err == ""

# ---------------------------------------------------------------------------
# The decoded-input cache: equal bytes are decoded and checked once per
# process; the conftest clears it before every test.


def _copy_bundled(name, path):
    from alexinv.corpus import bundled_scenario_path

    shutil.copyfile(bundled_scenario_path(name), path)
    return path


def _every_command(scenario, presentation):
    return [
        ["validate", scenario],
        ["aomoto", scenario, "--alpha=-4/5,1/5,1/5"],
        ["aomoto", scenario, "--alpha=1/2,-1/3,2"],
        ["twisted", scenario, "--beta", "1/3,1/3,1/3"],
        ["admissible", scenario, "--beta", "1/2,1/2,0", "--bound", "2"],
        ["charvar", scenario, "--level", "3", "--degree", "1"],
        ["milnor", scenario, "--m", "1"],
        ["module", "--presentation", presentation, "--op", "charpoly"],
        ["module", "--presentation", presentation, "--op", "support", "--level", "4"],
        ["module", "--presentation", presentation, "--op", "fitting", "--i", "1",
         "--level", "3"],
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_equal_bytes_are_decoded_once(tmp_path, capsys, bivariate_presentation, fmt):
    local = _copy_bundled("example_4_1", tmp_path / "local.json")
    for scenario in ("example_4_1", str(local)):
        for argv in _every_command(scenario, bivariate_presentation):
            argv += ["--format", fmt]
            cli._decode.cache_clear()
            cold = run_cli(capsys, *argv)
            assert cold[0] == 0, cold
            warm = [run_cli(capsys, *argv) for _ in range(2)]
            assert warm == [cold, cold]
            info = cli._decode.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_bundled_name_and_local_copy_share_one_entry(tmp_path, capsys):
    # The key is the content, not the path: the digest says so too.
    local = _copy_bundled("torus", tmp_path / "copy.json")
    _, by_name, _ = run_cli(capsys, "validate", "torus")
    _, by_path, _ = run_cli(capsys, "validate", str(local))
    assert by_name.splitlines()[1:] == by_path.splitlines()[1:]
    info = cli._decode.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_commands_leave_the_shared_inputs_unchanged(
    tmp_path, capsys, bivariate_presentation
):
    local = _copy_bundled("example_4_1", tmp_path / "local.json")
    calls = _every_command(str(local), bivariate_presentation)
    first = [run_cli(capsys, *argv) for argv in calls]
    scenario = cli._decode(pipeline.scenario_from_json, local.read_bytes())
    with open(bivariate_presentation, "rb") as handle:
        pres = cli._decode(am.presentation_from_json, handle.read())
    assert cli._decode.cache_info().misses == 2
    # The differential built by the first call that needed it is kept.
    assert "differential" in vars(scenario)
    differential = scenario.differential
    assert [run_cli(capsys, *argv) for argv in calls] == first
    assert scenario.differential is differential
    fresh = pipeline.load_scenario(str(local))
    assert scenario == fresh and scenario is not fresh
    assert repr(scenario.algebra) == repr(fresh.algebra)
    fresh_pres = _presentation(bivariate_presentation)
    assert pres == fresh_pres and pres is not fresh_pres


def test_a_file_rewritten_in_place_is_read_and_checked_again(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(_bundled_with("example_4_1", ("name",), "first"))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and "results.name: first" in out
    path.write_text(_bundled_with("example_4_1", ("name",), "second"))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and "results.name: second" in out
    path.write_text(_bundled_with("example_4_1", ("degrees",), [1, 1]))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: /degrees: must be a list of 3"), err
    pres = tmp_path / "pres.json"
    for text, charpoly in (("t-1", "(t-1)"), ("t^2-1", "(t^2-1)")):
        pres.write_text(json.dumps(
            {"nvars": 1, "generators": 1, "relations": 1, "matrix": [[text]]}))
        code, out, _ = run_cli(
            capsys, "module", "--presentation", str(pres), "--op", "charpoly")
        assert code == 0 and f"results.charpoly: {charpoly}\n" in out


def test_errors_are_raised_on_every_call(tmp_path, capsys):
    # eta2^eta1 = eta1^eta2 breaks antisymmetry: AlgebraInvalidError, exit 3.
    invalid = json.loads(_bundled_with("example_4_1", ("name",), "invalid"))
    invalid["algebra"]["products"].append(
        {"left": "eta2", "right": "eta1", "value": [{"basis": "eta12"}]})
    cases = [
        ("malformed.json", "{", ("validate",), 1, "error: invalid JSON: "),
        ("hole.json", _bundled_with("example_4_1", ("omega_map", 0, 0), "1/0"),
         ("validate",), 1, "error: /omega_map/0: zero denominator"),
        ("invalid.json", json.dumps(invalid), ("validate",), 3,
         "error: algebra invariants violated: "),
        ("pres.json", PRESENTATION % '"x"', ("module", "--op", "charpoly",
                                             "--presentation"), 1,
         "error: /nvars: must be a positive integer"),
    ]
    for name, text, command, code, message in cases:
        path = tmp_path / name
        path.write_text(text)
        runs = [run_cli(capsys, *command, str(path)) for _ in range(3)]
        assert runs[0][:2] == (code, ""), runs[0]
        assert runs[0][2].startswith(message), runs[0]
        assert runs == [runs[0]] * 3
    assert cli._decode.cache_info().currsize == 0


def test_scenario_bytes_are_no_presentation(tmp_path, capsys):
    # The decoder is part of the key: bytes cached as a scenario are still
    # decoded, and refused, as a presentation.
    path = _copy_bundled("example_4_1", tmp_path / "scenario.json")
    module = ("module", "--presentation", str(path), "--op", "charpoly")
    cold = run_cli(capsys, *module)
    assert cold == (1, "", "error: /nvars: missing required field\n")
    assert run_cli(capsys, "validate", str(path))[0] == 0
    assert run_cli(capsys, *module) == cold
    assert cli._decode.cache_info().currsize == 1


def test_the_cache_holds_at_most_maxsize_files(tmp_path, capsys):
    maxsize = cli._decode.cache_info().maxsize
    assert maxsize == 32
    paths = []
    for k in range(maxsize + 3):
        path = tmp_path / f"p{k}.json"
        path.write_text(json.dumps(
            {"nvars": 1, "generators": 1, "relations": 1, "matrix": [[f"t-{k}"]]}))
        paths.append(str(path))
    for path in paths:
        code, _, _ = run_cli(capsys, "module", "--presentation", path, "--op", "charpoly")
        assert code == 0
    info = cli._decode.cache_info()
    assert (info.misses, info.hits, info.currsize) == (maxsize + 3, 0, maxsize)
    # The least recently used file left the cache and is decoded again.
    run_cli(capsys, "module", "--presentation", paths[0], "--op", "charpoly")
    run_cli(capsys, "module", "--presentation", paths[-1], "--op", "charpoly")
    info = cli._decode.cache_info()
    assert (info.misses, info.hits, info.currsize) == (maxsize + 4, 1, maxsize)


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_error_positions_count_line_ends_as_text_mode_does(tmp_path, capsys, ending):
    path = tmp_path / "document.json"
    path.write_bytes(b'{"nvars": 1,' + ending + b' "generators" 1}')
    with open(path, encoding="utf-8") as handle:
        with pytest.raises(json.JSONDecodeError) as text_mode:
            json.load(handle)
    for argv in (("validate", str(path)),
                 ("module", "--presentation", str(path), "--op", "charpoly")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: invalid JSON: {text_mode.value}\n"
