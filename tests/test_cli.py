import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import alexinv
from alexinv import alexander_modules as am
from alexinv import cli
from alexinv import invariant_pipeline as pipeline
from alexinv import laurent_ring as lr
from alexinv import residue_systems as rs
from alexinv.cli import format_charpoly, main
from alexinv.errors import DimensionError, LimitError
from alexinv.laurent_ring import parse_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_search_box_over_the_shift_cap(capsys, monkeypatch):
    # (2*23+1)^3 > 100000 shifts: refused by every command that searches.
    for argv in (
        ("charvar", "example_4_1", "--level", "2", "--degree", "1", "--bound", "23"),
        ("twisted", "example_4_1", "--beta", "1/2,1/2,1/2", "--bound", "23"),
        ("admissible", "torus", "--beta", "1/2,1/3", "--bound", "1000000"),
        ("milnor", "torus", "--m", "1", "--bound", "1000000"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "exceeds 100000 shifts" in err
    # The cap applies to the box searched, after a scenario's max_shift.
    code, _, _ = run_cli(capsys, "twisted", "example_5_3", "--beta", "1/5", "--bound", "1000000")
    assert code == 0
    # Inclusive: with a cap of 125 shifts, bound 2 (5^3) runs and 3 (7^3) is refused.
    monkeypatch.setattr(rs, "MAX_SHIFT_BOX", 125)
    code, _, _ = run_cli(capsys, "twisted", "example_4_1", "--beta", "1/5,1/5,1/5", "--bound", "2")
    assert code == 0
    code, _, err = run_cli(capsys, "twisted", "example_4_1", "--beta", "1/5,1/5,1/5", "--bound", "3")
    assert code == 1
    assert "exceeds 125 shifts" in err


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


def test_range_checks_raise_limit_error():
    for check in (
        lambda: lr.torsion_grid(0, 2),
        lambda: lr.torsion_grid(400, 2),
        lambda: lr.TorsionPoint(0, ()),
        lambda: lr.TorsionPoint(3, (3,)),
        lambda: lr.TorsionPoint.from_numerators(-1, (0,)),
        lambda: lr.TorsionPoint.from_residues(4, ("1/3",)),
        lambda: rs.shift_vectors(2, -1),
        lambda: rs.shift_vectors(3, 50),
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
    reused = [run_cli(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0]


def _bundled_with(name, keys, value):
    """The bundled scenario ``name`` as JSON text, with the value at ``keys``
    replaced (the whole document for no keys)."""
    from alexinv.corpus import bundled_scenario_path

    with open(bundled_scenario_path(name), encoding="utf-8") as handle:
        data = json.load(handle)
    if not keys:
        return json.dumps(value)
    parent = data
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return json.dumps(data)


PRODUCT = ("algebra", "products", 0)
SCENARIO_HOLES = (
    ((), 5, ": must be an object"),
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
)


@pytest.mark.parametrize("keys,value,where", SCENARIO_HOLES)
def test_malformed_scenario_is_a_schema_error(tmp_path, capsys, keys, value, where):
    path = tmp_path / "scenario.json"
    path.write_text(_bundled_with("example_4_1", keys, value))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: " + where), err


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
    assert err.startswith("error: : " + reason), err


def test_directory_path_is_a_usage_error(tmp_path, capsys):
    for argv in (("validate", str(tmp_path)),
                 ("module", "--presentation", str(tmp_path), "--op", "charpoly")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno 21] Is a directory"), err


def test_presentation_nvars_cap(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.json"
    path.write_text(PRESENTATION % 2_000_000)
    code, out, err = run_cli(
        capsys, "module", "--presentation", str(path), "--op", "charpoly")
    assert (code, out) == (1, "")
    assert err == "error: /nvars: 2000000 is more than the limit of 100\n"
    # Inclusive: with a cap of 2, a bivariate presentation is read and a
    # trivariate one is refused.
    monkeypatch.setattr(am, "MAX_NVARS", 2)
    refused = "error: /nvars: 3 is more than the limit of 2\n"
    for nvars, expect in ((2, ""), (3, refused)):
        path.write_text(PRESENTATION % nvars)
        _, _, err = run_cli(
            capsys, "module", "--presentation", str(path), "--op", "charpoly")
        assert err == expect


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


@pytest.mark.parametrize("argv, scenario_value, message", [
    # Fraction would read exponents, and build 10^3000000 for the last one.
    (["aomoto", "torus", "--alpha", "1e5000,1"], None,
     "error: : --alpha must be a comma-separated list of rationals\n"),
    (["aomoto", "torus", "--alpha", "1.5,1"], None,
     "error: : --alpha must be a comma-separated list of rationals\n"),
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

    monkeypatch.setattr(pipeline, "charvar_scan", broken)
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
    # The compiled form built by the first call that needed it is kept.
    assert "compiled" in vars(scenario)
    compiled = scenario.compiled
    assert [run_cli(capsys, *argv) for argv in calls] == first
    assert scenario.compiled is compiled
    fresh = pipeline.load_scenario(str(local))
    assert scenario == fresh and scenario is not fresh
    assert pipeline.scenario_to_dict(scenario) == pipeline.scenario_to_dict(fresh)
    assert repr(scenario.algebra) == repr(fresh.algebra)
    fresh_pres = am.load_presentation(bivariate_presentation)
    assert pres == fresh_pres and pres is not fresh_pres
    assert am.presentation_to_dict(pres) == am.presentation_to_dict(fresh_pres)


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
        ("malformed.json", "{", ("validate",), 1, "error: : invalid JSON: "),
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
        assert err == f"error: : invalid JSON: {text_mode.value}\n"
