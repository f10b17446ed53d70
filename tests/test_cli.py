import json
import subprocess
import sys

import pytest

from alexinv import invariant_pipeline as pipeline
from alexinv import residue_systems as rs
from alexinv.cli import format_charpoly, main
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
    monkeypatch.setattr(pipeline, "MAX_SCAN_POINTS", 27)
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
    proc = subprocess.run(
        [sys.executable, "-m", "alexinv", "validate", "example_4_1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "results.valid: true" in proc.stdout
