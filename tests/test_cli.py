import csv
import json

import pytest

from cychom.cli import main

EXPECTED_SHAPE_KEYS = {
    "theory",
    "degree",
    "method",
    "complete_rank",
    "free_rank",
    "torsion_p_exponents",
    "truncated",
    "n_max",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hc_json_schema(capsys):
    code, out, _ = run(capsys, ["hc", "--prime", "3", "--degree", "6", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert EXPECTED_SHAPE_KEYS <= payload.keys()
    assert payload["torsion_p_exponents"] == [6, 1]
    assert payload["method"] == "oracle"
    assert payload["closed_form"]["torsion_p_exponents"] == [6, 1]
    assert payload["agreement"] is True


def test_hc_not_covered_notes_closed_form(capsys):
    code, out, _ = run(capsys, ["hc", "--prime", "3", "--degree", "28", "--format", "json"])
    assert code == 0
    assert json.loads(out)["closed_form"] is None


def test_zsets_matches_reference(capsys):
    code, out, _ = run(capsys, ["zsets", "--prime", "3", "--max", "40", "--set", "z2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == [1, 5, 7, 11, 13, 17, 19, 23, 31, 35, 37]
    assert "1" in payload["note"]


def test_hh_trivial_degree_exits_zero(capsys):
    code, out, _ = run(capsys, ["hh", "--prime", "7", "--degree", "3"])
    assert code == 0
    assert "0" in out


def test_hp_table_output(capsys):
    code, out, _ = run(capsys, ["hp", "--prime", "3", "--degree", "0", "--n-max", "11"])
    assert code == 0
    assert "R^" in out and "R/p^2" in out


def test_engine_error_exit_code(capsys):
    code, _, err = run(capsys, ["coeffs", "--prime", "3", "--j", "4", "--i", "5"])
    assert code == 1
    assert "error" in err


def test_bad_prime_exit_code(capsys):
    code, _, err = run(capsys, ["hh", "--prime", "4", "--degree", "0"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["hh", "--prime", "3"])  # missing --degree
    assert exc.value.code == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--prime", "3", "--hc-max", "12", "--hh-max", "4"])
    assert code == 0
    assert "0 failure(s)" in out
    assert "FAIL" not in out


def test_verify_reports_mismatch_with_exit_3(capsys, monkeypatch):
    from cychom import cli, homology
    from cychom.linalg import ModuleShape

    real = homology.hc_closed_form

    def skewed(p, i):
        res = real(p, i)
        if res is None or i != 6:
            return res
        return homology.HomologyResult("HC", i, ModuleShape((99,)), "closed_form")

    monkeypatch.setattr(cli.homology, "hc_closed_form", skewed)
    code, out, _ = run(capsys, ["verify", "--prime", "3", "--hc-max", "8", "--hh-max", "2"])
    assert code == 3
    assert "FAIL hc degree 6" in out
    assert "R/p^99" in out  # the diff names both shapes


def test_hc_disagreement_exits_3(capsys, monkeypatch):
    from cychom import cli, homology
    from cychom.linalg import ModuleShape

    monkeypatch.setattr(
        cli.homology,
        "hc_closed_form",
        lambda p, i: homology.HomologyResult("HC", i, ModuleShape((99,)), "closed_form"),
    )
    code, out, _ = run(capsys, ["hc", "--prime", "3", "--degree", "6", "--format", "json"])
    assert code == 3
    assert json.loads(out)["agreement"] is False


def test_arithmetic_error_exits_3(capsys, monkeypatch):
    from cychom import cli

    def broken(p, i):
        raise ArithmeticError("routes disagree")

    monkeypatch.setattr(cli.homology, "hc_oracle", broken)
    code, out, err = run(capsys, ["hc", "--prime", "3", "--degree", "6"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "routes disagree" in err


def test_csv_and_out_file(tmp_path, capsys):
    target = tmp_path / "hc.csv"
    code, out, _ = run(
        capsys,
        ["hc", "--prime", "3", "--degree", "2", "--format", "csv", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["theory"] == "HC"
    assert rows[0]["torsion_p_exponents"] == "3"


def test_json_out_roundtrip(tmp_path, capsys):
    target = tmp_path / "density.json"
    code, _, _ = run(
        capsys,
        ["density", "--prime", "3", "--max", "999", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["empirical_z1_float"] >= payload["bound_z1"]


def test_coeffs_output(capsys):
    code, out, _ = run(capsys, ["coeffs", "--prime", "3", "--j", "3", "--i", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["head"] == "9"
    assert payload["rows"][1] == {"modulus": 3, "value": "1", "valuation": 0}


def test_deterministic_output(capsys):
    argv = ["hc", "--prime", "5", "--degree", "10", "--format", "json"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
