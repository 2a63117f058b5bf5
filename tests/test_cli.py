import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cychom
from cychom import cli, gaps
from cychom.cli import main
from cychom.gaps import enumerate_z1, enumerate_z2, in_z2
from cychom.padic import Prime

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


def test_verify_walks_once(capsys, monkeypatch):
    from cychom import homology

    real = homology.staircase_cokernels
    sizes = []

    def counted(path):
        path = list(path)
        sizes.append(len(path))
        return real(path)

    monkeypatch.setattr(homology, "staircase_cokernels", counted)
    code, out, _ = run(capsys, ["verify", "--prime", "3", "--hc-max", "40"])
    assert code == 0 and "0 failure(s)" in out
    # One walk along the 21-square staircase, 2 * 21 - 1 valuations, feeds
    # the hc, Connes, stabilization and colimit presentation checks at
    # every even degree 0..40.
    assert sizes == [41]


def test_verify_reports_mismatch_with_exit_3(capsys, monkeypatch):
    from cychom import cli, homology
    from cychom.linalg import ModuleShape

    real = homology.hc_closed_form

    def skewed(p, i):
        res = real(p, i)
        if res is None or i != 6:
            return res
        return homology.HomologyResult("HC", i, ModuleShape((99,)), "closed_form")

    monkeypatch.setattr(homology, "hc_closed_form", skewed)
    code, out, _ = run(capsys, ["verify", "--prime", "3", "--hc-max", "8", "--hh-max", "2"])
    assert code == 3
    assert "FAIL hc degree 6" in out
    assert "R/p^99" in out  # the diff names both shapes


def _force(monkeypatch, kind: str) -> None:
    """Make the checks of one kind fail, each through what only it reads."""
    from cychom import homology
    from cychom.linalg import ModuleShape

    if kind == "hochschild":
        # Every cokernel has a free summand, so no differential out of an
        # odd degree is injective.  Only that check reads free_rank; the
        # others compare whole shapes.
        monkeypatch.setattr(ModuleShape, "free_rank", property(lambda shape: 1))
    elif kind == "hc degree":
        real = homology.hc_closed_form
        skewed = homology.HomologyResult("HC", 6, ModuleShape((99,)), "closed_form")
        monkeypatch.setattr(homology, "hc_closed_form", lambda p, i: skewed if i == 6 else real(p, i))
    elif kind == "connes":
        monkeypatch.setattr(ModuleShape, "p_length", property(lambda shape: 3))
    elif kind == "hp stabilization":
        # The detail lists the periodic torsion [2, 1, 1]: its commas make
        # CSV quote the cells that hold it.
        periodic = homology.HomologyResult("HP", 0, ModuleShape((2, 1, 1)), "closed_form")
        monkeypatch.setattr(homology, "hp", lambda p, i, n_max: periodic)
    elif kind == "kernel generators":
        monkeypatch.setattr(homology, "submodule_equal_mod", lambda *args: False)
    else:
        # A relation p times too large in its head, one more in its
        # valuation, rebuilds a wrong module.
        real = homology._colimit_rows

        def skewed(p, i):
            head, *rows = real(p, i)
            return [{0: head[0] + 1}, *rows]

        monkeypatch.setattr(homology, "_colimit_rows", skewed)


VERIFY_NAMES = (
    [f"hochschild degree {i}" for i in range(7)]
    + [f"hc degree {i}" for i in range(2, 41, 2)]
    + ["connes length recursion", "hp stabilization"]
    + [f"kernel generators at {i}" for i in (5, 7, 11)]
    + [f"colimit presentation {i}" for i in range(1, 12, 2)]
)


# Lines that each case prints, among others, in this order.
VERIFY_LINES = {
    None: [
        "ok   hochschild degree 0",
        "ok   hc degree 6: oracle R/p^6 x R/p vs closed R/p^6 x R/p",
        "ok   hc degree 28: not covered by a closed form",
        "ok   connes length recursion",
        "ok   kernel generators at 5",
        "ok   colimit presentation 11",
    ],
    "hochschild": ["ok   hochschild degree 0", "FAIL hochschild degree 1: HH differential out of degree 1 is not injective"],
    "hc degree": ["FAIL hc degree 6: oracle R/p^6 x R/p vs closed R/p^99"],
    "connes": [
        "FAIL connes length recursion: degree 0: length 3 != 1; degree 2: length step 0 != 2; "
        + "; ".join(f"degree {i}: length 3 != {i + 1}; degree {i}: length step 0 != 2" for i in range(4, 41, 2))
    ],
    # Its line is pinned in the CSV, quoted, below.
    "hp stabilization": [],
    "kernel generators": ["FAIL kernel generators at 5", "FAIL kernel generators at 7", "FAIL kernel generators at 11"],
    "colimit presentation": ["FAIL colimit presentation 1: rebuilt R/p^4 vs oracle R/p^3"],
}


@pytest.mark.parametrize("kind", list(VERIFY_LINES))
def test_verify_writes_its_check_records(monkeypatch, kind):
    # verify_checks yields the checks in the table's order, one line each;
    # "failures" names the records that are not ok; and the JSON and CSV
    # are json.dumps(indent=2)'s and csv.writer's of those two lists.
    from cychom import homology

    if kind is not None:
        _force(monkeypatch, kind)
    checks = list(homology.verify_checks(Prime(3), 40, 6))
    assert [c.name for c in checks] == VERIFY_NAMES
    failed = [c for c in checks if not c.ok]
    assert bool(failed) == (kind is not None)
    assert all(c.name.startswith(kind) for c in failed)
    lines = [f"{'ok  ' if c.ok else 'FAIL'} {c.name}" + (f": {c.detail}" if c.detail else "") for c in checks]
    failures = [f"{c.name}: {c.detail}" if c.detail else c.name for c in failed]
    payload = {"prime": 3, "failures": failures, "checks": lines}
    texts = _texts(["verify", "--prime", "3", "--hc-max", "40", "--hh-max", "6"], 3 if failed else 0)
    assert texts == {
        "table": "\n".join(lines + [f"{len(failures)} failure(s)"]) + "\n",
        "json": json.dumps(payload, indent=2) + "\n",
        "csv": _csv_reference([payload]),
    }
    assert [line for line in lines if line in VERIFY_LINES[kind]] == VERIFY_LINES[kind]
    if kind == "hp stabilization":
        assert ',"hp stabilization: degree 2: tail [] != periodic [2, 1, 1]' in texts["csv"]


def test_verify_holds_its_check_lines_once(tmp_path):
    # At --hc-max 1000 the check lines are 0.55 MB of text, each hc line
    # printing two shapes.  JSON and CSV wrote them from two more copies
    # (2.5 MB traced peak against 1.4 MB as a table); written a line at a
    # time from the one list, every format peaks alike.
    import tracemalloc

    peaks = {}
    for fmt in ("table", "json", "csv"):
        target = tmp_path / f"verify.{fmt}"
        tracemalloc.start()
        try:
            assert main(["verify", "--prime", "3", "--hc-max", "1000", "--format", fmt, "--out", str(target)]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.stat().st_size > 550_000
    assert max(peaks["json"], peaks["csv"]) < peaks["table"] + 50_000, peaks


def test_hc_disagreement_exits_3(capsys, monkeypatch):
    from cychom import homology
    from cychom.linalg import ModuleShape

    monkeypatch.setattr(
        homology,
        "hc_closed_form",
        lambda p, i: homology.HomologyResult("HC", i, ModuleShape((99,)), "closed_form"),
    )
    code, out, _ = run(capsys, ["hc", "--prime", "3", "--degree", "6", "--format", "json"])
    assert code == 3
    assert json.loads(out)["agreement"] is False


def test_arithmetic_error_exits_3(capsys, monkeypatch):
    from cychom import homology

    def broken(p, i):
        raise ArithmeticError("routes disagree")

    monkeypatch.setattr(homology, "hc_oracle", broken)
    code, out, err = run(capsys, ["hc", "--prime", "3", "--degree", "6"])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "routes disagree" in err


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_memory_error_ends_with_one_error_line(capsys, monkeypatch, fmt):
    from cychom import homology

    def exhausted(p, i):
        raise MemoryError

    monkeypatch.setattr(homology, "hc_oracle", exhausted)
    code, out, err = run(capsys, ["hc", "--prime", "3", "--degree", "6", "--format", fmt])
    assert (code, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.skipif(sys.platform != "linux", reason="caps the address space with Linux's RLIMIT_AS")
def test_verify_at_a_ten_digit_prime_fits_in_512_mb():
    # verify asks in_z2 for its kernel generators' indices: a list of the
    # Z2 members below 50 p, 25 p ints, would not fit, and a cap on the
    # child's address space makes that fail fast instead of swapping.
    probe = """if True:
        import resource, sys
        cap = 512 * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from cychom.cli import main
        sys.exit(main(["verify", "--prime", "1000000007", "--format", "json"]))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cychom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["failures"] == []


def _cychom(argv, stdout):
    """``python -m cychom argv`` started in a fresh interpreter, its stdout
    ``stdout``, buffered as from a shell, and its stderr a pipe."""
    env = dict(os.environ, PYTHONPATH=str(Path(cychom.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    cmd = [sys.executable, "-m", "cychom", *argv]
    return subprocess.Popen(cmd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def _assert_one_error_line(code, err):
    # Exit 1 and one line on stderr: no traceback, and nothing that Python
    # reports at exit about a stream it could not flush.
    assert code == 1, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_that_cannot_be_opened_ends_with_an_error_line(tmp_path, where):
    target = tmp_path / "no" / "such" / "dir" / "x" if where == "missing directory" else tmp_path
    proc = _cychom(["hc", "--prime", "3", "--degree", "4", "--out", str(target)], subprocess.PIPE)
    out, err = proc.communicate()
    _assert_one_error_line(proc.returncode, err)
    assert out == "" and str(target) in err


def test_stdout_closed_early_ends_with_an_error_line():
    # About 2 MB of members, far past what a pipe holds: the writes after
    # the reader has gone fail.
    proc = _cychom(["zsets", "--prime", "3", "--max", "1000000"], subprocess.PIPE)
    assert proc.stdout.read(1) == "z"
    proc.stdout.close()
    err = proc.stderr.read()
    _assert_one_error_line(proc.wait(), err)
    assert "Broken pipe" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_stdout_on_a_full_device_ends_with_an_error_line(fmt):
    # A short answer fails only when it is flushed, a long one while it is
    # written.
    for argv in (["hc", "--prime", "3", "--degree", "4"], ["zsets", "--prime", "3", "--max", "1000000"]):
        with open("/dev/full", "w") as full:
            proc = _cychom(argv + ["--format", fmt], full)
            _, err = proc.communicate()
        _assert_one_error_line(proc.returncode, err)
        assert "No space left on device" in err


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


def _legendre(p: int, m: int) -> int:
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def test_coeffs_prints_integers_beyond_default_str_limit(capsys):
    import sys

    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, ["coeffs", "--prime", "3", "--j", "4001", "--i", "4001", "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    # v_p(j!!) = v_p(j!) - v_p(((j-1)/2)!) by Legendre.
    assert payload["head_valuation"] == 4001 - (_legendre(3, 4001) - _legendre(3, 2000))
    assert len(payload["head"]) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_huge_integer_argument_still_refused():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--prime", "3", "--j", "7" * 5000, "--i", "7"])
    assert exc.value.code == 2


def test_hcneg_probe_is_not_run_without_a_closed_form(capsys):
    # At p = 7, degree 8 has m - 1 = 7 in a window, outside Z2: the answer
    # is "not covered", and the probe, which compares with the closed form,
    # is reported as not run, with exit 0, in every format.
    argv = ["hcneg", "--prime", "7", "--degree", "8", "--truncation", "300"]
    assert not in_z2(Prime(7), 7)
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (
        "HCneg_8: not covered (degree-1 in a gap window)\n"
        "truncation probe: not run (no closed form to compare)\n"
    )
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"theory": "HCneg", "degree": 8, "closed_form": None, "probe": None}
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, err) == (0, "")
    assert out == "theory,degree,closed_form,probe\r\nHCneg,8,,\r\n"
    # Without --truncation the answer is the same, and has no probe.
    code, out, _ = run(capsys, argv[:-2] + ["--format", "json"])
    assert code == 0 and json.loads(out) == {"theory": "HCneg", "degree": 8, "closed_form": None}


@pytest.mark.parametrize("degree", [8, 6])
def test_hcneg_refuses_a_truncation_below_1_at_every_degree(capsys, degree):
    # Refused with the other flags, before any closed form is made: degree 8
    # at p = 7 has none, so it would never reach the probe's own refusal.
    code, out, err = run(capsys, ["hcneg", "--prime", "7", "--degree", str(degree), "--truncation", "0"])
    assert (code, out, err) == (1, "", "error: truncation must be >= 1\n")


@pytest.mark.parametrize("degree", [7, 0])
def test_hcneg_probe_refuses_an_odd_or_non_positive_degree(capsys, degree):
    # The probe reads Z2 membership of degree - 1, which only an even
    # degree >= 2 has; without --truncation the same degree is answered.
    argv = ["hcneg", "--prime", "3", "--degree", str(degree)]
    code, out, err = run(capsys, argv + ["--truncation", "10"])
    assert (code, out) == (1, "")
    assert err == f"error: --truncation needs an even --degree >= 2, got {degree}\n"
    assert run(capsys, argv)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["hc", "--prime", "3", "--degree", "10"],
        ["hc", "--prime", "3", "--degree", "28"],
        ["hcneg", "--prime", "3", "--degree", "6", "--truncation", "8"],
    ],
)
def test_csv_flattens_nested_records(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert not any(cell.startswith("{") for cell in rows[0].values())
    nested = "probe" if argv[0] == "hcneg" else "closed_form"
    assert any(key.startswith(nested) for key in rows[0])


def test_csv_nested_columns_are_prefixed(capsys):
    code, out, _ = run(capsys, ["hc", "--prime", "3", "--degree", "10", "--format", "csv"])
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["closed_form.torsion_p_exponents"] == "8;2;1"
    assert row["closed_form.method"] == "closed_form"
    assert row["agreement"] == "True"


# Runs shorter than, equal to and longer than the 4096-item slices, and a
# multiple of them.
@example({3: 4095, 2: 4096, 1: 4097})
@example({5: 8192})
@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 60), st.integers(1, 10000), max_size=5))
def test_exponent_list_is_the_flat_exponents_at_its_final_size(runs):
    # The list shape_record gives by default, which json.dumps writes.
    from cychom.homology import HomologyResult
    from cychom.linalg import ModuleShape

    shape = ModuleShape(runs)
    exponents = shape.torsion_exponents
    assert exponents == [e for e, n in shape.torsion for _ in range(n)]
    assert sys.getsizeof(exponents) == sys.getsizeof([0] * len(exponents))
    record = cli.shape_record(HomologyResult("HC", 2, shape, "closed_form"))
    assert record["torsion_p_exponents"] == exponents
    # "truncated" and "n_max" are read off the shape, whatever its ranks.
    assert (record["truncated"], record["n_max"]) == (False, None)
    record = cli.shape_record(HomologyResult("HC", 2, shape._replace(n_max=9), "closed_form"))
    assert (record["truncated"], record["n_max"]) == (True, 9)


def test_deterministic_output(capsys):
    argv = ["hc", "--prime", "5", "--degree", "10", "--format", "json"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


# One command line per subcommand and output shape.
JSON_ARGVS = [
    ["hh", "--prime", "3", "--degree", "4"],
    ["hc", "--prime", "3", "--degree", "10"],
    ["hc", "--prime", "3", "--degree", "28"],
    ["hc", "--prime", "5", "--degree", "7"],
    ["hcneg", "--prime", "3", "--degree", "6", "--truncation", "8"],
    ["hcneg", "--prime", "3", "--degree", "28"],
    ["hp", "--prime", "3", "--degree", "0", "--n-max", "11"],
    ["zsets", "--prime", "3", "--max", "50"],
    ["density", "--prime", "3", "--max", "99"],
    ["coeffs", "--prime", "3", "--j", "3", "--i", "5"],
    ["verify", "--prime", "3", "--hc-max", "8", "--hh-max", "2"],
]


def _views(payload: dict, path: tuple = ()):
    """(path, view) for each view in the payload, in dicts at any depth."""
    for key, value in payload.items():
        if type(value) in cli.VIEWS:
            yield path + (key,), value
        elif type(value) is dict:
            yield from _views(value, path + (key,))


@pytest.mark.parametrize("argv", JSON_ARGVS)
def test_json_payloads_hold_only_json_types(monkeypatch, argv):
    # The result records are tuples: json.dumps would write one silently as
    # a list, so every payload must convert its records field by field.
    from cychom import cli, homology

    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda payload, *rest: payloads.append(payload))
    assert main(argv + ["--format", "json"]) == 0
    # The same command with its torsion exponents as the plain list that
    # shape_record gives by default.
    monkeypatch.setattr(cli, "_exponent_view", lambda shape: shape.torsion_exponents)
    assert main(argv + ["--format", "json"]) == 0

    payload, plain = payloads
    # The one non-JSON type: the views, at any depth, each written by its
    # own chunks.
    views = dict(_views(payload))
    want = {}
    for nested in ((), ("closed_form",)):
        record = plain
        for key in nested:
            record = record.get(key) or {}
        if "torsion_p_exponents" in record:
            want[nested + ("torsion_p_exponents",)] = (cli.Repeats, record["torsion_p_exponents"])
    if "--truncation" in argv:
        probe = homology.hc_neg_truncation_probe(Prime(3), int(argv[4]), int(argv[6]))
        prefix = [e for e, count in probe.stable_prefix for _ in range(count)]
        want[("probe", "stable_prefix")] = (cli.Repeats, prefix)
    if argv[0] == "zsets":
        want[("members",)] = (cli.Members, enumerate_z1(Prime(3), 50))
    if argv[0] == "coeffs":
        want[("rows",)] = (cli.Rows, _coeffs_reference_rows(3, 3, 5))
    assert views.keys() == want.keys()
    # Only the exponents go through _exponent_view.
    assert {path for path, _ in _views(plain)} == {path for path in want if path[-1] != "torsion_p_exponents"}
    # The CSV writer writes no one-cell row: each row has two cells or more.
    rows = plain.get("rows")
    assert all(len(cli._flatten(row)) >= 2 for row in (rows.records if type(rows) is cli.Rows else [plain]))
    for path, view in views.items():
        kind, items = want[path]
        assert type(view) is kind
        text = json.dumps({path[-1]: items}, indent=2) + "\n"
        assert "".join(cli._json_chunks({path[-1]: view})) == text
        record = payload
        for key in path[:-1]:
            record = record[key]
        del record[path[-1]]
    stack = [payload]
    while stack:
        node = stack.pop()
        assert type(node) in (dict, list, str, int, float, bool, type(None)), node
        if type(node) is dict:
            stack.extend(node.values())
        elif type(node) is list:
            # The writers know no list but a list of str.
            assert all(type(item) is str for item in node), node


@pytest.mark.parametrize(
    "argv",
    JSON_ARGVS
    + [
        ["zsets", "--prime", "3", "--max", "100000", "--set", "z2"],
        # Denominators past 4300 digits, written in parts.
        ["coeffs", "--prime", "3", "--j", "4001", "--i", "4005"],
    ],
)
def test_json_output_is_json_dumps_indent_2(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_TRICKY_TEXT = st.sampled_from(["", "two\nlines", 'say "hi"', "back\\slash", "ünïcødé ☃ \U0001d11e", "\t\r\x00"])
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _TRICKY_TEXT
# The only lists a command puts in a payload hold str.
_VALUES = st.recursive(
    _SCALARS | st.lists(st.text() | _TRICKY_TEXT, max_size=4),
    lambda inner: st.dictionaries(st.text() | _TRICKY_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text() | _TRICKY_TEXT, _VALUES, max_size=6))
def test_emit_json_matches_json_dumps(payload):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(payload, "json", None, [])
    assert buf.getvalue() == json.dumps(payload, indent=2) + "\n"


@settings(max_examples=500, deadline=None)
@given(
    _SCALARS  # floats include nan and +-inf
    | st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", " ", "~", "\x7f", "a", "0", "é", "\u2028", "\ud800", "☃"]))
    | st.just([])
    | st.just({})
)
@example(float("nan"))
@example(float("-inf"))
@example("\x7f")
@example('say "hi"')
@example("back\\slash")
@example("9" * 5000)
def test_json_text_is_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value)


def test_zsets_refuses_max_above_ceiling_before_sieving(capsys, monkeypatch):
    from cychom import gaps

    class Sieved(Exception):
        pass

    def sieve(*args, **kwargs):
        raise Sieved

    monkeypatch.setattr(gaps, "member_mask", sieve)
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, ["zsets", "--prime", "3", "--max", str(cli.ZSETS_MAX + 1), "--format", fmt])
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(cli.ZSETS_MAX) in err
    # The ceiling itself is allowed: that query reaches the sieve.
    with pytest.raises(Sieved):
        main(["zsets", "--prime", "3", "--max", str(cli.ZSETS_MAX)])


class Allocated(Exception):
    pass


def _allocating(*args, **kwargs):
    raise Allocated


# argv up to the capped flag, the ceiling's name, and the first allocation
# of that size.
CAPPED = [
    (["hc", "--prime", "3", "--degree"], "HC_MAX_DEGREE", "staircase_cokernels"),
    (["hcneg", "--prime", "3", "--degree", "6", "--truncation"], "HCNEG_MAX_TRUNCATION", "staircase_cokernels"),
    (["verify", "--prime", "3", "--hh-max", "2", "--hc-max"], "VERIFY_MAX_HC", "hc_oracle_shapes"),
    (["verify", "--prime", "3", "--hc-max", "2", "--hh-max"], "VERIFY_MAX_HH", "hochschild"),
    (["hp", "--prime", "3", "--degree", "0", "--n-max"], "PRODUCT_MAX_N", "hp"),
    (["hcneg", "--prime", "3", "--degree", "6", "--n-max"], "PRODUCT_MAX_N", "hc_neg_closed_form"),
    (["coeffs", "--prime", "3", "--i", str(cli.COEFFS_MAX), "--j"], "COEFFS_MAX", "staircase_parts"),
    (["coeffs", "--prime", "3", "--j", "3", "--i"], "COEFFS_MAX", "phi_coeff_texts"),
    (["density", "--prime", "3", "--max"], "DENSITY_MAX", "gaps.density_bounds"),
]


def _forbid(monkeypatch, allocator: str) -> None:
    """Make the allocation ``allocator`` raise: a homology function, or a
    function of another layer named with its module."""
    from cychom import gaps, homology

    module, _, name = allocator.rpartition(".")
    monkeypatch.setattr({"": homology, "gaps": gaps}[module], name, _allocating)


@pytest.mark.parametrize("argv, name, allocator", CAPPED, ids=[c[0][0] + c[0][-1] for c in CAPPED])
def test_sizes_above_ceiling_refused_before_allocating(capsys, monkeypatch, argv, name, allocator):
    ceiling = getattr(cli, name)
    _forbid(monkeypatch, allocator)
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, argv + [str(ceiling + 2), "--format", fmt])
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(ceiling) in err
    # The ceiling itself is allowed: that query reaches the allocation.
    with pytest.raises(Allocated):
        main(argv + [str(ceiling)])


def test_coeffs_caps_j_by_its_digits_before_any_coefficient(capsys, monkeypatch):
    # The digits grow like j^2 log p, so a p past 10 bits lowers the ceiling
    # of --j to what --j 8001 prints at p = 1009; every p below 1024 keeps
    # 8001.  The refusal comes before any coefficient is made.
    _forbid(monkeypatch, "phi_coeff_texts")
    for fmt in ("table", "json", "csv"):
        argv = ["coeffs", "--prime", "1000000007", "--j", "8001", "--i", "8001", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: coeffs prints about j^2 log p digits, so --j at p = 1000000007 is capped at 4619; got 8001\n"
    with pytest.raises(Allocated):
        main(["coeffs", "--prime", "1000000007", "--j", "4619", "--i", "4619"])
    # Near the top of Prime's range the ceiling is odd, as --j must be.
    top = "3317044064679887385961813"
    assert run(capsys, ["coeffs", "--prime", top, "--j", "2795", "--i", "2795"])[2].endswith("capped at 2793; got 2795\n")
    with pytest.raises(Allocated):
        main(["coeffs", "--prime", top, "--j", "2793", "--i", "2793"])
    for p in ("3", "1009", "1021"):
        with pytest.raises(Allocated):
            main(["coeffs", "--prime", p, "--j", str(cli.COEFFS_MAX), "--i", str(cli.COEFFS_MAX)])


def test_ceilings_sit_above_benchmark_and_test_inputs():
    # The benchmark runs hc to degree 400, verify to --hc-max 120 with the
    # default --hh-max 10, coeffs to j = 4001, density to --max 2.5*10**6
    # and the closed forms to degree 2*10**6 with n_max = degree + 21; the
    # tests run hc at degree 1002 and coeffs at i = 4005, and CI runs hc at
    # degree 10**6 and verify at --hc-max 4000.  Each ceiling is itself a
    # valid value: hc-max even, coeffs indices and n_max odd.
    assert cli.HC_MAX_DEGREE >= 10**6 and cli.VERIFY_MAX_HC >= 4000
    assert cli.COEFFS_MAX >= 4005 and cli.HCNEG_MAX_TRUNCATION >= 8
    assert cli.VERIFY_MAX_HH >= 10 and cli.PRODUCT_MAX_N >= 2 * 10**6 + 21
    assert cli.DENSITY_MAX >= 25 * 10**5
    assert cli.VERIFY_MAX_HC % 2 == 0 and cli.COEFFS_MAX % 2 == 1 and cli.PRODUCT_MAX_N % 2 == 1


# The ceilings that README "CLI" and the CI console-script step state by
# value: one past each is refused, the ceiling itself reaches the work.
DOCUMENTED = [
    (["hc", "--prime", "3", "--degree"], 10**6, "staircase_cokernels"),
    (["hcneg", "--prime", "3", "--degree", "6", "--truncation"], 5 * 10**5, "staircase_cokernels"),
    (["verify", "--prime", "3", "--hc-max", "2", "--hh-max"], 10**5, "hochschild"),
    (["hp", "--prime", "3", "--degree", "0", "--n-max"], 10**7 + 1, "hp"),
    (["density", "--prime", "3", "--max"], 10**8, "gaps.density_bounds"),
]


@pytest.mark.parametrize("argv, ceiling, allocator", DOCUMENTED, ids=[c[0][0] for c in DOCUMENTED])
def test_documented_ceilings(capsys, monkeypatch, argv, ceiling, allocator):
    _forbid(monkeypatch, allocator)
    code, out, err = run(capsys, argv + [str(ceiling + 1)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"capped at {ceiling};" in err
    with pytest.raises(Allocated):
        main(argv + [str(ceiling)])


@pytest.mark.parametrize("command, allocator", [("hp", "hp"), ("hcneg", "hc_neg_closed_form")])
def test_default_n_max_is_capped_too(capsys, monkeypatch, command, allocator):
    from cychom import homology

    # Without --n-max the cutoff is the first odd number from degree + 20:
    # the ceiling plus 2 at degree ceiling - 19, the ceiling at ceiling - 21.
    monkeypatch.setattr(homology, allocator, _allocating)
    top = cli.PRODUCT_MAX_N
    code, out, err = run(capsys, [command, "--prime", "3", "--degree", str(top - 19)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"capped at {top}; got {top + 2}" in err
    with pytest.raises(Allocated):
        main([command, "--prime", "3", "--degree", str(top - 21)])


def test_verify_checks_hh_max_before_any_check(capsys, monkeypatch):
    from cychom import homology

    monkeypatch.setattr(homology, "hochschild", _allocating)
    code, out, err = run(capsys, ["verify", "--prime", "3", "--hh-max", "-1"])
    assert code == 1 and out == ""
    assert err == "error: --hh-max must be >= 0, got -1\n"
    with pytest.raises(Allocated):
        main(["verify", "--prime", "3", "--hh-max", "0"])


@pytest.mark.parametrize("hc_max", ["7", "0", "-2", "1"])
def test_verify_checks_hc_max_before_any_check(capsys, monkeypatch, hc_max):
    from cychom import homology

    monkeypatch.setattr(homology, "hc_oracle", _allocating)
    monkeypatch.setattr(homology, "hochschild", _allocating)
    code, out, err = run(capsys, ["verify", "--prime", "3", "--hc-max", hc_max])
    assert code == 1 and out == ""
    assert err == f"error: --hc-max must be even and >= 2, got {hc_max}\n"


def test_coeffs_rows_match_phi_coeffs(capsys):
    from cychom.homology import phi_coeffs
    from cychom.padic import Prime, vp

    def frac_vp(x):
        return vp(Prime(3), x.numerator) - vp(Prime(3), x.denominator)

    code, out, err = run(capsys, ["coeffs", "--prime", "3", "--j", "4001", "--i", "4005", "--format", "json"])
    assert code == 0, err
    payload = json.loads(out)
    vec = phi_coeffs(Prime(3), 4001, 4005)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert payload["head"] == str(vec.head)
        assert payload["head_valuation"] == frac_vp(vec.head)
        assert len(payload["rows"]) == len(vec.components) == 2003
        for row, (n, v) in zip(payload["rows"], vec.components):
            assert row["modulus"] == n
            assert row["value"] == str(v)
            assert row["valuation"] == (None if v == 0 else frac_vp(v))
    finally:
        sys.set_int_max_str_digits(limit)


def test_cli_import_loads_no_code_generation_modules():
    # Every query is a fresh interpreter, so what importing the CLI loads
    # is paid on each one; -S keeps site's own imports out of the count.
    src = Path(cychom.__file__).resolve().parents[1]
    probe = "import sys, cychom.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} & set(loaded)


def test_queries_import_no_fractions_decimal_or_csv():
    # Only the commands that build a Fraction (density) or a Decimal
    # (coeffs) need these; fractions imports decimal, verify reduces its
    # coefficients from integers, and CSV is written by hand.  The probe
    # runs each other command in every format, and the closed forms that
    # the library serves on their own.
    src = Path(cychom.__file__).resolve().parents[1]
    probe = """if True:
        import os, sys
        import cychom.cli as c
        c.build_parser()
        print(" ".join(sys.modules))
        from cychom import Prime, homology
        homology.hc_closed_form(Prime(5), 2000)
        homology.hc_neg_closed_form(Prime(5), 2000, 2021)
        for argv in (
            ["hc", "--prime", "3", "--degree", "40"],
            ["hc", "--prime", "3", "--degree", "28"],
            ["hc", "--prime", "5", "--degree", "41"],
            ["hh", "--prime", "3", "--degree", "4"],
            ["hp", "--prime", "3", "--degree", "0", "--n-max", "101"],
            ["hcneg", "--prime", "3", "--degree", "6", "--truncation", "8"],
            ["zsets", "--prime", "3", "--max", "1000", "--set", "z2"],
            ["verify", "--prime", "3"],
            ["verify", "--prime", "11", "--hc-max", "100", "--hh-max", "20"],
        ):
            for fmt in ("table", "json", "csv"):
                assert c.main(argv + ["--format", fmt, "--out", os.devnull]) == 0, argv
        print(" ".join(sys.modules))
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    lines = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert len(lines) == 2 and "cychom.cli" in lines[0].split()
    for line in lines:
        assert not {"fractions", "decimal", "csv"} & set(line.split())


def test_well_formed_commands_import_neither_argparse_nor_json():
    # A well-formed command takes the grammar table's own parser, and its
    # payload's scalars are written without json: every command, in every
    # format, loads neither module.
    src = Path(cychom.__file__).resolve().parents[1]
    probe = """if True:
        import os, sys
        import cychom.cli as c
        for argv in (
            ["hh", "--prime", "3", "--degree", "4"],
            ["hc", "--prime", "3", "--degree", "40"],
            ["hc", "--prime", "3", "--degree", "28"],
            ["hcneg", "--prime", "3", "--degree", "6", "--n-max", "21", "--truncation", "8"],
            ["hp", "--prime", "3", "--degree", "0", "--n-max", "101"],
            ["zsets", "--prime", "3", "--max", "1000", "--set", "z2"],
            ["density", "--prime", "5", "--max", "1000"],
            ["coeffs", "--prime", "3", "--j", "3", "--i", "9"],
            ["verify", "--prime", "3", "--hc-max", "12", "--hh-max", "4"],
        ):
            for fmt in ("table", "json", "csv"):
                assert c.main(argv + ["--format", fmt, "--out", os.devnull]) == 0, argv
        print(" ".join(sys.modules))
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "cychom.cli" in loaded
    assert not {"argparse", "json"} & set(loaded)


def test_zsets_and_density_load_neither_linalg_nor_homology():
    # The package resolves its re-exports on first use and the CLI imports
    # homology inside the commands that call it, so the sieve commands load
    # padic, gaps and cli only.
    src = Path(cychom.__file__).resolve().parents[1]
    probe = """if True:
        import os, sys
        import cychom.cli as c
        for argv in (
            ["zsets", "--prime", "3", "--max", "1000", "--set", "z1"],
            ["zsets", "--prime", "5", "--max", "1000", "--set", "z2"],
            ["density", "--prime", "5", "--max", "1000"],
            ["density", "--prime", "1009", "--max", "10"],
        ):
            for fmt in ("table", "json", "csv"):
                assert c.main(argv + ["--format", fmt, "--out", os.devnull]) == 0, argv
        print(" ".join(sys.modules))
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = set(
        subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
        .stdout.split()
    )
    assert {"cychom.cli", "cychom.gaps", "cychom.padic"} <= loaded
    assert not {"cychom.linalg", "cychom.homology"} & loaded


def test_help_still_goes_through_argparse(capsys):
    # A usage error does too: test_usage_error_exit_code.
    with pytest.raises(SystemExit) as exc:
        main(["hc", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cychom hc [-h] --prime PRIME")


def _argparse_namespace(argv: list[str]) -> dict | None:
    """vars of what build_parser().parse_args(argv) returns, or None where
    it prints help or refuses argv."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


_MUTATIONS = st.sampled_from(["drop", "twice", "abbreviate", "join", "not-int", "negative", "bad-choice", "help"])


@st.composite
def _grammar_argv(draw):
    """An argv from the grammar table, and whether it was left well formed:
    every required flag and any optional ones in some order, each with a
    valid value, then some mutations of its flags and values."""
    command = draw(st.sampled_from(sorted(cli.GRAMMAR)))
    options = cli.GRAMMAR[command][2]
    pairs = []
    for opt in draw(st.permutations(options)):
        if not opt.required and draw(st.booleans()):
            continue
        if opt.choices is not None:
            value = draw(st.sampled_from(opt.choices))
        elif opt.type is int:
            value = str(draw(st.integers(min_value=0, max_value=10**4)))
        else:
            value = draw(st.text("ab./ =", min_size=1, max_size=6))
        pairs.append([opt.flag, value])
    mutations = draw(st.lists(st.tuples(_MUTATIONS, st.integers(0, len(pairs) - 1)), max_size=3))
    for kind, k in mutations:
        if len(pairs[k]) != 2:  # already dropped, joined or a help flag
            continue
        flag, value = pairs[k]
        if kind == "drop":
            pairs[k] = []
        elif kind == "twice":
            pairs.append([flag, value])
        elif kind == "abbreviate":
            pairs[k] = [flag[: draw(st.integers(2, max(2, len(flag) - 1)))], value]
        elif kind == "join":
            pairs[k] = [f"{flag}={value}"]
        elif kind == "not-int":
            pairs[k] = [flag, draw(st.sampled_from(["x", "4.0", "", "1e3", "0x10", "7" * 5000]))]
        elif kind == "negative":
            pairs[k] = [flag, "-" + value]
        elif kind == "bad-choice":
            pairs[k] = [flag, "z3"]
        else:
            pairs.insert(k, [draw(st.sampled_from(["-h", "--help"]))])
    return [command, *(arg for pair in pairs for arg in pair)], not mutations


@settings(max_examples=300, deadline=None)
@given(_grammar_argv())
@example((["hc", "--prime", "3", "--degree", " 4_0 "], True))
@example((["hc", "--prime", "3", "--degree", "4", "--degree", "6"], False))
@example((["hc", "--prime", "3", "--degree", "x", "--degree", "6"], False))
@example((["hc", "--prime", "3", "--deg", "4"], False))
@example((["zsets", "--prime", "3", "--max", "9", "--set", "z3"], False))
@example((["zsets", "--prime", "3", "--max", "9", "--out", "--set"], False))
@example((["hc", "--prime", "3", "--degree", "4", "extra"], False))
@example((["--help"], False))
@example(([], False))
def test_fast_parse_is_argparse_or_declines(case):
    argv, well_formed = case
    fast = cli._fast_parse(argv)
    want = _argparse_namespace(argv)
    if well_formed:
        assert fast is not None
    if fast is not None:
        assert vars(fast) == want


ZSETS_NOTE = "1 is a member by definition; informal listings often omit it"


def _texts(argv: list[str], code: int = 0) -> dict[str, str]:
    """stdout in each format; the exit code must be ``code`` and stderr empty."""
    texts = {}
    for fmt in ("table", "json", "csv"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv + ["--format", fmt]) == code
        assert err.getvalue() == ""
        texts[fmt] = out.getvalue()
    return texts


def _csv_writer_text(lines: list[list]) -> str:
    """What csv.writer writes of the lines, each a list of cells, a list
    cell written as its items' str joined by ';'.

    The csv.writer of Python 3.10 refuses a NUL ("need to escape, but no
    escapechar set"), which 3.11 on write as an ordinary character, as
    cli does; so a NUL goes through a stand-in character that no cell
    holds, and back.
    """
    lines = [[";".join(map(str, c)) if type(c) is list else c for c in line] for line in lines]
    texts = [c for line in lines for c in line if type(c) is str]
    stand_in = next(c for c in map(chr, range(0xE000, 0xF900)) if not any(c in text for text in texts))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for line in lines:
        writer.writerow([c.replace("\0", stand_in) if type(c) is str else c for c in line])
    return buf.getvalue().replace(stand_in, "\0")


def _csv_reference(rows: list[dict]) -> str:
    return _csv_writer_text([list(rows[0].keys())] + [list(row.values()) for row in rows])


def _zsets_texts(p: int, top: int, which: str) -> dict[str, str]:
    return _texts(["zsets", "--prime", str(p), "--max", str(top), "--set", which])


def _zsets_reference(p: int, top: int, which: str) -> dict[str, str]:
    """The three texts built from the enumerated member list."""
    members = (enumerate_z1 if which == "z1" else enumerate_z2)(Prime(p), top)
    payload = {"set": which, "prime": p, "max": top, "members": members, "note": ZSETS_NOTE}
    return {
        "table": f"{which} up to {top} for p={p} ({len(members)} elements):\n" + " ".join(map(str, members)) + "\n",
        "json": json.dumps(payload, indent=2) + "\n",
        "csv": _csv_reference([payload]),
    }


_ZSETS_PRIMES = [3, 5, 7, 11, 13, 101]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_ZSETS_PRIMES),
    st.integers(min_value=1, max_value=20_000)
    | st.builds(lambda k, d: 1000 * k + d, st.integers(1, 40), st.sampled_from([-1, 0, 1])),
    st.sampled_from(["z1", "z2"]),
)
def test_zsets_text_matches_enumerated_members(p, top, which):
    assert _zsets_texts(p, top, which) == _zsets_reference(p, top, which)


@pytest.mark.parametrize("which", ["z1", "z2"])
@pytest.mark.parametrize("p", _ZSETS_PRIMES)
def test_zsets_text_at_block_edges(p, which):
    # 1 and p, values below 1000, and the edges of the 1000-wide blocks.
    for top in (1, 2, p, p + 2, 499, 997, 999, 1000, 1001, 1999, 2000, 2001, 9999, 10_000, 10_001):
        assert _zsets_texts(p, top, which) == _zsets_reference(p, top, which), top


def test_zsets_skips_a_block_without_members():
    # At p = 3 the Z1 window of 999 = 27 * 37 is [999, 1001], so block 1
    # is empty up to --max 1001 and must write nothing, not its bare
    # prefix "1".
    top = 1001
    assert enumerate_z1(Prime(3), top)[-1] < 1000
    texts = _zsets_texts(3, top, "z1")
    assert texts == _zsets_reference(3, top, "z1")
    assert texts["table"].split("\n")[1].split()[-1] != "1"


def test_zsets_builds_no_member_list(monkeypatch):
    want = {which: _zsets_reference(5, 20_001, which) for which in ("z1", "z2")}

    def refused(*args):
        raise AssertionError("zsets built a member list")

    monkeypatch.setattr(gaps, "enumerate_z1", refused)
    monkeypatch.setattr(gaps, "enumerate_z2", refused)
    for which in ("z1", "z2"):
        assert _zsets_texts(5, 20_001, which) == want[which]


def test_zsets_writes_chunks_not_one_string(monkeypatch):
    # writelines gets block-sized chunks: the text is never joined whole.
    sizes = []

    class Sink(io.StringIO):
        def writelines(self, chunks):
            for chunk in chunks:
                sizes.append(len(chunk))
                self.write(chunk)

    for fmt in ("table", "json", "csv"):
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["zsets", "--prime", "3", "--max", "100000", "--format", fmt]) == 0
        assert len(sink.getvalue()) > 100_000 > 10 * max(sizes)
        sizes.clear()


def _frac_vp(p: int, x) -> int:
    from cychom.padic import vp

    return vp(Prime(p), x.numerator) - vp(Prime(p), x.denominator)


def _coeffs_reference_rows(p: int, j: int, i: int) -> list[dict]:
    """coeffs' rows from the Fractions of phi_coeffs, by str of each."""
    from cychom.homology import phi_coeffs

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [
            {"modulus": n, "value": str(v), "valuation": None if v == 0 else _frac_vp(p, v)}
            for n, v in phi_coeffs(Prime(p), j, i).components
        ]
    finally:
        sys.set_int_max_str_digits(limit)


def _coeffs_reference(p: int, j: int, i: int) -> dict[str, str]:
    """The three texts of coeffs, built from phi_coeffs' Fractions."""
    from cychom.homology import phi_coeffs

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        head = str(phi_coeffs(Prime(p), j, i).head)
    finally:
        sys.set_int_max_str_digits(limit)
    head_valuation = j - (_legendre(p, j) - _legendre(p, (j - 1) // 2))
    rows = _coeffs_reference_rows(p, j, i)
    payload = {"prime": p, "j": j, "i": i, "head": head, "head_valuation": head_valuation, "rows": rows}
    table = [f"generator {j} in colimit {i}: head {head} (v={head_valuation})"]
    table += [f"  R/{row['modulus']}: {row['value']}" for row in rows]
    return {"table": "\n".join(table) + "\n", "json": json.dumps(payload, indent=2) + "\n", "csv": _csv_reference(rows)}


@pytest.mark.parametrize("p, j, i", [(3, 1, 1), (3, 5, 9), (7, 11, 15), (101, 501, 503), (3, 4001, 4005)])
def test_coeffs_text_matches_fractions(p, j, i):
    # i > j in all but the first, so the zero rows past j are covered too.
    argv = ["coeffs", "--prime", str(p), "--j", str(j), "--i", str(i)]
    assert _texts(argv) == _coeffs_reference(p, j, i)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_coeffs_never_holds_its_text(tmp_path, fmt):
    # 7 MB of text at p = 3, J = 4001; the staircase's Decimals are about
    # 3 MB, and the writers hold one row at a time.
    import tracemalloc

    target = tmp_path / f"coeffs.{fmt}"
    argv = ["coeffs", "--prime", "3", "--j", "4001", "--i", "4001", "--format", fmt, "--out", str(target)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 6_800_000
    assert peak < 6_000_000, peak


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_coeffs_failure_writes_nothing(capsys, monkeypatch, tmp_path, fmt):
    # Every exact product is made before the first byte is written, so an
    # Inexact from a too-small context leaves stdout and --out empty.
    import decimal

    from cychom import padic

    small = decimal.Context(prec=30, traps=[decimal.Inexact, decimal.Rounded])
    monkeypatch.setattr(padic, "_EXACT", small)
    argv = ["coeffs", "--prime", "3", "--j", "201", "--i", "201", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("error:")
    target = tmp_path / "coeffs.out"
    assert main(argv + ["--out", str(target)]) == 3
    assert not target.exists()


def _shape_reference(res) -> dict[str, str]:
    """The three texts of one result, from shape_record's list and str(shape)."""
    record = cli.shape_record(res)
    assert type(record["torsion_p_exponents"]) is list
    return {
        "table": f"{res.theory}_{res.degree} = {res.shape}  [{res.method}]\n",
        "json": json.dumps(record, indent=2) + "\n",
        "csv": _csv_reference([record]),
    }


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["hp", "hcneg"]),
    st.sampled_from([3, 5, 7, 101]),
    st.sampled_from([-4, 0, 1, 2, 6, 8, 12]),
    st.integers(0, 30_000).map(lambda k: 2 * k + 1),
)
def test_exponent_runs_text_matches_shape(command, p, degree, n_max):
    # Includes an empty exponent list (p = 101, n_max < 101) and odd
    # degrees, whose shape is 0.
    from cychom import homology

    if command == "hp":
        res = homology.hp(Prime(p), degree, n_max)
    else:
        res = homology.hc_neg_closed_form(Prime(p), degree, n_max)
    argv = [command, "--prime", str(p), "--degree", str(degree), "--n-max", str(n_max)]
    if res is not None:
        assert _texts(argv) == _shape_reference(res)


@pytest.mark.parametrize("command", ["hp", "hcneg"])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_exponent_lists_are_written_from_runs(tmp_path, command, fmt):
    # 166,667 exponents at p = 3 and n_max 10**6 + 1, in 12 runs: the shape
    # holds the runs, and no step from the count to the text lists the
    # exponents one by one (1.3 MB as a list).
    import tracemalloc

    target = tmp_path / f"{command}.{fmt}"
    argv = [command, "--prime", "3", "--degree", "0", "--n-max", str(10**6 + 1), "--format", fmt, "--out", str(target)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 333_000
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [["hc", "--prime", "3", "--degree", "30000"], ["hcneg", "--prime", "3", "--degree", "8", "--truncation", "15000"]],
    ids=["hc-closed-form", "hcneg-probe-prefix"],
)
def test_nested_exponent_lists_are_written_from_runs(tmp_path, argv, fmt):
    # hc's closed form and the probe's stable prefix each hold about 5,000
    # exponents in a handful of runs, nested a level down in the payload.
    # Listed one by one and written by json.dumps or csv, they peaked at
    # 0.47-0.58 MB traced; written from the runs, at 0.08-0.16 MB.
    import tracemalloc

    target = tmp_path / f"{argv[0]}.{fmt}"
    tracemalloc.start()
    try:
        assert main(argv + ["--format", fmt, "--out", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 9_000
    assert peak < 300_000, peak


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 10**6), st.integers(0, 9000)), max_size=4), st.text() | _TRICKY_TEXT)
def test_repeats_view_writes_its_list(runs, text):
    # Runs past 4096 items span chunks; an empty view is [] and "".
    items = [v for v, count in runs for _ in range(count)]
    view = cli.Repeats([(str(v), count) for v, count in runs])
    record = {"a": text, "x": items, "b": 7}
    assert "".join(cli._json_chunks({**record, "x": view})) == json.dumps(record, indent=2) + "\n"
    assert "".join(cli._csv_chunks({**record, "x": view})) == _csv_reference([record])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["ok   hochschild degree 4", "", 'say "hi"', "a,b", "é", "tab\t", "x" * 20_000]), max_size=900),
)
def test_lists_are_written_in_batches(texts):
    # Past 256 items a list spans batches; an item past 16384 characters is
    # a batch alone; a batch with an escape goes item by item.
    payload = {"checks": texts, "n": 1}
    assert "".join(cli._json_chunks(payload)) == json.dumps(payload, indent=2) + "\n"
    assert "".join(cli._csv_chunks(payload)) == _csv_reference([payload])


# (view, its items) pairs; a Members mask always holds 1.
_VIEW_PAIRS = st.lists(st.tuples(st.integers(-5, 10**6), st.integers(0, 5000)), max_size=3).map(
    lambda runs: (cli.Repeats([(str(v), n) for v, n in runs]), [v for v, n in runs for _ in range(n)])
) | st.binary(max_size=1200).map(lambda raw: bytearray(b"\x01" + bytes(x & 1 for x in raw))).map(
    lambda mask: (cli.Members(mask), list(compress(range(1, 2 * len(mask), 2), mask)))
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        (
            _SCALARS
            | st.sampled_from([",", "1,2", "3/5", '"'])
            | st.lists(_TRICKY_TEXT | st.sampled_from([",", '"', "a;b"]), max_size=3)
        ).map(
            lambda cell: (cell, cell)
        )
        | _VIEW_PAIRS,
        min_size=2,
        max_size=4,
    )
)
def test_csv_row_is_what_csv_writer_writes(cells):
    # The line is csv.writer's, byte for byte: quotes, commas and line ends
    # included, and any number of views, each written as its list would be.
    # Every row a command writes has at least two cells, lists of str only.
    line = "".join(cli._csv_line([cell for cell, _ in cells]))
    assert line == _csv_writer_text([[items for _, items in cells]])


def _nest(children):
    """(payload, plain) pairs of dicts whose values are children pairs."""
    return st.dictionaries((st.text() | _TRICKY_TEXT).filter(lambda key: key != "rows"), children, max_size=3).map(
        lambda d: ({k: v for k, (v, _) in d.items()}, {k: items for k, (_, items) in d.items()})
    )


@settings(max_examples=150, deadline=None)
@given(
    _nest(st.recursive(_SCALARS.map(lambda x: (x, x)) | _VIEW_PAIRS, _nest, max_leaves=10)),
    _VIEW_PAIRS,
    _VIEW_PAIRS,
    st.booleans(),
)
def test_views_at_any_depth_write_their_lists(pairs, first, second, nested):
    # Views in dicts at any depth, and at least two views in the CSV row:
    # one at the top, the other at the top or one dict down.
    payload, plain = pairs
    payload = {**payload, "v": first[0], "w": {"x": second[0]} if nested else second[0]}
    plain = {**plain, "v": first[1], "w": {"x": second[1]} if nested else second[1]}
    assert "".join(cli._json_chunks(payload)) == json.dumps(plain, indent=2) + "\n"
    assert "".join(cli._csv_chunks(payload)) == _csv_reference([cli._flatten(plain)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {"modulus": st.integers(), "value": st.text() | _TRICKY_TEXT, "valuation": st.none() | st.integers()}
        ),
        min_size=1,
        max_size=5,
    )
)
def test_rows_view_writes_its_records(records):
    payload = {"head": "9/2", "rows": records}
    want = json.dumps(payload, indent=2) + "\n"
    assert "".join(cli._json_chunks({**payload, "rows": cli.Rows(iter(records))})) == want
    # A level down, the records take the indent of their list's items.
    nested = {"head": "9/2", "a": {"b": cli.Rows(iter(records))}}
    want = json.dumps({"head": "9/2", "a": {"b": records}}, indent=2) + "\n"
    assert "".join(cli._json_chunks(nested)) == want
    assert "".join(cli._csv_chunks({**payload, "rows": cli.Rows(iter(records))})) == _csv_reference(records)
