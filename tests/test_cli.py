import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from itertools import compress, count
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import ceilings
import cychom
import sweeps
from cychom import cli, gaps
from cychom.cli import main
from cychom.gaps import enumerate_z1, enumerate_z2, in_z2
from cychom.padic import Prime
from valuation_rows import frac_vp

ROOT = Path(__file__).resolve().parents[1]

def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def _force(monkeypatch, kind: str) -> None:
    """Make the checks of one kind fail, each through what only it reads."""
    from cychom import homology
    from cychom.linalg import ModuleShape

    if kind == "hc degree":
        real = homology.hc_closed_form
        skewed = homology.HomologyResult("HC", 6, ModuleShape((99,)), "closed_form")
        monkeypatch.setattr(homology, "hc_closed_form", lambda p, i: skewed if i == 6 else real(p, i))
    elif kind == "connes":
        monkeypatch.setattr(ModuleShape, "p_length", property(lambda shape: 3))
    elif kind == "kernel generators":
        monkeypatch.setattr(homology, "submodule_equal_mod", lambda *args: False)
    elif kind == "hp stabilization":
        # HC_28, which no closed form covers, with its head one lower and
        # the box a new R/p, so its p-length stays 29.
        real = homology._hc_walk

        def skewed(p, i_max):
            for i, (pivots, tail) in zip(count(0, 2), real(p, i_max)):
                if i == 28:
                    pivots, tail = pivots + Counter(tail), []
                    head = max(pivots)
                    pivots[head] -= 1
                    pivots.update([head - 1, 1])
                yield pivots, tail

        monkeypatch.setattr(homology, "_hc_walk", skewed)
    else:
        # A relation p times too large in its head, one more in its
        # valuation, rebuilds a wrong module.
        real = homology._colimit_rows

        def skewed(p, i):
            head, *rows = real(p, i)
            return [{0: head[0] + 1}, *rows]

        monkeypatch.setattr(homology, "_colimit_rows", skewed)


VERIFY_NAMES = (
    [f"hc degree {i}" for i in range(2, 41, 2)]
    + ["connes length recursion", "hp stabilization"]
    + [f"kernel generators at {i}" for i in (5, 7, 11)]
    + [f"colimit presentation {i}" for i in range(1, 12, 2)]
)


# Lines that each case prints, among others, in this order.
VERIFY_LINES = {
    None: [
        "ok   hc degree 6",
        "ok   hc degree 28: not covered by a closed form",
        "ok   connes length recursion",
        "ok   kernel generators at 5",
        "ok   colimit presentation 11",
    ],
    "hc degree": ["FAIL hc degree 6: oracle R/p^6 x R/p vs closed R/p^99"],
    "connes": [
        "FAIL connes length recursion: degree 0: length 3 != 1; "
        + "; ".join(f"degree {i}: length 3 != {i + 1}" for i in range(4, 41, 2))
    ],
    "hp stabilization": ["FAIL hp stabilization: head exponents decrease: 22 -> 21"],
    "kernel generators": ["FAIL kernel generators at 5", "FAIL kernel generators at 7", "FAIL kernel generators at 11"],
    "colimit presentation": ["FAIL colimit presentation 1: rebuilt R/p^4 vs oracle R/p^3"],
}


@pytest.mark.parametrize("kind", list(VERIFY_LINES))
def test_verify_writes_its_check_records(monkeypatch, kind):
    # verify_checks yields the checks in the table's order, one line each;
    # "failures" holds the names of the records that are not ok; the JSON
    # is json.dumps(indent=2)'s of the records, and the CSV csv.writer's,
    # one row a record.
    from cychom import homology

    if kind is not None:
        _force(monkeypatch, kind)
    checks = list(homology.verify_checks(Prime(3), 40))
    assert [c.name for c in checks] == VERIFY_NAMES
    failed = [c for c in checks if not c.ok]
    assert bool(failed) == (kind is not None)
    assert all(c.name.startswith(kind) for c in failed)
    lines = [f"{'ok  ' if c.ok else 'FAIL'} {c.name}" + (f": {c.detail}" if c.detail else "") for c in checks]
    records = [c._asdict() for c in checks]
    payload = {"prime": 3, "failures": [c.name for c in failed], "checks": records}
    texts = _texts(["verify", "--prime", "3", "--hc-max", "40"], 3 if failed else 0)
    assert texts == {
        "table": "\n".join(lines + [f"{len(failed)} failure(s)"]) + "\n",
        "json": json.dumps(payload, indent=2) + "\n",
        "csv": _csv_reference(records),
    }
    assert [line for line in lines if line in VERIFY_LINES[kind]] == VERIFY_LINES[kind]


def test_verify_holds_its_check_lines_once(tmp_path):
    # An ok hc record names no shape, so the check records grow linearly
    # with --hc-max: above 0.1 MB of text a format at the ceiling, and every
    # format peaks alike.  verify keeps no shape past its hc record, so the
    # records themselves, about 0.8 MB at the ceiling, set the traced peak
    # (1.1-1.3 MB at p = 3); test_rows_view_writes_its_records and
    # test_lists_are_written_item_by_item count the writers' chunks.
    import gc
    import tracemalloc

    peaks = {}
    for fmt in ("table", "json", "csv"):
        target = tmp_path / f"verify.{fmt}"
        argv = ["verify", "--prime", "3", "--hc-max", str(cli.VERIFY_MAX_HC), "--format", fmt, "--out", str(target)]
        # Freed tuples wait on CPython's free lists, which tracemalloc counts
        # as held, until a full collection empties them; so without one here
        # a run's peak depends on when the last one ran, and the same format
        # read up to 0.6 MB apart from run to run.
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert target.stat().st_size > 100_000
    assert max(peaks["json"], peaks["csv"]) < peaks["table"] + 50_000, peaks
    # No ok record names a shape, so at --hc-max 4000 the JSON stays small.
    target = tmp_path / "verify4000.json"
    assert main(["verify", "--prime", "3", "--hc-max", "4000", "--format", "json", "--out", str(target)]) == 0
    assert target.stat().st_size < 192 * 1024
    hc = [c for c in json.loads(target.read_text())["checks"] if c["name"].startswith("hc degree ")]
    assert [c["name"] for c in hc] == [f"hc degree {i}" for i in range(2, 4001, 2)]
    assert all(c["ok"] for c in hc)
    assert {c["detail"] for c in hc} == {"", "not covered by a closed form"}


def test_verify_checks_keep_no_shape_past_its_degree():
    # The walk is read a block at a time: each degree's shape is dropped
    # once its hc record is out, and only its p-length, its head past a Z1
    # member and the shapes up to degree 12 are kept.  The bound sits
    # between the records alone, about 0.8 MB (a 1.1 MB peak), and a dict
    # of every degree's shape, about 1 KB a degree (a 4.8 MB peak).
    import gc
    import tracemalloc

    from cychom import homology

    gc.collect()
    tracemalloc.start()
    try:
        checks = list(homology.verify_checks(Prime(3), cli.VERIFY_MAX_HC))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checks) == cli.VERIFY_MAX_HC // 2 + 2 + 3 + 6
    assert peak < 2_000_000, peak


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


@pytest.mark.parametrize("where", ["missing directory", "directory", "empty path"])
def test_out_that_cannot_be_opened_ends_with_an_error_line(tmp_path, where):
    # An empty path is a path that cannot be opened, not stdout.
    target = {"missing directory": tmp_path / "no" / "such" / "x", "directory": tmp_path, "empty path": ""}[where]
    proc = _cychom(["hc", "--prime", "3", "--degree", "4", "--out", str(target)], subprocess.PIPE)
    out, err = proc.communicate()
    _assert_one_error_line(proc.returncode, err)
    assert out == "" and repr(str(target)) in err


def test_stdout_closed_early_ends_with_an_error_line():
    # About 2 MB of members, far past what a pipe holds: the writes after
    # the reader has gone fail.
    with _cychom(["zsets", "--prime", "3", "--max", "1000000"], subprocess.PIPE) as proc:
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


# One argv per command, each a small well-formed query.
ONE_PER_COMMAND = [
    ["hh", "--prime", "3", "--degree", "2"],
    ["hc", "--prime", "3", "--degree", "6"],
    ["hcneg", "--prime", "3", "--degree", "6", "--truncation", "8"],
    ["hp", "--prime", "3", "--degree", "0"],
    ["zsets", "--prime", "3", "--max", "100"],
    ["density", "--prime", "3", "--max", "99"],
    ["coeffs", "--prime", "3", "--j", "3", "--i", "5"],
    ["verify", "--prime", "3", "--hc-max", "6"],
]


@pytest.mark.parametrize("argv", ONE_PER_COMMAND, ids=[argv[0] for argv in ONE_PER_COMMAND])
def test_main_never_freezes_the_collector(capsys, monkeypatch, argv):
    # A caller that lives on keeps collecting its cycles: only the process
    # entry freezes.  The stand-in catches a call, the count any other way.
    import gc

    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(1))
    frozen = gc.get_freeze_count()
    assert run(capsys, argv)[0] == 0
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert (calls, gc.get_freeze_count()) == ([], frozen)


# Runs the process entry on ARGV in a fresh interpreter, with the closed
# form made to disagree at degree 6 when SKEW is set; it exits 99 if the
# collector is not frozen when the entry exits, 98 if the entry returns.
ENTRY_PROBE = """if True:
    import gc, os, sys
    from cychom import cli, homology
    from cychom.linalg import ModuleShape
    if SKEW:
        homology.hc_closed_form = lambda p, i: homology.HomologyResult("HC", i, ModuleShape((99,)), "closed_form")
    sys.argv = ["cychom", *ARGV]
    try:
        cli.entry()
    except SystemExit:
        if not gc.get_freeze_count():
            os._exit(99)
        raise
    os._exit(98)
"""


@pytest.mark.parametrize(
    "argv, skew, code",
    [
        (["hc", "--prime", "3", "--degree", "6"], False, 0),
        (["--help"], False, 0),
        (["hc", "--prime", "3", "--degree", "1000001"], False, 1),
        (["hc", "--prime", "3"], False, 2),
        (["hc", "--prime", "3", "--degree", "6"], True, 3),
    ],
    ids=["answer", "help", "refused", "usage", "disagreement"],
)
def test_entry_freezes_the_collector_on_every_way_out(argv, skew, code):
    probe = ENTRY_PROBE.replace("SKEW", repr(skew)).replace("ARGV", repr(argv))
    env = dict(os.environ, PYTHONPATH=str(Path(cychom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_installed_script_and_python_m_share_the_entry(monkeypatch):
    # pyproject.toml read as text: Python 3.10 has no tomllib.
    import re
    import runpy

    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^cychom = "cychom\.cli:(\w+)"$', text, re.MULTILINE).group(1)
    called = []
    monkeypatch.setattr(cli, target, lambda: called.append(target))
    runpy.run_module("cychom", run_name="__main__")
    assert called == [target] == ["entry"]


def test_entry_annotations_resolve():
    import typing

    typing.get_type_hints(cli.entry)


def test_readme_examples_exit_0(capsys):
    # Each `cychom` line of the README's examples, its comment stripped,
    # so none can name a flag the CLI no longer has.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = [line.split("#")[0].split()[1:] for line in readme.splitlines() if line.startswith("cychom ")]
    assert len(examples) >= 8
    for argv in examples:
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
@pytest.mark.parametrize("upper", [11, 999, 10**4, 10**5 + 1])
def test_density_bounds_are_printed_rounded_down(capsys, p, upper):
    # The bounds hold, and a certified lower bound stays one when printed:
    # each bound field in JSON and CSV is the largest float <= the exact
    # rational, and the table's figures are the rationals rounded down to
    # 6 decimals.
    from fractions import Fraction

    rep = gaps.density_bounds(Prime(p), upper)
    assert rep.empirical_z1 >= rep.bound_z1 and rep.empirical_z2 >= rep.bound_z2
    fields = [f for f in rep._fields if f.startswith("bound_")]
    argv = ["density", "--prime", str(p), "--max", str(upper), "--format"]
    _, text, _ = run(capsys, argv + ["json"])
    _, csv_text, _ = run(capsys, argv + ["csv"])
    for printed in (json.loads(text), next(csv.DictReader(io.StringIO(csv_text)))):
        for field in fields:
            f = float(printed[field])
            assert Fraction(f) <= getattr(rep, field) < Fraction(math.nextafter(f, math.inf)), field
    _, table, _ = run(capsys, argv + ["table"])
    figures = [word.rstrip(")") for line in table.splitlines()[1:] for word in line.split()[-3::2]]
    exact = [rep.bound_z1, rep.bound_z1_asymptotic, rep.bound_z2, rep.bound_z2_asymptotic]
    for figure, bound in zip(figures, exact, strict=True):
        assert Fraction(figure) <= bound < Fraction(figure) + Fraction(1, 10**6), (figure, bound)


def _legendre(p: int, m: int) -> int:
    total, q = 0, p
    while q <= m:
        total += m // q
        q *= p
    return total


def test_huge_integer_argument_still_refused():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--prime", "3", "--j", "7" * 5000, "--i", "7"])
    assert exc.value.code == 2


def test_an_integer_past_the_str_limit_is_a_short_usage_error(capsys):
    # The refusal names the limit and the variable that lifts it, and
    # echoes none of its digits, at 4,301 digits as at 20,001.
    import re

    for digits in (4301, 20001):
        degree = "1" + "0" * (digits - 2) + "4"
        with pytest.raises(SystemExit) as exc:
            main(["hcneg", "--prime", "3", "--degree", degree, "--n-max", "9", "--truncation", "2000"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.encode()) < 1024 and not re.search(r"\d{10}", err)
        assert err.endswith(
            f"error: argument --degree: {digits} digits, past Python's int-to-str limit of 4300"
            " (PYTHONINTMAXSTRDIGITS=0 lifts it)\n"
        )


def test_hcneg_at_a_20000_digit_degree_costs_its_walk_not_its_digits(tmp_path, monkeypatch):
    # Each level loop stops at the level that decides; a walk of every
    # level of 3 below the degree would take minutes.  The degree is read
    # back as text, since this process keeps the int-to-str limit.  The
    # bound is the README's for a query at its ceiling.
    degree = "1" + "0" * 19998 + "4"  # 10**19999 + 4
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    monkeypatch.setenv("PYTHONPATH", str(Path(cychom.__file__).resolve().parents[1]))
    out = tmp_path / "hcneg.json"
    argv = ["hcneg", "--prime", "3", "--degree", degree, "--n-max", "9", "--truncation", "2000", "--format", "json"]
    code, cpu, _ = ceilings.measure(argv, str(out))
    assert code == 0 and cpu < ceilings.CPU_S, (code, cpu)
    rec = json.loads(out.read_text(encoding="utf-8"), parse_int=str)
    assert rec["degree"] == degree
    assert rec["probe"]["ok"] is True, rec["probe"]["covered_up_to"]


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
    ["verify", "--prime", "3", "--hc-max", "8"],
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
    if argv[0] == "verify":
        want[("checks",)] = (cli.Rows, [c._asdict() for c in homology.verify_checks(Prime(3), int(argv[4]))])
    assert views.keys() == want.keys()
    # CSV writes a view nested in a dict under its path, as one column.
    flat = cli._flatten(payload)
    assert all(flat[".".join(path)] is view for path, view in views.items())
    # Only the exponents go through _exponent_view.
    assert {path for path, _ in _views(plain)} == {path for path in want if path[-1] != "torsion_p_exponents"}
    # The CSV writer writes no one-cell row: each row has two cells or more.
    # It flattens the payload itself only: the records of a Rows are flat.
    rows = [list(value.records) for value in plain.values() if type(value) is cli.Rows]
    assert all(cli._flatten(row) == row for row in (rows[0] if rows else []))
    assert all(len(cli._flatten(row)) >= 2 for row in (rows[0] if rows else [plain]))
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


class WorkStarted(Exception):
    pass


def _start(*args, **kwargs):
    raise WorkStarted


def _forbid(monkeypatch, work: str) -> None:
    """Make each function named in ``work`` raise WorkStarted: a homology
    function, or a function of gaps or padic named with its module."""
    from cychom import gaps, homology, padic

    for name in work.split():
        module, _, attr = name.rpartition(".")
        monkeypatch.setattr({"": homology, "gaps": gaps, "padic": padic}[module], attr, _start)


_N_MAX = "the answer lists a torsion exponent per odd multiple of p up to --n-max, so"
_J = "coeffs prints about j^2 log p digits, so --j at p ="

# What is refused before any work starts: (argv, the work it must not
# start, an argv at the limit, which must reach that work, and the error
# line the refusal ends with).  Each refused value is the least one past
# its limit that every other check accepts, so only that limit refuses it.
REFUSED = [
    # The seven caps at p = 3, at the values README "CLI" states.
    ("hc --prime 3 --degree 1000001", "staircase_cokernels", "hc --prime 3 --degree 1000000",
     "hc walks a (degree/2+1)-square staircase, so --degree is capped at 1000000; got 1000001"),
    ("hcneg --prime 3 --degree 6 --truncation 500001", "hc_neg_closed_form", "hcneg --prime 3 --degree 6 --truncation 500000",
     "the probe walks a staircase of that size, so --truncation is capped at 500000; got 500001"),
    # 7 is in Z2 at p = 3, so degree 8 has a closed form and the limit
    # reaches the probe's walk.
    ("hcneg --prime 3 --degree 8 --truncation 500001", "staircase_cokernels", "hcneg --prime 3 --degree 8 --truncation 500000",
     "the probe walks a staircase of that size, so --truncation is capped at 500000; got 500001"),
    ("verify --prime 3 --hc-max 10002", "_hc_walk", "verify --prime 3 --hc-max 10000",
     "verify runs the oracle at every even degree up to --hc-max, so --hc-max is capped at 10000; got 10002"),
    ("coeffs --prime 3 --j 8003 --i 8003", "padic.staircase_terms", "coeffs --prime 3 --j 8001 --i 8001",
     f"{_J} 3 is capped at 8001; got 8003"),
    ("coeffs --prime 3 --j 3 --i 8003", "padic.staircase_terms", "coeffs --prime 3 --j 3 --i 8001",
     "coeffs prints a row per odd n <= i, so --i is capped at 8001; got 8003"),
    ("zsets --prime 3 --max 10000001", "gaps.member_mask", "zsets --prime 3 --max 10000000",
     "zsets lists every member, so --max is capped at 10000000; got 10000001"),
    ("density --prime 3 --max 100000001", "gaps.density_bounds", "density --prime 3 --max 100000000",
     "density sieves every odd number up to --max, so --max is capped at 100000000; got 100000001"),
    ("hp --prime 3 --degree 0 --n-max 10000003", "hp", "hp --prime 3 --degree 0 --n-max 10000001",
     f"{_N_MAX} --n-max is capped at 10000001; got 10000003"),
    ("hcneg --prime 3 --degree 6 --n-max 10000003", "hc_neg_closed_form", "hcneg --prime 3 --degree 6 --n-max 10000001",
     f"{_N_MAX} --n-max is capped at 10000001; got 10000003"),
    # The default --n-max, the first odd number from degree + 20 on.
    *((f"{command} --prime 3 --degree 9999982", work, f"{command} --prime 3 --degree 9999980",
       f"{_N_MAX} the default --n-max for --degree 9999982 is capped at 10000001; got 10000003")
      for command, work in (("hp", "hp"), ("hcneg", "hc_neg_closed_form"))),
    # A p past 10 bits lowers the ceiling of --j to what --j 8001 prints at
    # p = 1009, to an odd j; 3317044064679887385961813 is near the top of
    # Prime's range.
    *((f"coeffs --prime {p} --j {j + 2} --i {j + 2}", "padic.staircase_terms", f"coeffs --prime {p} --j {j} --i {j}",
       f"{_J} {p} is capped at {j}; got {j + 2}")
      for p, j in ((1009, 8001), (1021, 8001), (10**9 + 7, 4619), (3317044064679887385961813, 2793))),
    # verify checks --hc-max before any check.
    *((f"verify --prime 3 --hc-max {n}", "_hc_walk", f"verify --prime 3 --hc-max {ok}",
       f"--hc-max must be even and >= 2, got {n}")
      for n, ok in ((7, 8), (0, 2), (-2, 2), (1, 2))),
    # hcneg refuses a truncation below 1 with the other flags: degree 8 at
    # p = 7 has no closed form, so it would never reach the probe's own check.
    *((f"hcneg --prime 7 --degree {m} --truncation 0", "hc_neg_closed_form",
       f"hcneg --prime 7 --degree {m} --truncation 1", "truncation must be >= 1")
      for m in (8, 6)),
    # A product is cut at an odd n_max: an even one is refused before any
    # valuation is read.
    ("hp --prime 3 --degree 0 --n-max 10", "odd_valuations", "hp --prime 3 --degree 0 --n-max 11",
     "n_max must be an odd positive integer"),
    # The probe reads Z2 membership of degree - 1, which only an even
    # degree >= 2 has; without --truncation the same degree is answered.
    *((f"hcneg --prime 3 --degree {m} --truncation 10", "hc_neg_closed_form", f"hcneg --prime 3 --degree {m}",
       f"--truncation needs an even --degree >= 2, got {m}")
      for m in (7, 0)),
]


@pytest.mark.parametrize("argv, work, reached, error", REFUSED, ids=[row[0] for row in REFUSED])
def test_refused_with_one_error_line_before_any_work(capsys, monkeypatch, argv, work, reached, error):
    _forbid(monkeypatch, work)
    for fmt in ("table", "json", "csv"):
        assert run(capsys, argv.split() + ["--format", fmt]) == (1, "", f"error: {error}\n")
        with pytest.raises(WorkStarted):
            main(reached.split() + ["--format", fmt])


def test_ceilings_sit_above_benchmark_and_test_inputs():
    # The benchmark runs hc to degree 400, verify to --hc-max 120, coeffs
    # to j = 4001, density to --max 2.5*10**6 and the closed forms to
    # degree 2*10**6 with n_max = degree + 21; the tests run hc at degree
    # 1002, coeffs at i = 4005 and verify at --hc-max 4000.  Each ceiling
    # is itself a valid value: hc-max even, coeffs indices and n_max odd.
    assert cli.HC_MAX_DEGREE >= 10**6 and cli.VERIFY_MAX_HC >= 10**4
    assert cli.COEFFS_MAX >= 4005 and cli.HCNEG_MAX_TRUNCATION >= 8
    assert cli.PRODUCT_MAX_N >= 2 * 10**6 + 21
    assert cli.DENSITY_MAX >= 25 * 10**5
    assert cli.VERIFY_MAX_HC % 2 == 0 and cli.COEFFS_MAX % 2 == 1 and cli.PRODUCT_MAX_N % 2 == 1


def test_ceiling_runs_sit_at_the_caps():
    # tests/ceilings.py runs every command at its ceiling, and ceilings.json
    # is its table: a ceiling that moves without a rerun fails here.
    caps = (cli.HC_MAX_DEGREE, cli.HCNEG_MAX_TRUNCATION, cli.VERIFY_MAX_HC, cli.COEFFS_MAX, cli.ZSETS_MAX, cli.DENSITY_MAX, cli.PRODUCT_MAX_N)
    for cap in caps:
        assert any(cap in run.args for run in ceilings.RUNS), cap
    table = json.loads(Path(ceilings.__file__).with_name("ceilings.json").read_text(encoding="utf-8"))
    cells = sorted(cell["argv"] for cell in table["cells"])
    assert cells == sorted(" ".join(run.argv(p, fmt)) for run in ceilings.RUNS for p in ceilings.PRIMES for fmt in ceilings.FORMATS)


def test_the_wide_ci_step_runs_the_sweeps_the_table_names():
    # CI widens the sweeps in one step, which runs the test ids that
    # tests/sweeps.py prints, and fails if it prints none: a sweep renamed
    # or added fails here, not by dropping out of CI.
    for test in sweeps.SIZES:
        path, name = test.split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = (
        "        run: |\n"
        "          tests=$(python tests/sweeps.py)\n"
        '          test -n "$tests"\n'
        "          CYCHOM_WIDE=1 PYTHONPATH=src python -m pytest -q $tests\n"
    )
    assert workflow.count(step) == 1 and workflow.count("CYCHOM_WIDE=1") == 1
    script = subprocess.run([sys.executable, "tests/sweeps.py"], cwd=ROOT, capture_output=True, text=True, check=True)
    assert script.stdout.splitlines() == list(sweeps.SIZES) and script.stderr == ""


@pytest.mark.parametrize("hh_max", ["5", "100001"])
def test_verify_takes_no_hh_max(capsys, hh_max):
    # verify checks no Hochschild degree; the flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--prime", "3", "--hh-max", hh_max])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --hh-max" in out.err


def _coeffs_rows(p, j, i):
    """What ``coeffs`` prints of generator j in colimit i, as
    ``cli.cmd_coeffs`` makes it: (head, head valuation, rows), a row
    (n, the parts of its value, valuation) per odd n <= i."""
    payload, _, _ = cli.cmd_coeffs(p, SimpleNamespace(prime=p.p, j=j, i=i))
    rows = [(row["modulus"], row["value"], row["valuation"]) for row in payload["rows"].records]
    return payload["head"], payload["head_valuation"], rows


@pytest.mark.parametrize("p", [Prime(3), Prime(5), Prime(7), Prime(101)])
def test_coeffs_rows_match_phi_coeffs_at_every_odd_j_below_60(p):
    from cychom.homology import phi_coeffs

    for j in range(1, 60, 2):
        vec = phi_coeffs(p, j, j + 4)
        head, head_valuation, rows = _coeffs_rows(p, j, j + 4)
        assert (head, head_valuation) == (str(vec.head), frac_vp(p, vec.head))
        # A row's value is the parts of its text: the digits, then "/" and
        # the digits of the denominator when it is not 1.
        rows = [(n, "".join(parts), v) for n, parts, v in rows if parts[1:] in ((), ("/", parts[-1]))]
        assert rows == [(n, str(v), None if v == 0 else frac_vp(p, v)) for n, v in vec.components]


@pytest.mark.parametrize("j,i", [(5, 3), (2, 5), (3, 4), (0, 5), (-1, 1)])
def test_coeffs_refuses_the_indices_phi_coeffs_refuses(j, i):
    from cychom.homology import phi_coeffs

    for f in (phi_coeffs, _coeffs_rows):
        with pytest.raises(ValueError, match="need odd indices"):
            f(Prime(3), j, i)


def _queries(*argvs) -> str:
    """Probe code that runs each argv through the CLI, in every format."""
    return f"""import os, cychom.cli
for argv in {[argv.split() for argv in argvs]!r}:
    for fmt in ("table", "json", "csv"):
        assert cychom.cli.main(argv + ["--format", fmt, "--out", os.devnull]) == 0, argv
"""


# What each command loads: probe code a row, each run in its own
# interpreter.  A row a command, each a few well-formed queries, and rows
# for the bare import, the argparse parser and the closed forms that the
# library serves on their own.
LOADS = {
    "import": "import cychom.cli",
    "build_parser": "import cychom.cli; cychom.cli.build_parser()",
    "closed forms": "from cychom import Prime, homology\n"
    "homology.hc_closed_form(Prime(5), 2000)\nhomology.hc_neg_closed_form(Prime(5), 2000, 2021)",
    "hh": _queries("hh --prime 3 --degree 4"),
    "hc": _queries("hc --prime 3 --degree 40", "hc --prime 3 --degree 28", "hc --prime 5 --degree 41"),
    "hcneg": _queries("hcneg --prime 3 --degree 6 --truncation 8", "hcneg --prime 3 --degree 6 --n-max 21 --truncation 8"),
    "hp": _queries("hp --prime 3 --degree 0 --n-max 101"),
    "zsets": _queries(*(f"zsets --prime {p} --max 1000 --set {z}" for p, z in ((3, "z1"), (3, "z2"), (5, "z2")))),
    "density": _queries("density --prime 5 --max 1000", "density --prime 1009 --max 10"),
    "coeffs": _queries("coeffs --prime 3 --j 3 --i 9"),
    "verify": _queries("verify --prime 3", "verify --prime 3 --hc-max 12", "verify --prime 11 --hc-max 100"),
}

# The modules a row must not load, by set, each with the rows it spares.
# Every query is a fresh interpreter, so what it loads is paid each time.
NOT_LOADED = [
    # Code generation.
    ({"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}, ()),
    # A well-formed command takes the grammar table's own parser, and its
    # payload's scalars and its CSV are written by hand.
    ({"argparse"}, ("build_parser",)),
    ({"json", "csv"}, ()),
    # Only density builds a Fraction, and fractions imports decimal; only
    # coeffs builds a Decimal.  verify reduces its coefficients from integers.
    ({"fractions"}, ("density",)),
    ({"decimal"}, ("density", "coeffs")),
    # The package resolves its re-exports on first use, and the CLI imports
    # homology inside the commands that call it; coeffs reads padic alone.
    ({"cychom.linalg", "cychom.homology"}, ("closed forms", "hh", "hc", "hcneg", "hp", "verify")),
    # Only cokernel_shape uses a heap, and only verify's colimit
    # presentations call it.
    ({"heapq"}, ("verify",)),
]


@pytest.mark.parametrize("row", LOADS)
def test_loads_no_module_it_does_not_run(row):
    # -S keeps site's own imports out of the count.
    probe = LOADS[row] + "\nimport sys\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(Path(cychom.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    for modules, spared in NOT_LOADED:
        if row not in spared:
            assert not modules & loaded, modules & loaded
    if row == "import":
        assert {"cychom.cli", "cychom.gaps", "cychom.padic"} <= loaded


def test_help_still_goes_through_argparse(capsys):
    # A usage error does too, with exit 2:
    # test_entry_freezes_the_collector_on_every_way_out[usage].
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
    cell (the items of a view) written as its items' str joined by ';'.

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
# 1, 2 and p + 2, and the edges of the 1000-wide blocks.  At p = 3 the Z1
# window of 999 = 27 * 37 is [999, 1001], so block 1 is empty up to --max
# 1001 and must write nothing, not its bare prefix "1".
@example(3, 1001, "z1")
@example(3, 1, "z2")
@example(5, 2, "z1")
@example(7, 9, "z2")
@example(11, 999, "z1")
@example(13, 1000, "z2")
@example(101, 2001, "z1")
@example(5, 10_000, "z2")
def test_zsets_text_matches_enumerated_members(p, top, which):
    assert _zsets_texts(p, top, which) == _zsets_reference(p, top, which)


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


def _coeffs_reference_rows(p: int, j: int, i: int) -> list[dict]:
    """coeffs' rows from the Fractions of phi_coeffs, by str of each."""
    from cychom.homology import phi_coeffs

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [
            {"modulus": n, "value": str(v), "valuation": None if v == 0 else frac_vp(Prime(p), v)}
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
def test_coeffs_text_matches_fractions(monkeypatch, p, j, i):
    # i > j in all but the first, so the zero rows past j are covered too.
    # The valuations come from the pass that makes the values: coeffs asks
    # Legendre's formula for none.  The head at J = 4001 is past Python's
    # int-to-str limit, which coeffs leaves as it is.
    argv = ["coeffs", "--prime", str(p), "--j", str(j), "--i", str(i)]
    reference = _coeffs_reference(p, j, i)
    _forbid(monkeypatch, "padic.a_val padic.b_val")
    limit = sys.get_int_max_str_digits()
    assert _texts(argv) == reference
    assert sys.get_int_max_str_digits() == limit


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

    monkeypatch.setattr(decimal, "MAX_PREC", 30)
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
def test_exponent_lists_are_written_from_runs(capsys, tmp_path, command, fmt):
    # 166,667 exponents at p = 3 and n_max 10**6 + 1, in 12 runs: the shape
    # holds the runs, and no step from the count to the text lists the
    # exponents one by one (1.3 MB as a list).  All of it goes to --out,
    # none to stdout.
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
    assert capsys.readouterr() == ("", "")


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["hochschild degree 4", "", 'say "hi"', "a,b", "é", "tab\t", "x" * 20_000]), max_size=900),
)
@example(["ok", "a,b"] * 6)
def test_lists_are_written_item_by_item(texts):
    # A list of any length, long items among them, as verify's "failures",
    # at the top and one dict down; each item is quoted by _json_text.
    # Each item is a chunk of its own, so a list of two or more is never
    # joined into a copy: the chunks are at least as many as its items (a
    # joined list makes at most 7, whatever its length).  CSV writes no
    # list: it writes the records.
    payload = {"failures": texts, "n": 1, "a": {"failures": texts}}
    json_chunks = list(cli._json_chunks(payload))
    assert "".join(json_chunks) == json.dumps(payload, indent=2) + "\n"
    if len(texts) >= 2:
        assert len(json_chunks) >= len(texts)


# (view, its items) pairs; a Members mask always holds 1.
_VIEW_PAIRS = st.lists(st.tuples(st.integers(-5, 10**6), st.integers(0, 5000)), max_size=3).map(
    lambda runs: (cli.Repeats([(str(v), n) for v, n in runs]), [v for v, n in runs for _ in range(n)])
) | st.binary(max_size=1200).map(lambda raw: bytearray(b"\x01" + bytes(x & 1 for x in raw))).map(
    lambda mask: (cli.Members(mask), list(compress(range(1, 2 * len(mask), 2), mask)))
)


def _flat_reference(record: dict, path: tuple = ()) -> dict:
    """The record with each value nested in dicts under its dotted path:
    the one CSV row's columns."""
    flat = {}
    for key, value in record.items():
        if type(value) is dict:
            flat.update(_flat_reference(value, path + (key,)))
        else:
            flat[".".join(path + (key,))] = value
    return flat


def _nest(children):
    """(payload, plain) pairs of dicts whose values are children pairs."""
    return st.dictionaries(st.text() | _TRICKY_TEXT, children, max_size=3).map(
        lambda d: ({k: v for k, (v, _) in d.items()}, {k: items for k, (_, items) in d.items()})
    )


@settings(max_examples=150, deadline=None)
@given(
    _nest(st.recursive(_SCALARS.map(lambda x: (x, x)) | _VIEW_PAIRS, _nest, max_leaves=10)),
    _VIEW_PAIRS,
    _VIEW_PAIRS,
    st.booleans(),
)
# A run past 4096 items spans chunks.
@example(({}, {}), (cli.Repeats([(5, 9000)]), [5] * 9000), (cli.Repeats([]), []), False)
# Cells that csv.writer quotes, or that hold the ";" a view's items are
# joined by.
@example(
    ({"a": ",", "b": "1,2", "c": "3/5", "d": '"', "e": "a;b"},) * 2,
    (cli.Repeats([(-1, 2), (7, 1)]), [-1, -1, 7]),
    (cli.Members(bytearray(b"\x01\x00\x01")), [1, 5]),
    True,
)
def test_views_at_any_depth_write_their_lists(pairs, first, second, nested):
    # Views in dicts at any depth, and at least two views in the CSV row:
    # one at the top, the other at the top or one dict down.  The JSON is
    # json.dumps', the CSV csv.writer's, byte for byte: quotes, commas and
    # line ends included, each column named by its value's dotted path.
    payload, plain = pairs
    payload = {**payload, "v": first[0], "w": {"x": second[0]} if nested else second[0]}
    plain = {**plain, "v": first[1], "w": {"x": second[1]} if nested else second[1]}
    assert "".join(cli._json_chunks(payload)) == json.dumps(plain, indent=2) + "\n"
    assert "".join(cli._csv_chunks(payload)) == _csv_reference([_flat_reference(plain)])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries(
            {
                "modulus": st.integers(),
                "value": st.text() | _TRICKY_TEXT,
                "valuation": st.none() | st.integers(),
                "ok": st.booleans(),
            }
        ),
        min_size=1,
        max_size=5,
    )
)
def test_rows_view_writes_its_records(records):
    payload = {"head": "9/2", "rows": records}
    want = json.dumps(payload, indent=2) + "\n"
    assert "".join(cli._json_chunks({**payload, "rows": cli.Rows(iter(records))})) == want
    # A record a chunk at least: the records are never joined into a copy.
    assert len(list(cli.Rows(iter(records)).chunks(",\n    "))) >= len(records)
    # A level down, the records take the indent of their list's items.
    nested = {"head": "9/2", "a": {"b": cli.Rows(iter(records))}}
    want = json.dumps({"head": "9/2", "a": {"b": records}}, indent=2) + "\n"
    assert "".join(cli._json_chunks(nested)) == want
    assert "".join(cli._csv_chunks({**payload, "rows": cli.Rows(iter(records))})) == _csv_reference(records)
