import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cychom
from cychom import cli, gaps
from cychom.cli import main
from cychom.gaps import enumerate_z1, enumerate_z2
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


@pytest.mark.parametrize("argv", JSON_ARGVS)
def test_json_payloads_hold_only_json_types(monkeypatch, argv):
    # The result records are tuples: json.dumps would write one silently as
    # a list, so every payload must convert its records field by field.
    from cychom import cli

    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda payload, *rest: payloads.append(payload))
    assert main(argv + ["--format", "json"]) == 0

    payload = payloads[0]
    if argv[0] == "zsets":
        # The one non-JSON type: the member view, written by its own chunks.
        view = payload.pop("members")
        assert type(view) is cli.Members
        want = json.dumps({"members": enumerate_z1(Prime(3), 50)}, indent=2) + "\n"
        assert "".join(cli._json_chunks({"members": view})) == want
    stack = [payload]
    while stack:
        node = stack.pop()
        assert type(node) in (dict, list, str, int, float, bool, type(None)), node
        if type(node) is dict:
            stack.extend(node.values())
        elif type(node) is list:
            stack.extend(node)


@pytest.mark.parametrize("argv", JSON_ARGVS + [["zsets", "--prime", "3", "--max", "100000", "--set", "z2"]])
def test_json_output_is_json_dumps_indent_2(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


_TRICKY_TEXT = st.sampled_from(["", "two\nlines", 'say "hi"', "back\\slash", "ünïcødé ☃ \U0001d11e", "\t\r\x00"])
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _TRICKY_TEXT
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text() | _TRICKY_TEXT, inner, max_size=4),
    max_leaves=12,
)
_TOP_VALUES = _VALUES | st.lists(st.integers()) | st.just([True, 1]) | st.just([1, False]) | st.just([])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text() | _TRICKY_TEXT, _TOP_VALUES, max_size=6))
def test_emit_json_matches_json_dumps(payload):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._emit(payload, "json", None, [])
    assert buf.getvalue() == json.dumps(payload, indent=2) + "\n"


def test_zsets_refuses_max_above_ceiling_before_sieving(capsys, monkeypatch):
    from cychom import gaps

    class Sieved(Exception):
        pass

    def sieve(*args, **kwargs):
        raise Sieved

    monkeypatch.setattr(gaps, "_excluded_sieve", sieve)
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
    (["hc", "--prime", "3", "--degree"], "HC_MAX_DEGREE", "cyclic_matrix"),
    (["hcneg", "--prime", "3", "--degree", "6", "--truncation"], "HCNEG_MAX_TRUNCATION", "negative_matrix"),
    (["verify", "--prime", "3", "--hh-max", "2", "--hc-max"], "VERIFY_MAX_HC", "hc_oracle"),
    (["verify", "--prime", "3", "--hc-max", "2", "--hh-max"], "VERIFY_MAX_HH", "hochschild"),
    (["hp", "--prime", "3", "--degree", "0", "--n-max"], "PRODUCT_MAX_N", "hp"),
    (["hcneg", "--prime", "3", "--degree", "6", "--n-max"], "PRODUCT_MAX_N", "hc_neg_closed_form"),
    (["coeffs", "--prime", "3", "--i", str(cli.COEFFS_MAX), "--j"], "COEFFS_MAX", "staircase_texts"),
    (["coeffs", "--prime", "3", "--j", "3", "--i"], "COEFFS_MAX", "phi_coeff_texts"),
]


@pytest.mark.parametrize("argv, name, allocator", CAPPED, ids=[c[0][0] + c[0][-1] for c in CAPPED])
def test_sizes_above_ceiling_refused_before_allocating(capsys, monkeypatch, argv, name, allocator):
    from cychom import homology

    ceiling = getattr(cli, name)
    monkeypatch.setattr(homology, allocator, _allocating)
    for fmt in ("table", "json", "csv"):
        code, out, err = run(capsys, argv + [str(ceiling + 2), "--format", fmt])
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(ceiling) in err
    # The ceiling itself is allowed: that query reaches the allocation.
    with pytest.raises(Allocated):
        main(argv + [str(ceiling)])


def test_ceilings_sit_above_benchmark_and_test_inputs():
    # The benchmark runs hc to degree 400, verify to --hc-max 120 with the
    # default --hh-max 10, coeffs to j = 4001 and the closed forms to degree
    # 2*10**6 with n_max = degree + 21; the tests run hc at degree 1002 and
    # coeffs at i = 4005.  Each ceiling is itself a valid value: hc-max
    # even, coeffs indices and n_max odd.
    assert cli.HC_MAX_DEGREE >= 1002 and cli.VERIFY_MAX_HC >= 120
    assert cli.COEFFS_MAX >= 4005 and cli.HCNEG_MAX_TRUNCATION >= 8
    assert cli.VERIFY_MAX_HH >= 10 and cli.PRODUCT_MAX_N >= 2 * 10**6 + 21
    assert cli.VERIFY_MAX_HC % 2 == 0 and cli.COEFFS_MAX % 2 == 1 and cli.PRODUCT_MAX_N % 2 == 1


# The ceilings that README "CLI" and the CI console-script step state by
# value: one past each is refused, the ceiling itself reaches the work.
DOCUMENTED = [
    (["verify", "--prime", "3", "--hc-max", "2", "--hh-max"], 10**5, "hochschild"),
    (["hp", "--prime", "3", "--degree", "0", "--n-max"], 10**7 + 1, "hp"),
]


@pytest.mark.parametrize("argv, ceiling, allocator", DOCUMENTED, ids=[c[0][0] for c in DOCUMENTED])
def test_documented_ceilings(capsys, monkeypatch, argv, ceiling, allocator):
    from cychom import homology

    monkeypatch.setattr(homology, allocator, _allocating)
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


ZSETS_NOTE = "1 is a member by definition; informal listings often omit it"


def _zsets_texts(p: int, top: int, which: str) -> dict[str, str]:
    """zsets' stdout in each format; stderr must stay empty."""
    texts = {}
    for fmt in ("table", "json", "csv"):
        out, err = io.StringIO(), io.StringIO()
        argv = ["zsets", "--prime", str(p), "--max", str(top), "--set", which, "--format", fmt]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0
        assert err.getvalue() == ""
        texts[fmt] = out.getvalue()
    return texts


def _zsets_reference(p: int, top: int, which: str) -> dict[str, str]:
    """The three texts built from the enumerated member list."""
    members = (enumerate_z1 if which == "z1" else enumerate_z2)(Prime(p), top)
    payload = {"set": which, "prime": p, "max": top, "members": members, "note": ZSETS_NOTE}
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(payload.keys())
    writer.writerow([which, p, top, ";".join(map(str, members)), ZSETS_NOTE])
    return {
        "table": f"{which} up to {top} for p={p} ({len(members)} elements):\n" + " ".join(map(str, members)) + "\n",
        "json": json.dumps(payload, indent=2) + "\n",
        "csv": buf.getvalue(),
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
