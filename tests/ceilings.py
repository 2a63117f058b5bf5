"""Every cychom command at its ceiling, in every format, at p = 3, 101 and
1009: what each run costs, and that it stays within its bounds (Linux).

    PYTHONPATH=src python tests/ceilings.py > tests/ceilings.json

Each run is ``python -m cychom ARGV --out FILE``, its sizes taken from
``cli``'s ceilings.  It must exit 0, take less than ``CPU_S`` seconds of
CPU (user + system) and peak below its bound in MB, both as ``os.wait4``
reads them, write more than its floor in bytes at p = 3, and pass its
content checks.  The measured table, one cell per run, prime and format,
goes to stdout as JSON.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Callable, NamedTuple

from cychom import cli
from cychom.gaps import enumerate_z2
from cychom.padic import Prime

PRIMES = (3, 101, 1009)
FORMATS = ("table", "json", "csv")
# The README's bound: a query at its ceiling takes at most 6 s of CPU.
CPU_S = 6

# Each run is forked by a bare interpreter, not by this process: a child's
# peak RSS starts at its parent's RSS at the fork, and this process, having
# imported cli, is larger than the smallest run.
_WAIT4 = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""


def _canonical(p, text):
    assert text("json") == json.dumps(json.loads(text("json")), indent=2) + "\n"


def _verify(p, text):
    _canonical(p, text)
    assert json.loads(text("json"))["failures"] == []
    lines = text("table").splitlines()
    assert lines[-1] == "0 failure(s)", lines[-1]
    # One CSV row a check, the record of the table line at its index.
    rows = list(csv.DictReader(io.StringIO(text("csv"), newline="")))
    assert len(rows) == len(lines) - 1, len(rows)
    for row, line in zip(rows, lines):
        mark = "ok   " if row["ok"] == "True" else "FAIL "
        assert mark + row["name"] + (": " + row["detail"] if row["detail"] else "") == line, (row, line)


def _coeffs(p, text):
    # At p = 3 only: the head's valuation is Legendre's formula at 3.
    if p != 3:
        return
    j = cli.COEFFS_MAX
    _canonical(p, text)
    rec = json.loads(text("json"))
    v_j, v_half = (sum(m // 3**k for k in range(1, m.bit_length())) for m in (j, j // 2))  # v_3(m!)
    assert rec["head_valuation"] == j - v_j + v_half
    assert len(list(csv.DictReader(io.StringIO(text("csv"), newline="")))) == (j + 1) // 2
    head = text("table").split("\n", 1)[0]
    assert head == f"generator {j} in colimit {j}: head {rec['head']} (v={rec['head_valuation']})"


def _zsets(p, text):
    # At p = 3 only: Z2's members, one table line and one CSV cell, each
    # the list enumerate_z2 makes, joined.
    if p != 3:
        return
    _canonical(p, text)
    members = list(map(str, enumerate_z2(Prime(3), cli.ZSETS_MAX)))
    assert text("table").split("\n")[1] == " ".join(members)
    assert next(csv.DictReader(io.StringIO(text("csv"), newline="")))["members"] == ";".join(members)


def _hc(p, text):
    # The oracle's Connes length i + 1, and no disagreement with the closed form.
    _canonical(p, text)
    rec = json.loads(text("json"))
    assert sum(rec["torsion_p_exponents"]) == rec["degree"] + 1, rec["torsion_p_exponents"][:5]
    assert rec.get("agreement") is not False


class Run(NamedTuple):
    name: str
    mb: int  # the bound on peak RSS, at every prime
    floor: int  # the floor on output bytes, at p = 3
    args: tuple  # the command, then its flags after --prime
    check: Callable | None = None  # check(p, text), text(fmt) an output

    def argv(self, p: int, fmt: str) -> list[str]:
        return [self.args[0], "--prime", str(p), *map(str, self.args[1:]), "--format", fmt]


RUNS = (
    # An ok record names no shape, and no shape outlives its degree's
    # record: past the interpreter, the check records alone are held.
    Run("verify", 24, 100_000, ("verify", "--hc-max", cli.VERIFY_MAX_HC), _verify),
    # The member mask is the sieve itself, one byte per odd integer.
    Run("zsets", 23, 20_000_000, ("zsets", "--max", cli.ZSETS_MAX, "--set", "z2"), _zsets),
    # About j^2 log p digits of text, written a row at a time.
    Run("coeffs", 64, 0, ("coeffs", "--j", cli.COEFFS_MAX, "--i", cli.COEFFS_MAX), _coeffs),
    # A torsion exponent per odd multiple of p, held and written as runs.
    Run("hp", 24, 3_000_000, ("hp", "--degree", 0, "--n-max", cli.PRODUCT_MAX_N)),
    # The walk reads its valuations as they are made.  p = 3 leaves the
    # ceiling uncovered and covers the even degree below it, whose closed
    # form is written from its runs, as hcneg's stable prefix is.
    Run("hc", 24, 0, ("hc", "--degree", cli.HC_MAX_DEGREE), _hc),
    Run("hc-covered", 24, 0, ("hc", "--degree", cli.HC_MAX_DEGREE - 2), _hc),
    Run("hcneg", 24, 0, ("hcneg", "--degree", 8, "--truncation", cli.HCNEG_MAX_TRUNCATION), _canonical),
    # The sieve: a byte per odd integer up to --max, cleared in bounded pieces.
    Run("density", 72, 100, ("density", "--max", cli.DENSITY_MAX), _canonical),
)


def measure(argv: list[str], out: str) -> tuple[int, float, int]:
    """Exit code, CPU seconds and peak RSS in KB of ``python -m cychom ARGV --out OUT``."""
    wait4 = [sys.executable, "-S", "-c", _WAIT4, "-m", "cychom", *argv, "--out", out]
    code, cpu, kb = subprocess.run(wait4, stdout=subprocess.PIPE, text=True, check=True).stdout.split()
    return int(code), float(cpu), int(kb)


def main() -> None:
    csv.field_size_limit(1 << 30)
    cells = []
    with tempfile.TemporaryDirectory() as tmp:
        path = {fmt: os.path.join(tmp, f"out.{fmt}") for fmt in FORMATS}

        def text(fmt):
            with open(path[fmt], encoding="utf-8", newline="") as fh:
                return fh.read()

        for run in RUNS:
            for p in PRIMES:
                for fmt in FORMATS:
                    line = " ".join(argv := run.argv(p, fmt))
                    code, cpu, kb = measure(argv, path[fmt])
                    size = os.path.getsize(path[fmt])
                    assert code == 0, f"{line} exited {code}"
                    assert kb < run.mb * 1024, f"{line} peaked at {kb} KB"
                    assert cpu < CPU_S, f"{line} took {cpu:.2f} s of CPU"
                    assert p != 3 or size > run.floor, f"{line} wrote {size} bytes"
                    cells.append({"argv": line, "cpu_s": round(cpu, 2), "peak_mb": round(kb / 1024, 1), "bytes": size})
                if run.check:
                    run.check(p, text)
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_name = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), platform.machine())
    host = f"{cpu_name}, {os.cpu_count()} CPUs, Python {platform.python_version()}"
    rows = ",\n".join(f"    {json.dumps(cell)}" for cell in cells)
    print(f'{{\n  "host": {json.dumps(host)},\n  "cpu_s_bound": {CPU_S},\n  "cells": [\n{rows}\n  ]\n}}')


if __name__ == "__main__":
    main()
