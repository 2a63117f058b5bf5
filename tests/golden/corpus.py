"""The golden CLI corpus: for each argv that ``argvs`` lists, the exit code of
``cychom ARGV`` and the SHA-256 of its stdout and of its stderr.

    PYTHONPATH=src python tests/golden/corpus.py    # rewrites corpus.jsonl

and prints to stderr the argv of each entry whose exit code or hashes
changed, and of each entry added or dropped.

``test_corpus.py`` runs every entry of ``corpus.jsonl`` through the same
``run`` and compares.  An entry changes only with a deliberate change of
output, never to let a failing comparison through.

``run`` calls ``cli.main`` in this process, so the corpus leaves out what
needs a real file descriptor: ``--out``, a closed pipe and a full device,
which ``test_cli.py`` runs in a subprocess.  argparse wraps its help and
usage text at ``COLUMNS``, which the script and the test set to 80.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from cychom.cli import main

ENTRIES = Path(__file__).with_name("corpus.jsonl")

PRIMES = (3, 5, 7, 11, 13, 101, 1009)

# Each command's queries, to run at every prime of PRIMES in every format.
# hc 734 and 2192, and hcneg 28, 40 and 730, are not covered at p = 3, and
# hcneg 8 at p = 7; hcneg and hp without --n-max take the default.  hcneg
# at 3^300 - 601 and 10^3999 + 4 probes degrees of 144 and 4000 digits.
QUERIES = (
    *(["hh", "--degree", str(m)] for m in (0, 1, 2, 7, 8)),
    *(["hc", "--degree", str(m)] for m in (0, 1, 2, 7, 8, 40, 734, 2192)),
    *(["hcneg", "--degree", str(m)] for m in (-4, 0, 3, 6, 8, 28, 40, 730)),
    ["hcneg", "--degree", "8", "--n-max", "21"],
    ["hcneg", "--degree", "6", "--n-max", "1001"],
    ["hcneg", "--degree", "6", "--n-max", "15", "--truncation", "8"],
    *(["hcneg", "--degree", str(m), "--truncation", str(k)] for m, k in ((2, 1), (8, 30), (28, 30), (40, 3), (730, 300))),
    *(["hcneg", "--degree", str(m), "--n-max", "9", "--truncation", str(k)] for m, k in ((3**300 - 601, 350), (10**3999 + 4, 2000))),
    *(["hp", "--degree", str(m)] for m in (0, 3, -4, 6)),
    ["hp", "--degree", "0", "--n-max", "11"],
    ["hp", "--degree", "6", "--n-max", "1001"],
    *(["zsets", "--max", str(n), "--set", s] for n in (1, 100, 5000) for s in ("z1", "z2")),
    *(["density", "--max", str(n)] for n in (1, 99, 10000)),
    *(["coeffs", "--j", str(j), "--i", str(i)] for j, i in ((1, 1), (3, 5), (5, 21), (21, 41))),
    ["verify"],
    ["verify", "--hc-max", "10"],
)

# Refused with exit 1 in every format, at p = 3: one past each ceiling,
# the default --n-max past its ceiling, and every bad size.
REFUSED = (
    ["hc", "--degree", "1000001"],
    ["hcneg", "--degree", "8", "--truncation", "500001"],
    ["verify", "--hc-max", "10002"],
    ["coeffs", "--j", "8003", "--i", "8003"],
    ["coeffs", "--j", "1", "--i", "8003"],
    ["zsets", "--max", "10000001"],
    ["density", "--max", "100000001"],
    ["hp", "--degree", "0", "--n-max", "10000003"],
    ["hcneg", "--degree", "0", "--n-max", "10000003"],
    ["hp", "--degree", "10000000"],
    ["hcneg", "--degree", "9999982"],
    *(["coeffs", "--j", j, "--i", i] for j, i in (("4", "5"), ("5", "3"), ("3", "4"), ("-1", "5"), ("0", "1"))),
    *(["verify", "--hc-max", k] for k in ("0", "1", "3", "-2")),
    *(["hp", "--degree", "0", "--n-max", n] for n in ("10", "0", "-1")),
    ["hcneg", "--degree", "6", "--n-max", "10"],
    *(["hcneg", "--degree", m, "--truncation", k] for m in ("8", "6", "28") for k in ("0", "-1")),
    *(["hcneg", "--degree", m, "--truncation", "10"] for m in ("7", "0", "-2")),
    *([command, "--max", n] for command in ("zsets", "density") for n in ("0", "-1")),
)

# One well-formed query per command, to refuse at every prime that is not
# an odd prime.
ONE_EACH = (
    ["hh", "--degree", "2"],
    ["hc", "--degree", "4"],
    ["hcneg", "--degree", "6"],
    ["hp", "--degree", "0"],
    ["zsets", "--max", "10"],
    ["density", "--max", "10"],
    ["coeffs", "--j", "3", "--i", "5"],
    ["verify"],
)
NOT_PRIMES = ("4", "9", "1", "2", "0", "-3", "1000000")

# What argparse answers: usage errors (exit 2), help (exit 0), and the
# well-formed commands that its parser takes and the grammar table's does
# not: --flag=value, an abbreviation, a flag given twice, a negative value.
ARGPARSE = (
    [],
    ["bogus"],
    ["--prime", "3"],
    ["-x"],
    ["hc"],
    ["hc", "--prime", "3"],
    ["hc", "--prime", "3", "--degree"],
    ["hc", "--prime", "3", "--degree", "x"],
    ["hc", "--prime", "x", "--degree", "4"],
    ["hc", "--prime", "3", "--degree", "4", "--format", "xml"],
    ["hc", "--prime", "3", "--degree", "4", "--bogus", "1"],
    ["hc", "--prime", "3", "--degree", "4", "extra"],
    ["zsets", "--prime", "3", "--max", "10", "--set", "z3"],
    ["hcneg", "--prime", "3", "--degree", "6", "--truncation", "x"],
    # A degree of 4,301 digits, past Python's int-to-str limit.
    ["hcneg", "--prime", "3", "--degree", "1" + "0" * 4299 + "4", "--n-max", "9", "--truncation", "2000"],
    ["coeffs", "--prime", "3", "--j", "3"],
    ["verify", "--prime", "3", "--hc-max", "4.0"],
    ["verify", "--prime", "3", "--hh-max", "5"],
    ["--help"],
    ["-h"],
    *([q[0], "--help"] for q in ONE_EACH),
    ["hc", "-h"],
    ["hc", "--prime=3", "--degree", "4"],
    ["hc", "--pr", "3", "--deg", "4"],
    ["hc", "--prime", "5", "--prime", "3", "--degree", "4"],
    ["hc", "--degree", "4", "--prime", "3"],
    ["hc", "--prime", "3", "--degree", "-4"],
    ["hp", "--prime", "3", "--degree", "0", "--n-max", "11", "--format=json"],
    ["zsets", "--prime", "3", "--max", "100", "--set=z2", "--format", "csv"],
    ["verify", "--prime", "3", "--hc", "4"],
)

# verify at primes far past PRIMES, in every format: its cost does not grow
# with p.
LARGE_PRIMES = ("1000003", "1000000007")

# verify at its ceiling, whose text grows linearly with --hc-max.
VERIFY_CEILING = ["verify", "--prime", "3", "--hc-max", "10000", "--format", "table"]

# density at primes far past PRIMES, in every format: its bounds sum powers
# of p of thousands of bits.
DENSITY_LARGE_PRIMES = ("1000000007", "3317044064679887385961813")

# coeffs at the --j ceiling of every p below 1024, refused at p = 10^9 + 7,
# where its digits would pass what that ceiling prints at p = 1009.
COEFFS_LARGE_P = ["coeffs", "--prime", "1000000007", "--j", "8001", "--i", "8001"]


def argvs() -> list[list[str]]:
    """Every argv of the corpus, in the order of its entries."""
    out = []
    for p in PRIMES:
        for fmt in ("table", "json", "csv"):
            out += ([*q[:1], "--prime", str(p), *q[1:], "--format", fmt] for q in QUERIES)
    for fmt in ("table", "json", "csv"):
        out += ([*q[:1], "--prime", "3", *q[1:], "--format", fmt] for q in REFUSED)
    out += ([*q[:1], "--prime", p, *q[1:]] for q in ONE_EACH for p in NOT_PRIMES)
    out += ARGPARSE
    out += (["verify", "--prime", p, "--format", fmt] for p in LARGE_PRIMES for fmt in ("table", "json", "csv"))
    out += ([*COEFFS_LARGE_P, "--format", fmt] for fmt in ("table", "json", "csv"))
    out += (["density", "--prime", p, "--max", "1001", "--format", fmt] for p in DENSITY_LARGE_PRIMES for fmt in ("table", "json", "csv"))
    out.append(VERIFY_CEILING)
    return out


def run(argv: list[str]) -> dict:
    """The entry of ``cychom ARGV``, run by ``cli.main`` in this process:
    its exit code and the SHA-256 of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def read_entries() -> list[dict]:
    with open(ENTRIES, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    old = {tuple(entry["argv"]): entry for entry in read_entries()} if ENTRIES.exists() else {}
    entries = [run(argv) for argv in argvs()]
    with open(ENTRIES, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(entry) + "\n" for entry in entries)
    # Each entry changed, added or dropped, by its argv: what CHANGES.md
    # lists for a deliberate change of output.
    for entry in entries:
        was = old.pop(tuple(entry["argv"]), None)
        if was != entry:
            print("added" if was is None else "changed", shlex.join(entry["argv"]), file=sys.stderr)
    for argv in old:
        print("dropped", shlex.join(argv), file=sys.stderr)
