import hashlib
import os
import subprocess
import sys
from pathlib import Path

import cychom
from corpus import argvs, read_entries, run


def test_every_argv_matches_its_golden_entry(monkeypatch):
    # corpus.py rewrites the entries, only for a deliberate change of output.
    monkeypatch.setenv("COLUMNS", "80")
    entries = read_entries()
    assert [entry["argv"] for entry in entries] == argvs()
    changed = [(entry, got) for entry in entries if (got := run(entry["argv"])) != entry]
    assert not changed, f"{len(changed)} of {len(entries)} differ; first: {changed[0]}"


# Entries run through the process entry, as a shell runs them: every
# command and format, a refusal, a non-prime, a usage error and the help.
THROUGH_THE_ENTRY = [
    ["hh", "--prime", "3", "--degree", "8", "--format", "table"],
    ["hc", "--prime", "5", "--degree", "40", "--format", "json"],
    ["hcneg", "--prime", "7", "--degree", "8", "--format", "csv"],
    ["hp", "--prime", "11", "--degree", "6", "--n-max", "1001", "--format", "table"],
    ["zsets", "--prime", "3", "--max", "5000", "--set", "z2", "--format", "json"],
    ["density", "--prime", "101", "--max", "10000", "--format", "csv"],
    ["coeffs", "--prime", "13", "--j", "21", "--i", "41", "--format", "table"],
    ["verify", "--prime", "3", "--hc-max", "10", "--format", "csv"],
    ["hc", "--prime", "3", "--degree", "1000001", "--format", "json"],
    ["zsets", "--prime", "9", "--max", "10"],
    ["hc", "--prime", "3", "--degree", "x"],
    ["--help"],
]


def test_python_m_cychom_matches_its_golden_entries():
    entries = {tuple(entry["argv"]): entry for entry in read_entries()}
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(cychom.__file__).resolve().parents[1]))
    for argv in THROUGH_THE_ENTRY:
        proc = subprocess.run([sys.executable, "-m", "cychom", *argv], env=env, capture_output=True)
        got = {
            "argv": argv,
            "exit": proc.returncode,
            "stdout": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": hashlib.sha256(proc.stderr).hexdigest(),
        }
        assert got == entries[tuple(argv)]
    assert {entries[tuple(argv)]["exit"] for argv in THROUGH_THE_ENTRY} == {0, 1, 2}
