from corpus import argvs, read_entries, run


def test_every_argv_matches_its_golden_entry(monkeypatch):
    # corpus.py rewrites the entries, only for a deliberate change of output.
    monkeypatch.setenv("COLUMNS", "80")
    entries = read_entries()
    assert [entry["argv"] for entry in entries] == argvs()
    changed = [(entry, got) for entry in entries if (got := run(entry["argv"])) != entry]
    assert not changed, f"{len(changed)} of {len(entries)} differ; first: {changed[0]}"
