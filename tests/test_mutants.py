"""The mutant table of ``tests/mutants.py`` stays in step with the code.
The mutants themselves run in CI's own step, ``python tests/mutants.py``."""

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("row", MUTANTS + EQUIVALENT, ids=lambda row: row.id)
def test_mutant_old_text_occurs_once_in_its_file(row):
    assert row.file.startswith(("src/", "tests/"))
    assert (ROOT / row.file).read_text().count(row.old) == 1
    assert row.new != row.old


def test_mutants_name_tests_that_exist():
    assert len({row.id for row in MUTANTS + EQUIVALENT}) == len(MUTANTS + EQUIVALENT)
    for row in MUTANTS:
        path, _, name = row.node.partition("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(), row.id
        assert row.timeout > 0, row.id
