"""The cheap half of scripts/mutants.py: every mutant still names code and tests that exist."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_a_mutant_old_text_occurs_once_and_its_tests_exist(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.old != mutant.new and mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file() and (not name or f"def {name}(" in (ROOT / path).read_text())
