"""The committed mutants still name real code and real tests.

`python tests/mutants.py` applies each mutant and runs its tests, which
takes seconds per mutant, so it stays outside Tier-1. This file checks
only what a refactor silently breaks: a snippet that no longer occurs
exactly once, or a listed test that no longer exists.
"""

import re

import pytest
from mutants import MUTANTS, ROOT, occurrences

IDS = [mutant.name for mutant in MUTANTS]


def test_mutant_names_are_distinct():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_snippet_occurs_exactly_once(mutant):
    assert mutant.file.startswith("src/")
    assert mutant.snippet != mutant.replacement
    assert occurrences(mutant) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_listed_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        source = (ROOT / path).read_text()
        assert re.search(rf"^class {names[0]}\b|^def {names[0]}\b", source, re.M), node
        for name in names[1:]:
            assert re.search(rf"^    def {name}\(", source, re.M), node
