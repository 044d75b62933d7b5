import re
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.breaks)
def test_each_mutant_edits_one_place_and_names_tests_that_exist(mutant):
    # the battery itself runs outside Tier-1 (python tests/mutants.py); here only
    # its list is kept from rotting: each old text occurs exactly once, and each
    # named test is defined in its file
    text = (ROOT / "src" / "ar2lab" / mutant.module).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1 and mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), node
