"""The committed mutant list of scripts/mutants.py stays applicable: each old text occurs exactly once.

The mutants themselves run outside tier-1 (``python scripts/mutants.py``).
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_list_covers_the_core():
    assert len(mutants.MUTANTS) >= 10
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_old_text_occurs_once(m):
    assert (ROOT / m.file).read_text().count(m.old) == 1
    assert m.new != m.old
    for test in m.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
