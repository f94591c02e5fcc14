"""The entries of `scripts/mutation_check.py` still point at live code.

The script itself runs pytest once per mutation and is not part of the
default test run.  These checks are cheap: each mutation's old text must
occur exactly once in its source file, and each test it names must still
be defined, so the list cannot rot silently.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import mutation_check  # noqa: E402


@pytest.mark.parametrize("mutation", mutation_check.MUTATIONS,
                         ids=[m.name for m in mutation_check.MUTATIONS])
def test_mutation_targets_exist(mutation):
    assert mutation.path.startswith("src/")
    assert mutation_check.occurrences(mutation) == 1
    assert mutation.old != mutation.new
    for test_id in mutation.tests:
        path, name = test_id.split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8")
