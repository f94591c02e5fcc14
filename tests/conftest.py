import pytest

import superharm.harmonic as hm


@pytest.fixture(autouse=True)
def fresh_operators():
    """Each test builds the scheme operators afresh, so a test that patches
    `named_operator` or `rep_operator` sees its patch, and no patched
    operator outlives its test."""
    hm._operator.cache_clear()
    yield
    hm._operator.cache_clear()
