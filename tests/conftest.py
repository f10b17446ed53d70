import pytest

from alexinv import cli


@pytest.fixture(autouse=True)
def cold_input_cache():
    """Start every test without decoded input files, as a fresh process
    does: a test that patches a reader must see the reader called."""
    cli._decode.cache_clear()
