import pytest
from hypothesis import settings

from hopfquotients import presentations

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def clean_cache(monkeypatch):
    """An empty memory cache for every test, so that block results
    doctored or computed in one test never reach another.  The function
    it returns empties the cache again, e.g. so that a second run finds
    no block cached."""
    monkeypatch.setattr(presentations, "_MEM_CACHE", {})
    return presentations._MEM_CACHE.clear
