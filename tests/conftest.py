import multiprocessing
from types import SimpleNamespace

import pytest
from hypothesis import settings

from hopfquotients import exactla, presentations

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


@pytest.fixture
def serial_pool(monkeypatch):
    """multiprocessing.Pool replaced by a pool that starts no process
    and runs each map in this one.  The namespace it returns records the
    `processes` of each pool made and the (jobs, chunksize) of each map,
    in call order."""
    log = SimpleNamespace(processes=[], maps=[])

    class SerialPool:
        def __init__(self, processes):
            log.processes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=None):
            jobs = list(jobs)
            log.maps.append((jobs, chunksize))
            return [fn(job) for job in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return log


@pytest.fixture
def forbid(monkeypatch):
    """forbid(owner, name, message) replaces owner.name with a stub that
    fails the test with message when called."""

    def forbid(owner, name, message):
        def stub(*args, **kwargs):
            pytest.fail(message)

        monkeypatch.setattr(owner, name, stub)

    return forbid


@pytest.fixture
def record(monkeypatch):
    """record(owner, name) replaces owner.name with a wrapper that passes
    each call on to the real function, and returns the list to which it
    appends each call's positional arguments, as a tuple."""

    def record(owner, name):
        calls = []
        real = getattr(owner, name)

        def recorder(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, recorder)
        return calls

    return record


@pytest.fixture
def handed(monkeypatch):
    """exactla.rank_sparse replaced by a stub that answers 0; the list it
    returns receives each rows list the stub is handed, in call order."""
    handed = []
    monkeypatch.setattr(exactla, "rank_sparse", lambda rows: handed.append(rows) or 0)
    return handed
