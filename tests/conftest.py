from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings

from hosite import fixture_site, random_site

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples and stores none, so a failure replays
# exactly; the constants hypothesis caches from the source go to a directory
# removed at exit, so nothing is written to .hypothesis/
settings.register_profile("replay", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("replay")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _hypothesis_home.name)


@pytest.fixture(scope="session")
def site_a():
    return fixture_site("A")


@pytest.fixture(scope="session")
def site_b():
    return fixture_site("B")


@pytest.fixture(scope="session")
def site_c():
    return fixture_site("C")


@pytest.fixture(scope="session")
def site_d():
    return fixture_site("D")


@pytest.fixture(scope="session")
def site_e():
    return fixture_site("E")


@pytest.fixture(scope="session")
def all_sites(site_a, site_b, site_c, site_d, site_e):
    return {"A": site_a, "B": site_b, "C": site_c, "D": site_d, "E": site_e}


@pytest.fixture(scope="session")
def random_sites():
    """Random sites for seeds 0-49, generated once per session."""
    return [random_site(seed) for seed in range(50)]


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) records the arguments of every call to
    module.<name>, through every hosite module that binds it, for one test."""
    def count(module, name: str) -> list[tuple]:
        calls: list[tuple] = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "hosite":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return calls
    return count
