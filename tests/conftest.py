from __future__ import annotations

import sys
from pathlib import Path

import pytest

from hosite import fixture_site, random_site

sys.path.insert(0, str(Path(__file__).parent))


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
