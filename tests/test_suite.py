"""Work counts of the site suite: every base presheaf is enumerated once per
site, and every presheaf the engine battery sheafifies is sheafified once."""
from __future__ import annotations

import importlib
import sys
from random import Random

import pytest

import hosite.enumeration as enumeration
import hosite.suite as suite
from hosite import fixture_site, hom_presheaves, run_site_suite
from hosite.enumeration import sample_presheaves
from hosite.suite import ENGINE_SAMPLES

# the package exports the function sheafify under the module's name
sheafify_mod = importlib.import_module("hosite.sheafify")


def _count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Record the arguments of every call to module.<name>, through every
    hosite module that binds it."""
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


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_each_category_enumerated_once(name, monkeypatch):
    site = fixture_site(name)
    calls = _count_calls(monkeypatch, enumeration, "enumerate_presheaves")
    assert all(c.verdict == "pass" for c in run_site_suite(site, bound=2, seed=0))
    cats = [cat for cat, _ in calls]
    assert len(cats) == 2
    assert site.category in cats and site.homotopy.ho in cats


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_engine_plus_constructions(name, monkeypatch):
    # 4 per presheaf (sheafify it and its sheaf), 2 per adjacent pair (the
    # product) and 2 more per pair with at least two parallel maps (the
    # equalizer); morphisms are transported, not re-sheafified
    site = fixture_site(name)
    engine_calls = _count_calls(monkeypatch, suite, "engine_checks")
    plus_calls = _count_calls(monkeypatch, sheafify_mod, "_plus")
    run_site_suite(site, bound=2, seed=0)
    [(_, pres)] = engine_calls
    pairs = list(zip(pres, pres[1:]))
    with_equalizer = sum(1 for f, g in pairs if len(hom_presheaves(f, g)) >= 2)
    assert len(plus_calls) == 4 * len(pres) + 2 * len(pairs) + 2 * with_equalizer


def test_engine_samples_come_from_the_transfer_pass(all_sites, random_sites, monkeypatch):
    received: list[list] = []
    monkeypatch.setattr(suite, "engine_checks",
                        lambda top, presheaves: received.append(list(presheaves)) or [])
    sites = [(site, 0) for site in all_sites.values()]
    sites += [(site, seed) for seed, site in enumerate(random_sites)]
    for site, seed in sites:
        run_site_suite(site, bound=2, seed=seed)
        expected = sample_presheaves(site.category, 2, ENGINE_SAMPLES, Random(seed + 1))
        expected += [site.presheaves[n] for n in sorted(site.presheaves)]
        assert received.pop() == expected
