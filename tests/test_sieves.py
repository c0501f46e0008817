from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from hosite import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    generate_sieve,
    maximal_sieve,
    minimal_cover,
    pullback_sieve,
    random_site,
    saturate_topology,
    trivial_topology,
    validate_sieve,
    validate_topology,
)
from oracles import all_sieves_by_subsets, saturate_by_closure


def test_generate_sieve_examples(site_b, site_d):
    cat = site_b.category
    assert generate_sieve(cat, "y", ["f1", "f2"]).members == {"f1", "f2"}
    assert generate_sieve(cat, "y", ["id_y"]).members == {"id_y", "f1", "f2"}
    assert generate_sieve(site_d.category, "c", ["u"]).members == {"u"}


def test_generate_sieve_wrong_codomain(site_b):
    with pytest.raises(ValueError):
        generate_sieve(site_b.category, "x", ["f1"])


def test_pullback_examples(site_b, site_d):
    cat = site_b.category
    j = generate_sieve(cat, "y", ["f1", "f2"])
    assert pullback_sieve(cat, "f1", j) == maximal_sieve(cat, "x")
    assert pullback_sieve(cat, "id_y", j) == j
    u_only = generate_sieve(site_d.category, "c", ["u"])
    assert pullback_sieve(site_d.category, "v", u_only).members == frozenset()


def test_pullback_codomain_mismatch(site_d):
    with pytest.raises(ValueError):
        pullback_sieve(site_d.category, "u", Sieve("a", frozenset()))


def test_sieve_outputs_are_sieves(all_sites):
    for site in all_sites.values():
        cat = site.category
        for x in cat.objects:
            for s in all_sieves(cat, x):
                assert validate_sieve(cat, s)
                for h in cat.arrows_into(x):
                    assert validate_sieve(cat, pullback_sieve(cat, h, s))


def test_validate_topology_fixture_b(site_b):
    assert validate_topology(site_b.topology)


def test_maximality_violation(site_b):
    top = site_b.topology
    covers = dict(top.covers)
    covers["x"] = frozenset()
    report = validate_topology(GrothendieckTopology(top.base, covers))
    assert not report
    assert report.law == "maximality"
    assert report.witness[0] == "x"


def test_doctored_fixture_d_reports_first_axiom(site_d):
    # dropping the maximal sieve on a violates maximality AND stability; the
    # axioms are checked in the stated order, so maximality wins
    top = site_d.topology
    covers = dict(top.covers)
    covers["a"] = frozenset()
    report = validate_topology(GrothendieckTopology(top.base, covers))
    assert not report
    assert report.law == "maximality"
    assert report.witness[0] == "a"


def test_pure_stability_violation(site_d):
    # {u} covering c needs its (empty) pullback along v to cover b
    cat = site_d.category
    covers = {
        "a": frozenset([maximal_sieve(cat, "a")]),
        "b": frozenset([maximal_sieve(cat, "b")]),
        "c": frozenset([
            generate_sieve(cat, "c", ["u"]),
            generate_sieve(cat, "c", ["u", "v"]),
            maximal_sieve(cat, "c"),
        ]),
    }
    report = validate_topology(GrothendieckTopology(cat, covers))
    assert not report
    assert report.law == "stability"


def test_saturation_reaches_tau_b(site_b):
    cat = site_b.category
    top = saturate_topology(cat, {"y": [["f1", "f2"]]})
    assert top.covers["y"] == frozenset([
        generate_sieve(cat, "y", ["f1", "f2"]), maximal_sieve(cat, "y")])
    assert top.covers["x"] == frozenset([maximal_sieve(cat, "x")])
    assert top == site_b.topology


def test_saturation_empty_generators_is_trivial(site_d):
    assert saturate_topology(site_d.category, {}) == trivial_topology(site_d.category)


def test_saturation_single_generator_degenerates(site_b):
    # {f1} covering y forces its empty pullback along f2 to cover x, and the
    # closure rules then make every sieve covering everywhere
    cat = site_b.category
    top = saturate_topology(cat, {"y": [["f1"]]})
    assert validate_topology(top)
    assert top.covers["x"] == frozenset(all_sieves(cat, "x"))
    assert top.covers["y"] == frozenset(all_sieves(cat, "y"))


def test_saturation_accepts_empty_family(site_b):
    top = saturate_topology(site_b.category, {"x": [[]]})
    assert validate_topology(top)
    assert Sieve("x", frozenset()) in top.covers["x"]


def test_saturation_idempotent_on_fixtures(all_sites):
    for site in all_sites.values():
        top = site.topology
        regenerated = saturate_topology(
            top.base,
            {x: [sorted(s.members) for s in top.covers_of(x)] for x in top.base.objects},
        )
        assert regenerated == top


def test_cover_intersections_covering(all_sites):
    for site in all_sites.values():
        top = site.topology
        for x in top.base.objects:
            covers = top.covers_of(x)
            for s in covers:
                for t in covers:
                    assert Sieve(x, s.members & t.members) in top.covers[x]
            minimal_cover(top, x)  # must not raise


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=5000))
def test_random_saturations_validate(seed):
    site = random_site(seed)
    assert validate_topology(site.topology)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=5000))
def test_random_saturation_idempotent(seed):
    top = random_site(seed).topology
    regenerated = saturate_topology(
        top.base,
        {x: [sorted(s.members) for s in top.covers_of(x)] for x in top.base.objects},
    )
    assert regenerated == top


def test_all_sieves_agrees_with_subsets(all_sites, random_sites):
    for site in [*all_sites.values(), *random_sites]:
        for cat in (site.category, site.homotopy.ho):
            for x in cat.objects:
                assert all_sieves(cat, x) == all_sieves_by_subsets(cat, x)


def test_saturation_agrees_with_closure(all_sites, random_sites):
    rng = Random(3)
    for site in [*all_sites.values(), *random_sites]:
        assert saturate_topology(site.category, site.raw["covers"]) == \
            saturate_by_closure(site.category, site.raw["covers"])
        for cat in (site.category, site.homotopy.ho):
            for _ in range(4):
                generating = {}
                for x in cat.objects:
                    if rng.random() < 0.5:
                        arrows = cat.arrows_into(x)
                        generating[x] = [rng.sample(arrows, rng.randint(0, len(arrows)))
                                         for _ in range(rng.randint(1, 2))]
                assert saturate_topology(cat, generating) == saturate_by_closure(cat, generating)
