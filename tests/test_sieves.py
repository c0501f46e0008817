from __future__ import annotations

from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import hosite.sieves as sieves
from hosite import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    fixture_site,
    generate_sieve,
    maximal_sieve,
    minimal_cover,
    pullback_sieve,
    random_site,
    run_site_suite,
    saturate_topology,
    trivial_topology,
    validate_sieve,
    validate_topology,
)
from oracles import (
    all_sieves_by_subsets,
    least_covers,
    saturate_by_closure,
    validate_cover_sets,
)


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
    report = validate_cover_sets(top.base, covers)
    assert not report
    assert report.law == "maximality"
    assert report.witness[0] == "x"
    # least covers hold maximality by construction: only an object without
    # one has no covers
    least = {o: s for o, s in top.least.items() if o != "x"}
    report = validate_topology(GrothendieckTopology(top.base, least))
    assert (report.law, report.witness) == ("maximality", ("x",))


def test_doctored_fixture_d_reports_first_axiom(site_d):
    # dropping the maximal sieve on a violates maximality AND stability; the
    # axioms are checked in the stated order, so maximality wins
    top = site_d.topology
    covers = dict(top.covers)
    covers["a"] = frozenset()
    report = validate_cover_sets(top.base, covers)
    assert not report
    assert report.law == "maximality"
    assert report.witness[0] == "a"
    least = {o: s for o, s in top.least.items() if o != "a"}
    report = validate_topology(GrothendieckTopology(top.base, least))
    assert (report.law, report.witness) == ("maximality", ("a",))


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
    report = validate_cover_sets(cat, covers)
    assert not report
    assert report.law == "stability"
    # the cover sets are the upsets of {u} on c: the closed form finds the
    # same pullback
    top = GrothendieckTopology(cat, least_covers(cat, covers))
    assert top.covers == covers
    assert validate_topology(top) == report


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


def test_minimal_cover_without_covers(site_b):
    cat = site_b.category
    top = GrothendieckTopology(cat, {"y": maximal_sieve(cat, "y")})
    with pytest.raises(ValueError, match="^no covering sieves on x$"):
        minimal_cover(top, "x")
    assert minimal_cover(top, "y") == maximal_sieve(cat, "y")
    # the oracle's intersection of explicit cover sets refuses the same
    with pytest.raises(ValueError, match="^no covering sieves on x$"):
        least_covers(cat, {"y": frozenset([maximal_sieve(cat, "y")])})


def test_minimal_cover_of_covers_not_closed_under_intersection(site_b):
    # {f1} and {f2} cover y but their intersection, the empty sieve, does
    # not: such cover sets have no least covers, so no topology holds them
    cat = site_b.category
    covers = {
        "x": frozenset([maximal_sieve(cat, "x")]),
        "y": frozenset([Sieve("y", frozenset({"f1"})), Sieve("y", frozenset({"f2"})),
                        maximal_sieve(cat, "y")]),
    }
    with pytest.raises(ValueError, match="^covers of y are not closed under intersection; "
                                         "topology invalid$"):
        least_covers(cat, covers)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_suite_computes_each_least_cover_once(name, monkeypatch):
    # one least-cover plan per object for the base topology and one for the
    # induced topology, each read from the cover plan thereafter (the
    # colimit oracle in sheafify lays out every cover on its own)
    site = fixture_site(name)
    calls = []
    plan = sieves.sieve_plan
    monkeypatch.setattr(sieves, "sieve_plan", lambda cat, s: calls.append(s) or plan(cat, s))
    run_site_suite(site, bound=2, seed=0)
    assert len(calls) == 2 * len(site.category.objects)


def test_closed_form_laws_agree_with_oracle(all_sites, random_sites):
    # one sieve per object, valid or not: every assignment on the fixtures'
    # categories and 40 seeded ones per category of random sites 0-49; the
    # closed form on the least covers and the lattice scan on their upsets
    # give the same verdict
    rng = Random(11)
    assignments = []
    for site in all_sites.values():
        for cat in (site.category, site.homotopy.ho):
            lattices = [all_sieves(cat, x) for x in cat.objects]
            assignments += [(cat, combo) for combo in product(*lattices)]
    for site in random_sites:
        for cat in (site.category, site.homotopy.ho):
            lattices = [all_sieves(cat, x) for x in cat.objects]
            assignments += [(cat, [rng.choice(lattice) for lattice in lattices])
                            for _ in range(40)]
    valid = 0
    for cat, combo in assignments:
        top = GrothendieckTopology(cat, dict(zip(cat.objects, combo)))
        verdict = bool(validate_topology(top))
        assert verdict == bool(validate_cover_sets(cat, top.covers)), (cat.objects, combo)
        valid += verdict
    assert (len(assignments), valid) == (4085, 2858)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=5000))
def test_random_saturations_validate(seed):
    site = random_site(seed)
    assert validate_topology(site.topology)
    assert validate_cover_sets(site.category, site.topology.covers)


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
    # loading trusts saturation to build a topology; the closed-form
    # validator and its oracle check every saturation built here
    for site in [*all_sites.values(), *random_sites]:
        assert saturate_topology(site.category, site.raw["covers"]).covers == \
            saturate_by_closure(site.category, site.raw["covers"])
        assert validate_topology(site.topology)
        assert validate_cover_sets(site.category, site.topology.covers)
        for cat in (site.category, site.homotopy.ho):
            for _ in range(4):
                generating = {}
                for x in cat.objects:
                    if rng.random() < 0.5:
                        arrows = cat.arrows_into(x)
                        generating[x] = [rng.sample(arrows, rng.randint(0, len(arrows)))
                                         for _ in range(rng.randint(1, 2))]
                top = saturate_topology(cat, generating)
                assert top.covers == saturate_by_closure(cat, generating)
                assert validate_topology(top)
                assert validate_cover_sets(cat, top.covers)
