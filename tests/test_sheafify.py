from __future__ import annotations

import re
from itertools import islice, pairwise, product
from random import Random

import pytest

from hosite import (
    PresheafMorphism,
    SetPresheaf,
    Sieve,
    all_sieves,
    classify_presheaf,
    compose_morphisms,
    componentwise_bijection,
    equalizer_presheaf,
    gamma_star_morphism,
    generate_sieve,
    hom_presheaves,
    induced_topology,
    is_sheaf,
    is_tau_iso,
    make_presheaf,
    matching_families,
    maximal_sieve,
    plus_construction_via_colimit,
    product_presheaf,
    random_site,
    saturate_topology,
    sheafify,
    sheafify_morphism,
    sieve_presheaf,
    validate_presheaf,
    yoneda,
)
from hosite.core import iter_hom_presheaves
from hosite.enumeration import enumerate_presheaves, leaves, sample_presheaves
from hosite.sheafify import transport_morphism
from hosite.suite import ENGINE_SAMPLES
from oracles import (
    assert_classification_agrees,
    classify_by_families,
    constant_presheaf,
    empty_presheaf,
    is_tau_iso_by_sheafification,
    matching_families_product,
    sheafify_by_family_keys,
    sieve_inclusion,
    transport_by_family_keys,
    validate_presheaf_morphism,
    walk_blocks,
)


def j_sieve(site_b):
    return generate_sieve(site_b.category, "y", ["f1", "f2"])


def test_matching_family_counts(site_b, site_d):
    k2 = site_b.presheaves["K2"]
    assert len(matching_families(k2, j_sieve(site_b))) == 4
    for x in site_b.category.objects:
        fams = matching_families(k2, maximal_sieve(site_b.category, x))
        assert len(fams) == len(k2.value[x])
    f = site_d.presheaves["F"]
    cover = generate_sieve(site_d.category, "c", ["u", "v"])
    assert len(matching_families(f, cover)) == 2


def test_matching_families_agree_with_oracle(all_sites):
    for site in all_sites.values():
        cat = site.category
        pres = list(site.presheaves.values()) + [constant_presheaf(cat, ["0", "1"])]
        for pre in pres:
            for x in cat.objects:
                for s in all_sieves(cat, x):
                    fast = {tuple(f.assignment) for f in matching_families(pre, s)}
                    slow = {tuple(sorted(f.items())) for f in matching_families_product(pre, s)}
                    assert fast == slow


def test_matching_families_biject_with_sieve_hom(site_b):
    # a natural transformation from the sieve subpresheaf restricts to a
    # matching family and every family arises exactly once
    cat = site_b.category
    k2 = site_b.presheaves["K2"]
    sieve = j_sieve(site_b)
    nts = hom_presheaves(sieve_presheaf(cat, sieve), k2)
    fams = {tuple(f.assignment) for f in matching_families(k2, sieve)}
    realized = {
        tuple(sorted((f, nt.components[cat.dom[f]][f]) for f in sieve.members))
        for nt in nts
    }
    assert realized == fams
    assert len(nts) == len(fams)


def test_classification_examples(site_b, site_d):
    k2 = site_b.presheaves["K2"]
    cls = classify_presheaf(k2, site_b.topology)
    assert cls.kind == "separated-not-sheaf"
    assert cls.witness == ("y", j_sieve(site_b))
    assert classify_presheaf(k2, saturate_topology(site_b.category, {})).kind == "sheaf"


def _d_product_sheaf(site_d):
    # value at the cospan tip is the product of the leg values, restrictions
    # the projections: the canonical map to matching families is the identity
    cat = site_d.category
    return make_presheaf(
        cat,
        {"a": ["0", "1"], "b": ["s"], "c": ["(0,s)", "(1,s)"]},
        {"u": {"(0,s)": "0", "(1,s)": "1"}, "v": {"(0,s)": "s", "(1,s)": "s"}},
    )


def test_product_presheaf_on_cospan_is_sheaf(site_d):
    sheaf = _d_product_sheaf(site_d)
    assert validate_presheaf(sheaf)
    assert classify_presheaf(sheaf, site_d.topology).kind == "sheaf"


def test_fixture_d_presheaf_is_separated_not_sheaf(site_d):
    assert classify_presheaf(site_d.presheaves["F"], site_d.topology).kind == "separated-not-sheaf"


def test_classification_matches_all_cover_oracle(all_sites):
    for site in all_sites.values():
        for pre in enumerate_presheaves(site.category, 2):
            assert_classification_agrees(pre, site.topology)


def test_classification_oracle_on_random_sites():
    # the minimal-cover shortcut must match the all-covers definition on
    # arbitrary saturated topologies, not just the fixtures
    from hosite import random_site
    for seed in range(30):
        site = random_site(seed)
        for pre in sample_presheaves(site.category, 2, 6, Random(seed)):
            assert_classification_agrees(pre, site.topology)


def test_sheaf_test_agrees_with_family_keys(all_sites, random_sites):
    # bound 2 on every fixture and random sites 0-49, bound 3 on B and E;
    # base with its topology and quotient with the induced one
    cases = [(site, 2) for site in [*all_sites.values(), *random_sites]]
    cases += [(all_sites["B"], 3), (all_sites["E"], 3)]
    checked = 0
    for site, bound in cases:
        h = site.homotopy
        induced = induced_topology(h, site.topology)
        for cat, top in ((h.base, site.topology), (h.ho, induced)):
            for pre in enumerate_presheaves(cat, bound):
                expected = classify_by_families(pre, top)
                assert classify_presheaf(pre, top) == expected, (pre.value, pre.restrict)
                assert is_sheaf(pre, top) == expected.is_sheaf
                checked += 1
    assert checked == 10444


def test_walk_verdict_agrees_with_is_sheaf(all_sites, random_sites):
    # the walk decides each half of the sheaf test at the slot that sets its
    # last map; is_sheaf tests the built presheaf, leaf by leaf in order
    cases = [(site, 2) for site in [*all_sites.values(), *random_sites]]
    cases += [(all_sites[name], 3) for name in "BDE"] + [(all_sites["B"], 4)]
    for site, bound in cases:
        cat, top = site.category, site.topology
        walked = [sheaf for _, sheaf in leaves(walk_blocks(cat, bound, top))]
        assert walked == [is_sheaf(pre, top) for pre in enumerate_presheaves(cat, bound)]
    assert len(walked) == 77633 and sum(walked) == 26


def test_sheaf_plans_are_laid_out_once_per_topology(site_b, monkeypatch):
    # the non-maximal least-cover plans are cached next to the cover plan:
    # once they exist, classifying makes no arrows_into call
    from hosite import FiniteCategory, GrothendieckTopology
    from oracles import least_covers
    cat = site_b.category
    top = GrothendieckTopology(cat, least_covers(cat, site_b.topology.covers))
    calls = []
    arrows_into = FiniteCategory.arrows_into
    monkeypatch.setattr(FiniteCategory, "arrows_into",
                        lambda self, x: calls.append(x) or arrows_into(self, x))
    classify_presheaf(site_b.presheaves["K2"], top)
    assert calls
    calls.clear()
    classify_presheaf(constant_presheaf(cat, ["0", "1", "2"]), top)
    assert calls == []


def test_plus_counts(site_b, site_d):
    k2 = site_b.presheaves["K2"]
    plus = sheafify(k2, site_b.topology).steps[0].presheaf
    assert len(plus.value["y"]) == 4
    assert len(plus.value["x"]) == 2
    assert validate_presheaf(plus)
    f_plus = sheafify(site_d.presheaves["F"], site_d.topology).steps[0].presheaf
    assert len(f_plus.value["c"]) == 2


def test_plus_of_sheaf_is_bijective(site_d):
    sheaf = _d_product_sheaf(site_d)
    assert classify_presheaf(sheaf, site_d.topology).is_sheaf
    from hosite.sheafify import _plus
    data = _plus(sheaf, site_d.topology)
    ok, _ = componentwise_bijection(data.unit)
    assert ok


def test_sheafify_examples(site_b):
    k2 = site_b.presheaves["K2"]
    result = sheafify(k2, site_b.topology)
    assert {o: len(result.sheaf.value[o]) for o in ("x", "y")} == {"x": 2, "y": 4}
    assert classify_presheaf(result.sheaf, site_b.topology).is_sheaf
    again = sheafify(result.sheaf, site_b.topology)
    ok, _ = componentwise_bijection(again.unit)
    assert ok


def test_sheafify_empty_presheaf(site_b):
    top = saturate_topology(site_b.category, {})
    result = sheafify(empty_presheaf(site_b.category), top)
    assert all(result.sheaf.value[o] == () for o in site_b.category.objects)


def test_unit_is_tau_iso(site_b, site_d):
    for site in (site_b, site_d):
        for pre in site.presheaves.values():
            result = sheafify(pre, site.topology)
            assert is_tau_iso(result.unit, site.topology)


def test_is_tau_iso_on_sieve_inclusions(site_b):
    cat = site_b.category
    top = site_b.topology
    assert is_tau_iso(sieve_inclusion(cat, j_sieve(site_b)), top)
    narrow = is_tau_iso(sieve_inclusion(cat, generate_sieve(cat, "y", ["f1"])), top)
    assert not narrow
    # the sheafified map fails at both objects; the witness is the first in
    # declaration order
    assert narrow.witness == "x"


def test_cover_criterion_on_all_fixtures(all_sites):
    # a sieve is covering exactly when its inclusion sheafifies to an iso
    for site in all_sites.values():
        cat, top = site.category, site.topology
        for x in cat.objects:
            for s in all_sieves(cat, x):
                expected = s in top.covers[x]
                assert bool(is_tau_iso(sieve_inclusion(cat, s), top)) == expected


def test_is_tau_iso_agrees_with_sheafification(all_sites, random_sites):
    for site in [*all_sites.values(), *random_sites[:20]]:
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        cases = []
        for cat, t in ((h.base, top), (h.ho, induced)):
            for x in cat.objects:
                for s in all_sieves(cat, x):
                    cases.append((sieve_inclusion(cat, s), t))
                    if cat is h.ho:
                        cases.append((gamma_star_morphism(h, cases[-1][0]), top))
            sampled = sample_presheaves(cat, 2, 4, Random(5))
            cases += [(sheafify(pre, t).unit, t) for pre in sampled]
            for src in sampled:
                for tgt in sampled:
                    cases += [(m, t) for m in hom_presheaves(src, tgt)[:3]]
        for m, t in cases:
            assert bool(is_tau_iso(m, t)) == bool(is_tau_iso_by_sheafification(m, t))


def test_universal_property_on_fixture_b(site_b):
    # every morphism to a sheaf factors uniquely through the unit
    top = site_b.topology
    k2 = site_b.presheaves["K2"]
    result = sheafify(k2, top)
    sheaves = [pre for pre in enumerate_presheaves(site_b.category, 2) if is_sheaf(pre, top)]
    assert sheaves
    for target in sheaves:
        for m in hom_presheaves(k2, target):
            factorizations = [
                h for h in hom_presheaves(result.sheaf, target)
                if compose_morphisms(h, result.unit).components == m.components
            ]
            assert len(factorizations) == 1


def test_colimit_oracle_agrees(all_sites):
    for site in all_sites.values():
        rng = Random(7)
        pres = sample_presheaves(site.category, 2, 4, rng) + list(site.presheaves.values())
        for pre in pres:
            assert plus_construction_via_colimit(pre, site.topology) == \
                sheafify(pre, site.topology).steps[0].presheaf


def test_colimit_oracle_agrees_on_degenerate_topology(site_b):
    top = saturate_topology(site_b.category, {"y": [["f1"]]})  # everything covers
    k2 = site_b.presheaves["K2"]
    assert plus_construction_via_colimit(k2, top) == sheafify(k2, top).steps[0].presheaf
    assert Sieve("y", frozenset()) in top.covers["y"]
    assert len(sheafify(k2, top).steps[0].presheaf.value["y"]) == 1


def test_sheafify_morphism_natural(site_b):
    top = site_b.topology
    k2 = site_b.presheaves["K2"]
    y = yoneda(site_b.category, "y")
    for m in hom_presheaves(y, k2):
        sm = sheafify_morphism(m, top)
        assert validate_presheaf_morphism(sm)


def test_sheafify_morphism_rejects_non_natural(site_e):
    # random component tables between the samples: a natural one sheafifies
    # to a natural one; any other sends a family to no section of the
    # target's plus-construction, which is named with its object
    cat, top = site_e.category, site_e.topology
    samples = sample_presheaves(cat, 2, 6, Random(0))
    rng = Random(0)
    natural = rejected = 0
    for f, g in product(samples, repeat=2):
        if any(f.value[o] and not g.value[o] for o in cat.objects):
            continue
        target = sheafify(g, top)
        for _ in range(20):
            m = PresheafMorphism(f, g, {o: {s: rng.choice(g.value[o]) for s in f.value[o]}
                                        for o in cat.objects})
            if validate_presheaf_morphism(m):
                assert validate_presheaf_morphism(sheafify_morphism(m, top))
                natural += 1
                continue
            with pytest.raises(ValueError, match="the morphism is not natural") as info:
                sheafify_morphism(m, top)
            section, x = re.match(r"section '(.*)' at (\w+) is missing", str(info.value)).groups()
            assert all(section not in step.presheaf.value[x] for step in target.steps)
            rejected += 1
    assert (natural, rejected) == (301, 119)


def _ordered(obj):
    """A presheaf or morphism as nested item lists, so dict key order counts."""
    if isinstance(obj, PresheafMorphism):
        return _ordered(obj.source), _ordered(obj.target), _ordered(obj.components)
    if isinstance(obj, dict):
        return [(k, _ordered(v)) for k, v in obj.items()]
    if isinstance(obj, SetPresheaf):
        return _ordered(obj.value), _ordered(obj.restrict)
    return obj


def _engine_inputs(site, bound, seed):
    """The engine battery's presheaves on one suite run, and per adjacent
    pair its product with projections and, given two parallel maps, their
    equalizer with its inclusion."""
    pres = sample_presheaves(site.category, bound, ENGINE_SAMPLES, Random(seed + 1))
    pres += [site.presheaves[n] for n in sorted(site.presheaves)]
    pairs = []
    for f, g in pairwise(pres):
        prod, p1, p2 = product_presheaf(f, g)
        parallel = list(islice(iter_hom_presheaves(f, g), 2))
        pairs.append((f, g, prod, p1, p2, parallel, equalizer_presheaf(*parallel) if parallel[1:] else None))
    return pres, pairs


def test_plus_by_index_agrees_with_family_keys(all_sites, random_sites):
    # the engine's inputs of A-E and random sites 0-59 at bound 2 and of B
    # at bound 4: equal sheaves, units, plus steps and transported
    # morphisms, dict key order included
    cases = [(site, 2, 0) for site in all_sites.values()]
    cases += [(site, 2, seed) for seed, site in enumerate(random_sites)]
    cases += [(random_site(seed), 2, seed) for seed in range(len(random_sites), 60)]
    cases.append((all_sites["B"], 4, 0))
    sheafified = transports = 0
    for site, bound, seed in cases:
        top = site.topology
        pres, pairs = _engine_inputs(site, bound, seed)
        by_index, by_keys = {}, {}

        def both(pre):
            key = id(pre)
            if key not in by_index:
                got, want = sheafify(pre, top), sheafify_by_family_keys(pre, top)
                assert _ordered(got.sheaf) == _ordered(want[0])
                assert _ordered(got.unit) == _ordered(want[1])
                for step, (plus, unit, _) in zip(got.steps, want[2]):
                    assert _ordered(step.presheaf) == _ordered(plus)
                    assert _ordered(step.unit) == _ordered(unit)
                by_index[key], by_keys[key] = got, want
            return by_index[key], by_keys[key]

        def transported(m, src, tgt):
            nonlocal transports
            transports += 1
            (s1, s2), (t1, t2) = both(src), both(tgt)
            assert _ordered(transport_morphism(m, s1, t1)) == _ordered(transport_by_family_keys(m, s2, t2))

        for pre in pres:
            both(pre)
        for f, g, prod, p1, p2, parallel, equalizer in pairs:
            transported(p1, prod, f)
            transported(p2, prod, g)
            for m in parallel:
                transported(m, f, g)
            if equalizer is not None:
                transported(equalizer[1], equalizer[0], f)
        sheafified += len(by_index)
    assert (sheafified, transports) == (372, 425)


def test_matching_families_unknown_root(site_b):
    with pytest.raises(ValueError):
        matching_families(site_b.presheaves["K2"], Sieve("nope", frozenset()))
