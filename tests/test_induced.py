from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from hosite import (
    GrothendieckTopology,
    Sieve,
    ValidationReport,
    all_sieves,
    bracket_sieve,
    check_comparison_lemmas,
    check_cover_reflecting,
    check_sheaf_transfer,
    classify_presheaf,
    gamma_lower_star,
    gamma_star,
    generate_sieve,
    induced_topology,
    is_bracket_cover,
    is_sheaf,
    load_site,
    maximal_sieve,
    random_site,
    saturate_topology,
    thicken_sieve,
    validate_topology,
)
import hosite.induced as induced_mod
import hosite.sieves as sieves
from hosite.enumeration import enumerate_presheaves, walk_presheaves
from hosite.induced import TheoremViolation
from oracles import least_covers, validate_cover_sets


def test_bracket_sieve_examples(site_b):
    h = site_b.homotopy
    j = generate_sieve(h.base, "y", ["f1", "f2"])
    assert bracket_sieve(h, j).members == {"[f1]"}
    j1 = generate_sieve(h.base, "y", ["f1"])
    assert bracket_sieve(h, j1).members == {"[f1]"}
    assert bracket_sieve(h, maximal_sieve(h.base, "y")) == maximal_sieve(h.ho, "y")
    with pytest.raises(ValueError, match="^unknown object id: nope$"):
        bracket_sieve(h, Sieve("nope", frozenset()))


def test_thicken_examples(site_b, site_c):
    h = site_b.homotopy
    assert thicken_sieve(h, generate_sieve(h.base, "y", ["f1"])).members == {"f1", "f2"}
    assert thicken_sieve(h, maximal_sieve(h.base, "y")) == maximal_sieve(h.base, "y")
    hc = site_c.homotopy
    for x in hc.base.objects:
        for s in all_sieves(hc.base, x):
            assert thicken_sieve(hc, s) == s


def test_is_bracket_cover_examples(site_b):
    h = site_b.homotopy
    top = site_b.topology
    assert is_bracket_cover(h, top, Sieve("y", frozenset(["[f1]"])))
    assert not is_bracket_cover(h, top, Sieve("y", frozenset()))
    assert is_bracket_cover(h, top, maximal_sieve(h.ho, "y"))
    with pytest.raises(ValueError, match="^unknown object id: nope$"):
        is_bracket_cover(h, top, Sieve("nope", frozenset()))


def test_induced_topology_fixture_b(site_b):
    h = site_b.homotopy
    induced = induced_topology(h, site_b.topology)
    assert induced.covers["y"] == frozenset([
        Sieve("y", frozenset(["[f1]"])), maximal_sieve(h.ho, "y")])
    assert induced.covers["x"] == frozenset([maximal_sieve(h.ho, "x")])
    assert validate_topology(induced)


def test_induced_topology_trivial_on_a(site_a):
    induced = induced_topology(site_a.homotopy, site_a.topology)
    assert induced.covers["p"] == frozenset([maximal_sieve(site_a.homotopy.ho, "p")])


def _relabel_through_gamma(h, top):
    covers = {}
    for x, sieves in top.covers.items():
        covers[x] = frozenset(
            Sieve(x, frozenset(h.gamma[f] for f in s.members)) for s in sieves)
    return GrothendieckTopology(h.ho, least_covers(h.ho, covers))


def test_induced_equals_input_on_discrete(site_c):
    h = site_c.homotopy
    induced = induced_topology(h, site_c.topology)
    assert induced == _relabel_through_gamma(h, site_c.topology)


def test_all_topologies_on_discrete_base_are_fixed(site_c):
    # exhaustive over every Grothendieck topology on the base of the
    # discrete control fixture
    cat = site_c.category
    h = site_c.homotopy
    lattices = {x: all_sieves(cat, x) for x in cat.objects}
    candidates = []
    from itertools import product as iproduct
    per_object = []
    for x in cat.objects:
        options = []
        maximal = maximal_sieve(cat, x)
        rest = [s for s in lattices[x] if s != maximal]
        for r in range(len(rest) + 1):
            for chosen in combinations(rest, r):
                options.append(frozenset(chosen) | {maximal})
        per_object.append(options)
    count = 0
    for combo in iproduct(*per_object):
        covers = dict(zip(cat.objects, combo))
        if not validate_cover_sets(cat, covers):
            continue
        top = GrothendieckTopology(cat, least_covers(cat, covers))
        count += 1
        induced = induced_topology(h, top)
        assert induced == _relabel_through_gamma(h, top)
    assert count >= 3


def test_cover_reflecting_on_fixtures(all_sites):
    for site in all_sites.values():
        induced = induced_topology(site.homotopy, site.topology)
        result = check_cover_reflecting(site.homotopy, site.topology, induced)
        assert result.verdict == "pass"


def test_cover_reflecting_preimage_example(site_b):
    h = site_b.homotopy
    u = Sieve("y", frozenset(["[f1]"]))
    pre = frozenset(f for f in h.base.arrows_into("y") if h.gamma[f] in u.members)
    assert pre == frozenset(["f1", "f2"])
    assert Sieve("y", pre) in site_b.topology.covers["y"]


def test_comparison_lemmas_on_fixture_b(site_b):
    h = site_b.homotopy
    induced = induced_topology(h, site_b.topology)
    results = {c.name: c for c in check_comparison_lemmas(h, site_b.topology, induced)}
    assert results["iso-comparison"].verdict == "pass"
    assert results["sheaf-implications"].verdict == "pass"
    assert results["converse-witness"].data["found"] is True
    assert results["converse-witness"].data["sections"] == 2
    assert results["converse-witness"].data["families"] == 4
    assert results["thickening"].verdict == "pass"


def test_comparison_lemmas_discrete_has_no_witness(site_c):
    h = site_c.homotopy
    induced = induced_topology(h, site_c.topology)
    results = {c.name: c for c in check_comparison_lemmas(h, site_c.topology, induced)}
    assert results["converse-witness"].data["found"] is False


def test_discrete_implications_hold_with_converses(site_c):
    # with no edges the pullback is an equivalence, so the sheaf-condition
    # implications become equivalences
    from hosite import classify_presheaf, gamma_star
    from hosite.enumeration import enumerate_presheaves
    h = site_c.homotopy
    induced = induced_topology(h, site_c.topology)
    for pre in enumerate_presheaves(h.ho, 2):
        assert classify_presheaf(pre, induced).kind == \
            classify_presheaf(gamma_star(h, pre), site_c.topology).kind


def test_sheaf_transfer_on_fixtures(all_sites):
    for site in all_sites.values():
        induced = induced_topology(site.homotopy, site.topology)
        sheaves = [pre for pre in enumerate_presheaves(site.category, 2)
                   if is_sheaf(pre, site.topology)]
        result = check_sheaf_transfer(site.homotopy, induced, sheaves)
        assert result.verdict == "pass"
        assert result.data["sheaves"] == len(sheaves)


def _recorded_classifications(monkeypatch) -> list:
    """(category, classification) of every call the induced checks make to
    the classifier, in order."""
    seen: list = []
    original = induced_mod.classify_presheaf

    def record(pre, top):
        cls = original(pre, top)
        seen.append((top.base, cls))
        return cls
    monkeypatch.setattr(induced_mod, "classify_presheaf", record)
    return seen


def _walk_cases(all_sites, random_sites):
    cases = [(site, 2) for site in [*all_sites.values(), *random_sites]]
    return cases + [(all_sites[name], 3) for name in "BCDE"]


def test_walk_quotient_classification_agrees_with_classify_presheaf(
        all_sites, random_sites, monkeypatch):
    # lemma groups (b)/(c) classify each quotient leaf and its gamma^*
    # pullback as views over the walk's tables; classify_presheaf on the
    # built presheaf and on gamma_star of it must agree, kind and witness,
    # leaf by leaf in order
    seen = _recorded_classifications(monkeypatch)
    leaves = 0
    for site, bound in _walk_cases(all_sites, random_sites):
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        seen.clear()
        check_comparison_lemmas(h, top, induced, bound=bound)
        expected = []
        for pre in enumerate_presheaves(h.ho, bound):
            expected.append((h.ho, classify_presheaf(pre, induced)))
            expected.append((h.base, classify_presheaf(gamma_star(h, pre), top)))
        assert seen == expected
        leaves += len(expected) // 2
    assert leaves == 6243


def test_walk_transfer_verdict_agrees_with_is_sheaf(all_sites, random_sites, monkeypatch):
    # the transfer check classifies gamma_* of each base sheaf, and only
    # where an induced least cover is not maximal; is_sheaf on the image of
    # the enumerated presheaf must agree on every base sheaf, in order
    seen = _recorded_classifications(monkeypatch)
    tested = 0
    for site, bound in _walk_cases(all_sites, random_sites):
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        seen.clear()
        sheaves = (pre for pre, sheaf in walk_presheaves(h.base, bound, top) if sheaf)
        result = check_sheaf_transfer(h, induced, sheaves)
        expected = [is_sheaf(gamma_lower_star(h, pre), induced)
                    for pre in enumerate_presheaves(h.base, bound) if is_sheaf(pre, top)]
        assert result.data["sheaves"] == len(expected)
        if induced._sheaf_plans:
            assert [(cat, cls.is_sheaf) for cat, cls in seen] == [(h.ho, ok) for ok in expected]
            tested += len(seen)
        else:
            assert seen == [] and all(expected)
    assert tested == 286


def test_theorem_violation_raised_on_tampered_test(site_b, monkeypatch):
    # breaking the bracket of the least covers must surface as a loud
    # theorem violation
    monkeypatch.setattr(induced_mod, "bracket_sieve", lambda h, j: maximal_sieve(h.ho, j.root))
    with pytest.raises(TheoremViolation) as err:
        induced_mod.induced_topology(site_b.homotopy, site_b.topology)
    assert "disagree" in str(err.value)
    assert err.value.counterexample


def test_theorem_violation_raised_on_invalid_induced_covers(site_b, monkeypatch):
    # agreeing covers that fail the topology laws are a theorem violation too
    monkeypatch.setattr(induced_mod, "validate_topology",
                        lambda top: ValidationReport(False, "stability", ("y", "{}", "[f1]"), "bad"))
    with pytest.raises(TheoremViolation) as err:
        induced_mod.induced_topology(site_b.homotopy, site_b.topology)
    assert "do not form a topology (stability at ('y', '{}', '[f1]'))" in str(err.value)
    assert err.value.counterexample == {"validation": "bad"}


def test_monotonicity_of_induced(site_b):
    cat = site_b.category
    h = site_b.homotopy
    small = saturate_topology(cat, {"y": [["f1", "f2"]]})
    large = saturate_topology(cat, {"y": [["f1", "f2"]], "x": [[]]})
    for x in cat.objects:
        assert small.covers[x] <= large.covers[x]
    induced_small = induced_topology(h, small)
    induced_large = induced_topology(h, large)
    for x in cat.objects:
        assert induced_small.covers[x] <= induced_large.covers[x]


def test_induced_laws_pull_back_once_per_quotient_arrow(count_calls):
    # 15 independent arrows s -> t, two of them pairs of homotopic arrows:
    # the quotient lattice on t has 2^13 + 1 sieves, all covering. The laws
    # of [τ] are checked on its least covers, one pullback per arrow; a scan
    # over every cover and every sieve took 114,704 pullbacks here
    doc = {
        "objects": ["s", "t"],
        "morphisms": [{"name": f"a{i}", "dom": "s", "cod": "t"} for i in range(15)],
        "edges": [["a3", "a4"], ["a6", "a7"]],
        "covers": {"t": [["a0", "a1"], ["a0", "a2", "a5"]]},
    }
    site = load_site(doc)
    calls = count_calls(sieves, "pullback_sieve")
    induced = induced_topology(site.homotopy, site.topology)
    assert sum(len(v) for v in induced.covers.values()) == 8195
    assert len(calls) <= len(site.homotopy.ho.morphisms) == 15


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=5000))
def test_random_site_agreement(seed):
    site = random_site(seed)
    induced = induced_topology(site.homotopy, site.topology)
    assert validate_topology(induced)
    assert check_cover_reflecting(site.homotopy, site.topology, induced).verdict == "pass"


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=3000))
def test_random_discrete_collapse(seed):
    # strip the edges off a random site: the induced topology must be the
    # input topology relabelled through the (bijective) gamma
    from hosite import EnrichedCategory, homotopy_category
    site = random_site(seed)
    h = homotopy_category(EnrichedCategory(site.category, ()))
    induced = induced_topology(h, site.topology)
    assert len(set(h.gamma.values())) == len(site.category.morphisms)
    assert induced == _relabel_through_gamma(h, site.topology)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=3000))
def test_random_site_monotonicity(seed):
    site = random_site(seed)
    cat = site.category
    top = site.topology
    generating = {x: [sorted(s.members) for s in top.covers_of(x)] for x in cat.objects}
    extra = dict(generating)
    first = cat.objects[0]
    extra[first] = extra.get(first, []) + [sorted(cat.arrows_into(first))[:1]]
    bigger = saturate_topology(cat, extra)
    for x in cat.objects:
        assert top.covers[x] <= bigger.covers[x]
    induced_small = induced_topology(site.homotopy, top)
    induced_large = induced_topology(site.homotopy, bigger)
    for x in cat.objects:
        assert induced_small.covers[x] <= induced_large.covers[x]


def test_thickening_properties_on_fixtures(all_sites):
    for site in all_sites.values():
        h = site.homotopy
        for x in h.base.objects:
            for j in site.topology.covers_of(x):
                jd = thicken_sieve(h, j)
                assert j.members <= jd.members
                assert thicken_sieve(h, jd) == jd
                assert bracket_sieve(h, jd) == bracket_sieve(h, j)
