from __future__ import annotations

import importlib
from itertools import combinations, zip_longest
from random import Random

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
from hosite.enumeration import enumerate_presheaves, leaves
from hosite.induced import TheoremViolation
from hosite.sheafify import KINDS, NOT_SHEAF
from oracles import least_covers, validate_cover_sets, walk_blocks

# the package exports the function sheafify under the module's name
sheafify_mod = importlib.import_module("hosite.sheafify")


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


def test_cover_reflecting_preimages_are_listed_covers(all_sites):
    # the proof in check_cover_reflecting's docstring, checked by membership
    # in tau's explicit cover list rather than by top.is_cover
    for site in [*all_sites.values(), *map(random_site, range(60))]:
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        for x in h.ho.objects:
            for u in induced.covers[x]:
                assert induced_mod._preimage(h, u) in top.covers[x], (site.digest, x, u)


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


def test_walk_quotient_classification_agrees_with_classify_presheaf(all_sites, random_sites):
    # the site walk's gamma-constant leaves are the quotient's presheaves in
    # its walk order; on them the flags give [τ]'s kind of the quotient
    # presheaf and τ's sheaf verdict of the leaf, as classify_presheaf does
    leaf_count = 0
    for site, bound in _walk_cases(all_sites, random_sites):
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        rep = h.rep
        walk = induced_mod._site_walk(h, top, induced, bound, Random(0), [], [])
        walked = ((pre, flags) for pre, flags in leaves(walk)
                  if all(t == pre.restrict[rep[h.gamma[m]]] for m, t in pre.restrict.items()))
        for (pre, flags), built in zip_longest(walked, enumerate_presheaves(h.ho, bound)):
            assert [pre.restrict[rep[q]] for q in built.restrict] == list(built.restrict.values())
            assert (KINDS[flags >> 1 & 3], not flags & NOT_SHEAF) == (
                classify_presheaf(built, induced).kind, is_sheaf(pre, top))
            leaf_count += 1
    assert leaf_count == 6243


def _one_walk_implications(h, top, induced, bound, rng, sample) -> list:
    """The (b)/(c) results of the site walk, filling the (a) reservoir."""
    results: list = []
    for _ in induced_mod._site_walk(h, top, induced, bound, rng, sample, results):
        pass
    return results


def _implication_cases(all_sites):
    cases = [(site, 2, seed) for seed, site in enumerate(
        [*all_sites.values(), *map(random_site, range(60))])]
    cases += [(all_sites[name], 3, 7) for name in "BDE"]
    return cases + [(all_sites[name], 4, 11) for name in "BC"]


def test_implications_agree_with_the_per_leaf_oracle(all_sites):
    # the walk deciding both sides' tests gives the per-leaf loop's first
    # violation, witness and case count, and fills the (a) reservoir with the
    # same copies, key order included, leaving the same rng state
    from oracles import implications_by_leaf
    witnesses = 0
    for site, bound, seed in _implication_cases(all_sites):
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        rng, sample, oracle_rng, oracle_sample = Random(seed), [], Random(seed), []
        got = _one_walk_implications(h, top, induced, bound, rng, sample)
        want = implications_by_leaf(h, top, induced, bound, oracle_rng, oracle_sample)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert got[0].verdict == "pass"  # the implications are theorems
        assert [list(p.restrict.items()) for p in sample] == \
            [list(p.restrict.items()) for p in oracle_sample]
        assert [p.value for p in sample] == [p.value for p in oracle_sample]
        assert rng.getstate() == oracle_rng.getstate()
        witnesses += got[1].data["found"]
    assert witnesses == 4


def _failing_on(quotient: bool, test):
    """A sheaf-test half that fails on every presheaf over one side."""
    def fake(pre, plan):
        return False if pre.cat.morphisms[0].startswith("[") == quotient else test(pre, plan)
    return fake


@pytest.mark.parametrize("name, quotient, detail", [
    ("_exact_family_count", True, "base sheaf with non-sheaf original"),
    ("_injective", True, "base sheaf with non-sheaf original"),
    ("_injective", False, "separated original with non-separated pullback"),
])
def test_forced_implication_failures_agree_with_the_oracle(
        name, quotient, detail, all_sites, random_sites, monkeypatch):
    # with one half of the sheaf test broken on one side, the walk and the
    # per-leaf classification see the same broken test: the same first
    # violation (payload and kinds), witness, count and sample
    from oracles import implications_by_leaf
    monkeypatch.setattr(sheafify_mod, name, _failing_on(quotient, getattr(sheafify_mod, name)))
    details = set()
    for seed, site in enumerate([*all_sites.values(), *random_sites[:20]]):
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        rng, sample, oracle_rng, oracle_sample = Random(seed), [], Random(seed), []
        got = _one_walk_implications(h, top, induced, 2, rng, sample)
        want = implications_by_leaf(h, top, induced, 2, oracle_rng, oracle_sample)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert [list(p.restrict.items()) for p in sample] == \
            [list(p.restrict.items()) for p in oracle_sample]
        assert rng.getstate() == oracle_rng.getstate()
        details.add(got[0].detail)
    assert detail in details


def test_lemma_tests_evaluated_on_c_at_bound_4(site_c, count_calls):
    # the comparison lemmas on C at bound 4 run each half of each sheaf test
    # once per subtree, and a count only where injectivity held: the per-leaf
    # loop made 155,266 injectivity tests and 101,950 family counts here. The
    # injectivity test reads the only slot, so it still runs per leaf; where
    # τ's test fails, its injectivity half runs again per leaf for the kind
    # (232 more than the quotient walk's two bits per side)
    h, top = site_c.homotopy, site_c.topology
    induced = induced_topology(h, top)
    injective = count_calls(sheafify_mod, "_injective")
    counted = count_calls(sheafify_mod, "_exact_family_count")
    check_comparison_lemmas(h, top, induced, bound=4)
    assert (len(injective), len(counted)) == (155_498, 42)


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
        sheaves = (pre for pre, sheaf in leaves(walk_blocks(h.base, bound, top)) if sheaf)
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


def _fan(n: int) -> dict:
    """n independent arrows s -> t, with a3 ~ a4 and a6 ~ a7, and t covered
    by {a0, a1} and {a0, a2, a5}."""
    return {
        "objects": ["s", "t"],
        "morphisms": [{"name": f"a{i}", "dom": "s", "cod": "t"} for i in range(n)],
        "edges": [["a3", "a4"], ["a6", "a7"]],
        "covers": {"t": [["a0", "a1"], ["a0", "a2", "a5"]]},
    }


def test_induced_laws_pull_back_once_per_quotient_arrow(count_calls):
    # on the 15-arrow fan the quotient lattice on t has 2^13 + 1 sieves, all
    # covering. The laws of [τ] are checked on its least covers, one pullback
    # per arrow; a scan over every cover and every sieve took 114,704 here
    site = load_site(_fan(15))
    calls = count_calls(sieves, "pullback_sieve")
    induced = induced_topology(site.homotopy, site.topology)
    assert sum(len(v) for v in induced.covers.values()) == 8195
    assert len(calls) <= len(site.homotopy.ho.morphisms) == 15


def test_thickening_reads_four_brackets_per_cover(count_calls):
    # on the 10-arrow fan t has 1,027 base covers; each one's bracket, its
    # thickening's bracket and the two thickenings are computed once, where
    # comparing every pair of covers made 1,048,334 bracket_sieve calls
    site = load_site(_fan(10))
    h, top = site.homotopy, site.topology
    induced = induced_topology(h, top)
    calls = count_calls(induced_mod, "bracket_sieve")
    results = check_comparison_lemmas(h, top, induced, bound=1)
    covers = sum(len(top.covers_of(x)) for x in h.base.objects)
    assert (results[-1].verdict, covers) == ("pass", 1027)
    assert len(calls) == 4 * covers


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
