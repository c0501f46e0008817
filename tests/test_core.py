from __future__ import annotations

import dataclasses

import pytest

from hosite import (
    FiniteCategory,
    constant_presheaf,
    empty_presheaf,
    hom_presheaves,
    make_category,
    make_presheaf,
    maximal_sieve,
    run_site_suite,
    sieve_presheaf,
    generate_sieve,
    validate_category,
    validate_presheaf,
    yoneda,
)
from hosite.enumeration import enumerate_presheaves
from oracles import hom_product_filter


def test_validate_terminal_category(site_a):
    assert validate_category(site_a.category)


def test_validate_fixture_b(site_b):
    assert validate_category(site_b.category)


def test_identity_law_violation_reported(site_b):
    cat = site_b.category
    table = dict(cat.composition)
    table[("id_y", "f1")] = "f2"
    broken = FiniteCategory(cat.objects, cat.morphisms, cat.dom, cat.cod, cat.identity, table)
    report = validate_category(broken)
    assert not report
    assert report.law == "identity-law"
    assert report.witness == ("id_y", "f1")


def test_missing_composite_reported(site_e):
    cat = site_e.category
    table = {k: v for k, v in cat.composition.items() if k != ("h", "h")}
    broken = FiniteCategory(cat.objects, cat.morphisms, cat.dom, cat.cod, cat.identity, table)
    report = validate_category(broken)
    assert not report
    assert report.law == "composability-table"


def test_associativity_violation_reported():
    # p∘p = q, p∘q = p makes (p∘p)∘p = q∘p and p∘(p∘p) = p∘q diverge
    arrows = [("p", "z", "z"), ("q", "z", "z"), ("r", "z", "z")]
    table = {
        ("p", "p"): "q", ("p", "q"): "p", ("q", "p"): "r",
        ("q", "q"): "q", ("q", "r"): "r", ("r", "q"): "q",
        ("r", "p"): "p", ("p", "r"): "r", ("r", "r"): "r",
    }
    cat = make_category(["z"], arrows, table)
    report = validate_category(cat)
    assert not report
    assert report.law == "associativity"


def test_constant_presheaf_valid(site_b):
    assert validate_presheaf(constant_presheaf(site_b.category, ["0", "1"]))


def test_yoneda_valid_on_all_fixtures(all_sites):
    for site in all_sites.values():
        for x in site.category.objects:
            assert validate_presheaf(yoneda(site.category, x))


def test_swapped_restriction_still_functorial(site_b):
    # no composable constraints beyond identities in this base, so any
    # restriction choice is functorial
    pre = make_presheaf(
        site_b.category,
        {"x": ["0", "1"], "y": ["0", "1"]},
        {"f1": {"0": "1", "1": "0"}, "f2": {"0": "0", "1": "1"}},
    )
    assert validate_presheaf(pre)


def test_yoneda_values(site_a, site_b, site_d):
    assert yoneda(site_a.category, "p").value["p"] == ("id_p",)
    y = yoneda(site_b.category, "y")
    assert y.value["x"] == ("f1", "f2")
    assert y.value["y"] == ("id_y",)
    c = yoneda(site_d.category, "c")
    assert c.value == {"a": ("u",), "b": ("v",), "c": ("id_c",)}


def test_yoneda_unknown_object(site_b):
    with pytest.raises(ValueError):
        yoneda(site_b.category, "nope")


def test_yoneda_is_the_maximal_sieve_presheaf(all_sites, random_sites):
    # equal field by field, and in the order of every dict
    for cat in [s.category for s in all_sites.values()] + [s.category for s in random_sites]:
        for x in cat.objects:
            y, m = yoneda(cat, x), sieve_presheaf(cat, maximal_sieve(cat, x))
            assert repr((y.value, y.restrict)) == repr((m.value, m.restrict))


def test_hom_counts_on_fixture_b(site_b):
    cat = site_b.category
    k2 = site_b.presheaves["K2"]
    assert len(hom_presheaves(yoneda(cat, "y"), k2)) == 2
    sieve = generate_sieve(cat, "y", ["f1", "f2"])
    assert len(hom_presheaves(sieve_presheaf(cat, sieve), k2)) == 4
    assert len(hom_presheaves(empty_presheaf(cat), k2)) == 1


def test_hom_category_mismatch(site_b, site_d):
    with pytest.raises(ValueError):
        hom_presheaves(yoneda(site_b.category, "y"), site_d.presheaves["F"])


def test_yoneda_lemma_bijection(all_sites):
    # |hom(y(X), F)| = |F(X)| and the bijection evaluates at the identity
    for site in all_sites.values():
        cat = site.category
        pres = list(site.presheaves.values()) + [constant_presheaf(cat, ["0", "1"])]
        for pre in pres:
            for x in cat.objects:
                nts = hom_presheaves(yoneda(cat, x), pre)
                assert len(nts) == len(pre.value[x])
                images = {nt.components[x][cat.identity[x]] for nt in nts}
                assert images == set(pre.value[x])


def test_hom_agrees_with_product_oracle(all_sites):
    for site in all_sites.values():
        cat = site.category
        pres = list(site.presheaves.values()) + [constant_presheaf(cat, ["0"])]
        for x in cat.objects:
            pres.append(yoneda(cat, x))
        for u in pres:
            for f in pres:
                fast = hom_presheaves(u, f)
                slow = hom_product_filter(u, f)
                assert len(fast) == len(slow)
                assert {str(sorted((o, tuple(sorted(c.items()))) for o, c in m.components.items()))
                        for m in fast} == \
                       {str(sorted((o, tuple(sorted(c.items()))) for o, c in m.components.items()))
                        for m in slow}


def test_operation_outputs_pass_their_validators(all_sites):
    # build -> validate round-trips for every constructor surface
    from hosite import validate_presheaf_morphism, validate_sieve, sieve_presheaf as sp
    for site in all_sites.values():
        cat = site.category
        assert validate_category(cat)
        for x in cat.objects:
            y = yoneda(cat, x)
            assert validate_presheaf(y)
            for m in hom_presheaves(y, constant_presheaf(cat, ["0", "1"])):
                assert validate_presheaf_morphism(m)
        for x in cat.objects:
            for s in site.topology.covers_of(x):
                assert validate_sieve(cat, s)
                assert validate_presheaf(sp(cat, s))


def test_categories_are_frozen(site_b):
    with pytest.raises(dataclasses.FrozenInstanceError):
        site_b.category.objects = ()


@pytest.mark.parametrize("bound", [-1, 5])
def test_value_bound_outside_label_pool_raises(site_b, bound):
    # a negative bound used to enumerate nothing, so the suite passed vacuously
    with pytest.raises(ValueError, match=f"value bound {bound} is outside"):
        next(enumerate_presheaves(site_b.category, bound))
    with pytest.raises(ValueError, match=f"value bound {bound} is outside"):
        run_site_suite(site_b, bound=bound)
