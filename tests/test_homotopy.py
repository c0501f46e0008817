from __future__ import annotations

import pytest

from hosite import (
    EnrichedCategory,
    PresheafMorphism,
    compose_morphisms,
    constant_presheaf,
    empty_presheaf,
    gamma_lower_star,
    gamma_shriek,
    gamma_shriek_morphism,
    gamma_star,
    gamma_star_morphism,
    generate_sieve,
    homotopy_category,
    hom_presheaves,
    identity_morphism,
    is_sheaf,
    make_category,
    make_presheaf,
    random_site,
    sieve_presheaf,
    validate_category,
    validate_enrichment,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda,
)
from hosite.enumeration import enumerate_presheaves
from hosite.homotopy import _shriek
from oracles import gamma_lower_star_end, gamma_shriek_coend, isomorphic, pi0


def test_pi0_examples():
    assert pi0(["f1", "f2"], [("f1", "f2")]) == (("f1", "f2"),)
    assert pi0(["f1", "f2"], []) == (("f1",), ("f2",))
    assert pi0(["h", "id_z"], [("id_z", "h")]) == (("h", "id_z"),)


def test_pi0_dangling_endpoint():
    with pytest.raises(ValueError):
        pi0(["a"], [("a", "b")])


def test_homotopy_category_fixture_b(site_b):
    h = site_b.homotopy
    assert h.ho.hom("x", "y") == ("[f1]",)
    assert h.ho.hom("x", "x") == ("[id_x]",)
    assert h.ho.hom("y", "y") == ("[id_y]",)
    assert h.gamma["f1"] == h.gamma["f2"] == "[f1]"
    assert validate_category(h.ho)


def test_hom_is_declaration_order_filter(all_sites, random_sites):
    for site in [*all_sites.values(), *random_sites]:
        for cat in (site.category, site.homotopy.ho):
            for v in cat.objects:
                for x in cat.objects:
                    assert cat.hom(v, x) == tuple(
                        m for m in cat.morphisms if (cat.dom[m], cat.cod[m]) == (v, x))


def test_homotopy_category_discrete(site_c):
    h = site_c.homotopy
    assert len(h.ho.morphisms) == len(h.base.morphisms)
    assert len(set(h.gamma.values())) == len(h.base.morphisms)
    assert validate_category(h.ho)


def test_homotopy_category_idempotent_collapse(site_e):
    h = site_e.homotopy
    assert h.ho.hom("z", "z") == ("[h]",)
    assert h.ho.identity["z"] == "[h]"
    assert h.ho.composition[("[h]", "[h]")] == "[h]"


def test_gamma_fibers_are_pi0_classes(all_sites):
    for site in all_sites.values():
        h = site.homotopy
        cat = h.base
        for v in cat.objects:
            for x in cat.objects:
                verts = list(cat.hom(v, x))
                if not verts:
                    continue
                edges = [e for e in site.enriched.edges if e[0] in verts]
                classes = set(pi0(verts, edges))
                fibers = {}
                for m in verts:
                    fibers.setdefault(h.gamma[m], []).append(m)
                assert {tuple(sorted(f)) for f in fibers.values()} == classes


def test_whisker_incompatible_rejected():
    # f1 ~ f2 : x -> y but g∘f1 and g∘f2 differ and are not joined
    cat = make_category(
        ["x", "y", "z"],
        [("f1", "x", "y"), ("f2", "x", "y"), ("g", "y", "z"),
         ("p", "x", "z"), ("q", "x", "z")],
        {("g", "f1"): "p", ("g", "f2"): "q"},
    )
    assert validate_category(cat)
    enr = EnrichedCategory(cat, (("f1", "f2"),))
    report = validate_enrichment(enr)
    assert not report
    assert report.law == "whisker-compatibility"
    assert report.witness == ("f1", "f2", "g")
    with pytest.raises(ValueError):
        homotopy_category(enr)


def test_gamma_star_example(site_b):
    h = site_b.homotopy
    g = make_presheaf(
        h.ho,
        {"x": ["a", "b"], "y": ["a", "b"]},
        {"[f1]": {"a": "a", "b": "b"}},
    )
    pulled = gamma_star(h, g)
    assert validate_presheaf(pulled, h.base)
    assert pulled.restrict["f1"] == pulled.restrict["f2"] == {"a": "a", "b": "b"}


def test_gamma_star_discrete_yoneda(site_c):
    h = site_c.homotopy
    for x in h.base.objects:
        pulled = gamma_star(h, yoneda(h.ho, x))
        direct = yoneda(h.base, x)
        # identical up to the gamma relabelling of elements
        for o in h.base.objects:
            assert tuple(sorted(h.gamma[m] for m in direct.value[o])) == pulled.value[o]


def test_gamma_star_preserves_products(site_b):
    from hosite import product_presheaf
    h = site_b.homotopy
    f = constant_presheaf(h.ho, ["0", "1"])
    g = yoneda(h.ho, "y")
    prod, _, _ = product_presheaf(f, g)
    left = gamma_star(h, prod)
    right, _, _ = product_presheaf(gamma_star(h, f), gamma_star(h, g))
    assert left == right


def test_gamma_star_wrong_category(site_b):
    with pytest.raises(ValueError):
        gamma_star(site_b.homotopy, site_b.presheaves["K2"])


def _shriek_comparison(h, pre, target, value_of):
    """The canonical map out of γ_!F: the class of s |-> value_of(s)."""
    shrek = gamma_shriek(h, pre)
    comps = {z: {c: value_of(c) for c in shrek.value[z]} for z in h.ho.objects}
    return PresheafMorphism(shrek, target, comps)


def test_gamma_shriek_preserves_representables(all_sites):
    # the comparison class(f) |-> gamma(f) onto the representable of the
    # quotient is a natural bijection
    from hosite import componentwise_bijection
    for site in all_sites.values():
        h = site.homotopy
        for x in h.base.objects:
            target = yoneda(h.ho, x)
            comparison = _shriek_comparison(
                h, yoneda(h.base, x), target, lambda f: h.gamma[f])
            assert validate_presheaf(comparison.source, h.ho)
            assert validate_presheaf_morphism(comparison)
            ok, _ = componentwise_bijection(comparison)
            assert ok


def test_gamma_shriek_sieve_comparison_epi_not_mono(site_b):
    # q: γ_!(U) ->> [U] collapses the two generators, so it is surjective in
    # every component but not injective at the source object
    h = site_b.homotopy
    cat = h.base
    j = generate_sieve(cat, "y", ["f1", "f2"])
    u = sieve_presheaf(cat, j)
    bracket = sieve_presheaf(h.ho, generate_sieve(h.ho, "y", ["[f1]"]))
    q = _shriek_comparison(h, u, bracket, lambda f: h.gamma[f])
    assert validate_presheaf_morphism(q)
    assert len(q.source.value["x"]) == 2
    assert len(bracket.value["x"]) == 1
    for o in cat.objects:
        assert set(q.components[o].values()) == set(bracket.value[o])  # epi
    assert len(set(q.components["x"].values())) < len(q.source.value["x"])  # not mono


def test_gamma_shriek_empty(site_b):
    h = site_b.homotopy
    shrek = gamma_shriek(h, empty_presheaf(h.base))
    assert all(shrek.value[o] == () for o in h.ho.objects)


def test_gamma_lower_star_discrete_identity_like(site_c):
    h = site_c.homotopy
    k2 = site_c.presheaves["K2"]
    pushed = gamma_lower_star(h, k2)
    assert validate_presheaf(pushed, h.ho)
    for o in h.ho.objects:
        assert len(pushed.value[o]) == len(k2.value[o])


def test_gamma_lower_star_count_example(site_b):
    h = site_b.homotopy
    pushed = gamma_lower_star(h, site_b.presheaves["K2"])
    assert len(pushed.value["y"]) == 2
    assert validate_presheaf(pushed, h.ho)


def test_adjunction_cardinalities(site_b, site_e):
    # |hom(γ*G, F)| = |hom(G, γ_*F)| and |hom(γ_!F, G)| = |hom(F, γ*G)|
    for site in (site_b, site_e):
        h = site.homotopy
        base_presheaves = list(enumerate_presheaves(h.base, 2))[:12]
        ho_presheaves = list(enumerate_presheaves(h.ho, 2))[:12]
        for f in base_presheaves[:6]:
            for g in ho_presheaves[:6]:
                left = len(hom_presheaves(gamma_star(h, g), f))
                right = len(hom_presheaves(g, gamma_lower_star(h, f)))
                assert left == right
                left = len(hom_presheaves(gamma_shriek(h, f), g))
                right = len(hom_presheaves(f, gamma_star(h, g)))
                assert left == right


def _shriek_unit(h, pre):
    """F -> γ*γ_!F sending s to its class."""
    shrek, cls = _shriek(h, pre)
    return PresheafMorphism(pre, gamma_star(h, shrek), {w: dict(cls[w]) for w in h.base.objects})


def _shriek_counit(h, g):
    """γ_!γ*G -> G; every class of γ*G is a singleton and maps to its member."""
    shrek = gamma_shriek(h, gamma_star(h, g))
    return PresheafMorphism(shrek, g, {z: {c: c for c in shrek.value[z]} for z in h.ho.objects})


def test_shriek_adjunction_triangles(site_b, site_e):
    for site in (site_b, site_e):
        h = site.homotopy
        for pre in list(enumerate_presheaves(h.base, 2))[:8]:
            unit = _shriek_unit(h, pre)
            assert validate_presheaf_morphism(unit)
            counit = _shriek_counit(h, gamma_shriek(h, pre))
            shrek_unit = gamma_shriek_morphism(h, unit)
            composite = compose_morphisms(counit, shrek_unit)
            assert composite.components == identity_morphism(gamma_shriek(h, pre)).components
        for g in list(enumerate_presheaves(h.ho, 2))[:8]:
            counit = _shriek_counit(h, g)
            assert validate_presheaf_morphism(counit)
            pulled = gamma_star(h, g)
            unit = _shriek_unit(h, pulled)
            star_counit = PresheafMorphism(
                gamma_star(h, gamma_shriek(h, pulled)), pulled,
                {o: dict(counit.components[o]) for o in h.base.objects})
            composite = compose_morphisms(star_counit, unit)
            assert composite.components == identity_morphism(pulled).components


def _lower_unit(h, g):
    """G -> γ_*γ*G, s |-> s: every section of γ*G survives."""
    return PresheafMorphism(g, gamma_lower_star(h, gamma_star(h, g)),
                            {z: {s: s for s in g.value[z]} for z in h.ho.objects})


def _lower_counit(h, pre):
    """γ*γ_*F -> F, the inclusion of the surviving sections."""
    pulled = gamma_star(h, gamma_lower_star(h, pre))
    return PresheafMorphism(pulled, pre, {w: {s: s for s in pulled.value[w]} for w in h.base.objects})


def test_lower_star_unit_triangle(site_b, site_e):
    # γ*(unit) postcomposed with the counit is the identity on γ*G
    for site in (site_b, site_e):
        h = site.homotopy
        for g in list(enumerate_presheaves(h.ho, 2))[:8]:
            unit = _lower_unit(h, g)
            assert validate_presheaf_morphism(unit)
            pulled = gamma_star(h, g)
            counit = _lower_counit(h, pulled)
            assert validate_presheaf_morphism(counit)
            composite = compose_morphisms(counit, gamma_star_morphism(h, unit))
            assert composite.components == identity_morphism(pulled).components


def _oracle_sites(all_sites):
    return [*all_sites.values(), *(random_site(seed) for seed in range(10))]


def test_gamma_lower_star_agrees_with_end(all_sites):
    for site in _oracle_sites(all_sites):
        h = site.homotopy
        for pre in enumerate_presheaves(h.base, 2):
            pushed = gamma_lower_star(h, pre)
            assert validate_presheaf(pushed, h.ho)
            assert isomorphic(pushed, gamma_lower_star_end(h, pre))


def test_gamma_shriek_agrees_with_coend(all_sites):
    for site in _oracle_sites(all_sites):
        h = site.homotopy
        for pre in enumerate_presheaves(h.base, 2):
            shrek = gamma_shriek(h, pre)
            assert validate_presheaf(shrek, h.ho)
            assert isomorphic(shrek, gamma_shriek_coend(h, pre))


def test_gamma_lower_star_transfers_sheaves_on_fixtures(site_b, site_d, site_e):
    from hosite import induced_topology
    for site in (site_b, site_d, site_e):
        h = site.homotopy
        induced = induced_topology(h, site.topology)
        for pre in enumerate_presheaves(h.base, 2):
            if is_sheaf(pre, site.topology):
                assert is_sheaf(gamma_lower_star(h, pre), induced)
