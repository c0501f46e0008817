"""Reflexive-graph-enriched categories, homotopy categories, and the three
presheaf functors induced by the quotient.

The localization gamma is the identity on objects and surjective on every
hom-set, so both Kan extensions along it have closed forms (Yoneda applied
to the epi y(Z) -> gamma^*y(Z); Gabriel–Zisman 1967): gamma_* keeps the
sections on which parallel gamma-equal restrictions agree, and gamma_!
identifies their images. The end and coend formulas survive only as test
oracles. No presheaf table is edited once built, so ``gamma_star`` shares
P's value and restriction tables, and ``gamma_star_morphism`` shares the
components of the morphism it pulls back.

Enrichment is 1-truncated: hom-sets carry unoriented homotopy edges, every
vertex is tacitly self-connected, and nothing above connected components is
retained. Whisker-compatibility is a validated input precondition — it is
what makes composition descend to the quotient — and inputs violating it
are rejected with the witnessing triple. The edge classes are built once per
enriched category, in one table that the check and the quotient both read;
``homotopy_category`` runs the check, so a loaded site is checked there once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import PASS, FiniteCategory, PresheafMorphism, SetPresheaf, ValidationReport, _fail
from .util import UnionFind


@dataclass(frozen=True)
class EnrichedCategory:
    """A finite category whose hom-sets carry homotopy edges."""

    base: FiniteCategory
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def _least(self) -> dict[str, str]:
        """Each morphism's edge class, named by its least member: the one
        table both the whisker check and the quotient read."""
        uf = UnionFind(self.base.morphisms)
        for a, b in self.edges:
            uf.union(a, b)
        return {m: least for least, members in uf.classes().items() for m in members}


def validate_enrichment(enr: EnrichedCategory) -> ValidationReport:
    """Edges join parallel morphisms, and whiskering respects the classes.

    Each class is checked against its least member only. Classes are
    transitive, so if every member agrees with the least one, every pair
    agrees, and the first failing pair of an all-pairs scan is such a pair.
    """
    cat = enr.base
    known = set(cat.morphisms)
    for a, b in enr.edges:
        unknown = [m for m in (a, b) if m not in known]
        if unknown:
            return _fail("edge-endpoints", (a, b),
                         f"edge endpoint is not a morphism: unknown morphism {unknown[0]}")
        if cat.dom[a] != cat.dom[b] or cat.cod[a] != cat.cod[b]:
            return _fail("edge-endpoints", (a, b), "edge endpoints are not parallel")
    least = enr._least
    for f2 in sorted((m for m in cat.morphisms if least[m] != m), key=lambda m: (least[m], m)):
        f = least[f2]
        for h in cat.morphisms:
            if cat.dom[h] == cat.cod[f] and \
                    least[cat.compose(h, f)] != least[cat.compose(h, f2)]:
                return _fail(
                    "whisker-compatibility", (f, f2, h),
                    f"{f} ~ {f2} but {h}∘{f} and {h}∘{f2} land in different classes")
        for g in cat.morphisms:
            if cat.cod[g] == cat.dom[f] and \
                    least[cat.compose(f, g)] != least[cat.compose(f2, g)]:
                return _fail(
                    "whisker-compatibility", (f, f2, g),
                    f"{f} ~ {f2} but {f}∘{g} and {f2}∘{g} land in different classes")
    return PASS


@dataclass(frozen=True)
class HomotopyCategoryData:
    """The quotient category together with the localization assignment.

    gamma is identity on objects and surjective on morphisms; its fibers are
    exactly the edge-generated equivalence classes; rep maps each class to
    its least member, which names it.
    """

    base: FiniteCategory
    ho: FiniteCategory
    gamma: dict[str, str]
    rep: dict[str, str]


def homotopy_category(enr: EnrichedCategory) -> HomotopyCategoryData:
    """Quotient each hom-set by its connected components.

    Class ids are '[rep]' with rep the lexicographically least member, so the
    quotient morphisms stay readable next to the originals in reports. An
    invalid enrichment raises ValueError naming the law and its witness.
    """
    report = validate_enrichment(enr)
    if not report:
        raise ValueError(f"{report.law} at {report.witness}: {report.detail}")
    cat = enr.base
    rep_of = enr._least
    gamma = {m: f"[{rep_of[m]}]" for m in cat.morphisms}

    names: list[str] = []
    dom: dict[str, str] = {}
    cod: dict[str, str] = {}
    for m in cat.morphisms:
        q = gamma[m]
        if q not in dom:
            names.append(q)
            dom[q] = cat.dom[m]
            cod[q] = cat.cod[m]
    identity = {o: gamma[cat.identity[o]] for o in cat.objects}
    composition: dict[tuple[str, str], str] = {}
    reps = {gamma[m]: rep_of[m] for m in cat.morphisms}
    for qg in names:
        for qf in names:
            if cod[qf] == dom[qg]:
                composition[(qg, qf)] = gamma[cat.compose(reps[qg], reps[qf])]
    ho = FiniteCategory(cat.objects, tuple(names), dom, cod, identity, composition)
    return HomotopyCategoryData(cat, ho, gamma, reps)


def gamma_star(h: HomotopyCategoryData, pre: SetPresheaf) -> SetPresheaf:
    """Precomposition: pull a presheaf on the quotient back to the base. The
    result shares P's value and restriction tables."""
    if pre.cat is not h.ho and pre.cat != h.ho:
        raise ValueError("presheaf does not live over the homotopy category")
    return SetPresheaf(h.base, pre.value, {m: pre.restrict[q] for m, q in h.gamma.items()})


def gamma_star_morphism(h: HomotopyCategoryData, m: PresheafMorphism) -> PresheafMorphism:
    return PresheafMorphism(gamma_star(h, m.source), gamma_star(h, m.target), m.components)


def _shriek(h: HomotopyCategoryData, pre: SetPresheaf):
    """gamma_! of pre, together with the class of every section."""
    if pre.cat != h.base:
        raise ValueError("presheaf does not live over the base category")
    base, ho = h.base, h.ho
    uf = {z: UnionFind(pre.value[z]) for z in base.objects}
    for f in base.morphisms:
        moved, by_rep = pre.restrict[f], pre.restrict[h.rep[h.gamma[f]]]
        for s in pre.value[base.cod[f]]:
            uf[base.dom[f]].union(moved[s], by_rep[s])
    cls = {
        z: {s: least for least, members in uf[z].classes().items() for s in members}
        for z in base.objects
    }
    value = {z: tuple(sorted(set(cls[z].values()))) for z in ho.objects}
    restrict = {
        q: {c: cls[ho.dom[q]][pre.restrict[h.rep[q]][c]] for c in value[ho.cod[q]]}
        for q in ho.morphisms
    }
    return SetPresheaf(ho, value, restrict), cls


def gamma_shriek(h: HomotopyCategoryData, pre: SetPresheaf) -> SetPresheaf:
    """Left Kan extension along gamma: F(Z) modulo F(f)(s) ~ F(f')(s) for
    gamma(f) = gamma(f'), each class named by its least section; restriction
    along [w] is F(w) for any representative w."""
    return _shriek(h, pre)[0]


def gamma_shriek_morphism(h: HomotopyCategoryData, m: PresheafMorphism) -> PresheafMorphism:
    src, _ = _shriek(h, m.source)
    tgt, tgt_cls = _shriek(h, m.target)
    comps = {
        z: {c: tgt_cls[z][m.components[z][c]] for c in src.value[z]}
        for z in h.ho.objects
    }
    return PresheafMorphism(src, tgt, comps)


def gamma_lower_star(h: HomotopyCategoryData, pre: SetPresheaf) -> SetPresheaf:
    """Right Kan extension along gamma: the sections s of F(Z) with
    F(f)(s) = F(f')(s) whenever gamma(f) = gamma(f'); restriction along [w]
    is F(w) for any representative w."""
    if pre.cat != h.base:
        raise ValueError("presheaf does not live over the base category")
    ho, value, restrict, rep, gamma = h.ho, pre.value, pre.restrict, h.rep, h.gamma
    kept = {z: tuple(sorted(s for s in value[z] if all(
        restrict[f][s] == restrict[rep[gamma[f]]][s] for f in h.base.arrows_into(z))))
        for z in ho.objects}
    return SetPresheaf(ho, kept, {q: {s: restrict[rep[q]][s] for s in kept[ho.cod[q]]}
                                  for q in ho.morphisms})
