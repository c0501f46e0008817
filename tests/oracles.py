"""Independent brute-force oracles the implementations are checked against.

These deliberately stay naive: full product enumerations filtered by the
defining condition, with none of the propagation or minimal-sieve shortcuts
the package itself uses. The Kan extensions along gamma are computed here by
their generic formulas, the end and the coend, against which the package's
closed forms are checked up to isomorphism. The sieve lattice, saturation
and the tau-iso test are computed here by subset enumeration, closure
rules over the whole lattice and double sheafification, against which the
package's least-cover forms are checked for equality.
"""
from __future__ import annotations

from itertools import combinations, product

from hosite import (
    GrothendieckTopology,
    PresheafMorphism,
    SetPresheaf,
    Sieve,
    TauIsoResult,
    classify_presheaf,
    componentwise_bijection,
    gamma_star,
    generate_sieve,
    hom_presheaves,
    maximal_sieve,
    pullback_sieve,
    sheafify_morphism,
    yoneda,
)
from hosite.homotopy import HomotopyCategoryData
from hosite.util import UnionFind


def hom_product_filter(u, f):
    """All natural transformations u -> f, by filtering the full product of
    component-function families."""
    cat = u.cat
    objs = cat.objects
    spaces = []
    for o in objs:
        src, tgt = u.value[o], f.value[o]
        funcs = [dict(zip(src, choice)) for choice in product(tgt, repeat=len(src))]
        spaces.append(funcs)
    found = []
    for combo in product(*spaces):
        comps = dict(zip(objs, combo))
        natural = True
        for m in cat.morphisms:
            v, x = cat.dom[m], cat.cod[m]
            for s in u.value[x]:
                if comps[v][u.restrict[m][s]] != f.restrict[m][comps[x][s]]:
                    natural = False
                    break
            if not natural:
                break
        if natural:
            found.append(PresheafMorphism(u, f, comps))
    return found


def matching_families_product(pre, sieve):
    """All compatible families over the sieve, by filtering the full product."""
    cat = pre.cat
    members = sorted(sieve.members)
    out = []
    for choice in product(*[pre.value[cat.dom[m]] for m in members]):
        fam = dict(zip(members, choice))
        compatible = True
        for f in members:
            for g in cat.arrows_into(cat.dom[f]):
                if pre.restrict[g][fam[f]] != fam[cat.compose(f, g)]:
                    compatible = False
                    break
            if not compatible:
                break
        if compatible:
            out.append(fam)
    return out


def classify_all_covers(pre, top):
    """Classification computed over every covering sieve, not only the
    minimal ones; must agree with classify_presheaf."""
    first_nonbij = None
    for x in top.base.objects:
        for s in top.covers_of(x):
            fams = {tuple(sorted(f.items())) for f in matching_families_product(pre, s)}
            keys = [tuple(sorted((m, pre.restrict[m][sec]) for m in s.members))
                    for sec in pre.value[x]]
            if len(set(keys)) != len(keys):
                return "not-separated"
            if set(keys) != fams and first_nonbij is None:
                first_nonbij = (x, s)
    return "separated-not-sheaf" if first_nonbij else "sheaf"


def assert_classification_agrees(pre, top):
    assert classify_all_covers(pre, top) == classify_presheaf(pre, top).kind


def _shriek_tables(h: HomotopyCategoryData, pre: SetPresheaf):
    """Per object of the quotient: the coend classes of (object, section,
    quotient-morphism) triples and the canonical representative of each."""
    base, ho, gamma = h.base, h.ho, h.gamma
    tables = {}
    for z in ho.objects:
        triples = [
            (w, s, v)
            for w in base.objects
            for s in pre.value[w]
            for v in ho.hom(z, w)
        ]
        uf = UnionFind(triples)
        for u in base.morphisms:
            if base.is_identity(u):
                continue
            w2, w = base.dom[u], base.cod[u]
            gu = gamma[u]
            for s in pre.value[w]:
                s2 = pre.restrict[u][s]
                for v2 in ho.hom(z, w2):
                    uf.union((w2, s2, v2), (w, s, ho.compose(gu, v2)))
        rep = {}
        for root, members in uf.classes().items():
            for t in members:
                rep[t] = root
        tables[z] = rep
    return tables


def _triple_id(t: tuple[str, str, str]) -> str:
    return "({},{},{})".format(*t)


def gamma_shriek_coend(h: HomotopyCategoryData, pre: SetPresheaf) -> SetPresheaf:
    """Left Kan extension along gamma, computed as a coend: triples
    (W, s, v: Z -> W) modulo (F(u)(s), v) ~ (s, gamma(u)∘v)."""
    if pre.cat != h.base:
        raise ValueError("presheaf does not live over the base category")
    ho = h.ho
    tables = _shriek_tables(h, pre)
    value = {z: tuple(sorted({_triple_id(r) for r in tables[z].values()})) for z in ho.objects}
    restrict: dict[str, dict[str, str]] = {}
    for w in ho.morphisms:
        z2, z = ho.dom[w], ho.cod[w]
        restrict[w] = {
            _triple_id(r): _triple_id(tables[z2][(r[0], r[1], ho.compose(r[2], w))])
            for r in set(tables[z].values())
        }
    return SetPresheaf(ho, value, restrict)


def nt_key(m: PresheafMorphism) -> str:
    """Canonical id for a natural transformation."""
    parts = []
    for o in m.source.cat.objects:
        inner = ",".join(f"{u}->{t}" for u, t in sorted(m.components[o].items()))
        parts.append(f"{o}:{inner}")
    return "{" + ";".join(parts) + "}"


def gamma_lower_star_end(h: HomotopyCategoryData, pre: SetPresheaf) -> SetPresheaf:
    """Right Kan extension along gamma, computed as the end: sections over Z
    are the natural transformations gamma^*(y(Z)) -> F."""
    if pre.cat != h.base:
        raise ValueError("presheaf does not live over the base category")
    ho = h.ho
    sections: dict[str, dict[str, PresheafMorphism]] = {}
    for z in ho.objects:
        nts = hom_presheaves(gamma_star(h, yoneda(ho, z)), pre)
        sections[z] = {nt_key(t): t for t in nts}
    value = {z: tuple(sorted(sections[z])) for z in ho.objects}
    restrict: dict[str, dict[str, str]] = {}
    for w in ho.morphisms:
        z2, z = ho.dom[w], ho.cod[w]
        table = {}
        for key, t in sections[z].items():
            comps = {
                v: {u: t.components[v][ho.compose(w, u)] for u in ho.hom(v, z2)}
                for v in ho.objects
            }
            moved = PresheafMorphism(gamma_star(h, yoneda(ho, z2)), pre, comps)
            table[key] = nt_key(moved)
        restrict[w] = table
    return SetPresheaf(ho, value, restrict)


def isomorphic(f, g):
    """Whether some natural transformation f -> g is a bijection in every
    component."""
    if any(len(f.value[o]) != len(g.value[o]) for o in f.cat.objects):
        return False
    return any(componentwise_bijection(m)[0] for m in hom_presheaves(f, g))


def all_sieves_by_subsets(cat, x: str) -> tuple[Sieve, ...]:
    """The full sieve lattice on x, ordered by (size, members)."""
    arrows = sorted(cat.arrows_into(x))
    if len(arrows) > 16:
        raise ValueError("sieve lattice too large to enumerate")
    out = []
    for r in range(len(arrows) + 1):
        for sub in combinations(arrows, r):
            chosen = set(sub)
            if all(cat.compose(f, g) in chosen
                   for f in chosen for g in cat.arrows_into(cat.dom[f])):
                out.append(Sieve(x, frozenset(chosen)))
    out.sort(key=Sieve.sort_key)
    return tuple(out)


def saturate_by_closure(cat, generating) -> GrothendieckTopology:
    """Smallest topology whose covers include the sieves generated per object.

    ``generating`` maps object -> iterable of generator families (morphism
    name lists). Runs the closure rules (maximal sieves, base-change
    stability, local character) round-robin to a fixpoint; the sieve lattice
    is finite, so this terminates.
    """
    objset = set(cat.objects)
    for x in generating:
        if x not in objset:
            raise ValueError(f"unknown object id: {x}")
    covers: dict[str, set[Sieve]] = {o: set() for o in cat.objects}
    for x, families in generating.items():
        for family in families:
            covers[x].add(generate_sieve(cat, x, family))
    for o in cat.objects:
        covers[o].add(maximal_sieve(cat, o))
    lattice = {o: all_sieves_by_subsets(cat, o) for o in cat.objects}
    changed = True
    while changed:
        changed = False
        for x in cat.objects:
            for s in sorted(covers[x], key=Sieve.sort_key):
                for h in cat.arrows_into(x):
                    p = pullback_sieve(cat, h, s)
                    if p not in covers[cat.dom[h]]:
                        covers[cat.dom[h]].add(p)
                        changed = True
        for x in cat.objects:
            for t in lattice[x]:
                if t in covers[x]:
                    continue
                for s in sorted(covers[x], key=Sieve.sort_key):
                    if all(pullback_sieve(cat, f, t) in covers[cat.dom[f]] for f in s.members):
                        covers[x].add(t)
                        changed = True
                        break
    return GrothendieckTopology(cat, {o: frozenset(v) for o, v in covers.items()})


def is_tau_iso_by_sheafification(m: PresheafMorphism, top) -> TauIsoResult:
    """True iff the morphism becomes a componentwise bijection after
    sheafification; on failure reports the first object where it breaks."""
    sheafified = sheafify_morphism(m, top)
    ok, witness = componentwise_bijection(sheafified)
    return TauIsoResult(ok, witness)
