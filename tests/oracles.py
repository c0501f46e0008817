"""Independent brute-force oracles the implementations are checked against.

These deliberately stay naive: full product enumerations filtered by the
defining condition, with none of the propagation or minimal-sieve shortcuts
the package itself uses. The Kan extensions along gamma are computed here by
their generic formulas, the end and the coend, against which the package's
closed forms are checked up to isomorphism. The sieve lattice, saturation
and the tau-iso test are computed here by subset enumeration, closure
rules over the whole lattice and double sheafification, against which the
package's least-cover forms are checked for equality. A sieve on the
homotopy category covers here when the gamma-pullback of its inclusion is
a tau-local isomorphism, against which the package's closed form (the
sieve holds the bracket of the base least cover) is checked. The sheaf
condition is decided here by comparing the string keys of the canonical
families with those of every matching family, against which the package's
tuple-and-count test is checked. Associativity of a partial composition
table is decided here by a rescan of every triple, against which the
random-site generator's per-slot check is checked at every node of its
search. The connected components of the homotopy edges are computed here,
against which the fibres of gamma are checked. Two searches keep their old
shape here as order oracles: the hom search branching per object over whole
component tables, against which the per-section search is checked for the
same sequence, and the reservoir drawing by ``rng.randint``, against which
the inlined draw is checked for the same samples and the same rng state.
"""
from __future__ import annotations

from itertools import combinations, product

from hosite import (
    Classification,
    GrothendieckTopology,
    PresheafMorphism,
    SetPresheaf,
    Sieve,
    TauIsoResult,
    classify_presheaf,
    componentwise_bijection,
    gamma_star,
    gamma_star_morphism,
    generate_sieve,
    hom_presheaves,
    is_tau_iso,
    maximal_sieve,
    minimal_cover,
    pullback_sieve,
    sheafify_morphism,
    sieve_inclusion,
    yoneda,
)
from hosite.enumeration import _build
from hosite.homotopy import HomotopyCategoryData
from hosite.sheafify import _family_dicts, canonical_family, family_key
from hosite.sieves import sieve_plan
from hosite.util import UnionFind, backtrack


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


def iter_hom_by_object(u, f):
    """The natural transformations u -> f by one ``backtrack`` over the
    objects in declaration order, each taking whole component tables in
    ``product`` order, naturality checked once both endpoints are set."""
    cat = u.cat
    objs = cat.objects
    oidx = {o: i for i, o in enumerate(objs)}
    checks: list[list[tuple]] = [[] for _ in objs]
    for m in cat.morphisms:
        if not cat.is_identity(m):
            v, x = cat.dom[m], cat.cod[m]
            checks[max(oidx[v], oidx[x])].append((v, x, u.restrict[m], f.restrict[m], u.value[x]))
    comps: dict[str, dict[str, str]] = {}
    components = [[dict(zip(u.value[o], c)) for c in product(f.value[o], repeat=len(u.value[o]))]
                  for o in objs]

    def ok(i: int) -> bool:
        for v, x, ru, rf, sections in checks[i]:
            cv, cx = comps[v], comps[x]
            for s in sections:
                if cv[ru[s]] != rf[cx[s]]:
                    return False
        return True

    for found in backtrack(objs, components.__getitem__, ok, comps):
        yield PresheafMorphism(u, f, {o: dict(c) for o, c in found.items()})


def reservoir_by_randint(walk, k, rng, sample):
    """The reservoir with its draw as the call ``rng.randint(0, i)``."""
    for i, item in enumerate(walk):
        if i < k:
            sample.append(_build(item))
        else:
            j = rng.randint(0, i)
            if j < k:
                sample[j] = _build(item)
        yield item


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


def is_bracket_cover_by_iso(h: HomotopyCategoryData, top: GrothendieckTopology,
                            u: Sieve) -> bool:
    """True iff the inclusion of u into the representable on its root, pulled
    back along gamma, is a local isomorphism for the base topology."""
    return bool(is_tau_iso(gamma_star_morphism(h, sieve_inclusion(h.ho, u)), top))


def sheaf_condition_by_families(pre: SetPresheaf, top: GrothendieckTopology):
    """Per object with its minimal covering sieve, skipping maximal ones:
    (x, sieve, injective, bijective) for the canonical map from sections of
    x to matching families over the sieve.

    The canonical map to families over the maximal sieve is always a
    bijection, injectivity at the minimal sieve implies injectivity at every
    larger cover, and bijectivity at the minimal sieves plus separatedness
    gives the full sheaf condition, so the minimal sieves decide the
    classification for every cover at once.
    """
    for x in top.base.objects:
        smin = minimal_cover(top, x)
        if smin.members == frozenset(top.base.arrows_into(x)):
            continue
        keys = {family_key(canonical_family(pre, smin, s)) for s in pre.value[x]}
        injective = len(keys) == len(pre.value[x])
        yield x, smin, injective, injective and keys == {
            family_key(f) for f in _family_dicts(pre, sieve_plan(top.base, smin))}


def classify_by_families(pre: SetPresheaf, top: GrothendieckTopology) -> Classification:
    """classify_presheaf, read off sheaf_condition_by_families."""
    first_nonbij = None
    for x, smin, injective, bijective in sheaf_condition_by_families(pre, top):
        if not injective:
            return Classification("not-separated", first_nonbij or (x, smin))
        if not bijective and first_nonbij is None:
            first_nonbij = (x, smin)
    if first_nonbij is not None:
        return Classification("separated-not-sheaf", first_nonbij)
    return Classification("sheaf")


def associative_so_far(table, pairs, names) -> bool:
    """No triple (h, g, f) of arrows disagrees where all four composites it
    reads are set: h∘(g∘f) against (h∘g)∘f. ``pairs`` are the composable
    pairs of non-identity arrows; ``table`` also holds the identity
    composites."""
    for h, g in pairs:
        hg = table.get((h, g))
        if hg is None:
            continue
        for f in names:
            gf = table.get((g, f))
            if gf is not None:
                left = table.get((h, gf))
                if left is not None and left != table.get((hg, f), left):
                    return False
    return True


def pi0(vertices, edges) -> tuple[tuple[str, ...], ...]:
    """Connected components of a reflexive graph (zig-zag closure)."""
    verts = sorted(set(vertices))
    vset = set(verts)
    uf = UnionFind(verts)
    for a, b in edges:
        if a not in vset or b not in vset:
            raise ValueError(f"edge endpoint is not a vertex: {a if a not in vset else b}")
        uf.union(a, b)
    return tuple(tuple(members) for _, members in sorted(uf.classes().items()))
