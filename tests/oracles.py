"""Independent brute-force oracles the implementations are checked against.

These deliberately stay naive: full product enumerations filtered by the
defining condition, with none of the propagation or minimal-sieve shortcuts
the package itself uses. The Kan extensions along gamma are computed here by
their generic formulas, the end and the coend, against which the package's
closed forms are checked up to isomorphism. The sieve lattice, saturation
and the tau-iso test are computed here by subset enumeration, closure
rules over the whole lattice and double sheafification, against which the
package's least-cover forms are checked for equality. The topology laws are
checked here on explicit cover sets, scanning every sieve lattice, against
which the package's closed-form check on least covers is checked for the
same verdict; the least cover of a cover set is its intersection here. A
sieve on the homotopy category covers here when the gamma-pullback of its
inclusion is a tau-local isomorphism, against which the package's closed
form (the sieve holds the bracket of the base least cover) is checked. The
thickening calculus is checked here on every pair of base covers, against
which the package's one pass grouping the covers by bracket is checked for
the same result under the real thickening and under broken ones. The sheaf
condition is decided here by comparing the string keys of the canonical
families with those of every matching family, against which the package's
tuple-and-count test is checked. The plus-construction names every family
here by its string key wherever it meets one, on restriction maps, units
and transported morphisms, against which the package's one name per family,
read through an index, is checked for the same presheaves and morphisms,
key order included. Associativity of a partial composition
table is decided here by a rescan of every triple, against which the
random-site generator's per-slot check is checked at every node of its
search. The connected components of the homotopy edges are computed here,
against which the fibres of gamma are checked. Four searches keep their
old shape here as order oracles: the hom search branching per object over
whole component tables, against which the per-section search is checked for
the same sequence; the presheaf walk setting every slot and yielding one
leaf at a time, against which the walk in blocks, expanded, is checked for
the same leaves, maps in the same order, and verdicts; the reservoir drawing
by ``rng.randint`` leaf by leaf, against which the inlined draw per block
is checked for the same samples and the same rng state;
the random-site composite search on a table keyed by arrow names,
against which the search on integer codes is checked for the same table,
node count and rng state; lemma groups (b)/(c) classifying every
quotient leaf and its gamma pullback with ``classify_presheaf``, against
which the walk deciding both sides' sheaf tests is checked for the same
first violation, witness, case count, sample and rng state; and a suite's
two walks, one per category (the quotient walk deciding (b)/(c) with
gamma^*P read through gamma, the base walk deciding the sheaves and the
engine sample), against which the one walk of the base, reading the
quotient's presheaves off its gamma-constant leaves, is checked for the
same results, samples, rng states and sheaf sequence.

The naturality check on presheaf morphisms, the constant and empty
presheaves, identity morphisms and sieve inclusions are test helpers kept
here rather than package API: nothing in the package calls them.
"""
from __future__ import annotations

from functools import partial
from itertools import combinations, product
from operator import itemgetter
from random import Random

import hosite.induced as induced
from hosite import (
    CheckResult,
    Classification,
    GrothendieckTopology,
    PresheafMorphism,
    SetPresheaf,
    Sieve,
    TauIsoResult,
    ValidationReport,
    classify_presheaf,
    compose_morphisms,
    componentwise_bijection,
    format_sieve,
    gamma_star,
    gamma_star_morphism,
    generate_sieve,
    hom_presheaves,
    is_tau_iso,
    matching_families,
    maximal_sieve,
    minimal_cover,
    pullback_sieve,
    sheafify_morphism,
    sieve_presheaf,
    validate_sieve,
    yoneda,
)
from hosite.core import PASS, _fail
from hosite.enumeration import LABELS, _build, leaves, reservoir, walk_flags
from hosite.homotopy import HomotopyCategoryData
from hosite.randomsites import _NODE_BUDGET
from hosite.sheafify import KINDS, NOT_SEPARATED, NOT_SHEAF, _family_dicts, family_key, sheaf_tests
from hosite.sieves import _inclusion, sieve_plan
from hosite.util import UnionFind, backtrack


def constant_presheaf(cat, elements) -> SetPresheaf:
    elems = tuple(sorted(elements))
    return SetPresheaf(
        cat,
        {o: elems for o in cat.objects},
        {m: {s: s for s in elems} for m in cat.morphisms},
    )


def empty_presheaf(cat) -> SetPresheaf:
    return SetPresheaf(cat, {o: () for o in cat.objects}, {m: {} for m in cat.morphisms})


def identity_morphism(pre: SetPresheaf) -> PresheafMorphism:
    return PresheafMorphism(pre, pre, {o: {s: s for s in pre.value[o]} for o in pre.cat.objects})


def sieve_inclusion(cat, s: Sieve) -> PresheafMorphism:
    return _inclusion(sieve_presheaf(cat, s), yoneda(cat, s.root))


def validate_presheaf_morphism(m: PresheafMorphism) -> ValidationReport:
    """Components total into the target, and every naturality square commutes."""
    if m.source.cat != m.target.cat:
        return ValidationReport(False, "structure", (), "source and target live over different categories")
    cat = m.source.cat
    if set(m.components) != set(cat.objects):
        return ValidationReport(False, "structure", (), "components do not cover the objects")
    for o in cat.objects:
        comp = m.components[o]
        if set(comp) != set(m.source.value[o]) or not set(comp.values()) <= set(m.target.value[o]):
            return ValidationReport(False, "structure", (o,),
                                    f"component at {o} is not a total map into the target value")
    for f in cat.morphisms:
        v, x = cat.dom[f], cat.cod[f]
        for s in m.source.value[x]:
            if m.components[v][m.source.restrict[f][s]] != m.target.restrict[f][m.components[x][s]]:
                return ValidationReport(False, "naturality", (f, s), f"square for {f} fails at {s}")
    return ValidationReport(True)


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


def walk_by_leaf(cat, max_card, top=None):
    """The presheaf walk yielding one (pre, sheaf) leaf at a time: per size
    vector, one ``backtrack`` over every non-identity map, its last slot
    included, each contravariance constraint and sheaf test checked at the
    slot that sets the last map it reads."""
    objs = cat.objects
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    midx = {m: i for i, m in enumerate(nonid)}
    triggers: list[list] = [[] for _ in nonid]
    for g in nonid:
        for f in nonid:
            if cat.composable(g, f):
                gf = cat.composition[(g, f)]
                triggers[max(midx[g], midx[f], midx.get(gf, -1))].append((g, f, gf))
    tests: list[list] = [[] for _ in nonid]
    per_vector: list = []
    for reads, test, _ in sheaf_tests(top) if top is not None else ():
        slot = max((midx[m] for m in reads), default=-1)
        (tests[slot] if slot >= 0 else per_vector).append(test)

    for sizes in product(range(max_card + 1), repeat=len(objs)):
        value = {o: tuple(LABELS[:k]) for o, k in zip(objs, sizes)}
        tables = []
        for m in nonid:
            src = value[cat.cod[m]]
            tables.append([dict(zip(src, c)) for c in product(value[cat.dom[m]], repeat=len(src))])
        checks = [[(g, f, gf, value[cat.cod[g]]) for g, f, gf in t] for t in triggers]
        assigned = {cat.identity[o]: {s: s for s in value[o]} for o in objs}
        pre = SetPresheaf(cat, value, assigned)
        sheaf = None if top is None else all(test(pre) for test in per_vector)
        verdict = [sheaf] * len(nonid)

        def ok(i):
            for g, f, gf, sections in checks[i]:
                rg, rf, rgf = assigned[g], assigned[f], assigned[gf]
                for s in sections:
                    if rgf[s] != rf[rg[s]]:
                        return False
            above = verdict[i - 1] if i else sheaf
            if above and tests[i]:
                above = all(test(pre) for test in tests[i])
            verdict[i] = above
            return True

        for _ in backtrack(nonid, tables.__getitem__, ok, assigned):
            yield pre, verdict[-1] if nonid else sheaf


def walk_blocks(cat, max_card, top=None):
    """``walk_flags`` under ``top``'s sheaf tests as one flag, each block's
    flags read as its sheaf verdict (None without a topology): the base walk
    as a suite ran it beside a second walk of the quotient."""
    tests = () if top is None else [(reads, test, NOT_SHEAF) for reads, test, _ in sheaf_tests(top)]
    for pre, flags, last, values in walk_flags(cat, max_card, tests):
        yield pre, None if top is None else not flags, last, values


def reservoir_by_randint(walk, k, rng, sample):
    """The per-leaf reservoir with its draw as the call ``rng.randint(0, i)``."""
    def build(pre):
        return SetPresheaf(pre.cat, pre.value, dict(pre.restrict))

    for i, item in enumerate(walk):
        if i < k:
            sample.append(build(item[0]))
        else:
            j = rng.randint(0, i)
            if j < k:
                sample[j] = build(item[0])
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


def saturate_by_closure(cat, generating) -> dict[str, frozenset[Sieve]]:
    """Smallest topology whose covers include the sieves generated per object.

    ``generating`` maps object -> iterable of generator families (morphism
    name lists). Runs the closure rules (maximal sieves, base-change
    stability, local character) round-robin to a fixpoint; the sieve lattice
    is finite, so this terminates. Returns the cover sets per object.
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
    return {o: frozenset(v) for o, v in covers.items()}


def validate_cover_sets(cat, covers) -> ValidationReport:
    """The topology laws on explicit cover sets, ``covers`` mapping object ->
    set of sieves: maximality, base-change stability, and local character
    scanned over the whole sieve lattice, trying only non-maximal covers as
    witnesses (a maximal one pulls t back along id_x to t)."""
    def covers_of(x):
        return sorted(covers.get(x, frozenset()), key=Sieve.sort_key)

    if not set(covers) <= set(cat.objects):
        return _fail("structure", (), "covers filed under an unknown object")
    for x in cat.objects:
        for s in covers_of(x):
            if s.root != x:
                return _fail("structure", (x,), f"sieve rooted at {s.root} filed under {x}")
            rep = validate_sieve(cat, s)
            if not rep:
                return _fail("sieve-invariant", (x,) + rep.witness, rep.detail)
    for x in cat.objects:
        if maximal_sieve(cat, x) not in covers.get(x, frozenset()):
            return _fail("maximality", (x,), f"the maximal sieve on {x} is not covering")
    for x in cat.objects:
        for s in covers_of(x):
            for h in cat.arrows_into(x):
                if pullback_sieve(cat, h, s) not in covers.get(cat.dom[h], frozenset()):
                    return _fail(
                        "stability", (x, format_sieve(cat, s), h),
                        f"pullback of a cover on {x} along {h} is not covering {cat.dom[h]}")
    for x in cat.objects:
        witnesses = [s for s in covers_of(x) if len(s.members) < len(cat.arrows_into(x))]
        for t in all_sieves_by_subsets(cat, x):
            if t in covers.get(x, frozenset()):
                continue
            for s in witnesses:
                if all(pullback_sieve(cat, f, t) in covers.get(cat.dom[f], frozenset())
                       for f in sorted(s.members)):
                    t_, s_ = format_sieve(cat, t), format_sieve(cat, s)
                    return _fail("local-character", (x, t_, s_),
                                 f"sieve {t_} on {x} is locally covering over {s_} but not listed")
    return PASS


def least_covers(cat, covers) -> dict[str, Sieve]:
    """The least cover of each object: the intersection of its covers, which
    must itself be a cover. Raises on an object without covers and on cover
    sets not closed under that intersection."""
    least = {}
    for x in cat.objects:
        sieves = covers.get(x)
        if not sieves:
            raise ValueError(f"no covering sieves on {x}")
        smin = Sieve(x, frozenset.intersection(*(s.members for s in sieves)))
        if smin not in sieves:
            raise ValueError(f"covers of {x} are not closed under intersection; topology invalid")
        least[x] = smin
    return least


def is_tau_iso_by_sheafification(m: PresheafMorphism, top) -> TauIsoResult:
    """True iff the morphism becomes a componentwise bijection after
    sheafification; on failure reports the first object where it breaks."""
    sheafified = sheafify_morphism(m, top)
    ok, witness = componentwise_bijection(sheafified)
    return TauIsoResult(ok, witness)


def implications_by_leaf(h: HomotopyCategoryData, top: GrothendieckTopology,
                         induced_top: GrothendieckTopology, bound: int, rng, sample):
    """Lemma groups (b)/(c) leaf by leaf: each quotient presheaf P and
    gamma_star of it classified with ``classify_presheaf``; the (b) and (c)
    results, from the first implication failure, the first converse witness
    and the leaf count, with the (a) reservoir filled from the same walk."""
    implication_cases = 0
    witness: dict | None = None
    b_fail: CheckResult | None = None
    for pre, _ in leaves(reservoir(walk_blocks(h.ho, bound), 10, rng, sample)):
        pulled = gamma_star(h, pre)
        cls_ho = classify_presheaf(pre, induced_top)
        cls_base = classify_presheaf(pulled, top)
        implication_cases += 1
        bad = None
        if cls_base.is_sheaf and not cls_ho.is_sheaf:
            bad = "base sheaf with non-sheaf original"
        elif cls_base.is_separated and not cls_ho.is_separated:
            bad = "base separated with non-separated original"
        elif cls_ho.is_separated and not cls_base.is_separated:
            bad = "separated original with non-separated pullback"
        if bad and b_fail is None:
            b_fail = CheckResult(
                "sheaf-implications", "fail", bad,
                counterexample={"presheaf": induced._presheaf_payload(pre),
                                "original": cls_ho.kind, "pullback": cls_base.kind})
        if witness is None and cls_ho.is_sheaf and not cls_base.is_sheaf:
            wx, wsieve = cls_base.witness
            witness = {
                "presheaf": induced._presheaf_payload(pre),
                "object": wx,
                "cover": format_sieve(h.base, wsieve),
                "sections": len(pulled.value[wx]),
                "families": len(matching_families(pulled, wsieve)),
            }
    if witness is None:
        found = CheckResult("converse-witness", "pass", "no witness within bounds",
                            data={"found": False})
    else:
        found = CheckResult(
            "converse-witness", "pass",
            f"witness found: sheaf over the quotient, pullback has "
            f"{witness['sections']} sections vs {witness['families']} families",
            data={"found": True, "sections": witness["sections"],
                  "families": witness["families"]},
            counterexample=witness)
    return [b_fail or CheckResult("sheaf-implications", "pass",
                                  f"{implication_cases} presheaves, all implications hold",
                                  data={"cases": implication_cases}), found]


def is_bracket_cover_by_iso(h: HomotopyCategoryData, top: GrothendieckTopology,
                            u: Sieve) -> bool:
    """True iff the inclusion of u into the representable on its root, pulled
    back along gamma, is a local isomorphism for the base topology."""
    return bool(is_tau_iso(gamma_star_morphism(h, sieve_inclusion(h.ho, u)), top))


def thickening_by_pairs(h: HomotopyCategoryData, top: GrothendieckTopology) -> CheckResult:
    """Lemma group (d) by its statement: each cover's thickening checked on
    its own, then every pair of covers whose thickenings differ compared by
    bracket. Reads ``thicken_sieve`` and ``bracket_sieve`` off the module at
    call time, so a patched thickening reaches the oracle too."""
    thicken, bracket = induced.thicken_sieve, induced.bracket_sieve
    cases = 0
    fail: CheckResult | None = None
    for x in h.base.objects:
        covers = top.covers_of(x)
        thickened = {}
        for j in covers:
            cases += 1
            jd = thicken(h, j)
            problems = []
            if not j.members <= jd.members:
                problems.append("thickening lost members")
            if thicken(h, jd) != jd:
                problems.append("thickening is not idempotent")
            if bracket(h, jd) != bracket(h, j):
                problems.append("thickening changed the bracket")
            if not top.is_cover(jd):
                problems.append("thickened sieve is not covering")
            if problems and fail is None:
                fail = CheckResult(
                    "thickening", "fail", "; ".join(problems),
                    counterexample={"object": x, "sieve": format_sieve(h.base, j),
                                    "thickened": format_sieve(h.base, jd)})
            thickened[j] = jd
        for i, j1 in enumerate(covers):
            for j2 in covers[i + 1:]:
                if thickened[j1] != thickened[j2] and \
                        bracket(h, j1) == bracket(h, j2) and fail is None:
                    fail = CheckResult(
                        "thickening", "fail",
                        "distinct thickened sieves share a bracket",
                        counterexample={"object": x,
                                        "first": format_sieve(h.base, j1),
                                        "second": format_sieve(h.base, j2)})
    return fail or CheckResult(
        "thickening", "pass", f"{cases} covers checked", data={"cases": cases})


def canonical_family(pre: SetPresheaf, s: Sieve, section: str) -> dict[str, str]:
    """The family induced by restricting a section along every member."""
    return {f: pre.restrict[f][section] for f in s.members}


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


def plus_by_family_keys(pre: SetPresheaf, top: GrothendieckTopology):
    """The plus-construction naming every family by its string key wherever
    it is met: (P+, unit, object -> name -> family)."""
    cat = pre.cat
    plans = top._cover_plan
    families: dict[str, dict[str, dict[str, str]]] = {}
    value: dict[str, tuple[str, ...]] = {}
    for x in cat.objects:
        fams = {family_key(f): f for f in _family_dicts(pre, plans[x])}
        families[x] = fams
        value[x] = tuple(sorted(fams))
    restrict: dict[str, dict[str, str]] = {}
    for h in cat.morphisms:
        y, x = cat.dom[h], cat.cod[h]
        if cat.is_identity(h):
            restrict[h] = {e: e for e in value[x]}
            continue
        restrict[h] = {e: family_key({g: fam[cat.compose(h, g)] for g in plans[y].members})
                       for e, fam in families[x].items()}
    plus = SetPresheaf(cat, value, restrict)
    unit = PresheafMorphism(pre, plus, {
        x: {s: family_key(canonical_family(pre, plans[x].sieve, s)) for s in pre.value[x]}
        for x in cat.objects
    })
    return plus, unit, families


def plus_morphism_by_family_keys(m: PresheafMorphism, src, tgt) -> PresheafMorphism:
    """m+ between two ``plus_by_family_keys`` results, naming each image
    family by its key."""
    cat = m.source.cat
    comps = {x: {e: family_key({f: m.components[cat.dom[f]][s] for f, s in fam.items()})
                 for e, fam in src[2][x].items()}
             for x in cat.objects}
    return PresheafMorphism(src[0], tgt[0], comps)


def sheafify_by_family_keys(pre: SetPresheaf, top: GrothendieckTopology):
    """(P++, composite unit, (P+ step, P++ step)) by ``plus_by_family_keys``."""
    d1 = plus_by_family_keys(pre, top)
    d2 = plus_by_family_keys(d1[0], top)
    return d2[0], compose_morphisms(d2[1], d1[1]), (d1, d2)


def transport_by_family_keys(m: PresheafMorphism, source, target) -> PresheafMorphism:
    """``transport_morphism`` between two ``sheafify_by_family_keys`` results."""
    m1 = plus_morphism_by_family_keys(m, source[2][0], target[2][0])
    return plus_morphism_by_family_keys(m1, source[2][1], target[2][1])


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


def slot_triples_by_name(pairs, candidates):
    """For each slot i, the triples (h, g, f) whose check can read the
    composite of ``pairs[i]`` while slots 0..i are set, by arrow names: at
    the later slot of (h, g) and (g, f), and at every later slot of (h, c)
    or (c, f) with c a candidate of g∘f or h∘g."""
    index = {p: i for i, p in enumerate(pairs)}
    after: dict[str, list[str]] = {}
    for g, f in pairs:
        after.setdefault(g, []).append(f)
    slots: list[dict] = [{} for _ in pairs]  # ordered sets of triples
    for (h, g), i_hg in index.items():
        for f in after.get(g, ()):
            triple = (h, g, f)
            first = max(i_hg, index[(g, f)])
            slots[first][triple] = None
            later = [index.get((h, c)) for c in candidates[(g, f)]]
            later += [index.get((c, f)) for c in candidates[(h, g)]]
            for j in later:
                if j is not None and j > first:
                    slots[j][triple] = None
    return [tuple(s) for s in slots]


def assign_composites_by_name(rng, objects, arrows):
    """The random-site composite search on a table keyed by ``(g, f)`` name
    pairs: the same pairs, shuffled candidates, per-slot checks and node
    budget, so the same table (or None), node count and rng stream."""
    names = [a[0] for a in arrows]
    dom = {a[0]: a[1] for a in arrows}
    cod = {a[0]: a[2] for a in arrows}

    pairs = [(g, f) for g in names for f in names if cod[f] == dom[g]]
    candidates = {}
    for g, f in pairs:
        cands = [m for m in names if dom[m] == dom[f] and cod[m] == cod[g]]
        if dom[f] == cod[g]:
            cands.append("id_" + dom[f])
        if not cands:
            return None
        rng.shuffle(cands)
        candidates[(g, f)] = cands

    table: dict[tuple[str, str], str] = {}
    for m in names:
        table[(m, "id_" + dom[m])] = table[("id_" + cod[m], m)] = m
    checks = slot_triples_by_name(pairs, candidates)
    get = table.get
    budget = _NODE_BUDGET

    def ok(i: int) -> bool:
        nonlocal budget
        budget -= 1
        if budget <= 0:
            return False
        for h, g, f in checks[i]:
            left = get((h, table[(g, f)]))
            if left is not None and left != get((table[(h, g)], f), left):
                return False
        return True

    for _ in backtrack(pairs, lambda i: candidates[pairs[i]], ok, table):
        return {k: table[k] for k in pairs}
    return None


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


class _AlongGamma:
    """The restriction tables of gamma^*P over a live view of P: f reads P(gamma f)."""

    def __init__(self, restrict, gamma):
        self.restrict, self.gamma = restrict, gamma

    def __getitem__(self, f):
        return self.restrict[self.gamma[f]]


def comparison_walk(h: HomotopyCategoryData, top: GrothendieckTopology,
                    induced_top: GrothendieckTopology, bound: int):
    """A second walk, over the quotient, for lemma groups (b)/(c): flags of P
    under [τ]'s sheaf tests, then, two bits up, of gamma^*P under τ's (one
    view per size vector)."""
    gamma, view = h.gamma, [None, None]

    def on_pullback(pre, test):
        if view[0] is not pre:
            view[:] = pre, SetPresheaf(h.base, pre.value, _AlongGamma(pre.restrict, gamma))
        return test(view[1])
    return walk_flags(h.ho, bound, [*induced.sheaf_tests(induced_top), *(
        ({gamma[m] for m in reads}, partial(on_pullback, test=test), flag << 2)
        for reads, test, flag in induced.sheaf_tests(top))])


def implications_by_quotient_walk(h: HomotopyCategoryData, top: GrothendieckTopology,
                                  induced_top: GrothendieckTopology, bound: int, rng,
                                  sample: list) -> list[CheckResult]:
    """Groups (b) and (c) over the quotient walk, which fills the (a)
    reservoir too; only the first failure and the first witness (cover by
    the classifier on gamma_star of it) are built."""
    cases, b_fail, witness = 0, None, None
    for pre, flags, last, values in reservoir(comparison_walk(h, top, induced_top, bound),
                                              10, rng, sample):
        cases += len(values)
        ho, base = flags & 3, flags >> 2  # KINDS keys of P and of gamma^*P
        if b_fail is None and (ho and not base or (ho ^ base) & NOT_SEPARATED):
            bad = ("base sheaf with non-sheaf original" if not base else
                   "base separated with non-separated original" if ho & NOT_SEPARATED else
                   "separated original with non-separated pullback")
            b_fail = CheckResult(
                "sheaf-implications", "fail", bad,
                counterexample={"presheaf": induced._presheaf_payload(_build(pre, last, values[0])),
                                "original": KINDS[ho], "pullback": KINDS[base]})
        if witness is None and base and not ho:
            pulled = gamma_star(h, leaf := _build(pre, last, values[0]))
            x, cover = classify_presheaf(pulled, top).witness
            found = {"sections": len(pulled.value[x]),
                     "families": len(matching_families(pulled, cover))}
            witness = CheckResult(
                "converse-witness", "pass", f"witness found: sheaf over the quotient, "
                f"pullback has {found['sections']} sections vs {found['families']} families",
                data={"found": True, **found}, counterexample={
                    "presheaf": induced._presheaf_payload(leaf), "object": x,
                    "cover": format_sieve(h.base, cover), **found})
    return [b_fail or CheckResult("sheaf-implications", "pass",
                                  f"{cases} presheaves, all implications hold",
                                  data={"cases": cases}),
            witness or CheckResult("converse-witness", "pass", "no witness within bounds",
                                   data={"found": False})]


def suite_walks_by_two(h: HomotopyCategoryData, top: GrothendieckTopology,
                       induced_top: GrothendieckTopology, bound: int, seed: int,
                       engine_samples: int) -> dict:
    """What a suite read off its two presheaf walks: the quotient walk's
    (b)/(c) results, (a) sample and ``Random(seed)`` state, and the base
    walk's sheaves (as restriction lists, in order), engine sample and
    ``Random(seed + 1)`` state."""
    rng, sample, base_rng, engine = Random(seed), [], Random(seed + 1), []
    implications = implications_by_quotient_walk(h, top, induced_top, bound, rng, sample)
    walk = reservoir(walk_blocks(h.base, bound, top), engine_samples, base_rng, engine)
    sheaves = [list(pre.restrict.items()) for pre, _ in leaves(filter(itemgetter(1), walk))]
    return {"implications": [r.to_dict() for r in implications],
            "sample": presheaf_copies(sample), "rng": rng.getstate(),
            "sheaves": sheaves, "engine": presheaf_copies(engine), "base_rng": base_rng.getstate()}


def presheaf_copies(presheaves) -> list:
    """Each presheaf's category, values and restriction items, key order included."""
    return [(p.cat, p.value, list(p.restrict.items())) for p in presheaves]
