"""Matching families, the plus-construction, and sheafification.

Everything here reads the topology through its least covers
(``minimal_cover``). The plus-construction is the filtered colimit, over
covering sieves ordered by reverse inclusion, of matching families; that
poset has the least cover as its maximum, so the colimit is computed there:
classes are named by their restriction to it and compared literally.
``plus_construction_via_colimit`` keeps the general construction alive as
an independent oracle. ``is_tau_iso`` is the local-isomorphism test: m: F -> G
sheafifies to an iso iff, with J the least cover of each x, every G(f)t for
t in G(x), f in J lies in the image of m, and sections of F(x) with the same
image agree along every f in J. Its witness is the first object, in
declaration order, where either check fails.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import PresheafMorphism, SetPresheaf, compose_morphisms
from .sieves import GrothendieckTopology, Sieve, minimal_cover, pullback_sieve
from .util import UnionFind


@dataclass(frozen=True)
class MatchingFamily:
    """A compatible assignment of sections over the members of a sieve."""

    sieve: Sieve
    assignment: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)


def _family_dicts(pre: SetPresheaf, s: Sieve) -> list[dict[str, str]]:
    """All compatible families over s, enumerated by backtracking."""
    cat = pre.cat
    members = sorted(s.members)
    idx = {m: i for i, m in enumerate(members)}
    triggers: list[list[tuple[str, str, str]]] = [[] for _ in members]
    for f in members:
        for g in cat.arrows_into(cat.dom[f]):
            if cat.is_identity(g):
                continue
            fg = cat.compose(f, g)
            triggers[max(idx[f], idx[fg])].append((f, g, fg))

    out: list[dict[str, str]] = []
    cur: dict[str, str] = {}

    def rec(i: int):
        if i == len(members):
            out.append(dict(cur))
            return
        m = members[i]
        for e in pre.value[cat.dom[m]]:
            cur[m] = e
            if all(pre.restrict[g][cur[f]] == cur[fg] for f, g, fg in triggers[i]):
                rec(i + 1)
        cur.pop(m, None)

    rec(0)
    return out


def family_key(fam: dict[str, str]) -> str:
    return "{" + ",".join(f"{m}:{e}" for m, e in sorted(fam.items())) + "}"


def matching_families(pre: SetPresheaf, s: Sieve) -> tuple[MatchingFamily, ...]:
    """All matching families for the presheaf over the sieve."""
    if s.root not in set(pre.cat.objects):
        raise ValueError(f"unknown object id: {s.root}")
    fams = _family_dicts(pre, s)
    return tuple(MatchingFamily(s, tuple(sorted(f.items()))) for f in fams)


def canonical_family(pre: SetPresheaf, s: Sieve, section: str) -> dict[str, str]:
    """The family induced by restricting a section along every member."""
    return {f: pre.restrict[f][section] for f in s.members}


@dataclass(frozen=True)
class Classification:
    kind: str  # sheaf | separated-not-sheaf | not-separated
    witness: tuple[str, Sieve] | None = None

    @property
    def is_sheaf(self) -> bool:
        return self.kind == "sheaf"

    @property
    def is_separated(self) -> bool:
        return self.kind != "not-separated"


def _sheaf_condition(pre: SetPresheaf, top: GrothendieckTopology):
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
            family_key(f) for f in _family_dicts(pre, smin)}


def classify_presheaf(pre: SetPresheaf, top: GrothendieckTopology) -> Classification:
    """Sheaf / separated-not-sheaf / not-separated, with a witnessing cover."""
    first_nonbij: tuple[str, Sieve] | None = None
    for x, smin, injective, bijective in _sheaf_condition(pre, top):
        if not injective:
            return Classification("not-separated", first_nonbij or (x, smin))
        if not bijective and first_nonbij is None:
            first_nonbij = (x, smin)
    if first_nonbij is not None:
        return Classification("separated-not-sheaf", first_nonbij)
    return Classification("sheaf")


def is_sheaf(pre: SetPresheaf, top: GrothendieckTopology) -> bool:
    return all(bijective for _, _, _, bijective in _sheaf_condition(pre, top))


@dataclass(frozen=True)
class _PlusData:
    presheaf: SetPresheaf
    unit: PresheafMorphism
    families: dict[str, dict[str, dict[str, str]]]  # object -> element id -> family
    minimal: dict[str, Sieve]


def _plus(pre: SetPresheaf, top: GrothendieckTopology) -> _PlusData:
    cat = pre.cat
    minimal = {x: minimal_cover(top, x) for x in cat.objects}
    families: dict[str, dict[str, dict[str, str]]] = {}
    value: dict[str, tuple[str, ...]] = {}
    for x in cat.objects:
        fams = {family_key(f): f for f in _family_dicts(pre, minimal[x])}
        families[x] = fams
        value[x] = tuple(sorted(fams))
    restrict: dict[str, dict[str, str]] = {}
    for h in cat.morphisms:
        y, x = cat.dom[h], cat.cod[h]
        if cat.is_identity(h):
            restrict[h] = {e: e for e in value[x]}
            continue
        table = {}
        for e, fam in families[x].items():
            # minimal(y) is contained in the pullback of minimal(x) along h
            table[e] = family_key({g: fam[cat.compose(h, g)] for g in minimal[y].members})
        restrict[h] = table
    plus = SetPresheaf(cat, value, restrict)
    unit = PresheafMorphism(pre, plus, {
        x: {s: family_key(canonical_family(pre, minimal[x], s)) for s in pre.value[x]}
        for x in cat.objects
    })
    return _PlusData(plus, unit, families, minimal)


def _plus_morphism(m: PresheafMorphism, src: _PlusData, tgt: _PlusData) -> PresheafMorphism:
    cat = m.source.cat
    comps = {}
    for x in cat.objects:
        table = {}
        for e, fam in src.families[x].items():
            table[e] = family_key({f: m.components[cat.dom[f]][s] for f, s in fam.items()})
        comps[x] = table
    return PresheafMorphism(src.presheaf, tgt.presheaf, comps)


def plus_construction(pre: SetPresheaf, top: GrothendieckTopology) -> SetPresheaf:
    """One application of the plus-construction."""
    return _plus(pre, top).presheaf


@dataclass(frozen=True)
class SheafificationResult:
    sheaf: SetPresheaf
    unit: PresheafMorphism


def sheafify(pre: SetPresheaf, top: GrothendieckTopology) -> SheafificationResult:
    """Double plus with the composite unit. Always applied twice: idempotence
    makes the uniform code path harmless on presheaves that are already
    sheaves."""
    d1 = _plus(pre, top)
    d2 = _plus(d1.presheaf, top)
    return SheafificationResult(d2.presheaf, compose_morphisms(d2.unit, d1.unit))


def sheafify_morphism(m: PresheafMorphism, top: GrothendieckTopology) -> PresheafMorphism:
    """Transport a presheaf morphism through both plus steps."""
    s1, t1 = _plus(m.source, top), _plus(m.target, top)
    m1 = _plus_morphism(m, s1, t1)
    s2, t2 = _plus(s1.presheaf, top), _plus(t1.presheaf, top)
    return _plus_morphism(m1, s2, t2)


@dataclass(frozen=True)
class TauIsoResult:
    ok: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_tau_iso(m: PresheafMorphism, top: GrothendieckTopology) -> TauIsoResult:
    """True iff the morphism becomes a componentwise bijection after
    sheafification, i.e. is locally surjective and locally injective."""
    cat, src, tgt = m.source.cat, m.source, m.target
    image = {o: set(m.components[o].values()) for o in cat.objects}
    for x in cat.objects:
        cover = minimal_cover(top, x).members
        if any(tgt.restrict[f][t] not in image[cat.dom[f]]
               for t in tgt.value[x] for f in cover):
            return TauIsoResult(False, x)
        fibres: dict[str, list[str]] = {}
        for s in src.value[x]:
            fibres.setdefault(m.components[x][s], []).append(s)
        if any(src.restrict[f][s] != src.restrict[f][same[0]]
               for same in fibres.values() for s in same[1:] for f in cover):
            return TauIsoResult(False, x)
    return TauIsoResult(True)


def plus_construction_via_colimit(pre: SetPresheaf, top: GrothendieckTopology) -> SetPresheaf:
    """Oracle: the plus-construction as the literal filtered colimit.

    Enumerates (sieve, family) pairs over every covering sieve, identifies
    two pairs when they agree on a common covering refinement, and only then
    names each class by its restriction to the minimal sieve. Must agree
    with plus_construction on the nose; raises if the class structure does
    not biject with the minimal-sieve families.
    """
    cat = pre.cat
    minimal = {x: minimal_cover(top, x) for x in cat.objects}
    class_of: dict[str, dict[tuple[Sieve, str], str]] = {}
    value: dict[str, tuple[str, ...]] = {}
    pair_fams: dict[str, dict[tuple[Sieve, str], dict[str, str]]] = {}
    for x in cat.objects:
        pairs = {}
        for s in sorted(top.covers[x], key=Sieve.sort_key):
            for fam in _family_dicts(pre, s):
                pairs[(s, family_key(fam))] = fam
        uf = UnionFind(pairs)
        keys = sorted(pairs, key=lambda k: (k[0].sort_key(), k[1]))
        for i, ka in enumerate(keys):
            sa, fa = ka[0], pairs[ka]
            for kb in keys[i + 1:]:
                sb, fb = kb[0], pairs[kb]
                common = sa.members & sb.members
                for r in top.covers[x]:
                    if r.members <= common and all(fa[f] == fb[f] for f in r.members):
                        uf.union(ka, kb)
                        break
        names = {}
        for root, members in uf.classes().items():
            restr = {family_key({f: pairs[k][f] for f in minimal[x].members}) for k in members}
            if len(restr) != 1:
                raise ValueError(f"colimit class on {x} has inconsistent minimal restrictions")
            name = restr.pop()
            if name in names.values():
                raise ValueError(f"two colimit classes on {x} share a minimal restriction")
            for k in members:
                names[k] = name
        class_of[x] = names
        pair_fams[x] = pairs
        expected = {family_key(f) for f in _family_dicts(pre, minimal[x])}
        if set(names.values()) != expected:
            raise ValueError(f"colimit classes on {x} do not exhaust the minimal-sieve families")
        value[x] = tuple(sorted(set(names.values())))
    restrict: dict[str, dict[str, str]] = {}
    for h in cat.morphisms:
        y, x = cat.dom[h], cat.cod[h]
        table: dict[str, str] = {}
        for (s, _), fam in pair_fams[x].items():
            name = class_of[x][(s, family_key(fam))]
            ps = pullback_sieve(cat, h, s)
            pfam = {g: fam[cat.compose(h, g)] for g in ps.members}
            # ps is covering by stability and pfam inherits compatibility,
            # so the pair was enumerated
            target = class_of[y][(ps, family_key(pfam))]
            if name in table and table[name] != target:
                raise ValueError(f"colimit restriction along {h} is not well defined")
            table[name] = target
        restrict[h] = table
    return SetPresheaf(cat, value, restrict)
