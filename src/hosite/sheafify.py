"""Matching families, the plus-construction, and sheafification.

Everything here reads the topology through its least covers, laid out once
per topology in a cover plan (``SievePlan``). At the least cover J of x,
restriction of P(x) to families over J is tested for injectivity on tuples of
sections; every canonical family matches, so an injective map is onto iff
there are no more matching families than |P(x)| (the count stops past it).
``classify_presheaf`` (which ``is_sheaf`` wraps) reads only a presheaf's
value and restriction tables. ``sheaf_tests`` gives its two halves with the
maps they read and the flag a failure sets, so the presheaf walk decides each
on views over its own tables where its last map is set, and reads the kind
off the flags.
The plus-construction is the filtered colimit, over covering sieves ordered
by reverse inclusion, of matching families; that poset has the least cover as
its maximum, so the colimit is computed there: classes are named by their
restriction to it. Each family over a least cover is named once, by
``family_key``, into an index from its sections (in plan order) to its name;
over a maximal least cover the families are the (P(f)s)_f, listed without a
search. Restriction maps, the unit and transported morphisms read names
through the index, and an image that misses it means the morphism was not
natural. ``plus_construction_via_colimit`` keeps the general construction
alive as an independent oracle, with its own ``family_key`` naming and its
own layout of every cover, built once per topology. ``is_tau_iso`` is the
local-isomorphism test: m: F -> G sheafifies to an iso iff, with J the
least cover of each x, every G(f)t for t in G(x), f in J lies in the image of
m, and sections of F(x) with the same image agree along every f in J. Its
witness is the first object, in declaration order, where either check fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import NamedTuple

from .core import PresheafMorphism, SetPresheaf, compose_morphisms
from .sieves import GrothendieckTopology, Sieve, SievePlan, sieve_plan
from .util import UnionFind, backtrack


@dataclass(frozen=True)
class MatchingFamily:
    """A compatible assignment of sections over the members of a sieve."""

    sieve: Sieve
    assignment: tuple[tuple[str, str], ...]


def _families(pre: SetPresheaf, plan: SievePlan):
    """The matching families over the planned sieve, each once, in the
    backtracking order of ``plan.members``; each is yielded as the same dict
    from member to section, so a caller that keeps one copies it. Of
    ``pre.restrict`` it reads only the maps g of the plan's triggers."""
    value, doms = pre.value, plan.doms
    checks = [[(pre.restrict[g], f, fg) for g, f, fg in t] for t in plan.triggers]
    cur: dict[str, str] = {}

    def ok(i: int) -> bool:
        for r, f, fg in checks[i]:
            if r[cur[f]] != cur[fg]:
                return False
        return True

    return backtrack(plan.members, lambda i: value[doms[i]], ok, cur)


def _family_dicts(pre: SetPresheaf, plan: SievePlan) -> list[dict[str, str]]:
    return [dict(fam) for fam in _families(pre, plan)]


def family_key(fam: dict[str, str]) -> str:
    return "{" + ",".join(f"{m}:{e}" for m, e in sorted(fam.items())) + "}"


def matching_families(pre: SetPresheaf, s: Sieve) -> tuple[MatchingFamily, ...]:
    """All matching families for the presheaf over the sieve."""
    if s.root not in set(pre.cat.objects):
        raise ValueError(f"unknown object id: {s.root}")
    fams = _family_dicts(pre, sieve_plan(pre.cat, s))
    return tuple(MatchingFamily(s, tuple(sorted(f.items()))) for f in fams)


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


def _injective(pre: SetPresheaf, plan: SievePlan) -> bool:
    """Whether the sections of P(x), x the plan's root, restrict to distinct
    tuples over the plan's members; reads only the members' maps."""
    tables = [pre.restrict[f] for f in plan.members]
    sections = pre.value[plan.sieve.root]
    return len({tuple([t[s] for t in tables]) for s in sections}) == len(sections)


def _exact_family_count(pre: SetPresheaf, plan: SievePlan) -> bool:
    """Whether there are exactly |P(x)| matching families over the plan on
    x; the count stops past it."""
    n = len(pre.value[plan.sieve.root])
    return sum(1 for _ in islice(_families(pre, plan), n + 1)) == n


NOT_SHEAF, NOT_SEPARATED = 1, 2  # the flags a failed sheaf test sets
KINDS = {0: "sheaf", NOT_SHEAF: "separated-not-sheaf", NOT_SHEAF | NOT_SEPARATED: "not-separated"}


def sheaf_tests(top: GrothendieckTopology):
    """The sheaf test, as (reads, test, flag): ``test(pre)`` decides one half
    of it at one least cover, reads only the maps in ``reads``, and sets
    ``flag`` on failure. The kind is ``KINDS`` of the flags set: a count other
    than |P(x)| rules out a bijection, a non-injective map separation too."""
    for plan in top._sheaf_plans:
        yield plan.members, partial(_injective, plan=plan), NOT_SHEAF | NOT_SEPARATED
        reads = {g for checks in plan.triggers for g, _, _ in checks}
        yield reads, partial(_exact_family_count, plan=plan), NOT_SHEAF


def classify_presheaf(pre: SetPresheaf, top: GrothendieckTopology) -> Classification:
    """Sheaf / separated-not-sheaf / not-separated, decided at the
    non-maximal least covers: injectivity there gives it at every larger
    cover, and bijectivity there plus separatedness gives the full sheaf
    condition. The witness is the first non-bijective cover; not-separated
    wins, keeping an earlier one."""
    first_nonbij: tuple[str, Sieve] | None = None
    for plan in top._sheaf_plans:
        if not _injective(pre, plan):
            return Classification("not-separated", first_nonbij or (plan.sieve.root, plan.sieve))
        if first_nonbij is None and not _exact_family_count(pre, plan):
            first_nonbij = (plan.sieve.root, plan.sieve)
    if first_nonbij is not None:
        return Classification("separated-not-sheaf", first_nonbij)
    return Classification("sheaf")


def is_sheaf(pre: SetPresheaf, top: GrothendieckTopology) -> bool:
    return classify_presheaf(pre, top).is_sheaf


class _PlusData(NamedTuple):
    presheaf: SetPresheaf
    unit: PresheafMorphism
    plans: dict[str, SievePlan]  # object -> its least cover's plan
    # object -> family, as sections in plan.members order -> element id
    names: dict[str, dict[tuple[str, ...], str]]


def _plus(pre: SetPresheaf, top: GrothendieckTopology) -> _PlusData:
    cat = pre.cat
    plans = top._cover_plan
    names: dict[str, dict[tuple[str, ...], str]] = {}
    value: dict[str, tuple[str, ...]] = {}
    unit: dict[str, dict[str, str]] = {}
    for x in cat.objects:
        plan = plans[x]
        tables = [pre.restrict[f] for f in plan.members]
        if len(plan.members) == len(cat.arrows_into(x)):
            # over a maximal sieve the families are (P(f)s)_f, s their section at
            # id_x, listed as the backtrack would: by positions in value[dom f]
            at = [{e: i for i, e in enumerate(pre.value[d])} for d in plan.doms]
            index = {secs: family_key(dict(zip(plan.members, secs))) for secs in sorted(
                (tuple([t[s] for t in tables]) for s in pre.value[x]),
                key=lambda secs: [a[e] for a, e in zip(at, secs)])}
        else:
            # backtrack keys each family in plan.members order
            index = {tuple(fam.values()): family_key(fam) for fam in _families(pre, plan)}
        names[x] = index
        value[x] = tuple(sorted(index.values()))
        unit[x] = {s: index[tuple([t[s] for t in tables])] for s in pre.value[x]}
    restrict: dict[str, dict[str, str]] = {}
    for h in cat.morphisms:
        y, x = cat.dom[h], cat.cod[h]
        if cat.is_identity(h):
            restrict[h] = {e: e for e in value[x]}
            continue
        # minimal(y) is contained in the pullback of minimal(x) along h
        pos = {f: i for i, f in enumerate(plans[x].members)}
        at = [pos[cat.compose(h, g)] for g in plans[y].members]
        into = names[y]
        restrict[h] = {e: into[tuple([secs[i] for i in at])] for secs, e in names[x].items()}
    plus = SetPresheaf(cat, value, restrict)
    return _PlusData(plus, PresheafMorphism(pre, plus, unit), plans, names)


def _plus_morphism(m: PresheafMorphism, src: _PlusData, tgt: _PlusData) -> PresheafMorphism:
    """m+ sends the class of a family to the class of its image, looked up
    in the target's index; an image that is no target family means m is
    not natural."""
    comps = {}
    for x, index in src.names.items():
        plan, into = src.plans[x], tgt.names[x]
        at = [m.components[d] for d in plan.doms]
        table = {}
        for secs, e in index.items():
            image = tuple([c[s] for c, s in zip(at, secs)])
            name = into.get(image)
            if name is None:
                name = family_key(dict(zip(plan.members, image)))
                raise ValueError(f"section {name!r} at {x} is missing from the target's "
                                 "plus-construction: the morphism is not natural")
            table[e] = name
        comps[x] = table
    return PresheafMorphism(src.presheaf, tgt.presheaf, comps)


def plus_construction(pre: SetPresheaf, top: GrothendieckTopology) -> SetPresheaf:
    """One application of the plus-construction."""
    return _plus(pre, top).presheaf


@dataclass(frozen=True)
class SheafificationResult:
    sheaf: SetPresheaf
    unit: PresheafMorphism
    # the two plus steps P+ and P++, kept to transport morphisms
    steps: tuple[_PlusData, _PlusData] = field(compare=False, repr=False)


def sheafify(pre: SetPresheaf, top: GrothendieckTopology) -> SheafificationResult:
    """Double plus with the composite unit. Always applied twice: idempotence
    makes the uniform code path harmless on presheaves that are already
    sheaves."""
    d1 = _plus(pre, top)
    d2 = _plus(d1.presheaf, top)
    return SheafificationResult(d2.presheaf, compose_morphisms(d2.unit, d1.unit), (d1, d2))


def transport_morphism(m: PresheafMorphism, source: SheafificationResult,
                       target: SheafificationResult) -> PresheafMorphism:
    """The sheafification of m: m.source -> m.target, given the
    sheafifications of its source and target, through both plus steps."""
    m1 = _plus_morphism(m, source.steps[0], target.steps[0])
    return _plus_morphism(m1, source.steps[1], target.steps[1])


def sheafify_morphism(m: PresheafMorphism, top: GrothendieckTopology) -> PresheafMorphism:
    """Transport a presheaf morphism through both plus steps."""
    return transport_morphism(m, sheafify(m.source, top), sheafify(m.target, top))


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
        cover = top._cover_plan[x].members
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

    Enumerates (cover, family) pairs over every covering sieve, identifies
    two pairs when they agree on a common covering refinement, and only then
    names each class by its restriction to the minimal sieve. Must agree
    with plus_construction on the nose; raises if the class structure does
    not biject with the minimal-sieve families.
    """
    cat, (plans_of, least_of, holding, pulled_of) = pre.cat, top._colimit_layout
    class_of, value, restrict = {}, {}, {}  # class_of[x]: (cover index, sections) -> name
    for x in cat.objects:
        plans, least = plans_of[x], least_of[x]
        fams = [[tuple(fam.values()) for fam in _families(pre, plan)] for plan in plans]
        pairs = [(i, secs) for i, found in enumerate(fams) for secs in found]
        uf = UnionFind(pairs)
        # per cover r, the pairs whose sieves hold r are identified by restriction
        for holders in holding[x]:
            first: dict[tuple[str, ...], tuple] = {}
            for i, at in holders:
                for secs in fams[i]:
                    k = i, secs
                    uf.union(first.setdefault(tuple([secs[a] for a in at]), k), k)
        minimal, to_least, names, seen = plans[least].members, dict(holding[x][least]), {}, set()
        for members in uf.classes().values():
            restr = {tuple([secs[a] for a in to_least[i]]) for i, secs in members}
            if len(restr) != 1:
                raise ValueError(f"colimit class on {x} has inconsistent minimal restrictions")
            if restr <= seen:
                raise ValueError(f"two colimit classes on {x} share a minimal restriction")
            seen |= restr
            names.update(dict.fromkeys(members, family_key(dict(zip(minimal, *restr)))))
        if seen != set(fams[least]):
            raise ValueError(f"colimit classes on {x} do not exhaust the minimal-sieve families")
        class_of[x] = {k: names[k] for k in pairs}
        value[x] = tuple(sorted(set(names.values())))
    for h in cat.morphisms:
        # each pullback is covering by stability and a pulled family inherits
        # compatibility, so the pair was enumerated
        y, pulled = cat.dom[h], pulled_of[h]
        table = restrict[h] = {}
        for (i, secs), name in class_of[cat.cod[h]].items():
            j, at = pulled[i]
            target = class_of[y][(j, tuple([secs[a] for a in at]))]
            if name in table and table[name] != target:
                raise ValueError(f"colimit restriction along {h} is not well defined")
            table[name] = target
    return SetPresheaf(cat, value, restrict)
