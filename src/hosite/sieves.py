"""Sieves and Grothendieck topologies on finite categories.

Sieves are explicit member sets. A topology stores one least cover J(x) per
object and checks its laws in closed form on J; the covers of x, the sieves
containing J(x), are listed once, when first read. A lattice of more than
``MAX_SIEVES`` (2^16) sieves on one object is refused, naming the object.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core import (
    PASS,
    FiniteCategory,
    PresheafMorphism,
    SetPresheaf,
    ValidationReport,
    yoneda,
)
from .core import _arrows_presheaf, _fail

MAX_SIEVES = 1 << 16  # the largest sieve lattice on one object all_sieves lists


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms with codomain ``root`` closed under precomposition."""

    root: str
    members: frozenset[str]

    def sort_key(self):
        return (self.root, len(self.members), tuple(sorted(self.members)))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()


def format_sieve(cat: FiniteCategory, s: Sieve) -> str:
    if s.members == frozenset(cat.arrows_into(s.root)):
        return "maximal"
    return "{" + ", ".join(sorted(s.members)) + "}"


def validate_sieve(cat: FiniteCategory, s: Sieve) -> ValidationReport:
    if s.root not in set(cat.objects):
        return _fail("structure", (s.root,), "sieve root is not an object")
    for f in sorted(s.members):
        if cat.cod.get(f) != s.root:
            return _fail("structure", (f,), f"member {f} does not have codomain {s.root}")
    for f in sorted(s.members):
        for g in cat.arrows_into(cat.dom[f]):
            if cat.compose(f, g) not in s.members:
                return _fail("closure", (f, g), f"{f}∘{g} escapes the sieve")
    return PASS


def maximal_sieve(cat: FiniteCategory, x: str) -> Sieve:
    if x not in set(cat.objects):
        raise ValueError(f"unknown object id: {x}")
    return Sieve(x, frozenset(cat.arrows_into(x)))


def generate_sieve(cat: FiniteCategory, x: str, generators) -> Sieve:
    """Smallest sieve on x containing the generators."""
    if x not in set(cat.objects):
        raise ValueError(f"unknown object id: {x}")
    members = set()
    for f in generators:
        if f not in cat.cod:
            raise ValueError(f"unknown morphism: {f}")
        if cat.cod[f] != x:
            raise ValueError(f"generator {f} does not have codomain {x}")
        for g in cat.arrows_into(cat.dom[f]):
            members.add(cat.compose(f, g))
    return Sieve(x, frozenset(members))


def pullback_sieve(cat: FiniteCategory, h: str, s: Sieve) -> Sieve:
    """Base change: the sieve {g into dom(h) | h∘g in s}."""
    if cat.cod.get(h) != s.root:
        raise ValueError(f"cannot pull back a sieve on {s.root} along {h}")
    y = cat.dom[h]
    return Sieve(y, frozenset(g for g in cat.arrows_into(y) if cat.compose(h, g) in s.members))


class SievePlan(NamedTuple):
    """A sieve laid out for enumerating matching families: its sorted members,
    their domains, and per member index i the checks (g, f, f∘g),
    restrict[g](s_f) == s_{f∘g}, decidable once member i is assigned."""

    sieve: Sieve
    members: tuple[str, ...]
    doms: tuple[str, ...]
    triggers: list[list[tuple[str, str, str]]]


def sieve_plan(cat: FiniteCategory, s: Sieve) -> SievePlan:
    members = tuple(sorted(s.members))
    doms = tuple([cat.dom[f] for f in members])
    idx = {m: i for i, m in enumerate(members)}
    triggers: list[list[tuple[str, str, str]]] = [[] for _ in members]
    for i_f, f in enumerate(members):
        for g in cat.arrows_into(doms[i_f]):
            if not cat.is_identity(g):
                fg = cat.compose(f, g)
                triggers[max(i_f, idx[fg])].append((g, f, fg))
    return SievePlan(s, members, doms, triggers)


def all_sieves(cat: FiniteCategory, x: str) -> tuple[Sieve, ...]:
    """The full sieve lattice on x, ordered by (size, members): every sieve
    is the union of the principal sieves {f∘g} of its members. Raises
    ValueError once the count passes ``MAX_SIEVES``, before memory runs out."""
    found = {frozenset()}
    for f in cat.arrows_into(x):
        principal = frozenset(cat.compose(f, g) for g in cat.arrows_into(cat.dom[f]))
        found |= {s | principal for s in found}
        if len(found) > MAX_SIEVES:
            raise ValueError(f"the sieve lattice on {x} has more than {MAX_SIEVES} sieves")
    return tuple(sorted((Sieve(x, s) for s in found), key=Sieve.sort_key))


def sieve_presheaf(cat: FiniteCategory, s: Sieve) -> SetPresheaf:
    """The sieve as a subpresheaf of yoneda(root); elements are its members."""
    return _arrows_presheaf(cat, s.members)


def sieve_inclusion(cat: FiniteCategory, s: Sieve) -> PresheafMorphism:
    return _inclusion(sieve_presheaf(cat, s), yoneda(cat, s.root))


def _inclusion(sub: SetPresheaf, whole: SetPresheaf) -> PresheafMorphism:
    return PresheafMorphism(sub, whole, {o: {f: f for f in sub.value[o]} for o in sub.cat.objects})


@dataclass(frozen=True)
class GrothendieckTopology:
    """A topology stored as its least covers: those of x contain ``least[x]``."""

    base: FiniteCategory
    least: dict[str, Sieve]

    def is_cover(self, s: Sieve) -> bool:
        return self.least[s.root].members <= s.members

    @cached_property
    def covers(self) -> dict[str, frozenset[Sieve]]:
        return {x: frozenset(filter(self.is_cover, all_sieves(self.base, x)))
                for x in self.base.objects}

    def covers_of(self, x: str) -> tuple[Sieve, ...]:
        return tuple(sorted(self.covers.get(x, frozenset()), key=Sieve.sort_key))

    @cached_property
    def _cover_plan(self) -> dict[str, SievePlan]:
        return {x: sieve_plan(self.base, self.least[x]) for x in self.base.objects}

    @cached_property
    def _colimit_layout(self):
        """The colimit oracle's layout: per object, its covers' plans and the
        least one's index, and per cover r the (index, positions of r's
        members) of each cover holding r; per arrow h: y -> x and cover s of
        x, the index of h*s among y's covers and the positions in s of h∘g."""
        cat, plans, least, holding, pos = self.base, {}, {}, {}, {}
        for x in cat.objects:
            covers = self.covers_of(x)
            plans[x] = [sieve_plan(cat, s) for s in covers]
            pos[x] = [dict(zip(p.members, range(len(p.members)))) for p in plans[x]]
            least[x] = covers.index(self.least[x])
            holding[x] = [[(i, list(map(pos[x][i].__getitem__, r.members)))
                           for i, s in enumerate(covers) if r.sieve.members <= s.members]
                          for r in plans[x]]
        pulled = {}
        for h in cat.morphisms:
            y, x = cat.dom[h], cat.cod[h]
            index = {p.sieve: j for j, p in enumerate(plans[y])}
            pulled[h] = [(j, [pos[x][i][cat.compose(h, g)] for g in plans[y][j].members])
                         for i, j in enumerate(index[pullback_sieve(cat, h, p.sieve)]
                                               for p in plans[x])]
        return plans, least, holding, pulled

    @cached_property
    def _sheaf_plans(self) -> tuple[SievePlan, ...]:
        """The plans of the least covers that are not maximal, in declaration
        order: the canonical map to families over a maximal sieve is always
        a bijection, so only these covers can fail."""
        return tuple(plan for plan in self._cover_plan.values()
                     if len(plan.members) != len(self.base.arrows_into(plan.sieve.root)))


def trivial_topology(cat: FiniteCategory) -> GrothendieckTopology:
    return GrothendieckTopology(cat, {o: maximal_sieve(cat, o) for o in cat.objects})


def validate_topology(top: GrothendieckTopology) -> ValidationReport:
    """The laws in closed form for the upsets of one sieve J(x) per object:
    maximality holds once each object has one, stability is J(y) ⊆ h*J(x)
    for h: y -> x, and local character {f∘g : f in J(x), g in J(dom f)} = J(x)."""
    cat = top.base
    least = top.least
    if not set(least) <= set(cat.objects):
        return _fail("structure", (), "covers filed under an unknown object")
    for x in filter(least.__contains__, cat.objects):
        s = least[x]
        if s.root != x:
            return _fail("structure", (x,), f"sieve rooted at {s.root} filed under {x}")
        rep = validate_sieve(cat, s)
        if not rep:
            return _fail("sieve-invariant", (x,) + rep.witness, rep.detail)
    for x in cat.objects:
        if x not in least:
            return _fail("maximality", (x,), f"the maximal sieve on {x} is not covering")
    for x in cat.objects:
        for h in cat.arrows_into(x):
            if not least[cat.dom[h]].members <= pullback_sieve(cat, h, least[x]).members:
                return _fail("stability", (x, format_sieve(cat, least[x]), h),
                             f"pullback of a cover on {x} along {h} is not covering {cat.dom[h]}")
    for x in cat.objects:
        j = least[x]
        local = Sieve(x, frozenset(cat.compose(f, g)
                                   for f in j.members for g in least[cat.dom[f]].members))
        if local != j:
            t, s = format_sieve(cat, local), format_sieve(cat, j)
            return _fail("local-character", (x, t, s),
                         f"sieve {t} on {x} is locally covering over {s} but not listed")
    return PASS


def saturate_topology(cat: FiniteCategory, generating) -> GrothendieckTopology:
    """Smallest topology whose covers include the sieves generated per object.

    ``generating`` maps object -> iterable of generator families (morphism
    name lists). The least cover J(x) starts at the intersection of the
    generated sieves (the maximal sieve if there are none) and shrinks to a
    fixpoint of stability, J(y) ∩= h*J(x) for h: y -> x, and local
    character, J(x) = {f∘g : f in J(x), g in J(dom f)}.
    """
    objset = set(cat.objects)
    for x in generating:
        if x not in objset:
            raise ValueError(f"unknown object id: {x}")
    least = {o: maximal_sieve(cat, o).members for o in cat.objects}
    for x, families in generating.items():
        for family in families:
            least[x] &= generate_sieve(cat, x, family).members
    changed = True
    while changed:
        changed = False
        for x in cat.objects:
            for h in cat.arrows_into(x):
                y = cat.dom[h]
                kept = frozenset(g for g in least[y] if cat.compose(h, g) in least[x])
                if kept != least[y]:
                    least[y] = kept
                    changed = True
            local = frozenset(cat.compose(f, g) for f in least[x] for g in least[cat.dom[f]])
            if local != least[x]:
                least[x] = local
                changed = True
    return GrothendieckTopology(cat, {o: Sieve(o, least[o]) for o in cat.objects})


def minimal_cover(top: GrothendieckTopology, x: str) -> Sieve:
    """The least cover of x."""
    if x not in top.least:
        raise ValueError(f"no covering sieves on {x}")
    return top.least[x]
