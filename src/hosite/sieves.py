"""Sieves and Grothendieck topologies on finite categories.

Sieves are stored as explicit member sets (generators are forgotten after
generation) and topologies store every covering sieve, including the upward
closure: comparison checks need exact cover-set equality. A topology on a
finite category is fixed by its least covers, one per object: the covers of
x are the sieves containing it. Each topology computes them once, in its
cover plan, and every reader takes them from there. A sieve lattice of more
than ``MAX_SIEVES`` (2^16) sieves on one object is refused, naming the object.
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
        if cat.cod.get(f) != x:
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
    sub = sieve_presheaf(cat, s)
    return PresheafMorphism(sub, yoneda(cat, s.root),
                            {o: {f: f for f in sub.value[o]} for o in cat.objects})


@dataclass(frozen=True)
class GrothendieckTopology:
    base: FiniteCategory
    covers: dict[str, frozenset[Sieve]]

    def covers_of(self, x: str) -> tuple[Sieve, ...]:
        return tuple(sorted(self.covers.get(x, frozenset()), key=Sieve.sort_key))

    @cached_property
    def _cover_plan(self) -> dict[str, SievePlan]:
        return {x: sieve_plan(self.base, minimal_cover(self, x)) for x in self.base.objects}

    @cached_property
    def _sheaf_plans(self) -> tuple[SievePlan, ...]:
        """The plans of the least covers that are not maximal, in declaration
        order: the canonical map to families over a maximal sieve is always
        a bijection, so only these covers can fail."""
        return tuple(plan for plan in self._cover_plan.values()
                     if len(plan.members) != len(self.base.arrows_into(plan.sieve.root)))


def trivial_topology(cat: FiniteCategory) -> GrothendieckTopology:
    return GrothendieckTopology(cat, {o: frozenset([maximal_sieve(cat, o)]) for o in cat.objects})


def validate_topology(top: GrothendieckTopology) -> ValidationReport:
    """Check maximality, base-change stability, and local character, trying
    only non-maximal covers: a maximal one pulls t back along id_x to t."""
    cat = top.base
    if not set(top.covers) <= set(cat.objects):
        return _fail("structure", (), "covers filed under an unknown object")
    for x in cat.objects:
        for s in top.covers_of(x):
            if s.root != x:
                return _fail("structure", (x,), f"sieve rooted at {s.root} filed under {x}")
            rep = validate_sieve(cat, s)
            if not rep:
                return _fail("sieve-invariant", (x,) + rep.witness, rep.detail)
    for x in cat.objects:
        if maximal_sieve(cat, x) not in top.covers.get(x, frozenset()):
            return _fail("maximality", (x,), f"the maximal sieve on {x} is not covering")
    for x in cat.objects:
        for s in top.covers_of(x):
            for h in cat.arrows_into(x):
                p = pullback_sieve(cat, h, s)
                if p not in top.covers.get(cat.dom[h], frozenset()):
                    return _fail(
                        "stability", (x, format_sieve(cat, s), h),
                        f"pullback of a cover on {x} along {h} is not covering {cat.dom[h]}")
    for x in cat.objects:
        witnesses = [s for s in top.covers_of(x) if len(s.members) < len(cat.arrows_into(x))]
        for t in all_sieves(cat, x):
            if t in top.covers.get(x, frozenset()):
                continue
            for s in witnesses:
                if all(pullback_sieve(cat, f, t) in top.covers.get(cat.dom[f], frozenset())
                       for f in sorted(s.members)):
                    return _fail(
                        "local-character", (x, format_sieve(cat, t), format_sieve(cat, s)),
                        f"sieve {format_sieve(cat, t)} on {x} is locally covering over {format_sieve(cat, s)} but not listed")
    return PASS


def saturate_topology(cat: FiniteCategory, generating) -> GrothendieckTopology:
    """Smallest topology whose covers include the sieves generated per object.

    ``generating`` maps object -> iterable of generator families (morphism
    name lists). The least cover J(x) starts at the intersection of the
    generated sieves (the maximal sieve if there are none) and shrinks to a
    fixpoint of stability, J(y) ∩= h*J(x) for h: y -> x, and local
    character, J(x) = {f∘g : f in J(x), g in J(dom f)}. The covers of x are
    then the sieves containing J(x).
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
    return GrothendieckTopology(cat, {
        o: frozenset(s for s in all_sieves(cat, o) if least[o] <= s.members)
        for o in cat.objects
    })


def minimal_cover(top: GrothendieckTopology, x: str) -> Sieve:
    """The least cover of x: the intersection of its covers, itself a cover
    in a valid topology. ``top._cover_plan`` holds one per object."""
    sieves = top.covers.get(x)
    if not sieves:
        raise ValueError(f"no covering sieves on {x}")
    smin = Sieve(x, frozenset.intersection(*(s.members for s in sieves)))
    if smin not in sieves:
        raise ValueError(f"covers of {x} are not closed under intersection; topology invalid")
    return smin
