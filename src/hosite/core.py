"""Finite categories, set-valued presheaves, and natural transformations.

Objects, morphisms, and presheaf elements are opaque string ids and all
comparisons go by id. Hom-sets enumerate in morphism declaration order;
set-valued outputs are emitted sorted by id so every report is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .util import backtrack


@dataclass(frozen=True)
class ValidationReport:
    """Pass, or the first violated law together with its witnesses."""

    ok: bool
    law: str = ""
    witness: tuple[str, ...] = ()
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


PASS = ValidationReport(True)


def _fail(law: str, witness, detail: str) -> ValidationReport:
    return ValidationReport(False, law, tuple(witness), detail)


@dataclass(frozen=True)
class FiniteCategory:
    """A category given by explicit tables.

    The composition table is stored, never derived: user-supplied sites must
    be checkable, not trusted, so ``validate_category`` is the single source
    of truth for the laws.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    dom: dict[str, str]
    cod: dict[str, str]
    identity: dict[str, str]
    composition: dict[tuple[str, str], str]

    def __post_init__(self):
        into: dict[str, list[str]] = {o: [] for o in self.objects}
        for m in self.morphisms:
            c = self.cod.get(m)
            if c in into:
                into[c].append(m)
        object.__setattr__(self, "_into", {o: tuple(v) for o, v in into.items()})
        object.__setattr__(self, "_ids", frozenset(self.identity.values()))

    def hom(self, v: str, x: str) -> tuple[str, ...]:
        return tuple(m for m in self.arrows_into(x) if self.dom.get(m) == v)

    def arrows_into(self, x: str) -> tuple[str, ...]:
        return self._into.get(x, ())

    def compose(self, g: str, f: str) -> str:
        try:
            return self.composition[(g, f)]
        except KeyError:
            raise ValueError(f"no composite for {g}∘{f}") from None

    def is_identity(self, m: str) -> bool:
        return m in self._ids

    def composable(self, g: str, f: str) -> bool:
        return self.cod.get(f) == self.dom.get(g)


def make_category(objects, arrows, composition=None):
    """Build a FiniteCategory from non-identity arrow data.

    ``arrows`` is a sequence of (name, dom, cod); identities are synthesized
    as ``id_<object>`` and their composites filled in. ``composition`` maps
    (g, f) pairs of non-identity names to the composite name; an identity
    name there, or among the arrows, raises ValueError. The result is NOT
    validated here; run validate_category.
    """
    objects = tuple(objects)
    arrow_names = tuple(a[0] for a in arrows)
    identity = {o: "id_" + o for o in objects}
    ids = set(identity.values())
    clash = set(arrow_names) & ids
    if clash:
        raise ValueError(f"morphism name reserved for identities: {sorted(clash)!r}")
    keyed = sorted(f"{g}∘{f}" for g, f in composition or () if g in ids or f in ids)
    if keyed:
        raise ValueError(f"composition entry keyed by an identity: {keyed[0]}")
    dom = {a[0]: a[1] for a in arrows}
    cod = {a[0]: a[2] for a in arrows}
    for o, i in identity.items():
        dom[i] = cod[i] = o
    morphisms = arrow_names + tuple(identity[o] for o in objects)
    table: dict[tuple[str, str], str] = dict(composition or {})
    for m in morphisms:
        d, c = dom.get(m), cod.get(m)
        if d in identity:
            table[(m, identity[d])] = m
        if c in identity:
            table[(identity[c], m)] = m
    return FiniteCategory(objects, morphisms, dom, cod, identity, table)


def validate_category(cat: FiniteCategory) -> ValidationReport:
    """Check the category laws exhaustively; report the first violation."""
    for kind, ids in (("object", cat.objects), ("morphism", cat.morphisms)):
        if len(set(ids)) != len(ids):
            twice = next(i for i in ids if ids.count(i) > 1)
            return _fail("structure", (), f"duplicate {kind} id: {twice}")
    objset = set(cat.objects)
    for m in cat.morphisms:
        if cat.dom.get(m) not in objset or cat.cod.get(m) not in objset:
            return _fail("structure", (m,), f"morphism {m} has unknown dom/cod")
    if set(cat.identity) != objset:
        return _fail("structure", (), "identity assignment does not cover the objects")
    for o in cat.objects:
        i = cat.identity[o]
        if i not in cat.dom or cat.dom[i] != o or cat.cod[i] != o:
            return _fail("structure", (o, i), f"identity of {o} is not an endomorphism of {o}")

    index = {m: k for k, m in enumerate(cat.morphisms)}
    for (g, f), h in sorted(cat.composition.items(), key=lambda kv: (index.get(kv[0][0], -1), index.get(kv[0][1], -1))):
        unknown = [m for m in (g, f, h) if m not in index]
        if unknown:
            return _fail("composability-table", (g, f),
                         f"composition entry names an unknown morphism: {unknown[0]}")
        if cat.cod[f] != cat.dom[g]:
            return _fail("composability-table", (g, f), "composition defined on a non-composable pair")
        if cat.dom[h] != cat.dom[f] or cat.cod[h] != cat.cod[g]:
            return _fail("composability-table", (g, f), f"composite {h} has the wrong endpoints")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if cat.composable(g, f) and (g, f) not in cat.composition:
                return _fail("composability-table", (g, f), "missing composite for a composable pair")

    for f in cat.morphisms:
        left = cat.composition[(cat.identity[cat.cod[f]], f)]
        if left != f:
            return _fail("identity-law", (cat.identity[cat.cod[f]], f), f"id∘{f} = {left} != {f}")
        right = cat.composition[(f, cat.identity[cat.dom[f]])]
        if right != f:
            return _fail("identity-law", (f, cat.identity[cat.dom[f]]), f"{f}∘id = {right} != {f}")

    for h in cat.morphisms:
        for g in cat.morphisms:
            if not cat.composable(h, g):
                continue
            hg = cat.composition[(h, g)]
            for f in cat.morphisms:
                if not cat.composable(g, f):
                    continue
                gf = cat.composition[(g, f)]
                if cat.composition[(h, gf)] != cat.composition[(hg, f)]:
                    return _fail(
                        "associativity", (h, g, f),
                        f"{h}∘({g}∘{f}) = {cat.composition[(h, gf)]} but "
                        f"({h}∘{g})∘{f} = {cat.composition[(hg, f)]}")
    return PASS


@dataclass(frozen=True)
class SetPresheaf:
    """A contravariant functor to finite sets, given by explicit tables.

    ``restrict[f]`` for f: V -> X maps value(X) into value(V).
    """

    cat: FiniteCategory
    value: dict[str, tuple[str, ...]]
    restrict: dict[str, dict[str, str]]


def make_presheaf(cat, value, restrict) -> SetPresheaf:
    """Normalize presheaf data: sort values, synthesize identity restrictions.
    Values filed under unknown objects are kept, for validate_presheaf to reject."""
    val = {o: tuple(sorted(value.get(o, ()))) for o in (*cat.objects, *value)}
    res = {m: dict(t) for m, t in restrict.items()}
    for o in cat.objects:
        res.setdefault(cat.identity[o], {s: s for s in val[o]})
    return SetPresheaf(cat, val, res)


def validate_presheaf(pre: SetPresheaf, cat: FiniteCategory | None = None) -> ValidationReport:
    """Check functoriality exhaustively; report the first violation."""
    if cat is None:
        cat = pre.cat
    elif pre.cat != cat:
        return _fail("structure", (), "presheaf declared over a different category")
    odd = sorted(set(pre.value) ^ set(cat.objects))
    if odd:
        return _fail("structure", (), f"value assignment does not match the objects at {', '.join(odd)}")
    odd = sorted(set(pre.restrict) ^ set(cat.morphisms))
    if odd:
        return _fail("structure", (), f"restriction assignment does not match the morphisms at {', '.join(odd)}")
    for o in cat.objects:
        sections = pre.value[o]
        if len(set(sections)) != len(sections):
            twice = next(s for s in sections if sections.count(s) > 1)
            return _fail("structure", (o,), f"value({o}) repeats section {twice}")
    for m in cat.morphisms:
        table = pre.restrict[m]
        src, tgt = set(pre.value[cat.cod[m]]), set(pre.value[cat.dom[m]])
        if set(table) != src or not set(table.values()) <= tgt:
            return _fail("restriction-map", (m,), f"restriction along {m} is not a total map value({cat.cod[m]}) -> value({cat.dom[m]})")
    for o in cat.objects:
        i = cat.identity[o]
        for s in pre.value[o]:
            if pre.restrict[i][s] != s:
                return _fail("identity-law", (i, s), f"restriction along {i} moves {s}")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if not cat.composable(g, f):
                continue
            gf = cat.composition[(g, f)]
            for s in pre.value[cat.cod[g]]:
                if pre.restrict[gf][s] != pre.restrict[f][pre.restrict[g][s]]:
                    return _fail("contravariance", (g, f, s), f"restrict({gf}) != restrict({f})∘restrict({g}) at {s}")
    return PASS


def _arrows_presheaf(cat: FiniteCategory, arrows) -> SetPresheaf:
    """Arrows into one object, closed under precomposition, as a presheaf."""
    value = {v: tuple(sorted(f for f in arrows if cat.dom[f] == v)) for v in cat.objects}
    restrict = {g: {f: cat.compose(f, g) for f in value[cat.cod[g]]} for g in cat.morphisms}
    return SetPresheaf(cat, value, restrict)


def yoneda(cat: FiniteCategory, x: str) -> SetPresheaf:
    """The representable presheaf Hom(-, x)."""
    if x not in set(cat.objects):
        raise ValueError(f"unknown object id: {x}")
    return _arrows_presheaf(cat, cat.arrows_into(x))


@dataclass(frozen=True)
class PresheafMorphism:
    source: SetPresheaf
    target: SetPresheaf
    components: dict[str, dict[str, str]]


def compose_morphisms(m2: PresheafMorphism, m1: PresheafMorphism) -> PresheafMorphism:
    if m1.target != m2.source:
        raise ValueError("morphisms not composable: target/source mismatch")
    comps = {
        o: {s: m2.components[o][m1.components[o][s]] for s in m1.source.value[o]}
        for o in m1.source.cat.objects
    }
    return PresheafMorphism(m1.source, m2.target, comps)


def componentwise_bijection(m: PresheafMorphism):
    """(True, None) if every component is a bijection, else (False, first bad object)."""
    for o in m.source.cat.objects:
        comp = m.components[o]
        if len(set(comp.values())) != len(comp) or len(comp) != len(m.target.value[o]):
            return False, o
    return True, None


def iter_hom_presheaves(u: SetPresheaf, f: SetPresheaf) -> Iterator[PresheafMorphism]:
    """The natural transformations u -> f, built one at a time: one
    ``backtrack`` over the sections (o, s) of u, objects in declaration order,
    slot (o, s) taking the values of f(o) in order, and each naturality square
    checked at the later of its two slots. That is the lexicographic order of
    per-object ``product`` tables, so truncations keep the same prefix; agrees
    with the plain product-filter enumeration."""
    if u.cat != f.cat:
        raise ValueError("presheaves live over different categories")
    cat = u.cat
    slots = [(o, s) for o in cat.objects for s in u.value[o]]
    sidx = {slot: i for i, slot in enumerate(slots)}
    checks: list[list[tuple]] = [[] for _ in slots]
    for m in cat.morphisms:
        if not cat.is_identity(m):
            v, x, ru, rf = cat.dom[m], cat.cod[m], u.restrict[m], f.restrict[m]
            for s in u.value[x]:
                a, b = sidx[(v, ru[s])], sidx[(x, s)]
                checks[max(a, b)].append((a, rf, b))
    values = [f.value[o] for o, _ in slots]
    cur: dict[int, str] = {}

    def ok(i: int) -> bool:
        for a, rf, b in checks[i]:
            if cur[a] != rf[cur[b]]:
                return False
        return True

    for found in backtrack(range(len(slots)), values.__getitem__, ok, cur):
        yield PresheafMorphism(u, f, {o: {s: found[sidx[o, s]] for s in u.value[o]}
                                      for o in cat.objects})


def hom_presheaves(u: SetPresheaf, f: SetPresheaf) -> tuple[PresheafMorphism, ...]:
    """All natural transformations u -> f, in ``iter_hom_presheaves`` order."""
    return tuple(iter_hom_presheaves(u, f))


def product_presheaf(f: SetPresheaf, g: SetPresheaf):
    """Componentwise product with projections; element ids are '(a,b)'."""
    if f.cat != g.cat:
        raise ValueError("presheaves live over different categories")
    cat = f.cat
    pair = lambda a, b: f"({a},{b})"
    value = {
        o: tuple(sorted(pair(a, b) for a in f.value[o] for b in g.value[o]))
        for o in cat.objects
    }
    restrict = {}
    for m in cat.morphisms:
        x = cat.cod[m]
        restrict[m] = {
            pair(a, b): pair(f.restrict[m][a], g.restrict[m][b])
            for a in f.value[x] for b in g.value[x]
        }
    prod = SetPresheaf(cat, value, restrict)
    p1 = PresheafMorphism(prod, f, {o: {pair(a, b): a for a in f.value[o] for b in g.value[o]} for o in cat.objects})
    p2 = PresheafMorphism(prod, g, {o: {pair(a, b): b for a in f.value[o] for b in g.value[o]} for o in cat.objects})
    return prod, p1, p2


def equalizer_presheaf(u: PresheafMorphism, v: PresheafMorphism):
    """The subpresheaf where u and v agree, with its inclusion."""
    if u.source != v.source or u.target != v.target:
        raise ValueError("equalizer needs a parallel pair")
    f = u.source
    cat = f.cat
    value = {
        o: tuple(s for s in f.value[o] if u.components[o][s] == v.components[o][s])
        for o in cat.objects
    }
    restrict = {
        m: {s: f.restrict[m][s] for s in value[cat.cod[m]]}
        for m in cat.morphisms
    }
    eq = SetPresheaf(cat, value, restrict)
    incl = PresheafMorphism(eq, f, {o: {s: s for s in value[o]} for o in cat.objects})
    return eq, incl
