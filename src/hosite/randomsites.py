"""Seeded random site generation for the comparison suite.

Categories are sampled by drawing an arrow pattern, completing it so every
composable pair has a candidate composite, and one ``backtrack`` over
composite assignments (each pair's shuffled candidates in turn). Setting the
composite of pair i is checked only on the associativity triples (h, g, f)
that can read it: the table before slot i passed every earlier check, so a
triple that never reads the new key keeps its verdict, and the verdict at
every node is the one a rescan of every triple would give. Each slot's
triples are listed once per search from the pairs and their candidates.
Every candidate spends a node of a fixed budget, none passes once it is
spent, and patterns not completed within it are redrawn. Enrichments are
rejection-sampled against whisker-compatibility, with discrete enrichment as
the fallback. Everything is driven by one seed so failures replay exactly.
"""
from __future__ import annotations

from random import Random

from .core import make_category
from .homotopy import EnrichedCategory, validate_enrichment
from .siteio import COMPOSE_SIGN, SiteDocument, load_site
from .util import backtrack

_NODE_BUDGET = 4000


def _complete_pattern(arrows, max_morphisms):
    """Ensure every composable pair has at least one candidate composite,
    adding one fresh arrow per round until the cap ends the loop."""
    arrows = list(arrows)
    while True:
        have = {(d, c) for _, d, c in arrows}
        missing = next(((fd, gc) for _, gd, gc in arrows for _, fd, fc in arrows
                        if fc == gd and (fd, gc) not in have and fd != gc), None)
        if missing is None:
            return arrows
        if len(arrows) >= max_morphisms:
            return None
        d, c = missing
        arrows.append((f"m{len(arrows) + 1}", d, c))


def _slot_triples(pairs, candidates):
    """For each slot i, the triples (h, g, f) whose check can read the
    composite of ``pairs[i]`` while slots 0..i are set.

    A triple reads (h, g) and (g, f), then (h, g∘f) and (h∘g, f); it is
    decidable once its first two keys are set, at the later of their slots,
    and afterwards can read slot j only as (h, g∘f) or (h∘g, f), where the
    middle composite is one of its pair's candidates. The triple (m, m, m)
    reads m∘m as both of its first keys, so it is listed at that key's own
    slot, not only after it."""
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


def _assign_composites(rng: Random, objects, arrows):
    """An associative composition table, or None if the budget runs out."""
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

    # identity composites are fixed, so every lookup is a plain table read
    table: dict[tuple[str, str], str] = {}
    for m in names:
        table[(m, "id_" + dom[m])] = table[("id_" + cod[m], m)] = m
    checks = _slot_triples(pairs, candidates)
    get = table.get
    budget = _NODE_BUDGET

    def ok(i: int) -> bool:
        # every candidate spends a node; once none is left, nothing passes
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


def _sample_category(rng: Random, max_objects, max_morphisms):
    n_obj = rng.randint(1, max_objects)
    objects = [f"o{i + 1}" for i in range(n_obj)]
    n_mor = rng.randint(0, max_morphisms)
    arrows = []
    for i in range(n_mor):
        d = rng.randrange(n_obj)
        if rng.random() < 0.15:
            c = d
        else:
            c = rng.randrange(d, n_obj) if rng.random() < 0.85 else rng.randrange(n_obj)
        arrows.append((f"m{i + 1}", objects[d], objects[c]))
    arrows = _complete_pattern(arrows, max_morphisms)
    if arrows is None:
        return None
    composition = _assign_composites(rng, objects, arrows)
    if composition is None:
        return None
    return objects, arrows, composition


def _sample_edges(rng: Random, category, max_edges):
    parallel = []
    morphs = list(category.morphisms)
    for i, a in enumerate(morphs):
        for b in morphs[i + 1:]:
            if category.dom[a] == category.dom[b] and category.cod[a] == category.cod[b]:
                parallel.append((a, b))
    if not parallel:
        return []
    for _ in range(8):
        k = rng.randint(0, min(max_edges, len(parallel)))
        edges = rng.sample(parallel, k) if k else []
        if validate_enrichment(EnrichedCategory(category, tuple(edges))):
            return [list(e) for e in edges]
    return []


def _sample_covers(rng: Random, category):
    covers: dict[str, list[list[str]]] = {}
    for o in category.objects:
        if rng.random() >= 0.6:
            continue
        arrows = list(category.arrows_into(o))
        families = []
        for _ in range(1 + (rng.random() < 0.25)):
            if rng.random() < 0.04:
                families.append([])
                continue
            k = rng.randint(1, len(arrows))
            families.append(sorted(rng.sample(arrows, k)))
        covers[o] = families
    return covers


def random_site(seed: int, max_objects: int = 4, max_morphisms: int = 8,
                max_edges: int = 6) -> SiteDocument:
    """Deterministic random site for a seed; always loads cleanly."""
    rng = Random(seed)
    for _ in range(300):
        sampled = _sample_category(rng, max_objects, max_morphisms)
        if sampled is None:
            continue
        objects, arrows, composition = sampled
        category = make_category(objects, arrows, composition)
        edges = _sample_edges(rng, category, max_edges)
        covers = _sample_covers(rng, category)
        doc = {
            "objects": objects,
            "morphisms": [{"name": n, "dom": d, "cod": c} for n, d, c in arrows],
            "composition": {f"{g}{COMPOSE_SIGN}{f}": h for (g, f), h in sorted(composition.items())},
            "edges": edges,
            "covers": covers,
            "presheaves": {},
        }
        return load_site(doc)
    raise RuntimeError(f"could not sample a category for seed {seed}")
