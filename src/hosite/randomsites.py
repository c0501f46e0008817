"""Seeded random site generation for the comparison suite.

Categories are sampled by drawing an arrow pattern, completing it so every
composable pair has a candidate composite, and backtracking over composite
assignments, rechecking associativity after each assignment; patterns that
cannot be completed within budget are rejected and redrawn. Enrichments are
rejection-sampled against whisker-compatibility, with discrete enrichment as
the fallback. Everything is driven by one seed so failures replay exactly.
"""
from __future__ import annotations

from random import Random

from .core import make_category
from .homotopy import EnrichedCategory, validate_enrichment
from .siteio import COMPOSE_SIGN, SiteDocument, load_site

_NODE_BUDGET = 4000


def _complete_pattern(objects, arrows, max_morphisms):
    """Ensure every composable pair has at least one candidate composite,
    adding fresh arrows while the budget allows."""
    arrows = list(arrows)
    for _ in range(2 * max_morphisms + 4):
        have = {}
        for name, d, c in arrows:
            have.setdefault((d, c), []).append(name)
        missing = []
        for g, gd, gc in arrows:
            for f, fd, fc in arrows:
                if fc == gd and (fd, gc) not in have and fd != gc:
                    missing.append((fd, gc))
        if not missing:
            return arrows
        if len(arrows) >= max_morphisms:
            return None
        d, c = missing[0]
        arrows.append((f"m{len(arrows) + 1}", d, c))
    return None


def _assign_composites(rng: Random, objects, arrows):
    """Backtracking assignment of an associative composition table."""
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
    budget = [_NODE_BUDGET]

    def consistent() -> bool:
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

    def rec(i: int) -> bool:
        if budget[0] <= 0:
            return False
        if i == len(pairs):
            return True
        key = pairs[i]
        for cand in candidates[key]:
            budget[0] -= 1
            table[key] = cand
            if consistent() and rec(i + 1):
                return True
            table.pop(key, None)
        return False

    if not rec(0):
        return None
    return {k: table[k] for k in pairs}


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
    arrows = _complete_pattern(objects, arrows, max_morphisms)
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
