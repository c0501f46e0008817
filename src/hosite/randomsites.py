"""Seeded random site generation for the comparison suite.

Categories are sampled by drawing an arrow pattern, completing it so every
composable pair has a candidate composite, and one ``backtrack`` over
composite assignments (each pair's shuffled candidates in turn) on a table
read by integer codes: arrows then identities are coded 0..w-1, g∘f is keyed
g·w + f, and the table found is decoded to arrow names. Setting slot i's
composite is checked only on the associativity triples (h, g, f) that can
read it, listed once per search: the table before slot i passed every
earlier check, so each node's verdict is that of a rescan of every triple.
Each candidate spends a node of a fixed budget, none passes once it is
spent, and patterns not completed within it are redrawn. Enrichments are
rejection-sampled against whisker-compatibility, discrete enrichment the
fallback. Everything is driven by one seed so failures replay exactly.
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


def _slot_triples(keys, candidates, width):
    """For each slot i, the triples (h, g, f) whose check can read the
    composite keyed ``keys[i]`` while slots 0..i are set, each listed as the
    four ints its check reads: h·w and the keys of g∘f, h∘g and f (w = width).

    A triple reads (h, g) and (g, f), then (h, g∘f) and (h∘g, f); it is
    decidable once its first two keys are set, at the later of their slots,
    and afterwards can read slot j only as (h, g∘f) or (h∘g, f), where the
    middle composite is one of its pair's candidates. The triple (m, m, m)
    reads m∘m as both of its first keys, so it is listed at that key's own
    slot, not only after it."""
    index = [-1] * (width * width)  # slot of each key, -1 if none
    after: list[list[int]] = [[] for _ in range(width)]
    for i, k in enumerate(keys):
        index[k] = i
        after[k // width].append(k % width)
    slots: list[dict] = [{} for _ in keys]  # ordered sets of checks
    for i_hg, hg in enumerate(keys):
        h, g = divmod(hg, width)
        for f in after[g]:
            gf = g * width + f
            check = (h * width, gf, hg, f)
            first = max(i_hg, index[gf])
            slots[first][check] = None
            for j in [index[h * width + c] for c in candidates[index[gf]]] + \
                     [index[c * width + f] for c in candidates[i_hg]]:
                if j > first:
                    slots[j][check] = None
    return [tuple(s) for s in slots]


def _assign_composites(rng: Random, objects, arrows):
    """An associative composition table, or None if the node budget runs out
    or every candidate fails. The pattern comes from ``_complete_pattern``, so
    every composable pair g∘f has a candidate: an arrow dom f -> cod g where
    the two objects differ, the identity where they agree."""
    codes = [a[0] for a in arrows] + ["id_" + o for o in objects]
    n, width = len(arrows), len(codes)
    dom = [n + objects.index(a[1]) for a in arrows]  # the identity's code
    cod = [n + objects.index(a[2]) for a in arrows]

    pairs = [(g, f) for g in range(n) for f in range(n) if cod[f] == dom[g]]
    candidates = []
    for g, f in pairs:
        cands = [m for m in range(n) if dom[m] == dom[f] and cod[m] == cod[g]]
        if dom[f] == cod[g]:
            cands.append(dom[f])
        rng.shuffle(cands)
        candidates.append(cands)

    # identity composites are fixed, so every lookup is a plain table read
    table: dict[int, int] = {}
    for m in range(n):
        table[m * width + dom[m]] = table[cod[m] * width + m] = m
    keys = [g * width + f for g, f in pairs]
    checks = _slot_triples(keys, candidates, width)
    get = table.get
    budget = _NODE_BUDGET

    def ok(i: int) -> bool:
        # every candidate spends a node; once none is left, nothing passes
        nonlocal budget
        budget -= 1
        if budget <= 0:
            return False
        for hw, gf, hg, f in checks[i]:
            left = get(hw + table[gf])
            if left is not None and left != get(table[hg] * width + f, left):
                return False
        return True

    for _ in backtrack(keys, candidates.__getitem__, ok, table):
        return {(codes[g], codes[f]): codes[table[k]] for (g, f), k in zip(pairs, keys)}
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
    for name, limit, least in (("max_objects", max_objects, 1), ("max_morphisms", max_morphisms, 0),
                               ("max_edges", max_edges, 0)):
        if limit < least:
            raise ValueError(f"{name} must be at least {least}, got {limit}")
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
