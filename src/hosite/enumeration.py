"""Exhaustive and sampled enumeration of presheaves within a value bound.

One depth-first walk sets the non-identity restriction maps slot by slot.
Given a topology it also decides the sheaf test: each half of the test at a
least cover reads a fixed set of maps, so it runs once, at the slot that
sets the last of them (or once per size vector), for the whole subtree.
Each leaf is the walk's own mappings; callers classify from them and build a
``SetPresheaf`` only for what they keep or report.
"""
from __future__ import annotations

from functools import partial
from itertools import product
from random import Random
from typing import Callable, Iterable, Iterator, TypeVar

from .core import FiniteCategory, SetPresheaf
from .sheafify import sheaf_tests
from .sieves import GrothendieckTopology
from .util import backtrack

LABELS = ("s0", "s1", "s2", "s3")
T = TypeVar("T")


def walk_presheaves(cat: FiniteCategory, max_card: int, top: GrothendieckTopology | None = None):
    """All presheaves with every value of cardinality <= max_card, on the
    canonical labels: per size vector, one ``backtrack`` over the
    non-identity maps (tables in ``product`` order), checking each
    contravariance constraint once its participants are set. Yields
    (value, restrict, sheaf): the walk's own mappings, reused between items
    (``restrict`` holds every map, identities first), and whether the
    presheaf is a ``top``-sheaf (None without a topology)."""
    if not 0 <= max_card <= len(LABELS):
        raise ValueError(f"value bound {max_card} is outside 0..{len(LABELS)}")
    objs = cat.objects
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    midx = {m: i for i, m in enumerate(nonid)}

    # (g, f, gf) with identity-free operands; triggered once all three maps exist
    triggers: list[list[tuple[str, str, str]]] = [[] for _ in nonid]
    for g in nonid:
        for f in nonid:
            if cat.composable(g, f):
                gf = cat.composition[(g, f)]
                triggers[max(midx[g], midx[f], midx.get(gf, -1))].append((g, f, gf))

    for sizes in product(range(max_card + 1), repeat=len(objs)):
        value = {o: tuple(LABELS[:k]) for o, k in zip(objs, sizes)}
        tables = []
        for m in nonid:
            src = value[cat.cod[m]]
            tables.append([dict(zip(src, c)) for c in product(value[cat.dom[m]], repeat=len(src))])
        checks = [[(g, f, gf, value[cat.cod[g]]) for g, f, gf in t] for t in triggers]
        assigned: dict[str, dict[str, str]] = {
            cat.identity[o]: {s: s for s in value[o]} for o in objs
        }
        # tests by the slot that sets their last map; those reading none
        # decide the size vector
        sheaf = None
        tests: list[list] = [[] for _ in nonid]
        if top is not None:
            sheaf = True
            for reads, test in sheaf_tests(top, value):
                slot = max((midx[m] for m in reads), default=-1)
                if slot >= 0:
                    tests[slot].append(test)
                elif sheaf:
                    sheaf = test(assigned)
        # verdict[i]: the sheaf verdict of the subtree under slot i's value
        verdict = [sheaf] * len(nonid)

        def ok(i: int) -> bool:
            for g, f, gf, sections in checks[i]:
                rg, rf, rgf = assigned[g], assigned[f], assigned[gf]
                for s in sections:
                    if rgf[s] != rf[rg[s]]:
                        return False
            # backtrack descends on the value this call accepts
            above = verdict[i - 1] if i else sheaf
            if above and tests[i]:
                above = all(test(assigned) for test in tests[i])
            verdict[i] = above
            return True

        for restrict in backtrack(nonid, tables.__getitem__, ok, assigned):
            yield value, restrict, verdict[-1] if nonid else sheaf


def _build(cat: FiniteCategory, leaf) -> SetPresheaf:
    value, restrict, _ = leaf
    return SetPresheaf(cat, dict(value), {m: dict(t) for m, t in restrict.items()})


def enumerate_presheaves(cat: FiniteCategory, max_card: int) -> Iterator[SetPresheaf]:
    """Every presheaf of the walk, in its order."""
    for leaf in walk_presheaves(cat, max_card):
        yield _build(cat, leaf)


def reservoir(items: Iterable[T], k: int, rng: Random, sample: list,
              build: Callable = lambda item: item) -> Iterator[T]:
    """Yield every item; once they are exhausted, ``sample`` holds ``build``
    of k of them drawn uniformly (item i >= k takes slot ``rng.randint(0, i)``
    if below k). Only the items the sample takes are built."""
    for i, item in enumerate(items):
        if i < k:
            sample.append(build(item))
        else:
            j = rng.randint(0, i)
            if j < k:
                sample[j] = build(item)
        yield item


def sample_presheaves(cat: FiniteCategory, max_card: int, k: int, rng: Random) -> list[SetPresheaf]:
    """Reservoir-sample k presheaves from the full enumeration."""
    sample: list[SetPresheaf] = []
    for _ in reservoir(enumerate_presheaves(cat, max_card), k, rng, sample):
        pass
    return sample


def sheaves_and_sample(cat: FiniteCategory, max_card: int, top: GrothendieckTopology,
                       k: int, rng: Random, sample: list[SetPresheaf]) -> Iterator[SetPresheaf]:
    """Yield every ``top``-sheaf of the walk as a view of its mappings, valid
    until the next item; once they are exhausted, ``sample`` holds what
    ``sample_presheaves`` draws with the same rng, built."""
    for value, restrict, sheaf in reservoir(walk_presheaves(cat, max_card, top), k, rng,
                                            sample, partial(_build, cat)):
        if sheaf:
            yield SetPresheaf(cat, value, restrict)
