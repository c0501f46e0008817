"""Exhaustive and sampled enumeration of presheaves within a value bound."""
from __future__ import annotations

from itertools import product
from random import Random
from typing import Iterable, Iterator, TypeVar

from .core import FiniteCategory, SetPresheaf
from .util import backtrack

LABELS = ("s0", "s1", "s2", "s3")
T = TypeVar("T")


def enumerate_presheaves(cat: FiniteCategory, max_card: int) -> Iterator[SetPresheaf]:
    """All presheaves with every value of cardinality <= max_card, on the
    canonical labels: per size vector, one ``backtrack`` over the non-identity
    restriction maps (tables in ``product`` order), checking each
    contravariance constraint as soon as its participants are assigned."""
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

        def ok(i: int) -> bool:
            for g, f, gf, sections in checks[i]:
                rg, rf, rgf = assigned[g], assigned[f], assigned[gf]
                for s in sections:
                    if rgf[s] != rf[rg[s]]:
                        return False
            return True

        for restrict in backtrack(nonid, tables.__getitem__, ok, assigned):
            yield SetPresheaf(cat, dict(value), {m: dict(t) for m, t in restrict.items()})


def reservoir(items: Iterable[T], k: int, rng: Random, sample: list[T]) -> Iterator[T]:
    """Yield every item; once they are exhausted, ``sample`` holds k of them
    drawn uniformly (item i >= k takes slot ``rng.randint(0, i)`` if below k)."""
    for i, item in enumerate(items):
        if i < k:
            sample.append(item)
        else:
            j = rng.randint(0, i)
            if j < k:
                sample[j] = item
        yield item


def sample_presheaves(cat: FiniteCategory, max_card: int, k: int, rng: Random) -> list[SetPresheaf]:
    """Reservoir-sample k presheaves from the full enumeration."""
    sample: list[SetPresheaf] = []
    for _ in reservoir(enumerate_presheaves(cat, max_card), k, rng, sample):
        pass
    return sample
