"""Exhaustive and sampled enumeration of presheaves within a value bound."""
from __future__ import annotations

from itertools import product
from random import Random
from typing import Iterable, Iterator, TypeVar

from .core import FiniteCategory, SetPresheaf

LABELS = ("s0", "s1", "s2", "s3")
T = TypeVar("T")


def enumerate_presheaves(cat: FiniteCategory, max_card: int) -> Iterator[SetPresheaf]:
    """All presheaves with every value of cardinality <= max_card, on the
    canonical labels. Backtracks over the non-identity restriction maps and
    checks each contravariance constraint as soon as its participants are
    assigned."""
    if not 0 <= max_card <= len(LABELS):
        raise ValueError(f"value bound {max_card} is outside 0..{len(LABELS)}")
    objs = cat.objects
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    midx = {m: i for i, m in enumerate(nonid)}

    # (g, f, gf) with identity-free operands; triggered once all three maps exist
    constraints = []
    for g in nonid:
        for f in nonid:
            if cat.composable(g, f):
                gf = cat.composition[(g, f)]
                trigger = max(midx[g], midx[f], midx.get(gf, -1))
                constraints.append((trigger, g, f, gf))
    triggers: list[list[tuple[str, str, str]]] = [[] for _ in nonid]
    for trigger, g, f, gf in constraints:
        triggers[trigger].append((g, f, gf))

    for sizes in product(range(max_card + 1), repeat=len(objs)):
        value = {o: tuple(LABELS[:k]) for o, k in zip(objs, sizes)}
        assigned: dict[str, dict[str, str]] = {
            cat.identity[o]: {s: s for s in value[o]} for o in objs
        }

        def rec(i: int) -> Iterator[SetPresheaf]:
            if i == len(nonid):
                yield SetPresheaf(cat, dict(value), {m: dict(t) for m, t in assigned.items()})
                return
            m = nonid[i]
            src = value[cat.cod[m]]
            tgt = value[cat.dom[m]]
            for choice in product(tgt, repeat=len(src)):
                table = dict(zip(src, choice))
                assigned[m] = table
                ok = True
                for g, f, gf in triggers[i]:
                    rg, rf, rgf = assigned[g], assigned[f], assigned[gf]
                    for s in value[cat.cod[g]]:
                        if rgf[s] != rf[rg[s]]:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    yield from rec(i + 1)
            assigned.pop(m, None)

        yield from rec(0)


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
