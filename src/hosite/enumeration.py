"""Exhaustive and sampled enumeration of presheaves within a value bound.

One depth-first walk sets the non-identity restriction maps slot by slot.
Given a topology it also decides the sheaf test: each half of the test at a
least cover reads a fixed set of maps, so it runs once, at the slot that
sets the last of them (or once per size vector), for the whole subtree.
A last slot with no contravariance check and no sheaf test to run is free:
its values are leaves with the prefix's verdict, handed over as one block.
``leaves`` expands blocks in order on a ``SetPresheaf`` view over the
walk's own tables, valid until the next item; the walk replaces tables and
never edits one. ``reservoir`` draws a block in runs of one bit length
with ``randint``'s own ``getrandbits`` arithmetic and copies only the leaves
it keeps.
"""
from __future__ import annotations

from itertools import product
from random import Random
from typing import Iterable, Iterator

from .core import FiniteCategory, SetPresheaf
from .sheafify import sheaf_tests
from .sieves import GrothendieckTopology
from .util import backtrack

LABELS = ("s0", "s1", "s2", "s3")


def walk_blocks(cat: FiniteCategory, max_card: int, top: GrothendieckTopology | None = None):
    """All presheaves with every value of cardinality <= max_card, on the
    canonical labels: per size vector, one ``backtrack`` over the non-identity
    maps (tables in ``product`` order) but a free last one, checking each
    contravariance constraint once its participants are set. Yields blocks
    (pre, sheaf, last, values): a view with every map but ``last`` set
    (identities first), whether its leaves are ``top``-sheaves (None without
    a topology), and the free slot with its tables, or None and (None,)."""
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
    # sheaf tests by the slot that sets their last map; those reading none
    # decide each size vector
    tests: list[list] = [[] for _ in nonid]
    per_vector: list = []
    for reads, test in sheaf_tests(top) if top is not None else ():
        slot = max((midx[m] for m in reads), default=-1)
        (tests[slot] if slot >= 0 else per_vector).append(test)

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
        pre = SetPresheaf(cat, value, assigned)
        sheaf = None if top is None else all(test(pre) for test in per_vector)
        # verdict[i]: the sheaf verdict of the subtree under slot i's value
        verdict = [sheaf] * len(nonid)
        free = bool(nonid) and not triggers[-1] and not (sheaf and tests[-1])
        slots, block = (nonid[:-1], (nonid[-1], tables[-1])) if free else (nonid, (None, (None,)))

        def ok(i: int) -> bool:
            for g, f, gf, sections in checks[i]:
                rg, rf, rgf = assigned[g], assigned[f], assigned[gf]
                for s in sections:
                    if rgf[s] != rf[rg[s]]:
                        return False
            # backtrack descends on the value this call accepts
            above = verdict[i - 1] if i else sheaf
            if above and tests[i]:
                above = all(test(pre) for test in tests[i])
            verdict[i] = above
            return True

        for _ in backtrack(slots, tables.__getitem__, ok, assigned):
            yield (pre, verdict[len(slots) - 1] if slots else sheaf, *block)


def leaves(blocks: Iterable[tuple]) -> Iterator[tuple[SetPresheaf, bool | None]]:
    """Each block's (pre, sheaf) leaves: the free slot is set on the view to
    each value, then removed, so ``pre.restrict`` keeps the walk's key order."""
    for pre, sheaf, last, values in blocks:
        if last is None:
            yield pre, sheaf
        else:
            for pre.restrict[last] in values:
                yield pre, sheaf
            pre.restrict.pop(last, None)


def _build(pre: SetPresheaf, last: str | None, value) -> SetPresheaf:
    """One leaf of a block kept past the block: copies the slot mapping only."""
    restrict = {**pre.restrict, last: value} if last else dict(pre.restrict)
    return SetPresheaf(pre.cat, pre.value, restrict)


def enumerate_presheaves(cat: FiniteCategory, max_card: int) -> Iterator[SetPresheaf]:
    """Every presheaf of the walk, in its order."""
    for pre, _, last, values in walk_blocks(cat, max_card):
        yield from (_build(pre, last, value) for value in values)


def reservoir(blocks: Iterable[tuple], k: int, rng: Random, sample: list) -> Iterator[tuple]:
    """Yield every block; once they are exhausted, ``sample`` holds copies
    of k leaves, drawn uniformly: leaf i >= k takes slot ``rng.randint(0, i)``
    if below k, inlined as CPython computes it (``getrandbits`` of n = i + 1's
    bit length, redrawn while >= n), with n walked in runs of one bit length.
    Only the leaves taken are read and copied."""
    getrandbits = rng.getrandbits
    n, bits, top = 1, 0, 1  # the next leaf's n; the run's bit length, and 1 << it
    for block in blocks:
        pre, _, last, values = block
        first, stop = n, n + len(values)
        while n <= k and n < stop:
            sample.append(_build(pre, last, values[n - first]))
            n += 1
        while n < stop:
            if n >= top:
                bits = n.bit_length()
                top = 1 << bits
            for n in range(n, stop if stop < top else top):
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                if j < k:
                    sample[j] = _build(pre, last, values[n - first])
            n += 1
        yield block


def sample_presheaves(cat: FiniteCategory, max_card: int, k: int, rng: Random) -> list[SetPresheaf]:
    """Reservoir-sample k presheaves from the walk, building only those kept."""
    sample: list[SetPresheaf] = []
    for _ in reservoir(walk_blocks(cat, max_card), k, rng, sample):
        pass
    return sample
