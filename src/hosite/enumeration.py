"""Exhaustive and sampled enumeration of presheaves within a value bound.

One depth-first walk sets the non-identity restriction maps slot by slot and
runs each test once, at the slot setting the last map it reads (or once per
size vector), for the whole subtree; a failure sets the test's flag bits, and
a test whose bits are all set is skipped. A last slot with no contravariance
check and no test left to run is free: its values are leaves with the
prefix's flags, handed over as one block. A vector mapping a non-empty value
into an empty one has no leaf and is skipped. Tables are built once per walk,
one list per pair of value sizes, so parallel maps with equal tables hold one
object: a suite walks only its base category, and ``induced`` reads the
quotient's presheaves off it by that identity. ``leaves`` expands blocks on a
``SetPresheaf`` view over the walk's own tables, valid until the next item;
the walk never edits a table.
``reservoir`` draws a block in runs of one bit length with ``randint``'s own
``getrandbits`` arithmetic and copies only the leaves it keeps.
"""
from __future__ import annotations

from itertools import product
from random import Random
from typing import Iterable, Iterator

from .core import FiniteCategory, SetPresheaf
from .util import backtrack

LABELS = ("s0", "s1", "s2", "s3")


def walk_flags(cat: FiniteCategory, max_card: int, tests):
    """All presheaves with every value of cardinality <= max_card, on the
    canonical labels: per size vector, one ``backtrack`` over the non-identity
    maps (tables in ``product`` order) but a free last one, checking each
    contravariance constraint once its participants are set, and each test
    (reads, test, flag), ``test(pre)`` reading only the maps in ``reads``.
    Yields blocks (pre, flags, last, values): a view with every map but
    ``last`` set (identities first), the flags its leaves' failed tests set,
    and the free slot with its tables, or None and (None,)."""
    if not 0 <= max_card <= len(LABELS):
        raise ValueError(f"value bound {max_card} is outside 0..{len(LABELS)}")
    objs = cat.objects
    nonid = [m for m in cat.morphisms if not cat.is_identity(m)]
    midx = {m: i for i, m in enumerate(nonid)}
    at = {o: i for i, o in enumerate(objs)}
    ends = [(at[cat.cod[m]], at[cat.dom[m]]) for m in nonid]

    # (g, f, gf) with identity-free operands; triggered once all three maps exist
    triggers: list[list[tuple[str, str, str, int]]] = [[] for _ in nonid]
    for g in nonid:
        for f in nonid:
            if cat.composable(g, f):
                gf = cat.composition[(g, f)]
                triggers[max(midx[g], midx[f], midx.get(gf, -1))].append((g, f, gf, at[cat.cod[g]]))
    # tests by the slot that sets their last map; those reading none decide
    # each size vector
    slot_tests: list[list] = [[] for _ in nonid]
    per_vector: list = []
    for reads, test, flag in tests:
        slot = max((midx.get(m, -1) for m in reads), default=-1)
        (slot_tests[slot] if slot >= 0 else per_vector).append((test, flag))
    sections = [LABELS[:k] for k in range(max_card + 1)]
    ident = [{s: s for s in sec} for sec in sections]
    lists = {(a, b): [dict(zip(sections[a], c)) for c in product(sections[b], repeat=a)]
             for a in range(max_card + 1) for b in range(max_card + 1)}

    for sizes in product(range(max_card + 1), repeat=len(objs)):
        if any(sizes[c] and not sizes[d] for c, d in ends):
            continue
        value = {o: sections[k] for o, k in zip(objs, sizes)}
        tables = [lists[sizes[c], sizes[d]] for c, d in ends]
        assigned = {cat.identity[o]: ident[k] for o, k in zip(objs, sizes)}
        pre = SetPresheaf(cat, value, assigned)
        start = 0
        for test, flag in per_vector:
            if start & flag != flag and not test(pre):
                start |= flag
        # state[i]: the flags of the subtree under slot i's value
        state = [start] * len(nonid)
        free = bool(nonid) and not triggers[-1] and all(start & f == f for _, f in slot_tests[-1])
        slots, block = (nonid[:-1], (nonid[-1], tables[-1])) if free else (nonid, (None, (None,)))

        def ok(i: int) -> bool:
            for g, f, gf, c in triggers[i]:
                rg, rf, rgf = assigned[g], assigned[f], assigned[gf]
                for s in sections[sizes[c]]:
                    if rgf[s] != rf[rg[s]]:
                        return False
            # backtrack descends on the value this call accepts
            flags = state[i - 1] if i else start
            for test, flag in slot_tests[i]:
                if flags & flag != flag and not test(pre):
                    flags |= flag
            state[i] = flags
            return True

        for _ in backtrack(slots, tables.__getitem__, ok, assigned):
            yield (pre, state[len(slots) - 1] if slots else start, *block)


def leaves(blocks: Iterable[tuple]) -> Iterator[tuple[SetPresheaf, int]]:
    """Each block's (pre, flags) leaves: the free slot is set on the view to
    each value, then removed, so ``pre.restrict`` keeps the walk's key order."""
    for pre, flags, last, values in blocks:
        if last is None:
            yield pre, flags
        else:
            for pre.restrict[last] in values:
                yield pre, flags
            pre.restrict.pop(last, None)


def _build(pre: SetPresheaf, last: str | None, value) -> SetPresheaf:
    """One leaf of a block kept past the block: copies the slot mapping only."""
    restrict = {**pre.restrict, last: value} if last else dict(pre.restrict)
    return SetPresheaf(pre.cat, pre.value, restrict)


def enumerate_presheaves(cat: FiniteCategory, max_card: int) -> Iterator[SetPresheaf]:
    """Every presheaf of the walk, in its order."""
    for pre, _, last, values in walk_flags(cat, max_card, ()):
        yield from (_build(pre, last, value) for value in values)


def reservoir(blocks: Iterable[tuple], k: int, rng: Random, sample: list,
              build=_build) -> Iterator[tuple]:
    """Yield every block; once they are exhausted, ``sample`` holds the
    ``build(pre, last, value)`` copies of k leaves, drawn uniformly: leaf
    i >= k takes slot ``rng.randint(0, i)`` if below k, inlined as CPython
    computes it (``getrandbits`` of n = i + 1's bit length, redrawn while
    >= n), with n walked in runs of one bit length. Only the leaves taken are
    read and copied."""
    getrandbits = rng.getrandbits
    n, bits, top = 1, 0, 1  # the next leaf's n; the run's bit length, and 1 << it
    for block in blocks:
        pre, _, last, values = block
        first, stop = n, n + len(values)
        while n <= k and n < stop:
            sample.append(build(pre, last, values[n - first]))
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
                    sample[j] = build(pre, last, values[n - first])
            n += 1
        yield block


def sample_presheaves(cat: FiniteCategory, max_card: int, k: int, rng: Random) -> list[SetPresheaf]:
    """Reservoir-sample k presheaves from the walk, building only those kept."""
    sample: list[SetPresheaf] = []
    for _ in reservoir(walk_flags(cat, max_card, ()), k, rng, sample):
        pass
    return sample
