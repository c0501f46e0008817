"""The depth-first kernel and the order of every search built on it.

Hom-set and family tests elsewhere compare as sets; these digests pin the
exact sequences, since reservoir draws and truncated listings depend on order.
"""
from __future__ import annotations

import hashlib
import json
from itertools import product, zip_longest
from random import Random

import pytest

import hosite.core as core
import hosite.enumeration as enumeration
from hosite import SetPresheaf, constant_presheaf, hom_presheaves, matching_families, random_site, run_site_suite, yoneda
from hosite.enumeration import enumerate_presheaves, leaves, reservoir, sample_presheaves
from hosite.util import backtrack
from oracles import iter_hom_by_object, reservoir_by_randint, walk_blocks, walk_by_leaf


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def presheaf_sequence(presheaves):
    for pre in presheaves:
        yield json.dumps([pre.value, pre.restrict], sort_keys=True)


def hom_pairs(site):
    # the pairs of test_core.test_hom_agrees_with_product_oracle
    cat = site.category
    pres = list(site.presheaves.values()) + [constant_presheaf(cat, ["0"])]
    pres += [yoneda(cat, x) for x in cat.objects]
    return list(product(pres, repeat=2))


def hom_sequence(pairs, hom=hom_presheaves):
    for u, f in pairs:
        for m in hom(u, f):
            yield json.dumps(m.components, sort_keys=True)
        yield "--"


def family_sequence(site):
    cat = site.category
    pres = {name: site.presheaves[name] for name in sorted(site.presheaves)}
    pres["const01"] = constant_presheaf(cat, ["0", "1"])
    pres.update((f"y{x}", yoneda(cat, x)) for x in cat.objects)
    for name, pre in pres.items():
        for x in cat.objects:
            for s in site.topology.covers_of(x):
                yield f"{name} {x} {sorted(s.members)}"
                for fam in matching_families(pre, s):
                    yield json.dumps(fam.assignment)


# sha256 of each sequence, computed before the searches shared one kernel
PRESHEAF_DIGESTS = {
    ("A", 2): "9aae33535f8cc7d4a9160968a3390c9c1890e848462942f8c79a934f04710504",
    ("B", 2): "ffe3734110e5feadb73eeda7e3703ba5ca4ca21118d132ed5cabedb0a236c762",
    ("C", 2): "ffe3734110e5feadb73eeda7e3703ba5ca4ca21118d132ed5cabedb0a236c762",
    ("D", 2): "3bbbbca62bbad5edabffb0c189ce9f0643a9d9d069a6b855819c56a3795dad28",
    ("E", 2): "80039a5937b4737e11ffffe2cd9db40298e815e9b5cfd2fee44cacc7d8d53797",
    ("B", 3): "de4d3c131283a7d86b7b307b458f8f77ff93000d4ea08c04abc8e98aac512996",
    ("E", 3): "76f99426e62412cf610593b65ac3b8a9a70979bbc3d354e3d33972a5334ab032",
}
HOM_DIGESTS = {
    "A": "551ff38dc496b85b070ba77a2bf2083ff3be3287daa84db247881f5870405f2a",
    "B": "aa9460db3775abd4cceb9900b5d6be248d8fc05912c46cadaa72794bdbff6e2b",
    "C": "aa9460db3775abd4cceb9900b5d6be248d8fc05912c46cadaa72794bdbff6e2b",
    "D": "4d8e3f9ac23a8e84ae85dc63b43c0308ce250d7182275a1bf0cdbc1483c2179e",
    "E": "0edbd8a13e5256d1eeabf6b7c5e2b4e2ec1745e1636bfef0815e9e4a05897ca9",
}
FAMILY_DIGESTS = {
    "A": "65bacae95852738b84b373a4b1730467d6dcdbdf97e9afe858013cc3b7cd8184",
    "B": "a5592b80eddd3cb90b8d9d9953090ccbbe2af05386bba167bc48514bf9558fb5",
    "C": "a5592b80eddd3cb90b8d9d9953090ccbbe2af05386bba167bc48514bf9558fb5",
    "D": "4db274caaac4f3c501f53c06ab4565606e9024f73a535a228c95d9edbb3b0597",
    "E": "471a389123b68411da22dd06156e83cecee96ebac969add66c5053a9ef23d6fc",
}


@pytest.mark.parametrize("name,bound", sorted(PRESHEAF_DIGESTS))
def test_presheaf_order_frozen(all_sites, name, bound):
    # digested as each presheaf is yielded, and again once the walk is over:
    # a copy that still aliased the walk's live tables would change the second
    cat = all_sites[name].category
    assert _digest(presheaf_sequence(enumerate_presheaves(cat, bound))) == PRESHEAF_DIGESTS[(name, bound)]
    kept = list(enumerate_presheaves(cat, bound))
    assert _digest(presheaf_sequence(kept)) == PRESHEAF_DIGESTS[(name, bound)]


@pytest.mark.parametrize("name", sorted(HOM_DIGESTS))
def test_hom_order_frozen(all_sites, name):
    assert _digest(hom_sequence(hom_pairs(all_sites[name]))) == HOM_DIGESTS[name]


def _one_empty_value(cat, o):
    """The first presheaf at bound 2 whose value is empty at o and only there
    (None where an arrow out of o forces another empty value)."""
    return next((pre for pre in enumerate_presheaves(cat, 2)
                 if all(bool(pre.value[x]) == (x != o) for x in cat.objects)), None)


def test_hom_order_matches_per_object_search(all_sites, random_sites):
    # per-section branching must give the per-object tables' sequence, not
    # only their set: the engine keeps the first two, group (a) the first 12
    pairs = [pair for name in sorted(all_sites) for pair in hom_pairs(all_sites[name])]
    for name in "BC":
        for seed in range(3):
            pres = sample_presheaves(all_sites[name].category, 4, 6, Random(seed))
            pairs += product(pres, repeat=2)
    for seed, site in enumerate(random_sites):
        pairs += product(sample_presheaves(site.category, 2, 4, Random(seed)), repeat=2)
    empties = 0
    for site in all_sites.values():
        cat = site.category
        full = constant_presheaf(cat, ["0", "1"])
        for empty in filter(None, (_one_empty_value(cat, o) for o in cat.objects)):
            pairs += [(empty, full), (full, empty), (empty, empty)]
            empties += 1
    assert empties >= len(all_sites)
    assert list(hom_sequence(pairs)) == list(hom_sequence(pairs, iter_hom_by_object))


def _values_tried(module, site, bound, monkeypatch) -> int:
    """Values offered to the slots of ``module``'s searches over one suite."""
    tried = 0

    def counting(keys, choices, ok, cur):
        def counted(i):
            nonlocal tried
            tried += 1
            return ok(i)
        return backtrack(keys, choices, counted, cur)

    monkeypatch.setattr(module, "backtrack", counting)
    run_site_suite(site, bound=bound, seed=0)
    return tried


def test_hom_values_tried_frozen(site_b, monkeypatch):
    # over one wide-value suite; the per-object search tried 70,579 whole
    # component tables here
    assert _values_tried(core, site_b, 4, monkeypatch) == 2185


def test_walk_values_tried_frozen(site_b, monkeypatch):
    # the one walk of a wide-value suite, over the base; a walk that set the
    # free last slot through backtrack tried 78,631 values here. A second
    # walk, over the quotient, set each of its 499 leaves too (1,256 in all)
    # before the quotient's presheaves were read off the base walk
    assert _values_tried(enumeration, site_b, 4, monkeypatch) == 757


def _leaf_sequence(walk):
    for pre, sheaf in walk:
        yield list(pre.restrict.items()), sheaf


def test_walk_in_blocks_matches_leaf_walk(all_sites, random_sites):
    # the same leaves, maps in the same order, and the same verdicts as the
    # walk setting every slot; base walks with the site's topology, quotient
    # walks with none, as the suite runs them
    sites = [*all_sites.values(), *random_sites, *map(random_site, range(50, 60))]
    cases = [(site.category, 2, site.topology) for site in sites]
    cases += [(site.homotopy.ho, 2, None) for site in sites]
    cases += [(all_sites[name].category, 3, all_sites[name].topology) for name in "BDE"]
    cases.append((all_sites["B"].category, 4, all_sites["B"].topology))
    sizes: list[int] = []
    for cat, bound, top in cases:
        walk = walk_blocks(cat, bound, top)
        if bound == 4:
            # a block's view is valid only until the next block: record sizes
            walk = (sizes.append(len(block[3])) or block for block in walk)
        expected = _leaf_sequence(walk_by_leaf(cat, bound, top))
        for leaf_count, (got, want) in enumerate(zip_longest(_leaf_sequence(leaves(walk)), expected), 1):
            assert got == want
    assert (len(sizes), sum(sizes), leaf_count) == (739, 77_633, 77_633)


def test_reservoir_draws_as_randint(site_b):
    # B at bound 4 has 77,633 leaves, so i reaches every bit length up to 17;
    # the block reservoirs are stacked on one walk and the randint oracles on
    # its leaves, each copying at its own draws. Streams one draw apart fall
    # back into step through the redraws, so the 25 leaves at bound 2 are
    # checked as well
    for bound, count in ((2, 25), (4, 77_633)):
        blocks = walk_blocks(site_b.category, bound)
        runs = []
        for k in (1, 3, 10):
            for seed in range(3):
                runs.append((k, Random(seed), [], Random(seed), []))
                blocks = reservoir(blocks, k, runs[-1][1], runs[-1][2])
        walk = leaves(blocks)
        for k, _, _, oracle_rng, oracle_sample in runs:
            walk = reservoir_by_randint(walk, k, oracle_rng, oracle_sample)
        assert sum(1 for _ in walk) == count
        for k, rng, sample, oracle_rng, oracle_sample in runs:
            assert len(sample) == k
            assert [list(p.restrict.items()) for p in sample] == [list(p.restrict.items()) for p in oracle_sample]
            assert list(presheaf_sequence(sample)) == list(presheaf_sequence(oracle_sample))
            assert rng.getstate() == oracle_rng.getstate()


def _assert_reservoir_as_randint(blocks, k, seed):
    """One block reservoir against the randint oracle on the same leaves:
    the same copies, key order included, and the same rng state."""
    rng, sample, oracle_rng, oracle_sample = Random(seed), [], Random(seed), []
    walk = leaves(reservoir(blocks, k, rng, sample))
    count = sum(1 for _ in reservoir_by_randint(walk, k, oracle_rng, oracle_sample))
    assert len(sample) == min(k, count)
    assert [list(p.restrict.items()) for p in sample] == [list(p.restrict.items()) for p in oracle_sample]
    assert rng.getstate() == oracle_rng.getstate()


def _sized_blocks(cat, sizes):
    """Blocks of the given sizes on one view, the free slot taking a fresh
    table per leaf."""
    pre, n = SetPresheaf(cat, {}, {"id": {}}), 0
    for size in sizes:
        yield pre, None, "f", [{"s0": f"s{i}"} for i in range(n, n + size)]
        n += size


@pytest.mark.parametrize("sizes, k", [
    ((0, 2, 0, 0, 3, 0), 3),  # empty blocks, first and last among them
    ((2, 5, 1), 3),  # the second block straddles k
    ((3, 29), 1),  # leaf numbers 4..32 cross 8, 16 and 32 inside one block
    ((7, 1, 8, 17), 2),  # blocks starting at 8, ending at 16, crossing 32
    ((1, 0, 2), 10),  # fewer leaves than k
    ((4,), 4),
    ((3, 4), 0),
])
def test_reservoir_block_boundaries(site_b, sizes, k):
    for seed in range(5):
        _assert_reservoir_as_randint(_sized_blocks(site_b.category, sizes), k, seed)


def _with_empty_blocks(blocks, inserted: list):
    """Each block with a free slot preceded by an empty one on the same view
    and slot; ``inserted`` counts them."""
    for block in blocks:
        if block[2] is not None:
            inserted.append(None)
            yield (*block[:3], [])
        yield block


def test_reservoir_over_empty_blocks(site_d):
    # the walk skips a size vector with a map from a non-empty value into an
    # empty one, so it yields no empty block (D's free slots had 8 of 33 at
    # bound 2 and 56 of 240 at bound 3); the reservoir still draws as randint
    # with an empty block before each of the walk's 25 and 184
    inserted: list = []
    for bound in (2, 3):
        assert all(block[3] for block in walk_blocks(site_d.category, bound))
        for k in (1, 3, 10):
            for seed in range(3):
                blocks = _with_empty_blocks(walk_blocks(site_d.category, bound), inserted)
                _assert_reservoir_as_randint(blocks, k, seed)
    assert len(inserted) == 9 * (25 + 184)


@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_family_order_frozen(all_sites, name):
    assert _digest(family_sequence(all_sites[name])) == FAMILY_DIGESTS[name]


def test_backtrack_zero_slots_yields_once():
    cur = {"a": 1}
    assert [dict(c) for c in backtrack((), lambda i: "xy", lambda i: True, cur)] == [{"a": 1}]


def test_backtrack_empty_slot_yields_nothing():
    choices = lambda i: "xy" if i != 1 else ""
    cur: dict = {}
    assert list(backtrack("pqr", choices, lambda i: True, cur)) == []
    assert cur == {}


def test_backtrack_order_and_restore():
    # slot i may take any of "xyz" except the value of slot i - 1
    keys = ("p", "q", "r")
    cur = {"init": 0}
    seen = []

    def ok(i):
        # at every check, cur holds its initial entry plus slots 0..i
        assert list(cur) == ["init", *keys[:i + 1]]
        return i == 0 or cur[keys[i]] != cur[keys[i - 1]]

    for c in backtrack(keys, lambda i: "xyz", ok, cur):
        assert list(c) == ["init", *keys]
        seen.append("".join(c[k] for k in keys))
    expected = [a + b + c for a in "xyz" for b in "xyz" for c in "xyz" if a != b != c]
    assert seen == expected
    assert cur == {"init": 0}


def test_backtrack_abandoned_part_way():
    cur: dict = {}
    it = backtrack("pq", lambda i: "xy", lambda i: True, cur)
    first = next(it)
    assert first is cur and cur == {"p": "x", "q": "x"}
    it.close()
