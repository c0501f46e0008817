from __future__ import annotations

import hashlib
from itertools import product
from random import Random

import pytest

from hosite import random_site, randomsites
from oracles import associative_so_far


def test_random_site_digests_frozen():
    # seeds and replay commands name sites by seed, so the generator's
    # output for seeds 0-199 must never drift
    joined = "\n".join(random_site(seed).digest for seed in range(200))
    assert hashlib.sha256(joined.encode()).hexdigest() == \
        "4199128d7d9fdaf4000742f7c9df28f5334ec8ef125504d33a8e64ce172e2537"


def test_random_site_digests_frozen_at_wider_limits():
    # at (5, 12, 8) the composite search runs out of its node budget in 45
    # of the 247 searches for these seeds, so this also pins the budget path
    joined = "\n".join(random_site(seed, 5, 12, 8).digest for seed in range(200))
    assert hashlib.sha256(joined.encode()).hexdigest() == \
        "e68a3fccd37faed9654ecd2e1c8d124ac57f0c91db676ac82dc40a89a6845932"


def _watch_searches(monkeypatch, against_oracle: bool) -> dict:
    """Counts the composite searches, the nodes they try and the searches
    that find no table; with ``against_oracle``, also checks every node's
    verdict against a rescan of every triple while the budget lasts."""
    counts = {"nodes": 0, "searches": 0, "none": 0}
    search = randomsites.backtrack

    def watched(keys, choices, ok, cur):
        counts["searches"] += 1
        names = sorted({f for _, f in keys})
        nodes = 0

        def counted(i):
            nonlocal nodes
            nodes += 1
            counts["nodes"] += 1
            verdict = ok(i)
            if against_oracle:
                expected = nodes < randomsites._NODE_BUDGET and associative_so_far(cur, keys, names)
                assert verdict == expected, (keys[:i + 1], dict(cur))
            return verdict

        found = False
        for table in search(keys, choices, counted, cur):
            found = True
            yield table
        if not found:
            counts["none"] += 1

    monkeypatch.setattr(randomsites, "backtrack", watched)
    return counts


@pytest.mark.parametrize("limits, seeds", [((4, 8, 6), 200), ((5, 12, 8), 50)])
def test_slot_check_agrees_with_full_rescan(monkeypatch, limits, seeds):
    counts = _watch_searches(monkeypatch, against_oracle=True)
    for seed in range(seeds):
        random_site(seed, *limits)
    assert counts["nodes"] > 0


@pytest.mark.parametrize("limits, nodes, searches, none", [
    ((4, 8, 6), 121_394, 229, 29),
    ((5, 12, 8), 203_028, 247, 47),
])
def test_random_site_search_counts_frozen(monkeypatch, limits, nodes, searches, none):
    # a prune that changes which searches run out of budget shows here by
    # name, before it shifts any digest
    counts = _watch_searches(monkeypatch, against_oracle=False)
    for seed in range(200):
        random_site(seed, *limits)
    assert counts == {"nodes": nodes, "searches": searches, "none": none}


def test_slot_check_on_a_key_read_twice(monkeypatch):
    # one object with three loops. After m1∘m1 = m1, m1∘m2 = m2, m1∘m3 = m3
    # and m2∘m1 = m3, setting m2∘m2 = m1 breaks associativity only at
    # (m2, m2, m2), which reads the new key as both h∘g and g∘f:
    # m2∘(m2∘m2) = m2∘m1 = m3 but (m2∘m2)∘m2 = m1∘m2 = m2
    names = ["m1", "m2", "m3"]
    prefix = ["m1", "m2", "m3", "m3"]
    verdicts = {}

    def replay(keys, choices, ok, cur):
        for i, value in enumerate(prefix):
            cur[keys[i]] = value
            assert ok(i)
        i = len(prefix)
        assert keys[i] == ("m2", "m2")
        for value in choices(i):
            cur[keys[i]] = value
            verdicts[value] = ok(i)
            assert verdicts[value] == associative_so_far(cur, keys, names)
            if value == "m1":
                failing = [t for t in product(names, repeat=3)
                           if not associative_so_far(cur, [t[:2]], [t[2]])]
                assert failing == [("m2", "m2", "m2")]
        return iter(())

    monkeypatch.setattr(randomsites, "backtrack", replay)
    arrows = [(m, "o", "o") for m in names]
    assert randomsites._assign_composites(Random(0), ["o"], arrows) is None
    assert verdicts["m1"] is False and len(verdicts) == 4
