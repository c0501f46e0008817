from __future__ import annotations

import hashlib
from itertools import product
from random import Random

import pytest

import oracles
from hosite import random_site, randomsites
from hosite.util import backtrack
from oracles import assign_composites_by_name, associative_so_far


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


def _codes(objects, arrows) -> list[str]:
    """The arrow names in the composite search's code order: the arrows,
    then each object's identity."""
    return [a[0] for a in arrows] + ["id_" + o for o in objects]


def _pair(key: int, codes) -> tuple[str, str]:
    return codes[key // len(codes)], codes[key % len(codes)]


def _named(table, codes) -> dict:
    """A coded composition table with its keys and values decoded to names."""
    return {_pair(k, codes): codes[v] for k, v in table.items()}


def _watch_searches(monkeypatch, against_oracle: bool) -> dict:
    """Counts the composite searches, the nodes they try and the searches
    that find no table; with ``against_oracle``, also checks every node's
    verdict, on the table decoded to names, against a rescan of every
    triple while the budget lasts."""
    counts = {"nodes": 0, "searches": 0, "none": 0}
    search = randomsites.backtrack
    assign = randomsites._assign_composites
    codes: list[str] = []  # the names of the current search's codes

    def captured(rng, objects, arrows):
        codes[:] = _codes(objects, arrows)
        return assign(rng, objects, arrows)

    def watched(keys, choices, ok, cur):
        counts["searches"] += 1
        pairs = [_pair(k, codes) for k in keys]
        names = sorted({f for _, f in pairs})
        nodes = 0

        def counted(i):
            nonlocal nodes
            nodes += 1
            counts["nodes"] += 1
            verdict = ok(i)
            if against_oracle:
                table = _named(cur, codes)
                expected = nodes < randomsites._NODE_BUDGET and associative_so_far(table, pairs, names)
                assert verdict == expected, (pairs[:i + 1], table)
            return verdict

        found = False
        for table in search(keys, choices, counted, cur):
            found = True
            yield table
        if not found:
            counts["none"] += 1

    monkeypatch.setattr(randomsites, "_assign_composites", captured)
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
    arrows = [(m, "o", "o") for m in names]
    codes = _codes(["o"], arrows)
    prefix = ["m1", "m2", "m3", "m3"]
    verdicts = {}

    def replay(keys, choices, ok, cur):
        pairs = [_pair(k, codes) for k in keys]
        for i, value in enumerate(prefix):
            cur[keys[i]] = codes.index(value)
            assert ok(i)
        i = len(prefix)
        assert pairs[i] == ("m2", "m2")
        for code in choices(i):
            cur[keys[i]] = code
            value = codes[code]
            verdicts[value] = ok(i)
            table = _named(cur, codes)
            assert verdicts[value] == associative_so_far(table, pairs, names)
            if value == "m1":
                failing = [t for t in product(names, repeat=3)
                           if not associative_so_far(table, [t[:2]], [t[2]])]
                assert failing == [("m2", "m2", "m2")]
        return iter(())

    monkeypatch.setattr(randomsites, "backtrack", replay)
    assert randomsites._assign_composites(Random(0), ["o"], arrows) is None
    assert verdicts["m1"] is False and len(verdicts) == 4


def _counting_backtrack(nodes: list[int]):
    """``util.backtrack`` with every call of ``ok`` counted in ``nodes[0]``."""
    def counted(keys, choices, ok, cur):
        def node(i):
            nodes[0] += 1
            return ok(i)
        return backtrack(keys, choices, node, cur)
    return counted


@pytest.mark.parametrize("limits, seeds, searches, none", [
    ((4, 8, 6), 200, 229, 29),
    ((5, 12, 8), 50, 61, 11),
])
def test_coded_search_replays_the_name_keyed_oracle(monkeypatch, limits, seeds, searches, none):
    # every composite search random_site makes, replayed from its rng state
    # by the coded search and by the name-keyed oracle: the same table (or
    # None), the same node count and the same rng state afterwards
    calls = []
    assign = randomsites._assign_composites

    def captured(rng, objects, arrows):
        calls.append((rng.getstate(), list(objects), list(arrows)))
        return assign(rng, objects, arrows)

    monkeypatch.setattr(randomsites, "_assign_composites", captured)
    for seed in range(seeds):
        random_site(seed, *limits)
    nodes = [0]
    monkeypatch.setattr(randomsites, "backtrack", _counting_backtrack(nodes))
    monkeypatch.setattr(oracles, "backtrack", _counting_backtrack(nodes))
    found_none = 0
    for state, objects, arrows in calls:
        outcomes = []
        for search in (assign, assign_composites_by_name):
            rng = Random()
            rng.setstate(state)
            nodes[0] = 0
            table = search(rng, objects, arrows)
            outcomes.append((table, nodes[0], rng.getstate()))
        assert outcomes[0] == outcomes[1], (objects, arrows)
        found_none += outcomes[0][0] is None
    assert (len(calls), found_none) == (searches, none)


@pytest.mark.parametrize("limits, name", [
    ((0, 8, 6), "max_objects"),
    ((4, -1, 6), "max_morphisms"),
    ((4, 8, -3), "max_edges"),
])
def test_limit_below_its_least_value_is_named(monkeypatch, limits, name):
    # refused before the seed's generator is even made, so no draw is spent
    monkeypatch.setattr(randomsites, "Random", None)
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        random_site(0, *limits)


def test_least_limits_are_accepted():
    raw = random_site(0, 1, 0, 0).raw
    assert raw["objects"] == ["o1"] and raw["morphisms"] == raw["edges"] == []
