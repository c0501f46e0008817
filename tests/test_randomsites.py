from __future__ import annotations

import hashlib

from hosite import random_site


def test_random_site_digests_frozen():
    # seeds and replay commands name sites by seed, so the generator's
    # output for seeds 0-199 must never drift
    joined = "\n".join(random_site(seed).digest for seed in range(200))
    assert hashlib.sha256(joined.encode()).hexdigest() == \
        "4199128d7d9fdaf4000742f7c9df28f5334ec8ef125504d33a8e64ce172e2537"


def test_random_site_digests_frozen_at_wider_limits():
    # at (5, 12, 8) the composite search runs out of its node budget in 11
    # of the 61 searches for these seeds, so this also pins the budget path
    joined = "\n".join(random_site(seed, 5, 12, 8).digest for seed in range(50))
    assert hashlib.sha256(joined.encode()).hexdigest() == \
        "fe0ea3ba457ef6d2a34126b9635d0a3f3c96d4d6f7ef4f048b63a52e73a21b4a"
