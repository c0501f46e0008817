from __future__ import annotations

import hashlib

from hosite import random_site


def test_random_site_digests_frozen():
    # seeds and replay commands name sites by seed, so the generator's
    # output for seeds 0-199 must never drift
    joined = "\n".join(random_site(seed).digest for seed in range(200))
    assert hashlib.sha256(joined.encode()).hexdigest() == \
        "4199128d7d9fdaf4000742f7c9df28f5334ec8ef125504d33a8e64ce172e2537"
