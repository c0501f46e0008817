"""Record the output digests the benchmark checks against (``reference.json``).

    python3 perfbench/record_reference.py

Run this only on a commit whose outputs are known good; the committed file
was recorded at the commit that introduced the benchmark. Everything here
is computed without the benchmark's own checks, so a regression in the
program cannot leak into the reference through them.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, import_hosite, _out_dir
from workloads import (
    POPULATION_BOUND,
    POPULATION_SIZE,
    WIDE_BOUND,
    WIDE_FIXTURES,
    Queries,
    _strip_digest,
    results_digest,
    seed_free_digest,
    sha256,
)

# seeds whose full outputs are recorded; other seeds are checked on their
# seed-independent part only
RECORDED_SEEDS = (0, 1)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"refusing to record: {message}")


def record(hs) -> dict:
    ref: dict = {"random_site": {}, "population": {}, "wide_values": {},
                 "queries": {"site_reports": {}, "all_reports": {}}}
    for i in range(POPULATION_SIZE):
        ref["random_site"][str(i)] = hs.random_site(i).digest
    population = hs.run_population(count=POPULATION_SIZE, base_seed=0,
                                   bound=POPULATION_BOUND, workers=2)
    for label, checks in population:
        require(all(c.verdict == "pass" for c in checks), label)
        ref["population"][label] = results_digest(checks)

    for name in WIDE_FIXTURES:
        full, free = {}, set()
        for seed in RECORDED_SEEDS:
            checks = hs.run_site_suite(hs.fixture_site(name), bound=WIDE_BOUND, seed=seed)
            require(all(c.verdict == "pass" for c in checks), name)
            full[str(seed)] = results_digest(checks)
            free.add(seed_free_digest(checks))
        require(len(free) == 1, f"fixture {name}: seed-free digest depends on the seed")
        ref["wide_values"][f"fixture-{name}"] = {"seed_free": free.pop(), "full": full}

    workdir = tempfile.mkdtemp(prefix="record-", dir=_out_dir())
    try:
        for seed in RECORDED_SEEDS:
            state = Queries().setup(hs, seed, Path(workdir) / f"seed-{seed}")
            for key, label, argv in state.requests:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = hs.cli.main(argv)
                require(code == 0, key)
                state.outputs[key] = stdout.getvalue()
                if argv[0] in ("ho", "induce"):
                    digest = sha256(_strip_digest(stdout.getvalue()))
                    known = ref["queries"]["site_reports"].setdefault(f"{label} {argv[0]}", digest)
                    require(known == digest, key)
            ref["queries"]["all_reports"][str(seed)] = Queries.all_reports_digest(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return ref


def main() -> int:
    ref = record(import_hosite())
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
