"""The benchmark's workloads, their inputs and their output checks.

Every workload is a fixed set of work items made from the seed; one *pass*
runs every item once and checks every output. The program is driven only
through public functions of ``hosite``, looked up on the package at call
time so that the tracer's wrappers are seen.

Sites in the population workload are the acceptance population of the
roadmap: fixtures A-E and ``random_site(i)`` for i in 0..199, each run
through ``run_site_suite(site, bound=2, seed=<site seed>)`` exactly as
``run_population(base_seed=0)`` does. The population is fixed rather than
shifted by the benchmark seed because per-site cost is heavy-tailed: over
windows of 200 consecutive seeds the medians of sites/s and per-site
latency spread by 10-20 % between windows, more than any useful bound.
"""
from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

POPULATION_SIZE = 200
POPULATION_BOUND = 2
WIDE_FIXTURES = ("B",)  # C at bound 4 takes ~20 s a suite, too long to repeat in a run
WIDE_BOUND = 4  # the size of the label pool
QUERY_RANDOM_SITES = 30
QUERY_PRESHEAVES = 2
SITES_PLACEHOLDER = "<sites>"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def results_digest(checks) -> str:
    """SHA-256 of a site's CheckResult list, as ``to_dict()`` JSON."""
    return sha256(json.dumps([c.to_dict() for c in checks], sort_keys=True, ensure_ascii=True))


def seed_free_digest(checks) -> str:
    """Digest of the checks whose outcome does not depend on the suite seed:
    only the iso-comparison's sampled morphism count does."""
    rows = []
    for c in checks:
        row = c.to_dict()
        if c.name == "iso-comparison":
            row.pop("detail", None)
            row.pop("data", None)
        rows.append(row)
    return sha256(json.dumps(rows, sort_keys=True, ensure_ascii=True))


def verdict_failures(label: str, checks) -> list[str]:
    return [f"{label}: {c.name} verdict {c.verdict}: {c.detail}"
            for c in checks if c.verdict != "pass"]


@dataclass
class Run:
    """Every timed sample of a run, by work item."""
    latencies_s: dict[str, list[float]] = field(default_factory=dict)  # item -> seconds
    attempted: int = 0
    failed: int = 0
    passes: int = 0  # complete passes
    problems: list[str] = field(default_factory=list)
    # (label, generation s, suite s) per site sample, population only
    splits: list[tuple[str, float, float]] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def median_s(self, key: str) -> float:
        return statistics.median(self.latencies_s[key])


def run_pass(workload, hs, state, ref, seed: int, run: Run, deadline: float | None = None) -> float | None:
    """One pass over the workload's items, each timed and checked; returns
    the pass's wall time. After the first complete pass of ``run``, the pass
    stops early, and returns None, before an item whose median so far would
    end past ``deadline``.

    A full collection before every item starts each one from the same
    collector state, so where its own collections fall does not depend on
    what ran before it; the collections an item triggers are still timed."""
    start = time.perf_counter()
    for key, item in workload.items(state):
        if deadline is not None and run.passes and key in run.latencies_s \
                and time.perf_counter() + run.median_s(key) > deadline:
            return None
        gc.collect()
        run.attempted += 1
        try:
            seconds, problems = workload.run_item(hs, state, item, ref, seed, run)
        except Exception:
            run.fail(_crash(key))
            continue
        run.latencies_s.setdefault(key, []).append(seconds)
        if problems:
            run.fail(f"{key}: " + "; ".join(problems))
    wall = time.perf_counter() - start
    for problem in workload.after_pass(state, ref, seed):
        run.fail(problem)
    run.passes += 1
    return wall


def _crash(label: str) -> str:
    return f"{label}: raised\n{traceback.format_exc()}"


class Population:
    """Serial acceptance population; the seed fixes the visiting order."""
    name = "population"
    item_unit = "sites"
    setup_repeats = 25  # a set-up is one import, ~50 ms

    def setup(self, hs, seed: int, workdir: Path):
        jobs = [(f"fixture-{n}", n, 0) for n in hs.FIXTURE_NAMES]
        jobs += [(f"random-{i}", None, i) for i in range(POPULATION_SIZE)]
        Random(seed).shuffle(jobs)
        return jobs

    def items(self, jobs):
        return [(job[0], job) for job in jobs]

    def run_item(self, hs, jobs, job, ref, seed: int, run: Run):
        label, fixture, site_seed = job
        t0 = time.perf_counter()
        site = hs.fixture_site(fixture) if fixture else hs.random_site(site_seed)
        t1 = time.perf_counter()
        checks = hs.run_site_suite(site, bound=POPULATION_BOUND, seed=site_seed)
        t2 = time.perf_counter()
        run.splits.append((label, t1 - t0, t2 - t1))
        problems = verdict_failures(label, checks)
        if fixture is None and site.digest != ref["random_site"][str(site_seed)]:
            problems.append("random_site digest changed")
        if results_digest(checks) != ref["population"][label]:
            problems.append("results digest changed")
        return t2 - t0, problems

    def after_pass(self, jobs, ref, seed: int) -> list[str]:
        return []


class WideValues:
    """Fixture B at the label-pool bound; the seed is the suite seed."""
    name = "wide_values"
    item_unit = "suites"
    setup_repeats = 25  # a set-up is one import, ~50 ms

    def setup(self, hs, seed: int, workdir: Path):
        return None

    def items(self, state):
        return [(f"fixture-{name}", name) for name in WIDE_FIXTURES]

    def run_item(self, hs, state, name, ref, seed: int, run: Run):
        label = f"fixture-{name}"
        t0 = time.perf_counter()
        checks = hs.run_site_suite(hs.fixture_site(name), bound=WIDE_BOUND, seed=seed)
        seconds = time.perf_counter() - t0
        expected = ref["wide_values"][label]
        problems = verdict_failures(label, checks)
        if seed_free_digest(checks) != expected["seed_free"]:
            problems.append("seed-independent results digest changed")
        if str(seed) in expected["full"] and results_digest(checks) != expected["full"][str(seed)]:
            problems.append(f"results digest changed for seed {seed}")
        return seconds, problems

    def after_pass(self, state, ref, seed: int) -> list[str]:
        return []


@dataclass
class QueryState:
    workdir: Path
    requests: list[tuple[str, str, list[str]]]  # (key, site label, argv)
    digests: dict[str, str]  # site label -> expected site digest
    outputs: dict[str, str] = field(default_factory=dict)  # key -> first stdout


def _payload(pre) -> dict:
    return {"values": {o: list(pre.value[o]) for o in pre.cat.objects},
            "restrictions": {m: dict(t) for m, t in pre.restrict.items()
                             if not pre.cat.is_identity(m)}}


def _strip_digest(stdout: str) -> str:
    report = json.loads(stdout)
    report.pop("digest")
    return json.dumps(report, sort_keys=True)


class Queries:
    """Closed loop, one client: in-process ``hosite.cli.main([..., "--json"])``
    calls against site files written at set-up. The sites are fixed (fixtures
    A-E and random sites 0..29); the seed picks the embedded presheaves, the
    sieve asked to thicken and the request order."""
    name = "queries"
    item_unit = "requests"
    setup_repeats = 7  # a set-up is ~1 s

    def setup(self, hs, seed: int, workdir: Path) -> QueryState:
        rng = Random(f"queries/{seed}")
        sites = [(f"fixture-{n}", hs.fixture_site(n)) for n in hs.FIXTURE_NAMES]
        sites += [(f"random-{i}", hs.random_site(i)) for i in range(QUERY_RANDOM_SITES)]
        workdir.mkdir(parents=True, exist_ok=True)
        requests, digests = [], {}
        for label, site in sites:
            doc = copy.deepcopy(site.raw)
            sampled = hs.enumeration.sample_presheaves(site.category, POPULATION_BOUND, QUERY_PRESHEAVES, rng)
            names = [f"P{k}" for k in range(len(sampled))]
            for name, pre in zip(names, sampled):
                doc["presheaves"][name] = _payload(pre)
            path = workdir / f"{label}.json"
            path.write_text(hs.serialize_site(doc), encoding="utf-8")
            digests[label] = hs.site_digest(doc)
            root = rng.choice(doc["objects"])
            into = sorted(m["name"] for m in doc["morphisms"] if m["cod"] == root)
            generators = sorted(rng.sample(into, rng.randint(0, len(into))))
            argvs = [["validate"], ["ho"], ["induce"],
                     ["thicken", "--sieve", ",".join(generators) + "@" + root]]
            for name in names:
                argvs += [["sheafify", "--presheaf", name], ["classify", "--presheaf", name]]
            for argv in argvs:
                key = " ".join([label] + argv)
                requests.append((key, label, [argv[0], str(path), *argv[1:], "--seed", "0", "--json"]))
        rng.shuffle(requests)
        return QueryState(workdir, requests, digests)

    def items(self, state: QueryState):
        return [(key, (key, label, argv)) for key, label, argv in state.requests]

    def run_item(self, hs, state: QueryState, request, ref, seed: int, run: Run):
        key, label, argv = request
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = hs.cli.main(argv)
        seconds = time.perf_counter() - t0
        text = stdout.getvalue()
        if code != 0:
            return seconds, [f"exit {code}: {stderr.getvalue().strip()}"]
        try:
            return seconds, self._check_report(state, ref, key, label, argv[0], text)
        except (ValueError, KeyError, TypeError) as exc:
            return seconds, [f"malformed report ({exc!r})"]

    def after_pass(self, state: QueryState, ref, seed: int) -> list[str]:
        recorded = ref["queries"]["all_reports"].get(str(seed))
        if recorded is not None and self.all_reports_digest(state) != recorded:
            return [f"queries: report digest changed for seed {seed}"]
        return []

    @staticmethod
    def _check_report(state: QueryState, ref, key: str, label: str, verb: str, text: str) -> list[str]:
        report = json.loads(text)
        problems = []
        if report["command"] != verb or report["digest"] != state.digests[label]:
            problems.append("report names the wrong command or site")
        problems += [f"{c['name']} verdict {c['verdict']}" for c in report["checks"]
                     if c["verdict"] not in ("pass", "info")]
        if verb in ("ho", "induce") and \
                sha256(_strip_digest(text)) != ref["queries"]["site_reports"][f"{label} {verb}"]:
            problems.append("report differs from the recorded one")
        if state.outputs.setdefault(key, text) != text:
            problems.append("report differs from an earlier pass (replay)")
        return problems

    @staticmethod
    def all_reports_digest(state: QueryState) -> str:
        """SHA-256 over every request's --json stdout, in key order, with the
        temporary site directory replaced by a placeholder."""
        blob = "".join(f"{key}\n{state.outputs.get(key, '')}" for key in sorted(state.outputs))
        return sha256(blob.replace(str(state.workdir), SITES_PLACEHOLDER))


WORKLOADS = {w.name: w for w in (Population(), WideValues(), Queries())}
