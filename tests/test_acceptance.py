"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion. The 200-site random population is computed
once per session and shared by the criteria that quantify over it."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import combinations, product

import pytest

from hosite import (
    GrothendieckTopology,
    all_sieves,
    bracket_sieve,
    classify_presheaf,
    fixture_doc,
    generate_sieve,
    induced_topology,
    is_bracket_cover,
    maximal_sieve,
    minimal_cover,
    plus_construction,
    random_site,
    run_population,
    run_site_suite,
    serialize_site,
    thicken_sieve,
)
from hosite.cli import main as cli_main
from hosite.enumeration import enumerate_presheaves
import hosite.induced as induced_mod
from oracles import (
    is_bracket_cover_by_iso,
    least_covers,
    matching_families_product,
    validate_cover_sets,
)

POPULATION_SIZE = 200
BOUND_SECONDS = 60.0
WIDER_LIMITS = (5, 12, 8)  # objects, morphisms, edges of the wider tier
WIDER_BOUND_SECONDS = 45.0


def report_line(number: int, ok: bool, description: str):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {description}")
    assert ok, f"criterion {number} failed: {description}"


@dataclass
class Population:
    results: list
    wall_seconds: float

    def aggregate(self, name: str):
        """(total, failures) for one check name across the population."""
        total, failures = 0, []
        for label, checks in self.results:
            for check in checks:
                if check.name == name:
                    total += 1
                    if check.verdict != "pass":
                        failures.append((label, check.detail))
        return total, failures


@pytest.fixture(scope="session")
def population():
    start = time.monotonic()
    results = run_population(count=POPULATION_SIZE, base_seed=0, bound=2)
    return Population(results, time.monotonic() - start)


def test_criterion_1_example_reproduction(site_b):
    # over every presheaf on the homotopy category with values of size <= 3,
    # the sheaf condition for the induced topology is exactly "the
    # restriction from the terminal object is a bijection"
    start = time.monotonic()
    h = site_b.homotopy
    induced = induced_topology(h, site_b.topology)
    arrow = "[f1]"
    checked = 0
    for pre in enumerate_presheaves(h.ho, 3):
        restriction = pre.restrict[arrow]
        bijective = (len(set(restriction.values())) == len(restriction)
                     and len(restriction) == len(pre.value["x"]))
        is_sheaf = classify_presheaf(pre, induced).is_sheaf
        assert is_sheaf == bijective, (pre.value, restriction)
        checked += 1
    elapsed = time.monotonic() - start
    report_line(1, checked >= 60 and elapsed < 5.0,
                f"{checked} presheaves classified, sheaf <=> bijective restriction, "
                f"{elapsed:.2f}s < 5s")


def test_criterion_2_identification(population, all_sites):
    total, failures = population.aggregate("identification")
    # the suite identifies by the closed form; on every quotient sieve of the
    # population it must agree with the local-isomorphism oracle, and the
    # least induced cover must be the bracket of the base least cover
    sieves, mismatches = 0, []
    sites = [*all_sites.values(), *(random_site(seed) for seed in range(POPULATION_SIZE))]
    for site in sites:
        h, top = site.homotopy, site.topology
        induced = induced_topology(h, top)
        for x in h.ho.objects:
            if minimal_cover(induced, x) != bracket_sieve(h, minimal_cover(top, x)):
                mismatches.append((site.digest, x, "least cover"))
            for u in all_sieves(h.ho, x):
                sieves += 1
                if is_bracket_cover(h, top, u) != is_bracket_cover_by_iso(h, top, u):
                    mismatches.append((site.digest, x, sorted(u.members)))
    ok = (total == POPULATION_SIZE + 5 and not failures and not mismatches
          and population.wall_seconds < BOUND_SECONDS)
    report_line(2, ok,
                f"bracket covers == iso-test covers on {total} sites, "
                f"closed-form test == local-iso oracle on {sieves} quotient sieves "
                f"(population wall {population.wall_seconds:.1f}s < {BOUND_SECONDS:.0f}s)"
                + (f"; first mismatch {mismatches[0]}" if mismatches else ""))


def test_criterion_3_iso_comparison(population):
    total, failures = population.aggregate("iso-comparison")
    cases = sum(
        check.data["cases"]
        for _, checks in population.results
        for check in checks if check.name == "iso-comparison" and check.data)
    report_line(3, total == POPULATION_SIZE + 5 and not failures,
                f"{cases} sampled morphisms over {total} sites, "
                "induced-iso == pulled-back-base-iso on all")


def test_criterion_4_sheaf_implications(population, site_b):
    total, failures = population.aggregate("sheaf-implications")
    ok = total == POPULATION_SIZE + 5 and not failures

    # the converse-failure witness on the edge-collapsed fixture, with the
    # counts re-derived by the brute-force oracle
    witness_check = next(
        check for label, checks in population.results if label == "fixture-B"
        for check in checks if check.name == "converse-witness")
    ok = ok and witness_check.data["found"] is True
    ok = ok and witness_check.data["sections"] == 2
    ok = ok and witness_check.data["families"] == 4
    cover = generate_sieve(site_b.category, "y", ["f1", "f2"])
    k2 = site_b.presheaves["K2"]
    ok = ok and len(matching_families_product(k2, cover)) == 4
    ok = ok and len(k2.value["y"]) == 2
    report_line(4, ok,
                f"implications hold on {total} sites; witness on fixture B: "
                "2 sections vs 4 matching families (oracle-confirmed)")


def test_criterion_5_cover_reflecting_and_transfer(population):
    total_r, failures_r = population.aggregate("cover-reflecting")
    total_t, failures_t = population.aggregate("sheaf-transfer")
    sheaves = sum(
        check.data["sheaves"]
        for _, checks in population.results
        for check in checks if check.name == "sheaf-transfer" and check.data)
    ok = (total_r == total_t == POPULATION_SIZE + 5
          and not failures_r and not failures_t)
    report_line(5, ok,
                f"cover-reflecting on {total_r} sites; right Kan extension sent "
                f"{sheaves} enumerated sheaves to sheaves")


def test_criterion_6_sheafification_engine(population, site_b, site_d):
    total, failures = population.aggregate("sheafification-engine")
    ok = total == POPULATION_SIZE + 5 and not failures

    plus_b = plus_construction(site_b.presheaves["K2"], site_b.topology)
    ok = ok and len(plus_b.value["y"]) == 4
    plus_d = plus_construction(site_d.presheaves["F"], site_d.topology)
    ok = ok and len(plus_d.value["c"]) == 2
    # independent counts by brute-force family enumeration on the minimal covers
    j = generate_sieve(site_b.category, "y", ["f1", "f2"])
    ok = ok and len(matching_families_product(site_b.presheaves["K2"], j)) == 4
    uv = generate_sieve(site_d.category, "c", ["u", "v"])
    ok = ok and len(matching_families_product(site_d.presheaves["F"], uv)) == 2
    report_line(6, ok,
                f"engine battery on {total} sites; α(K2)(y)=4 and α(F)(c)=2 "
                "match brute-force family counts")


def test_criterion_7_thickening(population, site_b):
    total, failures = population.aggregate("thickening")
    ok = total == POPULATION_SIZE + 5 and not failures
    h = site_b.homotopy
    thick = thicken_sieve(h, generate_sieve(h.base, "y", ["f1"]))
    ok = ok and thick.members == frozenset(["f1", "f2"])
    report_line(7, ok,
                f"thickening calculus on {total} sites; thicken({{f1}}) = {{f1, f2}}")


def test_criterion_8_discrete_control(site_c):
    cat = site_c.category
    h = site_c.homotopy
    relabel = lambda s: frozenset(h.gamma[f] for f in s.members)
    per_object = []
    for x in cat.objects:
        top_sieve = maximal_sieve(cat, x)
        rest = [s for s in all_sieves(cat, x) if s != top_sieve]
        options = []
        for r in range(len(rest) + 1):
            for chosen in combinations(rest, r):
                options.append(frozenset(chosen) | {top_sieve})
        per_object.append(options)
    tested = 0
    ok = True
    for combo in product(*per_object):
        covers = dict(zip(cat.objects, combo))
        if not validate_cover_sets(cat, covers):
            continue
        top = GrothendieckTopology(cat, least_covers(cat, covers))
        tested += 1
        induced = induced_topology(h, top)
        expected = {
            x: frozenset(type(s)(x, relabel(s)) for s in top.covers[x])
            for x in cat.objects
        }
        ok = ok and induced.covers == expected
    report_line(8, ok and tested >= 3,
                f"{tested} topologies on the discrete control return unchanged "
                "through the induced-topology computation")


def test_criterion_9_determinism_and_replay(population, tmp_path, monkeypatch, capsys):
    site_path = tmp_path / "b.json"
    site_path.write_text(serialize_site(fixture_doc("B")), encoding="utf-8")

    # passing reports replay byte-for-byte
    outputs = []
    for _ in range(2):
        code = cli_main(["check-lemmas", str(site_path), "--seed", "11", "--json"])
        outputs.append(capsys.readouterr().out)
        assert code == 0
    ok = outputs[0] == outputs[1]

    # a violation report (forced by sabotaging the covering test) replays
    # byte-for-byte and carries the site as its counterexample
    monkeypatch.setattr(induced_mod, "is_bracket_cover", lambda h, t, u: False)
    violations = []
    for _ in range(2):
        code = cli_main(["check-lemmas", str(site_path), "--seed", "11", "--json"])
        violations.append(capsys.readouterr().out)
        assert code == 2
    monkeypatch.undo()
    ok = ok and violations[0] == violations[1]
    payload = json.loads(violations[0])
    failing = [c for c in payload["checks"] if c["verdict"] == "fail"]
    ok = ok and bool(failing) and "site" in failing[0]["counterexample"]
    ok = ok and population.wall_seconds < BOUND_SECONDS
    report_line(9, ok,
                "reports replay byte-identically (pass and violation paths); "
                f"population suite ran in {population.wall_seconds:.1f}s < 60s")


def test_wider_random_sites_pass():
    # a tier beyond the population: 200 random sites at 5 objects, 12
    # morphisms and 8 edges, generated and checked at bound 2 on their own
    # time budget
    start = time.monotonic()
    failures = []
    for seed in range(POPULATION_SIZE):
        site = random_site(seed, *WIDER_LIMITS)
        for check in run_site_suite(site, bound=2, seed=seed):
            if check.verdict != "pass":
                failures.append((seed, check.name, check.detail))
    elapsed = time.monotonic() - start
    assert not failures, failures[:5]
    assert elapsed < WIDER_BOUND_SECONDS, \
        f"{POPULATION_SIZE} sites at {WIDER_LIMITS} took {elapsed:.1f}s"
