"""Per-site and population-level runs of the full comparison suite."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from random import Random

from .core import (
    PresheafMorphism,
    componentwise_bijection,
    equalizer_presheaf,
    hom_presheaves,
    product_presheaf,
)
from .enumeration import sample_presheaves
from .induced import (
    TheoremViolation,
    check_comparison_lemmas,
    check_cover_reflecting,
    check_sheaf_transfer,
    induced_topology,
)
from .report import CheckResult
from .sheafify import (
    classify_presheaf,
    is_tau_iso,
    plus_construction,
    plus_construction_via_colimit,
    sheafify,
    sheafify_morphism,
)
from .siteio import SiteDocument
from .randomsites import random_site

# presheaves sampled per site for the sheafification-engine battery
ENGINE_SAMPLES = 3


def engine_checks(top, presheaves, label: str = "sheafification-engine") -> list[CheckResult]:
    """Sheafification-engine battery over a list of presheaves: the output is
    a sheaf, the unit is an iso after sheafification, the construction is
    idempotent, the colimit oracle agrees, and finite products and
    equalizers are preserved."""
    cases = 0
    for pre in presheaves:
        cases += 1
        result = sheafify(pre, top)
        if not classify_presheaf(result.sheaf, top).is_sheaf:
            return [CheckResult(label, "fail", "sheafified presheaf does not classify as sheaf")]
        if not is_tau_iso(result.unit, top):
            return [CheckResult(label, "fail", "unit is not an isomorphism after sheafification")]
        again = sheafify(result.sheaf, top)
        ok, witness = componentwise_bijection(again.unit)
        if not ok:
            return [CheckResult(label, "fail", f"double sheafification moves sections at {witness}")]
        if plus_construction_via_colimit(pre, top) != plus_construction(pre, top):
            return [CheckResult(label, "fail", "colimit oracle disagrees with minimal-sieve plus")]
    exact_cases = 0
    for i in range(len(presheaves) - 1):
        f, g = presheaves[i], presheaves[i + 1]
        exact_cases += 1
        prod, p1, p2 = product_presheaf(f, g)
        sp = sheafify(prod, top).sheaf
        s1, s2 = sheafify_morphism(p1, top), sheafify_morphism(p2, top)
        spair, _, _ = product_presheaf(sheafify(f, top).sheaf, sheafify(g, top).sheaf)
        comps = {
            o: {e: f"({s1.components[o][e]},{s2.components[o][e]})" for e in sp.value[o]}
            for o in sp.cat.objects
        }
        ok, witness = componentwise_bijection(PresheafMorphism(sp, spair, comps))
        if not ok:
            return [CheckResult(label, "fail", f"product comparison fails at {witness}")]
        parallel = hom_presheaves(f, g)
        if len(parallel) >= 2:
            u, v = parallel[0], parallel[1]
            eq, incl = equalizer_presheaf(u, v)
            seq = sheafify(eq, top).sheaf
            sincl = sheafify_morphism(incl, top)
            su, sv = sheafify_morphism(u, top), sheafify_morphism(v, top)
            _, target_incl = equalizer_presheaf(su, sv)
            for o in seq.cat.objects:
                image = sorted(sincl.components[o][e] for e in seq.value[o])
                if image != sorted(set(image)) or image != sorted(target_incl.source.value[o]):
                    return [CheckResult(
                        label, "fail", f"equalizer comparison fails at {o}")]
    return [CheckResult(label, "pass",
                        f"{cases} presheaves, {exact_cases} exactness pairs",
                        data={"presheaves": cases, "exactness_pairs": exact_cases})]


def run_site_suite(site: SiteDocument, bound: int = 2, seed: int = 0) -> list[CheckResult]:
    """Everything checkable on one site, as a flat list of results."""
    h, top = site.homotopy, site.topology
    out: list[CheckResult] = []
    try:
        rep = induced_topology(h, top)
    except TheoremViolation as exc:
        out.append(CheckResult("identification", "fail", str(exc),
                               counterexample={"site": site.raw, **exc.counterexample}))
        return out
    covers = sum(len(v) for v in rep.induced.covers.values())
    out.append(CheckResult("identification", "pass",
                           f"both characterizations agree on {covers} covers",
                           data={"covers": covers}))
    out.append(check_cover_reflecting(h, top, rep.induced))
    out.extend(check_comparison_lemmas(h, top, rep.induced, bound=bound, seed=seed))
    out.append(check_sheaf_transfer(h, top, rep.induced, bound=bound))
    sample = sample_presheaves(site.category, bound, ENGINE_SAMPLES, Random(seed + 1))
    sample.extend(site.presheaves[name] for name in sorted(site.presheaves))
    out.extend(engine_checks(top, sample))
    for check in out:
        if check.verdict == "fail" and check.counterexample is not None:
            check.counterexample.setdefault("site", site.raw)
    return out


def _run_random_site(args) -> tuple[int, list[CheckResult]]:
    index, seed, bound = args
    site = random_site(seed)
    return index, run_site_suite(site, bound=bound, seed=seed)


def run_population(count: int = 200, base_seed: int = 0, bound: int = 2,
                   workers: int = 1, include_fixtures: bool = True) -> list[tuple[str, list[CheckResult]]]:
    """Fixtures A-E (optionally) plus `count` seeded random sites; results
    merge in seed order regardless of worker scheduling."""
    from .fixtures import FIXTURE_NAMES, fixture_site

    results: list[tuple[str, list[CheckResult]]] = []
    if include_fixtures:
        for name in FIXTURE_NAMES:
            site = fixture_site(name)
            results.append((f"fixture-{name}", run_site_suite(site, bound=bound, seed=base_seed)))
    jobs = [(i, base_seed + i, bound) for i in range(count)]
    if workers > 1 and jobs:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_random_site, jobs, chunksize=8))
        done.sort(key=lambda pair: pair[0])
        for index, checks in done:
            results.append((f"random-{base_seed + index}", checks))
    else:
        for index, seed, b in jobs:
            results.append((f"random-{seed}", run_site_suite(random_site(seed), bound=b, seed=seed)))
    return results


def summarize_population(results) -> list[CheckResult]:
    """One aggregated result per check name across a population run."""
    order: list[str] = []
    totals: dict[str, int] = {}
    failures: dict[str, tuple[str, CheckResult]] = {}
    for label, checks in results:
        for check in checks:
            if check.name not in totals:
                order.append(check.name)
                totals[check.name] = 0
            totals[check.name] += 1
            if check.verdict == "fail" and check.name not in failures:
                failures[check.name] = (label, check)
    out = []
    for name in order:
        if name in failures:
            label, check = failures[name]
            out.append(CheckResult(name, "fail", f"{label}: {check.detail}",
                                   counterexample=check.counterexample))
        else:
            out.append(CheckResult(name, "pass",
                                   f"pass on {totals[name]}/{totals[name]} sites",
                                   data={"sites": totals[name]}))
    return out
