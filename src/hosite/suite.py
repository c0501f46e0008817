"""Per-site and population-level runs of the full comparison suite."""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import islice, pairwise, repeat
from operator import itemgetter
from random import Random

from .core import (
    SetPresheaf,
    componentwise_bijection,
    equalizer_presheaf,
    iter_hom_presheaves,
    product_presheaf,
)
from .enumeration import leaves, reservoir
from .induced import (
    TheoremViolation,
    _comparison_lemmas,
    _presheaf_payload,
    check_cover_reflecting,
    check_sheaf_transfer,
    induced_topology,
)
from .report import CheckResult
from .sheafify import (
    NOT_SHEAF,
    classify_presheaf,
    is_tau_iso,
    plus_construction_via_colimit,
    sheafify,
    transport_morphism,
)
from .siteio import SiteDocument
from .randomsites import random_site

# presheaves sampled per site for the sheafification-engine battery
ENGINE_SAMPLES = 3


def engine_checks(top, presheaves) -> list[CheckResult]:
    """Sheafification-engine battery over a list of presheaves: the output is
    a sheaf, the unit is an iso after sheafification, the construction is
    idempotent, the colimit oracle agrees, and finite products and
    equalizers are preserved. Each presheaf, product and equalizer is
    sheafified once, and morphisms are transported between the results: at
    each o the transported projections must pair a(F×G)(o) onto aF(o)×aG(o).
    A failure carries the presheaves it was found on."""
    label = "sheafification-engine"

    def fail(detail: str, *culprits: SetPresheaf) -> list[CheckResult]:
        return [CheckResult(label, "fail", detail, counterexample={
            "presheaves": [_presheaf_payload(p) for p in culprits]})]

    sheafified = [sheafify(pre, top) for pre in presheaves]
    for pre, result in zip(presheaves, sheafified):
        if not classify_presheaf(result.sheaf, top).is_sheaf:
            return fail("sheafified presheaf does not classify as sheaf", pre)
        if not is_tau_iso(result.unit, top):
            return fail("unit is not an isomorphism after sheafification", pre)
        again = sheafify(result.sheaf, top)
        ok, witness = componentwise_bijection(again.unit)
        if not ok:
            return fail(f"double sheafification moves sections at {witness}", pre)
        if plus_construction_via_colimit(pre, top) != result.steps[0].presheaf:
            return fail("colimit oracle disagrees with minimal-sieve plus", pre)
    pairs = list(pairwise(zip(presheaves, sheafified)))
    for (f, sf), (g, sg) in pairs:
        prod, p1, p2 = product_presheaf(f, g)
        sprod = sheafify(prod, top)
        s1, s2 = transport_morphism(p1, sprod, sf), transport_morphism(p2, sprod, sg)
        for o in prod.cat.objects:
            sections = sprod.sheaf.value[o]
            seen = {(s1.components[o][e], s2.components[o][e]) for e in sections}
            if not len(seen) == len(sections) == len(sf.sheaf.value[o]) * len(sg.sheaf.value[o]):
                return fail(f"product comparison fails at {o}", f, g)
        parallel = list(islice(iter_hom_presheaves(f, g), 2))
        if len(parallel) == 2:
            u, v = parallel
            eq, incl = equalizer_presheaf(u, v)
            seq = sheafify(eq, top)
            sincl = transport_morphism(incl, seq, sf)
            su, sv = transport_morphism(u, sf, sg), transport_morphism(v, sf, sg)
            _, target_incl = equalizer_presheaf(su, sv)
            for o in eq.cat.objects:
                image = sorted(sincl.components[o][e] for e in seq.sheaf.value[o])
                if image != sorted(set(image)) or image != sorted(target_incl.source.value[o]):
                    return fail(f"equalizer comparison fails at {o}", f, g)
    return [CheckResult(label, "pass",
                        f"{len(presheaves)} presheaves, {len(pairs)} exactness pairs",
                        data={"presheaves": len(presheaves), "exactness_pairs": len(pairs)})]


def run_site_suite(site: SiteDocument, bound: int = 2, seed: int = 0) -> list[CheckResult]:
    """Everything checkable on one site, as a flat list of results. One walk
    of the base presheaves samples the engine battery's presheaves, decides
    lemma groups (b)/(c) and samples (a) on its gamma-constant leaves, and
    hands its sheaves to the sheaf-transfer check."""
    h, top = site.homotopy, site.topology
    out: list[CheckResult] = []
    try:
        induced = induced_topology(h, top)
    except TheoremViolation as exc:
        out.append(CheckResult("identification", "fail", str(exc),
                               counterexample={"site": site.raw, **exc.counterexample}))
        return out
    covers = sum(len(v) for v in induced.covers.values())
    out.append(CheckResult("identification", "pass",
                           f"both characterizations agree on {covers} covers",
                           data={"covers": covers}))
    out.append(check_cover_reflecting(h, top, induced))
    sample: list[SetPresheaf] = []
    transfer: list[CheckResult] = []

    def consume(walk):  # the engine's reservoir and the transfer read the lemmas' walk
        walk = reservoir(walk, ENGINE_SAMPLES, Random(seed + 1), sample)
        transfer.append(check_sheaf_transfer(h, induced, map(itemgetter(0), leaves(
            block for block in walk if not block[1] & NOT_SHEAF))))
    out.extend(_comparison_lemmas(h, top, induced, bound, seed, consume))
    out.extend(transfer)
    sample.extend(site.presheaves[name] for name in sorted(site.presheaves))
    out.extend(engine_checks(top, sample))
    for check in out:
        if check.verdict == "fail" and check.counterexample is not None:
            check.counterexample.setdefault("site", site.raw)
    return out


def _run_random_site(seed: int, bound: int) -> list[CheckResult]:
    return run_site_suite(random_site(seed), bound=bound, seed=seed)


def run_population(count: int = 200, base_seed: int = 0, bound: int = 2,
                   workers: int = 1, include_fixtures: bool = True) -> list[tuple[str, list[CheckResult]]]:
    """Fixtures A-E (optionally) plus `count` seeded random sites; results
    come back in seed order, serially or from a process pool."""
    from .fixtures import FIXTURE_NAMES, fixture_site

    results: list[tuple[str, list[CheckResult]]] = []
    if include_fixtures:
        for name in FIXTURE_NAMES:
            site = fixture_site(name)
            results.append((f"fixture-{name}", run_site_suite(site, bound=bound, seed=base_seed)))
    seeds = range(base_seed, base_seed + count)
    if workers > 1 and seeds:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_random_site, seeds, repeat(bound), chunksize=8))
    else:
        done = map(_run_random_site, seeds, repeat(bound))
    results.extend((f"random-{seed}", checks) for seed, checks in zip(seeds, done))
    return results


def summarize_population(results) -> list[CheckResult]:
    """One aggregated result per check name across a population run."""
    totals: dict[str, int] = {}
    failures: dict[str, tuple[str, CheckResult]] = {}
    for label, checks in results:
        for check in checks:
            totals[check.name] = totals.get(check.name, 0) + 1
            if check.verdict == "fail" and check.name not in failures:
                failures[check.name] = (label, check)
    out = []
    for name, total in totals.items():
        if name in failures:
            label, check = failures[name]
            out.append(CheckResult(name, "fail", f"{label}: {check.detail}",
                                   counterexample=check.counterexample))
        else:
            out.append(CheckResult(name, "pass", f"pass on {total}/{total} sites",
                                   data={"sites": total}))
    return out
