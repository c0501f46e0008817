"""Command-line harness.

Verbs: validate, ho, induce, thicken, sheafify, classify, check-lemmas,
fixture. Exit codes: 0 pass, 1 input invalid, 2 property/theorem violation
(counterexample attached), 3 internal error. HOSITE_SEED overrides the
default seed.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .core import validate_category, validate_presheaf
from .enumeration import LABELS
from .homotopy import validate_enrichment
from .induced import TheoremViolation, induced_topology, thicken_sieve
from .fixtures import FIXTURE_NAMES, fixture_doc
from .report import CheckReport, CheckResult, emit_report
from .sheafify import classify_presheaf, sheafify
from .sieves import Sieve, format_sieve, generate_sieve, validate_topology
from .siteio import SiteDocument, SiteLoadError, parse_site, serialize_site
from .suite import run_population, run_site_suite, summarize_population


def _default_seed() -> int:
    try:
        return int(os.environ.get("HOSITE_SEED", "0"))
    except ValueError:
        return 0


def _read_site(path: str) -> SiteDocument:
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return parse_site(text)


def _cmd_validate(site: SiteDocument, args) -> list[CheckResult]:
    checks = []
    report = validate_category(site.category)
    checks.append(CheckResult("category", "pass" if report else "fail", report.detail))
    report = validate_enrichment(site.enriched)
    checks.append(CheckResult("enrichment", "pass" if report else "fail", report.detail))
    report = validate_topology(site.topology)
    checks.append(CheckResult("topology", "pass" if report else "fail", report.detail))
    for name in sorted(site.presheaves):
        report = validate_presheaf(site.presheaves[name], site.category)
        checks.append(CheckResult(f"presheaf:{name}", "pass" if report else "fail", report.detail))
    return checks


def _cmd_ho(site: SiteDocument, args) -> list[CheckResult]:
    h = site.homotopy
    homs = {}
    for v in h.ho.objects:
        for x in h.ho.objects:
            members = list(h.ho.hom(v, x))
            if members:
                homs[f"{v}->{x}"] = sorted(members)
    return [CheckResult("ho", "info", f"{len(h.ho.morphisms)} morphism classes",
                        data={"objects": list(h.ho.objects), "homs": homs,
                              "gamma": {m: h.gamma[m] for m in h.base.morphisms}})]


def _cmd_induce(site: SiteDocument, args) -> list[CheckResult]:
    rep = induced_topology(site.homotopy, site.topology)
    ho = site.homotopy.ho
    data = {
        x: [format_sieve(ho, s) for s in sorted(rep.induced.covers[x], key=Sieve.sort_key)]
        for x in ho.objects
    }
    return [
        CheckResult("identification", "pass", "both characterizations agree"),
        CheckResult("induced-covers", "info", "covering sieves per object", data=data),
    ]


def _parse_sieve_flag(site: SiteDocument, arg: str) -> Sieve:
    if "@" not in arg:
        raise SiteLoadError("load error: --sieve expects 'f1,f2@object'")
    names, root = arg.rsplit("@", 1)
    generators = [n for n in names.split(",") if n]
    return generate_sieve(site.category, root, generators)


def _cmd_thicken(site: SiteDocument, args) -> list[CheckResult]:
    sieve = _parse_sieve_flag(site, args.sieve)
    thick = thicken_sieve(site.homotopy, sieve)
    return [CheckResult(
        "thicken", "info",
        "{" + ", ".join(sorted(thick.members)) + "}",
        data={"root": thick.root, "input": sorted(sieve.members),
              "thickened": sorted(thick.members)})]


def _named_presheaf(site: SiteDocument, name: str):
    if name not in site.presheaves:
        raise SiteLoadError(f"load error: unknown presheaf {name!r}")
    return site.presheaves[name]


def _cmd_sheafify(site: SiteDocument, args) -> list[CheckResult]:
    pre = _named_presheaf(site, args.presheaf)
    result = sheafify(pre, site.topology)
    data = {
        o: {"count": len(result.sheaf.value[o]), "elements": list(result.sheaf.value[o])}
        for o in site.category.objects
    }
    return [CheckResult("sheafify", "info", f"presheaf {args.presheaf}", data=data)]


def _cmd_classify(site: SiteDocument, args) -> list[CheckResult]:
    pre = _named_presheaf(site, args.presheaf)
    cls = classify_presheaf(pre, site.topology)
    data = {"classification": cls.kind}
    if cls.witness is not None:
        x, s = cls.witness
        data["witness"] = {"object": x, "sieve": format_sieve(site.category, s)}
    return [CheckResult("classify", "info", cls.kind, data=data)]


def _cmd_check_lemmas(site: SiteDocument, args) -> list[CheckResult]:
    if not 0 <= args.bound <= len(LABELS):
        raise SiteLoadError(f"load error: --bound {args.bound} is outside 0..{len(LABELS)} "
                            f"(the value label pool has {len(LABELS)} labels)")
    checks = run_site_suite(site, bound=args.bound, seed=args.seed)
    if args.random_sites:
        population = run_population(count=args.random_sites, base_seed=args.seed,
                                    bound=args.bound, workers=args.workers,
                                    include_fixtures=False)
        for summary in summarize_population(population):
            summary.name = f"random-sites:{summary.name}"
            checks.append(summary)
    return checks


_VERBS = {
    "validate": _cmd_validate,
    "ho": _cmd_ho,
    "induce": _cmd_induce,
    "thicken": _cmd_thicken,
    "sheafify": _cmd_sheafify,
    "classify": _cmd_classify,
    "check-lemmas": _cmd_check_lemmas,
}


def run_command(verb: str, site: SiteDocument, args) -> CheckReport:
    flags = {}
    if verb == "check-lemmas":
        flags = {"bound": args.bound, "random-sites": args.random_sites}
    elif verb == "thicken":
        flags = {"sieve": args.sieve}
    elif verb in ("sheafify", "classify"):
        flags = {"presheaf": args.presheaf}
    start = time.monotonic()
    try:
        checks = _VERBS[verb](site, args)
    except TheoremViolation as exc:
        checks = [CheckResult("theorem-violation", "fail", str(exc),
                              counterexample={"site": site.raw, **exc.counterexample})]
    wall = (time.monotonic() - start) * 1000.0
    return CheckReport(command=verb, digest=site.digest, seed=args.seed,
                       flags=flags, checks=checks, wall_ms=wall)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hosite", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_site_verb(name, **extra):
        p = sub.add_parser(name)
        p.add_argument("site", help="site file path, or - for stdin")
        p.add_argument("--seed", type=int, default=_default_seed())
        p.add_argument("--json", action="store_true")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        return p

    add_site_verb("validate")
    add_site_verb("ho")
    add_site_verb("induce")
    add_site_verb("thicken", **{"--sieve": {"required": True, "help": "generators@object, e.g. f1,f2@y"}})
    add_site_verb("sheafify", **{"--presheaf": {"required": True}})
    add_site_verb("classify", **{"--presheaf": {"required": True}})
    add_site_verb("check-lemmas", **{
        "--bound": {"type": int, "default": 2},
        "--random-sites": {"type": int, "default": 0},
        "--workers": {"type": int, "default": 1},
    })
    fx = sub.add_parser("fixture")
    fx.add_argument("name", choices=list(FIXTURE_NAMES))
    fx.add_argument("--out", default="-")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "fixture":
        text = serialize_site(fixture_doc(args.name))
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text, encoding="utf-8")
        return 0
    try:
        site = _read_site(args.site)
    except (SiteLoadError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        report = run_command(args.verb, site, args)
    except SiteLoadError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal error path
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(emit_report(report, "json" if args.json else "text"))
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
