"""Command-line harness.

Verbs: validate, ho, induce, thicken, sheafify, classify, check-lemmas,
fixture. Exit codes: 0 pass, 1 input invalid or output unwritable, 2
property/theorem violation (counterexample attached), 3 internal error.
HOSITE_SEED overrides the default seed.

Every verb but fixture reads one site, and loading validates it: validate
lists the verdicts loading reached.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from .enumeration import LABELS
from .induced import TheoremViolation, induced_topology, thicken_sieve
from .fixtures import FIXTURE_NAMES, fixture_doc
from .report import CheckReport, CheckResult, emit_report
from .sheafify import classify_presheaf, sheafify
from .sieves import Sieve, format_sieve, generate_sieve
from .siteio import SiteDocument, SiteLoadError, parse_site, serialize_site
from .suite import run_population, run_site_suite, summarize_population


def _resolve_seed(args) -> None:
    """--seed, else HOSITE_SEED (a malformed value is a load error), else 0."""
    if args.seed is None:
        text = os.environ.get("HOSITE_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            raise SiteLoadError(f"load error: HOSITE_SEED={text!r} is not an integer") from None


def _read_site(path: str) -> SiteDocument:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SiteLoadError(f"load error: {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise SiteLoadError(f"load error: {path}: {exc.strerror or exc}") from None
    return parse_site(text)


def _cmd_validate(site: SiteDocument, args) -> list[CheckResult]:
    """The verdicts ``load_site`` reached: a loaded site passed every one."""
    parts = ["category", "enrichment", "topology"]
    parts += [f"presheaf:{name}" for name in sorted(site.presheaves)]
    return [CheckResult(part, "pass") for part in parts]


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
    induced = induced_topology(site.homotopy, site.topology)
    ho = site.homotopy.ho
    data = {x: [format_sieve(ho, s) for s in induced.covers_of(x)] for x in ho.objects}
    return [
        CheckResult("identification", "pass", "both characterizations agree"),
        CheckResult("induced-covers", "info", "covering sieves per object", data=data),
    ]


def _parse_sieve_flag(site: SiteDocument, arg: str) -> Sieve:
    if "@" not in arg:
        raise SiteLoadError("load error: --sieve expects 'f1,f2@object'")
    names, root = arg.rsplit("@", 1)
    generators = names.split(",") if names else []
    try:
        if "" in generators:
            raise ValueError("empty morphism name")
        return generate_sieve(site.category, root, generators)
    except ValueError as exc:
        raise SiteLoadError(f"load error: --sieve {arg}: {exc}") from None


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
    for flag, n, low in (("--random-sites", args.random_sites, 0), ("--workers", args.workers, 1)):
        if n < low:
            raise SiteLoadError(f"load error: {flag} {n} is below {low}")
    checks = run_site_suite(site, bound=args.bound, seed=args.seed)
    if args.random_sites:
        population = run_population(count=args.random_sites, base_seed=args.seed,
                                    bound=args.bound, workers=args.workers,
                                    include_fixtures=False)
        for summary in summarize_population(population):
            summary.name = f"random-sites:{summary.name}"
            checks.append(summary)
    return checks


_PRESHEAF = {"--presheaf": {"required": True}}
# each site verb once: its handler and its own flags as argparse arguments;
# build_parser declares the flags and run_command reports them
_VERBS = {
    "validate": (_cmd_validate, {}),
    "ho": (_cmd_ho, {}),
    "induce": (_cmd_induce, {}),
    "thicken": (_cmd_thicken, {"--sieve": {"required": True,
                                           "help": "generators@object, e.g. f1,f2@y"}}),
    "sheafify": (_cmd_sheafify, _PRESHEAF),
    "classify": (_cmd_classify, _PRESHEAF),
    "check-lemmas": (_cmd_check_lemmas, {
        "--bound": {"type": int, "default": 2},
        "--random-sites": {"type": int, "default": 0},
        "--workers": {"type": int, "default": 1},
    }),
}
# flags that change how a verb runs but never what it reports
_UNREPORTED = {"--workers"}


def run_command(verb: str, site: SiteDocument, args) -> CheckReport:
    handler, own_flags = _VERBS[verb]
    flags = {flag[2:]: getattr(args, flag[2:].replace("-", "_"))
             for flag in own_flags if flag not in _UNREPORTED}
    start = time.monotonic()
    try:
        checks = handler(site, args)
    except TheoremViolation as exc:
        checks = [CheckResult("theorem-violation", "fail", str(exc),
                              counterexample={"site": site.raw, **exc.counterexample})]
    wall = (time.monotonic() - start) * 1000.0
    return CheckReport(command=verb, digest=site.digest, seed=args.seed,
                       flags=flags, checks=checks, wall_ms=wall)


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hosite", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, own_flags) in _VERBS.items():
        p = sub.add_parser(verb)
        p.add_argument("site", help="site file path, or - for stdin")
        p.add_argument("--seed", type=int)
        p.add_argument("--json", action="store_true")
        for flag, kwargs in own_flags.items():
            p.add_argument(flag, **kwargs)
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
            return 0
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"write error: {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        return 0
    try:
        _resolve_seed(args)
        report = run_command(args.verb, _read_site(args.site), args)
    except SiteLoadError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(emit_report(report, "json" if args.json else "text"))
    return report.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
