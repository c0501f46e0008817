"""The induced topology on the homotopy category and the comparison suite.

The induced topology [τ] is stored as its least covers, the brackets of τ's,
and its cover sets are compared with the brackets of every base cover. The
closed-form covering test (a quotient sieve covers iff it holds the bracket
of the base least cover) is lemma group (a)'s base side; the generic test,
whether the gamma-pullback of the sieve inclusion is a local isomorphism, is
its oracle under ``tests/``. Agreement is a theorem, so a disagreement fails
loudly with a replayable counterexample. The sheaf-side checks walk the
presheaves once per category and classify the walk's own views with
``classify_presheaf``: P and ``gamma_star`` of P for the lemma groups,
``gamma_lower_star`` of each base sheaf for the transfer. Only the sample is
copied; counterexamples are read off the live view.
"""
from __future__ import annotations

from itertools import islice
from random import Random
from typing import Iterable

from .core import SetPresheaf, iter_hom_presheaves
from .enumeration import reservoir, walk_presheaves
from .homotopy import HomotopyCategoryData, gamma_lower_star, gamma_star, gamma_star_morphism
from .report import CheckResult
from .sheafify import classify_presheaf, is_tau_iso, matching_families
from .sieves import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    format_sieve,
    generate_sieve,
    sieve_inclusion,
    validate_topology,
)


class TheoremViolation(RuntimeError):
    """A statement that must hold was refuted; carries the counterexample."""

    def __init__(self, message: str, counterexample: dict | None = None):
        super().__init__(message)
        self.counterexample = counterexample or {}


def bracket_sieve(h: HomotopyCategoryData, j: Sieve) -> Sieve:
    """The sieve on the quotient generated by the gamma-images of j's members."""
    return generate_sieve(h.ho, j.root, sorted({h.gamma[f] for f in j.members}))


def _preimage(h: HomotopyCategoryData, u: Sieve) -> Sieve:
    """The base sieve of the arrows into u's root whose gamma-image is in u."""
    return Sieve(u.root, frozenset(
        f for f in h.base.arrows_into(u.root) if h.gamma[f] in u.members))


def thicken_sieve(h: HomotopyCategoryData, j: Sieve) -> Sieve:
    """All morphisms whose image lands in the bracket sieve: everything
    homotopic to a member. Contains j and has the same bracket."""
    return _preimage(h, bracket_sieve(h, j))


def is_bracket_cover(h: HomotopyCategoryData, top: GrothendieckTopology, u: Sieve) -> bool:
    """Covering test for a sieve u on x in the quotient: u covers iff gamma(J(x)) ⊆ u,
    J the base least cover. The gamma-pullback of u's inclusion is mono, and locally onto
    iff t∘gamma(f) ∈ u for t: z -> x, f ∈ J(z), which stability puts in gamma(J(x))."""
    if u.root not in top.least:
        raise ValueError(f"unknown object id: {u.root}")
    return all(h.gamma[f] in u.members for f in top.least[u.root].members)


def induced_topology(h: HomotopyCategoryData, top: GrothendieckTopology) -> GrothendieckTopology:
    """[τ], whose least cover of x is the bracket of τ's. Its covers must be
    exactly the brackets of τ's covers and must satisfy the topology laws;
    a disagreement, or a failed law, raises TheoremViolation."""
    ho = h.ho
    induced = GrothendieckTopology(ho, {x: bracket_sieve(h, top.least[x]) for x in ho.objects})
    via_bracket = {
        x: frozenset(generate_sieve(ho, x, sorted(image)) for image in {
            frozenset(h.gamma[f] for f in j.members) for j in top.covers[x]})
        for x in ho.objects
    }
    if via_bracket != induced.covers:
        diff = {}
        for x in ho.objects:
            only_bracket = sorted(format_sieve(ho, s) for s in via_bracket[x] - induced.covers[x])
            only_iso = sorted(format_sieve(ho, s) for s in induced.covers[x] - via_bracket[x])
            if only_bracket or only_iso:
                diff[x] = {"only_bracket": only_bracket, "only_iso_test": only_iso}
        raise TheoremViolation(
            "bracket covers and isomorphism-test covers disagree", {"disagreement": diff})
    report = validate_topology(induced)
    if not report:
        raise TheoremViolation(
            f"induced covers do not form a topology ({report.law} at {report.witness})",
            {"validation": report.detail})
    return induced


def check_cover_reflecting(h: HomotopyCategoryData, top: GrothendieckTopology,
                           induced: GrothendieckTopology) -> CheckResult:
    """Preimages of induced covers must be covers in the base."""
    checked = 0
    for x in h.ho.objects:
        for u in induced.covers_of(x):
            checked += 1
            pre = _preimage(h, u)
            if not top.is_cover(pre):
                return CheckResult(
                    "cover-reflecting", "fail",
                    f"preimage of {format_sieve(h.ho, u)} on {x} is not covering",
                    counterexample={"object": x, "cover": format_sieve(h.ho, u),
                                    "preimage": format_sieve(h.base, pre)})
    return CheckResult("cover-reflecting", "pass", f"{checked} covers reflected",
                       data={"covers": checked})


def _presheaf_payload(pre: SetPresheaf) -> dict:
    return {
        "values": {o: list(pre.value[o]) for o in pre.cat.objects},
        "restrictions": {m: dict(t) for m, t in pre.restrict.items()},
    }


def check_comparison_lemmas(h: HomotopyCategoryData, top: GrothendieckTopology,
                            induced: GrothendieckTopology, bound: int = 2,
                            seed: int = 0) -> list[CheckResult]:
    """The four lemma groups over one site:

    (a) a morphism over the quotient is an iso after induced-sheafification
        iff its pullback is one after base-sheafification;
    (b) base sheaf/separated conditions on the pullback imply the induced
        ones, and induced-separated reflects back;
    (c) search for a converse-failure witness (an induced-sheaf whose
        pullback is not a base sheaf);
    (d) the thickening calculus for covering sieves.
    """
    rng = Random(seed)
    ho = h.ho
    results: list[CheckResult] = []

    # single pass over quotient presheaves for (b), (c) and the (a) reservoir
    implication_cases = 0
    witness: dict | None = None
    sample: list[SetPresheaf] = []
    b_fail: CheckResult | None = None
    for pre, _ in reservoir(walk_presheaves(ho, bound), 10, rng, sample):
        pulled = gamma_star(h, pre)
        cls_ho = classify_presheaf(pre, induced)
        cls_base = classify_presheaf(pulled, top)
        implication_cases += 1
        bad = None
        if cls_base.is_sheaf and not cls_ho.is_sheaf:
            bad = "base sheaf with non-sheaf original"
        elif cls_base.is_separated and not cls_ho.is_separated:
            bad = "base separated with non-separated original"
        elif cls_ho.is_separated and not cls_base.is_separated:
            bad = "separated original with non-separated pullback"
        if bad and b_fail is None:
            b_fail = CheckResult(
                "sheaf-implications", "fail", bad,
                counterexample={"presheaf": _presheaf_payload(pre),
                                "original": cls_ho.kind, "pullback": cls_base.kind})
        if witness is None and cls_ho.is_sheaf and not cls_base.is_sheaf:
            wx, wsieve = cls_base.witness
            witness = {
                "presheaf": _presheaf_payload(pre),
                "object": wx,
                "cover": format_sieve(h.base, wsieve),
                "sections": len(pulled.value[wx]),
                "families": len(matching_families(pulled, wsieve)),
            }

    # (a): sampled morphisms plus every sieve inclusion
    a_fail: CheckResult | None = None
    cases = [(sieve_inclusion(ho, u), is_bracket_cover(h, top, u))
             for x in ho.objects for u in all_sieves(ho, x)]
    for _ in range(min(6, len(sample) ** 2)):
        src, tgt = rng.choice(sample), rng.choice(sample)
        cases.extend((m, bool(is_tau_iso(gamma_star_morphism(h, m), top)))
                     for m in islice(iter_hom_presheaves(src, tgt), 12))
    for m, right in cases:
        left = bool(is_tau_iso(m, induced))
        if left != right and a_fail is None:
            a_fail = CheckResult(
                "iso-comparison", "fail",
                f"induced-iso {left} but base-iso {right}",
                counterexample={"source": _presheaf_payload(m.source),
                                "target": _presheaf_payload(m.target),
                                "components": {o: dict(c) for o, c in m.components.items()}})
    results.append(a_fail or CheckResult(
        "iso-comparison", "pass", f"{len(cases)} morphisms agree",
        data={"cases": len(cases)}))
    results.append(b_fail or CheckResult(
        "sheaf-implications", "pass",
        f"{implication_cases} presheaves, all implications hold",
        data={"cases": implication_cases}))
    if witness is not None:
        results.append(CheckResult(
            "converse-witness", "pass",
            f"witness found: sheaf over the quotient, pullback has "
            f"{witness['sections']} sections vs {witness['families']} families",
            data={"found": True, "sections": witness["sections"],
                  "families": witness["families"]},
            counterexample=witness))
    else:
        results.append(CheckResult(
            "converse-witness", "pass", "no witness within bounds",
            data={"found": False}))

    # (d): thickening calculus
    d_cases = 0
    d_fail: CheckResult | None = None
    for x in h.base.objects:
        covers = top.covers_of(x)
        thickened = {}
        for j in covers:
            d_cases += 1
            jd = thicken_sieve(h, j)
            problems = []
            if not j.members <= jd.members:
                problems.append("thickening lost members")
            if thicken_sieve(h, jd) != jd:
                problems.append("thickening is not idempotent")
            if bracket_sieve(h, jd) != bracket_sieve(h, j):
                problems.append("thickening changed the bracket")
            if not top.is_cover(jd):
                problems.append("thickened sieve is not covering")
            if problems and d_fail is None:
                d_fail = CheckResult(
                    "thickening", "fail", "; ".join(problems),
                    counterexample={"object": x, "sieve": format_sieve(h.base, j),
                                    "thickened": format_sieve(h.base, jd)})
            thickened[j] = jd
        for i, j1 in enumerate(covers):
            for j2 in covers[i + 1:]:
                if thickened[j1] != thickened[j2] and \
                        bracket_sieve(h, j1) == bracket_sieve(h, j2) and d_fail is None:
                    d_fail = CheckResult(
                        "thickening", "fail",
                        "distinct thickened sieves share a bracket",
                        counterexample={"object": x,
                                        "first": format_sieve(h.base, j1),
                                        "second": format_sieve(h.base, j2)})
    results.append(d_fail or CheckResult(
        "thickening", "pass", f"{d_cases} covers checked", data={"cases": d_cases}))
    return results


def check_sheaf_transfer(h: HomotopyCategoryData, induced: GrothendieckTopology,
                         sheaves: Iterable[SetPresheaf]) -> CheckResult:
    """The right Kan extension must send every base sheaf to an induced
    sheaf. Classifies gamma_* of each while it is current and reports the
    first failure with that image. If every induced least cover is maximal,
    every image is a sheaf and the sheaves are only counted."""
    count = 0
    fail: CheckResult | None = None
    for pre in sheaves:
        count += 1
        if fail is None and induced._sheaf_plans:
            image = gamma_lower_star(h, pre)
            if not classify_presheaf(image, induced).is_sheaf:
                fail = CheckResult(
                    "sheaf-transfer", "fail",
                    "right Kan extension of a sheaf is not a sheaf",
                    counterexample={"presheaf": _presheaf_payload(pre),
                                    "image": _presheaf_payload(image)})
    return fail or CheckResult("sheaf-transfer", "pass",
                               f"{count} sheaves transferred", data={"sheaves": count})
