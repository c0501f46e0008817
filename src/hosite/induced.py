"""The induced topology on the homotopy category and the comparison suite.

Two independent characterizations are computed and compared: brackets of
covering sieves, and the exhaustive sieve-lattice scan with the covering
test. That test is a local-isomorphism test: a sieve on the quotient covers
when the gamma-pullback of its inclusion is locally surjective and locally
injective at the least covers of the base topology, which is exactly when
it becomes an isomorphism after sheafification. The agreement of the two
characterizations is a theorem, so any disagreement fails loudly with a
replayable counterexample.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .core import SetPresheaf, hom_presheaves
from .enumeration import enumerate_presheaves
from .homotopy import HomotopyCategoryData, gamma_lower_star, gamma_star, gamma_star_morphism
from .report import CheckResult
from .sheafify import classify_presheaf, is_sheaf, is_tau_iso, matching_families
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
    if j.root not in set(h.base.objects):
        raise ValueError(f"unknown object id: {j.root}")
    return generate_sieve(h.ho, j.root, sorted({h.gamma[f] for f in j.members}))


def thicken_sieve(h: HomotopyCategoryData, j: Sieve) -> Sieve:
    """All morphisms whose image lands in the bracket sieve: everything
    homotopic to a member. Contains j and has the same bracket."""
    bracket = bracket_sieve(h, j)
    return Sieve(j.root, frozenset(
        f for f in h.base.arrows_into(j.root) if h.gamma[f] in bracket.members))


def _gamma_star_inclusion(h: HomotopyCategoryData, u: Sieve):
    incl = sieve_inclusion(h.ho, u)
    return gamma_star_morphism(h, incl)


def is_bracket_cover(h: HomotopyCategoryData, top: GrothendieckTopology, u: Sieve) -> bool:
    """Covering test for a sieve on the quotient: pull the inclusion back to
    the base and ask whether it is a local isomorphism there."""
    return bool(is_tau_iso(_gamma_star_inclusion(h, u), top))


@dataclass(frozen=True)
class InducedTopologyReport:
    induced: GrothendieckTopology
    via_bracket: dict[str, frozenset[Sieve]]
    via_iso_test: dict[str, frozenset[Sieve]]
    agreement: bool


def induced_topology(h: HomotopyCategoryData, top: GrothendieckTopology) -> InducedTopologyReport:
    """Compute the induced covers both ways and insist they agree."""
    ho = h.ho
    via_bracket = {
        x: frozenset(bracket_sieve(h, j) for j in top.covers.get(x, frozenset()))
        for x in ho.objects
    }
    via_iso = {
        x: frozenset(u for u in all_sieves(ho, x) if is_bracket_cover(h, top, u))
        for x in ho.objects
    }
    agreement = via_bracket == via_iso
    induced = GrothendieckTopology(ho, via_iso)
    if not agreement:
        diff = {}
        for x in ho.objects:
            only_bracket = sorted(format_sieve(ho, s) for s in via_bracket[x] - via_iso[x])
            only_iso = sorted(format_sieve(ho, s) for s in via_iso[x] - via_bracket[x])
            if only_bracket or only_iso:
                diff[x] = {"only_bracket": only_bracket, "only_iso_test": only_iso}
        raise TheoremViolation(
            "bracket covers and isomorphism-test covers disagree", {"disagreement": diff})
    report = validate_topology(induced)
    if not report:
        raise TheoremViolation(
            f"induced covers do not form a topology ({report.law} at {report.witness})",
            {"validation": report.detail})
    return InducedTopologyReport(induced, via_bracket, via_iso, True)


def check_cover_reflecting(h: HomotopyCategoryData, top: GrothendieckTopology,
                           induced: GrothendieckTopology) -> CheckResult:
    """Preimages of induced covers must be covers in the base."""
    checked = 0
    for x in h.ho.objects:
        for u in sorted(induced.covers.get(x, frozenset()), key=Sieve.sort_key):
            checked += 1
            pre = Sieve(x, frozenset(
                f for f in h.base.arrows_into(x) if h.gamma[f] in u.members))
            if pre not in top.covers.get(x, frozenset()):
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
    reservoir: list[SetPresheaf] = []
    b_fail: CheckResult | None = None
    seen = 0
    for pre in enumerate_presheaves(ho, bound):
        seen += 1
        cls_ho = classify_presheaf(pre, induced)
        pulled = gamma_star(h, pre)
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
        if len(reservoir) < 10:
            reservoir.append(pre)
        else:
            k = rng.randint(0, seen - 1)
            if k < 10:
                reservoir[k] = pre

    # (a): sampled morphisms plus every sieve inclusion
    iso_cases = 0
    a_fail: CheckResult | None = None
    morphisms = []
    for x in ho.objects:
        for u in all_sieves(ho, x):
            morphisms.append(sieve_inclusion(ho, u))
    for _ in range(min(6, len(reservoir) ** 2)):
        src = rng.choice(reservoir)
        tgt = rng.choice(reservoir)
        morphisms.extend(hom_presheaves(src, tgt)[:12])
    for m in morphisms:
        left = bool(is_tau_iso(m, induced))
        right = bool(is_tau_iso(gamma_star_morphism(h, m), top))
        iso_cases += 1
        if left != right and a_fail is None:
            a_fail = CheckResult(
                "iso-comparison", "fail",
                f"induced-iso {left} but base-iso {right}",
                counterexample={"source": _presheaf_payload(m.source),
                                "target": _presheaf_payload(m.target),
                                "components": {o: dict(c) for o, c in m.components.items()}})
    results.append(a_fail or CheckResult(
        "iso-comparison", "pass", f"{iso_cases} morphisms agree", data={"cases": iso_cases}))
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
        covers = sorted(top.covers.get(x, frozenset()), key=Sieve.sort_key)
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
            if jd not in top.covers.get(x, frozenset()):
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


def check_sheaf_transfer(h: HomotopyCategoryData, top: GrothendieckTopology,
                         induced: GrothendieckTopology, bound: int = 2) -> CheckResult:
    """The right Kan extension must send every base sheaf to an induced sheaf."""
    sheaves = 0
    for pre in enumerate_presheaves(h.base, bound):
        if not is_sheaf(pre, top):
            continue
        sheaves += 1
        pushed = gamma_lower_star(h, pre)
        if not is_sheaf(pushed, induced):
            return CheckResult(
                "sheaf-transfer", "fail",
                "right Kan extension of a sheaf is not a sheaf",
                counterexample={"presheaf": _presheaf_payload(pre),
                                "image": _presheaf_payload(pushed)})
    return CheckResult("sheaf-transfer", "pass",
                       f"{sheaves} sheaves transferred", data={"sheaves": sheaves})
