"""The induced topology on the homotopy category and the comparison suite.

The induced topology [τ] is stored as its least covers, the brackets of τ's,
and its cover sets are compared with the brackets of every base cover. The
closed-form covering test (a quotient sieve covers iff it holds the bracket
of the base least cover) is lemma group (a)'s base side; the generic test,
whether the gamma-pullback of the sieve inclusion is a local isomorphism, is
its oracle under ``tests/``. Agreement is a theorem, so a disagreement fails
loudly with a replayable counterexample. The sheaf-side checks walk the
presheaves once per site, over the base: gamma^* is fully faithful, so the
quotient's presheaves are the walk's gamma-constant leaves, met in the
quotient walk's order, and gamma^*P is the leaf itself. Lemma groups (b)/(c)
read the sheaf tests of P under [τ] and of the leaf under τ off its flags and
build a leaf only for a counterexample or witness; the transfer classifies
``gamma_lower_star`` of each base sheaf with ``classify_presheaf``.
"""
from __future__ import annotations

from collections import deque
from functools import partial
from itertools import islice
from random import Random
from typing import Iterable

from .core import SetPresheaf, iter_hom_presheaves, yoneda
from .enumeration import reservoir, walk_flags
from .homotopy import HomotopyCategoryData, gamma_lower_star, gamma_star_morphism
from .report import CheckResult
from .sheafify import (KINDS, NOT_SEPARATED, NOT_SHEAF, classify_presheaf, is_tau_iso,
                       matching_families, sheaf_tests)
from .sieves import (
    GrothendieckTopology,
    Sieve,
    _inclusion,
    all_sieves,
    format_sieve,
    generate_sieve,
    sieve_presheaf,
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
    """Preimages of induced covers must be covers in the base. This holds by
    construction: with J(x) the base least cover, every induced cover u of x
    holds [J(x)], which holds gamma(J(x)), so ``_preimage(h, u)`` holds J(x)."""
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


class _Along:
    """Restriction tables read through a renaming: q reads ``restrict[first[q]]``."""

    def __init__(self, restrict, first):
        self.restrict, self.first = restrict, first

    def __getitem__(self, q):
        return self.restrict[self.first[q]]


NOT_CONSTANT = 8  # the site walk's flag of a leaf that is not gamma-constant


def _same(pre, m, twin) -> bool:
    """Whether P(m) is its twin's table: one entry of the walk's shared list,
    or, for an identity, which is no list entry, an equal table."""
    a, b = pre.restrict[m], pre.restrict[twin]
    return a is b or pre.cat.is_identity(twin) and a == b


def _site_walk(h: HomotopyCategoryData, top: GrothendieckTopology,
               induced: GrothendieckTopology, bound: int, rng: Random, sample: list,
               results: list):
    """The one presheaf walk of a site, over the base, yielding its blocks:
    τ's sheaf tests under NOT_SHEAF, [τ]'s two bits up on a view reading each
    quotient arrow as its first member's map, and whether each other arrow
    but the last slot has its twin's table (else NOT_CONSTANT and [τ]'s
    bits). Its gamma-constant leaves fill the (a) reservoir as quotient
    copies and decide (b)/(c), whose results go to ``results`` at the end."""
    base, ho = h.base, h.ho
    nonid = [m for m in base.morphisms if not base.is_identity(m)]
    first = {h.gamma[m]: m for m in reversed(nonid)}
    first.update((ho.identity[o], base.identity[o]) for o in base.objects)
    twins = {m: first[h.gamma[m]] for m in nonid if first[h.gamma[m]] != m}
    tail = nonid[-1] if nonid and nonid[-1] in twins else None
    keys = [(ho.identity[o], base.identity[o]) for o in ho.objects]
    keys += [(q, first[q]) for q in ho.morphisms if not ho.is_identity(q)]
    separated = [test for _, test, flag in sheaf_tests(top) if flag & NOT_SEPARATED]
    view = [None, None]

    def on_quotient(pre, test):
        if view[0] is not pre:
            view[:] = pre, SetPresheaf(ho, pre.value, _Along(pre.restrict, first))
        return test(view[1])

    def copy(pre, last, value):
        r = pre.restrict
        return SetPresheaf(ho, pre.value, {q: value if m == last else r[m] for q, m in keys})

    cases, b_fail, witness, fed = 0, None, None, []
    # the (a) reservoir, drawing from each gamma-constant block as it is fed one
    quotient = reservoir(iter(fed.pop, None), 10, rng, sample, copy)
    for block in walk_flags(base, bound, [
            *((reads, test, NOT_SHEAF) for reads, test, _ in sheaf_tests(top)),
            *(({first[q] for q in reads}, partial(on_quotient, test=test), flag << 1)
              for reads, test, flag in sheaf_tests(induced)),
            *(((m, t), partial(_same, m=m, twin=t), NOT_CONSTANT | 6)
              for m, t in twins.items() if m != tail)]):
        pre, flags, last, values = block
        # the block's gamma-constant leaves, the quotient's presheaves in its walk
        # order: every value of a free first member; of a free later member, the
        # one that is its twin's table; else the leaf, if its last map is its twin's
        if flags & NOT_CONSTANT or last is None and tail and not _same(pre, tail, twins[tail]):
            yield block
            continue
        if last in twins:
            values = (pre.restrict[twins[last]],)
        fed.append((pre, flags, last, values))
        next(quotient)
        cases += len(values)
        ho_kind = flags >> 1 & 3  # KINDS key of the quotient presheaf; a block's leaves share it
        # the leaves that can decide (b)/(c): each, where τ's separated half is per leaf
        some = ((values if b_fail is None else values[:1]) if flags & NOT_SHEAF
                else values[:1] if ho_kind and b_fail is None else ())
        for value in some:
            if last is not None:
                pre.restrict[last] = value
            # τ's kind of the leaf, which is gamma^* of the quotient presheaf
            kind = flags & NOT_SHEAF
            if kind and b_fail is None and not all(test(pre) for test in separated):
                kind |= NOT_SEPARATED
            if b_fail is None and (ho_kind and not kind or (ho_kind ^ kind) & NOT_SEPARATED):
                bad = ("base sheaf with non-sheaf original" if not kind else
                       "base separated with non-separated original" if ho_kind & NOT_SEPARATED
                       else "separated original with non-separated pullback")
                b_fail = CheckResult(
                    "sheaf-implications", "fail", bad,
                    counterexample={"presheaf": _presheaf_payload(copy(pre, None, None)),
                                    "original": KINDS[ho_kind], "pullback": KINDS[kind]})
            if witness is None and kind and not ho_kind:
                x, cover = classify_presheaf(pre, top).witness
                found = {"sections": len(pre.value[x]),
                         "families": len(matching_families(pre, cover))}
                witness = CheckResult(
                    "converse-witness", "pass", f"witness found: sheaf over the quotient, "
                    f"pullback has {found['sections']} sections vs {found['families']} families",
                    data={"found": True, **found}, counterexample={
                        "presheaf": _presheaf_payload(copy(pre, None, None)), "object": x,
                        "cover": format_sieve(base, cover), **found})
        pre.restrict.pop(last, None)
        yield block
    results += [b_fail or CheckResult("sheaf-implications", "pass",
                                      f"{cases} presheaves, all implications hold",
                                      data={"cases": cases}),
                witness or CheckResult("converse-witness", "pass", "no witness within bounds",
                                       data={"found": False})]


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
    return _comparison_lemmas(h, top, induced, bound, seed, partial(deque, maxlen=0))


def _comparison_lemmas(h: HomotopyCategoryData, top: GrothendieckTopology,
                       induced: GrothendieckTopology, bound: int, seed: int,
                       consume) -> list[CheckResult]:
    """The lemma groups, with the site walk handed to ``consume``, which must
    exhaust it; (a) samples its gamma-constant leaves under ``Random(seed)``."""
    rng, sample, implications = Random(seed), [], []
    consume(_site_walk(h, top, induced, bound, rng, sample, implications))
    ho = h.ho
    # (a): sampled morphisms plus every sieve inclusion
    a_fail: CheckResult | None = None
    cases = [(_inclusion(sieve_presheaf(ho, u), whole), is_bracket_cover(h, top, u))
             for x in ho.objects for whole in [yoneda(ho, x)] for u in all_sieves(ho, x)]
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
    results = [a_fail or CheckResult("iso-comparison", "pass", f"{len(cases)} morphisms agree",
                                     data={"cases": len(cases)}), *implications]

    # (d): thickening calculus, one bracket per cover. The first pair sharing a bracket
    # but not a thickening starts at its group's first cover, which differs from one of them.
    d_cases = 0
    d_fail: CheckResult | None = None
    for x in h.base.objects:
        groups: dict[Sieve, list[tuple[Sieve, Sieve]]] = {}
        for j in top.covers_of(x):
            d_cases += 1
            jd = thicken_sieve(h, j)
            bracket = bracket_sieve(h, j)
            problems = []
            if not j.members <= jd.members:
                problems.append("thickening lost members")
            if thicken_sieve(h, jd) != jd:
                problems.append("thickening is not idempotent")
            if bracket_sieve(h, jd) != bracket:
                problems.append("thickening changed the bracket")
            if not top.is_cover(jd):
                problems.append("thickened sieve is not covering")
            if problems and d_fail is None:
                d_fail = CheckResult(
                    "thickening", "fail", "; ".join(problems),
                    counterexample={"object": x, "sieve": format_sieve(h.base, j),
                                    "thickened": format_sieve(h.base, jd)})
            groups.setdefault(bracket, []).append((j, jd))
        clash = next(((j1, j) for (j1, jd1), *rest in groups.values()
                      for j, jd in rest if jd != jd1), None)
        if clash and d_fail is None:
            d_fail = CheckResult(
                "thickening", "fail", "distinct thickened sieves share a bracket",
                counterexample={"object": x, "first": format_sieve(h.base, clash[0]),
                                "second": format_sieve(h.base, clash[1])})
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
