"""Work counts of the site suite: every base presheaf is enumerated once per
site, and every presheaf the engine battery sheafifies is sheafified once.
Every failure branch of the suite yields a replayable counterexample."""
from __future__ import annotations

import importlib
import json
from random import Random

import pytest

import hosite.enumeration as enumeration
import hosite.homotopy as homotopy
import hosite.induced as induced
import hosite.suite as suite
from hosite import (
    CheckResult,
    Sieve,
    all_sieves,
    fixture_site,
    hom_presheaves,
    load_site,
    make_presheaf,
    maximal_sieve,
    run_site_suite,
    serialize_site,
    summarize_population,
    validate_presheaf,
)
from hosite.cli import main
from hosite.enumeration import sample_presheaves, walk_presheaves
from hosite.suite import ENGINE_SAMPLES

# the package exports the function sheafify under the module's name
sheafify_mod = importlib.import_module("hosite.sheafify")


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_each_category_enumerated_once(name, count_calls):
    site = fixture_site(name)
    calls = count_calls(enumeration, "walk_presheaves")
    assert all(c.verdict == "pass" for c in run_site_suite(site, bound=2, seed=0))
    cats = [args[0] for args in calls]
    assert len(cats) == 2
    assert site.category in cats and site.homotopy.ho in cats


def test_sheaf_transfer_tests_only_the_pushed_images(count_calls):
    # fixture B at bound 4: the walk decides all 77,633 base presheaves, and
    # gamma_* is built once for each of the 26 base sheaves, whose image is
    # classified without passing through is_sheaf
    site = fixture_site("B")
    calls = count_calls(sheafify_mod, "is_sheaf")
    pushed = count_calls(homotopy, "gamma_lower_star")
    checks = {c.name: c for c in run_site_suite(site, bound=4, seed=0)}
    assert checks["sheaf-transfer"].data == {"sheaves": 26}
    assert len(calls) == 0
    assert len(pushed) == 26


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_suite_classifies_through_the_public_classifier(name, count_calls):
    # every classification of the suite goes through classify_presheaf and
    # every pullback through gamma_star, where a wrapper can see them: two
    # classifications and one pullback per quotient leaf, one classification
    # per tested transfer image and per engine presheaf, and two pullbacks
    # per pulled-back morphism
    site = fixture_site(name)
    h, top = site.homotopy, site.topology
    induced_top = induced.induced_topology(h, top)
    leaves = sum(1 for _ in walk_presheaves(h.ho, 2))
    sheaves = sum(1 for _, sheaf in walk_presheaves(h.base, 2, top) if sheaf)
    images = sheaves if induced_top._sheaf_plans else 0
    classified = count_calls(sheafify_mod, "classify_presheaf")
    pulled = count_calls(homotopy, "gamma_star")
    morphisms = count_calls(homotopy, "gamma_star_morphism")
    engine_calls = count_calls(suite, "engine_checks")
    assert all(c.verdict == "pass" for c in run_site_suite(site, bound=2, seed=0))
    [(_, pres)] = engine_calls
    assert len(classified) == 2 * leaves + images + len(pres)
    assert len(pulled) == leaves + 2 * len(morphisms)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_engine_plus_constructions(name, count_calls):
    # 4 per presheaf (sheafify it and its sheaf), 2 per adjacent pair (the
    # product) and 2 more per pair with at least two parallel maps (the
    # equalizer); morphisms are transported, not re-sheafified
    site = fixture_site(name)
    engine_calls = count_calls(suite, "engine_checks")
    plus_calls = count_calls(sheafify_mod, "_plus")
    run_site_suite(site, bound=2, seed=0)
    [(_, pres)] = engine_calls
    pairs = list(zip(pres, pres[1:]))
    with_equalizer = sum(1 for f, g in pairs if len(hom_presheaves(f, g)) >= 2)
    assert len(plus_calls) == 4 * len(pres) + 2 * len(pairs) + 2 * with_equalizer


def test_engine_samples_come_from_the_transfer_pass(all_sites, random_sites, monkeypatch):
    received: list[list] = []
    monkeypatch.setattr(suite, "engine_checks",
                        lambda top, presheaves: received.append(list(presheaves)) or [])
    sites = [(site, 0) for site in all_sites.values()]
    sites += [(site, seed) for seed, site in enumerate(random_sites)]
    for site, seed in sites:
        run_site_suite(site, bound=2, seed=seed)
        expected = sample_presheaves(site.category, 2, ENGINE_SAMPLES, Random(seed + 1))
        expected += [site.presheaves[n] for n in sorted(site.presheaves)]
        assert received.pop() == expected


# Failure branches of the comparison suite. Each case forces one check to
# fail by replacing a name the check reads; the report must still be a
# complete, replayable counterexample.

def _on_quotient(morphisms) -> bool:
    return all(m.startswith("[") for m in morphisms)


def _fixed_classification(on_quotient: str, on_base: str):
    """classify_presheaf(pre, top) replaced by fixed kinds; a base witness
    names the maximal sieve on the first object, so the converse search can
    read it."""
    from hosite import Classification, maximal_sieve

    def classify(*args):
        cat = args[-1].base
        if _on_quotient(cat.morphisms):
            return Classification(on_quotient)
        x = cat.objects[0]
        return Classification(on_base, (x, maximal_sieve(cat, x)))
    return classify


def _induced_by(covers_of):
    """induced_topology replaced by one whose covers are covers_of(ho, x)."""
    from hosite import GrothendieckTopology
    from oracles import least_covers

    def fake(h, top):
        return GrothendieckTopology(h.ho, least_covers(
            h.ho, {x: frozenset(covers_of(h.ho, x)) for x in h.ho.objects}))
    return fake


def _equalizer_with_wrong_target():
    """equalizer_presheaf whose every second call, the one on the sheafified
    pair, reports an inclusion from a bogus subpresheaf."""
    from types import SimpleNamespace
    from hosite.core import equalizer_presheaf
    calls = []

    def fake(u, v):
        eq, incl = equalizer_presheaf(u, v)
        calls.append(None)
        if len(calls) % 2:
            return eq, incl
        bogus = SimpleNamespace(value={o: ("bogus",) for o in eq.cat.objects})
        return eq, SimpleNamespace(source=bogus)
    return fake


def _thicken_to_empty_and_back(h, j):
    """A nonempty sieve thickens to the empty one, which thickens to the maximal."""
    return Sieve(j.root, frozenset() if j.members else frozenset(h.base.arrows_into(j.root)))


def _transport_to_first_section():
    """Transport that sends every section to the target's first one, so the
    sheafified product no longer pairs onto the product of the sheafifications."""
    from hosite.core import PresheafMorphism
    return lambda m, source, target: PresheafMorphism(source.sheaf, target.sheaf, {
        o: {e: target.sheaf.value[o][0] for e in source.sheaf.value[o]}
        for o in source.sheaf.cat.objects})


def _locally_injective(m, top):
    """is_tau_iso without its local-surjectivity test."""
    from hosite import TauIsoResult
    src = m.source
    for x in src.cat.objects:
        fibres: dict[str, list[str]] = {}
        for s in src.value[x]:
            fibres.setdefault(m.components[x][s], []).append(s)
        if any(src.restrict[f][s] != src.restrict[f][same[0]]
               for same in fibres.values() for s in same[1:]
               for f in top._cover_plan[x].members):
            return TauIsoResult(False, x)
    return TauIsoResult(True)


_FAILURES = [
    # (target check, module, name, replacement factory, expected detail prefix)
    ("cover-reflecting", suite, "induced_topology",
     lambda: _induced_by(all_sieves), "preimage of"),
    ("iso-comparison", suite, "induced_topology",
     lambda: _induced_by(lambda ho, x: [maximal_sieve(ho, x)]), "induced-iso"),
    ("sheaf-implications", induced, "classify_presheaf",
     lambda: _fixed_classification("separated-not-sheaf", "sheaf"), "base sheaf with"),
    ("sheaf-implications", induced, "classify_presheaf",
     lambda: _fixed_classification("not-separated", "separated-not-sheaf"), "base separated"),
    ("sheaf-implications", induced, "classify_presheaf",
     lambda: _fixed_classification("sheaf", "not-separated"), "separated original"),
    ("thickening", induced, "thicken_sieve", lambda: _thicken_to_empty_and_back,
     "thickening lost members; thickening is not idempotent; thickening changed"),
    ("thickening", induced, "thicken_sieve",
     lambda: lambda h, j: j, "distinct thickened sieves"),
    ("sheaf-transfer", induced, "classify_presheaf",
     lambda: _fixed_classification("separated-not-sheaf", "sheaf"), "right Kan extension"),
    ("sheafification-engine", suite, "classify_presheaf",
     lambda: _fixed_classification("not-separated", "not-separated"), "sheafified presheaf"),
    ("sheafification-engine", suite, "is_tau_iso",
     lambda: lambda m, top: False, "unit is not"),
    ("sheafification-engine", suite, "componentwise_bijection",
     lambda: lambda m: (False, m.source.cat.objects[0]), "double sheafification"),
    ("sheafification-engine", suite, "plus_construction_via_colimit",
     lambda: lambda pre, top: None, "colimit oracle"),
    ("sheafification-engine", suite, "transport_morphism",
     _transport_to_first_section, "product comparison"),
    ("sheafification-engine", suite, "equalizer_presheaf",
     _equalizer_with_wrong_target, "equalizer comparison"),
    ("iso-comparison", induced, "is_tau_iso",
     lambda: _locally_injective, "induced-iso True but base-iso False"),
]

# f1 ~ f2 : x -> y with f1∘g = f2∘g = p for g : w -> x, and f1 generating
# the covers of y: {f1, p} and {f2, p} are distinct covers with one bracket,
# {[p]} is a non-maximal induced cover, and only the maximal sieve covers w
_IDENTITY = {"0": "0", "1": "1"}
_SITE = {
    "objects": ["w", "x", "y"],
    "morphisms": [{"name": "g", "dom": "w", "cod": "x"},
                  {"name": "f1", "dom": "x", "cod": "y"},
                  {"name": "f2", "dom": "x", "cod": "y"},
                  {"name": "p", "dom": "w", "cod": "y"}],
    "composition": {"f1∘g": "p", "f2∘g": "p"},
    "edges": [["f1", "f2"]],
    "covers": {"y": [["f1"]]},
    "presheaves": {"K2": {"values": {o: ["0", "1"] for o in "wxy"},
                          "restrictions": {m: _IDENTITY for m in ("g", "f1", "f2", "p")}}},
}


def _presheaf_payloads(node):
    if isinstance(node, dict):
        if set(node) == {"values", "restrictions"}:
            yield node
            return
        for value in node.values():
            yield from _presheaf_payloads(value)
    elif isinstance(node, list):
        for value in node:
            yield from _presheaf_payloads(value)


@pytest.mark.parametrize("target, module, name, replacement, detail", _FAILURES,
                         ids=[f"{t}-{n}-{i}" for i, (t, _, n, _, _) in enumerate(_FAILURES)])
def test_forced_failure_is_a_replayable_counterexample(
        target, module, name, replacement, detail, tmp_path, monkeypatch, capsys):
    path = tmp_path / "site.json"
    path.write_text(serialize_site(_SITE), encoding="utf-8")
    monkeypatch.setattr(module, name, replacement())
    outputs = []
    for _ in range(2):
        assert main(["check-lemmas", str(path), "--seed", "3", "--json"]) == 2
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    check = next(c for c in report["checks"] if c["name"] == target and c["verdict"] == "fail")
    assert check["detail"].startswith(detail)
    counterexample = check["counterexample"]
    site = load_site(counterexample.pop("site"))
    assert site.digest == report["digest"]
    payloads = list(_presheaf_payloads(counterexample))
    assert payloads or target in ("cover-reflecting", "thickening")
    for payload in payloads:
        cat = site.homotopy.ho if _on_quotient(payload["restrictions"]) else site.category
        pre = make_presheaf(cat, payload["values"], payload["restrictions"])
        assert validate_presheaf(pre, cat), payload


def test_summarize_population_keeps_first_appearance_order():
    results = [
        ("site-1", [CheckResult("a", "pass"), CheckResult("b", "pass")]),
        ("site-2", [CheckResult("b", "fail", "first", counterexample={"k": 1}),
                    CheckResult("c", "pass"), CheckResult("b", "fail", "second"),
                    CheckResult("a", "pass")]),
    ]
    out = summarize_population(results)
    assert [(c.name, c.verdict) for c in out] == [("a", "pass"), ("b", "fail"), ("c", "pass")]
    assert (out[0].detail, out[0].data) == ("pass on 2/2 sites", {"sites": 2})
    assert (out[1].detail, out[1].counterexample) == ("site-2: first", {"k": 1})
    assert (out[2].detail, out[2].data) == ("pass on 1/1 sites", {"sites": 1})
