"""One minimal bad input per validator law: the report names the law and the
witness. Loading a site runs the input validators and nothing later
re-checks it, so they are the only gate on input; loading trusts
saturation, and ``validate_topology`` stays its oracle."""
from __future__ import annotations

from dataclasses import replace

import pytest

from hosite import (
    EnrichedCategory,
    FiniteCategory,
    GrothendieckTopology,
    PresheafMorphism,
    SetPresheaf,
    Sieve,
    make_category,
    validate_category,
    validate_enrichment,
    validate_presheaf,
    validate_presheaf_morphism,
    validate_sieve,
    validate_topology,
)

ARROW = make_category(["a", "b"], [("f", "a", "b")])  # f : a -> b
PAIR = make_category(["a", "b"], [("f", "a", "b"), ("f2", "a", "b")])
CHAIN = make_category(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("gf", "a", "c")],
                      {("g", "f"): "gf"})


def _with_table(cat, changes):
    """cat with the composites of the (g, f) keys replaced, or removed for None."""
    table = {**cat.composition, **changes}
    return replace(cat, composition={k: h for k, h in table.items() if h is not None})


ONE = {"a": ("0",), "b": ("0",)}
ONE_RESTRICT = {"f": {"0": "0"}, "id_a": {"0": "0"}, "id_b": {"0": "0"}}
TWO = {"a": ("0", "1"), "b": ("0", "1")}
SWAP = {"0": "1", "1": "0"}
FIXED = {"0": "0", "1": "1"}
K1 = SetPresheaf(ARROW, ONE, ONE_RESTRICT)
K2 = SetPresheaf(ARROW, TWO, {"f": FIXED, "id_a": FIXED, "id_b": FIXED})
EMPTY_A, MAX_A = Sieve("a", frozenset()), Sieve("a", frozenset({"id_a"}))
EMPTY_B, MAX_B = Sieve("b", frozenset()), Sieve("b", frozenset({"f", "id_b"}))


CASES = [
    # validate_category: structure
    ("category-duplicate-object", validate_category,
     (FiniteCategory(("a", "a"), (), {}, {}, {}, {}),), "structure", (), "duplicate object"),
    ("category-duplicate-morphism", validate_category,
     (replace(ARROW, morphisms=("f", "f", "id_a", "id_b")),), "structure", (),
     "duplicate morphism"),
    ("category-unknown-endpoint", validate_category,
     (replace(ARROW, dom={**ARROW.dom, "f": "q"}),), "structure", ("f",), "unknown dom/cod"),
    ("category-identity-cover", validate_category,
     (replace(ARROW, identity={"a": "id_a"}),), "structure", (), "identity assignment"),
    ("category-identity-not-endo", validate_category,
     (replace(ARROW, identity={"a": "f", "b": "id_b"}),), "structure", ("a", "f"),
     "not an endomorphism"),
    # validate_category: composability table
    ("category-table-unknown", validate_category,
     (_with_table(ARROW, {("f", "nope"): "f"}),), "composability-table", ("f", "nope"),
     "unknown morphism"),
    ("category-table-not-composable", validate_category,
     (_with_table(ARROW, {("f", "id_b"): "f"}),), "composability-table", ("f", "id_b"),
     "non-composable"),
    ("category-table-endpoints", validate_category,
     (_with_table(ARROW, {("f", "id_a"): "id_b"}),), "composability-table", ("f", "id_a"),
     "wrong endpoints"),
    ("category-table-missing", validate_category,
     (_with_table(ARROW, {("f", "id_a"): None}),), "composability-table", ("f", "id_a"),
     "missing composite"),
    # validate_category: identity laws
    ("category-left-identity", validate_category,
     (_with_table(PAIR, {("id_b", "f"): "f2"}),), "identity-law", ("id_b", "f"), "id∘f"),
    ("category-right-identity", validate_category,
     (_with_table(PAIR, {("f", "id_a"): "f2"}),), "identity-law", ("f", "id_a"), "f∘id"),
    # validate_presheaf
    ("presheaf-other-category", validate_presheaf, (K1, PAIR), "structure", (),
     "different category"),
    ("presheaf-value-cover", validate_presheaf,
     (SetPresheaf(ARROW, {"a": ("0",)}, ONE_RESTRICT),), "structure", (), "value assignment"),
    ("presheaf-restriction-cover", validate_presheaf,
     (SetPresheaf(ARROW, ONE, {"f": {"0": "0"}}),), "structure", (), "restriction assignment"),
    ("presheaf-repeated-section", validate_presheaf,
     (SetPresheaf(ARROW, {"a": ("0",), "b": ("0", "0")}, ONE_RESTRICT),), "structure", ("b",),
     "repeats section 0"),
    ("presheaf-restriction-map", validate_presheaf,
     (SetPresheaf(ARROW, ONE, {**ONE_RESTRICT, "f": {}}),), "restriction-map", ("f",),
     "total map"),
    ("presheaf-identity", validate_presheaf,
     (SetPresheaf(ARROW, TWO, {"f": FIXED, "id_a": SWAP, "id_b": FIXED}),),
     "identity-law", ("id_a", "0"), "moves 0"),
    ("presheaf-contravariance", validate_presheaf,
     (SetPresheaf(CHAIN, {o: ("0", "1") for o in "abc"},
                {m: (SWAP if m == "gf" else FIXED) for m in CHAIN.morphisms}),),
     "contravariance", ("g", "f", "0"), "restrict(gf)"),
    # validate_presheaf_morphism
    ("morphism-other-category", validate_presheaf_morphism,
     (PresheafMorphism(K1, SetPresheaf(PAIR, {}, {}), {}),), "structure", (),
     "different categories"),
    ("morphism-component-cover", validate_presheaf_morphism,
     (PresheafMorphism(K1, K1, {"a": {"0": "0"}}),), "structure", (), "do not cover"),
    ("morphism-component-total", validate_presheaf_morphism,
     (PresheafMorphism(K1, K1, {"a": {}, "b": {"0": "0"}}),), "structure", ("a",),
     "not a total map"),
    ("morphism-naturality", validate_presheaf_morphism,
     (PresheafMorphism(K2, K2, {"a": FIXED, "b": SWAP}),), "naturality", ("f", "0"),
     "square for f"),
    # validate_sieve
    ("sieve-root", validate_sieve, (ARROW, Sieve("q", frozenset())), "structure", ("q",),
     "not an object"),
    ("sieve-member-codomain", validate_sieve,
     (ARROW, Sieve("b", frozenset({"id_a"}))), "structure", ("id_a",), "codomain b"),
    ("sieve-closure", validate_sieve,
     (ARROW, Sieve("b", frozenset({"id_b"}))), "closure", ("id_b", "f"), "escapes"),
    # validate_topology: structure
    ("topology-unknown-object", validate_topology,
     (GrothendieckTopology(ARROW, {"q": frozenset()}),), "structure", (), "unknown object"),
    ("topology-misfiled-sieve", validate_topology,
     (GrothendieckTopology(ARROW, {"a": frozenset({Sieve("b", frozenset({"f", "id_b"}))})}),),
     "structure", ("a",), "filed under a"),
    ("topology-sieve-invariant", validate_topology,
     (GrothendieckTopology(ARROW, {"b": frozenset({Sieve("b", frozenset({"id_b"}))})}),),
     "sieve-invariant", ("b", "id_b", "f"), "escapes"),
    # validate_topology: the laws, on sieve sets no saturation produces
    ("topology-local-character", validate_topology,
     (GrothendieckTopology(ARROW, {"a": frozenset({EMPTY_A, MAX_A}),
                                   "b": frozenset({EMPTY_B, MAX_B})}),),
     "local-character", ("b", "{f}", "{}"), "locally covering"),
    ("topology-stability", validate_topology,
     (GrothendieckTopology(ARROW, {"a": frozenset({MAX_A}), "b": frozenset({EMPTY_B, MAX_B})}),),
     "stability", ("b", "{}", "f"), "not covering a"),
    ("topology-maximality", validate_topology,
     (GrothendieckTopology(ARROW, {"a": frozenset({MAX_A}),
                                   "b": frozenset({Sieve("b", frozenset({"f"}))})}),),
     "maximality", ("b",), "maximal sieve on b"),
    # validate_enrichment: edge endpoints
    ("enrichment-unknown-endpoint", validate_enrichment,
     (EnrichedCategory(ARROW, (("f", "nope"),)),), "edge-endpoints", ("f", "nope"),
     "not a morphism"),
    ("enrichment-whisker-precomposition", validate_enrichment,
     (EnrichedCategory(make_category(
         ["w", "x", "y"], [("g", "w", "x"), ("f1", "x", "y"), ("f2", "x", "y"),
                           ("p", "w", "y"), ("q", "w", "y")],
         {("f1", "g"): "p", ("f2", "g"): "q"}), (("f1", "f2"),)),),
     "whisker-compatibility", ("f1", "f2", "g"), "f1∘g and f2∘g"),
    ("enrichment-not-parallel", validate_enrichment,
     (EnrichedCategory(ARROW, (("f", "id_a"),)),), "edge-endpoints", ("f", "id_a"),
     "not parallel"),
]


@pytest.mark.parametrize("validator, args, law, witness, detail",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_validator_reports_law_and_witness(validator, args, law, witness, detail):
    report = validator(*args)
    assert not report
    assert (report.law, report.witness) == (law, witness)
    assert detail in report.detail


def test_well_formed_inputs_pass():
    # the bases the bad inputs are made from are themselves valid
    for cat in (ARROW, PAIR, CHAIN):
        assert validate_category(cat)
    assert validate_presheaf(K1) and validate_presheaf(K2)
    assert validate_presheaf_morphism(PresheafMorphism(K2, K2, {"a": SWAP, "b": SWAP}))
    assert validate_sieve(ARROW, Sieve("b", frozenset({"f", "id_b"})))
    assert validate_enrichment(EnrichedCategory(PAIR, (("f", "f2"),)))
