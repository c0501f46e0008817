"""hosite: a finite-site engine for Grothendieck topologies, sheafification,
homotopy categories of edge-enriched finite categories, and the comparison
checks between a topology on the base and the topology it induces on the
homotopy category."""

from .core import (
    FiniteCategory,
    PresheafMorphism,
    SetPresheaf,
    ValidationReport,
    componentwise_bijection,
    compose_morphisms,
    constant_presheaf,
    empty_presheaf,
    equalizer_presheaf,
    hom_presheaves,
    identity_morphism,
    make_category,
    make_presheaf,
    product_presheaf,
    validate_category,
    validate_presheaf,
    validate_presheaf_morphism,
    yoneda,
)
from .sieves import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    format_sieve,
    generate_sieve,
    maximal_sieve,
    minimal_cover,
    pullback_sieve,
    saturate_topology,
    sieve_inclusion,
    sieve_presheaf,
    trivial_topology,
    validate_sieve,
    validate_topology,
)
from .sheafify import (
    Classification,
    MatchingFamily,
    SheafificationResult,
    TauIsoResult,
    classify_presheaf,
    is_sheaf,
    is_tau_iso,
    matching_families,
    plus_construction,
    plus_construction_via_colimit,
    sheafify,
    sheafify_morphism,
)
from .homotopy import (
    EnrichedCategory,
    HomotopyCategoryData,
    gamma_lower_star,
    gamma_shriek,
    gamma_shriek_morphism,
    gamma_star,
    gamma_star_morphism,
    homotopy_category,
    validate_enrichment,
)
from .induced import (
    TheoremViolation,
    bracket_sieve,
    check_comparison_lemmas,
    check_cover_reflecting,
    check_sheaf_transfer,
    induced_topology,
    is_bracket_cover,
    thicken_sieve,
)
from .siteio import SiteDocument, SiteLoadError, load_site, parse_site, serialize_site, site_digest
from .fixtures import FIXTURE_NAMES, fixture_doc, fixture_site
from .randomsites import random_site
from .report import CheckReport, CheckResult, emit_report
from .suite import engine_checks, run_population, run_site_suite, summarize_population

__version__ = "0.1.0"
