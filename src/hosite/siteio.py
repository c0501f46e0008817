"""Site documents: the JSON tree format, loading, and content digests.

A site file lists objects, non-identity morphisms, the composition table for
composable non-identity pairs (keys are "g∘f" strings, so names hold no "∘"),
homotopy edges, topology generators, and optional named presheaves. Identities
are synthesized as ``id_<object>`` so counterexamples stay hand-editable.

``load_site`` is the one place a site is validated. It checks the document's
JSON shape and the form of the entries it translates (morphism entries,
"g∘f" keys, two-endpoint edges); every input law is then checked once, by the
validator that owns it: the category laws, the enrichment (through the one
``homotopy_category`` call), the covers (by ``saturate_topology``, a
topology by construction; its cover sets are listed here, so the lattice cap
is a load error) and every presheaf. Any failure is a ``SiteLoadError``, so
every loaded ``SiteDocument`` has passed them all.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .core import (
    FiniteCategory,
    SetPresheaf,
    ValidationReport,
    make_category,
    make_presheaf,
    validate_category,
    validate_presheaf,
)
from .homotopy import EnrichedCategory, HomotopyCategoryData, homotopy_category
from .sieves import GrothendieckTopology, saturate_topology

COMPOSE_SIGN = "∘"


class SiteLoadError(Exception):
    pass


@dataclass
class SiteDocument:
    raw: dict
    digest: str
    category: FiniteCategory
    enriched: EnrichedCategory
    homotopy: HomotopyCategoryData
    topology: GrothendieckTopology
    presheaves: dict[str, SetPresheaf]


def normalize_raw(doc: dict) -> dict:
    return {
        "objects": list(doc.get("objects", [])),
        "morphisms": [dict(m) for m in doc.get("morphisms", [])],
        "composition": dict(doc.get("composition", {})),
        "edges": [list(e) for e in doc.get("edges", [])],
        "covers": {o: [list(f) for f in fams] for o, fams in doc.get("covers", {}).items()},
        "presheaves": {
            name: {
                "values": {o: list(v) for o, v in p.get("values", {}).items()},
                "restrictions": {m: dict(t) for m, t in p.get("restrictions", {}).items()},
            }
            for name, p in doc.get("presheaves", {}).items()
        },
    }


def site_digest(doc: dict) -> str:
    canonical = json.dumps(normalize_raw(doc), sort_keys=True,
                           separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def serialize_site(doc: dict) -> str:
    return json.dumps(normalize_raw(doc), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _err(message: str) -> SiteLoadError:
    return SiteLoadError(f"load error: {message}")


# Expected JSON shape of each top-level key: [t] is a list of t, {str: t} an
# object with any keys, and any other dict an object with those optional keys.
_SHAPES = {
    "objects": [str],
    "morphisms": [{str: str}],
    "composition": {str: str},
    "edges": [[str]],
    "covers": {str: [[str]]},
    "presheaves": {str: {"values": {str: [str]}, "restrictions": {str: {str: str}}}},
}


def _fits(x, shape) -> bool:
    if shape is str:
        return isinstance(x, str)
    if isinstance(shape, list):
        return isinstance(x, (list, tuple)) and all(_fits(v, shape[0]) for v in x)
    if not isinstance(x, dict):
        return False
    if str in shape:
        return all(isinstance(k, str) and _fits(v, shape[str]) for k, v in x.items())
    return all(_fits(x[k], sub) for k, sub in shape.items() if k in x)


def _check(report: ValidationReport, prefix: str = "") -> None:
    """Raise the load error for a failing validator report."""
    if not report:
        raise _err(f"{prefix}{report.law} at {report.witness}: {report.detail}")


def load_site(doc: dict) -> SiteDocument:
    if not isinstance(doc, dict):
        raise _err("site document must be a JSON object")
    unknown = set(doc) - set(_SHAPES)
    if unknown:
        raise _err(f"unknown key: {sorted(unknown)[0]}")
    for key, shape in _SHAPES.items():
        if key in doc and not _fits(doc[key], shape):
            raise _err(f"malformed {key}: expected the lists and objects of strings of the site format")
    for name, entry in doc.get("presheaves", {}).items():
        extra = sorted(set(entry) - set(_SHAPES["presheaves"][str]))
        if extra:
            raise _err(f"presheaf {name}: unknown key: {extra[0]}")
    raw = normalize_raw(doc)

    arrows = []
    for m in raw["morphisms"]:
        if set(m) != {"name", "dom", "cod"}:
            raise _err(f"morphism entry needs name/dom/cod: {m!r}")
        if COMPOSE_SIGN in m["name"]:
            raise _err(f"morphism name contains '{COMPOSE_SIGN}': {m['name']}")
        arrows.append((m["name"], m["dom"], m["cod"]))
    composition = {}
    for key, h in raw["composition"].items():
        if COMPOSE_SIGN not in key:
            raise _err(f"composition key must look like 'g{COMPOSE_SIGN}f': {key!r}")
        g, f = key.split(COMPOSE_SIGN, 1)
        composition[(g, f)] = h
    for edge in raw["edges"]:
        if len(edge) != 2:
            raise _err(f"edge must name two endpoints: {edge!r}")

    try:
        category = make_category(raw["objects"], arrows, composition)
        _check(validate_category(category))
        enriched = EnrichedCategory(category, tuple((a, b) for a, b in raw["edges"]))
        homotopy = homotopy_category(enriched)
        topology = saturate_topology(category, raw["covers"])
        topology.covers  # lists each base sieve lattice here, where its cap is a load error
    except ValueError as exc:
        raise _err(str(exc)) from None

    presheaves = {}
    for name, data in raw["presheaves"].items():
        presheaves[name] = make_presheaf(category, data["values"], data["restrictions"])
        _check(validate_presheaf(presheaves[name], category), f"presheaf {name}: ")

    return SiteDocument(raw, site_digest(raw), category, enriched,
                        homotopy, topology, presheaves)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a load error
    rather than silently taking its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise _err(f"repeated key: {key}")
        doc[key] = value
    return doc


def parse_site(text: str) -> SiteDocument:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise _err(f"syntax error: {exc}") from None
    except RecursionError:
        raise _err("syntax error: the document nests too deeply") from None
    return load_site(doc)
