"""Site documents: the JSON tree format, loading, and content digests.

A site file lists objects, non-identity morphisms, the composition table for
composable non-identity pairs (keys are "g∘f" strings), homotopy edges,
topology generators, and optional named presheaves. Identities are
synthesized as ``id_<object>`` so counterexamples stay hand-editable.

``load_site`` is the one place a site is validated: the document's shape,
then the category laws, the enrichment (through the one ``homotopy_category``
call), the saturated topology and every presheaf. Any failure is a
``SiteLoadError``, so every loaded ``SiteDocument`` has passed them all and
later readers trust it.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .core import (
    FiniteCategory,
    SetPresheaf,
    make_category,
    make_presheaf,
    validate_category,
    validate_presheaf,
)
from .homotopy import EnrichedCategory, HomotopyCategoryData, homotopy_category
from .sieves import GrothendieckTopology, saturate_topology, validate_topology

COMPOSE_SIGN = "∘"
_TOP_KEYS = {"objects", "morphisms", "composition", "edges", "covers", "presheaves"}


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


def load_site(doc: dict) -> SiteDocument:
    if not isinstance(doc, dict):
        raise _err("site document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise _err(f"unknown key: {sorted(unknown)[0]}")
    for key, shape in _SHAPES.items():
        if key in doc and not _fits(doc[key], shape):
            raise _err(f"malformed {key}: expected the lists and objects of strings of the site format")
    raw = normalize_raw(doc)

    objects = raw["objects"]
    if len(set(objects)) != len(objects):
        raise _err("duplicate object id")
    arrows = []
    for m in raw["morphisms"]:
        if set(m) != {"name", "dom", "cod"}:
            raise _err(f"morphism entry needs name/dom/cod: {m!r}")
        if m["dom"] not in objects or m["cod"] not in objects:
            raise _err(f"morphism {m['name']} has unknown dom/cod")
        arrows.append((m["name"], m["dom"], m["cod"]))

    composition = {}
    for key, h in raw["composition"].items():
        if COMPOSE_SIGN not in key:
            raise _err(f"composition key must look like 'g{COMPOSE_SIGN}f': {key!r}")
        g, f = key.split(COMPOSE_SIGN, 1)
        composition[(g, f)] = h

    arrow_names = {a[0] for a in arrows}
    for (g, f), h in composition.items():
        for name in (g, f):
            if name not in arrow_names:
                raise _err(f"unknown morphism name in composition table: {name}")
        if h not in arrow_names and not h.startswith("id_"):
            raise _err(f"unknown morphism name in composition table: {h}")

    try:
        category = make_category(objects, arrows, composition)
    except ValueError as exc:
        raise _err(str(exc)) from None
    report = validate_category(category)
    if not report:
        raise _err(f"{report.law} at {report.witness}: {report.detail}")

    known = set(category.morphisms)
    for edge in raw["edges"]:
        if len(edge) != 2:
            raise _err(f"edge must name two endpoints: {edge!r}")
        for name in edge:
            if name not in known:
                raise _err(f"unknown morphism name in edge: {name}")
    enriched = EnrichedCategory(category, tuple((a, b) for a, b in raw["edges"]))
    try:
        homotopy = homotopy_category(enriched)
    except ValueError as exc:
        raise _err(str(exc)) from None

    for x, families in raw["covers"].items():
        if x not in objects:
            raise _err(f"covers filed under unknown object: {x}")
        for family in families:
            for name in family:
                if name not in known:
                    raise _err(f"unknown morphism name in cover family: {name}")
                if category.cod[name] != x:
                    raise _err(f"topology generator {name} does not have codomain {x}")
    topology = saturate_topology(category, raw["covers"])
    report = validate_topology(topology)
    if not report:
        raise _err(f"saturation produced an invalid topology ({report.law}): {report.detail}")

    presheaves = {}
    for name, data in raw["presheaves"].items():
        for o in data["values"]:
            if o not in objects:
                raise _err(f"presheaf {name} assigns a value to unknown object {o}")
        for m in data["restrictions"]:
            if m not in known:
                raise _err(f"presheaf {name} restricts along unknown morphism {m}")
        pre = make_presheaf(category, data["values"], data["restrictions"])
        report = validate_presheaf(pre, category)
        if not report:
            raise _err(f"presheaf {name}: {report.law} at {report.witness}: {report.detail}")
        presheaves[name] = pre

    return SiteDocument(raw, site_digest(raw), category, enriched,
                        homotopy, topology, presheaves)


def parse_site(text: str) -> SiteDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _err(f"syntax error: {exc}") from None
    return load_site(doc)
