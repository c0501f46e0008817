"""Outside-in span tracer for the public functions of ``hosite``.

The tracer replaces each listed function on every binding that holds it in a
``hosite.*`` namespace (modules import one another by name, e.g.
``hosite.induced.is_tau_iso``), so no edit under ``src/`` is needed. Each
call records a span: name, start, end and the span that was open when it
began. Spans live in flat arrays in memory and are written out at the end.

Private helpers (``_plus``, ``_family_dicts``, ...) are not wrapped; their
time stays in the self time of the public function that called them.
Generators are timed per ``next()``, so consumer work between items is not
charged to them. Spans recorded in worker processes are not collected.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, function, quantities). Quantities: calls and items are exact
# counts; self_s is span time minus child spans; total_s is inclusive span
# time (none of these functions recurse); *_ratio is useful outcomes over
# attempts.
LAYERS = (
    ("randomsites", "random_site", ("calls", "self_s")),
    ("siteio", "parse_site", ("calls", "self_s")),
    ("siteio", "load_site", ("self_s",)),
    ("core", "validate_category", ("self_s",)),
    ("core", "hom_presheaves", ("calls", "items", "self_s")),
    ("homotopy", "validate_enrichment", ("self_s",)),
    ("homotopy", "homotopy_category", ("self_s",)),
    ("homotopy", "gamma_lower_star", ("calls", "self_s", "total_s")),
    ("homotopy", "gamma_star", ("calls", "self_s")),
    ("sieves", "saturate_topology", ("self_s",)),
    ("sieves", "validate_topology", ("self_s",)),
    ("sieves", "all_sieves", ("calls", "items", "self_s")),
    ("sieves", "minimal_cover", ("calls", "self_s")),
    ("enumeration", "enumerate_presheaves", ("items", "self_s")),
    ("sheafify", "classify_presheaf", ("calls", "self_s", "sheaf_ratio")),
    ("sheafify", "is_sheaf", ("calls", "self_s", "true_ratio")),
    ("sheafify", "sheafify_morphism", ("calls", "self_s")),
    ("sheafify", "is_tau_iso", ("calls", "true_ratio")),
    ("sheafify", "sheafify", ("calls", "self_s")),
    ("sheafify", "plus_construction_via_colimit", ("self_s",)),
    ("induced", "induced_topology", ("total_s",)),
    ("induced", "is_bracket_cover", ("calls", "true_ratio")),
    ("induced", "check_cover_reflecting", ("total_s",)),
    ("induced", "check_comparison_lemmas", ("total_s",)),
    ("induced", "check_sheaf_transfer", ("total_s",)),
    ("suite", "engine_checks", ("total_s",)),
    ("suite", "run_site_suite", ("total_s",)),
    ("cli", "main", ("self_s",)),
    ("cli", "build_parser", ("calls", "self_s")),
    ("report", "emit_report", ("self_s",)),
)

GENERATORS = {"enumeration.enumerate_presheaves"}
# how a call's result counts as work items, or as a useful outcome
ITEMS = {"core.hom_presheaves": len, "sieves.all_sieves": len}
OUTCOMES = {
    "sheafify.classify_presheaf": lambda cls: cls.is_sheaf,
    "sheafify.is_sheaf": bool,
    "sheafify.is_tau_iso": bool,
    "induced.is_bracket_cover": bool,
}

UNITS = {"calls": "count", "items": "count", "self_s": "s", "total_s": "s",
         "sheaf_ratio": "ratio", "true_ratio": "ratio"}
# tracing cost, from an untraced and a traced pass over the same inputs
OVERHEAD_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")


def layer_metric_names() -> list[str]:
    names = [f"{mod}.{fn}.{q}" for mod, fn, qs in LAYERS for q in qs]
    return names + list(OVERHEAD_METRICS)


def metric_unit(name: str) -> str:
    return "s" if name.startswith("trace.") else UNITS[name.rsplit(".", 1)[1]]


class Tracer:
    """Records spans for the functions in LAYERS while installed."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in LAYERS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.items = [0] * len(self.names)
        self.outcomes = [0] * len(self.names)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding of each listed function in loaded hosite modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hosite" or n.startswith("hosite."))]
        for nid, name in enumerate(self.names):
            mod, fn = name.split(".")
            original = getattr(sys.modules[f"hosite.{mod}"], fn)
            wrapper = self._wrap(nid, name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, nid: int, name: str, fn):
        tracer = self
        if name in GENERATORS:
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.items[nid] += 1
                    yield item
            return generator_wrapper

        count_items = ITEMS.get(name)
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count_items is not None:
                tracer.items[nid] += count_items(result)
            if outcome is not None and outcome(result):
                tracer.outcomes[nid] += 1
            return result
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        self_time = [0.0] * n
        child = [0.0] * len(self.span_start)
        # children end before their parent, so a reverse scan sees each span's
        # full child time before the span itself is charged
        for idx in range(len(self.span_start) - 1, -1, -1):
            dur = self.span_end[idx] - self.span_start[idx]
            nid = self.span_name[idx]
            calls[nid] += 1
            total[nid] += dur
            self_time[nid] += dur - child[idx]
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += dur
        out: dict[str, float] = {}
        for nid, (mod, fn, quantities) in enumerate(LAYERS):
            for q in quantities:
                if q == "calls":
                    value = calls[nid]
                elif q == "items":
                    value = self.items[nid]
                elif q == "self_s":
                    value = self_time[nid]
                elif q == "total_s":
                    value = total[nid]
                else:
                    value = self.outcomes[nid] / calls[nid] if calls[nid] else 0.0
                out[f"{mod}.{fn}.{q}"] = value
        return out

    def write(self, path: Path) -> None:
        """Spans as four columns in native byte order in ``path`` (name id
        int32, parent span int32, start and end float64 seconds), described
        by ``path`` + ``.json``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        meta = {"spans": len(self.span_start), "names": self.names,
                "columns": [["name", "int32"], ["parent", "int32"],
                            ["start_s", "float64"], ["end_s", "float64"]],
                "byteorder": sys.byteorder}
        Path(f"{path}.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
