"""hosite benchmark: one workload per run, checked outputs, one JSON result.

    python3 perfbench/run.py --workload population --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the benchmark imports ``hosite`` from ``src/`` next to
this directory and refuses to run without it. A run sets up its inputs
``setup_repeats`` times (the median is ``setup_s``), then makes one whole pass
over them and goes on, item by item and pass by pass, until ``--seconds``
have gone by. Every statistic is a median: an item's latency is the median
of its samples, and ``wall_s`` is the sum of those, the time of one pass at
each item's median. The machine is shared and its speed wanders by 10 %
and more within seconds; medians over many samples are steadier than
single passes or the best of a few. Every output is checked against the
program's own verdicts and against digests recorded at the seed commit
(``reference.json``).

With ``--trace 1`` the run makes one untraced and one traced pass and
reports per-layer metrics from the traced one (see ``tracer.py``); spans go
to ``.perfbench_out/`` at the checkout root.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TAIL_BEYOND = 10  # the tail percentile leaves at least this many items beyond it
DEFAULT_SEED = 0

sys.path.insert(0, str(BENCH_DIR))
from tracer import OVERHEAD_METRICS, Tracer, metric_unit  # noqa: E402
from workloads import WORKLOADS, Run, run_pass  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mib": "MiB"}


def import_hosite():
    """A fresh import of hosite (and hosite.cli) from this checkout's src/."""
    if not (SRC / "hosite" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no hosite package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hosite" or n.startswith("hosite.")]:
        del sys.modules[name]
    hs = importlib.import_module("hosite")
    importlib.import_module("hosite.cli")
    if not Path(hs.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"benchmark: imported hosite from {hs.__file__}, not from {SRC}")
    return hs


def tail_percentile(count: int) -> int:
    """The highest whole percentile of ``count`` items that leaves at least
    TAIL_BEYOND of them beyond it; 100 (the maximum) for fewer items."""
    return 100 if count <= TAIL_BEYOND else int(100 * (1 - TAIL_BEYOND / count))


def percentile(values: list[float], pct: int) -> float:
    if pct >= 100 or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, setups: list[float], run: Run) -> tuple[dict, list[str]]:
    latencies = [run.median_s(key) for key in run.latencies_s]
    samples = sum(len(v) for v in run.latencies_s.values())
    tail = tail_percentile(len(latencies))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * percentile(latencies, tail),
        "peak_rss_mib": peak_rss_mib(),
    }
    unit = workload.item_unit
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"one pass over {len(latencies)} {unit}, each at its median;"
                  f" {samples} samples in {run.passes} whole passes and a part",
        "latency_p50_ms": f"median over {len(latencies)} {unit} of each one's median",
        "latency_tail_ms": f"{'max' if tail >= 100 else f'p{tail}'} over {len(latencies)} {unit}"
                           f" of each one's median",
        "peak_rss_mib": "peak resident set of this process",
    }
    lines = [f"  {k:<16} {v:>14.4f} {E2E_UNITS[k]:<4} ({notes[k]})" for k, v in values.items()]
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, lines


def slowest_sites(run: Run, count: int = 5) -> list[str]:
    """The slowest sites by median latency, each split into its median
    generation and median suite time."""
    split: dict[str, tuple[list[float], list[float]]] = {}
    for label, gen, suite in run.splits:
        gens, suites = split.setdefault(label, ([], []))
        gens.append(gen)
        suites.append(suite)
    ranked = sorted(split, key=run.median_s, reverse=True)[:count]
    lines = []
    for label in ranked:
        gen, suite = (statistics.median(v) for v in split[label])
        lines.append(f"  {label:<12} {1000 * run.median_s(label):9.1f} ms = generation {1000 * gen:8.1f} ms"
                     f" + suite {1000 * suite:9.1f} ms (medians of {len(split[label][0])})")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    ref = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    import_hosite()  # untimed: fails early without src/, and fills the bytecode cache
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=_out_dir()))
    try:
        setups: list[float] = []
        for _ in range(workload.setup_repeats):
            t0 = time.perf_counter()
            hs = import_hosite()
            state = workload.setup(hs, seed, workdir / f"setup-{len(setups)}")
            setups.append(time.perf_counter() - t0)
        gc.collect()
        gc.freeze()  # the inputs and the program live for the whole run
        run = Run()
        lines = [f"workload {name}  seed {seed}  trace {int(trace)}"]
        if trace:
            untraced = run_pass(workload, hs, state, ref, seed, run)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(workload, hs, state, ref, seed, run)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.spans")
            metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in tracer.metrics().items()}
            for key, value in zip(OVERHEAD_METRICS, (untraced, traced, traced - untraced)):
                metrics[key] = {"value": value, "unit": "s"}
            lines += [f"  {k:<58} {m['value']:>14.6f} {m['unit']}" for k, m in metrics.items()]
            lines.append(f"  spans: {len(tracer.span_start)} in {OUT_DIR.name}/trace-{name}-seed{seed}.spans")
        else:
            deadline = time.perf_counter() + seconds
            while run_pass(workload, hs, state, ref, seed, run, deadline) is not None:
                pass
            metrics, e2e_lines = end_to_end(workload, setups, run)
            lines += e2e_lines
        lines.append(f"  failed_ratio     {run.failed}/{run.attempted}")
        if run.splits:
            lines.append("  slowest sites:")
            lines += slowest_sites(run)
        for problem in run.problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def _out_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
