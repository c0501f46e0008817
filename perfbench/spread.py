"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload queries --seeds 1-10 [--out FILE]

For every end-to-end metric in BENCHMARK.json this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound. Runs are sequential, each
in its own process, with the benchmark's own ``run_seconds``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result["metrics"]


def summarize(bench: dict, runs: list[dict]) -> dict:
    out = {}
    for metric in bench["end_to_end"]:
        values = [r[metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(values),
                               "bound": metric["bound"], "unit": metric["unit"], "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workload:
        runs = [run_once(bench, workload, seed) for seed in seed_list(args.seeds)]
        summary = summarize(bench, runs)
        report["workloads"][workload] = summary
        print(f"{workload} ({len(runs)} runs)")
        for name, s in summary.items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else ("WIDE" if s["spread"] <= s["bound"] else "OVER")
            print(f"  {name:<16} median {s['median']:12.4f} {s['unit']:<4} q1 {s['q1']:12.4f}"
                  f" q3 {s['q3']:12.4f} spread {s['spread']:.4f} bound {s['bound']} {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
