"""Check reports: deterministic, replayable, machine- and human-readable."""
from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    verdict: str  # pass | fail | info
    detail: str = ""
    data: dict | None = None
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "verdict": self.verdict, "detail": self.detail}
        if self.data is not None:
            out["data"] = self.data
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class CheckReport:
    command: str
    digest: str
    seed: int
    flags: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    # wall time is shown in the human format only; the JSON form must be
    # byte-identical across replays of the same (site, verb, flags, seed)
    wall_ms: float | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "digest": self.digest,
            "seed": self.seed,
            "flags": self.flags,
            "checks": [c.to_dict() for c in self.checks],
        }

    def exit_code(self) -> int:
        return 2 if any(c.verdict == "fail" for c in self.checks) else 0


def replay_command(report: CheckReport) -> str:
    parts = ["hosite", report.command, "<site>", "--seed", str(report.seed)]
    for key, value in sorted(report.flags.items()):
        parts.extend([f"--{key}", str(value)])
    return " ".join(parts)


def emit_report(report: CheckReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    lines = [
        f"command: {report.command}",
        f"site:    {report.digest}",
        f"seed:    {report.seed}",
    ]
    for key, value in sorted(report.flags.items()):
        lines.append(f"{key}: {value}")
    for c in report.checks:
        lines.append(f"[{c.verdict.upper()}] {c.name}" + (f" — {c.detail}" if c.detail else ""))
        if c.data:
            lines.append("       " + json.dumps(c.data, sort_keys=True, ensure_ascii=True))
        if c.counterexample:
            blob = json.dumps(c.counterexample, sort_keys=True, indent=2, ensure_ascii=True)
            lines.extend("       " + ln for ln in blob.splitlines())
    if any(c.verdict == "fail" for c in report.checks):
        lines.append(f"replay:  {replay_command(report)}")
    if report.wall_ms is not None:
        lines.append(f"wall:    {report.wall_ms:.1f} ms")
    return "\n".join(lines) + "\n"
