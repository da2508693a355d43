"""Machine-readable run reports: JSON-lines records plus an optional CSV table.

Reports are byte-deterministic for a fixed (config, seed): keys are sorted,
floats use shortest round-trip formatting, and per-check runtimes are only
recorded when explicitly requested (timings are the one nondeterministic
field).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .linalg import Verdict

__all__ = ["CheckRecord", "RunReport"]

_FIELDS = ("check", "tag", "status", "value", "bound", "runtime")


def _clean(x: float | None) -> float | None:
    """``x`` as a float, or ``None`` for a value not computed or not finite."""
    return None if x is None or not math.isfinite(x) else float(x)


@dataclass(frozen=True)
class CheckRecord:
    """One executed check: its name, tag, verdict and, when timed, runtime."""

    check: str
    tag: str
    verdict: Verdict
    runtime: float | None = None

    def as_dict(self) -> dict:
        """The record's fields; ``detail`` only when the verdict has one, and never in the CSV."""
        value, bound, passed, detail = self.verdict
        out = {
            "check": self.check,
            "tag": self.tag,
            "status": "pass" if passed else "fail",
            "value": _clean(value),
            "bound": _clean(bound),
            "runtime": _clean(self.runtime),
        }
        if detail is not None:
            out["detail"] = {k: _clean(v) if isinstance(v, float) else v for k, v in detail.items()}
        return out


@dataclass
class RunReport:
    """Collected check records for one command invocation."""

    command: str
    seed: int
    samples: int
    tolerances: dict[str, float]
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        if any(r.check == record.check for r in self.records):
            raise ValueError(f"duplicate check record {record.check!r}")
        self.records.append(record)

    @property
    def all_passed(self) -> bool:
        return all(r.verdict.passed for r in self.records)

    def meta(self) -> dict:
        return {
            "meta": {
                "command": self.command,
                "seed": self.seed,
                "samples": self.samples,
                "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            }
        }

    def write_jsonl(self, path: str | Path) -> None:
        lines = [json.dumps(self.meta(), sort_keys=True)]
        lines += [json.dumps(r.as_dict(), sort_keys=True) for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_FIELDS)
            for r in self.records:
                d = r.as_dict()
                writer.writerow(["" if d[k] is None else d[k] for k in _FIELDS])

    def summary_lines(self) -> list[str]:
        out = []
        for r in self.records:
            value, bound, passed, _ = r.verdict
            parts = ["PASS" if passed else "FAIL", r.check]
            if value is not None:
                parts.append(f"value={value:.6g}")
            if bound is not None:
                parts.append(f"bound={bound:.6g}")
            out.append("  ".join(parts))
        out.append(f"{sum(r.verdict.passed for r in self.records)}/{len(self.records)} checks passed")
        return out
