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

__all__ = ["CheckRecord", "RunReport"]

_FIELDS = ("check", "tag", "status", "value", "bound", "runtime")


def _clean(x: float | None) -> float | None:
    if x is None:
        return None
    x = float(x)
    if not math.isfinite(x):
        return None
    return x


@dataclass(frozen=True)
class CheckRecord:
    """One executed check: its tag, outcome, measured value, and bound."""

    check: str
    tag: str
    status: str
    value: float | None
    bound: float | None
    runtime: float | None = None
    detail: dict | None = None

    def as_dict(self) -> dict:
        """The record's fields; ``detail`` only when the check has one, and never in the CSV."""
        out = {
            "check": self.check,
            "tag": self.tag,
            "status": self.status,
            "value": _clean(self.value),
            "bound": _clean(self.bound),
            "runtime": _clean(self.runtime),
        }
        if self.detail is not None:
            out["detail"] = {k: _clean(v) if isinstance(v, float) else v for k, v in self.detail.items()}
        return out


@dataclass
class RunReport:
    """Collected check records for one command invocation."""

    command: str
    seed: int
    samples: int
    tolerances: dict[str, float]
    records: list[CheckRecord] = field(default_factory=list)

    def add(
        self,
        check: str,
        tag: str,
        passed: bool,
        value: float | None = None,
        bound: float | None = None,
        runtime: float | None = None,
        detail: dict | None = None,
    ) -> CheckRecord:
        if any(r.check == check for r in self.records):
            raise ValueError(f"duplicate check record {check!r}")
        rec = CheckRecord(
            check=check,
            tag=tag,
            status="pass" if passed else "fail",
            value=value,
            bound=bound,
            runtime=runtime,
            detail=detail,
        )
        self.records.append(rec)
        return rec

    @property
    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def meta(self) -> dict:
        return {
            "meta": {
                "command": self.command,
                "seed": self.seed,
                "samples": self.samples,
                "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            }
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.meta(), sort_keys=True)]
        lines += [json.dumps(r.as_dict(), sort_keys=True) for r in self.records]
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

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
            parts = [r.status.upper(), r.check]
            if r.value is not None:
                parts.append(f"value={r.value:.6g}")
            if r.bound is not None:
                parts.append(f"bound={r.bound:.6g}")
            out.append("  ".join(parts))
        n_pass = sum(1 for r in self.records if r.status == "pass")
        out.append(f"{n_pass}/{len(self.records)} checks passed")
        return out
