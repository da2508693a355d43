"""Shipped-config reports against golden reports frozen before the kernel-core refactor.

``tests/golden/<config>.<command>.jsonl`` holds the report of every command a
shipped config supports (every command that does not end in a config error),
written with default seeds.  A refactor must reproduce every record's status
exactly, every value within ``1e-9 * max(1, |golden|)`` and every bound
within ``1e-9 * |golden|``: bounds are tolerances times the scale of their
check, and many are far below the absolute floor of the value test.
"""

import json
from pathlib import Path

import pytest

from support import cli_outcome

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.jsonl"))
RTOL = 1e-9


def _close(new, old, floor: float = 1.0) -> bool:
    if old is None or new is None:
        return old is new
    return abs(new - old) <= RTOL * max(floor, abs(old))


def test_every_shipped_config_has_a_golden_report():
    configs = {p.stem for p in (ROOT / "configs").glob("*.yaml")}
    assert configs == {p.name.split(".")[0] for p in GOLDEN}


@pytest.mark.parametrize("golden", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_report_matches_golden(golden, tmp_path):
    config, command = golden.stem.split(".")
    run = cli_outcome(tmp_path, command, ROOT / "configs" / f"{config}.yaml")
    old = [json.loads(line) for line in golden.read_text().splitlines()]
    assert {k: run.meta.get(k) for k in old[0]["meta"]} == old[0]["meta"]
    assert [r["check"] for r in run.rows] == [r["check"] for r in old[1:]]
    for n, o in zip(run.rows, old[1:]):
        assert n["status"] == o["status"], n["check"]
        assert n["tag"] == o["tag"], n["check"]
        assert _close(n["value"], o["value"]), (n["check"], n["value"], o["value"])
        assert _close(n["bound"], o["bound"], floor=0.0), (n["check"], n["bound"], o["bound"])
    passed = all(r["status"] == "pass" for r in old[1:])
    assert run.code == (0 if passed else 1)
