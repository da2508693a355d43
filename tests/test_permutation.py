"""Atom order: reversing the atoms of a shipped config changes no verdict.

Reversing the atoms reverses the weights, the rows and columns of
``kernel.matrix`` and of a dense ``chain.transitions``; sets and the keys of
``chain.kill`` name their atoms, so they stay as they are.  Every command
must keep its exit code and every record's ``(check, status)``.  Every record
but the Monte Carlo ones must also keep its value and bound, by the golden
rule: within ``1e-9 * max(1, |v|)``, and a null only where there was a null.
The Monte Carlo rows keep only their status: their noise passes through the
sampler's factor, which the reversed kernel need not reproduce.
"""

import json
from pathlib import Path

import pytest
import yaml

from setkern.cli import COMMANDS
from support import cli_outcome

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))
DRAWN = {"ito-isometry", "cross-moment"}
RTOL = 1e-9


def _reversed(cfg: dict) -> dict:
    """``cfg`` with its atoms in reverse order."""
    cfg = json.loads(json.dumps(cfg))
    space, kernel, chain = cfg["space"], cfg.get("kernel", {}), cfg.get("chain", {})
    for key in ("atoms", "weights"):
        if key in space:
            space[key] = space[key][::-1]
    for node, key in ((kernel, "matrix"), (chain, "transitions")):
        if key in node:
            node[key] = [row[::-1] for row in node[key][::-1]]
    return cfg


def _close(new, old) -> bool:
    if old is None or new is None:
        return old is new
    return abs(new - old) <= RTOL * max(1.0, abs(old))


@pytest.mark.parametrize("command", [name for name, *_ in COMMANDS])
@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_reversing_the_atoms_keeps_every_verdict(tmp_path, config, command):
    cfg = yaml.safe_load(config.read_text())
    moved = _reversed(cfg)
    assert moved["space"]["atoms"] != cfg["space"]["atoms"]
    run, moved_run = cli_outcome(tmp_path, command, cfg), cli_outcome(tmp_path, command, moved)
    assert moved_run.code == run.code
    assert moved_run.statuses == run.statuses
    for new, old in zip(moved_run.rows, run.rows):
        if old["check"] not in DRAWN:
            assert _close(new["value"], old["value"]), (old["check"], new["value"], old["value"])
            assert _close(new["bound"], old["bound"]), (old["check"], new["bound"], old["bound"])
