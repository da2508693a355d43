"""Atom order: reversing the atoms of a shipped config changes no verdict.

Reversing the atoms reverses the weights, the rows and columns of
``kernel.matrix`` and of a dense ``chain.transitions``, and a list-form
``chain.kill``; sets name their atoms, so they stay as they are.  Every command
must keep its exit code and every record's ``(check, status)``.  Values are not
compared: the isometry, adjoint and Parseval draws follow probe order.
"""

import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from setkern.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))


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
    if isinstance(chain.get("kill"), list):
        chain["kill"] = chain["kill"][::-1]
    return cfg


def _outcome(tmp_path: Path, command: str, cfg: dict) -> tuple[int, list[tuple[str, str]]]:
    """Exit code and ``(check, status)`` of every record of ``command`` on ``cfg``."""
    path, out = tmp_path / "cfg.yaml", tmp_path / "report.jsonl"
    path.write_text(yaml.safe_dump(cfg))
    out.unlink(missing_ok=True)
    result = CliRunner().invoke(main, [command, "--config", str(path), "--out", str(out)],
                                env={"SETKERN_OUT": str(tmp_path)})
    if result.exit_code == 2:
        return 2, []
    return result.exit_code, [(r["check"], r["status"]) for r in map(json.loads, out.read_text().splitlines()[1:])]


@pytest.mark.parametrize("command", [name for name, *_ in COMMANDS])
@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_reversing_the_atoms_keeps_every_verdict(tmp_path, config, command):
    cfg = yaml.safe_load(config.read_text())
    moved = _reversed(cfg)
    assert moved["space"]["atoms"] != cfg["space"]["atoms"]
    assert _outcome(tmp_path, command, moved) == _outcome(tmp_path, command, cfg)
