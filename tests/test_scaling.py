"""Scale covariance: a kernel written in another unit of the measure is judged alike.

Multiplying the weights (or the atom Gram) by ``c = 2**k`` is exact in floating
point, and an even ``k`` keeps square roots exact, so every error and every
scale a check compares moves by an exact power of ``c``.  Each check passes
when its error is at most ``tol * scale``, so no verdict may depend on ``k``.
Absolute bounds rejected valid kernels at large ``c`` and passed wrong roots at
small ``c``; the cases below are those measurements.
"""

import json
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from setkern import (
    Factorization,
    MeasureSpace,
    NotPositiveError,
    SetKernel,
    SetKernError,
    build_T,
    check_absolute_continuity,
    operator_kernel,
    realize,
    reverse_direction,
)
from setkern.cli import main
from setkern.config import load_config
from support import near_recurrent_path, random_nu_psd_matrix, random_operator_kernel, random_space

ROOT = Path(__file__).resolve().parent.parent
EVEN = range(-40, 41, 2)
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.jsonl"))


def _scaled(cfg: dict, c: float) -> dict:
    """``cfg`` with every weight, conductance and killing mass multiplied by ``c``."""
    cfg = json.loads(json.dumps(cfg))
    space, chain = cfg["space"], cfg.get("chain", {})
    if "weights" in space:
        space["weights"] = [c * w for w in space["weights"]]
    if "edges" in chain:
        chain["edges"] = [[x, y, c * w] for x, y, w in chain["edges"]]
    if "kill" in chain:
        chain["kill"] = {a: c * m for a, m in chain["kill"].items()}
    return cfg


def _write(tmp_path: Path, cfg: dict, name: str = "cfg.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def _load(tmp_path: Path, cfg: dict):
    return load_config(_write(tmp_path, cfg, "loaded.yaml"))


def _run(tmp_path: Path, command: str, cfg: dict, *args: str) -> tuple[int, dict]:
    """Exit code and records by check name of ``command`` on ``cfg``."""
    out = tmp_path / "report.jsonl"
    result = CliRunner().invoke(
        main, [command, "--config", str(_write(tmp_path, cfg)), "--out", str(out), *args],
        env={"SETKERN_OUT": str(tmp_path)},
    )
    if result.exit_code == 2:
        return 2, {}
    return result.exit_code, {r["check"]: r for r in map(json.loads, out.read_text().splitlines()[1:])}


@lru_cache(maxsize=None)
def _kernel_40() -> SetKernel:
    rng = np.random.default_rng(3)
    return random_operator_kernel(rng, random_space(rng, 40))


def _kernel_40_times(c: float) -> SetKernel:
    kernel = _kernel_40()
    return SetKernel(kernel.space, c * kernel.Q)


def _operator_12() -> dict:
    """A well-conditioned 12-atom operator kernel config."""
    rng = np.random.default_rng(5)
    space = random_space(rng, 12)
    M = random_nu_psd_matrix(rng, space, well_conditioned=True)
    return {"space": {"atoms": list(space.atoms), "weights": list(space.weights)},
            "kernel": {"type": "operator", "matrix": M.tolist()}}


def _path() -> dict:
    """The near-recurrent 10-atom path with its Green kernel, as a dense-chain config."""
    chain = near_recurrent_path()
    return {"space": {"atoms": list(chain.space.atoms), "weights": list(chain.space.weights)},
            "chain": {"transitions": chain.transitions.tolist()},
            "kernel": {"type": "green"},
            "family": [["p0", "p1"], ["p5", "p9"]]}


def _config(name: str) -> dict:
    return yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text())


# ---------------------------------------------------------------------------
# false rejections and a wrong root, at every scale


def test_realize_and_reverse_direction_accept_the_40_atom_kernel_at_every_scale():
    # absolutely, reverse_direction raised at 1e5 (2.15e-9 > 1e-9) and realize at 1e8 (8.3e-7 > 1e-8)
    for k in EVEN:
        assert reverse_direction(realize(_kernel_40_times(2.0**k))).passed, k


def test_a_wrong_root_fails_reverse_direction_at_every_scale():
    # absolutely, the root 1 + 1e-6 times too long passed at k <= -20 (residuals 8.6e-12 down to 8.2e-18)
    for k in EVEN:
        kernel = _kernel_40_times(2.0**k)
        fact = realize(kernel)
        verdict = reverse_direction(Factorization(kernel, (1 + 1e-6) * fact.S, fact.residual))
        assert not verdict.passed and verdict.value > verdict.bound, k


@pytest.mark.parametrize("config, command, check", [
    ("operator-12", "factorize", "symmetry"),  # 1.9e-10 > 1e-12 at 2**20
    ("wiener", "factorize", "parseval"),  # 2.33e-9 > 1e-9 at 2**20
    ("path", "markov-green", "green-factor"),  # 1.20e-7 > 1e-8 at unit scale
])
def test_valid_kernels_pass_at_every_scale(tmp_path, config, command, check):
    cfg = {"operator-12": _operator_12, "path": _path}.get(config, lambda: _config(config))()
    for k in EVEN:
        code, records = _run(tmp_path, command, _scaled(cfg, 2.0**k))
        assert (code, records[check]["status"]) == (0, "pass"), (k, records[check])


# ---------------------------------------------------------------------------
# every shipped report at 2**-40 ... 2**40


def _same_up_to_a_power(new: float, old: float, c: float) -> bool:
    return any(abs(new - old * c**p) <= 1e-12 * abs(old * c**p) for p in range(-2, 3))


@pytest.mark.parametrize("golden", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_every_report_is_scale_covariant(tmp_path, golden):
    config, command = golden.stem.split(".")
    code, unit = _run(tmp_path, command, _config(config))
    for k in (-40, -20, 20, 40):
        c = 2.0**k
        scaled_code, scaled = _run(tmp_path, command, _scaled(_config(config), c))
        assert scaled_code == code, k
        assert list(scaled) == list(unit), k
        for name, old in unit.items():
            new = scaled[name]
            assert new["status"] == old["status"], (k, name)
            if old["value"] is None or new["value"] is None:
                assert (new["value"], new["bound"]) == (old["value"], old["bound"]), (k, name)
            elif old["bound"] is None:
                assert new["bound"] is None and _same_up_to_a_power(new["value"], old["value"], c), (k, name)
            elif old["bound"] == 0.0:
                assert (new["value"], new["bound"]) == (old["value"], 0.0), (k, name)
            else:
                ratio = old["value"] / old["bound"]
                assert abs(new["value"] / new["bound"] - ratio) <= 1e-12 * abs(ratio), (k, name, new, old)


# ---------------------------------------------------------------------------
# a report row and the library decide alike


def _raises(call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except SetKernError:
        return True
    return False


def _decides_alike(tmp_path, cfg, command, row, tolerance, ratio, rejects):
    """At ``tol`` just below and just above ``ratio``, the row fails exactly when ``rejects(tol)``."""
    assert ratio > 0
    for tol in (ratio * (1 - 1e-3), ratio * (1 + 1e-3)):
        _, records = _run(tmp_path, command, cfg, "--tol", f"{tolerance}={float(tol)!r}")
        assert rejects(tol) == (tol < ratio), tol
        assert records[row]["status"] == ("fail" if tol < ratio else "pass"), (tol, records[row])


def test_realize_and_the_realization_row_decide_alike(tmp_path):
    cfg = _operator_12()
    kernel = _load(tmp_path, cfg).kernel
    _decides_alike(tmp_path, cfg, "factorize", "realization", "realization", realize(kernel).residual / kernel.scale,
                   lambda tol: _raises(realize, kernel, tol=tol))


def test_reverse_direction_and_the_density_row_decide_alike(tmp_path):
    cfg = _operator_12()
    fact = realize(_load(tmp_path, cfg).kernel)
    unit = reverse_direction(fact, tol=1.0)
    _decides_alike(tmp_path, cfg, "factorize", "density-consistency", "density", unit.value / unit.bound,
                   lambda tol: not reverse_direction(fact, tol=tol).passed)


def test_check_absolute_continuity_and_its_row_decide_alike(tmp_path):
    cfg = _config("counting-null-atom")
    loaded = _load(tmp_path, cfg)
    kernel = loaded.kernel
    charge = check_absolute_continuity(kernel, loaded.family).value
    _decides_alike(tmp_path, cfg, "validate", "absolute-continuity", "absolute-continuity", charge / kernel.scale,
                   lambda tol: not check_absolute_continuity(kernel, loaded.family, tol=tol).passed)


def test_spectrum_certify_and_the_gram_psd_row_decide_alike(tmp_path):
    # unit weights and no family: the row's Gram is the kernel's T, eigenvalues 2, 1 and -1e-11
    U, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))
    M = U @ np.diag([2.0, 1.0, -1e-11]) @ U.T
    cfg = {"space": {"atoms": ["a", "b", "c"], "weights": [1.0, 1.0, 1.0]},
           "kernel": {"type": "operator", "matrix": (0.5 * (M + M.T)).tolist()}}
    kernel = _load(tmp_path, cfg).kernel
    values = np.linalg.eigvalsh(kernel.Q)
    _decides_alike(tmp_path, cfg, "validate", "gram-psd", "gram-psd", -values.min() / values.max(),
                   lambda tol: _raises(kernel.spectrum.certify, tol, NotPositiveError, "kernel"))


def test_errors_name_the_value_the_tolerance_and_the_scale():
    kernel = _kernel_40_times(4.0)
    indefinite = SetKernel(MeasureSpace(("a", "b"), (1.0, 1.0)), np.diag([2.0, -1.0]))
    number = r"\d\.\d{3}e[-+]\d+"
    cases = [
        (lambda: realize(kernel, tol=1e-20),
         rf"singleton residual {number} > 1e-20 × max\|Q\| = {re.escape(f'{kernel.scale:.3e}')}$"),
        (lambda: build_T(indefinite), rf"is indefinite: -lambda_min 1\.000e\+00 > 1e-08 × lambda_max = 2\.000e\+00$"),
        (lambda: operator_kernel(MeasureSpace(("a", "b"), (1.0, 4.0)), np.eye(2) + np.triu(np.ones((2, 2)), 1)),
         rf"defect 1\.000e\+00 > 1e-10 × max\|wM\| = 4\.000e\+00$"),
    ]
    for call, message in cases:
        with pytest.raises(SetKernError, match=message):
            call()


# ---------------------------------------------------------------------------
# the weights a conductance config states


DECIMAL = {"space": {"atoms": ["a", "b", "c"], "weights": [787397.2, 1116959.3, 329562.1]},
           "chain": {"edges": [["a", "b", 787397.2], ["b", "c", 329562.1]]},
           "checks": ["detailed-balance", "contractivity"]}  # no killing: the chain is recurrent


def test_weights_written_as_decimals_agree_with_their_conductances(tmp_path):
    # the float sum for b is 2.3e-10 off the written weight: an absolute 1e-12 made it a config error
    assert _run(tmp_path, "validate", DECIMAL)[0] == 0
    assert _run(tmp_path, "validate", _scaled(DECIMAL, 1e-6))[0] == 0


def test_weights_off_by_one_part_in_a_million_are_a_config_error(tmp_path):
    cfg = json.loads(json.dumps(DECIMAL))
    cfg["space"]["weights"][1] *= 1 + 1e-6
    result = CliRunner().invoke(main, ["validate", "--config", str(_write(tmp_path, cfg))])
    assert result.exit_code == 2
    assert "space.weights disagree" in result.output
    assert "× max w = 1.117e+06" in result.output
