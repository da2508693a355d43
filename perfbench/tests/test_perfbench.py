"""Tests of the benchmark itself: checkers, generators, reference, tracer.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import refclock
from tracing import ROUND_SPAN, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def weighted_sqrt(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    d = np.sqrt(w)
    lam, U = np.linalg.eigh((d[:, None] * M) / d[None, :])
    return ((U * np.sqrt(np.clip(lam, 0, None))) @ U.T / d[:, None]) * d[None, :]


def good_factorize_output(cfg):
    n = len(cfg.weights)
    names = inputs.atom_names(n)
    S = weighted_sqrt(cfg.M, cfg.weights)
    sets = [[i] for i in range(n)] + cfg.family
    export = {
        "atoms": names,
        "weights": cfg.weights.tolist(),
        "T": cfg.M.tolist(),
        "k": [{"set": [names[i] for i in s], "vector": (S @ checks.indicator_matrix([s], n)[0]).tolist()}
              for s in sets],
    }
    records = [
        {"check": "gram-psd", "status": "pass", "value": 0.0},
        {"check": "range-rank", "status": "pass", "value": float(n)},
    ]
    return records, export


@pytest.fixture(scope="module")
def operator_cfg():
    return inputs.operator_config(seed=7, index=0)


def test_factorize_checker_accepts_correct_output(operator_cfg):
    records, export = good_factorize_output(operator_cfg)
    assert checks.check_factorize(0, records, export, operator_cfg) == []


@pytest.mark.parametrize(
    "perturb",
    [
        "T off by 1e-6",
        "k vector off by 1e-6",
        "exit code 1",
        "failing record",
        "range-rank short by one",
        "missing export",
    ],
)
def test_factorize_checker_rejects_perturbed_output(operator_cfg, perturb):
    records, export = good_factorize_output(operator_cfg)
    code = 0
    if perturb == "T off by 1e-6":
        export["T"][3][5] += 1e-6
    elif perturb == "k vector off by 1e-6":
        export["k"][-1]["vector"][0] += 1e-6
    elif perturb == "exit code 1":
        code = 1
    elif perturb == "failing record":
        records[0]["status"] = "fail"
    elif perturb == "range-rank short by one":
        records[1]["value"] -= 1
    elif perturb == "missing export":
        export = None
    assert checks.check_factorize(code, records, export, operator_cfg)


@pytest.mark.parametrize("kind", ["wiener", "rank_one", "green"])
def test_exact_checker_rejects_scaled_exact(kind):
    spaces = inputs.mc_spaces(3)
    chain = inputs.ChainInput("g", inputs.atom_names(inputs.MC_ATOMS, "s"), spaces.edges, spaces.kill, [])
    P, w_chain = checks.transition_matrix(chain)
    G = checks.atom_gram(kind, w_chain if kind == "green" else spaces.weights, P)
    phi, psi, _ = inputs.mc_round(3, 0, 1)[0]
    exact = float(phi.values(6) @ G @ psi.values(6))
    assert checks.check_exact(exact, phi, psi, G) == []
    assert checks.check_exact(exact * (1 + 1e-6), phi, psi, G)


def green_outputs(c):
    P, w = checks.transition_matrix(c)
    n = P.shape[0]
    G = np.linalg.inv(np.eye(n) - P)
    d = np.sqrt(w)
    lam, U = np.linalg.eigh((d[:, None] * P) / d[None, :])
    root = ((U / np.sqrt(1 - lam)) @ U.T / d[:, None]) * d[None, :]
    C = checks.indicator_matrix(c.probes, n)
    kvecs = C @ root.T
    kernel_values = C @ (w[:, None] * G) @ C.T
    return P, w, G, kvecs, kernel_values


def test_green_checker_accepts_and_rejects():
    c = inputs.green_round(5, 0)[0]
    P, w, G, kvecs, K = green_outputs(c)
    assert checks.check_green(P, w, G, kvecs, K, c.probes) == []
    moved = G.copy()
    moved[2, 7] += 1e-6 * np.abs(G).max()
    assert checks.check_green(P, w, moved, kvecs, K, c.probes)
    bent = kvecs.copy()
    bent[0, 0] *= 1 + 1e-6
    assert checks.check_green(P, w, G, bent, K, c.probes)
    off = K.copy()
    off[1, 2] *= 1 + 1e-6
    assert checks.check_green(P, w, G, kvecs, off, c.probes)


def test_within_share_counts_five_sigma():
    assert checks.within_share([0.1, 4.9, 5.0, 7.0]) == 0.75


def test_generators_are_deterministic_in_the_seed():
    a, b, c = (inputs.operator_config(s, 1) for s in (11, 11, 12))
    assert np.array_equal(a.M, b.M) and np.array_equal(a.weights, b.weights) and a.family == b.family
    assert not np.array_equal(a.M, c.M)
    assert inputs.mc_round(11, 4, 3) == inputs.mc_round(11, 4, 3)
    assert inputs.mc_round(11, 4, 3) != inputs.mc_round(11, 5, 3)
    assert inputs.green_round(11, 2) == inputs.green_round(11, 2)
    assert inputs.green_round(11, 2) != inputs.green_round(12, 2)
    s1, s2 = inputs.mc_spaces(11), inputs.mc_spaces(11)
    assert np.array_equal(s1.weights, s2.weights) and s1.edges == s2.edges


def test_generated_inputs_have_the_stated_shape():
    cfg = inputs.operator_config(2, 0)
    assert cfg.M.shape == (48, 48) and len(cfg.family) == 16
    assert cfg.weights.min() >= 0.1 and cfg.weights.max() <= 3.0
    DM = cfg.weights[:, None] * cfg.M
    assert np.abs(DM - DM.T).max() < 1e-12
    d = np.sqrt(cfg.weights)
    lam = np.linalg.eigvalsh((d[:, None] * cfg.M) / d[None, :])
    assert lam.min() > 0.49 and lam.max() < 2.01
    sizes = [len(c.atoms) for c in inputs.green_round(2, 0)]
    assert sizes == [32, 96, 192, 10]


def test_reference_imports_nothing_from_setkern():
    tree = ast.parse((BENCH / "refclock.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "time", "numpy", "concurrent.futures"}
    code = (
        "import sys; import refclock; refclock.ReferenceClock().measure(); "
        "print([m for m in sys.modules if m.split('.')[0] == 'setkern'])"
    )
    env = {"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("threads", sorted(refclock.NOMINAL_S))
def test_reference_correction_scales_to_nominal(threads):
    with refclock.ReferenceClock(threads) as clock:
        assert clock.measure() > 0
        nominal = refclock.NOMINAL_S[threads]
        assert clock.corrected(2.0, nominal) == 2.0
        assert clock.corrected(2.0, 2 * nominal) == 1.0


def test_tracer_self_times_add_up_and_uninstall_restores():
    import setkern

    original = setkern.green
    c = inputs.green_round(1, 0)[0]
    tracer = Tracer()
    tracer.install()
    try:
        assert setkern.green is not original
        t0 = time.perf_counter()
        with tracer.span(ROUND_SPAN):
            chain = setkern.MarkovChain.from_conductances(c.atoms, c.edges, c.kill)
            setkern.green_kernel(chain)
            setkern.green_root(chain)
        wall = time.perf_counter() - t0
        calls, self_s, counts = tracer.take()
    finally:
        tracer.uninstall()
    assert setkern.green is original
    assert tracer.spans[-1][2] == ROUND_SPAN
    assert 0 <= wall - sum(self_s.values()) < 1e-3
    assert all(v >= 0 for v in self_s.values())
    assert calls["markov.green"] >= 1 and calls["markov.from_conductances"] == 1
    assert counts["lapack.solve.calls"] >= 1 and counts["lapack.eigh.calls"] >= 1
    ids = [s[0] for s in tracer.spans]
    assert len(ids) == len(set(ids))
    assert tracer.absent == []


def test_missing_entry_point_reads_as_absent(monkeypatch):
    import tracing

    targets = tracing.TARGETS + (("linalg.gone", "setkern.linalg", "no_such_function"),
                                 ("gone.module", "setkern.no_such_module", "f"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["linalg.gone", "gone.module"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "green-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / "perfbench" / "out").exists() or not any(
        p.name.startswith("result-") for p in (tmp_path / "perfbench" / "out").iterdir()
    )


def test_green_round_fails_only_the_near_recurrent_chain(tmp_path):
    import rounds

    wl = rounds.GreenChain(3, tmp_path)
    wl.setup()
    prepared = wl.prepare(0)
    verdict = wl.verify(prepared, wl.execute(prepared))
    assert verdict.attempted == 4
    assert all(p.startswith("near-recurrent-10") for p in verdict.problems)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_the_contract_keys(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "green-chain", "--seed", "4",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench[section]}
    units = {m["name"]: m["unit"] for m in bench[section]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert result["correct"] and result["attempted"] % 4 == 0
