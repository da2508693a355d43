"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from setkern import (
    AbsoluteContinuityError,
    MeasurableSet,
    MeasureSpace,
    b_range_dimension,
    counting_kernel,
    cross_moment_check,
    gram,
    green,
    green_kernel,
    green_root,
    isometry_b,
    ito_isometry_check,
    onb_factorization,
    rank_one_kernel,
    realize,
    refinement_sweep,
    reverse_direction,
    wiener_kernel,
)
from setkern.cli import main
from support import (
    random_conductance_chain,
    random_operator_kernel,
    random_refinement_chain,
    random_simple_function,
    random_space,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def indicator_stack(space) -> np.ndarray:
    n = space.size
    return np.array(
        [[(mask >> i) & 1 for i in range(n)] for mask in range(2**n)], dtype=float
    )


def realized_kernels(n_kernels: int, size: int, seed: int):
    """The random operator-induced kernels shared by criteria 1 and 2."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_kernels):
        space = random_space(rng, size)
        out.append(random_operator_kernel(rng, space))
    return out


def test_criterion_1_forward_realization():
    # 100 random PSD operator kernels on six atoms: realize and compare the
    # factor inner products with the kernel over every pair of subsets.
    t0 = time.perf_counter()
    worst = 0.0
    for kernel in realized_kernels(100, 6, seed=101):
        space = kernel.space
        fact = realize(kernel)
        C = indicator_stack(space)
        kvecs = C @ fact.S.T
        inner = kvecs @ (space.weight_array[:, None] * kvecs.T)
        target = C @ kernel.Q @ C.T  # Q = diag(w) M, with M the operator that induced the kernel
        worst = max(worst, float(np.abs(inner - target).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 60.0
    report("criterion 1 (forward realization)", ok, f"max residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2_reverse_and_failure_direction():
    worst = 0.0
    for kernel in realized_kernels(100, 6, seed=101):
        fact = realize(kernel)
        verdict = reverse_direction(fact)
        assert verdict.passed
        worst = max(worst, verdict.value)
    rejected = False
    null_space = MeasureSpace(("a", "b", "c"), (1.0, 1.0, 0.0))
    try:
        realize(counting_kernel(null_space))
    except AbsoluteContinuityError:
        rejected = True
    ok = worst <= 1e-9 and rejected
    report(
        "criterion 2 (reverse direction + rejection)",
        ok,
        f"max density residual {worst:.2e}, counting kernel rejected={rejected}",
    )
    assert worst <= 1e-9
    assert rejected


def test_criterion_3_isometry_calculus():
    rng = np.random.default_rng(202)
    space = random_space(rng, 6)
    kernel = random_operator_kernel(rng, space)
    fact = realize(kernel)
    pool = list(space.singletons()) + [
        MeasurableSet(frozenset(np.flatnonzero(rng.random(6) < 0.5).tolist()) | {0})
        for _ in range(6)
    ]

    def element() -> np.ndarray:
        """The coefficient row over ``pool`` of a random element ``sum_i alpha_i K(., A_i)`` of one to four terms."""
        k = int(rng.integers(1, 5))
        idx = rng.integers(0, len(pool), size=k)
        coefs = rng.uniform(-2.0, 2.0, size=k)
        row = np.zeros(len(pool))
        np.add.at(row, idx, coefs)
        return row

    w = space.weight_array
    alpha = np.array([element() for _ in range(1000)])
    norm2 = ((alpha @ gram(kernel, pool).entries) * alpha).sum(axis=1)
    iso_worst = float(np.abs(isometry_b(fact, alpha, pool) ** 2 @ w - norm2).max())

    draws = [(rng.standard_normal(space.size), element()) for _ in range(200)]
    phi, coefs = (np.array(d) for d in zip(*draws))
    lhs = (coefs * ((w * phi) @ fact.k_rows(pool).T)).sum(axis=1)  # coefs @ (k_rows @ (w phi)), row by row
    rhs = (w * phi * isometry_b(fact, coefs, pool)).sum(axis=1)
    adj_worst = float(np.abs(lhs - rhs).max())

    # Two distinct complete orthonormal bases in the weighted pairing.
    basis1 = [np.eye(6)[i] / np.sqrt(w[i]) for i in range(6)]
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    basis2 = [Q[:, j] / np.sqrt(w) for j in range(6)]
    pairs = [(int(rng.integers(len(pool))), int(rng.integers(len(pool)))) for _ in range(50)]
    target = np.array([kernel(pool[a], pool[b]) for a, b in pairs])
    rows, cols = np.array(pairs).T
    onb_worst = max(float(np.abs(onb_factorization(fact, basis, pool)[rows, cols] - target).max())
                    for basis in (basis1, basis2))

    rank = b_range_dimension(realize(rank_one_kernel(space)))

    ok = iso_worst <= 1e-9 and adj_worst <= 1e-9 and onb_worst <= 1e-9 and rank == 1
    report(
        "criterion 3 (isometry calculus)",
        ok,
        f"isometry {iso_worst:.2e}, adjoint {adj_worst:.2e}, "
        f"parseval {onb_worst:.2e}, product-kernel rank {rank}",
    )
    assert iso_worst <= 1e-9
    assert adj_worst <= 1e-9
    assert onb_worst <= 1e-9
    assert rank == 1


def test_criterion_4_green_kernels():
    rng = np.random.default_rng(303)
    sizes = [2 + (i % 15) for i in range(100)]  # spread over 2..16
    identity_worst = 0.0
    series_worst = 0.0
    factor_worst = 0.0
    for n in sizes:
        chain = random_conductance_chain(rng, n)
        data = green(chain)
        eye = np.eye(n)
        identity_worst = max(
            identity_worst,
            float(np.abs((eye - chain.transitions) @ data.G - eye).max()),
        )
        series_worst = max(series_worst, data.series_agreement)
        if n <= 6:
            space = chain.space
            C = indicator_stack(space)
            kvecs = C @ green_root(chain).T
            inner = kvecs @ (space.weight_array[:, None] * kvecs.T)
            target = C @ (space.weight_array[:, None] * data.G) @ C.T
            factor_worst = max(factor_worst, float(np.abs(inner - target).max()))

    sp = MeasureSpace(("1", "2"), (1.0, 1.0))
    from setkern import MarkovChain

    flip = MarkovChain(sp, np.array([[0.0, 0.5], [0.5, 0.0]]))
    k = green_kernel(flip)
    oracle_err = abs(k(sp.subset("1"), sp.subset("1")) - 4.0 / 3.0)

    ok = (
        identity_worst <= 1e-9
        and series_worst <= 1e-8
        and factor_worst <= 1e-8
        and oracle_err <= 1e-12
    )
    report(
        "criterion 4 (Green kernels)",
        ok,
        f"identity {identity_worst:.2e}, series {series_worst:.2e}, "
        f"factorization {factor_worst:.2e}, two-state oracle {oracle_err:.2e}",
    )
    assert identity_worst <= 1e-9
    assert series_worst <= 1e-8
    assert factor_worst <= 1e-8
    assert oracle_err <= 1e-12


def test_criterion_5_ito_isometry_bands():
    t0 = time.perf_counter()
    setup_rng = np.random.default_rng(404)
    space = random_space(setup_rng, 6)
    chain = random_conductance_chain(setup_rng, 6)
    kernels = [wiener_kernel(space), rank_one_kernel(space), green_kernel(chain)]
    facts = [realize(k) for k in kernels]

    n = 200000
    n_seeds = 20
    iso_rates = []
    cross_rates = []
    for s in range(n_seeds):
        rng = np.random.default_rng(5000 + s)
        iso_hits = iso_total = 0
        cross_hits = cross_total = 0
        for kidx, (kernel, fact) in enumerate(zip(kernels, facts)):
            for i in range(50):
                mc_seed = (s * 31 + kidx) * 1009 + i
                phi = random_simple_function(rng, kernel.space)
                res = ito_isometry_check(kernel, fact, phi, n, seed=mc_seed, workers=2)
                iso_hits += res.within(5.0)
                iso_total += 1
                psi = random_simple_function(rng, kernel.space)
                res = cross_moment_check(
                    kernel, fact, phi, psi, n, seed=mc_seed + 500000, workers=2
                )
                cross_hits += res.within(5.0)
                cross_total += 1
        iso_rates.append(iso_hits / iso_total)
        cross_rates.append(cross_hits / cross_total)

    elapsed = time.perf_counter() - t0
    ok = min(iso_rates) >= 0.95 and min(cross_rates) >= 0.95 and elapsed <= 300.0
    report(
        "criterion 5 (stochastic-integral moments)",
        ok,
        f"worst per-seed rates: isometry {min(iso_rates):.3f}, "
        f"cross {min(cross_rates):.3f}, {elapsed:.0f}s",
    )
    assert min(iso_rates) >= 0.95
    assert min(cross_rates) >= 0.95
    assert elapsed <= 300.0


def test_criterion_6_projection_monotonicity():
    rng = np.random.default_rng(606)
    worst_drop = 0.0
    worst_terminal = 0.0
    for trial in range(50):
        space = random_space(rng, 8)
        if trial % 2 == 0:
            kernel = wiener_kernel(space)
        else:
            kernel = random_operator_kernel(rng, space, well_conditioned=True)
        fact = realize(kernel)
        chain = random_refinement_chain(rng, space, min_length=3)
        phi = random_simple_function(rng, space)
        qs = refinement_sweep(fact, phi, chain)
        assert len(qs) >= 3
        drops = [qs[i] - qs[i + 1] for i in range(len(qs) - 1)]
        worst_drop = max(worst_drop, max(drops, default=0.0))
        worst_terminal = max(worst_terminal, abs(qs[-1] - fact.s_norm_squared(phi)))
    ok = worst_drop <= 1e-10 and worst_terminal <= 1e-9
    report(
        "criterion 6 (projection monotonicity)",
        ok,
        f"worst monotonicity violation {worst_drop:.2e}, worst terminal gap {worst_terminal:.2e}",
    )
    assert worst_drop <= 1e-10
    assert worst_terminal <= 1e-9


def test_criterion_7_report_determinism(tmp_path):
    runner = CliRunner()
    env = {"SETKERN_OUT": str(tmp_path)}
    outs = []
    for name, workers in (("r1", 1), ("r2", 1), ("r3", 3)):
        out = tmp_path / f"{name}.jsonl"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--config",
                str(CONFIGS / "wiener.yaml"),
                "--samples",
                "50000",
                "--out",
                str(out),
                "--workers",
                str(workers),
            ],
            env=env,
        )
        assert result.exit_code == 0, result.output
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    report(
        "criterion 7 (byte-deterministic reports)",
        ok,
        f"repeat run identical={outs[0] == outs[1]}, worker-count identical={outs[0] == outs[2]}",
    )
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]
