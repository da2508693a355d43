"""Correctness checkers for the workloads' outputs.

Each checker compares program output with a value the benchmark computes on
its own with numpy, or with a property the method must have, and returns a
list of problems (empty when the output is right).  None of them calls
setkern.
"""

from __future__ import annotations

import numpy as np

from inputs import ChainInput, Integrand, OperatorConfig

T_RTOL = 1e-9
K_RTOL = 1e-8
EXACT_RTOL = 1e-9
GREEN_IDENTITY_ATOL = 1e-9
GREEN_INVERSE_RTOL = 1e-9
MC_SIGMAS = 5.0
MC_WITHIN_SHARE = 0.95


def indicator_matrix(sets: list[list[int]], n: int) -> np.ndarray:
    C = np.zeros((len(sets), n))
    for r, s in enumerate(sets):
        C[r, list(s)] = 1.0
    return C


def _relative(err: float, scale: float) -> float:
    return err / scale if scale > 0 else err


def check_factorize(
    exit_code: object, records: list[dict], export: dict | None, cfg: OperatorConfig
) -> list[str]:
    """One ``setkern factorize --export`` invocation on ``cfg``.

    Exit code 0 with every record ``pass``; exported ``T`` equal to ``M``;
    exported ``k_A`` reproducing ``chi_A^T diag(w) M chi_B`` over the
    singletons and the family; ``range-rank`` equal to the atom count.
    """
    problems = []
    n = len(cfg.weights)
    if exit_code != 0:
        problems.append(f"exit code {exit_code!r}")
    checks = [r for r in records if "check" in r]
    if not checks:
        problems.append("report holds no check records")
    failing = [r["check"] for r in checks if r.get("status") != "pass"]
    if failing:
        problems.append(f"failing records {failing}")
    rank = next((r.get("value") for r in checks if r["check"] == "range-rank"), None)
    if rank != n:
        problems.append(f"range-rank {rank!r} != {n}")
    if export is None:
        problems.append("no export written")
        return problems

    M = cfg.M
    T = np.asarray(export.get("T"), dtype=float)
    if T.shape != M.shape:
        return problems + [f"T has shape {T.shape}, expected {M.shape}"]
    t_err = _relative(float(np.abs(T - M).max()), float(np.abs(M).max()))
    if not t_err <= T_RTOL:
        problems.append(f"T differs from M by {t_err:.3e} relative")

    index = {a: i for i, a in enumerate(export.get("atoms", []))}
    try:
        sets = [[index[a] for a in entry["set"]] for entry in export["k"]]
        K = np.asarray([entry["vector"] for entry in export["k"]], dtype=float)
    except (KeyError, TypeError) as e:
        return problems + [f"malformed k export: {e!r}"]
    exported = {tuple(sorted(s)) for s in sets}
    wanted = [(i,) for i in range(n)] + [tuple(sorted(s)) for s in cfg.family]
    missing = [s for s in wanted if s not in exported]
    if missing:
        problems.append(f"export lacks k vectors for {len(missing)} sets")
    if K.shape != (len(sets), n):
        return problems + [f"k vectors have shape {K.shape}"]
    w = cfg.weights
    C = indicator_matrix(sets, n)
    inner = K @ (w[:, None] * K.T)
    target = C @ (w[:, None] * M) @ C.T
    k_err = _relative(float(np.abs(inner - target).max()), float(np.abs(target).max()))
    if not k_err <= K_RTOL:
        problems.append(f"<k_A,k_B> differs from the kernel by {k_err:.3e} relative")
    return problems


def transition_matrix(chain: ChainInput) -> tuple[np.ndarray, np.ndarray]:
    """``(P, w)`` of the random walk with killing, built from the conductances."""
    index = {a: i for i, a in enumerate(chain.atoms)}
    n = len(chain.atoms)
    C = np.zeros((n, n))
    for x, y, c in chain.edges:
        i, j = index[x], index[y]
        C[i, j] += c
        if i != j:
            C[j, i] += c
    kill = np.zeros(n)
    for a, m in chain.kill.items():
        kill[index[a]] = m
    w = C.sum(axis=1) + kill
    return C / w[:, None], w


def atom_gram(kind: str, weights: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
    """The matrix ``G`` with ``K(A, B) = chi_A^T G chi_B`` for a builtin kernel."""
    if kind == "wiener":
        return np.diag(weights)
    if kind == "rank_one":
        return np.outer(weights, weights)
    if kind == "green":
        n = len(weights)
        return weights[:, None] * np.linalg.solve(np.eye(n) - P, np.eye(n))
    raise ValueError(f"no atom Gram for kernel kind {kind!r}")


def check_exact(exact: float, phi: Integrand, psi: Integrand, gram_atoms: np.ndarray) -> list[str]:
    """``exact`` must equal ``alpha^T Gram beta`` within 1e-9 relative.

    The scale is the Schwarz bound ``sqrt(<phi,phi> <psi,psi>)``, so a cross
    moment near zero is still judged against the size of its factors.
    """
    n = gram_atoms.shape[0]
    a, b = phi.values(n), psi.values(n)
    ref = float(a @ gram_atoms @ b)
    scale = max(abs(ref), float(np.sqrt(abs(a @ gram_atoms @ a) * abs(b @ gram_atoms @ b))))
    err = _relative(abs(exact - ref), scale)
    if not err <= EXACT_RTOL:
        return [f"exact {exact!r} differs from {ref!r} by {err:.3e} relative"]
    return []


def check_green(
    P: np.ndarray,
    w: np.ndarray,
    G: np.ndarray,
    kvecs: np.ndarray,
    kernel_values: np.ndarray,
    probes: list[list[int]],
) -> list[str]:
    """Green function, ``green_kernel`` values and ``green_root`` vectors of one chain.

    ``max|(I - P) G - I| <= 1e-9``; ``G`` within 1e-9 of ``max|G|`` of
    ``numpy.linalg.inv(I - P)``; both ``K(A, B)`` and ``<k_A, k_B>_w``
    within 1e-8 relative of ``chi_A^T diag(w) G chi_B`` over the probe sets.
    """
    problems = []
    n = P.shape[0]
    eye = np.eye(n)
    G = np.asarray(G, dtype=float)
    if G.shape != (n, n):
        return [f"G has shape {G.shape}, expected {(n, n)}"]
    identity = float(np.abs((eye - P) @ G - eye).max())
    if not identity <= GREEN_IDENTITY_ATOL:
        problems.append(f"max|(I-P)G - I| = {identity:.3e}")
    G_ref = np.linalg.inv(eye - P)
    inv_err = _relative(float(np.abs(G - G_ref).max()), float(np.abs(G_ref).max()))
    if not inv_err <= GREEN_INVERSE_RTOL:
        problems.append(f"G differs from inv(I-P) by {inv_err:.3e} of max|G|")
    C = indicator_matrix(probes, n)
    target = C @ (w[:, None] * G_ref) @ C.T
    scale = float(np.abs(target).max())
    for what, values in (
        ("green_kernel values", np.asarray(kernel_values, dtype=float)),
        ("green_root k vectors", kvecs @ (w[:, None] * kvecs.T)),
    ):
        if values.shape != target.shape:
            problems.append(f"{what} have shape {values.shape}, expected {target.shape}")
            continue
        err = _relative(float(np.abs(values - target).max()), scale)
        if not err <= K_RTOL:
            problems.append(f"{what} miss chi_A^T diag(w) G chi_B by {err:.3e} relative")
    return problems


def within_share(deviations: list[float]) -> float:
    """Share of Monte Carlo estimates within ``MC_SIGMAS`` standard errors."""
    if not deviations:
        return 1.0
    return sum(d <= MC_SIGMAS for d in deviations) / len(deviations)
