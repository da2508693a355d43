"""Shared generators for the test suite.

Everything takes an explicit numpy Generator so tests stay reproducible.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml
from click.testing import CliRunner

from setkern import (
    MarkovChain,
    MeasurableSet,
    MeasureSpace,
    Partition,
    SetKernel,
    SimpleFunction,
    operator_kernel,
)
from setkern.cli import main
from setkern.field import CHUNK_SIZE


def random_space(rng: np.random.Generator, n: int, zero_atoms: int = 0) -> MeasureSpace:
    """Weights uniform in [0.1, 3]; optionally force some atoms to weight zero."""
    weights = rng.uniform(0.1, 3.0, size=n)
    if zero_atoms:
        idx = rng.choice(n, size=min(zero_atoms, n - 1), replace=False)
        weights[idx] = 0.0
    atoms = tuple(f"x{i}" for i in range(n))
    return MeasureSpace(atoms, tuple(weights))


def random_psd_matrix(rng: np.random.Generator, n: int, well_conditioned: bool = False) -> np.ndarray:
    """Symmetric PSD matrix; eigenvalues in [0.2, 3] when well conditioned."""
    if well_conditioned:
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return Q @ np.diag(rng.uniform(0.2, 3.0, size=n)) @ Q.T
    B = rng.standard_normal((n, n))
    return B.T @ B / n


def random_nu_psd_matrix(
    rng: np.random.Generator, space: MeasureSpace, well_conditioned: bool = False
) -> np.ndarray:
    """A matrix that is selfadjoint and PSD in the weighted geometry.

    Built as D^{-1/2} S D^{1/2} with S symmetric PSD, restricted to the
    positive-weight block (zero rows and columns at null atoms).
    """
    w = space.weight_array
    pos = np.flatnonzero(space.positive)
    S = random_psd_matrix(rng, len(pos), well_conditioned=well_conditioned)
    d = np.sqrt(w[pos])
    M = np.zeros((space.size, space.size))
    M[np.ix_(pos, pos)] = (S / d[:, None]) * d[None, :]
    return M


def random_operator_config(rng: np.random.Generator, n: int, zero_atoms: int = 0) -> dict:
    """A config document: an operator kernel over ``n`` atoms, a family of 8 sets, ``phi``, ``psi`` and a refinement chain."""
    space = random_space(rng, n, zero_atoms)
    names = lambda A: [space.atoms[i] for i in A.indices]  # noqa: E731
    return {
        "space": {"atoms": list(space.atoms), "weights": list(space.weights)},
        "kernel": {"type": "operator", "matrix": random_nu_psd_matrix(rng, space, well_conditioned=True).tolist()},
        "family": [names(A) for A in random_sets(rng, space, 8)],
        "phi": [[c, names(A)] for c, A in random_simple_function(rng, space).terms],
        "psi": [[c, names(A)] for c, A in random_simple_function(rng, space).terms],
        "partitions": [[names(B) for B in P.blocks] for P in random_refinement_chain(rng, space)],
    }


def random_operator_kernel(
    rng: np.random.Generator, space: MeasureSpace, well_conditioned: bool = False
) -> SetKernel:
    return operator_kernel(space, random_nu_psd_matrix(rng, space, well_conditioned))


def conditioned_operator_kernel(rng: np.random.Generator, space: MeasureSpace, kappa: float) -> SetKernel:
    """Operator kernel of ``M = D^{-1/2} U Lambda U^T D^{1/2}``, ``U`` random orthogonal, ``Lambda`` geometric from 1 to ``1 / kappa``.

    Every weight must be positive.
    """
    U, _ = np.linalg.qr(rng.standard_normal((space.size, space.size)))
    d = np.sqrt(space.weight_array)
    return operator_kernel(space, ((U * np.geomspace(1.0, 1.0 / kappa, space.size)) @ U.T) / d[:, None] * d[None, :])


def exact_projection_moment(kernel: SetKernel, phi: SimpleFunction, partition: Partition) -> Fraction:
    """``c^T G^{-1} c`` in exact rationals, ``c = C Q phi`` and ``G = C Q C^T``, from the stored ``Q``.

    ``Q`` is read as the exact symmetric part of its float entries, which
    must be positive definite, and ``phi`` as the exact sums of its
    coefficients.  ``G^{-1} c`` is never formed: eliminating block ``k``
    adds ``c_k^2 / G_kk`` and leaves the Schur complement of ``G_kk``.
    """
    n = kernel.space.size
    Q = [[(Fraction(kernel.Q[x, y]) + Fraction(kernel.Q[y, x])) / 2 for y in range(n)] for x in range(n)]
    v = [sum((Fraction(coef) for coef, s in phi.terms if x in s), Fraction(0)) for x in range(n)]
    Qv = [sum(Q[x][y] * v[y] for y in range(n)) for x in range(n)]
    blocks = [A.indices for A in partition.blocks]
    c = [sum(Qv[x] for x in A) for A in blocks]
    G = [[sum(Q[x][y] for x in A for y in B) for B in blocks] for A in blocks]
    q = Fraction(0)
    for k in range(len(blocks)):
        q += c[k] * c[k] / G[k][k]
        for i in range(k + 1, len(blocks)):
            f = G[i][k] / G[k][k]
            c[i] -= f * c[k]
            for j in range(k + 1, len(blocks)):
                G[i][j] -= f * G[k][j]
    return q


def indicator_matrix_by_set(space: MeasureSpace, sets: list[MeasurableSet]) -> np.ndarray:
    """``space.indicator_matrix(sets)`` built one set at a time: each set is validated, then its row is set."""
    C = np.zeros((len(sets), space.size))
    for r, A in enumerate(sets):
        space.validate_set(A)
        C[r, A.indices] = 1.0
    return C


def random_set(rng: np.random.Generator, space: MeasureSpace, allow_empty: bool = False) -> MeasurableSet:
    while True:
        mask = rng.random(space.size) < 0.5
        if mask.any() or allow_empty:
            return MeasurableSet(frozenset(np.flatnonzero(mask).tolist()))


def random_sets(rng: np.random.Generator, space: MeasureSpace, count: int) -> list[MeasurableSet]:
    return [random_set(rng, space) for _ in range(count)]


def random_simple_function(
    rng: np.random.Generator, space: MeasureSpace, max_terms: int = 4
) -> SimpleFunction:
    k = int(rng.integers(1, max_terms + 1))
    terms = tuple(
        (float(rng.uniform(-2.0, 2.0)), random_set(rng, space)) for _ in range(k)
    )
    return SimpleFunction(terms)


def random_conductance_chain(
    rng: np.random.Generator, n: int, min_kill: float = 0.05
) -> MarkovChain:
    """Connected conductance graph with killing mass on a nonempty random subset."""
    atoms = [f"s{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((atoms[i], atoms[j], float(rng.uniform(0.2, 2.0))))
    for _ in range(n // 2):
        i, j = rng.integers(0, n, size=2)
        edges.append((atoms[int(i)], atoms[int(j)], float(rng.uniform(0.2, 2.0))))
    n_kill = int(rng.integers(1, n + 1))
    killed = rng.choice(n, size=n_kill, replace=False)
    kill = {atoms[int(i)]: float(rng.uniform(min_kill, 0.5)) for i in killed}
    return MarkovChain.from_conductances(atoms, edges, kill)


def near_recurrent_path(n: int = 10, kill: float = 1e-4, at: int = 0) -> MarkovChain:
    """Transient unit-conductance path ``p0 - p1 - ...`` killed at atom ``at``.

    With the defaults, solve and series differ by 1.2e-8 at ``max|G|`` near 2e4.
    """
    atoms = [f"p{i}" for i in range(n)]
    edges = [(atoms[i], atoms[i + 1], 1.0) for i in range(n - 1)]
    return MarkovChain.from_conductances(atoms, edges, {atoms[at]: kill})


def kernel_value_by_lists(kernel: SetKernel, A: MeasurableSet, B: MeasurableSet) -> float:
    """``K(A, B)`` gathered from ``Q`` with each set's members as a sorted list; 0.0 when a set is empty."""
    if not A.members or not B.members:
        return 0.0
    return float(kernel.Q.take(sorted(A.members), 0).take(sorted(B.members), 1).sum())


def neumann_sum_from_identity(P: np.ndarray, terms: int) -> np.ndarray:
    """``I + P + ... + P^(k-1)``, ``k`` the next power of two >= ``terms``, from ``S = I`` with the product ``P @ I`` as first step."""
    S = np.eye(P.shape[0])
    Q = P
    k = 1
    while k < terms:
        if k > 1:
            Q = Q @ Q
        S = S + Q @ S
        k *= 2
    return S


def neumann_sum_doubling(P: np.ndarray, terms: int) -> np.ndarray:
    """``I + P + ... + P^(k-1)``, ``k`` the next power of two >= ``terms``, squaring ``Q = P^k`` after every step."""
    S = np.eye(P.shape[0])
    Q = P.copy()
    k = 1
    while k < terms:
        S = S + Q @ S
        Q = Q @ Q
        k *= 2
    return S


def projected_factor(a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """``R`` with ``(z . a, z . b)`` equal in law to ``z R`` for standard normal rows ``z`` of width ``R.shape[0]``.

    ``[[|a|]]`` when ``b is None`` (the square of one integral), else the
    reduced QR factor of ``[a b]``, of ``min(len(a), 2)`` rows.
    """
    return np.array([[np.linalg.norm(a)]]) if b is None else np.linalg.qr(np.column_stack([a, b]), mode="r")


def chunk_generator(seed: int, i: int) -> np.random.Generator:
    """A new generator for chunk ``i`` at ``seed``: the ``i``-th child of ``SeedSequence(seed).spawn``, on SFC64."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed).spawn(i + 1)[i]))


def projected_moment(seed: int, a: np.ndarray, b: np.ndarray | None, n: int) -> tuple[float, float, int]:
    """Mean and standard error of ``(z . a) (z . b)`` over ``n`` draws, projected before drawing, and the width ``d``.

    Project, then draw: with ``R = projected_factor(a, b)`` a draw is
    ``(z . R[:, 0]) (z . R[:, -1])`` from ``d = R.shape[0]`` columns, and as
    ``R`` is upper triangular that is ``c y`` for one number ``c``: ``y = z_0^2``
    and ``c = R[0, 0] R[0, -1]`` when ``d == 1``, else ``y = z_0 (z . R[:, -1])``
    and ``c = R[0, 0]``.  Chunk ``i`` of ``CHUNK_SIZE`` rows draws its
    ``(rows, d)`` normals from ``chunk_generator(seed, i)`` and sums ``y`` and
    ``y^2``, each a ``ddot`` but the width-2 ``sum y``; the chunk sums are added
    in chunk order and scaled by ``c`` and ``c^2`` once.
    """
    R = projected_factor(a, b)
    d = R.shape[0]
    s1 = s2 = 0.0
    for i, start in enumerate(range(0, n, CHUNK_SIZE)):
        z = chunk_generator(seed, i).standard_normal((min(CHUNK_SIZE, n - start), d))
        if d == 1:
            y = z[:, 0] * z[:, 0]
            s1 += float(z[:, 0] @ z[:, 0])
        else:
            y = z[:, 0] * (z @ R[:, -1])
            s1 += float(np.sum(y))
        s2 += float(y @ y)
    c = R[0, 0] * R[0, -1] if d == 1 else R[0, 0]
    mean = c * s1 / n
    var = max(c * c * s2 / n - mean * mean, 0.0) * (n / (n - 1)) if n > 1 else 0.0
    return float(mean), float(np.sqrt(var / n)), d


def splitting_partitions(rng: np.random.Generator, space: MeasureSpace) -> list[Partition]:
    """Full splitting sequence from the one-block partition down to singletons."""
    blocks = [frozenset(range(space.size))]
    chain = [Partition(tuple(MeasurableSet(b) for b in blocks))]
    while any(len(b) > 1 for b in blocks):
        splittable = [i for i, b in enumerate(blocks) if len(b) > 1]
        i = int(rng.choice(splittable))
        members = sorted(blocks[i])
        rng.shuffle(members)
        cut = int(rng.integers(1, len(members)))
        blocks = (
            blocks[:i]
            + [frozenset(members[:cut]), frozenset(members[cut:])]
            + blocks[i + 1 :]
        )
        chain.append(Partition(tuple(MeasurableSet(b) for b in blocks)))
    return chain


def random_refinement_chain(
    rng: np.random.Generator, space: MeasureSpace, min_length: int = 3
) -> list[Partition]:
    """Refinement-ordered chain of length >= min_length ending at singletons."""
    full = splitting_partitions(rng, space)
    if len(full) <= min_length:
        return full
    middle = rng.choice(len(full) - 2, size=min(min_length - 2, len(full) - 2), replace=False) + 1
    keep = sorted({0, len(full) - 1, *middle.tolist()})
    return [full[i] for i in keep]


def enumerate_partitions(n: int) -> list[list[frozenset[int]]]:
    """All set partitions of range(n)."""
    if n == 0:
        return [[]]
    out: list[list[frozenset[int]]] = []

    def grow(i: int, blocks: list[list[int]]) -> None:
        if i == n:
            out.append([frozenset(b) for b in blocks])
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def cli_outcome(tmp_path: Path, command: str, cfg: dict) -> tuple[int, list[dict]]:
    """Exit code and the records of ``command`` on the config document ``cfg``, none on a config error."""
    path, out = tmp_path / "cfg.yaml", tmp_path / "report.jsonl"
    path.write_text(yaml.safe_dump(cfg))
    out.unlink(missing_ok=True)
    result = CliRunner().invoke(main, [command, "--config", str(path), "--out", str(out)],
                                env={"SETKERN_OUT": str(tmp_path)})
    if result.exit_code == 2:
        return 2, []
    return result.exit_code, [json.loads(line) for line in out.read_text().splitlines()[1:]]
