"""Seeded input generators for the three workloads.

Every generator draws from ``numpy.random.default_rng([seed, stream, ...])``
so the same workload seed gives the same inputs, and rounds and configs draw
from independent streams.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Stream ids keep the generators independent of one another.
_FACTORIZE, _MC_SPACES, _MC_ROUND, _GREEN_ROUND = 1, 2, 3, 4

FACTORIZE_ATOMS = 48
FACTORIZE_SETS = 16
FACTORIZE_CONFIGS = 4

MC_ATOMS = 6
MC_TERMS = 3
MC_SAMPLES = 200_000
MC_WORKERS = 2

GREEN_SIZES = (32, 96, 192)
GREEN_PROBES = 6
NEAR_RECURRENT_ATOMS = 10
NEAR_RECURRENT_KILL = 1e-4


def atom_names(n: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(n)]


def random_sets(rng: np.random.Generator, n: int, count: int, lo: int, hi: int) -> list[list[int]]:
    """``count`` distinct sorted index sets with sizes in ``[lo, hi]``."""
    out: list[list[int]] = []
    while len(out) < count:
        size = int(rng.integers(lo, hi + 1))
        s = sorted(int(i) for i in rng.choice(n, size=size, replace=False))
        if s not in out:
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# factorize-dense


@dataclass(frozen=True)
class OperatorConfig:
    """An operator-kernel config: weights, the nu-PSD atom matrix and a family."""

    weights: np.ndarray
    M: np.ndarray
    family: list[list[int]]
    mc_seed: int

    def document(self) -> dict:
        """The YAML document a user would write for this config."""
        names = atom_names(len(self.weights))
        return {
            "space": {"atoms": names, "weights": [float(w) for w in self.weights]},
            "kernel": {"type": "operator", "matrix": [[float(v) for v in row] for row in self.M]},
            "family": [[names[i] for i in s] for s in self.family],
            "mc": {"seed": self.mc_seed},
        }


def operator_config(seed: int, index: int) -> OperatorConfig:
    """48 atoms with weights U[0.1, 3], a well-conditioned nu-PSD ``M``, 16 sets.

    ``M = D^{-1/2} S D^{1/2}`` with ``S`` symmetric with spectrum in
    [0.5, 2], so ``D M`` is symmetric and ``M`` is nu-PSD.
    """
    rng = np.random.default_rng([seed, _FACTORIZE, index])
    n = FACTORIZE_ATOMS
    w = rng.uniform(0.1, 3.0, size=n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (Q * rng.uniform(0.5, 2.0, size=n)) @ Q.T
    S = 0.5 * (S + S.T)
    d = np.sqrt(w)
    M = (S / d[:, None]) * d[None, :]
    family = random_sets(rng, n, FACTORIZE_SETS, 2, 12)
    return OperatorConfig(weights=w, M=M, family=family, mc_seed=int(rng.integers(0, 2**31)))


# ---------------------------------------------------------------------------
# mc-isometry


@dataclass(frozen=True)
class McSpaces:
    """Weights of the wiener/rank_one space and the conductances of the green chain."""

    weights: np.ndarray
    edges: list[tuple[str, str, float]]
    kill: dict[str, float]


def mc_spaces(seed: int) -> McSpaces:
    rng = np.random.default_rng([seed, _MC_SPACES])
    w = rng.uniform(0.1, 3.0, size=MC_ATOMS)
    edges, kill = conductance_graph(rng, MC_ATOMS)
    return McSpaces(weights=w, edges=edges, kill=kill)


@dataclass(frozen=True)
class Integrand:
    """A simple function ``sum_i coef_i 1_{set_i}`` over atom indices."""

    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def values(self, n: int) -> np.ndarray:
        v = np.zeros(n)
        for c, s in self.terms:
            v[list(s)] += c
        return v


def mc_round(seed: int, round_index: int, kernels: int) -> list[tuple[Integrand, Integrand, int]]:
    """One ``(phi, psi, mc_seed)`` per kernel; three terms per integrand."""
    rng = np.random.default_rng([seed, _MC_ROUND, round_index])
    out = []
    for _ in range(kernels):
        pair = []
        for _ in range(2):
            sets = random_sets(rng, MC_ATOMS, MC_TERMS, 1, MC_ATOMS)
            coefs = rng.uniform(-2.0, 2.0, size=MC_TERMS)
            pair.append(Integrand(tuple((float(c), tuple(s)) for c, s in zip(coefs, sets))))
        out.append((pair[0], pair[1], int(rng.integers(0, 2**62))))
    return out


# ---------------------------------------------------------------------------
# green-chain


def conductance_graph(
    rng: np.random.Generator, n: int, prefix: str = "s"
) -> tuple[list[tuple[str, str, float]], dict[str, float]]:
    """Random tree plus ``n // 2`` extra edges, conductances U[0.2, 2].

    Every atom carries killing U[0.05, 0.5], which keeps the chain well
    inside the transient region at every size used here.
    """
    names = atom_names(n, prefix)
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((names[i], names[j], float(rng.uniform(0.2, 2.0))))
    for _ in range(n // 2):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((names[int(i)], names[int(j)], float(rng.uniform(0.2, 2.0))))
    kill = {a: float(rng.uniform(0.05, 0.5)) for a in names}
    return edges, kill


@dataclass(frozen=True)
class ChainInput:
    """Conductance description of one chain plus the probe sets for ``k``."""

    label: str
    atoms: list[str]
    edges: list[tuple[str, str, float]]
    kill: dict[str, float]
    probes: list[list[int]]


def green_round(seed: int, round_index: int) -> list[ChainInput]:
    """The three seeded chains of a round followed by the near-recurrent path."""
    rng = np.random.default_rng([seed, _GREEN_ROUND, round_index])
    chains = []
    for n in GREEN_SIZES:
        edges, kill = conductance_graph(rng, n)
        probes = random_sets(rng, n, GREEN_PROBES, 1, n // 2)
        chains.append(ChainInput(f"chain-{n}", atom_names(n, "s"), edges, kill, probes))
    chains.append(near_recurrent_path())
    return chains


def near_recurrent_path() -> ChainInput:
    """10-atom path, unit conductances, killing 1e-4 at one end; seed-free.

    A valid transient chain with ``max|G|`` about 2e4; ``markov.green``
    rejects it because its solve/series agreement bound is absolute.
    """
    n = NEAR_RECURRENT_ATOMS
    names = atom_names(n, "p")
    edges = [(names[i], names[i + 1], 1.0) for i in range(n - 1)]
    probes = [[0], [n - 1], list(range(n // 2)), list(range(n))]
    return ChainInput("near-recurrent-10", names, edges, {names[0]: NEAR_RECURRENT_KILL}, probes)
