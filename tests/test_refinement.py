"""Atom refinement: splitting an atom in two keeps every kernel value on preimages.

The paper's space ``(X, B, nu)`` is sigma-finite; here it is a weighted atom
space, and refining it splits atoms.  A map ``pi`` from the fine atoms onto
the coarse ones that carries the fine weights onto the coarse weights is
measure-preserving, and a kernel defined by the measure pulls back along it:
its value on the preimages ``pi^-1 A`` and ``pi^-1 B`` is the coarse
``K(A, B)``.  Each case splits one positive atom ``x`` into weights
``w_x / 4`` and ``3 w_x / 4`` and one null atom into two null atoms, on
dyadic weights, so that ``pi`` preserves the measure exactly.  The Wiener and
rank-one kernels of the fine space pull back, and so does the operator kernel
of ``M'[i, j] = M[pi i, pi j] w'_j / w_{pi j}`` (zero columns at null atoms),
``nu'``-selfadjoint and PSD when ``M`` is; the counting kernel, which ignores
the measure, does not.  Through the CLI, ``validate`` and ``factorize`` keep
every row's status on shipped configs with one atom split.
"""

from pathlib import Path

import numpy as np
import pytest
import yaml

from setkern import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    check_realization,
    counting_kernel,
    gram,
    operator_kernel,
    rank_one_kernel,
    realize,
    refinement_sweep,
    wiener_kernel,
)
from setkern.config import TOLERANCES
from support import cli_outcome, random_operator_kernel, random_refinement_chain, random_sets, random_simple_function

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = np.finfo(float).eps


class Split:
    """The fine space of ``space``, its positive atom ``x`` and null atom ``z`` each split in two, and ``pi``."""

    def __init__(self, space: MeasureSpace, x: int, z: int):
        w = space.weights
        parts = {x: (w[x] / 4, 3 * w[x] / 4), z: (0.0, 0.0)}
        self.coarse, self.x = space, x
        self.pi = [i for i in range(space.size) for _ in parts.get(i, (w[i],))]
        weights = [v for i in range(space.size) for v in parts.get(i, (w[i],))]
        self.fine = MeasureSpace(tuple(f"y{j}" for j in range(len(weights))), tuple(weights))

    def preimage(self, A: MeasurableSet) -> MeasurableSet:
        return MeasurableSet(frozenset(j for j, i in enumerate(self.pi) if i in A))

    def operator(self, M: np.ndarray) -> np.ndarray:
        """``M'[i, j] = M[pi i, pi j] w'_j / w_{pi j}``, zero where ``w_{pi j}`` is."""
        w, pi = self.coarse.weight_array[self.pi], np.array(self.pi)
        ratio = np.divide(self.fine.weight_array, w, out=np.zeros_like(w), where=w > 0)
        return M[np.ix_(pi, pi)] * ratio


def _case(seed: int) -> tuple[Split, list[MeasurableSet]]:
    """A split of 6 dyadic weights, one null, and 8 random sets with every singleton and the full set."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 32, size=6) / 8
    z, x = rng.choice(6, size=2, replace=False)
    weights[z] = 0.0
    space = MeasureSpace(tuple(f"x{i}" for i in range(6)), tuple(weights))
    return Split(space, int(x), int(z)), [*space.singletons(), space.full_set(), *random_sets(rng, space, 8)]


def _gram_gap(coarse, fine, split: Split, sets: list[MeasurableSet]) -> tuple[np.ndarray, float]:
    """``|G' - G|`` entrywise, the fine Gram over the preimages against the coarse Gram, and ``8 n eps max|G|``."""
    G = gram(coarse, sets).entries
    gap = np.abs(gram(fine, [split.preimage(A) for A in sets]).entries - G)
    return gap, 8 * split.fine.size * EPS * float(np.abs(G).max())


def _kernels(kind: str, split: Split, seed: int):
    """The coarse kernel and its pullback to the fine space."""
    if kind == "wiener":
        return wiener_kernel(split.coarse), wiener_kernel(split.fine)
    if kind == "rank-one":
        return rank_one_kernel(split.coarse), rank_one_kernel(split.fine)
    coarse = random_operator_kernel(np.random.default_rng(seed + 100), split.coarse)
    return coarse, operator_kernel(split.fine, split.operator(coarse.T))  # T is the coarse kernel's M


@pytest.mark.parametrize("kind, seed", [("wiener", 0), ("rank-one", 1), *(("operator", s) for s in range(2, 6))])
def test_the_kernels_on_preimages_are_the_coarse_kernels(kind, seed):
    split, sets = _case(seed)
    assert np.array_equal(np.bincount(split.pi, split.fine.weight_array), split.coarse.weight_array)
    coarse, fine = _kernels(kind, split, seed)
    gap, bound = _gram_gap(coarse, fine, split, sets)
    assert gap.max() <= bound
    preimages = [split.preimage(A) for A in sets]
    assert check_realization(fine, realize(fine).S, preimages, tol=TOLERANCES["isometry"]).passed

    rng = np.random.default_rng(seed + 200)
    phi, chain = random_simple_function(rng, split.coarse), random_refinement_chain(rng, split.coarse)
    fine_phi = SimpleFunction(tuple((c, split.preimage(A)) for c, A in phi.terms))
    fine_chain = [Partition(tuple(map(split.preimage, P.blocks))) for P in chain]
    qs = refinement_sweep(realize(coarse), phi, chain)
    fine_qs = refinement_sweep(realize(fine), fine_phi, [*fine_chain, Partition(split.fine.singletons())])
    scale = split.coarse.norm_squared(phi.values(split.coarse.size)) * coarse.spectrum.top  # the CLI's sweep bound
    assert np.abs(np.subtract(fine_qs[:-1], qs)).max() <= TOLERANCES["q-final"] * scale
    assert max(a - b for a, b in zip(fine_qs, fine_qs[1:])) <= TOLERANCES["q-monotone"] * scale


def test_the_counting_kernel_ignores_the_measure_and_fails_on_every_set_holding_the_split_atom():
    split, sets = _case(6)
    gap, bound = _gram_gap(counting_kernel(split.coarse), counting_kernel(split.fine), split, sets)
    holding = [i for i, A in enumerate(sets) if split.x in A]
    assert holding and all(gap[i, i] > bound for i in holding)


def _split_config(node, atom: str):
    """``node`` with each occurrence of ``atom`` in a list replaced by ``atom.0`` and ``atom.1``."""
    if isinstance(node, dict):
        return {key: _split_config(value, atom) for key, value in node.items()}
    if isinstance(node, list):
        return [y for item in node
                for y in ([f"{atom}.0", f"{atom}.1"] if item == atom else [_split_config(item, atom)])]
    return node


def _statuses(tmp_path: Path, command: str, cfg: dict) -> tuple[int, list[tuple[str, str]]]:
    code, records = cli_outcome(tmp_path, command, cfg)
    return code, [(r["check"], r["status"]) for r in records]


@pytest.mark.parametrize("command", ["validate", "factorize"])
@pytest.mark.parametrize("config, atom", [("wiener", "a"), ("rank-one", "a"), ("counting-null-atom", "c")])
def test_splitting_an_atom_of_a_shipped_config_keeps_every_status(tmp_path, config, atom, command):
    cfg = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
    split = _split_config(cfg, atom)
    weights, i = cfg["space"]["weights"], cfg["space"]["atoms"].index(atom)
    halves = [weights[i] / 4, 3 * weights[i] / 4]
    assert sum(halves) == weights[i]
    split["space"]["weights"] = [*weights[:i], *halves, *weights[i + 1:]]
    assert _statuses(tmp_path, command, split) == _statuses(tmp_path, command, cfg)
