"""Experiment configuration: a single YAML document.

Schema (all sections optional unless a command needs them; a key the schema
does not name at the top level or in ``space``, ``kernel``, ``chain`` or ``mc``
is an error)::

    space:
      atoms: [a, b, c]
      weights: [1.0, 2.0, 0.5]    # may be omitted when chain.edges is given
    kernel:
      type: wiener                 # wiener | rank_one | operator | green | counting
      matrix: [[...], ...]         # operator only; dense row-major over atoms
    chain:
      transitions: [[...], ...]    # dense substochastic matrix, or:
      edges: [[a, b, 1.0], ...]    # conductances; weights derived from them
      kill: {a: 0.1}               # per-atom killing mass (mapping or list)
    family: [[a], [a, b]]          # sets of atom names
    phi: [[1.0, [a]], [2.0, [b]]]  # simple function terms
    psi: [[1.0, [a, b]]]           # optional second integrand
    partitions:                    # refinement-ordered chain of partitions
      - [[a, b, c]]
      - [[a], [b, c]]
      - [[a], [b], [c]]
    mc: {samples: 200000, seed: 7}
    tolerances: {gram-psd: 1.0e-10}
    checks: [gram-psd, schwarz]    # optional filter of enabled checks
    expect: {range-rank: 1}        # optional expected counts
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from .errors import ConfigError, SetKernError
from .kernels import (
    SetKernel,
    counting_kernel,
    operator_kernel,
    rank_one_kernel,
    wiener_kernel,
)
from .linalg import require
from .markov import MarkovChain, green_kernel
from .measure import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    is_partition,
    is_refinement,
)

__all__ = ["ExperimentConfig", "load_config", "KERNEL_TYPES"]

KERNEL_TYPES = ("wiener", "rank_one", "operator", "green", "counting")
_SECTIONS = ("space", "kernel", "chain", "family", "phi", "psi", "partitions", "mc", "tolerances", "checks", "expect")

# libyaml parses configs about ten times faster when PyYAML was built with it.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    space: MeasureSpace
    kernel_type: str | None
    kernel_matrix: np.ndarray | None
    chain: MarkovChain | None
    family: tuple[MeasurableSet, ...]
    phi: SimpleFunction | None
    psi: SimpleFunction | None
    partitions: tuple[Partition, ...]
    samples: int
    seed: int
    tolerances: dict[str, float] = field(default_factory=dict)
    checks: tuple[str, ...] | None = None
    expect: dict[str, int] = field(default_factory=dict)

    def kernel(self) -> SetKernel:
        if self.kernel_type is None:
            raise ConfigError("config has no kernel section")
        if self.kernel_type == "wiener":
            return wiener_kernel(self.space)
        if self.kernel_type == "rank_one":
            return rank_one_kernel(self.space)
        if self.kernel_type == "counting":
            return counting_kernel(self.space)
        if self.kernel_type == "operator":
            try:
                return operator_kernel(self.space, self.kernel_matrix)
            except SetKernError as e:
                raise ConfigError(f"kernel.matrix: {e}") from e
        if self.kernel_type == "green":
            if self.chain is None:
                raise ConfigError("kernel.type green requires a chain section")
            return green_kernel(self.chain)
        raise ConfigError(f"unknown kernel type {self.kernel_type!r}")

    def enabled(self, check: str) -> bool:
        return self.checks is None or check in self.checks


def _as_mapping(node: Any, where: str, keys: tuple[str, ...] | None = None) -> dict:
    """``node`` as a mapping; with ``keys``, a key outside them is a config error naming it."""
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in node if keys is not None else ():
        if key not in keys:
            raise ConfigError(f"{where}: unknown key {key!r}, expected one of {', '.join(keys)}")
    return node


def _as_list(node: Any, where: str) -> list:
    if not isinstance(node, list):
        raise ConfigError(f"{where} must be a list")
    return node


def _number(value: Any, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def _integer(value: Any, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _atom_set(space: MeasureSpace, names: Any, where: str) -> MeasurableSet:
    try:
        return space.subset(*[str(a) for a in _as_list(names, where)])
    except SetKernError as e:
        raise ConfigError(f"{where}: {e}") from e


def _simple_function(space: MeasureSpace, node: Any, where: str) -> SimpleFunction:
    terms = []
    for i, term in enumerate(_as_list(node, where)):
        term = _as_list(term, f"{where}[{i}]")
        if len(term) != 2:
            raise ConfigError(f"{where}[{i}] must be [coefficient, [atoms...]]")
        coef, names = term
        coef = _number(coef, f"{where}[{i}] coefficient")
        if not math.isfinite(coef):
            raise ConfigError(f"{where}[{i}] coefficient must be finite, got {coef!r}")
        terms.append((coef, _atom_set(space, names, f"{where}[{i}]")))
    return SimpleFunction(tuple(terms))


def _parse_chain(
    atoms: list[str], weights: list[float] | None, node: dict
) -> tuple[MarkovChain, MeasureSpace]:
    if "edges" in node:
        edges = []
        for i, e in enumerate(_as_list(node["edges"], "chain.edges")):
            e = _as_list(e, f"chain.edges[{i}]")
            if len(e) != 3:
                raise ConfigError(f"chain.edges[{i}] must be [atom, atom, conductance]")
            edges.append((str(e[0]), str(e[1]), _number(e[2], f"chain.edges[{i}] conductance")))
        kill = node.get("kill")
        if isinstance(kill, dict):
            kill = {a: _number(m, f"chain.kill.{a}") for a, m in kill.items()}
        elif isinstance(kill, list):
            kill = [_number(m, f"chain.kill[{i}]") for i, m in enumerate(kill)]
        elif kill is not None:
            raise ConfigError("chain.kill must be a mapping or a list")
        try:
            chain = MarkovChain.from_conductances(atoms, edges, kill)
        except SetKernError as e:
            raise ConfigError(f"chain: {e}") from e
        if weights is not None:
            derived = chain.space.weight_array
            given = np.asarray(weights, dtype=float)
            gap = float(np.abs(given - derived).max()) if given.shape == derived.shape else math.inf
            require(gap, float(derived.max()), 1e-12, ConfigError,
                    "space.weights disagree with the weights derived from chain.edges:", "max w")
        return chain, chain.space
    if "transitions" in node:
        if weights is None:
            raise ConfigError("space.weights are required with a dense chain.transitions")
        space = MeasureSpace(tuple(atoms), tuple(weights))
        P = node["transitions"]
        try:
            chain = MarkovChain(space, np.asarray(P, dtype=float))
        except (SetKernError, ValueError) as e:
            raise ConfigError(f"chain.transitions: {e}") from e
        return chain, space
    raise ConfigError("chain needs either 'transitions' or 'edges'")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file.

    Raises ``ConfigError`` with parse context for malformed documents.
    """
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(), Loader=_LOADER)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: {e}") from e
    raw = _as_mapping(raw, str(path), _SECTIONS)

    space_node = _as_mapping(raw.get("space"), "space", ("atoms", "weights"))
    if "atoms" not in space_node:
        raise ConfigError("space.atoms is required")
    atoms = [str(a) for a in _as_list(space_node["atoms"], "space.atoms")]
    weights = None
    if "weights" in space_node:
        weights = [
            _number(w, f"space.weights[{i}]")
            for i, w in enumerate(_as_list(space_node["weights"], "space.weights"))
        ]

    chain = None
    if "chain" in raw:
        chain, space = _parse_chain(atoms, weights, _as_mapping(raw["chain"], "chain", ("transitions", "edges", "kill")))
    else:
        if weights is None:
            raise ConfigError("space.weights are required without a conductance chain")
        try:
            space = MeasureSpace(tuple(atoms), tuple(weights))
        except SetKernError as e:
            raise ConfigError(f"space: {e}") from e

    kernel_type = None
    kernel_matrix = None
    if "kernel" in raw:
        knode = _as_mapping(raw["kernel"], "kernel", ("type", "matrix"))
        kernel_type = str(knode.get("type", ""))
        if kernel_type not in KERNEL_TYPES:
            raise ConfigError(f"kernel.type must be one of {KERNEL_TYPES}, got {kernel_type!r}")
        if kernel_type == "operator":
            if "matrix" not in knode:
                raise ConfigError("kernel.type operator requires kernel.matrix")
            try:
                kernel_matrix = np.asarray(knode["matrix"], dtype=float)
            except (TypeError, ValueError):
                raise ConfigError("kernel.matrix must be a dense numeric matrix") from None
            if not np.all(np.isfinite(kernel_matrix)):
                raise ConfigError("kernel.matrix entries must be finite")

    family = tuple(
        _atom_set(space, names, f"family[{i}]")
        for i, names in enumerate(_as_list(raw.get("family", []), "family"))
    )

    phi = _simple_function(space, raw["phi"], "phi") if "phi" in raw else None
    psi = _simple_function(space, raw["psi"], "psi") if "psi" in raw else None

    partitions = []
    for i, blocks in enumerate(_as_list(raw.get("partitions", []), "partitions")):
        part = Partition(
            tuple(
                _atom_set(space, b, f"partitions[{i}][{j}]")
                for j, b in enumerate(_as_list(blocks, f"partitions[{i}]"))
            )
        )
        if not is_partition(space, part.blocks):
            raise ConfigError(f"partitions[{i}] does not partition the space")
        if partitions and not is_refinement(partitions[-1], part):
            raise ConfigError(f"partitions[{i}] does not refine partitions[{i - 1}]")
        partitions.append(part)

    mc = _as_mapping(raw.get("mc"), "mc", ("samples", "seed"))
    samples = _integer(mc.get("samples", 200000), "mc.samples")
    seed = _integer(mc.get("seed", 0), "mc.seed")
    if samples < 1:
        raise ConfigError("mc.samples must be positive")
    if not 0 <= seed < 2**64:
        raise ConfigError("mc.seed must fit in 64 bits")

    tolerances = {}
    for name, value in _as_mapping(raw.get("tolerances"), "tolerances").items():
        tolerances[str(name)] = _number(value, f"tolerances.{name}")

    checks = None
    if "checks" in raw:
        checks = tuple(str(c) for c in _as_list(raw["checks"], "checks"))

    expect = {}
    for name, value in _as_mapping(raw.get("expect"), "expect").items():
        expect[str(name)] = _integer(value, f"expect.{name}")  # every expectation is a count

    return ExperimentConfig(
        space=space,
        kernel_type=kernel_type,
        kernel_matrix=kernel_matrix,
        chain=chain,
        family=family,
        phi=phi,
        psi=psi,
        partitions=tuple(partitions),
        samples=samples,
        seed=seed,
        tolerances=tolerances,
        checks=checks,
        expect=expect,
    )
