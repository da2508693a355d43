"""Experiment configuration: a single YAML document.

Schema (all sections optional unless a command needs them; a key the schema
does not name at the top level, in ``space``, ``kernel``, ``chain`` or ``mc``,
or among ``TOLERANCES`` and ``EXPECTATIONS`` is an error).  ``load_config``
builds every kernel but ``green``, which needs ``chain`` and which a command
builds at its ``series-solve`` tolerance, and resolves every tolerance.  Any
library rejection of the file's input is a ``ConfigError`` naming the field::

    space:
      atoms: [a, b, c]
      weights: [1.0, 2.0, 0.5]    # may be omitted when chain.edges is given
    kernel:
      type: wiener                 # wiener | rank_one | operator | green | counting
      matrix: [[...], ...]         # operator only; dense row-major over atoms
    chain:
      transitions: [[...], ...]    # dense substochastic matrix, or:
      edges: [[a, b, 1.0], ...]    # conductances; weights derived from them
      kill: {a: 0.1}               # per-atom killing mass
    family: [[a], [a, b]]          # sets of atom names
    phi: [[1.0, [a]], [2.0, [b]]]  # simple function terms
    psi: [[1.0, [a, b]]]           # optional second integrand
    partitions:                    # refinement-ordered chain of partitions
      - [[a, b, c]]
      - [[a], [b, c]]
      - [[a], [b], [c]]
    mc: {samples: 200000, seed: 7}
    tolerances: {gram-psd: 1.0e-10} # overrides TOLERANCES; --tol overrides both
    checks: [gram-psd, schwarz]    # optional filter of enabled checks
    expect: {range-rank: 1}        # optional expected counts
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

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
from .markov import MarkovChain
from .measure import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    is_partition,
    is_refinement,
)

__all__ = ["ExperimentConfig", "load_config", "KERNEL_TYPES", "TOLERANCES", "EXPECTATIONS"]

KERNEL_TYPES = ("wiener", "rank_one", "operator", "green", "counting")
_BUILTIN_KERNELS = {"wiener": wiener_kernel, "rank_one": rank_one_kernel, "counting": counting_kernel}
"""The kernel types that the space alone determines."""
TOLERANCES: dict[str, float] = {
    "symmetry": 1e-12,
    "gram-psd": 1e-10,
    "schwarz": 1e-10,
    "absolute-continuity": 1e-10,
    "detailed-balance": 1e-10,
    "contractivity": 1e-10,
    "transience-gap": 1e-10,
    "realization": 1e-8,
    "density": 1e-9,
    "isometry": 1e-9,
    "adjoint": 1e-9,
    "parseval": 1e-9,
    "parseval-invariance": 1e-10,
    "green-identity": 1e-9,
    "series-solve": 1e-8,
    "green-factor": 1e-8,
    "fundamental-match": 1e-8,
    "mc-sigma": 5.0,
    "q-monotone": 1e-10,
    "q-final": 1e-9,
}
"""Every tolerance and its default: the names accepted under ``tolerances:`` and by ``--tol``."""
EXPECTATIONS = ("range-rank",)
"""Names accepted under ``expect:``; every expectation is a count."""
_SECTIONS = ("space", "kernel", "chain", "family", "phi", "psi", "partitions", "mc", "tolerances", "checks", "expect")

_FLOAT_TAG = "tag:yaml.org,2002:float"
_STR_TAG = "tag:yaml.org,2002:str"
_DECIMAL = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?")
"""YAML 1.1's float forms without ``_``, ``:``, ``.inf`` or ``.nan``: PyYAML's float
resolver is the first to claim each, and ``float`` reads each as PyYAML does.
The unsigned ``.5`` branch is PyYAML's own: it reads ``-.5`` as a string."""


def _loader(base: type) -> type:
    """``base`` with one-step floats and sequences of scalars.

    A 48-atom ``kernel.matrix`` is 2,304 plain decimal floats.  Each is
    resolved by one match and built by one ``float``, and a sequence builds
    its float and string items itself, without ``construct_object``'s
    per-node dispatch, cache and recursion bookkeeping, which no scalar
    needs.  Every document loads exactly as under ``base``: any other
    scalar, and every NaN (``float`` gives ``-nan`` a sign that PyYAML does
    not), takes ``base``'s path, and so does every other sequence item.
    """

    class Loader(base):
        def resolve(self, kind, value, implicit):
            if kind is yaml.ScalarNode and implicit[0] and _DECIMAL.fullmatch(value):
                return _FLOAT_TAG
            return super().resolve(kind, value, implicit)

        def construct_yaml_float(self, node):
            try:
                value = float(node.value)
            except (TypeError, ValueError):
                value = math.nan
            return value if value == value else super().construct_yaml_float(node)

        def construct_sequence(self, node, deep=False):
            if not isinstance(node, yaml.SequenceNode):
                return super().construct_sequence(node, deep=deep)
            # a float item is built by the constructor construct_object would pick,
            # and a string item is its value, which is what construct_yaml_str returns
            scalar, to_float = yaml.ScalarNode, self.construct_yaml_float
            return [
                to_float(child) if child.tag == _FLOAT_TAG and isinstance(child, scalar)
                else child.value if child.tag == _STR_TAG and isinstance(child, scalar)
                else self.construct_object(child, deep=deep)
                for child in node.value
            ]

    Loader.add_constructor(_FLOAT_TAG, Loader.construct_yaml_float)
    return Loader


# libyaml parses and composes in C when PyYAML was built with it.
_LOADER = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment description."""

    space: MeasureSpace
    kernel_type: str | None
    kernel: SetKernel | None
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
    if not isinstance(value, bool):  # YAML 1.1 reads yes, on and off as booleans
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{where} must be a number, got {value!r}")


def _tolerance(value: Any, where: str) -> float:
    tol = _number(value, where)
    if not 0 <= tol < math.inf:  # a negative tolerance inverts the verdict it bounds
        raise ConfigError(f"{where} must be finite and nonnegative, got {value!r}")
    return tol


def _matrix(rows: Any, where: str) -> np.ndarray:
    """``rows`` as a float array; a boolean entry, which numpy would read as 0 or 1, is a config error naming it."""
    for i, row in enumerate(rows if isinstance(rows, list) else ()):
        if isinstance(row, list) and bool in set(map(type, row)):
            j = next(j for j, x in enumerate(row) if isinstance(x, bool))
            raise ConfigError(f"{where}[{i}][{j}] must be a number, got {row[j]!r}")
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a dense numeric matrix") from None


def _integer(value: Any, where: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _atom_name(value: Any, where: str) -> str:
    """An atom name as text; YAML 1.1 reads yes, on, off and ~ as a boolean or null, which ``str`` would rename."""
    if value is None or isinstance(value, (bool, list, dict)):
        raise ConfigError(f"{where} must be an atom name, got {value!r}; quote a name YAML reads otherwise")
    return str(value)


@contextmanager
def _reading(where: str):
    """A library rejection of config input, raised inside, as a config error naming ``where``."""
    try:
        yield
    except ConfigError:
        raise
    except SetKernError as e:
        raise ConfigError(f"{where}: {e}") from e


def _space(atoms: list[str], weights: list[float] | None) -> MeasureSpace:
    if weights is None:
        raise ConfigError("space.weights are required unless chain.edges derives them")
    with _reading("space"):
        return MeasureSpace(tuple(atoms), tuple(weights))


def _atom_set(space: MeasureSpace, names: Any, where: str) -> MeasurableSet:
    names = [_atom_name(a, f"{where}[{j}]") for j, a in enumerate(_as_list(names, where))]
    with _reading(where):
        return space.subset(*names)


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
    fn = SimpleFunction(tuple(terms))
    if not math.isfinite(space.norm_squared(fn.values(space.size))):
        raise ConfigError(f"{where}: |{where}|^2_w is out of range: it overflows")
    return fn


def _parse_chain(atoms: list[str], weights: list[float] | None, node: dict) -> tuple[MarkovChain, MeasureSpace]:
    if "edges" in node and "transitions" in node:
        raise ConfigError("chain takes one of 'transitions' and 'edges', got both")
    if "edges" in node:
        if weights is not None and len(weights) != len(atoms):
            raise ConfigError(f"space.weights: expected {len(atoms)} weights, got {len(weights)}")
        edges = []
        for i, e in enumerate(_as_list(node["edges"], "chain.edges")):
            e = _as_list(e, f"chain.edges[{i}]")
            if len(e) != 3:
                raise ConfigError(f"chain.edges[{i}] must be [atom, atom, conductance]")
            x, y = (_atom_name(e[j], f"chain.edges[{i}][{j}]") for j in (0, 1))
            edges.append((x, y, _number(e[2], f"chain.edges[{i}] conductance")))
        kill = {
            _atom_name(a, "chain.kill key"): _number(m, f"chain.kill.{a}")
            for a, m in _as_mapping(node.get("kill"), "chain.kill").items()
        }
        with _reading("chain"):
            chain = MarkovChain.from_conductances(atoms, edges, kill)
        if weights is not None:
            derived = chain.space.weight_array
            require(float(np.abs(np.asarray(weights) - derived).max()), float(derived.max()), 1e-12, ConfigError,
                    "space.weights disagree with the weights derived from chain.edges:", "max w")
        return chain, chain.space
    if "transitions" in node:
        if "kill" in node:
            raise ConfigError("chain.kill applies only to chain.edges; fold the killing into chain.transitions")
        space = _space(atoms, weights)
        with _reading("chain.transitions"):
            return MarkovChain(space, _matrix(node["transitions"], "chain.transitions")), space
    raise ConfigError("chain needs either 'transitions' or 'edges'")


def load_config(path: str | Path, overrides: Iterable[tuple[str, str]] = ()) -> ExperimentConfig:
    """Parse and validate a config file.

    ``overrides`` are ``--tol`` ``(NAME, VALUE)`` pairs, applied in order
    after the file's ``tolerances:``.  Raises ``ConfigError`` naming the
    field for malformed documents.
    """
    path = Path(path)
    try:
        # bytes, so that the loader reports text that is not UTF-8 as a YAMLError
        raw = yaml.load(path.read_bytes(), Loader=_LOADER)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: {e}") from e
    raw = _as_mapping(raw, str(path), _SECTIONS)

    space_node = _as_mapping(raw.get("space"), "space", ("atoms", "weights"))
    if "atoms" not in space_node:
        raise ConfigError("space.atoms is required")
    atoms = [_atom_name(a, f"space.atoms[{i}]") for i, a in enumerate(_as_list(space_node["atoms"], "space.atoms"))]
    weights = None
    if "weights" in space_node:
        weights = [
            _number(w, f"space.weights[{i}]")
            for i, w in enumerate(_as_list(space_node["weights"], "space.weights"))
        ]

    if "chain" in raw:
        chain, space = _parse_chain(atoms, weights, _as_mapping(raw["chain"], "chain", ("transitions", "edges", "kill")))
    else:
        chain, space = None, _space(atoms, weights)

    kernel_type = None
    kernel = None
    if "kernel" in raw:
        knode = _as_mapping(raw["kernel"], "kernel", ("type", "matrix"))
        kernel_type = knode.get("type", "")
        if kernel_type not in KERNEL_TYPES:
            raise ConfigError(f"kernel.type must be one of {KERNEL_TYPES}, got {kernel_type!r}")
        if "matrix" in knode and kernel_type != "operator":
            raise ConfigError(f"kernel.matrix is read only by kernel.type operator, got type {kernel_type!r}")
        if kernel_type == "green" and chain is None:
            raise ConfigError("kernel.type green requires a chain section")
        if kernel_type == "operator":
            if "matrix" not in knode:
                raise ConfigError("kernel.type operator requires kernel.matrix")
            with _reading("kernel.matrix"):
                kernel = operator_kernel(space, _matrix(knode["matrix"], "kernel.matrix"))
        elif kernel_type in _BUILTIN_KERNELS:
            with _reading("kernel"):
                kernel = _BUILTIN_KERNELS[kernel_type](space)

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

    tolerances = dict(TOLERANCES)
    for name, value in _as_mapping(raw.get("tolerances"), "tolerances", tuple(TOLERANCES)).items():
        tolerances[name] = _tolerance(value, f"tolerances.{name}")
    for name, value in overrides:
        if name not in TOLERANCES:
            raise ConfigError(f"--tol: unknown tolerance {name!r}, expected one of {', '.join(TOLERANCES)}")
        tolerances[name] = _tolerance(value, f"--tol {name}")

    checks = tuple(_as_list(raw["checks"], "checks")) if "checks" in raw else None
    expect = {
        name: _integer(value, f"expect.{name}")
        for name, value in _as_mapping(raw.get("expect"), "expect", EXPECTATIONS).items()
    }

    return ExperimentConfig(
        space=space,
        kernel_type=kernel_type,
        kernel=kernel,
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
