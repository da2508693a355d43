"""Experiment configuration: a single YAML document.

``SCHEMA`` describes each top-level section once: the key set that closes
it, its reader, and the commands that cannot run without it.  ``load_config``
walks that table in order.  A key the table does not name, at the top level
or in a mapping section, is an error, and so is a section that a command
requires and the file omits or leaves empty; README's config sketch shows
every key.  ``load_config`` reads the ``--seed``, ``--samples``,
``--workers`` and ``--tol`` flags as text by the readers of ``mc.seed``,
``mc.samples`` and ``tolerances:``, builds every kernel but ``green``, which
needs ``chain`` and which a command builds at its ``series-solve``
tolerance, and resolves every tolerance.  Any library rejection of the
file's input is a ``ConfigError`` naming the field.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, NamedTuple

import numpy as np
import yaml
from yaml.constructor import ConstructorError

from .errors import ConfigError, SetKernError
from .kernels import (
    SetKernel,
    counting_kernel,
    operator_kernel,
    rank_one_kernel,
    wiener_kernel,
)
from .linalg import SAMPLE_BITS, echo, require, require_integer
from .markov import MarkovChain
from .measure import (
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    is_partition,
    is_refinement,
)

__all__ = ["ExperimentConfig", "load_config", "Section", "SCHEMA", "KERNEL_TYPES", "TOLERANCES", "EXPECTATIONS"]

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
    "green-identity": 1e-9,
    "series-solve": 1e-8,
    "green-factor": 1e-8,
    "mc-sigma": 5.0,
    "q-monotone": 1e-10,
    "q-final": 1e-9,
}
"""Every tolerance and its default: the names accepted under ``tolerances:`` and by ``--tol``."""
EXPECTATIONS = ("range-rank",)
"""Names accepted under ``expect:``; every expectation is a count."""

_FLOAT_TAG = "tag:yaml.org,2002:float"
_INT_TAG = "tag:yaml.org,2002:int"
_STR_TAG = "tag:yaml.org,2002:str"
_DECIMAL = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?")
"""YAML 1.1's float forms without ``_``, ``:``, ``.inf`` or ``.nan``: PyYAML's float
resolver is the first to claim each, and ``float`` reads each as PyYAML does.
The unsigned ``.5`` branch is PyYAML's own: it reads ``-.5`` as a string."""
_DECIMAL_INT = re.compile(r"[-+]?[1-9][0-9_]*")
"""The integers PyYAML reads in base 10, the one base in which ``int`` has a digit limit."""


def _loader(base: type) -> type:
    """``base`` with one-step floats and sequences of scalars.

    A 48-atom ``kernel.matrix`` is 2,304 plain decimal floats.  Each is
    resolved by one match and built by one ``float``, and a sequence builds
    its float and string items itself, without ``construct_object``'s
    per-node dispatch, cache and recursion bookkeeping, which no scalar
    needs.  Every document loads exactly as under ``base``: any other
    scalar, and every NaN (``float`` gives ``-nan`` a sign that PyYAML does
    not), takes ``base``'s path, and so does every other sequence item.
    The one exception is an integer past ``int``'s digit limit, on which
    ``base`` raises ``ValueError``: it loads as its text, so that the field
    reading it rejects it as it would the same flag.  A tagged scalar that
    its constructor refuses, as ``!!int 1.5``, ``!!bool maybe`` or
    ``!!timestamp x``, raises a ``ConstructorError`` marking it where
    ``base`` raises ``ValueError``, ``LookupError`` or ``AttributeError``.
    A tag without a constructor raises ``base``'s error, its tag cut by ``echo``.
    """

    class Loader(base):
        def resolve(self, kind, value, implicit):
            if kind is yaml.ScalarNode and implicit[0] and _DECIMAL.fullmatch(value):
                return _FLOAT_TAG
            return super().resolve(kind, value, implicit)

        def construct_object(self, node, deep=False):
            return _marking(super().construct_object, node, deep=deep)

        def construct_undefined(self, node):
            raise ConstructorError(None, None, f"could not determine a constructor for the tag {echo(node.tag)}", node.start_mark)

        def construct_yaml_float(self, node):  # the sequence shortcut calls it outside construct_object
            try:
                value = float(node.value)
            except (TypeError, ValueError):
                value = math.nan
            return value if value == value else _marking(super().construct_yaml_float, node)

        def construct_yaml_int(self, node):
            try:
                return super().construct_yaml_int(node)
            except ValueError:  # int() refuses more than 4,300 digits: the field's reader judges the text
                if not _DECIMAL_INT.fullmatch(node.value):
                    raise
                return node.value

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
    Loader.add_constructor(_INT_TAG, Loader.construct_yaml_int)
    Loader.add_constructor(None, Loader.construct_undefined)
    return Loader


def _marking(construct: Callable, node: yaml.Node, **kwargs) -> Any:
    """``construct(node)``; a scalar that the constructor refuses raises a ``ConstructorError`` marking the node."""
    try:
        return construct(node, **kwargs)
    except (AttributeError, LookupError, ValueError) as e:
        raise ConstructorError(None, None, f"could not construct {node.tag!r} from {echo(node.value)}", node.start_mark) from e


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
    workers: int
    tolerances: dict[str, float]
    checks: tuple[str, ...] | None
    expect: dict[str, int]

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
            raise ConfigError(f"{where}: unknown key {echo(key)}, expected one of {', '.join(keys)}")
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
        except OverflowError:  # an integer past the float range, which the float domain rejects by name
            return math.inf if value > 0 else -math.inf
    raise ConfigError(f"{where} must be a number, got {echo(value)}")


def _tolerance(value: Any, where: str) -> float:
    tol = _number(value, where)
    if not 0 <= tol < math.inf:  # a negative tolerance inverts the verdict it bounds
        raise ConfigError(f"{where} must be finite and nonnegative, got {echo(value)}")
    return tol


def _matrix(rows: Any, where: str) -> np.ndarray:
    """``rows`` as a float array; the first entry that is no number, a boolean included, is a config error naming it."""
    lists = rows if isinstance(rows, list) else ()
    if not any(isinstance(row, list) and bool in set(map(type, row)) for row in lists):  # numpy reads True as 1.0
        with suppress(TypeError, ValueError, OverflowError):
            return np.asarray(rows, dtype=float)
    for i, row in enumerate(lists):
        for j, x in enumerate(row if isinstance(row, list) else ()):
            if math.isinf(_number(x, f"{where}[{i}][{j}]")) and isinstance(x, int):
                raise ConfigError(f"{where}[{i}][{j}] is an integer past the float range")
    raise ConfigError(f"{where} must be a dense numeric matrix")


def _integer(value: Any, where: str, **bounds) -> int:  # an integral float, as YAML may write a count, is its int
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return require_integer(value, where, ConfigError, **bounds)


def _atom_name(value: Any, where: str) -> str:
    """An atom name as text; YAML 1.1 reads yes, on, off and ~ as a boolean or null, which ``str`` would rename."""
    if value is None or isinstance(value, (bool, list, dict)):
        raise ConfigError(f"{where} must be an atom name, got {echo(value)}; quote a name YAML reads otherwise")
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
    for i, term in enumerate(node):
        term = _as_list(term, f"{where}[{i}]")
        if len(term) != 2:
            raise ConfigError(f"{where}[{i}] must be [coefficient, [atoms...]]")
        coef, names = term
        terms.append((_number(coef, f"{where}[{i}] coefficient"), _atom_set(space, names, f"{where}[{i}]")))
    with _reading(where):
        return SimpleFunction(tuple(terms))


# the reader of each count a run reads, from mc or from its flag
_COUNTS = {"samples": partial(_integer, least=1, bits=SAMPLE_BITS), "seed": _integer, "workers": partial(_integer, least=1)}


def _flag(name: str, text: str) -> int:
    """``--<name>``, read as text by the reader of its count, so that text that is no integer is a config error too."""
    with suppress(ValueError):
        text = int(text)
    return _COUNTS[name](text, f"--{name}")


def _tol_flag(text: str) -> tuple[str, float]:
    """``--tol NAME=VALUE`` as the tolerance it sets."""
    name, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"--tol expects NAME=VALUE, got {echo(text)}")
    if name not in TOLERANCES:
        raise ConfigError(f"--tol: unknown tolerance {echo(name)}, expected one of {', '.join(TOLERANCES)}")
    return name, _tolerance(value, f"--tol {name}")


# ---------------------------------------------------------------------------
# the section readers: each gets its section's node, None when the file omits
# the section, and the fields read before it, and returns the fields it sets


def _read_space(node: dict | None, got: dict) -> dict:
    node = node or {}
    if "atoms" not in node:
        raise ConfigError("space.atoms is required")
    atoms = [_atom_name(a, f"space.atoms[{i}]") for i, a in enumerate(_as_list(node["atoms"], "space.atoms"))]
    weights = [_number(w, f"space.weights[{i}]") for i, w in enumerate(_as_list(node["weights"], "space.weights"))
               ] if "weights" in node else None
    return {"atoms": atoms, "weights": weights}


def _read_chain(node: dict | None, got: dict) -> dict:
    """The chain and the space: ``chain.edges`` derive the weights, and otherwise ``space.weights`` give them."""
    atoms, weights = got["atoms"], got["weights"]
    if node is None:
        return {"chain": None, "space": _space(atoms, weights)}
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
        return {"chain": chain, "space": chain.space}
    if "transitions" in node:
        if "kill" in node:
            raise ConfigError("chain.kill applies only to chain.edges; fold the killing into chain.transitions")
        space = _space(atoms, weights)
        with _reading("chain.transitions"):
            return {"chain": MarkovChain(space, _matrix(node["transitions"], "chain.transitions")), "space": space}
    raise ConfigError("chain needs either 'transitions' or 'edges'")


def _read_kernel(node: dict | None, got: dict) -> dict:
    """Every kernel but ``green``, which a command builds from the chain at its ``series-solve`` tolerance."""
    if node is None:
        return {"kernel_type": None, "kernel": None}
    kernel_type, kernel = node.get("type", ""), None
    if kernel_type not in KERNEL_TYPES:
        raise ConfigError(f"kernel.type must be one of {KERNEL_TYPES}, got {echo(kernel_type)}")
    if "matrix" in node and kernel_type != "operator":
        raise ConfigError(f"kernel.matrix is read only by kernel.type operator, got type {kernel_type!r}")
    if kernel_type == "green" and got["chain"] is None:
        raise ConfigError("kernel.type green requires a chain section")
    if kernel_type == "operator":
        if "matrix" not in node:
            raise ConfigError("kernel.type operator requires kernel.matrix")
        with _reading("kernel.matrix"):
            kernel = operator_kernel(got["space"], _matrix(node["matrix"], "kernel.matrix"))
    elif kernel_type in _BUILTIN_KERNELS:
        with _reading("kernel"):
            kernel = _BUILTIN_KERNELS[kernel_type](got["space"])
    return {"kernel_type": kernel_type, "kernel": kernel}


def _read_integrand(name: str) -> Callable[[list | None, dict], dict]:
    """The reader of ``phi`` or ``psi``: an integrand with terms that is zero in L^2(nu) is an error.

    Every row that reads it would judge an estimate of 0 against an exact 0.
    """
    def read(node: list | None, got: dict) -> dict:
        if node is None:
            return {name: None}
        space = got["space"]
        function = _simple_function(space, node, name)
        if node and space.norm_squared(function.values(space.size)) == 0.0:
            raise ConfigError(f"{name} is zero in L^2(nu): its coefficients cancel or it charges only null atoms")
        return {name: function}
    return read


def _read_psi(node: list | None, got: dict) -> dict:
    if node == []:  # the cross-moment row would pass on zeros; an empty phi is missing for the commands that read it
        raise ConfigError("psi must have at least one term, or be left out")
    return _read_integrand("psi")(node, got)


def _read_partitions(node: list | None, got: dict) -> dict:
    partitions = []
    for i, blocks in enumerate(node or ()):
        part = Partition(tuple(_atom_set(got["space"], b, f"partitions[{i}][{j}]")
                               for j, b in enumerate(_as_list(blocks, f"partitions[{i}]"))))
        if not is_partition(got["space"], part.blocks):
            raise ConfigError(f"partitions[{i}] does not partition the space")
        if partitions and not is_refinement(partitions[-1], part):
            raise ConfigError(f"partitions[{i}] does not refine partitions[{i - 1}]")
        partitions.append(part)
    return {"partitions": tuple(partitions)}


def _read_mc(node: dict | None, got: dict) -> dict:
    """``mc.samples`` and ``mc.seed``, each overridden by its flag."""
    node = node or {}
    mc = {name: _COUNTS[name](node.get(name, default), f"mc.{name}") for name, default in (("samples", 200000), ("seed", 0))}
    return {**mc, **got["flags"]}


def _read_tolerances(node: dict | None, got: dict) -> dict:
    """Every tolerance: its default, overridden by the file's ``tolerances:``, then by ``--tol`` in order."""
    tolerances = {name: _tolerance(value, f"tolerances.{name}") for name, value in (node or {}).items()}
    return {"tolerances": {**TOLERANCES, **tolerances, **got["tol"]}}


def _read_checks(node: list | None, got: dict) -> dict:
    """The names under ``checks:``, each a name of ``check_names`` or ``q-level-<n>`` for a configured partition ``n``."""
    levels = [f"q-level-{i}" for i in range(len(got["partitions"]))]  # a list: a YAML entry may be unhashable
    for name in node if node is not None and got["check_names"] is not None else ():
        if name not in got["check_names"] and name not in levels:
            raise ConfigError(f"checks: unknown check {echo(name)}")
    return {"checks": None if node is None else tuple(node)}


class Section(NamedTuple):
    """One top-level section of the config: ``SCHEMA`` maps its name, which its errors carry, to this.

    ``keys`` closes a mapping section's keys; a list section has ``None``.
    ``read`` gets the section's node, ``None`` when the file omits the
    section, and the fields read before it, and returns the fields it sets.
    ``required_by`` names the commands that cannot run without the section;
    for them a section that is absent or empty is missing.
    """

    keys: tuple[str, ...] | None
    read: Callable[[Any, dict], dict]
    required_by: tuple[str, ...] = ()


SCHEMA: dict[str, Section] = {  # in reading order: the chain may derive the space, which every later section reads
    "space": Section(("atoms", "weights"), _read_space),
    "chain": Section(("transitions", "edges", "kill"), _read_chain, ("markov-green",)),
    "kernel": Section(("type", "matrix"), _read_kernel, ("refine-sweep",)),
    "family": Section(None, lambda node, got: {"family": tuple(_atom_set(got["space"], names, f"family[{i}]")
                                                                for i, names in enumerate(node or ()))}),
    "phi": Section(None, _read_integrand("phi"), ("simulate", "refine-sweep")),
    "psi": Section(None, _read_psi),
    "partitions": Section(None, _read_partitions, ("refine-sweep",)),
    "mc": Section(("samples", "seed"), _read_mc),
    "tolerances": Section(tuple(TOLERANCES), _read_tolerances),
    "checks": Section(None, _read_checks),
    "expect": Section(EXPECTATIONS, lambda node, got: {"expect": {name: _integer(value, f"expect.{name}")
                                                                  for name, value in (node or {}).items()}}),
}


def _yaml_error(path: Path, data: bytes, e: yaml.YAMLError) -> ConfigError:
    """PyYAML's problem text as one line naming the file, line and column."""
    if isinstance(e, yaml.MarkedYAMLError):
        line, column, problem = e.problem_mark.line, e.problem_mark.column, e.problem
    else:  # a ReaderError, from bytes that are not UTF-8, marks a byte offset
        *lines, last = data[:e.position].split(b"\n")
        line, column, problem = len(lines), len(last), str(e).splitlines()[0]
    return ConfigError(f"{path}: line {line + 1}, column {column + 1}: {problem}")


def load_config(path: str | Path, overrides: Iterable[str] = (), *, command: str | None = None,
                flags: dict[str, str | None] | None = None, check_names: Collection[str] | None = None) -> ExperimentConfig:
    """Parse and validate a config file, walking ``SCHEMA``.

    ``overrides`` are the ``--tol`` texts ``NAME=VALUE``, applied in order
    after the file's ``tolerances:``, and ``flags`` maps ``seed``,
    ``samples`` and ``workers`` to a flag's text or ``None``; the first two
    override ``mc``.  Every flag is judged before the file is read.  Given
    ``check_names``, a name under ``checks:`` outside them is an error, and
    given ``command``, so is a section that the command requires and the
    file omits or leaves empty.  Raises ``ConfigError`` naming the field for
    malformed documents.
    """
    tol = dict(map(_tol_flag, overrides))
    counts = {name: _flag(name, text) for name, text in (flags or {}).items() if text is not None}
    path = Path(path)
    try:
        data = path.read_bytes()  # bytes, so that the loader reports text that is not UTF-8 as a YAMLError
        raw = yaml.load(data, Loader=_LOADER)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:
        raise _yaml_error(path, data, e) from e
    raw = _as_mapping(raw, str(path), tuple(SCHEMA))
    # every reader sees the fields read before it and what it takes from the flags
    got = {"workers": counts.pop("workers", 1), "flags": counts, "tol": tol, "check_names": check_names}
    for name, (keys, read, _) in SCHEMA.items():  # a present section is a list or a mapping, an absent one None
        node = None if name not in raw else _as_list(raw[name], name) if keys is None else _as_mapping(raw[name], name, keys)
        got.update(read(node, got))
    for name, section in SCHEMA.items():
        if command in section.required_by and not raw.get(name):
            raise ConfigError(f"{command} requires a {name} section")
    return ExperimentConfig(**{f.name: got[f.name] for f in fields(ExperimentConfig)})
