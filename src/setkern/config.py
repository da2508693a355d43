"""Experiment configuration: a single YAML document.

``SCHEMA`` describes each top-level section once: the key set that closes
it, its reader, and the commands that cannot run without it.  ``load_config``
composes the file into YAML nodes, without building Python objects, and
walks that table in order; each reader walks the nodes of its section.  A
field judges structure by node type, and a number field parses the text of a
float-, int- or string-tagged scalar as PyYAML reads its tag, so a boolean
is no number.  Any other scalar, an atom name say, is built by PyYAML's
``SafeConstructor``, and a scalar it refuses is an error marking the line
and column where the field reads it.  A key the table does not name, at the
top level or in a mapping section, is an error, as is a key that a mapping
gives twice and a section that a command requires and the file omits or
leaves empty; README's config sketch shows every key.  ``load_config``
reads the ``--seed``, ``--samples``, ``--workers`` and ``--tol`` flags as
text, as the fields ``mc.seed``, ``mc.samples`` and ``tolerances:`` read
theirs, builds every kernel but ``green``, which needs ``chain`` and which a
command builds at its ``series-solve`` tolerance, and resolves every
tolerance.  Any library rejection of the file's input is a ``ConfigError``
naming the field.
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
from yaml.constructor import ConstructorError, SafeConstructor

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
_NUMBER_TAGS = (_FLOAT_TAG, _INT_TAG, _STR_TAG)
"""The tags whose text a number field parses: a string as ``float`` reads it, as ``1e-3``."""
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_UNCONSTRUCTED = (_MERGE_TAG, "tag:yaml.org,2002:value")
"""The tags of the keys ``<<`` and ``=``, which ``flatten_mapping`` reads and no constructor builds."""
_DECIMAL = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?")
"""YAML 1.1's float forms without ``_``, ``:``, ``.inf`` or ``.nan``: PyYAML's float
resolver is the first to claim each, and ``float`` reads each as PyYAML does.
The unsigned ``.5`` branch is PyYAML's own: it reads ``-.5`` as a string."""
_DECIMAL_INT = re.compile(r"[-+]?[1-9][0-9_]*")
"""The integers PyYAML reads in base 10, the one base in which ``int`` has a digit limit."""


def _resolve(self, kind, value, implicit):
    """PyYAML's tag for a node, each plain decimal float resolved by one match.

    A 48-atom ``kernel.matrix`` is 2,304 of them.  It calls the base resolver by
    name, so that it resolves alike on any loader it is set on.
    """
    if kind is yaml.ScalarNode and implicit[0] and _DECIMAL.fullmatch(value):
        return _FLOAT_TAG
    return yaml.resolver.BaseResolver.resolve(self, kind, value, implicit)


# libyaml parses and composes in C when PyYAML was built with it.
_LOADER = type("Loader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),), {"resolve": _resolve})


def _digits(text: str) -> int | str:
    """``text`` as ``int`` reads it; past its digit limit, or when it is no integer, the text, which a count echoes."""
    with suppress(ValueError):
        return int(text)
    return text


def _value(node: yaml.Node) -> Any:
    """``node`` as PyYAML's ``SafeConstructor`` builds it, each node it holds judged first, in document order.

    A scalar that its constructor refuses, as ``!!int 1.5``, ``!!bool maybe`` or
    ``!!timestamp x``, raises a ``ConstructorError`` marking it, where PyYAML
    raises ``ValueError``, ``LookupError`` or ``AttributeError``, and a tag
    without a constructor raises PyYAML's error with the tag cut by ``echo``.
    The one value PyYAML cannot build, a base-10 integer past ``int``'s digit
    limit, is its text, as ``--samples`` is: a count echoes it, and a number
    reads it as an infinity.
    """
    if isinstance(node, yaml.ScalarNode) and node.tag == _STR_TAG:  # as construct_yaml_str returns it
        return node.value
    if isinstance(node, yaml.ScalarNode) and node.tag == _INT_TAG and _DECIMAL_INT.fullmatch(node.value):
        return _digits(node.value.replace("_", ""))
    constructor, held, seen = SafeConstructor(), [node], set()
    while held:  # an alias repeats a node, and a recursive one holds itself
        n = held.pop()
        if id(n) in seen or n.tag in _UNCONSTRUCTED:
            continue
        seen.add(id(n))
        if n.tag not in constructor.yaml_constructors:
            raise ConstructorError(None, None, f"could not determine a constructor for the tag {echo(n.tag)}", n.start_mark)
        if isinstance(n, yaml.ScalarNode):
            try:
                constructor.construct_object(n)  # kept, and reused by construct_document
            except (AttributeError, LookupError, ValueError) as e:
                raise ConstructorError(None, None, f"could not construct {n.tag!r} from {echo(n.value)}", n.start_mark) from e
        else:
            held.extend(reversed([c for item in n.value for c in (item if isinstance(item, tuple) else (item,))]))
    return constructor.construct_document(node)


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


def _is_list(node: yaml.Node) -> bool:
    """Whether ``node`` is a sequence that PyYAML builds as a list, not one under another tag."""
    return isinstance(node, yaml.SequenceNode) and node.tag == _SEQ_TAG


def _as_mapping(node: yaml.Node | None, where: str, keys: tuple[str, ...] | None = None, read: Callable = _value) -> dict:
    """``node``'s value nodes by key, each key read by ``read``; ``{}`` for ``None`` or null.

    The pairs that ``<<`` merges in come first, so the node's own override
    them, as YAML's merge rule says.  A key that the node itself gives twice,
    and with ``keys`` a key outside them, is a config error naming it.
    """
    if node is None or node.tag == "tag:yaml.org,2002:null":
        return {}
    if not isinstance(node, yaml.MappingNode) or node.tag != _MAP_TAG:
        raise ConfigError(f"{where} must be a mapping")
    flat = yaml.MappingNode(node.tag, list(node.value))  # flatten_mapping rewrites its node, which an alias may repeat
    SafeConstructor().flatten_mapping(flat)
    pairs = [(read(key), value) for key, value in flat.value]
    first_own = len(pairs) - sum(key.tag != _MERGE_TAG for key, _ in node.value)
    for i, (key, _) in enumerate(pairs):
        if keys is not None and key not in keys:  # first: a list or mapping key, which dict() cannot hash, is no name
            raise ConfigError(f"{where}: unknown key {echo(key)}, expected one of {', '.join(keys)}")
        if i > first_own and key in [earlier for earlier, _ in pairs[first_own:i]]:
            raise ConfigError(f"{where}: duplicate key {echo(key)}")
    return dict(pairs)


def _as_list(node: yaml.Node, where: str) -> list:
    if not _is_list(node):
        raise ConfigError(f"{where} must be a list")
    return node.value


def _number(node: yaml.Node, where: str, *index: int) -> float:
    """A float-, int- or string-tagged scalar as a float, as PyYAML reads its tag; an integer past the float range is an infinity.

    A config error names ``where``, then each index in brackets.
    """
    if node.tag == _FLOAT_TAG and isinstance(node, yaml.ScalarNode):
        try:
            if (x := float(node.value)) == x:  # float gives NaN a sign that PyYAML does not
                return x
        except ValueError:  # a form that PyYAML reads and float does not, as .inf or 1_0.5
            pass
    value = _value(node)
    if isinstance(node, yaml.ScalarNode) and node.tag in _NUMBER_TAGS:
        try:
            return float(value)
        except ValueError:
            pass
        except OverflowError:  # an integer past the float range, which the float domain rejects by name
            return math.inf if value > 0 else -math.inf
    raise ConfigError(f"{where}{''.join(f'[{i}]' for i in index)} must be a number, got {echo(value)}")


def _tolerance(node: yaml.Node, where: str) -> float:
    tol = _number(node, where)
    if not 0 <= tol < math.inf:  # a negative tolerance inverts the verdict it bounds
        raise ConfigError(f"{where} must be finite and nonnegative, got {echo(_value(node))}")
    return tol


def _entry(node: yaml.Node, where: str, i: int, j: int) -> float:
    x = _number(node, where, i, j)  # which formats the entry's name only for its error: a 48-atom matrix has 2,304
    if math.isinf(x) and node.tag == _INT_TAG:
        raise ConfigError(f"{where}[{i}][{j}] is an integer past the float range")
    return x


def _matrix(node: yaml.Node, where: str) -> np.ndarray:
    """A list of equal-length rows of numbers as a float array; the first entry that is no number, in row order, is a config error naming it."""
    rows = node.value if _is_list(node) else None
    matrix = [[_entry(x, where, i, j) for j, x in enumerate(row.value)] for i, row in enumerate(rows or ()) if _is_list(row)]
    with suppress(ValueError):  # numpy refuses ragged rows
        if rows is not None and len(matrix) == len(rows):
            return np.array(matrix, dtype=float)
    raise ConfigError(f"{where} must be a dense numeric matrix")


def _integer(node: yaml.Node, where: str, **bounds) -> int:
    """A count; an integral float, as YAML may write one, is its int."""
    value = _value(node)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return require_integer(value, where, ConfigError, **bounds)


def _atom_name(node: yaml.Node, where: str) -> str:
    """An atom name as text; YAML 1.1 reads yes, on, off and ~ as a boolean or null, which ``str`` would rename."""
    value = _value(node)
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


# the range of each count a run reads, from mc or from its flag
_COUNTS = {"samples": {"least": 1, "bits": SAMPLE_BITS}, "seed": {}, "workers": {"least": 1}}


def _flag(name: str, text: str) -> int:
    """``--<name>``, read as text in the range of its count, so that text that is no integer is a config error too."""
    return require_integer(_digits(text), f"--{name}", ConfigError, **_COUNTS[name])


def _tol_flag(text: str) -> tuple[str, float]:
    """``--tol NAME=VALUE`` as the tolerance it sets."""
    name, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"--tol expects NAME=VALUE, got {echo(text)}")
    if name not in TOLERANCES:
        raise ConfigError(f"--tol: unknown tolerance {echo(name)}, expected one of {', '.join(TOLERANCES)}")
    return name, _tolerance(yaml.ScalarNode(_STR_TAG, value), f"--tol {name}")


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
        kill = {name: _number(mass, f"chain.kill[{echo(name)}]")
                for name, mass in _as_mapping(node.get("kill"), "chain.kill", read=partial(_atom_name, where="chain.kill key")).items()}
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
    kernel_type, kernel = _value(node["type"]) if "type" in node else "", None
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
    mc = {name: _integer(node[name], f"mc.{name}", **_COUNTS[name]) if name in node else default
          for name, default in (("samples", 200000), ("seed", 0))}
    return {**mc, **got["flags"]}


def _read_tolerances(node: dict | None, got: dict) -> dict:
    """Every tolerance: its default, overridden by the file's ``tolerances:``, then by ``--tol`` in order."""
    tolerances = {name: _tolerance(value, f"tolerances.{name}") for name, value in (node or {}).items()}
    return {"tolerances": {**TOLERANCES, **tolerances, **got["tol"]}}


def _read_checks(node: list | None, got: dict) -> dict:
    """The names under ``checks:``, each a string and, given ``check_names``, one of them or ``q-level-<n>`` for a
    configured partition ``n``."""
    names = None if node is None else [_value(name) for name in node]
    known, levels = got["check_names"], [f"q-level-{i}" for i in range(len(got["partitions"]))]
    for name in names or ():
        if not isinstance(name, str) or known is not None and name not in known and name not in levels:
            raise ConfigError(f"checks: unknown check {echo(name)}")
    return {"checks": None if names is None else tuple(names)}


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
    # every reader sees the fields read before it and what it takes from the flags
    got = {"workers": counts.pop("workers", 1), "flags": counts, "tol": tol, "check_names": check_names}
    sections = {}  # a present section is a list or a mapping of nodes, an absent one None
    try:
        data = path.read_bytes()  # bytes, so that the composer reports text that is not UTF-8 as a YAMLError
        raw = _as_mapping(yaml.compose(data, Loader=_LOADER), str(path), tuple(SCHEMA))
        for name, (keys, read, _) in SCHEMA.items():
            node = sections[name] = None if name not in raw else _as_list(raw[name], name) if keys is None \
                else _as_mapping(raw[name], name, keys)
            got.update(read(node, got))
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:  # a syntax error, or a scalar that PyYAML refuses where a field reads it
        raise _yaml_error(path, data, e) from e
    for name, section in SCHEMA.items():
        if command in section.required_by and not sections[name]:
            raise ConfigError(f"{command} requires a {name} section")
    return ExperimentConfig(**{f.name: got[f.name] for f in fields(ExperimentConfig)})
