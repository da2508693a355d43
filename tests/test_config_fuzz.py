"""Mutated shipped configs: every command exits 0, 1 or 2, and never in a traceback.

Each example makes one mutation of one shipped config's document: it drops a
key or list item, lengthens a list by one, duplicates an atom, or replaces a
value with a bool, null, string, list, mapping, NaN, an infinity, -1, 0,
1e308, 1e-320 or an integer past the float range.  Every command then runs
in process through ``support.cli_outcome``, which holds each call to the
exit-code contract.  No numpy ``RuntimeWarning`` may be raised, a config
error names a schema field, and no record passes on a ``null`` value.
"""

import copy
import math
import re
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from setkern.cli import COMMANDS
from support import cli_outcome

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DOCUMENTS = {p.stem: yaml.safe_load(p.read_text()) for p in sorted(CONFIGS.glob("*.yaml"))}
VALUES = [True, None, "text", [1.0], {"key": 1.0}, math.nan, math.inf, -math.inf, -1, 0, 1e308, 1e-320, 10**400]
FIELDS = "space|kernel|chain|family|phi|psi|partitions|mc|tolerances|checks|expect"
CONFIG_ERROR = re.compile(rf"config error: (?:(?:{FIELDS})\b|--tol\b|[a-z-]+ requires a (?:{FIELDS}) section$)")


def _paths(node, path=()):
    """Every path below ``node``, as tuples of keys and list indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[name])
    path = draw(st.sampled_from(list(_paths(doc))))
    *head, key = path
    parent = reduce(getitem, head, doc)
    node = parent[key]
    kinds = ["drop", "replace"]
    kinds += ["lengthen"] if isinstance(node, list) and node else []
    kinds += ["duplicate"] if path == ("space", "atoms") and len(node) > 1 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "lengthen":
        node.append(copy.deepcopy(node[-1]))
    elif kind == "duplicate":
        i, j = draw(st.permutations(range(len(node))))[:2]
        node[i] = node[j]
    else:
        parent[key] = draw(st.sampled_from(VALUES))
    return f"{name}: {kind} {'.'.join(map(str, path))}", doc


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated())
def test_a_mutated_config_exits_0_1_or_2_with_one_named_config_error(tmp_path, case):
    what, doc = case
    for command, *_ in COMMANDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = cli_outcome(tmp_path, command, doc, "--samples", "1000")
        assert run.code != 2 or CONFIG_ERROR.match(run.lines[0]), (what, command, run.lines)
        for record in run.rows:
            assert record["value"] is not None or record["status"] != "pass", (what, command, record)
