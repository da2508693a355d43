"""The config loader reads every scalar exactly as PyYAML's pure-Python SafeLoader does.

``config._LOADER`` resolves and builds plain decimal floats in one step each,
and a sequence builds its float and string items without ``construct_object``;
these tests pin that the shortcuts change no outcome: type, value, the sign of
zero and of NaN, aliases and recursion, and the exception a bad scalar raises.
The loader changes two outcomes.  An integer past ``int``'s digit limit loads
as its text where PyYAML raises ``ValueError``, and a tagged scalar that its
constructor refuses raises ``ConstructorError``, a ``YAMLError`` marking the
scalar, where PyYAML raises ``ValueError``, ``IndexError`` or another error
that is no ``YAMLError``.
The shortcuts are run over both loader bases, pure Python and libyaml.
"""

import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from setkern import config

BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
LOADERS = [config._loader(base) for base in BASES]
IDS = [base.__name__ for base in BASES]

SCALARS = [
    # plain decimals, the shortcut's own forms
    "0.0", "-0.0", "+0.0", "1.5", "-1.5", "+1.5", "1.", "-1.", ".5", "1.0e+5", "1.0E-5", "-1.0e-05",
    ".5e+3", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e+308", "9.9e+999",
    "-9.9e+999", "0.1e-400", "1.5 # comment", "0000.5",
    # what looks like a float but is not one of those forms
    "-.5", "+.5", "1e-3", "1e+3", "1.0e5", "1.5e3", "1.5.5", "1.5e+3.0", "1_000.5", "1_.5", "1__0.5",
    "1:30.5", "-1:30.5", ".inf", "-.inf", "+.Inf", ".INF", ".nan", ".NaN", ".NAN", "inf", "nan",
    "١.٥", "1.5 ",
    # ints, booleans, null, timestamps
    "010", "0x1F", "0o10", "0b101", "1_000", "-0", "12", "yes", "no", "on", "off", "true", "False",
    "~", "null", "", "2001-12-14", "2001-12-14t21:59:43.10-05:00",
    # quoted and tagged scalars
    "'1.5'", '"-0.0"', "!!float 3", "!!float ' 1.5 '", "!!float '--1'", "!!float '+-1'", "!!float '-nan'",
    "!!float 'nan'", "!!float '-inf'", "!!float '0x1F'", "!!float ''", "!!float [1]", "!!float '1_0'",
    "!!float '١.٥'", "!!str 1.5", "! 1.5", "!!int 1.5", "!!int 08", "!!int '1_0.5'",
]

DOCUMENTS = [
    "- &x 2.5\n- *x\n- &y -0.0\n- *y\n",
    "{1.5: a, -.5: b, .5: c}\n",
    "matrix: [[1.0, -0.0, 1e-3], [.5, yes, .nan]]\n",
    # aliased scalars inside a flow sequence
    "[&f 1.5, *f, &s text, *s, &i 7, *i, &n .nan, *n, [*f, *s]]\n",
    "{a: &f -0.0, b: [*f, *f]}\n",
    # an aliased sequence, and recursive ones
    "{a: &q [1.5, x], b: *q, c: [*q, *q]}\n",
    "&r [1.5, *r]\n",
    "&r [[a, *r], 2.5, {k: *r}]\n",
    # nested and mixed rows
    "[[1.5, a, 3, yes, ~], [x, -0.0, null, 'q', 2.5e+3], [[.5, [b, [1.0]]], []], {k: [1.5, c]}]\n",
    "- - 1.5\n  - a\n- - 2\n  - off\n  - - .5\n    - ''\n",
    # tagged items
    "[!!str 1.5, !!float 3, !!int '7', !!str , !!float '-nan', !!seq [1.5], !!map {a: 1.5}]\n",
    "[!!float [1], 1.5]\n",
    "[1.5, !!float [1]]\n",
    "[!!int 1.5]\n",
    "[!!str [a]]\n",
    # other float forms
    "[.nan, -.inf, 1:30.5, 1_000.5, +.Inf, -1:30.5, .NaN]\n",
]


def _outcome(text, loader):
    try:
        return _key(yaml.load(text, Loader=loader))
    except Exception as e:  # a bad !!float escapes PyYAML as ValueError or IndexError, and the loader marks it
        return "raises", type(e)


def _key(value, enclosing=()):
    """``value`` as a comparable tuple that keeps its type, the sign of zero and NaN.

    A list or mapping that contains itself reads as the depth of the
    ``enclosing`` container it repeats.
    """
    if isinstance(value, float):
        return float, math.copysign(1.0, value), "nan" if math.isnan(value) else value
    if isinstance(value, (list, dict)):
        for depth, outer in enumerate(enclosing):
            if outer is value:
                return "cycle", depth
        enclosing = (*enclosing, value)
    if isinstance(value, list):
        return list, tuple(_key(v, enclosing) for v in value)
    if isinstance(value, dict):
        return dict, tuple((_key(k, enclosing), _key(v, enclosing)) for k, v in value.items())
    return type(value), value


def _assert_loads_as_pure_python(text):
    want = _outcome(text, yaml.SafeLoader)
    if want[0] == "raises" and not issubclass(want[1], yaml.YAMLError):
        want = "raises", yaml.constructor.ConstructorError
    for loader in LOADERS:
        assert _outcome(text, loader) == want, (text, loader.__mro__[1].__name__)


@pytest.mark.parametrize("scalar", SCALARS)
def test_every_scalar_loads_as_under_the_pure_python_loader(scalar):
    _assert_loads_as_pure_python(f"- {scalar}\n")


@pytest.mark.parametrize("text", DOCUMENTS)
def test_anchors_keys_and_flow_matrices_load_as_under_the_pure_python_loader(text):
    _assert_loads_as_pure_python(text)


@pytest.mark.parametrize("loader", LOADERS, ids=IDS)
def test_the_shortcut_is_taken_on_both_bases(loader, monkeypatch):
    # each plain decimal is claimed without the generic resolver and constructor
    def unused(*args):
        raise AssertionError("generic float path taken")

    monkeypatch.setattr(yaml.resolver.BaseResolver, "resolve", unused)
    monkeypatch.setattr(yaml.constructor.SafeConstructor, "construct_yaml_float", unused)
    for text, value in (("1.5", 1.5), ("-0.0", -0.0), ("-1.0e-05", -1.0e-05)):
        assert _key(yaml.load(text, Loader=loader)) == _key(value)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_any_float_written_any_way_loads_as_under_the_pure_python_loader(x):
    for text in (yaml.safe_dump([x]), f"- {x!r}\n", "- %.17e\n" % x):
        _assert_loads_as_pure_python(text)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.text(),
    lambda items: st.lists(items, max_size=6),
    max_leaves=30,
).map(lambda value: value if isinstance(value, list) else [value]))
def test_any_nested_list_of_floats_and_strings_loads_as_under_the_pure_python_loader(value):
    for flow in (None, True, False):
        _assert_loads_as_pure_python(yaml.safe_dump(value, default_flow_style=flow))


@pytest.mark.parametrize("loader", LOADERS, ids=IDS)
def test_a_sequence_builds_its_float_and_string_items_itself(loader, monkeypatch):
    atoms = [f"x{i}" for i in range(48)]
    document = {
        "space": {"atoms": atoms, "weights": [1.0 + i / 48 for i in range(48)]},
        "kernel": {"type": "operator", "matrix": [[(i * 48 + j) / 7 for j in range(48)] for i in range(48)]},
    }
    text = yaml.safe_dump(document, default_flow_style=True, sort_keys=False)
    assert "matrix: [[" in text
    calls = []
    construct_object = loader.construct_object

    def counted(self, node, deep=False):
        calls.append(node)
        return construct_object(self, node, deep=deep)

    monkeypatch.setattr(loader, "construct_object", counted)
    assert yaml.load(text, Loader=loader) == document
    # the root, its 2 keys and 2 mappings, their 4 keys, the type, 3 sequences and
    # the 48 rows: none of the 48 atoms, 48 weights or 2,304 matrix entries
    assert len(calls) == 61, len(calls)
    assert not any(node.tag == "tag:yaml.org,2002:float" for node in calls)


def test_the_loader_still_reads_yaml_booleans_as_booleans():
    assert yaml.load("[yes, off, on]", Loader=config._LOADER) == [True, False, True]


@pytest.mark.parametrize("loader", LOADERS, ids=IDS)
def test_an_integer_past_the_digit_limit_of_int_loads_as_its_text(loader):
    # PyYAML's int() raised ValueError out of yaml.load, before any field could name it
    long = "9" * 5000
    assert yaml.load(f"[{long}, -{long}, {{n: +{long}}}, 12]", Loader=loader) == [long, f"-{long}", {"n": f"+{long}"}, 12]
