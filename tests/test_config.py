"""The config loader reads every scalar exactly as PyYAML's pure-Python SafeLoader does.

``config._LOADER`` resolves and builds plain decimal floats in one step each;
these tests pin that the shortcut changes no outcome: type, value, the sign of
zero and of NaN, and the exception a bad scalar raises.  The shortcut is run
over both loader bases, pure Python and libyaml.
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
    "!!float '١.٥'", "!!str 1.5", "! 1.5", "!!int 1.5",
]

DOCUMENTS = [
    "- &x 2.5\n- *x\n- &y -0.0\n- *y\n",
    "{1.5: a, -.5: b, .5: c}\n",
    "matrix: [[1.0, -0.0, 1e-3], [.5, yes, .nan]]\n",
]


def _outcome(text, loader):
    try:
        return _key(yaml.load(text, Loader=loader))
    except Exception as e:  # a bad !!float escapes PyYAML as ValueError or IndexError, too
        return "raises", type(e).__name__


def _key(value):
    """``value`` as a comparable tuple that keeps its type, the sign of zero and NaN."""
    if isinstance(value, float):
        return float, math.copysign(1.0, value), "nan" if math.isnan(value) else value
    if isinstance(value, list):
        return list, tuple(_key(v) for v in value)
    if isinstance(value, dict):
        return dict, tuple((_key(k), _key(v)) for k, v in value.items())
    return type(value), value


def _assert_loads_as_pure_python(text):
    want = _outcome(text, yaml.SafeLoader)
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


def test_the_loader_still_reads_yaml_booleans_as_booleans():
    assert yaml.load("[yes, off, on]", Loader=config._LOADER) == [True, False, True]
