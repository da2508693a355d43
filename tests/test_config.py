"""The config readers read every scalar as PyYAML's pure-Python SafeLoader builds it.

``load_config`` composes the file with ``config._LOADER`` and each field
reads the nodes it gets: a number field parses the text of a float-, int- or
string-tagged scalar, and any other node is built by PyYAML's
``SafeConstructor``.  These tests pin that the readers change no outcome
against the pure-Python loader: a number's value with the sign of zero and of
NaN, or a config error where PyYAML's value is no number; an atom's name;
anchors, aliases and recursion; and the exception a bad scalar raises.  The
readers change two outcomes.  A base-10 integer past ``int``'s digit limit is
read as its text where PyYAML raises ``ValueError``, and a tagged scalar that
its constructor refuses raises ``ConstructorError``, a ``YAMLError`` marking
the scalar, where PyYAML raises ``ValueError``, ``IndexError`` or another
error that is no ``YAMLError``.
Every test runs over both composers, pure Python and libyaml.
"""

import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from setkern import config
from setkern.errors import ConfigError


def _loader(name):
    """``config._LOADER``'s resolver on PyYAML's ``name`` loader; skipped where PyYAML lacks it."""
    base = getattr(yaml, name, None)
    loader = base and type(name, (base,), {"resolve": config._resolve})
    return pytest.param(loader, id=name, marks=pytest.mark.skipif(base is None, reason="PyYAML built without libyaml"))


LOADERS = [_loader("SafeLoader"), _loader("CSafeLoader")]

SCALARS = [
    # plain decimals, the resolver's own forms
    "0.0", "-0.0", "+0.0", "1.5", "-1.5", "+1.5", "1.", "-1.", ".5", "1.0e+5", "1.0E-5", "-1.0e-05",
    ".5e+3", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e+308", "9.9e+999",
    "-9.9e+999", "0.1e-400", "1.5 # comment", "0000.5",
    # what looks like a float but is not one of those forms
    "-.5", "+.5", "1e-3", "1e+3", "1.0e5", "1.5e3", "1.5.5", "1.5e+3.0", "1_000.5", "1_.5", "1__0.5",
    "1:30.5", "-1:30.5", ".inf", "-.inf", "+.Inf", ".INF", ".nan", ".NaN", ".NAN", "inf", "nan",
    "١.٥", "1.5 ",
    # ints, booleans, null, timestamps
    "010", "0x1F", "0o10", "0b101", "1_000", "1__0", "-0", "12", f"{10**400}", f"-{10**400}", "yes", "no", "on", "off",
    "true", "False", "~", "null", "", "2001-12-14", "2001-12-14t21:59:43.10-05:00",
    # quoted and tagged scalars
    "'1.5'", '"-0.0"', "!!float 3", "!!float ' 1.5 '", "!!float '--1'", "!!float '+-1'", "!!float '-nan'",
    "!!float 'nan'", "!!float '-inf'", "!!float '0x1F'", "!!float ''", "!!float [1]", "!!float '1_0'",
    "!!float '١.٥'", "!!str 1.5", "! 1.5", "!!int 1.5", "!!int 08", "!!int '1_0.5'", "!!binary MS41",
    "!!bool maybe", "!!timestamp x", "!!seq abc",
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
    # merged mappings, which their own keys override
    "{a: &m {k: 1.5, j: x}, b: {<<: *m, k: 2.5}, c: {<<: [*m, {k: 3.5}], =: v}}\n",
    # nested and mixed rows
    "[[1.5, a, 3, yes, ~], [x, -0.0, null, 'q', 2.5e+3], [[.5, [b, [1.0]]], []], {k: [1.5, c]}]\n",
    "- - 1.5\n  - a\n- - 2\n  - off\n  - - .5\n    - ''\n",
    # tagged items
    "[!!str 1.5, !!float 3, !!int '7', !!str , !!float '-nan', !!seq [1.5], !!map {a: 1.5}]\n",
    "[!!float [1], 1.5]\n",
    "[1.5, !!float [1]]\n",
    "[!!int 1.5]\n",
    "[!!str [a]]\n",
    "[a, [b, !!bool maybe]]\n",
    "{a: [!<!unknown> 1]}\n",
    # other float forms
    "[.nan, -.inf, 1:30.5, 1_000.5, +.Inf, -1:30.5, .NaN]\n",
]


def _outcome(read):
    try:
        return _key(read())
    except Exception as e:  # a bad !!float escapes PyYAML as ValueError or IndexError, and the readers mark it
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


def _pure_python(text):
    """The outcome of PyYAML's pure-Python loader on ``text``, an error that is no ``YAMLError`` read as the readers mark it."""
    want = _outcome(lambda: yaml.load(text, Loader=yaml.SafeLoader))
    return ("raises", yaml.constructor.ConstructorError) if want[0] == "raises" and not issubclass(want[1], yaml.YAMLError) else want


def _as_number(value):
    """What a number field reads from PyYAML's ``value``: a float, or a config error where it is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return "raises", ConfigError
    try:
        return _key(float(value))
    except ValueError:
        return "raises", ConfigError
    except OverflowError:
        return _key(math.inf if value > 0 else -math.inf)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("scalar", SCALARS)
def test_a_number_field_reads_every_scalar_as_the_pure_python_loader_builds_it(loader, scalar):
    text = f"- {scalar}\n"
    want = _pure_python(text)
    if want[0] != "raises":
        want = _as_number(yaml.load(text, Loader=yaml.SafeLoader)[0])
    assert _outcome(lambda: config._number(yaml.compose(text, Loader=loader).value[0], "x")) == want


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", DOCUMENTS)
def test_anchors_aliases_and_recursion_build_as_under_the_pure_python_loader(loader, text):
    assert _outcome(lambda: config._value(yaml.compose(text, Loader=loader))) == _pure_python(text)


@pytest.mark.parametrize("loader", LOADERS)
def test_an_atom_field_names_each_atom_as_the_readme_says(loader, tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_LOADER", loader)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text('space: {atoms: [1.50, 010, 1, "1.50", "on", a], weights: [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]}\n'
                   "family: [[1.5, 8], ['1.50', 'on']]\n")
    loaded = config.load_config(cfg)
    assert loaded.space.atoms == ("1.5", "8", "1", "1.50", "on", "a")
    assert loaded.family == (loaded.space.subset("1.5", "8"), loaded.space.subset("1.50", "on"))


@pytest.mark.parametrize("loader", LOADERS)
def test_anchors_aliases_and_merges_load_across_sections(loader, tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_LOADER", loader)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("space: {<<: {atoms: &atoms [a, b], weights: [9.0, 9.0]}, weights: [1.0, 2.0]}\n"
                   "kernel: {type: operator, matrix: [[1.0, 0.0], [0.0, 1.0]]}\n"
                   "family: [*atoms, [a]]\nphi: [[2.0, *atoms]]\nchecks: [symmetry, gram-psd]\n")
    loaded = config.load_config(cfg)
    assert loaded.space.atoms == ("a", "b") and loaded.space.weight_array.tolist() == [1.0, 2.0]
    assert loaded.kernel.Q.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert loaded.family == (loaded.space.subset("a", "b"), loaded.space.subset("a"))
    assert loaded.checks == ("symmetry", "gram-psd")


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=300, deadline=None)
@given(FLOATS)
def test_any_float_written_any_way_is_read_as_the_pure_python_loader_builds_it(loader, x):
    for text in (yaml.safe_dump([x]), f"- {x!r}\n", "- %.17e\n" % x):
        want = _as_number(yaml.load(text, Loader=yaml.SafeLoader)[0])
        assert _outcome(lambda: config._number(yaml.compose(text, Loader=loader).value[0], "x")) == want, text


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(st.lists(FLOATS, min_size=m, max_size=m), min_size=1, max_size=6)))
def test_a_float_matrix_is_read_as_the_array_the_pure_python_loader_builds(loader, rows):
    for flow in (None, True, False):
        text = yaml.safe_dump({"matrix": rows}, default_flow_style=flow)
        want = np.array(yaml.load(text, Loader=yaml.SafeLoader)["matrix"], dtype=float)
        got = config._matrix(yaml.compose(text, Loader=loader).value[0][1], "kernel.matrix")
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), text


@pytest.mark.parametrize("loader", LOADERS)
def test_a_plain_decimal_is_read_without_the_generic_resolver_and_constructor(loader, monkeypatch):
    def unused(self, *args):
        raise AssertionError("generic float path taken")

    resolve = yaml.resolver.BaseResolver.resolve
    monkeypatch.setattr(yaml.resolver.BaseResolver, "resolve",
                        lambda self, kind, *args: unused(self) if kind is yaml.ScalarNode else resolve(self, kind, *args))
    monkeypatch.setattr(yaml.constructor.SafeConstructor, "construct_yaml_float", unused)
    matrix = config._matrix(yaml.compose("[[1.5, -0.0, -1.0e-05]]", Loader=loader), "kernel.matrix")
    assert [_key(x) for x in matrix[0]] == [_key(1.5), _key(-0.0), _key(-1.0e-05)]


@pytest.mark.parametrize("loader", LOADERS)
def test_an_integer_past_the_digit_limit_of_int_is_read_as_its_text(loader):
    # PyYAML's int() raises ValueError, before any field could name the scalar
    long = "9" * 5000
    node = yaml.compose(f"[{long}, -{long}, 1_{long}]", Loader=loader)
    assert [config._number(n, "x") for n in node.value] == [math.inf, -math.inf, math.inf]
    with pytest.raises(ConfigError) as err:
        config._integer(node.value[0], "mc.samples", least=1)
    assert str(err.value) == f"mc.samples must be an integer in [1, 2**64), got '{'9' * 32}'... (5000 characters)"
