"""The float and integer domains of every input.

Every number is zero or has a magnitude in ``[2^-b, 2^b]``, and every count,
seed and atom index is an integer in ``[least, 2^bits)``.  Inputs outside
them are config errors that name their field, and inputs at the ends of the
float domain run every command with no numpy warning (``pyproject.toml``
makes one a test error), no ``null`` value and a finite Monte Carlo standard
error.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from setkern.cli import COMMANDS, main
from setkern.config import SCHEMA, load_config
from setkern.errors import ConfigError
from setkern.linalg import DOMAIN_BITS, SAMPLE_BITS, require_integer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DOMAIN = f"outside the float domain: zero or in [2^-{DOMAIN_BITS}, 2^{DOMAIN_BITS}]"
TOP, LOW = (repr(2.0**e) for e in (DOMAIN_BITS, -DOMAIN_BITS))


def _run(tmp_path, command, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / f"{command}.jsonl"
    result = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out), "--samples", "1000"],
                                env={"SETKERN_OUT": str(tmp_path)})
    return result, out


def _shipped(name, old, new):
    text = (CONFIGS / f"{name}.yaml").read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("text, line", [
    # validate, factorize and simulate ended in OverflowError from GramMatrix.schwarz's scale**2
    (lambda: _shipped("wiener", "weights: [1.0, 2.0, 0.5]", "weights: [1.0e308, 2.0, 0.5]"),
     f"config error: space: weight of atom 'a' is 1e+308, {DOMAIN}"),
    # D^{1/2} P D^{-1/2} overflowed, and contractivity and transience were recorded as null
    (lambda: _shipped("stochastic-chain", "weights: [1.0, 1.0]", "weights: [1.0e-320, 1.0e300]"),
     f"config error: space: weight of atom 'a' is 1e-320, {DOMAIN}"),
    # the degree-8 Monte Carlo moment overflowed, and ito-isometry passed with std_error null
    (lambda: "space: {atoms: [a], weights: [3.4e38]}\nkernel: {type: operator, matrix: [[3.4e38]]}\n"
             "family: [[a]]\nphi: [[3.4e38, [a]]]\n",
     f"config error: space: weight of atom 'a' is 3.4e+38, {DOMAIN}"),
    # a YAML integer past the float range ended in float()'s OverflowError
    (lambda: _shipped("wiener", "weights: [1.0, 2.0, 0.5]", f"weights: [{10**400}, 2.0, 0.5]"),
     f"config error: space: weight of atom 'a' is inf, {DOMAIN}"),
    # past the 4,300 digits that int() reads, PyYAML's int() raised ValueError out of yaml.load: a traceback
    (lambda: _shipped("wiener", "weights: [1.0, 2.0, 0.5]", f"weights: [{'9' * 5000}, 2.0, 0.5]"),
     f"config error: space: weight of atom 'a' is inf, {DOMAIN}"),
    (lambda: _shipped("wiener", "- [1.0, [a]]", f"- [-{10**400}, [a]]"),
     f"config error: phi: term 0 coefficient is -inf, {DOMAIN.replace('in [', 'of magnitude in [')}"),
    # the message named the field but not the entry
    (lambda: f"space: {{atoms: [a, b], weights: [1.0, 1.0]}}\nkernel: {{type: operator, matrix: [[1.0, 0.0], [0.0, {10**400}]]}}\n",
     "config error: kernel.matrix[1][1] is an integer past the float range"),
    (lambda: _shipped("stochastic-chain", "- [1.0, 0.0]", f"- [-{10**400}, 0.0]"),
     "config error: chain.transitions[1][0] is an integer past the float range"),
], ids=["wiener-huge-weight", "chain-weight-span", "degree-8-moment", "integer-weight", "digit-limit-weight",
        "integer-coefficient", "integer-entry", "integer-transition"])
@pytest.mark.parametrize("command", [c[0] for c in COMMANDS])
def test_an_input_outside_the_float_domain_is_one_config_error_line(tmp_path, text, line, command):
    result, out = _run(tmp_path, command, text())
    assert (result.exit_code, result.output.splitlines()) == (2, [line]), result.exception
    assert not out.exists()


def _wiener(w, c):
    return (f"space: {{atoms: [a, b, c], weights: [{w[0]}, {w[1]}, {w[2]}]}}\nkernel: {{type: wiener}}\n"
            f"family: [[a, b], [b, c]]\nphi: [[{c[0]}, [a]], [{c[1]}, [b]]]\npsi: [[{c[2]}, [a, b]]]\n")


def _operator(w, m, c):
    return (f"space: {{atoms: [a, b], weights: [{w[0]}, {w[1]}]}}\n"
            f"kernel: {{type: operator, matrix: [[{m[0]}, {m[1]}], [{m[2]}, {m[3]}]]}}\n"
            f"family: [[a, b]]\nphi: [[{c[0]}, [a]], [{c[1]}, [b]]]\npsi: [[{c[1]}, [a, b]]]\n")


def _chain(c, kill, coef):
    return (f"space: {{atoms: [a, b]}}\nchain: {{edges: [[a, b, {c}]], kill: {{a: {kill[0]}, b: {kill[1]}}}}}\n"
            f"kernel: {{type: green}}\nfamily: [[a, b]]\nphi: [[{coef[0]}, [a]], [{coef[1]}, [b]]]\n"
            f"psi: [[{coef[1]}, [a, b]]]\n")


PARTITIONS = "partitions:\n  - [[{0}]]\n  - [[{1}], [{2}]]\n"
CORNERS = {
    "wiener-top": _wiener((TOP, TOP, TOP), (TOP, TOP, TOP)) + PARTITIONS.format("a, b, c", "a", "b, c"),
    "wiener-low": _wiener((LOW, LOW, LOW), (LOW, LOW, LOW)) + PARTITIONS.format("a, b, c", "a, b", "c"),
    "wiener-span": _wiener((TOP, LOW, TOP), (LOW, TOP, LOW)) + PARTITIONS.format("a, b, c", "a", "b, c"),
    "operator-top": _operator((TOP, TOP), (TOP, LOW, LOW, TOP), (TOP, TOP)) + PARTITIONS.format("a, b", "a", "b"),
    "operator-low": _operator((LOW, LOW), (LOW, LOW, LOW, LOW), (LOW, LOW)) + PARTITIONS.format("a, b", "a", "b"),
    # w(a) M[a,b] = w(b) M[b,a] = 1, and M is rank one: its eigenvalues are 0 and 2^b + 2^-b
    "operator-span": _operator((TOP, LOW), (TOP, LOW, TOP, LOW), (LOW, TOP)) + PARTITIONS.format("a, b", "a", "b"),
    # the derived weights are 2^b + 2^-b, which rounds to 2^b, and 2^(1-b)
    "chain-top": _chain(LOW, (TOP, TOP), (TOP, TOP)) + PARTITIONS.format("a, b", "a", "b"),
    "chain-low": _chain(LOW, (LOW, LOW), (LOW, LOW)) + PARTITIONS.format("a, b", "a", "b"),
    "chain-span": _chain(LOW, (TOP, LOW), (LOW, TOP)) + PARTITIONS.format("a, b", "a", "b"),
}


@pytest.mark.parametrize("name", CORNERS)
def test_every_command_runs_at_the_ends_of_the_float_domain(tmp_path, name):
    text = CORNERS[name]
    for command, *_ in COMMANDS:
        result, out = _run(tmp_path, command, text)
        if command in SCHEMA["chain"].required_by and "chain" not in text:
            assert result.exit_code == 2 and result.output == f"config error: {command} requires a chain section\n"
            continue
        assert result.exit_code in (0, 1) and not isinstance(result.exception, Exception), (command, result.output)
        records = [json.loads(line) for line in out.read_text().splitlines()[1:]]
        assert records, command
        for r in records:
            assert r["value"] is not None, (command, r)
        if command == "simulate":
            mc = [r for r in records if r["tag"] in ("ito-isometry", "cross-moment")]
            assert len(mc) == 2 and all(0.0 < r["detail"]["std_error"] < float("inf") for r in mc), mc


SAMPLES = f"must be an integer in [1, 2**{SAMPLE_BITS})"
SEED = "must be an integer in [0, 2**64)"


@pytest.mark.parametrize("args, entry, line", [
    # 10**400 ended in OverflowError from the chunk count and 2**64 in MemoryError, each a traceback with exit 1
    (["--samples", str(10**400)], None, f"--samples {SAMPLES}"),
    (["--samples", str(2**64)], None, f"--samples {SAMPLES}"),
    # past the sample count of the float-domain bound
    (["--samples", str(2**SAMPLE_BITS)], None, f"--samples {SAMPLES}"),
    # click's int type printed a usage screen for these
    (["--samples", "1.5"], None, f"--samples {SAMPLES}, got '1.5'"),
    (["--seed", "abc"], None, f"--seed {SEED}, got 'abc'"),
    (["--workers", "2.0"], None, "--workers must be an integer in [1, 2**64), got '2.0'"),
    # click's IntRange printed a usage screen for these
    (["--samples", "0"], None, f"--samples {SAMPLES}"),
    (["--seed", "-1"], None, f"--seed {SEED}"),
    (["--seed", str(2**64)], None, f"--seed {SEED}"),
    (["--workers", "0"], None, "--workers must be an integer in [1, 2**64)"),
    ([], f"samples: {2**SAMPLE_BITS}", f"mc.samples {SAMPLES}"),
    ([], "samples: 0", f"mc.samples {SAMPLES}"),
    ([], "seed: -1.0", f"mc.seed {SEED}"),
    ([], "seed: yes", f"mc.seed {SEED}, got True"),
    # past the 4,300 digits that int() reads, PyYAML's int() raised ValueError out of yaml.load: a traceback
    ([], f"samples: {'9' * 5000}", f"mc.samples {SAMPLES}, got '{'9' * 32}'... (5000 characters)"),
], ids=["samples-10^400", "samples-2^64", "samples-2^40", "samples-fraction", "seed-text", "workers-fraction", "samples-0",
        "seed-negative", "seed-2^64", "workers-0", "mc.samples-2^40", "mc.samples-0", "mc.seed-negative", "mc.seed-boolean",
        "mc.samples-digit-limit"])
@pytest.mark.parametrize("command", [c[0] for c in COMMANDS])
def test_an_integer_outside_its_domain_is_one_config_error_line(tmp_path, args, entry, line, command):
    # each is judged before the checks that a command needs, such as markov-green's chain, which wiener.yaml lacks
    text = _shipped("wiener", "samples: 200000\n  seed: 11", entry or "samples: 200000\n  seed: 11")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "report.jsonl"
    result = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out), *args],
                                env={"SETKERN_OUT": str(tmp_path)})
    assert (result.exit_code, result.output.splitlines()) == (2, [f"config error: {line}"]), result.exception
    assert not out.exists()


def test_a_flag_past_the_digit_limit_of_int_is_echoed_cut_short(tmp_path):
    # int() refuses text of more than 4300 digits, so the flag stayed text and its line echoed all 5,000: 5,065 bytes
    out = tmp_path / "report.jsonl"
    result = CliRunner().invoke(main, ["simulate", "--config", str(CONFIGS / "wiener.yaml"), "--out", str(out),
                                       "--samples", "9" * 5000], env={"SETKERN_OUT": str(tmp_path)})
    [line] = result.output.splitlines()
    assert (result.exit_code, line) == (2, f"config error: --samples {SAMPLES}, got '{'9' * 32}'... (5000 characters)")
    assert len(line.encode()) < 200
    assert not out.exists()


def test_the_ends_of_the_sample_and_seed_ranges_are_accepted(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_shipped("wiener", "samples: 200000\n  seed: 11", f"samples: {2**SAMPLE_BITS - 1}\n  seed: {2**64 - 1}"))
    config = load_config(cfg)
    assert (config.samples, config.seed) == (2**SAMPLE_BITS - 1, 2**64 - 1)


@pytest.mark.parametrize("value, least, bits", [
    (0, 0, 64), (2**64 - 1, 0, 64), (np.uint64(2**64 - 1), 0, 64), (np.int8(1), 1, SAMPLE_BITS), (2**SAMPLE_BITS - 1, 1, SAMPLE_BITS),
])
def test_an_integer_in_its_range_is_returned_as_an_int(value, least, bits):
    number = require_integer(value, "x", ConfigError, least=least, bits=bits)
    assert type(number) is int and number == int(value)


@pytest.mark.parametrize("value, least, bits, got", [
    (-1, 0, 64, ""), (2**64, 0, 64, ""), (0, 1, SAMPLE_BITS, ""), (2**SAMPLE_BITS, 1, SAMPLE_BITS, ""),
    (True, 0, 64, ", got True"), (np.True_, 0, 64, ", got np.True_"), (1.0, 0, 64, ", got 1.0"),
    ("3", 0, 64, ", got '3'"), (None, 0, 64, ", got None"),
])
def test_anything_else_is_rejected_naming_the_field_and_the_range(value, least, bits, got):
    with pytest.raises(ConfigError) as err:
        require_integer(value, "x", ConfigError, least=least, bits=bits)
    assert str(err.value) == f"x must be an integer in [{least}, 2**{bits}){got}"
