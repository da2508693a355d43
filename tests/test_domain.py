"""The float domain: every input is zero or has a magnitude in ``[2^-b, 2^b]``.

Inputs outside it are config errors that name their field, and inputs at its
ends run every command with no numpy warning (``pyproject.toml`` makes one a
test error), no ``null`` value and a finite Monte Carlo standard error.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from setkern.cli import COMMANDS, main
from setkern.linalg import DOMAIN_BITS

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
    (lambda: _shipped("wiener", "- [1.0, [a]]", f"- [-{10**400}, [a]]"),
     f"config error: phi: term 0 coefficient is -inf, {DOMAIN.replace('in [', 'of magnitude in [')}"),
    # the message named the field but not the entry
    (lambda: f"space: {{atoms: [a, b], weights: [1.0, 1.0]}}\nkernel: {{type: operator, matrix: [[1.0, 0.0], [0.0, {10**400}]]}}\n",
     "config error: kernel.matrix[1][1] is an integer past the float range"),
    (lambda: _shipped("stochastic-chain", "- [1.0, 0.0]", f"- [-{10**400}, 0.0]"),
     "config error: chain.transitions[1][0] is an integer past the float range"),
], ids=["wiener-huge-weight", "chain-weight-span", "degree-8-moment", "integer-weight", "integer-coefficient",
        "integer-entry", "integer-transition"])
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
    for command, _, requires, _ in COMMANDS:
        result, out = _run(tmp_path, command, text)
        if "chain" in requires and "chain" not in text:
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
