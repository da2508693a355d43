"""Command-line front-end: exit codes, report format, determinism, exports."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from setkern import (
    Factorization, MeasureSpace, SetKernel, check_series, counting_kernel, factorization, green, kernels, markov, realize,
)
from setkern.cli import CHECKS, COMMANDS, SUITES, Run, _adjoint, main
from setkern.config import KERNEL_TYPES, SCHEMA, TOLERANCES, load_config
from setkern.errors import ConfigError, InvalidChainError, InvalidOperatorError, SetKernError, VerificationError
from setkern.linalg import DOMAIN_BITS, Verdict, selfadjoint_defect
from setkern.report import CheckRecord, RunReport
from support import random_nu_psd_matrix, random_sets, random_space

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DOMAIN = f"outside the float domain: zero or in [2^-{DOMAIN_BITS}, 2^{DOMAIN_BITS}]"
SIGNED_DOMAIN = f"outside the float domain: zero or of magnitude in [2^-{DOMAIN_BITS}, 2^{DOMAIN_BITS}]"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, tmp_path, *args):
    return runner.invoke(main, list(args), env={"SETKERN_OUT": str(tmp_path)})


def read_records(path):
    lines = Path(path).read_text().splitlines()
    meta = json.loads(lines[0])["meta"]
    records = [json.loads(l) for l in lines[1:]]
    return meta, records


# ---------------------------------------------------------------------------
# exit codes


def test_validate_passes_on_wiener(runner, tmp_path):
    out = tmp_path / "v.jsonl"
    result = invoke(runner, tmp_path, "validate", "--config", str(CONFIGS / "wiener.yaml"), "--out", str(out))
    assert result.exit_code == 0
    meta, records = read_records(out)
    assert meta["command"] == "validate"
    assert all(r["status"] == "pass" for r in records)
    assert {r["check"] for r in records} == {"symmetry", "gram-psd", "schwarz", "absolute-continuity"}


def test_counting_kernel_violation_is_reported(runner, tmp_path):
    out = tmp_path / "c.jsonl"
    result = invoke(
        runner, tmp_path, "validate", "--config", str(CONFIGS / "counting-null-atom.yaml"), "--out", str(out)
    )
    assert result.exit_code == 1
    _, records = read_records(out)
    by_check = {r["check"]: r for r in records}
    assert by_check["absolute-continuity"]["status"] == "fail"
    assert by_check["absolute-continuity"]["value"] == 1.0
    assert by_check["gram-psd"]["status"] == "pass"


def test_stochastic_chain_not_transient_in_report(runner, tmp_path):
    out = tmp_path / "s.jsonl"
    result = invoke(
        runner, tmp_path, "validate", "--config", str(CONFIGS / "stochastic-chain.yaml"), "--out", str(out)
    )
    assert result.exit_code == 1
    _, records = read_records(out)
    by_check = {r["check"]: r for r in records}
    assert by_check["transience"]["status"] == "fail"
    assert by_check["transience"]["value"] == pytest.approx(1.0)
    assert by_check["detailed-balance"]["status"] == "pass"


@pytest.mark.parametrize("command", ["validate", "factorize", "markov-green"])
def test_a_non_reversible_chain_on_a_subnormal_weight_is_a_config_error(runner, tmp_path, command):
    # P* = D^{-1} P^T D overflowed at w = 1e-320: numpy's warnings, and both rows recorded null;
    # then the rows read 1e160; now the weight is outside the float domain
    text = (CONFIGS / "stochastic-chain.yaml").read_text()
    assert "weights: [1.0, 1.0]" in text
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text.replace("weights: [1.0, 1.0]", "weights: [1.0e-320, 1.0]"))
    result = invoke(runner, tmp_path, command, "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"config error: space: weight of atom 'a' is 1e-320, {DOMAIN}"]
    # at the least weight of the domain, both rows record the finite norm 2^(b/2)
    cfg.write_text(text.replace("weights: [1.0, 1.0]", f"weights: [{2.0**-DOMAIN_BITS!r}, 1.0]"))
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    by_check = {r["check"]: r for r in read_records(out)[1]}
    for name in ("contractivity", "transience"):
        assert by_check[name]["status"] == "fail"
        assert by_check[name]["value"] == pytest.approx(2.0 ** (DOMAIN_BITS / 2), rel=1e-12)


def test_missing_config_is_a_usage_error(runner, tmp_path):
    result = invoke(runner, tmp_path, "validate", "--config", str(tmp_path / "nope.yaml"))
    assert result.exit_code == 2


def test_malformed_yaml_is_a_config_error(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("space: [unclosed\n")
    result = invoke(runner, tmp_path, "validate", "--config", str(bad))
    assert result.exit_code == 2


def test_unordered_partitions_are_a_config_error(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "space: {atoms: [a, b], weights: [1.0, 1.0]}\n"
        "kernel: {type: wiener}\n"
        "partitions:\n"
        "  - [[a], [b]]\n"
        "  - [[a, b]]\n"
    )
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg))
    assert result.exit_code == 2


def test_the_refinement_error_names_the_failing_pair(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "space: {atoms: [a, b, c], weights: [1.0, 2.0, 0.5]}\n"
        "kernel: {type: wiener}\n"
        "partitions:\n"
        "  - [[a, b, c]]\n"
        "  - [[a], [b, c]]\n"
        "  - [[a, b], [c]]\n"
    )
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg))
    assert result.exit_code == 2
    assert "partitions[2] does not refine partitions[1]" in result.output


def test_simulate_requires_phi(runner, tmp_path):
    result = invoke(runner, tmp_path, "simulate", "--config", str(CONFIGS / "rank-one.yaml"))
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# factorize


def test_factorize_wiener_exports_indicators(runner, tmp_path):
    out = tmp_path / "f.jsonl"
    export = tmp_path / "fact.json"
    result = invoke(
        runner,
        tmp_path,
        "factorize",
        "--config",
        str(CONFIGS / "wiener.yaml"),
        "--out",
        str(out),
        "--export",
        str(export),
    )
    assert result.exit_code == 0
    data = json.loads(export.read_text())
    by_set = {tuple(e["set"]): e["vector"] for e in data["k"]}
    np.testing.assert_allclose(by_set[("a", "b")], [1.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(data["T"], np.eye(3), atol=1e-12)


def test_factorize_rank_one_reports_unit_rank(runner, tmp_path):
    out = tmp_path / "r.jsonl"
    result = invoke(
        runner, tmp_path, "factorize", "--config", str(CONFIGS / "rank-one.yaml"), "--out", str(out)
    )
    assert result.exit_code == 0
    _, records = read_records(out)
    by_check = {r["check"]: r for r in records}
    assert by_check["range-rank"]["value"] == 1.0
    assert by_check["range-rank"]["status"] == "pass"


def test_factorize_green_exports_fundamental_matrix(runner, tmp_path):
    export = tmp_path / "green.json"
    result = invoke(
        runner,
        tmp_path,
        "factorize",
        "--config",
        str(CONFIGS / "two-state-green.yaml"),
        "--export",
        str(export),
    )
    assert result.exit_code == 0
    data = json.loads(export.read_text())
    expected = [[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]]
    np.testing.assert_allclose(data["T"], expected, atol=1e-12)


def test_factorize_counting_kernel_fails_before_realizing(runner, tmp_path):
    out = tmp_path / "c.jsonl"
    result = invoke(
        runner,
        tmp_path,
        "factorize",
        "--config",
        str(CONFIGS / "counting-null-atom.yaml"),
        "--out",
        str(out),
    )
    assert result.exit_code == 1
    _, records = read_records(out)
    checks = {r["check"] for r in records}
    assert "realization" not in checks  # pipeline stops at validation
    assert not (tmp_path / "factorization.json").exists()  # and exports nothing


# ---------------------------------------------------------------------------
# markov-green


def test_markov_green_two_state(runner, tmp_path):
    out = tmp_path / "mg.jsonl"
    result = invoke(
        runner, tmp_path, "markov-green", "--config", str(CONFIGS / "two-state-green.yaml"), "--out", str(out)
    )
    assert result.exit_code == 0
    _, records = read_records(out)
    by_check = {r["check"]: r for r in records}
    assert by_check["transience"]["value"] == pytest.approx(0.5)
    assert by_check["green-identity"]["status"] == "pass"
    assert by_check["green-factor"]["status"] == "pass"
    assert list(by_check) == ["detailed-balance", "contractivity", "transience", "spectral-gap", "green-identity",
                              "series-solve", "green-psd", "green-factor"]


def test_markov_green_requires_chain(runner, tmp_path):
    result = invoke(runner, tmp_path, "markov-green", "--config", str(CONFIGS / "wiener.yaml"))
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# simulate and refine-sweep


def test_simulate_passes_and_is_deterministic(runner, tmp_path):
    out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    args = ["simulate", "--config", str(CONFIGS / "wiener.yaml"), "--samples", "20000"]
    r1 = invoke(runner, tmp_path, *args, "--out", str(out1))
    r2 = invoke(runner, tmp_path, *args, "--out", str(out2), "--workers", "4")
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, records = read_records(out1)
    checks = {r["check"] for r in records}
    assert {"ito-isometry", "cross-moment", "q-monotone", "q-bound", "q-attained"} <= checks


def test_simulate_seed_changes_report(runner, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simulate", "--config", str(CONFIGS / "wiener.yaml"), "--samples", "20000"]
    invoke(runner, tmp_path, *args, "--out", str(out1), "--seed", "1")
    invoke(runner, tmp_path, *args, "--out", str(out2), "--seed", "2")
    assert out1.read_bytes() != out2.read_bytes()


def test_monte_carlo_rows_carry_their_moments_and_normals(runner, tmp_path):
    out, csv_path = tmp_path / "s.jsonl", tmp_path / "s.csv"
    args = ["simulate", "--config", str(CONFIGS / "wiener.yaml"), "--samples", "20000"]
    result = invoke(runner, tmp_path, *args, "--out", str(out), "--csv", str(csv_path))
    assert result.exit_code == 0
    _, records = read_records(out)
    by_check = {r["check"]: r for r in records}
    # phi on {a}, {b}: the isometry draws one column, the cross moment with psi on {a, b} two
    for check, width in (("ito-isometry", 1), ("cross-moment", 2)):
        detail = by_check[check]["detail"]
        assert sorted(detail) == ["estimate", "exact", "n_samples", "normals", "std_error"]
        assert (detail["n_samples"], detail["normals"]) == (20000, 20000 * width)
        sigmas = abs(detail["estimate"] - detail["exact"]) / detail["std_error"]
        assert by_check[check]["value"] == pytest.approx(sigmas, rel=1e-12)
    assert by_check["ito-isometry"]["detail"]["exact"] == pytest.approx(9.0, rel=1e-12)  # |phi|^2_w = 1 + 4 * 2
    assert [r["check"] for r in records if "detail" in r] == ["ito-isometry", "cross-moment"]
    assert csv_path.read_text().splitlines()[0] == "check,tag,status,value,bound,runtime"


def test_a_rank_one_monte_carlo_row_keeps_its_bytes_besides_the_detail(runner, tmp_path):
    # two-state-green samples the one set {1}: its rank-one row, the detail aside, is the golden record to the byte
    golden = CONFIGS.parent / "tests" / "golden" / "two-state-green.simulate.jsonl"
    out = tmp_path / "s.jsonl"
    result = invoke(runner, tmp_path, "simulate", "--config", str(CONFIGS / "two-state-green.yaml"), "--out", str(out))
    assert result.exit_code == 0
    row = json.loads(out.read_text().splitlines()[-1])
    assert row["detail"]["normals"] == 200000
    del row["detail"]
    assert json.dumps(row, sort_keys=True) == golden.read_text().splitlines()[-1]


# a 4-atom operator kernel whose atom Gram has eigenvalues from 8e-13 to 1.2: every q row must still pass
ILL_CONDITIONED = """\
space: {atoms: [x0, x1, x2, x3], weights: [0.58, 1.26, 1.28, 0.9]}
kernel:
  type: operator
  matrix: [[0.001068159101960062, 0.014252260850859904, -0.04213576277510385, -0.015984701513540124], [0.0065605645186497955, 0.08763687699777253, -0.25939403958188595, -0.09837810600300512], [-0.019092767507468928, -0.25534100771341894, 0.756675259274543, 0.2868999533621744], [-0.010301252086503633, -0.13772934840420717, 0.40803548922620353, 0.15471971462672424]]
phi: [[1.0, [x0, x1]], [-0.7, [x1, x2, x3]]]
partitions:
  - [[x0, x1, x2, x3]]
  - [[x0, x1], [x2, x3]]
  - [[x0], [x1], [x2], [x3]]
"""


def test_refine_sweep_records_levels(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    for text in ((CONFIGS / "wiener.yaml").read_text(), ILL_CONDITIONED):
        cfg.write_text(text)
        out = tmp_path / "q.jsonl"
        result = invoke(runner, tmp_path, "refine-sweep", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.output
        _, records = read_records(out)
        by_check = {r["check"]: r for r in records}
        assert by_check["q-level-0"]["value"] <= by_check["q-level-1"]["value"] + 1e-10
        assert by_check["q-level-1"]["value"] <= by_check["q-level-2"]["value"] + 1e-10
        assert list(by_check) == ["q-level-0", "q-level-1", "q-level-2", "q-monotone", "q-bound", "q-attained"]
        assert all(r["status"] == "pass" for r in records), records


def test_refine_sweep_passes_for_phi_in_the_null_space_of_S(runner, tmp_path):
    # T = 1 w^T, so S phi = 0 for a mean-zero phi and every q_n is roundoff:
    # the q rows must bound that roundoff by |phi|^2_w lambda_max(T), not by |S phi|^2_w
    cfg = tmp_path / "mean-zero.yaml"
    cfg.write_text(CONFIGS.joinpath("rank-one.yaml").read_text() + (
        "phi:\n  - [2.0, [a]]\n  - [-3.3333333333333335, [b]]\n"
        "partitions:\n  - [[a, b, c]]\n  - [[a], [b, c]]\n  - [[a], [b], [c]]\n"
    ))
    out = tmp_path / "q.jsonl"
    result = invoke(runner, tmp_path, "refine-sweep", "--config", str(cfg), "--out", str(out))
    _, records = read_records(out)
    by_check = {r["check"]: r for r in records}
    assert result.exit_code == 0, records
    assert {by_check[c]["status"] for c in ("q-monotone", "q-bound", "q-attained")} == {"pass"}
    assert by_check["q-attained"]["bound"] > 1e-12


@pytest.mark.parametrize("name, config, term, huge", [
    ("phi", "wiener", "- [1.0, [a]]", "- [1.0e308, [a]]"),
    ("psi", "wiener", "- [1.0, [a, b]]", "- [1.0e308, [a, b]]"),
    # the values overflow at the null atom c, where the weight times inf is nan
    ("phi", "counting-null-atom", "family:", "phi: [[1.0e308, [c]], [1.0e308, [c]]]\nfamily:"),
], ids=["phi", "psi", "null-atom"])
def test_an_integrand_whose_norm_overflows_is_a_config_error(runner, tmp_path, name, config, term, huge):
    # simulate printed numpy's overflow warning and exited 1, with every q-level row passing on a null value;
    # then |phi|^2_w was judged after the fact; now the coefficient is outside the float domain
    text = (CONFIGS / f"{config}.yaml").read_text()
    assert term in text
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text.replace(term, huge))
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, "simulate", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"config error: {name}: term 0 coefficient is 1e+308, {SIGNED_DOMAIN}"]
    assert not out.exists()


def test_a_projection_moment_past_the_float_range_is_a_config_error(runner, tmp_path):
    # q = 1e310 overflowed to inf, and its q-level row passed with the value null; then it failed
    # its row, but numpy's overflow warnings from q and |S phi|^2_w reached stderr
    text = ("space: {atoms: [a, b], weights: [1.0, 1.0]}\n"
            "kernel: {type: operator, matrix: [[1.0e10, 0.0], [0.0, 1.0e10]]}\n"
            "phi: [[1.0e150, [a]]]\npartitions:\n  - [[a, b]]\n  - [[a], [b]]\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    result = invoke(runner, tmp_path, "refine-sweep", "--config", str(cfg))
    assert result.exit_code == 2
    assert result.output.splitlines() == [f"config error: phi: term 0 coefficient is 1e+150, {SIGNED_DOMAIN}"]
    # every input at the top of the domain: q = w M c^2 = 2^(4b) is finite, and every row passes on it
    top = f"{2.0**DOMAIN_BITS!r}"
    cfg.write_text(text.replace("1.0e150", top).replace("1.0e10", top).replace("1.0, 1.0", f"{top}, {top}"))
    out = tmp_path / "q.jsonl"
    result = invoke(runner, tmp_path, "refine-sweep", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 0, result.output
    by_check = {r["check"]: r for r in read_records(out)[1]}
    q = [by_check[f"q-level-{i}"]["value"] for i in (0, 1)]
    assert q == pytest.approx([2.0 ** (4 * DOMAIN_BITS) / 2, 2.0 ** (4 * DOMAIN_BITS)], rel=1e-12)


# ---------------------------------------------------------------------------
# flags and formats


def test_tolerance_override_is_recorded_and_applied(runner, tmp_path):
    out = tmp_path / "t.jsonl"
    result = invoke(
        runner,
        tmp_path,
        "factorize",
        "--config",
        str(CONFIGS / "rank-one.yaml"),
        "--out",
        str(out),
        "--tol",
        "isometry=1e-20",
    )
    assert result.exit_code == 1  # machine epsilon exceeds the absurd bound (the Wiener isometry row is exactly 0)
    meta, records = read_records(out)
    assert meta["tolerances"]["isometry"] == 1e-20
    by_check = {r["check"]: r for r in records}
    assert by_check["isometry"]["status"] == "fail"


def test_unknown_tolerance_is_rejected(runner, tmp_path):
    result = invoke(
        runner, tmp_path, "validate", "--config", str(CONFIGS / "wiener.yaml"), "--tol", "bogus=1"
    )
    assert result.exit_code == 2


def test_csv_table_is_written(runner, tmp_path):
    out = tmp_path / "v.jsonl"
    csv_path = tmp_path / "v.csv"
    invoke(
        runner,
        tmp_path,
        "validate",
        "--config",
        str(CONFIGS / "wiener.yaml"),
        "--out",
        str(out),
        "--csv",
        str(csv_path),
    )
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "check,tag,status,value,bound,runtime"
    assert len(lines) == 5


def test_every_output_file_gets_its_directory(runner, tmp_path):
    # --csv into a missing directory wrote the report, then ended in FileNotFoundError with exit 1
    out, csv_path, export = tmp_path / "a" / "r.jsonl", tmp_path / "b" / "r.csv", tmp_path / "c" / "f.json"
    result = invoke(runner, tmp_path, "factorize", "--config", str(CONFIGS / "wiener.yaml"),
                    "--out", str(out), "--csv", str(csv_path), "--export", str(export))
    assert result.exit_code == 0, result.output
    assert out.exists() and export.exists()
    assert csv_path.read_text().splitlines()[0] == "check,tag,status,value,bound,runtime"


def test_timings_flag_populates_runtime(runner, tmp_path):
    out = tmp_path / "v.jsonl"
    invoke(
        runner,
        tmp_path,
        "validate",
        "--config",
        str(CONFIGS / "wiener.yaml"),
        "--out",
        str(out),
        "--timings",
    )
    _, records = read_records(out)
    assert all(isinstance(r["runtime"], float) for r in records)


def test_default_output_uses_env_dir(runner, tmp_path):
    result = invoke(runner, tmp_path, "validate", "--config", str(CONFIGS / "wiener.yaml"))
    assert result.exit_code == 0
    assert (tmp_path / "validate-report.jsonl").exists()


# ---------------------------------------------------------------------------
# config faults: each exits 2 and names the field


WIENER_SPACE = "space: {atoms: [a, b], weights: [1.0, 1.0]}\n"


def _config_error(runner, tmp_path, text):
    """The output of ``validate`` on ``text``, which must be one config error line with exit 2 and no report."""
    cfg, out = tmp_path / "cfg.yaml", tmp_path / "r.jsonl"
    cfg.write_text(text)
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert len(result.output.splitlines()) == 1 and result.output.startswith("config error: "), result.output
    assert not out.exists()
    return result.output


@pytest.mark.parametrize("entry", [".nan", ".inf", "-.inf"])
def test_nonfinite_kernel_matrix_is_a_config_error(runner, tmp_path, entry):
    output = _config_error(
        runner,
        tmp_path,
        WIENER_SPACE
        + f"kernel: {{type: operator, matrix: [[{entry}, 0.0], [0.0, 1.0]]}}\n"
        + "checks: [gram-psd]\n",
    )
    assert f"kernel.matrix: M['a', 'a'] is {float(entry.replace('.', ''))!r}, {SIGNED_DOMAIN}" in output


def test_an_indefinite_kernel_matrix_is_a_config_error_for_a_command_that_never_reads_it(runner, tmp_path):
    # the matrix was checked only when a command built the kernel, so markov-green exited 0
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(WIENER_SPACE + "chain: {transitions: [[0.0, 0.5], [0.5, 0.0]]}\n"
                   "kernel: {type: operator, matrix: [[1.0, 2.0], [2.0, 1.0]]}\n")
    result = invoke(runner, tmp_path, "markov-green", "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert "kernel.matrix" in result.output and "indefinite" in result.output


@pytest.mark.parametrize("command", ["validate", "factorize", "markov-green", "simulate", "refine-sweep"])
def test_a_green_kernel_without_a_chain_is_a_config_error_for_every_command(runner, tmp_path, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(WIENER_SPACE + "kernel: {type: green}\n")
    result = invoke(runner, tmp_path, command, "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert "kernel.type green requires a chain section" in result.output


def test_a_builtin_kernel_that_overflows_is_a_config_error(runner, tmp_path):
    # w w^T overflows at w = 1e200: validate recorded 0/4 checks with no value and exited 1
    output = _config_error(runner, tmp_path, "space: {atoms: [a, b], weights: [1.0e200, 1.0]}\nkernel: {type: rank_one}")
    assert f"config error: space: weight of atom 'a' is 1e+200, {DOMAIN}" in output


@pytest.mark.parametrize("command", ["validate", "factorize", "markov-green", "simulate", "refine-sweep"])
def test_a_density_that_overflows_is_a_config_error_for_every_command(runner, tmp_path, command):
    # 1 / w(x) overflows at w = 1e-320: numpy's warning, then factorize failed realization and six rows valued null
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("space: {atoms: [a, b], weights: [1.0e-320, 1.0]}\nkernel: {type: counting}\n")
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"config error: space: weight of atom 'a' is 1e-320, {DOMAIN}"]
    assert not out.exists()


def test_an_operator_product_that_overflows_is_a_config_error(runner, tmp_path):
    # read as "matrix is not selfadjoint ...: defect nan > 1e-10 × max|wM| = inf", after two numpy warnings
    output = _config_error(runner, tmp_path, "space: {atoms: [a, b], weights: [1.0e200, 1.0]}\n"
                                             "kernel: {type: operator, matrix: [[1.0e200, 0.0], [0.0, 1.0]]}\n")
    assert f"config error: space: weight of atom 'a' is 1e+200, {DOMAIN}" in output


@pytest.mark.parametrize("matrix, message", [
    # read as "matrix is indefinite: -lambda_min nan > 1e-10 × lambda_max = nan"
    ("[[1.0e308, 1.0e308], [1.0e308, 1.0e308]]", f"M['a', 'a'] is 1e+308, {SIGNED_DOMAIN}"),
    # the message was right, but numpy's overflow warning reached stderr first
    ("[[1.0, 1.0e308], [-1.0e308, 1.0]]", f"M['a', 'b'] is 1e+308, {SIGNED_DOMAIN}"),
], ids=["spectrum", "defect"])
def test_an_operator_matrix_past_the_float_range_is_a_config_error(runner, tmp_path, matrix, message):
    output = _config_error(runner, tmp_path, f"space: {{atoms: [a, b], weights: [1.0, 1.0]}}\nkernel: {{type: operator, matrix: {matrix}}}\n")
    assert f"config error: kernel.matrix: {message}" in output


TAGGED = "space: {atoms: [a, b], weights: [1.0, %s]}\n"


@pytest.mark.parametrize("text, at, tag, value", [
    (TAGGED % "!!int 1.5", "line 1, column 39", "int", "'1.5'"),
    # the sequence shortcut builds a float item without construct_object
    (TAGGED % "!!float 'x'", "line 1, column 39", "float", "'x'"),
    (WIENER_SPACE + "mc: {seed: !!int 1.5}\n", "line 2, column 12", "int", "'1.5'"),
    (TAGGED % "!!bool maybe", "line 1, column 39", "bool", "'maybe'"),
    (TAGGED % "!!timestamp x", "line 1, column 39", "timestamp", "'x'"),
], ids=["int-item", "float-item", "int-value", "bool-item", "timestamp-item"])
def test_a_tagged_scalar_its_constructor_refuses_is_one_config_error_line(runner, tmp_path, text, at, tag, value):
    # each escaped yaml.load as ValueError, KeyError or AttributeError: a traceback with exit 1
    output = _config_error(runner, tmp_path, text)
    assert output == f"config error: {tmp_path / 'cfg.yaml'}: {at}: could not construct 'tag:yaml.org,2002:{tag}' from {value}\n"


X = "x" * 5000
CUT = f"'{'x' * 32}'... (5000 characters)"
NINES = "9" * 5000


@pytest.mark.parametrize("text, args, line", [
    (WIENER_SPACE + f"tolerances: {{gram-psd: {NINES}}}\n", [],
     f"tolerances.gram-psd must be finite and nonnegative, got '{'9' * 32}'... (5000 characters)"),
    (WIENER_SPACE + "kernel: {type: wiener}\n", ["--tol", f"gram-psd={NINES}"],
     f"--tol gram-psd must be finite and nonnegative, got '{'9' * 32}'... (5000 characters)"),
    (WIENER_SPACE + "kernel: {type: wiener}\n", ["--tol", X], f"--tol expects NAME=VALUE, got {CUT}"),
    (WIENER_SPACE + "kernel: {type: wiener}\n", ["--tol", f"{X}=1.0"], f"--tol: unknown tolerance {CUT}, expected one of"),
    (WIENER_SPACE + f"kernel: {{type: {X}}}\n", [], f"kernel.type must be one of {KERNEL_TYPES}, got {CUT}"),
    (WIENER_SPACE + f"family: [[{X}]]\n", [], f"family[0]: unknown atom {CUT}"),
    (WIENER_SPACE + f"kernel: {{type: wiener}}\nchecks: [{X}]\n", [], f"checks: unknown check {CUT}"),
    (f"space:\n  atoms: [a, b]\n  weights: [1.0, 1.0]\n  ? {X}\n  : 1\n", [], f"space: unknown key {CUT}, expected one of"),
    (TAGGED % X, [], f"space.weights[1] must be a number, got {CUT}"),
    (f"space: {{atoms: [a, [{X}]], weights: [1.0, 1.0]}}\n", [],
     f"space.atoms[1] must be an atom name, got \"['{'x' * 30}\"... (5004 characters); quote"),
    (WIENER_SPACE + f"kernel: {{type: operator, matrix: [[1.0, {X}], [0.0, 1.0]]}}\n", [],
     f"kernel.matrix[0][1] must be a number, got {CUT}"),
    (f"space: {{atoms: [a, b]}}\nchain: {{edges: [[a, {X}, 1.0]]}}\n", [], f"chain: edge references unknown atom {CUT}"),
    (TAGGED % f"!<{X}> 1.0", [], f"could not determine a constructor for the tag {CUT}"),
    # a valid atom name of any length, in the library's own lines
    (f"space: {{atoms: [{X}, b], weights: [-1.0, 1.0]}}\n", [], f"space: weight of atom {CUT} is -1.0, outside"),
    (f"space: {{atoms: [{X}, b]}}\nchain: {{edges: [[{X}, b, .nan]]}}\n", [], f"chain: conductance on ({CUT},'b') is nan"),
    (f"space: {{atoms: [{X}, b]}}\nchain:\n  edges: [[{X}, b, 1.0]]\n  kill:\n    ? {X}\n    : .inf\n", [],
     f"chain: killing mass at {CUT} is inf"),
    (f"space: {{atoms: [{X}, b]}}\nchain: {{edges: [[b, b, 1.0]]}}\n", [], f"chain: atom {CUT} has neither conductance nor killing"),
    # the field path held the whole key: 5,055 bytes
    (f"space: {{atoms: [{X}, b]}}\nchain:\n  edges: [[{X}, b, 1.0]]\n  kill:\n    ? {X}\n    : oops\n", [],
     f"chain.kill[{CUT}] must be a number, got 'oops'"),
    (f"space: {{atoms: [{X}, b]}}\nchain:\n  edges: [[{X}, b, 1.0]]\n  kill:\n    ? {X}\n    : 1.0\n    ? {X}\n    : 2.0\n", [],
     f"chain.kill: duplicate key {CUT}"),
    (f"space: {{atoms: [{X}, b], weights: [1.0, 1.0]}}\nkernel: {{type: operator, matrix: [[1.0, 1.0e300], [0.0, 1.0]]}}\n", [],
     f"kernel.matrix: M[{CUT}, 'b'] is 1e+300"),
], ids=["tolerance", "tol-flag", "tol-flag-form", "tol-flag-name", "kernel-type", "family-atom", "check-name", "space-key",
        "weight", "atom-name", "matrix-entry", "edge-atom", "yaml-tag", "atom-weight", "atom-conductance", "atom-kill",
        "atom-no-mass", "kill-mass", "kill-duplicate-key", "atom-operator-entry"])
def test_every_echo_of_long_input_is_cut_to_one_short_line(runner, tmp_path, text, args, line):
    # each line echoed the whole value: 5,073 bytes for the tolerance
    cfg, out = tmp_path / "cfg.yaml", tmp_path / "r.jsonl"
    cfg.write_text(text)
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg), "--out", str(out), *args)
    [output] = result.output.replace(str(cfg), "cfg.yaml").splitlines()
    echoed = output.split(", expected one of")[0]  # the names a line offers are not input
    assert (result.exit_code, line in output, len(echoed.encode()) < 200) == (2, True, True), output[:300]
    assert not out.exists()


@pytest.mark.parametrize("build, line", [
    (lambda sp: SetKernel(sp, [[1.0, 0.0], [2.0**300, 1.0]]), f"Q['b', {CUT}] is "),
    (lambda sp: realize(counting_kernel(sp)), f"null atom {CUT}: max_y |K({{{CUT}}},{{y}})| = 1.000e+00"),
], ids=["atom-gram-entry", "null-atom"])
def test_a_long_atom_name_is_cut_in_the_library_lines_no_command_prints(build, line):
    # a custom Q and a realization refused by its null atom reach a report only as a failed row
    with pytest.raises(SetKernError) as err:
        build(MeasureSpace((X, "b"), (0.0, 1.0)))
    assert line in str(err.value) and len(str(err.value).encode()) < 300, str(err.value)[:400]  # the null atom is named twice


@pytest.mark.parametrize("matrix, message", [
    # read as "kernel.matrix must be a dense numeric matrix", with no index
    ("[[1.0, abc], [0.0, 1.0]]", "kernel.matrix[0][1] must be a number, got 'abc'"),
    ("[[1.0, abc], [0.0]]", "kernel.matrix[0][1] must be a number, got 'abc'"),
    (f"[[1.0, 1.0], [{10**400}, abc]]", "kernel.matrix[1][0] is an integer past the float range"),
    (f"[[1.0, [1.0]], [{10**400}, 1.0]]", "kernel.matrix[0][1] must be a number, got [1.0]"),
    # a boolean was named before any other entry
    ("[[1.0, abc], [yes, 1.0]]", "kernel.matrix[0][1] must be a number, got 'abc'"),
    ("[[1.0, 1.0], [yes, abc]]", "kernel.matrix[1][0] must be a number, got True"),
    # ragged rows of numbers, and a matrix of one level, name no entry
    ("[[1.0, 0.0], [0.0]]", "kernel.matrix must be a dense numeric matrix"),
    (f"[{10**400}]", "kernel.matrix must be a dense numeric matrix"),
], ids=["text", "ragged-text", "integer-first", "list-first", "text-before-boolean", "boolean-before-text", "ragged",
        "one-level-integer"])
def test_a_matrix_names_its_first_entry_that_is_no_number(runner, tmp_path, matrix, message):
    output = _config_error(runner, tmp_path, WIENER_SPACE + f"kernel: {{type: operator, matrix: {matrix}}}\n")
    assert output == f"config error: {message}\n"


def test_a_sequence_tag_on_a_scalar_is_one_config_error_line(runner, tmp_path):
    output = _config_error(runner, tmp_path, TAGGED % "!!seq abc")
    assert output == f"config error: {tmp_path / 'cfg.yaml'}: line 1, column 39: expected a sequence node, but found scalar\n"


def test_an_export_with_an_empty_family_set_is_indented_json(runner, tmp_path):
    cfg, export = tmp_path / "cfg.yaml", tmp_path / "f.json"
    cfg.write_text(WIENER_SPACE + "kernel: {type: wiener}\nfamily: [[]]\n")
    result = invoke(runner, tmp_path, "factorize", "--config", str(cfg), "--export", str(export))
    assert result.exit_code == 0, result.output
    config = load_config(cfg)
    expected = factorization.export_factorization(factorization.realize(config.kernel), config.family)
    assert [entry["set"] for entry in expected["k"]] == [["a"], ["b"], []]
    assert export.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_a_report_refuses_a_second_record_of_one_check():
    report = RunReport("validate", 0, 1, {})
    report.add(CheckRecord("symmetry", "kernel-symmetry", Verdict(0.0, 1.0, True)))
    with pytest.raises(ValueError, match="duplicate check record 'symmetry'"):
        report.add(CheckRecord("symmetry", "kernel-symmetry", Verdict(0.0, 1.0, True)))
    assert len(report.records) == 1


def test_duplicate_atoms_of_a_conductance_chain_are_a_config_error(runner, tmp_path):
    # read as "chain: atom 'a' has neither conductance nor killing"
    output = _config_error(runner, tmp_path, "space: {atoms: [a, a]}\nchain: {edges: [[a, a, 1.0]]}\n")
    assert "config error: chain: atom identifiers must be unique" in output


@pytest.mark.parametrize("weights", ["[1.0]", "[1.0, 1.0, 1.0]"])
def test_the_weight_count_next_to_chain_edges_is_named(runner, tmp_path, weights):
    # read as "space.weights disagree with the weights derived from chain.edges: inf > ..."
    output = _config_error(runner, tmp_path, f"space: {{atoms: [a, b], weights: {weights}}}\nchain: {{edges: [[a, b, 1.0]]}}\n")
    assert f"config error: space.weights: expected 2 weights, got {weights.count(',') + 1}" in output


def test_non_integer_sample_count_is_a_config_error(runner, tmp_path):
    output = _config_error(runner, tmp_path, WIENER_SPACE + "kernel: {type: wiener}\nmc: {samples: 1e3}\n")
    assert "mc.samples" in output


def test_non_numeric_weight_is_a_config_error(runner, tmp_path):
    output = _config_error(runner, tmp_path, "space: {atoms: [a, b], weights: [1.0, x]}\nkernel: {type: wiener}\n")
    assert "space.weights[1]" in output


@pytest.mark.parametrize("text, where", [
    ("space: {atoms: [a, b], weights: [yes, 2.0]}\nkernel: {type: wiener}\n", "space.weights[0] must be a number, got True"),
    (WIENER_SPACE + "kernel: {type: wiener}\ntolerances: {gram-psd: off}\n", "tolerances.gram-psd must be a number, got False"),
    (WIENER_SPACE + "kernel: {type: operator, matrix: [[1.0, 0.0], [0.0, on]]}\n", "kernel.matrix[1][1] must be a number, got True"),
    (WIENER_SPACE + "chain: {transitions: [[0.0, 0.5], [no, 0.0]]}\n", "chain.transitions[1][0] must be a number, got False"),
    ("space: {atoms: [a, b]}\nchain: {edges: [[a, b, on]]}\n", "chain.edges[0] conductance must be a number, got True"),
    (WIENER_SPACE + "kernel: {type: wiener}\nphi: [[yes, [a]]]\n", "phi[0] coefficient must be a number, got True"),
], ids=["weight", "tolerance", "matrix", "transitions", "conductance", "coefficient"])
def test_a_yaml_boolean_is_not_a_number(runner, tmp_path, text, where):
    # YAML 1.1 reads yes/no/on/off as booleans, and float(True) is 1.0: each of these ran and exited 0 or 1
    assert where in _config_error(runner, tmp_path, text)


@pytest.mark.parametrize("text, line", [
    # read_text() raised UnicodeDecodeError, which ended in a traceback and exit code 1
    (b"space: {atoms: [\xe9]}\n", "line 1, column "),
    # PyYAML's message took four lines and pointed at "<byte string>"
    (b"space: {atoms: [a, b], weights: [1.0, 1.0]\nkernel: {type: wiener}\n", "line 2, column 1: "),
], ids=["not-utf8", "unclosed-mapping"])
def test_a_config_that_is_not_utf8_is_a_config_error(runner, tmp_path, text, line):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(text)
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert len(result.output.splitlines()) == 1 and result.output.startswith(f"config error: {cfg}: {line}")


def test_an_unsigned_exponent_in_kernel_matrix_is_read_as_a_number(runner, tmp_path):
    # YAML 1.1 floats need a dot and a signed exponent, so PyYAML reads 1e-3 as a string; numpy parses it
    text = WIENER_SPACE + "kernel: {type: operator, matrix: [[1e-3, 0.0], [0.0, 1.0]]}\n"
    assert yaml.safe_load(text)["kernel"]["matrix"][0][0] == "1e-3"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    assert load_config(cfg).kernel.Q[0, 0] == 0.001
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg))
    assert result.exit_code == 0, result.output


def test_unknown_check_name_is_a_config_error(runner, tmp_path):
    output = _config_error(runner, tmp_path, WIENER_SPACE + "kernel: {type: wiener}\nchecks: [gram-psdd]\n")
    assert "gram-psdd" in output


def test_unknown_expectation_is_a_config_error(runner, tmp_path):
    output = _config_error(runner, tmp_path, WIENER_SPACE + "kernel: {type: wiener}\nexpect: {rank: 1}\n")
    assert "rank" in output


def test_q_level_checks_are_matched_by_pattern(runner, tmp_path):
    # configs/wiener.yaml has three partitions, so q-level-2 is the last level
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text((CONFIGS / "wiener.yaml").read_text() + "checks: [q-level-2]\n")
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, "refine-sweep", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert [r["check"] for r in read_records(out)[1]] == ["q-level-2"]


@pytest.mark.parametrize("name", ["q-level-3", "q-level-5", "q-level-01"])
def test_a_q_level_that_names_no_configured_partition_is_a_config_error(runner, tmp_path, name):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text((CONFIGS / "wiener.yaml").read_text() + f"checks: [{name}, q-monotone]\n")
    result = invoke(runner, tmp_path, "refine-sweep", "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert f"checks: unknown check {name!r}" in result.output


@pytest.mark.parametrize("text, where, key", [
    (WIENER_SPACE + "kernel: {type: wiener}\ntolerence: {gram-psd: 1.0e-10}\n", "cfg.yaml", "tolerence"),
    (WIENER_SPACE + "kernel: {type: wiener}\nchekcs: [gram-psd]\n", "cfg.yaml", "chekcs"),
    (WIENER_SPACE + "kernel: {type: wiener}\nmc: {sample: 10}\n", "mc", "sample"),
    ("space: {atoms: [a, b], weights: [1.0, 1.0], wieghts: [2.0, 2.0]}\nkernel: {type: wiener}\n", "space", "wieghts"),
    (WIENER_SPACE + "kernel: {type: wiener, matrx: [[1.0, 0.0], [0.0, 1.0]]}\n", "kernel", "matrx"),
    ("space: {atoms: [a, b]}\nchain: {edges: [[a, b, 1.0]], kil: {a: 0.5}}\n", "chain", "kil"),
], ids=["top-level", "checks", "mc", "space", "kernel", "chain"])
def test_a_misspelled_config_key_is_a_config_error(runner, tmp_path, text, where, key):
    output = _config_error(runner, tmp_path, text)
    assert f"{where}: unknown key {key!r}" in output


@pytest.mark.parametrize("text, line", [
    ("space: {atoms: [a, b], weights: [1.0, 2.0], weights: [5.0, 5.0]}\nkernel: {type: wiener}\n",
     "space: duplicate key 'weights'"),
    (WIENER_SPACE + "kernel: {type: wiener}\nkernel: {type: counting}\n", "cfg.yaml: duplicate key 'kernel'"),
    (WIENER_SPACE + "kernel: {type: wiener}\ntolerances: {gram-psd: 1.0e-3, gram-psd: 0.5}\n", "tolerances: duplicate key 'gram-psd'"),
    ("space: {atoms: [a, b]}\nchain: {edges: [[a, b, 1.0]], kill: {a: 0.5, a: 0.1}}\n", "chain.kill: duplicate key 'a'"),
    # two YAML keys, a float and a string, that name one atom
    ('space: {atoms: ["1.5", b]}\nchain: {edges: [["1.5", b, 1.0]], kill: {1.50: 0.5, "1.5": 0.1}}\n',
     "chain.kill: duplicate key '1.5'"),
    (WIENER_SPACE + "kernel: {type: wiener}\nmc: {seed: 1, seed: 2}\n", "mc: duplicate key 'seed'"),
    (WIENER_SPACE + "kernel: {type: wiener}\nexpect: {range-rank: 2, range-rank: 2}\n", "expect: duplicate key 'range-rank'"),
], ids=["space", "top-level", "tolerances", "chain.kill", "chain.kill-one-atom", "mc", "expect"])
def test_a_key_given_twice_is_a_config_error(runner, tmp_path, text, line):
    # the later value overrode the earlier one, and validate exited 0
    output = _config_error(runner, tmp_path, text)
    assert output == f"config error: {line.replace('cfg.yaml', str(tmp_path / 'cfg.yaml'))}\n"


@pytest.mark.parametrize("name", [name for name, section in SCHEMA.items() if section.keys is not None])
def test_every_mapping_section_of_the_schema_closes_its_keys(runner, tmp_path, name):
    doc = {"space": {"atoms": ["a", "b"], "weights": [1.0, 1.0]}, name: {"misspelt": 1}}
    output = _config_error(runner, tmp_path, yaml.safe_dump(doc))
    assert f"config error: {name}: unknown key 'misspelt', expected one of {', '.join(SCHEMA[name].keys)}\n" == output


REQUIRED = [(command, name) for command, *_ in COMMANDS for name, section in SCHEMA.items() if command in section.required_by]
# an empty list section is missing too; an empty chain or kernel is rejected by its reader first
MISSING = [(c, n, False) for c, n in REQUIRED] + [(c, n, True) for c, n in REQUIRED if SCHEMA[n].keys is None]


@pytest.mark.parametrize("command, name, empty", MISSING, ids=[f"{c}-{'empty' if e else 'dropped'}-{n}" for c, n, e in MISSING])
def test_a_required_section_that_is_dropped_or_empty_is_missing(runner, tmp_path, command, name, empty):
    # phi: [] ran simulate with 18 of 18 rows passed, ito-isometry and cross-moment on estimate, exact and std_error 0
    needs = [n for n, section in SCHEMA.items() if command in section.required_by]
    doc = next(d for d in map(yaml.safe_load, map(Path.read_text, sorted(CONFIGS.glob("*.yaml")))) if all(n in d for n in needs))
    if empty:
        doc[name] = []
    else:
        del doc[name]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(tmp_path / "r.jsonl"))
    assert (result.exit_code, result.output) == (2, f"config error: {command} requires a {name} section\n")
    assert not (tmp_path / "r.jsonl").exists()


DENSE_CHAIN = "chain: {transitions: [[0.0, 0.5], [0.5, 0.0]]}\n"
EDGE_SPACE = "space: {atoms: [a, b]}\n"


@pytest.mark.parametrize("text, tol, message", [
    ("space: {atoms: [a, a], weights: [1.0, 1.0]}\n" + DENSE_CHAIN, (), "space: atom identifiers must be unique"),
    ("space: {atoms: [a, b], weights: [-1.0, 1.0]}\n" + DENSE_CHAIN, (), f"space: weight of atom 'a' is -1.0, {DOMAIN}"),
    ("space: {atoms: [a, b], weights: [1.0]}\n" + DENSE_CHAIN, (), "space: need exactly one weight per atom"),
    ("space: {atoms: [], weights: []}\n" + DENSE_CHAIN, (), "space: a measure space needs at least one atom"),
    ("space: {atoms: [a, b]}\n" + DENSE_CHAIN, (), "space.weights are required unless chain.edges derives them"),
    (WIENER_SPACE + "chain: {transitions: [[0.0, 0.5], [0.5]]}\n", (), "chain.transitions must be a dense numeric matrix"),
    (WIENER_SPACE + "chain: {transitions: [[0.0, x], [0.5, 0.0]]}\n", (), "chain.transitions[0][1] must be a number, got 'x'"),
    (WIENER_SPACE + "chain: {transitions: {a: [0.0, 0.5]}}\n", (), "chain.transitions must be a dense numeric matrix"),
    (WIENER_SPACE + "kernel: {type: operator, matrix: [[1.0], [0.0, 1.0]]}\n", (), "kernel.matrix must be a dense numeric matrix"),
    (EDGE_SPACE + "chain: {edges: [[a, b, 1.0]], kill: [0.5, 0.5]}\n", (), "chain.kill must be a mapping"),
    (WIENER_SPACE + "kernel: {type: on}\n", (), "kernel.type must be one of"),
    (WIENER_SPACE + "kernel: {type: wiener}\nchecks: [yes]\n", (), "checks: unknown check True"),
    (WIENER_SPACE + "kernel: {type: wiener}\nchecks: [[gram-psd]]\n", (), "checks: unknown check ['gram-psd']"),
    (WIENER_SPACE + "kernel: {type: wiener}\ntolerances: {yes: 1.0e-9}\n", (), "tolerances: unknown key True"),
    (WIENER_SPACE + "kernel: {type: wiener}\nexpect: {yes: 1}\n", (), "expect: unknown key True"),
    (WIENER_SPACE + "kernel: {type: wiener}\ntolerances: {symmetri: 1.0e-9}\n", (), "tolerances: unknown key 'symmetri'"),
    (WIENER_SPACE + "kernel: {type: wiener}\n", (("symmetri", "1e-9"),), "--tol: unknown tolerance 'symmetri'"),
    (EDGE_SPACE + "chain: {edges: [[a, b, .nan]]}\n", (), f"chain: conductance on ('a','b') is nan, {DOMAIN}"),
    (EDGE_SPACE + "chain: {edges: [[a, b, 1.0]], kill: {a: .inf}}\n", (), f"chain: killing mass at 'a' is inf, {DOMAIN}"),
], ids=["dense-duplicate-atom", "dense-negative-weight", "dense-weight-count", "dense-no-atoms", "dense-no-weights",
        "ragged-transitions", "text-transitions", "mapping-transitions", "ragged-matrix", "list-kill",
        "boolean-kernel-type", "boolean-check", "list-check", "boolean-tolerance", "boolean-expectation",
        "unknown-tolerance", "unknown-tol-override", "nan-conductance", "infinite-kill"])
def test_no_malformed_config_escapes_as_another_error(runner, tmp_path, text, tol, message):
    # the dense chain over a bad space ended in a DomainError traceback and exit 1; the booleans were
    # reported as the string 'True'; the nonfinite conductance and kill were reported as a bad weight
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    with pytest.raises(ConfigError) as err:  # what every command vets before its first check
        load_config(cfg, [f"{n}={v}" for n, v in tol], check_names=CHECKS)
    assert message in str(err.value)
    for command in ("validate", "factorize", "markov-green", "simulate"):
        result = invoke(runner, tmp_path, command, "--config", str(cfg), *(f"--tol={n}={v}" for n, v in tol))
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), (command, result.output)
        assert f"config error: {message}" in result.output, command


@pytest.mark.parametrize("checks, message", [
    ("[yes, [symmetry], 3]", "True"), ("[symmetry, [symmetry]]", "['symmetry']"), ("[symmetry, 3]", "3"),
])
def test_a_check_that_is_not_a_string_is_a_config_error_without_check_names(tmp_path, checks, message):
    # the library's call names no checks: these loaded as (True, ['symmetry'], 3) and the like, and ran no check
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(WIENER_SPACE + f"kernel: {{type: wiener}}\nchecks: {checks}\n")
    with pytest.raises(ConfigError, match=re.escape(f"checks: unknown check {message}")):
        load_config(cfg)
    cfg.write_text(WIENER_SPACE + "kernel: {type: wiener}\nchecks: [symmetry, any-name]\n")
    assert load_config(cfg).checks == ("symmetry", "any-name")


@pytest.mark.parametrize("text, args, line, cause", [
    (WIENER_SPACE + "kernel: {type: wiener}\n", ["--tol", "gram-psd"], "--tol expects NAME=VALUE, got 'gram-psd'", None),
    (WIENER_SPACE + "kernel: {type: operator}\n", [], "kernel.type operator requires kernel.matrix", None),
    (WIENER_SPACE + "kernel: {type: operator, matrix: [[1.0]]}\n", [],
     "kernel.matrix: operator matrix must be 2x2, got (1, 1)", InvalidOperatorError),
    (EDGE_SPACE + "chain: {edges: [[a, b, 1.0]], kill: {z: 0.5}}\n", [],
     "chain: killing references unknown atom 'z'", InvalidChainError),
    ("space: {atoms: []}\nchain: {edges: []}\n", [], "chain: need at least one atom", InvalidChainError),
], ids=["tol-without-value", "operator-without-matrix", "matrix-of-another-size", "kill-of-unknown-atom", "chain-of-no-atom"])
def test_each_rejection_of_config_input_is_one_line_naming_the_field(runner, tmp_path, text, args, line, cause):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    if not args:  # the library's error, if any, is the cause of the config error
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert type(err.value.__cause__) is cause if cause else err.value.__cause__ is None
    for command in ("validate", "factorize", "markov-green", "simulate"):
        result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(tmp_path / "r.jsonl"), *args)
        assert (result.exit_code, result.output.splitlines()) == (2, [f"config error: {line}"]), command
        assert not (tmp_path / "r.jsonl").exists()


def test_every_check_reads_a_tolerance_of_the_config_schema():
    assert {c.tol for _, checks in SUITES.values() for c in checks} - {None} <= set(TOLERANCES)


@pytest.mark.parametrize("command, where, args, line", [
    ("factorize", "checks: [fundamental-match]\n", (), "checks: unknown check 'fundamental-match'"),
    ("factorize", "tolerances: {parseval-invariance: 1.0e-10}\n", (),
     f"tolerances: unknown key 'parseval-invariance', expected one of {', '.join(TOLERANCES)}"),
    ("markov-green", "", ("--tol", "fundamental-match=1e-8"),
     f"--tol: unknown tolerance 'fundamental-match', expected one of {', '.join(TOLERANCES)}"),
    ("factorize", "", ("--tol", "parseval-invariance=1e-10"),
     f"--tol: unknown tolerance 'parseval-invariance', expected one of {', '.join(TOLERANCES)}"),
], ids=["checks", "tolerances", "tol", "tol-parseval-invariance"])
def test_the_names_of_the_removed_rows_are_config_errors(runner, tmp_path, command, where, args, line):
    # parseval-invariance (the Parseval sum in two bases, equal for any k_A) and fundamental-match
    # ((w G) / w against G) could fail under no mutation; a config that named them ran them
    cfg, out = tmp_path / "cfg.yaml", tmp_path / "r.jsonl"
    cfg.write_text((CONFIGS / "two-state-green.yaml").read_text() + where)
    result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(out), *args)
    assert (result.exit_code, result.output.splitlines()) == (2, [f"config error: {line}"])
    assert not out.exists()


def test_the_file_overrides_the_defaults_and_tol_overrides_both(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(WIENER_SPACE + "kernel: {type: wiener}\ntolerances: {symmetry: 1.0e-6, schwarz: 1.0e-5}\n")
    assert load_config(cfg).tolerances == {**TOLERANCES, "symmetry": 1e-6, "schwarz": 1e-5}
    tol = load_config(cfg, ["schwarz=2e-5", "isometry=3e-5", "isometry=4e-5"]).tolerances
    assert tol == {**TOLERANCES, "symmetry": 1e-6, "schwarz": 2e-5, "isometry": 4e-5}
    assert list(tol) == list(TOLERANCES)  # the report's meta keeps this order


def test_every_reported_check_is_a_known_name():
    names = {
        json.loads(line)["check"]
        for path in (Path(__file__).resolve().parent / "golden").glob("*.jsonl")
        for line in path.read_text().splitlines()[1:]
    }
    assert {n for n in names if not n.startswith("q-level-")} <= set(CHECKS)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_libyaml_and_python_loaders_agree(path):
    text = path.read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


# ---------------------------------------------------------------------------
# empty suites, counted solves, runtimes, strict numbers, the documented table


@pytest.mark.parametrize("checks", ["[]", "[ito-isometry]"])
def test_a_run_that_records_no_check_fails(runner, tmp_path, checks):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(WIENER_SPACE + f"kernel: {{type: wiener}}\nphi: [[1.0, [a]]]\nchecks: {checks}\n")
    out = tmp_path / "v.jsonl"
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert "0/0 checks passed" in result.output
    assert read_records(out)[1] == []


def test_factorize_runs_a_realization_only_suite(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(WIENER_SPACE + "kernel: {type: wiener}\nchecks: [realization]\n")
    out = tmp_path / "f.jsonl"
    result = invoke(runner, tmp_path, "factorize", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 0, result.output
    assert [(r["check"], r["status"]) for r in read_records(out)[1]] == [("realization", "pass")]


@pytest.mark.parametrize("command", ["factorize", "simulate"])
def test_failed_validation_stops_before_realizing(runner, tmp_path, command):
    # the counting kernel charges the null atom c, so absolute continuity fails
    out, export, cfg = tmp_path / "r.jsonl", tmp_path / "fact.json", tmp_path / "cfg.yaml"
    cfg.write_text((CONFIGS / "counting-null-atom.yaml").read_text() + "phi: [[1.0, [a]]]\n")
    args = [command, "--config", str(cfg), "--out", str(out)]
    args += ["--export", str(export)] if command == "factorize" else ["--samples", "2000"]
    result = invoke(runner, tmp_path, *args)
    assert result.exit_code == 1, result.output
    _, records = read_records(out)
    assert [r["check"] for r in records] == ["symmetry", "gram-psd", "schwarz", "absolute-continuity"]
    assert not export.exists() and not (tmp_path / "factorization.json").exists()


def test_markov_green_solves_for_the_green_function_once(runner, tmp_path, monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    result = invoke(runner, tmp_path, "markov-green", "--config", str(CONFIGS / "two-state-green.yaml"))
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_markov_green_decomposes_the_chain_once(runner, tmp_path, monkeypatch):
    calls = []

    def counting(decompose):
        def counted(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        return counted

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    result = invoke(runner, tmp_path, "markov-green", "--config", str(CONFIGS / "two-state-green.yaml"))
    assert result.exit_code == 0, result.output
    # the chain's spectrum once, then the probe Gram's; the Green kernel's own spectrum is never needed
    assert len(calls) == 2


def test_transience_is_judged_by_its_own_gap(runner, tmp_path):
    out = tmp_path / "g.jsonl"
    result = invoke(
        runner, tmp_path, "markov-green", "--config", str(CONFIGS / "two-state-green.yaml"),
        "--out", str(out), "--tol", "transience-gap=0.6",
    )
    assert result.exit_code == 1, result.output
    record = next(r for r in read_records(out)[1] if r["check"] == "transience")
    assert (record["status"], record["value"], record["bound"]) == ("fail", 0.5, pytest.approx(0.4))


def _recorded(check, *args) -> Verdict:
    """The verdict a row records of a library check: its own, or a failure with no value or bound where it raises."""
    try:
        return check(*args)
    except SetKernError:
        return Verdict(None, None, False)


@pytest.mark.parametrize("config, code, statuses", [
    ("stochastic-chain", 1, {"detailed-balance": "pass", "transience": "fail"}),
    ("two-state-green", 0, {}),
    # detailed balance fails on these weights (3 × 0.5 against 1 × 0.2), and the chain is transient with rho = 0.866
    ("space: {atoms: [a, b], weights: [3.0, 1.0]}\nchain: {transitions: [[0.0, 0.5], [0.2, 0.0]]}\n", 1,
     {"detailed-balance": "fail", "transience": "pass", "green-identity": "pass", "series-solve": "pass"}),
], ids=["stochastic-chain", "two-state-green", "non-reversible-transient"])
def test_every_markov_row_records_the_library_verdict(runner, tmp_path, config, code, statuses):
    # the CLI rebuilt these verdicts: contractivity recorded no value or bound, and transience read
    # its value back out of NotTransientError
    path = tmp_path / "cfg.yaml"  # a shipped config by name, or the text of one
    path.write_text(config if "\n" in config else (CONFIGS / f"{config}.yaml").read_text())
    out = tmp_path / "m.jsonl"
    result = invoke(runner, tmp_path, "markov-green", "--config", str(path), "--out", str(out))
    assert result.exit_code == code, result.output
    meta, records = read_records(out)
    chain, tol = load_config(path).chain, meta["tolerances"]
    verdicts = {
        "detailed-balance": markov.check_reversibility(chain, tol["detailed-balance"]),
        "contractivity": markov.check_contractivity(chain, tol["contractivity"]),
        "transience": markov.check_transient(chain, tol["transience-gap"]),
        "spectral-gap": _recorded(markov.check_spectral_gap, chain, tol["transience-gap"]),
    }
    by_check = {r["check"]: r for r in records}
    for name, verdict in verdicts.items():
        assert by_check[name] == CheckRecord(name, by_check[name]["tag"], verdict).as_dict(), name
    assert {name: by_check[name]["status"] for name in statuses} == statuses
    # both rows read the weighted norm of P
    assert by_check["contractivity"]["value"] is not None
    assert by_check["contractivity"]["value"] == by_check["transience"]["value"]


@pytest.mark.parametrize("value", ["-0.5", "-1e-300"])
def test_a_negative_tolerance_is_a_config_error(runner, tmp_path, value):
    # transience-gap=-0.5 recorded transience as pass (value 1, bound 1.5) on a chain with rho = 1, and exited 0
    result = invoke(
        runner, tmp_path, "validate", "--config", str(CONFIGS / "stochastic-chain.yaml"), "--tol", f"transience-gap={value}"
    )
    assert result.exit_code == 2, result.output
    assert "--tol transience-gap" in result.output
    output = _config_error(runner, tmp_path, WIENER_SPACE + f"kernel: {{type: wiener}}\ntolerances: {{symmetry: {value}}}\n")
    assert "tolerances.symmetry" in output


def test_a_zero_tolerance_is_allowed(runner, tmp_path):
    out = tmp_path / "z.jsonl"
    result = invoke(
        runner, tmp_path, "validate", "--config", str(CONFIGS / "wiener.yaml"), "--tol", "absolute-continuity=0",
        "--out", str(out),
    )
    assert result.exit_code == 0, result.output
    assert read_records(out)[0]["tolerances"]["absolute-continuity"] == 0.0


@pytest.mark.parametrize("text, where", [
    ("space: {atoms: [yes, on], weights: [1.0, 1.0]}\nkernel: {type: wiener}\n", "space.atoms[0] must be an atom name, got True"),
    ("space: {atoms: [on, off], weights: [1.0, 1.0]}\nkernel: {type: wiener}\n", "space.atoms[0] must be an atom name, got True"),
    ("space: {atoms: [a, ~], weights: [1.0, 1.0]}\nkernel: {type: wiener}\n", "space.atoms[1] must be an atom name, got None"),
    ("space: {atoms: [a, [b]], weights: [1.0, 1.0]}\nkernel: {type: wiener}\n", "space.atoms[1] must be an atom name, got ['b']"),
    ("space: {atoms: [a, {b: 1}], weights: [1.0, 1.0]}\nkernel: {type: wiener}\n", "space.atoms[1] must be an atom name"),
    ("space: {atoms: [a, b]}\nchain: {edges: [[a, no, 1.0]]}\n", "chain.edges[0][1] must be an atom name, got False"),
    ("space: {atoms: [a, b]}\nchain: {edges: [[a, b, 1.0]], kill: {yes: 0.5}}\n", "chain.kill key must be an atom name, got True"),
    (WIENER_SPACE + "kernel: {type: wiener}\nfamily: [[a, ~]]\n", "family[0][1] must be an atom name, got None"),
    (WIENER_SPACE + "kernel: {type: wiener}\nphi: [[1.0, [off]]]\n", "phi[0][0] must be an atom name, got False"),
    (WIENER_SPACE + "kernel: {type: wiener}\nphi: [[1.0, [a]]]\npsi: [[1.0, [~]]]\n", "psi[0][0] must be an atom name, got None"),
    (WIENER_SPACE + "kernel: {type: wiener}\npartitions: [[[a, b]], [[a], [yes]]]\n",
     "partitions[1][1][0] must be an atom name, got True"),
], ids=["yes-on", "on-off", "null", "list", "mapping", "edge", "kill", "family", "phi", "psi", "partition"])
def test_an_atom_name_that_yaml_reads_as_no_string_is_a_config_error(runner, tmp_path, text, where):
    # str() made atoms named True, False and None: [on, off] and [a, ~] ran, and [yes, on] was
    # rejected as "atom identifiers must be unique"
    assert where in _config_error(runner, tmp_path, text)


@pytest.mark.parametrize("command", [c[0] for c in COMMANDS])
def test_an_empty_psi_is_a_config_error(runner, tmp_path, command):
    # psi: [] ran simulate's cross-moment row on estimate, exact and std_error 0, and the row passed
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text((CONFIGS / "wiener.yaml").read_text().replace("psi:\n  - [1.0, [a, b]]\n", "psi: []\n"))
    assert "psi: []" in cfg.read_text()
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(out), "--samples", "1000")
    assert (result.exit_code, result.output) == (2, "config error: psi must have at least one term, or be left out\n")
    assert not out.exists()


WIENER_PHI = "  - [1.0, [a]]\n  - [2.0, [b]]\n"


@pytest.mark.parametrize("name, edits", [
    ("phi", [(WIENER_PHI, "  - [0.0, [a]]\n")]),
    ("phi", [(WIENER_PHI, "  - [1.0, [a, b]]\n  - [-1.0, [a]]\n  - [-1.0, [b]]\n")]),
    ("psi", [("  - [1.0, [a, b]]\n", "  - [1.0, [a]]\n  - [-1.0, [a]]\n")]),
    ("phi", [("weights: [1.0, 2.0, 0.5]", "weights: [1.0, 2.0, 0.0]"), (WIENER_PHI, "  - [1.0, [c]]\n")]),
], ids=["zero-phi", "cancelling-phi", "cancelling-psi", "null-atom-phi"])
@pytest.mark.parametrize("command", [c[0] for c in COMMANDS])
def test_an_integrand_that_is_zero_in_l2_is_a_config_error(runner, tmp_path, command, name, edits):
    # phi: [[0.0, [a]]] ran simulate with 18 of 18 rows passed, each Monte Carlo and q value 0 judged against 0
    text = (CONFIGS / "wiener.yaml").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(out), "--samples", "1000")
    line = f"config error: {name} is zero in L^2(nu): its coefficients cancel or it charges only null atoms"
    assert (result.exit_code, result.output.splitlines()) == (2, [line]), result.output
    assert not out.exists()


def test_integer_and_quoted_atom_names_read_as_before(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text('space: {atoms: [1, "yes", "~"], weights: [1.0, 1.0, 1.0]}\nkernel: {type: wiener}\nfamily: [[1, "yes"]]\n')
    assert load_config(cfg).space.atoms == ("1", "yes", "~")
    assert invoke(runner, tmp_path, "validate", "--config", str(cfg)).exit_code == 0


GOLDEN_RUNS = sorted(p.stem.split(".") for p in (Path(__file__).resolve().parent / "golden").glob("*.jsonl"))


@pytest.mark.parametrize("config,command", GOLDEN_RUNS, ids=[f"{c}.{m}" for c, m in GOLDEN_RUNS])
def test_timings_fill_every_runtime(runner, tmp_path, config, command):
    out = tmp_path / "t.jsonl"
    invoke(runner, tmp_path, command, "--config", str(CONFIGS / f"{config}.yaml"), "--out", str(out), "--timings")
    _, records = read_records(out)
    assert records and all(isinstance(r["runtime"], float) for r in records)


def test_fractional_expected_rank_is_a_config_error(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIGS.joinpath("rank-one.yaml").read_text().replace("range-rank: 1", "range-rank: 1.5"))
    result = invoke(runner, tmp_path, "factorize", "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert "expect.range-rank" in result.output


@pytest.mark.parametrize("config, command, old, new, where, bounds", [
    # the report's float() of the bound raised OverflowError: a traceback, exit 1
    ("rank-one", "factorize", "range-rank: 1", f"range-rank: {10**400}", "expect.range-rank", "[0, 2**64)"),
    # read as a rank that can never match, so the row failed
    ("rank-one", "factorize", "range-rank: 1", "range-rank: -1", "expect.range-rank", "[0, 2**64)"),
    # len(range(0, n, CHUNK_SIZE)) raised OverflowError: a traceback, exit 1
    ("wiener", "simulate", "samples: 200000", f"samples: {10**400}", "mc.samples", "[1, 2**40)"),
    ("wiener", "simulate", "seed: 11", f"seed: {2**64}", "mc.seed", "[0, 2**64)"),
], ids=["huge-rank", "negative-rank", "huge-samples", "huge-seed"])
def test_an_integer_field_past_64_bits_is_a_config_error(runner, tmp_path, config, command, old, new, where, bounds):
    text = (CONFIGS / f"{config}.yaml").read_text()
    assert old in text
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text.replace(old, new))
    result = invoke(runner, tmp_path, command, "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert result.output.splitlines() == [f"config error: {where} must be an integer in {bounds}"]


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_nonfinite_config_tolerance_is_a_config_error(runner, tmp_path, value):
    output = _config_error(runner, tmp_path, WIENER_SPACE + f"kernel: {{type: wiener}}\ntolerances: {{symmetry: {value}}}\n")
    assert "tolerances.symmetry" in output


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_tolerance_override_is_a_config_error(runner, tmp_path, value):
    result = invoke(
        runner, tmp_path, "validate", "--config", str(CONFIGS / "wiener.yaml"), "--tol", f"symmetry={value}"
    )
    assert result.exit_code == 2, result.output
    assert "--tol symmetry" in result.output


def test_readme_check_table_matches_the_registry():
    readme = (CONFIGS.parent / "README.md").read_text()
    table = readme.split("### Checks", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9<>-]+)` \| `([a-z-]+)` \| (?:`([a-z-]+)`|none) \|", table, flags=re.MULTILINE)
    documented = {(name, tag, tol or None) for name, tag, tol in rows}
    assert {name for name, _, _ in documented} - {"q-level-<n>"} == set(CHECKS)
    assert documented == {(c.name, c.tag, c.tol) for _, checks in SUITES.values() for c in checks}
    # a tolerance key that no row reads would outlive the row it bounded, unseen
    assert set(TOLERANCES) <= {c.tol for _, checks in SUITES.values() for c in checks}


@pytest.mark.parametrize("field", ["phi", "psi"])
@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_nonfinite_simple_function_coefficient_is_a_config_error(runner, tmp_path, field, value):
    terms = {"phi": "[[1.0, [a]]]", "psi": "[[1.0, [b]]]"}
    terms[field] = f"[[{value}, [a]]]"
    output = _config_error(
        runner, tmp_path, WIENER_SPACE + f"kernel: {{type: wiener}}\nphi: {terms['phi']}\npsi: {terms['psi']}\n"
    )
    assert f"{field}: term 0 coefficient is {float(value.replace('.', ''))!r}, {SIGNED_DOMAIN}" in output


def test_an_indefinite_matrix_far_below_unit_scale_is_a_config_error(runner, tmp_path):
    output = _config_error(
        runner, tmp_path, WIENER_SPACE + "kernel: {type: operator, matrix: [[1e-12, 2e-12], [2e-12, 1e-12]]}\n"
    )
    assert "kernel.matrix" in output
    assert "indefinite" in output


def test_factorize_checks_keep_their_order_tags_and_bounds(runner, tmp_path):
    out = tmp_path / "f.jsonl"
    result = invoke(runner, tmp_path, "factorize", "--config", str(CONFIGS / "rank-one.yaml"), "--out", str(out))
    assert result.exit_code == 0
    _, records = read_records(out)
    factorize = [(r["check"], r["tag"], r["bound"]) for r in records[4:]]
    # each bound is tol * scale: max|Q| = 0.5**2, max|T chi_B| = w(X) = 1, max|G| = w({a, b})**2 = 0.64,
    # and max|C D S| = w({a, b}) w(a) = 0.4, as S = T = 1 w^T
    assert factorize == [
        ("realization", "realization", 1e-8 * 0.25),
        ("density-consistency", "density", 1e-9),
        ("isometry", "isometry", pytest.approx(1e-9 * 0.64, rel=1e-12)),
        ("adjoint", "adjoint", pytest.approx(1e-9 * 0.4, rel=1e-12)),
        ("parseval", "parseval", pytest.approx(1e-9 * 0.64, rel=1e-12)),
        ("range-rank", "range-rank", 1.0),
    ]


def test_a_factorize_report_and_export_do_not_depend_on_the_seed(runner, tmp_path):
    # the isometry, adjoint and Parseval rows drew random elements, pairs and bases from --seed
    runs = {}
    for seed in ("1", "2"):
        out, export = tmp_path / f"report-{seed}.jsonl", tmp_path / f"export-{seed}.json"
        result = invoke(runner, tmp_path, "factorize", "--config", str(CONFIGS / "wiener.yaml"), "--seed", seed,
                        "--out", str(out), "--export", str(export))
        assert result.exit_code == 0, result.output
        meta, *records = out.read_bytes().splitlines()
        runs[seed] = json.loads(meta)["meta"], records, export.read_bytes()
    (meta1, records1, export1), (meta2, records2, export2) = runs["1"], runs["2"]
    assert (meta1.pop("seed"), meta2.pop("seed")) == (1, 2)  # the meta record holds the seed it was given
    assert meta1 == meta2
    assert records1 == records2
    assert export1 == export2


def test_adjoint_fails_a_root_that_is_not_nu_selfadjoint(tmp_path):
    rng = np.random.default_rng(17)
    space = random_space(rng, 6)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"atoms": list(space.atoms), "weights": list(space.weights)},
        "kernel": {"type": "operator", "matrix": random_nu_psd_matrix(rng, space, well_conditioned=True).tolist()},
        "family": [["x0", "x1", "x2"], ["x3", "x5"]],
    }))
    config = load_config(cfg)
    run = Run(config, RunReport("factorize", config.seed, config.samples, config.tolerances))
    tol = config.tolerances["adjoint"]
    assert _adjoint(run, tol).passed
    # S + D^{-1} E with E antisymmetric: D S gains the antisymmetric part E, so S is not nu-selfadjoint
    w, S = space.weight_array, run.fact.S
    E = rng.standard_normal((6, 6))
    E = (E - E.T) * (5e-4 * np.abs(w[:, None] * S).max() / np.abs(E - E.T).max())
    run.fact = Factorization(run.kernel, S + E / w[:, None], run.fact.residual)
    defect, scale = selfadjoint_defect(run.fact.S, w)
    assert 5e-4 < defect / scale < 2e-3
    verdict = _adjoint(run, tol)
    assert not verdict.passed and verdict.value > 1e3 * verdict.bound


def test_an_asymmetric_matrix_far_below_unit_scale_is_a_config_error(runner, tmp_path):
    # the defect 2e-12 is as large as the matrix; judged against an absolute floor of 1,
    # it was accepted and validate exited 1 with FAIL symmetry
    output = _config_error(
        runner, tmp_path, WIENER_SPACE + "kernel: {type: operator, matrix: [[3e-12, 2e-12], [0.0, 3e-12]]}\n"
    )
    assert "kernel.matrix" in output
    assert "selfadjoint" in output


def test_factorize_decomposes_the_kernel_once_and_runs_no_svd(runner, tmp_path, monkeypatch):
    # before the shared kernel spectrum, a 48-atom factorize made 1 eigh, 3 eigvalsh and 3 svd calls
    rng = np.random.default_rng(48)
    space = random_space(rng, 48)
    atoms = list(space.atoms)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"atoms": atoms, "weights": list(space.weights)},
        "kernel": {"type": "operator", "matrix": random_nu_psd_matrix(rng, space, well_conditioned=True).tolist()},
        "family": [[atoms[i] for i in A.indices] for A in random_sets(rng, space, 16)],
    }))
    calls = []

    def counting(name):
        fn = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    result = invoke(runner, tmp_path, "factorize", "--config", str(cfg))
    assert result.exit_code == 0, result.output
    assert sorted(calls) == ["eigh", "eigvalsh"]


NON_REVERSIBLE = "space: {atoms: [a, b], weights: [3.0, 1.0]}\nchain: {transitions: [[0.0, 1.0], [0.0, 0.0]]}\n"


@pytest.mark.parametrize("command", ["validate", "markov-green"])
def test_a_non_reversible_chain_gets_no_spectral_certificate(runner, tmp_path, command):
    # ||P||_w = sqrt(3), but the symmetric part has radius sqrt(3)/2: read from it, the
    # contractivity, transience (0.866) and spectral-gap records passed
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(NON_REVERSIBLE)
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    by_check = {r["check"]: r for r in read_records(out)[1]}
    assert by_check["contractivity"]["status"] == "fail"
    assert by_check["transience"]["status"] == "fail"
    assert by_check["transience"]["value"] == pytest.approx(3**0.5)
    if command == "markov-green":
        gap = by_check["spectral-gap"]
        assert (gap["status"], gap["value"], gap["bound"]) == ("fail", None, None)


def test_a_chain_with_a_defect_below_unit_scale_fails_every_green_row_alike(runner, tmp_path):
    # judged by an absolute 1e-10, the defect 5e-11 (1e-8 of the chain's scale) passed
    # detailed-balance and every Green row; with a relative rule in green_root alone,
    # green_kernel still accepted the chain and green-factor ended in a traceback
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("space: {atoms: [a, b], weights: [0.01, 0.01]}\n"
                   "chain: {transitions: [[0.0, 0.5], [0.500000005, 0.0]]}\n")
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, "markov-green", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    by_check = {r["check"]: r for r in read_records(out)[1]}
    balance = by_check["detailed-balance"]  # the defect is 1e-8 of max|wP|, 100 times its bound
    assert balance["value"] / balance["bound"] == pytest.approx(1e-8 / 1e-10, rel=1e-3)
    for check in ("detailed-balance", "spectral-gap", "green-psd", "green-factor"):
        assert by_check[check]["status"] == "fail", check
    assert by_check["transience"]["status"] == "pass"


def test_series_solve_reports_the_gap_relative_to_the_green_function(runner, tmp_path):
    # the solve and the series of this path differ by 1.2e-8, 6e-13 of max|G| ~ 2e4: judged
    # absolutely, every Green row failed with no value
    atoms = [f"p{i}" for i in range(10)]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"atoms": atoms},
        "kernel": {"type": "green"},
        "chain": {"edges": [[a, b, 1.0] for a, b in zip(atoms, atoms[1:])], "kill": {"p0": 1e-4}},
        "family": [["p0", "p1"], ["p5"]],
    }))
    out = tmp_path / "r.jsonl"
    invoke(runner, tmp_path, "markov-green", "--config", str(cfg), "--out", str(out))
    by_check = {r["check"]: r for r in read_records(out)[1]}
    data = green(load_config(cfg).chain)
    assert data.series_agreement > 1e-8
    assert by_check["series-solve"]["value"] == data.series_agreement
    assert by_check["series-solve"]["bound"] == 1e-8 * np.abs(data.G).max()
    for check in ("green-identity", "series-solve", "green-psd"):
        assert by_check[check]["status"] == "pass", check


def test_a_looser_series_solve_tolerance_reaches_the_green_solve(runner, tmp_path):
    # the series of this path differs from the solve by 1.52e-8 of max|G|; green judged it at a fixed
    # 1e-8, so --tol series-solve=1e-6 still recorded every Green row as failed with no value
    atoms = [f"p{i}" for i in range(10)]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"atoms": atoms},
        "chain": {"edges": [[a, b, 1.0] for a, b in zip(atoms, atoms[1:])], "kill": {"p0": 1e-8}},
    }))
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, "markov-green", "--config", str(cfg), "--out", str(out),
                    "--tol", "series-solve=1e-6")
    by_check = {r["check"]: r for r in read_records(out)[1]}
    data = green(load_config(cfg).chain, agree_tol=1e-6)
    assert 1e-8 < data.series_agreement / data.scale <= 1e-6
    assert by_check["series-solve"]["value"] == data.series_agreement
    assert by_check["series-solve"]["bound"] == 1e-6 * data.scale
    for check in ("green-identity", "series-solve", "green-psd"):
        assert by_check[check]["status"] == "pass" and by_check[check]["value"] is not None, check
    assert result.exit_code == 1  # green-factor fails on its own bound


def test_a_failing_series_solve_row_records_its_value_and_bound(runner, tmp_path):
    # green rejected this path and the row judged the same gap again, so it failed with no value or bound
    atoms = [f"p{i}" for i in range(10)]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"atoms": atoms},
        "chain": {"edges": [[a, b, 1.0] for a, b in zip(atoms, atoms[1:])], "kill": {"p0": 1e-8}},
    }))
    out = tmp_path / "r.jsonl"
    result = invoke(runner, tmp_path, "markov-green", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    by_check = {r["check"]: r for r in read_records(out)[1]}
    row, verdict = by_check["series-solve"], check_series(load_config(cfg).chain)
    assert (row["status"], row["value"], row["bound"]) == ("fail", verdict.value, verdict.bound)
    assert row["bound"] == pytest.approx(2.0, rel=1e-6)  # 1e-8 × max|G|, with max|G| ~ 2e8
    assert row["value"] > row["bound"]
    for check in ("green-identity", "green-psd", "green-factor"):
        assert (by_check[check]["status"], by_check[check]["value"]) == ("fail", None), check


def test_every_command_builds_one_green_kernel_at_the_run_tolerance(runner, tmp_path):
    # validate built its Green kernel at the fixed series tolerance 1e-8, apart from the run's
    # --tol series-solve=1e-6, and failed symmetry, gram-psd, schwarz and absolute-continuity
    # with no value (3/7, exit 1) where markov-green passed green-psd
    atoms = [f"p{i}" for i in range(10)]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"atoms": atoms},
        "kernel": {"type": "green"},
        "chain": {"edges": [[a, b, 1.0] for a, b in zip(atoms, atoms[1:])], "kill": {"p0": 1e-8}},
    }))
    codes, records = {}, {}
    for command in ("validate", "markov-green"):
        out = tmp_path / f"{command}.jsonl"
        codes[command] = invoke(runner, tmp_path, command, "--config", str(cfg), "--out", str(out),
                                "--tol", "series-solve=1e-6").exit_code
        records[command] = {r["check"]: r for r in read_records(out)[1]}
    assert codes == {"validate": 0, "markov-green": 1}  # green-factor fails on its own bound
    psd, green_psd = records["validate"]["gram-psd"], records["markov-green"]["green-psd"]
    assert psd["status"] == "pass" and psd["value"] is not None
    assert (psd["status"], psd["value"], psd["bound"]) == (green_psd["status"], green_psd["value"], green_psd["bound"])


def test_a_chain_with_both_transitions_and_edges_is_a_config_error(runner, tmp_path):
    # the edges chain ran and the matrix was dropped without a word
    output = _config_error(runner, tmp_path, WIENER_SPACE + (
        "chain: {transitions: [[0.0, 0.5], [0.5, 0.0]], edges: [[a, b, 1.0]], kill: {a: 1.0}}\n"
    ))
    assert "'transitions'" in output and "'edges'" in output


def test_a_kill_next_to_dense_transitions_is_a_config_error(runner, tmp_path):
    # the unkilled matrix ran and printed 3/3 checks passed
    output = _config_error(runner, tmp_path, WIENER_SPACE + (
        "chain: {transitions: [[0.0, 0.5], [0.5, 0.0]], kill: {a: 5.0}}\n"
    ))
    assert "chain.kill" in output


@pytest.mark.parametrize("kind, chain", [
    ("wiener", ""), ("rank_one", ""), ("counting", ""), ("green", "chain: {transitions: [[0.0, 0.5], [0.5, 0.0]]}\n"),
])
def test_a_matrix_under_another_kernel_type_is_a_config_error(runner, tmp_path, kind, chain):
    # type: wiener ignored the matrix and printed 4/4 checks passed
    output = _config_error(runner, tmp_path, WIENER_SPACE + chain + (
        f"kernel: {{type: {kind}, matrix: [[1.0, 0.0], [0.0, 1.0]]}}\n"
    ))
    assert "kernel.matrix" in output


def test_a_sampler_the_library_rejects_fails_its_row_and_the_report_is_written(runner, tmp_path):
    # build_sampler's InvalidCovarianceError escaped as a traceback, with no report
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(WIENER_SPACE + (
        "kernel: {type: operator, matrix: [[1.0, 0.0], [0.0, -9.0e-11]]}\nphi: [[1.0, [b]]]\nmc: {samples: 1000, seed: 1}\n"
    ))
    out = tmp_path / "s.jsonl"
    result = invoke(runner, tmp_path, "simulate", "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    by_check = {r["check"]: r for r in read_records(out)[1]}
    ito = by_check.pop("ito-isometry")
    assert (ito["status"], ito["value"], ito["bound"]) == ("fail", None, None)
    assert len(by_check) == 10 and all(r["status"] == "pass" for r in by_check.values()), by_check


KERNEL_ROWS = {"symmetry", "gram-psd", "schwarz", "absolute-continuity"}
FACT_ROWS = {"realization", "density-consistency", "isometry", "adjoint", "parseval", "range-rank",
             "ito-isometry", "cross-moment", "q-monotone", "q-bound", "q-attained"}  # and every q-level-<n>
GREEN_RUNS = [("two-state-green", c) for c in ("validate", "factorize", "markov-green", "simulate")] + [
    ("stochastic-chain", "markov-green")]


@pytest.mark.parametrize("module, builder, reads, runs", [
    (kernels, "gram", {"symmetry", "gram-psd", "schwarz", "isometry", "parseval", "green-psd"},
     [("wiener", "validate"), ("rank-one", "validate"), ("counting-null-atom", "validate"),
      ("two-state-green", "markov-green")]),
    (factorization, "realize", FACT_ROWS,
     [("wiener", "factorize"), ("wiener", "simulate"), ("wiener", "refine-sweep"), ("rank-one", "factorize"),
      ("two-state-green", "factorize"), ("two-state-green", "simulate")]),
    (markov, "green", {"green-identity", "green-psd", "green-factor"} | KERNEL_ROWS | FACT_ROWS, GREEN_RUNS),
    (markov, "green_kernel", {"green-psd", "green-factor"} | KERNEL_ROWS | FACT_ROWS, GREEN_RUNS),
], ids=["gram", "realize", "green", "green_kernel"])
def test_a_part_the_library_rejects_fails_every_row_that_reads_it(runner, tmp_path, monkeypatch, module, builder,
                                                                   reads, runs):
    # a row reads a part directly or through a part built from it, and a suite that needs a realization
    # does not run without one; a rejected Gram escaped the report as a traceback
    def reads_part(check):
        return check in reads or (check.startswith("q-level-") and FACT_ROWS <= reads)

    def rejected(*args, **kwargs):
        raise VerificationError(f"{builder} rejected its input")

    def records(config, command, tag):
        out = tmp_path / f"{config}.{command}.{tag}.jsonl"
        result = invoke(runner, tmp_path, command, "--config", str(CONFIGS / f"{config}.yaml"), "--out", str(out))
        assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
        return result.exit_code, {r["check"]: r for r in read_records(out)[1]}

    before = {run: records(*run, "before")[1] for run in runs}
    monkeypatch.setattr(module, builder, rejected)
    for run in runs:
        code, after = records(*run, "after")
        assert code == 1, run
        for check in after.keys() | before[run].keys():
            if not reads_part(check):
                assert after.get(check) == before[run].get(check), (run, check)
            elif check in after:
                assert (after[check]["status"], after[check]["value"], after[check]["bound"]) == ("fail", None, None), (
                    run, check)
