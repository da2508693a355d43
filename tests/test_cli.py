"""Command-line front-end: exit codes, report format, determinism, exports."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from setkern import green
from setkern.cli import CHECKS, SUITES, _random_coefficients, main
from setkern.config import load_config
from support import random_nu_psd_matrix, random_sets, random_space

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    assert by_check["fundamental-match"]["status"] == "pass"


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


def test_refine_sweep_records_levels(runner, tmp_path):
    out = tmp_path / "q.jsonl"
    result = invoke(
        runner, tmp_path, "refine-sweep", "--config", str(CONFIGS / "wiener.yaml"), "--out", str(out)
    )
    assert result.exit_code == 0
    _, records = read_records(out)
    by_check = {r["check"]: r for r in records}
    assert by_check["q-level-0"]["value"] <= by_check["q-level-1"]["value"] + 1e-10
    assert by_check["q-level-1"]["value"] <= by_check["q-level-2"]["value"] + 1e-10
    assert by_check["q-attained"]["status"] == "pass"


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


# ---------------------------------------------------------------------------
# flags and formats


def test_tolerance_override_is_recorded_and_applied(runner, tmp_path):
    out = tmp_path / "t.jsonl"
    result = invoke(
        runner,
        tmp_path,
        "factorize",
        "--config",
        str(CONFIGS / "wiener.yaml"),
        "--out",
        str(out),
        "--tol",
        "isometry=1e-20",
    )
    assert result.exit_code == 1  # machine epsilon exceeds the absurd bound
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
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    result = invoke(runner, tmp_path, "validate", "--config", str(cfg))
    assert result.exit_code == 2, result.output
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
    assert "kernel.matrix" in output


def test_non_integer_sample_count_is_a_config_error(runner, tmp_path):
    output = _config_error(runner, tmp_path, WIENER_SPACE + "kernel: {type: wiener}\nmc: {samples: 1e3}\n")
    assert "mc.samples" in output


def test_non_numeric_weight_is_a_config_error(runner, tmp_path):
    output = _config_error(runner, tmp_path, "space: {atoms: [a, b], weights: [1.0, x]}\nkernel: {type: wiener}\n")
    assert "space.weights[1]" in output


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
    out, export = tmp_path / "r.jsonl", tmp_path / "fact.json"
    args = [command, "--config", str(CONFIGS / "wiener.yaml"), "--out", str(out), "--tol", "symmetry=-1"]
    args += ["--export", str(export)] if command == "factorize" else ["--samples", "2000"]
    result = invoke(runner, tmp_path, *args)
    assert result.exit_code == 1, result.output
    _, records = read_records(out)
    assert [r["check"] for r in records] == ["symmetry", "gram-psd", "schwarz", "absolute-continuity"]
    assert not export.exists() and not (tmp_path / "factorization.json").exists()


def test_markov_green_solves_for_the_green_function_once(runner, tmp_path, monkeypatch):
    import setkern.markov

    calls = []
    solve = setkern.markov.green

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    # count calls made through every module that imported the function by name
    for name, module in list(sys.modules.items()):
        if name.startswith("setkern") and getattr(module, "green", None) is solve:
            monkeypatch.setattr(module, "green", counted)
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
    # the chain's spectrum once, then the probe Gram's and build_T's
    assert len(calls) == 3


def test_transience_is_judged_by_its_own_gap(runner, tmp_path):
    out = tmp_path / "g.jsonl"
    result = invoke(
        runner, tmp_path, "markov-green", "--config", str(CONFIGS / "two-state-green.yaml"),
        "--out", str(out), "--tol", "transience-gap=0.6",
    )
    assert result.exit_code == 1, result.output
    record = next(r for r in read_records(out)[1] if r["check"] == "transience")
    assert (record["status"], record["value"], record["bound"]) == ("fail", 0.5, pytest.approx(0.4))


GOLDEN_RUNS = sorted(p.stem.split(".") for p in (Path(__file__).resolve().parent / "golden").glob("*.jsonl"))


@pytest.mark.parametrize("config,command", GOLDEN_RUNS, ids=[f"{c}.{m}" for c, m in GOLDEN_RUNS])
def test_timings_fill_every_runtime(runner, tmp_path, config, command):
    out = tmp_path / "t.jsonl"
    invoke(runner, tmp_path, command, "--config", str(CONFIGS / f"{config}.yaml"), "--out", str(out), "--timings")
    _, records = read_records(out)
    assert records and all(isinstance(r["runtime"], float) for r in records)
    runtime = {r["check"]: r["runtime"] for r in records}
    if "parseval" in runtime:  # both records come from one computation
        assert runtime["parseval-invariance"] == runtime["parseval"]
    assert len({t for name, t in runtime.items() if name.startswith("q-level-")}) <= 1


def test_fractional_expected_rank_is_a_config_error(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIGS.joinpath("rank-one.yaml").read_text().replace("range-rank: 1", "range-rank: 1.5"))
    result = invoke(runner, tmp_path, "factorize", "--config", str(cfg))
    assert result.exit_code == 2, result.output
    assert "expect.range-rank" in result.output


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


@pytest.mark.parametrize("field", ["phi", "psi"])
@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_nonfinite_simple_function_coefficient_is_a_config_error(runner, tmp_path, field, value):
    terms = {"phi": "[[1.0, [a]]]", "psi": "[[1.0, [b]]]"}
    terms[field] = f"[[{value}, [a]]]"
    output = _config_error(
        runner, tmp_path, WIENER_SPACE + f"kernel: {{type: wiener}}\nphi: {terms['phi']}\npsi: {terms['psi']}\n"
    )
    assert f"{field}[0] coefficient" in output


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
    # and the largest |F|**2 and |phi| |b F| of the seeded random elements
    assert factorize == [
        ("realization", "realization", 1e-8 * 0.25),
        ("density-consistency", "density", 1e-9),
        ("isometry", "isometry", pytest.approx(1e-9 * 14.656765717555004, rel=1e-12)),
        ("adjoint", "adjoint", pytest.approx(1e-9 * 4.153781025193098, rel=1e-12)),
        ("parseval", "parseval", pytest.approx(1e-9 * 0.64, rel=1e-12)),
        ("parseval-invariance", "parseval", pytest.approx(1e-10 * 0.64, rel=1e-12)),
        ("range-rank", "range-rank", 1.0),
    ]


def test_random_elements_follow_the_per_element_law():
    count, m = 20_000, 64
    alpha = _random_coefficients(np.random.default_rng(3), m, count)
    rng = np.random.default_rng(3)  # the same three draws, summed one term at a time
    terms = rng.integers(1, 5, size=count)
    idx = rng.integers(0, m, size=(count, 4))
    coefs = rng.uniform(-2.0, 2.0, size=(count, 4))
    reference = np.zeros((count, m))
    for r in range(count):
        for t in range(terms[r]):
            reference[r, idx[r, t]] += coefs[r, t]
    np.testing.assert_array_equal(alpha, reference)
    shares = np.bincount(terms, minlength=5)[1:] / count
    assert np.abs(shares - 0.25).max() <= 0.02
    assert idx.min() == 0 and idx.max() == m - 1
    assert np.abs(coefs).max() <= 2.0


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
    for check in ("detailed-balance", "spectral-gap", "green-psd", "green-factor", "fundamental-match"):
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
    for check in ("green-identity", "series-solve", "green-psd", "fundamental-match"):
        assert by_check[check]["status"] == "pass", check
