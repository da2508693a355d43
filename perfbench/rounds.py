"""The three workloads, each as a fixed round of operations on setkern.

A workload has ``threads`` (how many CPUs its rounds keep busy), a
constructor (the benchmark's own seeded inputs that set-up needs), ``setup``
(inputs reused across rounds, built through the program: what ``setup_s``
times), ``prepare`` (the round's seeded inputs, untimed), ``execute`` (the
timed program calls, and nothing else) and ``verify`` (untimed checks that
turn wrong outputs into failed operations).  An operation that raises is
failed too; neither crashes the run.

Program functions are looked up on the ``setkern`` package at call time, so
the traced run sees the benchmark's own calls into each layer.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import setkern
from setkern import MeasurableSet, MeasureSpace, SimpleFunction

import checks
import inputs
from tracing import CLI_SPAN


def no_span(name: str):
    return contextlib.nullcontext()


@dataclass
class Verdict:
    """Outcome of one round: operations attempted and failed, with reasons."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, label: str, reasons: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {r}" for r in reasons)


# ---------------------------------------------------------------------------


class FactorizeDense:
    """One ``setkern factorize --export`` invocation per round, in-process."""

    name = "factorize-dense"
    ops_per_round = 1
    threads = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.configs: dict[int, inputs.OperatorConfig] = {}

    def setup(self) -> None:
        """The program reloads its config every round, so set-up is the CLI import."""
        from setkern.cli import main

        self.main = main

    def _config_path(self, i: int) -> Path:
        """Generate and write config ``i`` on first use; rounds reuse the file."""
        path = self.workdir / f"factorize-{i}.yaml"
        if i not in self.configs:
            self.configs[i] = inputs.operator_config(self.seed, i)
            path.write_text(yaml.safe_dump(self.configs[i].document(), default_flow_style=None, sort_keys=False))
        return path

    def prepare(self, r: int):
        i = r % inputs.FACTORIZE_CONFIGS
        config = self._config_path(i)
        report = self.workdir / "factorize-report.jsonl"
        export = self.workdir / "factorize-export.json"
        for stale in (report, export):
            stale.unlink(missing_ok=True)
        argv = ["factorize", "--config", str(config), "--export", str(export), "--out", str(report)]
        return i, argv, report, export

    def execute(self, prepared, span=no_span):
        _, argv, _, _ = prepared
        with span(CLI_SPAN), contextlib.redirect_stdout(io.StringIO()):
            try:
                self.main.main(args=argv, prog_name="setkern", standalone_mode=True)
            except SystemExit as e:
                return e.code
            except Exception as e:  # a crash is a failed operation, not a crashed run
                return repr(e)
        return 0

    def verify(self, prepared, code) -> Verdict:
        i, _, report, export = prepared
        verdict = Verdict(attempted=1)
        records = []
        if report.exists():
            records = [json.loads(line) for line in report.read_text().splitlines() if line]
        data = json.loads(export.read_text()) if export.exists() else None
        problems = checks.check_factorize(code, records, data, self.configs[i])
        if problems:
            verdict.fail(f"config {i}", problems)
        return verdict

    def once_per_run(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------


KERNEL_KINDS = ("wiener", "rank_one", "green")


class McIsometry:
    """Ito isometry and cross moment checks, 200 000 samples, two workers."""

    name = "mc-isometry"
    ops_per_round = 2 * len(KERNEL_KINDS)
    threads = inputs.MC_WORKERS

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.spaces = inputs.mc_spaces(seed)
        self.deviations: list[float] = []
        self._grams: list[np.ndarray] | None = None

    def setup(self) -> None:
        spaces = self.spaces
        space = MeasureSpace(tuple(inputs.atom_names(inputs.MC_ATOMS)), tuple(spaces.weights))
        chain = setkern.MarkovChain.from_conductances(
            inputs.atom_names(inputs.MC_ATOMS, "s"), spaces.edges, spaces.kill
        )
        self.kernels = [
            setkern.wiener_kernel(space),
            setkern.rank_one_kernel(space),
            setkern.green_kernel(chain),
        ]
        self.facts = [setkern.realize(k) for k in self.kernels]

    def _gram(self, k: int) -> np.ndarray:
        if self._grams is None:
            chain = inputs.ChainInput(
                "mc-green", inputs.atom_names(inputs.MC_ATOMS, "s"), self.spaces.edges, self.spaces.kill, []
            )
            P, w_chain = checks.transition_matrix(chain)
            self._grams = [
                checks.atom_gram("wiener", self.spaces.weights),
                checks.atom_gram("rank_one", self.spaces.weights),
                checks.atom_gram("green", w_chain, P),
            ]
        return self._grams[k]

    @staticmethod
    def _simple(integrand: inputs.Integrand) -> SimpleFunction:
        return SimpleFunction(tuple((c, MeasurableSet(frozenset(s))) for c, s in integrand.terms))

    def prepare(self, r: int):
        draws = inputs.mc_round(self.seed, r, len(self.kernels))
        return [(phi, psi, self._simple(phi), self._simple(psi), s) for phi, psi, s in draws]

    def _checks(self, k: int, phi, psi, mc_seed: int, workers: int):
        kernel, fact = self.kernels[k], self.facts[k]
        n = inputs.MC_SAMPLES
        ito = setkern.ito_isometry_check(kernel, fact, phi, n, seed=mc_seed, workers=workers)
        cross = setkern.cross_moment_check(kernel, fact, phi, psi, n, seed=mc_seed + 1, workers=workers)
        return ito, cross

    def execute(self, prepared, span=no_span):
        out = []
        for k, (_, _, phi, psi, mc_seed) in enumerate(prepared):
            try:
                out.append(self._checks(k, phi, psi, mc_seed, inputs.MC_WORKERS))
            except Exception as e:  # counted as two failed operations
                out.append(e)
        return out

    def verify(self, prepared, out) -> Verdict:
        verdict = Verdict(attempted=self.ops_per_round)
        for k, ((phi, psi, _, _, _), result) in enumerate(zip(prepared, out)):
            label = KERNEL_KINDS[k]
            if isinstance(result, Exception):
                verdict.fail(f"{label} ito", [repr(result)])
                verdict.fail(f"{label} cross", [repr(result)])
                continue
            ito, cross = result
            for tag, res, a, b in (("ito", ito, phi, phi), ("cross", cross, phi, psi)):
                problems = checks.check_exact(res.exact, a, b, self._gram(k))
                if problems:
                    verdict.fail(f"{label} {tag}", problems)
                else:
                    self.deviations.append(res.deviation_sigmas)
        return verdict

    def once_per_run(self) -> list[str]:
        """Run-level checks: the 95% band and workers=1 bit-identity."""
        problems = []
        share = checks.within_share(self.deviations)
        if share < checks.MC_WITHIN_SHARE:
            problems.append(f"only {share:.3f} of estimates within {checks.MC_SIGMAS} sigma")
        _, _, phi, psi, mc_seed = self.prepare(0)[0]
        two = self._checks(0, phi, psi, mc_seed, inputs.MC_WORKERS)
        one = self._checks(0, phi, psi, mc_seed, 1)
        for a, b in zip(two, one):
            if (a.estimate, a.std_error) != (b.estimate, b.std_error):
                problems.append(f"workers=1 estimate {b.estimate!r} != workers=2 {a.estimate!r}")
        return problems


# ---------------------------------------------------------------------------


@dataclass
class ChainOutput:
    G: np.ndarray
    kernel_values: np.ndarray
    kvecs: np.ndarray


class GreenChain:
    """Green function, kernel and root of four conductance chains per round."""

    name = "green-chain"
    ops_per_round = len(inputs.GREEN_SIZES) + 1
    threads = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Nothing is reused across rounds: every round builds its own chains."""

    def prepare(self, r: int):
        chains = inputs.green_round(self.seed, r)
        return [(c, [MeasurableSet(frozenset(p)) for p in c.probes]) for c in chains]

    def execute(self, prepared, span=no_span):
        out = []
        for c, probes in prepared:
            try:
                chain = setkern.MarkovChain.from_conductances(c.atoms, c.edges, c.kill)
                setkern.check_transient(chain)
                data = setkern.green(chain)
                kernel = setkern.green_kernel(chain)
                kernel_values = np.array([[kernel(A, B) for B in probes] for A in probes])
                root = setkern.green_root(chain)
                kvecs = np.array([root @ chain.space.indicator(A) for A in probes])
                out.append(ChainOutput(G=data.G, kernel_values=kernel_values, kvecs=kvecs))
            except Exception as e:  # setkern errors and crashes alike fail the operation
                out.append(e)
        return out

    def verify(self, prepared, out) -> Verdict:
        verdict = Verdict(attempted=self.ops_per_round)
        for (c, _), result in zip(prepared, out):
            if isinstance(result, Exception):
                verdict.fail(c.label, [f"{type(result).__name__}: {result}"])
                continue
            P, w = checks.transition_matrix(c)
            problems = checks.check_green(P, w, result.G, result.kvecs, result.kernel_values, c.probes)
            if problems:
                verdict.fail(c.label, problems)
        return verdict

    def once_per_run(self) -> list[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (FactorizeDense, McIsometry, GreenChain)}
