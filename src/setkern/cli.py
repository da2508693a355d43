"""Batch command-line front-end.

Subcommands load one YAML config, run a fixed suite of checks, and emit a
JSON-lines report (optionally also CSV).  Exit codes: 0 all checks passed,
1 at least one check failed or no check ran, 2 config or parse error, which
every command decides before its first check, the kernel included.
Reports are byte-deterministic for fixed (config, seed), including across
``--workers`` settings, and only the Monte Carlo rows read the seed; pass
``--timings`` to record each row's own runtime at the cost of that determinism.

Every check is one row of ``SUITES``: its name, report tag and tolerance key
(a name of ``config.TOLERANCES``; ``load_config`` resolves each one from its
default, the file and ``--tol``), and a function of the command's shared
``Run`` state that returns a ``linalg.Verdict`` ``(value, bound, passed,
detail)``, or ``None`` when the check does not apply.  Library checks such as
``GramMatrix.psd``, ``check_absolute_continuity``, ``reverse_direction``,
``check_realization`` (``isometry`` on the kernel's root, ``green-factor`` on
the Green root) and the ``markov`` checks return the verdict their row
records.  Library constructors raise, and so does each ``Run`` part built
from them; the loop turns a ``SetKernError`` from a check, or from a part it
reads, into a failed row with no value or bound, and the report is still
written.  An error passes when it is at most ``tol * scale``, by
``linalg.judge``; transience, contractivity and the spectral gap compare a
dimensionless norm or eigenvalue with ``1 - tol``, ``1 + tol`` or ``tol``,
and Monte Carlo sigmas and range rank keep their own rules.  Each command of
``COMMANDS`` runs its suites through one loop.  Every row fails under some
mutation of the library that it exists to catch; ``tests/test_mutations.py``
pins which rows each mutation fails.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import factorization, field, kernels, markov
from .config import ExperimentConfig, load_config
from .errors import ConfigError, SetKernError
from .linalg import Verdict, judge
from .measure import MeasurableSet
from .report import CheckRecord, RunReport

LEVELS = "q-level-<n>"
"""The sweep row, recorded once per partition as ``q-level-0``, ``q-level-1``, ..."""


@dataclass
class Run:
    """State shared by the checks of one command; each part is built on first use, and none draws random numbers.

    A part whose input the library rejects raises its ``SetKernError`` again on every use.
    """

    cfg: ExperimentConfig
    report: RunReport  # also holds the resolved seed, sample count and tolerances

    @cached_property
    def probes(self) -> list[MeasurableSet]:
        """Singletons plus the configured family; decisive for biadditive kernels."""
        return list(dict.fromkeys([*self.cfg.space.singletons(), *self.cfg.family]))

    @cached_property
    def kernel(self) -> kernels.SetKernel:
        if self.cfg.kernel_type == "green":
            return self.green_kernel
        if self.cfg.kernel is None:
            raise SetKernError("no kernel is configured")
        return self.cfg.kernel

    @cached_property
    def gram(self) -> kernels.GramMatrix:
        return kernels.gram(self.kernel, self.probes)

    @cached_property
    def fact(self) -> factorization.Factorization:
        """The realization, attempted only while every check so far has passed: a kernel that failed validation raises."""
        if not self.report.all_passed:
            raise SetKernError("an earlier check failed, so the kernel is not realized")
        return factorization.realize(self.kernel, tol=self.report.tolerances["realization"])

    def realized(self) -> bool:
        """Whether ``fact`` builds: the test of the suites and the export that need a realization."""
        with suppress(SetKernError):
            return self.fact is not None
        return False

    @cached_property
    def parseval(self) -> float:
        """Largest Parseval error over the kernel's eigenbasis ``V / sqrt(w)``; every orthonormal basis gives the same sum."""
        spec = self.kernel.spectrum
        basis = np.zeros((spec.d.size, self.cfg.space.size))
        basis[:, spec.pos] = (spec.vectors / spec.d[:, None]).T
        expansion = factorization.onb_factorization(self.fact, basis, self.probes)
        return float(np.abs(expansion - self.gram.entries).max())

    @cached_property
    def green(self) -> markov.GreenData:
        """The chain's Green function, its series judged at the ``series-solve`` tolerance."""
        return markov.green(self.cfg.chain, agree_tol=self.report.tolerances["series-solve"])

    @cached_property
    def green_kernel(self) -> kernels.SetKernel:
        return markov.green_kernel(self.cfg.chain, agree_tol=self.report.tolerances["series-solve"])

    @cached_property
    def sweep(self) -> tuple[list[float], float, float]:
        """Projection second moments, the exact one ``|S phi|^2_w``, and their bound ``|phi|^2_w lambda_max(T)``."""
        qs = field.refinement_sweep(self.fact, self.cfg.phi, self.cfg.partitions)
        phi = self.cfg.phi.values(self.cfg.space.size)
        return qs, self.fact.s_norm_squared(self.cfg.phi), self.cfg.space.norm_squared(phi) * self.kernel.spectrum.top


# ---------------------------------------------------------------------------
# the check table


class Check(NamedTuple):
    """One row of the check table.

    ``measure`` gets the ``Run`` and the row's tolerance; if it raises
    ``SetKernError``, itself or through a ``Run`` part it reads, the check
    fails with no value or bound.
    """

    name: str
    tag: str
    tol: str | None
    measure: Callable[[Run, float | None], Verdict | None]


def _adjoint(run: Run, tol: float) -> Verdict:
    """``b*`` of the atom basis against the independent ``(b* phi)(A) = int_A S phi dnu``, ``(C D S)^T``, by ``tol * max|C D S|``."""
    space = run.cfg.space
    integrals = space.indicator_matrix(run.probes) @ (space.weight_array[:, None] * run.fact.S)
    star = factorization.coisometry_b_star(run.fact, np.eye(space.size), run.probes)
    return judge(float(np.abs(star - integrals.T).max()), float(np.abs(integrals).max()), tol)


def _range_rank(run: Run, _: None) -> Verdict:
    expected = run.cfg.expect.get("range-rank")
    rank = factorization.b_range_dimension(run.fact)
    return Verdict(float(rank), expected, expected is None or rank == expected)


def _monte_carlo(run: Run, tol: float, check: Callable, *integrands) -> Verdict:
    """Deviation in sigmas; the detail is the ``ItoResult``: estimate, exact, std error, samples and normals drawn."""
    res = check(run.kernel, run.fact, *integrands, run.report.samples, seed=run.report.seed, workers=run.cfg.workers)
    return Verdict(res.deviation_sigmas, tol, res.within(tol), dataclasses.asdict(res))


def _q_attained(run: Run, tol: float) -> Verdict | None:
    if set(run.cfg.partitions[-1].blocks) != set(run.cfg.space.singletons()):
        return None
    qs, exact, scale = run.sweep
    return judge(abs(qs[-1] - exact), scale, tol)


REALIZATION = Check("realization", "realization", "realization", lambda run, tol: judge(run.fact.residual, run.kernel.scale, tol))

SUITES: dict[str, tuple[Callable[[Run], bool], tuple[Check, ...]]] = {
    "chain": (lambda run: run.cfg.chain is not None, (
        Check("detailed-balance", "detailed-balance", "detailed-balance",
              lambda run, tol: markov.check_reversibility(run.cfg.chain, tol)),
        Check("contractivity", "contractivity", "contractivity",
              lambda run, tol: markov.check_contractivity(run.cfg.chain, tol)),
        Check("transience", "transience", "transience-gap", lambda run, tol: markov.check_transient(run.cfg.chain, tol)),
    )),
    "kernel": (lambda run: run.cfg.kernel_type is not None, (
        Check("symmetry", "kernel-symmetry", "symmetry", lambda run, tol: judge(run.gram.asymmetry, run.gram.scale, tol)),
        Check("gram-psd", "positive-definite", "gram-psd", lambda run, tol: run.gram.psd(tol)),
        Check("schwarz", "schwarz", "schwarz", lambda run, tol: run.gram.schwarz(tol)),
        Check("absolute-continuity", "absolute-continuity", "absolute-continuity",
              lambda run, tol: factorization.check_absolute_continuity(run.kernel, run.cfg.family, tol=tol)),
    )),
    "factorize": (lambda run: run.report.all_passed, (
        REALIZATION,
        Check("density-consistency", "density", "density", lambda run, tol: factorization.reverse_direction(run.fact, tol=tol)),
        Check("isometry", "isometry", "isometry",
              lambda run, tol: factorization.check_realization(run.kernel, run.fact.S, run.probes, tol=tol)),
        Check("adjoint", "adjoint", "adjoint", _adjoint),
        Check("parseval", "parseval", "parseval", lambda run, tol: judge(run.parseval, run.gram.scale, tol)),
        Check("range-rank", "range-rank", None, _range_rank),
    )),
    "green": (lambda run: True, (
        Check("spectral-gap", "spectral-gap", "transience-gap",
              lambda run, tol: markov.check_spectral_gap(run.cfg.chain, tol)),
        Check("green-identity", "green-identity", "green-identity", lambda run, tol: judge(float(np.abs(
            run.green.G - run.cfg.chain.transitions @ run.green.G - np.eye(run.cfg.space.size)
        ).max()), run.green.scale, tol)),
        Check("series-solve", "series-agreement", "series-solve", lambda run, tol: markov.check_series(run.cfg.chain, tol)),
        Check("green-psd", "positive-definite", "gram-psd", lambda run, tol: kernels.gram(run.green_kernel, run.probes).psd(tol)),
        Check("green-factor", "green-factorization", "green-factor", lambda run, tol: factorization.check_realization(
            run.green_kernel, markov.green_root(run.cfg.chain), run.probes, tol=tol)),
    )),
    "mc": (Run.realized, (
        Check("ito-isometry", "ito-isometry", "mc-sigma",
              lambda run, tol: _monte_carlo(run, tol, field.ito_isometry_check, run.cfg.phi)),
        Check("cross-moment", "cross-moment", "mc-sigma", lambda run, tol: None if run.cfg.psi is None
              else _monte_carlo(run, tol, field.cross_moment_check, run.cfg.phi, run.cfg.psi)),
    )),
    "sweep": (lambda run: run.realized() and bool(run.cfg.partitions), (
        Check(LEVELS, "projection-moment", None, lambda run, _, level: Verdict(q := run.sweep[0][level], None, bool(np.isfinite(q)))),
        Check("q-monotone", "projection-monotone", "q-monotone", lambda run, tol: judge(
            max((a - b for a, b in zip(run.sweep[0], run.sweep[0][1:])), default=0.0), run.sweep[2], tol
        )),
        Check("q-bound", "projection-limit", "q-final",
              lambda run, tol: judge(run.sweep[0][-1] - run.sweep[1], run.sweep[2], tol)),
        Check("q-attained", "projection-limit", "q-final", _q_attained),
    )),
    # refine-sweep realizes the kernel without validating it and records only a failure
    "unrealized": (lambda run: not run.realized(), (REALIZATION,)),
}

CHECKS = tuple(dict.fromkeys(c.name for _, checks in SUITES.values() for c in checks if c.name != LEVELS))
"""Check names accepted under ``checks:``, besides ``q-level-<n>`` for each configured partition ``n``."""


def _expand_levels(checks: tuple[Check, ...], levels: int):
    for check in checks:
        if check.name != LEVELS:
            yield check
        else:
            for i in range(levels):
                yield check._replace(name=f"q-level-{i}", measure=partial(check.measure, level=i))


def _run_checks(run: Run, checks: tuple[Check, ...], timings: bool) -> None:
    """Record every enabled check that applies, in table order, each with its own runtime under ``timings``."""
    for check in _expand_levels(checks, len(run.cfg.partitions)):
        if not run.cfg.enabled(check.name):
            continue
        t0 = time.perf_counter()
        outcome = Verdict(None, None, False)  # kept when the library rejects what the check reads
        with suppress(SetKernError):
            outcome = check.measure(run, run.report.tolerances.get(check.tol))
        runtime = time.perf_counter() - t0 if timings else None
        if outcome is not None:
            run.report.add(CheckRecord(check.name, check.tag, outcome, runtime))


# ---------------------------------------------------------------------------
# commands

COMMANDS = (
    # name, help, suites in report order; config.SCHEMA names the sections each cannot run without
    ("validate", "Kernel sanity checks: symmetry, positivity, Schwarz, null sets, chain balance.", ("chain", "kernel")),
    ("factorize", "Realize the kernel in weighted L2 and verify the isometry calculus.", ("chain", "kernel", "factorize")),
    ("markov-green", "Chain checks plus Green function, Green kernel, and its factorization.", ("chain", "green")),
    ("simulate", "Monte Carlo second-moment checks (and the projection sweep when configured).",
     ("chain", "kernel", "factorize", "mc", "sweep")),
    ("refine-sweep", "Projection second moments along the configured partition chain.", ("unrealized", "sweep")),
)


def _run(name, suites, config_path, out_path, csv_path, tol_overrides, timings, export_path=None, **flags):
    """Load and vet the config and ``flags``, the text of ``--seed``, ``--samples`` and ``--workers``, run the
    command's suites, write the report and exit with its verdict."""
    def output(path: str | None, default: str) -> Path:  # the one rule for the report, CSV table and export
        out = Path(path) if path else Path(os.environ.get("SETKERN_OUT", ".")) / default
        out.parent.mkdir(parents=True, exist_ok=True)
        return out

    try:
        cfg = load_config(config_path, tol_overrides, command=name, flags=flags, check_names=CHECKS)
        report = RunReport(name, cfg.seed, cfg.samples, cfg.tolerances)
        run = Run(cfg, report)
        for suite in suites:
            applies, checks = SUITES[suite]
            if applies(run):
                _run_checks(run, checks, timings)
        if name == "factorize" and run.realized():
            export = output(export_path, "factorization.json")
            factorization.write_factorization(run.fact, export, family=cfg.family)
            click.echo(f"factorization written to {export}")
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    out = output(out_path, f"{name}-report.jsonl")
    report.write_jsonl(out)
    if csv_path:
        report.write_csv(output(csv_path, f"{name}-report.csv"))
    for line in report.summary_lines():
        click.echo(line)
    click.echo(f"report written to {out}")
    # A run that recorded no check has shown nothing, so it does not pass.
    sys.exit(0 if report.records and report.all_passed else 1)


def _options(name: str) -> list[click.Option]:
    path = click.Path(dir_okay=False)
    options = [
        click.Option(["--config", "config_path"], required=True, type=path),
        click.Option(["--seed"], metavar="INTEGER", help="Override mc.seed, in [0, 2**64)."),
        click.Option(["--samples"], metavar="INTEGER", help="Override mc.samples, in [1, 2**40)."),
        click.Option(["--out", "out_path"], type=path, default=None, help="Report JSONL path."),
        click.Option(["--csv", "csv_path"], type=path, default=None, help="Also write a CSV table."),
        click.Option(["--tol", "tol_overrides"], multiple=True, metavar="NAME=VALUE", help="Override a tolerance (repeatable)."),
        click.Option(["--workers"], metavar="INTEGER", default="1", show_default=True, help="Worker threads for sampling, at least 1."),
        click.Option(["--timings"], is_flag=True, help="Record per-check runtimes (breaks byte-determinism)."),
    ]
    if name == "factorize":
        options.append(click.Option(["--export", "export_path"], type=path, default=None, help="Factorization export path (JSON)."))
    return options


@click.group()
def main():
    """Validate, factorize, and simulate set-indexed kernels from config files."""


for _name, _help, _suites in COMMANDS:
    main.add_command(click.Command(_name, callback=partial(_run, _name, _suites), params=_options(_name), help=_help))


if __name__ == "__main__":
    main()
