"""Batch command-line front-end.

Subcommands load one YAML config, run a fixed suite of checks, and emit a
JSON-lines report (optionally also CSV).  Exit codes: 0 all checks passed,
1 at least one check failed or no check ran, 2 config or parse error, which
every command decides before its first check, the kernel included.
Reports are byte-deterministic for fixed (config, seed), including across
``--workers`` settings, and only the Monte Carlo rows read the seed; pass
``--timings`` to record per-check runtimes at the cost of that determinism.

Every check is one row of ``SUITES``: its name, report tag and tolerance key
(a name of ``config.TOLERANCES``; ``load_config`` resolves each one from its
default, the file and ``--tol``), and a function of the command's shared
``Run`` state that returns a ``linalg.Verdict`` ``(value, bound, passed,
detail)``, or ``None`` when the check does not apply.  Library checks such as
``GramMatrix.psd``, ``check_absolute_continuity``, ``reverse_direction`` and
the ``markov`` checks return the verdict their row records; library
constructors raise, and a check whose input the library rejects fails with
no value or bound while the report is still written.  An error passes when
it is at most ``tol * scale``, by ``linalg.judge``; transience, contractivity
and the spectral gap compare a dimensionless norm or eigenvalue with
``1 - tol``, ``1 + tol`` or ``tol``, and Monte Carlo sigmas and range rank
keep their own rules.  Each command of ``COMMANDS`` runs its suites through
one loop.
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
from typing import Callable, NamedTuple, TypeVar

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

T = TypeVar("T")


def _or_none(build: Callable[[], T]) -> T | None:
    """``build()``, or ``None`` when the library rejects its input."""
    try:
        return build()
    except SetKernError:
        return None  # the checks that need it are recorded as failed


@dataclass
class Run:
    """State shared by the checks of one command; each part is built on first use, and none draws random numbers."""

    cfg: ExperimentConfig
    report: RunReport  # also holds the resolved seed, sample count and tolerances
    workers: int

    @cached_property
    def probes(self) -> list[MeasurableSet]:
        """Singletons plus the configured family; decisive for biadditive kernels."""
        return list(dict.fromkeys([*self.cfg.space.singletons(), *self.cfg.family]))

    @cached_property
    def kernel(self) -> kernels.SetKernel | None:
        return self.green_kernel if self.cfg.kernel_type == "green" else self.cfg.kernel

    @cached_property
    def gram(self) -> kernels.GramMatrix | None:
        return kernels.gram(self.kernel, self.probes) if self.kernel is not None else None

    @cached_property
    def fact(self) -> factorization.Factorization | None:
        """The realization, attempted only while every check so far has passed.

        A kernel that failed validation is therefore never realized.
        """
        if self.kernel is None or not self.report.all_passed:
            return None
        return _or_none(lambda: factorization.realize(self.kernel, tol=self.report.tolerances["realization"]))

    @cached_property
    def parseval(self) -> tuple[float, float]:
        """Parseval error over the atom basis ``e_x / sqrt(w_x)`` and the kernel's eigenbasis, and their disagreement."""
        spec = self.kernel.spectrum
        basis1 = np.eye(self.cfg.space.size)[spec.pos] / spec.d[:, None]
        basis2 = np.zeros_like(basis1)
        basis2[:, spec.pos] = (spec.vectors / spec.d[:, None]).T
        G = self.gram.entries
        s1 = factorization.onb_factorization(self.fact, basis1, self.probes)
        s2 = factorization.onb_factorization(self.fact, basis2, self.probes)
        return float(max(np.abs(s1 - G).max(), np.abs(s2 - G).max())), float(np.abs(s1 - s2).max())

    @cached_property
    def green(self) -> markov.GreenData | None:
        """The chain's Green function, its series judged at the ``series-solve`` tolerance."""
        return _or_none(lambda: markov.green(self.cfg.chain, agree_tol=self.report.tolerances["series-solve"]))

    @cached_property
    def green_kernel(self) -> kernels.SetKernel | None:
        return None if self.green is None else _or_none(lambda: markov.green_kernel(self.cfg.chain, data=self.green))

    @cached_property
    def sweep(self) -> tuple[list[float], float, float]:
        """Projection second moments, the exact one ``|S phi|^2_w``, and their bound ``|phi|^2_w lambda_max(T)``."""
        qs = field.refinement_sweep(self.fact, self.cfg.phi, self.cfg.partitions)
        phi = self.cfg.phi.values(self.cfg.space.size)
        return qs, self.fact.s_norm_squared(self.cfg.phi), self.cfg.space.norm_squared(phi) * self.kernel.spectrum.top


# ---------------------------------------------------------------------------
# the check table


class Check(NamedTuple):
    """One row of the check table."""

    name: str
    tag: str
    tol: str | None
    measure: Callable[[Run, float | None], Verdict | None]
    needs: str | None = None
    """The ``Run`` part the check reads; if it is missing, or ``measure`` raises ``SetKernError``, the check fails with no value."""
    shared: bool = False
    """Record the runtime of the check before it, which computed both."""


def _isometry(run: Run, tol: float) -> Verdict:
    """``max|K_P D K_P^T - G_P|`` over the probe family against ``tol * max|G_P|``: ``|b F|^2 = |F|^2`` for every ``F`` at once."""
    K = run.fact.k_rows(run.probes)
    inner = K @ (run.cfg.space.weight_array[:, None] * K.T)
    return judge(float(np.abs(inner - run.gram.entries).max()), run.gram.scale, tol)


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


def _green_factor(run: Run, tol: float) -> Verdict:
    """Largest error of ``<k_A, k_B>`` from the Green root against the kernel, over the probe family."""
    space = run.cfg.space
    C = space.indicator_matrix(run.probes)
    kvecs = C @ markov.green_root(run.cfg.chain).T
    inner = kvecs @ (space.weight_array[:, None] * kvecs.T)
    K = C @ run.green_kernel.Q @ C.T
    return judge(float(np.abs(inner - K).max()), float(np.abs(K).max()), tol)


def _monte_carlo(run: Run, tol: float, check: Callable, *integrands) -> Verdict:
    """Deviation in sigmas; the detail is the ``ItoResult``: estimate, exact, std error, samples and normals drawn."""
    res = check(run.kernel, run.fact, *integrands, run.report.samples, seed=run.report.seed, workers=run.workers)
    return Verdict(res.deviation_sigmas, tol, res.within(tol), dataclasses.asdict(res))


def _q_attained(run: Run, tol: float) -> Verdict | None:
    if set(run.cfg.partitions[-1].blocks) != set(run.cfg.space.singletons()):
        return None
    qs, exact, scale = run.sweep
    return judge(abs(qs[-1] - exact), scale, tol)


REALIZATION = Check("realization", "realization", "realization",
                    lambda run, tol: judge(run.fact.residual, run.kernel.scale, tol), needs="fact")

SUITES: dict[str, tuple[Callable[[Run], bool], tuple[Check, ...]]] = {
    "chain": (lambda run: run.cfg.chain is not None, (
        Check("detailed-balance", "detailed-balance", "detailed-balance",
              lambda run, tol: markov.check_reversibility(run.cfg.chain, tol)),
        Check("contractivity", "contractivity", "contractivity",
              lambda run, tol: markov.check_contractivity(run.cfg.chain, tol)),
        Check("transience", "transience", "transience-gap", lambda run, tol: markov.check_transient(run.cfg.chain, tol)),
    )),
    "kernel": (lambda run: run.cfg.kernel_type is not None, (
        Check("symmetry", "kernel-symmetry", "symmetry", lambda run, tol: judge(run.gram.asymmetry, run.gram.scale, tol), needs="gram"),
        Check("gram-psd", "positive-definite", "gram-psd", lambda run, tol: run.gram.psd(tol), needs="gram"),
        Check("schwarz", "schwarz", "schwarz", lambda run, tol: run.gram.schwarz(tol), needs="gram"),
        Check("absolute-continuity", "absolute-continuity", "absolute-continuity",
              lambda run, tol: factorization.check_absolute_continuity(run.kernel, run.cfg.family, tol=tol), needs="kernel"),
    )),
    "factorize": (lambda run: run.report.all_passed, (
        REALIZATION,
        Check("density-consistency", "density", "density",
              lambda run, tol: factorization.reverse_direction(run.fact, tol=tol), needs="fact"),
        Check("isometry", "isometry", "isometry", _isometry, needs="fact"),
        Check("adjoint", "adjoint", "adjoint", _adjoint, needs="fact"),
        Check("parseval", "parseval", "parseval",
              lambda run, tol: judge(run.parseval[0], run.gram.scale, tol), needs="fact"),
        Check("parseval-invariance", "parseval", "parseval-invariance",
              lambda run, tol: judge(run.parseval[1], run.gram.scale, tol), needs="fact", shared=True),
        Check("range-rank", "range-rank", None, _range_rank, needs="fact"),
    )),
    "green": (lambda run: True, (
        Check("spectral-gap", "spectral-gap", "transience-gap",
              lambda run, tol: markov.check_spectral_gap(run.cfg.chain, tol)),
        Check("green-identity", "green-identity", "green-identity", lambda run, tol: judge(float(np.abs(
            run.green.G - run.cfg.chain.transitions @ run.green.G - np.eye(run.cfg.space.size)
        ).max()), run.green.scale, tol), needs="green"),
        Check("series-solve", "series-agreement", "series-solve", lambda run, tol: markov.check_series(run.cfg.chain, tol)),
        Check("green-psd", "positive-definite", "gram-psd",
              lambda run, tol: kernels.gram(run.green_kernel, run.probes).psd(tol), needs="green_kernel"),
        Check("green-factor", "green-factorization", "green-factor", _green_factor, needs="green_kernel"),
        Check("fundamental-match", "fundamental-matrix", "fundamental-match", lambda run, tol: judge(
            float(np.abs(factorization.build_T(run.green_kernel) - run.green.G).max()), run.green.scale, tol
        ), needs="green_kernel"),
    )),
    "mc": (lambda run: run.fact is not None, (
        Check("ito-isometry", "ito-isometry", "mc-sigma",
              lambda run, tol: _monte_carlo(run, tol, field.ito_isometry_check, run.cfg.phi)),
        Check("cross-moment", "cross-moment", "mc-sigma", lambda run, tol: None if run.cfg.psi is None
              else _monte_carlo(run, tol, field.cross_moment_check, run.cfg.phi, run.cfg.psi)),
    )),
    "sweep": (lambda run: run.fact is not None and bool(run.cfg.partitions), (
        Check(LEVELS, "projection-moment", None, lambda run, _, level: Verdict(q := run.sweep[0][level], None, bool(np.isfinite(q)))),
        Check("q-monotone", "projection-monotone", "q-monotone", lambda run, tol: judge(
            max((a - b for a, b in zip(run.sweep[0], run.sweep[0][1:])), default=0.0), run.sweep[2], tol
        )),
        Check("q-bound", "projection-limit", "q-final",
              lambda run, tol: judge(run.sweep[0][-1] - run.sweep[1], run.sweep[2], tol)),
        Check("q-attained", "projection-limit", "q-final", _q_attained),
    )),
    # refine-sweep realizes the kernel without validating it and records only a failure
    "unrealized": (lambda run: run.fact is None, (REALIZATION,)),
}

CHECKS = tuple(dict.fromkeys(c.name for _, checks in SUITES.values() for c in checks if c.name != LEVELS))
"""Check names accepted under ``checks:``, besides ``q-level-<n>`` for each configured partition ``n``."""


def _expand_levels(checks: tuple[Check, ...], levels: int):
    for check in checks:
        if check.name != LEVELS:
            yield check
        else:
            for i in range(levels):
                yield check._replace(name=f"q-level-{i}", measure=partial(check.measure, level=i), shared=i > 0)


def _run_checks(run: Run, checks: tuple[Check, ...], timings: bool) -> None:
    """Record every enabled check that applies, in table order."""
    last = None  # runtime of the previous check, if it ran
    for check in _expand_levels(checks, len(run.cfg.partitions)):
        if not run.cfg.enabled(check.name):
            last = None
            continue
        t0 = time.perf_counter()
        outcome = Verdict(None, None, False)  # kept when the library rejects what the check reads
        if check.needs is None or getattr(run, check.needs) is not None:
            with suppress(SetKernError):
                outcome = check.measure(run, run.report.tolerances.get(check.tol))
        runtime = time.perf_counter() - t0 if timings else None
        if check.shared and last is not None:
            runtime = last
        last = runtime
        if outcome is not None:
            run.report.add(CheckRecord(check.name, check.tag, outcome, runtime))


# ---------------------------------------------------------------------------
# commands

COMMANDS = (
    # name, help, config sections it cannot run without, suites in report order
    ("validate", "Kernel sanity checks: symmetry, positivity, Schwarz, null sets, chain balance.",
     (), ("chain", "kernel")),
    ("factorize", "Realize the kernel in weighted L2 and verify the isometry calculus.",
     (), ("chain", "kernel", "factorize")),
    ("markov-green", "Chain checks plus Green function, Green kernel, and its factorization.",
     ("chain",), ("chain", "green")),
    ("simulate", "Monte Carlo second-moment checks (and the projection sweep when configured).",
     ("phi",), ("chain", "kernel", "factorize", "mc", "sweep")),
    ("refine-sweep", "Projection second moments along the configured partition chain.",
     ("phi", "partitions", "kernel"), ("unrealized", "sweep")),
)


def _check_names(cfg: ExperimentConfig) -> None:
    levels = [f"q-level-{i}" for i in range(len(cfg.partitions))]  # a list: a YAML entry may be unhashable
    for name in cfg.checks or ():
        if name not in CHECKS and name not in levels:
            raise ConfigError(f"checks: unknown check {name!r}")


def _split_tolerances(overrides: tuple[str, ...]) -> list[tuple[str, str]]:
    """Each ``--tol NAME=VALUE`` as the pair ``load_config`` reads."""
    pairs = []
    for item in overrides:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        pairs.append((name, value))
    return pairs


def _run(name, requires, suites, config_path, seed, samples, out_path, csv_path, tol_overrides, workers, timings,
         export_path=None):
    """Load and vet the config, run the command's suites, write the report and exit with its verdict."""
    out_dir = Path(os.environ.get("SETKERN_OUT", "."))
    try:
        cfg = load_config(config_path, _split_tolerances(tol_overrides))
        _check_names(cfg)
        for section in requires:
            if getattr(cfg, "kernel_type" if section == "kernel" else section) in (None, ()):
                raise ConfigError(f"{name} requires a {section} section")
        seed = cfg.seed if seed is None else seed
        samples = cfg.samples if samples is None else samples
        report = RunReport(command=name, seed=seed, samples=samples, tolerances=cfg.tolerances)
        run = Run(cfg, report, workers)
        for suite in suites:
            applies, checks = SUITES[suite]
            if applies(run):
                _run_checks(run, checks, timings)
        if name == "factorize" and run.fact is not None:
            export = Path(export_path) if export_path else out_dir / "factorization.json"
            export.parent.mkdir(parents=True, exist_ok=True)
            factorization.write_factorization(run.fact, export, family=cfg.family)
            click.echo(f"factorization written to {export}")
    except ConfigError as e:
        click.echo(f"config error: {e}", err=True)
        sys.exit(2)
    out = Path(out_path) if out_path else out_dir / f"{name}-report.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    report.write_jsonl(out)
    if csv_path:
        report.write_csv(csv_path)
    for line in report.summary_lines():
        click.echo(line)
    click.echo(f"report written to {out}")
    # A run that recorded no check has shown nothing, so it does not pass.
    sys.exit(0 if report.records and report.all_passed else 1)


def _options(name: str) -> list[click.Option]:
    path = click.Path(dir_okay=False)
    options = [
        click.Option(["--config", "config_path"], required=True, type=path),
        click.Option(["--seed"], type=click.IntRange(0, 2**64 - 1), default=None, help="Override mc.seed."),
        click.Option(["--samples"], type=click.IntRange(1), default=None, help="Override mc.samples."),
        click.Option(["--out", "out_path"], type=path, default=None, help="Report JSONL path."),
        click.Option(["--csv", "csv_path"], type=path, default=None, help="Also write a CSV table."),
        click.Option(["--tol", "tol_overrides"], multiple=True, metavar="NAME=VALUE", help="Override a tolerance (repeatable)."),
        click.Option(["--workers"], type=click.IntRange(1), default=1, show_default=True, help="Worker threads for sampling."),
        click.Option(["--timings"], is_flag=True, help="Record per-check runtimes (breaks byte-determinism)."),
    ]
    if name == "factorize":
        options.append(click.Option(["--export", "export_path"], type=path, default=None, help="Factorization export path (JSON)."))
    return options


@click.group()
def main():
    """Validate, factorize, and simulate set-indexed kernels from config files."""


for _name, _help, _requires, _suites in COMMANDS:
    main.add_command(click.Command(
        _name, callback=partial(_run, _name, _requires, _suites), params=_options(_name), help=_help
    ))


if __name__ == "__main__":
    main()
