"""Batch command-line front-end.

Subcommands load one YAML config, run a fixed suite of checks, and emit a
JSON-lines report (optionally also CSV).  Exit codes: 0 all checks passed,
1 at least one check failed, 2 config or parse error.  Reports are
byte-deterministic for fixed (config, seed), including across ``--workers``
settings; pass ``--timings`` to record per-check runtimes at the cost of
that determinism.
"""

from __future__ import annotations

import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError, SetKernError
from .factorization import (
    Factorization,
    b_range_dimension,
    build_T,
    check_absolute_continuity,
    onb_gram,
    realize,
    reverse_direction,
    write_factorization,
)
from .field import cross_moment_check, ito_isometry_check, refinement_sweep
from .kernels import GramMatrix, SetKernel, gram
from .markov import (
    MarkovChain,
    check_transient,
    contractivity_check,
    green,
    green_kernel,
    green_root,
    reversibility_defect,
    spectral_gap,
)
from .measure import MeasurableSet
from .report import RunReport

DEFAULT_TOLERANCES: dict[str, float] = {
    "symmetry": 1e-12,
    "gram-psd": 1e-10,
    "schwarz": 1e-10,
    "absolute-continuity": 1e-10,
    "detailed-balance": 1e-10,
    "contractivity": 1e-10,
    "transience-gap": 1e-10,
    "realization": 1e-8,
    "density": 1e-9,
    "isometry": 1e-9,
    "adjoint": 1e-9,
    "parseval": 1e-9,
    "parseval-invariance": 1e-10,
    "green-identity": 1e-9,
    "series-solve": 1e-8,
    "green-factor": 1e-8,
    "fundamental-match": 1e-8,
    "mc-sigma": 5.0,
    "q-monotone": 1e-10,
    "q-final": 1e-9,
}

CHECKS = (
    "symmetry", "gram-psd", "schwarz", "absolute-continuity",
    "detailed-balance", "contractivity", "transience", "spectral-gap",
    "realization", "density-consistency", "isometry", "adjoint", "parseval", "parseval-invariance",
    "range-rank", "green-identity", "series-solve", "green-psd", "green-factor", "fundamental-match",
    "ito-isometry", "cross-moment", "q-monotone", "q-bound", "q-attained",
)
"""Check names accepted under ``checks:``, besides the pattern ``q-level-<n>``."""

EXPECTATIONS = ("range-rank",)
"""Names accepted under ``expect:``."""


@dataclass
class RunContext:
    cfg: ExperimentConfig
    tol: dict[str, float]
    seed: int
    samples: int
    workers: int
    timings: bool

    def tick(self) -> float | None:
        return time.perf_counter() if self.timings else None

    def tock(self, t0: float | None) -> float | None:
        return time.perf_counter() - t0 if t0 is not None else None

    def probe_family(self) -> list[MeasurableSet]:
        """Singletons plus the configured family; decisive for biadditive kernels."""
        return list(dict.fromkeys([*self.cfg.space.singletons(), *self.cfg.family]))


def _check_names(cfg: ExperimentConfig) -> None:
    for name in cfg.checks or ():
        if name not in CHECKS and not re.fullmatch(r"q-level-\d+", name):
            raise ConfigError(f"checks: unknown check {name!r}")
    for name in cfg.expect:
        if name not in EXPECTATIONS:
            raise ConfigError(f"expect: unknown expectation {name!r}")


def _resolve_tolerances(cfg: ExperimentConfig, overrides: tuple[str, ...]) -> dict[str, float]:
    tol = dict(DEFAULT_TOLERANCES)
    for name, value in cfg.tolerances.items():
        if name not in tol:
            raise ConfigError(f"unknown tolerance {name!r}")
        tol[name] = float(value)
    for item in overrides:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        if name not in tol:
            raise ConfigError(f"unknown tolerance {name!r}")
        try:
            tol[name] = float(value)
        except ValueError:
            raise ConfigError(f"--tol {name}: {value!r} is not a number") from None
    return tol


# ---------------------------------------------------------------------------
# check suites


def _bounded(
    report: RunReport,
    ctx: RunContext,
    check: str,
    tag: str,
    tol: str,
    value: float | None,
    t0: float | None = None,
    ok: bool = True,
) -> None:
    """Record ``check``: it passes when ``value`` exists, is within ``ctx.tol[tol]`` and ``ok`` holds."""
    bound = ctx.tol[tol]
    passed = ok and value is not None and value <= bound
    report.add(check, tag, passed, value=value, bound=bound, runtime=ctx.tock(t0))


def _chain_checks(report: RunReport, ctx: RunContext, chain: MarkovChain) -> None:
    cfg = ctx.cfg
    if cfg.enabled("detailed-balance"):
        t0 = ctx.tick()
        defect = reversibility_defect(chain)
        _bounded(report, ctx, "detailed-balance", "detailed-balance", "detailed-balance", defect, t0)
    if cfg.enabled("contractivity"):
        t0 = ctx.tick()
        ok = contractivity_check(chain, seed=ctx.seed, tol=ctx.tol["contractivity"])
        report.add("contractivity", "contractivity", ok, runtime=ctx.tock(t0))
    if cfg.enabled("transience"):
        t0 = ctx.tick()
        try:
            rho = check_transient(chain)
            ok = True
        except SetKernError as e:
            rho = getattr(e, "spectral_bound", None)
            ok = False
        report.add(
            "transience",
            "transience",
            ok,
            value=rho,
            bound=1 - ctx.tol["transience-gap"],
            runtime=ctx.tock(t0),
        )


def _psd_record(report: RunReport, ctx: RunContext, check: str, g: GramMatrix | None) -> None:
    t0 = ctx.tick()
    value = bound = None
    if g is not None:
        value, bound = g.min_eigenvalue, g.psd_bound(ctx.tol["gram-psd"])
    passed = g is not None and value >= bound
    report.add(check, "positive-definite", passed, value=value, bound=bound, runtime=ctx.tock(t0))


def _kernel_checks(report: RunReport, ctx: RunContext, kernel: SetKernel | None) -> None:
    """Symmetry, positivity and Schwarz from one Gram of the probe family, then null sets."""
    cfg = ctx.cfg
    g = gram(kernel, ctx.probe_family()) if kernel is not None else None
    if cfg.enabled("symmetry"):
        t0 = ctx.tick()
        _bounded(report, ctx, "symmetry", "kernel-symmetry", "symmetry", g.asymmetry if g else None, t0)
    if cfg.enabled("gram-psd"):
        _psd_record(report, ctx, "gram-psd", g)
    if cfg.enabled("schwarz"):
        t0 = ctx.tick()
        _bounded(report, ctx, "schwarz", "schwarz", "schwarz", g.schwarz_excess() if g else None, t0)
    if cfg.enabled("absolute-continuity"):
        t0 = ctx.tick()
        value = None
        ok = False
        if kernel is not None:
            ac = check_absolute_continuity(kernel, cfg.family, tol=ctx.tol["absolute-continuity"])
            value = max((v for _, v in ac.violations), default=0.0)
            ok = ac.ok
        _bounded(report, ctx, "absolute-continuity", "absolute-continuity", "absolute-continuity", value, t0, ok)


def _validate_suite(report: RunReport, ctx: RunContext) -> SetKernel | None:
    if ctx.cfg.chain is not None:
        _chain_checks(report, ctx, ctx.cfg.chain)
    kernel = None
    if ctx.cfg.kernel_type is not None:
        try:
            kernel = ctx.cfg.kernel()
        except ConfigError:
            raise
        except SetKernError:
            kernel = None  # dependent checks are recorded as failed
        _kernel_checks(report, ctx, kernel)
    return kernel


def _random_coefficients(rng: np.random.Generator, m: int) -> np.ndarray:
    """A random element ``sum_i alpha_i K(., A_i)`` of one to four terms over a pool of ``m`` sets."""
    k = int(rng.integers(1, 5))
    idx = rng.integers(0, m, size=k)
    coefs = rng.uniform(-2.0, 2.0, size=k)
    alpha = np.zeros(m)
    np.add.at(alpha, idx, coefs)
    return alpha


def _factorize_suite(report: RunReport, ctx: RunContext, kernel: SetKernel | None) -> Factorization | None:
    cfg = ctx.cfg
    space = cfg.space
    pool = ctx.probe_family()

    fact = None
    t0 = ctx.tick()
    if kernel is not None:
        try:
            fact = realize(kernel, tol=ctx.tol["realization"])
        except SetKernError:
            fact = None
    if cfg.enabled("realization"):
        _bounded(report, ctx, "realization", "realization", "realization", fact.residual if fact else None, t0)

    if cfg.enabled("density-consistency"):
        t0 = ctx.tick()
        value = None
        ok = False
        if fact is not None:
            rep = reverse_direction(fact, tol=math.inf)
            value = rep.max_residual
            ok = rep.absolute_continuity_ok
        _bounded(report, ctx, "density-consistency", "density", "density", value, t0, ok)

    # Every random element below is a coefficient vector over the pool: its
    # reproducing-space norm comes from the pool Gram, and its image under
    # the isometry from the rows k_A of C S^T.
    rng = np.random.default_rng(ctx.seed)
    w = space.weight_array
    if fact is not None:
        G = gram(kernel, pool).entries
        kvecs = space.indicator_matrix(pool) @ fact.S.T

    if cfg.enabled("isometry"):
        t0 = ctx.tick()
        value = None
        if fact is not None:
            alpha = np.array([_random_coefficients(rng, len(pool)) for _ in range(1000)])
            n2 = np.einsum("ij,jk,ik->i", alpha, G, alpha)
            image_n2 = (alpha @ kvecs) ** 2 @ w
            value = float(np.max(np.abs(image_n2 - n2) / np.maximum(1.0, np.abs(n2))))
        _bounded(report, ctx, "isometry", "isometry", "isometry", value, t0)

    if cfg.enabled("adjoint"):
        t0 = ctx.tick()
        value = None
        if fact is not None:
            phis, alphas = [], []
            for _ in range(200):
                phis.append(rng.standard_normal(space.size))
                alphas.append(_random_coefficients(rng, len(pool)))
            phi_w = np.array(phis) * w
            alpha = np.array(alphas)
            lhs = ((phi_w @ kvecs.T) * alpha).sum(axis=1)  # sum_i alpha_i (b* phi)(A_i)
            rhs = (phi_w * (alpha @ kvecs)).sum(axis=1)  # <phi, b(F)>
            value = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
        _bounded(report, ctx, "adjoint", "adjoint", "adjoint", value, t0)

    if cfg.enabled("parseval") or cfg.enabled("parseval-invariance"):
        t0 = ctx.tick()
        match = invariance = None
        if fact is not None:
            pos = np.flatnonzero(space.positive)
            root_w = np.sqrt(w[pos])
            basis1 = np.eye(space.size)[pos] / root_w[:, None]
            Q, _ = np.linalg.qr(rng.standard_normal((len(pos), len(pos))))
            basis2 = np.zeros((len(pos), space.size))
            basis2[:, pos] = Q.T / root_w[None, :]
            s1 = onb_gram(fact, basis1, pool)
            s2 = onb_gram(fact, basis2, pool)
            match = float(max(np.abs(s1 - G).max(), np.abs(s2 - G).max()))
            invariance = float(np.abs(s1 - s2).max())
        runtime = ctx.tock(t0)
        for check, value in (("parseval", match), ("parseval-invariance", invariance)):
            if cfg.enabled(check):
                passed = value is not None and value <= ctx.tol[check]
                report.add(check, "parseval", passed, value=value, bound=ctx.tol[check], runtime=runtime)

    if cfg.enabled("range-rank"):
        t0 = ctx.tick()
        value = None
        expected = cfg.expect.get("range-rank")
        ok = False
        if fact is not None:
            rank = b_range_dimension(fact, cfg.family)
            value = float(rank)
            ok = expected is None or rank == int(expected)
        report.add("range-rank", "range-rank", ok, value=value, bound=expected, runtime=ctx.tock(t0))

    return fact


def _green_suite(report: RunReport, ctx: RunContext) -> None:
    cfg = ctx.cfg
    space = cfg.space
    chain = cfg.chain
    _chain_checks(report, ctx, chain)

    if cfg.enabled("spectral-gap"):
        t0 = ctx.tick()
        gap = spectral_gap(chain)
        bound = ctx.tol["transience-gap"]
        report.add("spectral-gap", "spectral-gap", gap >= bound, value=gap, bound=bound, runtime=ctx.tock(t0))

    data = kernel = None
    try:
        data = green(chain)
        kernel = green_kernel(chain)
    except SetKernError:
        pass

    if cfg.enabled("green-identity"):
        t0 = ctx.tick()
        value = None
        if data is not None:
            identity = np.eye(space.size)
            value = float(np.abs((identity - chain.transitions) @ data.G - identity).max())
        _bounded(report, ctx, "green-identity", "green-identity", "green-identity", value, t0)
    if cfg.enabled("series-solve"):
        t0 = ctx.tick()
        value = data.series_agreement if data else None
        _bounded(report, ctx, "series-solve", "series-agreement", "series-solve", value, t0)

    if cfg.enabled("green-psd"):
        _psd_record(report, ctx, "green-psd", gram(kernel, ctx.probe_family()) if kernel else None)

    if cfg.enabled("green-factor"):
        t0 = ctx.tick()
        value = None
        if kernel is not None:
            if space.size <= 6:
                sets = [
                    MeasurableSet(frozenset(i for i in range(space.size) if mask >> i & 1))
                    for mask in range(2**space.size)
                ]
            else:
                sets = ctx.probe_family()
            C = space.indicator_matrix(sets)
            kvecs = C @ green_root(chain).T
            inner = kvecs @ (space.weight_array[:, None] * kvecs.T)
            value = float(np.abs(inner - C @ kernel.Q @ C.T).max())
        _bounded(report, ctx, "green-factor", "green-factorization", "green-factor", value, t0)

    if cfg.enabled("fundamental-match"):
        t0 = ctx.tick()
        value = float(np.abs(build_T(kernel) - data.G).max()) if kernel is not None else None
        _bounded(report, ctx, "fundamental-match", "fundamental-matrix", "fundamental-match", value, t0)


def _sweep_records(report: RunReport, ctx: RunContext, kernel: SetKernel, fact: Factorization) -> None:
    cfg = ctx.cfg
    t0 = ctx.tick()
    qs = refinement_sweep(kernel, fact, cfg.phi, cfg.partitions)
    runtime = ctx.tock(t0)
    for i, q in enumerate(qs):
        if cfg.enabled(f"q-level-{i}"):
            report.add(f"q-level-{i}", "projection-moment", True, value=q, runtime=runtime)
    exact = fact.s_norm_squared(cfg.phi)
    if cfg.enabled("q-monotone"):
        worst = max((qs[i] - qs[i + 1] for i in range(len(qs) - 1)), default=0.0)
        _bounded(report, ctx, "q-monotone", "projection-monotone", "q-monotone", worst)
    if cfg.enabled("q-bound"):
        _bounded(report, ctx, "q-bound", "projection-limit", "q-final", qs[-1] - exact)
    finest = cfg.partitions[-1]
    if set(finest.blocks) == set(cfg.space.singletons()) and cfg.enabled("q-attained"):
        _bounded(report, ctx, "q-attained", "projection-limit", "q-final", abs(qs[-1] - exact))


def _mc_records(report: RunReport, ctx: RunContext, kernel: SetKernel, fact: Factorization) -> None:
    cfg = ctx.cfg
    if cfg.enabled("ito-isometry"):
        t0 = ctx.tick()
        res = ito_isometry_check(
            kernel, fact, cfg.phi, ctx.samples, seed=ctx.seed, workers=ctx.workers
        )
        report.add(
            "ito-isometry",
            "ito-isometry",
            res.within(ctx.tol["mc-sigma"]),
            value=res.deviation_sigmas,
            bound=ctx.tol["mc-sigma"],
            runtime=ctx.tock(t0),
        )
    if cfg.psi is not None and cfg.enabled("cross-moment"):
        t0 = ctx.tick()
        res = cross_moment_check(
            kernel, fact, cfg.phi, cfg.psi, ctx.samples, seed=ctx.seed, workers=ctx.workers
        )
        report.add(
            "cross-moment",
            "cross-moment",
            res.within(ctx.tol["mc-sigma"]),
            value=res.deviation_sigmas,
            bound=ctx.tol["mc-sigma"],
            runtime=ctx.tock(t0),
        )


# ---------------------------------------------------------------------------
# command plumbing


def _common_options(f):
    options = [
        click.option("--config", "config_path", required=True, type=click.Path(dir_okay=False)),
        click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None, help="Override mc.seed."),
        click.option("--samples", type=click.IntRange(1), default=None, help="Override mc.samples."),
        click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Report JSONL path."),
        click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None, help="Also write a CSV table."),
        click.option("--tol", "tol_overrides", multiple=True, metavar="NAME=VALUE", help="Override a tolerance (repeatable)."),
        click.option("--workers", type=click.IntRange(1), default=1, show_default=True, help="Worker threads for sampling."),
        click.option("--timings", is_flag=True, help="Record per-check runtimes (breaks byte-determinism)."),
    ]
    for opt in reversed(options):
        f = opt(f)
    return f


def _out_dir() -> Path:
    return Path(os.environ.get("SETKERN_OUT", "."))


def _prepare(command, config_path, seed, samples, tol_overrides, workers, timings):
    cfg = load_config(config_path)
    _check_names(cfg)
    tol = _resolve_tolerances(cfg, tol_overrides)
    ctx = RunContext(
        cfg=cfg,
        tol=tol,
        seed=cfg.seed if seed is None else seed,
        samples=cfg.samples if samples is None else samples,
        workers=workers,
        timings=timings,
    )
    report = RunReport(
        command=command, seed=ctx.seed, samples=ctx.samples, tolerances=tol
    )
    return ctx, report


def _finish(report: RunReport, command: str, out_path, csv_path) -> None:
    out = Path(out_path) if out_path else _out_dir() / f"{command}-report.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    report.write_jsonl(out)
    if csv_path:
        report.write_csv(csv_path)
    for line in report.summary_lines():
        click.echo(line)
    click.echo(f"report written to {out}")
    sys.exit(0 if report.all_passed else 1)


def _config_abort(e: ConfigError) -> None:
    click.echo(f"config error: {e}", err=True)
    sys.exit(2)


@click.group()
def main():
    """Validate, factorize, and simulate set-indexed kernels from config files."""


@main.command()
@_common_options
def validate(config_path, seed, samples, out_path, csv_path, tol_overrides, workers, timings):
    """Kernel sanity checks: symmetry, positivity, Schwarz, null sets, chain balance."""
    try:
        ctx, report = _prepare("validate", config_path, seed, samples, tol_overrides, workers, timings)
        _validate_suite(report, ctx)
    except ConfigError as e:
        _config_abort(e)
    _finish(report, "validate", out_path, csv_path)


@main.command()
@_common_options
@click.option(
    "--export",
    "export_path",
    type=click.Path(dir_okay=False),
    default=None,
    help="Factorization export path (JSON).",
)
def factorize(config_path, seed, samples, out_path, csv_path, tol_overrides, workers, timings, export_path):
    """Realize the kernel in weighted L2 and verify the isometry calculus."""
    try:
        ctx, report = _prepare("factorize", config_path, seed, samples, tol_overrides, workers, timings)
        kernel = _validate_suite(report, ctx)
        fact = None
        if report.all_passed:
            fact = _factorize_suite(report, ctx, kernel)
        if fact is not None:
            export = Path(export_path) if export_path else _out_dir() / "factorization.json"
            export.parent.mkdir(parents=True, exist_ok=True)
            write_factorization(fact, export, family=ctx.cfg.family)
            click.echo(f"factorization written to {export}")
    except ConfigError as e:
        _config_abort(e)
    _finish(report, "factorize", out_path, csv_path)


@main.command("markov-green")
@_common_options
def markov_green(config_path, seed, samples, out_path, csv_path, tol_overrides, workers, timings):
    """Chain checks plus Green function, Green kernel, and its factorization."""
    try:
        ctx, report = _prepare("markov-green", config_path, seed, samples, tol_overrides, workers, timings)
        if ctx.cfg.chain is None:
            raise ConfigError("markov-green requires a chain section")
        _green_suite(report, ctx)
    except ConfigError as e:
        _config_abort(e)
    _finish(report, "markov-green", out_path, csv_path)


@main.command()
@_common_options
def simulate(config_path, seed, samples, out_path, csv_path, tol_overrides, workers, timings):
    """Monte Carlo second-moment checks (and the projection sweep when configured)."""
    try:
        ctx, report = _prepare("simulate", config_path, seed, samples, tol_overrides, workers, timings)
        if ctx.cfg.phi is None:
            raise ConfigError("simulate requires a phi section")
        kernel = _validate_suite(report, ctx)
        fact = None
        if report.all_passed:
            fact = _factorize_suite(report, ctx, kernel)
        if fact is not None:
            _mc_records(report, ctx, kernel, fact)
            if ctx.cfg.partitions:
                _sweep_records(report, ctx, kernel, fact)
    except ConfigError as e:
        _config_abort(e)
    _finish(report, "simulate", out_path, csv_path)


@main.command("refine-sweep")
@_common_options
def refine_sweep(config_path, seed, samples, out_path, csv_path, tol_overrides, workers, timings):
    """Projection second moments along the configured partition chain."""
    try:
        ctx, report = _prepare("refine-sweep", config_path, seed, samples, tol_overrides, workers, timings)
        if ctx.cfg.phi is None:
            raise ConfigError("refine-sweep requires a phi section")
        if not ctx.cfg.partitions:
            raise ConfigError("refine-sweep requires a partitions section")
        fact = None
        try:
            kernel = ctx.cfg.kernel()
            fact = realize(kernel, tol=ctx.tol["realization"])
        except ConfigError:
            raise
        except SetKernError:
            report.add("realization", "realization", False, bound=ctx.tol["realization"])
        if fact is not None:
            _sweep_records(report, ctx, kernel, fact)
    except ConfigError as e:
        _config_abort(e)
    _finish(report, "refine-sweep", out_path, csv_path)


if __name__ == "__main__":
    main()
