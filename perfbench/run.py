#!/usr/bin/env python3
"""Run one benchmark workload against the setkern sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload for about ``S`` seconds from one process,
times a fixed dense linear-algebra reference right before and right after
every round and reports each round time corrected by the mean of the two to
the reference's nominal speed.  Between rounds, spread over the run, it
starts fresh interpreters that only set up the workload, for ``setup_s``.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (half the
time untraced, half traced).  Human-readable lines come first, raw seconds
beside corrected ones; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details go to
``perfbench/out/``.
"""

import os

BLAS_THREADS = 1
# Fixed before numpy loads, for this process and the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("factorize-dense", "mc-isometry", "green-chain")
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
# A traced round's self times must add up to its wall time, timed apart from
# the tracer, within this much: the root span's own enter and exit.
SELF_GAP_ABS_S = 1e-3
SELF_GAP_REL = 1e-3


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_program(workload: str) -> float:
    """Import setkern from this checkout's ``src``; return the seconds it took."""
    if not (SRC / "setkern" / "__init__.py").is_file():
        raise BenchError(f"no setkern sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import setkern

    if workload == "factorize-dense":
        import setkern.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(setkern.__file__).resolve().parent != SRC / "setkern":
        raise BenchError(f"imported setkern from {setkern.__file__}, not from {SRC}")
    return elapsed


def make_workload(name: str, seed: int):
    import rounds

    workdir = OUT / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return rounds.WORKLOADS[name](seed, workdir)


def probe(args) -> None:
    """Set-up only, in a fresh interpreter: report when the first round is ready.

    Also reports ``own_s``, the time spent importing the benchmark's modules
    and drawing its seeded inputs, which ``setup_s`` leaves out.
    """
    import_s = import_program(args.workload)
    t0 = time.perf_counter()
    wl = make_workload(args.workload, args.seed)
    t1 = time.perf_counter()
    wl.setup()
    inputs_s = time.perf_counter() - t1
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s, "inputs_s": inputs_s, "own_s": t1 - t0}))


class SetupProbes:
    """``SETUP_PROBES`` fresh-interpreter set-ups, spread evenly over the run.

    Each is timed from just before the interpreter starts to the moment its
    first round is ready (``CLOCK_MONOTONIC`` is shared across processes),
    less the benchmark's own work in it, and corrected by a one-thread
    reference timed right before and after it.
    """

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        from refclock import ReferenceClock

        self.clock = ReferenceClock(threads=1)
        self.cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
        self.rows: list[dict] = []
        self.interval = seconds / SETUP_PROBES
        self.next_at = time.monotonic()

    def maybe(self) -> None:
        if len(self.rows) < SETUP_PROBES and time.monotonic() >= self.next_at:
            self.rows.append(self._one())
            self.next_at += self.interval

    def finish(self) -> list[dict]:
        while len(self.rows) < SETUP_PROBES:
            self.rows.append(self._one())
        self.clock.close()
        return self.rows

    def _one(self) -> dict:
        before_s = self.clock.measure()
        t0 = time.monotonic()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}: {err.strip()}")
        ready = json.loads(out.strip().splitlines()[-1])
        raw = ready["ready"] - t0 - ready["own_s"]
        ref_s = 0.5 * (before_s + self.clock.measure())
        scale = self.clock.corrected(1.0, ref_s)
        return {
            "raw_s": raw,
            "ref_s": ref_s,
            "corrected_s": raw * scale,
            "import_s": ready["import_s"] * scale,
            "inputs_s": ready["inputs_s"] * scale,
        }


def run_rounds(wl, clock, seconds: float, first: int, probes=None, tracer=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed; at least one."""
    from rounds import no_span
    from tracing import ROUND_SPAN

    span = tracer.span if tracer is not None else no_span
    rows = []
    deadline = time.monotonic() + seconds
    r = first
    while True:
        prepared = wl.prepare(r)
        before_s = clock.measure()
        t0 = time.perf_counter()
        with span(ROUND_SPAN):
            out = wl.execute(prepared, span)
        raw = time.perf_counter() - t0
        after_s = clock.measure()
        ref_s = 0.5 * (before_s + after_s)
        verdict = wl.verify(prepared, out)
        row = {
            "round": r,
            "raw_s": raw,
            "ref_before_s": before_s,
            "ref_after_s": after_s,
            "ref_s": ref_s,
            "corrected_s": clock.corrected(raw, ref_s),
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "problems": verdict.problems,
        }
        if tracer is not None:
            calls, self_s, counts = tracer.take()
            row.update(calls=dict(calls), self_s=self_s, counts=dict(counts))
            row["self_gap_s"] = raw - sum(self_s.values())
        rows.append(row)
        r += 1
        if probes is not None:
            probes.maybe()
        if time.monotonic() >= deadline:
            return rows


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(timed: list[dict], setup: list[dict], key: str = "corrected_s") -> dict:
    ok_ops = sum(r["attempted"] - r["failed"] for r in timed)
    return {
        "latency_p50_s": (median(r[key] for r in timed), "s"),
        "ops_per_s": (ok_ops / sum(r[key] for r in timed), "1/s"),
        "setup_s": (median(r[key] for r in setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(clock, untraced: list[dict], traced: list[dict], setup: list[dict]) -> dict:
    from tracing import LAPACK, NORMALS, SPAN_NAMES

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (median(r["calls"].get(name, 0) for r in traced), "count")
        out[f"{name}.self_s"] = (
            median(clock.corrected(r["self_s"].get(name, 0.0), r["ref_s"]) for r in traced),
            "s",
        )
    for key, _ in LAPACK:
        out[key] = (median(r["counts"].get(key, 0) for r in traced), "count")
    out[NORMALS] = (median(r["counts"].get(NORMALS, 0) for r in traced), "count")
    overhead = median(r["corrected_s"] for r in traced) - median(r["corrected_s"] for r in untraced)
    out["trace.overhead_s"] = (overhead, "s")
    out["setup.import_s"] = (median(r["import_s"] for r in setup), "s")
    out["setup.inputs_s"] = (median(r["inputs_s"] for r in setup), "s")
    return out


def environment(clock) -> dict:
    import numpy as np

    from inputs import MC_WORKERS
    from refclock import PAIRS, SIZE

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "mc_workers": MC_WORKERS,
        "reference": f"{PAIRS} x (eigh + solve) on {SIZE}x{SIZE} on {clock.threads} thread(s), "
        f"nominal {clock.nominal_s} s",
    }


def main(args) -> int:
    import_program(args.workload)
    from refclock import ReferenceClock

    wl = make_workload(args.workload, args.seed)
    wl.setup()
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    tracer = None
    with ReferenceClock(threads=wl.threads) as clock:
        warm = run_rounds(wl, clock, 0.0, 0)  # one untimed round: caches fill, lazy set-up ends
        if args.trace:
            from tracing import Tracer

            untraced = run_rounds(wl, clock, args.seconds / 2, len(warm), probes)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(wl, clock, args.seconds / 2, len(warm) + len(untraced), probes, tracer)
            finally:
                tracer.uninstall()
            timed = untraced + traced
        else:
            timed = run_rounds(wl, clock, args.seconds, len(warm), probes)
        setup = probes.finish()
        metrics = per_layer(clock, untraced, traced, setup) if tracer else end_to_end(timed, setup)
        env = environment(clock)

    run_problems = wl.once_per_run()
    if tracer is not None:
        for r in traced:
            if abs(r["self_gap_s"]) > SELF_GAP_ABS_S + SELF_GAP_REL * r["raw_s"]:
                run_problems.append(
                    f"round {r['round']}: traced self times miss its {r['raw_s']:.4f} s by {r['self_gap_s']:.3e} s"
                )
    all_rows = warm + timed
    attempted = sum(r["attempted"] for r in all_rows)
    failed = sum(r["failed"] for r in all_rows)
    raw = {} if tracer else {k: v for k, (v, _) in end_to_end(timed, setup, "raw_s").items()}

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "raw": raw,
        "setup_probes": setup,
        "rounds": all_rows,
        "run_problems": run_problems,
    }
    (OUT / f"result-{name}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"trace-{name}.json", detail["metrics"])

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(timed)} timed + {len(warm)} warm-up")
    print(f"operations attempted {attempted}  failed {failed}")
    print(
        f"reference {env['reference']}; measured median {median(r['ref_s'] for r in all_rows):.4f} s; "
        f"BLAS threads {BLAS_THREADS}; MC workers {env['mc_workers']}"
    )
    for key, (value, unit) in metrics.items():
        extra = f"  (raw {raw[key]:.6g})" if key in raw and key != "peak_rss_mib" else ""
        print(f"  {key:42s} {value:.6g} {unit}{extra}")
    shown = []
    for p in (p for r in all_rows for p in r["problems"]):
        if p not in shown and len(shown) < 5:
            shown.append(p)
            print(f"failed operation: {p}", file=sys.stderr)
    for p in run_problems:
        print(f"run check failed: {p}", file=sys.stderr)

    result = {
        "correct": not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


if __name__ == "__main__":
    arguments = parse_args()
    try:
        if arguments.probe:
            probe(arguments)
            sys.exit(0)
        sys.exit(main(arguments))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
