"""In-memory span tracer over setkern's public entry points.

``Tracer.install`` replaces each target function with a wrapper at every
module attribute of setkern where the program looks it up (so internal calls
such as ``realize -> build_T`` are seen), wraps class attributes in place,
and counts the public ``numpy.linalg`` LAPACK calls made while a setkern span
is open.  A span is ``(id, parent, name, start, end)``; self time is the
duration minus the time covered by child spans.  Spans stay in memory until
``dump`` writes them.  An entry point missing from the program is listed as
absent and traced as nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (metric prefix, module, attribute path inside the module)
TARGETS = (
    ("kernels.eval", "setkern.kernels", "SetKernel.__call__"),
    ("kernels.gram", "setkern.kernels", "gram"),
    ("factorization.onb_factorization", "setkern.factorization", "onb_factorization"),
    ("factorization.realize", "setkern.factorization", "realize"),
    ("factorization.build_T", "setkern.factorization", "build_T"),
    ("factorization.reverse_direction", "setkern.factorization", "reverse_direction"),
    ("factorization.write_factorization", "setkern.factorization", "write_factorization"),
    ("linalg.psd_sqrt", "setkern.linalg", "psd_sqrt"),
    ("linalg.spectral_transform", "setkern.linalg", "spectral_transform"),
    ("linalg.numerical_rank", "setkern.linalg", "numerical_rank"),
    ("markov.green", "setkern.markov", "green"),
    ("markov.green_root", "setkern.markov", "green_root"),
    ("markov.check_transient", "setkern.markov", "check_transient"),
    ("markov.from_conductances", "setkern.markov", "MarkovChain.from_conductances"),
    ("field.build_sampler", "setkern.field", "build_sampler"),
    ("field.ito_isometry_check", "setkern.field", "ito_isometry_check"),
    ("field.cross_moment_check", "setkern.field", "cross_moment_check"),
    ("config.load_config", "setkern.config", "load_config"),
    ("report.RunReport.write_jsonl", "setkern.report", "RunReport.write_jsonl"),
)
CLI_SPAN = "cli.command"
"""Opened by the benchmark around each in-process ``setkern`` invocation."""
ROUND_SPAN = "bench.round"
"""Root span of a traced round: the timed region."""

LAPACK = (
    ("lapack.svd.calls", ("svd",)),
    ("lapack.eigh.calls", ("eigh", "eigvalsh")),
    ("lapack.solve.calls", ("solve",)),
)
NORMALS = "field.normals"

SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + (CLI_SPAN,)


class _Frame:
    __slots__ = ("id", "name", "start", "child_s", "notes")

    def __init__(self, span_id: int, name: str, start: float) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.notes: dict = {}


class Tracer:
    """Collects spans and counters on the thread that created it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.absent: list[str] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(len(self.spans) + len(self._stack), name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.calls[frame.name] += 1
        self.self_s[frame.name] += duration - frame.child_s
        parent = self._stack[-1].id if self._stack else -1
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans.append((frame.id, parent, frame.name, frame.start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield frame
        finally:
            self._exit(frame)

    def take(self) -> tuple[Counter, dict, Counter]:
        """Per-round accumulators since the last call: calls, self seconds, counts."""
        out = (self.calls, dict(self.self_s), self.counts)
        self.calls, self.self_s, self.counts = Counter(), defaultdict(float), Counter()
        return out

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(frame, args, kwargs, result)
            return result

        return traced

    def _counting(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack and threading.get_ident() == tracer._thread:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks for counters that need a call's arguments or result -----------

    def _after_build_sampler(self, frame, args, kwargs, result) -> None:
        if self._stack:
            self._stack[-1].notes["rank"] = result.rank

    def _after_check(self, signature):
        def after(frame, args, kwargs, result) -> None:
            n = signature.bind(*args, **kwargs).arguments["n"]
            self.counts[NORMALS] += int(n) * int(frame.notes.get("rank", 0))

        return after

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            after = None
            if name == "field.build_sampler":
                after = self._after_build_sampler
            elif name in ("field.ito_isometry_check", "field.cross_moment_check"):
                after = self._after_check(inspect.signature(fn))
            wrapped = self._wrap(name, fn, after)
            if owner_path:
                self._set(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "setkern" or mod_name.startswith("setkern.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped)
        for key, fns in LAPACK:
            for fn_name in fns:
                self._set(np.linalg, fn_name, self._counting(key, getattr(np.linalg, fn_name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path: Path, summary: dict) -> None:
        """Write the spans and the run's per-layer summary as JSON."""
        doc = {
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "absent": self.absent,
            "summary": summary,
        }
        path.write_text(json.dumps(doc))
