"""Fixed dense linear-algebra reference that calibrates machine speed.

The benchmark times this block right before every round and scales each
round time by ``nominal / measured``, so corrected values read as seconds at
a fixed machine speed.  The block runs on as many threads as the workload
keeps busy (one, or the Monte Carlo worker count), because contention on the
second CPU slows two-thread work more than one-thread work.  The block calls
no setkern code: its time depends only on the machine, the BLAS build and
the thread counts.  It must not import setkern (a test checks this).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SIZE = 200
PAIRS = 4
NOMINAL_S = {1: 0.030, 2: 0.033}
"""Reference time per thread count on the baseline machine (see README), in seconds."""

# Bound at import so that the traced run's LAPACK counters, installed later
# on ``numpy.linalg``, neither count nor slow the reference.
_eigh = np.linalg.eigh
_solve = np.linalg.solve


def reference_inputs() -> tuple[np.ndarray, np.ndarray]:
    """The fixed SPD matrix and right-hand sides; independent of any seed."""
    rng = np.random.default_rng(20171110)
    X = rng.standard_normal((SIZE, SIZE))
    A = X @ X.T / SIZE + np.eye(SIZE)
    B = rng.standard_normal((SIZE, SIZE))
    return A, B


def _block(A: np.ndarray, B: np.ndarray) -> None:
    for _ in range(PAIRS):
        _eigh(A)
        _solve(A, B)


class ReferenceClock:
    """Times the reference block on ``threads`` threads at once."""

    def __init__(self, threads: int = 1) -> None:
        if threads not in NOMINAL_S:
            raise ValueError(f"no nominal reference time for {threads} threads")
        self.threads = threads
        self.nominal_s = NOMINAL_S[threads]
        self.A, self.B = reference_inputs()
        self._pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        self.measure()  # first call pays page faults and BLAS start-up

    def measure(self) -> float:
        """Wall seconds until every thread has run ``PAIRS`` ``eigh`` + ``solve``."""
        t0 = time.perf_counter()
        if self._pool is None:
            _block(self.A, self.B)
        else:
            for f in [self._pool.submit(_block, self.A, self.B) for _ in range(self.threads)]:
                f.result()
        return time.perf_counter() - t0

    def corrected(self, raw_s: float, reference_s: float) -> float:
        """``raw_s`` rescaled to the nominal machine speed."""
        return raw_s * self.nominal_s / reference_s

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ReferenceClock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
