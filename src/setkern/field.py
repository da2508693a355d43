"""Mean-zero Gaussian fields indexed by sets, and their stochastic integrals.

A finite family of sets determines a Gaussian vector whose covariance is the
kernel's Gram matrix; draws come from a PSD factor of that Gram.  Stochastic
integrals of simple functions are linear combinations of field coordinates,
and their second moments are checked against the exact values supplied by a
factorization (the isometry identity: mean square of the integral equals the
weighted-L2 norm squared of the transformed integrand).

Sampling is reproducible and embarrassingly parallel: each chunk of a fixed
size draws its normals from a new SFC64 seeded by
``SeedSequence(seed, spawn_key=(chunk index,))``, hashed for all of a call's
chunks at once, and Monte Carlo reductions combine chunk partials in index
order, so results are bit-identical for any worker count.  ``sample`` draws
one normal per factor column; a moment check draws only the at most two
columns its pair of integrals spans, so its moments are not computed from
the ``sample`` stream.  Each chunk of a moment check returns two unscaled
sums of its draws' products, and their totals are scaled once.  Each call
joins the helper threads it starts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, InvalidCovarianceError, OrderingError
from .factorization import Factorization
from .kernels import GramMatrix, SetKernel, gram
from .linalg import CLAMP, SAMPLE_BITS, Spectrum, require_integer
from .measure import MeasurableSet, Partition, SimpleFunction, is_partition, is_refinement

__all__ = [
    "FieldSampler",
    "ItoResult",
    "build_sampler",
    "ito_isometry_check",
    "cross_moment_check",
    "projection_second_moment",
    "refinement_sweep",
]

CHUNK_SIZE = 8192
# SeedSequence's hash, frozen by NEP 19: step k xors a word with INIT * MULT^k, then multiplies it by INIT * MULT^(k+1)
# mod 2^32.  Rows: those two words for the 4 steps that mix a spawn key into the pool, after its 16, and the 6 state steps.
_SPAWN_STEP = np.array([[0x43B0D7E5 * pow(0x931E8875, k + j, 1 << 32) & 0xFFFFFFFF for k in range(16, 20)] for j in (0, 1)], np.uint32)
_STATE_STEP = np.array([[0x8B51F9DD * pow(0x58F38DED, k + j, 1 << 32) & 0xFFFFFFFF for k in range(6)] for j in (0, 1)], np.uint32)


def _chunk_keys(seed: int, chunks: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(3, np.uint64)`` for ``i < chunks``, one row each.

    A seed below ``2**64`` is padded with zeros to the pool's 4 words before
    the key ``i``, so the pool that ``i`` is mixed into is
    ``SeedSequence(seed).pool``; every ``i`` is mixed and hashed at once.
    """
    (x, m), pool = _SPAWN_STEP, np.random.SeedSequence(seed).pool
    v = (np.arange(chunks, dtype=np.uint32)[:, None] ^ x) * m
    v = 0xCA01F9DD * pool - 0x4973F715 * (v ^ v >> 16)
    v ^= v >> 16
    x, m = _STATE_STEP
    v = (np.concatenate([v, v[:, :2]], axis=1) ^ x) * m
    v ^= v >> 16
    return v.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)  # word pairs, low word first


def _each_chunk(seed: int, n: int, width: int, work: Callable[[int, np.ndarray], object], workers: int) -> list:
    """``work(start, z)`` on every chunk of ``n`` draws, results in chunk order.

    Chunk ``i`` holds rows ``[i * CHUNK_SIZE, ...)``, and its ``(rows, width)``
    standard normals ``z`` come from ``SFC64(SeedSequence(seed, spawn_key=(i,)))``
    alone, so the results do not depend on ``workers``: ``Key`` hands SFC64
    that sequence's state words, row ``i`` of ``_chunk_keys``.  The entropy
    ``[seed, i]`` would not do: ``SeedSequence`` drops its trailing zero words,
    so seed ``s + t * 2**32`` chunk 0 would replay seed ``s`` chunk ``t``.
    ``z`` is a per-thread buffer that is overwritten by the next chunk.  With
    ``threads = min(workers, chunks)``, chunk ``i`` runs on thread
    ``i % threads``: thread 0 is the caller, and the others are ``setkern-mc``
    helpers that the call starts and joins.  The first error any of them
    raised is raised again by the call.
    """
    starts = range(0, n, CHUNK_SIZE)
    results = [None] * len(starts)
    keys = _chunk_keys(seed, len(starts))

    class Key(np.random.bit_generator.ISeedSequence):  # defined here, so that import setkern leaves numpy.random out
        def __init__(self, i: int):
            self.words = keys[i]

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:  # SFC64 asks for 3 uint64 words
            return self.words

    threads = max(min(require_integer(workers, "workers", DomainError, least=1), len(starts)), 1)
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            buf = np.empty((min(n, CHUNK_SIZE), width))
            for i in range(first, len(starts), threads):
                z = buf[: min(CHUNK_SIZE, n - starts[i])]
                np.random.Generator(np.random.SFC64(Key(i))).standard_normal(out=z)
                results[i] = work(starts[i], z)
        except BaseException as e:  # raised by the caller once every helper has been joined
            errors.append(e)

    helpers = [threading.Thread(target=run, args=(first,), name="setkern-mc") for first in range(1, threads)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True, eq=False)
class FieldSampler:
    """Sampler for the Gaussian vector of a finite set family.

    ``factor`` is a (possibly rank-deficient) matrix with
    ``factor @ factor.T`` equal to the Gram within roundoff.  Instances are
    immutable; sampling is pure given ``(seed, n)``.
    """

    family: tuple[MeasurableSet, ...]
    gram: GramMatrix
    factor: np.ndarray
    seed: int

    @property
    def rank(self) -> int:
        return self.factor.shape[1]

    def sample(self, n: int, workers: int = 1) -> np.ndarray:
        """Draw ``n`` i.i.d. field vectors, shape ``(n, len(family))``.

        Identical output for any ``workers`` value and across runs with the
        same seed.  A count outside ``[0, 2^40)`` or ``workers < 1`` raises ``DomainError``.
        """
        n = require_integer(n, "n", DomainError, bits=SAMPLE_BITS)
        out = np.empty((n, len(self.family)))

        def fill(start: int, z: np.ndarray) -> None:
            out[start : start + len(z)] = z @ self.factor.T

        _each_chunk(self.seed, n, self.rank, fill, workers)
        return out


def build_sampler(kernel: SetKernel, family: Iterable[MeasurableSet], seed: int) -> FieldSampler:
    """Factor the Gram of ``family`` for sampling.

    Uses the Gram's ``Spectrum`` with unit weights: columns follow the
    eigenvalues in descending order, and eigenvalues up to
    ``CLAMP * lambda_max`` are dropped (rank deficiency is expected, e.g. for
    the product kernel).  An eigenvalue below ``-1e-10 * lambda_max`` means
    the Gram is indefinite and ``InvalidCovarianceError`` is raised.  A
    ``seed`` that is not an integer in ``[0, 2^64)`` raises ``DomainError``.
    """
    seed = require_integer(seed, "seed", DomainError)
    family = tuple(family)
    g = gram(kernel, family)
    spec = Spectrum.of(g.entries, np.ones(len(family))).certify(1e-10, InvalidCovarianceError, "Gram matrix")
    order = np.argsort(spec.values)[::-1]
    keep = order[spec.kept[order]]
    L = spec.vectors[:, keep] * np.sqrt(spec.values[keep])
    return FieldSampler(family=family, gram=g, factor=L, seed=seed)


def _coefficients(phi: SimpleFunction, sampler: FieldSampler) -> np.ndarray:
    """Coefficients of ``phi`` over the sampler family, which holds every set of ``phi``."""
    index = {A: i for i, A in enumerate(sampler.family)}
    alpha = np.zeros(len(sampler.family))
    for coef, s in phi.terms:
        alpha[index[s]] += coef
    return alpha


@dataclass(frozen=True)
class ItoResult:
    """Monte Carlo second moment against its exact counterpart; ``normals`` counts the standard normals drawn."""

    estimate: float
    std_error: float
    n_samples: int
    exact: float
    normals: int

    @property
    def deviation_sigmas(self) -> float:
        dev = abs(self.estimate - self.exact)
        if self.std_error == 0.0:
            return 0.0 if dev == 0.0 else float("inf")
        return dev / self.std_error

    def within(self, n_sigma: float = 5.0) -> bool:
        """True iff ``deviation_sigmas``, the value a report records, is at most ``n_sigma``; a NaN fails."""
        return self.deviation_sigmas <= n_sigma


def _moment_check(
    kernel: SetKernel, fact: Factorization, phi: SimpleFunction, psi: SimpleFunction, n: int, seed: int, workers: int
) -> ItoResult:
    """Monte Carlo ``E[I(phi) I(psi)]`` over ``n`` draws against the exact ``<S phi, S psi>_w``.

    With ``Z = L z`` the field and ``alpha``, ``beta`` the coefficients of
    ``phi`` and ``psi`` over the sampler family, ``(I(phi), I(psi))`` is
    ``(z . a, z . b)`` for ``a = L^T alpha`` and ``b = L^T beta``, a Gaussian
    pair whose law is fixed by the Gram of ``a`` and ``b``.  So the pair is
    projected before it is drawn: from ``(n, d)`` normals ``z`` and the
    reduced QR ``[a b] = Q R``, ``d = R.shape[0] = min(rank, 2)``, it is
    ``(z . R[:, 0], z . R[:, -1])``; the isometry (``psi is phi``) takes
    ``R = [[|a|]]``, of ``d = min(rank, 1)`` rows.  ``R`` is upper triangular,
    so a draw's product is ``c y`` for one number ``c``: ``y = z_0^2`` and
    ``c = R[0, 0] R[0, -1]`` at ``d = 1``, ``y = z_0 (z . R[:, -1])`` and
    ``c = R[0, 0]`` at ``d = 2``.  Each chunk returns its two sums of ``y``
    and ``y^2`` (``ddot``, and numpy's ``sum`` for ``y`` at ``d = 2``), and
    the totals are scaled by ``c`` and ``c^2`` once, so the float domain's
    bound on the moment bounds ``c^2`` too.  The keys, chunks and reduction
    order are those of ``FieldSampler.sample``, but not its draws, which take
    one column per column of ``L``.  A ``fact`` of another kernel raises
    ``DomainError``.
    """
    if fact.space != kernel.space or not np.array_equal(fact.kernel.Q, kernel.Q):
        raise DomainError("the factorization realizes another kernel than the one sampled")
    sampler = build_sampler(kernel, dict.fromkeys(phi.sets() + psi.sets()), seed)
    n = require_integer(n, "n", DomainError, least=1, bits=SAMPLE_BITS)
    alpha = _coefficients(phi, sampler)
    beta = alpha if psi is phi else _coefficients(psi, sampler)
    size = fact.space.size
    exact = fact.space.inner(fact.S @ phi.values(size), fact.S @ psi.values(size))
    a = sampler.factor.T @ alpha
    if psi is phi:
        R = np.full((min(len(a), 1), 1), np.linalg.norm(a))
    else:
        R = np.linalg.qr(np.column_stack([a, sampler.factor.T @ beta]), mode="r")
    d, r = len(R), R[:, -1].copy()  # contiguous, so that ``dot`` reaches BLAS
    c = float(R[0, 0] * R[0, -1] if d == 1 else R[0, 0] if d else 0.0)

    def partial(start: int, z: np.ndarray) -> tuple[float, float]:
        # the sums of y and y^2, for a draw's product c y: y = z_0^2 at width 1 and z_0 (z . r) at width 2
        if not d:  # a sampler of rank 0 draws no column
            return 0.0, 0.0
        if d == 1:
            y = z[:, 0]
            s1 = float(y @ y)
            y *= y
            return s1, float(y @ y)
        y = z.dot(r)
        y *= z[:, 0]
        return float(y.sum()), float(y @ y)

    # Fixed-order reduction keeps results independent of the worker count.
    s1 = 0.0
    s2 = 0.0
    for p1, p2 in _each_chunk(sampler.seed, n, d, partial, workers):
        s1 += p1
        s2 += p2
    mean = c * s1 / n
    var = max(c * c * s2 / n - mean * mean, 0.0) * (n / (n - 1)) if n > 1 else 0.0
    return ItoResult(estimate=mean, std_error=float(np.sqrt(var / n)), n_samples=n, exact=exact, normals=n * d)


def ito_isometry_check(
    kernel: SetKernel,
    factorization: Factorization,
    phi: SimpleFunction,
    n: int,
    *,
    seed: int = 0,
    workers: int = 1,
) -> ItoResult:
    """Monte Carlo check of the integral's second moment.

    Estimates the mean square of the integral of ``phi`` over ``n`` draws
    and compares with the exact value, the weighted-L2 norm squared of the
    transformed integrand.  A count or seed outside its ``linalg`` domain or
    a factorization of another kernel raises ``DomainError``.
    """
    return _moment_check(kernel, factorization, phi, phi, n, seed, workers)


def cross_moment_check(
    kernel: SetKernel,
    factorization: Factorization,
    phi: SimpleFunction,
    psi: SimpleFunction,
    n: int,
    *,
    seed: int = 0,
    workers: int = 1,
) -> ItoResult:
    """Monte Carlo check of the covariance of two integrals.

    The exact value is the weighted-L2 pairing of the two transformed
    integrands.  A count or seed outside its ``linalg`` domain or a
    factorization of another kernel raises ``DomainError``.
    """
    return _moment_check(kernel, factorization, phi, psi, n, seed, workers)


def projection_second_moment(factorization: Factorization, phi: SimpleFunction, partition: Partition) -> float:
    """Second moment of the integral's projection onto a partition's span.

    The isometry carries the span of the blocks' field values to the span of
    their factor vectors ``k_B``, so the value is ``|Pi S phi|^2_w``, ``Pi``
    the weighted-orthogonal projection onto that span.  One thin SVD
    ``U s V^T`` of ``D^{1/2} S C^T`` gives it: the ``s^2`` are the eigenvalues
    of the block Gram, the columns of ``U`` with ``s^2 > CLAMP * s_max^2``
    (``Spectrum.kept``'s rule) span the projection, and the value is
    ``|U^T D^{1/2} S phi|^2``.  No Gram is formed, so the conditioning is
    ``sqrt(kappa)`` of the Gram, not the ``kappa`` of ``c^T G^+ c``.
    """
    space = factorization.space
    if not is_partition(space, partition.blocks):
        raise DomainError("blocks do not partition the space")
    d = np.sqrt(space.weight_array)
    U, s, _ = np.linalg.svd(d[:, None] * factorization.k_rows(partition.blocks).T, full_matrices=False)
    coords = U[:, s * s > CLAMP * s[0] * s[0]].T @ (d * (factorization.S @ phi.values(space.size)))
    return float(coords @ coords)


def refinement_sweep(factorization: Factorization, phi: SimpleFunction, partitions: Sequence[Partition]) -> list[float]:
    """Projection second moments along a refinement-ordered partition chain.

    The sequence is nondecreasing and bounded by the exact second moment; it
    attains it when the finest partition separates all atoms where the
    transformed integrand varies (in particular on the singleton partition).

    Raises
    ------
    OrderingError
        If some partition does not refine its predecessor.
    """
    parts = list(partitions)
    for i in range(len(parts) - 1):
        if not is_refinement(parts[i], parts[i + 1]):
            raise OrderingError(f"partition {i + 1} does not refine partition {i}")
    return [projection_second_moment(factorization, phi, p) for p in parts]
