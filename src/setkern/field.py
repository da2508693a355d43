"""Mean-zero Gaussian fields indexed by sets, and their stochastic integrals.

A finite family of sets determines a Gaussian vector whose covariance is the
kernel's Gram matrix; draws come from a PSD factor of that Gram.  Stochastic
integrals of simple functions are linear combinations of field coordinates,
and their second moments are checked against the exact values supplied by a
factorization (the isometry identity: mean square of the integral equals the
weighted-L2 norm squared of the transformed integrand).

Sampling is reproducible and embarrassingly parallel: each chunk of a fixed
size draws its normals from a new SFC64 seeded by
``SeedSequence(seed, spawn_key=(chunk index,))``, and Monte Carlo reductions
always combine chunk partials in index order, so results are bit-identical
for any worker count.  ``sample`` draws one normal per factor column; a
moment check draws only the one or two columns its pair of integrals spans,
so its moments are not computed from the ``sample`` stream.  Each threaded
call starts and joins its own helper threads; none outlives the call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, InvalidCovarianceError, OrderingError
from .factorization import Factorization
from .kernels import GramMatrix, SetKernel, gram
from .linalg import CLAMP, Spectrum, judge
from .measure import MeasurableSet, Partition, SimpleFunction, is_partition, is_refinement

__all__ = [
    "FieldSampler",
    "ItoResult",
    "build_sampler",
    "ito_isometry_check",
    "cross_moment_check",
    "projection_second_moment",
    "refinement_sweep",
    "CHUNK_SIZE",
]

CHUNK_SIZE = 8192


def _each_chunk(seed: int, n: int, width: int, work: Callable[[int, np.ndarray], object], workers: int) -> list:
    """``work(start, z)`` on every chunk of ``n`` draws, results in chunk order.

    Chunk ``i`` holds rows ``[i * CHUNK_SIZE, ...)``, and its ``(rows, width)``
    standard normals ``z`` come from ``SFC64(SeedSequence(seed, spawn_key=(i,)))``
    alone, so the results do not depend on ``workers``.  The entropy
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
    threads = max(min(workers, len(starts)), 1)
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            buf = np.empty((min(n, CHUNK_SIZE), width))
            for i in range(first, len(starts), threads):
                z = buf[: min(CHUNK_SIZE, n - starts[i])]
                np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(i,)))).standard_normal(out=z)
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


def _check_counts(n: int, least: int, workers: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"n must be an integer >= {least}, got {n!r}")
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise DomainError(f"workers must be an integer >= 1, got {workers!r}")


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
        same seed.  ``n < 0`` or ``workers < 1`` raises ``DomainError``.
        """
        _check_counts(n, 0, workers)
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
    ``seed`` that is not an integer in ``[0, 2**64)`` raises ``DomainError``.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    family = tuple(family)
    g = gram(kernel, family)
    spec = Spectrum.of(g.entries, np.ones(len(family))).certify(1e-10, InvalidCovarianceError, "Gram matrix")
    order = np.argsort(spec.values)[::-1]
    keep = order[spec.kept[order]]
    L = spec.vectors[:, keep] * np.sqrt(spec.values[keep])
    return FieldSampler(family=family, gram=g, factor=L, seed=int(seed))


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
        """True iff the estimate is within ``n_sigma`` standard errors of the exact value."""
        return judge(abs(self.estimate - self.exact), self.std_error, n_sigma).passed


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
    ``(z . R[:, 0], z . R[:, 1])``.  The isometry (``psi is phi``) draws
    ``d = 1`` column, ``|a| z_1``, and squares one product per draw instead
    of multiplying two.  The keys, chunks and reduction order are those of
    ``FieldSampler.sample``, but not its draws, which take one column per
    column of ``L``.
    """
    sampler = build_sampler(kernel, dict.fromkeys(phi.sets() + psi.sets()), seed)
    alpha = _coefficients(phi, sampler)
    beta = alpha if psi is phi else _coefficients(psi, sampler)
    size = fact.space.size
    exact = fact.space.inner(fact.S @ phi.values(size), fact.S @ psi.values(size))
    _check_counts(n, 1, workers)
    a = sampler.factor.T @ alpha
    if psi is phi:
        ra = rb = np.array([np.linalg.norm(a)])
    else:
        ra, rb = np.linalg.qr(np.column_stack([a, sampler.factor.T @ beta]), mode="r").T.copy()

    def partial(start: int, z: np.ndarray) -> tuple[float, float]:
        # for a one-column ``z``, ``dot`` reaches BLAS and ``@`` does not
        za = z.dot(ra)
        vals = za * za if rb is ra else za * z.dot(rb)
        return float(vals.sum()), float((vals * vals).sum())

    # Fixed-order reduction keeps results independent of the worker count.
    s1 = 0.0
    s2 = 0.0
    for p1, p2 in _each_chunk(sampler.seed, n, len(ra), partial, workers):
        s1 += p1
        s2 += p2
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0) * (n / (n - 1)) if n > 1 else 0.0
    return ItoResult(estimate=mean, std_error=float(np.sqrt(var / n)), n_samples=n, exact=exact, normals=n * len(ra))


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
    transformed integrand.  ``n < 1`` or ``workers < 1`` raises
    ``DomainError``.
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
    integrands.  ``n < 1`` or ``workers < 1`` raises ``DomainError``.
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
    with np.errstate(over="ignore"):  # a moment past the float range reads inf, and its row fails
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
