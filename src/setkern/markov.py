"""Reversible substochastic chains on the atom space and their Green kernels.

Rows of the transition matrix may sum to less than one; the deficit is
killing (absorption) mass, which is what makes a finite chain transient.
Reversible chains are exactly random walks on weighted graphs: given edge
conductances ``c(x, y)`` and killing ``kill(x)``, the reference weights are
``w(x) = sum_y c(x, y) + kill(x)`` and ``P[x, y] = c(x, y) / w(x)``, so
detailed balance holds by construction.

Transience is certified spectrally: the largest weighted singular value of
``P`` must stay below one, which makes the Green series
``G = I + P + P^2 + ...`` geometrically convergent.  For a reversible chain
that is the largest ``|lambda|`` of ``D^{1/2} P D^{-1/2}``; a chain that
fails detailed balance is judged by the largest singular value of
``D^{1/2} P D^{-1/2}`` instead, and has no spectral gap, ``(I - P)^{-1/2}``
or Green kernel.
Detailed balance is judged against ``tol`` times the largest ``w(x) P[x,y]``,
by one rule (``check_reversibility``) shared by all of these.  ``G`` is one
solve of ``(I - P) G = I``, refined once against ``I - P`` by a
Newton-Schulz step, and cross-validated against the truncated series.
Each ``check_*`` returns the ``linalg.Verdict`` its report row records; the
constructors raise through one private requirement per rule.

A chain is immutable, so it computes its spectrum, its balance defect, its
Green function and ``(I - P)^{-1/2}`` once, on first use, and every function
here shares them.  The cached arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InconsistencyError, InvalidChainError, NotTransientError
from .kernels import SetKernel
from .linalg import Spectrum, Verdict, echo, judge, require, require_in_domain, selfadjoint_defect, spectral_transform
from .measure import MeasureSpace

__all__ = [
    "MarkovChain",
    "GreenData",
    "check_reversibility",
    "check_transient",
    "check_contractivity",
    "check_spectral_gap",
    "check_series",
    "green",
    "green_kernel",
    "green_root",
]

TRANSIENCE_GAP = 1e-10
SERIES_TOL = 1e-10
"""Geometric tail bound of the Green series that cross-validates the solve."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """A substochastic transition matrix over the atoms of a measure space.

    All atom weights must be strictly positive: the weights are the
    reversing measure, and an atom without mass has no dynamics.
    """

    space: MeasureSpace
    transitions: np.ndarray

    def __post_init__(self):
        P = np.array(self.transitions, dtype=float)
        P.setflags(write=False)
        object.__setattr__(self, "transitions", P)
        n = self.space.size
        if P.shape != (n, n):
            raise InvalidChainError(f"transition matrix must be {n}x{n}, got {P.shape}")
        if not np.all(np.isfinite(P)):
            raise InvalidChainError("transition entries must be finite")
        if P.min() < 0:
            raise InvalidChainError("transition entries must be nonnegative")
        rows = P.sum(axis=1)
        if rows.max() > 1 + 1e-12:
            raise InvalidChainError(
                f"rows must sum to at most 1 (substochastic), got {rows.max():.6g}"
            )
        if not np.all(self.space.weight_array > 0):
            raise InvalidChainError("chains require strictly positive atom weights")

    @classmethod
    def from_conductances(
        cls,
        atoms: Sequence[str],
        edges: Iterable[tuple[str, str, float]],
        kill: Mapping[str, float] | None = None,
    ) -> "MarkovChain":
        """Random walk on a weighted graph with optional killing mass per named atom.

        Edge conductances are symmetric by construction, the derived weights
        are ``w(x) = sum_y c(x, y) + kill(x)``, and every atom needs an edge
        or killing mass so its weight is positive.  Atom names must be
        unique, and each conductance, killing mass and weight in the float domain.
        """
        atoms = [str(a) for a in atoms]
        if len(set(atoms)) != len(atoms):
            raise InvalidChainError("atom identifiers must be unique")
        index = {a: i for i, a in enumerate(atoms)}
        n = len(atoms)
        if n == 0:
            raise InvalidChainError("need at least one atom")
        edges = [(x, y, float(c)) for x, y, c in edges]
        kill = {a: float(m) for a, m in (kill or {}).items()}
        for values, name in (([c for *_, c in edges], lambda i: f"conductance on ({echo(edges[i][0])},{echo(edges[i][1])})"),
                             (list(kill.values()), lambda i: f"killing mass at {echo(list(kill)[i])}")):
            require_in_domain(values, name, InvalidChainError, nonnegative=True)
        C = np.zeros((n, n))
        for x, y, c in edges:
            try:
                i, j = index[str(x)], index[str(y)]
            except KeyError as e:
                raise InvalidChainError(f"edge references unknown atom {echo(e.args[0])}") from None
            C[i, j] += c
            if i != j:
                C[j, i] += c
        killv = np.zeros(n)
        for a, m in kill.items():
            if str(a) not in index:
                raise InvalidChainError(f"killing references unknown atom {echo(a)}")
            killv[index[str(a)]] = m
        w = C.sum(axis=1) + killv
        if w.min() <= 0:
            dead = atoms[int(np.argmin(w))]
            raise InvalidChainError(f"atom {echo(dead)} has neither conductance nor killing")
        P = C / w[:, None]
        return cls(space=MeasureSpace(tuple(atoms), tuple(w)), transitions=P)

    @cached_property
    def _spectrum(self) -> Spectrum:
        """Weighted spectrum of ``P``: one ``eigh`` of ``D^{1/2} P D^{-1/2}``."""
        return Spectrum.of(self.transitions, self.space.weight_array)

    @cached_property
    def _balance_defect(self) -> tuple[float, float]:
        return selfadjoint_defect(self.transitions, self.space.weight_array)

    @cached_property
    def _norm(self) -> float:
        """Weighted norm of ``P``: its spectral radius if reversible, else the largest singular value of ``D^{1/2} P D^{-1/2}``."""
        if check_reversibility(self).passed:
            return float(np.abs(self._spectrum.values).max())
        d = np.sqrt(self.space.weight_array)
        return float(np.linalg.svd((d[:, None] * self.transitions) / d[None, :], compute_uv=False)[0])

    @cached_property
    def _green(self) -> np.ndarray:
        """``(I - P)^{-1}`` by one solve, refined once.

        The Newton-Schulz step ``G0 + G0 (I - A G0)`` with ``A = I - P``
        squares the residual of the solve with two matrix products, where
        classical iterative refinement would solve a second time.
        """
        eye = np.eye(self.space.size)
        A = eye - self.transitions
        G0 = np.linalg.solve(A, eye)
        return _read_only(G0 + G0 @ (eye - A @ G0))

    @cached_property
    def _series(self) -> tuple[int, float]:
        """Terms for a ``SERIES_TOL`` tail in every entry, ``sqrt(w(y) / w(x))`` times its weighted norm, and the gap to ``_green``."""
        rho, w = self._norm, self.space.weight_array
        tail = SERIES_TOL * (1 - rho) / math.sqrt(w.max() / w.min())
        terms = 1 if rho == 0.0 else max(1, math.ceil(math.log(tail) / math.log(rho)))
        # the solve first, so that its temporaries are freed before the series allocates its own
        return terms, float(np.abs(self._green - _neumann_sum(self.transitions, terms)).max())

    @cached_property
    def _green_root(self) -> np.ndarray:
        """``(I - P)^{-1/2}`` from the spectrum; a non-reversible or non-transient chain raises."""
        _require_reversible(self, "(I - P)^(-1/2)")
        _require_transient(self)
        return _read_only(spectral_transform(self._spectrum, 1.0 / np.sqrt(1.0 - self._spectrum.values)))


def check_reversibility(chain: MarkovChain, tol: float = 1e-10) -> Verdict:
    """The largest violation of detailed balance ``w(x) P[x,y] == w(y) P[y,x]`` against ``tol * max w(x) P[x,y]``.

    This is the one reversibility rule: ``green_kernel``, the transience
    norm, ``check_spectral_gap`` and ``green_root`` all decide with it at
    the default ``tol``.  Relative to scale, a chain and the same chain with
    every conductance and killing mass multiplied by ``c`` are judged alike.

    The atom-level identity integrates to the set-level balance
    ``sum_A w P(., B) == sum_B w P(., A)`` by biadditivity.
    """
    return judge(*chain._balance_defect, tol)


def _require_reversible(chain: MarkovChain, lacks: str) -> None:
    """Raise ``InvalidChainError`` unless detailed balance holds within ``1e-10`` times the largest ``w(x) P[x,y]``."""
    require(*chain._balance_defect, 1e-10, InvalidChainError,
            f"chain is not reversible, so it has no {lacks}: balance defect", "max|wP|")


def check_transient(chain: MarkovChain, gap: float = TRANSIENCE_GAP) -> Verdict:
    """Spectral certificate of transience: the weighted norm ``rho`` of ``P`` against ``1 - gap``.

    ``rho`` is, for a reversible chain, the largest absolute eigenvalue of
    its symmetrization, and otherwise its largest weighted singular value.
    Transience requires ``rho < 1 - gap``, which gives the Green series a
    geometric tail bound.
    """
    rho = chain._norm
    return Verdict(rho, 1 - gap, rho < 1 - gap)


def _require_transient(chain: MarkovChain) -> None:
    """Raise ``NotTransientError`` unless ``check_transient`` accepts the chain at ``TRANSIENCE_GAP``."""
    rho, _, passed, _ = check_transient(chain)
    if not passed:
        raise NotTransientError(f"chain is not transient: spectral bound {rho:.12g} reaches 1")


@dataclass(frozen=True, eq=False)
class GreenData:
    """Green function of a transient chain with its convergence certificate."""

    G: np.ndarray
    spectral_bound: float
    series_terms: int
    series_agreement: float
    """Largest entrywise gap between the refined and the summed ``G``."""

    @property
    def scale(self) -> float:
        """``max|G|``, the unit of ``series_agreement``; ``G >= I`` entrywise, so it is at least 1."""
        return float(np.abs(self.G).max())


def _neumann_sum(P: np.ndarray, terms: int) -> np.ndarray:
    # Partial sum I + P + ... + P^(k-1) with k the next power of two >= terms,
    # via the doubling identity S_{2k} = S_k + P^k S_k.  The first step is
    # S_2 = I + P, without the product P @ I, which equals P to the bit.
    if terms <= 1:
        return np.eye(P.shape[0])
    S = np.eye(P.shape[0]) + P
    Q = P
    k = 2
    while k < terms:
        Q = Q @ Q
        S = S + Q @ S
        k *= 2
    return S


def check_series(chain: MarkovChain, tol: float = 1e-8) -> Verdict:
    """The largest gap between the Green series and the solve against ``tol * max|G|``.

    Roundoff in both grows with ``G``, and ``max|G| >= 1``, so the bound is at
    least ``tol``.  A chain that is not transient raises ``NotTransientError``.
    """
    _require_transient(chain)
    return judge(chain._series[1], float(np.abs(chain._green).max()), tol)


def green(chain: MarkovChain, *, agree_tol: float = 1e-8) -> GreenData:
    """Green function ``G = (I - P)^{-1}``, cross-validated against the series.

    ``G`` is one solve, refined once against ``I - P``, and the truncated
    series must agree with it by ``check_series`` at ``agree_tol``.  The
    solve and the series are made once per chain; ``agree_tol`` is applied
    on every call.

    Raises
    ------
    NotTransientError
        If the spectral bound reaches one.
    InconsistencyError
        If solve and series disagree beyond ``agree_tol * max|G|``; the
        message names the gap ``1 - rho`` and the roundoff scale ``eps / (1 - rho)``.
    """
    verdict = check_series(chain, agree_tol)  # NotTransientError first: I - P is singular on a chain that is not transient
    data = GreenData(chain._green, chain._norm, *chain._series)
    if not verdict.passed:
        gap = 1.0 - data.spectral_bound
        raise InconsistencyError(
            f"Green series and solve disagree by {data.series_agreement:.3e} > {agree_tol:g} × max|G| = "
            f"{data.scale:.3e}; "
            f"with spectral gap 1 - rho = {gap:.3e}, double precision certifies agreement only to "
            f"about eps / (1 - rho) = {np.finfo(float).eps / gap:.3e} of max|G|"
        )
    return data


def green_kernel(chain: MarkovChain, *, agree_tol: float = 1e-8) -> SetKernel:
    """Kernel ``K(A, B) = sum_{x in A} w(x) G(x, B)`` of a reversible transient chain, with ``G`` from ``green`` at ``agree_tol``.

    Symmetric because detailed balance makes ``w G`` symmetric; positive
    definite because ``G`` is the inverse of ``I - P`` with spectrum in
    ``(0, 2]`` of the weighted geometry.  It accepts exactly the chains that
    ``green_root`` factors and ``green`` accepts at ``agree_tol``.
    """
    _require_reversible(chain, "symmetric Green kernel")
    G = green(chain, agree_tol=agree_tol).G
    return SetKernel(space=chain.space, kind="green", Q=chain.space.weight_array[:, None] * G)


def green_root(chain: MarkovChain) -> np.ndarray:
    """The operator ``(I - P)^{-1/2}`` in the weighted geometry (read-only); ``k_A`` is its product with ``chi_A``."""
    return chain._green_root


def check_contractivity(chain: MarkovChain, tol: float = 1e-10) -> Verdict:
    """The weighted norm ``|P|_w`` against ``1 + tol``; it bounds ``|<phi, P phi>|`` by ``|P|_w |phi|^2``."""
    rho = chain._norm
    return Verdict(rho, 1 + tol, rho <= 1 + tol)


def check_spectral_gap(chain: MarkovChain, gap: float = TRANSIENCE_GAP) -> Verdict:
    """The smallest weighted eigenvalue ``1 - lambda_max`` of ``I - P`` against ``gap``.

    Only a reversible chain has one; any other raises ``InvalidChainError``.
    """
    _require_reversible(chain, "spectral gap")
    value = float(1.0 - chain._spectrum.values.max())
    return Verdict(value, gap, value >= gap)
