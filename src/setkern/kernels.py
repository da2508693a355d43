"""Symmetric kernels indexed by pairs of measurable sets.

A kernel is stored as its atom Gram ``Q[x, y] = K({x}, {y})``, and every
value is ``K(A, B) = chi_A^T Q chi_B``.  Kernels are therefore biadditive
over disjoint unions by construction, and the Gram of a set family is the
product ``C Q C^T`` with the family's indicator matrix ``C``.  The builtin
kernels are the overlap (Wiener) kernel ``Q = diag(w)``, the product kernel
``Q = w w^T``, operator-induced kernels ``Q = diag(w) M``, Green kernels
``Q = diag(w) G`` (see ``markov.green_kernel``) and the counting kernel
``Q = I``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidOperatorError
from .linalg import Spectrum, selfadjoint_defect
from .measure import MeasurableSet, MeasureSpace

__all__ = [
    "SetKernel",
    "GramMatrix",
    "wiener_kernel",
    "rank_one_kernel",
    "operator_kernel",
    "counting_kernel",
    "gram",
    "check_positive_definite",
    "schwarz_check",
]


@dataclass(frozen=True, eq=False)
class SetKernel:
    """A real symmetric kernel on pairs of finite-measure sets.

    ``Q`` is the atom Gram; ``matrix`` is the inducing operator ``M`` with
    ``Q = diag(w) M`` when the kernel is operator- or Green-induced, and
    ``None`` otherwise.  Instances are immutable and safe to share, and
    compute their operator ``T`` and its ``spectrum`` once, on first use.

    Raises
    ------
    InvalidOperatorError
        If ``Q`` is not a finite ``n x n`` matrix over the space's atoms.
    """

    space: MeasureSpace
    kind: str
    Q: np.ndarray
    matrix: np.ndarray | None = None

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        n = self.space.size
        if Q.shape != (n, n):
            raise InvalidOperatorError(f"atom Gram must be {n}x{n}, got {Q.shape}")
        if not np.all(np.isfinite(Q)):
            raise InvalidOperatorError("atom Gram entries must be finite")
        Q.setflags(write=False)
        object.__setattr__(self, "Q", Q)

    @cached_property
    def T(self) -> np.ndarray:
        """Read-only ``T = D^{-1} Q`` on the positive atoms and zero at null atoms; ``factorization.build_T`` certifies it."""
        pos = self.space.positive
        T = np.zeros_like(self.Q)
        T[np.ix_(pos, pos)] = self.Q[np.ix_(pos, pos)] / self.space.weight_array[pos, None]
        T.setflags(write=False)
        return T

    @cached_property
    def spectrum(self) -> Spectrum:
        """Weighted spectrum of ``T``."""
        return Spectrum.of(self.T, self.space.weight_array)

    def __call__(self, A: MeasurableSet, B: MeasurableSet) -> float:
        self.space.validate_set(A)
        self.space.validate_set(B)
        if not A.members or not B.members:
            return 0.0
        return float(self.Q[np.ix_(A.indices, B.indices)].sum())

    @classmethod
    def from_atom_gram(cls, space: MeasureSpace, Q: np.ndarray, kind: str = "custom") -> "SetKernel":
        """The kernel ``K(A, B) = chi_A^T Q chi_B`` of an atom Gram ``Q``."""
        return cls(space=space, kind=kind, Q=Q)


def wiener_kernel(space: MeasureSpace) -> SetKernel:
    """Overlap kernel ``K(A, B) = w(A & B)``, the white-noise covariance."""
    return SetKernel(space=space, kind="wiener", Q=np.diag(space.weight_array))


def rank_one_kernel(space: MeasureSpace) -> SetKernel:
    """Product kernel ``K(A, B) = w(A) w(B)``; its Gram matrices have rank one."""
    w = space.weight_array
    return SetKernel(space=space, kind="rank_one", Q=np.outer(w, w))


def counting_kernel(space: MeasureSpace) -> SetKernel:
    """Cardinality kernel ``K(A, B) = |A & B|``.

    Positive definite, but it ignores the weights: on a space with a null
    atom it charges a null set and therefore admits no weighted-L2
    realization.  Kept as the standard counterexample.
    """
    return SetKernel(space=space, kind="counting", Q=np.eye(space.size))


def operator_kernel(space: MeasureSpace, M: np.ndarray, *, tol: float = 1e-10) -> SetKernel:
    """Kernel induced by a nu-selfadjoint, nu-PSD atom matrix.

    ``K(A, B) = <chi_A, M chi_B>`` in the weighted L2 pairing, i.e. the
    double sum of ``w(x) M[x, y]`` over ``x in A, y in B``.

    Raises
    ------
    InvalidOperatorError
        If ``M`` has the wrong shape or nonfinite entries, violates the
        weighted symmetry ``w(x) M[x,y] == w(y) M[y,x]`` beyond ``tol``
        relative to the largest ``|w(x) M[x,y]|``, or is indefinite beyond
        ``tol`` relative to its largest eigenvalue.
    """
    M = np.asarray(M, dtype=float)
    n = space.size
    if M.shape != (n, n):
        raise InvalidOperatorError(f"operator matrix must be {n}x{n}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidOperatorError("operator matrix entries must be finite")
    w = space.weight_array
    defect = selfadjoint_defect(M, w)
    if defect > tol:
        raise InvalidOperatorError(
            f"matrix is not selfadjoint in the weighted geometry (relative defect {defect:.3e})"
        )
    kernel = SetKernel(space=space, kind="operator", Q=w[:, None] * M, matrix=M)
    kernel.spectrum.certify(tol, InvalidOperatorError, "matrix")
    return kernel


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel values over a finite family of sets.

    ``entries`` is symmetrized; ``asymmetry`` is the largest
    ``|K(A, B) - K(B, A)|`` over the family before symmetrizing.
    """

    sets: tuple[MeasurableSet, ...]
    entries: np.ndarray
    asymmetry: float = 0.0

    def eigenvalues(self) -> np.ndarray:
        if self.entries.size == 0:
            return np.zeros(0)
        return np.linalg.eigvalsh(self.entries)

    @property
    def min_eigenvalue(self) -> float:
        ev = self.eigenvalues()
        return float(ev.min()) if ev.size else 0.0

    def psd_bound(self, tol: float) -> float:
        """Least admissible eigenvalue: ``-tol`` relative to the trace."""
        return -tol * abs(float(np.trace(self.entries)))

    def schwarz_excess(self) -> float:
        """Largest ``K(A,B)^2 - K(A,A) K(B,B)`` over pairs of the family."""
        if self.entries.size == 0:
            return 0.0
        d = np.diag(self.entries)
        return float((self.entries**2 - np.outer(d, d)).max())


def gram(kernel: SetKernel, sets: Sequence[MeasurableSet]) -> GramMatrix:
    """Kernel values over ``sets`` as the product ``C Q C^T``."""
    sets = tuple(sets)
    C = kernel.space.indicator_matrix(sets)
    G = C @ kernel.Q @ C.T
    return GramMatrix(
        sets=sets, entries=0.5 * (G + G.T), asymmetry=float(np.abs(G - G.T).max(initial=0.0))
    )


def check_positive_definite(
    kernel: SetKernel, sets: Sequence[MeasurableSet], tol: float = 1e-10
) -> bool:
    """Certify the quadratic form on ``sets`` is nonnegative.

    Passes iff the smallest Gram eigenvalue is at least ``-tol`` relative to
    the Gram trace, however small the trace.  The singleton
    family is decisive, so callers typically include the singletons
    alongside the sets of interest.
    """
    g = gram(kernel, sets)
    return g.min_eigenvalue >= g.psd_bound(tol)


def schwarz_check(
    kernel: SetKernel, A: MeasurableSet, B: MeasurableSet, tol: float = 1e-10
) -> bool:
    """Check ``K(A,B)^2 <= K(A,A) K(B,B) + tol``.

    This is the Cauchy-Schwarz bound in the kernel's reproducing geometry;
    in particular a set with ``K(A,A) == 0`` cannot pair with anything.
    """
    return gram(kernel, [A, B]).schwarz_excess() <= tol
