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
from .linalg import DOMAIN_BITS, Spectrum, Verdict, echo, judge, psd, require, require_in_domain, selfadjoint_defect
from .measure import MeasurableSet, MeasureSpace

__all__ = [
    "SetKernel",
    "GramMatrix",
    "wiener_kernel",
    "rank_one_kernel",
    "operator_kernel",
    "counting_kernel",
    "gram",
]


@dataclass(frozen=True, eq=False)
class SetKernel:
    """A real symmetric kernel on pairs of finite-measure sets.

    ``Q`` is the atom Gram: ``SetKernel(space, Q)`` is the kernel
    ``K(A, B) = chi_A^T Q chi_B`` of any symmetric ``Q``.  Instances are
    immutable and safe to share, and compute their operator ``T`` and its
    ``spectrum`` once, on first use.

    Raises
    ------
    InvalidOperatorError
        If ``Q`` is not ``n x n`` over the space's atoms, or an entry's magnitude
        exceeds ``2^(2b)``, the largest weight times operator entry (there is no
        lower end: a computed ``w G`` may be tiny).
    """

    space: MeasureSpace
    Q: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        n = self.space.size
        if Q.shape != (n, n):
            raise InvalidOperatorError(f"atom Gram must be {n}x{n}, got {Q.shape}")
        atoms = self.space.atoms
        require_in_domain(Q, lambda x, y: f"Q[{echo(atoms[x])}, {echo(atoms[y])}]", InvalidOperatorError,
                          floor=None, ceiling=2 * DOMAIN_BITS)
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
    def scale(self) -> float:
        """``max|Q|``, the unit of the kernel's values and of every error measured against them."""
        return float(np.abs(self.Q).max())

    @cached_property
    def spectrum(self) -> Spectrum:
        """Weighted spectrum of ``T``."""
        return Spectrum.of(self.T, self.space.weight_array)

    def __call__(self, A: MeasurableSet, B: MeasurableSet) -> float:
        self.space.validate_set(A)
        self.space.validate_set(B)
        return float(self.Q.take(A.index_array, 0).take(B.index_array, 1).sum())


def wiener_kernel(space: MeasureSpace) -> SetKernel:
    """Overlap kernel ``K(A, B) = w(A & B)``, the white-noise covariance."""
    return SetKernel(space=space, kind="wiener", Q=np.diag(space.weight_array))


def rank_one_kernel(space: MeasureSpace) -> SetKernel:
    """Product kernel ``K(A, B) = w(A) w(B)``; its Gram matrices have rank one."""
    return SetKernel(space=space, kind="rank_one", Q=space.weight_array[:, None] * space.weight_array[None, :])


def counting_kernel(space: MeasureSpace) -> SetKernel:
    """Cardinality kernel ``K(A, B) = |A & B|``.

    Positive definite, but it ignores the weights: on a space with a null
    atom it charges a null set and therefore admits no weighted-L2
    realization.  Kept as the standard counterexample.
    """
    return SetKernel(space=space, kind="counting", Q=np.eye(space.size))


def operator_kernel(space: MeasureSpace, M: np.ndarray) -> SetKernel:
    """Kernel induced by a nu-selfadjoint, nu-PSD atom matrix.

    ``K(A, B) = <chi_A, M chi_B>`` in the weighted L2 pairing, i.e. the
    double sum of ``w(x) M[x, y]`` over ``x in A, y in B``.

    Raises
    ------
    InvalidOperatorError
        If ``M`` has the wrong shape or an entry outside the float domain
        (``linalg.require_in_domain``), violates the weighted symmetry
        ``w(x) M[x,y] == w(y) M[y,x]`` beyond ``1e-10 * max|w(x) M[x,y]|``,
        or has an eigenvalue below ``-1e-10 * lambda_max``.
    """
    M = np.asarray(M, dtype=float)
    n = space.size
    if M.shape != (n, n):
        raise InvalidOperatorError(f"operator matrix must be {n}x{n}, got {M.shape}")
    require_in_domain(M, lambda x, y: f"M[{echo(space.atoms[x])}, {echo(space.atoms[y])}]", InvalidOperatorError)
    Q = space.weight_array[:, None] * M
    require(*selfadjoint_defect(M, space.weight_array), 1e-10, InvalidOperatorError,
            "matrix is not selfadjoint in the weighted geometry: defect", "max|wM|")
    kernel = SetKernel(space=space, kind="operator", Q=Q)
    kernel.spectrum.certify(1e-10, InvalidOperatorError, "matrix")
    return kernel


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel values over a finite family of sets.

    ``entries`` is symmetrized; ``asymmetry`` is the largest
    ``|K(A, B) - K(B, A)|`` over the family before symmetrizing.  Each check
    returns the ``Verdict`` of ``linalg.judge`` for its own ``tol``.
    """

    entries: np.ndarray
    asymmetry: float = 0.0

    @property
    def scale(self) -> float:
        """``max|G|``, the unit of the family's kernel values."""
        return float(np.abs(self.entries).max(initial=0.0))

    def psd(self, tol: float) -> Verdict:
        """``linalg.psd`` of the Gram's eigenvalues; no eigenvectors."""
        return psd(np.linalg.eigvalsh(self.entries), tol)

    def schwarz(self, tol: float) -> Verdict:
        """Largest ``K(A,B)^2 - K(A,A) K(B,B)`` over pairs of the family against ``tol * max|G|^2``."""
        d = np.diag(self.entries)
        return judge(float((self.entries**2 - np.outer(d, d)).max(initial=0.0)), self.scale**2, tol)


def gram(kernel: SetKernel, sets: Sequence[MeasurableSet]) -> GramMatrix:
    """Kernel values over ``sets`` as the product ``C Q C^T``."""
    C = kernel.space.indicator_matrix(tuple(sets))
    G = C @ kernel.Q @ C.T
    return GramMatrix(entries=0.5 * G + 0.5 * G.T, asymmetry=float(np.abs(G - G.T).max(initial=0.0)))

