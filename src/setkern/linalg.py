"""Linear algebra in the weighted L2 geometry.

An atom matrix ``M`` acts on atom vectors.  With ``D`` the diagonal of atom
weights, ``M`` is nu-selfadjoint when ``D M`` is symmetric, and nu-PSD when
its similarity transform ``D^{1/2} M D^{-1/2}`` is PSD.  Null atoms (zero
weight) are excluded from the geometry.  A ``Spectrum`` holds the eigenpairs
of that transform on the positive-weight atoms, and every PSD decision,
square root and rank in the package reads one.  Spectral transforms return
matrices with zero rows and columns at null atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CLAMP",
    "Spectrum",
    "selfadjoint_defect",
    "spectral_transform",
    "psd_sqrt",
    "numerical_rank",
]

CLAMP = 1e-12
"""Eigenvalues at most ``CLAMP * lambda_max`` are roundoff: roots set them to zero and ranks skip them."""


def selfadjoint_defect(M: np.ndarray, weights: np.ndarray) -> float:
    """Largest violation of ``w(x) M[x,y] == w(y) M[y,x]`` relative to the largest ``|w(x) M[x,y]|``.

    ``M`` is nu-selfadjoint within ``tol`` when this is at most ``tol``, the
    one selfadjointness rule of the package; a zero matrix has defect 0.
    """
    WM = weights[:, None] * np.asarray(M, dtype=float)
    scale = float(np.abs(WM).max())
    return float(np.abs(WM - WM.T).max()) / scale if scale > 0 else 0.0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenpairs of ``D^{1/2} M D^{-1/2}`` on the positive-weight atoms.

    ``values`` ascend and the columns of ``vectors`` are their eigenvectors;
    ``pos`` is the positive-weight mask and ``d`` the square roots of the
    positive weights.  Every array is read-only.
    """

    values: np.ndarray
    vectors: np.ndarray
    pos: np.ndarray
    d: np.ndarray

    @classmethod
    def of(cls, M: np.ndarray, weights: np.ndarray) -> "Spectrum":
        """One ``eigh`` of the transform, averaged with its transpose to remove roundoff asymmetry."""
        pos = weights > 0
        d = np.sqrt(weights[pos])
        Ms = (d[:, None] * np.asarray(M, dtype=float)[np.ix_(pos, pos)]) / d[None, :]
        values, vectors = np.linalg.eigh(0.5 * (Ms + Ms.T))
        for a in (values, vectors, pos, d):
            a.setflags(write=False)
        return cls(values, vectors, pos, d)

    @property
    def top(self) -> float:
        """``lambda_max``, or zero when no eigenvalue is positive."""
        return max(float(self.values.max()), 0.0) if self.values.size else 0.0

    @property
    def kept(self) -> np.ndarray:
        """Mask of the eigenvalues above ``CLAMP * lambda_max``, the ones a root keeps."""
        return self.values > CLAMP * self.top

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.kept))

    def certify(self, tol: float, error: type[Exception], what: str) -> "Spectrum":
        """``self`` if ``lambda_min >= -tol * lambda_max``; otherwise raise ``error``.

        The rule is relative to the spectral scale with no absolute floor,
        as eigenvalue perturbations are bounded by ``|Delta M|``, not by 1.
        """
        if self.values.size and float(self.values.min()) < -tol * self.top:
            raise error(
                f"{what} is indefinite: eigenvalue {self.values.min():.3e} below -{tol:g} * {self.top:.3e}"
            )
        return self


def spectral_transform(spec: Spectrum, values: np.ndarray) -> np.ndarray:
    """The atom matrix with ``spec``'s eigenvectors and the eigenvalues ``values``.

    It is mapped back from the symmetrization, with zero rows and columns at
    null atoms.
    """
    U, d = spec.vectors, spec.d
    R = (((U * values) @ U.T) / d[:, None]) * d[None, :]
    if spec.pos.all():
        return R
    out = np.zeros((spec.pos.size, spec.pos.size))
    out[np.ix_(spec.pos, spec.pos)] = R
    return out


def psd_sqrt(spec: Spectrum) -> np.ndarray:
    """Nu-PSD square root from a certified spectrum, eigenvalues outside ``kept`` set to zero."""
    return spectral_transform(spec, np.sqrt(np.where(spec.kept, spec.values, 0.0)))


def numerical_rank(columns: np.ndarray, *, cutoff: float = 1e-10) -> int:
    """Rank of a column stack, counting singular values above ``cutoff * s_max``."""
    columns = np.asarray(columns, dtype=float)
    if columns.size == 0:
        return 0
    s = np.linalg.svd(columns, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > cutoff * s[0]))
