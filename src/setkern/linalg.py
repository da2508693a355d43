"""Linear algebra in the weighted L2 geometry.

An atom matrix ``M`` acts on atom vectors.  With ``D`` the diagonal of atom
weights, ``M`` is nu-selfadjoint when ``D M`` is symmetric, and nu-PSD when
its similarity transform ``D^{1/2} M D^{-1/2}`` is PSD.  Null atoms (zero
weight) are excluded from the geometry.  A ``Spectrum`` holds the eigenpairs
of that transform on the positive-weight atoms, and every square root and
rank in the package reads one.  Spectral transforms return matrices with
zero rows and columns at null atoms.

Every check decides "small enough" by one rule, ``judge``: an error passes
when it is at most ``tol * scale``, with ``scale`` the size of what the error
is measured against, in its units.  So no verdict depends on the unit of the
measure, and bounds follow the roundoff of the products involved, about
``n * eps * scale`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2002, ch. 3).

Every number that enters the package (a weight, conductance, killing mass,
operator entry or coefficient) is zero or has a magnitude in ``[2^-b, 2^b]``,
``b = DOMAIN_BITS``, by one rule, ``require_in_domain``, where it enters, so no
quantity a check forms leaves the float range (Higham, 2002, sec. 2.1).  The
highest-degree one is the Monte Carlo moment ``sum (I(phi) I(psi))^2`` over
``N`` draws: over ``n`` atoms and terms ``|I(phi)| <= n^2 2^(2b) |z|`` (a Green
kernel's ``w G <= 2^(b+34)`` is smaller), so it is at most ``n^8 N z^4 2^(8b)``.
``8b = 768`` leaves 255 bits below ``2^1023`` for ``n <= 2^24``, ``N <= 2^40``
and ``|z| <= 16``, and its least nonzero size ``2^-768`` stays 254 bits above
``2^-1022``, so no underflow zeroes a ``judge`` scale either.

Every count, seed and atom index is an integer in ``[least, 2^bits)`` by one
rule, ``require_integer``, where it enters: a sample count in ``[1, 2^40)``
(the ``N`` above), a worker count of at least 1, a seed in ``[0, 2^64)`` and
an atom index in ``np.intp``.

Every error line that echoes input echoes it by one rule, ``echo``: its
``repr``, cut past 64 characters to its first 32 and its length, so no input
makes a line longer than a screen.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CLAMP",
    "DOMAIN_BITS",
    "require_in_domain",
    "SAMPLE_BITS",
    "require_integer",
    "echo",
    "Verdict",
    "judge",
    "require",
    "psd",
    "Spectrum",
    "selfadjoint_defect",
    "spectral_transform",
    "psd_sqrt",
    "numerical_rank",
]

CLAMP = 1e-12
"""Eigenvalues at most ``CLAMP * lambda_max`` are roundoff: roots set them to zero and ranks skip them."""
DOMAIN_BITS = 96
"""``b`` of the float domain ``[2^-b, 2^b]`` of every input (see the module docstring)."""
SAMPLE_BITS = 40
"""Monte Carlo sample counts are below ``2^SAMPLE_BITS``, the ``N`` of the float-domain bound."""


def require_in_domain(values, name: Callable[..., str], error: type[Exception], *, nonnegative: bool = False,
                      floor: int | None = -DOMAIN_BITS, ceiling: int = DOMAIN_BITS) -> None:
    """Raise ``error`` naming ``name(*index)``, the first entry of ``values`` not zero or of magnitude in ``[2^floor, 2^ceiling]``.

    ``floor=None`` drops the lower end, and ``nonnegative`` rejects a negative entry; NaN and infinities are outside.
    """
    v = np.asarray(values, dtype=float)
    x = v if nonnegative else np.abs(v)  # a negative x fails both x >= low and x == 0
    ok = (x <= 2.0**ceiling) & ((x >= (0.0 if floor is None else 2.0**floor)) | (x == 0.0))
    if not ok.all():
        index = tuple(map(int, np.unravel_index(np.argmin(ok), v.shape)))
        rule = (f"of magnitude at most 2^{ceiling}" if floor is None
                else f"zero or {'in' if nonnegative else 'of magnitude in'} [2^{floor}, 2^{ceiling}]")
        raise error(f"{name(*index)} is {float(v[index])!r}, outside the float domain: {rule}")


def require_integer(value, name: str, error: type[Exception], *, least: int = 0, bits: int = 64) -> int:
    """``value``, a Python or numpy integer (no ``bool``), as an ``int`` in ``[least, 2^bits)``; else raise ``error``."""
    number = None if isinstance(value, bool) or not hasattr(value, "__index__") else operator.index(value)
    if number is None or not least <= number < 1 << bits:
        got = "" if number is not None else f", got {echo(value)}"  # a flag past int()'s digit limit is still text
        raise error(f"{name} must be an integer in [{least}, 2**{bits})" + got)
    return number


def echo(value) -> str:
    """``repr(value)`` for an error line; past 64 characters, the repr of the first 32 characters of its text and its length."""
    text = repr(value)
    return text if len(text) <= 64 else f"{str(value)[:32]!r}... ({len(str(value))} characters)"


class Verdict(NamedTuple):
    """An error, its bound ``tol * scale``, and whether it passed; ``None`` where nothing was measured.

    ``detail`` holds the deterministic quantities behind the verdict, for its report record.
    A verdict has no truth value: as a non-empty tuple it would always be true, whatever it decided.
    """

    value: float | None
    bound: float | None
    passed: bool
    detail: dict | None = None

    def __bool__(self):
        raise TypeError("a Verdict has no truth value; read its .passed")


def judge(value: float, scale: float, tol: float) -> Verdict:
    """``value`` against ``tol * scale``: passes when ``value <= tol * scale``, and a NaN fails.

    A zero ``scale`` admits only a zero error, whatever ``tol``.
    """
    bound = tol * scale if scale else 0.0
    return Verdict(value, bound, bool(value <= bound))


def require(value: float, scale: float, tol: float, error: type[Exception], what: str, per: str) -> None:
    """Raise ``error`` unless ``judge(value, scale, tol)`` passes: ``<what> <value> > <tol> × <per> = <scale>``."""
    if not judge(value, scale, tol).passed:
        raise error(f"{what} {value:.3e} > {tol:g} × {per} = {scale:.3e}")


def psd(values: np.ndarray, tol: float) -> Verdict:
    """The package's one PSD rule: ``lambda_min >= -tol * lambda_max``, an empty spectrum reading ``lambda_min = 0``.

    The verdict holds ``lambda_min`` and the bound ``-tol * lambda_max``.  The
    rule is relative to the spectral scale with no absolute floor, as
    eigenvalue perturbations are bounded by ``|Delta M|``, not by 1.
    """
    low = float(values.min()) if values.size else 0.0
    verdict = judge(-low, float(values.max(initial=0.0)), tol)
    return Verdict(low, -verdict.bound, verdict.passed)


def selfadjoint_defect(M: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """``max|w(x) M[x,y] - w(y) M[y,x]|`` and its scale ``max|w(x) M[x,y]|``.

    ``M`` is nu-selfadjoint within ``tol`` when ``judge`` passes the pair at
    ``tol``, the one selfadjointness rule of the package.
    """
    WM = weights[:, None] * np.asarray(M, dtype=float)
    return float(np.abs(WM - WM.T).max()), float(np.abs(WM).max())


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
        """One ``eigh`` of the transform, averaged by halves with its transpose to remove roundoff asymmetry without overflow."""
        pos = weights > 0
        d = np.sqrt(weights[pos])
        M = np.asarray(M, dtype=float)
        Ms = (d[:, None] * (M if pos.all() else M[np.ix_(pos, pos)])) / d[None, :]
        values, vectors = np.linalg.eigh(0.5 * Ms + 0.5 * Ms.T)
        for a in (values, vectors, pos, d):
            a.setflags(write=False)
        return cls(values, vectors, pos, d)

    @property
    def top(self) -> float:
        """``lambda_max``, or zero when no eigenvalue is positive."""
        return float(self.values.max(initial=0.0))

    @property
    def kept(self) -> np.ndarray:
        """Mask of the eigenvalues above ``CLAMP * lambda_max``, the ones a root keeps."""
        return self.values > CLAMP * self.top

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.kept))

    def certify(self, tol: float, error: type[Exception], what: str) -> "Spectrum":
        """``self`` if ``psd(self.values, tol)`` passes; otherwise raise ``error``."""
        verdict = psd(self.values, tol)
        if not verdict.passed:
            raise error(f"{what} is indefinite: -lambda_min {-verdict.value:.3e} > {tol:g} × lambda_max = {self.top:.3e}")
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
