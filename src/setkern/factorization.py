"""Realization of set-kernels as inner products in the weighted L2 space.

A kernel admits a family ``{k_A}`` of atom vectors with
``K(A, B) = <k_A, k_B>`` in the weighted pairing exactly when it is positive
definite and charges no null set, as ``check_absolute_continuity`` decides.
The construction goes through the densities ``(T chi_B)(x) = K({x}, B) / w(x)``
of the kernel's nu-selfadjoint PSD operator ``SetKernel.T``, and
``k_A = T^{1/2} chi_A``.  The map sending ``K(., A)`` to ``k_A`` extends to
an isometry ``b`` of the kernel's reproducing space into weighted L2.  Over a
set family, ``b``, its adjoint ``b*`` and Parseval expansions over an
orthonormal basis are each one product with ``C S^T``, whose rows are the
``k_A``.  The range dimension of ``b`` rounds out the module.

Constructors (``build_T``, ``realize``) raise on a kernel they cannot realize;
checks (``check_absolute_continuity``, ``check_realization``,
``reverse_direction``) return the ``linalg.Verdict`` of their decision: the
error, its bound and whether it passed.

Null atoms are treated as L2-equivalence classes: densities, ``T`` and every
``k_A`` vanish there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    DomainError,
    InvalidBasisError,
    NotPositiveError,
    VerificationError,
)
from .kernels import SetKernel
from .linalg import Verdict, echo, judge, psd_sqrt, require
from .measure import MeasurableSet, MeasureSpace, SimpleFunction

__all__ = [
    "Factorization",
    "check_absolute_continuity",
    "check_realization",
    "build_T",
    "realize",
    "reverse_direction",
    "isometry_b",
    "coisometry_b_star",
    "onb_factorization",
    "b_range_dimension",
    "export_factorization",
    "write_factorization",
]


def check_absolute_continuity(kernel: SetKernel, probe_sets: Sequence[MeasurableSet] = (), tol: float = 1e-10) -> Verdict:
    """Whether the kernel vanishes on null sets: the largest charge over the probed null sets against ``tol * max|Q|``.

    The probed family is ``probe_sets`` together with every zero-weight
    singleton, and its null sets are the rows of its indicator matrix ``C``
    with ``C w == 0``.  The charge of a null set ``A`` is ``max_y |K(A, {y})|``,
    the largest entry of its row of ``C Q``, and zero when no null set is
    probed; this is the package's one null-set rule.
    """
    space = kernel.space
    C = np.vstack([space.indicator_matrix(probe_sets), np.eye(space.size)[~space.positive]])
    null = C[C @ space.weight_array == 0.0]
    return judge(float(np.abs(null @ kernel.Q).max(initial=0.0)), kernel.scale, tol)


def _require_absolute_continuity(kernel: SetKernel) -> None:
    """Raise ``AbsoluteContinuityError`` naming the first null atom the kernel charges beyond ``1e-10 * max|Q|``."""
    verdict = check_absolute_continuity(kernel)
    if not verdict.passed:
        null = np.flatnonzero(~kernel.space.positive)  # no other set is probed
        charges = np.abs(kernel.Q[null]).max(axis=1)
        first = int(np.argmax(charges > verdict.bound))
        atom = echo(kernel.space.atoms[null[first]])
        raise AbsoluteContinuityError(
            f"no realization exists: kernel charges null atom {atom}: max_y |K({{{atom}}},{{y}})| = "
            f"{charges[first]:.3e} > 1e-10 × max|Q| = {kernel.scale:.3e}")


def check_realization(kernel: SetKernel, root: np.ndarray, sets: Sequence[MeasurableSet] | None = None, *, tol: float) -> Verdict:
    """``max|<k_A, k_B>_w - K(A, B)|`` over pairs of ``sets`` (of atoms if None), ``k_A = root chi_A``, against ``tol * max|C Q C^T|``.

    The package's one realization check; ``C Q C^T`` is not symmetrized, so an asymmetric ``Q`` fails.
    """
    C = None if sets is None else kernel.space.indicator_matrix(sets)
    K, values = (root.T, kernel.Q) if C is None else (C @ root.T, C @ kernel.Q @ C.T)
    inner = K @ (kernel.space.weight_array[:, None] * K.T)
    return judge(float(np.abs(inner - values).max(initial=0.0)), float(np.abs(values).max(initial=0.0)), tol)


def build_T(kernel: SetKernel) -> np.ndarray:
    """The kernel's operator ``T``, once the kernel is shown realizable.

    ``T[x, y] = K({x}, {y}) / w(x)`` on positive atoms, zero rows and columns
    on null atoms (see ``SetKernel.T``).  The result satisfies
    ``<chi_A, T chi_B> = K(A, B)`` in the weighted pairing for every pair of
    sets, is nu-selfadjoint by symmetry of the kernel, and is certified
    nu-PSD by the kernel's ``spectrum``.

    Raises
    ------
    AbsoluteContinuityError
        If the kernel charges a null atom by more than ``1e-10 * max|Q|``.
    NotPositiveError
        If the spectrum has an eigenvalue below ``-1e-8 * lambda_max``.
    """
    _require_absolute_continuity(kernel)
    kernel.spectrum.certify(1e-8, NotPositiveError, "kernel on singletons")
    return kernel.T


@dataclass(frozen=True, eq=False)
class Factorization:
    """A realized kernel: the kernel, its root ``S``, and the ``k_A`` family.

    ``S`` is the unique nu-PSD square root of the kernel's ``T``, so
    ``S @ S == T`` and ``k_A = S chi_A`` satisfies ``<k_A, k_B> = K(A, B)``
    in the weighted pairing.  ``residual`` is the largest singleton-pair
    reconstruction error observed when the factorization was built.
    """

    kernel: SetKernel
    S: np.ndarray
    residual: float

    @property
    def space(self) -> MeasureSpace:
        return self.kernel.space

    def k_rows(self, sets: Sequence[MeasurableSet]) -> np.ndarray:
        """The factor vectors ``k_A = S chi_A`` of ``sets`` as the rows of ``C S^T``."""
        return self.space.indicator_matrix(sets) @ self.S.T

    def s_norm_squared(self, phi: SimpleFunction) -> float:
        """Weighted L2 norm squared of ``S phi``; the exact second moment."""
        v = self.S @ phi.values(self.space.size)
        return self.space.inner(v, v)


def realize(kernel: SetKernel, *, tol: float = 1e-8) -> Factorization:
    """Construct the weighted-L2 realization of a kernel.

    Requires the kernel to vanish on null sets and to be PSD on singletons;
    then ``k_A = T^{1/2} chi_A`` reproduces the kernel.  Before returning,
    ``check_realization`` over the atoms compares ``<k_x, k_y>`` with
    ``K({x}, {y})`` on every singleton pair, null atoms included; kernels are
    biadditive by construction, so the singleton pairs decide every pair.
    The root comes from the kernel's ``spectrum``, which ``build_T`` certifies.

    Raises
    ------
    AbsoluteContinuityError, NotPositiveError
        Propagated from ``build_T``.
    VerificationError
        If the singleton-pair reconstruction residual exceeds
        ``tol * max|Q|`` or is not a number; an asymmetric ``Q`` exceeds it.
    """
    build_T(kernel)
    S = psd_sqrt(kernel.spectrum)
    residual = check_realization(kernel, S, tol=tol).value
    require(residual, kernel.scale, tol, VerificationError,
            "factorization failed verification: singleton residual", "max|Q|")
    return Factorization(kernel=kernel, S=S, residual=residual)


def reverse_direction(
    factorization: Factorization, sets: Sequence[MeasurableSet] | None = None, *, tol: float = 1e-9
) -> Verdict:
    """Recover the kernel's densities from the root and cross-check them.

    For each probe set ``B`` (by default the singletons and the full set) the
    root gives ``S k_B = S S chi_B``, which must agree with the kernel's
    density ``T chi_B``, ``K({x}, B) / w(x)`` on positive atoms and zero on
    null atoms.  Returns the worst probe residual against
    ``tol * max|T chi_B|``, the largest density over the probes.

    Raises
    ------
    AbsoluteContinuityError
        If the kernel charges a null atom by more than ``1e-10 * max|Q|``:
        without absolute continuity the densities do not exist.
    """
    kernel = factorization.kernel
    _require_absolute_continuity(kernel)
    space = kernel.space
    if sets is None:
        sets = [*space.singletons(), space.full_set()]
    sets = list(sets)
    densities = kernel.T @ space.indicator_matrix(sets).T
    worst = float(np.abs(factorization.S @ factorization.k_rows(sets).T - densities).max(initial=0.0))
    return judge(worst, float(np.abs(densities).max(initial=0.0)), tol)


def isometry_b(factorization: Factorization, alpha: np.ndarray, sets: Sequence[MeasurableSet]) -> np.ndarray:
    """Images under ``b`` of the elements ``sum_i alpha[r, i] K(., sets[i])``, one per row of ``alpha``.

    ``b`` sends ``K(., A)`` to ``k_A`` and extends linearly, so the images are
    the rows of ``alpha @ (C S^T)``, each with its element's norm in weighted L2:
    the Gram quadratic form ``alpha[r] @ gram(kernel, sets).entries @ alpha[r]``.
    An ``alpha`` whose last axis is not one entry per set raises ``DomainError``.
    """
    alpha, K = np.asarray(alpha, dtype=float), factorization.k_rows(sets)
    if alpha.ndim == 0 or alpha.shape[-1] != len(K):
        raise DomainError(f"coefficients must have one entry per set ({len(K)}), got shape {alpha.shape}")
    return alpha @ K


def coisometry_b_star(factorization: Factorization, phi: np.ndarray, sets: Sequence[MeasurableSet]) -> np.ndarray:
    """Adjoint images ``(b* phi)(A) = <phi, k_A>``: ``(phi w) @ (C S^T)^T``, one row per row of ``phi``.

    A ``phi`` that is not a matrix with one column per atom raises ``DomainError``.
    """
    phi = np.asarray(phi, dtype=float)
    space = factorization.space
    if phi.ndim != 2 or phi.shape[1] != space.size:
        raise DomainError("atom vectors must match the space size")
    return (phi * space.weight_array) @ factorization.k_rows(sets).T


def _check_onb(space: MeasureSpace, basis: Sequence[np.ndarray]) -> np.ndarray:
    if len(basis) == 0:
        raise InvalidBasisError("empty basis")
    vectors = [np.asarray(v, dtype=float) for v in basis]
    if any(v.shape != (space.size,) for v in vectors):
        raise InvalidBasisError("basis vectors must match the space size")
    B = np.array(vectors)
    w = space.weight_array
    G = B @ (w[:, None] * B.T)
    if not judge(float(np.abs(G - np.eye(len(basis))).max()), 1.0, 1e-10).passed:  # a NaN fails
        raise InvalidBasisError("family is not orthonormal in the weighted pairing")
    # G is the Gram of the rows of B D^{1/2}, within 1e-10 of I, so it is nonsingular (Gershgorin)
    # for any basis of fewer than 1e10 vectors: the rows span the positive atoms iff there are that many.
    if len(basis) < int(space.positive.sum()):
        raise InvalidBasisError("basis does not span the positive-weight atoms")
    return B


def onb_factorization(
    factorization: Factorization, basis: Sequence[np.ndarray], sets: Sequence[MeasurableSet]
) -> np.ndarray:
    """Parseval expansions ``sum_n <phi_n, k_A> <k_B, phi_n>`` of ``K(A, B)`` for every pair of ``sets``.

    The coefficients ``<phi_n, k_A>`` are ``b*`` of the basis, and the result
    is the product of the coefficient matrix with its transpose.  For any
    complete orthonormal basis it is the Gram of ``sets``, independently of
    the basis chosen.

    Raises
    ------
    InvalidBasisError
        If the family is empty, has a vector that is not one entry per atom,
        is not orthonormal within ``1e-10``, or does not span the
        positive-weight atoms.
    """
    coef = coisometry_b_star(factorization, _check_onb(factorization.space, basis), sets).T
    return coef @ coef.T


def b_range_dimension(factorization: Factorization) -> int:
    """Dimension of the closed span of the ``k_A`` family in weighted L2.

    The singletons alone already span the range of ``S``, so no family is
    needed.  The result is the rank of the kernel's ``spectrum``, the
    spectrum of ``T``; that is the rank of ``S`` for a factorization built
    by ``realize``, and ``S`` itself is not read, so a hand-built
    ``Factorization`` with another ``S`` gets its kernel's rank.  The
    isometry is onto exactly when this equals the number of positive-weight
    atoms.
    """
    return factorization.kernel.spectrum.rank


def export_factorization(
    factorization: Factorization, family: Sequence[MeasurableSet] = ()
) -> dict:
    """Serializable view of a factorization: atoms, weights, ``T``, k-vectors.

    The k-vectors cover every singleton plus the requested family, each keyed
    by the atom names of its set.
    """
    space = factorization.space
    sets = list(dict.fromkeys([*space.singletons(), *family]))
    kvecs = factorization.k_rows(sets)
    return {
        "atoms": list(space.atoms),
        "weights": list(space.weights),
        "T": factorization.kernel.T.tolist(),
        "k": [
            {"set": [space.atoms[i] for i in A.indices], "vector": k}
            for A, k in zip(sets, kvecs.tolist())
        ],
    }


def write_factorization(
    factorization: Factorization, path: str | Path, family: Sequence[MeasurableSet] = ()
) -> None:
    """Write the JSON export: the bytes of ``json.dumps(export, indent=2, sort_keys=True)`` and a newline."""
    Path(path).write_text(_indented_json(export_factorization(factorization, family)) + "\n")


def _indented_json(obj: object, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, with each list of scalars written by the C encoder.

    ``json.dumps`` with ``indent`` always runs the pure-Python encoder; without it
    the C encoder spells scalars the same way.  A list is laid out by its first
    item: no list of the export mixes scalars and containers.
    """
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{json.dumps(key)}: {_indented_json(value, inner)}" for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        return "[" + inner + ("," + inner).join(_indented_json(item, inner) for item in obj) + pad + "]"
    if isinstance(obj, list) and obj:
        return "[" + inner + json.dumps(obj, separators=("," + inner, ": "))[1:-1] + pad + "]"
    return json.dumps(obj)
