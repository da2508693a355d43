"""Realization of set-kernels as inner products in the weighted L2 space.

A kernel admits a family ``{k_A}`` of atom vectors with
``K(A, B) = <k_A, k_B>`` in the weighted pairing exactly when it is positive
definite and charges no null set, as ``check_absolute_continuity`` decides.
The construction goes through the densities ``(T chi_B)(x) = K({x}, B) / w(x)``
of the kernel's nu-selfadjoint PSD operator ``SetKernel.T``, and
``k_A = T^{1/2} chi_A``.  The map sending ``K(., A)`` to ``k_A`` extends to
an isometry ``b`` of the kernel's reproducing space into weighted L2; its
adjoint, Parseval expansions over orthonormal bases, and the range dimension
are all computable here.  A pushforward verifier for measure-space morphisms
rounds out the module.

Null atoms are treated as L2-equivalence classes: densities, ``T`` and every
``k_A`` vanish there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    DomainError,
    InconsistencyError,
    InvalidBasisError,
    InvalidMapError,
    NotPositiveError,
    VerificationError,
)
from .kernels import SetKernel, gram
from .linalg import judge, psd_sqrt, require
from .measure import MeasurableSet, MeasureSpace, SimpleFunction

__all__ = [
    "AbsoluteContinuityReport",
    "DensityReport",
    "Factorization",
    "RkhsElement",
    "check_absolute_continuity",
    "build_T",
    "realize",
    "reverse_direction",
    "isometry_b",
    "isometry_b_batch",
    "coisometry_b_star_batch",
    "onb_factorization",
    "onb_gram",
    "b_range_dimension",
    "verify_pushforward",
    "export_factorization",
    "write_factorization",
]


@dataclass(frozen=True)
class AbsoluteContinuityReport:
    """Null sets charged by a kernel.

    ``violations`` lists each probed set ``A`` with ``w(A) == 0`` and its
    charge ``max_y |K(A, {y})|`` where that exceeds the bound; ``charge`` is
    the largest charge over every probed null set, zero when there is none.
    """

    violations: tuple[tuple[MeasurableSet, float], ...]
    charge: float

    @property
    def ok(self) -> bool:
        return not self.violations


class DensityReport(NamedTuple):
    """Agreement between the root's ``S k_B`` and the kernel's densities ``T chi_B``, and its scale ``max|T chi_B|``."""

    max_residual: float
    scale: float


def check_absolute_continuity(
    kernel: SetKernel, probe_sets: Sequence[MeasurableSet] = (), tol: float = 1e-10
) -> AbsoluteContinuityReport:
    """Probe whether the kernel vanishes on null sets.

    The probed family is ``probe_sets`` together with every zero-weight
    singleton.  A null set ``A`` is charged when some ``|K(A, {y})|``, an
    entry of its row of ``C Q``, exceeds ``tol * max|Q|``; this is the
    package's one null-set rule.
    """
    space = kernel.space
    null_atoms = [space.singleton(i) for i in np.flatnonzero(~space.positive)]
    null = [A for A in dict.fromkeys([*probe_sets, *null_atoms]) if space.measure(A) == 0.0]
    charges = np.abs(space.indicator_matrix(null) @ kernel.Q).max(axis=1, initial=0.0)
    violations = tuple((A, float(v)) for A, v in zip(null, charges) if not judge(v, kernel.scale, tol).passed)
    return AbsoluteContinuityReport(violations, float(charges.max(initial=0.0)))


def _require_absolute_continuity(kernel: SetKernel) -> None:
    """Raise ``AbsoluteContinuityError`` naming the first null atom the kernel charges beyond ``1e-10 * max|Q|``."""
    violations = check_absolute_continuity(kernel).violations
    if violations:
        A, value = violations[0]  # a null singleton: no other set is probed
        atom = kernel.space.atoms[A.indices[0]]
        raise AbsoluteContinuityError(
            f"no realization exists: kernel charges null atom {atom!r}: max_y |K({{{atom}}},{{y}})| = "
            f"{value:.3e} > 1e-10 × max|Q| = {kernel.scale:.3e}")


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

    def k(self, A: MeasurableSet) -> np.ndarray:
        """The factor vector ``k_A = S chi_A``."""
        return self.S @ self.space.indicator(A)

    def k_rows(self, sets: Sequence[MeasurableSet]) -> np.ndarray:
        """The factor vectors ``k_A`` of ``sets`` as the rows of ``C S^T``."""
        return self.space.indicator_matrix(sets) @ self.S.T

    def apply_S(self, phi: SimpleFunction | np.ndarray) -> np.ndarray:
        """Apply ``S`` to a simple function (or pointwise atom vector)."""
        if isinstance(phi, SimpleFunction):
            phi = phi.values(self.space.size)
        return self.S @ np.asarray(phi, dtype=float)

    def s_norm_squared(self, phi: SimpleFunction | np.ndarray) -> float:
        """Weighted L2 norm squared of ``S phi``; the exact second moment."""
        v = self.apply_S(phi)
        return self.space.inner(v, v)


def realize(kernel: SetKernel, *, tol: float = 1e-8) -> Factorization:
    """Construct the weighted-L2 realization of a kernel.

    Requires the kernel to vanish on null sets and to be PSD on singletons;
    then ``k_A = T^{1/2} chi_A`` reproduces the kernel.  The reconstruction
    ``<k_x, k_y>`` is verified against the kernel's ``K({x}, {y})`` on every
    singleton pair, null atoms included, before returning; kernels are
    biadditive by construction, so the singleton pairs decide every pair.
    The root comes from the kernel's ``spectrum``, which ``build_T`` certifies.

    Raises
    ------
    AbsoluteContinuityError, NotPositiveError
        Propagated from ``build_T``.
    VerificationError
        If the singleton-pair reconstruction residual exceeds
        ``tol * max|Q|`` or is not a number.
    """
    build_T(kernel)
    S = psd_sqrt(kernel.spectrum)
    # <S chi_x, S chi_y> = (S^T D S)[x, y] must equal K({x},{y}) = Q[x, y].
    residual = float(np.abs(S.T @ (kernel.space.weight_array[:, None] * S) - kernel.Q).max())
    require(residual, kernel.scale, tol, VerificationError,
            "factorization failed verification: singleton residual", "max|Q|")
    return Factorization(kernel=kernel, S=S, residual=residual)


def reverse_direction(
    factorization: Factorization, sets: Sequence[MeasurableSet] | None = None, *, tol: float = 1e-9
) -> DensityReport:
    """Recover the kernel's densities from the root and cross-check them.

    For each probe set ``B`` (by default the singletons and the full set) the
    root gives ``S k_B = S S chi_B``, which must agree with the kernel's
    density ``T chi_B``, ``K({x}, B) / w(x)`` on positive atoms and zero on
    null atoms.  The kernel must first pass ``check_absolute_continuity``:
    without it the densities do not exist.

    Raises
    ------
    AbsoluteContinuityError
        If the kernel charges a null atom by more than ``1e-10 * max|Q|``.
    InconsistencyError
        If any probe residual exceeds ``tol * max|T chi_B|``, the largest
        density over the probes.
    """
    kernel = factorization.kernel
    _require_absolute_continuity(kernel)
    space = kernel.space
    if sets is None:
        sets = [*space.singletons(), space.full_set()]
    sets = list(sets)
    densities = kernel.T @ space.indicator_matrix(sets).T
    worst = float(np.abs(factorization.S @ factorization.k_rows(sets).T - densities).max(initial=0.0))
    scale = float(np.abs(densities).max(initial=0.0))
    require(worst, scale, tol, InconsistencyError,
            "the root's densities S k_B disagree with the kernel's T chi_B:", "max|T chi_B|")
    return DensityReport(max_residual=worst, scale=scale)


@dataclass(frozen=True, eq=False)
class RkhsElement:
    """Finite combination ``F = sum_i alpha_i K(., A_i)`` in the kernel's space."""

    terms: tuple[tuple[float, MeasurableSet], ...]

    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=float)

    def sets(self) -> tuple[MeasurableSet, ...]:
        return tuple(s for _, s in self.terms)

    def norm_squared(self, kernel: SetKernel) -> float:
        """Reproducing-space norm squared, the Gram quadratic form."""
        if not self.terms:
            return 0.0
        alpha = self.coefficients()
        G = gram(kernel, self.sets()).entries
        return float(alpha @ G @ alpha)


def isometry_b_batch(factorization: Factorization, alpha: np.ndarray, sets: Sequence[MeasurableSet]) -> np.ndarray:
    """Images under ``b`` of the elements ``sum_i alpha[r, i] K(., sets[i])``, one per row of ``alpha``.

    ``b`` sends ``K(., A)`` to ``k_A`` and extends linearly, so the images are
    the rows of ``alpha @ (C S^T)``, each with its element's norm in weighted L2.
    """
    return np.asarray(alpha, dtype=float) @ factorization.k_rows(sets)


def isometry_b(factorization: Factorization, element: RkhsElement) -> np.ndarray:
    """Image of one element under the isometry into weighted L2 (see ``isometry_b_batch``)."""
    return isometry_b_batch(factorization, element.coefficients()[None], element.sets())[0]


def coisometry_b_star_batch(factorization: Factorization, phi: np.ndarray, sets: Sequence[MeasurableSet]) -> np.ndarray:
    """Adjoint images ``(b* phi)(A) = <phi, k_A>``: ``(phi w) @ (C S^T)^T``, one row per row of ``phi``.

    A ``phi`` that is not a matrix with one column per atom raises ``DomainError``.
    """
    phi = np.asarray(phi, dtype=float)
    space = factorization.space
    if phi.ndim != 2 or phi.shape[1] != space.size:
        raise DomainError("atom vectors must match the space size")
    return (phi * space.weight_array) @ factorization.k_rows(sets).T



def _check_onb(space: MeasureSpace, basis: Sequence[np.ndarray], tol: float) -> np.ndarray:
    if len(basis) == 0:
        raise InvalidBasisError("empty basis")
    if tol * len(basis) >= 1:
        raise InvalidBasisError(f"tolerance {tol:g} cannot certify {len(basis)} vectors as orthonormal")
    B = np.asarray([np.asarray(v, dtype=float) for v in basis])
    if B.shape[1] != space.size:
        raise InvalidBasisError("basis vectors must match the space size")
    w = space.weight_array
    G = B @ (w[:, None] * B.T)
    if float(np.abs(G - np.eye(len(basis))).max()) > tol:
        raise InvalidBasisError("family is not orthonormal in the weighted pairing")
    # G is the Gram of the rows of B D^{1/2}, within tol of I; as tol * len(basis) < 1 it is
    # nonsingular (Gershgorin), so the rows span the positive atoms iff there are that many.
    if len(basis) < int(space.positive.sum()):
        raise InvalidBasisError("basis does not span the positive-weight atoms")
    return B


def onb_factorization(
    factorization: Factorization,
    basis: Sequence[np.ndarray],
    A: MeasurableSet,
    B: MeasurableSet,
    *,
    tol: float = 1e-10,
) -> float:
    """Parseval expansion of ``K(A, B)`` through an orthonormal basis.

    Returns ``sum_n <phi_n, k_A> <k_B, phi_n>`` in the weighted pairing; for
    any complete orthonormal basis this equals ``K(A, B)``, independently of
    the basis chosen.

    Raises
    ------
    InvalidBasisError
        If the family is not orthonormal within ``tol``, does not span the
        positive-weight atoms, or ``tol * len(basis) >= 1``, too loose to
        make orthonormal vectors independent.
    """
    return float(onb_gram(factorization, basis, [A, B], tol=tol)[0, 1])


def onb_gram(
    factorization: Factorization,
    basis: Sequence[np.ndarray],
    sets: Sequence[MeasurableSet],
    *,
    tol: float = 1e-10,
) -> np.ndarray:
    """Parseval expansions of ``K(A, B)`` for every pair of ``sets`` at once.

    The basis is validated once (see ``onb_factorization``); the rows of
    ``C S^T`` are the ``k_A``, their basis coefficients are
    ``<phi_n, k_A>``, and the result is the product of the coefficient
    matrix with its transpose.
    """
    Bmat = _check_onb(factorization.space, basis, tol)
    coef = coisometry_b_star_batch(factorization, Bmat, sets).T
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


def verify_pushforward(
    source: MeasureSpace, target: MeasureSpace, mapping: Mapping[int, int] | Sequence[int], *, tol: float = 1e-12
) -> bool:
    """Check that an atom map transports the source weights onto the target.

    ``mapping`` sends every source atom index to a target atom index; the
    check passes iff the pushed mass and the target weights have the same null
    atoms and, on each target atom, agree within ``tol * max w``.

    Raises
    ------
    InvalidMapError
        If some source atom is unmapped or a target index is out of range.
    """
    images = [mapping.get(i) for i in range(source.size)] if isinstance(mapping, Mapping) else list(mapping)
    pushed = np.zeros(target.size)
    for i in range(source.size):
        y = images[i] if i < len(images) else None
        if y is None:
            raise InvalidMapError(f"source atom {source.atoms[i]!r} is unmapped")
        y = int(y)
        if not 0 <= y < target.size:
            raise InvalidMapError(f"target index {y} out of range for {source.atoms[i]!r}")
        pushed[y] += source.weights[i]
    w = target.weight_array
    return np.array_equal(pushed > 0, w > 0) and judge(float(np.abs(pushed - w).max()), float(w.max()), tol).passed


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
