"""Finite weighted measure spaces, their sets, simple functions, and partitions.

The ground set is a finite ordered list of named atoms with nonnegative
weights.  A weight of zero is allowed and models a null atom, which is the
device used throughout the package to exercise absolute-continuity arguments.
All inner products are taken in the weighted L2 geometry induced by the atom
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidSetError

__all__ = [
    "MeasureSpace",
    "MeasurableSet",
    "SimpleFunction",
    "Partition",
    "is_partition",
    "is_refinement",
]


@dataclass(frozen=True)
class MeasurableSet:
    """A measurable set, stored as atom indices into some measure space.

    Sets are plain value types: they do not hold a reference to their space,
    and two sets with equal index content compare equal.
    """

    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if any(i < 0 for i in self.members):
            raise InvalidSetError("atom indices must be nonnegative")

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __and__(self, other: "MeasurableSet") -> "MeasurableSet":
        return MeasurableSet(self.members & other.members)

    def __or__(self, other: "MeasurableSet") -> "MeasurableSet":
        return MeasurableSet(self.members | other.members)

    def __sub__(self, other: "MeasurableSet") -> "MeasurableSet":
        return MeasurableSet(self.members - other.members)

    def __le__(self, other: "MeasurableSet") -> bool:
        return self.members <= other.members

    @property
    def indices(self) -> list[int]:
        return sorted(self.members)

    def __repr__(self) -> str:
        return f"MeasurableSet({self.indices})"


@dataclass(frozen=True)
class MeasureSpace:
    """Finite measure space: named atoms with nonnegative weights.

    Parameters
    ----------
    atoms
        Unique atom identifiers, in a fixed order that defines atom indices.
    weights
        One nonnegative weight per atom (the measure of the singleton).
        At least one weight must be strictly positive.
    """

    atoms: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(str(a) for a in self.atoms))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.atoms) != len(self.weights):
            raise DomainError("need exactly one weight per atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise DomainError("atom identifiers must be unique")
        if not self.atoms:
            raise DomainError("a measure space needs at least one atom")
        for w in self.weights:
            if not math.isfinite(w) or w < 0:
                raise DomainError(f"weights must be finite and nonnegative, got {w}")
        if not any(w > 0 for w in self.weights):
            raise DomainError("at least one atom must carry positive weight")

    @property
    def size(self) -> int:
        return len(self.atoms)

    @cached_property
    def weight_array(self) -> np.ndarray:
        arr = np.asarray(self.weights, dtype=float)
        arr.setflags(write=False)
        return arr

    @cached_property
    def positive(self) -> np.ndarray:
        """Boolean mask of atoms with strictly positive weight."""
        mask = self.weight_array > 0
        mask.setflags(write=False)
        return mask

    def index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise InvalidSetError(f"unknown atom {atom!r}") from None

    def subset(self, *atoms: str) -> MeasurableSet:
        """Build a set from atom names."""
        return MeasurableSet(frozenset(self.index(a) for a in atoms))

    def singleton(self, index: int) -> MeasurableSet:
        self.validate_set(MeasurableSet(frozenset({index})))
        return MeasurableSet(frozenset({index}))

    def singletons(self) -> tuple[MeasurableSet, ...]:
        return tuple(MeasurableSet(frozenset({i})) for i in range(self.size))

    def full_set(self) -> MeasurableSet:
        return MeasurableSet(frozenset(range(self.size)))

    def validate_set(self, A: MeasurableSet) -> None:
        if A.members and max(A.members) >= self.size:
            raise InvalidSetError(
                f"set references atom index {max(A.members)} in a space of size {self.size}"
            )

    def measure(self, A: MeasurableSet) -> float:
        """Total weight of ``A``; additive over disjoint unions."""
        self.validate_set(A)
        if not A.members:
            return 0.0
        return float(self.weight_array[A.indices].sum())

    def indicator(self, A: MeasurableSet) -> np.ndarray:
        """Indicator of ``A`` as an atom vector."""
        self.validate_set(A)
        chi = np.zeros(self.size)
        chi[A.indices] = 1.0
        return chi

    def indicator_matrix(self, sets: Sequence[MeasurableSet]) -> np.ndarray:
        """Indicators of ``sets`` as the rows of a ``(len(sets), size)`` matrix."""
        C = np.zeros((len(sets), self.size))
        for r, A in enumerate(sets):
            self.validate_set(A)
            C[r, A.indices] = 1.0
        return C

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Weighted L2 inner product of two atom vectors."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (self.size,) or v.shape != (self.size,):
            raise DomainError("atom vectors must match the space size")
        return float(np.sum(self.weight_array * u * v))

    def norm_squared(self, u: np.ndarray) -> float:
        return self.inner(u, u)


@dataclass(frozen=True, eq=False)
class SimpleFunction:
    """Finite linear combination of set indicators."""

    terms: tuple[tuple[float, MeasurableSet], ...]

    def values(self, size: int) -> np.ndarray:
        """Pointwise values over ``size`` atoms."""
        if any(s.members and max(s.members) >= size for _, s in self.terms):
            raise InvalidSetError("simple function references atoms beyond the space")
        vals = np.zeros(size)
        for coef, s in self.terms:
            vals[s.indices] += coef
        return vals

    def sets(self) -> tuple[MeasurableSet, ...]:
        """Distinct sets appearing in the terms, in first-occurrence order."""
        return tuple(dict.fromkeys(s for _, s in self.terms))


@dataclass(frozen=True)
class Partition:
    """An ordered list of blocks intended to partition the ground set."""

    blocks: tuple[MeasurableSet, ...]

    def covered(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for b in self.blocks:
            out |= b.members
        return out


def is_partition(space: MeasureSpace, blocks: Sequence[MeasurableSet]) -> bool:
    """True iff the blocks are nonempty, pairwise disjoint, and cover all atoms."""
    seen: set[int] = set()
    for b in blocks:
        if not b.members:
            return False
        if max(b.members) >= space.size:
            return False
        if seen & b.members:
            return False
        seen |= b.members
    return seen == set(range(space.size))


def is_refinement(coarse: Partition, fine: Partition) -> bool:
    """True iff every block of ``fine`` lies inside some block of ``coarse``.

    Both partitions must cover the same atoms; otherwise they belong to
    different spaces and a ``DomainError`` is raised.
    """
    if coarse.covered() != fine.covered():
        raise DomainError("partitions do not cover the same atoms")
    for fb in fine.blocks:
        if not any(fb <= cb for cb in coarse.blocks):
            return False
    return True

