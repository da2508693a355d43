"""Finite weighted measure spaces, their sets, simple functions, and partitions.

The ground set is a finite ordered list of named atoms with nonnegative
weights.  A weight of zero is allowed and models a null atom, which is the
device used throughout the package to exercise absolute-continuity arguments.
All inner products are taken in the weighted L2 geometry induced by the atom
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidSetError
from .linalg import echo, require_in_domain, require_integer

__all__ = [
    "MeasureSpace",
    "MeasurableSet",
    "SimpleFunction",
    "Partition",
    "is_partition",
    "is_refinement",
]

_INDEX_BITS = np.iinfo(np.intp).bits - 1  # index_array holds each member as an np.intp, which no space outgrows


@dataclass(frozen=True)
class MeasurableSet:
    """A measurable set, stored as atom indices into some measure space.

    Sets are plain value types: they do not hold a reference to their space,
    and two sets with equal index content compare equal.  ``index_array``
    holds the members sorted, as a read-only ``np.intp`` array built on
    first use, for gathers and the range check.
    """

    members: frozenset[int]

    def __post_init__(self):  # int() would make 0.5 or "2" another atom
        object.__setattr__(self, "members", frozenset(
            require_integer(i, "atom index", InvalidSetError, bits=_INDEX_BITS) for i in self.members))

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

    @cached_property
    def index_array(self) -> np.ndarray:
        arr = np.fromiter(self.members, dtype=np.intp, count=len(self.members))
        arr.sort()
        arr.setflags(write=False)
        return arr

    def __repr__(self) -> str:
        return f"MeasurableSet({self.indices})"


def _require_in_range(A: MeasurableSet, size: int) -> None:
    """The one range rule for sets: every member of ``A`` indexes an atom of a space of ``size`` atoms."""
    if A.members and A.index_array[-1] >= size:
        raise InvalidSetError(f"set references atom index {A.index_array[-1]} in a space of size {size}")


@dataclass(frozen=True)
class MeasureSpace:
    """Finite measure space: named atoms with nonnegative weights.

    Parameters
    ----------
    atoms
        Unique atom identifiers, in a fixed order that defines atom indices.
    weights
        One weight per atom (the measure of the singleton), zero or in the
        float domain ``[2^-b, 2^b]``.  At least one must be positive.
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
        require_in_domain(self.weight_array, lambda i: f"weight of atom {echo(self.atoms[i])}", DomainError, nonnegative=True)
        if not self.positive.any():
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
            raise InvalidSetError(f"unknown atom {echo(atom)}") from None

    def subset(self, *atoms: str) -> MeasurableSet:
        """Build a set from atom names."""
        return MeasurableSet(frozenset(self.index(a) for a in atoms))

    def singletons(self) -> tuple[MeasurableSet, ...]:
        return tuple(MeasurableSet(frozenset({i})) for i in range(self.size))

    def full_set(self) -> MeasurableSet:
        return MeasurableSet(frozenset(range(self.size)))

    def validate_set(self, A: MeasurableSet) -> None:
        _require_in_range(A, self.size)

    def measure(self, A: MeasurableSet) -> float:
        """Total weight of ``A``, ``indicator(A) @ w``; additive over disjoint unions."""
        return float(self.indicator(A) @ self.weight_array)

    def indicator(self, A: MeasurableSet) -> np.ndarray:
        """Indicator of ``A`` as an atom vector."""
        self.validate_set(A)
        return np.bincount(list(A.members), minlength=self.size).astype(float)

    def indicator_matrix(self, sets: Sequence[MeasurableSet]) -> np.ndarray:
        """Indicators of ``sets`` as matrix rows, set in one assignment; ``validate_set`` names the first set out of range."""
        members = [A.members for A in sets]
        sizes = list(map(len, members))
        cols = np.fromiter(chain.from_iterable(members), dtype=np.intp, count=sum(sizes))
        if cols.size and cols.max() >= self.size:
            for A in sets:
                self.validate_set(A)
        C = np.zeros((len(members), self.size))
        C[np.arange(len(members)).repeat(sizes), cols] = 1.0
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
    """Finite linear combination of set indicators; a coefficient outside the float domain raises ``DomainError``."""

    terms: tuple[tuple[float, MeasurableSet], ...]

    def __post_init__(self):
        require_in_domain([c for c, _ in self.terms], lambda i: f"term {i} coefficient", DomainError)

    def values(self, size: int) -> np.ndarray:
        """Pointwise values over ``size`` atoms; a set out of that range raises as ``MeasureSpace.validate_set`` does."""
        vals = np.zeros(size)
        for coef, s in self.terms:
            _require_in_range(s, size)
            vals[s.index_array] += coef
        return vals

    def sets(self) -> tuple[MeasurableSet, ...]:
        """Distinct sets appearing in the terms, in first-occurrence order."""
        return tuple(dict.fromkeys(s for _, s in self.terms))


@dataclass(frozen=True)
class Partition:
    """An ordered list of blocks intended to partition the ground set."""

    blocks: tuple[MeasurableSet, ...]


def is_partition(space: MeasureSpace, blocks: Sequence[MeasurableSet]) -> bool:
    """True iff the blocks are nonempty, in range, pairwise disjoint and cover all atoms: each indicator column sums to 1."""
    if not all(b.members and max(b.members) < space.size for b in blocks):
        return False
    return bool((space.indicator_matrix(blocks).sum(axis=0) == 1.0).all())


def is_refinement(coarse: Partition, fine: Partition) -> bool:
    """True iff every block of ``fine`` lies inside some block of ``coarse``.

    Both partitions must cover the same atoms; otherwise they belong to
    different spaces and a ``DomainError`` is raised.
    """
    if set().union(*(b.members for b in coarse.blocks)) != set().union(*(b.members for b in fine.blocks)):
        raise DomainError("partitions do not cover the same atoms")
    for fb in fine.blocks:
        if not any(fb <= cb for cb in coarse.blocks):
            return False
    return True

