"""Totally ordered abelian groups realized as Z^n, and degree multisets.

All degrees in this package live in Z^n under the lexicographic order, which
is total and compatible with addition.  The zero element of a filtered
space has no degree.

The group is written additively.  Degree multisets carry the symmetry
obstruction used to refute Frobenius extensions: the multiset D of basis
degrees of a graded Frobenius extension must satisfy mult(e) == mult(d - e)
for a shift d, and boundedness forces d = min(D) + max(D) to be the only
candidate.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from .errors import DimensionMismatch, DomainError


class GroupElement:
    """An element of Z^n compared lexicographically.

    Instances are immutable value objects; all arithmetic returns new
    elements.  Comparisons require equal lengths.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int]):
        object.__setattr__(self, "coords", tuple(int(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __len__(self) -> int:
        return len(self.coords)

    def _check(self, other: "GroupElement") -> None:
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {type(other).__name__}")
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(
                f"length mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other):
        self._check(other)
        return GroupElement(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return GroupElement(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return GroupElement(-a for a in self.coords)

    def __mul__(self, k: int):
        return GroupElement(k * a for a in self.coords)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        self._check(other)
        return self.coords < other.coords

    def __le__(self, other):
        self._check(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        self._check(other)
        return self.coords > other.coords

    def __ge__(self, other):
        self._check(other)
        return self.coords >= other.coords

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def in_positive_cone(g: GroupElement) -> bool:
    """True iff g >= 0 in the lexicographic order.

    Equivalently, g is zero or its first nonzero coordinate is positive.
    """
    for c in g.coords:
        if c > 0:
            return True
        if c < 0:
            return False
    return True


class DegreeMultiset:
    """A finite multiset of group elements with positive multiplicities."""

    __slots__ = ("entries",)

    def __init__(self, degrees: Iterable[GroupElement] = ()):
        counter: Counter = Counter()
        for d in degrees:
            if not isinstance(d, GroupElement):
                raise TypeError("DegreeMultiset holds GroupElement values")
            counter[d] += 1
        self.entries = dict(counter)

    @classmethod
    def from_counts(cls, counts: dict) -> "DegreeMultiset":
        ms = cls()
        for d, m in counts.items():
            if m <= 0:
                raise DomainError("multiplicities must be positive")
            ms.entries[d] = int(m)
        return ms

    def multiplicity(self, d: GroupElement) -> int:
        return self.entries.get(d, 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def __len__(self) -> int:
        return self.total()

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other):
        return isinstance(other, DegreeMultiset) and self.entries == other.entries

    def min(self) -> GroupElement:
        return min(self.entries)

    def max(self) -> GroupElement:
        return max(self.entries)

    def __repr__(self):
        parts = [f"{g}^{m}" for g, m in sorted(self.entries.items())]
        return "{" + ", ".join(parts) + "}"


def multiset_symmetry_witness(ms: DegreeMultiset) -> Optional[GroupElement]:
    """Return the shift d with mult(e) == mult(d - e) for all e, or None.

    Evaluating the symmetry at min(D) and max(D) forces
    min(D) + max(D) <= d <= min(D) + max(D), so that sum is the only
    candidate; boundedness of D is what makes the witness unique.
    """
    if not ms:
        raise DomainError("symmetry witness of an empty multiset")
    d = ms.min() + ms.max()
    for e, m in ms.entries.items():
        if ms.multiplicity(d - e) != m:
            return None
    return d
