"""Finite posets on integer indices 0..m-1, with bitset-backed relations.

Subsets of a poset are plain Python ints used as bitsets (bit i set means
element i is in the subset).  The order relation is stored as per-element
predecessor masks: ``below[i]`` has bit j set iff j <= i.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class OrderViolation(ValueError):
    """The supplied relation is not a partial order."""


class MissingExtremum(ValueError):
    """The poset lacks the bottom or top element the operation needs."""


class CapExceeded(RuntimeError):
    """An enumeration exceeded its configured cap."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Immutable finite poset.

    Construct via :meth:`from_leq` (full relation, validated) or
    :meth:`from_pairs` (arbitrary relation pairs, transitively closed and
    then validated).  Antisymmetry or reflexivity violations raise
    :class:`OrderViolation`.
    """

    __slots__ = ("m", "below", "above", "full")

    def __init__(self, below: list[int], *, _closed: bool = False):
        self.m = len(below)
        self.below = list(below)
        self.full = (1 << self.m) - 1
        if not _closed:
            self._close()
        self._validate()
        above = [0] * self.m
        for i, mask in enumerate(self.below):
            for j in bits(mask):
                above[j] |= 1 << i
        self.above = above

    @classmethod
    def from_leq(cls, below: list[int]) -> "Poset":
        """Poset from a full (already transitive) predecessor-mask list."""
        return cls(below, _closed=True)

    @classmethod
    def by_inclusion(cls, masks: Sequence[int]) -> "Poset":
        """Distinct bitmasks ordered by inclusion: i <= j iff masks[i] is a
        subset of masks[j]."""
        return cls.from_leq([sum(1 << j for j, b in enumerate(masks)
                                 if not b & ~a) for a in masks])

    @classmethod
    def from_pairs(cls, m: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Poset from relation pairs (a, b) meaning a <= b.

        The relation is made reflexive and transitively closed, so callers
        may supply just the cover relation.
        """
        below = [1 << i for i in range(m)]
        for a, b in pairs:
            if not (0 <= a < m and 0 <= b < m):
                raise IndexError(f"pair ({a}, {b}) out of range for size {m}")
            below[b] |= 1 << a
        return cls(below)

    def _close(self) -> None:
        changed = True
        while changed:
            changed = False
            for i in range(self.m):
                acc = self.below[i]
                for j in bits(acc & ~(1 << i)):
                    acc |= self.below[j]
                if acc != self.below[i]:
                    self.below[i] = acc
                    changed = True

    def _validate(self) -> None:
        for i, mask in enumerate(self.below):
            if mask >> self.m:
                raise IndexError(f"relation mask of {i} exceeds poset size")
            if not (mask >> i) & 1:
                raise OrderViolation(f"relation is not reflexive at {i}")
            for j in bits(mask & ~(1 << i)):
                if (self.below[j] >> i) & 1:
                    raise OrderViolation(f"antisymmetry fails on {{{j}, {i}}}")
                if self.below[j] & ~mask:
                    raise OrderViolation(f"transitivity fails below {i} via {j}")

    def _check_index(self, a: int) -> None:
        if not (0 <= a < self.m):
            raise IndexError(f"element {a} out of range for size {self.m}")

    def _check_subset(self, q: int) -> None:
        if q < 0 or q >> self.m:
            raise IndexError("subset mask has bits outside the poset")

    def leq(self, a: int, b: int) -> bool:
        """True iff a <= b."""
        self._check_index(a)
        self._check_index(b)
        return bool((self.below[b] >> a) & 1)

    def down_closure(self, q: int) -> int:
        """All elements below some element of q (contains q, down-closed)."""
        self._check_subset(q)
        out = 0
        for y in bits(q):
            out |= self.below[y]
        return out

    def up_closure(self, q: int) -> int:
        """All elements above some element of q."""
        self._check_subset(q)
        out = 0
        for y in bits(q):
            out |= self.above[y]
        return out

    def is_down_closed(self, q: int) -> bool:
        return self.down_closure(q) == q

    def is_up_closed(self, q: int) -> bool:
        return self.up_closure(q) == q

    def minimal(self, q: int) -> int:
        """Elements of q with no strictly smaller element inside q."""
        self._check_subset(q)
        out = 0
        for x in bits(q):
            if self.below[x] & q == 1 << x:
                out |= 1 << x
        return out

    def maximal(self, q: int) -> int:
        """Elements of q with no strictly larger element inside q."""
        self._check_subset(q)
        out = 0
        for x in bits(q):
            if self.above[x] & q == 1 << x:
                out |= 1 << x
        return out

    def meet(self, a: int, b: int) -> int | None:
        """Greatest lower bound of a and b, or None if it does not exist."""
        self._check_index(a)
        self._check_index(b)
        lower = self.below[a] & self.below[b]
        if not lower:
            return None
        top = self.maximal(lower)
        if top.bit_count() != 1:
            return None
        g = top.bit_length() - 1
        if lower & ~self.below[g]:
            return None
        return g

    def join(self, a: int, b: int) -> int | None:
        """Least upper bound of a and b, or None if it does not exist."""
        self._check_index(a)
        self._check_index(b)
        upper = self.above[a] & self.above[b]
        if not upper:
            return None
        bot = self.minimal(upper)
        if bot.bit_count() != 1:
            return None
        g = bot.bit_length() - 1
        if upper & ~self.above[g]:
            return None
        return g

    def bottom(self) -> int | None:
        b = self.minimal(self.full)
        if b.bit_count() == 1:
            return b.bit_length() - 1
        return None

    def top(self) -> int | None:
        t = self.maximal(self.full)
        if t.bit_count() == 1:
            return t.bit_length() - 1
        return None

    def atoms(self) -> int:
        """Elements covering the bottom element only."""
        b = self.bottom()
        if b is None:
            raise MissingExtremum("poset has no bottom element")
        out = 0
        for x in range(self.m):
            if x != b and self.below[x] == (1 << b) | (1 << x):
                out |= 1 << x
        return out

    def coatoms(self) -> int:
        """Elements covered by the top element only."""
        t = self.top()
        if t is None:
            raise MissingExtremum("poset has no top element")
        out = 0
        for x in range(self.m):
            if x != t and self.above[x] == (1 << t) | (1 << x):
                out |= 1 << x
        return out

    def linear_extension(self) -> list[int]:
        """A fixed linear extension: by size of the lower set, index-tied."""
        return sorted(range(self.m), key=lambda i: (self.below[i].bit_count(), i))

    def downsets(self, include_empty: bool = False) -> Iterator[int]:
        """Stream all down-sets, in a deterministic order."""
        for q, *_ in self._closed_sets(self.below, self.linear_extension(),
                                       include_empty):
            yield q

    def upsets(self, include_empty: bool = False) -> Iterator[int]:
        """Stream all up-sets; the dual of :meth:`downsets`.

        The order is lexicographic over membership of the elements taken in
        :meth:`upset_order`, absent before present.
        """
        for q, *_ in self._closed_sets(self.above, self.upset_order(),
                                       include_empty):
            yield q

    def weighted_upsets(self, weights: Sequence[int],
                        top: int) -> Iterator[tuple[int, int, int, int]]:
        """The nonempty up-sets U in :meth:`upsets` order, each as
        ``(U, minimal(U), meet, join)``: ``meet`` is ``top`` ANDed with
        ``weights[e]`` for every e in U, and ``join`` the OR of
        ``weights[e]`` for every e outside U."""
        return self._closed_sets(self.above, self.upset_order(), False,
                                 weights, top)

    def upset_order(self) -> list[int]:
        """The element order of :meth:`upsets`: by size of the upper set,
        index-tied."""
        return sorted(range(self.m), key=lambda i: (self.above[i].bit_count(), i))

    def _closed_sets(self, rel: list[int], order: list[int],
                     include_empty: bool, weights: Sequence[int] | None = None,
                     top: int = 0) -> Iterator[tuple[int, int, int, int]]:
        """The one walk over the sets closed under ``rel`` (``rel[e]`` is
        what e forces in), as ``(members, extremal, meet, join)``.

        ``extremal`` holds the members no other member forces in, ``meet``
        is ``top`` ANDed with the members' weights and ``join`` the OR of
        the non-members' weights.  Each value is updated by one operation
        per step, so a set costs O(1) big-int operations however large.
        """
        if weights is None:
            weights = [0] * self.m
        strict = {e: rel[e] & ~(1 << e) for e in order}
        # Depth-first over the linear extension; at each element the
        # exclude-branch precedes the include-branch.  The element taken in
        # is extremal in the set: what it forces in was taken before it.
        last = len(order)
        stack = [(0, 0, 0, top, 0)]
        while stack:
            t, acc, ext, meet, join = stack.pop()
            if t == last:
                if acc or include_empty:
                    yield acc, ext, meet, join
                continue
            e = order[t]
            s = strict[e]
            if s & acc == s:
                bit = 1 << e
                stack.append((t + 1, acc | bit, ext & ~s | bit,
                              meet & weights[e], join))
            stack.append((t + 1, acc, ext, meet, join | weights[e]))

    def is_chain(self, q: int) -> bool:
        """True iff every pair of elements of q is comparable."""
        self._check_subset(q)
        for x in bits(q):
            if q & ~(self.below[x] | self.above[x]):
                return False
        return True

    def is_antichain(self, q: int) -> bool:
        """True iff no two distinct elements of q are comparable."""
        self._check_subset(q)
        for x in bits(q):
            if (self.below[x] | self.above[x]) & q & ~(1 << x):
                return False
        return True

    def covers(self) -> list[tuple[int, int]]:
        """The covering pairs (i, j) with j covering i, sorted."""
        out = []
        for j in range(self.m):
            strict = self.below[j] & ~(1 << j)
            for i in bits(strict):
                between = strict & self.above[i] & ~(1 << i)
                if not between:
                    out.append((i, j))
        out.sort()
        return out

    def dual(self) -> "Poset":
        return Poset.from_leq(list(self.above))

    def __len__(self) -> int:
        return self.m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self.below == other.below

    def __hash__(self) -> int:
        return hash(tuple(self.below))
