"""Set partitions of {1..n} and the refinement lattice over them.

Elementary subsystems are labelled 1..n in all I/O and 0..n-1 internally.
A partition block is an int bitmask over the internal labels; a partition
is the tuple of its blocks, sorted by least member.  Displayed form is the
bar notation "12|3"; parsing also accepts "{{1,2},{3}}".
"""

from __future__ import annotations

import re
import string
from typing import Iterable, Iterator

from .poset import Poset, bits

# What holds n at 8 is `verify`'s principal_ideal_meets, quadratic in the
# partitions: 8.6M pairs at n = 8, about 224M at n = 9.  The n = 9 pipeline
# has not been measured.
MAX_N = 8

_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def bell_number(n: int) -> int:
    """Bell numbers via the triangle recurrence (independent of enumeration)."""
    if n < len(_BELL):
        return _BELL[n]
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


class Partition:
    """A set partition of {1..n}, canonical and immutable."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks: Iterable[int]):
        blocks = tuple(sorted(blocks, key=lambda b: b & -b))
        seen = 0
        for b in blocks:
            if b <= 0:
                raise ValueError("empty or negative block")
            if b & seen:
                raise ValueError("blocks are not disjoint")
            seen |= b
        if seen != (1 << n) - 1:
            raise ValueError(f"blocks do not cover 1..{n}")
        self.n = n
        self.blocks = blocks
        self._hash = hash((n, blocks))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "Partition":
        """From blocks given as iterables of 1-based labels."""
        masks = []
        for s in sets:
            mask = 0
            for lab in s:
                if not 1 <= lab <= n:
                    raise ValueError(f"label {lab} outside 1..{n}")
                mask |= 1 << (lab - 1)
            masks.append(mask)
        return cls(n, masks)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Partition":
        """Parse "12|3" or "{{1,2},{3}}"; n defaults to the label count."""
        text = text.strip()
        if text.startswith("{"):
            groups = re.findall(r"\{([\d\s,]+)\}", text)
            sets = [[int(t) for t in re.split(r"[,\s]+", g.strip())]
                    for g in groups]
        else:
            sets = [[int(ch) for ch in part.strip()]
                    for part in text.split("|")]
        labels = [lab for s in sets for lab in s]
        if not labels:
            raise ValueError(f"cannot parse partition from {text!r}")
        if n is None:
            n = max(labels)
        return cls.from_sets(n, sets)

    @classmethod
    def bottom(cls, n: int) -> "Partition":
        return cls(n, (1 << i for i in range(n)))

    @classmethod
    def top(cls, n: int) -> "Partition":
        return cls(n, ((1 << n) - 1,))

    @property
    def parts_count(self) -> int:
        return len(self.blocks)

    @property
    def max_part_size(self) -> int:
        return max(b.bit_count() for b in self.blocks)

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        self._check_same(other)
        for y in self.blocks:
            if not any(y & ~x == 0 for x in other.blocks):
                return False
        return True

    def meet(self, other: "Partition") -> "Partition":
        """Blockwise intersection: the coarsest common refinement."""
        self._check_same(other)
        out = [x & y for x in self.blocks for y in other.blocks if x & y]
        return Partition(self.n, out)

    def join(self, other: "Partition") -> "Partition":
        """Connected components of the overlap graph of all blocks."""
        self._check_same(other)
        parent = list(range(self.n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for block in self.blocks + other.blocks:
            root = None
            for i in bits(block):
                if root is None:
                    root = find(i)
                else:
                    parent[find(i)] = root
        groups: dict[int, int] = {}
        for i in range(self.n):
            groups[find(i)] = groups.get(find(i), 0) | (1 << i)
        return Partition(self.n, groups.values())

    def shape(self) -> tuple[int, ...]:
        """Block sizes, descending; partitions of equal shape form an orbit."""
        return tuple(sorted((b.bit_count() for b in self.blocks), reverse=True))

    def _check_same(self, other: "Partition") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __str__(self) -> str:
        return "|".join("".join(str(i + 1) for i in bits(b))
                        for b in self.blocks)

    def __repr__(self) -> str:
        return f"Partition({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Partition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return self._hash


def shape_string(shape: tuple[int, ...]) -> str:
    """Orbit-collapsed display of a shape, e.g. (2, 1, 1) -> "ab|c|d"."""
    letters = iter(string.ascii_lowercase)
    return "|".join("".join(next(letters) for _ in range(size))
                    for size in shape)


def state_shape(shape: tuple[int, ...]) -> str:
    """State-shape display of a shape, e.g. (2, 1) -> "ρ_ab⊗ρ_c"."""
    letters = iter(string.ascii_lowercase)
    return "⊗".join("ρ_" + "".join(next(letters) for _ in range(size))
                    for size in shape)


def _restricted_growth(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length n, lexicographically."""
    a = [0] * n

    def rec(i: int, peak: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(a)
            return
        for v in range(peak + 2):
            a[i] = v
            yield from rec(i + 1, max(peak, v))

    yield from rec(1, 0) if n > 1 else iter([(0,) * n])


def all_partitions(n: int) -> Iterator[Partition]:
    """All set partitions of {1..n}, in restricted-growth order."""
    for rgs in _restricted_growth(n):
        nblocks = max(rgs) + 1
        masks = [0] * nblocks
        for i, v in enumerate(rgs):
            masks[v] |= 1 << i
        yield Partition(n, masks)


def _pair_mask(blocks: Iterable[int]) -> int:
    """The label pairs sharing a block: bit b(b-1)/2 + a for a < b."""
    mask = 0
    for block in blocks:
        members = list(bits(block))
        for x, b in enumerate(members):
            for a in members[:x]:
                mask |= 1 << (b * (b - 1) // 2 + a)
    return mask


class PartitionLattice:
    """All partitions of fixed n, indexed, with the refinement order.

    ``pairs[i]`` holds the label pairs sharing a block of partition i, and
    ζ refines ξ iff the pairs of ζ are among those of ξ, so the order is
    inclusion of pair masks (:meth:`Poset.by_inclusion`).  The blockwise
    meet joins exactly the pairs both partitions join, so ``meet_index`` is
    a lookup on ``pairs[i] & pairs[j]``.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
        self.n = n
        self.partitions: tuple[Partition, ...] = tuple(all_partitions(n))
        self.index: dict[Partition, int] = {
            p: i for i, p in enumerate(self.partitions)}
        self.pairs: tuple[int, ...] = tuple(
            _pair_mask(p.blocks) for p in self.partitions)
        self._by_pairs = {mask: i for i, mask in enumerate(self.pairs)}
        self.poset = Poset.by_inclusion(self.pairs)
        self.bottom_index = self.index[Partition.bottom(n)]
        self.top_index = self.index[Partition.top(n)]

    def __len__(self) -> int:
        return len(self.partitions)

    @property
    def full_mask(self) -> int:
        return self.poset.full

    def meet_index(self, i: int, j: int) -> int:
        return self._by_pairs[self.pairs[i] & self.pairs[j]]

    def mask_to_partitions(self, mask: int) -> tuple[Partition, ...]:
        return tuple(self.partitions[i] for i in bits(mask))


def enumerate_partitions(n: int) -> PartitionLattice:
    """Build the full partition lattice of {1..n}."""
    return PartitionLattice(n)
