"""Set partitions as objects: the reference the tests hold Level I to.

The package keeps a partition only as its block tuple and its label-pair
mask (``PartitionLattice.blocks``/``pairs``).  This module models a
partition of {1..n} from the definitions instead: a canonical, validated
tuple of blocks (int bitmasks over the labels 0..n-1, sorted by least
member) with refinement, meet, join, parsing and display written out
directly.  It enumerates and formats partitions on its own and reads
nothing of ``corrclass.partitions``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

# One partition in bar ("12|3") or brace ("{{1,2},{3}}") notation.
NOTATION = re.compile(
    r"\d+(?:\s*\|\s*\d+)*|\{\s*(?:\{\s*\d+(?:[\s,]+\d+)*\s*\}[\s,]*)+\}",
    re.ASCII)


def labels_of(block: int) -> list[int]:
    """The internal labels of a block mask, ascending."""
    return [i for i in range(block.bit_length()) if block >> i & 1]


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
        if not NOTATION.fullmatch(text):
            raise ValueError(f"cannot parse partition from {text!r}")
        if text.startswith("{"):
            sets = [[int(t) for t in re.findall(r"\d+", block)]
                    for block in re.findall(r"\{([^{}]*)\}", text)]
        else:
            sets = [[int(ch) for ch in part.strip()]
                    for part in text.split("|")]
        if n is None:
            n = max(lab for s in sets for lab in s)
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
            first, *rest = labels_of(block)
            for i in rest:
                parent[find(i)] = find(first)
        groups: dict[int, int] = {}
        for i in range(self.n):
            groups[find(i)] = groups.get(find(i), 0) | (1 << i)
        return Partition(self.n, groups.values())

    def shape(self) -> tuple[int, ...]:
        """Block sizes, descending; partitions of equal shape form an orbit."""
        return tuple(sorted((b.bit_count() for b in self.blocks),
                            reverse=True))

    def _check_same(self, other: "Partition") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __str__(self) -> str:
        return "|".join("".join(str(i + 1) for i in labels_of(b))
                        for b in self.blocks)

    def __repr__(self) -> str:
        return f"Partition({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Partition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return self._hash


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Every string s of length n with s[0] = 0 and each s[i] at most one
    more than the largest before it, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for head in restricted_growth_strings(n - 1):
        for v in range(max(head, default=-1) + 2):
            yield head + (v,)


def all_partitions(n: int) -> Iterator[Partition]:
    """All set partitions of {1..n}, in the lexicographic order of their
    restricted growth strings: block b holds the labels i with s[i] = b."""
    for s in restricted_growth_strings(n):
        blocks = [0] * (max(s) + 1)
        for i, b in enumerate(s):
            blocks[b] |= 1 << i
        yield Partition(n, blocks)


def partitions_of(lattice) -> tuple[Partition, ...]:
    """Each element of a ``PartitionLattice`` as a validated
    :class:`Partition`, by index."""
    return tuple(Partition(lattice.n, blocks) for blocks in lattice.blocks)
