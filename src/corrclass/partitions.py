"""Set partitions of {1..n} and the refinement lattice over them.

Elementary subsystems are labelled 1..n in all I/O and 0..n-1 internally.
A partition block is an int bitmask over the internal labels; a partition
is the tuple of its blocks, sorted by least member.  Displayed form is the
bar notation "12|3"; parsing also accepts "{{1,2},{3}}".
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from typing import Iterable, Iterator

from .poset import Poset, bits

# What holds n at 8: with the cap lifted, n = 9 (21 147 partitions) takes
# 0.18-0.22 s to build Level I, 0.03-0.05 s to name every partition,
# 0.7 s for its 175 896 covers and 0.06 s for the principal ideals, at
# 129 MB peak RSS for build and covers; verify's principal-meet check
# takes 4.4 s (5.4M coatom meets; shared 2-vCPU x86-64 VM, Python 3.11),
# and the coatom context of 255 ideals needs its empty labels counted
# without walking them before it can be classified.
MAX_N = 8

# One partition in bar ("12|3") or brace ("{{1,2},{3}}") notation.
_NOTATION = re.compile(
    r"\d+(?:\s*\|\s*\d+)*|\{\s*(?:\{\s*\d+(?:[\s,]+\d+)*\s*\}[\s,]*)+\}",
    re.ASCII)
# A maximal partition in an ideal spec, in either notation; the rest of a
# spec is commas, whitespace and braces.
_PARTITION = re.compile(r"\{\s*(?:\{[^{}]*\}[\s,]*)+\}|[^\s,{}][^,{}]*")
# The spec with each partition replaced by "p": a list, bare or braced.
_SPEC_SHAPE = re.compile(r"[\s,]*(?:p[\s,]*)+|\{[\s,]*(?:p[\s,]*)+\}")


def bell_number(n: int) -> int:
    """Bell numbers via the triangle recurrence (independent of enumeration)."""
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
        self._set(n, blocks)

    @classmethod
    def _canonical(cls, n: int, blocks: tuple[int, ...]) -> "Partition":
        """A partition whose blocks are canonical by construction: nonempty,
        disjoint, covering 1..n and sorted by least member."""
        p = object.__new__(cls)
        p._set(n, blocks)
        return p

    def _set(self, n: int, blocks: tuple[int, ...]) -> None:
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
        if not _NOTATION.fullmatch(text):
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
        return _shape(self.blocks)

    def _check_same(self, other: "Partition") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    def __str__(self) -> str:
        text = _block_strings(self.n)
        return "|".join([text[b] for b in self.blocks])

    def __repr__(self) -> str:
        return f"Partition({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Partition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return self._hash


@cache
def _block_strings(n: int) -> tuple[str, ...]:
    """The text of every block over labels 1..n, by block mask ("13" for
    0b101), from which every partition's display string is joined: the
    2^(n-1) entries for the blocks holding label n are those of the blocks
    without it, each followed by the digit n."""
    if n == 0:
        return ("",)
    without = _block_strings(n - 1)
    return without + tuple([text + str(n) for text in without])


def _shape(blocks: tuple[int, ...]) -> tuple[int, ...]:
    """Block sizes, descending."""
    return tuple(sorted([b.bit_count() for b in blocks], reverse=True))


_LETTERS = "abcdefghijklmnopqrstuvwxyz"  # the labels of shape displays


def shape_string(shape: tuple[int, ...]) -> str:
    """Orbit-collapsed display of a shape, e.g. (2, 1, 1) -> "ab|c|d"."""
    letters = iter(_LETTERS)
    return "|".join("".join(next(letters) for _ in range(size))
                    for size in shape)


def state_shape(shape: tuple[int, ...]) -> str:
    """State-shape display of a shape, e.g. (2, 1) -> "ρ_ab⊗ρ_c"."""
    letters = iter(_LETTERS)
    return "⊗".join("ρ_" + "".join(next(letters) for _ in range(size))
                    for size in shape)


def _blocks_and_pairs(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every set partition of {1..n} as ``(blocks, pair mask)``, in
    restricted-growth order.

    The pair mask has bit b(b-1)/2 + a set when labels a < b share a block.
    Labels are placed one at a time, each into every block so far and then
    into a block of its own; placing label i into block B adds exactly the
    pairs ``B << i(i-1)/2``.  Extending each partition of the first i
    labels in turn, in that order, keeps the strings lexicographic.
    """
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for i in range(n):
        bit, shift = 1 << i, i * (i - 1) // 2
        grown = []
        for blocks, pairs in level:
            for v, block in enumerate(blocks):
                grown.append((blocks[:v] + (block | bit,) + blocks[v + 1:],
                              pairs | block << shift))
            grown.append((blocks + (bit,), pairs))
        level = grown
    return level


def all_partitions(n: int) -> Iterator[Partition]:
    """All set partitions of {1..n}, in restricted-growth order."""
    for blocks, _ in _blocks_and_pairs(n):
        yield Partition._canonical(n, blocks)


class PartitionLattice:
    """All partitions of fixed n, indexed, with the refinement order.

    ``blocks[i]`` holds the blocks of partition i and ``pairs[i]`` the label
    pairs sharing a block, both as the restricted-growth walk yields them;
    no :class:`Partition` is made unless ``partitions`` or ``index`` is
    read.  ζ refines ξ iff the pairs of ζ are among those of ξ, so the
    order is inclusion of pair masks (:meth:`Poset.by_inclusion`).  The
    blockwise meet joins exactly the pairs both partitions join, so
    ``meet_index`` is a lookup on ``pairs[i] & pairs[j]``.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
        self.n = n
        blocks, pairs = zip(*_blocks_and_pairs(n))
        self.blocks: tuple[tuple[int, ...], ...] = blocks
        self.pairs: tuple[int, ...] = pairs
        self._by_pairs = {mask: i for i, mask in enumerate(pairs)}
        self.poset = Poset.by_inclusion(pairs)
        # the bottom joins no pair of labels, the top every pair
        self.bottom_index = self._by_pairs[0]
        self.top_index = self._by_pairs[(1 << n * (n - 1) // 2) - 1]

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def partitions(self) -> tuple[Partition, ...]:
        """Each partition as a :class:`Partition`, by index."""
        return tuple(Partition._canonical(self.n, b) for b in self.blocks)

    @cached_property
    def index(self) -> dict[Partition, int]:
        """Each partition's index, by its :class:`Partition`."""
        return {p: i for i, p in enumerate(self.partitions)}

    @property
    def full_mask(self) -> int:
        return self.poset.full

    @cached_property
    def block_stat_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(by_count, by_largest)``, from one pass over the block sizes:
        ``by_count[k]`` masks the partitions with k blocks and
        ``by_largest[s]`` those whose largest block has s members."""
        by_count = [0] * (self.n + 1)
        by_largest = [0] * (self.n + 1)
        for i, blocks in enumerate(self.blocks):
            sizes = _shape(blocks)
            by_count[len(sizes)] |= 1 << i
            by_largest[sizes[0]] |= 1 << i
        return tuple(by_count), tuple(by_largest)

    def meet_index(self, i: int, j: int) -> int:
        return self._by_pairs[self.pairs[i] & self.pairs[j]]

    def names(self, mask: int) -> list[str]:
        """Display strings of the partitions in ``mask``, by index."""
        names = self._names
        return [names[i] for i in bits(mask)]

    @cached_property
    def _names(self) -> tuple[str, ...]:
        """The display string of every partition, by index, written as
        :meth:`Partition.__str__` writes it."""
        text = _block_strings(self.n)
        return tuple(["|".join([text[b] for b in blocks])
                      for blocks in self.blocks])

    def shape(self, i: int) -> tuple[int, ...]:
        """Block sizes of partition i, descending."""
        return _shape(self.blocks[i])

    def parse(self, spec: str) -> list[int]:
        """Indices of the partitions an ideal spec lists: a comma-separated
        list of partitions, each in bar ("12|3") or brace ("{{1,2},{3}}")
        notation, optionally written as "↓{...}"."""
        spec = spec.strip().removeprefix("↓").strip()
        if not _SPEC_SHAPE.fullmatch(_PARTITION.sub("p", spec)):
            raise ValueError(f"expected a comma-separated list of partitions,"
                             f" got {spec!r}")
        return [self.index[Partition.parse(tok, self.n)]
                for tok in _PARTITION.findall(spec)]


def enumerate_partitions(n: int) -> PartitionLattice:
    """Build the full partition lattice of {1..n}."""
    return PartitionLattice(n)
