"""Set partitions of {1..n} and the refinement lattice over them.

Elementary subsystems are labelled 1..n in all I/O and 0..n-1 internally.
A partition block is an int bitmask over the internal labels; a partition
is the tuple of its blocks, sorted by least member.  Displayed form is the
bar notation "12|3"; parsing also accepts "{{1,2},{3}}".
"""

from __future__ import annotations

import re
from functools import cache, cached_property

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


class PartitionLattice:
    """All partitions of fixed n, indexed, with the refinement order.

    ``blocks[i]`` holds the blocks of partition i and ``pairs[i]`` the label
    pairs sharing a block, both as the restricted-growth walk yields them.
    These two tuples are the only form a partition takes: names are joined
    from the blocks, and ``parse`` reads a partition into its pair mask.
    ζ refines ξ iff the pairs of ζ are among those of ξ, so the order is
    inclusion of pair masks (:meth:`Poset.by_inclusion`).  The blockwise
    meet joins exactly the pairs both partitions join, so ``meet_index``
    is a lookup on ``pairs[i] & pairs[j]``.
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
        """The display string of every partition, by index: its blocks in
        order, each as its labels' digits, joined by bars."""
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
        return [self._by_pairs[self._pair_mask(tok)]
                for tok in _PARTITION.findall(spec)]

    def _pair_mask(self, token: str) -> int:
        """The pair mask of one partition in bar or brace notation.  Every
        label must lie in 1..n, then the blocks must be disjoint, then they
        must cover 1..n; the first check that fails names the fault."""
        text = token.strip()
        if not _NOTATION.fullmatch(text):
            raise ValueError(f"cannot parse partition from {text!r}")
        if text.startswith("{"):
            blocks = [re.findall(r"\d+", block)
                      for block in re.findall(r"\{([^{}]*)\}", text)]
        else:
            blocks = [part.strip() for part in text.split("|")]
        n = self.n
        masks = []
        for block in blocks:
            mask = 0
            for label in map(int, block):
                if not 1 <= label <= n:
                    raise ValueError(f"label {label} outside 1..{n}")
                mask |= 1 << label - 1
            masks.append(mask)
        seen = pairs = 0
        for mask in masks:
            if mask & seen:
                raise ValueError("blocks are not disjoint")
            seen |= mask
            # label i joins the labels of its block below it, as in the walk
            for i in bits(mask):
                pairs |= (mask & (1 << i) - 1) << i * (i - 1) // 2
        if seen != (1 << n) - 1:
            raise ValueError(f"blocks do not cover 1..{n}")
        return pairs


def enumerate_partitions(n: int) -> PartitionLattice:
    """Build the full partition lattice of {1..n}."""
    return PartitionLattice(n)
