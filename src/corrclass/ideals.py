"""Nonempty down-sets of the partition lattice and their inclusion order.

An ideal is a bitset over the indices of a :class:`PartitionLattice`, and
ideals are ordered by inclusion of their member sets.  The canonical
display names an ideal by its maximal elements, e.g. "↓{12|3, 13|2}".
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from .partitions import PartitionLattice
from .poset import CapExceeded, Poset, bits

FULL_ENUMERATION_MAX_N = 4  # down-set counts explode past the 15-element lattice

# What a byte table holds for the ideals of one byte: their masks by
# ascending index, the AND and the OR of those masks, the smallest and the
# largest of them (the first such by index); for no ideal, (), the full
# mask, 0, the full mask and 0.
MaskEntry = tuple[tuple[int, ...], int, int, int, int]


class Ideal:
    """A nonempty, down-closed set of partitions of a fixed lattice."""

    __slots__ = ("lattice", "members", "_hash", "_str")

    def __init__(self, lattice: PartitionLattice, members: int):
        if members == 0:
            raise ValueError("the empty set is not an ideal")
        if lattice.poset.down_closure(members) != members:
            raise ValueError("member set is not down-closed under refinement")
        self.lattice = lattice
        self.members = members
        self._hash = hash((id(lattice), members))
        self._str: str | None = None  # display name, filled on first use

    @classmethod
    def _down_closed(cls, lattice: PartitionLattice, members: int) -> "Ideal":
        """An ideal whose nonempty member set is down-closed by
        construction, such as a row of ``lattice.poset.below``."""
        ideal = object.__new__(cls)
        ideal.lattice = lattice
        ideal.members = members
        ideal._hash = hash((id(lattice), members))
        ideal._str = None
        return ideal

    def contains(self, other: "Ideal") -> bool:
        if self.lattice is not other.lattice:
            raise ValueError("ideals belong to different lattices")
        return other.members & ~self.members == 0

    def __len__(self) -> int:
        return self.members.bit_count()

    def __str__(self) -> str:
        if self._str is None:
            maxima = self.lattice.poset.maximal(self.members)
            self._str = "↓{" + ", ".join(self.lattice.names(maxima)) + "}"
        return self._str

    def __repr__(self) -> str:
        return f"Ideal({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Ideal)
                and self.lattice is other.lattice
                and self.members == other.members)

    def __hash__(self) -> int:
        return self._hash


def principal_ideal(lattice: PartitionLattice, i: int) -> Ideal:
    """The down-closure of the element of index i."""
    return Ideal._down_closed(lattice, lattice.poset.below[i])


def ideal_from_generators(lattice: PartitionLattice,
                          generators: Iterable[int]) -> Ideal:
    """The down-closure of the elements of the given indices."""
    mask = 0
    for i in generators:
        mask |= 1 << i
    if mask == 0:
        raise ValueError("the empty set is not an ideal")
    return Ideal._down_closed(lattice, lattice.poset.down_closure(mask))


def parse_ideal(lattice: PartitionLattice, text: str) -> Ideal:
    """Parse an ideal from the list of its maximal elements, as
    ``lattice.parse`` reads it."""
    return ideal_from_generators(lattice, lattice.parse(text))


def k_partitionable_ideal(lattice: PartitionLattice, k: int) -> Ideal:
    """Partitions with at least k parts (refining never loses parts)."""
    if not 1 <= k <= lattice.n:
        raise ValueError(f"k must be in 1..{lattice.n}, got {k}")
    by_count = lattice.block_stat_masks[0]
    mask = 0
    for blocks in range(k, lattice.n + 1):
        mask |= by_count[blocks]
    return Ideal(lattice, mask)


def k_producible_ideal(lattice: PartitionLattice, kp: int) -> Ideal:
    """Partitions whose every part has at most kp members."""
    if not 1 <= kp <= lattice.n:
        raise ValueError(f"k' must be in 1..{lattice.n}, got {kp}")
    by_largest = lattice.block_stat_masks[1]
    mask = 0
    for size in range(1, kp + 1):
        mask |= by_largest[size]
    return Ideal(lattice, mask)


def chain_check_part_prod(lattice: PartitionLattice) -> dict:
    """Verify the orientation of the partitionability/producibility chains."""
    n = lattice.n
    part = [k_partitionable_ideal(lattice, k) for k in range(1, n + 1)]
    prod = [k_producible_ideal(lattice, kp) for kp in range(1, n + 1)]
    violations = []
    for a in range(n):
        for b in range(n):
            # mu_l <= mu_k iff l >= k; nu_l' <= nu_k' iff l' <= k'
            if part[a].contains(part[b]) != (b >= a):
                violations.append(("part", a + 1, b + 1))
            if prod[b].contains(prod[a]) != (a <= b):
                violations.append(("prod", a + 1, b + 1))
    return {
        "n": n,
        "ok": not violations,
        "violations": violations,
        "part_sizes": [len(i) for i in part],
        "prod_sizes": [len(i) for i in prod],
    }


def principal_meet_check(lattice: PartitionLattice) -> dict:
    """Verify that principal ideals are closed under intersection, from
    three exact checks:

    (0) the top's principal ideal is every partition;
    (a) coatomistic: every other principal ideal is the intersection of
        the principal ideals of the coatoms above it;
    (b) coatom meets: ↓i ∩ ↓c = ↓meet(i, c) for every partition i and
        coatom c.

    Proof that these suffice.  For j the top, ↓i ∩ ↓j = ↓i by (0).  Take j
    not the top, with coatoms c1..ck above it.  By (a), ↓i ∩ ↓j =
    ↓i ∩ ↓c1 ∩ .. ∩ ↓ck.  By (b) each step stays principal: ↓i ∩ ↓c1 = ↓i1,
    then ↓i1 ∩ ↓c2 = ↓i2, and so on, so ↓i ∩ ↓j is principal.  Hence every
    intersection of principal ideals is principal.  There are 2^(n−1) − 1
    coatoms (the two-block partitions), so (b) makes B_n·(2^(n−1) − 1)
    ``meet_index`` calls instead of one per pair of partitions, and checks
    ``meet_index`` itself only on the pairs that hold a coatom.
    """
    poset = lattice.poset
    below = poset.below  # each partition's principal ideal
    top = lattice.top_index
    coatom_mask = poset.maximal(lattice.full_mask & ~(1 << top))
    coatoms = list(bits(coatom_mask))
    not_coatomistic = []
    for j, mask in enumerate(below):
        if j == top:
            continue
        meet = lattice.full_mask
        for c in bits(poset.above[j] & coatom_mask):
            meet &= below[c]
        if meet != mask:
            not_coatomistic.append(j)
    meet_index = lattice.meet_index
    wrong_meets = [(i, c) for i, mask in enumerate(below) for c in coatoms
                   if mask & below[c] != below[meet_index(i, c)]]
    top_ok = below[top] == lattice.full_mask
    return {
        "n": lattice.n,
        "ok": top_ok and not not_coatomistic and not wrong_meets,
        "top_ok": top_ok,
        "not_coatomistic": not_coatomistic,
        "wrong_meets": wrong_meets,
        "coatoms": len(coatoms),
    }


def enumerate_ideals(lattice: PartitionLattice) -> PropertyContext:
    """Every nonempty ideal, ordered by inclusion; refuses n beyond
    ``FULL_ENUMERATION_MAX_N``."""
    if lattice.n > FULL_ENUMERATION_MAX_N:
        raise CapExceeded(f"full ideal enumeration is limited to"
                          f" n <= {FULL_ENUMERATION_MAX_N}")
    return PropertyContext(lattice, [Ideal(lattice, mask)
                                     for mask in lattice.poset.downsets()])


class PropertyContext:
    """A chosen sub-poset of ideals with respect to which classes are taken.

    Need not be a lattice; the order is inherited inclusion.  ``masks``
    holds each ideal's member mask, by the ideals' index.
    """

    def __init__(self, lattice: PartitionLattice, ideals: list[Ideal]):
        if not ideals:
            raise ValueError("a property context needs at least one ideal")
        self.lattice = lattice
        self.ideals: tuple[Ideal, ...] = tuple(ideals)
        for ideal in self.ideals:
            if ideal.lattice is not lattice:
                raise ValueError("ideal from a different lattice")
        self.masks: tuple[int, ...] = tuple(
            ideal.members for ideal in self.ideals)
        self.index: dict[int, int] = {
            mask: i for i, mask in enumerate(self.masks)}
        if len(self.index) != len(self.ideals):
            raise ValueError("duplicate ideals in context")
        self.poset = Poset.by_inclusion(self.masks)
        # byte-to-entry tables of every run, built by the first split
        self._mask_tables: tuple[tuple[MaskEntry, ...], ...] | None = None

    def __len__(self) -> int:
        return len(self.ideals)

    def names_of(self, mask: int) -> list[str]:
        """Display names of the ideals in ``mask``, by ascending index
        (each ideal writes its name once and keeps it)."""
        ideals = self.ideals
        return [str(ideals[i]) for i in bits(mask)]

    def has_ideal(self, members: int) -> bool:
        """Whether some ideal of the context has exactly the member mask
        ``members``."""
        return members in self.index

    def split(self, members: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                          int, int, int, int]:
        """The masks of the ideals in ``members`` and of the other ideals,
        each by ascending index, then the AND of the first and the OR of
        the second, the smallest of the first and the largest of the
        second (the first such by index; the full mask and 0 if none).

        Reads ``members`` and the rest 8 ideals at a time from byte tables:
        one per run of 8 ideals, which maps each byte to the
        :data:`MaskEntry` of the ideals it holds.
        The tables are built from ``masks`` alone, all at once, the first
        time the context is split.
        """
        tables = self._mask_tables or self._build_mask_tables()
        others = self.poset.full & ~members
        inside: tuple[int, ...] = ()
        outside: tuple[int, ...] = ()
        meet = smallest = self.lattice.full_mask
        join = largest = 0
        smallest_size, largest_size = len(self.lattice), 0
        for table in tables:
            masks, run_meet, _, small, _ = table[members & 255]
            inside += masks
            meet &= run_meet
            size = small.bit_count()
            if size < smallest_size:
                smallest, smallest_size = small, size
            masks, _, run_join, _, large = table[others & 255]
            outside += masks
            join |= run_join
            size = large.bit_count()
            if size > largest_size:
                largest, largest_size = large, size
            members >>= 8
            others >>= 8
        return inside, outside, meet, join, smallest, largest

    def _build_mask_tables(self) -> tuple[tuple[MaskEntry, ...], ...]:
        full = self.lattice.full_mask
        self._mask_tables = built = tuple(
            _byte_table(self.masks[start:start + 8], ((), full, 0, full, 0),
                        _add_mask)
            for start in range(0, len(self.masks), 8))
        return built

    def locate(self, ideal: Ideal) -> int:
        got = self.index.get(ideal.members)
        if got is None:
            raise KeyError(f"{ideal} is not in the context")
        return got

    def is_chain(self) -> bool:
        return self.poset.is_chain(self.poset.full)


def _byte_table(run: Sequence, empty: Any,
                add: Callable[[Any, Any], Any]) -> tuple:
    """For each byte over ``run``, ``add`` folded over its items in
    ascending order from ``empty``; each entry extends an earlier one."""
    table = [empty]
    for byte in range(1, 1 << len(run)):
        high = byte.bit_length() - 1
        table.append(add(table[byte ^ (1 << high)], run[high]))
    return tuple(table)


def _add_mask(entry: MaskEntry, mask: int) -> MaskEntry:
    masks, meet, join, smallest, largest = entry
    size = mask.bit_count()
    return (masks + (mask,), meet & mask, join | mask,
            mask if size < smallest.bit_count() else smallest,
            mask if size > largest.bit_count() else largest)


def full_context(universe: PropertyContext) -> PropertyContext:
    """The context of all properties: the enumerated ideal universe itself."""
    return universe


def k_partitionability_context(lattice: PartitionLattice) -> PropertyContext:
    return PropertyContext(lattice, [k_partitionable_ideal(lattice, k)
                                     for k in range(1, lattice.n + 1)])


def k_producibility_context(lattice: PartitionLattice) -> PropertyContext:
    return PropertyContext(lattice, [k_producible_ideal(lattice, kp)
                                     for kp in range(1, lattice.n + 1)])


def atom_context(lattice: PartitionLattice) -> PropertyContext:
    """Principal ideals of the atoms, the partitions with n-1 parts."""
    if lattice.n < 2:
        raise ValueError("atom context needs n >= 2")
    idxs = bits(lattice.poset.minimal(
        lattice.full_mask & ~(1 << lattice.bottom_index)))
    return PropertyContext(lattice, [principal_ideal(lattice, i)
                                     for i in idxs])


def coatom_context(lattice: PartitionLattice) -> PropertyContext:
    """Principal ideals of the coatoms, the bipartitions."""
    if lattice.n < 2:
        raise ValueError("coatom context needs n >= 2")
    idxs = bits(lattice.poset.maximal(
        lattice.full_mask & ~(1 << lattice.top_index)))
    return PropertyContext(lattice, [principal_ideal(lattice, i)
                                     for i in idxs])
