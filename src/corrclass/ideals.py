"""Nonempty down-sets of the partition lattice and their inclusion order.

An ideal is a bitset over the indices of a :class:`PartitionLattice`.
Meet is set intersection and join is set union; both stay down-closed.
The canonical display names an ideal by its maximal elements, e.g.
"↓{12|3, 13|2}".
"""

from __future__ import annotations

from .partitions import Partition, PartitionLattice
from .poset import CapExceeded, Poset, bits

FULL_ENUMERATION_MAX_N = 4  # down-set counts explode past the 15-element lattice


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

    def maximal_partitions(self) -> tuple[Partition, ...]:
        return self.lattice.mask_to_partitions(
            self.lattice.poset.maximal(self.members))

    def partitions(self) -> tuple[Partition, ...]:
        return self.lattice.mask_to_partitions(self.members)

    def contains(self, other: "Ideal") -> bool:
        self._check_same(other)
        return other.members & ~self.members == 0

    def meet(self, other: "Ideal") -> "Ideal":
        """Set intersection; nonempty since both ideals contain bottom."""
        self._check_same(other)
        return Ideal(self.lattice, self.members & other.members)

    def join(self, other: "Ideal") -> "Ideal":
        """Set union; unions of down-sets stay down-closed."""
        self._check_same(other)
        return Ideal(self.lattice, self.members | other.members)

    def _check_same(self, other: "Ideal") -> None:
        if self.lattice is not other.lattice:
            raise ValueError("ideals belong to different lattices")

    def __len__(self) -> int:
        return self.members.bit_count()

    def __str__(self) -> str:
        if self._str is None:
            inner = ", ".join(str(p) for p in self.maximal_partitions())
            self._str = "↓{" + inner + "}"
        return self._str

    def __repr__(self) -> str:
        return f"Ideal({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Ideal)
                and self.lattice is other.lattice
                and self.members == other.members)

    def __hash__(self) -> int:
        return self._hash


def principal_ideal(lattice: PartitionLattice, xi: Partition | int) -> Ideal:
    """The down-closure of a single partition."""
    idx = lattice.index[xi] if isinstance(xi, Partition) else xi
    return Ideal._down_closed(lattice, lattice.poset.below[idx])


def ideal_from_generators(lattice: PartitionLattice,
                          generators: list[Partition | int]) -> Ideal:
    mask = 0
    for g in generators:
        idx = lattice.index[g] if isinstance(g, Partition) else g
        mask |= 1 << idx
    return Ideal(lattice, lattice.poset.down_closure(mask))


def parse_ideal(lattice: PartitionLattice, text: str) -> Ideal:
    """Parse an ideal from a comma-separated list of maximal partitions."""
    text = text.strip()
    if text.startswith("↓"):
        text = text[1:].strip()
    if text.startswith("{") and text.endswith("}") and "{{" not in text:
        text = text[1:-1]
    parts = [Partition.parse(tok, lattice.n)
             for tok in text.split(",") if tok.strip()]
    if not parts:
        raise ValueError(f"no partitions in ideal spec {text!r}")
    return ideal_from_generators(lattice, list(parts))


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
    below = [principal_ideal(lattice, i).members for i in range(len(lattice))]
    top = lattice.top_index
    coatom_mask = poset.coatoms()
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

    Need not be a lattice; the order is inherited inclusion.
    """

    def __init__(self, lattice: PartitionLattice, ideals: list[Ideal]):
        if not ideals:
            raise ValueError("a property context needs at least one ideal")
        self.lattice = lattice
        self.ideals: tuple[Ideal, ...] = tuple(ideals)
        for ideal in self.ideals:
            if ideal.lattice is not lattice:
                raise ValueError("ideal from a different lattice")
        self.index: dict[int, int] = {
            ideal.members: i for i, ideal in enumerate(self.ideals)}
        if len(self.index) != len(self.ideals):
            raise ValueError("duplicate ideals in context")
        self.poset = Poset.by_inclusion(
            [ideal.members for ideal in self.ideals])
        # byte-to-names table of each run of 8 ideals, built on first use
        self._name_tables: list[tuple[tuple[str, ...], ...] | None] = (
            [None] * -(-len(self.ideals) // 8))

    def __len__(self) -> int:
        return len(self.ideals)

    def names_of(self, mask: int) -> list[str]:
        """Display names of the ideals in ``mask``, by ascending index.

        Reads the mask 8 bits at a time from one table per 8 ideals, which
        maps each byte to the names of its ideals.  A table is built the
        first time a mask touches its ideals, so a large context pays only
        for the tables its labels use.
        """
        tables = self._name_tables
        out: list[str] = []
        chunk = 0
        while mask:
            byte = mask & 255
            if byte:
                out += (tables[chunk] or self._name_table(chunk))[byte]
            mask >>= 8
            chunk += 1
        return out

    def _name_table(self, chunk: int) -> tuple[tuple[str, ...], ...]:
        names = list(map(str, self.ideals[8 * chunk:8 * chunk + 8]))
        table: list[tuple[str, ...]] = [()]
        for byte in range(1, 1 << len(names)):
            high = byte.bit_length() - 1
            table.append(table[byte ^ (1 << high)] + (names[high],))
        self._name_tables[chunk] = built = tuple(table)
        return built

    def locate(self, ideal: Ideal) -> int:
        got = self.index.get(ideal.members)
        if got is None:
            raise KeyError(f"{ideal} is not in the context")
        return got

    def is_chain(self) -> bool:
        return self.poset.is_chain(self.poset.full)

    def is_antichain(self) -> bool:
        return self.poset.is_antichain(self.poset.full)

    def covered_mask(self) -> int:
        """Union of the member sets of all context ideals."""
        out = 0
        for ideal in self.ideals:
            out |= ideal.members
        return out


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
    """Principal ideals of the partitions with n-1 parts."""
    if lattice.n < 2:
        raise ValueError("atom context needs n >= 2")
    idxs = sorted(bits(lattice.poset.atoms()))
    return PropertyContext(lattice, [principal_ideal(lattice, i)
                                     for i in idxs])


def coatom_context(lattice: PartitionLattice) -> PropertyContext:
    """Principal ideals of the bipartitions."""
    if lattice.n < 2:
        raise ValueError("coatom context needs n >= 2")
    idxs = sorted(bits(lattice.poset.coatoms()))
    return PropertyContext(lattice, [principal_ideal(lattice, i)
                                     for i in idxs])
