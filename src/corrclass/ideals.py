"""Nonempty down-sets of the partition lattice and their inclusion order.

An ideal is a bitset over the indices of a :class:`PartitionLattice`.
Meet is set intersection and join is set union; both stay down-closed.
The canonical display names an ideal by its maximal elements, e.g.
"↓{12|3, 13|2}".
"""

from __future__ import annotations

import json
from typing import Iterator

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

    def maximal_indices(self) -> int:
        return self.lattice.poset.maximal(self.members)

    def maximal_partitions(self) -> tuple[Partition, ...]:
        return self.lattice.mask_to_partitions(self.maximal_indices())

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
    return Ideal(lattice, lattice.poset.below[idx])


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
    mask = 0
    for i, p in enumerate(lattice.partitions):
        if p.parts_count >= k:
            mask |= 1 << i
    return Ideal(lattice, mask)


def k_producible_ideal(lattice: PartitionLattice, kp: int) -> Ideal:
    """Partitions whose every part has at most kp members."""
    if not 1 <= kp <= lattice.n:
        raise ValueError(f"k' must be in 1..{lattice.n}, got {kp}")
    mask = 0
    for i, p in enumerate(lattice.partitions):
        if p.max_part_size <= kp:
            mask |= 1 << i
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


def ideal_stream(lattice: PartitionLattice,
                 cap: int | None = None) -> Iterator[Ideal]:
    """Stream all nonempty ideals in a deterministic order."""
    for mask in lattice.poset.downsets(include_empty=False, cap=cap):
        yield Ideal(lattice, mask)


def enumerate_ideals(lattice: PartitionLattice,
                     max_n: int = FULL_ENUMERATION_MAX_N,
                     cap: int | None = None) -> PropertyContext:
    """Every nonempty ideal, ordered by inclusion; refuses n beyond ``max_n``."""
    if lattice.n > max_n:
        raise CapExceeded(
            f"full ideal enumeration is limited to n <= {max_n}")
    return PropertyContext(lattice, list(ideal_stream(lattice, cap=cap)))


def ideal_poset_json(ip: PropertyContext) -> str:
    """JSON export: nodes named by maximal elements, edges = cover pairs."""
    nodes = [{"id": i, "label": str(ideal), "size": len(ideal)}
             for i, ideal in enumerate(ip.ideals)]
    edges = [{"from": i, "to": j} for i, j in ip.poset.covers()]
    return json.dumps({"n": ip.lattice.n, "nodes": nodes, "edges": edges},
                      ensure_ascii=False, indent=2)


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

    def __len__(self) -> int:
        return len(self.ideals)

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
    idxs = sorted(bits(lattice.atoms()))
    return PropertyContext(lattice, [principal_ideal(lattice, i)
                                     for i in idxs])


def coatom_context(lattice: PartitionLattice) -> PropertyContext:
    """Principal ideals of the bipartitions."""
    if lattice.n < 2:
        raise ValueError("coatom context needs n >= 2")
    idxs = sorted(bits(lattice.coatoms()))
    return PropertyContext(lattice, [principal_ideal(lattice, i)
                                     for i in idxs])
