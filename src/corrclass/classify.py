"""Class labels (filters over a property context) and their semantics.

A filter picks the properties a class is required to have; everything else
in the context is required to fail.  The semantic model assigns to every
partition ζ a correlation type: a state of type ζ satisfies exactly the
ideals containing ζ.  The type set of a filter is the brute-force list of
types realizing its class, and is the oracle against which the algebraic
existence and uniqueness tests are cross-checked.  Verdicts hold masks and
indices over the partitions; only :mod:`catalogs` names them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .ideals import Ideal, PropertyContext
from .poset import CapExceeded, bits

EXHAUSTIVE_CONTEXT_MAX = 21  # ideals; a non-chain context has up to 2^21 labels


class Filter:
    """A nonempty up-closed set of context ideals: a class label, with its
    class mask (:func:`class_mask`).

    A label from the label walk (:meth:`_walked`) takes its class mask
    from the walk; any other label computes it when it is made.
    """

    __slots__ = ("context", "members", "mask")

    def __init__(self, context: PropertyContext, members: int):
        if members == 0:
            raise ValueError("the empty set is not a class label")
        if context.poset.up_closure(members) != members:
            raise ValueError("member set is not up-closed in the context")
        self.context = context
        self.members = members
        self.mask = class_mask(self)

    @classmethod
    def _walked(cls, context: PropertyContext, members: int,
                mask: int) -> "Filter":
        """A label emitted up-closed by the up-set walk, with the class
        mask the walk carried to it."""
        f = object.__new__(cls)
        f.context = context
        f.members = members
        f.mask = mask
        return f

    @property
    def complement(self) -> int:
        return self.context.poset.full & ~self.members

    def minimal_ideals(self) -> tuple[Ideal, ...]:
        ideals = self.context.ideals
        return tuple(ideals[i]
                     for i in bits(self.context.poset.minimal(self.members)))

    def minimal_names(self) -> list[str]:
        """Display names of the minimal ideals, from the context's names."""
        return self.context.names_of(self.context.poset.minimal(self.members))

    def __len__(self) -> int:
        return self.members.bit_count()

    def __str__(self) -> str:
        return label_name(self.minimal_names())

    def __repr__(self) -> str:
        return f"Filter({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Filter)
                and self.context is other.context
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.context), self.members))


def label_name(names: list[str]) -> str:
    """A class label's display string, from its minimal ideals' names."""
    return "↑{" + ", ".join(names) + "}"


def make_filter(context: PropertyContext,
                generators: Sequence[Ideal | int]) -> Filter:
    """Up-closure of the generators within the context."""
    mask = 0
    for g in generators:
        idx = g if isinstance(g, int) else context.locate(g)
        if not 0 <= idx < len(context):
            raise IndexError(f"generator index {idx} outside the context")
        mask |= 1 << idx
    if mask == 0:
        raise ValueError("at least one generator is required")
    return Filter(context, context.poset.up_closure(mask))


def meet_members(f: Filter) -> int:
    """Partition mask of the intersection of the filter's ideals."""
    members = f.members
    out = f.context.lattice.full_mask
    for i, mask in enumerate(f.context.masks):
        if members >> i & 1:
            out &= mask
    return out


def complement_join_members(f: Filter) -> int:
    """Partition mask of the union of the complement's ideals (0 if empty)."""
    members = f.members
    out = 0
    for i, mask in enumerate(f.context.masks):
        if not members >> i & 1:
            out |= mask
    return out


def class_mask(f: Filter) -> int:
    """Partition mask of the class: the filter meet minus the complement join.

    The class exists iff the mask is nonzero, and two labels carve out the
    same class iff their masks are equal.  Computed from scratch: the
    reference for the mask the walk carries to each label.
    """
    return meet_members(f) & ~complement_join_members(f)


class ClassDescriptor:
    """A label's verdict over the lattice's partition indices: its class
    mask, its witness's index (``None`` if the class is empty) and the
    mask of its types (0 until :func:`describe_class` sets it)."""

    __slots__ = ("label", "mask", "witness", "types")

    def __init__(self, label: Filter, mask: int, witness: int | None,
                 types: int = 0):
        self.label = label
        self.mask = mask
        self.witness = witness
        self.types = types

    @property
    def exists(self) -> bool:
        return self.mask != 0


def class_exists(f: Filter) -> ClassDescriptor:
    """Nonemptiness test, as the label's record with no types: the class
    mask must not be empty.  The witness is the refinement-minimal
    partition of the class mask, tie-broken by enumeration order.
    """
    mask = f.mask
    if not mask:
        return ClassDescriptor(f, 0, None)
    minimal = f.context.lattice.poset.minimal(mask)
    return ClassDescriptor(f, mask, (minimal & -minimal).bit_length() - 1)


def type_set(split: tuple) -> int:
    """Brute-force oracle: the mask of the types realizing a label's class,
    from the label's ``split`` (:meth:`PropertyContext.split` of its
    members).

    A type ζ realizes the class iff every filter ideal contains ζ and no
    complement ideal does; checked candidate by candidate, membership by
    membership.  A realizing type lies in the smallest filter ideal and
    outside the largest complement ideal, so only those partitions are
    candidates.  The split is read from tables built from the context's
    ideal masks, never from a value carried by the walk, so the oracle
    stays independent of the class-mask algebra it checks.
    """
    member_masks, other_masks, _, _, smallest, largest = split
    candidates = smallest & ~largest
    out = 0
    while candidates:
        bit = candidates & -candidates
        candidates ^= bit
        for mask in member_masks:
            if not mask & bit:
                break
        else:
            for mask in other_masks:
                if mask & bit:
                    break
            else:
                out |= bit
    return out


def signature_groups(context: PropertyContext) -> dict[int, int]:
    """The type-set oracle taken partition-first, for every label at once.

    The signature of a type ζ is the mask of context ideals containing ζ;
    ζ realizes exactly the label equal to its signature.  Maps each
    realized label's member mask to the partition mask of its types;
    labels absent from the map are empty.
    """
    signature = [0] * len(context.lattice)
    for i, mask in enumerate(context.masks):
        for j in bits(mask):
            signature[j] |= 1 << i
    groups: dict[int, int] = {}
    for j, sig in enumerate(signature):
        if sig:
            groups[sig] = groups.get(sig, 0) | 1 << j
    return groups


def describe_class(f: Filter, types: int) -> ClassDescriptor:
    """The label's :func:`class_exists` record with the type mask ``types``
    set on it: in a catalog, the label's signature group."""
    d = class_exists(f)
    d.types = types
    return d


def enumerable(context: PropertyContext) -> bool:
    """Whether every label of the context may be enumerated: a chain's
    labels are its elements, any other context has up to 2^|context|."""
    return len(context) <= EXHAUSTIVE_CONTEXT_MAX or context.is_chain()


def check_enumerable(context: PropertyContext,
                     subject: str = "the context") -> None:
    """Refuse, naming ``subject``, a context too large to enumerate."""
    if not enumerable(context):
        raise CapExceeded(
            f"{subject} has {len(context)} ideals; exhaustive filter"
            f" enumeration is limited to contexts of size"
            f" <= {EXHAUSTIVE_CONTEXT_MAX}")


def label_walk(context: PropertyContext) -> Iterator[tuple[int, int, int]]:
    """The walk over every label of the context, in :meth:`Poset.upsets`
    order, as ``(members, minimal mask, class mask)``.  Refuses a context
    too large to enumerate before any label is walked."""
    check_enumerable(context)
    return context.poset.weighted_upsets(context.masks,
                                         context.lattice.full_mask)


def enumerate_filters(context: PropertyContext) -> Iterator[Filter]:
    """Stream every filter of the context in :meth:`Poset.upsets` order,
    each with the class mask carried by the walk."""
    for members, _, mask in label_walk(context):
        yield Filter._walked(context, members, mask)


def lemma_principal_check(split: tuple,
                          universe: PropertyContext | None = None) -> dict:
    """Check the principal-label identities for a label, from its
    ``split`` (:meth:`PropertyContext.split` of its members).

    When the class is nonempty: the ideals of the context containing the
    filter meet must be exactly the filter, and the ideals sinking into
    the complement join must be exactly the complement.  The filter meet
    and the complement join are the split's, recomputed from the
    context's ideal masks.  Every filter ideal contains the meet and every
    complement ideal lies inside the join, so each identity is tested from
    its open side only: the first complement ideal containing the meet, or
    member ideal inside the join, breaks it.

    When the full ideal universe is supplied, the filter meet, and the
    complement join unless it is empty, must each be one of its ideals:
    an intersection or a union of down-sets is a down-set, so a universe
    that lacks one is not every ideal.  That is the whole content of
    asking whether some universe ideal I lies between the two, meet ⊆ I ⊆
    join: the join is such an I whenever meet ⊆ join, and none exists
    otherwise, so the answer is "the class is empty" on every label.
    """
    member_masks, other_masks, mf, jc, _, _ = split
    exists = mf & ~jc != 0  # the class mask
    up_matches = down_matches = True
    for mask in other_masks:
        if mf & ~mask == 0:
            up_matches = False
            break
    for mask in member_masks:
        if mask & ~jc == 0:
            down_matches = False
            break
    report = {
        "exists": exists,
        "principal_up_matches": up_matches,
        "principal_down_matches": down_matches,
    }
    ok = not exists or up_matches and down_matches
    if universe is not None:
        report["meet_in_universe"] = universe.has_ideal(mf)
        report["join_in_universe"] = jc == 0 or universe.has_ideal(jc)
        ok = ok and report["meet_in_universe"] and report["join_in_universe"]
    report["ok"] = ok
    return report


def cross_check(groups: dict[int, int],
                records: Iterable[ClassDescriptor]) -> list[dict]:
    """Differential test of the algebraic verdicts against the type oracle.

    ``groups`` are the ``signature_groups`` of the labels' context.  Holds
    each record's label to its group (0 if it has none), in this order:
    the existence verdict, the class mask, the type mask, and the witness,
    a minimal element of a nonempty group and absent from an empty one.
    Groups of distinct labels are disjoint, so equal masks then mean equal
    classes.  Returns one ``{"kind": <first failing check>, "labels":
    [label]}`` per failing label.
    """
    discrepancies = []
    for d in records:
        group = groups.get(d.label.members, 0)
        witness = 0 if d.witness is None else 1 << d.witness
        if d.exists != bool(group):
            kind = "existence"
        elif d.mask != group:
            kind = "mask"
        elif d.types != group:
            kind = "type_set"
        elif ((witness & d.label.context.lattice.poset.minimal(group)) == 0
              if group else witness != 0):
            kind = "witness"
        else:
            continue
        discrepancies.append({"kind": kind, "labels": [str(d.label)]})
    return discrepancies
