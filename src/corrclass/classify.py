"""Class labels (filters over a property context) and their semantics.

A filter picks the properties a class is required to have; everything else
in the context is required to fail.  The semantic model assigns to every
partition ζ a correlation type: a state of type ζ satisfies exactly the
ideals containing ζ.  The type set of a filter is the brute-force list of
types realizing its class, and is the oracle against which the algebraic
existence and uniqueness tests are cross-checked.  Verdicts hold masks and
indices over the partitions; only :mod:`catalogs` makes partitions of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .ideals import Ideal, PropertyContext
from .poset import CapExceeded, bits

EXHAUSTIVE_CONTEXT_MAX = 21  # ideals; a non-chain context has up to 2^21 labels


class Filter:
    """A nonempty up-closed set of context ideals: a class label.

    A label from :func:`enumerate_filters` carries its minimal ideals and
    its class mask from the walk; any other label computes them on use.
    """

    __slots__ = ("context", "members", "_mins", "_mask")

    def __init__(self, context: PropertyContext, members: int):
        if members == 0:
            raise ValueError("the empty set is not a class label")
        if context.poset.up_closure(members) != members:
            raise ValueError("member set is not up-closed in the context")
        self.context = context
        self.members = members
        self._mins: int | None = None
        self._mask: int | None = None

    @classmethod
    def _walked(cls, context: PropertyContext, members: int, mins: int,
                mask: int) -> "Filter":
        """A label emitted up-closed by the up-set walk, with the minimal
        mask and class mask the walk carried to it."""
        f = object.__new__(cls)
        f.context = context
        f.members = members
        f._mins = mins
        f._mask = mask
        return f

    @property
    def complement(self) -> int:
        return self.context.poset.full & ~self.members

    def _minimal_mask(self) -> int:
        if self._mins is None:
            return self.context.poset.minimal(self.members)
        return self._mins

    def minimal_ideals(self) -> tuple[Ideal, ...]:
        ideals = self.context.ideals
        return tuple(ideals[i] for i in bits(self._minimal_mask()))

    def minimal_names(self) -> list[str]:
        """Display names of the minimal ideals, from the context's names."""
        return self.context.names_of(self._minimal_mask())

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
    for i, ideal in enumerate(f.context.ideals):
        if members >> i & 1:
            out &= ideal.members
    return out


def complement_join_members(f: Filter) -> int:
    """Partition mask of the union of the complement's ideals (0 if empty)."""
    members = f.members
    out = 0
    for i, ideal in enumerate(f.context.ideals):
        if not members >> i & 1:
            out |= ideal.members
    return out


def class_mask(f: Filter) -> int:
    """Partition mask of the class: the filter meet minus the complement join.

    The class exists iff the mask is nonzero, and two labels carve out the
    same class iff their masks are equal.  A label from the walk carries it.
    """
    if f._mask is not None:
        return f._mask
    return meet_members(f) & ~complement_join_members(f)


# Not frozen: a record is built for every label, and describe_class sets
# its types; a frozen dataclass's __init__ costs about 1 µs more per object.
@dataclass
class ClassDescriptor:
    """A label's verdict over the lattice's partition indices: its class
    mask, its witness's index (``None`` if the class is empty) and the
    mask of its types (0 until :func:`describe_class` sets it)."""
    label: Filter
    mask: int
    witness: int | None
    types: int = 0

    @property
    def exists(self) -> bool:
        return self.mask != 0


def class_exists(f: Filter) -> ClassDescriptor:
    """Nonemptiness test, as the label's record with no types: the class
    mask must not be empty.  The witness is the refinement-minimal
    partition of the class mask, tie-broken by enumeration order.
    """
    mask = class_mask(f)
    if not mask:
        return ClassDescriptor(f, 0, None)
    minimal = f.context.lattice.poset.minimal(mask)
    return ClassDescriptor(f, mask, (minimal & -minimal).bit_length() - 1)


def type_set(f: Filter) -> int:
    """Brute-force oracle: the mask of the types realizing the class.

    A type ζ realizes the class iff every filter ideal contains ζ and no
    complement ideal does; checked partition by partition, membership by
    membership.  Reads only the label's members and the context's ideals,
    never a value carried by the walk, so it stays independent of the
    class-mask algebra it checks.
    """
    members = f.members
    member_masks: list[int] = []
    other_masks: list[int] = []
    for i, ideal in enumerate(f.context.ideals):
        if members >> i & 1:
            member_masks.append(ideal.members)
        else:
            other_masks.append(ideal.members)
    out = 0
    for idx in range(len(f.context.lattice)):
        bit = 1 << idx
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
    for i, ideal in enumerate(context.ideals):
        for j in bits(ideal.members):
            signature[j] |= 1 << i
    groups: dict[int, int] = {}
    for j, sig in enumerate(signature):
        if sig:
            groups[sig] = groups.get(sig, 0) | 1 << j
    return groups


def describe_class(f: Filter, types: int | None = None) -> ClassDescriptor:
    """The label's :func:`class_exists` record with the type mask ``types``
    set on it: ``type_set(f)`` by default, and in a catalog the label's
    signature group (0 if it has none), so ``type_set`` runs only where it
    is the second oracle, as in ``verify``."""
    d = class_exists(f)
    d.types = type_set(f) if types is None else types
    return d


def enumerable(context: PropertyContext) -> bool:
    """Whether every label of the context may be enumerated: a chain's
    labels are its elements, any other context has up to 2^|context|."""
    return len(context) <= EXHAUSTIVE_CONTEXT_MAX or context.is_chain()


def label_walk(context: PropertyContext
               ) -> Iterator[tuple[int, int, int, int]]:
    """The walk over every label of the context, in :meth:`Poset.upsets`
    order, as ``(members, minimal mask, filter meet, complement join)``;
    the class mask is ``meet & ~join``.  Refuses a context too large to
    enumerate before any label is walked."""
    if not enumerable(context):
        raise CapExceeded(
            f"the context has {len(context)} ideals; exhaustive filter"
            f" enumeration is limited to contexts of size"
            f" <= {EXHAUSTIVE_CONTEXT_MAX}")
    weights = [ideal.members for ideal in context.ideals]
    return context.poset.weighted_upsets(weights, context.lattice.full_mask)


def enumerate_filters(context: PropertyContext) -> Iterator[Filter]:
    """Stream every filter of the context in :meth:`Poset.upsets` order,
    each with the minimal mask and class mask carried by the walk."""
    for members, mins, meet, join in label_walk(context):
        yield Filter._walked(context, members, mins, meet & ~join)


def lemma_principal_check(f: Filter,
                          universe: PropertyContext | None = None) -> dict:
    """Check the principal-label identities for a filter.

    When the class is nonempty: the ideals of the context containing the
    filter meet must be exactly the filter, the ideals sinking into the
    complement join must be exactly the complement, and (when the full
    ideal universe is supplied) no ideal at all may lie between the two.
    """
    mf = meet_members(f)
    jc = complement_join_members(f)
    exists = mf & ~jc != 0  # the class mask
    up_in_context = 0
    down_in_context = 0
    for i, ideal in enumerate(f.context.ideals):
        if mf & ~ideal.members == 0:
            up_in_context |= 1 << i
        if ideal.members & ~jc == 0:
            down_in_context |= 1 << i
    report = {
        "exists": exists,
        "principal_up_matches": up_in_context == f.members,
        "principal_down_matches": down_in_context == f.complement,
    }
    if universe is not None:
        between = any(
            mf & ~ideal.members == 0 and ideal.members & ~jc == 0
            for ideal in universe.ideals)
        report["separated_in_universe"] = not between
        report["separation_consistent"] = (not between) == exists
    if exists:
        report["ok"] = (report["principal_up_matches"]
                        and report["principal_down_matches"]
                        and report.get("separation_consistent", True))
    else:
        report["ok"] = report.get("separation_consistent", True)
    return report


def cross_check(groups: dict[int, int],
                records: Iterable[ClassDescriptor]) -> tuple[int, list[dict]]:
    """Differential test of the algebraic verdicts against the type oracle.

    ``groups`` are the ``signature_groups`` of the labels' context.  Streams
    the records once and holds each label to its group (0 if it has none),
    in this order: the existence verdict, the class mask, the type mask,
    and the witness, a minimal element of a nonempty group and absent from
    an empty one.  Groups of distinct labels are disjoint, so equal masks
    then mean equal classes.  Returns the number of records checked and
    one ``{"kind": <first failing check>, "labels": [label]}`` per failing
    label.
    """
    checked = 0
    discrepancies = []
    for checked, d in enumerate(records, 1):
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
    return checked, discrepancies


def oracle_cross_check(context: PropertyContext,
                       filters: Iterable[Filter]) -> dict:
    """:func:`cross_check` of the filters, each with its ``type_set``,
    consumed once as they stream past."""
    checked, discrepancies = cross_check(
        signature_groups(context), map(describe_class, filters))
    return {
        "context_size": len(context),
        "filters_checked": checked,
        "discrepancies": discrepancies,
        "ok": not discrepancies,
    }
