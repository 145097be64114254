"""Class labels (filters over a property context) and their semantics.

A filter picks the properties a class is required to have; everything else
in the context is required to fail.  The semantic model assigns to every
partition ζ a correlation type: a state of type ζ satisfies exactly the
ideals containing ζ.  The type set of a filter is the brute-force list of
types realizing its class, and is the oracle against which the algebraic
existence and uniqueness tests are cross-checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .ideals import Ideal, PropertyContext
from .partitions import Partition
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

    def ideals(self) -> tuple[Ideal, ...]:
        return tuple(self.context.ideals[i] for i in bits(self.members))

    def complement_ideals(self) -> tuple[Ideal, ...]:
        return tuple(self.context.ideals[i] for i in bits(self.complement))

    def minimal_ideals(self) -> tuple[Ideal, ...]:
        mins = self._mins
        if mins is None:
            mins = self.context.poset.minimal(self.members)
        return tuple(self.context.ideals[i] for i in bits(mins))

    def __len__(self) -> int:
        return self.members.bit_count()

    def __str__(self) -> str:
        return "↑{" + ", ".join(map(str, self.minimal_ideals())) + "}"

    def __repr__(self) -> str:
        return f"Filter({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Filter)
                and self.context is other.context
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.context), self.members))


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


def full_filter(context: PropertyContext) -> Filter:
    return Filter(context, context.poset.full)


def meet_members(f: Filter) -> int:
    """Partition mask of the intersection of the filter's ideals."""
    ideals = f.context.ideals
    out = f.context.lattice.full_mask
    for i in bits(f.members):
        out &= ideals[i].members
    return out


def complement_join_members(f: Filter) -> int:
    """Partition mask of the union of the complement's ideals (0 if empty)."""
    ideals = f.context.ideals
    out = 0
    for i in bits(f.complement):
        out |= ideals[i].members
    return out


def class_mask(f: Filter) -> int:
    """Partition mask of the class: the filter meet minus the complement join.

    The class exists iff the mask is nonzero, and two labels carve out the
    same class iff their masks are equal.  A label from the walk carries it.
    """
    if f._mask is not None:
        return f._mask
    return meet_members(f) & ~complement_join_members(f)


# Not frozen: a verdict and a descriptor are built for every label, and a
# frozen dataclass's __init__ costs about 1 µs more per object.
@dataclass
class ExistenceVerdict:
    exists: bool
    witness: Partition | None
    mask: int  # the class mask the verdict was read from


def class_exists(f: Filter) -> ExistenceVerdict:
    """Nonemptiness test: the class mask must not be empty.

    The witness is the refinement-minimal partition of the class mask,
    tie-broken by enumeration order.
    """
    mask = class_mask(f)
    if not mask:
        return ExistenceVerdict(False, None, 0)
    minimal = f.context.lattice.poset.minimal(mask)
    first = (minimal & -minimal).bit_length() - 1
    return ExistenceVerdict(True, f.context.lattice.partitions[first], mask)


def type_set(f: Filter) -> tuple[Partition, ...]:
    """Brute-force oracle: the correlation types realizing the class.

    A type ζ realizes the class iff every filter ideal contains ζ and no
    complement ideal does; checked partition by partition, membership by
    membership.
    """
    member_ideals = f.ideals()
    other_ideals = f.complement_ideals()
    out = []
    for idx, zeta in enumerate(f.context.lattice.partitions):
        bit = 1 << idx
        if any(not ideal.members & bit for ideal in member_ideals):
            continue
        if any(ideal.members & bit for ideal in other_ideals):
            continue
        out.append(zeta)
    return tuple(out)


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


def _check_same_context(f: Filter, g: Filter) -> None:
    if f.context is not g.context:
        raise ValueError("filters belong to different contexts")


def classes_equal(f: Filter, g: Filter) -> bool:
    """Label-equivalence: both labels carve out the same class.

    Evaluated on partition sets, where the filter meet and the complement
    join live in the free set algebra over all partitions (the context
    itself need not contain them).
    """
    _check_same_context(f, g)
    return class_mask(f) == class_mask(g)


def class_order(f: Filter, g: Filter) -> str:
    """Inclusion comparison of the labels: less/equal/greater/incomparable."""
    _check_same_context(f, g)
    if f.members == g.members:
        return "equal"
    if f.members & ~g.members == 0:
        return "less"
    if g.members & ~f.members == 0:
        return "greater"
    return "incomparable"


@dataclass
class ClassDescriptor:
    """A label together with its existence data and realizing types."""
    label: Filter
    mask: int  # class mask: the partitions the algebra puts in the class
    exists: bool
    witness: Partition | None
    types: tuple[Partition, ...]

    def type_mask(self) -> int:
        lattice = self.label.context.lattice
        out = 0
        for p in self.types:
            out |= 1 << lattice.index[p]
        return out


def describe_class(f: Filter,
                   types: tuple[Partition, ...] | None = None) -> ClassDescriptor:
    """The label's verdict and its types, by default from ``type_set``.

    A catalog passes ``types=()`` for a label that no partition has as its
    signature; the type-set oracle is then not run.
    """
    verdict = class_exists(f)  # before type_set: measurably faster in verify
    return ClassDescriptor(f, verdict.mask, verdict.exists, verdict.witness,
                           type_set(f) if types is None else types)


def enumerable(context: PropertyContext) -> bool:
    """Whether every label of the context may be enumerated: a chain's
    labels are its elements, any other context has up to 2^|context|."""
    return len(context) <= EXHAUSTIVE_CONTEXT_MAX or context.is_chain()


def enumerate_filters(context: PropertyContext) -> Iterator[Filter]:
    """Stream every filter of the context in :meth:`Poset.upsets` order,
    each with the minimal mask and class mask carried by the walk."""
    if not enumerable(context):
        raise CapExceeded(
            f"the context has {len(context)} ideals; exhaustive filter"
            f" enumeration is limited to contexts of size"
            f" <= {EXHAUSTIVE_CONTEXT_MAX}")
    weights = [ideal.members for ideal in context.ideals]
    walk = context.poset.weighted_upsets(weights, context.lattice.full_mask)
    for members, mins, meet, join in walk:
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
                descriptors: Iterable[ClassDescriptor]) -> list[dict]:
    """Differential test of the algebraic verdicts against the type oracles.

    ``groups`` are the ``signature_groups`` of the labels' context.  Streams
    the descriptors once.  For each label: the existence verdict must agree
    with the types being nonempty, the witness must be one of the types,
    and the type mask must equal the label's signature group (no types for
    a label with no group).  Over all labels, the grouping by class mask
    must coincide with the grouping by type set; each group is named by its
    first label, and the groupings coincide iff every label names the same
    first label in both.  Returns the discrepancies, each recorded as
    ``{"kind": ..., "labels": [...]}``.
    """
    discrepancies = []
    by_mask: dict[int, tuple[int, Filter]] = {}
    by_types: dict[int, tuple[int, Filter]] = {}
    for k, d in enumerate(descriptors):
        types = d.type_mask()
        if d.exists != bool(types):
            discrepancies.append({"kind": "existence",
                                  "labels": [str(d.label)]})
        elif d.exists and d.witness not in d.types:
            discrepancies.append({"kind": "witness",
                                  "labels": [str(d.label)]})
        if types != groups.get(d.label.members, 0):
            discrepancies.append({"kind": "type_set",
                                  "labels": [str(d.label)]})
        first_same_mask = by_mask.setdefault(d.mask, (k, d.label))
        first_same_types = by_types.setdefault(types, (k, d.label))
        if first_same_mask[0] != first_same_types[0]:
            other = min(first_same_mask, first_same_types)[1]
            discrepancies.append({"kind": "equality",
                                  "labels": [str(other), str(d.label)]})
    return discrepancies


def oracle_cross_check(context: PropertyContext,
                       filters: Iterable[Filter]) -> dict:
    """:func:`cross_check` of the filters, each with its ``type_set``."""
    filters = list(filters)
    discrepancies = cross_check(signature_groups(context),
                                (describe_class(f) for f in filters))
    count = len(filters)
    return {
        "context_size": len(context),
        "filters_checked": count,
        "pairs_checked": count * (count + 1) // 2,
        "discrepancies": discrepancies,
        "ok": not discrepancies,
    }


def class_record(d: ClassDescriptor) -> dict:
    """One JSON-ready record per filter for the report stream."""
    mins = d.label.minimal_ideals()
    return {
        "label": [str(i) for i in mins],
        "exists": d.exists,
        "witness": str(d.witness) if d.witness is not None else None,
        "type_set": [str(p) for p in d.types],
        "canonical_generator": str(mins[0]) if len(mins) == 1 else None,
    }


def class_report_jsonl(descriptors: Iterable[ClassDescriptor]) -> str:
    return "\n".join(json.dumps(class_record(d), ensure_ascii=False)
                     for d in descriptors)
