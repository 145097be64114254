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

from .ideals import Ideal, IdealPoset, PropertyContext
from .partitions import Partition
from .poset import CapExceeded, bits

EXHAUSTIVE_CONTEXT_MAX = 25  # 2^|context| filters; beyond this, callers choose


class Filter:
    """A nonempty up-closed set of context ideals: a class label."""

    __slots__ = ("context", "members", "_hash")

    def __init__(self, context: PropertyContext, members: int):
        if members == 0:
            raise ValueError("the empty set is not a class label")
        if context.poset.up_closure(members) != members:
            raise ValueError("member set is not up-closed in the context")
        self.context = context
        self.members = members
        self._hash = hash((id(context), members))

    @property
    def complement(self) -> int:
        return self.context.poset.full & ~self.members

    def ideals(self) -> tuple[Ideal, ...]:
        return tuple(self.context.ideals[i] for i in bits(self.members))

    def complement_ideals(self) -> tuple[Ideal, ...]:
        return tuple(self.context.ideals[i] for i in bits(self.complement))

    def minimal_ideals(self) -> tuple[Ideal, ...]:
        mins = self.context.poset.minimal(self.members)
        return tuple(self.context.ideals[i] for i in bits(mins))

    def __len__(self) -> int:
        return self.members.bit_count()

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.minimal_ideals())
        return "↑{" + inner + "}"

    def __repr__(self) -> str:
        return f"Filter({self})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Filter)
                and self.context is other.context
                and self.members == other.members)

    def __hash__(self) -> int:
        return self._hash


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
    out = f.context.lattice.full_mask
    for ideal in f.ideals():
        out &= ideal.members
    return out


def complement_join_members(f: Filter) -> int:
    """Partition mask of the union of the complement's ideals (0 if empty)."""
    out = 0
    for ideal in f.complement_ideals():
        out |= ideal.members
    return out


@dataclass(frozen=True)
class ExistenceVerdict:
    exists: bool
    witness: Partition | None


def class_exists(f: Filter) -> ExistenceVerdict:
    """Nonemptiness test: the filter meet must not sink into the complement join.

    The witness is the refinement-minimal partition separating the two,
    tie-broken by enumeration order.
    """
    diff = meet_members(f) & ~complement_join_members(f)
    if not diff:
        return ExistenceVerdict(False, None)
    minimal = f.context.lattice.poset.minimal(diff)
    first = (minimal & -minimal).bit_length() - 1
    return ExistenceVerdict(True, f.context.lattice.partitions[first])


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

    Evaluated literally on partition sets, where the filter meet and the
    complement join live in the free set algebra over all partitions (the
    context itself need not contain them).
    """
    _check_same_context(f, g)
    mf, jf = meet_members(f), complement_join_members(f)
    mg, jg = meet_members(g), complement_join_members(g)
    return ((mf & jg) & ~jf == 0
            and mf & ~(jf | mg) == 0
            and (mg & jf) & ~jg == 0
            and mg & ~(jg | mf) == 0)


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


@dataclass(frozen=True)
class ClassDescriptor:
    """A label together with its existence data and realizing types."""
    label: Filter
    meet_of_filter: int
    join_of_complement: int
    exists: bool
    witness: Partition | None
    types: tuple[Partition, ...]

    def type_mask(self) -> int:
        lattice = self.label.context.lattice
        out = 0
        for p in self.types:
            out |= 1 << lattice.index[p]
        return out


def _descriptor(f: Filter, verdict: ExistenceVerdict,
                types: tuple[Partition, ...]) -> ClassDescriptor:
    return ClassDescriptor(
        label=f,
        meet_of_filter=meet_members(f),
        join_of_complement=complement_join_members(f),
        exists=verdict.exists,
        witness=verdict.witness,
        types=types,
    )


def describe_class(f: Filter) -> ClassDescriptor:
    verdict = class_exists(f)  # before type_set: measurably faster in verify
    return _descriptor(f, verdict, type_set(f))


def describe_empty(f: Filter) -> ClassDescriptor:
    """Descriptor of a label its catalog lists as empty.

    Carries the algebraic verdict and no types; the type-set oracle is not
    run.  The antichain-style catalogs decide every label against its
    signature group; the finest catalog lists every non-principal filter,
    which the paper proves empty.
    """
    return _descriptor(f, class_exists(f), ())


def enumerate_filters(context: PropertyContext,
                      max_context: int = EXHAUSTIVE_CONTEXT_MAX,
                      cap: int | None = None) -> Iterator[Filter]:
    """Stream every filter of the context, deterministically."""
    if len(context) > max_context:
        raise CapExceeded(
            f"exhaustive filter enumeration is limited to contexts of"
            f" size <= {max_context}")
    for mask in context.poset.upsets(include_empty=False, cap=cap):
        yield Filter(context, mask)


def lemma_principal_check(f: Filter,
                          universe: IdealPoset | None = None) -> dict:
    """Check the principal-label identities for a filter.

    When the class is nonempty: the ideals of the context containing the
    filter meet must be exactly the filter, the ideals sinking into the
    complement join must be exactly the complement, and (when the full
    ideal universe is supplied) no ideal at all may lie between the two.
    """
    mf = meet_members(f)
    jc = complement_join_members(f)
    exists = bool(mf & ~jc)
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


def oracle_cross_check(context: PropertyContext,
                       filters: Iterable[Filter],
                       pair_limit: int | None = None) -> dict:
    """Differential test of the algebraic tests against the type-set oracle.

    Checks, for every filter, that the existence test agrees with type-set
    nonemptiness, and for every pair (up to ``pair_limit``), that the
    equality test agrees with type-set equality.
    """
    descriptors = [describe_class(f) for f in filters]
    discrepancies = []
    for d in descriptors:
        if d.exists != bool(d.types):
            discrepancies.append({
                "kind": "existence",
                "label": str(d.label),
                "exists": d.exists,
                "type_count": len(d.types),
            })
        if d.exists and d.witness is not None and d.witness not in d.types:
            discrepancies.append({
                "kind": "witness",
                "label": str(d.label),
                "witness": str(d.witness),
            })
    pairs_checked = 0
    done = False
    for i, a in enumerate(descriptors):
        for b in descriptors[i:]:
            if pair_limit is not None and pairs_checked >= pair_limit:
                done = True
                break
            pairs_checked += 1
            if classes_equal(a.label, b.label) != (a.types == b.types):
                discrepancies.append({
                    "kind": "equality",
                    "labels": [str(a.label), str(b.label)],
                })
        if done:
            break
    return {
        "context_size": len(context),
        "filters_checked": len(descriptors),
        "pairs_checked": pairs_checked,
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
