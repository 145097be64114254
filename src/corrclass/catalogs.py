"""One-call generators for the worked classifications.

Each catalog fixes a property context, decides which labels are realized,
and returns the nonempty classes together with a view of the labels proved
empty (within the enumerated scope).  A class's types are its signature
group; no catalog runs the label-by-label ``type_set`` oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, count, islice
from json.encoder import encode_basestring
from typing import Callable, Iterator

from .classify import (ClassDescriptor, Filter, cross_check, describe_class,
                       enumerable, enumerate_filters, signature_groups)
from .ideals import (PropertyContext, atom_context, coatom_context,
                     enumerate_ideals, k_partitionability_context,
                     k_producibility_context)
from .partitions import PartitionLattice, state_shape
from .poset import bits

LABEL_BATCH = 512  # empty labels per chunk of catalog_json


class EmptyLabels:
    """The labels of a context that no partition realizes, as a sized view
    that holds no label.

    Each iteration walks the context's labels again
    (:func:`classify.enumerate_filters`) and yields, in walk order, those
    outside the signature groups.  The length is the count the catalog took
    while it cross-checked these labels; a view of length 0 walks nothing.
    """

    __slots__ = ("_context", "_groups", "_count")

    def __init__(self, context: PropertyContext, groups: dict[int, int],
                 length: int):
        self._context = context
        self._groups = groups
        self._count = length

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Filter]:
        if not self._count:
            return iter(())
        return _unrealized(self._context, self._groups)


def _unrealized(context: PropertyContext,
                groups: dict[int, int]) -> Iterator[Filter]:
    return (f for f in enumerate_filters(context) if f.members not in groups)


@dataclass
class Catalog:
    """The outcome of classifying one property context.

    ``empties`` is an :class:`EmptyLabels` view: its length is the number
    of empty labels, and each iteration walks them again, so no catalog
    holds them.
    """
    kind: str
    context: PropertyContext
    classes: list[ClassDescriptor]
    empties: EmptyLabels
    exhaustive: bool  # whether every filter of the context was examined
    # labels on which the algebraic tests and the signature oracle disagree
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def lattice(self) -> PartitionLattice:
        return self.context.lattice


def _shape_summary(d: ClassDescriptor) -> str:
    shapes = sorted({p.shape() for p in d.types}, reverse=True)
    return ", ".join(state_shape(s) for s in shapes) if shapes else "-"


# Each built-in context kind: its context builder and the kind its catalog
# reports, which fixes the class order and whether empty labels are listed.
KINDS: dict[str, tuple[Callable[[PartitionLattice], PropertyContext], str]] = {
    "full": (enumerate_ideals, "finest"),
    "k_part": (k_partitionability_context, "chain"),
    "k_prod": (k_producibility_context, "chain"),
    "atoms": (atom_context, "atoms"),
    "coatoms": (coatom_context, "coatoms"),
}


def _signature_catalog(kind: str, context: PropertyContext) -> Catalog:
    """Classify a context signature-first: each signature group is a class.

    The reported ``kind`` orders the classes: ``finest`` by lowest type
    (one class per partition), ``chain`` by descending label size, any
    other in the order in which ``upsets`` emits labels.  Every other
    filter is empty: the catalog streams them once, through
    :func:`classify.cross_check`, and counts them as they pass
    (``enumerate_filters`` refuses a context too large for that before any
    label is described), except that ``finest`` walks none when its
    context is too large.  ``cross_check`` holds each label's verdict,
    class mask and witness to its group.
    """
    groups = signature_groups(context)
    if kind == "finest":
        order = lambda g: g[1] & -g[1]
    elif kind == "chain":
        order = lambda g: -g[0].bit_count()
    else:
        elements = context.poset.upset_order()
        order = lambda g: [g[0] >> e & 1 for e in elements]
    exhaustive = kind != "finest" or enumerable(context)
    to_partitions = context.lattice.mask_to_partitions
    classes = [describe_class(Filter(context, label), to_partitions(types))
               for label, types in sorted(groups.items(), key=order)]
    taken = count()  # zip draws from it once per empty label it takes
    walk = zip(_unrealized(context, groups), taken) if exhaustive else ()
    discrepancies = cross_check(groups, chain(
        classes, (describe_class(f, ()) for f, _ in walk)))
    return Catalog(kind, context, classes,
                   EmptyLabels(context, groups, next(taken)), exhaustive,
                   discrepancies=discrepancies)


def catalog_for(kind: str, lattice: PartitionLattice) -> Catalog:
    """Classify the built-in context ``kind`` (a key of ``KINDS``)."""
    if kind not in KINDS:
        raise ValueError(f"unknown context kind {kind!r}")
    build, reported = KINDS[kind]
    return _signature_catalog(reported, build(lattice))


def custom_catalog(context: PropertyContext) -> Catalog:
    """Classify a caller-supplied context exhaustively.  Every filter of a
    chain is principal and realized, so a chain has no empty labels."""
    return _signature_catalog("chain" if context.is_chain() else "custom",
                              context)


def catalog_cover_check(catalog: Catalog) -> dict:
    """Compare the union of all realized type sets with all partitions."""
    lattice = catalog.lattice
    covered = 0
    for d in catalog.classes:
        covered |= d.type_mask()
    uncovered = lattice.full_mask & ~covered
    return {
        "covers_all": uncovered == 0,
        "covered_count": covered.bit_count(),
        "partition_count": len(lattice),
        "uncovered": [str(lattice.partitions[i]) for i in bits(uncovered)],
        "covered_equals_context_union":
            covered == catalog.context.covered_mask(),
    }


def catalog_json(catalog: Catalog) -> Iterator[str]:
    """The catalog as indented JSON, in chunks whose concatenation is
    ``json.dumps(document, ensure_ascii=False, indent=2)``.

    Everything but the empty labels is one ``json.dumps`` call.  The empty
    labels, up to 2^21 of them, follow ``LABEL_BATCH`` to a chunk, each
    name encoded by ``encode_basestring`` as ``json.dumps`` encodes it, so
    the whole document is never held in memory.
    """
    records = []
    for d in catalog.classes:
        records.append({
            "label": d.label.minimal_names(),
            "witness": str(d.witness) if d.witness is not None else None,
            "type_set": [str(p) for p in d.types],
            "state_shape": _shape_summary(d),
        })
    head = json.dumps({
        "kind": catalog.kind,
        "n": catalog.lattice.n,
        "context_size": len(catalog.context),
        "class_count": len(catalog.classes),
        "empty_label_count": len(catalog.empties),
        "exhaustive": catalog.exhaustive,
        "classes": records,
        "empty_labels": [],
    }, ensure_ascii=False, indent=2)
    if not catalog.empties:
        yield head
        return
    yield head[:-len("[]\n}")]  # reopen the trailing "empty_labels": []
    labels = iter(catalog.empties)
    sep = ",\n    "
    opening = "[\n    "
    while batch := [encode_basestring(str(f))
                    for f in islice(labels, LABEL_BATCH)]:
        yield opening + sep.join(batch)
        opening = sep
    yield "\n  ]\n}"


def catalog_text(catalog: Catalog) -> str:
    rows = [("label", "witness", "type_set", "state_shape")]
    for d in catalog.classes:
        rows.append((
            str(d.label),
            str(d.witness) if d.witness is not None else "-",
            ", ".join(str(p) for p in d.types),
            _shape_summary(d),
        ))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    header = (f"{catalog.kind} classification, n={catalog.lattice.n}: "
              f"{len(catalog.classes)} classes, "
              f"{len(catalog.empties)} empty labels"
              f"{' (exhaustive)' if catalog.exhaustive else ''}")
    return "\n".join([header, ""] + lines)
