"""One-call generators for the worked classifications.

Each catalog fixes a property context, decides which labels are realized,
and returns the nonempty classes together with the labels proved empty
(within the enumerated scope).  A class's types are its signature group;
no catalog runs the label-by-label ``type_set`` oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring
from typing import Any, Callable, Iterator

from .classify import (ClassDescriptor, Filter, cross_check, describe_class,
                       enumerable, enumerate_filters, signature_groups)
from .ideals import (PropertyContext, atom_context, coatom_context,
                     enumerate_ideals, full_context, k_partitionability_context,
                     k_producibility_context)
from .partitions import PartitionLattice, enumerate_partitions, state_shape
from .poset import bits

LABEL_BATCH = 512  # empty labels per chunk of catalog_json


@dataclass
class Catalog:
    """The outcome of classifying one property context."""
    kind: str
    context: PropertyContext
    classes: list[ClassDescriptor]
    empties: list[Filter]
    exhaustive: bool  # whether every filter of the context was examined
    # labels on which the algebraic tests and the signature oracle disagree
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def lattice(self) -> PartitionLattice:
        return self.context.lattice


def _shape_summary(d: ClassDescriptor) -> str:
    shapes = sorted({p.shape() for p in d.types}, reverse=True)
    return ", ".join(state_shape(s) for s in shapes) if shapes else "-"


def _signature_catalog(kind: str, context: PropertyContext,
                       order: Callable[[int, int], Any],
                       exhaustive: bool = True) -> Catalog:
    """Classify a context signature-first: each signature group is a class.

    ``order(label, types)`` gives the sort key of the class with member
    mask ``label`` and type mask ``types``; the class's types are those of
    its group.  When ``exhaustive``, every other filter is listed as empty
    (``enumerate_filters`` refuses a context too large for that before any
    label is described).  :func:`classify.cross_check` holds each label's
    verdict, class mask and witness to its group.
    """
    groups = signature_groups(context)
    empties = ([f for f in enumerate_filters(context)
                if f.members not in groups] if exhaustive else [])
    to_partitions = context.lattice.mask_to_partitions
    classes = [describe_class(Filter(context, label), to_partitions(types))
               for label, types in sorted(groups.items(),
                                          key=lambda g: order(*g))]
    discrepancies = cross_check(groups, chain(
        classes, (describe_class(f, ()) for f in empties)))
    return Catalog(kind, context, classes, empties, exhaustive,
                   discrepancies=discrepancies)


def _lowest_type(label: int, types: int) -> int:
    return types & -types


def _descending_size(label: int, types: int) -> int:
    return -label.bit_count()


def _upsets_order(context: PropertyContext):
    """Sort key reproducing the order in which ``upsets`` emits labels."""
    elements = context.poset.upset_order()
    return lambda label, types: [label >> e & 1 for e in elements]


def finest_catalog(n: int,
                   universe: PropertyContext | None = None) -> Catalog:
    """Classify against all properties at once: one class per partition.

    Requires the full ideal universe, hence small n.  When the context is
    small enough, every other filter is listed as empty; otherwise only
    the classes are reported.
    """
    if universe is None:
        universe = enumerate_ideals(enumerate_partitions(n))
    context = full_context(universe)
    return _signature_catalog("finest", context, _lowest_type,
                              exhaustive=enumerable(context))


def chain_catalog(context: PropertyContext) -> Catalog:
    """Classify against a chain of properties: one class per chain element.

    Every filter of a chain is principal and realized, so the scope is
    exhaustive and no label is empty.
    """
    if not context.is_chain():
        raise ValueError("context is not a chain")
    return _signature_catalog("chain", context, _descending_size)


def atom_antichain_catalog(n: int,
                           lattice: PartitionLattice | None = None) -> Catalog:
    """Classify against the principal ideals of the (n-1)-part partitions."""
    lattice = lattice if lattice is not None else enumerate_partitions(n)
    context = atom_context(lattice)
    return _signature_catalog("atoms", context, _upsets_order(context))


def coatom_antichain_catalog(n: int,
                             lattice: PartitionLattice | None = None) -> Catalog:
    """Classify against the principal ideals of the bipartitions.

    The partition lattice is coatomistic, so the classes have a closed
    form: one per partition below the top, realized by it alone.  The
    classes come from the signature groups; the walk over every label
    lists the empty ones.
    """
    lattice = lattice if lattice is not None else enumerate_partitions(n)
    context = coatom_context(lattice)
    return _signature_catalog("coatoms", context, _upsets_order(context))


def catalog_for(kind: str, n: int,
                lattice: PartitionLattice | None = None) -> Catalog:
    """Dispatch by context kind: full, k_part, k_prod, atoms, coatoms."""
    lattice = lattice if lattice is not None else enumerate_partitions(n)
    if kind == "full":
        return finest_catalog(n, enumerate_ideals(lattice))
    if kind == "k_part":
        return chain_catalog(k_partitionability_context(lattice))
    if kind == "k_prod":
        return chain_catalog(k_producibility_context(lattice))
    if kind == "atoms":
        return atom_antichain_catalog(n, lattice)
    if kind == "coatoms":
        return coatom_antichain_catalog(n, lattice)
    raise ValueError(f"unknown context kind {kind!r}")


def custom_catalog(context: PropertyContext) -> Catalog:
    """Classify a caller-supplied context exhaustively."""
    if context.is_chain():
        return chain_catalog(context)
    return _signature_catalog("custom", context, _upsets_order(context))


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
    empties = catalog.empties
    if not empties:
        yield head
        return
    yield head[:-len("[]\n}")]  # reopen the trailing "empty_labels": []
    sep = ",\n    "
    for start in range(0, len(empties), LABEL_BATCH):
        batch = empties[start:start + LABEL_BATCH]
        yield (sep if start else "[\n    ") + sep.join(
            [encode_basestring(str(f)) for f in batch])
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
