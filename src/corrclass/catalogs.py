"""One-call generators for the worked classifications.

Each catalog fixes a property context, decides which labels are realized,
and returns the nonempty classes together with the labels proved empty
(within the enumerated scope).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from .classify import (EXHAUSTIVE_CONTEXT_MAX, ClassDescriptor, Filter,
                       class_exists, class_mask, describe_class,
                       enumerate_filters, signature_groups)
from .ideals import (PropertyContext, atom_context, coatom_context,
                     enumerate_ideals, full_context, k_partitionability_context,
                     k_producibility_context)
from .partitions import PartitionLattice, enumerate_partitions, state_shape
from .poset import CapExceeded, bits

ANTICHAIN_FILTER_CAP = 1 << 21


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
                       cap: int | None = None) -> Catalog:
    """Classify a context signature-first: each signature group is a class.

    ``order(label, types)`` gives the sort key of the class with member
    mask ``label`` and type mask ``types``.  Each class's algebraic verdict,
    witness, type set and class mask are checked against its group; when
    the context is small enough (or a chain, whose labels are all
    principal), every other filter is listed as empty and must get a false
    verdict.
    """
    if cap is not None and 2 ** len(context) > cap:
        raise CapExceeded(
            f"{2 ** len(context)} filters exceed the cap of {cap}")
    groups = signature_groups(context)
    classes: list[ClassDescriptor] = []
    discrepancies: list[dict] = []
    first_with_mask: dict[int, str] = {}
    for label, group in sorted(groups.items(), key=lambda g: order(*g)):
        d = describe_class(Filter(context, label))
        name = str(d.label)
        if not d.exists:
            discrepancies.append({"kind": "existence", "label": name,
                                  "exists": False, "realized": True})
        elif d.witness not in d.types:
            discrepancies.append({"kind": "witness", "label": name,
                                  "witness": str(d.witness)})
        if d.type_mask() != group:
            discrepancies.append({"kind": "type_set", "label": name})
        other = first_with_mask.setdefault(class_mask(d.label), name)
        if other != name:
            discrepancies.append({"kind": "equality",
                                  "labels": [other, name]})
        classes.append(d)
    empties: list[Filter] = []
    exhaustive = (len(context) <= EXHAUSTIVE_CONTEXT_MAX
                  or context.is_chain())
    if exhaustive:
        for f in enumerate_filters(context, max_context=len(context)):
            if f.members in groups:
                continue
            if class_exists(f).exists:
                discrepancies.append({"kind": "existence", "label": str(f),
                                      "exists": True, "realized": False})
            empties.append(f)
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
    return _signature_catalog("finest", full_context(universe), _lowest_type)


def chain_catalog(context: PropertyContext) -> Catalog:
    """Classify against a chain of properties: one class per chain element.

    Every filter of a chain is principal and realized, so the scope is
    exhaustive and no label is empty.
    """
    if not context.is_chain():
        raise ValueError("context is not a chain")
    return _signature_catalog("chain", context, _descending_size)


def atom_antichain_catalog(n: int,
                           lattice: PartitionLattice | None = None,
                           cap: int = ANTICHAIN_FILTER_CAP) -> Catalog:
    """Classify against the principal ideals of the (n-1)-part partitions."""
    lattice = lattice if lattice is not None else enumerate_partitions(n)
    context = atom_context(lattice)
    return _signature_catalog("atoms", context, _upsets_order(context), cap)


def coatom_antichain_catalog(n: int,
                             lattice: PartitionLattice | None = None,
                             cap: int = ANTICHAIN_FILTER_CAP) -> Catalog:
    """Classify against the principal ideals of the bipartitions.

    No closed form: every filter is checked one by one.
    """
    lattice = lattice if lattice is not None else enumerate_partitions(n)
    context = coatom_context(lattice)
    return _signature_catalog("coatoms", context, _upsets_order(context), cap)


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
    return _signature_catalog("custom", context, _upsets_order(context),
                              ANTICHAIN_FILTER_CAP)


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


def catalog_json(catalog: Catalog) -> str:
    records = []
    for d in catalog.classes:
        records.append({
            "label": [str(i) for i in d.label.minimal_ideals()],
            "witness": str(d.witness) if d.witness is not None else None,
            "type_set": [str(p) for p in d.types],
            "state_shape": _shape_summary(d),
        })
    return json.dumps({
        "kind": catalog.kind,
        "n": catalog.lattice.n,
        "context_size": len(catalog.context),
        "class_count": len(catalog.classes),
        "empty_label_count": len(catalog.empties),
        "exhaustive": catalog.exhaustive,
        "classes": records,
        "empty_labels": [str(f) for f in catalog.empties],
    }, ensure_ascii=False, indent=2)


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
