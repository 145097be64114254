"""One-call generators for the worked classifications.

Each catalog fixes a property context, decides which labels are realized,
and returns the nonempty classes together with the labels proved empty
(within the enumerated scope).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .classify import (ClassDescriptor, Filter, class_exists,
                       describe_class, enumerate_filters, make_filter,
                       signature_groups)
from .ideals import (IdealPoset, PropertyContext, atom_context, coatom_context,
                     enumerate_ideals, full_context, k_partitionability_context,
                     k_producibility_context, principal_ideal)
from .partitions import (PartitionLattice, enumerate_partitions, shape_string,
                         state_shape)
from .poset import CapExceeded, bits

EXHAUSTIVE_FILTER_SCOPE = 25  # enumerate all filters only below 2^25 labels
ANTICHAIN_FILTER_CAP = 1 << 21


@dataclass
class Catalog:
    """The outcome of classifying one property context."""
    kind: str
    context: PropertyContext
    classes: list[ClassDescriptor]
    empties: list[Filter]
    exhaustive: bool  # whether every filter of the context was examined
    notes: dict = field(default_factory=dict)
    # labels on which the algebraic verdict and the signature oracle differ
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def lattice(self) -> PartitionLattice:
        return self.context.lattice


def _shape_summary(d: ClassDescriptor) -> str:
    shapes = sorted({p.shape() for p in d.types}, reverse=True)
    return ", ".join(state_shape(s) for s in shapes) if shapes else "-"


def finest_catalog(n: int,
                   ideal_poset: IdealPoset | None = None) -> Catalog:
    """Classify against all properties at once: one class per partition.

    Requires the full ideal poset, hence small n.  When the context is
    small enough, every filter is enumerated and the rest are proved
    empty; otherwise only the principal labels are examined.
    """
    lattice = (ideal_poset.lattice if ideal_poset is not None
               else enumerate_partitions(n))
    ip = ideal_poset if ideal_poset is not None else enumerate_ideals(lattice)
    context = full_context(ip)
    class_labels = []
    for xi in lattice.partitions:
        class_labels.append(make_filter(context, [principal_ideal(lattice, xi)]))
    classes = [describe_class(f) for f in class_labels]
    label_masks = {f.members for f in class_labels}
    empties: list[Filter] = []
    exhaustive = len(context) <= EXHAUSTIVE_FILTER_SCOPE
    if exhaustive:
        for f in enumerate_filters(context):
            if f.members not in label_masks:
                empties.append(f)
    return Catalog("finest", context, classes, empties, exhaustive)


def chain_catalog(context: PropertyContext) -> Catalog:
    """Classify against a chain of properties: one class per chain element.

    Every filter of a chain is principal, so the scope is exhaustive by
    construction.
    """
    if not context.is_chain():
        raise ValueError("context is not a chain")
    order = sorted(range(len(context)),
                   key=lambda i: context.poset.below[i].bit_count())
    classes = [describe_class(make_filter(context, [i])) for i in order]
    return Catalog("chain", context, classes, [], True)


def _antichain_style_catalog(kind: str, context: PropertyContext,
                             cap: int) -> Catalog:
    """Decide every label from the signature groups, in filter order.

    Each label's algebraic verdict is compared with the signature lookup,
    and each realized label's type set with its signature group.
    """
    if 2 ** len(context) > cap:
        raise CapExceeded(
            f"{2 ** len(context)} filters exceed the cap of {cap}")
    groups = signature_groups(context)
    classes: list[ClassDescriptor] = []
    empties: list[Filter] = []
    discrepancies: list[dict] = []
    for f in enumerate_filters(context, max_context=len(context)):
        group = groups.get(f.members)
        exists = class_exists(f).exists
        if exists != (group is not None):
            discrepancies.append({"kind": "existence", "label": str(f),
                                  "exists": exists,
                                  "realized": group is not None})
        if group is None:
            empties.append(f)
            continue
        d = describe_class(f)
        if d.type_mask() != group:
            discrepancies.append({"kind": "type_set", "label": str(f)})
        classes.append(d)
    return Catalog(kind, context, classes, empties, True,
                   discrepancies=discrepancies)


def atom_antichain_catalog(n: int,
                           lattice: PartitionLattice | None = None,
                           cap: int = ANTICHAIN_FILTER_CAP) -> Catalog:
    """Classify against the principal ideals of the (n-1)-part partitions."""
    lattice = lattice if lattice is not None else enumerate_partitions(n)
    return _antichain_style_catalog("atoms", atom_context(lattice), cap)


def coatom_antichain_catalog(n: int,
                             lattice: PartitionLattice | None = None,
                             cap: int = ANTICHAIN_FILTER_CAP) -> Catalog:
    """Classify against the principal ideals of the bipartitions.

    No closed form: every filter is checked one by one.
    """
    lattice = lattice if lattice is not None else enumerate_partitions(n)
    return _antichain_style_catalog("coatoms", coatom_context(lattice), cap)


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
    return _antichain_style_catalog("custom", context, ANTICHAIN_FILTER_CAP)


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
