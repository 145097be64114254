"""One-call generators for the worked classifications.

Each catalog fixes a property context, walks its labels once to decide
which are realized, and returns the nonempty classes together with the
minimal masks of the labels proved empty (within the enumerated scope),
which every writer reads.  A class's types are its signature group; no
catalog runs the label-by-label ``type_set`` oracle.
"""

from __future__ import annotations

import json
from array import array
from itertools import islice
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, Sequence

# enumerate_filters is not called here: perfbench/test_perfbench.py checks
# that the tracer wraps it in this namespace too.
from .classify import (EXHAUSTIVE_CONTEXT_MAX, ClassDescriptor, Filter,
                       class_exists, cross_check, describe_class, enumerable,
                       enumerate_filters, label_name, label_walk,
                       signature_groups)
from .ideals import (PropertyContext, _byte_table, atom_context,
                     coatom_context, enumerate_ideals,
                     k_partitionability_context, k_producibility_context)
from .partitions import PartitionLattice, shape_string, state_shape
from .poset import bits

LABEL_BATCH = 512  # empty labels per chunk of catalog_json and catalog_jsonl
_encode_line = json.JSONEncoder(ensure_ascii=False).encode  # JSON lines


class Catalog:
    """The outcome of classifying one property context.

    ``empties`` holds the minimal mask of each label that no partition
    realizes, in walk order: ``context.names_of`` names the label from it
    and ``poset.up_closure`` rebuilds it, ORing one memoized union of
    ``above`` rows per nonzero byte of the mask.
    """

    __slots__ = ("kind", "context", "classes", "empties", "exhaustive",
                 "discrepancies")

    def __init__(self, kind: str, context: PropertyContext,
                 classes: list[ClassDescriptor], empties: Sequence[int],
                 exhaustive: bool, discrepancies: list[dict]):
        self.kind = kind
        self.context = context
        self.classes = classes
        self.empties = empties
        self.exhaustive = exhaustive  # whether every filter was examined
        # labels on which the algebraic tests and the signature oracle
        # disagree
        self.discrepancies = discrepancies


def _rendered(d: ClassDescriptor) -> tuple[str | None, list[str]]:
    """A record's witness name (``None`` if it has none) and its types'
    names: the one place where a verdict's masks become names."""
    lattice = d.label.context.lattice
    witness = None if d.witness is None else lattice.names(1 << d.witness)[0]
    return witness, lattice.names(d.types)


def _shapes(d: ClassDescriptor, display: Callable) -> str:
    """The distinct shapes of a record's types, largest first, each shown
    by ``display``."""
    shape = d.label.context.lattice.shape
    return ", ".join(map(display, sorted({shape(i) for i in bits(d.types)},
                                         reverse=True)))


# Each built-in context kind: its context builder and the kind its catalog
# reports, which fixes the class order and whether empty labels are listed.
KINDS: dict[str, tuple[Callable[[PartitionLattice], PropertyContext], str]] = {
    "full": (enumerate_ideals, "finest"),
    "k_part": (k_partitionability_context, "chain"),
    "k_prod": (k_producibility_context, "chain"),
    "atoms": (atom_context, "atoms"),
    "coatoms": (coatom_context, "coatoms"),
}


def signature_catalog(kind: str, context: PropertyContext) -> Catalog:
    """Classify a context signature-first: each signature group is a class.

    The reported ``kind`` orders the classes: ``finest`` by lowest type
    (one class per partition), ``chain`` by descending label size, any
    other in the order in which ``upsets`` emits labels.  Every other
    label is empty: the catalog walks every label once
    (:func:`classify.label_walk` refuses a context too large for that
    before any label is walked) and keeps each empty one's minimal mask,
    in walk order, except that ``finest`` walks none when its context is
    too large.  Each walked label's class mask is compared with its
    signature group (empty for an empty label): a label on which they
    agree gets no record, and any other gets its
    :func:`classify.class_exists` record from the walked mask.
    :func:`classify.cross_check` holds each class's and each such record's
    verdict, class mask and witness to its group.
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
    classes = [describe_class(Filter(context, label), types)
               for label, types in sorted(groups.items(), key=order)]
    # Typecode "I" (4 bytes a label, at most 8 MB under the cap) holds every
    # minimal mask appended here: a non-chain context is walked only with
    # <= 21 ideals, a chain has no empty labels, and a non-exhaustive
    # finest catalog walks nothing.  Widen it if wider contexts are walked.
    empties = array("I")
    disagreeing: list[ClassDescriptor] = []  # walked mask is not the group
    if exhaustive:
        for members, mins, mask in label_walk(context):
            group = groups.get(members, 0)
            if not group:
                empties.append(mins)
            if mask != group:
                disagreeing.append(class_exists(
                    Filter._walked(context, members, mask)))
    discrepancies = cross_check(groups, classes + disagreeing)
    return Catalog(kind, context, classes, empties, exhaustive, discrepancies)


def catalog_for(kind: str, lattice: PartitionLattice) -> Catalog:
    """Classify the built-in context ``kind`` (a key of ``KINDS``)."""
    if kind not in KINDS:
        raise ValueError(f"unknown context kind {kind!r}")
    build, reported = KINDS[kind]
    return signature_catalog(reported, build(lattice))


def custom_catalog(context: PropertyContext) -> Catalog:
    """Classify a caller-supplied context exhaustively.  Every filter of a
    chain is principal and realized, so a chain has no empty labels."""
    return signature_catalog("chain" if context.is_chain() else "custom",
                             context)


def _named_batches(context: PropertyContext, masks: Iterable[int],
                   head: str, sep: str, tail: str,
                   single: Callable[[str], str]) -> Iterator[list[str]]:
    """Each mask's label text, ``LABEL_BATCH`` to a list: ``head``, its
    ideals' names as ``encode_basestring`` writes them between the quotes,
    by ascending index and joined by ``sep``, then ``tail``; a one-name
    mask's text is ``single`` of its name.

    Reads each mask 8 bits at a time, over the context's runs of 8 ideals,
    from tables that map a byte to its ideals' names
    already joined, each preceded by ``sep``: a label's text is one lookup
    per run, concatenated, with the leading ``sep`` cut (every label has
    an ideal).  The expression reads three runs, all that the walk's cap
    allows; a run past a smaller context's last is empty, and its table
    is ``("",)``.  The tables are built once, when the first batch is
    asked for, and belong to this generator alone.
    """
    names = [encode_basestring(str(ideal))[1:-1] for ideal in context.ideals]
    if len(names) > 24:
        raise ValueError(
            f"the label namer reads at most 3 runs of 8 ideals, not"
            f" {len(names)} ideals (EXHAUSTIVE_CONTEXT_MAX ="
            f" {EXHAUSTIVE_CONTEXT_MAX})")
    low, mid, high = [
        _byte_table(names[start:start + 8], "",
                    lambda text, name: text + sep + name)
        for start in range(0, 24, 8)]
    singles = {1 << i: single(name) for i, name in enumerate(names)}
    cut = len(sep)
    masks = iter(masks)
    while batch := [
            head + (low[m & 255] + mid[m >> 8 & 255] + high[m >> 16])[cut:]
            + tail if m & m - 1 else singles[m]
            for m in islice(masks, LABEL_BATCH)]:
        yield batch


def catalog_json(catalog: Catalog) -> Iterator[str]:
    """The catalog as indented JSON, in chunks whose concatenation is
    ``json.dumps(document, ensure_ascii=False, indent=2)``.

    Everything but the empty labels is one ``json.dumps`` call.  The empty
    labels, up to 2^21 of them, follow ``LABEL_BATCH`` to a chunk, each
    named from its ideals' escaped names (:func:`_named_batches`), so the
    whole document is never held in memory.
    """
    records = []
    for d in catalog.classes:
        witness, types = _rendered(d)
        records.append({
            "label": d.label.minimal_names(),
            "witness": witness,
            "type_set": types,
            "state_shape": _shapes(d, state_shape) or "-",
        })
    head = json.dumps({
        "kind": catalog.kind,
        "n": catalog.context.lattice.n,
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
    # encode_basestring (ensure_ascii=False) escapes character by
    # character, so a label name encodes as label_name over the escaped
    # names: "↑{", ", " and "}" need no escaping.
    head, tail = f'"{label_name(["@"])}"'.split("@")
    sep = ",\n    "
    opening = "[\n    "
    for batch in _named_batches(catalog.context, catalog.empties, head, ", ",
                                tail, lambda name: head + name + tail):
        yield opening + sep.join(batch)
        opening = sep
    yield "\n  ]\n}"


def _record(names: list[str], exists: bool, witness: str | None,
            types: list[str]) -> dict:
    """A label's JSON-lines record: the one definition of its keys."""
    return {
        "label": names,
        "exists": exists,
        "witness": witness,
        "type_set": types,
        "canonical_generator": names[0] if len(names) == 1 else None,
    }


def class_record(d: ClassDescriptor) -> dict:
    """One JSON-ready record per filter for the report stream."""
    return _record(d.label.minimal_names(), d.exists, *_rendered(d))


def class_report_jsonl(
        descriptors: Iterable[ClassDescriptor]) -> Iterator[str]:
    """One JSON line per descriptor, newline included, as it is consumed."""
    for d in descriptors:
        yield _encode_line(class_record(d)) + "\n"


def catalog_jsonl(catalog: Catalog) -> Iterator[str]:
    """The catalog as JSON lines: each class, then each empty label.

    An empty label's record is its signature group's, which is empty: its
    names, no witness and no types.  The catalog held the label's verdict
    to that group, so the record is written from the label's minimal mask
    alone: its escaped names (:func:`_named_batches`) go into a template
    cut from :func:`_record`'s own encoding, one form for a label of one
    name (its ``canonical_generator``) and one for several (``null``).
    The empty lines follow ``LABEL_BATCH`` to a chunk.
    """
    yield from class_report_jsonl(catalog.classes)
    if not catalog.empties:
        return
    # "@" encodes as itself and is in no key, so each cut is at a name
    head, middle, tail = _encode_line(
        _record(["@"], False, None, [])).split("@")
    many_head, sep, many_tail = _encode_line(
        _record(["@", "@"], False, None, [])).split("@")
    for batch in _named_batches(
            catalog.context, catalog.empties, many_head, sep,
            many_tail + "\n",
            lambda name: head + name + middle + name + tail + "\n"):
        yield "".join(batch)


def _heading(catalog: Catalog) -> str:
    return (f"{catalog.kind} classification, n={catalog.context.lattice.n}:"
            f" {len(catalog.classes)} classes")


def catalog_text(catalog: Catalog) -> str:
    rows = [("label", "witness", "type_set", "state_shape")]
    for d in catalog.classes:
        witness, types = _rendered(d)
        rows.append((
            str(d.label),
            witness or "-",
            ", ".join(types),
            _shapes(d, state_shape) or "-",
        ))
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    # a catalog that walked no labels has no count of its empty ones
    empties = (f"{len(catalog.empties)} empty labels (exhaustive)"
               if catalog.exhaustive else "empty labels not counted")
    return "\n".join([f"{_heading(catalog)}, {empties}", ""] + lines)


def catalog_letters(catalog: Catalog) -> str:
    """The classes with their types collapsed to orbit shapes (ab|c)."""
    return "\n".join([_heading(catalog)] + [
        f"  {d.label}  ->  {{{_shapes(d, shape_string)}}}"
        for d in catalog.classes])
