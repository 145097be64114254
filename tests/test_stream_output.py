"""The streamed writers: ``catalog_json`` and ``class_report_jsonl``.

``catalog_json`` yields chunks; joined, they must be exactly the
``json.dumps(..., ensure_ascii=False, indent=2)`` of the catalog document,
which the reference below builds from scratch, naming every label through
its minimal ``Ideal`` objects rather than the context's name tuple.
"""

import hashlib
import json
import tracemalloc
from functools import lru_cache
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from corrclass import catalogs
from corrclass.catalogs import (catalog_for, catalog_json,
                                class_report_jsonl, custom_catalog)
from corrclass.classify import Filter, describe_class, enumerate_filters
from corrclass.ideals import PropertyContext, ideal_from_generators
from corrclass.partitions import enumerate_partitions, state_shape
from corrclass.poset import bits

# sha256 of `corrclass classify --n 6 --context atoms --output json` stdout
ATOMS_6_SHA256 = ("bdda89e7f568abdb1b4fe77a42ae2c76398075dfe4622dc87067c3f"
                  "b8085a094")


def label_name(f) -> str:
    return "↑{" + ", ".join(str(i) for i in f.minimal_ideals()) + "}"


def empty_label_name(catalog, mins) -> str:
    """An empty label's name, from the label rebuilt from its minimal mask."""
    context = catalog.context
    return label_name(Filter(context, context.poset.up_closure(mins)))


def reference_class(catalog, d) -> dict:
    """A class's record, its partitions read off the lattice by index."""
    partitions = catalog.lattice.partitions
    types = [partitions[i] for i in bits(d.types)]
    shapes = sorted({p.shape() for p in types}, reverse=True)
    return {
        "label": [str(i) for i in d.label.minimal_ideals()],
        "witness": None if d.witness is None else str(partitions[d.witness]),
        "type_set": [str(p) for p in types],
        "state_shape": ", ".join(map(state_shape, shapes)) or "-",
    }


def reference_json(catalog) -> str:
    """The catalog document, serialised in one ``json.dumps`` call."""
    return json.dumps({
        "kind": catalog.kind,
        "n": catalog.lattice.n,
        "context_size": len(catalog.context),
        "class_count": len(catalog.classes),
        "empty_label_count": len(catalog.empties),
        "exhaustive": catalog.exhaustive,
        "classes": [reference_class(catalog, d) for d in catalog.classes],
        "empty_labels": [empty_label_name(catalog, mins)
                         for mins in catalog.empties],
    }, ensure_ascii=False, indent=2)


@lru_cache(maxsize=None)
def _lattice(n):
    return enumerate_partitions(n)


@st.composite
def custom_contexts(draw):
    """Up to 7 distinct ideals at n = 3..5, each generated by 1-3 types;
    chains included."""
    lattice = _lattice(draw(st.integers(3, 5)))
    generators = st.lists(st.integers(0, len(lattice) - 1),
                          min_size=1, max_size=3)
    ideals = draw(st.lists(
        generators.map(lambda gens: ideal_from_generators(lattice, gens)),
        min_size=1, max_size=7, unique=True))
    return PropertyContext(lattice, ideals)


@settings(max_examples=80, deadline=None)
@given(custom_contexts(), st.integers(1, 5))
def test_chunks_join_to_json_dumps(context, batch):
    catalog = custom_catalog(context)
    expected = reference_json(catalog)
    assert "".join(catalog_json(catalog)) == expected
    with mock.patch.object(catalogs, "LABEL_BATCH", batch):
        assert "".join(catalog_json(catalog)) == expected


def test_chain_catalog_has_no_empty_labels():
    catalog = catalog_for("k_part", enumerate_partitions(5))
    assert not catalog.empties
    text = "".join(catalog_json(catalog))
    assert text == reference_json(catalog)
    assert text.endswith('"empty_labels": []\n}')


def test_non_exhaustive_full_n4(ip4):
    catalog = catalog_for("full", ip4.lattice)
    assert not catalog.exhaustive
    assert "".join(catalog_json(catalog)) == reference_json(catalog)


def test_labels_come_in_bounded_batches():
    catalog = catalog_for("atoms", enumerate_partitions(5))
    chunks = list(catalog_json(catalog))
    head, *batches, tail = chunks
    assert len(catalog.empties) == 1012
    assert len(batches) == -(-1012 // catalogs.LABEL_BATCH)
    assert all(b.count("↑{") <= catalogs.LABEL_BATCH for b in batches)
    assert tail == "\n  ]\n}"
    assert "".join(chunks) == reference_json(catalog)


def test_atoms_n6_streams_in_bounded_memory():
    """From construction through the render, the catalog holds no empty
    label: it checks and names each one from the walk's masks, making no
    ``Filter`` for it.  A list of its 32 751 empty ``Filter``s alone takes
    about 4.4 MB, and the peak stays under a quarter of the 4 MB
    document."""
    lattice = enumerate_partitions(6)
    digest = hashlib.sha256()
    length = 0
    tracemalloc.start()
    try:
        catalog = catalog_for("atoms", lattice)
        for chunk in catalog_json(catalog):
            length += len(chunk)
            digest.update(chunk.encode("utf-8"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    digest.update(b"\n")  # the CLI ends the document with a newline
    assert digest.hexdigest() == ATOMS_6_SHA256
    assert peak < length / 4


def test_jsonl_yields_a_line_per_descriptor_consumed(ip3):
    consumed = []

    def descriptors():
        for f in enumerate_filters(ip3):
            consumed.append(f)
            yield describe_class(f, 0)

    lines = class_report_jsonl(descriptors())
    first = next(lines)
    assert len(consumed) == 1
    assert first.endswith("\n") and first.count("\n") == 1
    assert json.loads(first)["label"] == [
        str(i) for i in consumed[0].minimal_ideals()]
