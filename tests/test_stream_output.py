"""The streamed writers: ``catalog_json``, ``catalog_jsonl`` and
``class_report_jsonl``.

``catalog_json`` yields chunks; joined, they must be exactly the
``json.dumps(..., ensure_ascii=False, indent=2)`` of the catalog document,
which the reference below builds from scratch, naming every label through
its minimal ``Ideal`` objects rather than the context's name tuple.
``catalog_jsonl``'s empty lines must be exactly ``_encode_line`` of each
empty label's ``_record``, the encoding its class lines go through.
"""

import hashlib
import json
import tracemalloc
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrclass import catalogs, classify
from corrclass.catalogs import (_encode_line, _record, catalog_for,
                                catalog_json, catalog_jsonl,
                                class_report_jsonl, custom_catalog)
from corrclass.classify import (Filter, describe_class, enumerate_filters,
                                type_set)
from corrclass.ideals import (PropertyContext, enumerate_ideals,
                              ideal_from_generators, parse_ideal)
from corrclass.partitions import enumerate_partitions, state_shape
from corrclass.poset import Poset, bits

from partition_reference import partitions_of

# sha256 of `corrclass classify --n 6 --context atoms --output json` stdout
ATOMS_6_SHA256 = ("bdda89e7f568abdb1b4fe77a42ae2c76398075dfe4622dc87067c3f"
                  "b8085a094")
# the same with --output jsonl, recorded while each line went through
# _encode_line
ATOMS_6_JSONL_SHA256 = ("b0e29997a92e91e88b62f89519a70f2d70ed2cf7692940e9bb32"
                        "90c75b5cb79a")


def label_name(f) -> str:
    return "↑{" + ", ".join(str(i) for i in f.minimal_ideals()) + "}"


def empty_label_name(catalog, mins) -> str:
    """An empty label's name, from the label rebuilt from its minimal mask."""
    context = catalog.context
    return label_name(Filter(context, context.poset.up_closure(mins)))


def reference_class(catalog, d) -> dict:
    """A class's record, its partitions read off the lattice by index."""
    partitions = partitions_of(catalog.context.lattice)
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
        "n": catalog.context.lattice.n,
        "context_size": len(catalog.context),
        "class_count": len(catalog.classes),
        "empty_label_count": len(catalog.empties),
        "exhaustive": catalog.exhaustive,
        "classes": [reference_class(catalog, d) for d in catalog.classes],
        "empty_labels": [empty_label_name(catalog, mins)
                         for mins in catalog.empties],
    }, ensure_ascii=False, indent=2)


def reference_jsonl(catalog) -> str:
    """The class lines, then each empty label's ``_record`` encoded alone."""
    names_of = catalog.context.names_of
    return "".join(class_report_jsonl(catalog.classes)) + "".join(
        _encode_line(_record(names_of(mins), False, None, [])) + "\n"
        for mins in catalog.empties)


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


@settings(max_examples=80, deadline=None)
@given(custom_contexts(), st.integers(1, 5))
def test_jsonl_empty_lines_match_records(context, batch):
    catalog = custom_catalog(context)
    expected = reference_jsonl(catalog)
    assert "".join(catalog_jsonl(catalog)) == expected
    with mock.patch.object(catalogs, "LABEL_BATCH", batch):
        assert "".join(catalog_jsonl(catalog)) == expected


def test_names_that_need_escaping():
    """Ideals b, c, d, bc at n = 3, named with characters that JSON
    escapes.  The empty labels include ↑{b, c} and the one-name ↑{bc}:
    the types common to each label's ideals all lie in an ideal outside
    it."""
    lattice = _lattice(3)
    context = PropertyContext(lattice, [
        parse_ideal(lattice, spec)
        for spec in ("12|3", "13|2", "1|23", "12|3, 13|2")])
    names = ['quote " b', "back\\slash c", "new\nline d", "ctrl \x01 ↓ü"]
    for ideal, name in zip(context.ideals, names):
        ideal._str = name
    catalog = custom_catalog(context)
    labels = {tuple(context.names_of(mins)) for mins in catalog.empties}
    assert (names[3],) in labels and tuple(names[:2]) in labels
    assert "".join(catalog_json(catalog)) == reference_json(catalog)
    text = "".join(catalog_jsonl(catalog))
    assert text == reference_jsonl(catalog)
    records = [json.loads(line) for line in text.split("\n")[:-1]]
    assert {"label": [names[3]], "exists": False, "witness": None,
            "type_set": [], "canonical_generator": names[3]} in records


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
    # JSON lines: a chunk per class, then LABEL_BATCH empty lines a chunk
    chunks = list(catalog_jsonl(catalog))
    classes = chunks[:len(catalog.classes)]
    batches = chunks[len(catalog.classes):]
    assert all(c.count("\n") == 1 for c in classes)
    assert [b.count("\n") for b in batches] == [
        min(catalogs.LABEL_BATCH, 1012 - start)
        for start in range(0, 1012, catalogs.LABEL_BATCH)]
    assert "".join(chunks) == reference_jsonl(catalog)


def chain_with_pair(size, at):
    """A custom context of ``size`` ideals at n = 5: a chain, the
    down-closures of the first 1, 2, ... partitions of Π_5 by the size of
    their down-set, with ↓123|4|5, ↓1|2|345 and their union put at the
    indices ``at``.  The union's one-name label is empty (each of its
    types lies in one of the pair), and so are some chain ideals'."""
    lattice = _lattice(5)
    below = lattice.poset.below
    order = sorted(range(len(lattice)),
                   key=lambda i: (below[i].bit_count(), i))
    pair = [lattice.parse(spec)[0] for spec in ("123|4|5", "1|2|345")]
    extras = [ideal_from_generators(lattice, gens)
              for gens in (pair[:1], pair[1:], pair)]
    ideals = [ideal_from_generators(lattice, order[:k])
              for k in range(1, size - 2)]
    for index, ideal in zip(at, extras):
        ideals.insert(index, ideal)
    return PropertyContext(lattice, ideals)


def assert_named_as_references(catalog):
    """Both writers' output equals the references' at several batch
    sizes."""
    expected_json, expected_jsonl = (reference_json(catalog),
                                     reference_jsonl(catalog))
    for batch in (catalogs.LABEL_BATCH, 1, 2, 7):
        with mock.patch.object(catalogs, "LABEL_BATCH", batch):
            assert "".join(catalog_json(catalog)) == expected_json
            assert "".join(catalog_jsonl(catalog)) == expected_jsonl


@pytest.mark.parametrize("size, at, one_name_runs", [
    (16, (8, 9, 10), {1}),  # two runs of 8 ideals
    (21, (3, 12, 19), {1, 2}),  # three runs, the walk's cap
    (27, (5, 12, 26), {1, 3}),  # four runs, past the cap
])
def test_writers_name_labels_across_runs(size, at, one_name_runs,
                                         monkeypatch):
    monkeypatch.setattr(classify, "EXHAUSTIVE_CONTEXT_MAX", 30)
    context = chain_with_pair(size, at)
    assert len(context) == size
    catalog = custom_catalog(context)
    empties = list(catalog.empties)
    assert catalog.kind == "custom" and len(empties) < 100
    # labels of several names in later runs only, and of one name in each
    # run past the first
    assert any(m & 255 == 0 and m & m - 1 for m in empties)
    assert {(m.bit_length() - 1) // 8 for m in empties
            if not m & m - 1} >= one_name_runs
    assert_named_as_references(catalog)


def test_namer_reads_every_run():
    # 25 ideals, four runs of 8; two masks share their ideals past the
    # first run, so the second reads them from the memo
    context = chain_with_pair(25, (22, 23, 24))
    masks = [1 << 2 | 1 << 13 | 1 << 23 | 1 << 24, 1 << 24,
             1 << 5 | 1 << 13 | 1 << 23 | 1 << 24, 1 << 9 | 1 << 17, 1 << 3]
    batch, = catalogs._named_batches(context, masks, "<", "+", ">",
                                     lambda name: "1:" + name)
    assert batch == ["<" + "+".join(context.names_of(m)) + ">" if m & m - 1
                     else "1:" + context.names_of(m)[0] for m in masks]


def two_chains():
    """30 ideals at n = 6 in two incomparable chains of 15: the down-sets
    grown, by the size of each partition's down-set, from the atom
    12|3|4|5|6 through the partitions not above 1|2|3|4|56, and from
    1|2|3|4|56 through those not above 12|3|4|5|6."""
    lattice = _lattice(6)
    below, above = lattice.poset.below, lattice.poset.above

    def chain(atom, other):
        a, b = (lattice.parse(spec)[0] for spec in (atom, other))
        order = sorted((i for i in range(len(lattice))
                        if i != a and not above[b] >> i & 1),
                       key=lambda i: (below[i].bit_count(), i))
        order.insert(1, a)  # after the bottom
        return [ideal_from_generators(lattice, order[:k])
                for k in range(2, 17)]

    return PropertyContext(lattice, chain("12|3|4|5|6", "1|2|3|4|56")
                           + chain("1|2|3|4|56", "12|3|4|5|6"))


def test_writers_name_a_context_of_thirty_ideals(monkeypatch):
    """Four runs of 8 ideals: (15 + 1)^2 - 1 labels, named by the writers
    as the references name them, each checked by the oracle through
    ``split``'s four tables."""
    monkeypatch.setattr(classify, "EXHAUSTIVE_CONTEXT_MAX", 30)
    context = two_chains()
    assert len(context) == 30
    catalog = custom_catalog(context)
    assert catalog.kind == "custom" and not catalog.discrepancies
    assert (len(catalog.classes), len(catalog.empties)) == (18, 237)
    assert {(m.bit_length() - 1) // 8 for m in catalog.empties} == {
        0, 1, 2, 3}
    assert_named_as_references(catalog)
    for d in catalog.classes:
        assert type_set(context.split(d.label.members)) == d.types
    for mins in catalog.empties:
        assert type_set(context.split(context.poset.up_closure(mins))) == 0


def test_full_n4_up_closure_memo_is_sparse(lat4):
    # the 346-element context's closure memo holds rows only for the bytes
    # its closures read, not 255 per run of 8 elements
    context = enumerate_ideals(lat4)
    assert len(context) == 346
    with mock.patch.object(Poset, "up_closure", autospec=True,
                           side_effect=Poset.up_closure) as closures:
        catalog = catalogs.signature_catalog(catalogs.KINDS["full"][1],
                                             context)
    assert catalog.classes and closures.call_count
    runs = -(-len(context) // 8)
    assert 0 < len(context.poset._up_rows) <= closures.call_count * runs


def test_full_n4_down_closure_memo_is_lazy_and_sparse(lat4):
    # the 346-element context's down-closure memo is made by its first
    # down-closure, and holds rows only for the bytes its closures read
    poset = enumerate_ideals(lat4).poset
    assert poset._down_rows is None
    picked = range(0, len(poset), 9)
    for i in picked:
        q = 1 << i | 1 << len(poset) - 1 - i
        expected = 0
        for y in bits(q):
            expected |= poset.below[y]
        assert poset.down_closure(q) == expected
    runs = -(-len(poset) // 8)
    assert 0 < len(poset._down_rows) <= len(picked) * runs < 255 * runs


def test_atoms_n6_streams_in_bounded_memory():
    """From construction through the render, the catalog holds each empty
    label as its 4-byte minimal mask alone: it checks and names each one
    from the walk's masks, making no ``Filter`` for it.  Its 32 751 masks
    take about 0.13 MB, a list of as many ``Filter``s about 4.4 MB, and
    the peak stays under a quarter of the 4 MB document."""
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


def test_atoms_n6_jsonl_streams_in_bounded_memory():
    """As the JSON render: the empty lines are written a batch at a time,
    so the peak stays under a quarter of the 7 MB of lines."""
    lattice = enumerate_partitions(6)
    digest = hashlib.sha256()
    length = 0
    tracemalloc.start()
    try:
        catalog = catalog_for("atoms", lattice)
        for chunk in catalog_jsonl(catalog):
            length += len(chunk)
            digest.update(chunk.encode("utf-8"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest.hexdigest() == ATOMS_6_JSONL_SHA256
    assert peak < length / 4


def test_atoms_n6_catalog_builds_no_mask_tables():
    """A catalog runs no ``type_set`` and no lemma, so its context builds
    none of the byte tables they read (``PropertyContext.split``)."""
    catalog = catalog_for("atoms", enumerate_partitions(6))
    for _ in catalog_json(catalog):
        pass
    assert catalog.context._mask_tables is None


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
