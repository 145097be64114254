import json

import pytest

from corrclass import classify
from corrclass.catalogs import (KINDS, Catalog, catalog_for, catalog_json,
                                catalog_jsonl, catalog_text, custom_catalog)
from corrclass.classify import (ClassDescriptor, Filter, enumerate_filters,
                                signature_groups, type_set)
from corrclass.ideals import PropertyContext, coatom_context, principal_ideal
from corrclass.partitions import Partition, bell_number, enumerate_partitions
from corrclass.poset import CapExceeded


def covered_mask(catalog):
    """The partitions some class realizes: the OR of the type masks."""
    out = 0
    for d in catalog.classes:
        out |= d.types
    return out


def types_of(catalog, d):
    """The types of one of the catalog's classes, as partitions."""
    return catalog.lattice.mask_to_partitions(d.types)


def empty_filters(catalog):
    """The catalog's empty labels, each rebuilt from its minimal mask."""
    context = catalog.context
    return [Filter(context, context.poset.up_closure(mins))
            for mins in catalog.empties]


class TestFinest:
    def test_one_class_per_partition(self, lat3):
        cat = catalog_for("full", lat3)
        assert cat.kind == "finest"
        assert cat.exhaustive
        assert len(cat.classes) == 5
        assert len(cat.empties) == 15
        types = {types_of(cat, d) for d in cat.classes}
        assert types == {(p,) for p in cat.lattice.partitions}

    def test_all_classes_nonempty(self, lat3):
        cat = catalog_for("full", lat3)
        assert all(d.exists for d in cat.classes)

    def test_empties_really_empty(self, lat3):
        cat = catalog_for("full", lat3)
        for f in empty_filters(cat):
            assert type_set(f) == 0

    def test_n4_not_exhaustive(self, lat4):
        cat = catalog_for("full", lat4)
        assert not cat.exhaustive
        assert len(cat.classes) == 15
        assert list(cat.empties) == []

    def test_covers_everything(self, lat3):
        assert covered_mask(catalog_for("full", lat3)) == lat3.full_mask


class TestChains:
    def test_partitionability_n4(self, lat4):
        cat = catalog_for("k_part", lat4)
        assert len(cat.classes) == 4
        assert list(cat.empties) == []
        # bottom-up: class k collects partitions with exactly k parts
        for k, d in zip(range(4, 0, -1), cat.classes):
            assert {p.parts_count for p in types_of(cat, d)} == {k}

    def test_producibility_n4(self, lat4):
        cat = catalog_for("k_prod", lat4)
        assert len(cat.classes) == 4
        # class k' collects partitions with largest part exactly k'
        for kp, d in zip(range(1, 5), cat.classes):
            assert {p.max_part_size for p in types_of(cat, d)} == {kp}

    def test_producibility_shapes_n4(self, lat4):
        cat = catalog_for("k_prod", lat4)
        shapes = [sorted({p.shape() for p in types_of(cat, d)})
                  for d in cat.classes]
        assert shapes == [
            [(1, 1, 1, 1)],
            [(2, 1, 1), (2, 2)],
            [(3, 1)],
            [(4,)],
        ]

    def test_chain_classes_cover(self, lat4):
        for kind in ("k_part", "k_prod"):
            assert covered_mask(catalog_for(kind, lat4)) == lat4.full_mask


class TestAntichains:
    def test_atoms_n4(self, lat4):
        cat = catalog_for("atoms", lat4)
        assert cat.exhaustive
        assert len(cat.classes) + len(cat.empties) == 63
        # each singleton label realizes its atom; the full label realizes
        # the finest partition; everything in between is empty
        assert len(cat.classes) == 7
        singles = [d for d in cat.classes if len(d.label) == 1]
        assert len(singles) == 6
        for d in singles:
            assert [p.parts_count for p in types_of(cat, d)] == [3]
        full = [d for d in cat.classes if len(d.label) == 6]
        assert len(full) == 1
        assert types_of(cat, full[0]) == (Partition.bottom(4),)

    def test_atoms_do_not_cover(self, lat4):
        cat = catalog_for("atoms", lat4)
        union = 0
        for ideal in cat.context.ideals:
            union |= ideal.members
        assert covered_mask(cat) == union != lat4.full_mask

    def test_coatoms_n4(self, lat4):
        cat = catalog_for("coatoms", lat4)
        assert cat.exhaustive
        assert len(cat.classes) + len(cat.empties) == 127
        assert len(cat.classes) == 14
        assert len(cat.empties) == 113
        singles = [d for d in cat.classes if len(d.label) == 1]
        assert len(singles) == 7
        for d in singles:
            # the bipartition itself plus nothing else
            assert [p.parts_count for p in types_of(cat, d)] == [2]

    def test_coatom_triples_realize_atoms(self, lat4):
        cat = catalog_for("coatoms", lat4)
        triples = [d for d in cat.classes if len(d.label) == 3]
        assert len(triples) == 6
        for d in triples:
            assert [p.parts_count for p in types_of(cat, d)] == [3]

    def test_coatom_full_realizes_bottom(self, lat4):
        cat = catalog_for("coatoms", lat4)
        full = [d for d in cat.classes if len(d.label) == 7]
        assert len(full) == 1
        assert types_of(cat, full[0]) == (Partition.bottom(4),)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_coatom_classes_closed_form(self, n):
        # the partition lattice is coatomistic: every partition but the top
        # is the meet of the bipartitions above it, so it is the one type
        # of its own class, and the top lies in no coatom ideal
        lattice = enumerate_partitions(n)
        groups = signature_groups(coatom_context(lattice))
        assert len(groups) == bell_number(n) - 1
        assert all(types.bit_count() == 1 for types in groups.values())
        assert not any(types >> lattice.top_index & 1
                       for types in groups.values())

    def test_cap(self, monkeypatch, lat4):
        # the atom context at n=4 has 6 ideals
        monkeypatch.setattr(classify, "EXHAUSTIVE_CONTEXT_MAX", 5)
        with pytest.raises(CapExceeded):
            catalog_for("atoms", lat4)


class TestDispatch:
    @pytest.mark.parametrize("kind,count", [
        ("k_part", 4), ("k_prod", 4), ("atoms", 7), ("coatoms", 14)])
    def test_kinds(self, lat4, kind, count):
        cat = catalog_for(kind, lat4)
        assert isinstance(cat, Catalog)
        assert len(cat.classes) == count

    def test_full(self, lat3):
        assert len(catalog_for("full", lat3).classes) == 5

    def test_unknown_kind(self, lat3):
        with pytest.raises(ValueError):
            catalog_for("mystery", lat3)

    def test_custom_chain(self, lat4):
        ctx = PropertyContext(lat4, [
            principal_ideal(lat4, lat4.bottom_index),
            principal_ideal(lat4, lat4.top_index)])
        cat = custom_catalog(ctx)
        assert cat.kind == "chain"
        assert len(cat.classes) == 2

    def test_custom_general(self, lat4):
        ctx = PropertyContext(lat4, [
            principal_ideal(lat4, Partition.parse("12|34")),
            principal_ideal(lat4, Partition.parse("13|24")),
            principal_ideal(lat4, Partition.parse("123|4"))])
        cat = custom_catalog(ctx)
        assert cat.kind == "custom"
        assert cat.exhaustive
        assert len(cat.classes) + len(cat.empties) == 7


# every built-in kind at n <= 5 where it exists: no atoms or coatoms at
# n = 1, and the ideal universe only to n = 4
@pytest.mark.parametrize("kind,n", [
    (kind, n) for kind in sorted(KINDS) for n in range(1, 6)
    if not (n == 1 and kind in ("atoms", "coatoms"))
    and not (n == 5 and kind == "full")])
def test_empty_labels_view_rewalks(kind, n):
    cat = catalog_for(kind, enumerate_partitions(n))
    first = [f.members for f in empty_filters(cat)]
    assert [f.members for f in empty_filters(cat)] == first
    assert len(cat.empties) == len(first)
    if cat.exhaustive:
        groups = signature_groups(cat.context)
        assert first == [f.members for f in enumerate_filters(cat.context)
                         if f.members not in groups]
    else:
        assert first == []


@pytest.mark.parametrize("writer", [catalog_json, catalog_jsonl])
def test_empty_labels_make_no_objects(monkeypatch, lat4, writer):
    # atoms at n = 4: 63 labels, 7 of them classes; each empty label is
    # checked and written from the walk's masks alone
    made = {"Filter": 0, "ClassDescriptor": 0}

    def counted(cls, name):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            made[name] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", __init__)

    counted(Filter, "Filter")
    counted(ClassDescriptor, "ClassDescriptor")
    walked = Filter._walked.__func__

    def counted_walked(cls, *args):
        made["Filter"] += 1
        return walked(cls, *args)
    monkeypatch.setattr(Filter, "_walked", classmethod(counted_walked))
    cat = catalog_for("atoms", lat4)
    out = "".join(writer(cat))
    assert len(cat.classes) == 7 and len(cat.empties) == 56
    assert out.count("\n") >= 56  # a line per empty label, at least
    assert made == {"Filter": 7, "ClassDescriptor": 7}


class TestRendering:
    def test_json(self, lat4):
        chunks = catalog_json(catalog_for("coatoms", lat4))
        doc = json.loads("".join(chunks))
        assert doc["kind"] == "coatoms"
        assert doc["class_count"] == 14
        assert doc["empty_label_count"] == 113
        assert len(doc["classes"]) == 14
        assert all(rec["witness"] for rec in doc["classes"])

    def test_text_table(self, lat4):
        text = catalog_text(catalog_for("k_prod", lat4))
        assert "4 classes" in text
        assert "ρ_abcd" in text
        assert "ρ_a⊗ρ_b⊗ρ_c⊗ρ_d" in text

    def test_shape_summary_groups(self, lat4):
        text = catalog_text(catalog_for("k_prod", lat4))
        # the two-producible class spans two shapes
        assert "ρ_ab⊗ρ_cd, ρ_ab⊗ρ_c⊗ρ_d" in text
