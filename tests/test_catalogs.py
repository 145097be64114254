import json

import pytest

from corrclass import classify
from corrclass.catalogs import (Catalog, atom_antichain_catalog,
                                catalog_cover_check, catalog_for,
                                catalog_json, catalog_text, chain_catalog,
                                coatom_antichain_catalog, custom_catalog,
                                finest_catalog)
from corrclass.classify import signature_groups, type_set
from corrclass.ideals import (PropertyContext, atom_context, coatom_context,
                              k_partitionability_context,
                              k_producibility_context, principal_ideal)
from corrclass.partitions import Partition, bell_number, enumerate_partitions
from corrclass.poset import CapExceeded


class TestFinest:
    def test_one_class_per_partition(self, ip3):
        cat = finest_catalog(3, ip3)
        assert cat.kind == "finest"
        assert cat.exhaustive
        assert len(cat.classes) == 5
        assert len(cat.empties) == 15
        types = {d.types for d in cat.classes}
        assert types == {(p,) for p in cat.lattice.partitions}

    def test_all_classes_nonempty(self, ip3):
        cat = finest_catalog(3, ip3)
        assert all(d.exists for d in cat.classes)

    def test_empties_really_empty(self, ip3):
        cat = finest_catalog(3, ip3)
        for f in cat.empties:
            assert type_set(f) == ()

    def test_n4_not_exhaustive(self, ip4):
        cat = finest_catalog(4, ip4)
        assert not cat.exhaustive
        assert len(cat.classes) == 15
        assert cat.empties == []

    def test_covers_everything(self, ip3):
        report = catalog_cover_check(finest_catalog(3, ip3))
        assert report["covers_all"]
        assert report["covered_count"] == 5


class TestChains:
    def test_partitionability_n4(self, lat4):
        cat = chain_catalog(k_partitionability_context(lat4))
        assert len(cat.classes) == 4
        assert cat.empties == []
        # bottom-up: class k collects partitions with exactly k parts
        for k, d in zip(range(4, 0, -1), cat.classes):
            assert {p.parts_count for p in d.types} == {k}

    def test_producibility_n4(self, lat4):
        cat = chain_catalog(k_producibility_context(lat4))
        assert len(cat.classes) == 4
        # class k' collects partitions with largest part exactly k'
        for kp, d in zip(range(1, 5), cat.classes):
            assert {p.max_part_size for p in d.types} == {kp}

    def test_producibility_shapes_n4(self, lat4):
        cat = chain_catalog(k_producibility_context(lat4))
        shapes = [sorted({p.shape() for p in d.types}) for d in cat.classes]
        assert shapes == [
            [(1, 1, 1, 1)],
            [(2, 1, 1), (2, 2)],
            [(3, 1)],
            [(4,)],
        ]

    def test_rejects_non_chain(self, lat4):
        with pytest.raises(ValueError):
            chain_catalog(atom_context(lat4))

    def test_chain_classes_cover(self, lat4):
        for ctx in (k_partitionability_context(lat4),
                    k_producibility_context(lat4)):
            assert catalog_cover_check(chain_catalog(ctx))["covers_all"]


class TestAntichains:
    def test_atoms_n4(self, lat4):
        cat = atom_antichain_catalog(4, lat4)
        assert cat.exhaustive
        assert len(cat.classes) + len(cat.empties) == 63
        # each singleton label realizes its atom; the full label realizes
        # the finest partition; everything in between is empty
        assert len(cat.classes) == 7
        singles = [d for d in cat.classes if len(d.label) == 1]
        assert len(singles) == 6
        for d in singles:
            assert len(d.types) == 1
            assert d.types[0].parts_count == 3
        full = [d for d in cat.classes if len(d.label) == 6]
        assert len(full) == 1
        assert full[0].types == (Partition.bottom(4),)

    def test_atoms_do_not_cover(self, lat4):
        report = catalog_cover_check(atom_antichain_catalog(4, lat4))
        assert not report["covers_all"]
        assert report["covered_equals_context_union"]

    def test_coatoms_n4(self, lat4):
        cat = coatom_antichain_catalog(4, lat4)
        assert cat.exhaustive
        assert len(cat.classes) + len(cat.empties) == 127
        assert len(cat.classes) == 14
        assert len(cat.empties) == 113
        singles = [d for d in cat.classes if len(d.label) == 1]
        assert len(singles) == 7
        for d in singles:
            # the bipartition itself plus nothing else
            assert [p.parts_count for p in d.types] == [2]

    def test_coatom_triples_realize_atoms(self, lat4):
        cat = coatom_antichain_catalog(4, lat4)
        triples = [d for d in cat.classes if len(d.label) == 3]
        assert len(triples) == 6
        for d in triples:
            assert len(d.types) == 1
            assert d.types[0].parts_count == 3

    def test_coatom_full_realizes_bottom(self, lat4):
        cat = coatom_antichain_catalog(4, lat4)
        full = [d for d in cat.classes if len(d.label) == 7]
        assert len(full) == 1
        assert full[0].types == (Partition.bottom(4),)

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
            atom_antichain_catalog(4, lat4)


class TestDispatch:
    @pytest.mark.parametrize("kind,count", [
        ("k_part", 4), ("k_prod", 4), ("atoms", 7), ("coatoms", 14)])
    def test_kinds(self, lat4, kind, count):
        cat = catalog_for(kind, 4, lat4)
        assert isinstance(cat, Catalog)
        assert len(cat.classes) == count

    def test_full(self, lat3):
        assert len(catalog_for("full", 3, lat3).classes) == 5

    def test_unknown_kind(self, lat3):
        with pytest.raises(ValueError):
            catalog_for("mystery", 3, lat3)

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


class TestRendering:
    def test_json(self, lat4):
        chunks = catalog_json(coatom_antichain_catalog(4, lat4))
        doc = json.loads("".join(chunks))
        assert doc["kind"] == "coatoms"
        assert doc["class_count"] == 14
        assert doc["empty_label_count"] == 113
        assert len(doc["classes"]) == 14
        assert all(rec["witness"] for rec in doc["classes"])

    def test_text_table(self, lat4):
        text = catalog_text(chain_catalog(k_producibility_context(lat4)))
        assert "4 classes" in text
        assert "ρ_abcd" in text
        assert "ρ_a⊗ρ_b⊗ρ_c⊗ρ_d" in text

    def test_shape_summary_groups(self, lat4):
        text = catalog_text(chain_catalog(k_producibility_context(lat4)))
        # the two-producible class spans two shapes
        assert "ρ_ab⊗ρ_cd, ρ_ab⊗ρ_c⊗ρ_d" in text
