import pytest

from corrclass.ideals import (Ideal, atom_context, chain_check_part_prod,
                              coatom_context, enumerate_ideals, full_context,
                              ideal_from_generators,
                              k_partitionability_context,
                              k_partitionable_ideal, k_producibility_context,
                              k_producible_ideal, parse_ideal, principal_ideal)
from corrclass.partitions import Partition, enumerate_partitions
from corrclass.poset import CapExceeded, bits


def brute_downsets(lattice):
    """Independent enumeration: filter all subsets for down-closedness."""
    parts = lattice.partitions
    out = []
    for mask in range(1, 1 << len(parts)):
        ok = True
        for i in bits(mask):
            for j in range(len(parts)):
                if parts[j].refines(parts[i]) and not (mask >> j) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(mask)
    return out


class TestIdeal:
    def test_rejects_empty(self, lat3):
        with pytest.raises(ValueError):
            Ideal(lat3, 0)

    def test_rejects_non_down_closed(self, lat3):
        top_only = 1 << lat3.top_index
        with pytest.raises(ValueError):
            Ideal(lat3, top_only)

    def test_principal_contains_exactly_refinements(self, lat4):
        for i, p in enumerate(lat4.partitions):
            ideal = principal_ideal(lat4, i)
            expected = {q for q in lat4.partitions if q.refines(p)}
            assert set(ideal.partitions()) == expected
            assert ideal.maximal_partitions() == (p,)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_principal_equals_validated_ideal(self, n):
        lattice = enumerate_partitions(n)
        for i, below in enumerate(lattice.poset.below):
            ideal = principal_ideal(lattice, i)
            checked = Ideal(lattice, below)
            assert ideal == checked and hash(ideal) == hash(checked)
            assert str(ideal) == str(checked)

    def test_display_by_maximal_elements(self, lat3):
        a = principal_ideal(lat3, Partition.parse("12|3"))
        b = principal_ideal(lat3, Partition.parse("13|2"))
        assert str(a.join(b)) == "↓{12|3, 13|2}"

    def test_meet_is_intersection(self, lat3):
        a = principal_ideal(lat3, Partition.parse("12|3"))
        b = principal_ideal(lat3, Partition.parse("13|2"))
        meet = a.meet(b)
        assert set(meet.partitions()) == {Partition.bottom(3)}

    def test_join_stays_down_closed(self, lat4):
        a = principal_ideal(lat4, Partition.parse("12|34"))
        b = principal_ideal(lat4, Partition.parse("13|24"))
        j = a.join(b)
        assert set(j.partitions()) == (set(a.partitions())
                                       | set(b.partitions()))

    def test_cross_lattice_rejected(self, lat3, lat4):
        a = principal_ideal(lat3, lat3.bottom_index)
        b = principal_ideal(lat4, lat4.bottom_index)
        with pytest.raises(ValueError):
            a.meet(b)

    def test_parse_ideal_roundtrip(self, lat4):
        a = ideal_from_generators(lat4, [Partition.parse("12|34"),
                                         Partition.parse("13|24")])
        assert parse_ideal(lat4, str(a)) == a
        assert parse_ideal(lat4, "12|34, 13|24") == a

    def test_parse_rejects_empty(self, lat3):
        with pytest.raises(ValueError):
            parse_ideal(lat3, "")


class TestFamilies:
    def test_one_partitionable_is_everything(self, lat4):
        assert len(k_partitionable_ideal(lat4, 1)) == len(lat4)

    def test_n_partitionable_is_bottom_only(self, lat4):
        ideal = k_partitionable_ideal(lat4, 4)
        assert set(ideal.partitions()) == {Partition.bottom(4)}

    def test_n_producible_is_everything(self, lat4):
        assert len(k_producible_ideal(lat4, 4)) == len(lat4)

    def test_one_producible_is_bottom_only(self, lat4):
        ideal = k_producible_ideal(lat4, 1)
        assert set(ideal.partitions()) == {Partition.bottom(4)}

    def test_two_producible_n4(self, lat4):
        ideal = k_producible_ideal(lat4, 2)
        assert all(p.max_part_size <= 2 for p in ideal.partitions())
        assert len(ideal) == 10  # 1 + 6 pairings + 3 double pairings

    @pytest.mark.parametrize("n", range(1, 8))
    def test_chains_match_block_statistics(self, n):
        lattice = enumerate_partitions(n)
        for k in range(1, n + 1):
            assert set(k_partitionable_ideal(lattice, k).partitions()) == {
                p for p in lattice.partitions if p.parts_count >= k}
            assert set(k_producible_ideal(lattice, k).partitions()) == {
                p for p in lattice.partitions if p.max_part_size <= k}

    def test_k_out_of_range(self, lat4):
        with pytest.raises(ValueError):
            k_partitionable_ideal(lat4, 0)
        with pytest.raises(ValueError):
            k_producible_ideal(lat4, 5)

    def test_chains_well_oriented(self):
        for n in range(2, 6):
            report = chain_check_part_prod(enumerate_partitions(n))
            assert report["ok"], report["violations"]

    def test_family_contexts_are_chains(self, lat4):
        assert k_partitionability_context(lat4).is_chain()
        assert k_producibility_context(lat4).is_chain()


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 9), (4, 346)])
    def test_ideal_counts(self, n, count):
        assert len(enumerate_ideals(enumerate_partitions(n))) == count

    def test_matches_brute_force(self):
        for n in (2, 3):
            lattice = enumerate_partitions(n)
            ip = enumerate_ideals(lattice)
            assert sorted(i.members for i in ip.ideals) == brute_downsets(
                lattice)

    def test_refuses_large_n(self, lat5):
        with pytest.raises(CapExceeded):
            enumerate_ideals(lat5)

    def test_inclusion_order(self, ip3):
        for i, a in enumerate(ip3.ideals):
            for j, b in enumerate(ip3.ideals):
                assert ip3.poset.leq(i, j) == b.contains(a)

    def test_bounded_lattice(self, ip4):
        bottom = ip4.poset.atoms()  # raises if no unique bottom
        assert bottom
        top_members = max(i.members for i in ip4.ideals)
        assert top_members == ip4.lattice.full_mask


class TestContexts:
    def test_full_context_size(self, ip4):
        assert len(full_context(ip4)) == 346

    def test_atom_context_n4(self, lat4):
        ctx = atom_context(lat4)
        assert len(ctx) == 6
        assert ctx.is_antichain()
        assert all(len(i.maximal_partitions()) == 1 for i in ctx.ideals)

    def test_coatom_context_n4(self, lat4):
        ctx = coatom_context(lat4)
        assert len(ctx) == 7
        assert ctx.is_antichain()
        shapes = sorted(i.maximal_partitions()[0].shape()
                        for i in ctx.ideals)
        assert shapes == [(2, 2)] * 3 + [(3, 1)] * 4

    def test_covered_mask(self, lat4):
        assert coatom_context(lat4).covered_mask() != lat4.full_mask
        full_ctx = k_producibility_context(lat4)
        assert full_ctx.covered_mask() == lat4.full_mask

    def test_locate(self, lat4):
        ctx = k_partitionability_context(lat4)
        ideal = k_partitionable_ideal(lat4, 2)
        assert ctx.ideals[ctx.locate(ideal)] == ideal
        atom = ideal_from_generators(lat4, [Partition.parse("12|3|4")])
        with pytest.raises(KeyError):
            ctx.locate(atom)

    def test_duplicates_rejected(self, lat3):
        from corrclass.ideals import PropertyContext
        a = principal_ideal(lat3, lat3.bottom_index)
        with pytest.raises(ValueError):
            PropertyContext(lat3, [a, a])

    def test_empty_rejected(self, lat3):
        from corrclass.ideals import PropertyContext
        with pytest.raises(ValueError):
            PropertyContext(lat3, [])
