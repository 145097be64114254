from unittest import mock

import pytest

from corrclass.ideals import (Ideal, atom_context, chain_check_part_prod,
                              coatom_context, enumerate_ideals, full_context,
                              ideal_from_generators,
                              k_partitionability_context,
                              k_partitionable_ideal, k_producibility_context,
                              k_producible_ideal, parse_ideal, principal_ideal)
from corrclass.partitions import enumerate_partitions
from corrclass.poset import CapExceeded, Poset, bits

from partition_reference import partitions_of


def members(lattice, mask):
    """The partitions in ``mask``, by ascending index."""
    parts = partitions_of(lattice)
    return tuple(parts[i] for i in bits(mask))


def brute_downsets(lattice):
    """Independent enumeration: filter all subsets for down-closedness."""
    parts = partitions_of(lattice)
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
        with pytest.raises(ValueError, match="the empty set is not an ideal"):
            ideal_from_generators(lat3, [])

    def test_rejects_non_down_closed(self, lat3):
        top_only = 1 << lat3.top_index
        with pytest.raises(ValueError):
            Ideal(lat3, top_only)

    def test_principal_contains_exactly_refinements(self, lat4):
        parts = partitions_of(lat4)
        for i, p in enumerate(parts):
            ideal = principal_ideal(lat4, i)
            expected = {q for q in parts if q.refines(p)}
            assert set(members(lat4, ideal.members)) == expected
            assert lat4.poset.maximal(ideal.members) == 1 << i
            assert str(ideal) == f"↓{{{p}}}"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_principal_equals_validated_ideal(self, n):
        lattice = enumerate_partitions(n)
        for i, below in enumerate(lattice.poset.below):
            ideal = principal_ideal(lattice, i)
            checked = Ideal(lattice, below)
            assert ideal == checked and hash(ideal) == hash(checked)
            assert str(ideal) == str(checked)

    def test_display_by_maximal_elements(self, lat3):
        [i, j] = lat3.parse("12|3, 13|2")
        a, b = principal_ideal(lat3, i), principal_ideal(lat3, j)
        assert str(Ideal(lat3, a.members | b.members)) == "↓{12|3, 13|2}"

    def test_cross_lattice_rejected(self, lat3, lat4):
        a = principal_ideal(lat3, lat3.bottom_index)
        b = principal_ideal(lat4, lat4.bottom_index)
        with pytest.raises(ValueError):
            a.contains(b)

    def test_parse_ideal_roundtrip(self, lat4):
        a = ideal_from_generators(lat4, lat4.parse("12|34, 13|24"))
        assert parse_ideal(lat4, str(a)) == a
        assert str(a) == "↓{12|34, 13|24}"

    @pytest.mark.parametrize("spec", ["{{1,2},{3,4}}, {{1,3},{2,4}}",
                                      "{{{1,2},{3,4}}, {{1,3},{2,4}}}",
                                      "12|34, 13|24", "↓{12|34, 13|24}"])
    def test_parse_ideal_notations(self, lat4, spec):
        # brace and bar notation, bare or wrapped, name the same ideal
        assert parse_ideal(lat4, spec) == ideal_from_generators(
            lat4, lat4.parse("12|34") + lat4.parse("13|24"))

    def test_parse_ideal_down_closes_once(self, lat5):
        closure = Poset.down_closure
        with mock.patch.object(Poset, "down_closure", autospec=True,
                               side_effect=closure) as spy:
            ideal = parse_ideal(lat5, "12|345, 13|245")
        assert spy.call_count == 1
        assert ideal == Ideal(lat5, ideal.members)
        assert str(ideal) == "↓{12|345, 13|245}"

    def test_parse_rejects_empty(self, lat3):
        for spec in ("", ",", "{}", "12|3}", "{12|3", "12|3 {13|2}"):
            with pytest.raises(ValueError):
                parse_ideal(lat3, spec)
        # one partition in one notation, or an error that names the text
        for spec in ("{{1},{2},{3},{}}", "{{1,a},{2,3}}", "12|3x",
                     "12|3 13|2"):
            with pytest.raises(ValueError, match=(
                    r"^cannot parse partition from '\S")):
                parse_ideal(lat3, spec)


class TestFamilies:
    def test_one_partitionable_is_everything(self, lat4):
        assert len(k_partitionable_ideal(lat4, 1)) == len(lat4)

    def test_n_partitionable_is_bottom_only(self, lat4):
        ideal = k_partitionable_ideal(lat4, 4)
        assert ideal.members == 1 << lat4.bottom_index

    def test_n_producible_is_everything(self, lat4):
        assert len(k_producible_ideal(lat4, 4)) == len(lat4)

    def test_one_producible_is_bottom_only(self, lat4):
        ideal = k_producible_ideal(lat4, 1)
        assert ideal.members == 1 << lat4.bottom_index

    def test_two_producible_n4(self, lat4):
        ideal = k_producible_ideal(lat4, 2)
        assert all(p.max_part_size <= 2
                   for p in members(lat4, ideal.members))
        assert len(ideal) == 10  # 1 + 6 pairings + 3 double pairings

    @pytest.mark.parametrize("n", range(1, 8))
    def test_chains_match_block_statistics(self, n):
        lattice = enumerate_partitions(n)
        for k in range(1, n + 1):
            assert set(members(lattice, k_partitionable_ideal(
                lattice, k).members)) == {
                p for p in partitions_of(lattice) if p.parts_count >= k}
            assert set(members(lattice, k_producible_ideal(
                lattice, k).members)) == {
                p for p in partitions_of(lattice) if p.max_part_size <= k}

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
        # one bottom ideal, the finest partition alone, and one top ideal,
        # every partition; each atom adds one three-block partition to it
        poset, lattice = ip4.poset, ip4.lattice
        bottom = poset.minimal(poset.full)
        top = poset.maximal(poset.full)
        assert bottom.bit_count() == top.bit_count() == 1
        assert ip4.ideals[bottom.bit_length() - 1].members == (
            1 << lattice.bottom_index)
        assert ip4.ideals[top.bit_length() - 1].members == lattice.full_mask
        atoms = poset.minimal(poset.full & ~bottom)
        blocks = [sorted(p.parts_count for p in members(
            lattice, ip4.ideals[i].members)) for i in bits(atoms)]
        assert blocks == [[3, 4]] * 6


class TestContexts:
    def test_full_context_size(self, ip4):
        assert len(full_context(ip4)) == 346

    def test_atom_context_n4(self, lat4):
        ctx = atom_context(lat4)
        assert len(ctx) == 6
        assert ctx.poset.below == [1 << i for i in range(6)]
        assert all(lat4.poset.maximal(i.members).bit_count() == 1
                   for i in ctx.ideals)

    def test_coatom_context_n4(self, lat4):
        ctx = coatom_context(lat4)
        assert len(ctx) == 7
        assert ctx.poset.below == [1 << i for i in range(7)]
        shapes = sorted(lat4.shape(lat4.poset.maximal(i.members).bit_length()
                                   - 1) for i in ctx.ideals)
        assert shapes == [(2, 2)] * 3 + [(3, 1)] * 4

    def test_covered_mask(self, lat4):
        # the top lies in no coatom ideal; the k'=4 ideal is every partition
        def union(ctx):
            out = 0
            for ideal in ctx.ideals:
                out |= ideal.members
            return out

        assert union(coatom_context(lat4)) == lat4.full_mask & ~(
            1 << lat4.top_index)
        assert union(k_producibility_context(lat4)) == lat4.full_mask

    def test_locate(self, lat4):
        ctx = k_partitionability_context(lat4)
        ideal = k_partitionable_ideal(lat4, 2)
        assert ctx.ideals[ctx.locate(ideal)] == ideal
        atom = ideal_from_generators(lat4, lat4.parse("12|3|4"))
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
