import pytest
from hypothesis import given, strategies as st

from corrclass.partitions import (Partition, all_partitions, bell_number,
                                  enumerate_partitions, shape_string,
                                  state_shape)


def P(text, n=None):
    return Partition.parse(text, n)


def bell_by_binomial(n):
    # independent cross-check: B(n+1) = sum C(n,k) B(k)
    from math import comb
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]


class TestPartition:
    def test_canonical_block_order(self):
        assert str(Partition.from_sets(3, [[3], [1, 2]])) == "12|3"

    def test_parse_both_forms(self):
        assert P("{{1,2},{3}}") == P("12|3")

    def test_parse_roundtrip(self):
        for p in all_partitions(4):
            assert Partition.parse(str(p), 4) == p

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition.from_sets(3, [[1, 2], [2, 3]])

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            Partition.from_sets(3, [[1, 2]])

    def test_counts(self):
        assert P("1|2|3|4").parts_count == 4
        assert P("1|2|3|4").max_part_size == 1
        assert P("12|34").parts_count == 2
        assert P("12|34").max_part_size == 2
        assert P("123|4").parts_count == 2
        assert P("123|4").max_part_size == 3

    def test_shape_display(self):
        assert shape_string((2, 1, 1)) == "ab|c|d"
        assert state_shape((2, 1)) == "ρ_ab⊗ρ_c"


class TestRefinement:
    def test_bottom_refines_everything(self, lat4):
        bot = Partition.bottom(4)
        assert all(bot.refines(p) for p in lat4.partitions)

    def test_reflexive(self):
        p = P("12|3")
        assert p.refines(p)

    def test_incomparable(self):
        assert not P("12|3").refines(P("13|2"))
        assert not P("13|2").refines(P("12|3"))

    def test_mismatched_n(self):
        with pytest.raises(ValueError):
            P("12|3").refines(P("12|34"))


class TestMeetJoin:
    def test_meet_with_bottom(self):
        assert P("12|3").meet(P("1|2|3")) == P("1|2|3")

    def test_meet_examples(self):
        assert P("12|3").meet(P("13|2")) == P("1|2|3")
        assert P("123|4").meet(P("12|34")) == P("12|3|4")

    def test_join_with_top(self):
        assert P("12|3").join(P("123")) == P("123")

    def test_join_examples(self):
        assert P("12|3").join(P("13|2")) == P("123")
        assert P("12|3|4").join(P("1|2|34")) == P("12|34")


class TestLattice:
    def test_bell_counts(self):
        for n in range(1, 7):
            assert len(enumerate_partitions(n)) == bell_number(n)

    def test_bell_against_binomial_recurrence(self):
        for n in range(9):
            assert bell_number(n) == bell_by_binomial(n)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)
        with pytest.raises(ValueError):
            enumerate_partitions(9)

    def test_bottom_top(self, lat4):
        assert lat4.partitions[lat4.bottom_index] == Partition.bottom(4)
        assert lat4.partitions[lat4.top_index] == Partition.top(4)

    def test_order_agrees_with_refines(self, lat4):
        ps = lat4.partitions
        for i in range(len(ps)):
            for j in range(len(ps)):
                assert lat4.poset.leq(i, j) == ps[i].refines(ps[j])

    def test_tables_agree_with_abstract_meet_join(self, lat4):
        poset, ps = lat4.poset, lat4.partitions
        for i in range(len(lat4)):
            for j in range(len(lat4)):
                assert lat4.meet_index(i, j) == poset.meet(i, j)
                assert lat4.index[ps[i].join(ps[j])] == poset.join(i, j)

    def test_atoms_are_n_minus_1_part(self, lat4):
        atoms = {lat4.partitions[i]
                 for i in range(len(lat4))
                 if (lat4.poset.atoms() >> i) & 1}
        assert atoms == {p for p in lat4.partitions if p.parts_count == 3}
        assert len(atoms) == 6

    def test_coatoms_are_bipartitions(self, lat4):
        coatoms = {lat4.partitions[i]
                   for i in range(len(lat4))
                   if (lat4.poset.coatoms() >> i) & 1}
        assert coatoms == {p for p in lat4.partitions if p.parts_count == 2}
        assert len(coatoms) == 7

    def test_atoms_n3(self, lat3):
        atoms = {str(lat3.partitions[i])
                 for i in range(len(lat3)) if (lat3.poset.atoms() >> i) & 1}
        assert atoms == {"12|3", "13|2", "1|23"}

    def test_deterministic_enumeration(self):
        assert ([str(p) for p in all_partitions(4)]
                == [str(p) for p in all_partitions(4)])


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    parts = list(all_partitions(n))
    a = draw(st.sampled_from(parts))
    b = draw(st.sampled_from(parts))
    return a, b


@given(partition_pairs())
def test_absorption_laws(pair):
    a, b = pair
    assert a.meet(a.join(b)) == a
    assert a.join(a.meet(b)) == a


@given(partition_pairs())
def test_meet_is_greatest_lower_bound(pair):
    a, b = pair
    g = a.meet(b)
    assert g.refines(a) and g.refines(b)
    for z in all_partitions(a.n):
        if z.refines(a) and z.refines(b):
            assert z.refines(g)


@given(partition_pairs())
def test_join_commutes(pair):
    a, b = pair
    assert a.join(b) == b.join(a)
    assert a.meet(b) == b.meet(a)
