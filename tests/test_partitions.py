import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import corrclass
from corrclass.catalogs import catalog_for, catalog_json
from corrclass.partitions import (bell_number, enumerate_partitions,
                                  shape_string, state_shape)
from corrclass.poset import bits

from partition_reference import Partition, all_partitions, partitions_of
from test_signature import _lattice


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
        assert all(bot.refines(p) for p in partitions_of(lat4))

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
        ps = partitions_of(lat4)
        assert ps[lat4.bottom_index] == Partition.bottom(4)
        assert ps[lat4.top_index] == Partition.top(4)

    def test_order_agrees_with_refines(self, lat4):
        ps = partitions_of(lat4)
        for i in range(len(ps)):
            for j in range(len(ps)):
                assert lat4.poset.leq(i, j) == ps[i].refines(ps[j])

    def test_tables_agree_with_abstract_meet_join(self, lat4):
        poset, ps = lat4.poset, partitions_of(lat4)
        index = {p: i for i, p in enumerate(ps)}
        for i in range(len(lat4)):
            for j in range(len(lat4)):
                assert lat4.meet_index(i, j) == poset.meet(i, j)
                assert index[ps[i].join(ps[j])] == poset.join(i, j)

    # atoms: the minimal partitions above the bottom; coatoms: the maximal
    # partitions below the top
    def test_atoms_are_n_minus_1_part(self, lat4):
        above_bottom = lat4.full_mask & ~(1 << lat4.bottom_index)
        atoms = set(lat4.names(lat4.poset.minimal(above_bottom)))
        assert atoms == {str(p) for p in partitions_of(lat4)
                         if p.parts_count == 3}
        assert len(atoms) == 6

    def test_coatoms_are_bipartitions(self, lat4):
        below_top = lat4.full_mask & ~(1 << lat4.top_index)
        coatoms = set(lat4.names(lat4.poset.maximal(below_top)))
        assert coatoms == {str(p) for p in partitions_of(lat4)
                           if p.parts_count == 2}
        assert len(coatoms) == 7

    def test_names_shapes_and_parsed_indices(self, lat4):
        # indices in the order listed, names in the order of the indices
        ps = partitions_of(lat4)
        i, j = lat4.parse("↓{13|24, {{1,2},{3,4}}}")
        assert (ps[i], ps[j]) == (P("13|24"), P("12|34"))
        assert lat4.names(1 << i | 1 << j) == ["12|34", "13|24"]
        assert lat4.names(0) == []
        assert lat4.names(lat4.full_mask) == list(map(str, ps))
        assert [lat4.shape(i) for i in range(len(lat4))] == [
            p.shape() for p in ps]
        assert lat4.shape(lat4.top_index) == (4,)

    def test_atoms_n3(self, lat3):
        above_bottom = lat3.full_mask & ~(1 << lat3.bottom_index)
        atoms = set(lat3.names(lat3.poset.minimal(above_bottom)))
        assert atoms == {"12|3", "13|2", "1|23"}

    def test_deterministic_enumeration(self):
        assert ([str(p) for p in all_partitions(4)]
                == [str(p) for p in all_partitions(4)])


@pytest.mark.parametrize("n", range(1, 9))
def test_block_facts_match_partition_reference(n):
    """Names, shapes, block statistics, bottom and top read from the block
    tuples equal those of the Partition objects, each name written label by
    label."""
    lattice = enumerate_partitions(n)
    ps = partitions_of(lattice)
    assert lattice.names(lattice.full_mask) == [
        "|".join("".join(str(a + 1) for a in bits(b)) for b in p.blocks)
        for p in ps]
    assert [str(p) for p in ps] == lattice.names(lattice.full_mask)
    odd = sum(1 << i for i in range(1, len(ps), 2))
    assert lattice.names(odd) == [str(ps[i]) for i in bits(odd)]
    assert [lattice.shape(i) for i in range(len(ps))] == [
        tuple(sorted((b.bit_count() for b in p.blocks), reverse=True))
        for p in ps]
    by_count, by_largest = lattice.block_stat_masks
    assert by_count == tuple(
        sum(1 << i for i, p in enumerate(ps) if p.parts_count == k)
        for k in range(n + 1))
    assert by_largest == tuple(
        sum(1 << i for i, p in enumerate(ps) if p.max_part_size == s)
        for s in range(n + 1))
    assert ps[lattice.bottom_index] == Partition.bottom(n)
    assert ps[lattice.top_index] == Partition.top(n)
    assert (lattice.bottom_index == lattice.top_index) == (n == 1)


def package_calls(run):
    """The names of the package's functions that ``run()`` enters."""
    root = str(Path(corrclass.__file__).parent)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def test_catalog_makes_no_partition_object():
    """A k_part catalog at n = 7, its JSON and every partition's name come
    from the block tuples, and ``parse`` reads a spec straight into pair
    masks: it enters no package code but itself and ``bits``, so it builds
    no partition object and no table of them."""
    lattice = enumerate_partitions(7)
    doc = "".join(catalog_json(catalog_for("k_part", lattice)))
    names = lattice.names(lattice.full_mask)
    assert '"1|2|3|4|5|6|7"' in doc and names[0] == "1234567"
    got = []
    called = package_calls(
        lambda: got.extend(lattice.parse("{{1,3},{2,4,5,6,7}}, 12|34567")))
    assert lattice.names(1 << got[0]) == ["13|24567"]
    assert lattice.names(1 << got[1]) == ["12|34567"]
    # Python 3.11 and older run a list comprehension in a frame of its own
    assert called - {"<listcomp>"} == {"parse", "_pair_mask", "bits"}


def outcome(run):
    """What ``run()`` returns, or the text of the ``ValueError`` it raises."""
    try:
        return run()
    except ValueError as exc:
        return str(exc)


@lru_cache(maxsize=None)
def reference_index(n):
    return {p: i for i, p in enumerate(all_partitions(n))}


@st.composite
def partition_specs(draw):
    """``(n, spec)``: one partition of 1..n in bar or brace notation, with
    blocks and labels shuffled and repeated, and perhaps a label out of
    range, a label in two blocks or a label left out; or a string of
    digits, bars and spaces."""
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.integers(0, 9)) == 0:
        junk = draw(st.text("0123456789| ", min_size=1, max_size=12))
        return n, junk if junk.strip() else "|"
    growth = [0]
    for _ in range(n - 1):
        growth.append(draw(st.integers(0, max(growth) + 1)))
    blocks = [[i + 1 for i, b in enumerate(growth) if b == v]
              for v in range(max(growth) + 1)]
    brace = draw(st.booleans())
    for fault in draw(st.lists(st.sampled_from(
            ["out of range", "overlap", "missing", "repeat"]), max_size=2)):
        block = draw(st.sampled_from(blocks))
        if fault == "out of range":
            wide = st.integers(10, 99) if brace else st.nothing()
            block.append(draw(st.sampled_from([0, n + 1]) | wide))
        elif fault == "overlap":
            other = draw(st.sampled_from(blocks))
            label = draw(st.sampled_from(other))
            if other is block:
                blocks.append([label])
            else:
                block.append(label)
        elif fault == "missing" and sum(map(len, blocks)) > 1:
            block.remove(draw(st.sampled_from(block)))
            blocks = [b for b in blocks if b]
        elif fault == "repeat" and brace:
            block.append(draw(st.sampled_from(block)))
    blocks = [draw(st.permutations(b)) for b in draw(st.permutations(blocks))]
    space = draw(st.sampled_from(["", " "]))
    if brace:
        return n, "{" + f",{space}".join(
            "{" + f",{space}".join(map(str, b)) + "}" for b in blocks) + "}"
    return n, f"{space}|{space}".join("".join(map(str, b)) for b in blocks)


@settings(max_examples=400, deadline=None)
@given(partition_specs())
def test_parse_matches_reference(case):
    """``parse`` gives the reference's index for a partition, or the
    reference's error text, the out-of-range label first, then overlapping
    blocks, then a missing label."""
    n, spec = case
    assert outcome(lambda: _lattice(n).parse(spec)) == outcome(
        lambda: [reference_index(n)[Partition.parse(spec, n)]])


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
