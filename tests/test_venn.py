import random

import pytest

from corrclass.poset import Poset
from corrclass.venn import (RANDOM_MAX_LABELS, RANDOM_MAX_UNIVERSE,
                            EmbeddingViolation, LabeledFamily,
                            check_lemma_upset, counterexample_family,
                            generic_family, random_family,
                            three_label_posets)


def diamond():
    return Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestLabeledFamily:
    def test_rejects_order_inclusion_mismatch(self):
        chain = Poset.from_pairs(2, [(0, 1)])
        with pytest.raises(EmbeddingViolation):
            LabeledFamily(3, chain, [0b011, 0b001])  # 0 <= 1 but not subset

    def test_rejects_wrong_arity(self):
        chain = Poset.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            LabeledFamily(3, chain, [0b001])

    def test_rejects_out_of_universe(self):
        chain = Poset.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            LabeledFamily(2, chain, [0b001, 0b111])

    def test_from_subsets_derives_order(self):
        fam = LabeledFamily.from_subsets(3, [0b001, 0b011, 0b111])
        assert fam.labels.is_chain(fam.labels.full)

    def test_rejects_order_missing_an_inclusion(self):
        # the antichain order of {0b01, 0b10} on subsets that form a chain
        antichain = LabeledFamily.from_subsets(2, [0b01, 0b10]).labels
        with pytest.raises(EmbeddingViolation):
            LabeledFamily(2, antichain, [0b01, 0b11])

    def test_from_subsets_order_passes_the_direct_check(self):
        # from_subsets skips the order check; the order it builds passes it
        rng = random.Random(5)
        for _ in range(200):
            fam = random_family(rng)
            LabeledFamily(fam.universe_size, fam.labels, fam.assign)

    def test_from_subsets_rejects_duplicates(self):
        with pytest.raises(EmbeddingViolation):
            LabeledFamily.from_subsets(3, [0b011, 0b011])

    def test_covering(self):
        fam = LabeledFamily.from_subsets(2, [0b01, 0b10])
        assert fam.covering()
        assert not LabeledFamily.from_subsets(2, [0b01]).covering()


class TestIntersectionCells:
    def test_cells_partition_the_universe(self):
        fam = counterexample_family()
        seen = 0
        for label in range(1 << fam.labels.m):
            cell = fam.intersection_class(label)
            assert cell & seen == 0
            seen |= cell
        assert seen == fam.universe

    def test_empty_intersection_is_universe(self):
        # the no-label cell excludes every set but intersects nothing
        fam = LabeledFamily.from_subsets(2, [0b01])
        assert fam.intersection_class(0) == 0b10

    def test_all_labels_cell(self):
        fam = LabeledFamily.from_subsets(3, [0b011, 0b110])
        assert fam.intersection_class(0b11) == 0b010

    def test_label_bounds(self):
        fam = LabeledFamily.from_subsets(2, [0b01])
        with pytest.raises(IndexError):
            fam.intersection_class(0b10)


class TestUpsetLemma:
    def test_generic_families_clean(self):
        for p in three_label_posets():
            report = check_lemma_upset(generic_family(p))
            assert report["ok"], report["violations"]
            assert not report["covering"]

    def test_generic_realizes_every_upset(self):
        p = diamond()
        fam = generic_family(p)
        upsets = {0, *p.upsets()}
        nonempty = {label for label in range(1 << p.m)
                    if fam.intersection_class(label)}
        assert nonempty == upsets

    def test_random_families_clean(self):
        rng = random.Random(7)
        for _ in range(200):
            report = check_lemma_upset(random_family(rng))
            assert report["ok"], report["violations"]

    def test_random_families_seeded_deterministic(self):
        # each seed must draw the families that randint-based drawing drew,
        # on whichever interpreter runs the test, so a --seed keeps testing
        # the same families
        def reference(rng):
            universe_size = rng.randint(1, RANDOM_MAX_UNIVERSE)
            label_count = rng.randint(
                1, min(RANDOM_MAX_LABELS, 1 << universe_size))
            full = (1 << universe_size) - 1
            subsets = []
            while len(subsets) < label_count:
                s = rng.randint(0, full)
                if s not in subsets:
                    subsets.append(s)
            return universe_size, tuple(subsets)

        for seed in (0, 1, 3, 7, 2021):
            drawn, expected = random.Random(seed), random.Random(seed)
            for _ in range(2000):
                fam = random_family(drawn)
                assert (fam.universe_size, fam.assign) == reference(expected)


class TestNonemptyCells:
    """The cells ``check_lemma_upset`` takes from the points' signatures,
    against ``intersection_class`` over every label subset."""

    @staticmethod
    def assert_cells_match(fam):
        report = check_lemma_upset(fam)
        assert report["nonempty_labels"] == [
            label for label in range(1 << fam.labels.m)
            if fam.intersection_class(label)]
        assert report["covering"] == fam.covering()

    def test_random_families(self):
        rng = random.Random(2021)
        for _ in range(2000):
            self.assert_cells_match(random_family(rng))

    def test_generic_families(self):
        for p in three_label_posets():
            self.assert_cells_match(generic_family(p))

    def test_diamond_and_counterexample(self):
        self.assert_cells_match(generic_family(diamond()))
        self.assert_cells_match(counterexample_family())


class TestOrderRows:
    """The order rows ``check_lemma_upset`` reads, against the poset."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_families(self, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            fam = random_family(rng)
            assert fam.above == fam.labels.above

    def test_generic_diamond_and_counterexample(self):
        families = [generic_family(p) for p in three_label_posets()]
        families += [generic_family(diamond()), counterexample_family()]
        for fam in families:
            assert fam.above == fam.labels.above

    def test_random_families_build_no_poset(self, monkeypatch):
        built = []
        by_inclusion = Poset.by_inclusion

        def counted(masks):
            built.append(tuple(masks))
            return by_inclusion(masks)

        monkeypatch.setattr(Poset, "by_inclusion", counted)
        rng = random.Random(0)
        for _ in range(2000):
            fam = random_family(rng)
            assert check_lemma_upset(fam)["ok"]
        assert built == []
        labels = fam.labels
        assert built == [fam.assign]
        assert fam.labels is labels and len(built) == 1

    def test_order_other_than_inclusion_is_checked(self):
        # no constructor makes such a family: the chain 0 <= 1 on two
        # disjoint subsets, so label 0's point sits outside label 1's set
        chain = Poset.from_pairs(2, [(0, 1)])
        fam = object.__new__(LabeledFamily)
        fam._fill(2, [0b01, 0b10], chain.above, chain)
        report = check_lemma_upset(fam)
        assert report["nonempty_labels"] == [0b01, 0b10]
        assert report["violations"] == [
            {"label": 0b01, "reason": "not an up-set"}]
        assert not report["ok"]


class TestConverseFails:
    def test_counterexample(self):
        fam = counterexample_family()
        assert fam.labels.below == [1 << i for i in range(fam.labels.m)]
        # the singleton {first set} is an up-set, yet its cell is empty
        assert fam.labels.is_up_closed(0b001)
        assert fam.intersection_class(0b001) == 0
        # the first set really is covered by the other two without
        # being inside either
        a, b, c = fam.assign
        assert a & ~(b | c) == 0
        assert a & ~b and a & ~c

    def test_counterexample_satisfies_forward_direction(self):
        report = check_lemma_upset(counterexample_family())
        assert report["ok"]


class TestThreeLabelPosets:
    def test_exactly_five(self):
        assert len(three_label_posets()) == 5

    def test_pairwise_non_isomorphic(self):
        sigs = set()
        for p in three_label_posets():
            sig = tuple(sorted(p.below[i].bit_count() for i in range(3)))
            chainlike = p.is_chain(p.full)
            sigs.add((sig, chainlike))
        assert len(sigs) == 5
