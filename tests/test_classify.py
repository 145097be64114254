import random

import pytest

from corrclass import classify
from corrclass.classify import (ClassDescriptor, Filter, class_exists,
                                class_order, class_record, class_report_jsonl,
                                classes_equal, complement_join_members,
                                describe_class, enumerate_filters,
                                full_filter, lemma_principal_check,
                                make_filter, meet_members, oracle_cross_check,
                                type_set)
from corrclass.cli import main
from corrclass.ideals import (atom_context, full_context,
                              k_partitionability_context, principal_ideal)
from corrclass.partitions import Partition
from corrclass.poset import CapExceeded


@pytest.fixture(scope="module")
def ctx3(ip3):
    return full_context(ip3)


_class_mask = classify.class_mask


def _full_label_as_first_atom(f):
    """class_mask, with the full label given the first atom label's mask."""
    if f.members == f.context.poset.full:
        return _class_mask(Filter(f.context, 1))
    return _class_mask(f)


def principal_filter(ctx, partition):
    ideal = principal_ideal(ctx.lattice, partition)
    return make_filter(ctx, [ideal])


class TestFilter:
    def test_rejects_empty(self, ctx3):
        with pytest.raises(ValueError):
            Filter(ctx3, 0)

    def test_rejects_non_up_closed(self, ctx3):
        bottom_ideal = principal_ideal(ctx3.lattice,
                                       ctx3.lattice.bottom_index)
        idx = ctx3.locate(bottom_ideal)
        with pytest.raises(ValueError):
            Filter(ctx3, 1 << idx)

    def test_make_filter_closes_up(self, ctx3):
        f = principal_filter(ctx3, Partition.parse("12|3"))
        # everything above the generator, nothing else
        for i, ideal in enumerate(ctx3.ideals):
            in_f = bool((f.members >> i) & 1)
            holds = bool(ideal.members
                         >> ctx3.lattice.index[Partition.parse("12|3")] & 1)
            assert in_f == holds

    def test_complement_partitions_context(self, ctx3):
        f = principal_filter(ctx3, Partition.parse("12|3"))
        assert f.members & f.complement == 0
        assert f.members | f.complement == ctx3.poset.full

    def test_display_by_minimal_ideals(self, ctx3):
        f = principal_filter(ctx3, Partition.parse("12|3"))
        assert str(f) == "↑{↓{12|3}}"

    def test_principal_filter_size_n3(self, ctx3):
        # ideals containing 12|3: its principal ideal, three two-generator
        # joins... exactly the 5 ideals whose member set includes 12|3
        f = principal_filter(ctx3, Partition.parse("12|3"))
        assert len(f) == 5


class TestExistence:
    def test_full_filter_realizes_bottom(self, ctx3):
        f = full_filter(ctx3)
        verdict = class_exists(f)
        assert verdict.exists
        assert verdict.witness == Partition.bottom(3)
        assert type_set(f) == (Partition.bottom(3),)

    def test_principal_filters_realize_their_partition(self, ctx3):
        for p in ctx3.lattice.partitions:
            f = principal_filter(ctx3, p)
            assert class_exists(f).exists
            assert type_set(f) == (p,)

    def test_empty_class(self, ctx3):
        # require top's ideal but exclude some ideal containing top: impossible
        top = principal_ideal(ctx3.lattice, ctx3.lattice.top_index)
        f = make_filter(ctx3, [top])
        assert len(f) == 1
        assert class_exists(f).exists  # only top's principal ideal is above
        # a genuinely empty one: demand two incomparable principal ideals
        a = principal_ideal(ctx3.lattice, Partition.parse("12|3"))
        b = principal_ideal(ctx3.lattice, Partition.parse("13|2"))
        g = make_filter(ctx3, [a, b])
        assert not class_exists(g).exists
        assert type_set(g) == ()

    def test_existence_matches_oracle_everywhere_n3(self, ctx3):
        for f in enumerate_filters(ctx3):
            assert class_exists(f).exists == bool(type_set(f))

    def test_witness_is_a_type(self, ctx3):
        for f in enumerate_filters(ctx3):
            verdict = class_exists(f)
            if verdict.exists:
                assert verdict.witness in type_set(f)


class TestEquality:
    def test_reflexive(self, ctx3):
        for f in enumerate_filters(ctx3):
            assert classes_equal(f, f)

    def test_matches_oracle_all_pairs_n3(self, ctx3):
        filters = list(enumerate_filters(ctx3))
        types = {f: type_set(f) for f in filters}
        for i, a in enumerate(filters):
            for b in filters[i:]:
                assert classes_equal(a, b) == (types[a] == types[b])

    def test_empty_classes_all_equal(self, ctx3):
        empty = [f for f in enumerate_filters(ctx3) if not type_set(f)]
        assert empty
        for a in empty:
            for b in empty:
                assert classes_equal(a, b)

    def test_cross_context_rejected(self, ctx3, lat4):
        f = full_filter(ctx3)
        g = full_filter(atom_context(lat4))
        with pytest.raises(ValueError):
            classes_equal(f, g)


class TestOrder:
    def test_chain_context_orders(self, lat4):
        ctx = k_partitionability_context(lat4)
        fs = list(enumerate_filters(ctx))
        assert len(fs) == 4
        fs.sort(key=len)
        assert class_order(fs[0], fs[1]) == "less"
        assert class_order(fs[1], fs[0]) == "greater"
        assert class_order(fs[0], fs[0]) == "equal"

    def test_incomparable(self, lat4):
        ctx = atom_context(lat4)
        a = make_filter(ctx, [0])
        b = make_filter(ctx, [1])
        assert class_order(a, b) == "incomparable"


class TestEnumerateFilters:
    def test_count_n3(self, ctx3):
        assert sum(1 for _ in enumerate_filters(ctx3)) == 20

    def test_antichain_count(self, lat4):
        ctx = atom_context(lat4)
        assert sum(1 for _ in enumerate_filters(ctx)) == 63

    def test_refuses_large_context(self, ip4):
        with pytest.raises(CapExceeded):
            list(enumerate_filters(full_context(ip4)))

    def test_deterministic(self, ctx3):
        assert ([f.members for f in enumerate_filters(ctx3)]
                == [f.members for f in enumerate_filters(ctx3)])


class TestPrincipalIdentities:
    def test_all_filters_n3(self, ctx3, ip3):
        for f in enumerate_filters(ctx3):
            report = lemma_principal_check(f, universe=ip3)
            assert report["ok"], (str(f), report)

    def test_sub_context(self, lat4, ip4):
        ctx = k_partitionability_context(lat4)
        for f in enumerate_filters(ctx):
            assert lemma_principal_check(f, universe=ip4)["ok"]


class TestCrossCheck:
    def test_clean_report_n3(self, ctx3):
        report = oracle_cross_check(ctx3, enumerate_filters(ctx3))
        assert report["ok"]
        assert report["filters_checked"] == 20
        assert report["pairs_checked"] == 20 * 21 // 2

    def test_shared_class_mask_fails_equality(self, monkeypatch, capsys,
                                              lat3):
        # the all-atoms label (class 1|2|3) is given the mask of the
        # first single-atom label: same mask, different type sets
        monkeypatch.setattr(classify, "class_mask",
                            _full_label_as_first_atom)
        ctx = atom_context(lat3)
        report = oracle_cross_check(ctx, enumerate_filters(ctx))
        first, full = make_filter(ctx, [0]), full_filter(ctx)
        assert {"kind": "equality",
                "labels": [str(first), str(full)]} in report["discrepancies"]
        assert main(["verify", "--n", "3", "--context", "atoms"]) == 3
        assert "FAIL oracle.atoms" in capsys.readouterr().out

    def test_random_sub_contexts(self, ip4):
        from corrclass.ideals import PropertyContext
        rng = random.Random(11)
        for _ in range(25):
            chosen = rng.sample(range(len(ip4.ideals)), rng.randint(1, 6))
            ctx = PropertyContext(ip4.lattice,
                                  [ip4.ideals[i] for i in chosen])
            report = oracle_cross_check(ctx, enumerate_filters(ctx))
            assert report["ok"], report["discrepancies"]


class TestDescriptors:
    def test_describe_matches_pieces(self, ctx3):
        f = principal_filter(ctx3, Partition.parse("123"))
        d = describe_class(f)
        assert isinstance(d, ClassDescriptor)
        assert d.meet_of_filter == meet_members(f)
        assert d.join_of_complement == complement_join_members(f)
        assert d.types == type_set(f)
        assert d.type_mask() == 1 << ctx3.lattice.index[Partition.parse("123")]

    def test_jsonl_records(self, ctx3):
        import json
        descriptors = [describe_class(f) for f in enumerate_filters(ctx3)]
        lines = class_report_jsonl(descriptors).splitlines()
        assert len(lines) == 20
        rec = json.loads(lines[0])
        assert set(rec) == {"label", "exists", "witness", "type_set",
                            "canonical_generator"}

    def test_record_canonical_generator(self, ctx3):
        f = principal_filter(ctx3, Partition.parse("12|3"))
        rec = class_record(describe_class(f))
        assert rec["canonical_generator"] == "↓{12|3}"
        assert rec["type_set"] == ["12|3"]
