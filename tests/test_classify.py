import random

import pytest

from corrclass import catalogs, classify
from corrclass.catalogs import (class_record, class_report_jsonl,
                                custom_catalog)
from corrclass.classify import (ClassDescriptor, Filter, class_exists,
                                class_mask, complement_join_members,
                                cross_check, describe_class,
                                enumerate_filters, lemma_principal_check,
                                make_filter, meet_members, signature_groups)
from corrclass.cli import main
from corrclass.ideals import (PropertyContext, atom_context, full_context,
                              k_partitionability_context, principal_ideal)
from corrclass.poset import CapExceeded

from partition_reference import Partition, partitions_of
from test_signature import assert_catalog_meets_oracle, oracle_types


@pytest.fixture(scope="module")
def ctx3(ip3):
    return full_context(ip3)


_label_walk = catalogs.label_walk


def _full_label_as_first_atom(context):
    """The catalog's label walk, with the full label carrying the first
    atom label's class mask."""
    for members, mins, mask in _label_walk(context):
        if members == context.poset.full:
            mask = Filter(context, 1).mask
        yield members, mins, mask


def principal_filter(ctx, spec):
    """The up-closure of the principal ideal of the partition ``spec``."""
    [i] = ctx.lattice.parse(spec)
    return make_filter(ctx, [principal_ideal(ctx.lattice, i)])


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
        f = principal_filter(ctx3, "12|3")
        # everything above the generator, nothing else
        for i, ideal in enumerate(ctx3.ideals):
            in_f = bool((f.members >> i) & 1)
            holds = bool(ideal.members >> ctx3.lattice.parse("12|3")[0] & 1)
            assert in_f == holds

    def test_complement_partitions_context(self, ctx3):
        f = principal_filter(ctx3, "12|3")
        assert f.members & f.complement == 0
        assert f.members | f.complement == ctx3.poset.full

    def test_display_by_minimal_ideals(self, ctx3):
        f = principal_filter(ctx3, "12|3")
        assert str(f) == "↑{↓{12|3}}"

    def test_principal_filter_size_n3(self, ctx3):
        # ideals containing 12|3: its principal ideal, three two-generator
        # joins... exactly the 5 ideals whose member set includes 12|3
        f = principal_filter(ctx3, "12|3")
        assert len(f) == 5


class TestExistence:
    def test_full_filter_realizes_bottom(self, ctx3):
        f = Filter(ctx3, ctx3.poset.full)
        verdict = class_exists(f)
        assert verdict.exists
        lattice = ctx3.lattice
        assert partitions_of(lattice)[verdict.witness] == Partition.bottom(3)
        assert oracle_types(f) == 1 << lattice.bottom_index

    def test_principal_filters_realize_their_partition(self, ctx3):
        for i, p in enumerate(partitions_of(ctx3.lattice)):
            f = principal_filter(ctx3, str(p))
            assert class_exists(f).exists
            assert oracle_types(f) == 1 << i

    def test_empty_class(self, ctx3):
        # require top's ideal but exclude some ideal containing top: impossible
        top = principal_ideal(ctx3.lattice, ctx3.lattice.top_index)
        f = make_filter(ctx3, [top])
        assert len(f) == 1
        assert class_exists(f).exists  # only top's principal ideal is above
        # a genuinely empty one: demand two incomparable principal ideals
        lattice = ctx3.lattice
        a, b = (principal_ideal(lattice, i)
                for i in lattice.parse("12|3, 13|2"))
        g = make_filter(ctx3, [a, b])
        assert not class_exists(g).exists
        assert oracle_types(g) == 0

    def test_existence_matches_oracle_everywhere_n3(self, ctx3):
        for f in enumerate_filters(ctx3):
            assert class_exists(f).exists == bool(oracle_types(f))

    def test_witness_is_a_type(self, ctx3):
        for f in enumerate_filters(ctx3):
            verdict = class_exists(f)
            if verdict.exists:
                assert oracle_types(f) >> verdict.witness & 1


class TestEquality:
    def test_reflexive(self, ctx3):
        for f in enumerate_filters(ctx3):
            assert class_mask(f) == class_mask(f)

    def test_matches_oracle_all_pairs_n3(self, ctx3):
        filters = list(enumerate_filters(ctx3))
        types = {f: oracle_types(f) for f in filters}
        for i, a in enumerate(filters):
            for b in filters[i:]:
                assert (a.mask == b.mask) == (types[a] == types[b])

    def test_empty_classes_all_equal(self, ctx3):
        empty = [f for f in enumerate_filters(ctx3) if not oracle_types(f)]
        assert empty
        for a in empty:
            for b in empty:
                assert a.mask == b.mask


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
            report = lemma_principal_check(ctx3.split(f.members),
                                           universe=ip3)
            assert report["ok"], (str(f), report)

    def test_sub_context(self, lat4, ip4):
        ctx = k_partitionability_context(lat4)
        for f in enumerate_filters(ctx):
            assert lemma_principal_check(ctx.split(f.members),
                                         universe=ip4)["ok"]

    @pytest.mark.parametrize("side", ["meet", "join"])
    def test_universe_missing_an_ideal_fails(self, lat4, ip4, side):
        """A universe that lacks a realized label's filter meet or its
        (nonzero) complement join is not every ideal: the lemma fails."""
        ctx = k_partitionability_context(lat4)
        splits = (ctx.split(f.members) for f in enumerate_filters(ctx))
        # a realized label whose complement is not empty
        split = next(s for s in splits if s[2] & ~s[3] and s[3])
        missing = split[2] if side == "meet" else split[3]
        partial = PropertyContext(lat4, [ideal for ideal in ip4.ideals
                                         if ideal.members != missing])
        assert len(partial) == len(ip4) - 1
        report = lemma_principal_check(split, universe=partial)
        assert report["exists"] and not report["ok"]
        assert report[f"{side}_in_universe"] is False
        assert lemma_principal_check(split, universe=ip4)["ok"]


class TestCrossCheck:
    def test_clean_report_n3(self, ctx3):
        catalog = custom_catalog(ctx3)
        assert_catalog_meets_oracle(catalog)
        assert len(catalog.classes) + len(catalog.empties) == 20

    def test_shared_class_mask_fails_equality(self, monkeypatch, capsys,
                                              lat3):
        # the all-atoms label (class 1|2|3) is given the mask of the
        # first single-atom label: a nonempty mask, but not its group
        monkeypatch.setattr(catalogs, "label_walk",
                            _full_label_as_first_atom)
        ctx = atom_context(lat3)
        assert custom_catalog(ctx).discrepancies == [
            {"kind": "mask", "labels": [str(Filter(ctx, ctx.poset.full))]}]
        assert main(["verify", "--n", "3", "--context", "atoms"]) == 3
        assert "FAIL oracle.atoms" in capsys.readouterr().out

    def test_reports_each_failing_record(self, ctx3):
        records = [describe_class(f, oracle_types(f))
                   for f in enumerate_filters(ctx3)]
        assert len(records) == 20
        assert cross_check(signature_groups(ctx3), iter(records)) == []
        first = records[0]
        flipped = ClassDescriptor(first.label, 0 if first.exists else 1,
                                  first.witness, first.types)
        assert cross_check(signature_groups(ctx3),
                           iter([first, flipped, first])) == [
            {"kind": "existence", "labels": [str(flipped.label)]}]
        assert cross_check(signature_groups(ctx3), []) == []

    def test_random_sub_contexts(self, ip4):
        rng = random.Random(11)
        for _ in range(25):
            chosen = rng.sample(range(len(ip4.ideals)), rng.randint(1, 6))
            ctx = PropertyContext(ip4.lattice,
                                  [ip4.ideals[i] for i in chosen])
            assert_catalog_meets_oracle(custom_catalog(ctx))


class TestDescriptors:
    def test_describe_matches_pieces(self, ctx3):
        f = principal_filter(ctx3, "123")
        d = describe_class(f, oracle_types(f))
        assert isinstance(d, ClassDescriptor)
        assert d.mask == meet_members(f) & ~complement_join_members(f)
        assert d.mask == class_exists(f).mask
        assert d.types == oracle_types(f)
        assert d.types == 1 << ctx3.lattice.top_index

    def test_one_record_per_label(self, ctx3):
        for f in enumerate_filters(ctx3):
            verdict = class_exists(f)
            assert isinstance(verdict, ClassDescriptor)
            assert verdict.label is f
            assert verdict.types == 0
            d = describe_class(f, oracle_types(f))
            assert (d.label, d.mask, d.witness, d.types) == (
                verdict.label, verdict.mask, verdict.witness, oracle_types(f))

    def test_describe_class_sets_types_on_the_verdict(self, monkeypatch,
                                                      ctx3):
        f = Filter(ctx3, ctx3.poset.full)
        verdict = class_exists(f)
        monkeypatch.setattr(classify, "class_exists", lambda g: verdict)
        assert describe_class(f, 0) is verdict
        assert verdict.types == 0
        assert describe_class(f, oracle_types(f)) is verdict
        assert verdict.types == oracle_types(f)

    def test_jsonl_describes_each_label_once(self, monkeypatch, capsys):
        # atoms at n = 4: 63 labels, 7 of them classes; an empty label is
        # checked and written from the walk's masks, with no record
        calls = []

        def counted(f):
            calls.append(f.members)
            return class_exists(f)

        monkeypatch.setattr(classify, "class_exists", counted)
        assert main(["classify", "--n", "4", "--context", "atoms",
                     "--output", "jsonl"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 63
        assert len(calls) == len(set(calls)) == 7

    def test_jsonl_records(self, ctx3):
        import json
        descriptors = [describe_class(f, oracle_types(f))
                       for f in enumerate_filters(ctx3)]
        lines = "".join(class_report_jsonl(descriptors)).splitlines()
        assert len(lines) == 20
        rec = json.loads(lines[0])
        assert set(rec) == {"label", "exists", "witness", "type_set",
                            "canonical_generator"}

    def test_record_canonical_generator(self, ctx3):
        f = principal_filter(ctx3, "12|3")
        rec = class_record(describe_class(f, oracle_types(f)))
        assert rec["canonical_generator"] == "↓{12|3}"
        assert rec["type_set"] == ["12|3"]
