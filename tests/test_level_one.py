"""Level II and III read Level I only through its order, full mask, size
and names, so any finite poset can stand in for the partition lattice: a
random poset, with a random context of its down-sets, classifies without
a discrepancy, and every label passes ``type_set`` and the principal-label
lemma."""

from hypothesis import given, settings, strategies as st

from corrclass.catalogs import custom_catalog
from corrclass.classify import (label_name, lemma_principal_check,
                                signature_groups, type_set)
from corrclass.ideals import Ideal, PropertyContext
from corrclass.poset import Poset, bits


class PosetLevel:
    """A finite poset in the place of Level I; element i is named "e<i>"."""

    def __init__(self, poset):
        self.poset = poset
        self.full_mask = poset.full

    def __len__(self):
        return self.poset.m

    def names(self, mask):
        return [f"e{i}" for i in bits(mask)]


@st.composite
def levels_with_contexts(draw):
    """A poset of 1-9 elements from ``Poset.from_pairs`` and a context of
    1-6 of its down-sets."""
    m = draw(st.integers(1, 9))
    # pairs (a, b) with a <= b keep the relation acyclic, so it is an order
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                    st.integers(0, m - 1)).map(sorted),
                          max_size=2 * m))
    level = PosetLevel(Poset.from_pairs(m, pairs))
    downsets = draw(st.sets(st.integers(1, level.full_mask)
                            .map(level.poset.down_closure),
                            min_size=1, max_size=6))
    return level, PropertyContext(
        level, [Ideal(level, mask) for mask in sorted(downsets)])


@settings(max_examples=150, deadline=None)
@given(levels_with_contexts())
def test_random_poset_classifies_as_level_one(level_and_context):
    level, context = level_and_context
    catalog = custom_catalog(context)
    assert catalog.discrepancies == []
    groups = signature_groups(context)
    assert {d.label.members: d.types for d in catalog.classes} == groups
    poset = context.poset
    labels = sum(poset.is_up_closed(q) for q in range(1, poset.full + 1))
    assert len(catalog.classes) + len(catalog.empties) == labels
    names = set()
    for members, types in [
            *((d.label.members, d.types) for d in catalog.classes),
            *((poset.up_closure(mins), 0) for mins in catalog.empties)]:
        split = context.split(members)
        assert type_set(split) == types
        assert lemma_principal_check(split)["ok"]
        names.add(label_name(context.names_of(poset.minimal(members))))
    # each ideal is named by its maxima, so distinct labels get distinct
    # names
    assert len(names) == labels
    assert {str(d.label) for d in catalog.classes} <= names
    assert all(name.startswith("↑{↓{e") for name in names)
