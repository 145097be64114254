import pytest
from hypothesis import given, strategies as st

from corrclass.poset import MissingExtremum, OrderViolation, Poset, bits


def chain(m):
    return Poset.from_pairs(m, [(i, i + 1) for i in range(m - 1)])


def antichain(m):
    return Poset.from_pairs(m, [])


def diamond():
    # bottom 0, middle 1 and 2, top 3
    return Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def mask(*idx):
    out = 0
    for i in idx:
        out |= 1 << i
    return out


class TestConstruction:
    def test_transitive_closure_from_covers(self):
        p = chain(3)
        assert p.leq(0, 2)

    def test_rejects_cycle(self):
        with pytest.raises(OrderViolation):
            Poset.from_pairs(2, [(0, 1), (1, 0)])

    def test_rejects_missing_reflexivity(self):
        with pytest.raises(OrderViolation):
            Poset.from_leq([0b01, 0b01])

    def test_rejects_non_transitive_full_relation(self):
        with pytest.raises(OrderViolation):
            Poset.from_leq([0b001, 0b011, 0b110])

    def test_index_bounds(self):
        p = chain(2)
        with pytest.raises(IndexError):
            p.leq(0, 5)


class TestOrderPredicates:
    def test_reflexive(self):
        p = diamond()
        assert all(p.leq(a, a) for a in range(4))

    def test_antichain_incomparable(self):
        p = antichain(3)
        assert not any(p.leq(a, b) for a in range(3) for b in range(3)
                       if a != b)

    def test_chain_transitive(self):
        assert chain(3).leq(0, 2)

    def test_is_chain_is_antichain(self):
        p = diamond()
        assert p.is_chain(mask(0, 1, 3))
        assert not p.is_chain(mask(1, 2))
        assert p.is_antichain(mask(1, 2))
        assert p.is_chain(mask(1)) and p.is_antichain(mask(1))


class TestClosures:
    def test_empty(self):
        p = diamond()
        assert p.down_closure(0) == 0
        assert p.up_closure(0) == 0

    def test_top_down_closure_is_all(self):
        p = diamond()
        assert p.down_closure(mask(3)) == p.full

    def test_bottom_up_closure_is_all(self):
        p = diamond()
        assert p.up_closure(mask(0)) == p.full

    def test_down_closure_idempotent(self):
        p = diamond()
        q = mask(1, 2)
        once = p.down_closure(q)
        assert once & q == q
        assert p.down_closure(once) == once


class TestExtremal:
    def test_singleton(self):
        p = diamond()
        assert p.minimal(mask(1)) == mask(1)
        assert p.maximal(mask(1)) == mask(1)

    def test_whole_lattice(self):
        p = diamond()
        assert p.minimal(p.full) == mask(0)
        assert p.maximal(p.full) == mask(3)

    def test_mixed_subset(self):
        p = diamond()
        assert p.maximal(mask(0, 1, 2)) == mask(1, 2)


class TestMeetJoin:
    def test_idempotent(self):
        p = diamond()
        assert p.meet(1, 1) == 1
        assert p.join(2, 2) == 2

    def test_no_lower_bound(self):
        p = antichain(2)
        assert p.meet(0, 1) is None
        assert p.join(0, 1) is None

    def test_diamond(self):
        p = diamond()
        assert p.meet(1, 2) == 0
        assert p.join(1, 2) == 3

    def test_no_unique_bound(self):
        # two bottoms, two tops: bounds exist but none is greatest/least
        p = Poset.from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert p.meet(2, 3) is None
        assert p.join(0, 1) is None


class TestAtomsCoatoms:
    def test_chain(self):
        p = chain(3)
        assert p.atoms() == mask(1)
        assert p.coatoms() == mask(1)

    def test_diamond(self):
        p = diamond()
        assert p.atoms() == mask(1, 2)
        assert p.coatoms() == mask(1, 2)

    def test_missing_bottom(self):
        with pytest.raises(MissingExtremum):
            antichain(2).atoms()


class TestEnumeration:
    def test_single_element(self):
        p = chain(1)
        assert list(p.downsets()) == [1]

    def test_chain_counts(self):
        p = chain(3)
        assert len(list(p.downsets())) == 3
        assert len(list(p.downsets(include_empty=True))) == 4

    def test_antichain_upsets(self):
        p = antichain(3)
        assert len(list(p.upsets())) == 7

    def test_all_down_closed_unique(self):
        p = diamond()
        seen = list(p.downsets(include_empty=True))
        assert len(seen) == len(set(seen))
        for q in seen:
            assert p.down_closure(q) == q

    def test_dual_count_matches(self):
        p = diamond()
        assert (len(list(p.downsets(include_empty=True)))
                == len(list(p.dual().upsets(include_empty=True))))

    def test_deterministic(self):
        p = diamond()
        assert list(p.downsets()) == list(p.downsets())


def test_covers_chain():
    assert chain(3).covers() == [(0, 1), (1, 2)]


def test_bits_roundtrip():
    assert list(bits(0b101001)) == [0, 3, 5]


@st.composite
def posets(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
        max_size=8))
    try:
        return Poset.from_pairs(m, pairs)
    except OrderViolation:
        return antichain(m)


@given(posets(), st.integers(min_value=0))
def test_closure_properties(p, raw):
    q = raw % (p.full + 1)
    down = p.down_closure(q)
    assert down & q == q
    assert p.down_closure(down) == down
    up = p.up_closure(q)
    assert p.up_closure(up) == up


@given(posets())
def test_meet_is_greatest_lower_bound(p):
    for a in range(p.m):
        for b in range(p.m):
            g = p.meet(a, b)
            if g is None:
                continue
            assert p.leq(g, a) and p.leq(g, b)
            for z in range(p.m):
                if p.leq(z, a) and p.leq(z, b):
                    assert p.leq(z, g)


@given(posets())
def test_principal_closure_intersection_is_meet(p):
    # in a lattice: down(a) & down(b) == down(meet(a, b))
    for a in range(p.m):
        for b in range(p.m):
            g = p.meet(a, b)
            if g is None:
                continue
            assert (p.down_closure(1 << a) & p.down_closure(1 << b)
                    == p.down_closure(1 << g))


@given(st.lists(st.integers(0, 63), min_size=1, max_size=12, unique=True))
def test_by_inclusion_matches_double_loop(masks):
    below = [0] * len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if b | a == a:
                below[i] |= 1 << j
    assert Poset.by_inclusion(masks).below == below


def test_by_inclusion_rejects_duplicates():
    with pytest.raises(OrderViolation):
        Poset.by_inclusion([0b01, 0b11, 0b01])


@given(posets())
def test_upsets_lexicographic_over_upset_order(p):
    order = p.upset_order()
    emitted = [[q >> e & 1 for e in order] for q in p.upsets()]
    assert emitted == sorted(emitted)


@given(posets(), st.data())
def test_weighted_upsets_carry_minimal_meet_join(p, data):
    weights = data.draw(st.lists(st.integers(0, 255), min_size=p.m,
                                 max_size=p.m))
    top = 255
    walked = list(p.weighted_upsets(weights, top))
    assert [u for u, *_ in walked] == list(p.upsets())
    for u, mins, meet, join in walked:
        assert mins == p.minimal(u)
        expected_meet, expected_join = top, 0
        for e in range(p.m):
            if u >> e & 1:
                expected_meet &= weights[e]
            else:
                expected_join |= weights[e]
        assert (meet, join) == (expected_meet, expected_join)
