import pytest
from hypothesis import example, given, strategies as st

from corrclass.poset import OrderViolation, Poset, bits


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

    def test_is_chain(self):
        p = diamond()
        assert p.is_chain(mask(0, 1, 3))
        assert not p.is_chain(mask(1, 2))
        assert p.is_chain(mask(1))


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
    """Atoms and coatoms as the package takes them: the minimal elements
    above the bottom and the maximal elements below the top."""

    def test_chain(self):
        p = chain(3)
        assert p.minimal(p.full & ~mask(0)) == mask(1)
        assert p.maximal(p.full & ~mask(2)) == mask(1)

    def test_diamond(self):
        p = diamond()
        assert p.minimal(p.full & ~mask(0)) == mask(1, 2)
        assert p.maximal(p.full & ~mask(3)) == mask(1, 2)


class TestEnumeration:
    def test_single_element(self):
        p = chain(1)
        assert list(p.downsets()) == [1]

    def test_chain_counts(self):
        p = chain(3)
        assert list(p.downsets()) == [mask(0), mask(0, 1), mask(0, 1, 2)]

    def test_antichain_upsets(self):
        p = antichain(3)
        assert len(list(p.upsets())) == 7

    def test_all_down_closed_unique(self):
        p = diamond()
        seen = list(p.downsets())
        assert len(seen) == 5
        assert len(seen) == len(set(seen))
        for q in seen:
            assert p.down_closure(q) == q

    def test_dual_count_matches(self):
        p = diamond()
        assert (len(list(p.downsets()))
                == len(list(Poset.from_leq(list(p.above)).upsets())))

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


@st.composite
def wide_posets(draw):
    """Posets of 1-40 elements, so one run of 8, several, or a partial last
    run, from each of the three constructors."""
    m = draw(st.integers(min_value=1, max_value=40))
    how = draw(st.sampled_from(["pairs", "leq", "inclusion"]))
    if how == "inclusion":
        masks = draw(st.lists(st.integers(0, (1 << 12) - 1), min_size=m,
                              max_size=m, unique=True))
        return Poset.by_inclusion(masks)
    # pairs (a, b) with a <= b keep the relation acyclic, so it is an order
    pairs = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
        .map(sorted), max_size=2 * m))
    p = Poset.from_pairs(m, pairs)
    return p if how == "pairs" else Poset.from_leq(p.below)


@given(wide_posets(), st.lists(st.integers(min_value=0), min_size=1,
                               max_size=6))
def test_up_closure_matches_or_over_members(p, raws):
    masks = [raw % (p.full + 1) for raw in raws]
    for q in masks + masks:  # the second pass reads the memo
        expected = 0
        for y in bits(q):
            expected |= p.above[y]
        assert p.up_closure(q) == expected
    with pytest.raises(IndexError):
        p.up_closure(1 << p.m)
    with pytest.raises(IndexError):
        p.up_closure(-1)


@given(wide_posets(), st.lists(st.integers(min_value=0), min_size=1,
                               max_size=6))
def test_down_closure_matches_or_over_members(p, raws):
    masks = [raw % (p.full + 1) for raw in raws]
    for q in masks + masks:  # the second pass reads the memo
        expected = 0
        for y in bits(q):
            expected |= p.below[y]
        assert p.down_closure(q) == expected
    with pytest.raises(IndexError):
        p.down_closure(1 << p.m)
    with pytest.raises(IndexError):
        p.down_closure(-1)


def brute_covers(p):
    """The pairs i < j with nothing strictly between, from the relation
    masks alone."""
    return sorted((i, j) for j in range(p.m) for i in range(p.m)
                  if i != j and p.below[j] >> i & 1
                  and not p.below[j] & p.above[i] & ~(1 << i | 1 << j))


@given(wide_posets())
@example(Poset.from_pairs(1, []))
@example(Poset.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
def test_covers_match_brute_force(p):
    assert p.covers() == brute_covers(p)


def test_covers_refuses_above_that_is_not_below_transposed():
    # 0 and 1 each claim the other above them, so the climb below 2 from
    # 0 goes to 1 and back: it must fail, not loop
    p = Poset.by_inclusion([0b001, 0b010, 0b111])
    p.above = [0b111, 0b111, 0b100]
    with pytest.raises(OrderViolation, match="1 is above 0"):
        p.covers()


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


@st.composite
def narrow_masks(draw):
    """More distinct masks than bits, the widest of exactly ``width`` bits,
    so :meth:`Poset.by_inclusion` reads holder columns: widths 1-20 hold
    a lone column, whole runs of 8 and partial last runs, down to one
    column."""
    width = draw(st.integers(1, 20))
    first = draw(st.integers(1 << width - 1, (1 << width) - 1))
    rest = draw(st.lists(st.integers(0, (1 << width) - 1),
                         min_size=width + 1, max_size=width + 8, unique=True))
    return draw(st.permutations([first, *(r for r in rest if r != first)]))


# Up to 12 masks of up to 6 bits, and narrow masks: both sides of
# by_inclusion's choice between holder columns (fewer bits than masks) and
# the pairwise loop, each also pinned by an example, as are column runs.
@given(st.lists(st.integers(0, 63), min_size=1, max_size=12, unique=True)
       | narrow_masks())
@example([0b00, 0b01, 0b10, 0b11])
@example([0b001, 0b011, 0b110])
@example([0, 1])  # one column
@example(list(range(0, 256, 19)))  # one whole run
@example(list(range(0, 512, 37)))  # a whole run, then one column
@example(list(range(0, 1 << 17, 5000)))  # two whole runs, then one column
def test_by_inclusion_matches_double_loop(masks):
    below = [0] * len(masks)
    above = [0] * len(masks)
    for i, a in enumerate(masks):
        for j, b in enumerate(masks):
            if b | a == a:
                below[i] |= 1 << j
                above[j] |= 1 << i
    p = Poset.by_inclusion(masks)
    assert p.below == below
    assert p.above == above


def test_by_inclusion_rejects_duplicates():
    with pytest.raises(OrderViolation):
        Poset.by_inclusion([0b01, 0b11, 0b01])


def test_by_inclusion_rejects_negative_masks():
    # fewer bits than masks: the column walk would never end on a negative
    with pytest.raises(ValueError, match="negative"):
        Poset.by_inclusion([-1, 0b01, 0b10])


@given(posets())
def test_upsets_lexicographic_over_upset_order(p):
    # the empty up-set, which callers put first, sorts first
    order = p.upset_order()
    emitted = [[q >> e & 1 for e in order] for q in [0, *p.upsets()]]
    assert emitted == sorted(emitted)


@given(posets(), st.data())
def test_weighted_upsets_carry_minimal_meet_join(p, data):
    weights = data.draw(st.lists(st.integers(0, 255), min_size=p.m,
                                 max_size=p.m))
    top = 255
    walked = list(p.weighted_upsets(weights, top))
    assert [u for u, *_ in walked] == list(p.upsets())
    for u, mins, cell in walked:
        assert mins == p.minimal(u)
        meet, join = top, 0
        for e in range(p.m):
            if u >> e & 1:
                meet &= weights[e]
            else:
                join |= weights[e]
        assert cell == meet & ~join
