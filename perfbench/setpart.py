"""A small set-partition model kept apart from the package under test.

The benchmark generates its custom contexts and checks the package's
answers with this code, so a defect in the package cannot hide itself by
agreeing with its own output.  A partition is a tuple of blocks; a block is
a tuple of 1-based labels; blocks are ordered by their least label.
"""

from __future__ import annotations


def partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..n}, by inserting n into those of n-1."""
    if n == 0:
        return [()]
    out = []
    for p in partitions(n - 1):
        for i in range(len(p)):
            out.append(tuple(b + (n,) if j == i else b
                             for j, b in enumerate(p)))
        out.append(p + ((n,),))
    return sorted(out)


def fmt(p: tuple[tuple[int, ...], ...]) -> str:
    return "|".join("".join(str(x) for x in b) for b in p)


def parse(text: str) -> tuple[tuple[int, ...], ...]:
    blocks = [tuple(sorted(int(ch) for ch in part.strip()))
              for part in text.split("|")]
    return tuple(sorted(blocks))


def refines(p, q) -> bool:
    """True iff every block of p lies inside a block of q."""
    return all(any(set(b) <= set(c) for c in q) for b in p)


def down_closure(universe, generators) -> frozenset:
    """Indices of the partitions in ``universe`` refining some generator."""
    return frozenset(i for i, p in enumerate(universe)
                     if any(refines(p, g) for g in generators))


def maximal(universe, members: frozenset) -> list:
    """The members not strictly refining another member, in index order."""
    return [universe[i] for i in sorted(members)
            if not any(j != i and refines(universe[i], universe[j])
                       for j in members)]


def count_upsets(sets: list[frozenset]) -> int:
    """Nonempty up-sets of the given sets ordered by inclusion.

    Up-sets correspond one to one to antichains (their minimal elements), so
    this counts the nonempty antichains by the include/exclude recursion.
    """
    m = len(sets)
    comparable = [0] * m
    for i in range(m):
        for j in range(m):
            if sets[i] <= sets[j] or sets[j] <= sets[i]:
                comparable[i] |= 1 << j
    memo: dict[int, int] = {0: 1}

    def antichains(avail: int) -> int:
        got = memo.get(avail)
        if got is None:
            low = avail & -avail
            i = low.bit_length() - 1
            got = antichains(avail & ~low) + antichains(avail & ~comparable[i])
            memo[avail] = got
        return got

    return antichains((1 << m) - 1) - 1


def order_shape(sets: list[frozenset]) -> str:
    pairs = [(a, b) for i, a in enumerate(sets) for b in sets[i + 1:]]
    comparable = [a <= b or b <= a for a, b in pairs]
    if all(comparable):
        return "chain"
    if not any(comparable):
        return "antichain"
    return "mixed"
