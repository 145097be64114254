"""Finite posets on integer indices 0..m-1, with bitset-backed relations.

Subsets of a poset are plain Python ints used as bitsets (bit i set means
element i is in the subset).  The order relation is stored as per-element
predecessor masks: ``below[i]`` has bit j set iff j <= i.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class OrderViolation(ValueError):
    """The supplied relation is not a partial order."""


class CapExceeded(RuntimeError):
    """An enumeration exceeded its configured cap."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int], size: int) -> list[int]:
    """The columns of a bit matrix: bit i of out[j] iff bit j of rows[i]."""
    out = [0] * size
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


class Poset:
    """Immutable finite poset.

    Three constructors: :meth:`from_leq` (a full relation) and
    :meth:`from_pairs` (relation pairs, transitively closed first) validate
    the relation and raise :class:`OrderViolation` if it is not a partial
    order; :meth:`by_inclusion` (distinct bitmasks ordered by inclusion)
    validates nothing, because inclusion of distinct sets is a partial order.
    """

    __slots__ = ("m", "below", "above", "full", "_up_rows", "_down_rows")

    def __init__(self, below: list[int], *, _closed: bool = False):
        self.m = len(below)
        self.below = list(below)
        self.full = (1 << self.m) - 1
        if not _closed:
            self._close()
        self._validate()
        self.above = _transpose(self.below, self.m)
        self._up_rows: dict[int, int] = {}
        self._down_rows: dict[int, int] | None = None  # made on first use

    @classmethod
    def from_leq(cls, below: list[int]) -> "Poset":
        """Poset from a full (already transitive) predecessor-mask list."""
        return cls(below, _closed=True)

    @classmethod
    def by_inclusion(cls, masks: Sequence[int]) -> "Poset":
        """Distinct bitmasks ordered by inclusion: i <= j iff masks[i] is a
        subset of masks[j].

        With fewer bits than masks (Level I, the ideal universe) both
        relations come from the columns ``holders[q]``, the elements holding
        bit q: i's lower set is what holds no bit masks[i] lacks, its upper
        set what holds every bit it has.  The columns are read 8 at a time,
        one run at a time: a run's two byte tables map each byte to what
        holds none of its columns and to what holds all of them, so an
        element costs one lookup in each per run, its complement byte in
        the first and its own byte in the second.  Otherwise (the contexts)
        both relations are filled pairwise, in one pass over the pairs.
        """
        m = len(masks)
        if len(set(masks)) != m:
            raise OrderViolation("duplicate masks break antisymmetry")
        if min(masks, default=0) < 0:
            raise ValueError("a mask is negative")
        full = (1 << m) - 1
        width = max(masks, default=0).bit_length()
        if width < m:
            holders = _transpose(masks, width)
            below, above = [full] * m, [full] * m
            for start in range(0, width, 8):
                run = holders[start:start + 8]
                downs, ups = [full], [full]
                for byte in range(1, 1 << len(run)):
                    high = byte.bit_length() - 1
                    downs.append(downs[byte ^ 1 << high] & ~run[high])
                    ups.append(ups[byte ^ 1 << high] & run[high])
                last = len(ups) - 1
                for i, a in enumerate(masks):
                    byte = a >> start & last
                    below[i] &= downs[byte ^ last]
                    above[i] &= ups[byte]
        else:
            below, above = [], [0] * m
            for i, a in enumerate(masks):
                bit, row = 1 << i, 0
                for j, b in enumerate(masks):
                    if not b & ~a:
                        row |= 1 << j
                        above[j] |= bit
                below.append(row)
        p = object.__new__(cls)
        p.m, p.below, p.above, p.full = m, below, above, full
        p._up_rows, p._down_rows = {}, None
        return p

    @classmethod
    def from_pairs(cls, m: int, pairs: Iterable[tuple[int, int]]) -> "Poset":
        """Poset from relation pairs (a, b) meaning a <= b.

        The relation is made reflexive and transitively closed, so callers
        may supply just the cover relation.
        """
        below = [1 << i for i in range(m)]
        for a, b in pairs:
            if not (0 <= a < m and 0 <= b < m):
                raise IndexError(f"pair ({a}, {b}) out of range for size {m}")
            below[b] |= 1 << a
        return cls(below)

    def _close(self) -> None:
        changed = True
        while changed:
            changed = False
            for i in range(self.m):
                acc = self.below[i]
                for j in bits(acc & ~(1 << i)):
                    acc |= self.below[j]
                if acc != self.below[i]:
                    self.below[i] = acc
                    changed = True

    def _validate(self) -> None:
        for i, mask in enumerate(self.below):
            if mask >> self.m:
                raise IndexError(f"relation mask of {i} exceeds poset size")
            if not (mask >> i) & 1:
                raise OrderViolation(f"relation is not reflexive at {i}")
            for j in bits(mask & ~(1 << i)):
                if (self.below[j] >> i) & 1:
                    raise OrderViolation(f"antisymmetry fails on {{{j}, {i}}}")
                if self.below[j] & ~mask:
                    raise OrderViolation(f"transitivity fails below {i} via {j}")

    def _check_index(self, a: int) -> None:
        if not (0 <= a < self.m):
            raise IndexError(f"element {a} out of range for size {self.m}")

    def _check_subset(self, q: int) -> None:
        if q < 0 or q >> self.m:
            raise IndexError("subset mask has bits outside the poset")

    def leq(self, a: int, b: int) -> bool:
        """True iff a <= b."""
        self._check_index(a)
        self._check_index(b)
        return bool((self.below[b] >> a) & 1)

    def down_closure(self, q: int) -> int:
        """All elements below some element of q (contains q, down-closed).

        Reads q as :meth:`up_closure` does, from a memo of ``below``
        unions; an ``Ideal`` checks its member set with it.  The memo is
        made by the first down-closure, so a poset that takes none (each
        of ``verify --venn``'s small ones) costs nothing more to build.
        """
        if self._down_rows is None:
            self._down_rows = {}
        return self._closure(q, self.below, self._down_rows)

    def up_closure(self, q: int) -> int:
        """All elements above some element of q.

        Reads q 8 elements at a time: each (run of 8, byte) pair maps to
        the OR of its elements' ``above`` rows, filled the first time a
        closure meets it, so a closure costs one lookup per nonzero byte
        and a large poset holds only the rows its closures touched.  This
        is how a catalog's listed empty label is rebuilt from its minimal
        mask.
        """
        return self._closure(q, self.above, self._up_rows)

    def _closure(self, q: int, rel: list[int], rows: dict[int, int]) -> int:
        """The OR of ``rel[y]`` over the elements y of q, read one byte of
        q at a time through ``rows``, the memo keyed by (run, byte)."""
        self._check_subset(q)
        out = 0
        key = 0  # the run's index, shifted past the byte
        while q:
            byte = q & 255
            if byte:
                row = rows.get(key | byte)
                if row is None:
                    start = key >> 8 << 3  # the run's first element
                    row = 0
                    for y in bits(byte):
                        row |= rel[start + y]
                    rows[key | byte] = row
                out |= row
            q >>= 8
            key += 256
        return out

    def is_up_closed(self, q: int) -> bool:
        return self.up_closure(q) == q

    def minimal(self, q: int) -> int:
        """Elements of q with no strictly smaller element inside q."""
        self._check_subset(q)
        out = 0
        for x in bits(q):
            if self.below[x] & q == 1 << x:
                out |= 1 << x
        return out

    def maximal(self, q: int) -> int:
        """Elements of q with no strictly larger element inside q."""
        self._check_subset(q)
        out = 0
        for x in bits(q):
            if self.above[x] & q == 1 << x:
                out |= 1 << x
        return out

    def meet(self, a: int, b: int) -> int | None:
        """Greatest lower bound of a and b, or None if it does not exist."""
        self._check_index(a)
        self._check_index(b)
        lower = self.below[a] & self.below[b]
        if not lower:
            return None
        top = self.maximal(lower)
        if top.bit_count() != 1:
            return None
        g = top.bit_length() - 1
        if lower & ~self.below[g]:
            return None
        return g

    def join(self, a: int, b: int) -> int | None:
        """Least upper bound of a and b, or None if it does not exist."""
        self._check_index(a)
        self._check_index(b)
        upper = self.above[a] & self.above[b]
        if not upper:
            return None
        bot = self.minimal(upper)
        if bot.bit_count() != 1:
            return None
        g = bot.bit_length() - 1
        if upper & ~self.above[g]:
            return None
        return g

    def linear_extension(self) -> list[int]:
        """A fixed linear extension: by size of the lower set, index-tied."""
        return sorted(range(self.m), key=lambda i: (self.below[i].bit_count(), i))

    def downsets(self) -> Iterator[int]:
        """Stream all nonempty down-sets, in a deterministic order."""
        for q, *_ in self._closed_sets(self.below, self.linear_extension()):
            yield q

    def upsets(self) -> Iterator[int]:
        """Stream all nonempty up-sets; the dual of :meth:`downsets`.

        The order is lexicographic over membership of the elements taken in
        :meth:`upset_order`, absent before present; the empty up-set, left
        out, would come first.
        """
        for q, *_ in self._closed_sets(self.above, self.upset_order()):
            yield q

    def weighted_upsets(self, weights: Sequence[int],
                        top: int) -> Iterator[tuple[int, int, int]]:
        """The nonempty up-sets U in :meth:`upsets` order, each as
        ``(U, minimal(U), cell)``: ``cell`` is ``top`` ANDed with
        ``weights[e]`` for every e in U, minus ``weights[e]`` for every e
        outside U."""
        return self._closed_sets(self.above, self.upset_order(), weights, top)

    def upset_order(self) -> list[int]:
        """The element order of :meth:`upsets`: by size of the upper set,
        index-tied."""
        return sorted(range(self.m), key=lambda i: (self.above[i].bit_count(), i))

    def _closed_sets(self, rel: list[int], order: list[int],
                     weights: Sequence[int] | None = None,
                     top: int = 0) -> Iterator[tuple[int, int, int]]:
        """The one walk over the nonempty sets closed under ``rel``
        (``rel[e]`` is what e forces in), as ``(members, extremal, cell)``.

        ``extremal`` holds the members no other member forces in, and
        ``cell`` is ``top`` ANDed with the members' weights, minus the
        non-members' weights.  The meet and join behind the cell are each
        updated by one operation per step, so a set costs O(1) big-int
        operations however large.
        """
        if weights is None:
            weights = [0] * self.m
        strict = {e: rel[e] & ~(1 << e) for e in order}
        # Depth-first over the linear extension; at each element the
        # exclude-branch precedes the include-branch.  A popped branch
        # follows exclude-branches down to its set and stacks each
        # include-branch it passes, so only include-branches are stacked.
        # The element taken in is extremal in the set: what it forces in
        # was taken before it.  The first set reached is the empty one.
        last = len(order)
        stack = [(0, 0, 0, top, 0)]
        while stack:
            t, acc, ext, meet, join = stack.pop()
            while t < last:
                e = order[t]
                s = strict[e]
                t += 1
                if s & acc == s:
                    bit = 1 << e
                    stack.append((t, acc | bit, ext & ~s | bit,
                                  meet & weights[e], join))
                join |= weights[e]
            if acc:
                yield acc, ext, meet & ~join

    def is_chain(self, q: int) -> bool:
        """True iff every pair of elements of q is comparable."""
        self._check_subset(q)
        for x in bits(q):
            if q & ~(self.below[x] | self.above[x]):
                return False
        return True

    def covers(self) -> list[tuple[int, int]]:
        """The covering pairs (i, j) with j covering i, sorted.

        j's lower covers are the maximal elements strictly below it.  Each
        is found by a climb from the lowest element left, through what
        lies above it, to an element with nothing left above it; then
        everything below that cover is removed.  What is removed lies
        below a cover, so nothing above a remaining element is ever
        removed, and a climb's end is a cover.  The work grows with the
        number of covers, not with the number of comparable pairs.

        Each element a climb passes or ends at leaves ``rest`` as it goes
        (it lies below the cover, so it would be removed anyway); ``rest``
        thus shrinks at every step, and ``covers`` ends on any relation.
        Each step is checked against ``below``: a step that ``below`` does
        not hold (``above`` is not its transpose) raises
        :class:`OrderViolation`.
        """
        out = []
        below, above = self.below, self.above
        for j, lower in enumerate(below):
            rest = lower ^ 1 << j
            while rest:
                x = (rest & -rest).bit_length() - 1
                while higher := above[x] & (rest := rest ^ 1 << x):
                    y = (higher & -higher).bit_length() - 1
                    if not below[y] >> x & 1:
                        raise OrderViolation(
                            f"{y} is above {x} but {x} is not below {y}")
                    x = y
                out.append((x, j))
                rest &= ~below[x]
        out.sort()
        return out

    def __len__(self) -> int:
        return self.m

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self.below == other.below

    def __hash__(self) -> int:
        return hash(tuple(self.below))
