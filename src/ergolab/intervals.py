"""Exact algebra of measurable subsets of [0, 1).

A set is a normalized finite union of half-open intervals [lo, hi) plus at
most one geometric "parity tail" per anchor.  An at-one tail with start N
and parity p denotes the union of the blocks

    I_n = [1 - 2**-n, 1 - 2**-(n+1))        n >= N, n = p (mod 2)

which accumulate at 1; an at-zero tail uses the mirrored blocks

    D_n = [2**-(n+1), 2**-n)                n >= N, n = p (mod 2)

accumulating at 0.  The I_n blocks tile [0, 1) and the D_n blocks tile (0, 1);
all identities hold mod null sets (single points are never represented).

Normal form is unique: the components are sorted, disjoint and
non-adjacent; a tail's blocks are exactly the connected pieces of the set
that it covers, so no component touches a tail block and the tail is
maximally extended toward small indices (block start-2 is not a
component); two same-anchor tails of opposite parity are collapsed into a
plain interval.

Tail-free operands go through ``_merge`` alone.  It walks both lists, one
comparison per endpoint, unless the shorter list, of m intervals, is so
short against the longer one, of n, that (2m + 1) * bit_length(n) < n: then
it bisects the long list once per endpoint of the short one and copies the
pieces in between (``_merge_skewed``), which is what intersecting a set of
2**(j-1) components with a window of one to three takes.  Two operands of a
few components each take the walk, which costs less there than setting up
the bisections.  With tails, an operation works in three steps, each linear
in the components and blocks it touches:

* one depth m per anchor, read from the operand endpoint nearest the
  anchor and the tail starts, with every finite endpoint at least 2**-m
  from the anchor;
* each operand as one sorted list: its components, reused as they are,
  merged with the blocks of its tails below the depth, which are cached
  and listed lazily; beyond the depth each anchor carries one flag per
  parity, combined by the same truth table as the intervals;
* the canonical tail, settled at the anchor end of the result list, where
  "this endpoint is a block boundary" is read from integer fields: a
  component touching the first block takes it in, and components that are
  exactly the blocks below join the tail.

The exact maps of the example systems live here too: rotation
(``IntervalSet.translate_mod1``), doubling and the odometer primitive.
Each emits sorted runs, joined at one seam (``_join``) or merged by union;
only ``IntervalSet.build``, which takes unsorted input, sorts.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import (RepresentationOverflowError,
                     UnsupportedRepresentationError)
from .scalars import (ONE, ZERO, IrrationalTag, Scalar, _halves, _make,
                      parse_scalar)

AT_ONE = "one"
AT_ZERO = "zero"
EVEN = 0
ODD = 1

_PARITY_NAMES = {EVEN: "even", ODD: "odd"}
_PARITY_VALUES = {"even": EVEN, "odd": ODD}


#: 2**-n and the blocks, by index; both are immutable and shared, and each
#: table holds one entry per index used so far
_HALVES: dict[int, Scalar] = {}
_BLOCKS: dict[tuple[str, int], "Interval"] = {}


def _half(n: int) -> Scalar:
    h = _HALVES.get(n)
    if h is None:
        h = _HALVES[n] = _make(1, 0, 1 << n, None)
    return h


class Interval:
    """Half-open interval [lo, hi) with 0 <= lo < hi <= 1."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Scalar, hi: Scalar):
        self.lo = lo
        self.hi = hi

    def to_text(self) -> str:
        return f"{self.lo.to_text()}..{self.hi.to_text()}"

    def __eq__(self, other):
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.to_text()})"


class ParityTail:
    """Infinite union of every-other block accumulating at 0 or 1."""

    __slots__ = ("anchor", "start", "parity")

    def __init__(self, anchor: str, start: int, parity):
        if anchor not in (AT_ONE, AT_ZERO):
            raise ValueError(f"bad anchor {anchor!r}")
        if isinstance(parity, str):
            parity = _PARITY_VALUES[parity]
        if parity not in (EVEN, ODD):
            raise ValueError(f"bad parity {parity!r}")
        if start < 0:
            raise ValueError("tail start must be >= 0")
        if start % 2 != parity:
            start += 1  # first included index
        self.anchor = anchor
        self.start = start
        self.parity = parity

    def measure(self) -> Scalar:
        # sum of 2**-(n+1) over n = start, start+2, ... is a geometric
        # series with ratio 1/4
        return _make(2, 0, 3 << self.start, None)

    def to_text(self) -> str:
        return f"tail({self.anchor}, {self.start}, {_PARITY_NAMES[self.parity]})"

    def __eq__(self, other):
        return (isinstance(other, ParityTail) and self.anchor == other.anchor
                and self.start == other.start and self.parity == other.parity)

    def __hash__(self):
        return hash((self.anchor, self.start, self.parity))

    def __repr__(self):
        return f"ParityTail({self.to_text()})"


def block_one(n: int) -> Interval:
    """I_n = [1 - 2**-n, 1 - 2**-(n+1))."""
    return Interval(ONE - _half(n), ONE - _half(n + 1))


def block_zero(n: int) -> Interval:
    """D_n = [2**-(n+1), 2**-n)."""
    return Interval(_half(n + 1), _half(n))


def _block(anchor: str, n: int) -> Interval:
    blk = _BLOCKS.get((anchor, n))
    if blk is None:
        blk = _BLOCKS[anchor, n] = (block_one(n) if anchor == AT_ONE
                                    else block_zero(n))
    return blk


# ---------------------------------------------------------------------
# sorted runs (sorted, disjoint, non-adjacent interval lists)
# ---------------------------------------------------------------------

def _same(x: Scalar, y: Scalar) -> bool:
    """x == y, read from the canonical integer fields (one tag assumed)."""
    return x.n == y.n and x.d == y.d and x.m == y.m


def _join(a: list[Interval], b: Sequence[Interval]) -> list[Interval]:
    """The run a followed by the run b, with the two pieces that meet at
    the seam merged; `a` is extended in place and returned."""
    if a and b and _same(a[-1].hi, b[0].lo):
        a[-1] = Interval(a[-1].lo, b[0].hi)
        a.extend(b[1:])
    else:
        a.extend(b)
    return a


#: truth tables of the boolean operations, indexed by 2 * (x in a) + (x in b)
_UNION = (False, True, True, True)
_INTERSECT = (False, False, False, True)
_SUBTRACT = (False, False, True, False)


def _merge(a: Sequence[Interval], b: Sequence[Interval],
           keep: tuple[bool, ...]) -> list[Interval]:
    """Combine two normalized interval lists point by point.

    Walks the boundary points of both lists in order, one comparison per
    boundary event, and keeps the points where ``keep[2 * in_a + in_b]``
    holds.  Membership is judged once per distinct point, so touching pieces
    merge and no empty piece is emitted: the result is normalized.  No table
    keeps a point outside both lists (``keep[0]`` is false).

    When one list is much shorter than the other, so that bisecting the
    long list once per endpoint of the short one costs fewer comparisons
    than walking it, ``_merge_skewed`` does the work instead.
    """
    na, nb = len(a), len(b)
    if (2 * na + 1) * nb.bit_length() < nb:
        return _merge_skewed(a, b, keep[2:], keep[:2])
    if (2 * nb + 1) * na.bit_length() < na:
        return _merge_skewed(b, a, keep[1::2], keep[::2])
    out: list[Interval] = []
    i = j = state = 0
    start = None
    while i < na or j < nb:
        ea = (a[i].hi if state & 2 else a[i].lo) if i < na else None
        eb = (b[j].hi if state & 1 else b[j].lo) if j < nb else None
        c = -1 if eb is None else 1 if ea is None else ea.cmp(eb)
        if c <= 0:
            x = ea
            i += state >> 1
            state ^= 2
        if c >= 0:
            x = eb
            j += state & 1
            state ^= 1
        if keep[state]:
            if start is None:
                start = x
        elif start is not None:
            out.append(Interval(start, x))
            start = None
    return out


_LO = attrgetter("lo")


def _merge_skewed(short: Sequence[Interval], long: Sequence[Interval],
                  keep_in: tuple[bool, ...],
                  keep_out: tuple[bool, ...]) -> list[Interval]:
    """``_merge`` in O(len(short) * log(len(long))) comparisons.

    The short list cuts the line into regions: the gaps before, between and
    after its intervals, and the intervals themselves.  Inside a region the
    short list's membership is fixed, so ``keep_in`` (on its intervals) or
    ``keep_out`` (on its gaps), indexed by membership in the long list,
    says what the region contributes: nothing, the whole region, the long
    list's pieces or its gaps.  Each cut is located in the long list by one
    bisection; untouched pieces are copied, and new intervals are built
    only for clipped ends and gaps.  Gaps between consecutive pieces of a
    normalized list are never empty, so they need no comparison, and
    pieces from neighbouring regions meet only at the cut between them.
    """
    out: list[Interval] = []
    x = None     # start of the current region (None: below everything)
    i = 0        # long[i] is the first piece that reaches past x
    cut = False  # long[i] starts before x, so it is clipped there
    for r, y in enumerate([e for iv in short for e in (iv.lo, iv.hi)]
                          + [None]):
        # the region [x, y); long[i:j] are the pieces that meet it, and
        # `over` says that long[j - 1] reaches past y (None: above all)
        if y is None:
            j, over = len(long), False
        else:
            j = bisect_left(long, y, i, key=_LO)
            over = j > i and long[j - 1].hi.cmp(y) > 0
        keep_gap, keep_piece = keep_in if r & 1 else keep_out
        if keep_gap and keep_piece:
            _join(out, (short[r >> 1],))
        elif keep_piece:
            run = list(long[i:j])
            if run:
                if cut:
                    run[0] = Interval(x, run[0].hi)
                if over:
                    run[-1] = Interval(run[-1].lo, y)
                _join(out, run)
        elif keep_gap:
            # only ever inside a short interval, so x and y are finite
            run = long[i:j]
            if not run:
                gaps = [Interval(x, y)]
            else:
                gaps = ([] if cut or _same(run[0].lo, x)
                        else [Interval(x, run[0].lo)])
                gaps += [Interval(p.hi, q.lo) for p, q in zip(run, run[1:])]
                if not (over or _same(run[-1].hi, y)):
                    gaps.append(Interval(run[-1].hi, y))
            _join(out, gaps)
        x, i, cut = y, j - 1 if over else j, over
    return out


# ---------------------------------------------------------------------
# the tailed kernel: one depth per anchor, blocks listed lazily, tails
# canonicalised from block indices
# ---------------------------------------------------------------------

def _depth_for_gap(gap: Scalar) -> int:
    """An m >= 2 with 2**-m <= gap (gap > 0); the smallest one when the
    gap is irrational."""
    if gap.m == 0:
        return max(2, (gap.d // gap.n).bit_length() + 1)
    m = 2
    while gap.cmp(_half(m)) < 0:
        m += 1
    return m


def _depths_for(sets: Sequence["IntervalSet"],
                anchors: Iterable[str]) -> dict[str, int]:
    """Expansion depth per anchor for normalized sets: an m >= 2 no smaller
    than any tail start there, with 2**-m at most the gap between the
    anchor and every finite endpoint.  The smallest gap, at the endpoint
    nearest the anchor, is the only one read."""
    depths: dict[str, int] = {}
    for anchor in anchors:
        m = 2
        for S in sets:
            for t in S.tails:
                if t.anchor == anchor and t.start > m:
                    m = t.start
            ivs = S.intervals
            if ivs:
                if anchor == AT_ONE:
                    iv = ivs[-1]
                    gap = ONE - (iv.lo if _same(iv.hi, ONE) else iv.hi)
                else:
                    iv = ivs[0]
                    gap = iv.hi if _same(iv.lo, ZERO) else iv.lo
                m = max(m, _depth_for_gap(gap))
        depths[anchor] = m
    return depths


def _interleave(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Sorted merge of two sorted runs whose intervals neither overlap nor
    touch one another."""
    if not a or not b:
        return a or b
    if a[-1].hi < b[0].lo:
        return a + b
    if b[-1].hi < a[0].lo:
        return b + a
    out: list[Interval] = []
    i = 0
    for iv in b:
        while i < len(a) and a[i].lo < iv.lo:
            out.append(a[i])
            i += 1
        out.append(iv)
    out.extend(a[i:])
    return out


def _expand(S: "IntervalSet", depths: dict[str, int]):
    """A normalized set as sorted intervals inside the core region plus
    residual flags: ``flags[anchor][parity]`` says that every block n >=
    depth of that parity lies in the set.  Tail blocks are listed only
    below the depth, and the components are reused as they are."""
    flags = {anchor: [False, False] for anchor in depths}
    ivs = list(S.intervals)
    for t in S.tails:
        flags[t.anchor][t.parity] = True
        blocks = [_block(t.anchor, n)
                  for n in range(t.start, depths[t.anchor], 2)]
        if t.anchor == AT_ZERO:
            blocks.reverse()
        ivs = _interleave(ivs, blocks)
    # a piece reaching an anchor covers that anchor's whole residual zone;
    # block I_0 / D_0 of the other anchor's tail does too
    if ivs and AT_ONE in depths and _same(ivs[-1].hi, ONE):
        flags[AT_ONE] = [True, True]
        ivs[-1] = Interval(ivs[-1].lo, _block(AT_ONE, depths[AT_ONE]).lo)
    if ivs and AT_ZERO in depths and _same(ivs[0].lo, ZERO):
        flags[AT_ZERO] = [True, True]
        ivs[0] = Interval(_block(AT_ZERO, depths[AT_ZERO]).hi, ivs[0].hi)
    return ivs, flags


def _settle(ivs: list[Interval], anchor: str, start: int) -> int:
    """Canonical start of a tail whose blocks from `start` on lie in the
    set beyond every component of `ivs`, which is edited in place.

    A component touching the first block takes that block in, and the
    tail starts two blocks later; otherwise components that are exactly
    the blocks start-2, start-4, ... join the tail.  Only the components
    at the anchor end of the list are read, and block identity is decided
    from integer fields."""
    if anchor == AT_ONE:
        first = _block(AT_ONE, start)
        if ivs and _same(ivs[-1].hi, first.lo):
            ivs[-1] = Interval(ivs[-1].lo, first.hi)
            return start + 2
        i = len(ivs)
        while start >= 2 and i:
            blk = _block(AT_ONE, start - 2)
            while i and ivs[i - 1].lo >= blk.hi:  # inside block start - 1
                i -= 1
            if not (i and _same(ivs[i - 1].lo, blk.lo)
                    and _same(ivs[i - 1].hi, blk.hi)):
                break
            i -= 1
            del ivs[i]
            start -= 2
        return start
    first = _block(AT_ZERO, start)
    if ivs and _same(ivs[0].lo, first.hi):
        ivs[0] = Interval(first.lo, ivs[0].hi)
        return start + 2
    i = 0
    while start >= 2 and i < len(ivs):
        blk = _block(AT_ZERO, start - 2)
        while i < len(ivs) and ivs[i].hi <= blk.lo:  # inside block start - 1
            i += 1
        if not (i < len(ivs) and _same(ivs[i].lo, blk.lo)
                and _same(ivs[i].hi, blk.hi)):
            break
        del ivs[i]
        start -= 2
    return start


def _collapse(ivs: list[Interval], flags,
              depths: dict[str, int]) -> "IntervalSet":
    """Normal form of sorted, normalized core intervals (edited in place)
    plus the residual zones the flags mark."""
    for anchor, (even, odd) in flags.items():
        if even and odd:
            if anchor == AT_ONE:
                edge = _block(AT_ONE, depths[AT_ONE]).lo
                ivs = _join(ivs, (Interval(edge, ONE),))
            else:
                edge = _block(AT_ZERO, depths[AT_ZERO]).hi
                ivs = _join([Interval(ZERO, edge)], ivs)
    tails = []
    for anchor, (even, odd) in flags.items():
        if even != odd:
            parity = ODD if odd else EVEN
            m = depths[anchor]
            start = m if m % 2 == parity else m + 1
            tails.append(ParityTail(anchor, _settle(ivs, anchor, start),
                                    parity))
    return IntervalSet(tuple(ivs), frozenset(tails))


# ---------------------------------------------------------------------
# the set type
# ---------------------------------------------------------------------

class IntervalSet:
    """Normalized measurable subset of [0, 1).

    Do not call the constructor with unnormalized data; use ``build`` /
    ``make_set`` / ``from_text``.
    """

    __slots__ = ("intervals", "tails")

    def __init__(self, intervals: tuple[Interval, ...] = (),
                 tails: frozenset[ParityTail] = frozenset()):
        if len(tails) > 1 and len({t.anchor for t in tails}) < len(tails):
            raise RepresentationOverflowError(
                "more than one parity tail per anchor in normal form")
        self.intervals = (intervals if type(intervals) is tuple
                          else tuple(intervals))
        self.tails = tails if type(tails) is frozenset else frozenset(tails)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, intervals: Iterable[Interval],
              tails: Iterable[ParityTail] = ()) -> "IntervalSet":
        ivs = list(intervals)
        for iv in ivs:
            if iv.lo < ZERO or iv.hi > ONE:
                raise ValueError(f"interval {iv.to_text()} outside [0,1)")
            if not iv.lo < iv.hi:
                raise ValueError(f"empty or inverted interval {iv.to_text()}")
        # the one entry point for unsorted input: sort, then coalesce
        ivs.sort(key=lambda iv: iv.lo)
        out: list[Interval] = []
        for iv in ivs:
            if out and iv.lo <= out[-1].hi:
                if iv.hi > out[-1].hi:
                    out[-1] = Interval(out[-1].lo, iv.hi)
            else:
                out.append(iv)
        S = cls(tuple(out))
        for t in tails:
            # a lone tail is in normal form
            S = S._combine(cls((), frozenset((t,))), _UNION)
        return S

    def _anchors(self) -> set[str]:
        return {t.anchor for t in self.tails}

    # -- predicates ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.intervals and not self.tails

    def equals(self, other: "IntervalSet") -> bool:
        return self.intervals == other.intervals and self.tails == other.tails

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.equals(other)

    def __hash__(self):
        return hash((self.intervals, self.tails))

    def component_count(self) -> int:
        return len(self.intervals) + len(self.tails)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.subtract(other).is_empty()

    # -- measure ----------------------------------------------------------

    def measure(self) -> Scalar:
        # sum (n + m*alpha) / d over a common denominator d
        d = lcm(*(s.d for iv in self.intervals for s in (iv.lo, iv.hi)),
                *(3 << t.start for t in self.tails))
        n = m = 0
        tag = None
        for iv in self.intervals:
            lo, hi = iv.lo, iv.hi
            fl, fh = d // lo.d, d // hi.d
            n += hi.n * fh - lo.n * fl
            m += hi.m * fh - lo.m * fl
            if tag is None:
                tag = lo.tag or hi.tag
        for t in self.tails:
            n += 2 * d // (3 << t.start)
        return _make(n, m, d, tag)

    # -- boolean algebra ---------------------------------------------------

    def _combine(self, other: "IntervalSet",
                 keep: tuple[bool, ...]) -> "IntervalSet":
        if not (self.tails or other.tails):
            return IntervalSet(tuple(_merge(self.intervals, other.intervals,
                                            keep)))
        depths = _depths_for((self, other),
                             self._anchors() | other._anchors())
        ia, fa = _expand(self, depths)
        ib, fb = _expand(other, depths)
        flags = {a: [keep[2 * x + y] for x, y in zip(fa[a], fb[a])]
                 for a in depths}
        return _collapse(_merge(ia, ib, keep), flags, depths)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return self._combine(other, _UNION)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self._combine(other, _INTERSECT)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        return self._combine(other, _SUBTRACT)

    def complement(self) -> "IntervalSet":
        # [0, 1) expands to the core region with every residual flag set,
        # so this is the merge of the core against self
        return FULL._combine(self, _SUBTRACT)

    # -- geometry -----------------------------------------------------------

    def translate_mod1(self, t: Scalar) -> "IntervalSet":
        """The set moved by t around the circle [0, 1), as a rotation of
        the sorted list: pieces pushed past 1 wrap to the front, and the
        one piece that straddles 1 splits.  t is rounded only when it
        lies outside [0, 1)."""
        if self.tails:
            raise UnsupportedRepresentationError(
                "translation of parity tails is not representable")
        if t.cmp(ZERO) < 0 or t.cmp(ONE) >= 0:
            t = t.mod1()
        front: list[Interval] = []  # the pieces past 1, moved down by 1
        back: list[Interval] = []
        for iv in self.intervals:
            lo, hi = iv.lo + t, iv.hi + t
            if front or lo >= ONE:
                front.append(Interval(lo - ONE, hi - ONE))
            elif hi > ONE:
                front.append(Interval(ZERO, hi - ONE))
                back.append(Interval(lo, ONE))
            else:
                back.append(Interval(lo, hi))
        return IntervalSet(tuple(_join(front, back)))

    # -- text form ------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_empty():
            return "empty"
        parts = [iv.to_text() for iv in self.intervals]
        parts += [t.to_text() for t in sorted(self.tails,
                                              key=lambda t: (t.anchor, t.start))]
        return ", ".join(parts)

    def __repr__(self):
        return f"IntervalSet({self.to_text()!r})"


EMPTY = IntervalSet()
FULL = IntervalSet((Interval(ZERO, ONE),))


# ---------------------------------------------------------------------
# the maps: each builds the normal form of its result from sorted runs
# (rotation is ``IntervalSet.translate_mod1``)
# ---------------------------------------------------------------------

def doubling_preimage(S: IntervalSet) -> IntervalSet:
    """{x : 2x mod 1 in S} = S/2 union (S/2 + 1/2)."""
    if S.tails:
        raise UnsupportedRepresentationError("doubling does not act on tails")
    left = []
    right = []
    for iv in S.intervals:
        lo, lo_right = _halves(iv.lo)
        hi, hi_right = _halves(iv.hi)
        left.append(Interval(lo, hi))
        right.append(Interval(lo_right, hi_right))
    # left ends at 1/2 only when S reached 1, right starts at 1/2 only when
    # S reached 0
    return IntervalSet(tuple(_join(left, right)))


def doubling_image(S: IntervalSet) -> IntervalSet:
    """Exact forward image 2S mod 1: the doubled parts of S below and above
    1/2 are two sorted runs, combined by union."""
    if S.tails:
        raise UnsupportedRepresentationError("doubling does not act on tails")
    half = _half(1)
    low = [Interval(iv.lo + iv.lo, min(iv.hi, half) * 2)
           for iv in S.intervals if iv.lo < half]
    high = [Interval(max(iv.lo, half) * 2 - ONE, iv.hi + iv.hi - ONE)
            for iv in S.intervals if iv.hi > half]
    return IntervalSet(tuple(_merge(low, high, _UNION)))


def _odometer_map(S: IntervalSet, src: str) -> IntervalSet:
    """Translate each block n of anchor `src` onto block n of the other
    anchor (I_n onto D_n is the adding-machine primitive); the residual
    zone beyond the depth moves along as flags."""
    dst = AT_ZERO if src == AT_ONE else AT_ONE
    depths = _depths_for((S,), (src,))
    m = depths[src]
    ivs, flags = _expand(S, depths)
    # the blocks are visited from the top of [0, 1) down; their images
    # then come out in increasing order, each block's pieces in order
    out: list[Interval] = []
    j = len(ivs)        # ivs[:j] are not yet fully mapped
    carry = False       # ivs[j - 1] continues from the block above
    for n in range(m) if src == AT_ZERO else range(m - 1, -1, -1):
        if not j:
            break
        blk = _block(src, n)
        i = j
        while i and ivs[i - 1].hi > blk.lo:
            i -= 1
        if i == j:
            continue
        image = _block(dst, n)
        # x -> x - 1 + 3 * 2**-(n+1) takes I_n onto D_n, and back
        t = _make(3 - (2 << n) if src == AT_ONE else (2 << n) - 3, 0,
                  2 << n, None)
        below = ivs[i].lo < blk.lo
        for k in range(i, j):
            iv = ivs[k]
            lo = image.lo if k == i and below else iv.lo + t
            hi = image.hi if k == j - 1 and carry else iv.hi + t
            _join(out, (Interval(lo, hi),))
        j, carry = (i + 1, True) if below else (i, False)
    return _collapse(out, {dst: flags[src]}, {dst: m})


def odometer_image(S: IntervalSet) -> IntervalSet:
    """Exact forward image under the adding-machine primitive (mod null)."""
    if any(t.anchor == AT_ZERO for t in S.tails):
        raise RepresentationOverflowError(
            "image of an at-zero tail accumulates at 1/2")
    return _odometer_map(S, AT_ONE)


def odometer_preimage(S: IntervalSet) -> IntervalSet:
    """Exact preimage under the adding-machine primitive (mod null)."""
    if any(t.anchor == AT_ONE for t in S.tails):
        raise RepresentationOverflowError(
            "preimage of an at-one tail accumulates at 1/2")
    return _odometer_map(S, AT_ZERO)


def make_set(pairs: Iterable[tuple], tails: Iterable[ParityTail] = ()) -> IntervalSet:
    """Build a set from (lo, hi) pairs of Scalars/Fractions/ints."""
    ivs = []
    for lo, hi in pairs:
        lo = lo if isinstance(lo, Scalar) else Scalar(lo)
        hi = hi if isinstance(hi, Scalar) else Scalar(hi)
        ivs.append(Interval(lo, hi))
    return IntervalSet.build(ivs, tails)


_TAIL_RE = re.compile(
    r"^tail\(\s*(one|zero)\s*,\s*(\d+)\s*,\s*(even|odd)\s*\)$")


def from_text(text: str, tag: Optional[IrrationalTag] = None) -> IntervalSet:
    """Parse the serialization produced by ``IntervalSet.to_text``."""
    s = text.strip()
    if s in ("", "empty"):
        return EMPTY
    ivs: list[Interval] = []
    tails: list[ParityTail] = []
    # split on commas at parenthesis depth zero only: tail(...) has commas
    parts = re.split(r",(?![^()]*\))", s)
    for part in parts:
        part = part.strip()
        m = _TAIL_RE.match(part)
        if m:
            tails.append(ParityTail(m.group(1), int(m.group(2)), m.group(3)))
            continue
        if ".." not in part:
            raise ValueError(f"malformed set component {part!r}")
        lo_t, hi_t = part.split("..", 1)
        ivs.append(Interval(parse_scalar(lo_t, tag), parse_scalar(hi_t, tag)))
    return IntervalSet.build(ivs, tails)


def truncate_tails(s: IntervalSet, blocks: int) -> tuple[IntervalSet, Scalar]:
    """Replace each tail by its first `blocks` blocks.

    Returns the truncated set and an exact bound on the dropped measure,
    for experiments that drift outside the closed representation class.
    """
    ivs = list(s.intervals)
    dropped = Scalar(0)
    for t in s.tails:
        n = t.start
        for _ in range(blocks):
            ivs.append(_block(t.anchor, n))
            n += 2
        dropped = dropped + _make(2, 0, 3 << n, None)
    return IntervalSet.build(ivs), dropped
