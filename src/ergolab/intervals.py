"""Exact algebra of measurable subsets of [0, 1).

A set is a normalized finite union of half-open intervals [lo, hi) plus at
most one geometric "parity tail" per anchor.  An at-one tail with start N
and parity p denotes the union of the blocks

    I_n = [1 - 2**-n, 1 - 2**-(n+1))        n >= N, n = p (mod 2)

which accumulate at 1; an at-zero tail uses the mirrored blocks

    D_n = [2**-(n+1), 2**-n)                n >= N, n = p (mod 2)

accumulating at 0.  The I_n blocks tile [0, 1) and the D_n blocks tile (0, 1);
all identities hold mod null sets (single points are never represented).

The finite part is stored as toggle points over one denominator: a
positive integer ``d`` and a strictly increasing tuple ``pts`` of
numerators over d, the points where membership switches, so (p0, p1, p2,
p3) over d is [p0/d, p1/d) u [p2/d, p3/d).  A rational point is a plain
``int``.  A point (n + m*alpha)/d with m != 0 is a ``_Surd``, the tuple
(n, m, tag), ordered in closed form by ``scalars._sign`` on integer
differences; ``IntervalSet.tag`` is the tag of such points, None when
there are none.  Rational sets therefore compare, add and sum plain ints,
and no kernel path builds a ``Scalar`` or an ``Interval`` per component:
``IntervalSet.intervals`` builds them on each access, as a view.

Normal form is unique, so equal sets have equal fields and hashes: d is
the least common denominator of the points (its gcd with every integer
part of every point is 1); the components are sorted, disjoint and
non-adjacent; a tail's blocks are exactly the connected pieces of the set
that it covers, so no component touches a tail block and the tail is
maximally extended toward small indices (block start-2 is not a
component); two same-anchor tails of opposite parity are collapsed into a
plain interval.

Tail-free operands go through ``_merge`` alone, over the least common
multiple of their denominators.  It walks both point lists, one
comparison per point, unless the shorter list, of m intervals, is so short
against the longer one, of n, that (2m + 1) * bit_length(n) < n: then it
bisects the long list once per point of the short one and copies the runs
in between (``_merge_skewed``), which is what intersecting a set of
2**(j-1) components with a window of one to three takes.  Which path a
workload takes is counted per workload in CHANGES.md.  With tails, an
operation works in three steps, each linear in the points and blocks it
touches, over a denominator that every block boundary it reads divides:

* one depth m per anchor, read from the operand point nearest the anchor
  and the tail starts, with every finite point at least 2**-m from the
  anchor;
* each operand as one sorted point list: its own points and the
  boundaries of its tail blocks below the depth, two sorted runs merged;
  beyond the depth each anchor carries one flag per parity, combined by
  the same truth table as the points;
* the canonical tail, settled at the anchor end of the result list, where
  "this point is a block boundary" is one integer compare: components
  that are exactly the blocks below join the tail.

The exact preimages of the example systems live here too: rotation
(``IntervalSet.translate_mod1``), doubling and the odometer primitive.
Each emits sorted runs of points, joined at their seams (``_join``); only
``IntervalSet.build`` takes unsorted input.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import partial
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (RepresentationOverflowError,
                     UnsupportedRepresentationError)
from .scalars import (ONE, ZERO, IrrationalTag, Scalar, _coerce, _make,
                      _merge_tags, _sign, _text, parse_scalar)

AT_ONE = "one"
AT_ZERO = "zero"
EVEN = 0
ODD = 1

_PARITY_NAMES = {EVEN: "even", ODD: "odd"}
_PARITY_VALUES = {"even": EVEN, "odd": ODD}


# ---------------------------------------------------------------------
# points: numerators over a set's denominator
# ---------------------------------------------------------------------

class _Surd(tuple):
    """The numerator n + m*alpha of a point, m != 0, as (n, m, tag).

    Compares with ints and other surds by the sign of the difference, and
    adds, subtracts, scales by a nonzero int and divides exactly by one;
    a result whose alpha part cancels is a plain ``int`` (see ``_point``).
    Equality and hashing are the tuple's.
    """

    __slots__ = ()

    def _cmp(self, o) -> int:
        """The sign of self - o."""
        n, m, tag = self
        if type(o) is int:
            return _sign(n - o, m, tag._a)
        return _sign(n - o[0], m - o[1], _merge_tags(tag, o[2])._a)

    def __lt__(self, o):
        return self._cmp(o) < 0

    def __le__(self, o):
        return self._cmp(o) <= 0

    def __gt__(self, o):
        return self._cmp(o) > 0

    def __ge__(self, o):
        return self._cmp(o) >= 0

    def __add__(self, o):
        n, m, tag = self
        if type(o) is int:
            return _Surd((n + o, m, tag))
        return _point(n + o[0], m + o[1], _merge_tags(tag, o[2]))

    __radd__ = __add__

    def __sub__(self, o):
        n, m, tag = self
        if type(o) is int:
            return _Surd((n - o, m, tag))
        return _point(n - o[0], m - o[1], _merge_tags(tag, o[2]))

    def __rsub__(self, o):
        n, m, tag = self
        return _Surd((o - n, -m, tag))

    def __mul__(self, k: int):
        n, m, tag = self
        return _Surd((n * k, m * k, tag))

    __rmul__ = __mul__

    def __floordiv__(self, k: int):
        n, m, tag = self
        return _Surd((n // k, m // k, tag))


def _point(n: int, m: int, tag: Optional[IrrationalTag]):
    """The numerator n + m*alpha: an int when m == 0."""
    return n if m == 0 else _Surd((n, m, tag))


def _numerator(x: Scalar, d: int):
    """The numerator of x over d, a multiple of x.d."""
    f = d // x.d
    return _point(x.n * f, x.m * f, x.tag)


def _point_text(p, d: int) -> str:
    return _text(p, 0, d) if type(p) is int else _text(p[0], p[1], d)


def _scale(pts: Sequence, f: int) -> Sequence:
    """The points over a denominator f times larger."""
    return pts if f == 1 else [p * f for p in pts]


def _block_points(anchor: str, n: int, d: int) -> tuple[int, int]:
    """Block n of `anchor` over d, which 2**(n+1) divides."""
    if anchor == AT_ONE:
        return d - (d >> n), d - (d >> (n + 1))
    return d >> (n + 1), d >> n


class Interval(NamedTuple):
    """Half-open interval [lo, hi) with 0 <= lo < hi <= 1, a pair of
    ``Scalar``s that ``IntervalSet.build`` takes as it is."""

    lo: Scalar
    hi: Scalar

    def to_text(self) -> str:
        return f"{self.lo.to_text()}..{self.hi.to_text()}"

    def __repr__(self):
        return f"Interval({self.to_text()})"


class ParityTail:
    """Infinite union of every-other block accumulating at 0 or 1."""

    __slots__ = ("anchor", "start", "parity")

    def __init__(self, anchor: str, start: int, parity):
        if anchor not in (AT_ONE, AT_ZERO):
            raise ValueError(f"bad anchor {anchor!r}")
        if isinstance(parity, str):
            parity = _PARITY_VALUES.get(parity, parity)
        if parity not in (EVEN, ODD):
            raise ValueError(f"bad parity {parity!r}")
        if start < 0:
            raise ValueError("tail start must be >= 0")
        if start % 2 != parity:
            start += 1  # first included index
        self.anchor = anchor
        self.start = start
        self.parity = parity

    def to_text(self) -> str:
        return f"tail({self.anchor}, {self.start}, {_PARITY_NAMES[self.parity]})"

    def __eq__(self, other):
        return (isinstance(other, ParityTail) and self.anchor == other.anchor
                and self.start == other.start and self.parity == other.parity)

    def __hash__(self):
        return hash((self.anchor, self.start, self.parity))

    def __repr__(self):
        return f"ParityTail({self.to_text()})"


# ---------------------------------------------------------------------
# sorted runs (strictly increasing toggle lists over one denominator)
# ---------------------------------------------------------------------

def _join(a: list, b: Sequence) -> list:
    """The run a followed by the run b, with the two pieces that meet at
    the seam merged; `a` is extended in place and returned."""
    if a and b and a[-1] == b[0]:
        a.pop()
        a.extend(b[1:])
    else:
        a.extend(b)
    return a


#: truth tables of the boolean operations, indexed by 2 * (x in a) + (x in b)
_UNION = (False, True, True, True)
_INTERSECT = (False, False, False, True)
_SUBTRACT = (False, False, True, False)


def _merge(a: Sequence, fa: int, b: Sequence, fb: int,
           keep: tuple[bool, ...]) -> list:
    """Combine two normalized toggle lists point by point.

    `a` and `b` are over denominators fa and fb times smaller than the
    result's.  Walks the points of both lists in order, one comparison per
    point, and emits a point where ``keep[2 * in_a + in_b]`` changes.  A
    point both lists share is one event, so touching pieces merge and no
    empty piece is emitted: the result is normalized.  No table keeps a
    point outside both lists (``keep[0]`` is false).

    When one list is much shorter than the other, so that bisecting the
    long list once per point of the short one costs fewer comparisons than
    walking it, ``_merge_skewed`` does the work instead.
    """
    na, nb = len(a) >> 1, len(b) >> 1
    if (2 * na + 1) * nb.bit_length() < nb:
        return _merge_skewed(_scale(a, fa), b, fb, keep[2:], keep[:2])
    if (2 * nb + 1) * na.bit_length() < na:
        return _merge_skewed(_scale(b, fb), a, fa, keep[1::2], keep[::2])
    if fa != 1:
        a = _scale(a, fa)
    if fb != 1:
        b = _scale(b, fb)
    na, nb = len(a), len(b)
    out = []
    i = j = state = 0
    kept = False
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
            state ^= 3
        elif x < y:
            i += 1
            state ^= 2
        else:
            x = y
            j += 1
            state ^= 1
        if keep[state] != kept:
            out.append(x)
            kept = not kept
    # past the end of one list only the other toggles, and its points are
    # kept exactly when the table keeps it alone
    if i < na and keep[2]:
        out.extend(a[i:])
    elif j < nb and keep[1]:
        out.extend(b[j:])
    return out


def _merge_skewed(short: Sequence, long: Sequence, f: int,
                  keep_in: tuple[bool, ...],
                  keep_out: tuple[bool, ...]) -> list:
    """``_merge`` in O(len(short) * log(len(long))) comparisons.

    `long` is over a denominator f times smaller than `short` and the
    result.  The short list cuts the line into regions: the gaps before,
    between and after its intervals, and the intervals themselves.  Inside
    a region the short list's membership is fixed, so ``keep_in`` (on its
    intervals) or ``keep_out`` (on its gaps), indexed by membership in the
    long list, says what the region holds: nothing, all of it, the long
    list or its complement.  Each cut is located in the long list by one
    bisection; the long list's points inside a region are copied as one
    run (scaled by f), and a cut is emitted where the result's membership
    changes across it.
    """
    key = None if f == 1 else partial(mul, f)
    out = []
    kept = False  # the result's membership just below the cut x
    x = None      # start of the current region (None: below everything)
    i = 0         # long[:i] lie below x
    for r, y in enumerate([*short, None]):
        # the region [x, y) holds long[i:j]; the long list's membership at
        # x counts its points up to x, one of which may sit on x
        j = len(long) if y is None else bisect_left(long, y, i, key=key)
        k = i
        if k < j and (long[k] if key is None else key(long[k])) == x:
            k += 1
        keep_gap, keep_piece = keep_in if r & 1 else keep_out
        now = keep_piece if k & 1 else keep_gap
        if now != kept:
            out.append(x)
        if keep_gap == keep_piece:
            kept = now
        else:
            run = long[k:j]
            out.extend(run if key is None else map(key, run))
            kept = now != bool((j - k) & 1)
        x, i = y, j
    return out


# ---------------------------------------------------------------------
# the tailed kernel: one depth per anchor, blocks listed below it, tails
# canonicalised from block indices
# ---------------------------------------------------------------------

def _depth_for_gap(gap, d: int) -> int:
    """An m >= 2 with 2**-m <= gap/d (gap > 0 a numerator over d); the
    smallest one when the gap is irrational."""
    if type(gap) is int:
        return max(2, (d // gap).bit_length() + 1)
    m = 2
    while gap * (1 << m) < d:
        m += 1
    return m


def _depths_for(sets: Sequence["IntervalSet"],
                anchors: Iterable[str]) -> dict[str, int]:
    """Expansion depth per anchor for normalized sets: an m >= 2 no smaller
    than any tail start there, with 2**-m at most the gap between the
    anchor and every finite point.  The smallest gap, at the point nearest
    the anchor, is the only one read."""
    depths: dict[str, int] = {}
    for anchor in anchors:
        m = 2
        for S in sets:
            for t in S.tails:
                if t.anchor == anchor and t.start > m:
                    m = t.start
            pts, d = S.pts, S.d
            if pts:
                if anchor == AT_ONE:
                    gap = d - (pts[-2] if pts[-1] == d else pts[-1])
                else:
                    gap = pts[1] if pts[0] == 0 else pts[0]
                m = max(m, _depth_for_gap(gap, d))
        depths[anchor] = m
    return depths


def _working_denominator(sets: Sequence["IntervalSet"],
                         depths: dict[str, int]) -> int:
    """A common denominator of the sets that every block boundary the
    kernel reads divides: blocks up to index depth + 1, which ``_settle``
    may take in."""
    return lcm(*(S.d for S in sets), 1 << (max(depths.values()) + 2))


def _expand(S: "IntervalSet", depths: dict[str, int], d: int):
    """A normalized set as sorted points over d inside the core region plus
    residual flags: ``flags[anchor][parity]`` says that every block n >=
    depth of that parity lies in the set.  Tail blocks are listed only
    below the depth; in normal form none touches a component."""
    flags = {anchor: [False, False] for anchor in depths}
    pts = list(_scale(S.pts, d // S.d))
    blocks = []
    for t in S.tails:
        flags[t.anchor][t.parity] = True
        for n in range(t.start, depths[t.anchor], 2):
            blocks += _block_points(t.anchor, n, d)
    if blocks:
        pts = sorted(pts + blocks)
    # a piece reaching an anchor covers that anchor's whole residual zone;
    # block I_0 / D_0 of the other anchor's tail does too
    if pts and AT_ONE in depths and pts[-1] == d:
        flags[AT_ONE] = [True, True]
        pts[-1] = _block_points(AT_ONE, depths[AT_ONE], d)[0]
    if pts and AT_ZERO in depths and pts[0] == 0:
        flags[AT_ZERO] = [True, True]
        pts[0] = _block_points(AT_ZERO, depths[AT_ZERO], d)[1]
    return pts, flags


def _settle(pts: list, anchor: str, start: int, d: int) -> int:
    """Canonical start of a tail whose blocks from `start` on lie in the
    set beyond every component of `pts` (over d), which is edited in place.

    At one, a component touching the first block takes that block in, and
    the tail starts two blocks later (``odometer_preimage`` makes such
    components).  Otherwise components that are exactly the blocks
    start-2, start-4, ... join the tail.  Only the components at the
    anchor end of the list are read."""
    if anchor == AT_ONE:
        lo, hi = _block_points(AT_ONE, start, d)
        if pts and pts[-1] == lo:
            pts[-1] = hi
            return start + 2
        i = len(pts)
        while start >= 2 and i:
            lo, hi = _block_points(AT_ONE, start - 2, d)
            while i and pts[i - 2] >= hi:  # inside block start - 1
                i -= 2
            if not (i and pts[i - 2] == lo and pts[i - 1] == hi):
                break
            i -= 2
            del pts[i:i + 2]
            start -= 2
        return start
    # only _combine settles at zero, and there no component touches the
    # first block: just above 2**-depth each operand holds as in block
    # depth + 1, so a component starting there would set both flags
    i = 0
    while start >= 2 and i < len(pts):
        lo, hi = _block_points(AT_ZERO, start - 2, d)
        while i < len(pts) and pts[i + 1] <= lo:  # inside block start - 1
            i += 2
        if not (i < len(pts) and pts[i] == lo and pts[i + 1] == hi):
            break
        del pts[i:i + 2]
        start -= 2
    return start


def _collapse(pts: list, flags, depths: dict[str, int], d: int,
              tag: Optional[IrrationalTag]) -> "IntervalSet":
    """Normal form of sorted, normalized core points over d (edited in
    place) plus the residual zones the flags mark."""
    for anchor, (even, odd) in flags.items():
        if even and odd:
            lo, hi = _block_points(anchor, depths[anchor], d)
            if anchor == AT_ONE:
                pts = _join(pts, (lo, d))
            else:
                pts = _join([0, hi], pts)
    tails = []
    for anchor, (even, odd) in flags.items():
        if even != odd:
            parity = ODD if odd else EVEN
            m = depths[anchor]
            start = m if m % 2 == parity else m + 1
            tails.append(ParityTail(anchor, _settle(pts, anchor, start, d),
                                    parity))
    return _canonical(d, pts, tag, frozenset(tails))


# ---------------------------------------------------------------------
# the set type
# ---------------------------------------------------------------------

def _new(d: int, pts: tuple, tag: Optional[IrrationalTag],
         tails: frozenset) -> "IntervalSet":
    """The set with these normal-form fields, taken as they are."""
    S = object.__new__(IntervalSet)
    S.d = d
    S.pts = pts
    S.tag = tag
    S.tails = tails
    return S


def _canonical(d: int, pts: Sequence, tag: Optional[IrrationalTag],
               tails: frozenset = frozenset()) -> "IntervalSet":
    """The set of normalized toggle points `pts` over d with `tails`, put
    in lowest terms; `tag` is None only when every point is rational."""
    if not pts:
        return _new(1, (), None, tails)
    if tag is None:
        g = gcd(d, *pts)
    else:
        # read both parts of each point, and whether alpha is left at all
        g, tag = d, None
        for p in pts:
            if type(p) is int:
                g = gcd(g, p)
            else:
                g = gcd(g, p[0], p[1])
                tag = p[2]
    if g != 1:
        d //= g
        pts = [p // g for p in pts]
    return _new(d, tuple(pts), tag, tails)


class IntervalSet:
    """Normalized measurable subset of [0, 1).

    ``IntervalSet(pairs, tails)`` is ``build`` on the same input.
    """

    __slots__ = ("d", "pts", "tag", "tails")

    def __new__(cls, pairs: Iterable[tuple[Scalar, Scalar]] = (),
                tails: Iterable[ParityTail] = ()) -> "IntervalSet":
        return cls.build(pairs, tails)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, pairs: Iterable[tuple[Scalar, Scalar]],
              tails: Iterable[ParityTail] = ()) -> "IntervalSet":
        """The normal form of the union of the intervals [lo, hi) of the
        ``Scalar`` pairs (an ``Interval`` is one) and the tails."""
        pairs = list(pairs)
        d = lcm(*(x.d for pair in pairs for x in pair))
        tag = None
        ends = []
        for lo, hi in pairs:
            tag = _merge_tags(_merge_tags(tag, lo.tag), hi.tag)
            a, b = _numerator(lo, d), _numerator(hi, d)
            if a < 0 or b > d:
                raise ValueError(
                    f"interval {Interval(lo, hi).to_text()} outside [0,1)")
            if not a < b:
                raise ValueError(
                    f"empty or inverted interval {Interval(lo, hi).to_text()}")
            ends.append((a, b))
        # the one entry point for unsorted input: sort, then coalesce
        ends.sort(key=itemgetter(0))
        pts = []
        for lo, hi in ends:
            if pts and lo <= pts[-1]:
                if hi > pts[-1]:
                    pts[-1] = hi
            else:
                pts += (lo, hi)
        S = _canonical(d, pts, tag)
        for t in tails:
            # a lone tail is in normal form
            S = S._combine(_new(1, (), None, frozenset((t,))), _UNION)
        return S

    def _anchors(self) -> set[str]:
        return {t.anchor for t in self.tails}

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The components, sorted, as ``Interval``s built on each access."""
        d = self.d
        ends = [_make(p, 0, d, None) if type(p) is int
                else _make(p[0], p[1], d, p[2]) for p in self.pts]
        return tuple(map(Interval, ends[::2], ends[1::2]))

    # -- predicates ------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.pts and not self.tails

    def equals(self, other: "IntervalSet") -> bool:
        return (self.d == other.d and self.pts == other.pts
                and self.tails == other.tails)

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.equals(other)

    def __hash__(self):
        return hash((self.d, self.pts, self.tails))

    def component_count(self) -> int:
        return (len(self.pts) >> 1) + len(self.tails)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.subtract(other).is_empty()

    # -- measure ----------------------------------------------------------

    def measure(self) -> Scalar:
        pts = self.pts
        if self.tag is None:
            n, m = sum(pts[1::2]) - sum(pts[::2]), 0
        else:
            # the alternating sum of both integer parts
            n = m = 0
            for i, p in enumerate(pts):
                q, r = (p, 0) if type(p) is int else p[:2]
                if i & 1:
                    n, m = n + q, m + r
                else:
                    n, m = n - q, m - r
        d = self.d
        for t in self.tails:
            k = 3 << t.start
            n, m, d = n * k + 2 * d, m * k, d * k
        return _make(n, m, d, self.tag)

    # -- boolean algebra ---------------------------------------------------

    def _combine(self, other: "IntervalSet",
                 keep: tuple[bool, ...]) -> "IntervalSet":
        # the empty set is the identity of every table on the other operand
        if not (other.pts or other.tails):
            return self if keep[2] else EMPTY
        if not (self.pts or self.tails):
            return other if keep[1] else EMPTY
        tag = _merge_tags(self.tag, other.tag)
        if not (self.tails or other.tails):
            d = lcm(self.d, other.d)
            return _canonical(d, _merge(self.pts, d // self.d, other.pts,
                                        d // other.d, keep), tag)
        depths = _depths_for((self, other),
                             self._anchors() | other._anchors())
        d = _working_denominator((self, other), depths)
        ia, fa = _expand(self, depths, d)
        ib, fb = _expand(other, depths, d)
        flags = {a: [keep[2 * x + y] for x, y in zip(fa[a], fb[a])]
                 for a in depths}
        return _collapse(_merge(ia, 1, ib, 1, keep), flags, depths, d, tag)

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
        the sorted points: points pushed to 1 or past it wrap to the front,
        and a piece that straddles 1 splits there.  t is rounded only when
        it lies outside [0, 1)."""
        if self.tails:
            raise UnsupportedRepresentationError(
                "translation of parity tails is not representable")
        if t.cmp(ZERO) < 0 or t.cmp(ONE) >= 0:
            t = t.mod1()
        d = lcm(self.d, t.d)
        shift = _numerator(t, d)
        moved = [p + shift for p in _scale(self.pts, d // self.d)]
        k = bisect_left(moved, d)
        back = moved[:k]
        front = [p - d for p in moved[k:]]  # moved down by 1
        if k & 1:
            # inside a piece at 1: it ends there and goes on from 0, unless
            # it ended at 1 exactly
            back.append(d)
            if front and front[0] == 0:
                del front[0]
            else:
                front.insert(0, 0)
        return _canonical(d, _join(front, back),
                          _merge_tags(self.tag, t.tag))

    # -- text form ------------------------------------------------------------

    def to_text(self) -> str:
        if self.is_empty():
            return "empty"
        d, pts = self.d, self.pts
        parts = [f"{_point_text(lo, d)}..{_point_text(hi, d)}"
                 for lo, hi in zip(pts[::2], pts[1::2])]
        parts += [t.to_text() for t in sorted(self.tails,
                                              key=lambda t: (t.anchor, t.start))]
        return ", ".join(parts)

    def __repr__(self):
        return f"IntervalSet({self.to_text()!r})"


EMPTY = _new(1, (), None, frozenset())
FULL = _new(1, (0, 1), None, frozenset())


def arc(lo: int, hi: int, d: int) -> IntervalSet:
    """The interval [lo/d, hi/d), for integers 0 <= lo < hi <= d."""
    if not 0 <= lo < hi <= d:
        raise ValueError(f"no interval [{lo}/{d}, {hi}/{d}) in [0, 1)")
    return _canonical(d, (lo, hi), None)


# ---------------------------------------------------------------------
# the preimages: each builds the normal form of its result from sorted
# runs (rotation is ``IntervalSet.translate_mod1``)
# ---------------------------------------------------------------------

def doubling_preimage(S: IntervalSet) -> IntervalSet:
    """{x : 2x mod 1 in S} = S/2 union (S/2 + 1/2): over 2d, the points
    of S followed by the same points plus d."""
    if S.tails:
        raise UnsupportedRepresentationError("doubling does not act on tails")
    d, pts = S.d, S.pts
    if not pts:
        return EMPTY
    right = [p + d for p in pts]
    if pts[0] == 0 and pts[-1] == d:
        # S/2 ends at 1/2 where S/2 + 1/2 starts: the two points cancel
        if len(pts) == 2:
            return FULL
        return _new(2 * d, pts[:-1] + tuple(right[1:]), S.tag, frozenset())
    # S is in lowest terms over d, so the result is over 2d
    return _new(2 * d, pts + tuple(right), S.tag, frozenset())


def odometer_preimage(S: IntervalSet) -> IntervalSet:
    """Exact preimage under the adding-machine primitive (mod null): each
    block D_n moves back onto I_n, and the residual zone beyond the depth
    moves along as flags."""
    if any(t.anchor == AT_ONE for t in S.tails):
        raise RepresentationOverflowError(
            "preimage of an at-one tail accumulates at 1/2")
    depths = _depths_for((S,), (AT_ZERO,))
    m = depths[AT_ZERO]
    d = _working_denominator((S,), depths)
    pts, flags = _expand(S, depths, d)
    # D_0, D_1, ... run down from the top of [0, 1); their preimages I_0,
    # I_1, ... come out in increasing order, each block's pieces in order
    out: list = []
    for n in range(m):
        lo, hi = _block_points(AT_ZERO, n, d)
        i = bisect_right(pts, lo)
        j = bisect_left(pts, hi, i)
        # the part of the set in the block: pts[i:j], closed at the block's
        # ends when a piece runs across them
        if i == j and not i & 1:
            continue
        # y -> y + 1 - 3 * 2**-(n+1) takes D_n onto I_n
        t = d - 3 * (d >> (n + 1))
        piece = [lo] * (i & 1) + pts[i:j] + [hi] * (j & 1)
        _join(out, [p + t for p in piece])
    return _collapse(out, {AT_ONE: flags[AT_ZERO]}, {AT_ONE: m}, d, S.tag)


def make_set(pairs: Iterable[tuple], tails: Iterable[ParityTail] = ()) -> IntervalSet:
    """Build a set from (lo, hi) pairs of Scalars/Fractions/ints.

    Any other endpoint, a ``float`` above all, raises ``TypeError``, as
    ``Scalar`` does: a float would be taken at its binary value, so 0.1
    would not mean 1/10.
    """
    return IntervalSet.build([[_coerce(x) for x in pair] for pair in pairs],
                             tails)


_TAIL_RE = re.compile(
    r"^tail\(\s*(one|zero)\s*,\s*(\d+)\s*,\s*(even|odd)\s*\)$")


def from_text(text: str, tag: Optional[IrrationalTag] = None) -> IntervalSet:
    """Parse the serialization produced by ``IntervalSet.to_text``."""
    s = text.strip()
    if s in ("", "empty"):
        return EMPTY
    pairs: list[tuple[Scalar, Scalar]] = []
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
        pairs.append((parse_scalar(lo_t, tag), parse_scalar(hi_t, tag)))
    return IntervalSet.build(pairs, tails)
