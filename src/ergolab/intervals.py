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

Tail-free operands go through ``_merge`` alone.  It walks both point
lists over the least common multiple of their denominators, one
comparison per point, unless the shorter list, of m intervals, is so short
against the longer one, of n, that (2m + 1) * bit_length(n) < n: then it
bisects the long list once per point of the short one and copies the runs
in between (``_merge_skewed``), which is what intersecting a set of
2**(j-1) components with a window of one to three takes.  The runs are
scaled only by the part of the long list's factor that the kept cuts
need, so the result comes over the least denominator those need, and
``_canonical`` puts it in lowest terms, past its first points only when
they share a factor with it.  Which path a workload takes is counted per
workload in CHANGES.md.

With tails, an operation works in three steps, each linear in the points
and blocks it touches, over a denominator that every block boundary it
reads divides:

* one depth m per anchor, read from the operand point nearest the anchor
  and the tail starts, with every finite point at least 2**-m from the
  anchor;
* each operand as one sorted point list: its own points and the
  boundaries of its tail blocks below the depth, merged by
  ``_with_blocks``; beyond the depth each anchor carries one flag per
  parity, combined by the same truth table as the points;
* the canonical tail, settled at the anchor end of the result list, where
  "this point is a block boundary" is one integer compare: components
  that are exactly the blocks below join the tail.  The rule is written
  for the tail at one; a tail at zero settles on the mirror image
  p -> d - p of the list, which takes each block D_n onto I_n.

``IntervalSet.cell_measures(L)`` measures the set in every cell [i/L,
(i+1)/L) in one sweep, which is how a measure basis reads a level: each
piece is placed among the cells by two bisections of the integer cell
boundaries and its length summed into the cells it spans.  A tail's
blocks below a depth m with 2**-m <= 1/L are pieces too, from
``_with_blocks``; the rest of the tail lies in the anchor's cell, and its
measure 2/(3 * 2**r), r its first block from m on, is added there.

The exact preimages of the example systems live here too: rotation
(``IntervalSet.translate_mod1``), doubling and the odometer primitive,
whose images can come out split by block parity, as the Kakutani tower
takes them.  Each emits sorted runs of points, joined at their seams
(``_join``); only the constructors take unsorted input, through
``from_numerators``, the integer door: ``build``, ``from_text`` and
``make_set`` put their endpoints over one denominator, and the random
batteries hand it their drawn integers.  Tails are assembled with the
pieces: the intervals are sorted and coalesced, ``_depths_for`` reads
one depth per anchor off the result, the tails' blocks below it are
coalesced with those points in a second pass, and the residual zones
beyond it settle as in a tailed operation, so no set operation runs
while a set is read.  A tail-free text that ``to_text`` could have
written, each end in lowest terms and the ends strictly increasing, is
its own normal form: ``from_text`` checks that as it reads the ends,
builds the set from them as they are, and keeps the text on that one set,
which ``to_text`` then returns without rendering.  The kept text is not a
normal-form field; equality and hashing ignore it.  ``ShiftSteps``
runs a rotation's preimages of one set against a fixed window without
building them: each step is one shift in integers, one bisection of
integer keys at the key scale of ``_floor_key`` and one lookup, and the
walk yields each run of steps that share their outcome once.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import itemgetter, lt, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (RepresentationOverflowError,
                     UnsupportedRepresentationError)
from .scalars import (ONE, ZERO, IrrationalTag, Scalar, _coerce,
                      _floor_key, _floor_of, _make, _merge_tags, _parts,
                      _sign, _text)

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
           keep: tuple[bool, ...]) -> tuple[list, int]:
    """Combine two normalized toggle lists point by point.

    `a` and `b` are over denominators fa and fb times smaller than their
    least common multiple D.  Walks the points of both lists in order, one
    comparison per point, and emits a point where ``keep[2 * in_a + in_b]``
    changes.  A point both lists share is one event, so touching pieces
    merge and no empty piece is emitted: the result is normalized.  No
    table keeps a point outside both lists (``keep[0]`` is false).

    When one list is much shorter than the other, so that bisecting the
    long list once per point of the short one costs fewer comparisons than
    walking it, ``_merge_skewed`` does the work instead.  Returns the
    result's points and a divisor `div` of D: the points are over D // div,
    which is D itself unless ``_merge_skewed`` kept no point that needs all
    of D.
    """
    na, nb = len(a) >> 1, len(b) >> 1
    if (2 * na + 1) * nb.bit_length() < nb:
        return _merge_skewed(_scale(a, fa), b, fb, keep[2:], keep[:2])
    if (2 * nb + 1) * na.bit_length() < na:
        return _merge_skewed(_scale(b, fb), a, fa, keep[1::2], keep[::2])
    a, b = _scale(a, fa), _scale(b, fb)
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
    return out, 1


def _merge_skewed(short: Sequence, long: Sequence, f: int,
                  keep_in: tuple[bool, ...],
                  keep_out: tuple[bool, ...]) -> tuple[list, int]:
    """``_merge`` in O(len(short) * log(len(long))) comparisons.

    `long` is over a denominator f times smaller than `short`'s, D.  The
    short list cuts the line into regions: the gaps before, between and
    after its intervals, and the intervals themselves.  Inside a region
    the short list's membership is fixed, so ``keep_in`` (on its
    intervals) or ``keep_out`` (on its gaps), indexed by membership in the
    long list, says what the region holds: nothing, all of it, the long
    list or its complement.  Each cut is located in the long list by one
    bisection; the long list's points inside a region are copied as one
    run, and a cut is emitted where the result's membership changes
    across it.

    The result is over D // div, where div is the gcd of f and every
    emitted cut (1 if one is an alpha point): the runs are scaled by
    f // div, so not at all when div = f, and the cuts divided by div.
    """
    key = None if f == 1 else partial(mul, f)
    out = []
    cuts = []     # (index in out, cut) of each emitted cut when f > 1
    div = f
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
            if key is not None:
                cuts.append((len(out), x))
                div = gcd(div, x) if type(x) is int else 1
            out.append(x)
        if keep_gap == keep_piece:
            kept = now
        else:
            out.extend(long[k:j])
            kept = now != bool((j - k) & 1)
        x, i = y, j
    if key is None:
        return out, 1
    out = _scale(out, f // div)
    for n, x in cuts:
        out[n] = x // div
    return out, div


# ---------------------------------------------------------------------
# the tailed kernel: one depth per anchor, blocks listed below it, tails
# canonicalised from block indices
# ---------------------------------------------------------------------

def _block_index(p, d: int) -> int:
    """The n with p/d in block I_n, for a numerator 0 <= p < d over d; an
    alpha point by ``_Surd`` order."""
    gap = d - p
    if type(gap) is int:
        return (d // gap).bit_length() - 1
    n = 0
    while gap * (2 << n) < d:
        n += 1
    return n


def _depth_for_gap(gap, d: int) -> int:
    """An m >= 2 with 2**-m <= gap/d, for a gap 0 < gap <= d over d, read
    off the block I_n of the point 1 - gap/d, whose gap exceeds
    2**-(n+1): n + 2 for an integer gap, and n + 1, the smallest such m,
    for an alpha gap."""
    n = _block_index(d - gap, d)
    return max(2, n + 2 if type(gap) is int else n + 1)


def _depths_for(sets: Sequence["IntervalSet"],
                anchors: Iterable[str]) -> tuple[dict[str, int], int]:
    """Expansion depth per anchor for sets of coalesced points, in lowest
    terms or not: an m >= 2 no smaller than any tail start there, with
    2**-m at most the gap between the anchor and every finite point.  The
    smallest gap, at the point nearest the anchor, is the only one read.
    Returned with a common denominator of the sets that every block
    boundary the kernel reads divides: blocks up to index depth + 1, which
    ``_settle`` may take in."""
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
    return depths, lcm(*(S.d for S in sets), 1 << (max(depths.values()) + 2))


def _with_blocks(S: "IntervalSet", depths: dict[str, int], d: int):
    """S's points over d (a multiple of S.d) merged with the blocks of its
    tails below their anchor's depth, sorted; S's points as they are when
    no block lies below."""
    pts = _scale(S.pts, d // S.d)
    blocks = []
    for t in S.tails:
        for n in range(t.start, depths[t.anchor], 2):
            blocks += _block_points(t.anchor, n, d)
    return sorted([*pts, *blocks]) if blocks else pts


def _residual(pts: list, tails: Iterable[ParityTail],
              depths: dict[str, int], d: int) -> dict[str, list[bool]]:
    """The residual flags of sorted, normalized points over d (edited in
    place) whose tails' blocks below the depths are among them:
    ``flags[anchor][parity]`` says that every block n >= depth of that
    parity lies in the set.  A piece reaching an anchor covers that
    anchor's whole residual zone, so it sets both flags and ends where the
    zone begins; block I_0 / D_0 of the other anchor's tail reaches it
    too."""
    flags = {anchor: [False, False] for anchor in depths}
    for t in tails:
        flags[t.anchor][t.parity] = True
    if pts and AT_ONE in depths and pts[-1] == d:
        flags[AT_ONE] = [True, True]
        pts[-1] = _block_points(AT_ONE, depths[AT_ONE], d)[0]
    if pts and AT_ZERO in depths and pts[0] == 0:
        flags[AT_ZERO] = [True, True]
        pts[0] = _block_points(AT_ZERO, depths[AT_ZERO], d)[1]
    return flags


def _expand(S: "IntervalSet", depths: dict[str, int], d: int):
    """A normalized set as sorted points over d inside the core region plus
    its residual flags (``_residual``).  Tail blocks are listed only below
    the depth; in normal form none touches a component."""
    pts = list(_with_blocks(S, depths, d))
    return pts, _residual(pts, S.tails, depths, d)


def _settle(pts: list, anchor: str, start: int, d: int) -> int:
    """Canonical start of a tail whose blocks from `start` on lie in the
    set beyond every component of `pts` (over d), which is edited in place.

    At one, a component touching the first block takes that block in, and
    the tail starts two blocks later (``odometer_preimage`` makes such
    components).  Otherwise components that are exactly the blocks
    start-2, start-4, ... join the tail.  Only the components at the
    anchor end of the list are read.  At zero the same rule runs on the
    mirror image p -> d - p, which takes each block D_n onto I_n."""
    if anchor == AT_ZERO:
        image = [d - p for p in reversed(pts)]
        start = _settle(image, AT_ONE, start, d)
        pts[:] = [d - p for p in reversed(image)]
        return start
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
    """The set with these normal-form fields, taken as they are, and no
    kept text."""
    S = object.__new__(IntervalSet)
    S.d = d
    S.pts = pts
    S.tag = tag
    S.tails = tails
    S._source = None
    return S


def from_numerators(ends: list, d: int,
                    tails: Iterable[ParityTail]) -> "IntervalSet":
    """The normal form of the union of the intervals [a/d, b/d) over the
    numerator pairs `ends`, each checked in turn, and the tails: the
    integer door of every constructor.  A numerator is an ``int``; the
    constructors of this module also pass alpha points.

    One sort-and-coalesce pass takes the intervals.  With tails,
    ``_depths_for`` reads the depth per anchor off the coalesced points,
    so an end that the union swallows sets no depth, and a second pass
    takes those points and, per tail, its blocks below the depth.
    Beyond the depth each tail sets its residual flag (``_residual``), and
    ``_collapse`` settles the result."""
    tag = None
    for a, b in ends:
        for p in (a, b):
            if type(p) is not int:
                tag = _merge_tags(tag, p[2])
        if a < 0 or b > d:
            raise ValueError(f"interval {_point_text(a, d)}.."
                             f"{_point_text(b, d)} outside [0,1)")
        if not a < b:
            raise ValueError(f"empty or inverted interval "
                             f"{_point_text(a, d)}..{_point_text(b, d)}")
    pts = _coalesce(ends)
    tails = tuple(tails)
    if not tails:
        return _canonical(d, pts, tag)
    depths, D = _depths_for((_new(d, pts, tag, tails),),
                            {t.anchor for t in tails})
    pts, d = _scale(pts, D // d), D
    blocks = [_block_points(t.anchor, n, d)
              for t in tails for n in range(t.start, depths[t.anchor], 2)]
    if blocks:
        pts = _coalesce([*zip(pts[::2], pts[1::2]), *blocks])
    return _collapse(pts, _residual(pts, tails, depths, d), depths, d, tag)


def _coalesce(ends: list) -> list:
    """The sorted toggle points of the union of the intervals [a, b) over
    the pairs `ends`, each with a < b."""
    pts: list = []
    for lo, hi in sorted(ends, key=itemgetter(0)):
        if pts and lo <= pts[-1]:
            if hi > pts[-1]:
                pts[-1] = hi
        else:
            pts += (lo, hi)
    return pts


def _canonical(d: int, pts: Sequence, tag: Optional[IrrationalTag],
               tails: frozenset = frozenset()) -> "IntervalSet":
    """The set of normalized toggle points `pts` over d with `tails`, put
    in lowest terms; `tag` is None only when every point is rational.  A
    rational list whose first points are coprime to d is read no further."""
    if not pts:
        return _new(1, (), None, tails)
    if tag is None:
        g = gcd(d, *pts[:8])
        if g != 1:
            g = gcd(g, *pts)
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
    ``_source`` is the text the set was read from when ``from_text`` found
    it written as ``to_text`` writes it, else None: not a normal-form
    field, so equality and hashing ignore it.
    """

    __slots__ = ("d", "pts", "tag", "tails", "_source")

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
        return from_numerators([(_numerator(lo, d), _numerator(hi, d))
                                for lo, hi in pairs], d, tails)

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

    def cell_measures(self, L: int) -> list[Scalar]:
        """mu(self n [i/L, (i+1)/L)) for i = 0 .. L-1, in one pass.

        Over d, a multiple of self.d, the points times L meet the cell
        boundaries d, 2d, ..., (L-1)d, so ``bisect`` places each end of a
        piece (an alpha point by ``_Surd`` order), and the piece's length
        is summed into the cells it spans as numerators over d*L.  A tail's
        blocks below the depth m, 2**-m <= 1/L, are pieces too
        (``_with_blocks``); those from m on lie in the anchor's cell and
        add 2/(3 * 2**r) there, r the first of them."""
        depth = (L - 1).bit_length()
        depths = {t.anchor: max(t.start, depth) for t in self.tails}
        d = lcm(self.d, 1 << max(depths.values(), default=0))
        pts = _with_blocks(self, depths, d)
        bounds = range(d, L * d, d)
        sums = [0] * L
        for lo, hi in zip(pts[::2], pts[1::2]):
            lo, hi = lo * L, hi * L
            a, b = bisect_right(bounds, lo), bisect_left(bounds, hi)
            if a == b:
                sums[a] += hi - lo
            else:
                sums[a] += (a + 1) * d - lo
                sums[a + 1:b] = [d] * (b - a - 1)
                sums[b] += hi - b * d
        d *= L
        out = [_make(s, 0, d, None) if type(s) is int
               else _make(s[0], s[1], d, s[2]) for s in sums]
        for t in self.tails:
            m = depths[t.anchor]
            k = L - 1 if t.anchor == AT_ONE else 0
            out[k] += _make(2, 0, 3 << (m + (m - t.parity) % 2), None)
        return out

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
            pts, div = _merge(self.pts, d // self.d, other.pts, d // other.d,
                              keep)
            return _canonical(d // div, pts, tag)
        depths, d = _depths_for((self, other),
                                {t.anchor for t in self.tails | other.tails})
        ia, fa = _expand(self, depths, d)
        ib, fb = _expand(other, depths, d)
        flags = {a: [keep[2 * x + y] for x, y in zip(fa[a], fb[a])]
                 for a in depths}
        return _collapse(_merge(ia, 1, ib, 1, keep)[0], flags, depths, d,
                         tag)

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
        if self._source is not None:
            return self._source
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


def in_even_blocks(S: IntervalSet) -> bool:
    """Whether S lies in the union of the even blocks I_0, I_2, ..., read
    off its normal form: each piece lies in the block I_n of its left end,
    n even, and ends by 1 - 2**-(n+1); every at-one tail is even; every
    at-zero tail starts at 1 or later, inside I_0 = [0, 1/2)."""
    d, pts = S.d, S.pts
    for lo, hi in zip(pts[::2], pts[1::2]):
        n = _block_index(lo, d)
        if n & 1 or (d - hi) * (2 << n) < d:
            return False
    return all(t.parity == EVEN if t.anchor == AT_ONE else t.start >= 1
               for t in S.tails)


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


def _odometer_parts(S: IntervalSet, split: int) -> list[IntervalSet]:
    """The odometer preimage of S, whole (`split` 0) or as its parts in
    the even and the odd blocks (`split` 1): each block D_n moves back onto
    I_n, and the residual zone beyond the depth moves along as flags."""
    if any(t.anchor == AT_ONE for t in S.tails):
        raise RepresentationOverflowError(
            "preimage of an at-one tail accumulates at 1/2")
    depths, d = _depths_for((S,), (AT_ZERO,))
    m = depths[AT_ZERO]
    pts, flags = _expand(S, depths, d)
    # D_0, D_1, ... run down from the top of [0, 1); their preimages I_0,
    # I_1, ... come out in increasing order, each block's pieces in order
    runs: tuple[list, list] = ([], [])
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
        _join(runs[n & split], [p + t for p in piece])
    even, odd = flags[AT_ZERO]
    zones = ([even, False], [False, odd]) if split else ([even, odd],)
    return [_collapse(run, {AT_ONE: z}, {AT_ONE: m}, d, S.tag)
            for run, z in zip(runs, zones)]


def odometer_preimage(S: IntervalSet) -> IntervalSet:
    """Exact preimage under the adding-machine primitive (mod null)."""
    return _odometer_parts(S, 0)[0]


def odometer_preimage_by_parity(S: IntervalSet) -> list[IntervalSet]:
    """[odometer_preimage(S) in the blocks I_n of even n, of odd n]."""
    return _odometer_parts(S, 1)


# ---------------------------------------------------------------------
# rotation steps: a set moved by t, 2t, 3t, ... against a fixed window
# ---------------------------------------------------------------------

def _arc_edges(arcs: Iterable[tuple], d: int) -> list:
    """Sorted edges lo0, hi0, lo1, hi1, ... of the union of the open arcs
    (start, start + length) of the circle [0, d), as the points over d; a
    start lies in [-d, d).

    An arc that wraps past d is cut there, and its front piece starts at
    -1, so the point 0 lies inside it.  Pieces that overlap merge; pieces
    that only touch stay apart, so the point they share is an edge twice
    and lies in neither."""
    pieces = []
    for lo, length in arcs:
        if lo < 0:
            lo += d
        hi = lo + length
        if hi > d:
            pieces += [(lo, d), (-1, hi - d)]
        else:
            pieces.append((lo, hi))
    pieces.sort(key=itemgetter(0))
    edges: list = []
    for lo, hi in pieces:
        if edges and lo < edges[-1]:
            edges[-1] = max(edges[-1], hi)
        else:
            edges += (lo, hi)
    return edges


class ShiftSteps:
    """The tail-free set B moved by t, 2t, 3t, ... around the circle, each
    move tested against a fixed tail-free window W without being built.

    Over one denominator D of B, W and t, the shift s_k = {k*t} is the
    integer pair (n, m) of the point n + m*alpha over D: a step adds t's
    pair and subtracts D once s passes it.  B + s meets W in positive
    measure exactly when s lies in the open arcs (w_lo - b_hi, w_hi - b_lo)
    mod D, over the components b of B and w of W.  B + s has one component
    per arc of B on the circle (a piece ending at 1 goes on from 0), plus
    one when -s cuts an arc of B, that is, when s lies in the arc mirrored
    about 0.

    The distinct edges of both arc lists cut the circle into cells: the
    open gaps between edges and the edge points themselves.  Each cell is
    labelled once with (meets W, component count) by a sweep that flips a
    list's parity at each of its edges, counted with multiplicity, so a
    point where two arcs touch flips twice and lies in neither.

    A step finds the shift's cell by a filtered compare.  A point x/D,
    x = n + m*alpha, has the exact integer key floor(S * x), S the key
    scale of ``_floor_key``, and the shift's key is estimated by adding
    the step's key: after k steps S * x lies in [est, est + k).  An edge
    whose key is below est lies below the shift, and one whose key is
    est + k or more lies above it, so ``bisect`` over the edge keys places
    the shift, and ``_sign`` decides only the edges whose keys fall in the
    window, and the wrap at D when the key of D does.  The walk is exact at
    any key scale; a finer one leaves fewer edges in the window.  The label
    is then one lookup.

    ``runs(limit)`` walks steps 1 .. limit in runs: maximal stretches of
    consecutive steps with one label, yielded once each as (B + s_k meets
    W, components of B + s_k, k, length) for steps k .. k + length - 1.
    A step that meets W is a run of one.  ``shift(k)`` is s_k in closed
    form, and ``moved(k)`` builds B + s_k by ``B.translate_mod1``.  The
    tags of B, t and W meet in the order of
    ``B.translate_mod1(t).intersect(W)``.
    """

    def __init__(self, B: IntervalSet, W: IntervalSet, t: Scalar):
        if B.tails or W.tails:
            raise UnsupportedRepresentationError(
                "translation of parity tails is not representable")
        if t.cmp(ZERO) < 0 or t.cmp(ONE) >= 0:
            t = t.mod1()
        self.B = B
        self.tag = _merge_tags(_merge_tags(B.tag, t.tag), W.tag)
        self.d = d = lcm(B.d, W.d, t.d)
        bp, wp = _scale(B.pts, d // B.d), _scale(W.pts, d // W.d)
        comps = list(zip(bp[::2], bp[1::2]))
        meets = _arc_edges([(w_lo - b_hi, (w_hi - w_lo) + (b_hi - b_lo))
                            for b_lo, b_hi in comps
                            for w_lo, w_hi in zip(wp[::2], wp[1::2])], d)
        if len(comps) > 1 and comps[0][0] == 0 and comps[-1][1] == d:
            (lo, _), (_, hi) = comps.pop(), comps.pop(0)
            comps.append((lo, hi + d))
        # [0, 1) itself is one arc that no shift cuts
        cuts = [] if comps == [(0, d)] else _arc_edges(
            [(d - hi, hi - lo) for lo, hi in comps], d)
        # per edge point, bit 1 for meets and bit 2 for cuts: the lists
        # whose parity it flips, and the lists it ends an open arc of
        flips, ends = {}, {}
        for bit, points in ((1, meets), (2, cuts)):
            for p in points:
                flips[p] = flips.get(p, 0) ^ bit
                ends[p] = ends.get(p, 0) | bit
        # the bits of the cells from the bottom: no arc lies below every
        # edge, then per edge come the point itself and the cell above it
        edges, inside, bits = sorted(flips), 0, [0]
        for p in edges:
            bits.append(inside & ~ends[p])
            inside ^= flips[p]
            bits.append(inside)
        # one object per distinct label, so a run compares labels by ``is``
        arcs = len(comps)
        labels = [(bool(b & 1), arcs + (b >> 1)) for b in range(4)]
        self._labels = [labels[b] for b in bits]
        # without a tag every m is 0, and ``_sign`` reads no a
        self._a = a = self.tag._a if self.tag else 1
        self._edges = [(p, 0) if type(p) is int else p[:2] for p in edges]
        self._keys = [_floor_key(n, m, a) for n, m in self._edges]
        step = _numerator(t, d)
        self._step = (step, 0) if type(step) is int else step[:2]

    def runs(self, limit: int) -> Iterator[tuple[bool, int, int, int]]:
        """(meets W, component count, k, length) for each run of steps
        k .. k + length - 1 among steps 1 .. limit; the lengths add up to
        ``limit``."""
        edges, keys, labels, d, a = (self._edges, self._keys, self._labels,
                                     self.d, self._a)
        (tn, tm), n, m = self._step, 0, 0
        step, top = _floor_key(tn, tm, a), _floor_key(d, 0, a)
        size = len(keys)
        # est <= S * (n + m*alpha) < est + k after k steps, S the key scale
        # of ``_floor_key``: each adds the key of t, and each wrap takes the
        # key of D, S * D, off exactly
        est = k = 0
        # the open run of steps that miss W: its label and first step
        run, start = None, 0
        while k < limit:
            n += tn
            m += tm
            est += step
            k += 1
            if est + k > top and (est >= top or _sign(n - d, m, a) >= 0):
                n -= d
                est -= top
            # lo = the number of edges below the shift, once ``_sign`` has
            # placed those whose keys fall in the window
            lo = bisect_left(keys, est)
            on = 0
            while lo < size and keys[lo] < est + k:
                en, em = edges[lo]
                c = _sign(en - n, em - m, a)
                if c >= 0:
                    on = c == 0
                    break
                lo += 1
            label = labels[2 * lo + on]
            if label is run:
                continue
            if run is not None:
                yield run[0], run[1], start, k - start
            if label[0]:
                run = None
                yield True, label[1], k, 1
            else:
                run, start = label, k
        if run is not None:
            yield run[0], run[1], start, k + 1 - start

    def shift(self, k: int) -> tuple[int, int]:
        """s_k = {k*t} as the pair (n, m) of the point n + m*alpha over D."""
        (tn, tm), d = self._step, self.d
        n, m = k * tn, k * tm
        return n - _floor_of(n, m, self._a, d) * d, m

    def moved(self, k: int) -> IntervalSet:
        """B moved by the shift of step k."""
        n, m = self.shift(k)
        return self.B.translate_mod1(_make(n, m, self.d, self.tag))


def make_set(pairs: Iterable[tuple], tails: Iterable[ParityTail] = ()) -> IntervalSet:
    """Build a set from (lo, hi) pairs of Scalars/Fractions/ints.

    When every endpoint is an ``int`` or a ``Fraction`` (not a subclass),
    the pairs go to ``from_numerators`` as numerators over the lcm of the
    denominators, and no ``Scalar`` is built.  Otherwise every endpoint
    becomes a ``Scalar`` and the pairs go through ``IntervalSet.build``,
    so an endpoint of any other type, a ``float`` above all, raises
    ``TypeError``, as ``Scalar`` does: a float would be taken at its
    binary value, so 0.1 would not mean 1/10.
    """
    pairs = [tuple(pair) for pair in pairs]
    if {type(x) for pair in pairs for x in pair} <= {int, Fraction}:
        d = lcm(*[x.denominator for pair in pairs for x in pair])
        return from_numerators([(lo.numerator * (d // lo.denominator),
                                 hi.numerator * (d // hi.denominator))
                                for lo, hi in pairs], d, tails)
    return IntervalSet.build([[_coerce(x) for x in pair] for pair in pairs],
                             tails)


_TAIL_RE = re.compile(
    r"^tail\(\s*(one|zero)\s*,\s*(\d+)\s*,\s*(even|odd)\s*\)$")
#: a component in the spelling of ``to_text``, two ends with no space
#: around "..": each end unsigned, with no leading zero, and a denominator
#: of at least 2 when it has one.  ``from_text`` checks the rest (lowest
#: terms, order, range); every other spelling goes through ``_parts``
_RATIO_PAIR_RE = re.compile(r"(0|[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?\.\."
                            r"(0|[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")


def _split_components(s: str) -> list[str]:
    """``s`` cut at each comma whose next parenthesis is not ``)``, so at
    each comma outside a tail(...), which has commas of its own.  Linear in
    the length of ``s``: of the stretches that end at a ``)``, the commas
    after a stretch's last ``(`` stay in their part, and every other comma
    cuts."""
    if ")" not in s:
        return s.split(",")
    parts, part = [], []
    *stretches, rest = s.split(")")
    for stretch in stretches:
        k = stretch.rfind("(") + 1
        cut = stretch[:k].split(",")
        part.append(cut[0])
        if len(cut) > 1:
            parts.append("".join(part))
            parts += cut[1:-1]
            part = [cut[-1]]
        part += (stretch[k:], ")")
    cut = rest.split(",")
    part.append(cut[0])
    parts.append("".join(part))
    return parts + cut[1:]


def from_text(text: str, tag: Optional[IrrationalTag] = None) -> IntervalSet:
    """Parse the serialization produced by ``IntervalSet.to_text``: each
    endpoint as integers by the grammar of ``parse_scalar``, the pieces over
    their common denominator by the normalizing core of ``build``.  A
    component spelled as ``to_text`` writes it is read by one match; any
    other goes through ``_parts``, which raises on a bad one.

    A text that ``to_text`` could have written is its own normal form: no
    tail, every component in that spelling with both ends in lowest terms,
    the components joined by exactly ", ", and the ends strictly increasing
    up to 1.  Then the lcm of the ends' denominators is the least
    denominator and the pieces are sorted, disjoint and non-adjacent, so
    the set is built from the ends as they are, and it keeps the text as
    the ``to_text`` it equals byte for byte.  The kept text is not a
    normal-form field, and only this reader sets it: a set built any other
    way has none and renders its text."""
    s = text.strip()
    if s in ("", "empty"):
        return EMPTY
    parts = [part.strip() for part in _split_components(s)]
    ends: list[tuple[int, int, int]] = []
    tails: list[ParityTail] = []
    written = 0  # components in the spelling of ``to_text``, lowest terms
    for part in parts:
        m = _RATIO_PAIR_RE.fullmatch(part)
        if m:
            lo_d, hi_d = int(m[2] or 1), int(m[4] or 1)
            lo, hi = int(m[1]), int(m[3])
            ends += ((lo, 0, lo_d), (hi, 0, hi_d))
            written += gcd(lo, lo_d) == gcd(hi, hi_d) == 1
            continue
        m = _TAIL_RE.match(part)
        if m:
            tails.append(ParityTail(m.group(1), int(m.group(2)), m.group(3)))
            continue
        if ".." not in part:
            raise ValueError(f"malformed set component {part!r}")
        lo_t, hi_t = part.split("..", 1)
        ends += (_parts(lo_t, tag), _parts(hi_t, tag))
    if written == len(parts) and ", ".join(parts) == s:
        d = lcm(*(e for _, _, e in ends))
        pts = [n * (d // e) for n, _, e in ends]
        if pts[-1] <= d and all(map(lt, pts, pts[1:])):
            S = _new(d, tuple(pts), None, frozenset())
            S._source = s
            return S
    d = lcm(*(e // gcd(n, m, e) for n, m, e in ends))
    points = [_point(n * d // e, m * d // e, tag) for n, m, e in ends]
    return from_numerators(list(zip(points[::2], points[1::2])), d, tails)
