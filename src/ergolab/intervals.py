"""Exact algebra of measurable subsets of [0, 1).

A set is a normalized finite union of half-open intervals [lo, hi) plus at
most one geometric "parity tail" per anchor.  An at-one tail with start N
and parity p denotes the union of the blocks

    I_n = [1 - 2**-n, 1 - 2**-(n+1))        n >= N, n = p (mod 2)

which accumulate at 1; an at-zero tail uses the mirrored blocks

    D_n = [2**-(n+1), 2**-n)                n >= N, n = p (mod 2)

accumulating at 0.  The I_n blocks tile [0, 1) and the D_n blocks tile (0, 1);
all identities hold mod null sets (single points are never represented).

Normal form is unique: tails are maximally extended toward small indices,
a tail's first block is never adjacent to a finite component, and two
same-anchor tails of opposite parity are collapsed into a plain interval.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Collection, Iterable, Optional, Sequence

from .errors import (RepresentationOverflowError,
                     UnsupportedRepresentationError)
from .scalars import ONE, ZERO, IrrationalTag, Scalar, _make, parse_scalar

AT_ONE = "one"
AT_ZERO = "zero"
EVEN = 0
ODD = 1

_PARITY_NAMES = {EVEN: "even", ODD: "odd"}
_PARITY_VALUES = {"even": EVEN, "odd": ODD}


def _half(n: int) -> Scalar:
    return _make(1, 0, 1 << n, None)


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
    return block_one(n) if anchor == AT_ONE else block_zero(n)


# ---------------------------------------------------------------------
# finite sweep machinery (sorted, disjoint, non-adjacent interval lists)
# ---------------------------------------------------------------------

def _sweep(intervals: Iterable[Interval]) -> list[Interval]:
    ivs = [iv for iv in intervals if iv.lo < iv.hi]
    ivs.sort(key=lambda iv: iv.lo)
    out: list[Interval] = []
    for iv in ivs:
        if out and iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


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
    merge and no empty piece is emitted: the result is normalized.
    """
    out: list[Interval] = []
    i = j = state = 0
    start = None
    while i < len(a) or j < len(b):
        ea = (a[i].hi if state & 2 else a[i].lo) if i < len(a) else None
        eb = (b[j].hi if state & 1 else b[j].lo) if j < len(b) else None
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


# ---------------------------------------------------------------------
# tail expansion depths
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


def _depths_for(sets: Sequence[tuple[Sequence[Interval], Collection[ParityTail]]],
                anchors: set[str]) -> dict[str, int]:
    """Expansion depth per anchor for (intervals, tails) pairs."""
    depths: dict[str, int] = {}
    for anchor in anchors:
        m = 2
        for intervals, tails in sets:
            for t in tails:
                if t.anchor == anchor:
                    m = max(m, t.start)
            for iv in intervals:
                if anchor == AT_ONE:
                    for e in (iv.lo, iv.hi):
                        if e < ONE:
                            m = max(m, _depth_for_gap(ONE - e))
                else:
                    for e in (iv.lo, iv.hi):
                        if e > ZERO:
                            m = max(m, _depth_for_gap(e))
        depths[anchor] = m
    return depths


def _expand(intervals: Iterable[Interval], tails: Iterable[ParityTail],
            depths: dict[str, int]):
    """Split a set into finite intervals inside the core region plus
    residual flags; flag (anchor, parity) means "all blocks n >= depth with
    that parity are present".  The intervals need not be normalized."""
    flags = {(a, p): False for a in depths for p in (EVEN, ODD)}
    raw: list[Interval] = []
    for t in tails:
        M = depths[t.anchor]
        n = t.start
        while n < M:
            raw.append(_block(t.anchor, n))
            n += 2
        flags[(t.anchor, t.parity)] = True
    raw.extend(intervals)
    ivs: list[Interval] = []
    for iv in raw:
        # a component reaching an anchor covers that anchor's whole
        # residual zone (block D_0 / I_0 of an expanded tail included)
        lo, hi = iv.lo, iv.hi
        if AT_ONE in depths and hi == ONE:
            flags[(AT_ONE, EVEN)] = flags[(AT_ONE, ODD)] = True
            hi = ONE - _half(depths[AT_ONE])
        if AT_ZERO in depths and lo == ZERO:
            flags[(AT_ZERO, EVEN)] = flags[(AT_ZERO, ODD)] = True
            lo = _half(depths[AT_ZERO])
        if lo < hi:
            ivs.append(Interval(lo, hi))
    return _sweep(ivs), flags


def _residual_interval(anchor: str, m: int) -> Interval:
    if anchor == AT_ONE:
        return Interval(ONE - _half(m), ONE)
    return Interval(ZERO, _half(m))


def _adjust_tail(ivs: list[Interval], anchor: str, start: int):
    """Canonicalize the boundary between finite components and a tail:
    absorb exact isolated predecessor blocks into the tail, and push the
    first block out into any finite component adjacent to it."""
    changed = True
    while changed:
        changed = False
        while start >= 2:
            blk = _block(anchor, start - 2)
            hit = None
            for i, iv in enumerate(ivs):
                if iv.lo == blk.lo and iv.hi == blk.hi:
                    hit = i
                    break
            if hit is None:
                break
            del ivs[hit]
            start -= 2
            changed = True
        blk = _block(anchor, start)
        adjacent = any(iv.hi == blk.lo or iv.lo == blk.hi for iv in ivs)
        if adjacent:
            ivs.append(blk)
            ivs = _sweep(ivs)
            start += 2
            changed = True
    return ivs, start


def _collapse(ivs: list[Interval], flags, depths: dict[str, int]) -> "IntervalSet":
    extra: list[Interval] = []
    pending: list[tuple[str, int, int]] = []
    for anchor, m in depths.items():
        e, o = flags[(anchor, EVEN)], flags[(anchor, ODD)]
        if e and o:
            extra.append(_residual_interval(anchor, m))
        elif e or o:
            parity = EVEN if e else ODD
            start = m if m % 2 == parity else m + 1
            pending.append((anchor, start, parity))
    ivs = _sweep(list(ivs) + extra)
    tails = []
    for anchor, start, parity in pending:
        ivs, start = _adjust_tail(ivs, anchor, start)
        tails.append(ParityTail(anchor, start, parity))
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
        anchors = [t.anchor for t in tails]
        if len(anchors) != len(set(anchors)):
            raise RepresentationOverflowError(
                "more than one parity tail per anchor in normal form")
        self.intervals = tuple(intervals)
        self.tails = frozenset(tails)

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
        tails = list(tails)
        if not tails:
            return cls(tuple(_sweep(ivs)))
        depths = _depths_for([(ivs, tails)], {t.anchor for t in tails})
        return _collapse(*_expand(ivs, tails, depths), depths)

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
        depths = _depths_for([(self.intervals, self.tails),
                              (other.intervals, other.tails)],
                             self._anchors() | other._anchors())
        ia, fa = _expand(self.intervals, self.tails, depths)
        ib, fb = _expand(other.intervals, other.tails, depths)
        fl = {k: keep[2 * fa[k] + fb[k]] for k in fa}
        return _collapse(_merge(ia, ib, keep), fl, depths)

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
        if self.tails:
            raise UnsupportedRepresentationError(
                "translation of parity tails is not representable")
        out: list[Interval] = []
        for iv in self.intervals:
            length = iv.hi - iv.lo
            lo = (iv.lo + t).mod1()
            hi = lo + length
            if hi <= ONE:
                out.append(Interval(lo, hi))
            else:
                out.append(Interval(lo, ONE))
                out.append(Interval(ZERO, hi - ONE))
        return IntervalSet(tuple(_sweep(out)))

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
