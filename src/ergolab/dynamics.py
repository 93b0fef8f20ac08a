"""The concrete transformations: rotation, doubling, odometer, Kakutani tower.

All maps act on the representable set class by exact preimage/image, mod
null sets.  The circle with normalized arc measure is modeled as [0, 1)
with Lebesgue measure: multiplication by a unimodular constant becomes
translation mod 1 and squaring becomes doubling mod 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (InvalidTowerSetError, RepresentationOverflowError,
                     UnsupportedRepresentationError)
from .intervals import (AT_ONE, AT_ZERO, FULL, Interval, IntervalSet,
                        ParityTail, _block, _collapse, _depths_for, _expand,
                        _half, _same, _sweep)
from .scalars import ONE, Scalar, _make, get_tag


#: the Kakutani base set A = union of even-index blocks I_0, I_2, ...
A_SET = IntervalSet.build([], [ParityTail(AT_ONE, 0, "even")])
#: its complement, the odd-index blocks
A_COMPLEMENT = A_SET.complement()


# ---------------------------------------------------------------------
# odometer primitive
# ---------------------------------------------------------------------

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
            if out and _same(out[-1].hi, lo):
                out[-1] = Interval(out[-1].lo, hi)
            else:
                out.append(Interval(lo, hi))
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


# ---------------------------------------------------------------------
# doubling map
# ---------------------------------------------------------------------

def doubling_preimage(S: IntervalSet) -> IntervalSet:
    """{x : 2x mod 1 in S} = S/2 union (S/2 + 1/2)."""
    if S.tails:
        raise UnsupportedRepresentationError("doubling does not act on tails")
    left = []
    right = []
    for iv in S.intervals:
        # x = (n + m*alpha)/d gives x/2 = (n + m*alpha)/2d and
        # x/2 + 1/2 = (n + d + m*alpha)/2d
        lo, hi = iv.lo, iv.hi
        left.append(Interval(_make(lo.n, lo.m, 2 * lo.d, lo.tag),
                             _make(hi.n, hi.m, 2 * hi.d, hi.tag)))
        right.append(Interval(_make(lo.n + lo.d, lo.m, 2 * lo.d, lo.tag),
                              _make(hi.n + hi.d, hi.m, 2 * hi.d, hi.tag)))
    # both runs are sorted; only the junction can merge (left ends at 1/2
    # only when S reached 1, right starts at 1/2 only when S reached 0)
    if left and right and left[-1].hi == right[0].lo:
        merged = Interval(left[-1].lo, right[0].hi)
        ivs = left[:-1] + [merged] + right[1:]
    else:
        ivs = left + right
    return IntervalSet(tuple(ivs))


def doubling_image(S: IntervalSet) -> IntervalSet:
    """Exact forward image 2S mod 1."""
    if S.tails:
        raise UnsupportedRepresentationError("doubling does not act on tails")
    half = Scalar(Fraction(1, 2))
    out = []
    for iv in S.intervals:
        for lo, hi in ((iv.lo, iv.hi if iv.hi < half else half),
                       (iv.lo if iv.lo > half else half, iv.hi)):
            if lo < hi:
                two_lo = lo + lo
                two_hi = hi + hi
                if two_lo >= ONE:
                    two_lo, two_hi = two_lo - ONE, two_hi - ONE
                out.append(Interval(two_lo, two_hi))
    return IntervalSet(tuple(_sweep(out)))


# ---------------------------------------------------------------------
# tower sets
# ---------------------------------------------------------------------

class TowerSet:
    """Measurable subset of the tower space X~ = X u A'.

    The top floor is stored through the identification with A, i.e. as the
    subset tau^{-1}(S n A') of A."""

    __slots__ = ("base", "top")

    def __init__(self, base: IntervalSet, top: IntervalSet = None):
        top = top if top is not None else IntervalSet()
        if not top.is_subset_of(A_SET):
            raise InvalidTowerSetError("top part must be a subset of A")
        self.base = base
        self.top = top

    def union(self, other: "TowerSet") -> "TowerSet":
        return TowerSet(self.base.union(other.base), self.top.union(other.top))

    def intersect(self, other: "TowerSet") -> "TowerSet":
        return TowerSet(self.base.intersect(other.base),
                        self.top.intersect(other.top))

    def subtract(self, other: "TowerSet") -> "TowerSet":
        return TowerSet(self.base.subtract(other.base),
                        self.top.subtract(other.top))

    def complement(self) -> "TowerSet":
        return TowerSet(self.base.complement(), A_SET.subtract(self.top))

    def measure(self) -> Scalar:
        return self.base.measure() + self.top.measure()

    def is_empty(self) -> bool:
        return self.base.is_empty() and self.top.is_empty()

    def equals(self, other: "TowerSet") -> bool:
        return self.base.equals(other.base) and self.top.equals(other.top)

    def __eq__(self, other):
        return isinstance(other, TowerSet) and self.equals(other)

    def __hash__(self):
        return hash((self.base, self.top))

    def component_count(self) -> int:
        return self.base.component_count() + self.top.component_count()

    def to_text(self) -> str:
        return f"{self.base.to_text()} | {self.top.to_text()}"

    def __repr__(self):
        return f"TowerSet({self.to_text()!r})"


#: the full tower space; its measure is 1 + mu(A) = 5/3
TOWER_FULL = TowerSet(FULL, A_SET)
TOWER_EMPTY = TowerSet(IntervalSet(), IntervalSet())


def tower_preimage(S: TowerSet) -> TowerSet:
    pre_base = odometer_preimage(S.base)
    return TowerSet(pre_base.intersect(A_COMPLEMENT).union(S.top),
                    pre_base.intersect(A_SET))


def tower_image(S: TowerSet) -> TowerSet:
    base = odometer_image(S.base.intersect(A_COMPLEMENT)).union(
        odometer_image(S.top))
    return TowerSet(base, S.base.intersect(A_SET))


# ---------------------------------------------------------------------
# transformation descriptors
# ---------------------------------------------------------------------

SetLike = Union[IntervalSet, TowerSet]


class Transformation:
    """Immutable descriptor exposing exact preimage/image on set values."""

    kind = "abstract"
    ergodic = False

    def preimage(self, S: SetLike) -> SetLike:
        raise NotImplementedError

    def image(self, S: SetLike) -> SetLike:
        raise NotImplementedError

    def empty_set(self) -> SetLike:
        return IntervalSet()

    def full_set(self) -> SetLike:
        return FULL

    def discontinuities(self, depth: int = 0) -> list[Scalar]:
        return []

    def stall_window(self) -> int:
        return 8

    def descriptor(self) -> str:
        return self.kind

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


class Rotation(Transformation):
    """x -> x + angle mod 1; ergodic iff the angle is irrational."""

    kind = "rotation"

    def __init__(self, angle: Scalar, label: Optional[str] = None):
        self.angle = angle.mod1()
        self.ergodic = angle.m != 0
        self._label = label

    def preimage(self, S: IntervalSet) -> IntervalSet:
        return S.translate_mod1(-self.angle)

    def image(self, S: IntervalSet) -> IntervalSet:
        return S.translate_mod1(self.angle)

    def stall_window(self) -> int:
        if self.ergodic:
            return 8
        return max(8, self.angle.d)

    def descriptor(self) -> str:
        if self._label:
            return f"rotation:{self._label}"
        return f"rotation:{self.angle.to_text()}"


class Doubling(Transformation):
    """x -> 2x mod 1; ergodic (indeed mixing), not invertible."""

    kind = "doubling"
    ergodic = True

    def preimage(self, S: IntervalSet) -> IntervalSet:
        return doubling_preimage(S)

    def image(self, S: IntervalSet) -> IntervalSet:
        return doubling_image(S)

    def discontinuities(self, depth: int = 0) -> list[Scalar]:
        return []  # continuous as a circle map


class Odometer(Transformation):
    """The adding-machine primitive; ergodic, invertible mod null."""

    kind = "odometer"
    ergodic = True

    def preimage(self, S: IntervalSet) -> IntervalSet:
        return odometer_preimage(S)

    def image(self, S: IntervalSet) -> IntervalSet:
        return odometer_image(S)

    def discontinuities(self, depth: int = 0) -> list[Scalar]:
        return [ONE - _half(n) for n in range(depth + 1)]


class KakutaniTower(Transformation):
    """One-level tower extension of the odometer; acts on TowerSets."""

    kind = "kakutani"
    ergodic = True

    def preimage(self, S: TowerSet) -> TowerSet:
        return tower_preimage(S)

    def image(self, S: TowerSet) -> TowerSet:
        return tower_image(S)

    def empty_set(self) -> TowerSet:
        return TOWER_EMPTY

    def full_set(self) -> TowerSet:
        return TOWER_FULL


@dataclass
class PreservationReport:
    system: str
    set_text: str
    measure_set: Scalar
    measure_preimage: Scalar
    passed: bool

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"[{verdict}] {self.system}: mu(S) = {self.measure_set} "
                f"vs mu(T^-1 S) = {self.measure_preimage}")


def verify_measure_preserving(T: Transformation, S: SetLike) -> PreservationReport:
    """Check measure(preimage(S)) == measure(S), exactly."""
    pre = T.preimage(S)
    m_s = S.measure()
    m_p = pre.measure()
    return PreservationReport(T.descriptor(), S.to_text(), m_s, m_p,
                              m_s == m_p)


def make_system(descriptor: str) -> Transformation:
    """Parse a system descriptor: rotation:golden, rotation:1/3, doubling,
    odometer, kakutani."""
    d = descriptor.strip()
    if d == "doubling":
        return Doubling()
    if d == "odometer":
        return Odometer()
    if d == "kakutani":
        return KakutaniTower()
    if d.startswith("rotation:"):
        angle = d.split(":", 1)[1]
        if angle in ("golden", "sqrt2"):
            return Rotation(Scalar(0, 1, get_tag(angle)), label=angle)
        return Rotation(Scalar(Fraction(angle)), label=angle)
    raise ValueError(f"unknown system descriptor {descriptor!r}")
