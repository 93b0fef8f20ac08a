"""The concrete transformations: rotation, doubling, odometer, Kakutani tower.

All maps act on the representable set class by exact preimage, mod null
sets: the splinter recursion, the Caratheodory probes and the correlation
sequences pull sets back through T^-1, and nothing takes a forward image.
The circle with normalized arc measure is modeled as [0, 1) with Lebesgue
measure: multiplication by a unimodular constant becomes translation mod 1
and squaring becomes doubling mod 1.

The set maps themselves live in ``intervals``, next to the kernel that
builds their normal form: ``IntervalSet.translate_mod1``, the doubling and
the odometer preimages.  This module composes them: tower sets, the Kakutani
map built from the odometer, and the ``Transformation`` descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InvalidTowerSetError
from .intervals import (AT_ONE, EMPTY, FULL, IntervalSet, ParityTail,
                        doubling_preimage, odometer_preimage)
from .scalars import TAGS, Scalar, parse_scalar


#: the Kakutani base set A = union of even-index blocks I_0, I_2, ...
A_SET = IntervalSet.build([], [ParityTail(AT_ONE, 0, "even")])
#: its complement, the odd-index blocks
A_COMPLEMENT = A_SET.complement()


# ---------------------------------------------------------------------
# tower sets
# ---------------------------------------------------------------------

class TowerSet:
    """Measurable subset of the tower space X~ = X u A'.

    The top floor is stored through the identification with A, i.e. as the
    subset tau^{-1}(S n A') of A."""

    __slots__ = ("base", "top")

    def __init__(self, base: IntervalSet, top: IntervalSet = None):
        top = top if top is not None else EMPTY
        if not top.is_subset_of(A_SET):
            raise InvalidTowerSetError("top part must be a subset of A")
        self.base = base
        self.top = top

    @classmethod
    def _of(cls, base: IntervalSet, top: IntervalSet) -> "TowerSet":
        """The tower set (base, top) for a top that lies in A by
        construction, as the tower maps and set operations make it."""
        S = object.__new__(cls)
        S.base = base
        S.top = top
        return S

    def union(self, other: "TowerSet") -> "TowerSet":
        return TowerSet._of(self.base.union(other.base),
                            self.top.union(other.top))

    def intersect(self, other: "TowerSet") -> "TowerSet":
        return TowerSet._of(self.base.intersect(other.base),
                            self.top.intersect(other.top))

    def subtract(self, other: "TowerSet") -> "TowerSet":
        return TowerSet._of(self.base.subtract(other.base),
                            self.top.subtract(other.top))

    def complement(self) -> "TowerSet":
        return TowerSet._of(self.base.complement(), A_SET.subtract(self.top))

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
TOWER_EMPTY = TowerSet(EMPTY, EMPTY)


def tower_preimage(S: TowerSet) -> TowerSet:
    pre_base = odometer_preimage(S.base)
    return TowerSet._of(pre_base.intersect(A_COMPLEMENT).union(S.top),
                        pre_base.intersect(A_SET))


# ---------------------------------------------------------------------
# transformation descriptors
# ---------------------------------------------------------------------

SetLike = Union[IntervalSet, TowerSet]


class Transformation:
    """Immutable descriptor exposing the exact preimage on set values."""

    kind = "abstract"
    ergodic = False

    def preimage(self, S: SetLike) -> SetLike:
        raise NotImplementedError

    def empty_set(self) -> SetLike:
        return EMPTY

    def full_set(self) -> SetLike:
        return FULL

    def discontinuities(self, depth: int = 0) -> list[Scalar]:
        return []

    def stall_window(self) -> Optional[int]:
        """Unproductive steps in a row that prove a splinter run stalled,
        or None when no such count does (an ergodic T never stalls)."""
        return None

    def descriptor(self) -> str:
        return self.kind

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


class Rotation(Transformation):
    """x -> x + angle mod 1; ergodic iff the angle is irrational."""

    kind = "rotation"

    def __init__(self, angle: Scalar):
        self.angle = angle.mod1()
        # the backward shift, reduced once: -angle mod 1
        self._back = (-self.angle).mod1()
        self.ergodic = angle.m != 0

    def preimage(self, S: IntervalSet) -> IntervalSet:
        return S.translate_mod1(self._back)

    def stall_window(self) -> Optional[int]:
        # rotation by p/q has T**q = id, so after q unproductive steps in a
        # row B is back where it was and no later step splinters either
        return None if self.ergodic else self.angle.d

    def descriptor(self) -> str:
        """``rotation:`` and the tag's name when the angle is alpha itself,
        else the angle's text, which ``make_system`` reads back when the
        angle is rational."""
        a = self.angle
        if (a.n, a.m, a.d) == (0, 1, 1):
            return f"rotation:{a.tag.name}"
        return f"rotation:{a.to_text()}"


class Doubling(Transformation):
    """x -> 2x mod 1; ergodic (indeed mixing), not invertible."""

    kind = "doubling"
    ergodic = True

    def preimage(self, S: IntervalSet) -> IntervalSet:
        return doubling_preimage(S)


class Odometer(Transformation):
    """The adding-machine primitive; ergodic, invertible mod null."""

    kind = "odometer"
    ergodic = True

    def preimage(self, S: IntervalSet) -> IntervalSet:
        return odometer_preimage(S)

    def discontinuities(self, depth: int = 0) -> list[Scalar]:
        # 1 - 2**-n, the left end of block I_n
        return [Scalar(Fraction((1 << n) - 1, 1 << n))
                for n in range(depth + 1)]


class KakutaniTower(Transformation):
    """One-level tower extension of the odometer; acts on TowerSets."""

    kind = "kakutani"
    ergodic = True

    def preimage(self, S: TowerSet) -> TowerSet:
        return tower_preimage(S)

    def empty_set(self) -> TowerSet:
        return TOWER_EMPTY

    def full_set(self) -> TowerSet:
        return TOWER_FULL


@dataclass
class PreservationReport:
    system: str
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
    return PreservationReport(T.descriptor(), m_s, m_p, m_s == m_p)


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
        if angle in TAGS:
            return Rotation(Scalar(0, 1, TAGS[angle]))
        return Rotation(parse_scalar(angle))
    raise ValueError(f"unknown system descriptor {descriptor!r}")
