"""Interval-set algebra: normalization, boolean laws, measure, tails."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.errors import (RepresentationOverflowError,
                            UnsupportedRepresentationError)
from ergolab.intervals import (AT_ONE, AT_ZERO, EMPTY, FULL, IntervalSet,
                               ParityTail, _depth_for_gap, block_one,
                               block_zero, from_text, make_set, truncate_tails)
from ergolab.randomsets import random_interval_set, random_offset_set
from ergolab.scalars import GOLDEN, SQRT2M1, IrrationalTag, Scalar

F = Fraction


def dyadic_sets(depth=6, max_parts=4):
    den = 1 << depth
    endpoints = st.integers(min_value=0, max_value=den)

    def build(points):
        points = sorted(set(points))
        pairs = [(F(points[i], den), F(points[i + 1], den))
                 for i in range(0, len(points) - 1, 2)]
        return make_set(pairs)

    return st.lists(endpoints, min_size=0, max_size=2 * max_parts).map(build)


def tailed_sets():
    tails = st.lists(
        st.builds(ParityTail,
                  st.sampled_from([AT_ONE, AT_ZERO]),
                  st.integers(min_value=0, max_value=4),
                  st.sampled_from(["even", "odd"])),
        min_size=0, max_size=1)
    return st.builds(lambda s, t: s.union(make_set([], t)),
                     dyadic_sets(), tails)


class TestNormalization:
    def test_adjacent_intervals_merge(self):
        s = make_set([(F(0), F(1, 4)), (F(1, 4), F(1, 2))])
        assert s.to_text() == "0..1/2"
        assert s.component_count() == 1

    def test_empty_and_full(self):
        assert EMPTY.to_text() == "empty"
        assert FULL.measure() == Scalar(1)
        assert make_set([(F(0), F(1))]).equals(FULL)

    def test_tail_plus_complement_blocks_is_full(self):
        even = make_set([], [ParityTail(AT_ONE, 0, "even")])
        odd = make_set([], [ParityTail(AT_ONE, 0, "odd")])
        assert even.union(odd).equals(FULL)
        assert even.intersect(odd).is_empty()

    def test_blocks_absorb_into_tail(self):
        # an explicit block adjacent below the tail start extends the tail
        tail = make_set([], [ParityTail(AT_ONE, 4, "even")])
        merged = tail.union(IntervalSet.build([block_one(2)]))
        assert merged.equals(make_set([], [ParityTail(AT_ONE, 2, "even")]))

    def test_block_helpers(self):
        assert block_one(1).to_text() == "1/2..3/4"
        assert block_zero(1).to_text() == "1/4..1/2"

    def test_normal_form_unique_across_op_order(self):
        a = make_set([(F(1, 8), F(1, 2))])
        b = make_set([], [ParityTail(AT_ONE, 1, "odd")])
        c = make_set([(F(3, 8), F(3, 4))])
        left = a.union(b).union(c)
        right = c.union(b).union(a)
        assert left.to_text() == right.to_text()
        assert left == right and hash(left) == hash(right)

    def test_too_many_tails_rejected(self):
        probe = frozenset({ParityTail(AT_ONE, 0, "even"),
                           ParityTail(AT_ONE, 2, "even")})
        with pytest.raises(RepresentationOverflowError):
            IntervalSet((), probe)


class TestBooleanLaws:
    @given(tailed_sets(), tailed_sets())
    @settings(max_examples=80)
    def test_de_morgan(self, a, b):
        assert a.union(b).complement().equals(
            a.complement().intersect(b.complement()))

    @given(tailed_sets(), tailed_sets(), tailed_sets())
    @settings(max_examples=60)
    def test_distributivity(self, a, b, c):
        assert a.intersect(b.union(c)).equals(
            a.intersect(b).union(a.intersect(c)))

    @given(tailed_sets())
    @settings(max_examples=80)
    def test_complement_involution(self, a):
        assert a.complement().complement().equals(a)

    @given(tailed_sets(), tailed_sets())
    @settings(max_examples=80)
    def test_subtract_is_intersect_complement(self, a, b):
        assert a.subtract(b).equals(a.intersect(b.complement()))

    @given(tailed_sets())
    @settings(max_examples=80)
    def test_partition_of_unity(self, a):
        assert a.union(a.complement()).equals(FULL)
        assert a.intersect(a.complement()).is_empty()


def _block(anchor, n):
    return block_one(n) if anchor == AT_ONE else block_zero(n)


def _contains(S, x):
    """Pointwise membership oracle, independent of the set kernel."""
    if any(iv.lo <= x < iv.hi for iv in S.intervals):
        return True
    for t in S.tails:
        n = 0
        while not _block(t.anchor, n).lo <= x < _block(t.anchor, n).hi:
            n += 1
        if n >= t.start and n % 2 == t.parity:
            return True
    return False


def _sample_points(*sets, tail_blocks=30):
    """Midpoints between consecutive breakpoints of the operands, and points
    inside the first blocks of every tail anchor they use."""
    cuts = {Scalar(0), Scalar(1)}
    anchors = set()
    for S in sets:
        for iv in S.intervals:
            cuts |= {iv.lo, iv.hi}
        anchors |= {t.anchor for t in S.tails}
    for anchor in anchors:
        for n in range(tail_blocks):
            cuts |= {_block(anchor, n).lo, _block(anchor, n).hi}
    cuts = sorted(cuts)
    return [(lo + hi) / Scalar(2) for lo, hi in zip(cuts, cuts[1:])]


class TestPointwise:
    @pytest.mark.parametrize("seed", range(30))
    def test_operations_match_membership_oracle(self, seed):
        alpha = Scalar(0, 1, GOLDEN)
        pairs = [
            (random_interval_set(2 * seed), random_interval_set(2 * seed + 1)),
            (random_offset_set(2 * seed, alpha),
             random_offset_set(2 * seed + 1, alpha)),
            (random_offset_set(seed, alpha), random_interval_set(seed + 99)),
        ]
        for a, b in pairs:
            ops = {"union": (a.union(b), lambda x, y: x or y),
                   "intersect": (a.intersect(b), lambda x, y: x and y),
                   "subtract": (a.subtract(b), lambda x, y: x and not y),
                   "complement": (a.complement(), lambda x, y: not x)}
            points = _sample_points(a, b)
            for name, (result, truth) in ops.items():
                for x in points:
                    want = truth(_contains(a, x), _contains(b, x))
                    assert _contains(result, x) == want, (
                        f"{name} of {a.to_text()} and {b.to_text()} at "
                        f"{x.to_text()}")


class TestMeasure:
    def test_tail_measure_closed_form(self):
        # union of blocks I_0, I_2, I_4, ... has mass 2/3
        assert make_set([], [ParityTail(AT_ONE, 0, "even")]).measure() \
            == Scalar(F(2, 3))
        assert make_set([], [ParityTail(AT_ZERO, 3, "odd")]).measure() \
            == Scalar(F(2, 3 * 8))

    @given(tailed_sets(), tailed_sets())
    @settings(max_examples=80)
    def test_inclusion_exclusion(self, a, b):
        lhs = a.union(b).measure() + a.intersect(b).measure()
        assert lhs == a.measure() + b.measure()

    @given(tailed_sets())
    @settings(max_examples=80)
    def test_complement_measure(self, a):
        assert a.measure() + a.complement().measure() == Scalar(1)

    @given(tailed_sets(), tailed_sets())
    @settings(max_examples=80)
    def test_monotonicity(self, a, b):
        if a.is_subset_of(b):
            assert a.measure() <= b.measure()


class TestTranslation:
    def test_irrational_translate_round_trip(self):
        alpha = Scalar(0, 1, GOLDEN)
        s = make_set([(F(0), F(1, 4)), (F(1, 2), F(5, 8))])
        moved = s.translate_mod1(alpha)
        assert moved.measure() == s.measure()
        assert moved.translate_mod1(-alpha).equals(s)

    def test_translate_rejects_tails(self):
        s = make_set([], [ParityTail(AT_ONE, 0, "even")])
        with pytest.raises(UnsupportedRepresentationError):
            s.translate_mod1(Scalar(F(1, 3)))

    @given(dyadic_sets(), st.fractions(min_value=0, max_value=1,
                                       max_denominator=32))
    @settings(max_examples=80)
    def test_translation_preserves_measure(self, s, t):
        assert s.translate_mod1(Scalar(t)).measure() == s.measure()


class TestSerialization:
    def test_round_trip_with_tails(self):
        text = "0..1/4, 3/8..1/2, tail(one, 2, even)"
        assert from_text(text).to_text() == text

    def test_round_trip_irrational_endpoints(self):
        s = make_set([(F(0), F(1, 4))]).translate_mod1(Scalar(0, 1, GOLDEN))
        assert from_text(s.to_text(), GOLDEN).equals(s)

    def test_empty_round_trip(self):
        assert from_text("empty").is_empty()

    @given(tailed_sets())
    @settings(max_examples=80)
    def test_round_trip_random(self, s):
        assert from_text(s.to_text()).equals(s)


class TestTruncation:
    def test_truncate_tail_keeps_exact_residual_bound(self):
        s = make_set([], [ParityTail(AT_ONE, 0, "even")])
        finite, dropped = truncate_tails(s, blocks=3)
        assert not finite.tails
        assert finite.measure() + dropped == s.measure()


class TestDepthForGap:
    def test_irrational_gap_gets_smallest_depth_without_bracket(
            self, monkeypatch):
        def refuse(self, k):
            raise AssertionError("bounds called")
        monkeypatch.setattr(IrrationalTag, "bounds", refuse)
        cases = [(Scalar(1, -1, GOLDEN), 2),                 # ~0.382
                 (Scalar(F(3, 4), -1, GOLDEN), 3),           # ~0.132
                 (Scalar(0, 1, SQRT2M1), 2),                 # ~0.414
                 (Scalar(F(1, 2), -1, SQRT2M1), 4),          # ~0.0858
                 (Scalar(F(610, 987), -1, GOLDEN), 22)]      # ~4.6e-7
        for gap, m in cases:
            assert _depth_for_gap(gap) == m
            assert Scalar(F(1, 1 << m)) <= gap
            assert m == 2 or Scalar(F(1, 1 << (m - 1))) > gap

    def test_rational_gap_formula(self):
        assert _depth_for_gap(Scalar(F(1, 2))) == 3
        assert _depth_for_gap(Scalar(F(1, 1000))) == 11
        assert _depth_for_gap(Scalar(1)) == 2
