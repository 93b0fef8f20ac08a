"""Transformations: preimages, measure preservation, towers.

The library has preimages only; a rotation is undone by the preimage of
the opposite rotation, and the other maps are checked point by point."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import fixtures
from ergolab.dynamics import (A_SET, Doubling, KakutaniTower, Odometer,
                              Rotation, TOWER_EMPTY, TOWER_FULL, TowerSet,
                              make_system, odometer_preimage, tower_preimage,
                              verify_measure_preserving)
from ergolab.errors import (InvalidTowerSetError,
                            RepresentationOverflowError)
from ergolab.intervals import AT_ZERO, EMPTY, ParityTail, arc, make_set
from ergolab.randomsets import random_interval_set, random_offset_set
from ergolab.scalars import GOLDEN, Scalar

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


def _member(S, x):
    """Pointwise membership in a tail-free set."""
    return any(iv.lo <= x < iv.hi for iv in S.intervals)


class TestRotation:
    def test_golden_is_ergodic_third_is_not(self):
        assert make_system("rotation:golden").ergodic
        assert not make_system("rotation:1/3").ergodic

    def test_preimage_is_shift_back(self):
        T = Rotation(Scalar(F(1, 4)))
        s = make_set([(F(1, 4), F(1, 2))])
        assert T.preimage(s).equals(make_set([(F(0), F(1, 4))]))
        assert Rotation(Scalar(F(-1, 4))).preimage(T.preimage(s)).equals(s)

    @given(dyadic_sets())
    @settings(max_examples=60)
    def test_golden_preserves_measure(self, s):
        T = make_system("rotation:golden")
        assert T.preimage(s).measure() == s.measure()

    def test_irrational_endpoints_survive_round_trip(self):
        T = make_system("rotation:golden")
        back = Rotation(-Scalar(0, 1, GOLDEN))
        s = make_set([(F(0), F(1, 4))])
        moved = T.preimage(T.preimage(s))
        assert back.preimage(back.preimage(moved)).equals(s)

    def test_maps_round_no_shift(self, monkeypatch):
        # the angle and its backward shift are reduced mod 1 once, when the
        # rotation is built, so the preimage does not round; each rotation
        # is undone by the one by the opposite angle
        alpha = Scalar(0, 1, GOLDEN)
        systems = [(Rotation(a), Rotation(-a))
                   for a in (alpha, -alpha, alpha * Scalar(7),
                             Scalar(F(-7, 3)), Scalar(0))]
        calls = 0
        floor = Scalar.floor

        def counting(self):
            nonlocal calls
            calls += 1
            return floor(self)

        monkeypatch.setattr(Scalar, "floor", counting)
        s = make_set([(F(0), F(1, 4)), (F(1, 2), F(5, 8))])
        for T, back in systems:
            moved = T.preimage(s)
            assert back.preimage(moved).equals(s)
            assert calls == 0, T.angle.to_text()


class TestDoubling:
    def test_preimage_of_half(self):
        T = Doubling()
        s = make_set([(F(0), F(1, 2))])
        assert T.preimage(s).equals(
            make_set([(F(0), F(1, 4)), (F(1, 2), F(3, 4))]))

    @given(dyadic_sets())
    @settings(max_examples=60)
    def test_preserves_measure(self, s):
        T = Doubling()
        assert T.preimage(s).measure() == s.measure()

    @pytest.mark.parametrize("seed", range(20))
    def test_preimage_pointwise(self, seed):
        # x in T^-1 S  <=>  2x mod 1 in S, at every breakpoint (the pieces
        # are half-open), at rationals and at alpha-shifted points
        T = Doubling()
        alpha = Scalar(0, 1, GOLDEN)
        for S in (random_interval_set(seed, allow_tails=False),
                  random_offset_set(seed, alpha)):
            pre = T.preimage(S)
            points = [e for iv in pre.intervals for e in (iv.lo, iv.hi)
                      if e < Scalar(1)]
            points += [Scalar(F(k, 97)) for k in range(97)]
            points += [(Scalar(F(k, 13)) + alpha).mod1() for k in range(13)]
            for x in points:
                assert _member(pre, x) == _member(S, (x + x).mod1()), (
                    f"{S.to_text()} at {x.to_text()}")


class TestOdometer:
    def test_block_maps_to_mirror_block(self):
        # T takes I_n onto D_n, so D_n pulls back to I_n; over
        # d = 2**(n+1) they are the arcs [d-2, d-1) and [1, 2)
        for n in range(5):
            d = 2 << n
            pre = odometer_preimage(arc(1, 2, d))
            assert pre.equals(arc(d - 2, d - 1, d))

    def test_column_set_image(self):
        # the column A, the even blocks I_0, I_2, ..., is the preimage of
        # the even blocks D_0, D_2, ...
        assert odometer_preimage(
            make_set([], [ParityTail(AT_ZERO, 0, "even")])).equals(A_SET)

    def test_preimage_of_left_half_is_right_half(self):
        got = odometer_preimage(make_set([(F(0), F(1, 2))]))
        assert got.equals(make_set([(F(1, 2), F(1))]))

    def test_overflow_on_wrong_anchor_tail(self):
        with pytest.raises(RepresentationOverflowError):
            odometer_preimage(A_SET)

    @given(dyadic_sets())
    @settings(max_examples=60)
    def test_preserves_measure(self, s):
        assert odometer_preimage(s).measure() == s.measure()

    def test_discontinuities_listing(self):
        got = [x.to_text() for x in Odometer().discontinuities(4)]
        assert got == ["0", "1/2", "3/4", "7/8", "15/16"]


class TestTowerSets:
    def test_top_must_sit_over_column(self):
        # [1/2, 3/4) is the odd-index block I_1, not part of the column A
        with pytest.raises(InvalidTowerSetError):
            TowerSet(EMPTY, make_set([(F(1, 2), F(3, 4))]))

    def test_total_measure(self):
        assert TOWER_FULL.measure() == Scalar(F(5, 3))
        assert TOWER_EMPTY.measure() == Scalar(0)

    def test_boolean_algebra(self):
        a = TowerSet(make_set([(F(0), F(1, 2))]), EMPTY)
        b = TowerSet(make_set([(F(1, 4), F(3, 4))]), A_SET)
        assert a.union(b).measure() + a.intersect(b).measure() \
            == a.measure() + b.measure()
        assert a.complement().complement().equals(a)
        assert a.union(a.complement()).equals(TOWER_FULL)

    def test_serialization(self):
        s = TowerSet(make_set([(F(0), F(1, 4))]), A_SET)
        assert s.to_text() == "0..1/4 | tail(one, 0, even)"

    @pytest.mark.parametrize("seed", range(25))
    def test_results_keep_their_top_over_the_column(self, seed, monkeypatch):
        # tower maps and set operations build their results without the
        # top-in-A check of the public constructor; the top still lies in A
        rng = random.Random(seed)

        def battery_set():
            # the Kakutani battery of the acceptance suite, plus whole A
            base = random_interval_set(rng, allow_tails=False,
                                       allow_empty=True)
            top = (A_SET if rng.random() < 0.2 else random_interval_set(
                rng, allow_tails=False, allow_empty=True).intersect(A_SET))
            return TowerSet(base, top)

        a, b = battery_set(), battery_set()
        checked = 0
        init = TowerSet.__init__

        def counting(self, *args):
            nonlocal checked
            checked += 1
            init(self, *args)

        monkeypatch.setattr(TowerSet, "__init__", counting)
        results = {"preimage": tower_preimage(a),
                   "union": a.union(b), "intersect": a.intersect(b),
                   "subtract": a.subtract(b), "complement": a.complement()}
        monkeypatch.undo()
        assert checked == 0
        for name, S in results.items():
            assert S.top.is_subset_of(A_SET), f"{name}: {S.to_text()}"


class TestKakutaniTower:
    def test_preimage_preserves_total_measure(self):
        T = KakutaniTower()
        assert T.preimage(TOWER_FULL).measure() == Scalar(F(5, 3))

    def test_preimage_of_base_blocks(self):
        # D_1 = [1/4, 1/2) pulls back to I_1 = [1/2, 3/4), outside the
        # column, so it stays on the base; [1/2, 3/4) inside D_0 pulls back
        # to [0, 1/4) inside I_0, in A, so its preimage is on the top floor
        T = KakutaniTower()
        s = TowerSet(make_set([(F(1, 4), F(1, 2))]), EMPTY)
        pre = T.preimage(s)
        assert pre.equals(TowerSet(make_set([(F(1, 2), F(3, 4))]), EMPTY))
        assert T.preimage(pre).equals(
            TowerSet(EMPTY, make_set([(F(0), F(1, 4))])))

    def test_top_falls_to_base(self):
        # points on the top storey move down into the column base
        s = TowerSet(EMPTY, A_SET)
        assert tower_preimage(s).equals(TowerSet(A_SET, EMPTY))

    @given(dyadic_sets())
    @settings(max_examples=40)
    def test_preserves_measure_on_bases(self, base):
        T = KakutaniTower()
        s = TowerSet(base, EMPTY)
        rep = verify_measure_preserving(T, s)
        assert rep.passed


class TestDescriptors:
    def test_round_trip(self):
        for d in ("rotation:golden", "rotation:1/3", "doubling",
                  "odometer", "kakutani"):
            assert make_system(d).descriptor() == d

    @pytest.mark.parametrize("text, descriptor", [
        ("rotation:sqrt2", "rotation:sqrt2"),
        ("rotation:4/3", "rotation:1/3"),
        ("rotation:0.5", "rotation:1/2"),
        ("rotation:-1/4", "rotation:3/4"),
        ("rotation:0", "rotation:0"),
    ])
    def test_rotation_names_itself(self, text, descriptor):
        # the descriptor is read off the angle, reduced mod 1
        assert make_system(text).descriptor() == descriptor
        assert make_system(descriptor).descriptor() == descriptor

    def test_fixture_rotations_round_trip(self):
        inputs = [getattr(fixtures, name)() for name in dir(fixtures)
                  if name.endswith("_inputs")]
        rotations = [kw["T"] for kw in inputs if isinstance(kw["T"], Rotation)]
        assert [T.descriptor() for T in rotations] == [
            "rotation:golden", "rotation:1/3"]
        for T in rotations:
            assert make_system(T.descriptor()).descriptor() == T.descriptor()

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_system("bakers-map")
