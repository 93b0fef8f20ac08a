"""Interval-set algebra: normalization, boolean laws, measure, tails."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import intervals
from ergolab.dynamics import A_SET, KakutaniTower, TowerSet, odometer_preimage
from ergolab.errors import (IncompatibleBasisError,
                            UnsupportedRepresentationError)
from ergolab.intervals import (AT_ONE, AT_ZERO, EMPTY, FULL, Interval,
                               IntervalSet, ParityTail, _depth_for_gap, arc,
                               doubling_preimage, from_text, make_set)
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
        merged = tail.union(IntervalSet.build([_block(AT_ONE, 2)]))
        assert merged.equals(make_set([], [ParityTail(AT_ONE, 2, "even")]))

    def test_first_block_joins_touching_component(self):
        # the preimage piece 5/8 + alpha/4 .. 7/8 touches I_3, the first
        # block of the odd tail: I_3 joins it and the tail starts at I_5,
        # so the block I_1 (the preimage of D_1) stays a component; written
        # out directly, the same set has the same normal form.  Only the
        # odometer preimage makes such a component, so the case is at one.
        quarter_alpha = Scalar(0, F(1, 4), GOLDEN)
        for hi, want in ((F(1, 4), "5/8+1/4*alpha..15/16, tail(one, 5, odd)"),
                         (F(1, 2), "1/2..3/4, 5/8+1/4*alpha..15/16, "
                                   "tail(one, 5, odd)")):
            S = make_set([(quarter_alpha, hi)],
                         [ParityTail(AT_ZERO, 3, "odd")])
            pre = odometer_preimage(S)
            assert pre.to_text() == want
            assert _is_normal(pre)
            assert from_text(want, GOLDEN) == pre
        text = "5/8+1/4*alpha..7/8, 1/2..3/4, tail(one, 3, odd)"
        assert from_text(text, GOLDEN).to_text() == (
            "1/2..3/4, 5/8+1/4*alpha..15/16, tail(one, 5, odd)")

    def test_block_helpers(self):
        # the test-side blocks, built from Fractions, are the arcs over
        # d = 2**(n+1) that the kernel names
        assert _block(AT_ONE, 1).to_text() == "1/2..3/4"
        assert _block(AT_ZERO, 1).to_text() == "1/4..1/2"
        for n in range(8):
            d = 2 << n
            one, zero = (IntervalSet.build([_block(anchor, n)])
                         for anchor in (AT_ONE, AT_ZERO))
            assert one == arc(d - 2, d - 1, d)
            assert zero == arc(1, 2, d)

    def test_normal_form_unique_across_op_order(self):
        a = make_set([(F(1, 8), F(1, 2))])
        b = make_set([], [ParityTail(AT_ONE, 1, "odd")])
        c = make_set([(F(3, 8), F(3, 4))])
        left = a.union(b).union(c)
        right = c.union(b).union(a)
        assert left.to_text() == right.to_text()
        assert left == right and hash(left) == hash(right)

    @pytest.mark.parametrize("anchor, parity", [
        (AT_ONE, "evn"), (AT_ZERO, 2), ("middle", "even")])
    def test_bad_tail_fields_raise_value_error(self, anchor, parity):
        # a bad parity string raises as a bad int parity or anchor does
        with pytest.raises(ValueError, match="bad"):
            ParityTail(anchor, 0, parity)

    def test_two_tails_at_one_anchor_agree(self):
        # every way in normalizes two tails at one anchor alike: same
        # parity keeps the longer tail, opposite parities make 0..1
        for anchor in (AT_ONE, AT_ZERO):
            for start, parity, want in (
                    (2, "even", f"tail({anchor}, 0, even)"),
                    (1, "odd", "0..1")):
                tails = [ParityTail(anchor, 0, "even"),
                         ParityTail(anchor, start, parity)]
                built = IntervalSet.build((), tails)
                assert built.to_text() == want
                text = ", ".join(t.to_text() for t in tails)
                others = [IntervalSet((), c(tails))
                          for c in (frozenset, list, tuple)]
                others += [make_set([], tails), from_text(text)]
                for S in others:
                    assert _fields(S) == _fields(built), want


def _fields(S):
    return S.d, S.pts, S.tag, S.tails


class TestCanonicalForm:
    """Equal sets reached by different paths have equal fields and equal
    hashes; the tracer's value hashes and ``==`` rely on it."""

    def assert_same(self, a, b):
        assert _fields(a) == _fields(b), (a.to_text(), b.to_text())
        assert a == b and hash(a) == hash(b)

    def test_seam_at_one_half_cancels(self):
        self.assert_same(doubling_preimage(FULL), FULL)
        self.assert_same(make_set([(F(0), F(1, 2)), (F(1, 2), F(1))]), FULL)
        self.assert_same(FULL, make_set([(F(0), F(1))]))
        assert _fields(FULL) == (1, (0, 1), None, frozenset())
        assert _fields(EMPTY) == (1, (), None, frozenset())

    def test_doubling_iterate_equals_the_set_built_from_text(self):
        S = make_set([(F(1, 3), F(2, 3))])
        for _ in range(3):
            S = doubling_preimage(S)
        text = ("1/24..1/12, 1/6..5/24, 7/24..1/3, 5/12..11/24, "
                "13/24..7/12, 2/3..17/24, 19/24..5/6, 11/12..23/24")
        assert S.d == 24
        self.assert_same(S, from_text(text))
        self.assert_same(S, doubling_preimage(doubling_preimage(
            doubling_preimage(from_text("1/3..2/3")))))

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trips_keep_the_fields(self, seed):
        alpha = Scalar(0, 1, GOLDEN)
        for S in (random_interval_set(seed, allow_tails=False),
                  random_offset_set(seed, alpha),
                  _with_tail(2 * seed + 1, AT_ONE),
                  _with_tail(2 * seed + 1, AT_ZERO)):
            self.assert_same(IntervalSet.build(S.intervals, S.tails), S)
            self.assert_same(from_text(S.to_text(), GOLDEN), S)
            # an irrational shift and its inverse lead back to S's fields
            if not S.tails:
                self.assert_same(S.translate_mod1(alpha).translate_mod1(
                    -alpha), S)

    @pytest.mark.parametrize("seed", range(20))
    def test_doubling_preimage_is_in_lowest_terms(self, seed):
        # the preimage of a set in lowest terms over d is taken over 2d
        # without a gcd: it must equal the reduced form of its own points
        alpha = Scalar(0, 1, GOLDEN)
        for S in (random_interval_set(seed, allow_tails=False),
                  random_offset_set(seed, alpha),
                  make_set([(F(seed % 5, 5), F(1))]),
                  make_set([(F(0), F(seed % 7 + 1, 8))])):
            for _ in range(3):
                S = doubling_preimage(S)
                self.assert_same(S, intervals._canonical(S.d, S.pts, S.tag))


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
    """I_n = [1 - 2**-n, 1 - 2**-(n+1)) at one, D_n = [2**-(n+1), 2**-n)
    at zero, built from Fractions apart from the kernel."""
    if anchor == AT_ONE:
        lo, hi = 1 - F(1, 1 << n), 1 - F(1, 2 << n)
    else:
        lo, hi = F(1, 2 << n), F(1, 1 << n)
    return Interval(Scalar(lo), Scalar(hi))


def _contains(S, x):
    """Pointwise membership oracle, independent of the set kernel, for x in
    [0, 1), and x > 0 when S has an at-zero tail."""
    assert Scalar(0) <= x < Scalar(1), x.to_text()
    if any(iv.lo <= x < iv.hi for iv in S.intervals):
        return True
    for t in S.tails:
        n = _block_index(t.anchor, x)
        if n >= t.start and n % 2 == t.parity:
            return True
    return False


def _sample_points(*sets, anchors=(), extra=(), tail_blocks=30):
    """Midpoints between consecutive breakpoints of the operands and the
    `extra` cuts, and points inside the first blocks of every tail anchor
    they use and of `anchors`."""
    cuts = {Scalar(0), Scalar(1)} | set(extra)
    anchors = set(anchors)
    for S in sets:
        for iv in S.intervals:
            cuts |= {iv.lo, iv.hi}
        anchors |= {t.anchor for t in S.tails}
    for anchor in anchors:
        for n in range(tail_blocks):
            cuts |= {_block(anchor, n).lo, _block(anchor, n).hi}
    cuts = sorted(cuts)
    return [(lo + hi) / Scalar(2) for lo, hi in zip(cuts, cuts[1:])]


def _is_normal(S, blocks=64):
    """Normal-form checker, independent of the set kernel: components
    sorted, disjoint and non-adjacent; at most one tail per anchor; each
    tail maximally extended (block start-2 is not a component); no
    component overlaps or touches a tail block (so none touches the first
    one); checked over the first `blocks` blocks of each tail."""
    ivs = S.intervals
    if not all(iv.lo < iv.hi for iv in ivs):
        return False
    if not all(a.hi < b.lo for a, b in zip(ivs, ivs[1:])):
        return False
    if len({t.anchor for t in S.tails}) != len(S.tails):
        return False
    for t in S.tails:
        if t.start >= 2:
            prev = _block(t.anchor, t.start - 2)
            if any(iv.lo == prev.lo and iv.hi == prev.hi for iv in ivs):
                return False
        for n in range(t.start, t.start + blocks, 2):
            blk = _block(t.anchor, n)
            if any(iv.lo <= blk.hi and blk.lo <= iv.hi for iv in ivs):
                return False
    return True


def _block_index(anchor, x):
    """The n with x in block n of `anchor` (the blocks cover [0, 1) at
    one and (0, 1) at zero)."""
    assert Scalar(0) <= x < Scalar(1) and (x > Scalar(0) or anchor == AT_ONE)
    n = 0
    while not _block(anchor, n).lo <= x < _block(anchor, n).hi:
        n += 1
    return n


def _odometer(x):
    """The adding-machine primitive: I_n onto D_n by x - 1 + 3 * 2**-(n+1)."""
    return x - Scalar(1) + Scalar(F(3, 2 << _block_index(AT_ONE, x)))


def _odometer_inverse(y):
    return y + Scalar(1) - Scalar(F(3, 2 << _block_index(AT_ZERO, y)))


def _long_set(seed):
    """A seeded tail-free set of at least 64 components: dyadic, dyadic
    moved by a multiple of the golden angle, or a doubling preimage iterate
    of a small set with golden or dyadic endpoints."""
    rng = random.Random(seed)
    alpha = Scalar(0, 1, GOLDEN)
    kind = seed % 4
    if kind < 2:
        points = sorted(rng.sample(range(1025), 2 * rng.randint(64, 96)))
        S = make_set([(F(a, 1024), F(b, 1024))
                      for a, b in zip(points[::2], points[1::2])])
        return S.translate_mod1(alpha * Scalar(seed)) if kind else S
    S = (random_offset_set(seed, alpha) if kind == 2
         else random_interval_set(seed, allow_tails=False))
    while S.component_count() < 64:
        S = doubling_preimage(S)
    return S


def _short_set(rng, long):
    """One to three components, with endpoints drawn from those of `long`,
    0, 1 and fresh dyadic and golden points."""
    ends = [e for iv in long.intervals for e in (iv.lo, iv.hi)]
    pool = ([Scalar(0), Scalar(1)] + rng.sample(ends, 4)
            + [Scalar(F(rng.randrange(1025), 1024)) for _ in range(2)]
            + [Scalar(0, rng.randint(1, 9), GOLDEN).mod1()])
    points = sorted(set(rng.sample(pool, 2 * rng.randint(1, 3))))
    pairs = list(zip(points[::2], points[1::2]))
    return make_set(pairs or [(F(0), F(1, 2))])


def _with_tail(seed, anchor):
    """A seeded finite set, with a seeded tail at `anchor` for odd seeds."""
    S = random_interval_set(seed, allow_tails=False)
    if seed % 2:
        parity = "odd" if seed % 4 == 1 else "even"
        S = S.union(make_set([], [ParityTail(anchor, seed % 7, parity)]))
    return S


def _with_two_tails(seed):
    """A seeded finite set with a tail at zero and one at one, of
    opposite parities."""
    return _with_tail(2 * seed + 1, AT_ZERO).union(
        _with_tail(2 * seed + 3, AT_ONE))


class TestPointwise:
    @pytest.mark.parametrize("seed", range(30))
    def test_operations_match_membership_oracle(self, seed):
        alpha = Scalar(0, 1, GOLDEN)
        pairs = [
            (random_interval_set(2 * seed), random_interval_set(2 * seed + 1)),
            (random_offset_set(2 * seed, alpha),
             random_offset_set(2 * seed + 1, alpha)),
            (random_offset_set(seed, alpha), random_interval_set(seed + 99)),
            # tails at both anchors on both operands, which settle both
            # anchors in one operation
            (_with_two_tails(2 * seed), _with_two_tails(2 * seed + 1)),
            (_with_two_tails(seed), random_offset_set(seed, alpha)),
        ]
        for a, b in pairs:
            ops = {"union": (a.union(b), lambda x, y: x or y),
                   "intersect": (a.intersect(b), lambda x, y: x and y),
                   "subtract": (a.subtract(b), lambda x, y: x and not y),
                   "complement": (a.complement(), lambda x, y: not x)}
            points = _sample_points(a, b)
            for name, (result, truth) in ops.items():
                assert _is_normal(result), f"{name}: {result.to_text()}"
                for x in points:
                    want = truth(_contains(a, x), _contains(b, x))
                    assert _contains(result, x) == want, (
                        f"{name} of {a.to_text()} and {b.to_text()} at "
                        f"{x.to_text()}")

    @pytest.mark.parametrize("seed", range(16))
    def test_skewed_operations_match_membership_oracle(self, seed,
                                                       monkeypatch):
        # a long operand against a short one, in both orders; the short
        # one's endpoints often meet the long one's, 0 or 1, so regions
        # join at their seams.  With a tail on the long operand the tailed
        # kernel hands _merge the expanded lists.
        skewed = 0
        merge_skewed = intervals._merge_skewed

        def counting(*args):
            nonlocal skewed
            skewed += 1
            return merge_skewed(*args)

        monkeypatch.setattr(intervals, "_merge_skewed", counting)
        rng = random.Random(seed)
        long = _long_set(seed)
        if seed % 2:
            long = long.union(make_set([], [ParityTail(
                rng.choice([AT_ONE, AT_ZERO]), rng.randint(3, 8),
                rng.choice(["even", "odd"]))]))
        short = _short_set(rng, long)
        for a, b in ((long, short), (short, long)):
            ops = {"union": (a.union(b), lambda x, y: x or y),
                   "intersect": (a.intersect(b), lambda x, y: x and y),
                   "subtract": (a.subtract(b), lambda x, y: x and not y),
                   "complement": (a.complement(), lambda x, y: not x)}
            points = _sample_points(a, b)
            member = {x: (_contains(a, x), _contains(b, x)) for x in points}
            for name, (result, truth) in ops.items():
                assert _is_normal(result), f"{name}: {result.to_text()}"
                for x in points:
                    assert _contains(result, x) == truth(*member[x]), (
                        f"{name} of {a.to_text()} and {b.to_text()} at "
                        f"{x.to_text()}")
        # every binary operation and the long operand's complement
        assert skewed >= 7

    def test_skewed_merge_bisects(self, monkeypatch):
        # a set of 4,096 components against one of a single component:
        # each operation takes the bisecting path and locates the two cuts
        # in at most 64 point comparisons, not by walking.  Rational points
        # compare as plain ints, so the comparisons are counted in a
        # bisection that makes them one at a time.
        S = make_set([(F(1, 3), F(2, 3))])
        for _ in range(12):
            S = doubling_preimage(S)
        D = make_set([(F(1, 5), F(7, 10))])
        assert S.component_count() == 4096
        calls = skewed = 0

        def bisect_left(a, x, lo=0, hi=None, *, key=None):
            nonlocal calls
            hi = len(a) if hi is None else hi
            while lo < hi:
                mid = (lo + hi) // 2
                calls += 1
                if (a[mid] if key is None else key(a[mid])) < x:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        merge_skewed = intervals._merge_skewed

        def counting(*args):
            nonlocal skewed
            skewed += 1
            return merge_skewed(*args)

        ops = (("S & D", lambda: S.intersect(D)),
               ("S | D", lambda: S.union(D)),
               ("S - D", lambda: S.subtract(D)),
               ("D - S", lambda: D.subtract(S)),
               ("S'", S.complement))
        want = {name: op() for name, op in ops}
        monkeypatch.setattr(intervals, "bisect_left", bisect_left)
        monkeypatch.setattr(intervals, "_merge_skewed", counting)
        for name, op in ops:
            calls = skewed = 0
            assert op() == want[name], name
            assert skewed == 1, f"{name}: walked"
            assert 0 < calls <= 64, f"{name}: {calls} compares"

    @pytest.mark.parametrize("seed", range(30))
    def test_odometer_maps_match_the_pointwise_map(self, seed):
        # x in T^-1 S  <=>  T(x) in S
        S = _with_tail(seed, AT_ZERO)
        pre = odometer_preimage(S)
        assert _is_normal(pre), pre.to_text()
        cuts = [_odometer_inverse(e) for iv in S.intervals
                for e in (iv.lo, iv.hi) if Scalar(0) < e < Scalar(1)]
        for x in _sample_points(pre, anchors=(AT_ONE,), extra=cuts):
            assert _contains(pre, x) == _contains(S, _odometer(x)), (
                f"T^-1 of {S.to_text()} at {x.to_text()}")

    @pytest.mark.parametrize("seed", range(20))
    def test_kakutani_preimage_matches_the_pointwise_map(self, seed):
        # the tower map: a base point in A climbs to its copy on the top
        # floor, any other point goes to the odometer image in the base
        S = TowerSet(_with_tail(seed, AT_ZERO),
                     random_interval_set(seed + 50, allow_tails=False,
                                         allow_empty=True).intersect(A_SET))
        pre = KakutaniTower().preimage(S)
        assert _is_normal(pre.base) and _is_normal(pre.top), pre.to_text()
        cuts = [_odometer_inverse(e) for part in (S.base, S.top)
                for iv in part.intervals for e in (iv.lo, iv.hi)
                if Scalar(0) < e < Scalar(1)]
        points = _sample_points(S.base, S.top, pre.base, pre.top,
                                anchors=(AT_ONE, AT_ZERO), extra=cuts)
        for x in points:
            in_a = _contains(A_SET, x)
            image = (_contains(S.top, x) if in_a
                     else _contains(S.base, _odometer(x)))
            assert _contains(pre.base, x) == image, (
                f"base of T^-1 of {S.to_text()} at {x.to_text()}")
            on_top = in_a and _contains(S.base, _odometer(x))
            assert _contains(pre.top, x) == on_top, (
                f"top of T^-1 of {S.to_text()} at {x.to_text()}")

    @pytest.mark.parametrize("seed", range(10))
    def test_translate_mod1_matches_the_pointwise_map(self, seed):
        # y in S + t  <=>  (y - t) mod 1 in S
        alpha = Scalar(0, 1, GOLDEN)
        # components at both 0 and 1: they meet at the seam of the rotation
        seam = make_set([(F(0), F(1, 8)), (F(3, 4), F(1))])
        assert seam.translate_mod1(Scalar(F(1, 8))).to_text() == (
            "0..1/4, 7/8..1")
        assert seam.translate_mod1(Scalar(F(-1, 4))).to_text() == "1/2..7/8"
        assert FULL.translate_mod1(alpha) == FULL
        sets = (random_interval_set(seed, allow_tails=False),
                random_offset_set(seed, alpha), seam, FULL)
        shifts = (Scalar(F(1, 8)), Scalar(F(-5, 8)), Scalar(F(seed, 7)),
                  alpha, -alpha, alpha * Scalar(seed + 2))
        for S in sets:
            for t in shifts:
                moved = S.translate_mod1(t)
                assert _is_normal(moved), moved.to_text()
                cuts = [(e + t).mod1() for iv in S.intervals
                        for e in (iv.lo, iv.hi)]
                for y in _sample_points(moved, extra=cuts):
                    assert _contains(moved, y) == _contains(
                        S, (y - t).mod1()), (
                        f"{S.to_text()} + {t.to_text()} at {y.to_text()}")

    @pytest.mark.parametrize("seed", range(20))
    def test_doubling_maps_match_the_pointwise_map(self, seed):
        # x in T^-1 S  <=>  2x mod 1 in S
        alpha = Scalar(0, 1, GOLDEN)
        half = Scalar(F(1, 2))
        assert doubling_preimage(make_set([(F(0), F(1, 8)),
                                           (F(3, 4), F(1))])).to_text() == (
            "0..1/16, 3/8..9/16, 7/8..1")
        for S in (random_interval_set(seed, allow_tails=False),
                  random_offset_set(seed, alpha),
                  make_set([(F(0), F(1, 8)), (F(3, 4), F(1))]), FULL):
            pre = doubling_preimage(S)
            assert _is_normal(pre), pre.to_text()
            cuts = [e * half + s for iv in S.intervals
                    for e in (iv.lo, iv.hi) for s in (Scalar(0), half)]
            for x in _sample_points(pre, extra=cuts):
                assert _contains(pre, x) == _contains(S, (x + x).mod1()), (
                    f"T^-1 of {S.to_text()} at {x.to_text()}")


class TestConstructor:
    """``IntervalSet(pairs, tails)`` is ``IntervalSet.build`` on the same
    input: one normal form, whichever entry point builds it."""

    @staticmethod
    def _pairs_near_tail(rng, tail):
        """Seeded components, plus pieces that equal, overlap or touch the
        blocks of `tail` and the blocks just below its start."""
        pairs = list(random_interval_set(rng.randrange(1 << 16),
                                         allow_tails=False,
                                         allow_empty=True).intervals)
        for n in rng.sample(range(max(0, tail.start - 3), tail.start + 4), 3):
            lo, hi = _block(tail.anchor, n)
            mid = (lo + hi) / Scalar(2)
            pairs.append(rng.choice([(lo, hi), (lo, mid), (mid, hi)]))
            # a piece that ends where the block starts, starts where it
            # ends, or runs across its end
            width = (hi - lo) / Scalar(4)
            a, b = rng.choice([(lo - width, lo), (hi, hi + width),
                               (mid, hi + width)])
            if Scalar(0) <= a and b <= Scalar(1):
                pairs.append((a, b))
        rng.shuffle(pairs)
        return pairs

    @pytest.mark.parametrize("seed", range(40))
    def test_constructor_is_build(self, seed):
        rng = random.Random(seed)
        tail = ParityTail(AT_ONE if seed % 2 else AT_ZERO, rng.randint(0, 5),
                          rng.choice(["even", "odd"]))
        pairs = self._pairs_near_tail(rng, tail)
        S = IntervalSet(pairs, [tail])
        assert _fields(S) == _fields(IntervalSet.build(pairs, [tail]))
        assert _is_normal(S), S.to_text()
        cuts = [e for pair in pairs for e in pair]
        for x in _sample_points(S, anchors=(tail.anchor,), extra=cuts):
            n = _block_index(tail.anchor, x)
            want = (any(lo <= x < hi for lo, hi in pairs)
                    or (n >= tail.start and n % 2 == tail.parity))
            assert _contains(S, x) == want, (S.to_text(), x.to_text())

    def test_tail_beside_a_covered_piece(self):
        # I_0 = [0, 1/2) and [3/4, 7/8) = I_2 are blocks of the even tail
        even = ParityTail(AT_ONE, 0, "even")
        for lo, hi in ((F(3, 4), F(7, 8)), (F(0), F(1, 2))):
            S = IntervalSet([Interval(Scalar(lo), Scalar(hi))], [even])
            assert S.to_text() == "tail(one, 0, even)"
            assert S.measure() == Scalar(F(2, 3))
            assert S.intersect(FULL).measure() == Scalar(F(2, 3))
            assert S.complement().measure() == Scalar(F(1, 3))

    def test_mixed_tags_rejected(self):
        # the two pieces are disjoint, so no sort or merge compares a
        # golden point with a sqrt2 point
        pairs = [(Scalar(0), Scalar(0, F(1, 2), GOLDEN)),
                 (Scalar(F(1, 2)), Scalar(0, 2, SQRT2M1))]
        for build in (IntervalSet.build, IntervalSet, make_set):
            with pytest.raises(IncompatibleBasisError):
                build(pairs)

    @pytest.mark.parametrize("pair", [(0.1, F(1, 2)), (F(0), 0.5),
                                      (Scalar(0), "1/2")],
                             ids=["float-lo", "float-hi", "str"])
    def test_make_set_rejects_other_endpoints(self, pair):
        # 0.1 would otherwise be taken at its binary value,
        # 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            make_set([pair])
        assert make_set([(F(1, 10), 1)]).to_text() == "1/10..1"


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

    def test_translate_rounds_the_shift_once(self, monkeypatch):
        # t is reduced mod 1 once per call, not once per component
        calls = 0
        floor = Scalar.floor

        def counting(self):
            nonlocal calls
            calls += 1
            return floor(self)

        monkeypatch.setattr(Scalar, "floor", counting)
        S = make_set([(F(k, 8), F(2 * k + 1, 16)) for k in range(8)])
        alpha = Scalar(0, 1, GOLDEN)
        for t in (alpha, -alpha, Scalar(F(3, 5)), Scalar(F(-7, 3))):
            calls = 0
            S.translate_mod1(t)
            assert calls <= 1, t.to_text()

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


def _depth_of(gap):
    """_depth_for_gap of a Scalar gap, as its numerator over its own
    denominator, the form the kernel passes."""
    return _depth_for_gap(intervals._numerator(gap, gap.d), gap.d)


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
            assert _depth_of(gap) == m
            assert Scalar(F(1, 1 << m)) <= gap
            assert m == 2 or Scalar(F(1, 1 << (m - 1))) > gap

    def test_rational_gap_formula(self):
        assert _depth_of(Scalar(F(1, 2))) == 3
        assert _depth_of(Scalar(F(1, 1000))) == 11
        assert _depth_of(Scalar(1)) == 2
