"""Interval-set algebra: normalization, boolean laws, measure, tails."""

import pickle
import random
import re
from copy import deepcopy
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import intervals
from ergolab.dynamics import A_SET, KakutaniTower, TowerSet, odometer_preimage
from ergolab.errors import (IncompatibleBasisError,
                            RepresentationOverflowError,
                            UnsupportedRepresentationError)
from ergolab.intervals import (AT_ONE, AT_ZERO, EMPTY, FULL, Interval,
                               IntervalSet, ParityTail, ShiftSteps,
                               _depth_for_gap, arc, doubling_preimage,
                               from_text, make_set)
from ergolab.randomsets import (random_interval_set, random_offset_set,
                                random_tower_set)
from ergolab.scalars import (GOLDEN, SQRT2M1, IrrationalTag, Scalar,
                             _floor_of, _make, parse_scalar)

F = Fraction


def dyadic_sets(depth=6, max_parts=4, min_points=0):
    """Tail-free sets of at most ``max_parts`` intervals with endpoints
    on the grid of 2**-depth, drawn as at least ``min_points`` of them."""
    den = 1 << depth
    endpoints = st.integers(min_value=0, max_value=den)

    def build(points):
        points = sorted(set(points))
        pairs = [(F(points[i], den), F(points[i + 1], den))
                 for i in range(0, len(points) - 1, 2)]
        return make_set(pairs)

    return st.lists(endpoints, min_size=min_points,
                    max_size=2 * max_parts).map(build)


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
        tailed = make_set([(F(1, 8), F(1, 4))],
                          [ParityTail(AT_ONE, 2, "even")])
        assert EMPTY.subtract(tailed) is EMPTY
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

    @pytest.mark.parametrize("seed", range(24))
    def test_canonical_takes_the_gcd_of_every_point(self, seed):
        # the first points of a list share a factor g with d: odd seeds
        # keep it to the end, even ones lose it at a later point
        rng = random.Random(seed)
        g, m = rng.choice([2, 3, 6, 35, 1024]), rng.randint(40, 400)
        d = g * m
        head = [g * k for k in rng.sample(range(m // 2), rng.randint(1, 16))]
        size = rng.randint(1, 8) * 2 - len(head) % 2
        if seed % 2:
            tail = [g * k for k in rng.sample(range(m // 2, m + 1), size)]
        else:
            lost = g * rng.randrange(m // 2, m) + 1
            tail = [lost] + rng.sample(
                [p for p in range(g * (m // 2), d + 1) if p != lost],
                size - 1)
        pts = sorted(head) + sorted(tail)
        want = gcd(d, *pts)
        S = intervals._canonical(d, pts, None)
        assert (S.d, S.pts) == (d // want, tuple(p // want for p in pts))
        assert (want % g == 0) == bool(seed % 2)


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
    """Normal-form checker, independent of the set kernel: d the least
    denominator (coprime to every integer part of every point); components
    sorted, disjoint and non-adjacent; at most one tail per anchor; each
    tail maximally extended (block start-2 is not a component); no
    component overlaps or touches a tail block (so none touches the first
    one); checked over the first `blocks` blocks of each tail."""
    parts = [q for p in S.pts for q in ((p,) if type(p) is int else p[:2])]
    if gcd(S.d, *parts) != 1:
        return False
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
    of a small set with golden, dyadic or 55th endpoints."""
    rng = random.Random(seed)
    alpha = Scalar(0, 1, GOLDEN)
    kind = seed % 5
    if kind < 2:
        points = sorted(rng.sample(range(1025), 2 * rng.randint(64, 96)))
        S = make_set([(F(a, 1024), F(b, 1024))
                      for a, b in zip(points[::2], points[1::2])])
        return S.translate_mod1(alpha * Scalar(seed)) if kind else S
    if kind == 4:
        # over 55, as a doubling_mixing C with points over 5 and 11
        points = sorted(rng.sample(range(1, 55), 2 * rng.randint(1, 3)))
        S = make_set([(F(a, 55), F(b, 55))
                      for a, b in zip(points[::2], points[1::2])])
    else:
        S = (random_offset_set(seed, alpha) if kind == 2
             else random_interval_set(seed, allow_tails=False))
    while S.component_count() < 64:
        S = doubling_preimage(S)
    return S


def _short_set(rng, long):
    """One to three components, with endpoints drawn from those of `long`,
    0, 1 and fresh dyadic and golden points, and two each over 3, 7, 12
    and 42, whose primes 3 and 7 the long operand's denominator lacks."""
    ends = [e for iv in long.intervals for e in (iv.lo, iv.hi)]
    pool = ([Scalar(0), Scalar(1)] + rng.sample(ends, 4)
            + [Scalar(F(rng.randrange(1025), 1024)) for _ in range(2)]
            + [Scalar(0, rng.randint(1, 9), GOLDEN).mod1()]
            + [Scalar(F(rng.randrange(1, q), q)) for q in (3, 7, 12, 42) * 2])
    points = sorted(set(rng.sample(pool, 2 * rng.randint(1, 3))))
    pairs = list(zip(points[::2], points[1::2]))
    return make_set(pairs or [(F(0), F(1, 2))])


#: seeds of the skewed operands, which cover every kind of `_long_set`
SKEWED_SEEDS = range(20)


def _skewed_operands(seed):
    """A long set, with a seeded tail on odd seeds, and a short one."""
    rng = random.Random(seed)
    long = _long_set(seed)
    if seed % 2:
        long = long.union(make_set([], [ParityTail(
            rng.choice([AT_ONE, AT_ZERO]), rng.randint(3, 8),
            rng.choice(["even", "odd"]))]))
    return long, _short_set(rng, long)


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


#: bases that route the residual zone of the odometer preimage: one that
#: reaches 0, so its residual zone is full, and lone tails at zero of
#: either parity, which route the zone to the top (even) or the base (odd)
KAKUTANI_BASES = {
    "reaches-zero": "0..3/8, 1/2..5/8",
    "reaches-zero-and-one": "0..1/1024, 3/4..1",
    "full": "0..1",
    **{f"tail-zero-{s}-{p}": f"tail(zero, {s}, {p})"
       for s in range(8) for p in ("even", "odd")},
}


def _kakutani_input(seed):
    """A seeded tower set, or one of ``KAKUTANI_BASES`` under a top of
    pieces of A and an even tail at one."""
    if seed in KAKUTANI_BASES:
        top = from_text("1/8..3/8, 3/4..13/16, tail(one, 4, even)")
        return TowerSet(from_text(KAKUTANI_BASES[seed]), top)
    return TowerSet(_with_tail(seed, AT_ZERO),
                    random_interval_set(seed + 50, allow_tails=False,
                                        allow_empty=True).intersect(A_SET))


def _tailed_against_windows(seed):
    """A seeded set with a tail at one anchor or both, rational or golden
    ends, and a deep component in a block of each tail's other parity; and
    tail-free windows, rational and golden, some clear of the anchors and
    some reaching one."""
    rng = random.Random(seed)
    alpha = Scalar(0, 1, GOLDEN)
    T = (random_offset_set(seed, alpha) if seed % 2
         else random_interval_set(seed, allow_tails=False))
    anchors = ([AT_ONE], [AT_ZERO], [AT_ONE, AT_ZERO])[seed % 3]
    # the finite part keeps clear of the tails, so they stay apart; it may
    # reach the other anchor
    T = T.intersect(arc(AT_ZERO in anchors, 8 - (AT_ONE in anchors), 8))
    for anchor in anchors:
        parity = rng.randrange(2)
        T = T.union(make_set([], [ParityTail(anchor, rng.randint(0, 8),
                                             parity)]))
        # a component inside a block of the other parity, far deeper than
        # most windows reach
        blk = _block(anchor, 21 - parity)
        quarter = (blk.hi - blk.lo) * Scalar(F(1, 4))
        T = T.union(make_set([(blk.lo + quarter, blk.hi - quarter)]))
    assert len(T.tails) == len(anchors)
    lo, hi = sorted(rng.sample(range(1, 64), 2))
    g = (alpha * Scalar(rng.randint(1, 9))).mod1()
    windows = [
        make_set([(F(lo, 64), F(hi, 64))]),
        make_set([(F(0), F(lo, 64)), (F(hi, 64), F(1))]),
        make_set([(F(lo, 64), F(1))]),
        make_set([(g * Scalar(F(1, 2)), g)]),
        make_set([(F(1, 64), F(1, 2)), (F(3, 4), 1 - F(1, 1 << 30))]),
    ]
    return T, windows


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

    @pytest.mark.parametrize("seed", SKEWED_SEEDS)
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
        long, short = _skewed_operands(seed)
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

    def test_skewed_merge_scales_runs_by_what_the_cuts_need(self,
                                                            monkeypatch):
        # over the oracle's operands, a long list over a denominator f > 1
        # times smaller than the short one's keeps its runs as they are
        # (div = f), scales them by part of f (1 < div < f) or by all of it
        seen = set()
        merge_skewed = intervals._merge_skewed

        def recording(short, long, f, *keep):
            out, div = merge_skewed(short, long, f, *keep)
            if f > 1:
                seen.add("none" if div == f else "all" if div == 1
                         else "part")
            return out, div

        monkeypatch.setattr(intervals, "_merge_skewed", recording)
        for seed in SKEWED_SEEDS:
            long, short = _skewed_operands(seed)
            for a, b in ((long, short), (short, long)):
                a.union(b), a.intersect(b), a.subtract(b)
        assert seen == {"none", "part", "all"}

    @pytest.mark.parametrize("seed", range(12))
    def test_clipped_operations_match_membership_oracle(self, seed):
        # a tailed set against tail-free windows, in both orders: windows
        # clear of the tails' anchors, where an intersection clips the
        # tails off, and windows that touch an anchor
        T, windows = _tailed_against_windows(seed)
        for W in windows:
            for a, b in ((T, W), (W, T)):
                ops = {"intersect": (a.intersect(b), lambda x, y: x and y),
                       "subtract": (a.subtract(b), lambda x, y: x and not y)}
                assert ops["intersect"][0] == a.subtract(b.complement())
                points = _sample_points(a, b)
                for name, (result, truth) in ops.items():
                    assert _is_normal(result), f"{name}: {result.to_text()}"
                    for x in points:
                        want = truth(_contains(a, x), _contains(b, x))
                        assert _contains(result, x) == want, (
                            f"{name} of {a.to_text()} and {b.to_text()} at "
                            f"{x.to_text()}")

    @pytest.mark.parametrize("seed", range(12))
    def test_every_tailed_operation_reads_its_depths(self, seed,
                                                     monkeypatch):
        # one path for every tailed operation: each reads one depth per
        # anchor off both operands, windows clear of the anchors included
        T, windows = _tailed_against_windows(seed)
        calls = []
        depths_for = intervals._depths_for

        def counting(sets, anchors):
            calls.append(len(sets))
            return depths_for(sets, anchors)

        monkeypatch.setattr(intervals, "_depths_for", counting)
        for W in windows:
            for a, b in ((T, W), (W, T)):
                for op in (a.intersect, a.subtract, a.union):
                    calls.clear()
                    op(b)
                    assert calls == [2], (op.__name__, a.to_text(),
                                          b.to_text())

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

    @pytest.mark.parametrize("seed", [*range(20), *KAKUTANI_BASES])
    def test_kakutani_preimage_matches_the_pointwise_map(self, seed):
        # the tower map: a base point in A climbs to its copy on the top
        # floor, any other point goes to the odometer image in the base
        S = _kakutani_input(seed)
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

    @pytest.mark.parametrize("seed", [*range(40), *KAKUTANI_BASES])
    def test_kakutani_preimage_is_the_intersection_form(self, seed):
        # the parity split against the composition it replaces: the
        # odometer preimage cut by A and by its complement.  Seeds from 20
        # on draw random tower sets, whose bases may have a tail at one.
        S = (random_tower_set(seed) if isinstance(seed, int) and seed >= 20
             else _kakutani_input(seed))
        if any(t.anchor == AT_ONE for t in S.base.tails):
            with pytest.raises(RepresentationOverflowError):
                KakutaniTower().preimage(S)
            return
        pre = odometer_preimage(S.base)
        want = TowerSet(pre.intersect(A_SET.complement()).union(S.top),
                        pre.intersect(A_SET))
        got = KakutaniTower().preimage(S)
        assert _fields(got.base) == _fields(want.base), S.to_text()
        assert _fields(got.top) == _fields(want.top), S.to_text()

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

    @pytest.mark.parametrize("text", ["tail(zero, 2, odd)",
                                      "0..1/8, tail(one, 3, even)"])
    def test_doubling_rejects_tails(self, text):
        # a tail pulls back to a ladder at its anchor and one at 1/2, and
        # no tail is anchored at 1/2
        with pytest.raises(UnsupportedRepresentationError,
                           match="^doubling does not act on tails$"):
            doubling_preimage(from_text(text))


def _mirror(S):
    """The image of S under x -> 1 - x, built apart from the set kernel:
    each component [lo, hi) goes to [1 - hi, 1 - lo), and each block D_n
    onto I_n (mod null), so a tail moves to the other anchor with its start
    and parity."""
    one = Scalar(1)
    pairs = [(one - iv.hi, one - iv.lo) for iv in S.intervals]
    tails = [ParityTail(AT_ONE if t.anchor == AT_ZERO else AT_ZERO,
                        t.start, t.parity) for t in S.tails]
    return make_set(pairs, tails)


def _zero_tail(start, parity="even", pairs=()):
    return make_set(pairs, [ParityTail(AT_ZERO, start, parity)])


#: operands whose result is the at-zero tail from block 4, made by taking
#: the components that are exactly the blocks start-2, start-4, ... in
#: (the union settles from block 12, the others from block 16): the work
#: of the at-zero settle
_ZERO_ABSORBING = [
    ("union", _zero_tail(10, pairs=[_block(AT_ZERO, 4), _block(AT_ZERO, 6)]),
     IntervalSet.build([_block(AT_ZERO, 8)])),
    ("subtract", make_set([(F(0), F(1, 1 << 14)), (F(1, 1 << 13), F(1, 16))]),
     _zero_tail(5, "odd")),
    ("intersect", make_set([(F(0), F(1, 1 << 14)),
                            (F(1, 1 << 13), F(1, 16))]),
     _zero_tail(2)),
]


class TestMirror:
    """The set algebra commutes with x -> 1 - x, which swaps the anchors:
    an at-zero result is the mirror image of its at-one twin."""

    OPS = {"union": IntervalSet.union, "intersect": IntervalSet.intersect,
           "subtract": IntervalSet.subtract}

    def _check(self, a, b):
        results = {name: op(a, b) for name, op in self.OPS.items()}
        results["complement"] = a.complement()
        ma, mb = _mirror(a), _mirror(b)
        twins = {name: op(ma, mb) for name, op in self.OPS.items()}
        twins["complement"] = ma.complement()
        for name, result in results.items():
            assert _mirror(result) == twins[name], (
                f"{name} of {a.to_text()} and {b.to_text()}")
            assert result.measure() == twins[name].measure()

    def test_mirror_is_an_involution(self):
        S = _with_two_tails(3)
        assert S.tails and _mirror(S) != S
        assert _mirror(_mirror(S)) == S

    @pytest.mark.parametrize("seed", range(20))
    def test_operations_commute_with_the_mirror(self, seed):
        alpha = Scalar(0, 1, GOLDEN)
        pairs = [
            (_with_tail(2 * seed + 1, AT_ONE), _with_tail(2 * seed + 3,
                                                          AT_ZERO)),
            (_with_tail(2 * seed + 1, AT_ZERO),
             random_offset_set(seed, alpha)),
            (_with_two_tails(seed), _with_tail(2 * seed + 5, AT_ZERO)),
            (_with_two_tails(seed), _with_two_tails(seed + 7)),
        ]
        for a, b in pairs:
            self._check(a, b)
            self._check(b, a)

    @pytest.mark.parametrize("name, a, b", _ZERO_ABSORBING,
                             ids=[case[0] for case in _ZERO_ABSORBING])
    def test_absorbing_settle_commutes_with_the_mirror(self, name, a, b):
        want = _zero_tail(4)
        assert self.OPS[name](a, b) == want
        assert self.OPS[name](_mirror(a), _mirror(b)) == _mirror(want)
        for x, y in ((a, b), (_mirror(a), _mirror(b))):
            self._check(x, y)
            self._check(y, x)


def _cell_sets(seed):
    """Seeded sets for the cell sweep: tails at one, at zero and at both
    anchors, golden and sqrt2 endpoints (one with a tail), and a finite
    piece in block 7 between the blocks of an even tail, with the mirror
    image of each."""
    sets = [_with_tail(2 * seed + 1, AT_ONE), _with_tail(2 * seed + 1, AT_ZERO),
            _with_two_tails(seed),
            random_offset_set(seed, Scalar(0, 1, GOLDEN)),
            random_offset_set(seed, Scalar(0, 1, SQRT2M1)).union(make_set(
                [], [ParityTail(AT_ONE, seed % 9, "odd")])),
            from_text("5/8..11/16, 4065/4096..4075/4096, tail(one, 0, even)")]
    return sets + [_mirror(S) for S in sets]


class TestCellMeasures:
    """``cell_measures(L)`` against one intersection and one measure per
    cell [i/L, (i+1)/L), on each set and on its complement."""

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 8, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_intersection_per_cell(self, seed, L):
        for S in _cell_sets(seed):
            for X in (S, S.complement()):
                want = [X.intersect(arc(i, i + 1, L)).measure()
                        for i in range(L)]
                assert X.cell_measures(L) == want, (X.to_text(), L)

    @pytest.mark.parametrize("start", [0, 1, 5, 9])
    @pytest.mark.parametrize("anchor", [AT_ONE, AT_ZERO])
    def test_tail_residual_lies_in_the_anchor_cell(self, anchor, start):
        # blocks from the depth on add 2/(3 * 2**r) to the anchor's cell
        S = make_set([], [ParityTail(anchor, start, "odd")])
        cells = S.cell_measures(8)
        assert sum(cells, Scalar(0)) == S.measure()
        cell = 7 if anchor == AT_ONE else 0
        assert cells == [S.intersect(arc(i, i + 1, 8)).measure()
                         for i in range(8)]
        if start >= 3:
            assert cells[cell] == S.measure()

    def test_empty_and_full(self):
        assert EMPTY.cell_measures(3) == [Scalar(0)] * 3
        assert FULL.cell_measures(4) == [Scalar(F(1, 4))] * 4


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

    @pytest.mark.parametrize("lo, hi, message", [
        (F(-1, 4), F(1, 2), "outside"), (F(1, 2), F(1, 2), "empty")],
        ids=["below-zero", "empty"])
    def test_build_rejects_interval(self, lo, hi, message):
        with pytest.raises(ValueError, match=message):
            IntervalSet.build([(Scalar(lo), Scalar(hi))])

    def test_arc_rejects_inverted_block(self):
        with pytest.raises(ValueError, match="no interval"):
            arc(2, 1, 4)

    @pytest.mark.parametrize("pair", [(0.1, F(1, 2)), (F(0), 0.5),
                                      (Scalar(0), "1/2")],
                             ids=["float-lo", "float-hi", "str"])
    def test_make_set_rejects_other_endpoints(self, pair):
        # 0.1 would otherwise be taken at its binary value,
        # 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            make_set([pair])
        assert make_set([(F(1, 10), 1)]).to_text() == "1/10..1"


def _rational_point(rng):
    """A seeded point of [0, 1] over a small or a large denominator: an
    ``int`` for half of the whole ones, a ``Fraction`` otherwise."""
    q = rng.choice((1, 2, 3, 4, 6, 7, 8, 12, 42, 1 << 20))
    x = F(rng.randint(0, q), q)
    return int(x) if x.denominator == 1 and rng.random() < 0.5 else x


def _rational_pairs(rng):
    """Seeded ``int``/``Fraction`` pairs, shuffled: each drawn piece, a
    duplicate, a piece touching one, one overlapping one, and pieces
    reaching 0 and 1."""
    pairs = []
    for _ in range(rng.randint(1, 5)):
        a, b = _rational_point(rng), _rational_point(rng)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    if pairs:
        lo, hi = rng.choice(pairs)
        pairs.append((lo, hi))
        if hi < 1:
            pairs.append((hi, rng.choice([1, F(hi + 1) / 2])))
        pairs.append((F(lo + hi) / 2, rng.choice([hi, F(1)])))
    pairs += [(0, F(1, rng.randint(2, 9))),
              (F(rng.randint(1, 8), 9), 1)][:rng.randint(0, 2)]
    rng.shuffle(pairs)
    return pairs


class TestMakeSet:
    """``make_set`` reads ``int`` and ``Fraction`` endpoints as integers
    over their lcm; the set and every error are those of ``build`` on the
    same values as ``Scalar``s, and any other endpoint takes that path."""

    @staticmethod
    def _reference(pairs, tails=()):
        return IntervalSet.build([(Scalar(lo), Scalar(hi))
                                  for lo, hi in pairs], tails)

    @pytest.mark.parametrize("seed", range(60))
    def test_rational_endpoints_are_read_as_integers(self, seed, monkeypatch):
        rng = random.Random(seed)
        pairs = _rational_pairs(rng)
        tails = [ParityTail(anchor, rng.randint(0, 5),
                            rng.choice(["even", "odd"]))
                 for anchor in (AT_ONE, AT_ZERO) if rng.random() < 0.6]
        want = self._reference(pairs, tails)

        def no_scalars(x):
            raise AssertionError(f"{x!r} made a Scalar")

        monkeypatch.setattr(intervals, "_coerce", no_scalars)
        S = make_set(pairs, tails)
        assert _fields(S) == _fields(want), pairs
        assert _is_normal(S)

    @pytest.mark.parametrize("pairs", [
        [(F(1, 2), F(1, 4))], [(F(1, 3), F(1, 3))], [(0, 0)], [(1, 0)],
        [(F(2, 4), F(1, 2))], [(F(-1, 4), F(1, 2))], [(F(1, 2), 2)],
        [(-1, 1)], [(F(1, 2), F(3, 2))],
        [(F(1, 3), F(1, 2)), (F(3, 4), F(1, 4))],
        [(0, F(1, 6)), (F(5, 7), F(8, 7))]],
        ids=["inverted", "empty", "empty-int", "inverted-int",
             "empty-unreduced", "below-zero", "above-one-int", "int-below",
             "above-one", "second-inverted", "second-above-one"])
    def test_bad_rational_pairs_raise_as_build(self, pairs):
        with pytest.raises(ValueError) as want:
            self._reference(pairs)
        with pytest.raises(ValueError) as got:
            make_set(pairs)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_pairs_are_read_once(self):
        # a pair may be any iterable, an iterator too, on either path
        for pairs in ([iter((0, F(1, 2))), [F(1, 4), 1]],
                      [iter((0, Scalar(F(1, 2)))), [F(1, 4), 1]]):
            assert make_set(pairs).to_text() == "0..1"

    class Third(Fraction):
        """A ``Fraction`` subclass, read as a ``Scalar``."""

    @pytest.mark.parametrize("pair, text", [
        ((False, True), "0..1"), ((0, True), "0..1"),
        ((Third(1, 3), F(1, 2)), "1/3..1/2"),
        ((F(1, 3), Scalar(F(1, 2))), "1/3..1/2")],
        ids=["bool", "bool-and-int", "fraction-subclass", "scalar"])
    def test_other_endpoints_take_the_scalar_path(self, pair, text,
                                                  monkeypatch):
        made = []
        coerce = intervals._coerce

        def counting(x):
            made.append(x)
            return coerce(x)

        monkeypatch.setattr(intervals, "_coerce", counting)
        assert make_set([pair]).to_text() == text
        assert made == list(pair)

    @pytest.mark.parametrize("pair, message", [
        ((0.1, F(1, 2)), "scalar parts 0.1, 0 must be int or Fraction"),
        ((F(0), 0.5), "scalar parts 0.5, 0 must be int or Fraction"),
        ((0, "1/2"), "scalar parts '1/2', 0 must be int or Fraction")],
        ids=["float-lo", "float-hi", "str"])
    def test_other_endpoints_raise_as_scalar(self, pair, message):
        with pytest.raises(TypeError) as info:
            make_set([pair])
        assert str(info.value) == message


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


def walk_matches_translations(B, W, t, limit):
    """``ShiftSteps(B, W, t).runs(limit)`` expanded step by step, against B
    moved by t over and over; the (meets, count) of each step.

    The runs tile steps 1 .. limit, a step that meets W is a run of one,
    and two neighbouring runs that miss W differ in count."""
    steps, moved, seen = ShiftSteps(B, W, t), B, []
    before = None
    for hit, count, start, length in steps.runs(limit):
        assert start == len(seen) + 1 and length >= 1
        assert length == 1 or not hit
        assert hit or before != (False, count)
        for k in range(start, start + length):
            moved = moved.translate_mod1(t)
            assert hit == (not moved.intersect(W).is_empty())
            assert count == moved.component_count()
            assert steps.moved(k).equals(moved)
            seen.append((hit, count))
        before = (hit, count)
    assert len(seen) == limit
    return seen


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
        for B, W in ((s, FULL), (FULL, s)):
            with pytest.raises(UnsupportedRepresentationError):
                ShiftSteps(B, W, Scalar(F(1, 3)))

    @given(dyadic_sets(), dyadic_sets(),
           st.fractions(min_value=0, max_value=1, max_denominator=32),
           st.sampled_from([0, 1, -1]), st.booleans())
    @settings(max_examples=80)
    def test_shift_steps_match_translations(self, B, W, p, q, alpha_ends):
        # touching arcs, shifts that return to 0, pieces at 0 and 1
        alpha = Scalar(0, 1, GOLDEN)
        if alpha_ends:
            B = B.translate_mod1(alpha)
        t = (Scalar(p) + alpha * q).mod1()
        walk_matches_translations(B, W, t, 40)

    def test_shift_steps_that_all_miss_are_one_run(self):
        # B + j/7 = [j/7, j/7 + 1/14) only touches W = [1/14, 1/7)
        B, W = make_set([(F(0), F(1, 14))]), make_set([(F(1, 14), F(1, 7))])
        steps = ShiftSteps(B, W, Scalar(F(1, 7)))
        for limit in (1, 7, 1000):
            assert list(steps.runs(limit)) == [(False, 1, 1, limit)]
        assert walk_matches_translations(B, W, Scalar(F(1, 7)), 15) == [
            (False, 1)] * 15

    @pytest.mark.parametrize("t", [
        Scalar(0, 1, GOLDEN), Scalar(0, 1, SQRT2M1),
        (-Scalar(0, 1, GOLDEN)).mod1(),
        (Scalar(F(1, 4)) + Scalar(0, 3, SQRT2M1)).mod1(),
        Scalar(F(3, 7)),
        # shifts outside [0, 1), which ``ShiftSteps`` reduces once
        Scalar(2, 1, GOLDEN), Scalar(-1, 1, GOLDEN), -Scalar(0, 1, GOLDEN),
        Scalar(F(10, 7))], ids=str)
    def test_shift_after_k_steps(self, t):
        # k*t just below and just above an integer: at the denominators
        # of alpha's convergents, [0; a, a, ...], and at multiples of q
        # for p/q, each with its neighbours
        near = [1, 1]
        a = t.tag._a if t.tag else 1
        while near[-1] < 10 ** 6:
            near.append(a * near[-1] + near[-2])
        near += [7 * 142857, 7 * 142858]
        steps = ShiftSteps(make_set([(F(0), F(1, 3))]),
                           make_set([(F(1, 2), F(5, 8))]), t)
        ks = {k + e for k in near for e in (-1, 0, 1)} | {10 ** 6}
        for k in sorted(ks - {0} | set(range(1, 30))):
            n, m = steps.shift(k)
            assert _make(n, m, steps.d, steps.tag) == (t * k).mod1(), k

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["golden", "sqrt2", "rational"])
    @pytest.mark.parametrize("scale", [0, 3, 8])
    def test_walk_is_exact_at_any_key_scale(self, monkeypatch, scale, kind,
                                            seed):
        # keys floor(2**scale * x) of points over a small denominator leave
        # many edges in the estimate window, so ``_sign`` places them; the
        # wrap and ``shift`` read the key scale only through ``scalars``
        def coarse_key(u, v, a):
            return _floor_of(u << scale, v << scale, a, 1)

        monkeypatch.setattr(intervals, "_floor_key", coarse_key)
        rng = random.Random(seed)
        if kind == "rational":
            B = random_interval_set(rng, depth=5, allow_tails=False)
            t = Scalar(F(rng.randrange(1, 13), 13))
        else:
            alpha = Scalar(0, 1, GOLDEN if kind == "golden" else SQRT2M1)
            B = random_offset_set(rng, alpha, depth=5)
            t = (alpha * Scalar(rng.randint(1, 9))
                 + Scalar(F(rng.randrange(8), 8))).mod1()
        W = random_interval_set(rng, depth=5, allow_tails=False)
        walk_matches_translations(B, W, t, 60)
        steps = ShiftSteps(B, W, t)
        for k in range(1, 60):
            n, m = steps.shift(k)
            assert _make(n, m, steps.d, steps.tag) == (t * k).mod1(), k

    @given(dyadic_sets(), st.fractions(min_value=0, max_value=1,
                                       max_denominator=32))
    @settings(max_examples=80)
    def test_translation_preserves_measure(self, s, t):
        assert s.translate_mod1(Scalar(t)).measure() == s.measure()


def _rational_text(rng, x, linear=False):
    """A text of the rational x >= 0 that ``parse_scalar`` reads, in a
    seeded form: canonical, over a multiple of its denominator, decimal,
    with a plus sign or, outside a linear form in alpha, an exponent."""
    n, d = x.numerator, x.denominator
    forms = [str(x), f"{2 * n}/{2 * d}", f"{3 * n}/{3 * d}"]
    j = next((j for j in range(1, 7) if 10 ** j % d == 0), None)
    if j is not None:
        v = n * 10 ** j // d
        forms.append(f"{v // 10 ** j}.{v % 10 ** j:0{j}d}")
        if not linear:
            forms.append(f"{v}e-{j}")
    return rng.choice(forms + [f"+{x}"])


def _endpoint_text(rng, x):
    """A seeded text of the Scalar x = p + q*alpha: its rational forms and
    the linear forms in alpha, with or without spaces, a coefficient of 1
    or a rational part of 0."""
    p, q = x.p, x.q
    if not q:
        return _rational_text(rng, p)
    coef = _rational_text(rng, abs(q), linear=True).lstrip("+")
    if abs(q) == 1 and rng.random() < 0.5:
        term = "alpha"
    else:
        term = rng.choice([f"{coef}*alpha", f"{coef} * alpha"])
    sign = "-" if q < 0 else "+"
    if not p and rng.random() < 0.5:
        return term if q > 0 else f"-{term}"
    p = _rational_text(rng, p, linear=True)
    return rng.choice([f"{p}{sign}{term}", f"{p} {sign} {term}"])


def _text_pieces(rng, tag):
    """Seeded (lo, hi) Scalar pieces in [0, 1], unsorted, some touching and
    some overlapping, with golden or sqrt2 endpoints when tagged."""
    pool = {Scalar(F(k, 8)) for k in range(9)}
    pool |= {Scalar(F(k, 3)) for k in range(4)} | {Scalar(F(1, 10))}
    if tag is not None:
        alpha = Scalar(0, 1, tag)
        pool |= {alpha, 1 - alpha, alpha / Scalar(2),
                 (1 + alpha) / Scalar(2), Scalar(F(3, 4)) - alpha / Scalar(2)}
    pool = sorted(pool)
    pieces = []
    for _ in range(rng.randint(1, 5)):
        lo, hi = sorted(rng.sample(pool, 2))
        pieces.append((lo, hi))
        after = [x for x in pool if x > hi]
        if after and rng.random() < 0.3:
            pieces.append((hi, rng.choice(after)))  # touching
        if rng.random() < 0.3:
            pieces.append((lo, rng.choice([x for x in pool if x > lo])))
    rng.shuffle(pieces)
    return pieces


def _text_tails(rng):
    """Seeded tails at either anchor or both, sometimes two at one anchor,
    as text and as ``ParityTail``s."""
    texts = []
    for anchor in rng.sample([AT_ONE, AT_ZERO], rng.randint(0, 2)):
        for parity in rng.sample(["even", "odd"], rng.randint(1, 2)):
            texts.append(f"tail({anchor}, {rng.randint(0, 6)}, {parity})")
    return texts


#: two tails at one anchor, and tails at both anchors: overlapping ones
#: (D_0 = [1/2, 1) holds every I_n from n = 1 on), opposite parities at one
#: anchor, blocks that touch or lie in a piece, and pieces reaching 0 or 1
TAILED_TEXTS = ["tail(one, 0, even), tail(one, 1, odd)",
                "tail(one, 1, odd), 0..1/4, tail(one, 0, even)",
                "tail(zero, 3, even), tail(zero, 0, odd), 3/4..1",
                "1/2..3/4, 1/4..1/2, 0..1/4, tail(one, 2, odd), "
                "tail(zero, 2, odd)",
                "0..1/2, 1/4..3/4, tail(one, 0, even), tail(zero, 5, odd)",
                "tail(zero, 0, even), tail(one, 0, even), tail(one, 3, odd)",
                "tail(zero, 0, odd), tail(one, 2, even), tail(zero, 2, even)",
                "tail(one, 2, even), 0..1/8, tail(one, 5, odd), "
                "tail(zero, 1, odd)",
                "tail(zero, 4, odd), tail(one, 6, odd), tail(zero, 1, even)",
                "1/2..3/4, tail(one, 2, even), tail(zero, 2, even), 1/4..3/8",
                "1/8..1/2, tail(zero, 1, even), 5/8..15/16, "
                "tail(one, 4, odd), tail(one, 1, odd)",
                "0..1/16, 15/16..1, tail(zero, 1, odd), tail(one, 0, even), "
                "tail(one, 1, odd)",
                "0..1/3, 2/3..1, tail(zero, 0, odd), tail(one, 2, odd)",
                "tail(one, 3, odd), 0..1, tail(zero, 2, even)",
                "7/8..1, tail(zero, 6, even), tail(one, 0, odd), "
                "tail(zero, 3, odd)"]


def _canonical_texts():
    """Texts that ``to_text`` writes: seeded draws of the random
    batteries, with and without tails, and the bases and tops of seeded
    tower sets."""
    texts = ["empty", "0..1"]
    for seed in range(40):
        rng = random.Random(seed)
        texts.append(random_interval_set(rng).to_text())
        T = random_tower_set(rng)
        texts += [T.base.to_text(), T.top.to_text()]
    return texts


CANONICAL_TEXTS = _canonical_texts()

#: the comma split of set text as one regex, a reference for
#: ``intervals._split_components``: a comma cuts unless the next parenthesis
#: after it is ")".  Its lookahead scans on at every comma, so it is
#: quadratic in the number of components
_COMMA_RE = re.compile(r",(?![^()]*\))")

#: set-text tokens for the split: pieces, tails, commas with and without a
#: space, and stray parentheses
_SPLIT_TOKENS = ["0..1/4", "1/2..alpha", " 3/8 .. 1/2", "tail(one, 2, even)",
                 "tail(zero,0,odd)", ",", ", ", "(", ")", " "]

#: texts of valid sets that ``to_text`` does not write, each refused by
#: one condition of the canonical reader
RESPELLED_TEXTS = {
    "split-at-inner-point": "0..1/4, 1/4..1/2",
    "overlapping": "1/8..1/2, 3/8..3/4",
    "reversed-order": "1/2..3/4, 0..1/4",
    "unreduced": "2/8..1/2",
    "unreduced-zero": "0/2..1/2",
    "over-one": "1/4..1/1",
    "plus-sign": "+1/4..1/2",
    "leading-zero": "01/4..1/2",
    "space-before-dots": "1/4 ..1/2",
    "space-after-dots": "1/4.. 1/2",
    "no-space-after-comma": "0..1/4,1/2..1",
    "two-spaces-after-comma": "0..1/4,  1/2..1",
    "space-before-comma": "0..1/4 , 1/2..1",
    "unicode-digits": "\u0660..\u0661/\u0662",
    "unicode-inner-digit": "1\u0661/32..1/2",
    "unicode-denominator": "1/3\u0662..1/2",
}


class TestParser:
    """``from_text`` reads endpoints as integers and normalizes them in the
    core of ``IntervalSet.build``, tails and all: the same set, tag and
    errors as reading each endpoint with ``parse_scalar``, building the
    tail-free pieces from the Scalars and uniting each tail in.  A
    tail-free text that ``to_text`` writes is its own normal form and its
    own text; every other spelling renders the normal form."""

    @staticmethod
    def _reference(text, tag):
        pairs, tails = [], []
        for part in _COMMA_RE.split(text):
            m = intervals._TAIL_RE.match(part.strip())
            if m:
                tails.append(ParityTail(m[1], int(m[2]), m[3]))
            else:
                lo, hi = part.split("..")
                pairs.append((parse_scalar(lo, tag), parse_scalar(hi, tag)))
        S = IntervalSet.build(pairs)
        for t in tails:
            # a lone tail is in normal form; the union is the generic
            # tailed kernel, not the assembly of set text
            S = S.union(intervals._new(1, (), None, frozenset((t,))))
        return S

    @pytest.mark.parametrize("seed", [*range(60), *TAILED_TEXTS])
    def test_from_text_is_parse_scalar_and_build(self, seed):
        if seed in TAILED_TEXTS:
            text, tag = seed, None
        else:
            rng = random.Random(seed)
            tag = (None, GOLDEN, SQRT2M1)[seed % 3]
            parts = [_endpoint_text(rng, lo) + rng.choice(["..", " .. "])
                     + _endpoint_text(rng, hi)
                     for lo, hi in _text_pieces(rng, tag)]
            parts += _text_tails(rng)
            rng.shuffle(parts)
            text = rng.choice([", ", ",", " , "]).join(parts)
        S, want = from_text(text, tag), self._reference(text, tag)
        assert _fields(S) == _fields(want), text
        assert S.tag is want.tag, text
        assert _is_normal(S), text

    @pytest.mark.parametrize("text, tag, message", [
        ("-1/4..1/2", None, "interval -1/4..1/2 outside [0,1)"),
        ("1/2..3/2", None, "interval 1/2..3/2 outside [0,1)"),
        ("0..2", None, "interval 0..2 outside [0,1)"),
        ("3/4..1/4", None, "empty or inverted interval 3/4..1/4"),
        ("0..1/2, 1/2..1/4", None, "empty or inverted interval 1/2..1/4"),
        ("1/2..1/2", None, "empty or inverted interval 1/2..1/2"),
        ("2/4..0.5", None, "empty or inverted interval 1/2..1/2"),
        ("alpha..1/2", GOLDEN, "empty or inverted interval 0+1*alpha..1/2"),
        ("-alpha..1/2", GOLDEN, "interval 0-1*alpha..1/2 outside [0,1)"),
        ("0..2*alpha", GOLDEN, "interval 0..0+2*alpha outside [0,1)"),
        ("1-alpha..1/2", SQRT2M1,
         "empty or inverted interval 1-1*alpha..1/2"),
        ("0..1/0", None, "zero denominator in '1/0'"),
        ("0/0..1/2", None, "zero denominator in '0/0'"),
        ("0..alpha", None, "scalar 'alpha' uses alpha but no tag was given"),
        ("0..1/2+*alpha", GOLDEN, "malformed scalar '1/2+*alpha'"),
        ("0..alpha+1", GOLDEN, "malformed scalar 'alpha+1'"),
        ("0..1/2*alpha*alpha", SQRT2M1,
         "malformed scalar '1/2*alpha*alpha'"),
        ("0..abc", None, "Invalid literal for Fraction: 'abc'"),
        ("0-1/2", None, "malformed set component '0-1/2'"),
        ("0..1/2,", None, "malformed set component ''"),
        ("0..1/2, tail(one, x, even)", None,
         "malformed set component 'tail(one, x, even)'"),
        ("1/2..1, tail(middle, 0, even)", None,
         "malformed set component 'tail(middle, 0, even)'"),
    ], ids=["negative", "above-one", "integer-above-one", "inverted-first",
            "inverted", "empty", "empty-unreduced",
            "inverted-alpha", "negative-alpha", "above-one-alpha",
            "inverted-sqrt2", "zero-denominator", "zero-over-zero",
            "alpha-without-tag", "malformed-linear", "alpha-first",
            "alpha-squared", "not-a-number", "no-dots", "empty-component",
            "bad-tail-start", "bad-tail-anchor"])
    def test_bad_text_raises_as_before(self, text, tag, message):
        with pytest.raises(ValueError) as info:
            from_text(text, tag)
        assert type(info.value) is ValueError
        assert str(info.value) == message

    @pytest.mark.parametrize("text", CANONICAL_TEXTS)
    def test_canonical_text_is_its_own_normal_form(self, text):
        S = from_text(text)
        want = EMPTY if text == "empty" else self._reference(text, None)
        assert S.to_text() == text
        assert _fields(S) == _fields(want)
        assert S == want and hash(S) == hash(want)
        # a tail-free set keeps the text it was read from
        kept = bool(S.pts) and not S.tails
        assert S._source == (text if kept else None)

    @pytest.mark.parametrize("text", list(RESPELLED_TEXTS.values()),
                             ids=list(RESPELLED_TEXTS))
    def test_respelled_text_renders_its_normal_form(self, text):
        S, want = from_text(text), self._reference(text, None)
        assert _fields(S) == _fields(want)
        assert S._source is None
        assert S.to_text() == want.to_text() != text

    @pytest.mark.parametrize("seed", range(8))
    def test_split_is_the_comma_regex(self, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            text = "".join(rng.choices(_SPLIT_TOKENS, k=rng.randint(0, 14)))
            assert intervals._split_components(text) == _COMMA_RE.split(
                text), text

    def test_round_trip_of_4000_components(self):
        # 4,000 pieces over a prime and a tail at each anchor, clear of them
        p = 8009
        S = intervals.from_numerators(
            [(2 * i + 1, 2 * i + 2) for i in range(4000)], p,
            [ParityTail(AT_ONE, 14, "even"), ParityTail(AT_ZERO, 20, "odd")])
        text = S.to_text()
        assert len(intervals._split_components(text)) == 4002
        R = from_text(text)
        assert _fields(R) == _fields(S)
        assert R.to_text() == text

    def test_swallowed_end_sets_no_depth(self, monkeypatch):
        # the end near 1 lies inside 0..1, so it is not in the normal form
        # and sets no depth: the blocks listed stop at the depth 2 of 0..1
        # and the block after it, where a depth read off that end would
        # list over a thousand
        listed = []
        block_points = intervals._block_points

        def counting(anchor, n, d):
            listed.append(n)
            return block_points(anchor, n, d)

        monkeypatch.setattr(intervals, "_block_points", counting)
        near_one = f"{10**400 - 1}/{10**400}"
        S = from_text(f"0..1, 1/2..{near_one}, tail(one, 0, even)")
        assert _fields(S) == _fields(FULL)
        assert listed and max(listed) <= 3


class TestSerialization:
    def test_round_trip_with_tails(self):
        text = "0..1/4, 3/8..1/2, tail(one, 2, even)"
        assert from_text(text).to_text() == text

    def test_round_trip_irrational_endpoints(self):
        s = make_set([(F(0), F(1, 4))]).translate_mod1(Scalar(0, 1, GOLDEN))
        assert from_text(s.to_text(), GOLDEN).equals(s)

    def test_empty_round_trip(self):
        assert from_text("empty").is_empty()

    @pytest.mark.parametrize("copy", [
        lambda x: pickle.loads(pickle.dumps(x)), deepcopy],
        ids=["pickle", "deepcopy"])
    def test_copies_keep_the_builtin_tag(self, copy):
        s = from_text("0..-1/2+alpha, 3/4..7/8", GOLDEN)
        c = copy(s)
        assert c == s and c.tag is GOLDEN
        assert c.union(s).equals(s) and c.measure() == s.measure()

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
