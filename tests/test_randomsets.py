"""Seeded random set generation: reproducibility and class membership."""

import hashlib
import random
from fractions import Fraction

import pytest

from ergolab.dynamics import A_SET
from ergolab.errors import InvalidInputError
from ergolab.intervals import (AT_ONE, AT_ZERO, EVEN, ODD, IntervalSet,
                               ParityTail)
from ergolab.randomsets import (random_interval_set, random_offset_set,
                                random_tower_set)
from ergolab.scalars import GOLDEN, Scalar


def test_same_seed_same_set():
    for seed in range(20):
        assert random_interval_set(seed).equals(random_interval_set(seed))


def test_different_seeds_vary():
    texts = {random_interval_set(seed).to_text() for seed in range(50)}
    assert len(texts) > 30


def test_nonempty_by_default():
    assert all(not random_interval_set(seed).is_empty()
               for seed in range(50))


def test_offset_sets_preserve_measure():
    # the offset draws from the same stream after generating the base set,
    # so the measures must agree exactly
    alpha = Scalar(0, 1, GOLDEN)
    for seed in range(20):
        plain = random_interval_set(random.Random(seed), allow_tails=False)
        moved = random_offset_set(seed, alpha)
        assert moved.measure() == plain.measure()


def test_tower_tops_stay_in_column():
    for seed in range(30):
        s = random_tower_set(seed)
        assert s.top.is_subset_of(A_SET)


def _reference_draw(rng, max_components, depth, allow_tails, allow_empty):
    """``random_interval_set`` drawn the same way, built from ``Fraction``
    endpoints through ``IntervalSet.build``."""
    den = 1 << depth
    pairs = []
    for _ in range(rng.randint(0 if allow_empty else 1, max_components)):
        a = rng.randrange(den)
        b = rng.randrange(den)
        if a == b:
            b = (a + 1) % den
        lo, hi = sorted((a, b))
        pairs.append((Scalar(Fraction(lo, den)), Scalar(Fraction(hi, den))))
    tails = []
    if allow_tails and rng.random() < 0.3:
        anchor = rng.choice([AT_ONE, AT_ZERO])
        parity = rng.choice([EVEN, ODD])
        tails.append(ParityTail(anchor, rng.randint(0, 6), parity))
    return IntervalSet.build(pairs, tails)


@pytest.mark.parametrize("chunk", range(4))
def test_draws_match_the_fraction_reference(chunk):
    for case in range(chunk * 300, chunk * 300 + 300):
        pick = random.Random(case)
        allow_empty = pick.random() < 0.3
        args = (pick.randint(0 if allow_empty else 1, 8), pick.randint(1, 24),
                pick.random() < 0.5, allow_empty)
        rng, ref = random.Random(case), random.Random(case)
        S, want = random_interval_set(rng, *args), _reference_draw(ref, *args)
        assert (S.d, S.pts, S.tails) == (want.d, want.pts, want.tails), args
        assert allow_empty or not S.is_empty()
        assert rng.random() == ref.random(), args


@pytest.mark.parametrize("kwargs, message", [
    ({"depth": 0}, "depth must be an int >= 1, not 0"),
    ({"depth": -1}, "depth must be an int >= 1, not -1"),
    ({"max_components": 0}, "max_components must be an int >= 1, not 0"),
    ({"max_components": -1, "allow_empty": True},
     "max_components must be an int >= 0, not -1")],
    ids=["depth-zero", "depth-negative", "no-components",
         "negative-components"])
def test_bad_arguments_raise_before_a_draw(kwargs, message):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(InvalidInputError) as info:
        random_interval_set(rng, **kwargs)
    assert str(info.value) == message
    assert rng.getstate() == state


def _stream_texts():
    """The texts of seeded draws of each generator, each seed's stream
    followed by its next value."""
    alpha = Scalar(0, 1, GOLDEN)
    for seed in range(70):
        rng = random.Random(seed)
        yield random_interval_set(rng, 1 + seed % 6, 1 + seed % 20,
                                  seed % 2 == 0, seed % 3 == 0).to_text()
        yield random_tower_set(rng, 2 + seed % 19).to_text()
        yield random_offset_set(rng, alpha, 1 + seed % 12).to_text()
        yield repr(rng.random())
    yield random_interval_set(70).to_text()


def test_random_stream_is_pinned():
    # every battery, benchmark pool and recorded digest rests on these
    # draws, so a change to what they draw or in which order shows here,
    # before any digest is recomputed
    digest = hashlib.sha256("\n".join(_stream_texts()).encode()).hexdigest()
    assert digest == ("95e4bdba0c740d786d3cbead7c0ea89d"
                      "c9a7eb1376c90f3906707850a507f67b")
