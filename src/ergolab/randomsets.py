"""Seeded generation of random representable sets for stress batteries.

All randomness flows through a caller-supplied ``random.Random`` instance
(or a seed), so every battery is reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Union

from .dynamics import A_SET, TowerSet
from .intervals import (AT_ONE, AT_ZERO, EVEN, ODD, EMPTY, IntervalSet,
                        ParityTail, make_set)
from .scalars import Scalar

DEFAULT_DEPTH = 20


def _rng(seed_or_rng: Union[int, random.Random]) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_interval_set(seed_or_rng: Union[int, random.Random],
                        max_components: int = 6,
                        depth: int = DEFAULT_DEPTH,
                        allow_tails: bool = True,
                        allow_empty: bool = False) -> IntervalSet:
    """Random finite union of dyadic-endpoint intervals, plus optional tails.

    Endpoints are dyadic rationals k / 2^depth; tails are drawn with small
    start depth so their mass stays visible at the working precision.
    """
    rng = _rng(seed_or_rng)
    den = 1 << depth
    n = rng.randint(0 if allow_empty else 1, max_components)
    pairs = []
    for _ in range(n):
        a = rng.randrange(den)
        b = rng.randrange(den)
        if a == b:
            b = (a + 1) % den
        lo, hi = (a, b) if a < b else (b, a)
        pairs.append((Fraction(lo, den), Fraction(hi, den)))
    tails = []
    if allow_tails and rng.random() < 0.3:
        anchor = rng.choice([AT_ONE, AT_ZERO])
        parity = rng.choice([EVEN, ODD])
        start = rng.randint(0, 6)
        tails.append(ParityTail(anchor, start, parity))
    s = make_set(pairs, tails)
    if s.is_empty() and not allow_empty:
        return make_set([(Fraction(0), Fraction(1, 2))])
    return s


def random_offset_set(seed_or_rng: Union[int, random.Random],
                      angle: Scalar,
                      depth: int = DEFAULT_DEPTH) -> IntervalSet:
    """Random tail-free set nudged by a multiple of a rotation angle.

    Produces sets with irrational endpoints (when the angle is irrational)
    while staying inside the representable class.
    """
    rng = _rng(seed_or_rng)
    s = random_interval_set(rng, depth=depth, allow_tails=False)
    k = rng.randint(1, 5)
    return s.translate_mod1(angle * Scalar(k))


def random_tower_set(seed_or_rng: Union[int, random.Random],
                     depth: int = DEFAULT_DEPTH) -> TowerSet:
    """Random two-storey set: arbitrary base, top constrained to the column."""
    rng = _rng(seed_or_rng)
    base = random_interval_set(rng, depth=depth, allow_empty=True)
    if rng.random() < 0.5:
        top = random_interval_set(rng, depth=depth,
                                  allow_tails=False, allow_empty=True)
        top = top.intersect(A_SET)
    else:
        top = EMPTY
    return TowerSet(base, top)
