"""Frozen reference fixtures for the splinter engine and its diagnostics.

The golden-rotation convergence depth was pinned by an independent
interval-arithmetic sweep before the exact engine existed, and the exact
engine reproduces it; treat these constants as regression anchors.
"""

from __future__ import annotations

from fractions import Fraction

from .dynamics import (A_SET, Doubling, KakutaniTower, Odometer, Rotation,
                       TowerSet)
from .intervals import EMPTY, make_set
from .scalars import GOLDEN, Scalar

# Golden rotation, J1 = [0, 1/4), J2 = [1/2, 3/4), eps = 10^-3.
# Converges exactly at this depth with mu(B) = 89/4 - 36*alpha and
# mu(A1) = 3/4 - alpha.
GOLDEN_N_STAR = 224
GOLDEN_EPSILON = Fraction(1, 1000)
# Progress between steps is Fibonacci-spaced (longest flat run: 88 steps).
# An ergodic rotation has no default stall window, so the run needs none;
# the window stays because the benchmark's config texts, and so their
# digests, carry it.
GOLDEN_STALL_WINDOW = 256
GOLDEN_PROGRESS_STEPS = [1, 4, 7, 12, 25, 80, 135, 224]
GOLDEN_FINAL_B_MEASURE = (Fraction(89, 4), Fraction(-36))  # p + q*alpha

# Doubling map with J1 = J2 = [0,1/2): closed form mu(B_n) = 2^-(n+1)
# with B_n the single interval [1-2^-n, 1-2^-(n+1)); converges (strictly
# below eps) at this depth for eps = 2^-20.
DOUBLING_N_STAR = 20

# Rational rotation by 1/3 with an invariant obstruction: J1 = [0, 1/6)
# cycles through {[2/3, 5/6), [1/3, 1/2), [0, 1/6)} and never meets
# J2 = [1/2, 2/3), so mu(B_n) = 1/6 forever and every A_n is empty.
# Window 100 inside a 150-step budget records a stall with >= 100
# constant steps; the rotation's own window, 3, would stop at depth 4.
RATIONAL_THIRD_STALL_WINDOW = 100
RATIONAL_THIRD_N_MAX = 150
RATIONAL_THIRD_B_MEASURE = Fraction(1, 6)

# Invariant set for the rotation by 1/3 (union of three arcs of length 1/6).
RATIONAL_THIRD_INVARIANT = make_set([
    (Fraction(0), Fraction(1, 6)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(2, 3), Fraction(5, 6)),
])

J_LEFT = make_set([(Fraction(0), Fraction(1, 2))])
J_RIGHT = make_set([(Fraction(1, 2), Fraction(1))])
J_QUARTER_LOW = make_set([(Fraction(0), Fraction(1, 4))])
J_QUARTER_MID = make_set([(Fraction(1, 2), Fraction(3, 4))])


def golden_rotation_splinter_inputs():
    T = Rotation(Scalar(0, 1, GOLDEN))
    return dict(T=T, J1=J_QUARTER_LOW, J2=J_QUARTER_MID,
                epsilon=Scalar(GOLDEN_EPSILON), n_max=300,
                stall_window=GOLDEN_STALL_WINDOW)


def doubling_splinter_inputs():
    return dict(T=Doubling(), J1=J_LEFT, J2=J_LEFT,
                epsilon=Scalar(Fraction(1, 1 << 20)), n_max=64)


def odometer_splinter_inputs():
    # psi^-1([0,1/2)) = [1/2,1), so B_1 is already empty.
    return dict(T=Odometer(), J1=J_LEFT, J2=J_RIGHT,
                epsilon=Scalar(Fraction(1, 1000)), n_max=16)


def odometer_deep_splinter_inputs():
    # narrow windows force a long orbit before the cover completes:
    # converges at depth 125 with B exactly empty.  The odometer is ergodic
    # and needs no stall window; 150 stays because the benchmark's config
    # texts, and so their digests, carry it.
    J1 = make_set([(Fraction(0), Fraction(1, 128))])
    J2 = make_set([(Fraction(3, 4), Fraction(97, 128))])
    return dict(T=Odometer(), J1=J1, J2=J2,
                epsilon=Scalar(Fraction(1, 10 ** 9)), n_max=200,
                stall_window=150)


def rational_third_stall_inputs():
    T = Rotation(Scalar(Fraction(1, 3)))
    J1 = make_set([(Fraction(0), Fraction(1, 6))])
    J2 = make_set([(Fraction(1, 2), Fraction(2, 3))])
    return dict(T=T, J1=J1, J2=J2,
                epsilon=Scalar(Fraction(1, 10 ** 9)),
                n_max=RATIONAL_THIRD_N_MAX,
                stall_window=RATIONAL_THIRD_STALL_WINDOW)


def tower_splinter_inputs():
    # Two-storey windows that stay inside the representable class; this
    # pair converges in three steps.  Generic windows leave the class.
    T = KakutaniTower()
    J1 = TowerSet(make_set([(Fraction(1, 4), Fraction(1, 2))]), EMPTY)
    J2 = TowerSet(make_set([(Fraction(0), Fraction(1, 4))]), EMPTY)
    return dict(T=T, J1=J1, J2=J2,
                epsilon=Scalar(Fraction(1, 1000)), n_max=8)


def tower_column_splinter_inputs():
    # Sends the pure-top window onto the pure-base column in one step.
    T = KakutaniTower()
    return dict(T=T, J1=TowerSet(EMPTY, A_SET), J2=TowerSet(A_SET, EMPTY),
                epsilon=Scalar(Fraction(1, 1000)), n_max=4)


SYSTEM_DESCRIPTORS = ["rotation:golden", "doubling", "odometer", "kakutani"]
