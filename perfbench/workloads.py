"""Seeded task pools for the three benchmark workloads.

A task is one experiment config text plus a check of its exact answer.  The
program only ever sees the config text; the seed stays on this side.

Each workload is a fixed *design*: a list of cells whose properties set the
cost of a task (window length and offset, kα shift, irrational tag; n_max and
component count; task kind).  The seed draws the inputs inside every cell
(window placement, endpoints, random sets), so two seeds give different
configs and different exact answers but the same mix of work.  Drawing the
cost-setting properties from the seed as well would make throughput a
property of the seed rather than of the program.

Generation uses ``random.Random(seed)`` and the public ``ergolab`` API only;
``lab`` is a namespace holding the imported ``ergolab`` submodules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("rotation_splinter", "doubling_mixing", "tails_towers")

# odometer_deep_splinter_inputs() converges at this depth with B empty
# (stated in ergolab.fixtures, not exported as a constant)
ODOMETER_DEEP_DEPTH = 125


@dataclass
class Task:
    name: str
    text: str
    # check(code, summary, records) -> None when the answer is right, else why
    check: Callable[[int, dict, list], Optional[str]]


def build_pool(lab, workload: str, seed: int) -> list[Task]:
    """The workload's tasks in design order; the first is the warm-up."""
    rng = random.Random(f"{workload}:{seed}")
    return _POOLS[workload](lab, rng)


# ---------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------

def _expect(status: str, depth: Optional[int] = None,
            final_b: Optional[str] = None, min_depth: int = 0):
    def check(code, summary, records):
        got = (summary.get("status"), summary.get("depth"),
               summary.get("final_measure_B"))
        if got[0] != status:
            return f"status {got[0]!r}, pinned {status!r}"
        if depth is not None and got[1] != depth:
            return f"depth {got[1]}, pinned {depth}"
        if got[1] is not None and got[1] < min_depth:
            return f"depth {got[1]} below {min_depth}"
        if final_b is not None and got[2] != final_b:
            return f"final mu(B) {got[2]}, pinned {final_b}"
        return None
    return check


def _check_pass(code, summary, records):
    if code != 0 or summary.get("status") != "pass":
        return f"exit {code}, status {summary.get('status')!r}"
    return None


def _check_rotation(code, summary, records):
    # random windows either converge or spend their step budget (exit 2)
    if (code, summary.get("status")) not in ((0, "converged"),
                                             (2, "budget-exhausted")):
        return f"exit {code}, status {summary.get('status')!r}"
    if summary.get("depth") != len(records):
        return "one record per step expected"
    return None


def _check_cesaro(code, summary, records):
    """With m = n_max the Cesaro pass re-walks the trace's preimages, so
    average = mean(trace) + mu(C) mu(D) exactly."""
    bad = _check_pass(code, summary, records)
    if bad:
        return bad
    m = summary["m"]
    if m != len(records):
        return f"m = {m} but {len(records)} trace rows"
    product = Fraction(summary["product"])
    mean = sum(Fraction(r["trace"]) for r in records) / m
    if Fraction(summary["cesaro_average"]) != mean + product:
        return "Cesaro average disagrees with the mixing trace"
    return None


# ---------------------------------------------------------------------
# config text
# ---------------------------------------------------------------------

def _config(command: str, system: str, params: dict, sets: dict) -> str:
    lines = [f"command = {command}", f"system = {system}"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    lines += [f"set.{k} = {v.to_text()}" for k, v in sets.items()]
    return "\n".join(lines) + "\n"


def _fixture_config(system: str, inputs: dict) -> str:
    params = {"epsilon": inputs["epsilon"].to_text(),
              "n_max": inputs["n_max"]}
    if inputs.get("stall_window") is not None:
        params["stall_window"] = inputs["stall_window"]
    return _config("splinter", system, params,
                   {"J1": inputs["J1"], "J2": inputs["J2"]})


# ---------------------------------------------------------------------
# rotation_splinter
# ---------------------------------------------------------------------

ROTATION_LENGTHS = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
ROTATION_OFFSETS = 16         # J2 - J1 offsets j/16, j = 0..15
ROTATION_N_MAX = 400


def _rotation(lab, rng) -> list[Task]:
    fx, sc, iv = lab.fixtures, lab.scalars, lab.intervals
    golden_final = sc.Scalar(*fx.GOLDEN_FINAL_B_MEASURE, sc.GOLDEN).to_text()
    tasks = [
        Task("golden-fixture",
             _fixture_config("rotation:golden",
                             fx.golden_rotation_splinter_inputs()),
             _expect("converged", fx.GOLDEN_N_STAR, golden_final)),
        Task("rational-third-stall",
             _fixture_config("rotation:1/3", fx.rational_third_stall_inputs()),
             _expect("stalled", None,
                     sc.Scalar(fx.RATIONAL_THIRD_B_MEASURE).to_text(),
                     fx.RATIONAL_THIRD_STALL_WINDOW)),
    ]
    # Splinter depth is invariant under rotating both windows together, so
    # the seed places each pair (dyadic position of J1) while the design
    # fixes length, offset j/16 and shift k*alpha, which set the depth.
    # Every cell runs unshifted and shifted by k*alpha; a quarter of the
    # offsets use the sqrt2 tag and run one more shift.  The 110 distinct
    # depths make a smooth latency distribution, so its percentiles do not
    # jump between runs, and one pass has ten tasks beyond p90.
    for L in ROTATION_LENGTHS:
        for j in range(ROTATION_OFFSETS):
            sqrt2 = j % 4 == 3
            tag_name = "sqrt2" if sqrt2 else "golden"
            alpha = sc.Scalar(0, 1, sc.get_tag(tag_name))
            for k in (0, 1 + j % 5) + ((1 + (j + 2) % 5,) if sqrt2 else ()):
                a = sc.Scalar(Fraction(rng.randrange(16), 16))
                J1 = iv.make_set([(0, L)]).translate_mod1(a)
                J2 = J1.translate_mod1(sc.Scalar(Fraction(j, 16)) + alpha * k)
                text = _config("splinter", f"rotation:{tag_name}",
                               {"epsilon": "1/1000", "n_max": ROTATION_N_MAX,
                                "stall_window": ROTATION_N_MAX},
                               {"J1": J1, "J2": J2})
                tasks.append(Task(f"{tag_name}-L{L.denominator}-o{j}-k{k}",
                                  text, _check_rotation))
    return tasks


# ---------------------------------------------------------------------
# doubling_mixing
# ---------------------------------------------------------------------

# (n_max, components of C, tasks).  A task's cost grows as 2^n_max times the
# number of components of C (and with mu(D), which is fixed at 1/2), so
# cells of equal cost make clusters of equal latency.  The counts put the
# median inside the (10, 1) cluster and the 90th percentile inside the
# (10, 3) cluster, away from any cluster edge; the cheap cells keep a pass
# short, so a run has ten latencies beyond p90 after three or four passes.
# The 2^13-component cell sets peak memory.
DOUBLING_CELLS = ((10, 1, 27), (10, 2, 4), (10, 3, 6), (11, 2, 1), (12, 1, 1),
                  (13, 1, 1))
_NON_DYADIC = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)


def _non_dyadic(rng, below: Fraction) -> Fraction:
    """A random p/d in [0, below) with d from _NON_DYADIC."""
    d = rng.choice(_NON_DYADIC)
    return Fraction(rng.randrange(max(1, int(below * d))), d)


def _c_set(lab, rng, components: int):
    points = set()
    while len(points) < 2 * components:
        d = rng.choice(_NON_DYADIC)
        points.add(Fraction(rng.randrange(1, d), d))
    p = sorted(points)
    return lab.intervals.make_set(list(zip(p[0::2], p[1::2])))


def _d_set(lab, rng, components: int):
    """k components of length 1/(2k), one in each k-th of [0, 1)."""
    half = Fraction(1, 2 * components)
    pairs = []
    for i in range(components):
        lo = Fraction(i, components) + _non_dyadic(rng, half)
        pairs.append((lo, lo + half))
    return lab.intervals.make_set(pairs)


def _doubling(lab, rng) -> list[Task]:
    tasks = []
    for n_max, comps, count in DOUBLING_CELLS:
        for i in range(count):
            C = _c_set(lab, rng, comps)
            D = _d_set(lab, rng, rng.randint(1, 3))
            text = _config("mixing", "doubling",
                           {"n_max": n_max, "component_budget": 1 << 20},
                           {"C": C, "D": D})
            tasks.append(Task(f"n{n_max}-c{comps}-{i}", text, _check_cesaro))
    return tasks


# ---------------------------------------------------------------------
# tails_towers
# ---------------------------------------------------------------------

# Many small random configs make the latency distribution smooth, so its
# percentiles hardly depend on the seed: the median falls in the middle of
# the gap configs and p90 among the Kakutani verifies.
TAILS_VERIFY_CONFIGS = 64     # per system
TAILS_BATTERY_SIZE = 6        # sets per verify config
TAILS_GAP_CONFIGS = 128
TAILS_MIXING_CONFIGS = 2


def _odometer_battery(lab, rng):
    """In-class rule for the odometer: a finite set, sometimes with an
    at-zero tail (preimages of at-one tails leave the class)."""
    rs, iv = lab.randomsets, lab.intervals
    s = rs.random_interval_set(rng, allow_tails=False)
    if rng.random() < 0.3:
        s = s.union(iv.make_set(
            [], [iv.ParityTail(iv.AT_ZERO, rng.randint(0, 6),
                               rng.choice(["even", "odd"]))]))
    return s


def _kakutani_battery(lab, rng):
    """In-class rule for the tower: finite base, top inside the column A."""
    rs, dy = lab.randomsets, lab.dynamics
    base = rs.random_interval_set(rng, allow_tails=False, allow_empty=True)
    top = rs.random_interval_set(rng, allow_tails=False,
                                 allow_empty=True).intersect(dy.A_SET)
    return dy.TowerSet(base, top)


def _tails(lab, rng) -> list[Task]:
    fx, rs, iv = lab.fixtures, lab.randomsets, lab.intervals
    tasks = [Task("demo", "command = demo\nsystem = kakutani\n", _check_pass)]
    for system, draw in (("odometer", _odometer_battery),
                         ("kakutani", _kakutani_battery)):
        for i in range(TAILS_VERIFY_CONFIGS):
            sets = {f"S{k}": draw(lab, rng) for k in range(TAILS_BATTERY_SIZE)}
            tasks.append(Task(f"verify-{system}-{i}",
                              _config("verify", system, {}, sets),
                              _check_pass))
    converged = "converged"
    for name, system, inputs, check in (
            ("odometer-fixture", "odometer", fx.odometer_splinter_inputs(),
             _expect(converged, 1, "0")),
            ("odometer-deep-fixture", "odometer",
             fx.odometer_deep_splinter_inputs(),
             _expect(converged, ODOMETER_DEEP_DEPTH, "0")),
            ("tower-fixture", "kakutani", fx.tower_splinter_inputs(),
             _expect(converged, 3)),
            ("tower-column-fixture", "kakutani",
             fx.tower_column_splinter_inputs(), _expect(converged, 1)),
            ("doubling-fixture", "doubling", fx.doubling_splinter_inputs(),
             _expect(converged, fx.DOUBLING_N_STAR,
                     str(Fraction(1, 1 << (fx.DOUBLING_N_STAR + 1)))))):
        tasks.append(Task(name, _fixture_config(system, inputs), check))
    # the odometer permutes the dyadic cells of each level, so with C one
    # level-3 cell every T^-j C is one cell and the 1024 steps cost the
    # same for every seed
    for i in range(TAILS_MIXING_CONFIGS):
        k = rng.randrange(8)
        C = iv.make_set([(Fraction(k, 8), Fraction(k + 1, 8))])
        D = rs.random_interval_set(rng, max_components=1, depth=3,
                                   allow_tails=False)
        tasks.append(Task(f"mixing-odometer-{i}",
                          _config("mixing", "odometer",
                                  {"n_max": 8, "m": 1024}, {"C": C, "D": D}),
                          _check_pass))
    for i in range(TAILS_GAP_CONFIGS):
        B = rs.random_interval_set(rng, allow_tails=False).union(iv.make_set(
            [], [iv.ParityTail(rng.choice([iv.AT_ONE, iv.AT_ZERO]),
                               rng.randint(0, 6),
                               rng.choice(["even", "odd"]))]))
        tasks.append(Task(f"gap-{i}",
                          _config("gap", "odometer", {"depth": 3}, {"B": B}),
                          _check_pass))
    return tasks


_POOLS = {"rotation_splinter": _rotation, "doubling_mixing": _doubling,
             "tails_towers": _tails}
