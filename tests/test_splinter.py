"""Splinter recursion: invariants, statuses, orbit decomposition."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from test_intervals import walk_matches_translations

from ergolab import fixtures, harness
from ergolab.dynamics import (Doubling, KakutaniTower, Odometer, Rotation,
                              TowerSet, Transformation)
from ergolab.errors import (EXIT_CODES, InvalidInputError, InvariantViolation,
                            RepresentationOverflowError, exit_status)
from ergolab.intervals import FULL, ShiftSteps, from_text, make_set
from ergolab.harness import RunTrace, trace_rows
from ergolab.scalars import GOLDEN, SQRT2M1, ZERO, Scalar, render
from ergolab.splinter import (BUDGET_EXHAUSTED, CONVERGED, STALLED,
                              Residuals, StepRecord, additivity_check,
                              splinter, transport_check,
                              verify_decomposition,
                              verify_orbit_decomposition)

F = Fraction


@pytest.fixture(scope="module")
def doubling_run():
    return splinter(**fixtures.doubling_splinter_inputs())


@pytest.fixture(scope="module")
def golden_run():
    return splinter(**fixtures.golden_rotation_splinter_inputs())


class TestDoubling:
    def test_converges_at_pinned_depth(self, doubling_run):
        assert doubling_run.status == CONVERGED
        assert doubling_run.depth == fixtures.DOUBLING_N_STAR

    def test_closed_form_residuals(self, doubling_run):
        for n, B in enumerate(doubling_run.residuals, start=1):
            assert B.measure() == Scalar(F(1, 1 << (n + 1)))

    def test_invariant_reports(self, doubling_run):
        rep = verify_decomposition(doubling_run)
        assert rep.passed and len(rep.rows) == fixtures.DOUBLING_N_STAR


class TestGoldenRotation:
    def test_first_splinter_measure(self, golden_run):
        alpha = Scalar(0, 1, GOLDEN)
        assert golden_run.splinters[0].measure() == Scalar(F(3, 4)) - alpha

    def test_converges_at_pinned_depth(self, golden_run):
        assert golden_run.status == CONVERGED
        assert golden_run.depth == fixtures.GOLDEN_N_STAR

    def test_final_residual_value(self, golden_run):
        p, q = fixtures.GOLDEN_FINAL_B_MEASURE
        assert golden_run.residuals[-1].measure() == Scalar(p, q, GOLDEN)

    def test_progress_steps(self, golden_run):
        trace = golden_run.trace
        progress = [i + 1 for i, r in enumerate(trace)
                    if i == 0 or trace[i - 1].measure_B != r.measure_B]
        assert progress == fixtures.GOLDEN_PROGRESS_STEPS


class TestStatuses:
    def test_odometer_one_step_cover(self):
        d = splinter(**fixtures.odometer_splinter_inputs())
        assert d.status == CONVERGED and d.depth == 1
        assert d.residuals[0].is_empty()

    def test_rational_rotation_stalls(self):
        d = splinter(**fixtures.rational_third_stall_inputs())
        assert d.status == STALLED
        assert all(B.measure() == Scalar(F(1, 6)) for B in d.residuals)
        assert all(A.is_empty() for A in d.splinters)

    def test_budget_exhaustion_keeps_trace(self):
        kw = fixtures.golden_rotation_splinter_inputs()
        kw["n_max"] = 5
        d = splinter(**kw)
        assert d.status == BUDGET_EXHAUSTED
        assert len(d.trace) == 5

    def test_component_budget_error(self):
        # preimages under doubling double the component count each step
        kw = dict(T=Doubling(),
                  J1=make_set([(F(0), F(1, 2))]),
                  J2=make_set([(F(1, 2), F(1))]),
                  epsilon=Scalar(F(1, 10 ** 9)), n_max=64)
        d = splinter(component_budget=16, **kw)
        assert d.status == BUDGET_EXHAUSTED
        assert d.trace and d.trace[-1].components_B > 16

    def test_error_carries_completed_steps(self):
        # step 1 completes; the preimage in step 2 has an at-one tail
        kw = dict(T=KakutaniTower(),
                  J1=TowerSet(from_text("0..1/3")),
                  J2=TowerSet(from_text("1/3..2/3")),
                  epsilon=Scalar(F(1, 1000)), n_max=50)
        with pytest.raises(RepresentationOverflowError) as info:
            splinter(**kw)
        d = info.value.decomposition
        assert d.depth == len(d.trace) == 1
        assert d.residuals[0].measure() == Scalar(F(1, 4))

    @pytest.mark.parametrize("inputs, status, depth, final_B", [
        # the golden rotation splinters on ~2.5% of its steps, with runs of
        # up to 88 unproductive steps
        (fixtures.golden_rotation_splinter_inputs, CONVERGED,
         fixtures.GOLDEN_N_STAR, fixtures.GOLDEN_FINAL_B_MEASURE),
        (fixtures.odometer_deep_splinter_inputs, CONVERGED, 125, (0, 0)),
        # rotation by 1/3: 3 unproductive steps in a row prove the stall
        (fixtures.rational_third_stall_inputs, STALLED, 4,
         (fixtures.RATIONAL_THIRD_B_MEASURE, 0)),
    ], ids=["golden", "odometer-deep", "rational-third"])
    def test_default_stall_window(self, inputs, status, depth, final_B):
        # without stall_window only a non-ergodic T can stall
        kw = inputs()
        del kw["stall_window"]
        d = splinter(**kw)
        assert (d.status, d.depth) == (status, depth)
        assert d.residuals[-1].measure() == Scalar(*final_B, GOLDEN)

    def test_tower_fixtures_converge(self):
        d = splinter(**fixtures.tower_splinter_inputs())
        assert d.status == CONVERGED and d.depth == 3
        d = splinter(**fixtures.tower_column_splinter_inputs())
        assert d.status == CONVERGED and d.depth == 1


class TestOrbitDecomposition:
    def test_doubling(self, doubling_run):
        for n in (1, 3, 5, 10):
            assert verify_orbit_decomposition(doubling_run, n).passed

    def test_golden_rotation(self, golden_run):
        for n in (1, 7, 25, 64):
            assert verify_orbit_decomposition(golden_run, n).passed

    def test_odometer(self):
        d = splinter(**fixtures.odometer_splinter_inputs())
        assert verify_orbit_decomposition(d, 1).passed


class TestTransport:
    def test_invariant_empty_and_full(self, doubling_run):
        T = Doubling()
        for B in (T.empty_set(), T.full_set()):
            rep = transport_check(doubling_run, B)
            assert rep.passed
            # equality throughout for trivially invariant sets
            per_step = [row for row in rep.rows if row["step"] != "limit"]
            assert all(row["lhs"] == row["bound"] for row in per_step)

    def test_diagnostic_mode_for_non_invariant(self, doubling_run):
        B = make_set([(F(0), F(1, 3))])
        rep = transport_check(doubling_run, B)
        assert rep.note == "diagnostic"

    def test_invariant_set_of_rational_rotation(self):
        d = splinter(**fixtures.rational_third_stall_inputs())
        rep = transport_check(d, fixtures.RATIONAL_THIRD_INVARIANT)
        assert rep.passed


class TestAdditivity:
    def test_over_splinter_family(self, doubling_run):
        B = make_set([(F(0), F(2, 3))])
        rep = additivity_check(doubling_run.splinters[:16], B, 16)
        assert rep.passed

    def test_rejects_overlapping_family(self):
        a = make_set([(F(0), F(1, 2))])
        with pytest.raises(ValueError):
            additivity_check([a, a], a, 2)


class TestArguments:
    @pytest.mark.parametrize("J1, J2, epsilon, n_max, stall_window", [
        ("0..1/4", "0..1/2", "1/1000", 8, None),    # unequal measures
        ("empty", "empty", "1/1000", 8, None),      # null windows
        ("0..1/2", "0..1/2", "0", 8, None),         # epsilon not positive
        ("0..1/2", "0..1/2", "1/1000", 0, None),    # no step allowed
        ("0..1/2", "0..1/2", "1/1000", 8, 0),       # stalls at step 1
        ("0..1/2", "0..1/2", "1/1000", 8, -3),
    ], ids=["0..1/4-0..1/2-1/1000", "empty-empty-1/1000", "0..1/2-0..1/2-0",
            "n_max-0", "stall_window-0", "stall_window--3"])
    def test_invalid_input(self, J1, J2, epsilon, n_max, stall_window):
        with pytest.raises(InvalidInputError):
            splinter(Doubling(), from_text(J1), from_text(J2),
                     Scalar(F(epsilon)), n_max, stall_window=stall_window)
        assert issubclass(InvalidInputError, ValueError)

    @pytest.mark.parametrize("arg, value", [
        ("n_max", 2.5), ("n_max", "3"), ("stall_window", 2.5),
        ("component_budget", 0.5), ("component_budget", 0),
        ("component_budget", -1),
    ])
    def test_budgets_must_be_ints(self, arg, value):
        # a float step count would run as if rounded up, or fail deep in
        # the run; each is rejected up front by name
        kw = dict(fixtures.golden_rotation_splinter_inputs(), **{arg: value})
        with pytest.raises(InvalidInputError,
                           match=f"^{arg} must be an int >= 1, not "):
            splinter(**kw)


class _Flood(Transformation):
    """Not measure preserving: the preimage of every set is [0, 1)."""

    def preimage(self, S):
        return FULL


class TestInvariantViolation:
    def test_violation_raises_with_completed_step(self):
        # mu(B_1) = mu([0, 1) minus J2) = 3/4, while J2 minus A_1 = J2 is
        # empty: the residual identity fails at step 1
        J1, J2 = fixtures.J_QUARTER_LOW, fixtures.J_QUARTER_MID
        with pytest.raises(InvariantViolation,
                           match="residual identity violated at step 1"
                           ) as info:
            splinter(_Flood(), J1, J2, Scalar(F(1, 1000)), 8)
        d = info.value.decomposition
        assert len(d.trace) == 1
        assert d.residuals[0].measure() == Scalar(F(3, 4))
        assert d.splinters[0] == J2
        assert exit_status(info.value) == (1, "fail")

    def test_bare_assertion_has_no_exit_code(self):
        assert not isinstance(AssertionError(), tuple(EXIT_CODES))


class _LossyAt(Transformation):
    """Rotation by 1/3 whose preimage at call `step` keeps only the lower
    half of [0, 1/6): mass is lost in a step that splinters nothing."""

    def __init__(self, step):
        self.inner, self.step, self.calls = Rotation(Scalar(F(1, 3))), step, 0

    def preimage(self, S):
        self.calls += 1
        pre = self.inner.preimage(S)
        if self.calls == self.step:
            assert pre.equals(make_set([(F(0), F(1, 6))]))
            return make_set([(F(0), F(1, 12))])
        return pre


class TestUnproductiveSteps:
    @pytest.mark.parametrize("step", [3, 6, 42])
    def test_residual_identity_fires_on_empty_splinter(self, step):
        # in the rational-1/3 stall every A_n is empty, so each step keeps
        # covered and J2 minus covered from the step before
        kw = fixtures.rational_third_stall_inputs()
        kw["T"] = _LossyAt(step)
        with pytest.raises(InvariantViolation,
                           match=f"residual identity violated at step {step}$"
                           ) as info:
            splinter(**kw)
        d = info.value.decomposition
        assert len(d.trace) == step
        # the failing step keeps its own mu(B) = 1/12; the steps before it
        # repeat one record
        *before, last = d.trace
        assert last.measure_B == Scalar(F(1, 12))
        assert last.components_B == before[0].components_B
        assert all(rec is before[0] for rec in before)
        assert before[0] is not last
        assert all(A.is_empty() for A in d.splinters)
        assert d.residuals[-1].measure() == Scalar(F(1, 12))
        assert all(B.measure() == Scalar(F(1, 6)) for B in d.residuals[:-1])

    def test_unproductive_steps_keep_cover(self, golden_run):
        assert verify_decomposition(golden_run).passed


class TestReplay:
    def test_tampered_residual_fails_at_its_step_only(self, golden_run):
        # B_6 moved by 1/7 keeps its measure, so both identities hold at
        # every step; only the replay tells the sets apart
        residuals = list(golden_run.residuals)
        residuals[5] = residuals[5].translate_mod1(Scalar(F(1, 7)))
        assert not residuals[5].equals(golden_run.residuals[5])
        rep = verify_decomposition(
            dataclasses.replace(golden_run, residuals=residuals))
        assert not rep.passed
        assert [row["step"] for row in rep.rows
                if not row["same_sets"]] == [6]
        assert all(row["residual_identity"] and row["mass_conservation"]
                   for row in rep.rows)


def _sqrt2_shifted_inputs():
    # windows of length 1/8 at offset 7/16 + 2*alpha on the sqrt2 rotation
    alpha = Scalar(0, 1, SQRT2M1)
    J1 = make_set([(F(3, 16), F(5, 16))])
    J2 = J1.translate_mod1(Scalar(F(7, 16)) + alpha * 2)
    return dict(T=Rotation(alpha), J1=J1, J2=J2, epsilon=Scalar(F(1, 1000)),
                n_max=400, stall_window=400)


TRACE_INPUTS = {
    "golden": fixtures.golden_rotation_splinter_inputs,
    "sqrt2-shifted": _sqrt2_shifted_inputs,
    "rational-third-stall": fixtures.rational_third_stall_inputs,
    "tower": fixtures.tower_splinter_inputs,
}
# (status, depth, productive steps) of each run
TRACE_SHAPES = {
    "golden": (CONVERGED, fixtures.GOLDEN_N_STAR, 8),
    "sqrt2-shifted": (CONVERGED, 154, 6),
    "rational-third-stall": (STALLED, fixtures.RATIONAL_THIRD_STALL_WINDOW + 1,
                             0),
    "tower": (CONVERGED, 3, 1),
}


def step_rows(trace, digits=12):
    """The row of each record of ``trace``, built field by field, as
    ``trace_rows`` should write it."""
    return [{"step": n,
             "measure_A_n": rec.measure_A.to_text(),
             "measure_A_n_dec": render(rec.measure_A, digits),
             "measure_B_n": rec.measure_B.to_text(),
             "measure_B_n_dec": render(rec.measure_B, digits),
             "components_B_n": rec.components_B,
             "cumulative_covered": rec.covered_measure.to_text()}
            for n, rec in enumerate(trace, 1)]


class TestTraceRows:
    @pytest.fixture(scope="class", params=sorted(TRACE_INPUTS))
    def named_run(self, request):
        return request.param, splinter(**TRACE_INPUTS[request.param]())

    def test_run_shape(self, named_run):
        name, d = named_run
        productive = sum(not A.is_empty() for A in d.splinters)
        assert (d.status, d.depth, productive) == TRACE_SHAPES[name]

    @pytest.mark.parametrize("digits", [4, 12])
    def test_matches_step_rows(self, named_run, digits):
        _, d = named_run
        assert trace_rows(d.trace, digits) == step_rows(d.trace, digits)

    def test_repeated_rows_are_separate_dicts(self, named_run):
        _, d = named_run
        rows = trace_rows(d.trace)
        expected = step_rows(d.trace)
        assert rows == expected
        assert [list(row) for row in rows] == [list(row) for row in expected]
        for row in rows[::2]:
            row["step"] = -1
            row["measure_B_n"] = "changed"
        assert rows[1::2] == expected[1::2]

    def test_equal_values_copy_the_row_before(self):
        # record 2 repeats record 1 in values built apart; records 3 and 4
        # each change one field
        third, half = Scalar(F(1, 3)), Scalar(F(1, 2))
        trace = [StepRecord(third, half, 2, third),
                 StepRecord(Scalar(F(2, 6)), Scalar(F(1, 2)), 2,
                            Scalar(F(1, 3))),
                 StepRecord(third, half, 3, third),
                 StepRecord(third, half, 3, half)]
        # equal but distinct records are runs of one
        rows = trace_rows(trace)
        assert rows == step_rows(trace)
        assert rows.runs == [1, 1, 1, 1]
        run_trace = RunTrace({}, rows, {})
        assert run_trace.to_structured() == json.dumps(
            {"header": {}, "records": rows, "summary": {}}, indent=2) + "\n"
        # a record appended again joins the run of the step before; its
        # rows copy the run's first row with their own step
        shared = [trace[0], trace[1], trace[1], trace[1], trace[0]]
        rows = trace_rows(shared)
        assert rows == step_rows(shared)
        assert rows.runs == [1, 3, 1]

    def test_values_that_share_parts_stay_apart(self):
        # equal n and d, or equal fields under two tags, are distinct values
        quarter = Scalar(F(1, 4))
        values = [quarter, quarter + Scalar(0, 1, GOLDEN),
                  quarter + Scalar(0, 1, SQRT2M1),
                  quarter - Scalar(0, 1, GOLDEN), quarter]
        trace = [StepRecord(v, w, 1, v) for v, w in zip(values, values[::-1])]
        for digits in (4, 12):
            assert trace_rows(trace, digits) == step_rows(trace, digits)

    def test_flat_steps_share_one_record(self):
        # on narrow windows the odometer splinters nothing until step 125,
        # which covers J2 at once
        kw = fixtures.odometer_deep_splinter_inputs()
        del kw["stall_window"]
        d = splinter(**kw)
        assert len(d.trace) == 125 and len(set(map(id, d.trace))) == 2
        assert trace_rows(d.trace).runs == [124, 1]

    def test_renders_each_distinct_measure_once(self, named_run,
                                                monkeypatch):
        _, d = named_run
        calls = []
        real = harness.render
        monkeypatch.setattr(
            harness, "render",
            lambda s, digits: calls.append(s) or real(s, digits))
        trace_rows(d.trace, 12)
        distinct = {v for rec in d.trace
                    for v in (rec.measure_A, rec.measure_B)}
        assert len(calls) == len(distinct) == len(set(calls))


class _Generic(Transformation):
    """A rotation seen only through its preimage: a run on it takes the
    per-step path of a map that is no translation."""

    def __init__(self, inner):
        self.inner = inner

    def preimage(self, S):
        return self.inner.preimage(S)


def _circle_window(rng, tag, pieces):
    """A union of 1..pieces arcs with endpoints p/q, or p/q + k*alpha mod 1
    under a tag, moved around the circle by a random shift."""
    alpha = Scalar(0, 1, tag) if tag else Scalar(0)
    q = rng.choice([4, 6, 8, 9, 12])
    points = set()
    while len(points) < 2 * rng.randint(1, pieces):
        points.add((Scalar(F(rng.randrange(q), q))
                    + alpha * rng.choice([0, 0, 1, -1, 2])).mod1())
    points = sorted(points)
    J = make_set(list(zip(points[::2], points[1::2])))
    return J.translate_mod1(Scalar(F(rng.randrange(q), q)) + alpha)


def _seeded_inputs(seed):
    rng = random.Random(seed)
    kind = rng.choice(["golden", "sqrt2", "p/9", "p/13"])
    if kind in ("golden", "sqrt2"):
        tag = GOLDEN if kind == "golden" else SQRT2M1
        T = Rotation(Scalar(0, 1, tag))
    else:
        tag, q = None, int(kind[2:])
        T = Rotation(Scalar(F(rng.randrange(1, q), q)))
    J1 = _circle_window(rng, tag, 3)
    shift = (Scalar(F(rng.randrange(16), 16))
             + (Scalar(0, rng.randint(-2, 2), tag) if tag else Scalar(0)))
    return dict(T=T, J1=J1, J2=J1.translate_mod1(shift.mod1()),
                epsilon=Scalar(F(1, 1000)), n_max=rng.choice([30, 200, 400]))


def _cells(cells, n):
    """The union of the cells [c/n, (c + 1)/n)."""
    return make_set([(F(c, n), F(c + 1, n)) for c in cells])


def _cell_inputs(seed):
    """A rotation by p/q against windows made of cells of width 1/(kq):
    arcs of shifts that meet J2 often only touch each other."""
    rng = random.Random(seed)
    q, k = rng.choice([5, 7, 9]), rng.choice([2, 3])
    size = rng.randint(2, k * q - 2)
    J1, J2 = (_cells(rng.sample(range(k * q), size), k * q) for _ in "12")
    return dict(T=Rotation(Scalar(F(rng.randrange(1, q), q))), J1=J1, J2=J2,
                epsilon=Scalar(F(1, 1000)), n_max=200)


def _window_inputs(J1, J2, n_max=300):
    return lambda: dict(T=GOLDEN_ROTATION, J1=from_text(J1, GOLDEN),
                        J2=from_text(J2, GOLDEN),
                        epsilon=Scalar(F(1, 1000)), n_max=n_max)


def _two_arc_inputs(t, J2):
    """J1 of two arcs, so B + s has two components or more, against a J2
    that the first two or three steps miss, one run from step 1."""
    return lambda: dict(T=Rotation(t), J1=from_text("0..1/16, 1/2..9/16"),
                        J2=from_text(J2), epsilon=Scalar(F(1, 1000)),
                        n_max=300)


GOLDEN_ROTATION = Rotation(Scalar(0, 1, GOLDEN))
SHIFT_CASES = {
    "golden": fixtures.golden_rotation_splinter_inputs,
    "sqrt2-shifted": _sqrt2_shifted_inputs,
    "multi-component": _window_inputs(
        "0..1/8, 1/4..3/8, 1/2..5/8", "1/16..3/16, 7/16..9/16, 3/4..7/8"),
    "alpha-endpoints": _window_inputs(
        "0..-1/2+alpha, 3/4..7/8", "1-alpha..1/2, 5/8..3/4"),
    "J2-whole-circle": _window_inputs("0..1", "0..1"),
    "arcs-wrap-past-1": _window_inputs(
        "0..1/8, 7/8..1", "0..1/16, 3/4..7/8, 15/16..1"),
    "rational-third-stall": fixtures.rational_third_stall_inputs,
    # a tailed window keeps the rotation on the per-step path
    "J2-with-tail": _window_inputs("1/4..7/24", "tail(zero, 4, even)", 100),
    "golden-two-arcs": _two_arc_inputs(Scalar(0, 1, GOLDEN), "1/2..5/8"),
    "sqrt2-two-arcs": _two_arc_inputs(Scalar(0, 1, SQRT2M1), "1/4..3/8"),
    "rational-two-arcs": _two_arc_inputs(Scalar(F(1, 7)), "1/2..5/8"),
}
# golden, sqrt2 and p/q cases whose runs are cut inside
RUN_CUT_CASES = ["golden", "sqrt2-shifted", "rational-third-stall",
                 "golden-two-arcs", "sqrt2-two-arcs", "rational-two-arcs"]


def _same_run(direct, generic):
    assert (direct.status, direct.depth) == (generic.status, generic.depth)
    assert [vars(rec) for rec in direct.trace] == [
        vars(rec) for rec in generic.trace]
    rows, generic_rows = trace_rows(direct.trace), trace_rows(generic.trace)
    assert rows == generic_rows and rows.runs == generic_rows.runs
    assert all(a.equals(b)
               for a, b in zip(direct.splinters, generic.splinters))
    assert all(a.equals(b)
               for a, b in zip(direct.residuals, generic.residuals))
    assert len(direct.residuals) == len(generic.residuals) == direct.depth


class TestShiftSteps:
    """A rotation run tests each shift against precomputed arcs; wrapped
    as a map that is no translation, it takes the per-step path."""

    @staticmethod
    def _both(kw):
        T = kw["T"]
        kw.setdefault("stall_window", T.stall_window())
        return splinter(**kw), splinter(**dict(kw, T=_Generic(T)))

    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    def test_matches_generic_path(self, name):
        _same_run(*self._both(SHIFT_CASES[name]()))

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_windows_match_generic_path(self, seed):
        _same_run(*self._both(_seeded_inputs(seed)))

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_cell_windows_match_generic_path(self, seed):
        _same_run(*self._both(_cell_inputs(seed)))

    @staticmethod
    def _walk_items(monkeypatch):
        """The items that ``ShiftSteps.runs`` yields from now on."""
        items, runs = [], ShiftSteps.runs

        def recorded(self, limit):
            for item in runs(self, limit):
                items.append(item)
                yield item
        monkeypatch.setattr(ShiftSteps, "runs", recorded)
        return items

    def test_golden_steps_come_in_runs(self, monkeypatch):
        # one walk item per run of steps, and one record per run
        items = self._walk_items(monkeypatch)
        d = splinter(**fixtures.golden_rotation_splinter_inputs())
        assert d.depth == sum(length for *_, length in items) == 224
        assert len(items) == len(set(map(id, d.trace))) == 18

    @pytest.mark.parametrize("name", RUN_CUT_CASES)
    def test_run_cut_at_n_max(self, name):
        full = splinter(**SHIFT_CASES[name]())
        # steps n and n + 1 of one run share a record
        inside = [n for n in range(1, full.depth)
                  if full.trace[n - 1] is full.trace[n]]
        assert inside
        for n_max in {inside[0], inside[len(inside) // 2], inside[-1]}:
            direct, generic = self._both(dict(SHIFT_CASES[name](),
                                              n_max=n_max))
            _same_run(direct, generic)
            assert (direct.status, direct.depth) == (BUDGET_EXHAUSTED, n_max)

    @pytest.mark.parametrize("name", RUN_CUT_CASES)
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 9])
    def test_run_cut_at_stall_window(self, name, window):
        direct, generic = self._both(dict(SHIFT_CASES[name](),
                                          stall_window=window))
        _same_run(direct, generic)
        if name.endswith("two-arcs") and window == 1:
            # step 1 and step 2, one run from step 1, fill a window of 1
            assert (direct.status, direct.depth) == (STALLED, 2)
        if name == "rational-third-stall":
            # every step of it misses J2
            assert (direct.status, direct.depth) == (STALLED, window + 1)

    def test_golden_run_cut_at_stall_window(self):
        # CI runs this config: step 17 fills the window inside a run
        # that the full run goes on with
        full = splinter(**dict(SHIFT_CASES["golden"](), stall_window=None))
        assert full.trace[16] is full.trace[17]
        direct, generic = self._both(dict(SHIFT_CASES["golden"](),
                                          stall_window=5))
        _same_run(direct, generic)
        assert (direct.status, direct.depth) == (STALLED, 17)
        assert direct.residuals[-1].measure() == (
            Scalar(F(5, 4)) - Scalar(0, 2, GOLDEN))

    @pytest.mark.parametrize("name, depth", [
        ("golden", 5), ("golden-two-arcs", 1), ("sqrt2-two-arcs", 1),
        ("rational-two-arcs", 1)])
    def test_run_cut_at_component_budget(self, name, depth, monkeypatch):
        items = self._walk_items(monkeypatch)
        direct, generic = self._both(dict(SHIFT_CASES[name](),
                                          component_budget=1))
        _same_run(direct, generic)
        assert (direct.status, direct.depth) == (BUDGET_EXHAUSTED, depth)
        # the last walk item is the run whose first step ends the run;
        # the two-arc runs go on past it
        _, count, _, length = items[-1]
        assert count > 1 and (length > 1) == (depth == 1)

    def test_touching_arcs_stay_apart(self):
        # at a shift where two arcs of meeting shifts touch, B + s meets J2
        # in points only; taken as productive, it restarts the stall count
        # and the run goes on to its budget
        direct, generic = self._both(dict(
            T=Rotation(Scalar(F(5, 7))),
            J1=_cells({1, 3, 6, 8, 9, 11, 14, 15, 18}, 21),
            J2=_cells({4, 8, 10, 11, 14, 15, 16, 18, 20}, 21),
            epsilon=Scalar(F(1, 1000)), n_max=200))
        _same_run(direct, generic)
        assert (direct.status, direct.depth) == (STALLED, 11)
        assert direct.residuals[-1].measure() == Scalar(F(1, 7))

    def test_rotation_steps_call_no_preimage(self, monkeypatch):
        def refuse(self, S):
            raise AssertionError("preimage called")
        monkeypatch.setattr(Rotation, "preimage", refuse)
        for inputs in (fixtures.golden_rotation_splinter_inputs,
                       fixtures.rational_third_stall_inputs):
            d = splinter(**inputs())
            assert d.status in (CONVERGED, STALLED)

    @pytest.mark.parametrize("tag", [GOLDEN, SQRT2M1])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_shift_on_an_edge_of_the_meeting_arcs(self, tag, k):
        # W ends where B + {k*alpha} starts and starts where it ends, so
        # the k-th shift is an edge twice; shifts just below and just
        # above it meet W, the shift itself only touches W, and only
        # ``_sign`` tells it from its neighbours
        alpha = Scalar(0, 1, tag)
        s = (alpha * k).mod1()
        B = make_set([(F(0), F(1, 4))])
        W = make_set([(F(1, 4), F(3, 8)), (F(7, 8), F(1))]).translate_mod1(s)
        hit, _ = walk_matches_translations(B, W, alpha, 2 * k + 3)[k - 1]
        assert not hit

    @pytest.mark.parametrize("tag", [GOLDEN, SQRT2M1])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_shift_on_an_edge_of_the_cutting_arcs(self, tag, k):
        # B + {k*alpha} is [3/4, 1), one piece; a shift just above cuts
        # it at 1 into two
        alpha = Scalar(0, 1, tag)
        B = make_set([(F(3, 4), F(1))]).translate_mod1((-alpha * k).mod1())
        W = make_set([(F(0), F(1, 2))])
        seen = walk_matches_translations(B, W, alpha, 2 * k + 3)
        assert seen[k - 1] == (False, 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_rational_shifts_on_cell_edges(self, seed):
        # every shift of p/q lies on the grid of the cells, so each step
        # ties some edge and is decided by ``_sign``
        kw = _cell_inputs(seed)
        t = kw["T"].translation()
        walk_matches_translations(kw["J1"], kw["J2"], t, 3 * t.d)

    def test_residuals_sequence(self):
        direct, generic = self._both(SHIFT_CASES["golden"]())
        lazy, plain = direct.residuals, list(generic.residuals)
        assert bool(lazy) and len(lazy) == len(plain) == direct.depth
        for i in (0, 5, -1, -7):
            assert lazy[i].equals(plain[i])
        for part in (slice(3, 9), slice(-4, None), slice(None, None, 50)):
            assert [B.to_text() for B in lazy[part]] == [
                B.to_text() for B in plain[part]]
        with pytest.raises(IndexError):
            lazy[direct.depth]
        assert not Residuals()

    def test_trace_sequence(self):
        direct, generic = self._both(SHIFT_CASES["golden"]())
        trace = direct.trace
        assert type(trace) is list and len(trace) == len(generic.trace)
        rows = trace_rows(trace)
        # one record object per run of rows
        assert len(set(map(id, trace))) == len(rows.runs) < len(rows)
        assert sum(rows.runs) == len(rows) and max(rows.runs) > 1
        i = 0
        for length in rows.runs:
            assert all(rec is trace[i] for rec in trace[i:i + length])
            for row in rows[i + 1:i + length]:
                assert list(row) == list(rows[i])
                assert dict(row, step=rows[i]["step"]) == rows[i]
            i += length
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace[0].measure_B = ZERO


# (T, J, productive steps) of splinter(T, J, J, 1/100000, 2000): the
# steps of a first return to J, which Slater's theorem limits to three
# values r1 < r2 < r1 + r2 under a rotation
RETURN_TIMES = [
    (GOLDEN_ROTATION, "0..1/4", [2, 3, 5]),
    (GOLDEN_ROTATION, "1/8..1/3", [3, 5, 8]),
    (GOLDEN_ROTATION, "0..-1/2+alpha", [5, 8, 13]),
    (GOLDEN_ROTATION, "1/3..1/3+1/7*alpha", [8, 13, 21]),
    (Rotation(Scalar(0, 1, SQRT2M1)), "0..1/16", [12, 17, 29]),
    (Rotation(Scalar(F(1, 7))), "0..1/3", [1, 5, 6]),
    (Odometer(), "0..1/4", [4]),
    (Odometer(), "1/3..1/2", [4, 8]),
]


def _return_run(T, J):
    """The first-return run on J, checked against Kac's lemma: it ends
    with B empty and sum n*mu(A_n) = 1, as T is ergodic on the circle."""
    d = splinter(T, J, J, Scalar(F(1, 100000)), 2000)
    assert d.status == CONVERGED
    assert d.residuals[-1].measure() == Scalar(0)
    kac = sum((A.measure() * n for n, A in enumerate(d.splinters, 1)),
              Scalar(0))
    assert kac == Scalar(1)
    assert verify_decomposition(d).passed
    return [n for n, A in enumerate(d.splinters, 1) if not A.is_empty()]


def _first_close_return(alpha, length):
    """Slater's r1 = min{n >= 1 : ||n*alpha|| < length}."""
    n = 1
    while True:
        x = (alpha * n).mod1()
        if min(x, 1 - x) < length:
            return n
        n += 1


class TestReturnTimes:
    @pytest.mark.parametrize("T, J, steps", RETURN_TIMES,
                             ids=[f"{T.descriptor()}-{J}"
                                  for T, J, _ in RETURN_TIMES])
    def test_pinned_return_times(self, T, J, steps):
        assert _return_run(T, from_text(J, GOLDEN)) == steps

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_windows_obey_slater(self, seed):
        rng = random.Random(seed)
        tag = rng.choice([GOLDEN, SQRT2M1])
        alpha = Scalar(0, 1, tag)
        length = rng.choice([Scalar(F(1, rng.randint(3, 24))),
                             (alpha * rng.randint(1, 4)).mod1() * F(1, 4)])
        J = make_set([(0, length)]).translate_mod1(
            Scalar(F(rng.randrange(16), 16)) + alpha * rng.randint(0, 1))
        steps = _return_run(Rotation(alpha), J)
        assert 1 <= len(steps) <= 3
        if len(steps) == 3:
            assert steps[2] == steps[0] + steps[1]
        assert steps[0] == _first_close_return(alpha, length)
