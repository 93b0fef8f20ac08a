"""Density searches, the theta gap, reduction probes, mixing diagnostics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.caratheodory import (MAX_LEVEL_WINDOWS, MeasureBasis,
                                  arcs_basis, correlation_average,
                                  density_search, dyadic_basis, gap_theta,
                                  invariance_check, mixing_trace,
                                  reduction_check)
from ergolab.dynamics import Doubling, Odometer, Rotation, make_system
from ergolab.errors import ComponentBudgetError, InvalidInputError
from ergolab.fixtures import RATIONAL_THIRD_INVARIANT
from ergolab.intervals import (AT_ONE, AT_ZERO, EMPTY, FULL, IntervalSet,
                               ParityTail, arc, from_text, make_set)
from ergolab.randomsets import random_interval_set, random_offset_set
from ergolab.scalars import GOLDEN, ONE, SQRT2M1, Scalar
from test_intervals import dyadic_sets

F = Fraction


class TestBases:
    def test_dyadic_enumeration_order(self):
        cells = list(dyadic_basis(1).elements())
        assert [c.to_text() for c in cells] == ["0..1", "0..1/2", "1/2..1"]

    def test_arcs_enumeration_counts(self):
        # denominators 1..3 give 1 + 3 + 6 intervals
        assert len(list(arcs_basis(3).elements())) == 10

    def test_bad_parameters(self):
        # InvalidInputError is a ValueError
        with pytest.raises(InvalidInputError):
            dyadic_basis(-1)
        with pytest.raises(InvalidInputError):
            arcs_basis(0)
        with pytest.raises(InvalidInputError):
            MeasureBasis("dyadc", 3)

    @pytest.mark.parametrize("basis, bound", [
        (dyadic_basis, 2.5), (arcs_basis, 2.0), (dyadic_basis, F(3)),
        (arcs_basis, "3"), (dyadic_basis, True)])
    def test_bound_must_be_an_int(self, basis, bound):
        # a bound that is not an int used to build a basis whose first
        # levels() call raised a bare TypeError
        with pytest.raises(InvalidInputError,
                           match="^basis bound out of range$"):
            basis(bound)


class TestDensity:
    def test_finds_full_density_window(self):
        S = make_set([(F(0), F(1, 3))])
        J = density_search(S, Scalar(F(1, 10)), dyadic_basis(6))
        assert S.intersect(J).measure() > (ONE - Scalar(F(1, 10))) * J.measure()

    def test_strict_inequality_can_exhaust(self):
        # a set of density exactly 1/2 everywhere at dyadic scale
        S = make_set([(F(k, 8), F(2 * k + 1, 16)) for k in range(8)])
        assert density_search(S, Scalar(F(1, 2)), dyadic_basis(2)) is None

    def test_positive_measure_required(self):
        with pytest.raises(InvalidInputError):
            density_search(make_set([]), Scalar(F(1, 10)), dyadic_basis(3))

    def test_epsilon_below_one_required(self):
        with pytest.raises(InvalidInputError):
            density_search(make_set([(F(0), F(1, 2))]), Scalar(2),
                           dyadic_basis(3))


def _probe_sets(seed):
    """Seeded positive-measure sets: dyadic with a tail at either anchor or
    both, golden and sqrt2 endpoints, and complements."""
    tail = make_set([], [ParityTail(AT_ONE if seed % 2 else AT_ZERO,
                                    seed % 5, "odd" if seed % 3 else "even")])
    sets = [random_interval_set(seed, depth=6).union(tail),
            random_offset_set(seed, Scalar(0, 1, GOLDEN), depth=6),
            random_offset_set(seed, Scalar(0, 1, SQRT2M1), depth=5).union(tail)]
    sets += [S.complement() for S in sets]
    return [S for S in sets if S.measure() > 0]


def _small_sets(seed):
    """Seeded sets so small that a search passes over its coarse levels
    without sweeping them: an interval of width 2**-k, a tail and an
    interval ending at alpha."""
    k = 3 + seed % 4
    a = (seed * 37) % ((1 << (k + 2)) - 3)
    tail = ParityTail(AT_ONE if seed % 2 else AT_ZERO, 3 + seed % 3,
                      "odd" if seed % 3 else "even")
    return [arc(a, a + 4, 1 << (k + 2)), make_set([], [tail]),
            from_text(f"-{seed + 1}/{1 << (k + 3)}+alpha..alpha", GOLDEN)]


def _reference_search(S, epsilon, basis):
    """The first dense window, by one intersection per window."""
    bar = ONE - epsilon
    return next((J for J in basis.elements()
                 if S.intersect(J).measure() > bar * J.measure()), None)


BASES = [dyadic_basis(5), arcs_basis(9)]


class TestLevelSweep:
    """Every basis probe reads a level from one sweep of the set; these
    compare it with one intersection per window."""

    @pytest.mark.parametrize("basis", BASES, ids=["dyadic", "arcs"])
    @pytest.mark.parametrize("seed", range(6))
    def test_measures_match_intersection(self, seed, basis):
        for S in _probe_sets(seed):
            for level in basis.levels():
                assert basis.measures_at(S, level) == [
                    (J, S.intersect(J).measure(), J.measure())
                    for J in basis.elements_at(level)]

    @pytest.mark.parametrize("epsilon", [F(1, 10), F(1, 3), F(3, 4)])
    @pytest.mark.parametrize("basis", BASES, ids=["dyadic", "arcs"])
    @pytest.mark.parametrize("seed", range(6))
    def test_searches_match_reference(self, seed, basis, epsilon):
        eps = Scalar(epsilon)
        for S in _probe_sets(seed) + _small_sets(seed):
            assert density_search(S, eps, basis) == _reference_search(
                S, eps, basis)

    def test_no_probe_intersects(self, monkeypatch):
        S = _probe_sets(1)[0]
        monkeypatch.setattr(IntervalSet, "intersect", None)
        for basis in BASES:
            assert density_search(S, Scalar(F(1, 100)), basis) is not None

    @pytest.mark.parametrize("basis, level, count", [
        (dyadic_basis(19), 19, 1 << 19), (dyadic_basis(30), 30, 1 << 30),
        (arcs_basis(724), 724, 724 * 725 // 2)], ids=["dyadic-19",
                                                     "dyadic-30", "arcs-724"])
    def test_level_over_the_ceiling_is_rejected(self, basis, level, count):
        with pytest.raises(InvalidInputError, match=(
                f"^a basis level may hold at most {MAX_LEVEL_WINDOWS} "
                f"windows; {basis.kind} level {level} holds {count}$")):
            basis.measures_at(FULL, level)

    def test_level_at_the_ceiling_is_read(self):
        assert MAX_LEVEL_WINDOWS == 1 << 18
        S = make_set([(F(0), F(1, 3))])
        parts = dyadic_basis(18).measures_at(S, 18)
        assert len(parts) == MAX_LEVEL_WINDOWS
        assert sum((part for _, part, _ in parts), Scalar(0)) == S.measure()
        assert len(arcs_basis(723).measures_at(S, 723)) == 723 * 724 // 2

    def test_search_past_the_ceiling_is_rejected(self):
        # [0, 2**-20) is dense first at level 20; level 19 stops the search
        S = make_set([(F(0), F(1, 1 << 20))])
        with pytest.raises(InvalidInputError, match="dyadic level 19"):
            density_search(S, Scalar(F(1, 2)), dyadic_basis(30))
        # a search that ends before the ceiling is not affected
        assert density_search(make_set([(F(0), F(1, 2))]), Scalar(F(1, 2)),
                              dyadic_basis(30)).to_text() == "0..1/2"

    def test_coarse_levels_are_not_swept(self, monkeypatch):
        def refuse(self, L):
            raise AssertionError(f"a level of {L} cells swept")
        monkeypatch.setattr(IntervalSet, "cell_measures", refuse)
        # every arc up to denominator 361 is at least 1/361 wide, and
        # (1 - 1/2)/361 > 1/1000, so no window can be dense
        assert density_search(make_set([(F(0), F(1, 1000))]),
                              Scalar(F(1, 2)), arcs_basis(361)) is None
        # levels 0 to 18 are too coarse for [0, 2**-20); level 19 is past
        # the ceiling, which is checked before a level is passed over
        with pytest.raises(InvalidInputError, match="dyadic level 19"):
            density_search(make_set([(F(0), F(1, 1 << 20))]),
                           Scalar(F(1, 2)), dyadic_basis(30))

    def test_reduction_walks_a_deep_basis(self):
        # reduction takes its pairs lazily and reads no level whole
        rep = reduction_check(make_system("rotation:golden"), FULL,
                              dyadic_basis(30), sample=1,
                              epsilon=Scalar(F(1, 100)), n_max=400)
        assert rep.passed and len(rep.rows) == 2


class TestGapTheta:
    def test_theta_is_one_on_measurable_sets(self):
        B = make_set([(F(0), F(1, 2))])
        for J in dyadic_basis(3).elements():
            rep = gap_theta(B, J)
            assert rep.theta == ONE and rep.caratheodory_equality

    def test_parts_sum_to_window(self):
        B = make_set([(F(1, 5), F(2, 3))])
        J = make_set([(F(1, 4), F(3, 4))])
        rep = gap_theta(B, J)
        assert rep.part_in + rep.part_out == J.measure()

    @given(dyadic_sets(depth=5, max_parts=3, min_points=2),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=60)
    def test_theta_random(self, B, k):
        J = make_set([(F(k, 8), F(k + 1, 8))])
        assert gap_theta(B, J).theta == ONE


class TestInvariance:
    def test_full_and_empty_invariant(self):
        for d in ("rotation:golden", "doubling", "odometer"):
            T = make_system(d)
            assert invariance_check(T, T.full_set()).passed
            assert invariance_check(T, T.empty_set()).passed

    def test_third_rotation_invariant_set(self):
        T = Rotation(Scalar(F(1, 3)))
        assert invariance_check(T, RATIONAL_THIRD_INVARIANT).passed
        assert not invariance_check(T, make_set([(F(0), F(1, 6))])).passed


class TestReduction:
    def test_invariant_mode_passes(self):
        T = Rotation(Scalar(F(1, 3)))
        rep = reduction_check(T, RATIONAL_THIRD_INVARIANT, dyadic_basis(3),
                              sample=4, epsilon=Scalar(F(1, 100)),
                              n_max=40, stall_window=30)
        assert rep.note == "invariant"
        assert rep.passed

    @pytest.mark.parametrize("system", ["rotation:golden", "odometer"])
    @pytest.mark.parametrize("B", [FULL, EMPTY], ids=["full", "empty"])
    def test_invariant_mode_checks_converged_pairs(self, system, B):
        # every pair converges, so the inequality and the chain both count
        rep = reduction_check(make_system(system), B, dyadic_basis(2),
                              sample=3, epsilon=Scalar(F(1, 100)), n_max=400)
        assert (rep.note, rep.passed) == ("invariant", True)
        header, *rows = rep.rows
        assert header["mode"] == "invariant"
        assert [(row["J"], row["K"]) for row in rows] == [
            ("0..1/2", "1/2..1"), ("0..1/4", "1/4..1/2"),
            ("0..1/4", "1/2..3/4")]
        assert all(row["status"] == "converged" and row["pass"]
                   and row["chain"] for row in rows)

    def test_arcs_basis_pairs_equal_measures(self):
        # each level of arcs also holds arcs of other lengths, 0..1 among
        # them, so only the equal-measure pairs reach a splinter run
        rep = reduction_check(make_system("rotation:golden"),
                              make_set([(F(1, 4), F(1, 2))]), arcs_basis(4),
                              sample=5, epsilon=Scalar(F(1, 100)), n_max=400)
        assert (rep.note, rep.passed) == ("diagnostic", True)
        assert [tuple(row.values()) for row in rep.rows[1:]] == [
            ("0..1/2", "1/2..1", "converged", "0", "6/25", False, True),
            ("0..1/3", "1/3..2/3", "converged", "1/6", "11/150", True, True),
            ("0..1/3", "2/3..1", "converged", "0", "11/150", False, True),
            ("0..2/3", "1/3..1", "converged", "1/6", "6/25", False, True),
            ("1/3..2/3", "2/3..1", "converged", "0", "47/300", False, True)]
        assert list(rep.rows[1]) == ["J", "K", "status", "mu_B_K",
                                     "mu_B_J_minus_eps", "pass", "chain"]

    @pytest.mark.parametrize("sample", [-1, 1.5, "3"])
    def test_rejects_bad_sample(self, sample):
        with pytest.raises(InvalidInputError, match="sample"):
            reduction_check(Rotation(Scalar(F(1, 3))), FULL, dyadic_basis(2),
                            sample=sample, epsilon=Scalar(F(1, 100)),
                            n_max=40)

    @pytest.mark.parametrize("basis, sample, kwargs, name", [
        (dyadic_basis(2), 0, {"n_max": 2.5, "component_budget": F(1, 2)},
         "n_max"),
        (dyadic_basis(0), 5, {"n_max": -7}, "n_max"),
        (dyadic_basis(2), 3, {"n_max": 40, "stall_window": 0},
         "stall_window"),
        (dyadic_basis(2), 3, {"n_max": 40, "stall_window": 2.0},
         "stall_window"),
        (dyadic_basis(2), 0, {"n_max": 40, "component_budget": 0.5},
         "component_budget"),
        (dyadic_basis(2), 3, {"n_max": 40, "component_budget": 0},
         "component_budget"),
    ], ids=["n_max-float-no-sample", "n_max-negative-no-pair",
            "stall_window-0", "stall_window-float", "budget-float",
            "budget-0"])
    def test_rejects_bad_walk_arguments(self, basis, sample, kwargs, name):
        # checked on entry, also when no pair reaches a splinter run
        with pytest.raises(InvalidInputError, match=f"^{name} must be"):
            reduction_check(Rotation(Scalar(F(1, 3))), FULL, basis,
                            sample=sample, epsilon=Scalar(F(1, 100)),
                            **kwargs)

    def test_diagnostic_mode_for_non_invariant(self):
        T = Doubling()
        rep = reduction_check(T, make_set([(F(0), F(1, 3))]), dyadic_basis(2),
                              sample=2, epsilon=Scalar(F(1, 16)), n_max=10,
                              component_budget=1 << 12)
        assert rep.note == "diagnostic"


class TestMixing:
    def test_doubling_trace_identically_zero(self):
        C = make_set([(F(0), F(1, 2))])
        trace = mixing_trace(Doubling(), C, C, 8)
        assert all(x.sign() == 0 for x in trace)

    def test_doubling_average_is_product(self):
        C = make_set([(F(0), F(1, 2))])
        avg = correlation_average(Doubling(), C, C, 8)
        assert avg == Scalar(F(1, 4))

    def test_odometer_period_two_correlation(self):
        # psi^-1 swaps [0,1/2) and [1/2,1), so the correlation alternates
        # 0, 1/2 and every even-length average is exactly 1/4
        C = make_set([(F(0), F(1, 2))])
        assert correlation_average(Odometer(), C, C, 2) == Scalar(F(1, 4))
        assert correlation_average(Odometer(), C, C, 3) == Scalar(F(1, 6))

    def test_odometer_trace_does_not_vanish(self):
        C = make_set([(F(0), F(1, 2))])
        trace = mixing_trace(Odometer(), C, C, 8)
        assert any(x.sign() != 0 for x in trace)

    def test_full_set_trivial_correlation(self):
        trace = mixing_trace(Doubling(), FULL, FULL, 4)
        assert all(x.sign() == 0 for x in trace)

    def test_doubling_trace_builds_no_fraction(self, monkeypatch):
        # scalars are integer triples: preimages, set operations, measures
        # and the subtraction of the product allocate no Fraction
        C = make_set([(F(0), F(1, 3))])
        D = make_set([(F(1, 5), F(7, 10))])
        expected = mixing_trace(Doubling(), C, D, 8)
        calls = 0
        build = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal calls
            calls += 1
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        trace = mixing_trace(Doubling(), C, D, 8)
        monkeypatch.undo()
        assert calls == 0
        assert trace == expected


def _every_step(T, C, D, n, budget=1 << 16):
    """mu(T^-j C n D) - mu(C) mu(D) for j = 1..n, one preimage per step
    and no period: the reference for ``mixing_trace``."""
    product = C.measure() * D.measure()
    S, out = C, []
    for _ in range(n):
        S = T.preimage(S)
        if S.component_count() > budget:
            raise ComponentBudgetError(
                f"{S.component_count()} components exceed budget {budget}")
        out.append(S.intersect(D).measure() - product)
    return out


def _mixing_inputs(system, C, D):
    T = make_system(system)
    tag = getattr(getattr(T, "angle", None), "tag", None)
    return T, from_text(C, tag), from_text(D, tag)


def _counted(monkeypatch, T):
    """T with its ``preimage`` calls counted in the returned list's one
    entry."""
    calls = [0]
    preimage = T.preimage

    def counting(S):
        calls[0] += 1
        return preimage(S)

    monkeypatch.setattr(T, "preimage", counting)
    return calls


class TestPeriodicOrbit:
    """An orbit that returns to C (T^-p C = C) is walked once."""

    #: (system, C, D, the least p with T^-p C = C)
    PERIODIC = [
        ("odometer", "0..1/2", "0..1/2", 2),
        ("odometer", "1/4..1/2", "1/8..5/8", 4),
        ("odometer", "0..1/4, 1/2..3/4", "1/3..1", 4),
        ("odometer", "1/8..1/4", "0..3/8", 8),
        ("odometer", "0..3/16, 5/16..3/8", "1/4..3/4", 16),
        ("odometer", "1/32..1/16", "1/5..7/10", 32),
        ("odometer", "3/32..1/8, 1/2..17/32", "0..1/3", 32),
        ("odometer", "0..1/2, tail(zero, 3, odd)", "1/4..3/4", 2),
        ("rotation:1/2", "1/3..1/2", "0..1/2", 2),
        ("rotation:1/3", "0..1/5", "0..1/2", 3),
        ("rotation:2/7", "0..1/2", "1/9..4/9", 7),
        ("rotation:5/13", "1/7..2/3", "1/4..1/2", 13),
        ("doubling", "0..1", "1/5..7/10", 1),
    ]
    #: (system, C, D): no preimage of C is C; lengths probed as for p = 3
    APERIODIC = [
        ("odometer", "1/3..1/2", "0..1/2"),
        ("rotation:golden", "0..1/5", "0..1/2"),
        ("rotation:sqrt2", "1/4..1/3", "0..1/2"),
        ("doubling", "0..1/3", "1/5..7/10"),
    ]

    @staticmethod
    def _lengths(p):
        return sorted({1, max(p - 1, 1), p, p + 1, 3 * p, 3 * p + 1,
                       3 * p + p // 2})

    @pytest.mark.parametrize("system,C,D,p",
                             PERIODIC + [(*case, 3) for case in APERIODIC])
    def test_matches_a_walk_of_every_step(self, system, C, D, p):
        T, C, D = _mixing_inputs(system, C, D)
        product = C.measure() * D.measure()
        for n in self._lengths(p):
            expected = _every_step(T, C, D, n)
            assert mixing_trace(T, C, D, n) == expected
            assert correlation_average(T, C, D, n) == (
                sum(expected, Scalar(0)) / Scalar(n) + product)

    @pytest.mark.parametrize("system,C,D,p", PERIODIC)
    def test_walks_one_period(self, monkeypatch, system, C, D, p):
        T, C, D = _mixing_inputs(system, C, D)
        calls = _counted(monkeypatch, T)
        mixing_trace(T, C, D, 5 * p + 1)
        correlation_average(T, C, D, 7 * p + 2)
        assert calls[0] == 2 * p

    def test_odometer_cell_average_in_eight_preimages(self, monkeypatch):
        T = Odometer()
        C = make_set([(F(1, 8), F(1, 4))])
        D = make_set([(F(1, 5), F(7, 10))])
        calls = _counted(monkeypatch, T)
        avg = correlation_average(T, C, D, 10 ** 4)
        assert calls[0] == 8
        assert avg == C.measure() * D.measure()

    @pytest.mark.parametrize("budget,step", [(1, 2), (2, 4)])
    def test_budget_fires_at_the_same_step(self, monkeypatch, budget, step):
        # the orbit of C, period 16, has 1, 2, 2, 3, ... components, so the
        # budget fires inside the first period, after the walk began
        T, C, D = _mixing_inputs("odometer", "11/16..15/16", "1/4..3/4")
        with pytest.raises(ComponentBudgetError) as ref:
            _every_step(T, C, D, 16, budget)
        assert str(ref.value) == (
            f"{budget + 1} components exceed budget {budget}")
        for walk in (mixing_trace, correlation_average):
            calls = _counted(monkeypatch, T)
            with pytest.raises(ComponentBudgetError) as exc:
                walk(T, C, D, 10 ** 6, component_budget=budget)
            monkeypatch.undo()
            assert str(exc.value) == str(ref.value)
            assert calls[0] == step

    @pytest.mark.parametrize("m", [0, -3])
    def test_average_rejects_m_below_one(self, m):
        C = make_set([(F(1, 8), F(1, 4))])
        with pytest.raises(InvalidInputError, match="m must be"):
            correlation_average(Odometer(), C, C, m)

    def test_empty_trace(self):
        C = make_set([(F(1, 8), F(1, 4))])
        assert mixing_trace(Odometer(), C, C, 0) == []

    @pytest.mark.parametrize("n_max", [-1, 2.5, "3"])
    def test_trace_rejects_bad_n_max(self, n_max):
        C = make_set([(F(1, 8), F(1, 4))])
        with pytest.raises(InvalidInputError,
                           match="^n_max must be an int >= 0, not "):
            mixing_trace(Odometer(), C, C, n_max)

    def test_average_rejects_m_not_an_int(self):
        C = make_set([(F(1, 8), F(1, 4))])
        with pytest.raises(InvalidInputError,
                           match="^m must be an int >= 1, not 2.5$"):
            correlation_average(Odometer(), C, C, 2.5)

    @pytest.mark.parametrize("walk", [mixing_trace, correlation_average])
    @pytest.mark.parametrize("budget", [0, 0.5, None])
    def test_walks_reject_bad_component_budget(self, walk, budget):
        C = make_set([(F(1, 8), F(1, 4))])
        with pytest.raises(InvalidInputError,
                           match="^component_budget must be an int >= 1"):
            walk(Odometer(), C, C, 4, component_budget=budget)
