"""Measure bases, density searches, the theta gap, and mixing diagnostics.

Outer measure on arbitrary sets is out of computational reach; every
quantity here is evaluated on representable (hence measurable) sets, where
outer measure equals measure.  Every run trace header, and the first row
of ``reduction_check``, carry that restriction notice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, cycle, islice
from typing import Iterator, Optional

from .dynamics import SetLike, Transformation
from .errors import ComponentBudgetError, InvalidInputError, check_count
from .intervals import IntervalSet, arc
from .scalars import ONE, ZERO, Scalar, _make
from .splinter import (CONVERGED, CheckReport, DEFAULT_COMPONENT_BUDGET,
                       splinter, transport_check)

RESTRICTION_NOTICE = ("outer measure evaluated as measure on representable "
                      "(measurable) sets, where the two agree")


#: the most windows one basis level may hold: ``measures_at`` reads a level
#: whole, and the gap over 2**18 dyadic windows takes about four seconds
#: (Python 3.11, one core of a shared 2-core x86 machine)
MAX_LEVEL_WINDOWS = 1 << 18


class MeasureBasis:
    """Enumerable family of positive-measure intervals used as probes.

    Dyadic: all intervals [k 2^-d, (k+1) 2^-d) by increasing depth d then
    left to right.  Arcs: intervals with rational endpoints of bounded
    denominator, by increasing denominator then lexicographic endpoints.
    A level is read whole by ``measures_at``, so it may hold at most
    ``MAX_LEVEL_WINDOWS`` windows.
    """

    def __init__(self, kind: str, bound: int):
        if kind not in ("dyadic", "arcs"):
            raise InvalidInputError(f"unknown basis kind {kind!r}")
        if bound < 0 or (kind == "arcs" and bound < 1):
            raise InvalidInputError("basis bound out of range")
        self.kind = kind
        self.bound = bound  # depth_max for dyadic, denominator_max for arcs

    def levels(self) -> Iterator[int]:
        if self.kind == "dyadic":
            return iter(range(self.bound + 1))
        return iter(range(1, self.bound + 1))

    def _ends(self, level: int) -> tuple[int, Iterator[tuple[int, int]]]:
        """The cell count L of `level` and its windows [a/L, b/L) as the
        pairs (a, b), in order."""
        if self.kind == "dyadic":
            L = 1 << level
            return L, ((k, k + 1) for k in range(L))
        return level, ((a, b) for a in range(level)
                       for b in range(a + 1, level + 1))

    def elements_at(self, level: int) -> Iterator[IntervalSet]:
        L, ends = self._ends(level)
        return (arc(a, b, L) for a, b in ends)

    def elements(self) -> Iterator[IntervalSet]:
        for level in self.levels():
            yield from self.elements_at(level)

    def measures_at(self, S: IntervalSet, level: int
                    ) -> list[tuple[IntervalSet, Scalar, Scalar]]:
        """(J, mu(S n J), mu(J)) for each element J at `level`, in order.

        One ``S.cell_measures`` sweep reads the level: a dyadic window is
        a cell, and an arc [a/L, b/L) the difference of two prefix sums of
        the cells.  A level of more than ``MAX_LEVEL_WINDOWS`` windows is
        an ``InvalidInputError``."""
        L, ends = self._ends(level)
        count = L if self.kind == "dyadic" else L * (L + 1) // 2
        if count > MAX_LEVEL_WINDOWS:
            raise InvalidInputError(
                f"a basis level may hold at most {MAX_LEVEL_WINDOWS} "
                f"windows; {self.kind} level {level} holds {count}")
        cells = S.cell_measures(L)
        if self.kind == "dyadic":
            width = _make(1, 0, L, None)
            return [(arc(k, k + 1, L), part, width)
                    for k, part in enumerate(cells)]
        sums = list(accumulate(cells, initial=ZERO))
        widths = [_make(k, 0, L, None) for k in range(L + 1)]
        return [(arc(a, b, L), sums[b] - sums[a], widths[b - a])
                for a, b in ends]


def dyadic_basis(depth_max: int) -> MeasureBasis:
    return MeasureBasis("dyadic", depth_max)


def arcs_basis(denominator_max: int) -> MeasureBasis:
    return MeasureBasis("arcs", denominator_max)


# ---------------------------------------------------------------------
# density
# ---------------------------------------------------------------------

def _density_bar(epsilon: Scalar, *sets: IntervalSet) -> Scalar:
    """The input check of both density searches, then 1 - eps: a window J
    is dense for S when mu(S n J) > (1 - eps) mu(J), exactly."""
    if not (Scalar(0) < epsilon < ONE):
        raise InvalidInputError("epsilon must lie strictly between 0 and 1")
    if any(S.measure().sign() <= 0 for S in sets):
        raise InvalidInputError("every set must have positive measure")
    return ONE - epsilon


def _dense_at(S: IntervalSet, bar: Scalar, basis: MeasureBasis,
              level: int) -> Iterator[tuple[IntervalSet, Scalar]]:
    """(J, mu(J)) for each element J at `level` dense for S, in order."""
    for J, part, width in basis.measures_at(S, level):
        if part > bar * width:
            yield J, width


def density_search(S: IntervalSet, epsilon: Scalar,
                   basis: MeasureBasis) -> Optional[IntervalSet]:
    """First basis element J with mu(S n J) > (1 - eps) mu(J), exactly.

    The inequality is strict; returns None when the basis is exhausted.
    """
    bar = _density_bar(epsilon, S)
    for level in basis.levels():
        for J, _ in _dense_at(S, bar, basis, level):
            return J
    return None


def density_pair(A1: IntervalSet, A2: IntervalSet, epsilon: Scalar,
                 basis: MeasureBasis):
    """Equal-measure basis elements that are dense windows for A1 and A2.

    Searches level by level so the two returned elements always have
    exactly equal measure.  Returns (J1, J2), or (partial1, partial2) with
    one or both None when the depth bound is exhausted.
    """
    bar = _density_bar(epsilon, A1, A2)
    best1 = best2 = None
    for level in basis.levels():
        found1 = list(_dense_at(A1, bar, basis, level))
        found2 = list(_dense_at(A2, bar, basis, level))
        for J1, width1 in found1:
            for J2, width2 in found2:
                if width1 == width2:
                    return J1, J2
        best1 = best1 or (found1[0][0] if found1 else None)
        best2 = best2 or (found2[0][0] if found2 else None)
    return best1, best2


# ---------------------------------------------------------------------
# the theta gap
# ---------------------------------------------------------------------

@dataclass
class GapReport:
    theta: Scalar
    part_in: Scalar
    part_out: Scalar
    caratheodory_equality: bool


def gap_theta(B: IntervalSet, J: IntervalSet) -> GapReport:
    """theta = (mu(B n J) + mu(Bc n J)) / mu(J); exactly 1 for measurable B."""
    return _gap_theta(B.intersect(J).measure(),
                      B.complement().intersect(J).measure(), J.measure())


def _gap_theta(part_in: Scalar, part_out: Scalar, mu_j: Scalar) -> GapReport:
    """The report of a window J of measure mu_j, from mu(B n J) and
    mu(Bc n J) measured apart (``MeasureBasis.measures_at`` of B and of
    Bc for a basis level)."""
    if mu_j.sign() <= 0:
        raise ValueError("probe window must have positive measure")
    total = part_in + part_out
    if total == mu_j:
        theta = ONE
    else:
        theta = total / mu_j  # mu_j rational for basis probes
    return GapReport(theta, part_in, part_out, theta == ONE)


# ---------------------------------------------------------------------
# invariance and the reduction hypothesis
# ---------------------------------------------------------------------

def invariance_check(T: Transformation, B: SetLike) -> CheckReport:
    """Is B exactly T-invariant (T^-1 B = B)?  Reports the defect measure."""
    pre = T.preimage(B)
    sym = pre.subtract(B).union(B.subtract(pre))
    ok = sym.is_empty()
    report = CheckReport("invariance", ok)
    report.rows.append({"invariant": ok,
                        "symmetric_difference_measure": sym.measure().to_text()})
    return report


def reduction_check(T: Transformation, B: IntervalSet, basis: MeasureBasis,
                    sample: int, epsilon: Scalar, n_max: int,
                    stall_window: Optional[int] = None,
                    component_budget: int = DEFAULT_COMPONENT_BUDGET) -> CheckReport:
    """Probe mu(B n K) >= mu(B n J) - eps over equal-measure basis pairs.

    Each pair is connected through a splinter run; pairs whose splinter
    does not converge are reported as non-converged (expected for
    non-ergodic systems), not as failures of the inequality.  `sample`,
    the number of pairs probed, is an int >= 0.
    """
    check_count("sample", sample, 0)
    check_count("n_max", n_max)
    if stall_window is not None:
        check_count("stall_window", stall_window)
    check_count("component_budget", component_budget)
    inv = invariance_check(T, B)
    mode = "invariant" if inv.passed else "diagnostic"
    report = CheckReport("reduction-hypothesis", True, note=mode)
    report.rows.append({"restriction": RESTRICTION_NOTICE, "mode": mode})
    pairs = islice(((J, K) for level in basis.levels()
                    for J, K in combinations(basis.elements_at(level), 2)
                    if J.measure() == K.measure()), sample)
    for J, K in pairs:
        d = splinter(T, J, K, epsilon, n_max, stall_window=stall_window,
                     component_budget=component_budget)
        row = {"J": J.to_text(), "K": K.to_text(), "status": d.status}
        if d.status == CONVERGED:
            lhs = B.intersect(K).measure()
            rhs = B.intersect(J).measure() - epsilon
            ok = lhs >= rhs
            chain = transport_check(d, B)
            row.update({"mu_B_K": lhs.to_text(), "mu_B_J_minus_eps": rhs.to_text(),
                        "pass": ok, "chain": chain.passed})
            if inv.passed:
                report.passed &= ok and chain.passed
        report.rows.append(row)
    return report


# ---------------------------------------------------------------------
# correlation diagnostics
# ---------------------------------------------------------------------

def _check_budget(S: SetLike, budget: int) -> None:
    if S.component_count() > budget:
        raise ComponentBudgetError(
            f"{S.component_count()} components exceed budget {budget}")


def _correlations(T: Transformation, C: SetLike, D: SetLike, n: int,
                  budget: int) -> list[Scalar]:
    """mu(T^-j C n D) for j = 1..p: one period of the sequence j = 1..n.

    One preimage per step, each compared with C by ``equals``: the walk
    stops at the first j = p <= n with T^-p C = C, else at j = n.  A
    preimage depends only on its set, so T^-j C = T^-(j-p) C from there
    on, and the sequence for j = 1..n is these p values repeated; the sets
    past the first period were checked against ``budget`` already.  The
    odometer with dyadic C and ``rotation:p/q`` return to C; a doubling
    preimage does not, and ``equals`` rejects it by its denominator.
    """
    period = []
    S = C
    for _ in range(n):
        S = T.preimage(S)
        _check_budget(S, budget)
        period.append(S.intersect(D).measure())
        if S.equals(C):
            break
    return period


def correlation_average(T: Transformation, C: SetLike, D: SetLike, m: int,
                        component_budget: int = DEFAULT_COMPONENT_BUDGET) -> Scalar:
    """(1/m) * sum_{j=1..m} mu(T^-j C n D), exactly, for an int m >= 1.

    The sum is q sums of one period of p values and the first r of them,
    for q, r = divmod(m, p), so an orbit that returns to C is walked once.
    """
    check_count("m", m)
    check_count("component_budget", component_budget)
    period = _correlations(T, C, D, m, component_budget)
    q, r = divmod(m, len(period))
    return (sum(period, Scalar(0)) * q
            + sum(period[:r], Scalar(0))) / Scalar(m)


def mixing_trace(T: Transformation, C: SetLike, D: SetLike, n_max: int,
                 component_budget: int = DEFAULT_COMPONENT_BUDGET) -> list[Scalar]:
    """The sequence mu(T^-j C n D) - mu(C) mu(D) for j = 1..n_max, exact.

    Identically zero along a mixing direction; for merely ergodic systems
    the excursions persist while the Cesaro averages still converge.  An
    orbit that returns to C is walked once: the list repeats its period,
    one value object per distinct j mod p.
    """
    check_count("n_max", n_max, 0)
    check_count("component_budget", component_budget)
    product = C.measure() * D.measure()
    period = [c - product
              for c in _correlations(T, C, D, n_max, component_budget)]
    return list(islice(cycle(period), n_max))
