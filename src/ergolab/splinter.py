"""The splinter construction: pull the mass of one window back onto another.

Given a transformation T and two equal-measure windows J1, J2, the engine
builds the sequences

    A_1 = T^-1(J1) n J2,                 B_1 = T^-1(J1) \\ A_1
    A_n = T^-1(B_{n-1}) n (J2 \\ U A_i),  B_n = T^-1(B_{n-1}) \\ A_n

tracking every exact identity the construction satisfies.  For an ergodic
T the residual measure mu(B_n) tends to 0; for a non-ergodic T it can stall
at a positive constant, which the engine detects and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

from .dynamics import SetLike, Transformation
from .errors import (ErgolabError, InvalidInputError, InvariantViolation,
                     check_count)
from .intervals import EMPTY, ShiftSteps
from .scalars import ZERO, Scalar

DEFAULT_COMPONENT_BUDGET = 1 << 16

CONVERGED = "converged"
STALLED = "stalled"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class StepRecord:
    """The measures of one step; its number is its place in ``d.trace``."""
    measure_A: Scalar
    measure_B: Scalar
    components_B: int
    covered_measure: Scalar


class Residuals(Sequence):
    """B_1 .. B_n of a run, each built on access.

    Step n stores (anchor, k): B_n is the set `anchor` when k is None,
    else ``anchor.moved(k)``, step k of a ``ShiftSteps`` walk.  Indexing
    takes negative indices and slices; a slice is a list.
    """

    __slots__ = ("_steps",)

    def __init__(self):
        self._steps: list = []

    def append(self, anchor, k=None) -> None:
        self._steps.append((anchor, k))

    def extend(self, steps, k: int, count: int) -> None:
        """Append steps k .. k + count - 1 of the walk ``steps``."""
        self._steps += zip(repeat(steps, count), range(k, k + count))

    def __len__(self) -> int:
        return len(self._steps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_residual(*step) for step in self._steps[i]]
        return _residual(*self._steps[i])

    def __iter__(self):
        return (_residual(*step) for step in self._steps)


def _residual(anchor, k) -> SetLike:
    return anchor if k is None else anchor.moved(k)


@dataclass
class SplinterDecomposition:
    transformation: Transformation
    J1: SetLike
    J2: SetLike
    epsilon: Scalar
    n_max: int
    splinters: list = field(default_factory=list)   # A_1 .. A_n
    residuals: Sequence = field(default_factory=Residuals)   # B_1 .. B_n
    trace: list = field(default_factory=list)   # StepRecords
    status: str = BUDGET_EXHAUSTED

    @property
    def depth(self) -> int:
        return len(self.splinters)


@dataclass
class CheckReport:
    name: str
    passed: bool
    rows: list = field(default_factory=list)
    note: str = ""


def _runs(T: Transformation, J1: SetLike, J2: SetLike, n_max: int):
    """Steps 1 .. n_max of the recursion from B_0 = J1, one item per run
    of steps with one outcome: (A_n, anchor, k, length, values,
    mu(J2 \\ cover)) for the run's first step n.  B_n is
    ``_residual(anchor, k)`` and ``values`` is (mu(A_n), mu(B_n), component
    count of B_n, mu(cover)); step n + i of the run differs from step n
    only in B_n, ``_residual(anchor, k + i)``.

    After step 0 and each productive step, when T^-1 is a translation by t
    and neither B nor J2 \\ cover has a tail, a ``ShiftSteps`` walk of B
    against J2 \\ cover gives the steps: B_n is the last productive step's
    B_p moved by (n - p)*t, and a run of steps with empty A_n is one item
    that costs no set operation.  Otherwise a step is one ``T.preimage``.
    A step with empty A_n keeps the cover, and B_n is the preimage itself.
    """
    shift = T.translation()
    B, cover, avail = J1, J2.subtract(J2), J2
    mb, mc, m_avail = J1.measure(), cover.measure(), J2.measure()
    n = 0  # the steps taken
    while n < n_max:
        if shift is not None and not (B.tails or avail.tails):
            steps = ShiftSteps(B, avail, shift)
            for meets, count, k, length in steps.runs(n_max - n):
                n += length
                if meets:
                    break
                # B_n is B moved by step k's shift: B's measure, and the
                # walk counted it
                yield EMPTY, steps, k, length, (ZERO, mb, count, mc), m_avail
            else:
                return
            pre = steps.moved(k)
        else:
            n += 1
            pre = T.preimage(B)
        A = pre.intersect(avail)
        if A.is_empty():
            B, ma = pre, ZERO
        else:
            B = pre.subtract(A)
            cover = cover.union(A)
            avail = J2.subtract(cover)
            ma, mc, m_avail = A.measure(), cover.measure(), avail.measure()
        mb = B.measure()
        yield A, B, None, 1, (ma, mb, B.component_count(), mc), m_avail


def splinter(T: Transformation, J1: SetLike, J2: SetLike, epsilon: Scalar,
             n_max: int, stall_window: Optional[int] = None,
             component_budget: int = DEFAULT_COMPONENT_BUDGET) -> SplinterDecomposition:
    """Run the splinter recursion until convergence, stall or budget.

    The steps come from ``_runs``, one item per run of steps with one
    outcome; ``splinter`` keeps their records, checks and stops.  A run is cut
    where a step of it would end the run (``n_max``, the stall window, the
    component budget), and its steps share one ``StepRecord``.  A step
    whose mu(A_n), mu(B_n), component count and covered measure equal the
    step before's appends that step's record to ``d.trace`` again; step n's
    record is ``d.trace[n - 1]``.  The residual identity, mass conservation
    and A_n within J2 are checked, and the stop rule mu(B_n) < epsilon
    decided, at the first step of each run that computes mu(B_n) anew: the
    values they read are the same objects at every later step of the run,
    and at every step of a walk's run with empty A_n.

    An error that ends the run after it started carries the steps completed
    so far as its ``decomposition`` attribute.
    """
    mu1, mu2 = J1.measure(), J2.measure()
    if mu1 != mu2:
        raise InvalidInputError(
            f"windows must have equal measure: {mu1} != {mu2}")
    if mu1.sign() <= 0:
        raise InvalidInputError("windows must have positive measure")
    if epsilon.sign() <= 0:
        raise InvalidInputError("epsilon must be positive")
    check_count("n_max", n_max)
    if stall_window is not None:
        check_count("stall_window", stall_window)
    check_count("component_budget", component_budget)
    window = stall_window if stall_window is not None else T.stall_window()

    d = SplinterDecomposition(T, J1, J2, epsilon, n_max)
    # consecutive steps with empty A after step 1; mu(B) is unchanged
    # over them, since the residual identity pins it to mu(J2 \\ cover)
    flat = 0
    # the values of the last record, ``rec``
    last = None
    # mu(B_n) as of the last check: a walk repeats it, and every operand
    # of the checks, over the steps after a productive one
    checked = None
    try:
        for A_n, anchor, k, length, values, m_avail in _runs(T, J1, J2,
                                                            n_max):
            d.splinters.append(A_n)
            d.residuals.append(anchor, k)
            if values != last:
                rec, last = StepRecord(*values), values
            d.trace.append(rec)
            n = len(d.trace)
            _, mb, count, mc = values
            if mb is not checked:
                # exact invariants of the construction
                if mb != m_avail:
                    raise InvariantViolation(
                        f"residual identity violated at step {n}")
                if mc + mb != mu1:
                    raise InvariantViolation(
                        f"mass conservation violated at step {n}")
                if not A_n.subtract(J2).is_empty():
                    raise InvariantViolation(
                        f"splinter escaped J2 at step {n}")
                if mb < epsilon:
                    d.status = CONVERGED
                    break
                checked = mb
            flat = 0 if n == 1 or not A_n.is_empty() else flat + 1
            if length > 1 and count <= component_budget:
                # the rest of the run, up to the step that fills the stall
                # window; each step of it adds one to ``flat``
                rest = length - 1
                if window is not None:
                    rest = min(rest, window - flat)
                d.splinters += repeat(A_n, rest)
                d.trace += repeat(rec, rest)
                d.residuals.extend(anchor, k + 1, rest)
                flat += rest
            if window is not None and flat >= window:
                d.status = STALLED
                break
            if count > component_budget:
                break  # d.status is BUDGET_EXHAUSTED, as at n_max
    except ErgolabError as exc:
        exc.decomposition = d
        raise
    return d


def verify_decomposition(d: SplinterDecomposition) -> CheckReport:
    """Replay the recursion from J1 and check every recorded step.

    The replay reuses nothing of the run: from B = J1 it takes
    A = T^-1 B n (J2 \\ U A_i), then B = T^-1 B \\ A.  Each step's row
    holds three booleans:

    - ``same_sets``: the replayed A and B equal the recorded A_n and B_n,
      so the recorded splinters are disjoint and inside J2;
    - ``residual_identity``: mu(B_n) = mu(J2 \\ U A_i);
    - ``mass_conservation``: sum mu(A_i) + mu(B_n) = mu(J1);

    the two identities read the recorded sets.
    """
    report = CheckReport("decomposition", True)
    T, J2, mu1 = d.transformation, d.J2, d.J1.measure()
    B, cover, recorded_cover = d.J1, J2.subtract(J2), J2.subtract(J2)
    total = mu1 - mu1
    for n, (A_n, B_n) in enumerate(zip(d.splinters, d.residuals), start=1):
        pre = T.preimage(B)
        A = pre.intersect(J2.subtract(cover))
        B = pre.subtract(A)
        cover = cover.union(A)
        recorded_cover = recorded_cover.union(A_n)
        total = total + A_n.measure()
        mb = B_n.measure()
        same = A.equals(A_n) and B.equals(B_n)
        residual = mb == J2.subtract(recorded_cover).measure()
        mass = total + mb == mu1
        report.rows.append({"step": n, "same_sets": same,
                            "residual_identity": residual,
                            "mass_conservation": mass})
        report.passed &= same and residual and mass
    return report


def verify_orbit_decomposition(d: SplinterDecomposition,
                               n: int) -> CheckReport:
    """T^-n(J1) is the disjoint union B_n u U_{i<=n} T^{i-n}(A_i) for
    the run's T."""
    if n < 1 or n > d.depth:
        raise ValueError(f"step {n} outside recorded depth {d.depth}")
    T = d.transformation
    lhs = d.J1
    for _ in range(n):
        lhs = T.preimage(lhs)
    parts = [d.residuals[n - 1]]
    for i in range(1, n + 1):
        piece = d.splinters[i - 1]
        for _ in range(n - i):
            piece = T.preimage(piece)
        parts.append(piece)
    report = CheckReport(f"orbit-decomposition(n={n})", True)
    union = parts[0]
    disjoint = True
    for piece in parts[1:]:
        if not union.intersect(piece).is_empty():
            disjoint = False
        union = union.union(piece)
    equal = union.equals(lhs)
    total = parts[0].measure()
    for piece in parts[1:]:
        total = total + piece.measure()
    measures_ok = total == lhs.measure()
    report.passed = disjoint and equal and measures_ok
    report.rows.append({"step": n, "disjoint": disjoint, "set_equal": equal,
                        "measures_sum": measures_ok,
                        "measure_lhs": lhs.measure().to_text()})
    return report


def transport_check(d: SplinterDecomposition, B: SetLike) -> CheckReport:
    """The transport chain mu(J1 n B) <= mu(B_n n B) + sum mu(A_i n B).

    For B invariant under the run's T the chain holds exactly at every
    step and the final step yields mu(J1 n B) <= mu(J2 n B) + mu(B_n).
    For non-invariant B the chain is evaluated diagnostically and failures
    are recorded rather than raised.
    """
    invariant = d.transformation.preimage(B).equals(B)
    mode = "invariant" if invariant else "diagnostic"
    report = CheckReport("transport-chain", True, note=mode)
    lhs = d.J1.intersect(B).measure()
    running = lhs - lhs
    for n, (A_n, B_n) in enumerate(zip(d.splinters, d.residuals), start=1):
        running = running + A_n.intersect(B).measure()
        bound = B_n.intersect(B).measure() + running
        ok = lhs <= bound
        report.rows.append({"step": n, "lhs": lhs.to_text(),
                            "bound": bound.to_text(), "pass": ok})
        if invariant:
            report.passed &= ok
    if d.residuals:
        final = d.J2.intersect(B).measure() + d.residuals[-1].measure()
        ok = lhs <= final
        report.rows.append({"step": "limit", "lhs": lhs.to_text(),
                            "bound": final.to_text(), "pass": ok})
        if invariant:
            report.passed &= ok
    return report


def additivity_check(A_list: Sequence[SetLike], B: SetLike,
                     n_tail: int) -> CheckReport:
    """Finite additivity over a disjoint family, with tail monotonicity.

    Checks mu(U_{i<=k} (A_i n B)) = sum_{i<=k} mu(A_i n B) for k <= n_tail
    and that the tail measures mu(U_{i>=k} A_i) are non-increasing.
    """
    A_list = list(A_list)
    for i, a in enumerate(A_list):
        for b in A_list[i + 1:]:
            if not a.intersect(b).is_empty():
                raise ValueError("family is not pairwise disjoint")
    report = CheckReport("finite-additivity", True)
    k_max = min(n_tail, len(A_list))
    if not A_list:
        return report
    union = A_list[0].subtract(A_list[0])
    total = union.measure()
    for k in range(1, k_max + 1):
        cut = A_list[k - 1].intersect(B)
        union = union.union(cut)
        total = total + cut.measure()
        ok = union.measure() == total
        report.rows.append({"k": k, "union_measure": union.measure().to_text(),
                            "sum_measure": total.to_text(), "pass": ok})
        report.passed &= ok
    # tail monotonicity
    prev = None
    for k in range(k_max):
        tail = A_list[k]
        for a in A_list[k + 1:]:
            tail = tail.union(a)
        m = tail.measure()
        if prev is not None and not m <= prev:
            report.passed = False
            report.rows.append({"tail_from": k + 1, "pass": False})
        prev = m
    return report
