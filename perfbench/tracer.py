"""Span tracing of the ergolab layers, installed from outside the program.

Wrappers replace each public entry point at every place its name is bound
(class attributes, and module globals that other modules imported by name),
so ``src/`` needs no hooks.  Removing them restores the original objects.

Every wrapped call counts, and its self time (duration minus the time its
child spans cover) is summed per span name.  Coarse spans (set operations,
preimages, splinter runs, harness steps) are also kept as records of name,
start, end, parent and task id; scalar calls are too many to keep one by one
(millions per pass of a pool), so they are aggregated only.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

SET_OPS = ("union", "intersect", "subtract", "complement")
SYSTEMS = ("rotation", "doubling", "odometer", "kakutani")
_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__neg__", "floor", "mod1")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()       # derived counters, see the hooks
        self.spans = []               # (name, start, end, parent, task)
        self.task = -1
        self._covered = [0.0]         # child-covered time of each open span
        self._open = [-1]             # span index of each open recorded span
        self._depth = Counter()       # open recorded spans by name
        self._seen = set()            # (system, input set hash) this task
        self._patches = []

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name, fn, record=False, hook=None):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        covered, opened, spans = self._covered, self._open, self.spans
        depth = self._depth

        def span(*args, **kwargs):
            if record:
                idx = len(spans)
                spans.append(None)
                parent = opened[-1]
                opened.append(idx)
                depth[name] += 1
            covered.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                self_s[name] += dt - covered.pop()
                total_s[name] += dt
                covered[-1] += dt
                calls[name] += 1
                if record:
                    opened.pop()
                    depth[name] -= 1
                    spans[idx] = (name, t0, t1, parent, self.task)
            if hook is not None:
                # bookkeeping is charged to no span
                h0 = perf_counter()
                hook(args, out)
                covered[-1] += perf_counter() - h0
            return out

        return span

    def _patch(self, owner, attr, name, record=False, hook=None):
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, record,
                                             hook))
        else:
            wrapped = self._wrap(name, original, record, hook)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self, lab) -> None:
        sc, iv, dy = lab.scalars, lab.intervals, lab.dynamics
        sp, ca, ha = lab.splinter, lab.caratheodory, lab.harness
        # scalars: operators reach these through the class, so one patch
        # per attribute covers every caller (__lt__ etc. call self.cmp)
        self._patch(sc.Scalar, "cmp", "scalars.cmp")
        self._patch(sc.Scalar, "sign", "scalars.sign")
        self._patch(sc.Scalar, "to_decimal", "scalars.decimal")
        for attr in _ARITH:
            self._patch(sc.Scalar, attr, "scalars.arith")
        self._patch(sc.IrrationalTag, "bounds", "scalars.bounds")
        # intervals
        for op in SET_OPS:
            self._patch(iv.IntervalSet, op, f"intervals.{op}", True,
                        self._on_set_op)
        self._patch(iv.IntervalSet, "measure", "intervals.measure")
        self._patch(iv.IntervalSet, "build", "intervals.build", True)
        self._patch(iv.IntervalSet, "translate_mod1",
                    "intervals.translate_mod1", True)
        # dynamics
        for cls, system in ((dy.Rotation, "rotation"),
                            (dy.Doubling, "doubling"),
                            (dy.Odometer, "odometer"),
                            (dy.KakutaniTower, "kakutani")):
            self._patch(cls, "preimage", f"dynamics.preimage.{system}", True,
                        self._preimage_hook(system))
        self._patch(dy.TowerSet, "__init__", "dynamics.towerset_init", True)
        # functions other modules imported by name: patch each binding
        for mod in (sp, ca, ha):
            self._patch(mod, "splinter", "splinter", True, self._on_splinter)
        self._patch(ca, "transport_check", "splinter.transport_check", True)
        for fn in ("mixing_trace", "correlation_average", "gap_theta"):
            self._patch(ha, fn, f"caratheodory.{fn}", True)
        self._patch(ha, "verify_measure_preserving",
                    "dynamics.verify_measure_preserving", True)
        # harness: the benchmark calls these through the module
        self._patch(ha, "parse_config", "harness.parse_config", True)
        self._patch(ha, "run", "harness.run", True)
        self._patch(ha.RunTrace, "to_structured", "harness.serialize", True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def exclude(self, seconds: float) -> None:
        """Keep `seconds` spent outside the program out of self times."""
        self._covered[-1] += seconds

    def start_task(self, task_id: int) -> None:
        self.task = task_id
        self._seen.clear()

    # -- hooks (run after the span closed, inside its parent) -------------

    def _on_set_op(self, args, out):
        operands = args[:2]
        c = self.counts
        c["setops"] += 1
        c["components_in"] += sum(len(s.intervals) + len(s.tails)
                                  for s in operands)
        c["tail_ops"] += any(s.tails for s in operands)
        c["setops_in_splinter"] += self._depth["splinter"] > 0

    def _preimage_hook(self, system):
        def hook(args, out):
            c = self.counts
            c["preimage_calls"] += 1
            c["components_out"] += out.component_count()
            key = (system, hash(args[1]))
            if key not in self._seen:
                self._seen.add(key)
                c["preimage_unique"] += 1
            c["carath_preimage_calls"] += (
                self._depth["caratheodory.mixing_trace"]
                + self._depth["caratheodory.correlation_average"] > 0)
        return hook

    def _on_splinter(self, args, out):
        c = self.counts
        c["splinter_steps"] += out.depth
        c["splinter_productive"] += sum(not A.is_empty()
                                        for A in out.splinters)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
