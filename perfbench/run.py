"""ergolab benchmark: closed-loop experiment tasks with exact-output checks.

One client runs one task at a time in this process, no threads.  A task is
an experiment config run the way ``ergolab run --format structured`` runs
it: ``harness.parse_config`` -> ``harness.run`` -> ``RunTrace.to_structured``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last stdout line is the JSON result.
``--report`` runs every workload both ways in fresh processes and prints
one table, the output-digest verdicts and the workload-split checks.
Details of each run go to ``.perfbench_out/`` at the checkout root.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

from speed import SpeedProbe
from tracer import SET_OPS, SYSTEMS, Tracer
from workloads import WORKLOADS, Task, build_pool

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
MODULES = ("scalars", "intervals", "dynamics", "splinter", "caratheodory",
           "harness", "randomsets", "fixtures")
SETUP_REPEATS = 7
MIN_BEYOND_P90 = 10


# ---------------------------------------------------------------------
# set-up: import, generate, warm up
# ---------------------------------------------------------------------

def import_lab() -> SimpleNamespace:
    """Import ergolab afresh from the checkout's src/ (never an install)."""
    for name in [n for n in sys.modules
                 if n == "ergolab" or n.startswith("ergolab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ergolab")
    where = Path(pkg.__file__).resolve().parent
    if where != ROOT / "src" / "ergolab":
        raise ImportError(f"ergolab imported from {where}, not from src/")
    return SimpleNamespace(**{m: sys.modules[f"ergolab.{m}"]
                              for m in MODULES})


def setup(workload: str, seed: int):
    """Import, generate the config texts, run one warm-up task.

    The warm-up fills lazy caches (the IrrationalTag convergents), so that
    cost lands here and not in task latency.
    """
    lab = import_lab()
    pool = build_pool(lab, workload, seed)
    execute(lab, pool[0])
    return lab, pool


# ---------------------------------------------------------------------
# one task
# ---------------------------------------------------------------------

@dataclass
class Outcome:
    start: float
    end: float
    digest: Optional[str] = None
    error: Optional[str] = None
    error_type: Optional[str] = None


def task_digest(trace) -> str:
    # artifact_version is left out: it depends on how ergolab is installed
    body = {"config_hash": trace.header.get("config_hash"),
            "records": trace.records, "summary": trace.summary}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()
                          ).hexdigest()


def execute(lab, task: Task) -> Outcome:
    h = lab.harness
    t0 = perf_counter()
    try:
        config = h.parse_config(task.text)
        trace, code = h.run(config)
        trace.to_structured()
    except Exception as exc:  # an escaping exception is a failed task
        return Outcome(t0, perf_counter(), error=f"{type(exc).__name__}: "
                       f"{exc}", error_type=type(exc).__name__)
    out = Outcome(t0, perf_counter(), task_digest(trace))
    wrong = task.check(code, trace.summary, trace.records)
    if wrong:
        out.error, out.error_type = f"wrong answer: {wrong}", "WrongAnswer"
    return out


class Ledger:
    """Attempts, failures, and the digest each task must reproduce."""

    def __init__(self, pool: list[Task]):
        self.pool = pool
        self.digests: list[Optional[str]] = [None] * len(pool)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.failure_types: Counter = Counter()

    def record(self, i: int, out: Outcome) -> None:
        self.attempted += 1
        if out.error is None:
            if self.digests[i] is None:
                self.digests[i] = out.digest
            elif self.digests[i] != out.digest:
                out.error, out.error_type = ("output digest differs from the "
                                             "task's first run", "WrongDigest")
        if out.error is not None:
            self.failures.append((self.pool[i].name, out.error))
            self.failure_types[out.error_type] += 1

    def output_digest(self) -> Optional[str]:
        """The workload's digest: every task's digest, in design order."""
        if None in self.digests:
            return None
        lines = [f"{t.name} {d}" for t, d in zip(self.pool, self.digests)]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_pass(lab, ledger: Ledger, order: list[int],
             tracer: Optional[Tracer] = None) -> list:
    """Run the pool once, one task at a time, in `order`.

    Returns (task index, start, end) per task, in run order."""
    runs = []
    for i in order:
        if tracer is not None:
            tracer.start_task(i)
        out = execute(lab, ledger.pool[i])
        ledger.record(i, out)
        runs.append((i, out.start, out.end))
    return runs


def seeded_order(pool: list[Task], seed: int) -> list[int]:
    order = list(range(len(pool)))
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float):
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            lab, pool = setup(workload, seed)
            setups.append((t0, perf_counter()))
        ledger = Ledger(pool)
        order = seeded_order(pool, seed)
        # closed loop in whole passes of the pool, so every run measures
        # the same mix of tasks.  Another pass starts while fewer than ten
        # latencies lie beyond p90, or if it should end by the deadline.
        start = perf_counter()
        rates, latencies, by_task = [], [], [[] for _ in pool]
        while True:
            runs = run_pass(lab, ledger, order)
            lats = [probe.reference_seconds(t0, t1) for _, t0, t1 in runs]
            rates.append(len(pool) / sum(lats))
            latencies += lats
            for (i, _, _), lat in zip(runs, lats):
                by_task[i].append(lat)
            p90 = smoothed_quantile(latencies, 0.9)
            if sum(x > p90 for x in latencies) >= MIN_BEYOND_P90 and \
                    not fits_another(start, len(rates), seconds):
                break
    metrics = {
        "tasks_per_s": (statistics.median(rates), "1/s"),
        "task_p50_s": (smoothed_quantile(latencies, 0.5), "s"),
        "task_p90_s": (p90, "s"),
        "setup_s": (statistics.median(probe.reference_seconds(*s)
                                      for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {"samples": len(latencies),
            "beyond_p90": sum(x > p90 for x in latencies),
            "passes": len(rates), "pool_size": len(pool),
            "pass_rates": rates,
            "wall_s": perf_counter() - setups[0][0],
            "probe_mean_s": statistics.fmean(probe.durations),
            "latencies": {t.name: lats for t, lats in zip(pool, by_task)}}
    return ledger, metrics, info


def fits_another(start: float, passes: int, seconds: float) -> bool:
    """Should one more pass end within `seconds` of `start`?"""
    return (perf_counter() - start) * (passes + 1) / passes <= seconds


def smoothed_quantile(values: list, p: float) -> float:
    """Quantile p as a weighted mean of the order statistics.

    The weights are Gaussian in the rank, centred on p(n-1) with the
    binomial spread sqrt(n p (1-p)) of that rank, as in the Harrell-Davis
    estimator.  Where a few tasks sit far apart around the quantile, the
    plain order statistic jumps from one to the next between runs; this
    average moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    centre, width = p * (n - 1), max(1.0, math.sqrt(n * p * (1 - p)))
    weights = [math.exp(-0.5 * ((i - centre) / width) ** 2) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# ---------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------

def traced(workload: str, seed: int, seconds: float):
    tracer = Tracer()
    pairs = []
    with SpeedProbe(tracer.exclude) as probe:
        lab, pool = setup(workload, seed)
        ledger = Ledger(pool)
        order = seeded_order(pool, seed)
        # pairs of one untraced and one traced pass, while another fits.
        # Both record into one ledger, which fails any traced task whose
        # digest differs from its untraced run: the traced output_digest
        # must equal the untraced one.
        start = perf_counter()
        while not pairs or fits_another(start, len(pairs), seconds):
            plain = run_pass(lab, ledger, order)
            tracer.install(lab)
            try:
                pairs.append((plain, run_pass(lab, ledger, order, tracer)))
            finally:
                tracer.uninstall()

    def cost(runs: list) -> float:
        return sum(probe.reference_seconds(t0, t1) for _, t0, t1 in runs)

    overheads = [(cost(t) - cost(p)) / cost(p) for p, t in pairs]
    metrics = layer_metrics(tracer, len(pairs))
    metrics["trace_overhead_frac"] = (statistics.median(overheads), "ratio")
    info = {"traced_passes": len(pairs), "pool_size": len(pool)}
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
    return ledger, metrics, info


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics, per pass of the pool."""
    calls = {k: v / passes for k, v in tr.calls.items()}
    self_s = {k: v / passes for k, v in tr.self_s.items()}
    total_s = {k: v / passes for k, v in tr.total_s.items()}
    c = {k: v / passes for k, v in tr.counts.items()}
    calls = {k: int(v) if v == int(v) else v for k, v in calls.items()}
    m = {}

    def timed(span):
        m[f"{span}.calls"] = (calls.get(span, 0), "count")
        m[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")

    for name in ("bounds", "sign", "decimal", "cmp", "arith"):
        timed(f"scalars.{name}")
    for op in SET_OPS + ("measure", "build", "translate_mod1"):
        timed(f"intervals.{op}")
    setops = c.get("setops", 0)
    m["intervals.components_in"] = (c.get("components_in", 0), "count")
    m["intervals.components_per_op"] = (
        _ratio(c.get("components_in", 0), setops), "ratio")
    m["intervals.tail_op_frac"] = (_ratio(c.get("tail_ops", 0), setops),
                                   "ratio")
    for system in SYSTEMS:
        timed(f"dynamics.preimage.{system}")
    m["dynamics.preimage.self_s"] = (
        sum(self_s.get(f"dynamics.preimage.{s}", 0.0) for s in SYSTEMS), "s")
    m["dynamics.preimage.components_out"] = (c.get("components_out", 0),
                                             "count")
    m["dynamics.preimage.unique_frac"] = (
        _ratio(c.get("preimage_unique", 0), c.get("preimage_calls", 0)),
        "ratio")
    timed("dynamics.towerset_init")
    for fn in ("mixing_trace", "correlation_average", "gap_theta"):
        m[f"caratheodory.{fn}.self_s"] = (
            self_s.get(f"caratheodory.{fn}", 0.0), "s")
    m["caratheodory.preimage_calls"] = (c.get("carath_preimage_calls", 0),
                                        "count")
    steps = c.get("splinter_steps", 0)
    m["splinter.runs"] = (calls.get("splinter", 0), "count")
    m["splinter.steps"] = (steps, "count")
    m["splinter.self_s"] = (self_s.get("splinter", 0.0), "s")
    m["splinter.s_per_step"] = (_ratio(total_s.get("splinter", 0.0), steps),
                                "s")
    m["splinter.setops_per_step"] = (
        _ratio(c.get("setops_in_splinter", 0), steps), "ratio")
    m["splinter.productive_frac"] = (
        _ratio(c.get("splinter_productive", 0), steps), "ratio")
    m["harness.parse_config.s"] = (total_s.get("harness.parse_config", 0.0),
                                   "s")
    m["harness.run.self_s"] = (self_s.get("harness.run", 0.0), "s")
    m["harness.serialize.s"] = (total_s.get("harness.serialize", 0.0), "s")
    return m


def split_checks(workload: str, metrics: dict) -> list[str]:
    """Workload-split checks that one workload's trace can decide."""
    bad = []
    bounds = metrics["scalars.bounds.calls"][0]
    if (bounds > 0) != (workload == "rotation_splinter"):
        bad.append(f"scalars.bounds.calls = {bounds} on {workload}")
    unique = metrics["dynamics.preimage.unique_frac"][0]
    if workload == "doubling_mixing" and unique != 0.5:
        bad.append(f"dynamics.preimage.unique_frac = {unique}, expected 0.5")
    return bad


# ---------------------------------------------------------------------
# single-workload entry
# ---------------------------------------------------------------------

def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reference_digest(workload: str, seed: int) -> Optional[str]:
    path = HERE / "digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if trace:
            ledger, metrics, info = traced(workload, seed, seconds)
        else:
            ledger, metrics, info = end_to_end(workload, seed, seconds)
    except ImportError as exc:
        print(f"cannot import ergolab from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 3
    problems = [f"{name}: {why}" for name, why in ledger.failures]
    digest = ledger.output_digest()
    reference = reference_digest(workload, seed)
    if reference is not None and digest != reference:
        problems.append(f"output_digest {digest} != recorded {reference}")
    if trace:
        problems += split_checks(workload, metrics)
    wanted = [m["name"] for m in benchmark_spec()[
        "per_layer" if trace else "end_to_end"]]

    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "output_digest": digest,
              "reference_digest": reference,
              "attempted": ledger.attempted, "failed": len(ledger.failures),
              "failed_frac": _ratio(len(ledger.failures), ledger.attempted),
              "failures_by_type": dict(ledger.failure_types),
              "problems": problems, "info": info,
              "task_digests": dict(zip((t.name for t in ledger.pool),
                                       ledger.digests)),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    verdict = ("match" if reference == digest else
               "none recorded" if reference is None else "MISMATCH")
    brief = {k: v for k, v in info.items() if k != "latencies"}
    print(f"{workload} seed {seed}: output_digest {digest} (reference: "
          f"{verdict}); failed {len(ledger.failures)}/{ledger.attempted}; "
          f"{json.dumps(brief)}", file=sys.stderr)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": {k: record["metrics"][k] for k in wanted}}))
    return 1 if problems else 0


# ---------------------------------------------------------------------
# one-command report
# ---------------------------------------------------------------------

def report(seed: int, seconds: float) -> int:
    records, ok = {}, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            ok &= proc.returncode == 0
            if path.exists():
                records[workload, trace] = json.loads(path.read_text())
    if len(records) != 2 * len(WORKLOADS):
        print("some runs left no record; see the messages above")
        return 1
    spec = benchmark_spec()
    listed = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        e2e, tr = records[workload, 0], records[workload, 1]
        print(f"\n== {workload} (seed {seed}, {seconds} s per run) ==")
        for name, m in e2e["metrics"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_frac':<40} {e2e['failed_frac']:>14.6g} ratio  "
              f"({e2e['failed']}/{e2e['attempted']}) "
              f"{e2e['failures_by_type'] or ''}")
        info = e2e["info"]
        print(f"  latency samples {info['samples']} from "
              f"{info['passes']} passes of {info['pool_size']} tasks; "
              f"{info['beyond_p90']} beyond p90")
        print(f"  output_digest {e2e['output_digest']} reference "
              f"{e2e['reference_digest']}; traced run "
              f"{tr['output_digest']}")
        for rec in (e2e, tr):
            for p in rec["problems"]:
                print(f"  FAILED {p}")
        print("  per layer (traced; * = in BENCHMARK.json):")
        for name, m in tr["metrics"].items():
            mark = "*" if name in listed else " "
            print(f"  {mark} {name:<40} {m['value']:>14.6g} {m['unit']}")
        ok &= e2e["output_digest"] == tr["output_digest"]
    cross = cross_checks({w: records[w, 1]["metrics"] for w in WORKLOADS})
    print("\n== workload-split checks ==")
    for line, passed in cross:
        print(f"  [{'pass' if passed else 'FAIL'}] {line}")
        ok &= passed
    print(f"\nverdict: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def cross_checks(layers: dict) -> list[tuple[str, bool]]:
    def v(w, name):
        return layers[w][name]["value"]

    bounds = {w: v(w, "scalars.bounds.calls") for w in WORKLOADS}
    per_op = {w: v(w, "intervals.components_per_op") for w in WORKLOADS}
    tails = {w: v(w, "intervals.tail_op_frac") for w in WORKLOADS}
    unique = v("doubling_mixing", "dynamics.preimage.unique_frac")
    return [
        (f"scalars.bounds.calls > 0 only on rotation_splinter: {bounds}",
         all((n > 0) == (w == "rotation_splinter")
             for w, n in bounds.items())),
        ("intervals.components_per_op doubling_mixing >= 100 x tails_towers:"
         f" {per_op['doubling_mixing']:.1f} vs {per_op['tails_towers']:.2f}",
         per_op["doubling_mixing"] >= 100 * per_op["tails_towers"]),
        (f"dynamics.preimage.unique_frac = 0.5 on doubling_mixing: {unique}",
         unique == 0.5),
        (f"intervals.tail_op_frac highest on tails_towers: {tails}",
         max(tails, key=tails.get) == "tails_towers"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, traced and untraced")
    args = parser.parse_args(argv)
    seconds = (args.seconds if args.seconds is not None
               else benchmark_spec()["run_seconds"])
    if args.report:
        return report(args.seed, seconds)
    if args.workload is None:
        parser.error("--workload is required without --report")
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
