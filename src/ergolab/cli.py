"""Command-line entry point.

Verbs: run, demo-kakutani, selftest, emit-plot.  The exit code is that of
the run's status in ``errors.STATUS_CODES``: 0 all assertions pass (or a
splinter run converged or stalled), 1 assertion failure, 2 budget
exhaustion, 3 config or input error, 4 the computation left the
representation class.  ``errors.EXIT_CODES`` gives the status of each error
class that ends a run; such an error prints one line to stderr.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from .errors import ConfigError, EXIT_CODES, STATUS_CODES, exit_status
from .harness import (demo_kakutani, emit_plot_data, parse_config, run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergolab",
        description="exact experiments on measure-preserving interval maps")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "demo-kakutani", "selftest", "emit-plot"):
        p = sub.add_parser(verb)
        if verb in ("run", "emit-plot"):
            p.add_argument("--config", type=pathlib.Path, required=True)
        if verb != "selftest":
            p.add_argument("--out", type=pathlib.Path, default=None,
                           help="output directory")
        if verb in ("run", "demo-kakutani"):
            p.add_argument("--format", choices=("csv", "structured"),
                           default="csv")
    return parser


def _load_config(path: pathlib.Path):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _complain(status: str, message) -> None:
    print(f"{status.replace('-', ' ')}: {message}", file=sys.stderr)


def _write_trace(trace, args, stem: str) -> None:
    structured = args.format == "structured"
    body = trace.to_structured() if structured else trace.to_columnar()
    if args.out is None:
        sys.stdout.write(body)
        return
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{stem}{'.json' if structured else '.txt'}"
    path.write_text(f"# {trace.stamp()}\n{body}")
    print(f"wrote {path}")


def _selftest() -> int:
    """Quick internal battery: shipped splinter fixtures plus the
    Kakutani demo, run one after another."""
    from . import fixtures
    from .splinter import CONVERGED, STALLED, splinter

    jobs = [
        ("doubling-splinter", fixtures.doubling_splinter_inputs(), CONVERGED,
         fixtures.DOUBLING_N_STAR),
        ("odometer-splinter", fixtures.odometer_splinter_inputs(), CONVERGED,
         1),
        ("rational-third-stall", fixtures.rational_third_stall_inputs(),
         STALLED, None),
        ("tower-splinter", fixtures.tower_splinter_inputs(), CONVERGED, 3),
        ("tower-column-splinter", fixtures.tower_column_splinter_inputs(),
         CONVERGED, 1),
    ]

    failed = False
    for name, kw, want_status, want_depth in jobs:
        d = splinter(**kw)
        ok = d.status == want_status
        if want_depth is not None:
            ok &= d.depth == want_depth
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {d.status} at depth "
              f"{d.depth}")
        failed |= not ok
    trace, code = demo_kakutani()
    print(f"[{'pass' if code == 0 else 'FAIL'}] demo-kakutani")
    failed |= code != 0
    return STATUS_CODES["fail" if failed else "pass"]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "selftest":
            return _selftest()
        if args.verb == "demo-kakutani":
            trace, code = demo_kakutani()
            _write_trace(trace, args, "demo-kakutani")
            return code
        config = _load_config(args.config)
        trace, code = run(config)
        if "error" in trace.summary:
            _complain(trace.summary["status"], trace.summary["error"])
        # the header hashed the config's text already (a demo's has none)
        digest = trace.header.get("config_hash") or config.digest()
        if args.verb == "run":
            _write_trace(trace, args, f"run-{digest}")
            return code
        out = (args.out or pathlib.Path(".")) / f"plot-{digest}.csv"
        for path in emit_plot_data(trace, out):
            print(f"wrote {path}")
        return code
    except tuple(EXIT_CODES) as exc:
        code, status = exit_status(exc)
        _complain(status, exc)
        return code


if __name__ == "__main__":
    sys.exit(main())
