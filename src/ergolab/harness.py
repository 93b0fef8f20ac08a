"""Experiment configs, run traces, and the batch driver behind the CLI.

Configs are a line-oriented ``key = value`` text format with a canonical
serializer, so a parsed-then-serialized config reproduces the canonical
text byte for byte and its hash pins the run.  Traces carry every exact
value alongside a 12-digit decimal rendering; the exact string is
authoritative.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, groupby
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import fixtures
from .caratheodory import (RESTRICTION_NOTICE, dyadic_basis, arcs_basis,
                           density_search, mixing_trace,
                           correlation_average, reduction_check)
# bound as ``gap_theta``: one call per window, the span the benchmark's
# tracer (perfbench/tracer.py) wraps under that name
from .caratheodory import _gap_theta as gap_theta
from .dynamics import (SetLike, TowerSet, Transformation, make_system,
                       verify_measure_preserving)
from .errors import (ConfigError, ErgolabError, EXIT_CODES, STATUS_CODES,
                     exit_status)
from .intervals import (AT_ZERO, EMPTY, ParityTail, make_set,
                        from_text as set_from_text)
from .scalars import Scalar, parse_scalar, render
from .splinter import (CONVERGED, DEFAULT_COMPONENT_BUDGET, StepRecord,
                       splinter)

try:  # single source of truth for the version stamp in file headers
    from importlib.metadata import version as _pkg_version
    ARTIFACT_VERSION = _pkg_version("artifact")
except Exception:  # pragma: no cover - not installed
    ARTIFACT_VERSION = "0.0.0"

DEFAULT_DIGITS = 12

COMMANDS = ("splinter", "verify", "density", "gap", "mixing", "reduction",
            "demo")


def _int(text: str, tag) -> int:
    return int(text)


def _str(text: str, tag) -> str:
    return text


#: the most decimal digits a rendering and the largest start a parity
#: tail may have: Python 3.11 and later (and 3.10 from 3.10.7) write no
#: int of more than 4,300 digits as text, and a tail from block n has
#: measure 2/(3 * 2**n), whose denominator has about 0.3 * n digits, so
#: a product of two such measures stays below that limit too
MAX_DIGITS = MAX_TAIL_START = 4000

_TAIL_START = re.compile(r"tail\(\s*\w+\s*,\s*(\d+)")

#: key -> (parser of its text, default or None if required, the value it
#: must exceed or None, the most it may be or None), in the canonical order
#: that ``to_text``, and so every ``config_hash``, follows
_PARAMS = {
    "component_budget": (_int, DEFAULT_COMPONENT_BUDGET, 0, None),
    "depth": (_int, 8, -1, None),
    "digits": (_int, DEFAULT_DIGITS, 0, MAX_DIGITS),
    "m": (_int, None, 0, None),
    "n_max": (_int, None, 0, None),
    "sample": (_int, 8, 0, None),
    "stall_window": (_int, None, 0, None),
    "epsilon": (parse_scalar, None, 0, None),
    "basis": (_str, "dyadic", None, None),
}


@dataclass
class ExperimentConfig:
    """A parsed config.  ``transformation`` is the map that ``system``
    names, built once: from the init-only ``T`` that ``parse_config``
    passes, the map it read the sets with, or else from ``system``."""

    command: str
    system: str
    sets: dict  # name -> IntervalSet | TowerSet
    parameters: dict = field(default_factory=dict)
    T: InitVar[Optional[Transformation]] = None

    def __post_init__(self, T):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if T is None:
            T = _system(self.system)
        self.transformation = T
        if self.command == "demo" and T.kind != "kakutani":
            raise ConfigError(f"demo runs on kakutani, not {self.system!r}")
        for key, val in self.parameters.items():
            if key not in _PARAMS:
                raise ConfigError(f"unknown parameter {key!r}")
            floor, ceiling = _PARAMS[key][2:]
            if floor is not None and val <= floor:
                least = "positive" if floor == 0 else f">= {floor + 1}"
                raise ConfigError(f"{key} must be {least}")
            if ceiling is not None and val > ceiling:
                raise ConfigError(f"{key} must be at most {ceiling}")
        basis = self.opt("basis")
        if basis not in ("dyadic", "arcs"):
            raise ConfigError(f"unknown basis {basis!r}")

    # -- parameter access with defaults ------------------------------
    def opt(self, key: str):
        """The value of ``key``, or its default (None if it has none)."""
        return self.parameters.get(key, _PARAMS[key][1])

    def get(self, key: str):
        """The value of ``key`` or its default; a config error if neither."""
        val = self.opt(key)
        if val is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return val

    def require_set(self, name: str) -> SetLike:
        if name not in self.sets:
            raise ConfigError(f"missing required set {name!r}")
        return self.sets[name]

    # -- canonical text form ------------------------------------------
    def to_text(self) -> str:
        lines = [f"command = {self.command}", f"system = {self.system}"]
        for key in _PARAMS:
            if key in self.parameters:
                val = self.parameters[key]
                text = val.to_text() if isinstance(val, Scalar) else str(val)
                lines.append(f"{key} = {text}")
        for name in sorted(self.sets):
            lines.append(f"set.{name} = {self.sets[name].to_text()}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return _digest(self.to_text())


def _digest(text: str) -> str:
    """The config hash of a config's ``to_text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _system(descriptor: str) -> Transformation:
    try:
        return make_system(descriptor)
    except (ValueError, ErgolabError) as exc:
        raise ConfigError(
            f"bad system descriptor {descriptor!r}: {exc}") from exc


def _set_from_text(text: str, tag) -> SetLike:
    if "|" in text:
        base_text, top_text = (part.strip() for part in text.split("|", 1))
        return TowerSet(set_from_text(base_text, tag),
                        set_from_text(top_text, tag))
    return set_from_text(text, tag)


def parse_config(text: str) -> ExperimentConfig:
    """Parse the line-oriented config format, with line numbers on errors."""
    raw: dict[str, str] = {}
    set_texts: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        target = set_texts if key.startswith("set.") else raw
        name = key[4:] if key.startswith("set.") else key
        if not name or not value:
            raise ConfigError(f"line {lineno}: empty key, set name or value")
        if name in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[name] = value
    if "command" not in raw:
        raise ConfigError("missing required key 'command'")
    if "system" not in raw:
        raise ConfigError("missing required key 'system'")
    command = raw.pop("command")
    system = raw.pop("system")
    T = _system(system)
    tag = getattr(getattr(T, "angle", None), "tag", None)
    params: dict = {}
    for key, value in raw.items():
        if key not in _PARAMS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            params[key] = _PARAMS[key][0](value, tag)
        except (ValueError, ErgolabError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    sets = {}
    for name, value in set_texts.items():
        try:
            # checked on the text: a tail is built over a denominator of
            # 2**(start + 2)
            if any(int(start) > MAX_TAIL_START
                   for start in _TAIL_START.findall(value)):
                raise ValueError(
                    f"a tail start must be at most {MAX_TAIL_START}")
            sets[name] = _set_from_text(value, tag)
        except (ValueError, ErgolabError) as exc:
            raise ConfigError(f"bad set {name!r}: {exc}") from exc
    return ExperimentConfig(command, system, sets, params, T)


# ---------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------

@dataclass
class RunTrace:
    header: dict
    records: list
    summary: dict

    def columns(self) -> list[str]:
        seen: list[str] = []
        for rec in self.records:
            for key in rec:
                if key not in seen:
                    seen.append(key)
        return seen

    def to_columnar(self) -> str:
        lines = [f"# {key}: {value}" for key, value in self.header.items()]
        cols = self.columns()
        if cols:
            lines.append("\t".join(cols))
            for rec in self.records:
                lines.append("\t".join(str(rec.get(col, "")) for col in cols))
        for key, value in self.summary.items():
            lines.append(f"# summary.{key}: {value}")
        return "\n".join(lines) + "\n"

    def to_structured(self) -> str:
        """``json.dumps(..., indent=2)`` of the trace, plus a newline.

        An indent sends ``json`` to its pure-Python encoder, so flat traces
        (dicts of strings, numbers, booleans and None; no empty record) are
        written without it (``_record_texts``): by the C encoder with
        newline-and-indent item separators, and, when the records are
        ``Rows``, each further record of a run as the text of the run's
        first record with its own first value put in.  The brackets are
        indented around that.  Only the first record of a run is checked
        for flatness: by the ``Rows`` contract the others repeat it but
        for an ``int`` first value.
        """
        starts = _run_starts(self.records)
        heads = (self.records if starts is None
                 else [self.records[i] for i in starts])
        parts = (self.header, self.summary, *heads)
        if not (all(heads) and set(map(type, parts)) <= {dict}
                and _JSON_SCALARS.issuperset(
                    map(type, chain.from_iterable(map(dict.values, parts))))):
            return json.dumps({"header": self.header, "records": self.records,
                               "summary": self.summary}, indent=2) + "\n"
        records = "[]"
        if self.records:
            records = ("[\n    {\n      "
                       + _record_texts(self.records, starts, heads)
                       + "\n    }\n  ]")
        return (f'{{\n  "header": {_flat_dict(self.header)},\n'
                f'  "records": {records},\n'
                f'  "summary": {_flat_dict(self.summary)}\n}}\n')

    def stamp(self) -> str:
        """Version and config hash, for the first line of written files."""
        return (f"artifact_version={self.header.get('artifact_version')} "
                f"config_hash={self.header.get('config_hash', 'none')}")


#: between two fields of a record as ``json.dumps(indent=2)`` writes it
_NEXT_ITEM = ",\n      "
#: C-encoded JSON whose items sit on their own lines, indented for the
#: second (header, summary) and third (a record's fields) nesting level
_TOP_ITEMS = json.JSONEncoder(separators=(",\n    ", ": ")).encode
_RECORD_ITEMS = json.JSONEncoder(separators=(_NEXT_ITEM, ": ")).encode
#: value types that both encoders write alike as one token
_JSON_SCALARS = {str, int, float, bool, type(None)}
#: between two records as ``_RECORD_ITEMS`` writes a list of them, and as
#: ``json.dumps(indent=2)`` does; an encoded string holds no raw newline,
#: so neither occurs inside a record, and ``_NEXT_ITEM`` first occurs in a
#: record right after its first value
_BETWEEN = "},\n      {"
_NEXT_RECORD = "\n    },\n    {\n      "


def _flat_dict(d: dict) -> str:
    """A flat dict as ``json.dumps(indent=2)`` writes it one level deep."""
    return "{\n    " + _TOP_ITEMS(d)[1:-1] + "\n  }" if d else "{}"


def _run_starts(records: list) -> Optional[list[int]]:
    """The index of the first record of each run, or None when no run is
    longer than one record (a plain list, or ``Rows`` of one-row runs)."""
    runs = getattr(records, "runs", ())
    if len(runs) in (0, len(records)):
        return None
    return list(accumulate(runs[:-1], initial=0))


def _record_texts(records: list, starts: Optional[list[int]],
                  heads: list) -> str:
    """The records as ``json.dumps(indent=2)`` writes them in the list,
    without the outer braces; `starts` is ``_run_starts`` of them and
    `heads` the records at those indices (all of them when it is None).

    Records without runs are one C-encoder call.  Otherwise the first
    records of the runs are one such call, and the rest of a run is the
    text of its first record cut around the first value, and one join of
    their own first values.
    """
    if starts is None:
        return _RECORD_ITEMS(records)[2:-2].replace(_BETWEEN, _NEXT_RECORD)
    text = _RECORD_ITEMS(heads)[2:-2]
    pieces = []
    for text, i, length in zip(text.split(_BETWEEN), starts, records.runs):
        pieces.append(text)
        if length > 1:
            key, first = next(iter(records[i].items()))
            cut = text.find(_NEXT_ITEM)
            tail = text[cut:] if cut >= 0 else ""
            head = text[:len(text) - len(tail) - len(repr(first))]
            firsts = map(itemgetter(key), records[i + 1:i + length])
            pieces.append(head + (tail + _NEXT_RECORD + head).join(
                map(repr, firsts)) + tail)
    return _NEXT_RECORD.join(pieces)


def _once(f: Callable[[Scalar], str]) -> Callable[[Scalar], str]:
    """``f`` computed once per distinct scalar value."""
    seen: dict = {}

    def g(s: Scalar) -> str:
        key = (s.n, s.m, s.d, s.tag)
        out = seen.get(key)
        if out is None:
            out = seen[key] = f(s)
        return out
    return g


def trace_rows(trace: Sequence[StepRecord],
               digits: int = DEFAULT_DIGITS) -> "Rows":
    """One row per step of a splinter trace, as ``Rows``: its number, the
    exact text and the decimal rendering of mu(A_n) and mu(B_n), the
    component count of B_n and the exact covered measure.  Each distinct
    measure is rendered once.

    ``splinter`` appends the same record again for a step that repeats the
    values of the step before, as most unproductive steps of a
    measure-preserving T do.  Each run of one record object is one run of
    the rows: its first row is rendered, and the rest are copies of it
    with their own ``step``.
    """
    text, dec = _once(Scalar.to_text), _once(lambda s: render(s, digits))
    rows = Rows()
    for _, run in groupby(trace, id):
        rec, *more = run
        step = len(rows) + 1
        row = {"step": step,
               "measure_A_n": text(rec.measure_A),
               "measure_A_n_dec": dec(rec.measure_A),
               "measure_B_n": text(rec.measure_B),
               "measure_B_n_dec": dec(rec.measure_B),
               "components_B_n": rec.components_B,
               "cumulative_covered": text(rec.covered_measure)}
        rows.append(row)
        rows += [dict(row, step=k)
                 for k in range(step + 1, step + 1 + len(more))]
        rows.runs.append(1 + len(more))
    return rows


class Rows(list):
    """Trace rows, and ``runs``: the number of rows in each run of them.

    A run is a row and the rows after it that repeat it but for their first
    value, an ``int``: the same keys in the same order and the same other
    values.  ``trace_rows`` makes a run of the steps that share one
    record.  ``RunTrace.to_structured`` checks and writes a run from its
    first row alone, so ``runs`` must hold for the rows as they are; a
    plain list is checked and written row by row.
    """

    def __init__(self, rows=(), runs=()):
        super().__init__(rows)
        self.runs = list(runs)


def _header(config: Optional[ExperimentConfig], fixture: str) -> dict:
    head = {"artifact_version": ARTIFACT_VERSION, "fixture": fixture,
            "restriction": RESTRICTION_NOTICE}
    if config is not None:
        text = config.to_text()
        head["config_hash"] = _digest(text)
        for line in text.rstrip("\n").split("\n"):
            key, _, value = line.partition(" = ")
            head[f"config.{key}"] = value
    return head


# ---------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------

def _run_splinter(config: ExperimentConfig, T: Transformation,
                  digits: int) -> tuple[list, dict]:
    d = splinter(T, config.require_set("J1"), config.require_set("J2"),
                 config.get("epsilon"), config.get("n_max"),
                 stall_window=config.opt("stall_window"),
                 component_budget=config.get("component_budget"))
    final = d.trace[-1].measure_B if d.trace else Scalar(0)
    return trace_rows(d.trace, digits), {
        "status": d.status, "depth": d.depth,
        "final_measure_B": final.to_text(),
        "final_measure_B_decimal": render(final, digits),
        "n_max": config.get("n_max"),
        "component_budget": config.get("component_budget")}


def _run_verify(config: ExperimentConfig, T: Transformation,
                digits: int) -> tuple[list, dict]:
    records, ok = [], True
    for name in sorted(config.sets):
        rep = verify_measure_preserving(T, config.sets[name])
        ok &= rep.passed
        records.append({"set": name, "preserved": rep.passed,
                        "measure": rep.measure_set.to_text(),
                        "preimage_measure": rep.measure_preimage.to_text()})
    return records, {"status": "pass" if ok else "fail", "sets": len(records)}


def _basis(config: ExperimentConfig):
    depth = config.get("depth")
    return (dyadic_basis(depth) if config.get("basis") == "dyadic"
            else arcs_basis(depth))


def _run_density(config: ExperimentConfig, T: Transformation,
                 digits: int) -> tuple[list, dict]:
    S = config.require_set("S")
    eps = config.get("epsilon")
    window = density_search(S, eps, _basis(config))
    found = window is not None
    records = [{"set": S.to_text(), "epsilon": eps.to_text(), "found": found,
                "window": window.to_text() if found else ""}]
    return records, {"status": "pass" if found else "fail"}


def _run_gap(config: ExperimentConfig, T: Transformation,
             digits: int) -> tuple[list, dict]:
    B = config.require_set("B")
    basis = _basis(config)
    level = basis.bound
    # B and its complement are swept apart, so the equality is measured,
    # never assumed
    parts_in = basis.measures_at(B, level)
    parts_out = basis.measures_at(B.complement(), level)
    records, ok = [], True
    for (J, part_in, mu_j), (_, part_out, _) in zip(parts_in, parts_out):
        rep = gap_theta(part_in, part_out, mu_j)
        ok &= rep.caratheodory_equality
        records.append({"window": J.to_text(), "theta": rep.theta.to_text(),
                        "mu_B_J": rep.part_in.to_text(),
                        "mu_Bc_J": rep.part_out.to_text(),
                        "equality": rep.caratheodory_equality})
    return records, {"status": "pass" if ok else "fail",
                     "windows": len(records)}


def _run_mixing(config: ExperimentConfig, T: Transformation,
                digits: int) -> tuple[list, dict]:
    C, D = config.require_set("C"), config.require_set("D")
    n_max = config.get("n_max")
    budget = config.get("component_budget")
    seq = mixing_trace(T, C, D, n_max, component_budget=budget)
    # values recur (a periodic orbit, a vanishing trace): render each once
    text, dec = _once(Scalar.to_text), _once(lambda s: render(s, digits))
    records = [{"step": j, "trace": text(value), "trace_decimal": dec(value)}
               for j, value in enumerate(seq, start=1)]
    m = config.opt("m") or n_max
    avg = correlation_average(T, C, D, m, component_budget=budget)
    product = C.measure() * D.measure()
    return records, {"status": "pass", "m": m, "cesaro_average": text(avg),
                     "cesaro_average_decimal": dec(avg),
                     "product": product.to_text()}


def _run_reduction(config: ExperimentConfig, T: Transformation,
                   digits: int) -> tuple[list, dict]:
    B = config.require_set("B")
    rep = reduction_check(T, B, _basis(config), config.get("sample"),
                          config.get("epsilon"), config.get("n_max"),
                          stall_window=config.opt("stall_window"),
                          component_budget=config.get("component_budget"))
    return rep.rows, {"status": "pass" if rep.passed else "fail",
                      "mode": rep.note}


_DISPATCH = {"splinter": _run_splinter, "verify": _run_verify,
             "density": _run_density, "gap": _run_gap,
             "mixing": _run_mixing, "reduction": _run_reduction}


def _check_spaces(config: ExperimentConfig, T: Transformation) -> None:
    """The one rule on set spaces: a set is a tower set (``base | top``)
    exactly when the system is the Kakutani tower, which the commands with
    one-storey probe windows do not run on."""
    tower = T.kind == "kakutani"
    if tower and config.command in ("density", "gap", "reduction"):
        raise ConfigError(f"{config.command} has one-storey probe windows "
                          "and does not run on kakutani")
    for name in sorted(config.sets):
        if isinstance(config.sets[name], TowerSet) != tower:
            raise ConfigError(
                f"set {name!r} must {'' if tower else 'not '}be a tower set "
                f"'base | top' on {T.descriptor()}")


def run(config: ExperimentConfig) -> tuple[RunTrace, int]:
    """Dispatch a config to its command; returns (trace, exit code).

    The exit code is ``errors.STATUS_CODES`` of the summary's status.  An
    error listed in ``errors.EXIT_CODES`` ends the run with its status and
    a summary that holds its message; a splinter run keeps the rows of the
    steps it completed.
    """
    if config.command == "demo":
        return demo_kakutani()
    digits = config.get("digits")
    T = config.transformation
    try:
        _check_spaces(config, T)
        records, summary = _DISPATCH[config.command](config, T, digits)
    except tuple(EXIT_CODES) as exc:
        d = getattr(exc, "decomposition", None)
        records = (trace_rows(d.trace, digits)
                   if d is not None and config.command == "splinter" else [])
        summary = {"status": exit_status(exc)[1], "error": str(exc)}
    trace = RunTrace(_header(config, f"{config.command}:{T.descriptor()}"),
                     records, summary)
    return trace, STATUS_CODES[summary["status"]]


def demo_kakutani() -> tuple[RunTrace, int]:
    """Canonical two-storey suite: total mass, preservation, splinter,
    and the discontinuity listing of the odometer."""
    T = make_system("kakutani")
    records = []

    full = T.full_set()
    total = full.measure()
    records.append({"check": "total-measure", "value": total.to_text(),
                    "pass": total == Scalar(Fraction(5, 3))})

    zero_tail = TowerSet(make_set([], [ParityTail(AT_ZERO, 0, "even")]), EMPTY)
    inputs = fixtures.tower_splinter_inputs()
    battery = [full, T.empty_set(), inputs["J1"], inputs["J2"],
               fixtures.tower_column_splinter_inputs()["J1"], zero_tail]
    for i, S in enumerate(battery):
        rep = verify_measure_preserving(T, S)
        records.append({"check": f"preservation[{i}]", "set": S.to_text(),
                        "value": rep.measure_set.to_text(),
                        "pass": rep.passed})

    d = splinter(**inputs)
    records.append({"check": "tower-splinter", "status": d.status,
                    "depth": d.depth,
                    "final_measure_B": d.trace[-1].measure_B.to_text(),
                    "pass": d.status == CONVERGED})

    disc = make_system("odometer").discontinuities(4)
    listing = ", ".join(x.to_text() for x in disc)
    expected = ", ".join(str(Fraction(1) - Fraction(1, 1 << n))
                         for n in range(5))
    records.append({"check": "odometer-discontinuities", "value": listing,
                    "pass": listing == expected})

    status = "pass" if all(rec["pass"] for rec in records) else "fail"
    trace = RunTrace(_header(None, "demo-kakutani"), records,
                     {"status": status})
    return trace, STATUS_CODES[status]


# ---------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------

def emit_plot_data(trace: RunTrace, out_path) -> list:
    """Write plot-ready columns at ``out_path``, exact values beside it.

    The CSV holds ``_plot_cell`` of every value, in the columns where any
    cell holds a number, under the ``stamp`` line.  The ``.exact.json``
    sidecar is ``to_structured`` of the trace, whose header carries the
    same version and config hash.  Returns the two paths written.
    """
    out_path = pathlib.Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    cells = {col: [_plot_cell(rec.get(col)) for rec in trace.records]
             for col in trace.columns()}
    cols = [col for col, column in cells.items() if any(column)]
    lines = [f"# {trace.stamp()}"]
    if cols:
        lines.append(",".join(cols))
        lines.extend(map(",".join, zip(*(cells[col] for col in cols))))
    out_path.write_text("\n".join(lines) + "\n")
    sidecar = out_path.with_suffix(out_path.suffix + ".exact.json")
    sidecar.write_text(trace.to_structured())
    return [out_path, sidecar]


def _plot_cell(value) -> str:
    """The number that a trace value holds, as CSV text, or "" if none.

    The value's text is read as a rational, after any ``~``: an ``int`` or
    ``float``, an exact value such as ``1/4``, a decimal rendering.  A
    ``bool`` reads ``True`` or ``False`` and holds none.  A whole number
    is written as an integer, any other as its ``float``.
    """
    try:
        number = Fraction(str(value).lstrip("~"))
    except (ValueError, ZeroDivisionError):
        return ""
    return str(number.numerator if number.denominator == 1 else float(number))
