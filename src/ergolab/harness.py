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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Optional

from . import fixtures
from .caratheodory import (RESTRICTION_NOTICE, dyadic_basis, arcs_basis,
                           density_search, mixing_trace,
                           correlation_average, reduction_check)
# bound as ``gap_theta``: one call per window, the span the benchmark's
# tracer (perfbench/tracer.py) wraps under that name
from .caratheodory import _gap_theta as gap_theta
from .dynamics import (SetLike, TowerSet, Transformation, make_system,
                       verify_measure_preserving)
from .errors import ConfigError, EXIT_CODES, STATUS_CODES, exit_status
from .intervals import EMPTY, from_text as set_from_text
from .scalars import Scalar, parse_scalar, render
from .splinter import (CONVERGED, DEFAULT_COMPONENT_BUDGET, splinter,
                       trace_rows)

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


#: key -> (parser of its text, default or None if required, the value it
#: must exceed or None), in the canonical order that ``to_text``, and so
#: every ``config_hash``, follows
_PARAMS = {
    "component_budget": (_int, DEFAULT_COMPONENT_BUDGET, 0),
    "depth": (_int, 8, -1),
    "digits": (_int, DEFAULT_DIGITS, 0),
    "m": (_int, None, 0),
    "n_max": (_int, None, 0),
    "sample": (_int, 8, 0),
    "stall_window": (_int, None, 0),
    "epsilon": (parse_scalar, None, 0),
    "basis": (_str, "dyadic", None),
}


@dataclass
class ExperimentConfig:
    command: str
    system: str
    sets: dict  # name -> IntervalSet | TowerSet
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        make_system(self.system)  # validates the descriptor
        for key, val in self.parameters.items():
            if key not in _PARAMS:
                raise ConfigError(f"unknown parameter {key!r}")
            floor = _PARAMS[key][2]
            if floor is not None and val <= floor:
                least = "positive" if floor == 0 else f">= {floor + 1}"
                raise ConfigError(f"{key} must be {least}")
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
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


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
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        target = set_texts if key.startswith("set.") else raw
        name = key[4:] if key.startswith("set.") else key
        if name in target:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        target[name] = value
    if "command" not in raw:
        raise ConfigError("missing required key 'command'")
    if "system" not in raw:
        raise ConfigError("missing required key 'system'")
    command = raw.pop("command")
    system = raw.pop("system")
    try:
        T = make_system(system)
    except Exception as exc:
        raise ConfigError(f"bad system descriptor {system!r}: {exc}") from exc
    tag = getattr(getattr(T, "angle", None), "tag", None)
    params: dict = {}
    for key, value in raw.items():
        if key not in _PARAMS:
            raise ConfigError(f"unknown key {key!r}")
        try:
            params[key] = _PARAMS[key][0](value, tag)
        except Exception as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    sets = {}
    for name, value in set_texts.items():
        try:
            sets[name] = _set_from_text(value, tag)
        except Exception as exc:
            raise ConfigError(f"bad set {name!r}: {exc}") from exc
    return ExperimentConfig(command, system, sets, params)


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
        encoded by the C encoder with newline-and-indent item separators
        instead, and the brackets are indented around that.  An encoded
        string never holds a raw newline, so ``},\\n      {`` occurs only
        between records.
        """
        parts = (self.header, self.summary, *self.records)
        if not (all(self.records) and set(map(type, parts)) <= {dict}
                and _JSON_SCALARS.issuperset(
                    map(type, chain.from_iterable(map(dict.values, parts))))):
            return json.dumps({"header": self.header, "records": self.records,
                               "summary": self.summary}, indent=2) + "\n"
        records = "[]"
        if self.records:
            inner = _RECORD_ITEMS(self.records)[2:-2]
            inner = inner.replace("},\n      {", "\n    },\n    {\n      ")
            records = "[\n    {\n      " + inner + "\n    }\n  ]"
        return (f'{{\n  "header": {_flat_dict(self.header)},\n'
                f'  "records": {records},\n'
                f'  "summary": {_flat_dict(self.summary)}\n}}\n')

    def stamp(self) -> str:
        """Version and config hash, for the first line of written files."""
        return (f"artifact_version={self.header.get('artifact_version')} "
                f"config_hash={self.header.get('config_hash', 'none')}")


#: C-encoded JSON whose items sit on their own lines, indented for the
#: second (header, summary) and third (a record's fields) nesting level
_TOP_ITEMS = json.JSONEncoder(separators=(",\n    ", ": ")).encode
_RECORD_ITEMS = json.JSONEncoder(separators=(",\n      ", ": ")).encode
#: value types that both encoders write alike as one token
_JSON_SCALARS = {str, int, float, bool, type(None)}


def _flat_dict(d: dict) -> str:
    """A flat dict as ``json.dumps(indent=2)`` writes it one level deep."""
    return "{\n    " + _TOP_ITEMS(d)[1:-1] + "\n  }" if d else "{}"


def _header(config: Optional[ExperimentConfig], fixture: str) -> dict:
    head = {"artifact_version": ARTIFACT_VERSION, "fixture": fixture,
            "restriction": RESTRICTION_NOTICE}
    if config is not None:
        head["config_hash"] = config.digest()
        for line in config.to_text().rstrip("\n").split("\n"):
            key, _, value = line.partition(" = ")
            head[f"config.{key}"] = value
    return head


def _pair(value: Scalar, digits: int) -> tuple[str, str]:
    return value.to_text(), render(value, digits)


# ---------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------

def _run_splinter(config: ExperimentConfig, T: Transformation,
                  digits: int) -> tuple[list, dict]:
    d = splinter(T, config.require_set("J1"), config.require_set("J2"),
                 config.get("epsilon"), config.get("n_max"),
                 stall_window=config.opt("stall_window"),
                 component_budget=config.get("component_budget"))
    final = d.residuals[-1].measure() if d.residuals else Scalar(0)
    exact, dec = _pair(final, digits)
    return trace_rows(d.trace, digits), {
        "status": d.status, "depth": d.depth,
        "final_measure_B": exact, "final_measure_B_decimal": dec,
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
    Bc = B.complement()
    records, ok = [], True
    basis = _basis(config)
    for J in basis.elements_at(basis.bound):
        rep = gap_theta(B, Bc, J)
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
    records = []
    for j, value in enumerate(seq, start=1):
        exact, dec = _pair(value, digits)
        records.append({"step": j, "trace": exact, "trace_decimal": dec})
    m = config.opt("m") or n_max
    avg = correlation_average(T, C, D, m, component_budget=budget)
    exact, dec = _pair(avg, digits)
    product = C.measure() * D.measure()
    return records, {"status": "pass", "m": m, "cesaro_average": exact,
                     "cesaro_average_decimal": dec,
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
    T = make_system(config.system)
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
    records, ok = [], True

    full = T.full_set()
    total = full.measure()
    ok &= total == Scalar(Fraction(5, 3))
    records.append({"check": "total-measure", "value": total.to_text(),
                    "pass": total == Scalar(Fraction(5, 3))})

    from .intervals import AT_ZERO, ParityTail, make_set
    zero_tail = TowerSet(make_set([], [ParityTail(AT_ZERO, 0, "even")]), EMPTY)
    battery = [full, T.empty_set(),
               fixtures.tower_splinter_inputs()["J1"],
               fixtures.tower_splinter_inputs()["J2"],
               fixtures.tower_column_splinter_inputs()["J1"],
               zero_tail]
    for i, S in enumerate(battery):
        rep = verify_measure_preserving(T, S)
        ok &= rep.passed
        records.append({"check": f"preservation[{i}]", "set": S.to_text(),
                        "value": rep.measure_set.to_text(),
                        "pass": rep.passed})

    d = splinter(**fixtures.tower_splinter_inputs())
    ok &= d.status == CONVERGED
    records.append({"check": "tower-splinter", "status": d.status,
                    "depth": d.depth,
                    "final_measure_B": d.residuals[-1].measure().to_text(),
                    "pass": d.status == CONVERGED})

    disc = make_system("odometer").discontinuities(4)
    listing = ", ".join(x.to_text() for x in disc)
    expected = ", ".join(str(Fraction(1) - Fraction(1, 1 << n))
                         for n in range(5))
    ok &= listing == expected
    records.append({"check": "odometer-discontinuities", "value": listing,
                    "pass": listing == expected})

    status = "pass" if ok else "fail"
    trace = RunTrace(_header(None, "demo-kakutani"), records,
                     {"status": status})
    return trace, STATUS_CODES[status]


# ---------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------

def emit_plot_data(trace: RunTrace, fmt: str, out_path) -> list:
    """Write plot-ready columns; exact strings go to a JSON sidecar.

    ``csv`` keeps only numeric-looking columns (decimal renderings are
    emitted without their exactness marker); ``structured`` writes the
    full trace as JSON.  Returns the list of paths written.
    """
    import pathlib
    out_path = pathlib.Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    stamp = trace.stamp()
    written = [out_path]
    if fmt == "structured":
        body = trace.to_structured()
        out_path.write_text(f"# {stamp}\n{body}")
        return written
    if fmt != "csv":
        raise ValueError(f"unknown plot format {fmt!r}")
    cols = [c for c in trace.columns()
            if any(_numeric(rec.get(c)) for rec in trace.records)]
    lines = [f"# {stamp}"]
    if cols:
        lines.append(",".join(cols))
        for rec in trace.records:
            lines.append(",".join(_as_float_text(rec.get(col, ""))
                                  for col in cols))
    out_path.write_text("\n".join(lines) + "\n")
    sidecar = out_path.with_suffix(out_path.suffix + ".exact.json")
    sidecar.write_text(trace.to_structured())
    written.append(sidecar)
    return written


def _numeric(value) -> bool:
    if isinstance(value, (int, float)):
        return True
    if not isinstance(value, str):
        return False
    try:
        float(value.lstrip("~"))
        return True
    except ValueError:
        return False


def _as_float_text(value) -> str:
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str) and _numeric(value):
        return value.lstrip("~")
    return ""
