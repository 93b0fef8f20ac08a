"""Config parsing/serialization, run dispatch, exit codes, plot output."""

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ergolab.cli import main
from ergolab.dynamics import make_system
from ergolab.errors import (EXIT_CODES, STATUS_CODES, ConfigError,
                            RepresentationOverflowError)
from ergolab.harness import (ExperimentConfig, demo_kakutani, emit_plot_data,
                             parse_config, run)
from ergolab.intervals import from_text
from ergolab.scalars import GOLDEN, SQRT2M1
from ergolab.splinter import splinter

F = Fraction

SPLINTER_CFG = """\
command = splinter
system = doubling
epsilon = 1/1048576
n_max = 64
set.J1 = 0..1/2
set.J2 = 0..1/2
"""

GAP_CFG = """\
command = gap
system = doubling
depth = 3
set.B = 0..1/2
"""

STALL_CFG = """\
command = splinter
system = rotation:1/3
epsilon = 1/1000000000
n_max = 150
stall_window = 100
set.J1 = 0..1/6
set.J2 = 1/2..2/3
"""

# the Kakutani preimage of an at-one tail accumulates at 1/2
OVERFLOW_CFG = """\
command = splinter
system = kakutani
epsilon = 1/1000
n_max = 50
set.J1 = 0..1/3 | empty
set.J2 = 1/3..2/3 | empty
"""

# mu(J1) = 1/4 + 1/6 differs from mu(J2) = 1/4
UNEQUAL_WINDOWS_CFG = """\
command = splinter
system = odometer
epsilon = 1/1000
n_max = 50
set.J1 = 0..1/4, tail(one, 2, even)
set.J2 = 1/2..3/4
"""

# converges at depth 224: an ergodic rotation has no default stall window
GOLDEN_CFG = """\
command = splinter
system = rotation:golden
epsilon = 1/1000
n_max = 300
set.J1 = 0..1/4
set.J2 = 1/2..3/4
"""

# density needs 0 < epsilon < 1
DENSITY_EPSILON_CFG = """\
command = density
system = doubling
epsilon = 2
set.S = 0..1/2
"""


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_config_example_converges(self):
        block, = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        trace, code = run(parse_config(block))
        assert code == 0
        assert trace.summary["status"] == "converged"
        assert trace.summary["depth"] == 224


class TestConfigFormat:
    def test_round_trip_is_byte_exact(self):
        config = parse_config(SPLINTER_CFG)
        text = config.to_text()
        assert parse_config(text).to_text() == text

    def test_canonical_form_is_stable(self):
        # key order in the input does not affect the canonical serialization
        shuffled = "\n".join(reversed(SPLINTER_CFG.strip().split("\n"))) + "\n"
        assert parse_config(shuffled).to_text() \
            == parse_config(SPLINTER_CFG).to_text()

    def test_hash_tracks_content(self):
        a = parse_config(SPLINTER_CFG)
        b = parse_config(SPLINTER_CFG.replace("1/1048576", "1/1024"))
        assert a.digest() != b.digest()
        assert a.digest() == parse_config(SPLINTER_CFG).digest()

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("command = gap\nnonsense line\n")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("command = explode\nsystem = doubling\n")

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError):
            parse_config("command = gap\n")
        with pytest.raises(ConfigError):
            parse_config("system = doubling\n")

    def test_seed_key_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(SPLINTER_CFG + "seed = 1\n")

    def test_bad_set_text_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("command = gap\nsystem = doubling\nset.B = oops\n")

    def test_irrational_sets_parse_with_system_tag(self):
        text = ("command = verify\nsystem = rotation:golden\n"
                "set.S = 1-1*alpha..5/4-1*alpha\n")
        config = parse_config(text)
        assert config.sets["S"].measure() == F(1, 4)

    def test_readme_alpha_endpoint_parses(self):
        text = "command = verify\nsystem = rotation:golden\nset.S = alpha..1\n"
        config = parse_config(text)
        assert config.sets["S"].to_text() == "0+1*alpha..1"
        assert config.sets["S"].measure().to_text() == "1-1*alpha"
        assert parse_config(config.to_text()).to_text() == config.to_text()


class TestRunDispatch:
    def test_splinter_converges_exit_zero(self):
        trace, code = run(parse_config(SPLINTER_CFG))
        assert code == 0
        assert trace.summary["status"] == "converged"
        assert trace.summary["depth"] == 20
        assert trace.records[0]["measure_B_n"] == "1/4"

    def test_gap_depth_three_gives_eight_unit_thetas(self):
        trace, code = run(parse_config(GAP_CFG))
        assert code == 0
        assert len(trace.records) == 8
        assert all(r["theta"] == "1" for r in trace.records)

    def test_stall_is_an_outcome_not_a_failure(self):
        trace, code = run(parse_config(STALL_CFG))
        assert code == 0
        assert trace.summary["status"] == "stalled"

    def test_determinism(self):
        a, _ = run(parse_config(SPLINTER_CFG))
        b, _ = run(parse_config(SPLINTER_CFG))
        assert a.to_columnar() == b.to_columnar()
        assert a.to_structured() == b.to_structured()

    def test_trace_header_carries_hash_and_notice(self):
        trace, _ = run(parse_config(GAP_CFG))
        assert trace.header["config_hash"] == parse_config(GAP_CFG).digest()
        assert "restriction" in trace.header

    def test_mixing_command(self):
        text = ("command = mixing\nsystem = doubling\nn_max = 6\nm = 6\n"
                "set.C = 0..1/2\nset.D = 0..1/2\n")
        trace, code = run(parse_config(text))
        assert code == 0
        assert all(r["trace"] == "0" for r in trace.records)
        assert trace.summary["cesaro_average"] == "1/4"

    def test_mixing_on_irrational_arcs(self):
        # mu(C) mu(D) = alpha**2 = 1 - alpha
        text = ("command = mixing\nsystem = rotation:golden\nn_max = 5\n"
                "set.C = 0..alpha\nset.D = 0..alpha\n")
        trace, code = run(parse_config(text))
        assert code == 0
        assert trace.summary["product"] == "1-1*alpha"
        assert trace.records[0]["trace"] == "-2+3*alpha"

    def test_verify_command(self):
        text = ("command = verify\nsystem = odometer\n"
                "set.S = 0..1/2\nset.T = 1/4..5/8\n")
        trace, code = run(parse_config(text))
        assert code == 0
        assert all(r["preserved"] for r in trace.records)


# every command, and every status a run of it can end with
STATUS_CASES = [
    (SPLINTER_CFG, "converged", "doubling"),
    (STALL_CFG, "stalled", "rotation:1/3"),
    (SPLINTER_CFG.replace("n_max = 64", "n_max = 5"), "budget-exhausted",
     "doubling"),
    ("command = verify\nsystem = odometer\nset.S = 0..1/2\n", "pass",
     "odometer"),
    ("command = density\nsystem = doubling\nepsilon = 1/2\n"
     "set.S = 1/3..2/3\n", "pass", "doubling"),
    # mu(S n [0, 1)) = 1/2 is not above (1 - epsilon) mu([0, 1))
    ("command = density\nsystem = doubling\ndepth = 0\nepsilon = 1/2\n"
     "set.S = 0..1/2\n", "fail", "doubling"),
    (GAP_CFG, "pass", "doubling"),
    ("command = mixing\nsystem = doubling\nn_max = 6\n"
     "set.C = 0..1/3\nset.D = 1/5..7/10\n", "pass", "doubling"),
    ("command = reduction\nsystem = rotation:golden\nepsilon = 1/100\n"
     "n_max = 60\nsample = 3\nset.B = 0..1/2\n", "pass", "rotation:golden"),
    (OVERFLOW_CFG, "left-representation-class", "kakutani"),
    (UNEQUAL_WINDOWS_CFG, "invalid-input", "odometer"),
]


# a set is a tower set exactly on kakutani, where the one-storey commands
# do not run
MISMATCHED_SPACES = {
    "verify-kakutani-plain": (
        "command = verify\nsystem = kakutani\nset.S = 0..1/2\n",
        "set 'S' must be a tower set 'base | top' on kakutani"),
    "splinter-odometer-tower": (
        "command = splinter\nsystem = odometer\nepsilon = 1/1000\n"
        "n_max = 8\nset.J1 = 0..1/4 | empty\nset.J2 = 1/2..3/4\n",
        "set 'J1' must not be a tower set 'base | top' on odometer"),
    "gap-kakutani": (
        "command = gap\nsystem = kakutani\nset.B = 0..1/2 | empty\n",
        "gap has one-storey probe windows and does not run on kakutani"),
    "reduction-kakutani": (
        "command = reduction\nsystem = kakutani\nepsilon = 1/100\n"
        "n_max = 8\nset.B = 0..1/2 | empty\n",
        "reduction has one-storey probe windows and does not run on "
        "kakutani"),
    "mixing-doubling-tower": (
        "command = mixing\nsystem = doubling\nn_max = 4\n"
        "set.C = 0..1/2 | empty\nset.D = 0..1/2\n",
        "set 'C' must not be a tower set 'base | top' on doubling"),
}


class TestExitCodes:
    @pytest.mark.parametrize("text, status, descriptor", STATUS_CASES,
                             ids=["converged", "stalled", "budget-exhausted",
                                  "verify", "density-found",
                                  "density-not-found", "gap", "mixing",
                                  "reduction", "overflow", "unequal-windows"])
    def test_code_is_that_of_the_status(self, text, status, descriptor):
        config = parse_config(text)
        trace, code = run(config)
        assert trace.summary["status"] == status
        assert code == STATUS_CODES[status]
        assert trace.header["fixture"] == f"{config.command}:{descriptor}"
        assert set(EXIT_CODES.values()) <= set(STATUS_CODES)

    @pytest.mark.parametrize("text, code, status", [
        (OVERFLOW_CFG, 4, "left-representation-class"),
        (UNEQUAL_WINDOWS_CFG, 3, "invalid-input"),
    ], ids=["overflow", "unequal-windows"])
    def test_run_maps_error(self, text, code, status):
        trace, got = run(parse_config(text))
        assert got == code
        assert trace.summary["status"] == status
        assert trace.summary["error"]

    def test_run_maps_mixed_tags(self):
        config = ExperimentConfig(
            "mixing", "rotation:golden",
            {"C": from_text("0..alpha", GOLDEN),
             "D": from_text("0..alpha", SQRT2M1)}, {"n_max": 3})
        trace, code = run(config)
        assert code == 3
        assert trace.summary["status"] == "incompatible-basis"
        assert trace.summary["error"] == (
            "mixed irrational tags 'golden' and 'sqrt2'")

    def test_run_keeps_completed_steps(self):
        # step 1 completes; the preimage in step 2 leaves the class
        trace, code = run(parse_config(OVERFLOW_CFG))
        assert code == 4
        assert trace.summary["status"] == "left-representation-class"
        assert [r["step"] for r in trace.records] == [1]
        assert trace.records[0]["measure_B_n"] == "1/4"

    @pytest.mark.parametrize("digits", [4, 12])
    def test_kept_rows_match_step_rows(self, digits):
        config = parse_config(OVERFLOW_CFG + f"digits = {digits}\n")
        trace, code = run(config)
        with pytest.raises(RepresentationOverflowError) as info:
            splinter(make_system(config.system), config.require_set("J1"),
                     config.require_set("J2"), config.get("epsilon"),
                     config.get("n_max"))
        kept = info.value.decomposition.trace
        assert code == 4 and len(kept) == 1
        assert trace.records == [kept[0].row(digits)]

    @pytest.mark.parametrize("text, code, message", [
        (OVERFLOW_CFG, 4, "left representation class: preimage of an "
                          "at-one tail accumulates at 1/2"),
        (UNEQUAL_WINDOWS_CFG, 3, "invalid input: windows must have equal "
                                 "measure: 5/12 != 1/4"),
    ], ids=["overflow", "unequal-windows"])
    def test_cli_prints_one_line(self, tmp_path, capsys, text, code,
                                 message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.splitlines() == [message]

    @pytest.mark.parametrize("text, message", [
        (GAP_CFG + "basis = dyadc\n", "config error: unknown basis 'dyadc'"),
        (GAP_CFG.replace("depth = 3", "depth = -1"),
         "config error: depth must be >= 0"),
        (GAP_CFG + "digits = 0\n", "config error: digits must be positive"),
        (DENSITY_EPSILON_CFG,
         "invalid input: epsilon must lie strictly between 0 and 1"),
        (GOLDEN_CFG + "stall_window = 0\n",
         "config error: stall_window must be positive"),
        (GOLDEN_CFG + "stall_window = -3\n",
         "config error: stall_window must be positive"),
    ], ids=["basis", "depth", "digits", "density-epsilon", "stall-window-0",
            "stall-window-negative"])
    def test_cli_rejects_unusable_value(self, tmp_path, capsys, text,
                                        message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("text, message", list(MISMATCHED_SPACES.values()),
                             ids=list(MISMATCHED_SPACES))
    def test_mismatched_set_space_exits_three(self, tmp_path, capsys, text,
                                              message):
        trace, code = run(parse_config(text))
        assert (code, trace.summary) == (3, {"status": "config-error",
                                             "error": message})
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}"]

    def test_seed_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--config", "exp.cfg", "--seed", "1"])

    @pytest.mark.parametrize("argv", [
        ["selftest", "--config", "exp.cfg"],
        ["selftest", "--out", "out"],
        ["selftest", "--format", "csv"],
        ["demo-kakutani", "--config", "exp.cfg"],
    ], ids=["selftest-config", "selftest-out", "selftest-format",
            "demo-kakutani-config"])
    def test_unread_flag_removed(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)


class TestDemo:
    def test_demo_kakutani_passes(self):
        trace, code = demo_kakutani()
        assert code == 0
        by_check = {r["check"]: r for r in trace.records}
        assert by_check["total-measure"]["value"] == "5/3"
        assert by_check["odometer-discontinuities"]["value"] \
            == "0, 1/2, 3/4, 7/8, 15/16"
        assert all(r["pass"] for r in trace.records)


class TestPlotData:
    def test_csv_with_exact_sidecar(self, tmp_path):
        trace, _ = run(parse_config(SPLINTER_CFG))
        out = tmp_path / "plot.csv"
        written = emit_plot_data(trace, "csv", out)
        assert out in written
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# artifact_version=")
        assert "0.25" in lines[2]
        sidecar = json.loads((tmp_path / "plot.csv.exact.json").read_text())
        assert sidecar["records"][0]["measure_B_n"] == "1/4"

    def test_structured_format(self, tmp_path):
        trace, _ = run(parse_config(GAP_CFG))
        out = tmp_path / "plot.json"
        emit_plot_data(trace, "structured", out)
        assert out.read_text().startswith("# artifact_version=")

    def test_empty_trace_yields_header_only(self, tmp_path):
        from ergolab.harness import RunTrace
        trace = RunTrace({"artifact_version": "x"}, [], {})
        out = tmp_path / "empty.csv"
        emit_plot_data(trace, "csv", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("#")


# one config per command; "splinter" on the golden rotation writes tagged
# irrational values, and the Kakutani "verify" leaves the representation
# class, so its trace has no records
STRUCTURED_CFGS = {
    "splinter": SPLINTER_CFG,
    "splinter-golden": GOLDEN_CFG,
    "verify": ("command = verify\nsystem = kakutani\n"
               "set.S = 0..1/2 | 1/8..1/4\nset.T = 1/4..5/8 | empty\n"),
    "verify-error": ("command = verify\nsystem = kakutani\n"
                     "set.S = 0..1/2, tail(one, 2, even) | empty\n"),
    "density": ("command = density\nsystem = doubling\nepsilon = 1/2\n"
                "set.S = 1/3..2/3\n"),
    "gap": GAP_CFG,
    "gap-tail": ("command = gap\nsystem = odometer\ndepth = 3\n"
                 "set.B = 0..1/2, tail(zero, 3, odd)\n"),
    "mixing": ("command = mixing\nsystem = doubling\nn_max = 6\n"
               "set.C = 0..1/3\nset.D = 1/5..7/10\n"),
    "reduction": ("command = reduction\nsystem = rotation:golden\n"
                  "epsilon = 1/100\nn_max = 60\nsample = 3\nset.B = 0..1/2\n"),
    "demo": "command = demo\nsystem = kakutani\n",
    "overflow": OVERFLOW_CFG,
}


class TestStructuredTrace:
    @staticmethod
    def _reference(trace):
        return json.dumps({"header": trace.header, "records": trace.records,
                           "summary": trace.summary}, indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(STRUCTURED_CFGS))
    def test_matches_indented_dumps(self, name):
        trace, _ = run(parse_config(STRUCTURED_CFGS[name]))
        assert trace.to_structured() == self._reference(trace)

    def test_demo_kakutani_matches_indented_dumps(self):
        trace, _ = demo_kakutani()
        assert trace.to_structured() == self._reference(trace)

    @pytest.mark.parametrize("header, records, summary", [
        ({"artifact_version": "x"}, [], {}),
        ({}, [{"a": 1}], {"status": "pass"}),
        # a value that spells the separator between records
        ({}, [{"a": "},\n      {"}, {"b": "}, {"}], {}),
        # nested values and empty records take the indenting encoder
        ({"k": [1, 2]}, [{"a": "b"}], {}),
        ({}, [{"a": {"b": None}}, {"c": 1.5}], {"s": "\u00e9\n"}),
        ({}, [{}, {"a": True}], {"x": {}}),
    ])
    def test_edge_traces_match_indented_dumps(self, header, records,
                                              summary):
        from ergolab.harness import RunTrace
        trace = RunTrace(header, records, summary)
        assert trace.to_structured() == self._reference(trace)


class TestCliProcess:
    def _run(self, *args, cfg_text=None, tmp_path=None):
        argv = [sys.executable, "-m", "ergolab.cli", *args]
        if cfg_text is not None:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(cfg_text)
            argv += ["--config", str(cfg)]
        return subprocess.run(argv, capture_output=True, text=True)

    def test_run_exit_zero(self, tmp_path):
        proc = self._run("run", cfg_text=GAP_CFG, tmp_path=tmp_path)
        assert proc.returncode == 0
        assert "theta" in proc.stdout

    def test_config_error_exit_three(self, tmp_path):
        proc = self._run("run", cfg_text="command = bogus\n",
                         tmp_path=tmp_path)
        assert proc.returncode == 3
        assert "config error" in proc.stderr

    def test_missing_file_exit_three(self, tmp_path):
        proc = self._run("run", "--config", str(tmp_path / "absent.cfg"))
        assert proc.returncode == 3

    def test_demo_verb(self):
        proc = self._run("demo-kakutani")
        assert proc.returncode == 0
        assert "5/3" in proc.stdout

    def test_selftest(self):
        proc = self._run("selftest")
        assert proc.returncode == 0
        assert "[pass]" in proc.stdout

    def test_emit_plot_files(self, tmp_path):
        proc = self._run("emit-plot", "--out", str(tmp_path),
                         cfg_text=SPLINTER_CFG, tmp_path=tmp_path)
        assert proc.returncode == 0
        assert list(tmp_path.glob("plot-*.csv"))
        assert list(tmp_path.glob("plot-*.csv.exact.json"))
