"""Config parsing/serialization, run dispatch, exit codes, plot output."""

import json
import random
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
from ergolab.harness import (ExperimentConfig, Rows, RunTrace, demo_kakutani,
                             emit_plot_data, parse_config, run, trace_rows)
from ergolab.intervals import IntervalSet, from_text
from ergolab.randomsets import random_interval_set, random_offset_set
from ergolab.scalars import GOLDEN, SQRT2M1, Scalar, parse_scalar, render
from ergolab.splinter import splinter
from record_corpus import CORPUS
from test_splinter import step_rows

F = Fraction


def corpus_config(stem: str) -> str:
    return (CORPUS / f"{stem}.cfg").read_text()


# configs that tier-1 pins by digest, read from their one copy
SPLINTER_CFG = corpus_config("harness-splinter")
GAP_CFG = corpus_config("harness-gap")
# the Kakutani preimage of an at-one tail accumulates at 1/2
OVERFLOW_CFG = corpus_config("harness-overflow")
# converges at depth 224: an ergodic rotation has no default stall window
GOLDEN_CFG = corpus_config("ci-golden")
TAGGED_RATIONAL_CFG = corpus_config("ci-tagged-rational")
# mu(C) * mu(D) = 10^-5000: its denominator has more digits than Python
# 3.11 and later write for an int
OVER_DIGITS_CFG = corpus_config("ci-value-over")
# arcs windows [a/3, b/3) on a set with an at-zero tail
ARCS_GAP_CFG = corpus_config("ci-arcs-gap")
# the first dense dyadic window of a set with an at-one tail
TAIL_DENSITY_CFG = corpus_config("ci-tail-density")
# 2**30 dyadic windows in the level read, past the ceiling of 2**18
DEEP_GAP_CFG = corpus_config("ci-deep-gap")

STALL_CFG = """\
command = splinter
system = rotation:1/3
epsilon = 1/1000000000
n_max = 150
stall_window = 100
set.J1 = 0..1/6
set.J2 = 1/2..2/3
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

# density needs 0 < epsilon < 1
DENSITY_EPSILON_CFG = """\
command = density
system = doubling
epsilon = 2
set.S = 0..1/2
"""

# T^-7 C on doubling has 2^7 = 128 components, past the budget
MIXING_BUDGET_CFG = """\
command = mixing
system = doubling
n_max = 30
component_budget = 100
set.C = 0..1/3
set.D = 0..1/2
"""


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> str:
    block, = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    return block


class TestReadme:
    def test_config_example_is_the_golden_config(self):
        assert readme_config() == GOLDEN_CFG

    def test_config_example_converges(self):
        trace, code = run(parse_config(readme_config()))
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

    @pytest.mark.parametrize("line", ["set. = 0..1/2", "= gap", "depth ="],
                             ids=["set-name", "key", "value"])
    def test_empty_name_or_value_rejected(self, tmp_path, capsys, line):
        text = f"command = gap\n{line}\nsystem = doubling\nset.B = 0..1\n"
        message = "line 2: empty key, set name or value"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}"]

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("command = explode\nsystem = doubling\n")

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError):
            parse_config("command = gap\n")
        with pytest.raises(ConfigError):
            parse_config("system = doubling\n")

    def test_blank_lines_are_skipped(self):
        lines = SPLINTER_CFG.splitlines(True)
        padded = "\n" + "".join(line + " \t \n" for line in lines) + "\n\n"
        assert parse_config(padded) == parse_config(SPLINTER_CFG)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="^unknown parameter 'seeds'$"):
            ExperimentConfig("gap", "doubling", {}, {"seeds": 3})

    def test_seed_key_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(SPLINTER_CFG + "seed = 1\n")

    def test_bad_system_rejected(self):
        message = "bad system descriptor 'bogus'"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig("splinter", "bogus", {})
        with pytest.raises(ConfigError, match=message):
            parse_config("command = splinter\nsystem = bogus\n")

    @pytest.mark.parametrize("parse, text", [
        (parse_scalar, "1/0"), (make_system, "rotation:1/0"),
        (from_text, "0..1/0")], ids=["scalar", "system", "set"])
    def test_zero_denominator_is_a_value_error(self, parse, text):
        with pytest.raises(ValueError, match="zero denominator in '1/0'"):
            parse(text)

    def test_a_bug_is_not_a_config_error(self, monkeypatch):
        def broken(descriptor):
            raise TypeError("a bug")
        monkeypatch.setattr("ergolab.harness.make_system", broken)
        with pytest.raises(TypeError, match="a bug"):
            ExperimentConfig("splinter", "doubling", {})

    def test_bad_set_text_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("command = gap\nsystem = doubling\nset.B = oops\n")

    def test_irrational_sets_parse_with_system_tag(self):
        text = ("command = verify\nsystem = rotation:golden\n"
                "set.S = 1-1*alpha..5/4-1*alpha\n")
        config = parse_config(text)
        assert config.sets["S"].measure() == F(1, 4)

    @pytest.mark.parametrize("stem", ["ci-kakutani-verify", "harness-verify",
                                      "harness-gap-tail"])
    def test_sets_parse_without_a_set_operation(self, stem, monkeypatch):
        # tailed texts and tower tops come straight into normal form
        def refuse(self, other, keep):
            raise AssertionError("set operation while parsing")
        text = corpus_config(stem)
        want = parse_config(text).to_text()
        monkeypatch.setattr(IntervalSet, "_combine", refuse)
        assert parse_config(text).to_text() == want

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

    @pytest.mark.parametrize("text", [GAP_CFG, GOLDEN_CFG],
                             ids=["gap", "splinter-golden"])
    def test_builds_the_system_once(self, monkeypatch, text):
        built = []

        def counting(descriptor):
            built.append(descriptor)
            return make_system(descriptor)
        monkeypatch.setattr("ergolab.harness.make_system", counting)
        trace, code = run(parse_config(text))
        assert code == 0 and len(built) == 1

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

    def test_mixing_periodic_orbit_renders_one_period(self, monkeypatch):
        # the odometer cycles the eight level-3 cells: a period of 8
        import ergolab.harness as harness
        calls = []
        monkeypatch.setattr(harness, "render",
                            lambda s, digits: calls.append(s) or "~")
        text = ("command = mixing\nsystem = odometer\nn_max = 64\n"
                "m = 1000000\nset.C = 1/8..1/4\nset.D = 0..3/8\n")
        trace, code = run(parse_config(text))
        assert code == 0
        texts = [r["trace"] for r in trace.records]
        assert texts == texts[:8] * 8
        assert trace.summary["cesaro_average"] == "3/64"
        assert len(calls) <= 9

    def test_mixing_on_irrational_arcs(self):
        # mu(C) mu(D) = alpha**2 = 1 - alpha
        trace, code = run(parse_config(corpus_config("readme-mixing-alpha")))
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
    (corpus_config("harness-density"), "pass", "doubling"),
    # mu(S n [0, 1)) = 1/2 is not above (1 - epsilon) mu([0, 1))
    ("command = density\nsystem = doubling\ndepth = 0\nepsilon = 1/2\n"
     "set.S = 0..1/2\n", "fail", "doubling"),
    (GAP_CFG, "pass", "doubling"),
    (corpus_config("harness-mixing"), "pass", "doubling"),
    (corpus_config("harness-reduction"), "pass", "rotation:golden"),
    (OVERFLOW_CFG, "left-representation-class", "kakutani"),
    (UNEQUAL_WINDOWS_CFG, "invalid-input", "odometer"),
    (MIXING_BUDGET_CFG, "budget-exhausted", "doubling"),
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
                                  "reduction", "overflow", "unequal-windows",
                                  "mixing-budget-exhausted"])
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
        (OVER_DIGITS_CFG, 3, "invalid-input"),
    ], ids=["overflow", "unequal-windows", "over-digits"])
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
        assert trace.records == step_rows(kept, digits)

    @pytest.mark.parametrize("text, code, message", [
        (OVERFLOW_CFG, 4, "left representation class: preimage of an "
                          "at-one tail accumulates at 1/2"),
        (UNEQUAL_WINDOWS_CFG, 3, "invalid input: windows must have equal "
                                 "measure: 5/12 != 1/4"),
        (MIXING_BUDGET_CFG, 2, "budget exhausted: 128 components exceed "
                               "budget 100"),
        (OVER_DIGITS_CFG, 3, "invalid input: an exact value has too many "
                             "digits to write as text"),
        (corpus_config("ci-doubling-tail"), 4,
         "left representation class: doubling does not act on tails"),
    ], ids=["overflow", "unequal-windows", "mixing-budget", "over-digits",
            "doubling-tail"])
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
        (corpus_config("readme-stall-window-zero"),
         "config error: stall_window must be positive"),
        (GOLDEN_CFG + "stall_window = -3\n",
         "config error: stall_window must be positive"),
        (corpus_config("readme-epsilon-zero-denominator"),
         "config error: bad value for 'epsilon': zero denominator in '1/0'"),
        (corpus_config("ci-demo"),
         "config error: demo runs on kakutani, not 'doubling'"),
        ("command = demo\nsystem = rotation:1/3\n",
         "config error: demo runs on kakutani, not 'rotation:1/3'"),
        (SPLINTER_CFG.replace("epsilon = 1/1048576\n", ""),
         "config error: missing required parameter 'epsilon'"),
        (SPLINTER_CFG.replace("set.J2 = 0..1/2\n", ""),
         "config error: missing required set 'J2'"),
        ("command = verify\nsystem = doubling\nset.S = 0..1/2\n"
         "set.S = 1/4..5/8\n", "config error: line 4: duplicate key 'set.S'"),
    ], ids=["basis", "depth", "digits", "density-epsilon", "stall-window-0",
            "stall-window-negative", "epsilon-zero-denominator",
            "demo-doubling", "demo-rotation", "missing-epsilon",
            "missing-set", "duplicate-set"])
    def test_cli_rejects_unusable_value(self, tmp_path, capsys, text,
                                        message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.splitlines() == [message]

    def test_cli_rejects_tag_on_rational_angle(self, tmp_path, capsys):
        # the tag would be dropped from rotation:golden:1/3, so the alpha
        # windows would fail as if no tag were given: the descriptor is
        # rejected before them
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TAGGED_RATIONAL_CFG)
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "config error: bad system descriptor 'rotation:golden:1/3': "
            "tag 'golden' given for the rational angle '1/3'; write "
            "rotation:1/3"]

    @pytest.mark.parametrize("text, message", [
        (DEEP_GAP_CFG, "dyadic level 30 holds 1073741824"),
        (ARCS_GAP_CFG.replace("depth = 3", "depth = 724"),
         "arcs level 724 holds 262450"),
        # [0, 2**-20) is dense first at level 20, past the ceiling
        ("command = density\nsystem = doubling\nepsilon = 1/2\n"
         "depth = 30\nset.S = 0..1/1048576\n",
         "dyadic level 19 holds 524288"),
    ], ids=["gap-dyadic", "gap-arcs", "density-dyadic"])
    def test_level_over_the_window_ceiling_exits_three(self, tmp_path,
                                                       capsys, text,
                                                       message):
        message = f"a basis level may hold at most 262144 windows; {message}"
        trace, code = run(parse_config(text))
        assert (code, trace.summary) == (3, {"status": "invalid-input",
                                             "error": message})
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {message}"]

    @pytest.mark.parametrize("template, over, message", [
        ("command = mixing\nsystem = doubling\nn_max = 2\ndigits = {}\n"
         "set.C = 0..1/3\nset.D = 0..1/2\n", 5000,
         "digits must be at most 4000"),
        ("command = gap\nsystem = odometer\ndepth = 3\n"
         "set.B = 0..1/8, tail(one, {}, even)\n", 20000,
         "bad set 'B': a tail start must be at most 4000"),
        ("command = verify\nsystem = kakutani\n"
         "set.S = tail(zero, {}, odd) | empty\n", 4001,
         "bad set 'S': a tail start must be at most 4000"),
    ], ids=["digits", "tail-start", "tower-tail-start"])
    def test_over_the_text_limit_exits_three(self, tmp_path, capsys,
                                             template, over, message):
        # an exact value or a rendering of more than 4,300 digits cannot be
        # written as text on Python 3.11 and later; such a config is
        # rejected as it is parsed, and the same config at the greatest
        # value runs
        text = template.format(over)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {message}"]
        trace, code = run(parse_config(template.format(4000)))
        assert code == 0, trace.summary

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
        ["emit-plot", "--config", "exp.cfg", "--format", "csv"],
    ], ids=["selftest-config", "selftest-out", "selftest-format",
            "demo-kakutani-config", "emit-plot-format"])
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


# one config per command, each harness-<name>.cfg of the corpus;
# "splinter-golden" writes tagged irrational values, and the Kakutani
# "verify-error" leaves the representation class, so its trace has no
# records
STRUCTURED_CFGS = {path.stem.removeprefix("harness-"): path.read_text()
                   for path in CORPUS.glob("harness-*.cfg")}
STRUCTURED_CFGS["splinter-golden"] = GOLDEN_CFG


class TestBasisProbes:
    """``gap`` and ``density`` read each basis level from one sweep of a
    set, and call the harness's ``gap_theta`` once per window."""

    @pytest.mark.parametrize("text, windows", [
        (GAP_CFG, 8), (ARCS_GAP_CFG, 6),
        ("command = gap\nsystem = rotation:golden\nbasis = arcs\n"
         "depth = 5\nset.B = 1/7..alpha, tail(one, 2, odd)\n", 15),
    ], ids=["dyadic", "arcs", "arcs-golden"])
    def test_gap_theta_once_per_window(self, monkeypatch, text, windows):
        from ergolab import harness
        from ergolab.intervals import IntervalSet
        calls = []
        real = harness.gap_theta
        monkeypatch.setattr(harness, "gap_theta",
                            lambda *args: calls.append(args) or real(*args))
        monkeypatch.setattr(IntervalSet, "intersect", None)
        trace, code = run(parse_config(text))
        assert code == 0, trace.summary
        assert len(calls) == windows == trace.summary["windows"]

    def test_arcs_gap_values(self):
        trace, code = run(parse_config(ARCS_GAP_CFG))
        assert code == 0
        rows = [(r["window"], r["mu_B_J"], r["mu_Bc_J"])
                for r in trace.records]
        assert rows == [("0..1/3", "1/4", "1/12"), ("0..2/3", "5/12", "1/4"),
                        ("0..1", "5/12", "7/12"), ("1/3..2/3", "1/6", "1/6"),
                        ("1/3..1", "1/6", "1/2"), ("2/3..1", "0", "1/3")]

    def test_tail_density_window(self):
        trace, code = run(parse_config(TAIL_DENSITY_CFG))
        assert code == 0
        assert trace.records[0]["window"] == "0..1/16"


class TestPlotData:
    def test_csv_with_exact_sidecar(self, tmp_path):
        trace, _ = run(parse_config(SPLINTER_CFG))
        out = tmp_path / "plot.csv"
        written = emit_plot_data(trace, out)
        assert written == [out, tmp_path / "plot.csv.exact.json"]
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# artifact_version=")
        assert "0.25" in lines[2]
        sidecar = json.loads((tmp_path / "plot.csv.exact.json").read_text())
        assert sidecar["records"][0]["measure_B_n"] == "1/4"

    def test_empty_trace_yields_header_only(self, tmp_path):
        from ergolab.harness import RunTrace
        trace = RunTrace({"artifact_version": "x"}, [], {})
        out = tmp_path / "empty.csv"
        emit_plot_data(trace, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("#")

    @pytest.mark.parametrize("name", sorted(STRUCTURED_CFGS))
    def test_every_rational_is_plotted(self, tmp_path, name):
        trace, _ = run(parse_config(STRUCTURED_CFGS[name]))
        out, sidecar = emit_plot_data(trace, tmp_path / "plot.csv")
        assert sidecar.read_text() == trace.to_structured()
        stamp, *lines = out.read_text().splitlines()
        assert stamp == f"# {trace.stamp()}"
        cols = lines[0].split(",") if lines else []
        rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
        assert len(rows) == (len(trace.records) if cols else 0)
        for rec, row in zip(trace.records, rows):
            for key, value in rec.items():
                if isinstance(value, bool):
                    assert row.get(key, "") == ""
                elif isinstance(value, str) and re.fullmatch(
                        r"-?\d+(/\d+)?", value):
                    assert float(row[key]) == float(Fraction(value))
        for col in cols:
            assert any(row[col] for row in rows), col


#: a value that a run of records repeats
REPEATED = '100% "},\n      {" %d'


def _runs(records):
    """The runs of ``records`` that ``RunTrace.to_structured`` may write
    from the text of a run's first record: the same keys in the same
    order, ``int`` first values, and other values that JSON writes alike."""
    def parts(rec):
        values = list(rec.values())
        return list(rec), type(values[0]), list(map(json.dumps, values[1:]))

    runs, first = [], None
    for rec in records:
        if rec and first and parts(rec) == parts(first) and (
                parts(rec)[1] is int):
            runs[-1] += 1
        else:
            runs.append(1)
            first = rec
    return runs


class TestStructuredTrace:
    @staticmethod
    def _reference(trace):
        return json.dumps({"header": trace.header, "records": trace.records,
                           "summary": trace.summary}, indent=2) + "\n"

    @pytest.mark.parametrize("name", sorted(STRUCTURED_CFGS))
    def test_matches_indented_dumps(self, name):
        trace, _ = run(parse_config(STRUCTURED_CFGS[name]))
        assert trace.to_structured() == self._reference(trace)

    @pytest.mark.parametrize("fmt, suffix", [("structured", ".json"),
                                             ("csv", ".txt")])
    def test_run_file_starts_with_stamp(self, tmp_path, capsys, fmt, suffix):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(GAP_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--format", fmt,
                     "--out", str(out)]) == 0
        config = parse_config(GAP_CFG)
        trace, _ = run(config)
        body = (trace.to_structured() if fmt == "structured"
                else trace.to_columnar())
        path = out / f"run-{config.digest()}{suffix}"
        assert path.read_text() == f"# {trace.stamp()}\n{body}"

    @pytest.mark.parametrize("verb, name, path", [
        ("run", "harness-gap", "run-{}.json"),
        ("emit-plot", "ci-verify", "plot-{}.csv"),
        # a demo's header has no config hash: the name takes its own
        ("run", "harness-demo", "run-{}.json")])
    def test_cli_renders_the_config_once(self, tmp_path, monkeypatch, verb,
                                         name, path):
        # the output is named by the hash that the trace header took
        cfg = CORPUS / f"{name}.cfg"
        digest = parse_config(cfg.read_text()).digest()
        renders = 0
        to_text = ExperimentConfig.to_text

        def counting(self):
            nonlocal renders
            renders += 1
            return to_text(self)

        monkeypatch.setattr(ExperimentConfig, "to_text", counting)
        argv = [verb, "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv + ["--format", "structured"] * (verb == "run")) == 0
        assert renders == 1
        assert (tmp_path / path.format(digest)).is_file()

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
        # a nested value or an empty record after flat ones, in a record
        # that starts a run
        ({}, [{"a": 1}, {"b": [1, 2]}], {}),
        ({}, [{"step": 1, "a": "x"}, {"step": 2, "a": "x"},
              {"step": 3, "a": [1]}, {"step": 4, "a": "y"}, {}], {}),
        # other values that == holds equal but JSON writes apart
        ({}, [{"step": 1, "a": 1}, {"step": 2, "a": 1.0},
              {"step": 3, "a": True}, {"step": 4, "a": 1}], {}),
        ({}, [{"step": 1, "a": 0.0}, {"step": 2, "a": -0.0}], {}),
        # first values that are no int, or a negative one
        ({}, [{"s": s, "a": "x"}
              for s in (1, True, 2.5, -3, -4, "4", -5, 6, False, 0)], {}),
        # a repeated string that holds a format sign and the separator
        ({}, [{"step": k, "a": REPEATED, "b": None}
              for k in range(1, 5)], {}),
        # equal records with their keys in another order
        ({}, [{"step": 1, "a": "x", "b": "y"},
              {"step": 2, "b": "y", "a": "x"},
              {"step": 3, "b": "y", "a": "x"}], {}),
        ({}, [{"step": 1, "a": "x"}, {"a": "x", "step": 2}], {}),
        ({}, [{"step": 1, "a": "x", "b": "x"},
              {"step": 2, "b": "x", "a": "x"}], {}),
        # a record of one field, then a run of them
        ({}, [{"step": k} for k in range(-2, 3)], {}),
        # a run of 1,000 records after one of other values
        ({}, [{"step": 0, "a": "y"}]
         + [{"step": k, "a": "x", "n": 7} for k in range(1, 1001)], {}),
    ])
    def test_edge_traces_match_indented_dumps(self, header, records,
                                              summary):
        for rows in (records, Rows(records, _runs(records))):
            trace = RunTrace(header, rows, summary)
            assert trace.to_structured() == self._reference(trace)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("system", ["rotation:golden", "rotation:sqrt2",
                                        "rotation:1/3", "odometer"])
    def test_seeded_splinter_traces_match_indented_dumps(self, system, seed):
        # J2 is J1 moved by a measure-preserving map, so the windows have
        # equal measure; irrational angles give alpha endpoints and values
        T = make_system(system)
        rng = random.Random(seed)
        if T.kind == "odometer":
            J1 = J2 = random_interval_set(rng, depth=6, allow_tails=False)
            for _ in range(rng.randint(1, 5)):
                J2 = T.preimage(J2)
        else:
            J1 = (random_offset_set(rng, T.angle, depth=6) if T.angle.m
                  else random_interval_set(rng, depth=6, allow_tails=False))
            J2 = J1.translate_mod1(Scalar(F(rng.randrange(64), 64)))
        d = splinter(T, J1, J2, Scalar(F(1, 1000)), 300)
        rows = trace_rows(d.trace)
        assert sum(rows.runs) == len(rows) == d.depth
        trace = RunTrace({"system": system}, rows, {"depth": d.depth})
        assert trace.to_structured() == self._reference(trace)

    def test_long_runs_match_indented_dumps(self):
        # 100,000 steps in three runs, each checked and written from its
        # first row
        values = [render(parse_scalar(text, GOLDEN), 40)
                  for text in ("1/2-alpha", "89/4-36*alpha", "1/7")]
        runs = [1, 33_333, 66_666]
        rows = Rows(runs=runs)
        for value, length in zip(values, runs):
            rows += [{"step": len(rows) + k, "measure": value,
                      "components": 2, "done": False}
                     for k in range(1, length + 1)]
        assert len(rows) == 100_000
        trace = RunTrace({"k": "v"}, rows, {"status": "pass"})
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
