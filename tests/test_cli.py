"""Command line interface: output shapes, exit codes, error paths."""

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from palcore import cli as cli_module
from palcore import config, geodesics, representation
from palcore.cli import main, verdict_exit_code
from palcore.geodesics import Geodesic
from palcore.probe import (
    BOUNDED_CONSISTENT_WITH_GF,
    INCONCLUSIVE,
    PARABOLIC_ENDS_DETECTED,
    UNBOUNDED_EVIDENCE_NONDISCRETE,
    JorgensenResult,
    ProbeReport,
    SampleEntry,
    SpectrumEntry,
    WitnessRecord,
    _spectrum_plan,
    pi_spectrum,
    probe,
    spectrum_to_csv,
    witness_search,
)
from palcore.representation import (
    PALINDROME_PAIR,
    PALINDROME_WORD,
    PARABOLIC_END,
    Hexagon,
    PiImage,
    hexagon,
    rep_from_json,
)
from palcore.sl2c import INFINITY
from palcore.words import Word

from .conftest import hyperbolic_on_axis


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout, then stderr
    stdout_bytes: bytes


class Runner:
    """Runs a command line entry point in this process with stdout and
    stderr captured. The entry point must end in SystemExit; any other
    exception propagates and fails the test."""

    @staticmethod
    def invoke(cli, args) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as exit_info:
            cli(args)
        code = exit_info.value.code
        return Result(0 if code is None else code, out.getvalue() + err.getvalue(),
                      out.getvalue().encode("utf-8"))


@pytest.fixture
def runner():
    return Runner()


def write_gens(tmp_path, A, B, name="gens.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"A": A, "B": B}))
    return str(path)


@pytest.fixture
def schottky_gens(tmp_path):
    A = hyperbolic_on_axis(1.0, 1.5)
    B = hyperbolic_on_axis(8.0, 1.5)
    return write_gens(tmp_path, A.to_json(), B.to_json())


@pytest.fixture
def mu4_gens(tmp_path):
    return write_gens(tmp_path, [[1, 1], [0, 1]], [[1, 0], [4, 1]])


def assert_one_error_line(res, *fragments):
    """The command failed through _fail: exit 1 and one `error:` line (an
    uncaught exception, a traceback, propagates out of Runner.invoke)."""
    assert res.exit_code == 1
    assert res.output.startswith("error: ")
    assert res.output.count("\n") == 1
    for fragment in fragments:
        assert fragment in res.output


# key tuples of a spectrum entry with a position and of a refused one
_SPECTRUM_KEYS = {
    ("p", "q", "depth", "s", "source", "word", "class"),
    ("p", "q", "depth", "error"),
}

# malformed matrix JSON, and the value each error line must name
_BAD_MATRICES = [
    ("[1, 2]", "got 1"),
    ("5", "got 5"),
    ("[[1, 2], [3, null]]", "got null"),
    ("[[1, 2], [3, true]]", "got true"),
    ("[[NaN, 0], [0, 1]]", "got NaN"),
    ("[[1, 2], [3]]", "got [3]"),
    ('{"a": 1, "b": 0, "c": 0, "d": "x"}', 'got "x"'),
]


class TestExitCodeMap:
    def test_verdict_exit_codes(self):
        assert verdict_exit_code(BOUNDED_CONSISTENT_WITH_GF) == 0
        assert verdict_exit_code(PARABOLIC_ENDS_DETECTED) == 0
        assert verdict_exit_code(UNBOUNDED_EVIDENCE_NONDISCRETE) == 2
        assert verdict_exit_code(INCONCLUSIVE) == 3


class TestClassify:
    def test_loxodromic(self, runner):
        res = runner.invoke(main, ["classify", '[[2, 0], [0, 0.5]]'])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["class"] == "loxodromic"
        assert rec["trace"] == [2.5, 0.0]
        assert [0.0, 0.0] in rec["fixed"] and "inf" in rec["fixed"]

    def test_parabolic_single_point(self, runner):
        res = runner.invoke(main, ["classify", '[[1, 0], [3, 1]]'])
        rec = json.loads(res.output)
        assert rec["class"] == "parabolic"
        assert rec["fixed"] == [[0.0, 0.0]]

    def test_identity_has_no_fixed_list(self, runner):
        res = runner.invoke(main, ["classify", '[[1, 0], [0, 1]]'])
        rec = json.loads(res.output)
        assert rec["class"] == "identity"
        assert "fixed" not in rec

    def test_singular_matrix_fails(self, runner):
        res = runner.invoke(main, ["classify", '[[1, 1], [1, 1]]'])
        assert_one_error_line(res, "too small relative to entries")

    def test_overflowing_entries_are_named(self, runner):
        # the determinant 1e400 overflows; that is not a small determinant
        res = runner.invoke(main, ["classify", "[[1e200, 0], [0, 1e200]]"])
        assert_one_error_line(res, "entry scale 1e+200 overflows the determinant check")
        assert "too small" not in res.output

    def test_finite_determinant_at_a_large_scale_is_not_an_overflow(self, runner):
        # the squared scale 1e320 overflows, the determinant does not
        res = runner.invoke(main, ["classify", "[[1e160, 0], [0, 1e-160]]"])
        assert_one_error_line(res, "determinant (1+0j) too small relative to entries")
        assert "overflows" not in res.output

    def test_entry_modulus_past_the_float_range_is_named(self, runner, tmp_path):
        # both parts are finite, the modulus is not: abs() of the entry raises
        huge = "[[[1.3e308, 1.3e308], 0], [0, 1]]"
        res = runner.invoke(main, ["classify", huge])
        assert_one_error_line(res, "entry scale inf overflows the determinant check")
        gens = write_gens(tmp_path, json.loads(huge), [[1, 0], [4, 1]])
        res = runner.invoke(main, ["probe", "--gens", gens, "--depth", "2"])
        assert_one_error_line(res, "entry scale inf overflows the determinant check")

    def test_determinant_overflowing_to_nan_is_named(self, runner, tmp_path):
        # the entry products overflow to inf, and their difference is NaN
        nan_det = "[[1e200, 1e200], [1e200, 1e200]]"
        message = "determinant overflows to NaN"
        res = runner.invoke(main, ["classify", nan_det])
        assert_one_error_line(res, message)
        gens = write_gens(tmp_path, json.loads(nan_det), [[1, 0], [4, 1]])
        for command in (["probe", "--depth", "2"], ["pi-map"], ["hexagon"]):
            res = runner.invoke(main, [*command, "--gens", gens])
            assert_one_error_line(res, message)

    def test_identity_generator_is_named(self, runner, tmp_path):
        gens = write_gens(tmp_path, [[1, 0], [0, 1]], [[1, 0], [4, 1]])
        res = runner.invoke(main, ["probe", "--gens", gens, "--depth", "2"])
        assert_one_error_line(res, "error: a generator is the identity")

    def test_bad_json_fails(self, runner):
        res = runner.invoke(main, ["classify", "not json"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("matrix, named", _BAD_MATRICES)
    def test_malformed_matrix_fails(self, runner, matrix, named):
        assert_one_error_line(runner.invoke(main, ["classify", matrix]), named)

    def test_missing_entry_is_named(self, runner):
        res = runner.invoke(main, ["classify", '{"a": 1, "b": 0, "c": 0}'])
        assert_one_error_line(res, 'no "d" entry')


class TestPrimitive:
    def test_odd_slope_with_factors(self, runner):
        res = runner.invoke(main, ["primitive", "3/5"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec == {
            "p": 3,
            "q": 5,
            "word": "abaababa",
            "palindrome": False,
            "factors": ["aba", "ababa"],
        }

    def test_even_slope_palindrome(self, runner):
        rec = json.loads(runner.invoke(main, ["primitive", "2/5"]).output)
        assert rec["word"] == "abaaaba"
        assert rec["palindrome"] is True
        assert "factors" not in rec

    def test_unreduced_slope_fails(self, runner):
        assert runner.invoke(main, ["primitive", "2/4"]).exit_code == 1

    def test_malformed_slope_fails(self, runner):
        assert runner.invoke(main, ["primitive", "seven"]).exit_code == 1

    @pytest.mark.parametrize(
        "slope", ["3", "1/", "3/5/7", "1_0/3", "\u0661/\u0662", " 3/5", "+3/5"]
    )
    def test_slope_not_of_the_form_p_q_is_named(self, runner, slope):
        res = runner.invoke(main, ["primitive", slope])
        assert_one_error_line(res, f"slope must have the form p/q, got '{slope}'")

    def test_negative_denominator_is_out_of_range(self, runner):
        res = runner.invoke(main, ["primitive", "3/-5"])
        assert_one_error_line(res, "negative slope 3/-5 is out of range")

    @pytest.mark.parametrize("args", [["-1/2"], ["--", "-1/2"]])
    def test_negative_numerator_is_out_of_range(self, runner, args):
        # a leading '-' does not make the slope an option
        res = runner.invoke(main, ["primitive", *args])
        assert_one_error_line(res, "negative slope -1/2 is out of range")

    def test_help_is_still_an_option(self, runner):
        res = runner.invoke(main, ["primitive", "--help"])
        assert res.exit_code == 0
        assert res.output.startswith("usage: ") and "SLOPE" in res.output


class TestPiMap:
    def test_csv_output(self, runner, schottky_gens):
        res = runner.invoke(main, ["pi-map", "--gens", schottky_gens, "--depth", "3"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "p,q,s,class,source"
        assert len(lines) == 2**3 + 2

    def test_json_output(self, runner, schottky_gens):
        res = runner.invoke(
            main,
            ["pi-map", "--gens", schottky_gens, "--depth", "2", "--format", "json"],
        )
        rows = json.loads(res.output)
        assert len(rows) == 2**2 + 1
        assert {"p", "q"} <= set(rows[0])

    def test_out_writes_file(self, runner, schottky_gens, tmp_path):
        target = tmp_path / "spectrum.csv"
        res = runner.invoke(
            main,
            ["pi-map", "--gens", schottky_gens, "--depth", "2", "--out", str(target)],
        )
        assert res.exit_code == 0
        assert target.read_text().startswith("p,q,s,class,source")

    def test_missing_gens_file_fails(self, runner):
        res = runner.invoke(main, ["pi-map", "--gens", "/nonexistent.json"])
        assert res.exit_code == 1

    def test_bad_tolerance_fails(self, runner, schottky_gens):
        # every tolerance is a constant: no command takes one
        for command in ("pi-map", "probe", "hexagon"):
            res = runner.invoke(
                main, [command, "--gens", schottky_gens, "--tol-geo", "1e-6"]
            )
            assert_one_error_line(res, "unrecognized arguments: --tol-geo")

    def test_json_entry_keys_in_report_order(self, runner, schottky_gens):
        res = runner.invoke(
            main,
            ["pi-map", "--gens", schottky_gens, "--depth", "8", "--format", "json"],
        )
        entries = json.loads(res.output)
        assert {tuple(e) for e in entries} == _SPECTRUM_KEYS
        assert sum("error" in e for e in entries) == 56


class TestProbe:
    def test_bounded_control_exits_zero(self, runner, schottky_gens):
        res = runner.invoke(main, ["probe", "--gens", schottky_gens, "--depth", "6"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["verdict"] == BOUNDED_CONSISTENT_WITH_GF
        assert abs(report["interval"][1] - math.log(8)) < 1e-9

    def test_parabolic_control_exits_zero(self, runner, mu4_gens):
        res = runner.invoke(main, ["probe", "--gens", mu4_gens, "--depth", "4"])
        assert res.exit_code == 0
        assert json.loads(res.output)["verdict"] == PARABOLIC_ENDS_DETECTED

    def test_escape_exits_two(self, runner, schottky_gens):
        res = runner.invoke(
            main,
            ["probe", "--gens", schottky_gens, "--depth", "4", "--escape", "1.0"],
        )
        assert res.exit_code == 2
        report = json.loads(res.output)
        assert report["verdict"] == UNBOUNDED_EVIDENCE_NONDISCRETE
        assert report["witnesses"]

    def test_shallow_probe_exits_three(self, runner, schottky_gens):
        res = runner.invoke(main, ["probe", "--gens", schottky_gens, "--depth", "1"])
        assert res.exit_code == 3

    def test_sampling_options_recorded(self, runner, schottky_gens):
        res = runner.invoke(
            main,
            [
                "probe",
                "--gens",
                schottky_gens,
                "--depth",
                "3",
                "--samples",
                "10",
                "--seed",
                "5",
            ],
        )
        report = json.loads(res.output)
        assert report["seed"] == 5
        assert report["samples_requested"] == 10
        assert len(report["random_palindrome_samples"]) == 10
        # the plateau is a constant, still recorded in the report
        assert report["plateau_delta"] == 0.01

    def test_plateau_is_not_an_option(self, runner, mu4_gens):
        res = runner.invoke(main, ["probe", "--help"])
        assert res.exit_code == 0
        assert "--escape" in res.output and "--plateau" not in res.output
        assert f"= {config.CERTIFIABLE_CEILING:.1f} are never" in res.output
        assert "Farey tree depth (default: 6)" in res.output
        res = runner.invoke(main, ["probe", "--gens", mu4_gens, "--plateau", "0.5"])
        assert_one_error_line(res, "unrecognized arguments: --plateau")

    def test_out_writes_file_and_exit_code_kept(self, runner, schottky_gens, tmp_path):
        target = tmp_path / "report.json"
        res = runner.invoke(
            main,
            [
                "probe",
                "--gens",
                schottky_gens,
                "--depth",
                "4",
                "--escape",
                "1.0",
                "--out",
                str(target),
            ],
        )
        assert res.exit_code == 2
        assert json.loads(target.read_text())["verdict"] == UNBOUNDED_EVIDENCE_NONDISCRETE


class TestUsageErrors:
    """Every usage error exits 1 on one `error:` line that names the flag or
    command: 2 and 3 are probe verdicts."""

    @pytest.mark.parametrize("args, message", [
        (["probe"], "the following arguments are required: --gens"),
        (["probe", "--gens", "{gens}", "--depth", "x"],
         "argument --depth: invalid int value: 'x'"),
        (["pi-map", "--gens", "{gens}", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
        (["bogus"], "invalid choice: 'bogus'"),
        # no option is taken by a prefix of its name
        (["pi-map", "--gens", "{gens}", "--dep", "3"], "unrecognized arguments: --dep 3"),
    ], ids=["missing-option", "bad-int", "bad-choice", "no-such-command", "option-prefix"])
    def test_usage_errors_exit_one(self, runner, mu4_gens, args, message):
        res = runner.invoke(main, [a.format(gens=mu4_gens) for a in args])
        assert_one_error_line(res, message)

    def test_bare_command_prints_usage_and_exits_one(self, runner):
        res = runner.invoke(main, [])
        assert res.exit_code == 1
        assert res.stdout_bytes == b""
        assert res.output.startswith("usage: palcore ")

    @pytest.mark.parametrize("option, value", [
        ("--samples", "-3"),
        ("--escape", "nan"), ("--escape", "0"), ("--escape", "-1"),
        # float() reads 1e999 as inf; JSON has no literal for either
        ("--escape", "inf"), ("--escape", "1e999"),
    ])
    def test_out_of_range_probe_inputs_exit_one(self, runner, mu4_gens, option, value):
        res = runner.invoke(
            main, ["probe", "--gens", mu4_gens, "--depth", "3", option, value]
        )
        assert_one_error_line(res, option)


class TestClosedStdout:
    def test_reader_gone_exits_one_quietly(self, mu4_gens):
        # a reader that stops early, as `palcore pi-map ... | head -1` does;
        # the 1.1 MB report is far larger than a pipe holds
        src = os.path.dirname(os.path.dirname(cli_module.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "palcore.cli", "pi-map", "--gens", mu4_gens,
             "--depth", "12", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")


class TestHexagon:
    def test_six_sides(self, runner, schottky_gens):
        res = runner.invoke(main, ["hexagon", "--gens", schottky_gens])
        assert res.exit_code == 0
        sides = json.loads(res.output)
        assert [s["name"] for s in sides] == [
            "axis_a",
            "core",
            "axis_b",
            "perp_b",
            "axis_ab",
            "perp_a",
        ]

    def test_parabolic_generators_fail(self, runner, mu4_gens):
        res = runner.invoke(main, ["hexagon", "--gens", mu4_gens])
        assert res.exit_code == 1


class TestValidTolerance:
    """The geometric tolerance constant reaches the representation's checks."""

    def _pi_map(self, runner, gens):
        res = runner.invoke(
            main, ["pi-map", "--gens", gens, "--depth", "8", "--format", "json"]
        )
        assert res.exit_code == 0
        return json.loads(res.output)

    def test_pi_map_refuses_more_slopes_at_a_tighter_tolerance(
        self, runner, schottky_gens, monkeypatch
    ):
        default = self._pi_map(runner, schottky_gens)
        # every module that reads the constant binds it at import
        for module in (config, representation, geodesics):
            monkeypatch.setattr(module, "DEFAULT_GEO", 1e-12)
        # the spectrum plan holds no tolerance: one built at depth 8 before
        # the constant was lowered refuses as many slopes as a new one
        warm = self._pi_map(runner, schottky_gens)
        _spectrum_plan.cache_clear()
        tight = self._pi_map(runner, schottky_gens)
        assert sum("error" in e for e in default) == 56
        assert sum("error" in e for e in tight) == 63
        assert warm == tight
        with open(schottky_gens, encoding="utf-8") as fh:
            rep = rep_from_json(json.load(fh))
        assert tight == [e.to_json() for e in pi_spectrum(rep, 8)]


class TestUnwritableOut:
    @pytest.mark.parametrize("command", [
        ["pi-map", "--depth", "2"],
        ["probe", "--depth", "2"],
        ["hexagon"],
    ])
    def test_missing_directory_is_one_error_line(self, runner, schottky_gens,
                                                 tmp_path, command):
        target = tmp_path / "missing" / "out.json"
        res = runner.invoke(
            main, [*command, "--gens", schottky_gens, "--out", str(target)]
        )
        assert_one_error_line(res, str(target))

    @pytest.mark.parametrize("command, work", [
        (["pi-map", "--depth", "2"], "pi_spectrum"),
        (["probe", "--depth", "12"], "probe"),
        (["hexagon"], "hexagon"),
    ])
    def test_path_is_checked_before_the_work(self, runner, schottky_gens,
                                             tmp_path, monkeypatch, command, work):
        calls = []
        monkeypatch.setattr(cli_module, work, lambda *args, **kwargs: calls.append(args))
        target = tmp_path / "missing" / "out.json"
        res = runner.invoke(
            main, [*command, "--gens", schottky_gens, "--out", str(target)]
        )
        assert_one_error_line(res, str(target))
        assert calls == []

    @pytest.mark.parametrize("command", [
        ["pi-map", "--depth", "-1"],
        ["probe", "--depth", "0"],
        ["hexagon"],
    ])
    def test_failed_job_keeps_an_existing_file(self, runner, mu4_gens, tmp_path,
                                               command):
        # each job fails after the check: a negative depth, a depth below 1,
        # and parabolic generators, which have no hexagon
        target = tmp_path / "out.json"
        target.write_text("earlier report\n")
        res = runner.invoke(main, [*command, "--gens", mu4_gens, "--out", str(target)])
        assert_one_error_line(res)
        assert target.read_text() == "earlier report\n"

    def test_failed_job_leaves_no_file(self, runner, mu4_gens, tmp_path):
        target = tmp_path / "out.json"
        res = runner.invoke(main, ["probe", "--gens", mu4_gens, "--depth", "0",
                                   "--out", str(target)])
        assert_one_error_line(res, "depth must be >= 1")
        assert not target.exists()

    def test_existing_file_is_replaced_on_success(self, runner, schottky_gens, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("an earlier report that is longer than the new one\n" * 50)
        res = runner.invoke(main, ["pi-map", "--gens", schottky_gens, "--depth", "1",
                                   "--out", str(target)])
        assert res.exit_code == 0
        assert target.read_text().splitlines()[0] == "p,q,s,class,source"
        assert len(target.read_text().splitlines()) == 4


def _json_report(obj):
    return json.dumps(obj, indent=2) + "\n"


def _csv_report(entries):
    buf = io.StringIO()
    spectrum_to_csv(entries, buf)
    return buf.getvalue()


# each report command with the text its library serialization gives
_REPORTS = {
    "probe": (["probe", "--depth", "6", "--samples", "20", "--escape", "1.0"],
              lambda rep: _json_report(
                  probe(rep, 6, random_samples=20, s_escape=1.0).to_json())),
    "pi-map json": (["pi-map", "--depth", "6", "--format", "json"],
                    lambda rep: _json_report([e.to_json() for e in pi_spectrum(rep, 6)])),
    "pi-map csv": (["pi-map", "--depth", "6"],
                   lambda rep: _csv_report(pi_spectrum(rep, 6))),
    "hexagon": (["hexagon"], lambda rep: _json_report(hexagon(rep).to_json())),
}


class TestStreamedReports:
    """A report is serialized straight into stdout or the --out file, and
    both get the bytes of the whole serialized text."""

    @pytest.mark.parametrize("name", sorted(_REPORTS))
    def test_stdout_and_file_bytes(self, runner, schottky_gens, tmp_path, name):
        args, report = _REPORTS[name]
        with open(schottky_gens, encoding="utf-8") as fh:
            expected = report(rep_from_json(json.load(fh))).encode("utf-8")
        res = runner.invoke(main, [*args, "--gens", schottky_gens])
        assert res.stdout_bytes == expected
        target = tmp_path / "report.out"
        to_file = runner.invoke(main, [*args, "--gens", schottky_gens, "--out", str(target)])
        assert to_file.exit_code == res.exit_code
        assert to_file.stdout_bytes == b""
        assert target.read_bytes() == expected


    def test_mu4_report_bytes(self, runner, mu4_gens, tmp_path):
        # parabolic tags at both core ends, refusals and samples
        with open(mu4_gens, encoding="utf-8") as fh:
            report = probe(rep_from_json(json.load(fh)), 8, random_samples=40)
        assert any(e.error for e in report.spectrum)
        assert {e.image.s for e in report.spectrum if e.image} >= {math.inf, -math.inf}
        target = tmp_path / "report.json"
        res = runner.invoke(main, ["probe", "--gens", mu4_gens, "--depth", "8",
                                   "--samples", "40", "--out", str(target)])
        assert res.exit_code == 0
        assert target.read_text(encoding="utf-8") == _json_report(report.to_json())


def _written(value) -> str:
    """What the report writer puts on stdout for value."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli_module._emit_json(value, "-")
    return out.getvalue()


# floats anywhere in the range, with the points drawn often where repr
# turns to exponent form (1e16 and 1e-5), the zeros, subnormals and the
# values JSON writes as NaN and Infinity
_number_st = st.floats() | st.sampled_from((
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16, -1e16,
    9999999999999998.0, 1e-5, 0.0001, 9.999999999999999e-05, math.inf,
    -math.inf, math.nan,
))
# any text: quotes, backslashes, control characters, non-ASCII
_text_st = st.text()
_label_st = st.sampled_from(
    (PALINDROME_WORD, PALINDROME_PAIR, PARABOLIC_END, "loxodromic", "elliptic",
     "parabolic", "identity")
) | _text_st
_image_st = st.none() | st.builds(PiImage, _number_st, _label_st, _label_st)
_word_st = st.text("aAbB", min_size=1, max_size=12).map(Word)
_spectrum_entry_st = st.builds(
    SpectrumEntry,
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 40),
    st.lists(_word_st, min_size=1, max_size=2).map(tuple),
    _image_st, st.none() | _text_st,
)
_sample_entry_st = st.builds(
    SampleEntry, _text_st, st.none() | _text_st, _image_st, st.none() | _text_st
)
_witness_st = st.builds(WitnessRecord, _text_st, _number_st, _label_st) | st.builds(
    WitnessRecord, _text_st, _number_st, _label_st, _text_st, _text_st, st.integers()
)
_report_st = st.builds(
    ProbeReport,
    depth=st.integers(1, 40),
    seed=st.integers(),
    # a library caller may pass an int, which JSON writes as 4, not 4.0
    s_escape=st.integers(1, 100) | _number_st,
    spectrum=st.lists(_spectrum_entry_st, max_size=8).map(tuple),
    random_palindrome_samples=st.lists(_sample_entry_st, max_size=4).map(tuple),
    interval=st.none() | st.tuples(_number_st, _number_st),
    growth=st.lists(_number_st, max_size=5).map(tuple),
    verdict=_text_st,
    witnesses=st.lists(_witness_st, max_size=3).map(tuple),
    jorgensen=st.builds(JorgensenResult, _number_st, st.booleans()),
)
_point_st = st.just(INFINITY) | st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


class TestReportWriter:
    """The streamed writer formats spectrum and sample entries from their
    fields and everything else through json.dumps; its bytes are those of
    json.dumps(to_json(), indent=2) on any report."""

    @given(_report_st)
    def test_probe_report(self, report):
        assert _written(report.json_fields()) == _json_report(report.to_json())

    @given(st.lists(_spectrum_entry_st, max_size=8))
    def test_pi_map_list(self, entries):
        assert _written(entries) == _json_report([e.to_json() for e in entries])

    @given(st.lists(st.builds(Geodesic, _point_st, _point_st), min_size=6, max_size=6))
    def test_hexagon(self, geodesics):
        value = Hexagon(*geodesics).to_json()
        assert _written(value) == _json_report(value)

    def test_hexagon_with_an_endpoint_at_infinity(self):
        value = Hexagon(*[Geodesic(INFINITY, 1.5 - 2j)] * 6).to_json()
        assert '"inf"' in _written(value)
        assert _written(value) == _json_report(value)


class TestReportKeyOrder:
    """Key order of every record of a probe report, as the CLI writes it."""

    def test_probe_records(self, runner, schottky_gens):
        res = runner.invoke(main, [
            "probe", "--gens", schottky_gens, "--depth", "8", "--samples", "20",
            "--escape", "1.0",
        ])
        assert res.exit_code == 2
        report = json.loads(res.output)
        assert {tuple(e) for e in report["spectrum"]} == _SPECTRUM_KEYS
        samples = {tuple(e) for e in report["random_palindrome_samples"]}
        assert ("base", "word", "s", "source", "class") in samples
        assert samples <= {("base", "word", "s", "source", "class"), ("base", "error")}
        assert report["witnesses"]
        assert {tuple(w) for w in report["witnesses"]} == {("word", "s", "source")}

    def test_search_witness_record(self, schottky_gens):
        with open(schottky_gens, encoding="utf-8") as fh:
            rep = rep_from_json(json.load(fh))
        record = witness_search(rep, 2, 1, s_escape=1.0)
        assert list(record.to_json()) == ["word", "s", "source", "c", "d", "n"]


class TestGensFileForms:
    def test_row_form_matrices_accepted(self, runner, tmp_path):
        gens = write_gens(
            tmp_path,
            [[2, 0], [0, 0.5]],
            [[[1.25, 0], [0.75, 0]], [[0.75, 0], [1.25, 0]]],
        )
        res = runner.invoke(main, ["probe", "--gens", gens, "--depth", "3"])
        assert res.exit_code in (0, 3)

    def test_missing_key_fails(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[1, 0], [0, 1]]}))
        res = runner.invoke(main, ["pi-map", "--gens", str(path)])
        assert_one_error_line(res, 'no "B" matrix')

    def test_missing_entry_of_a_generator_is_named(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[1, 1], [0, 1]], "B": {"a": 1, "b": 0, "d": 1}}))
        res = runner.invoke(main, ["probe", "--gens", str(path), "--depth", "3"])
        assert_one_error_line(res, 'no "c" entry')

    def test_document_must_be_an_object(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        res = runner.invoke(main, ["probe", "--gens", str(path), "--depth", "3"])
        assert_one_error_line(res, "must be an object", "got [1, 2]")

    @pytest.mark.parametrize("matrix, named", _BAD_MATRICES)
    def test_malformed_generator_fails(self, runner, tmp_path, matrix, named):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"A": [[1, 1], [0, 1]], "B": {matrix}}}')
        res = runner.invoke(main, ["probe", "--gens", str(path), "--depth", "3"])
        assert_one_error_line(res, named)
