"""Command-line front end: classify matrices, enumerate primitive words,
export position spectra, run the discreteness probe, dump the hexagon.

Generator files are JSON {"A": matrix, "B": matrix}; a matrix is either
[[a, b], [c, d]] rows or an {"a": ..., "d": ...} entry map, with each
entry a real number or an [re, im] pair. "inf" is the literal for the
point at infinity in all output.

The probe exit code encodes the verdict: 0 for bounded or parabolic-ends,
2 for unbounded evidence, 3 for inconclusive, 1 for any error, usage
errors included.

The parser is the standard library's argparse, so the package has no
runtime dependency; it is built from the command table _COMMANDS when
main runs, not at import.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from itertools import repeat

from .config import CERTIFIABLE_CEILING, DEFAULT_ESCAPE
from .errors import PalcoreError
from .farey import primitive_word
from .probe import (
    BOUNDED_CONSISTENT_WITH_GF,
    INCONCLUSIVE,
    PARABOLIC_ENDS_DETECTED,
    UNBOUNDED_EVIDENCE_NONDISCRETE,
    pi_spectrum,
    probe,
    spectrum_to_csv,
)
from .representation import hexagon, rep_from_json
from .sl2c import (
    boundary_to_json,
    classify,
    fixed_points,
    matrix_from_json,
    normalize,
)
from .words import is_palindrome

_EXIT_CODES = {
    BOUNDED_CONSISTENT_WITH_GF: 0,
    PARABOLIC_ENDS_DETECTED: 0,
    UNBOUNDED_EVIDENCE_NONDISCRETE: 2,
    INCONCLUSIVE: 3,
}


def verdict_exit_code(verdict: str) -> int:
    """Map a probe verdict to the process exit code."""
    return _EXIT_CODES[verdict]


def _fail(message) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1 on one `error:` line, as
    every other error does: argparse's own code for them, 2, is the probe's
    unbounded verdict."""

    def error(self, message):
        _fail(message)


def _count(text: str) -> int:
    """The --samples value: an integer, not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_finite(text: str) -> float:
    """The --escape value: positive (NaN fails) and finite, as the report
    writes it as a JSON number, which has no infinity."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    if math.isinf(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _load_rep(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return rep_from_json(data)


def _check_out(out: str) -> None:
    """Raise OSError before any work when the --out path cannot be opened
    for writing. The check opens it for appending, which leaves an existing
    file as it is, and removes a file that only the check created; the
    report is written (and an existing file replaced) through _output, once
    the work has succeeded."""
    if out == "-":
        return
    existed = os.path.lexists(out)
    with open(out, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(out)


@contextmanager
def _output(out: str):
    """The stream a report is written into as it is serialized, with no
    copy of it held as text: stdout, or the --out file."""
    if out == "-":
        yield sys.stdout
        return
    with open(out, "w", encoding="utf-8") as fh:
        yield fh


def _emit_json(value, out: str) -> None:
    """Write value into stdout or the --out file as json.dump(value,
    stream, indent=2) writes it, then a newline, piece by piece: no copy of
    the text is held. Scalars and keys are written by json.dumps, read
    once from the module global json."""
    dumps = json.dumps
    with _output(out) as stream:
        _write_json(value, stream.write, "\n", dumps)
        stream.write("\n")


def _write_json(value, write, pad: str, dumps) -> None:
    """value in json's indent-2 layout, pad being the newline and the
    indent of the line it starts on: a dict, whose keys are strs, and a
    list or tuple member by member, and any other value as dumps writes
    it. A member with a json_text method (a probe spectrum entry, which
    reports hold by the thousand) is written by that method, from its
    fields, in the same write as its separator."""
    if isinstance(value, dict):
        members = zip([f"{dumps(key)}: " for key in value], value.values())
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        members, ends = zip(repeat(""), value), "[]"
    else:
        write(dumps(value))
        return
    if not value:
        write(ends)
        return
    inner = pad + "  "
    separator = ends[0]
    for key, member in members:
        json_text = getattr(member, "json_text", None)
        if json_text is None:
            write(f"{separator}{inner}{key}")
            _write_json(member, write, inner, dumps)
        else:
            write(f"{separator}{inner}{key}{json_text(inner)}")
        separator = ","
    write(pad + ends[1])


class Command:
    """One command of the table: the function it runs, whose docstring is
    its help, and its arguments as argparse add_argument calls. main reads
    `callback` when the command runs, so a wrapper assigned to it runs in
    its place (perfbench/tracer.py wraps the probe's)."""

    def __init__(self, callback, arguments) -> None:
        self.callback = callback
        self.arguments = arguments


# the command table, in the order help lists it
_COMMANDS: dict[str, Command] = {}


def _command(name: str, *arguments):
    """Enter the decorated function in the table as command `name`."""

    def enter(callback) -> Command:
        command = _COMMANDS[name] = Command(callback, arguments)
        return command

    return enter


def _option(flag: str, default, help: str, **kwargs):
    """An option with a default, which its help shows."""
    return (flag,), {"default": default, "help": f"{help} (default: {default})", **kwargs}


_GENS = (("--gens",), {"required": True, "help": "generator JSON file"})
_OUT = _option("--out", "-", "output path, - for stdout")


@_command("classify", (("matrix_json",), {"metavar": "MATRIX_JSON"}))
def cmd_classify(matrix_json: str) -> None:
    """Classify a matrix: MATRIX_JSON like "[[1,1],[0,1]]"."""
    m = normalize(matrix_from_json(json.loads(matrix_json)))
    kind = classify(m)
    record: dict = {
        "class": kind,
        "trace": [m.trace().real, m.trace().imag],
    }
    if kind != "identity":
        pts = fixed_points(m)
        if kind == "parabolic":
            pts = pts[:1]
        record["fixed"] = [boundary_to_json(p) for p in pts]
    print(json.dumps(record))


# p/q in ASCII decimal digits, a minus sign allowed on each: int() would
# also take a plus sign, spaces, underscores and non-ASCII digits
_SLOPE = re.compile(r"(-?[0-9]+)/(-?[0-9]+)")


@_command("primitive", (("slope",), {"metavar": "SLOPE"}))
def cmd_primitive(slope: str) -> None:
    """Representative word of a slope: SLOPE like "3/5" (1/0 allowed)."""
    match = _SLOPE.fullmatch(slope)
    if match is None:
        _fail(f"slope must have the form p/q, got {slope!r}")
    node = primitive_word(*map(int, match.groups()))
    record: dict = {
        "p": node.p,
        "q": node.q,
        "word": node.word,
        "palindrome": is_palindrome(node.word),
    }
    if node.factorization is not None:
        record["factors"] = list(node.factorization)
    print(json.dumps(record))


@_command("pi-map", _GENS,
          _option("--depth", 4, "Farey tree depth", type=int),
          _option("--format", "csv", "report format", dest="fmt",
                  choices=("csv", "json")),
          _OUT)
def cmd_pi_map(gens: str, depth: int, fmt: str, out: str) -> None:
    """Position spectrum of the palindromic axes over the Farey tree."""
    _check_out(out)
    entries = pi_spectrum(_load_rep(gens), depth)
    if fmt == "csv":
        with _output(out) as stream:
            spectrum_to_csv(entries, stream)
    else:
        _emit_json(entries, out)


@_command("probe", _GENS,
          _option("--depth", 6, "Farey tree depth", type=int),
          _option("--samples", 0, "random palindromization count", type=_count),
          _option("--seed", 0, "sampling seed", type=int),
          _option("--escape", DEFAULT_ESCAPE,
                  "|s| threshold for escape evidence; positions beyond "
                  f"1/2 ln(1/singular tolerance) = {CERTIFIABLE_CEILING:.1f} "
                  "are never certified, so the default records no witness",
                  type=_positive_finite),
          _OUT)
def cmd_probe(gens: str, depth: int, samples: int, seed: int, escape: float,
              out: str) -> None:
    """Probe the pair for discreteness evidence; exit code is the verdict."""
    _check_out(out)
    report = probe(_load_rep(gens), depth, random_samples=samples, seed=seed,
                   s_escape=escape)
    _emit_json(report.json_fields(), out)
    sys.exit(verdict_exit_code(report.verdict))


@_command("hexagon", _GENS, _OUT)
def cmd_hexagon(gens: str, out: str) -> None:
    """The six geodesics of the right-angled hexagon of the pair."""
    _check_out(out)
    _emit_json(hexagon(_load_rep(gens)).to_json(), out)


def _parser() -> argparse.ArgumentParser:
    """The parser of the command table. No option is taken by a prefix of
    its name (allow_abbrev), so a mistyped or retired option is refused."""
    parser = _Parser(
        prog="palcore",
        description="Explore two-generator matrix groups through palindromic axes.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     title="commands", required=True)
    for name, command in _COMMANDS.items():
        doc = command.callback.__doc__
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        for flags, kwargs in command.arguments:
            sub.add_argument(*flags, **kwargs)
    return parser


def _slope_as_argument(argv: list[str]) -> list[str]:
    """argv with `--` before a primitive slope such as -1/2, which argparse
    reads as an unknown option: the slope then meets the slope checks like
    every other slope."""
    if argv[0] == "primitive" and argv[1:2] and argv[1].startswith("-") \
            and argv[1] not in ("-h", "--help", "--"):
        return ["primitive", "--", *argv[1:]]
    return argv


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one palcore command on args (sys.argv[1:] when None); the call
    always ends in SystemExit with the exit code. A bare `palcore` prints
    the help on stderr and exits 1.

    main is the one place where a command's error, an OSError, ValueError
    or PalcoreError, becomes one `error:` line on stderr and exit 1; the
    commands and their helpers only raise.

    standalone_mode changes nothing. Its one caller is perfbench/worker.py,
    which runs a traced probe in process as main(args, standalone_mode=False)
    and reads the exit code from the SystemExit.
    """
    argv = sys.argv[1:] if args is None else list(args)
    parser = _parser()
    if not argv:
        parser.print_help(sys.stderr)
        sys.exit(1)
    namespace = vars(parser.parse_args(_slope_as_argument(argv)))
    command = _COMMANDS[namespace.pop("command")]
    try:
        command.callback(**namespace)
    except BrokenPipeError:
        # the reader of stdout has gone (`palcore pi-map ... | head`); stdout
        # is pointed at devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except (OSError, ValueError, PalcoreError) as exc:
        _fail(exc)
    sys.exit(0)


if __name__ == "__main__":
    main()
