"""Command-line front end: classify matrices, enumerate primitive words,
export position spectra, run the discreteness probe, dump the hexagon.

Generator files are JSON {"A": matrix, "B": matrix}; a matrix is either
[[a, b], [c, d]] rows or an {"a": ..., "d": ...} entry map, with each
entry a real number or an [re, im] pair. "inf" is the literal for the
point at infinity in all output.

The probe exit code encodes the verdict: 0 for bounded or parabolic-ends,
2 for unbounded evidence, 3 for inconclusive, 1 for any error.
"""
from __future__ import annotations

import json
import math
import os
import re
import sys
from contextlib import contextmanager

import click

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
    normalize_input,
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
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


class _FlagError(click.BadParameter):
    """A bad option value whose message names its flag."""

    def format_message(self) -> str:
        return self.message


def _positive_finite(ctx, param, value: float) -> float:
    """Option callback: the value must be positive (NaN fails) and finite,
    as the report writes it as a JSON number, which has no infinity."""
    if not value > 0:
        raise _FlagError(f"{param.opts[0]} must be positive")
    if math.isinf(value):
        raise _FlagError(f"{param.opts[0]} must be finite")
    return value


def _load_rep(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return rep_from_json(data)
    except (OSError, ValueError, PalcoreError) as exc:
        _fail(exc)


def _check_out(out: str) -> None:
    """Fail before any work when the --out path cannot be opened for
    writing. The check opens it for appending, which leaves an existing
    file as it is, and removes a file that only the check created; the
    report is written (and an existing file replaced) through _output, once
    the work has succeeded."""
    if out == "-":
        return
    existed = os.path.lexists(out)
    try:
        with open(out, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(out)
    except OSError as exc:
        _fail(exc)


@contextmanager
def _output(out: str):
    """The stream a report is written into as it is serialized, with no
    copy of it held as text: stdout, or the --out file."""
    if out == "-":
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        _fail(exc)


def _emit_json(obj, out: str) -> None:
    with _output(out) as stream:
        json.dump(obj, stream, indent=2)
        stream.write("\n")


@contextmanager
def _usage_exits_one():
    try:
        yield
    except click.BadParameter as exc:
        _fail(exc.format_message())
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


class _Group(click.Group):
    """A click group whose usage errors exit 1, as every other error does:
    click's own code for them, 2, is the probe's unbounded verdict. A bad
    option value is reported as the other errors are, on one line."""

    def make_context(self, *args, **kwargs):
        with _usage_exits_one():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_exits_one():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main() -> None:
    """Explore two-generator matrix groups through palindromic axes."""


@main.command("classify")
@click.argument("matrix_json")
def cmd_classify(matrix_json: str) -> None:
    """Classify a matrix: MATRIX_JSON like "[[1,1],[0,1]]"."""
    try:
        m = normalize_input(matrix_from_json(json.loads(matrix_json)))
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
        click.echo(json.dumps(record))
    except (ValueError, PalcoreError) as exc:
        _fail(exc)


# p/q in ASCII decimal digits, a minus sign allowed on each: int() would
# also take a plus sign, spaces, underscores and non-ASCII digits
_SLOPE = re.compile(r"(-?[0-9]+)/(-?[0-9]+)")


# a slope like -1/2 reads as an unknown option, which is passed on as the
# argument, so it meets the slope checks like every other slope
@main.command("primitive", context_settings={"ignore_unknown_options": True})
@click.argument("slope")
def cmd_primitive(slope: str) -> None:
    """Representative word of a slope: SLOPE like "3/5" (1/0 allowed)."""
    match = _SLOPE.fullmatch(slope)
    if match is None:
        _fail(f"slope must have the form p/q, got {slope!r}")
    try:
        node = primitive_word(*map(int, match.groups()))
        record: dict = {
            "p": node.p,
            "q": node.q,
            "word": node.word,
            "palindrome": is_palindrome(node.word),
        }
        if node.factorization is not None:
            record["factors"] = list(node.factorization)
        click.echo(json.dumps(record))
    except (ValueError, PalcoreError) as exc:
        _fail(exc)


@main.command("pi-map")
@click.option("--gens", required=True, help="generator JSON file")
@click.option("--depth", default=4, show_default=True, help="Farey tree depth")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", default="-", show_default=True, help="output path, - for stdout")
def cmd_pi_map(gens: str, depth: int, fmt: str, out: str) -> None:
    """Position spectrum of the palindromic axes over the Farey tree."""
    _check_out(out)
    rep = _load_rep(gens)
    try:
        entries = pi_spectrum(rep, depth)
    except ValueError as exc:
        _fail(exc)
    if fmt == "csv":
        with _output(out) as stream:
            spectrum_to_csv(entries, stream)
    else:
        _emit_json([e.to_json() for e in entries], out)


@main.command("probe")
@click.option("--gens", required=True, help="generator JSON file")
@click.option("--depth", default=6, show_default=True, help="Farey tree depth")
@click.option("--samples", type=click.IntRange(min=0), default=0,
              show_default=True, help="random palindromization count")
@click.option("--seed", default=0, show_default=True, help="sampling seed")
@click.option("--escape", default=DEFAULT_ESCAPE, show_default=True,
              callback=_positive_finite,
              help="|s| threshold for escape evidence; positions beyond "
                   f"1/2 ln(1/singular tolerance) = {CERTIFIABLE_CEILING:.1f} "
                   "are never certified, so the default records no witness")
@click.option("--out", default="-", show_default=True, help="output path, - for stdout")
def cmd_probe(gens: str, depth: int, samples: int, seed: int, escape: float,
              out: str) -> None:
    """Probe the pair for discreteness evidence; exit code is the verdict."""
    _check_out(out)
    rep = _load_rep(gens)
    try:
        report = probe(rep, depth, random_samples=samples, seed=seed, s_escape=escape)
    except (ValueError, PalcoreError) as exc:
        _fail(exc)
    _emit_json(report.to_json(), out)
    sys.exit(verdict_exit_code(report.verdict))


@main.command("hexagon")
@click.option("--gens", required=True, help="generator JSON file")
@click.option("--out", default="-", show_default=True, help="output path, - for stdout")
def cmd_hexagon(gens: str, out: str) -> None:
    """The six geodesics of the right-angled hexagon of the pair."""
    _check_out(out)
    rep = _load_rep(gens)
    try:
        hexa = hexagon(rep)
    except PalcoreError as exc:
        _fail(exc)
    _emit_json(hexa.to_json(), out)


if __name__ == "__main__":
    main()
