"""One SHA-256 per input set over every outcome palcore gives on it.

Run from the repository root:

    PYTHONPATH=src python3 -m tests.outcome_digest

Each line is a digest, the number of outcomes hashed and the name of the
input set. An outcome is the slope (p, q, depth) or word it belongs to,
then either its position as s.hex(), its source and its element class, or
its error text with the error's class. Two checkouts that print the same
lines gave the same outcomes bit for bit on these inputs; a change meant to
keep every outcome is compared so, run against run on one machine. The
digests are not pinned anywhere: the last bits of libm functions may
differ from one platform to another.

The input sets:

- pi_spectrum at depth 10 on each of the 48 pool pairs of the slice-sweep
  benchmark, read from perfbench/reference/slice-sweep.json.gz;
- pi_spectrum on mu4 at depths 12 and 14, on mu_half at 10 and on the
  Schottky pair at 12;
- every candidate of witness_search(rep, 12, 3), 64,896 of them, on
  mu_half, mu4 and a complex loxodromic pair, in the order the search
  visits them;
- probe(mu_half, 8) with 200 random samples for seeds 0 to 3: spectrum,
  samples, interval, growth, verdict, witnesses and Jorgensen value;
- the palcore command line, run in process through palcore.cli.main: the
  stdout bytes and exit code of each run in CLI_RUNS, with the generator
  files written from the pairs above.
"""
from __future__ import annotations

import gzip
import hashlib
import importlib
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from palcore.cli import main as cli_main
from palcore.errors import PalcoreError
from palcore.probe import pi_spectrum, probe, witness_search
from palcore.representation import build, rep_from_json
from palcore.sl2c import GroupElement

SWEEP_REFERENCE = (
    Path(__file__).resolve().parent.parent / "perfbench" / "reference"
    / "slice-sweep.json.gz"
)
# the module, which the package's probe function shadows as an attribute
PROBE_MODULE = importlib.import_module("palcore.probe")
SWEEP_DEPTH = 10
WITNESS_GRID = (12, 3)
WITNESS_CANDIDATES = 64_896
PROBE_SEEDS = range(4)
# sqrt(1.5^2 - 1): the off-diagonal scale of a trace-3 hyperbolic element
_SINH = math.sqrt(1.5 * 1.5 - 1)
# the named generator pairs
GENERATORS = {
    "mu4": (GroupElement(1, 1, 0, 1), GroupElement(1, 0, 4, 1)),
    "mu_half": (GroupElement(1, 1, 0, 1), GroupElement(1, 0, 0.5, 1)),
    # separated axes [-1, 1] and [-8, 8], trace 3 each
    "schottky": (
        GroupElement(1.5, _SINH, _SINH, 1.5),
        GroupElement(1.5, 8.0 * _SINH, _SINH / 8.0, 1.5),
    ),
    "complex": (GroupElement(2, 1, 1, 1), GroupElement(1, 0, 0.3 + 2.1j, 1)),
}
# command lines; {name} stands for the generator file of that pair
CLI_RUNS = (
    ["probe", "--gens", "{mu4}", "--depth", "12"],
    ["probe", "--gens", "{mu_half}", "--depth", "10", "--samples", "50",
     "--escape", "4", "--seed", "1"],
    *(["pi-map", "--gens", f"{{{name}}}", "--depth", "12", "--format", fmt]
      for name in ("mu4", "mu_half", "schottky") for fmt in ("csv", "json")),
    ["hexagon", "--gens", "{schottky}"],
    *(["primitive", slope] for slope in (
        "0/1", "1/0", "1/1", "2/5", "3/5", "13/8", "89/55", "2/4", "-1/2")),
    *(["classify", matrix] for matrix in (
        "[[2, 0], [0, 0.5]]", "[[1, 0], [3, 1]]", "[[0, -1], [1, 0]]",
        "[[[1, 1], 2], [0.5, [1, -1]]]")),
)


def _pairs() -> dict:
    """The named generator pairs, built."""
    return {name: build(A, B) for name, (A, B) in GENERATORS.items()}


def _outcome(image, error: str | None) -> str:
    if image is None:
        return f"error {error}"
    return f"{image.s.hex()} {image.source} {image.element_class}"


def _entry_line(e) -> str:
    """A spectrum entry (p, q, depth, words) or a sample entry (base, word)."""
    if hasattr(e, "p"):
        head = f"{e.p}/{e.q} {e.depth} {e.word}"
    else:
        head = f"{e.base} {e.word}"
    return f"{head} {_outcome(e.image, e.error)}"


def _digest(lines) -> tuple[str, int]:
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
        count += 1
    return h.hexdigest(), count


def _sweep_reps():
    with gzip.open(SWEEP_REFERENCE, "rt", encoding="utf-8") as fh:
        reference = json.load(fh)
    for kind in ("riley", "loxodromic"):
        for i, pair in enumerate(reference[kind]):
            yield f"{kind}[{i}]", rep_from_json(pair["gens"])


def _sweep_lines():
    for name, rep in _sweep_reps():
        for e in pi_spectrum(rep, SWEEP_DEPTH):
            yield f"{name} {_entry_line(e)}"


def _candidate_lines(rep) -> list[str]:
    """The outcome of every witness_search candidate, read where the search
    places it: at its call of palcore.probe.pi_of_palindrome."""
    lines: list[str] = []
    place = PROBE_MODULE.pi_of_palindrome

    def recorded(rep, word):
        try:
            image = place(rep, word)
        except PalcoreError as exc:
            lines.append(f"{word} error {type(exc).__name__}: {exc}")
            raise
        lines.append(f"{word} {_outcome(image, None)}")
        return image

    PROBE_MODULE.pi_of_palindrome = recorded
    try:
        found = witness_search(rep, *WITNESS_GRID)
    finally:
        PROBE_MODULE.pi_of_palindrome = place
    if found is not None or len(lines) != WITNESS_CANDIDATES:
        raise RuntimeError(
            f"witness_search stopped after {len(lines)} candidates with {found}"
        )
    return lines


def _probe_lines(rep, seed: int):
    report = probe(rep, 8, random_samples=200, seed=seed)
    for e in report.spectrum + report.random_palindrome_samples:
        yield _entry_line(e)
    interval = "none" if report.interval is None else " ".join(
        v.hex() for v in report.interval
    )
    yield f"interval {interval}"
    yield "growth " + " ".join(v.hex() for v in report.growth)
    yield f"verdict {report.verdict}"
    for w in report.witnesses:
        yield f"witness {w.word} {w.s.hex()} {w.source} {w.c} {w.d} {w.n}"
    yield f"jorgensen {report.jorgensen.value.hex()} {report.jorgensen.passed}"


def _cli_lines():
    """One line per run of CLI_RUNS: the command line, the exit code and the
    SHA-256 of the stdout bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, (A, B) in GENERATORS.items():
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(
                json.dumps({"A": A.to_json(), "B": B.to_json()}), encoding="utf-8"
            )
        for args in CLI_RUNS:
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                try:
                    cli_main([a.format(**files) for a in args])
                    code = None
                except SystemExit as exc:
                    code = exc.code
            stdout.flush()
            digest = hashlib.sha256(stdout.buffer.getvalue()).hexdigest()
            yield f"{' '.join(args)} exit {code} {digest}"


def input_sets():
    """(name, outcome lines) for every input set, computed lazily."""
    pairs = _pairs()
    yield f"slice-sweep pool, pi_spectrum depth {SWEEP_DEPTH}", _sweep_lines()
    for name, depth in (("mu4", 12), ("mu4", 14), ("mu_half", 10), ("schottky", 12)):
        yield f"{name} pi_spectrum depth {depth}", map(
            _entry_line, pi_spectrum(pairs[name], depth)
        )
    for name in ("mu_half", "mu4", "complex"):
        yield f"{name} witness_search{WITNESS_GRID}", _candidate_lines(pairs[name])
    for seed in PROBE_SEEDS:
        yield f"mu_half probe depth 8, 200 samples, seed {seed}", _probe_lines(
            pairs["mu_half"], seed
        )
    yield f"palcore command line, {len(CLI_RUNS)} runs", _cli_lines()


def main() -> None:
    for name, lines in input_sets():
        digest, count = _digest(lines)
        print(f"{digest}  {count:>6}  {name}", flush=True)


if __name__ == "__main__":
    main()
