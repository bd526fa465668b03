"""Workload inputs, the recorded reference, and the output check.

Nothing here imports palcore: the parent process that times and checks the
runs never loads the library it measures.

Every seeded input is drawn from a pool whose outputs were recorded at the
commit that defined the benchmark (see record_reference.py), so any seed
can be checked against that reference:

- probe-deep has a single input; the seed only reaches the CLI's --seed.
- slice-sweep picks, per seed, one of the two recorded pairs in each of 16
  Riley-slice cells and 8 loxodromic strata (stratified sampling keeps the
  refusal mix, and so failed_share, steady across seeds).
- witness-grid uses the seed modulo 32 as the probe's sampling seed.
"""
from __future__ import annotations

import gzip
import json
import math
import random
from pathlib import Path

WORKLOADS = ("probe-deep", "slice-sweep", "witness-grid")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

MU4 = {"A": [[1, 1], [0, 1]], "B": [[1, 0], [4, 1]]}
MU_HALF = {"A": [[1, 1], [0, 1]], "B": [[1, 0], [0.5, 1]]}

PROBE_DEPTH = 12
SWEEP_DEPTH = 10
RILEY_CELLS = 16  # 4 x 4 cells over Re(mu) in [-4, 4], Im(mu) in [0, 4]
LOXODROMIC_STRATA = 8
PER_STRATUM = 2
WITNESS = {"depth": 8, "samples": 200, "conj_power": 12, "word_len": 3}
SAMPLE_SEEDS = 32

# |s| agreement demanded wherever both the reference and the run have a
# finite position for the same slope (ROADMAP item 2's tolerance)
S_TOLERANCE = 1e-7


def reference_path(workload: str) -> Path:
    suffix = ".json.gz" if workload == "slice-sweep" else ".json"
    return REFERENCE_DIR / f"{workload}{suffix}"


def load_reference(workload: str) -> dict:
    path = reference_path(workload)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, data: dict) -> None:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(data, separators=(",", ":"))
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=9) as fh:
            fh.write(text)
    else:
        path.write_text(text + "\n", encoding="utf-8")


def sweep_selection(seed: int) -> tuple[list[int], list[int]]:
    """Pool indices of the Riley and loxodromic pairs a seed runs."""
    rng = random.Random(seed)
    riley = [PER_STRATUM * c + rng.randrange(PER_STRATUM) for c in range(RILEY_CELLS)]
    lox = [
        PER_STRATUM * k + rng.randrange(PER_STRATUM) for k in range(LOXODROMIC_STRATA)
    ]
    return riley, lox


def witness_grid_candidates() -> int:
    """Candidates witness_search(rep, conj_power, word_len) visits: two
    palindromes per (C, D, n) over nonempty reduced words C, D."""
    vocabulary = sum(4 * 3 ** (k - 1) for k in range(1, WITNESS["word_len"] + 1))
    return 2 * vocabulary * vocabulary * WITNESS["conj_power"]


def make_inputs(workload: str, seed: int, reference: dict) -> dict:
    """The generated inputs a workload process receives."""
    if workload == "probe-deep":
        return {"gens": MU4, "depth": PROBE_DEPTH, "seed": seed}
    if workload == "slice-sweep":
        riley, lox = sweep_selection(seed)
        pairs = [reference["riley"][i]["gens"] for i in riley]
        pairs += [reference["loxodromic"][i]["gens"] for i in lox]
        return {"pairs": pairs, "depth": reference["depth"],
                "pool": {"riley": riley, "loxodromic": lox}}
    if workload == "witness-grid":
        return {"gens": MU_HALF, "sample_seed": seed % SAMPLE_SEEDS, **WITNESS}
    raise ValueError(f"unknown workload {workload!r}")


# --- entry encoding -------------------------------------------------------
# A spectrum or sample entry is reduced to one value: a float position,
# "inf" / "-inf" for a parabolic-end tag, or "!<ExceptionClass>" for a
# refusal, taken from the prefix of the entry's error text.


def encode(image, error: str | None):
    """Value of a library entry (anything with .image / .error)."""
    if image is not None:
        s = image.s
        if math.isinf(s):
            return "inf" if s > 0 else "-inf"
        return s
    return "!" + (error or "").split(":", 1)[0]


def encode_json(entry: dict):
    """Value of an entry from the CLI's JSON report."""
    if "s" in entry:
        return entry["s"]
    return "!" + entry.get("error", "").split(":", 1)[0]


def is_position(value) -> bool:
    return not (isinstance(value, str) and value.startswith("!"))


def tally(values, refused: dict) -> int:
    """Count refusals by class into `refused`; return the positions."""
    positions = 0
    for v in values:
        if is_position(v):
            positions += 1
        else:
            refused[v[1:]] = refused.get(v[1:], 0) + 1
    return positions


def _agree(ref, run) -> bool:
    if isinstance(ref, str) or isinstance(run, str):
        return ref == run
    return abs(ref - run) <= S_TOLERANCE


def check_values(where: str, ref_keys, ref_values, run: dict, problems: list) -> None:
    """Compare run values (key -> value) with the reference.

    The key sets must match. Where both sides have a position they must
    agree; a refusal on either side is not a mismatch (a recovered slope
    passes, a newly refused one shows in failed_share instead).
    """
    if len(run) != len(ref_values):
        problems.append(f"{where}: {len(run)} entries, reference has {len(ref_values)}")
    for key, ref in zip(ref_keys, ref_values):
        if key not in run:
            problems.append(f"{where}: entry {key} missing")
            continue
        got = run[key]
        if is_position(ref) and is_position(got) and not _agree(ref, got):
            problems.append(f"{where}: entry {key} has s={got}, reference {ref}")


def slope_keys(slopes) -> list[str]:
    return [f"{p}/{q}" for p, q in slopes]
