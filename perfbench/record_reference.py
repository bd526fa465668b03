"""Record the reference outputs the benchmark checks its runs against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the repository root. It draws the fixed input pools (POOL_SEED),
runs every pool member once with the palcore in src/, and rewrites
perfbench/reference/. Rerun it only in a change that redefines the
benchmark; a change that claims a gain is checked against the reference
recorded before it.
"""
from __future__ import annotations

import cmath
import json
import os
import random
import subprocess
import sys
import tempfile

import workloads as wl

POOL_SEED = 20261017
DIGITS = 10  # stored positions are rounded far below S_TOLERANCE


def _stored(value):
    return round(value, DIGITS) if isinstance(value, float) else value


def _matrix_json(g) -> list:
    return [[[z.real, z.imag] for z in row] for row in ((g.a, g.b), (g.c, g.d))]


def _loxodromic(rng: random.Random, stretch: float):
    from palcore import GroupElement, normalize

    while True:
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(p - q) >= 0.45:
            break
    lam = cmath.rect(stretch, rng.uniform(-0.9, 0.9))
    frame = normalize(GroupElement(p, q, 1 + 0j, 1 + 0j))
    return frame * GroupElement(lam, 0j, 0j, 1 / lam) * frame.inverse()


def sweep_pool() -> tuple[list[dict], list[dict]]:
    """Riley pairs mu uniform in each of 4 x 4 cells of [-4, 4] x [0, 4];
    loxodromic pairs in general position, stratified by the stretch |lambda|
    of A in 8 bands of [1.5, 2.6]."""
    rng = random.Random(POOL_SEED)
    riley = []
    for cell in range(wl.RILEY_CELLS):
        re0, im0 = -4 + 2 * (cell % 4), cell // 4
        for _ in range(wl.PER_STRATUM):
            mu = complex(re0 + 2 * rng.random(), im0 + rng.random())
            riley.append({"mu": [mu.real, mu.imag],
                          "gens": {"A": [[1, 1], [0, 1]],
                                   "B": [[1, 0], [[mu.real, mu.imag], 1]]}})
    loxodromic = []
    band = (2.6 - 1.5) / wl.LOXODROMIC_STRATA
    for k in range(wl.LOXODROMIC_STRATA):
        for _ in range(wl.PER_STRATUM):
            a = _loxodromic(rng, 1.5 + band * (k + rng.random()))
            b = _loxodromic(rng, rng.uniform(1.5, 2.6))
            loxodromic.append({"gens": {"A": _matrix_json(a), "B": _matrix_json(b)}})
    return riley, loxodromic


def record_slice_sweep() -> dict:
    from palcore import pi_spectrum, rep_from_json

    riley, loxodromic = sweep_pool()
    slopes = None
    for pair in riley + loxodromic:
        entries = pi_spectrum(rep_from_json(pair["gens"]), wl.SWEEP_DEPTH)
        if slopes is None:
            slopes = [[e.p, e.q] for e in entries]
        pair["values"] = [_stored(wl.encode(e.image, e.error)) for e in entries]
    return {"depth": wl.SWEEP_DEPTH, "slopes": slopes,
            "riley": riley, "loxodromic": loxodromic}


def record_witness_grid() -> dict:
    from palcore import probe, rep_from_json, witness_search

    rep = rep_from_json(wl.MU_HALF)
    spec = wl.WITNESS
    samples, verdicts = [], set()
    spectrum = None
    for sample_seed in range(wl.SAMPLE_SEEDS):
        report = probe(rep, spec["depth"], random_samples=spec["samples"], seed=sample_seed)
        verdicts.add(report.verdict)
        if spectrum is None:
            spectrum = report.spectrum
        samples.append([_stored(wl.encode(e.image, e.error))
                        for e in report.random_palindrome_samples])
    if len(verdicts) != 1:
        raise SystemExit(f"verdict depends on the sampling seed: {verdicts}")
    found = witness_search(rep, spec["conj_power"], spec["word_len"])
    return {
        "verdict": verdicts.pop(),
        "slopes": [[e.p, e.q] for e in spectrum],
        "spectrum": [_stored(wl.encode(e.image, e.error)) for e in spectrum],
        "samples": samples,
        "witness": None if found is None else found.to_json(),
        "candidates": wl.witness_grid_candidates(),
    }


def record_probe_deep() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        gens = os.path.join(tmp, "gens.json")
        out = os.path.join(tmp, "out.json")
        with open(gens, "w", encoding="utf-8") as fh:
            json.dump(wl.MU4, fh)
        proc = subprocess.run(
            [sys.executable, "-m", "palcore.cli", "probe", "--gens", gens,
             "--depth", str(wl.PROBE_DEPTH), "--out", out],
            check=False,
        )
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    spectrum = report["spectrum"]
    return {
        "verdict": report["verdict"],
        "exit_code": proc.returncode,
        "slopes": [[e["p"], e["q"]] for e in spectrum],
        "spectrum": [_stored(wl.encode_json(e)) for e in spectrum],
        "samples": len(report["random_palindrome_samples"]),
    }


def main() -> None:
    for workload, record in (("probe-deep", record_probe_deep),
                             ("slice-sweep", record_slice_sweep),
                             ("witness-grid", record_witness_grid)):
        data = record()
        wl.save_reference(workload, data)
        print(f"{workload}: {wl.reference_path(workload)}")


if __name__ == "__main__":
    main()
