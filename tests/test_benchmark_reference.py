"""pi_spectrum against the positions the benchmark recorded.

perfbench/reference holds the outcome of every slope of the benchmark's
spectra: the 48 Riley-slice and loxodromic pool pairs of slice-sweep at
depth 10, mu = 4 at depth 12 (probe-deep) and mu = 1/2 at depth 8
(witness-grid). The benchmark rejects a run whose positions move by more
than its S_TOLERANCE; here the same check runs as a test, and a slope with
a recorded position must not become a refusal either. perfbench/workloads.py
imports only the standard library, so it is loaded here by path.
"""
import functools
import importlib.util
from pathlib import Path

import pytest

from palcore.probe import pi_spectrum
from palcore.representation import rep_from_json

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
_reference = functools.cache(workloads.load_reference)


def _assert_matches(where, gens, depth, slopes, ref_values):
    entries = pi_spectrum(rep_from_json(gens), depth)
    run = {f"{e.p}/{e.q}": workloads.encode(e.image, e.error) for e in entries}
    keys = workloads.slope_keys(slopes)
    problems = []
    workloads.check_values(where, keys, ref_values, run, problems)
    assert problems == []
    lost = [
        key for key, ref in zip(keys, ref_values)
        if workloads.is_position(ref) and not workloads.is_position(run[key])
    ]
    assert lost == []


@pytest.mark.parametrize("pool, index", [
    *(("riley", i) for i in range(32)),
    *(("loxodromic", i) for i in range(16)),
])
def test_slice_sweep_pool_pair(pool, index):
    ref = _reference("slice-sweep")
    pair = ref[pool][index]
    _assert_matches(f"{pool}[{index}]", pair["gens"], ref["depth"], ref["slopes"],
                    pair["values"])


@pytest.mark.parametrize("workload, gens, depth", [
    ("probe-deep", workloads.MU4, workloads.PROBE_DEPTH),
    ("witness-grid", workloads.MU_HALF, workloads.WITNESS["depth"]),
])
def test_control_pair_spectrum(workload, gens, depth):
    ref = _reference(workload)
    _assert_matches(workload, gens, depth, ref["slopes"], ref["spectrum"])
