"""The names the benchmark reaches palcore through.

perfbench/tracer.py wraps the functions listed in its SPANS, and
perfbench/worker.py counts witness candidates by rebinding
palcore.probe.pi_of_palindrome. A rename or deletion in palcore would
otherwise break the traced run or the candidate counter without failing a
test. The tracer imports only the standard library, so it is loaded here by
path.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import palcore.probe  # noqa: F401  (the module; palcore.probe is the function)
from palcore.representation import pi_of_palindrome

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_are_palcore_callables():
    tracer = _load_tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"palcore.{layer}")
    for layer, names in tracer.SPANS.items():
        module = importlib.import_module(f"palcore.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"palcore.{layer}.{name}"


def test_witness_counter_rebinds_a_probe_module_global():
    assert vars(sys.modules["palcore.probe"])["pi_of_palindrome"] is pi_of_palindrome
