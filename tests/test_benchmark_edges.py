"""The names and shapes the benchmark reaches palcore through.

perfbench/tracer.py wraps the functions listed in its SPANS, and
perfbench/worker.py counts witness candidates by rebinding
palcore.probe.pi_of_palindrome. The traced farey span wraps
enumerate_farey, the tree as nodes; pi_spectrum reads the tree through
the palcore.probe global farey_table, which no span wraps. Two of
the tracer's spans also read what passes through them: the words.evaluate
hook counts len(args[0]) as words.letters_evaluated, and the
farey.primitive_word hook reads the returned node's slope and the lengths
of its word and factors. The tracer also wraps the probe command's
cli.cmd_probe.callback and replaces the module global cli.json, and a
traced probe-deep run calls cli.main(args, standalone_mode=False) in
process, reading its exit code from the SystemExit. A rename,
deletion or signature change in palcore would otherwise break the traced
run, the candidate counter or a work counter without failing a test. The tracer
imports only the standard library, so it is loaded here by path.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import palcore.probe  # noqa: F401  (the module; palcore.probe is the function)
from palcore import cli
from palcore.config import DEFAULT_ESCAPE
from palcore.farey import farey_table
from palcore.probe import pi_spectrum
from palcore.representation import PALINDROME_PAIR, pi_of_palindrome, rational_pi
from palcore.words import Word

from .conftest import hyperbolic_on_axis

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


def test_spectrum_walk_reads_a_probe_module_global(monkeypatch, mu4):
    # the spectrum plan, built once per depth, calls farey_table by a
    # palcore.probe global, which a tracer can rebind
    probe_module = sys.modules["palcore.probe"]
    assert vars(probe_module)["farey_table"] is farey_table
    depths = []

    def walk(depth):
        depths.append(depth)
        return farey_table(depth)

    monkeypatch.setattr(probe_module, "farey_table", walk)
    probe_module._spectrum_plan.cache_clear()
    pi_spectrum(mu4, 3)
    assert depths == [3]


def _spy(monkeypatch, layer: str, name: str) -> list:
    """Wrap palcore.<layer>.<name> under every name a palcore module looks it
    up by, as the tracer does; returns the (args, result) of each call."""
    original = getattr(importlib.import_module(f"palcore.{layer}"), name)
    calls = []

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "palcore" or mod_name.startswith("palcore.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, spy)
    return calls


def test_evaluate_receives_the_word_first(monkeypatch, mu4):
    calls = _spy(monkeypatch, "words", "evaluate")
    pi_spectrum(mu4, 4)
    pi_of_palindrome(mu4, Word("abbba"))
    assert calls
    # the hook counts len(args[0]) letters: the word, or the slice of one, folded
    assert sum(len(args[0]) for args, _ in calls) > 0
    assert all(len(args[0]) == len(str(args[0])) for args, _ in calls)


def test_primitive_word_nodes_carry_slope_word_and_factorization(monkeypatch, mu4):
    calls = _spy(monkeypatch, "farey", "primitive_word")
    for p, q in ((0, 1), (2, 5), (3, 5), (13, 8)):
        rational_pi(mu4, p, q)
    assert len(calls) == 4
    for args, node in calls:
        assert node.slope == tuple(args)
        factors = node.factorization or ()
        assert isinstance(node.word, Word)
        assert all(isinstance(w, Word) for w in factors)
        assert len(node.word) == sum(args)
        assert len(factors) == (2 if args[0] * args[1] % 2 else 0)
        assert sum(map(len, factors)) in (0, len(node.word))


def test_spectrum_classifies_each_image_once(monkeypatch, mu4):
    # classify's rule, sl2c._classify_moduli, runs once per palindrome
    # image and once per positioned pair's UV; the crossing check makes
    # none. The palindrome kernel applies the rule to the moduli it has
    # taken, so the tracer's sl2c.classify span sees only the pairs' calls
    calls = _spy(monkeypatch, "sl2c", "classify")
    rule_calls = _spy(monkeypatch, "sl2c", "_classify_moduli")
    spectrum = pi_spectrum(mu4, 12)
    palindromes = sum(len(e.words) == 1 for e in spectrum)
    pairs = sum(e.image is not None and e.image.source == PALINDROME_PAIR
                for e in spectrum)
    assert (len(rule_calls), len(calls), palindromes, pairs) == (2837, 105, 2732, 105)


def _gens(tmp_path, A, B) -> str:
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"A": A, "B": B}))
    return str(path)


def _mu4_gens(tmp_path) -> str:
    return _gens(tmp_path, [[1, 1], [0, 1]], [[1, 0], [4, 1]])


def test_probe_runs_the_callback_found_on_its_command(monkeypatch, tmp_path):
    # the tracer assigns its cli.probe span to cmd_probe.callback
    original = cli.cmd_probe.callback
    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return original(**kwargs)

    monkeypatch.setattr(cli.cmd_probe, "callback", spy)
    gens, out = _mu4_gens(tmp_path), str(tmp_path / "report.json")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["probe", "--gens", gens, "--depth", "4", "--out", out])
    assert exit_info.value.code == 0
    assert calls == [{"gens": gens, "depth": 4, "samples": 0, "seed": 0,
                      "escape": DEFAULT_ESCAPE, "out": out}]


def test_report_is_written_through_the_cli_json_global(monkeypatch, tmp_path):
    # the tracer replaces cli.json with a proxy that passes every other
    # name on to the json module; the report writer reads json.dumps from
    # it once, for the report's keys and scalars
    class Recording:
        def __init__(self):
            self.read = []

        def __getattr__(self, attr):
            self.read.append(attr)
            return getattr(json, attr)

    proxy = Recording()
    monkeypatch.setattr(cli, "json", proxy)
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit):
        cli.main(["probe", "--gens", _mu4_gens(tmp_path), "--depth", "4",
                  "--out", str(out)])
    assert proxy.read == ["load", "dumps"]
    assert json.loads(out.read_text())["depth"] == 4


@pytest.mark.parametrize("pair, args, code", [
    ("mu4", ["--depth", "4"], 0),
    ("schottky", ["--depth", "4", "--escape", "1.0"], 2),
    ("schottky", ["--depth", "1"], 3),
])
def test_in_process_probe_ends_in_the_verdict_exit(tmp_path, pair, args, code):
    # the call a traced probe-deep run makes
    if pair == "mu4":
        gens = _mu4_gens(tmp_path)
    else:
        gens = _gens(tmp_path, hyperbolic_on_axis(1.0, 1.5).to_json(),
                     hyperbolic_on_axis(8.0, 1.5).to_json())
    out = tmp_path / "probe.out.json"
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["probe", "--gens", gens, *args, "--out", str(out)],
                 standalone_mode=False)
    assert exit_info.value.code == code
    assert out.exists()
