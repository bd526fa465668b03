"""Spans at palcore's module boundaries, recorded from outside the library.

install() wraps the public functions listed in SPANS and rebinds every name
under which a palcore module looks them up (palcore.probe, for example,
imports enumerate_farey and pi_of_palindrome by name, and
farey.primitive_word recurses through its module global). Spans are
aggregated as they close, per name: calls, inclusive time of the outermost
span of that name (so recursion is not counted twice), and self time (the
duration minus what child spans cover). Parent -> child call counts and a
few work counters are kept alongside. Only these aggregates stay in memory, so a traced run of the
witness grid (about a million spans) stays small.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

SPANS = {
    "farey": ("enumerate_farey", "primitive_word"),
    "words": ("evaluate",),
    "sl2c": ("classify", "is_identity", "fixed_points"),
    "geodesics": ("axis", "common_perpendicular"),
    "representation": (
        "build", "rational_pi", "pi_of_palindrome", "pi_of_pair", "palindromize",
    ),
    "probe": ("pi_spectrum", "sample_palindromizations", "probe", "witness_search"),
}
LAYERS = ("farey", "words", "sl2c", "geodesics", "representation", "probe", "cli")
POSITION_SPANS = (
    "representation.rational_pi",
    "representation.pi_of_palindrome",
    "representation.pi_of_pair",
    "representation.palindromize",
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.edges: Counter = Counter()  # "parent>child" -> calls
        self.counts: Counter = Counter()
        self.covered = 0.0  # time inside top-level spans
        self._stack: list[list] = []
        self._active: Counter = Counter()

    def record(self, name: str, duration: float) -> None:
        """A top-level span timed by the caller."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += duration
        st[2] += duration
        self.covered += duration

    def wrap(self, name: str, fn, on_return=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, edges = self._stack, self._active, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                stats[2] += duration - frame[1]
                if not active[name]:
                    stats[1] += duration
                if stack:
                    stack[-1][1] += duration
                    edges[f"{stack[-1][0]}>{name}"] += 1
                else:
                    self.covered += duration
            if on_return is not None:
                on_return(args, result)
            return result

        return span

    def to_json(self) -> dict:
        return {
            "stats": self.stats,
            "edges": dict(self.edges),
            "counts": dict(self.counts),
            "covered": self.covered,
        }


class _JsonProxy:
    """Stands in for the json module inside palcore.cli with a traced dumps."""

    def __init__(self, module, dumps) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "palcore" or mod_name.startswith("palcore.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap palcore's module boundaries; returns a function that reads the
    GroupElement product count."""
    import palcore.cli  # noqa: F401  (every module must be loaded to rebind)

    modules = {layer: sys.modules[f"palcore.{layer}"] for layer in LAYERS}
    counts = tracer.counts
    built: set = set()

    def on_enumerate(args, nodes) -> None:
        counts["farey.slopes"] += len(nodes)

    def on_primitive(args, node) -> None:
        if node.slope not in built:
            built.add(node.slope)
            counts["farey.word_letters"] += len(node.word) + sum(
                len(w) for w in node.factorization or ()
            )

    def on_evaluate(args, result) -> None:
        counts["words.letters_evaluated"] += len(args[0])

    hooks = {
        "farey.enumerate_farey": on_enumerate,
        "farey.primitive_word": on_primitive,
        "words.evaluate": on_evaluate,
    }
    for layer, names in SPANS.items():
        for fn_name in names:
            original = getattr(modules[layer], fn_name)
            span_name = f"{layer}.{fn_name}"
            _rebind(original, tracer.wrap(span_name, original, hooks.get(span_name)))

    cli = modules["cli"]
    cli.cmd_probe.callback = tracer.wrap("cli.probe", cli.cmd_probe.callback)
    cli.json = _JsonProxy(json, tracer.wrap("cli.json_dumps", json.dumps))
    report_cls = modules["probe"].ProbeReport
    report_cls.to_json = tracer.wrap("cli.to_json", report_cls.to_json)

    element = modules["sl2c"].GroupElement
    product = element.__mul__
    calls = [0]

    def counted_mul(self, other):
        calls[0] += 1
        return product(self, other)

    element.__mul__ = counted_mul
    return lambda: calls[0]


def _stat(trace: dict, name: str, field: int) -> float:
    return trace["stats"].get(name, [0, 0.0, 0.0])[field]


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced run from its span aggregates.

    Returns (metrics, details). Every time in `metrics` is measured on all
    three workloads; `details` holds the times of boundaries that only some
    workloads cross (witness search, samples, verdict, serialization), which
    would read 0 elsewhere. run.py prints both and puts `metrics` in its
    JSON result.
    """

    def incl(name):
        return _stat(trace, name, 1)

    def self_time(name):
        return _stat(trace, name, 2)

    def layer_self(layer):
        return sum(st[2] for n, st in trace["stats"].items() if n.split(".")[0] == layer)

    counts = trace["counts"]
    candidates = trace["edges"].get(
        "probe.witness_search>representation.pi_of_palindrome", 0
    )
    search_s = incl("probe.witness_search")
    metrics = {
        "farey.enumerate_s": incl("farey.enumerate_farey"),
        "farey.slopes": counts.get("farey.slopes", 0),
        "farey.word_letters": counts.get("farey.word_letters", 0),
        "words.evaluate_s": incl("words.evaluate"),
        "words.evaluate_calls": _stat(trace, "words.evaluate", 0),
        "words.letters_evaluated": counts.get("words.letters_evaluated", 0),
        "sl2c.matmul_count": counts.get("sl2c.matmul", 0),
        "sl2c.classify_s": incl("sl2c.classify"),
        "sl2c.is_identity_s": incl("sl2c.is_identity"),
        "sl2c.fixed_points_s": incl("sl2c.fixed_points"),
        "geodesics.axis_s": incl("geodesics.axis"),
        "geodesics.common_perpendicular_s": incl("geodesics.common_perpendicular"),
        "representation.build_s": incl("representation.build"),
        "representation.rational_pi_s": incl("representation.rational_pi"),
        "representation.pi_of_palindrome_s": incl("representation.pi_of_palindrome"),
        "representation.pi_of_pair_s": incl("representation.pi_of_pair"),
        "representation.position_self_s": sum(self_time(n) for n in POSITION_SPANS),
        "probe.spectrum_s": incl("probe.pi_spectrum"),
        "probe.witness_candidates": candidates,
        "cli.import_s": incl("cli.import"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self(layer)
    metrics["traced.spans"] = sum(st[0] for st in trace["stats"].values())
    details = {
        "probe.samples_s": incl("probe.sample_palindromizations"),
        "probe.verdict_s": self_time("probe.probe"),
        "probe.witness_search_s": search_s,
        "probe.witness_self_s": self_time("probe.witness_search"),
        "probe.witness_candidates_per_s": candidates / search_s if search_s else 0.0,
        "cli.serialize_s": incl("cli.to_json") + incl("cli.json_dumps"),
    }
    return metrics, details
