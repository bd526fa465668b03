"""One workload process: import palcore, build the inputs, run, report.

    python3 worker.py setup|run|trace <workload> <workdir>

The inputs are read from <workdir>/inputs.json. `setup` prints the seconds
from the top of this file to the representations built. `run` times the
workload in this fresh process, with the speed sampler of calibrate.py
running, and writes its outputs, timings and unit times to
<workdir>/result.json; `trace` does the same with the spans of tracer.py
installed instead of the sampler, and adds their aggregates. probe-deep runs the CLI in-process
here only when traced; its untraced runs are `python3 -m palcore.cli`
processes started by run.py through cli_sampled.py.
Uncaught exceptions are recorded per unit of work and never stop the run.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
from workloads import encode  # noqa: E402


def _crash(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _check_origin(root: str) -> None:
    import palcore

    expected = os.path.join(root, "src", "palcore")
    if os.path.dirname(os.path.abspath(palcore.__file__)) != expected:
        raise SystemExit(f"palcore imported from {palcore.__file__}, not {expected}")


def _setup(workload: str, inputs: dict):
    """Import and build; returns what the timed part needs."""
    if workload == "probe-deep":
        import palcore.cli  # noqa: F401  (what the CLI user pays)
    from palcore import rep_from_json

    if workload == "slice-sweep":
        reps = []
        for gens in inputs["pairs"]:
            try:
                reps.append(rep_from_json(gens))
            except Exception as exc:  # a pair that fails to build loses its slopes
                reps.append(_crash(exc))
        return reps
    return rep_from_json(inputs["gens"])


def _slice_sweep(reps, inputs: dict) -> list:
    from palcore import pi_spectrum

    spectra = []
    for rep in reps:
        if isinstance(rep, str):
            spectra.append(rep)
            continue
        try:
            spectra.append(pi_spectrum(rep, inputs["depth"]))
        except Exception as exc:
            spectra.append(_crash(exc))
    return spectra


def _encode_sweep(spectra: list) -> dict:
    pairs = []
    for entries in spectra:
        if isinstance(entries, str):
            pairs.append({"crash": entries})
        else:
            pairs.append({"values": {f"{e.p}/{e.q}": encode(e.image, e.error)
                                     for e in entries}})
    return {"pairs": pairs}


def _witness_grid(rep, inputs: dict) -> dict:
    from palcore import probe, witness_search

    # Candidates are only visible at the boundary witness_search calls; a
    # counting wrapper (no clock) records how each one ended.
    probe_module = sys.modules["palcore.probe"]
    inner = probe_module.pi_of_palindrome
    outcome = {"positions": 0, "refused": {}}

    def counted(rep_, word):
        try:
            image = inner(rep_, word)
        except Exception as exc:
            name = type(exc).__name__
            outcome["refused"][name] = outcome["refused"].get(name, 0) + 1
            raise
        outcome["positions"] += 1
        return image

    probe_module.pi_of_palindrome = counted
    out: dict = {"candidates": outcome}
    try:
        out["report"] = probe(rep, inputs["depth"], random_samples=inputs["samples"],
                              seed=inputs["sample_seed"])
    except Exception as exc:
        out["probe_crash"] = _crash(exc)
    try:
        out["witness"] = witness_search(rep, inputs["conj_power"], inputs["word_len"])
    except Exception as exc:
        out["witness_crash"] = _crash(exc)
    return out


def _encode_witness(out: dict) -> dict:
    report = out.pop("report", None)
    if report is not None:
        out["verdict"] = report.verdict
        out["spectrum"] = {f"{e.p}/{e.q}": encode(e.image, e.error)
                           for e in report.spectrum}
        out["samples"] = [encode(e.image, e.error)
                          for e in report.random_palindrome_samples]
    if out.get("witness") is not None:
        out["witness"] = out["witness"].to_json()
    return out


def _probe_cli(workdir: str, inputs: dict) -> dict:
    """The probe command run in this process (traced runs only)."""
    from palcore.cli import main

    out_path = os.path.join(workdir, "probe.out.json")
    if os.path.exists(out_path):  # never check a report an earlier run left
        os.remove(out_path)
    args = ["probe", "--gens", os.path.join(workdir, "gens.json"),
            "--depth", str(inputs["depth"]), "--seed", str(inputs["seed"]),
            "--out", out_path]
    try:
        main(args, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        return {"exit_code": 1, "crash": _crash(exc), "output": out_path}
    return {"exit_code": code, "output": out_path}


def main() -> None:
    mode, workload, workdir = sys.argv[1:4]
    root = os.environ["PERFBENCH_ROOT"]
    with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    traced = mode == "trace"

    if mode == "setup":
        _setup(workload, inputs)
        elapsed = time.perf_counter() - _T0
        _check_origin(root)
        print(json.dumps({"setup_s": elapsed}))
        return

    tracer = read_products = None
    if traced:
        import tracer as tracing

        start = time.perf_counter()
        import palcore.cli  # noqa: F401

        tracer = tracing.Tracer()
        tracer.record("cli.import", time.perf_counter() - start)
        read_products = tracing.install(tracer)
    _check_origin(root)

    if workload == "probe-deep":
        result = _probe_cli(workdir, inputs)
    else:
        work = _setup(workload, inputs)
        result = {"setup_s": time.perf_counter() - _T0}
        covered0 = tracer.covered if tracer else 0.0
        sampler = None if traced else calibrate.Sampler()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        if sampler:
            sampler.start()
        if workload == "slice-sweep":
            outputs = _slice_sweep(work, inputs)
        else:
            outputs = _witness_grid(work, inputs)
        if sampler:
            sampler.stop()
        wall = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        spent = 0.0
        if sampler:  # the handler's time is not the workload's
            result["speed"] = sampler.to_json()
            spent = sampler.spent
        if workload == "slice-sweep":
            result.update(_encode_sweep(outputs))
        else:
            result.update(_encode_witness(outputs))
        result["wall_s"] = wall - spent
        result["cpu_s"] = ((usage.ru_utime - usage0.ru_utime) + (usage.ru_stime - usage0.ru_stime)
                           - spent)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        if tracer:
            result["covered_s"] = tracer.covered - covered0
    if tracer:
        tracer.counts["sl2c.matmul"] = read_products()
        result["trace"] = tracer.to_json()
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
