"""palcore benchmark: time, check and trace one workload.

    python3 perfbench/run.py --workload probe-deep|slice-sweep|witness-grid \
        --seed N --seconds S --trace 0|1

Run from the repository root. Each repetition is a fresh Python process
(cold caches, as every CLI or script user pays); repetitions continue
until the next one would end after --seconds, with at least MIN_REPS.
--trace 0 prints the end-to-end metrics (medians over repetitions, plus
set-up time as the median over fresh interpreters started between them),
with times scaled to the reference speed of calibrate.py; --trace 1
alternates untraced and traced repetitions and prints the per-layer
metrics. Every repetition's output is checked against perfbench/reference.
The last line of stdout is the JSON result; the lines above it are a
readable report, and the full record is appended to
perfbench/work/results.jsonl. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import workloads as wl

HERE = Path(__file__).resolve().parent
MIN_REPS = 2
SETUP_FIRST = 3  # set-up samples before the first repetition
SETUP_PER_REP = 2  # and after each untraced repetition
HARD_LIMIT_S = 170.0  # the whole run, set-up and checks included

TIMED = ("wall_s", "cpu_s", "peak_rss_mb")  # medians over repetitions
REFUSAL_CLASSES = ("CommutingPair", "OrthogonalityViolation", "IdentityImage",
                   "TrivialPalindromization")


class Deadline(Exception):
    pass


def _spawn(argv: list[str], env: dict, deadline: float, stdout_path: Path):
    """Run a child to completion; returns (exit code, wall seconds, rusage).

    The child is killed (and still reaped) at the deadline. os.wait4
    blocks without polling, so the wall time carries no sleep jitter.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise Deadline()
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)

        def kill(signum, frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _err_tail(stdout_path: Path) -> str:
    text = stdout_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    return text.strip().splitlines()[-1] if text.strip() else "no stderr"


class Bench:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.workload = workload
        self.reference = wl.load_reference(workload)
        self.inputs = wl.make_inputs(workload, seed, self.reference)
        self.work = HERE / "work" / workload
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "inputs.json").write_text(json.dumps(self.inputs), encoding="utf-8")
        if "gens" in self.inputs:
            (self.work / "gens.json").write_text(json.dumps(self.inputs["gens"]),
                                                 encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PERFBENCH_ROOT=str(root), PYTHONHASHSEED="0")
        self.env.pop("PYTHONSTARTUP", None)
        self.problems: list[str] = []

    def _worker(self, mode: str, deadline: float):
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.workload, str(self.work)]
        return _spawn(argv, self.env, deadline, self.work / f"{mode}.out")

    # --- one repetition -------------------------------------------------
    def setup_sample(self, deadline: float) -> float:
        code, _, _ = self._worker("setup", deadline)
        out = (self.work / "setup.out").read_text(encoding="utf-8")
        if code != 0:
            raise SystemExit(f"set-up failed ({code}): {_err_tail(self.work / 'setup.out')}")
        return json.loads(out.strip().splitlines()[-1])["setup_s"]

    def repetition(self, deadline: float, traced: bool) -> dict:
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        if self.workload == "probe-deep" and not traced:
            cli_out = self.work / "probe.out.json"
            cli_out.unlink(missing_ok=True)
            speed_path = self.work / "speed.json"
            speed_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "cli_sampled.py"), str(speed_path), "probe",
                    "--gens", str(self.work / "gens.json"),
                    "--depth", str(self.inputs["depth"]),
                    "--seed", str(self.inputs["seed"]), "--out", str(cli_out)]
            code, wall, usage = _spawn(argv, self.env, deadline, self.work / "cli.out")
            rep = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}
            if speed_path.exists():  # the sampler's handler time is not the CLI's
                rep["speed"] = json.loads(speed_path.read_text(encoding="utf-8"))
                rep["wall_s"] -= rep["speed"]["spent_s"]
                rep["cpu_s"] -= rep["speed"]["spent_s"]
            self._check_probe_deep(rep, code, cli_out, self.work / "cli.out")
            return rep
        code, wall, usage = self._worker("trace" if traced else "run", deadline)
        result = None
        if code == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        if self.workload == "probe-deep":
            rep = {"wall_s": wall}
            if result is None:
                self._check_probe_deep(rep, 1, None, self.work / "trace.out")
            else:
                self._check_probe_deep(rep, result["exit_code"], Path(result["output"]),
                                       None, result.get("crash"))
        elif result is None:
            rep = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}
            self._lost(rep, self._all_ops(), f"worker exit {code}: "
                       + _err_tail(self.work / ("trace.out" if traced else "run.out")))
        else:
            rep = {k: result[k] for k in TIMED}
            if "speed" in result:
                rep["speed"] = result["speed"]
            check = self._check_slice_sweep if self.workload == "slice-sweep" \
                else self._check_witness_grid
            check(rep, result)
        if traced and result is not None:
            rep["trace"] = result["trace"]
            rep["covered_s"] = result.get("covered_s", result["trace"]["covered"])
            out = result.get("output")
            rep["output_bytes"] = os.path.getsize(out) if out and os.path.exists(out) else 0
        return rep

    # --- output checks ---------------------------------------------------
    def _all_ops(self) -> int:
        ref = self.reference
        if self.workload == "probe-deep":
            return len(ref["spectrum"])
        if self.workload == "slice-sweep":
            return len(self.inputs["pairs"]) * len(ref["slopes"])
        return len(ref["spectrum"]) + self.inputs["samples"] + ref["candidates"]

    @staticmethod
    def _start(rep: dict) -> None:
        rep.update(attempted=0, failed=0, positions=0, refused={}, crashes=[])

    def _lost(self, rep: dict, ops: int, why: str) -> None:
        """Operations an uncaught exception kept from finishing."""
        if "attempted" not in rep:
            self._start(rep)
        rep["attempted"] += ops
        rep["failed"] += ops
        rep["crashes"].append(why)

    def _values(self, rep: dict, values) -> None:
        rep["attempted"] += len(values)
        rep["positions"] += wl.tally(values, rep["refused"])

    def _check_probe_deep(self, rep, code, out_path, log_path, crash=None) -> None:
        self._start(rep)
        ref = self.reference
        report = None
        if code in (0, 2, 3) and out_path is not None and out_path.exists():
            try:
                report = json.loads(out_path.read_text(encoding="utf-8"))
            except ValueError:
                report = None
        if report is None:
            why = crash or (_err_tail(log_path) if log_path else "no report")
            self._lost(rep, len(ref["spectrum"]), f"CLI exit {code}: {why}")
            return
        if report.get("verdict") != ref["verdict"] or code != ref["exit_code"]:
            self.problems.append(f"verdict {report.get('verdict')} / exit {code}, "
                                 f"reference {ref['verdict']} / exit {ref['exit_code']}")
        if len(report.get("random_palindrome_samples", [])) != ref["samples"]:
            self.problems.append("sample count differs from the reference")
        run = {f"{e['p']}/{e['q']}": wl.encode_json(e) for e in report.get("spectrum", [])}
        wl.check_values("spectrum", wl.slope_keys(ref["slopes"]), ref["spectrum"], run,
                        self.problems)
        self._values(rep, list(run.values()))

    def _check_slice_sweep(self, rep: dict, result: dict) -> None:
        self._start(rep)
        ref = self.reference
        keys = wl.slope_keys(ref["slopes"])
        pool = self.inputs["pool"]
        ref_pairs = [ref["riley"][i] for i in pool["riley"]]
        ref_pairs += [ref["loxodromic"][i] for i in pool["loxodromic"]]
        for n, (ref_pair, got) in enumerate(zip(ref_pairs, result["pairs"])):
            if "crash" in got:
                self._lost(rep, len(keys), f"pair {n}: {got['crash']}")
                continue
            wl.check_values(f"pair {n}", keys, ref_pair["values"], got["values"],
                            self.problems)
            self._values(rep, list(got["values"].values()))

    def _check_witness_grid(self, rep: dict, result: dict) -> None:
        self._start(rep)
        ref = self.reference
        if "probe_crash" in result:
            self._lost(rep, len(ref["spectrum"]) + self.inputs["samples"],
                       f"probe: {result['probe_crash']}")
        else:
            if result["verdict"] != ref["verdict"]:
                self.problems.append(f"verdict {result['verdict']}, reference {ref['verdict']}")
            wl.check_values("spectrum", wl.slope_keys(ref["slopes"]), ref["spectrum"],
                            result["spectrum"], self.problems)
            ref_samples = ref["samples"][self.inputs["sample_seed"]]
            wl.check_values("samples", range(len(ref_samples)), ref_samples,
                            dict(enumerate(result["samples"])), self.problems)
            self._values(rep, list(result["spectrum"].values()) + result["samples"])
        if "witness_crash" in result:
            self._lost(rep, ref["candidates"], f"witness_search: {result['witness_crash']}")
            return
        if result["witness"] != ref["witness"]:
            self.problems.append(f"witness {result['witness']}, reference {ref['witness']}")
        seen = result["candidates"]
        observed = seen["positions"] + sum(seen["refused"].values())
        # a search that no longer goes through pi_of_palindrome shows 0 here
        if observed not in (0, ref["candidates"]):
            self.problems.append(f"{observed} witness candidates, reference {ref['candidates']}")
        rep["attempted"] += ref["candidates"]
        rep["positions"] += seen["positions"]
        for name, count in seen["refused"].items():
            rep["refused"][name] = rep["refused"].get(name, 0) + count


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def calibrated(reps: list[dict], setups: list[float], blocks: list[list[float]],
               setup_blocks: list[int]) -> list[float]:
    """Scale the times to the reference machine speed (see calibrate.py).

    A repetition is scaled by the unit times sampled inside it (by the
    calibration block after it if it has none, as when it crashed early);
    a set-up sample by the block that follows it. The measured values stay
    in each repetition as raw_wall_s / raw_cpu_s. Returns the scaled
    set-up samples.
    """
    for i, r in enumerate(reps):
        samples = r.get("speed", {}).get("samples") or blocks[i + 1]
        factor = calibrate.scale(samples)
        r["speed_factor"] = factor
        r["raw_wall_s"], r["raw_cpu_s"] = r["wall_s"], r["cpu_s"]
        r["wall_s"], r["cpu_s"] = r["wall_s"] * factor, r["cpu_s"] * factor
    return [s * calibrate.scale(blocks[b]) for s, b in zip(setups, setup_blocks)]


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    for r in reps:
        refused = sum(r["refused"].values())
        r["positions_per_s"] = r["positions"] / r["wall_s"]
        r["failed_share"] = (refused + r["failed"]) / r["attempted"]
    names = TIMED + ("positions_per_s", "failed_share")
    metrics = {name: _median(reps, name) for name in names}
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """(metrics, details) as in tracer.layer_metrics, medians over the
    traced repetitions, with the refusal counts and trace totals added."""
    import tracer

    rows, detail_rows = [], []
    for r in traced:
        if "trace" not in r:  # the traced worker itself died
            continue
        row, details = tracer.layer_metrics(r["trace"])
        detail_rows.append(details)
        refused = sum(r["refused"].values())
        for name in REFUSAL_CLASSES:
            row[f"representation.refused.{name}"] = r["refused"].get(name, 0)
        row["representation.refused.other"] = refused - sum(
            r["refused"].get(name, 0) for name in REFUSAL_CLASSES)
        row["representation.crashed"] = r["failed"]
        row["representation.useful_ratio"] = r["positions"] / r["attempted"]
        row["cli.output_bytes"] = r["output_bytes"]
        row["traced.wall_s"] = r["wall_s"]
        row["traced.uncovered_s"] = r["wall_s"] - r["covered_s"]
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["traced.overhead_s"] = metrics["traced.wall_s"] - _median(untraced, "wall_s")
    details = {name: statistics.median(row[name] for row in detail_rows)
               for name in detail_rows[0]}
    return metrics, details


def stamp(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    if commit is None:  # a checkout without git: name the source by content
        digest = hashlib.sha256()
        for path in sorted((root / "src").rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu": cpu}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + HARD_LIMIT_S
    root = Path.cwd()
    info = stamp(root)
    # one CPU for this process and every child: host load changes each
    # vCPU's speed separately, and the calibration must see the CPU the
    # work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (root / "src" / "palcore" / "__init__.py").is_file():
        sys.exit(f"no palcore sources under {root / 'src'}: run from the repository root")
    # the only build step: byte-compile once so no repetition pays for it
    if not compileall.compile_dir(root / "src", quiet=1):
        sys.exit("palcore sources do not compile")

    bench = Bench(root, args.workload, args.seed)
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    blocks: list[list[float]] = []  # calibration blocks, one after each round
    setup_blocks: list[int] = []  # the block that follows each set-up sample

    def take_setups(count: int) -> None:
        for _ in range(count):
            setups.append(bench.setup_sample(deadline))
            setup_blocks.append(len(blocks))

    try:
        # set-up samples are spread over the run so that they see the same
        # machine as the repetitions they sit between
        if not args.trace:
            take_setups(SETUP_FIRST)
            blocks.append(calibrate.block())
        loop_start = time.monotonic()
        rounds: list[float] = []
        while True:
            t = time.monotonic()
            untraced.append(bench.repetition(deadline, traced=False))
            if args.trace:
                traced.append(bench.repetition(deadline, traced=True))
            else:
                take_setups(SETUP_PER_REP)
                blocks.append(calibrate.block())
            rounds.append(time.monotonic() - t)
            typical = statistics.median(rounds)
            elapsed = time.monotonic() - loop_start
            if len(rounds) >= (1 if args.trace else MIN_REPS) and elapsed + typical > args.seconds:
                break
            if time.monotonic() + 1.5 * typical > deadline:
                break
    except Deadline:
        print("# stopped early: the run reached its time limit")
        if not args.trace and untraced and len(blocks) == len(untraced):
            blocks.append(calibrate.block())  # for the round the deadline cut
    if not untraced or (args.trace and not traced) or (not args.trace and not setups):
        sys.exit("no repetition finished within the time limit")

    if args.trace and not any("trace" in r for r in traced):
        sys.exit("no traced repetition finished")
    details: dict = {}
    raw_setups = setups
    if args.trace:
        metrics, details = per_layer(untraced, traced)
    else:
        setups = calibrated(untraced, raw_setups, blocks, setup_blocks)
        metrics = end_to_end(untraced, setups)
        details = {"raw_wall_s": _median(untraced, "raw_wall_s"),
                   "raw_cpu_s": _median(untraced, "raw_cpu_s"),
                   "raw_setup_s": statistics.median(raw_setups),
                   "speed_factor": _median(untraced, "speed_factor")}
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    reps = traced if args.trace else untraced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = not bench.problems

    print(f"# palcore benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# repetitions: {len(untraced)} untraced"
          + (f", {len(traced)} traced" if args.trace else f", {len(setups)} set-ups"))
    crashes = Counter(crash for r in reps for crash in r["crashes"])
    for crash, count in crashes.items():
        print(f"# failed ({count}x): {crash}")
    for problem in bench.problems[:10]:
        print(f"# MISMATCH {problem}")
    for name, value in metrics.items():
        n = len(setups) if name == "setup_s" else len(reps)
        print(f"{name:46s} {value:>16.6g} {units[name]:6s} (median of {n})")
    if args.trace:
        for name, value in details.items():
            print(f"# {name:44s} {value:>16.6g} {'1/s' if name.endswith('per_s') else 's':6s} "
                  f"(median of {len(reps)}; not every workload reaches it)")
    else:
        print(f"# measured, before scaling to the reference speed: "
              f"wall_s {details['raw_wall_s']:.6g} s, cpu_s {details['raw_cpu_s']:.6g} s, "
              f"setup_s {details['raw_setup_s']:.6g} s; median factor to the reference speed "
              f"{details['speed_factor']:.6g}")

    record = {"stamp": info, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "details": details,
              "setup_samples": setups, "raw_setup_samples": raw_setups,
              "calibration_blocks": blocks,
              "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps]}
    with open(HERE / "work" / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
