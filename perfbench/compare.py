"""Compare end-to-end results of two commits.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds records appended by run.py (perfbench/work/results.jsonl);
only untraced records are used, one value per run (that run's median).
For every workload and metric it prints both sides' medians and
quartiles, the change, and the metric's bound from BENCHMARK.json:

- "worse" when the after median is worse than before by more than the bound;
- "unresolved" when either side's quartile spread is wider than the bound,
  unless every after run is better than every before run;
- otherwise "within bound".

The comparison is NOT COMPARABLE when the two sides ran on machines that
differ in nproc, Python version or CPU model, or when one side mixes
commits.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MACHINE = ("nproc", "python", "cpu")


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [r for r in map(json.loads, fh) if r and not r["trace"]]


def _comparability(before: list[dict], after: list[dict]) -> list[str]:
    reasons = []
    for side, records in (("before", before), ("after", after)):
        commits = {r["stamp"]["commit"] for r in records}
        if len(commits) > 1:
            reasons.append(f"{side} mixes commits {sorted(commits)}")
    for field in MACHINE:
        values = {r["stamp"][field] for r in before + after}
        if len(values) > 1:
            reasons.append(f"{field} differs: {sorted(map(str, values))}")
    return reasons


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before, after = _load(sys.argv[1]), _load(sys.argv[2])
    reasons = _comparability(before, after)
    for reason in reasons:
        print(f"NOT COMPARABLE: {reason}")
    for workload in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
        b_runs = [r for r in before if r["workload"] == workload]
        a_runs = [r for r in after if r["workload"] == workload]
        print(f"\n{workload}: {len(b_runs)} runs before, {len(a_runs)} after")
        for name, m in bounds.items():
            b = [r["metrics"][name] for r in b_runs]
            a = [r["metrics"][name] for r in a_runs]
            b1, bm, b3 = _spread(b)
            a1, am, a3 = _spread(a)
            sign = 1 if m["better"] == "lower" else -1
            change = (am - bm) / bm if bm else 0.0
            wider = max((b3 - b1) / bm if bm else 0.0, (a3 - a1) / am if am else 0.0)
            if sign * (am - bm) > m["bound"] * abs(bm):
                status = "worse"
            elif wider > m["bound"] and not all(sign * (x - y) < 0 for x in a for y in b):
                status = "unresolved"
            else:
                status = "within bound"
            print(f"  {name:16s} {bm:12.6g} [{b1:.6g}, {b3:.6g}] -> {am:12.6g} "
                  f"[{a1:.6g}, {a3:.6g}] {change:+7.2%}  bound {m['bound']:.0%}  "
                  f"{status}{' (not comparable)' if reasons else ''}")


if __name__ == "__main__":
    main()
