"""Run every workload on ten seeds and record the results.

    python3 perfbench/baseline.py

For each workload: one untraced run per seed, then one traced run on the
first seed.  The record, ``baseline.json``, keeps every value, the median
and the quartile spread of each end-to-end metric next to its bound, the
same for the raw (uncorrected) pass time, a check of the speed
correction, the per-layer metrics, the tracing overhead (traced minus
untraced pass time) and the machine it was measured on.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)
OUT = run.HERE / "baseline.json"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run: its result line, and its passes as ``run.py`` left them."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    workdir = run.OUT / f"{workload}-seed{seed}"
    passes = json.loads((workdir / "passes.json").read_text())
    for p in passes:
        for unit in p["units"]:
            # a unit is the same work on every seed only if its input is
            profile = workdir / f"{unit['label']}.json"
            unit["key"] = unit["label"] + (
                profile.read_text() if profile.exists() else "")
    return json.loads(proc.stdout.strip().splitlines()[-1]), passes


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "spread": (q3 - q1) / median}


def correction(passes: list[dict]) -> dict:
    """How well the slowdown explains the run-to-run spread of a unit.

    Units that do the same work in several passes are compared: per unit,
    the correlation and slope of log raw time on log slowdown, and the
    quartile spread of the unit's time before and after the correction.
    Each figure is the median over those units.
    """
    by_key: dict = {}
    for p in passes:
        for unit in p["units"]:
            if unit["ok"]:
                by_key.setdefault(unit["key"], []).append(unit)
    rows = []
    for units in by_key.values():
        slow = [math.log(u["slowdown"]) for u in units]
        if len(units) < 4 or len(set(slow)) < 2:
            continue
        raw = [math.log(u["raw_wall_s"]) for u in units]
        rows.append({
            "correlation": statistics.correlation(slow, raw),
            "slope": statistics.linear_regression(slow, raw).slope,
            "raw_spread": summary([u["raw_wall_s"] for u in units])["spread"],
            "spread": summary([u["wall_s"] for u in units])["spread"]})
    if not rows:
        return {"units": 0}
    return {"units": len(rows),
            **{k: statistics.median(r[k] for r in rows) for k in rows[0]}}


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"environment": run.environment(), "run_seconds": seconds,
              "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, passes = [], []
        for seed in SEEDS:
            result, seed_passes = bench(workload, seed, seconds, 0)
            runs.append(result)
            passes.append(seed_passes)
            print(workload, seed, json.dumps(result), flush=True)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "bound": metric["bound"],
                **summary([r["metrics"][metric["name"]]["value"]
                           for r in runs])}
        raw_wall = summary([statistics.median(p["raw_wall_s"] for p in ps)
                            for ps in passes])
        traced, _ = bench(workload, SEEDS[0], seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "raw_wall_s": {"unit": "s", **raw_wall},
            "correction": correction([p for ps in passes for p in ps]),
            "per_layer": layers,
            "trace_overhead_s": layers["trace.wall_s"]
            - end_to_end["wall_s"]["median"],
        }
        OUT.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
