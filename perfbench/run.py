"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload theorem1-preset --seed 1 \\
        --seconds 36 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy.  The load is one closed-loop
client: passes over the workload run one after another, and each unit of
a pass runs in a fresh interpreter (see ``worker.py``), so every pass
starts with cold caches, as separate ``betaforms run`` invocations do.
Passes repeat while the next one is expected to end within ``--seconds``;
at least one always runs.

Metrics are medians over the passes of one run.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps each layer's public functions
(see ``spans.py``) and reports per-layer self times and counts.  Every
certificate goes through the correctness gate (``gate.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` certificates, and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Every unit is stopped by this many seconds after the run starts, so a
# run ends within 180 s even if the program hangs.
RUN_BUDGET_S = 160
# What passes.json keeps of each unit.
UNIT_FIELDS = ("label", "ok", "raw_wall_s", "slowdown", "wall_s")

sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_unit(spec: dict, timeout: float = RUN_BUDGET_S) -> dict:
    """Run one unit in a fresh interpreter and time it from spawn to exit.

    Times are divided by the unit's measured slowdown (see
    ``worker.SpeedProbe``): they are seconds at the reference speed.
    ``raw_wall_s`` keeps the wall time as the clock read it.
    """
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        wall = time.monotonic() - start
        return {"ok": False, "error": "timed out", "wall_s": wall,
                "raw_wall_s": wall}
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "wall_s": wall, "raw_wall_s": wall,
                "error": f"worker exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}
    info = json.loads(lines[-1])
    slowdown = info["slowdown"] or 1.0
    first = info["first_stage"]
    return {"ok": info["rc"] == 0, "rc": info["rc"], "raw_wall_s": wall,
            "slowdown": slowdown, "wall_s": wall / slowdown,
            "setup_s": None if first is None else (first - start) / slowdown,
            "rss_mib": info["maxrss_kib"] / 1024, "trace": info.get("trace")}


def pass_units(workload: str, seed: int, workdir: Path, trace: bool,
               references: dict) -> list[tuple]:
    """(label, spec, output path, check) for every unit of one pass;
    ``check(report)`` gates the unit's output and returns
    ``{certificate: [problems]}``.  ``references`` maps a reference name
    to ``gate.load_reference(name)``."""
    reference = references["theorem1"]

    def spec(label, **fields):
        trace_path = workdir / f"{label}.spans.jsonl"
        return {**fields, "trace": str(trace_path) if trace else None}

    units = []
    if workload == "theorem1-preset":
        ns = workloads.THEOREM1_PRESET_NS
        out = workdir / "theorem1.report.json"
        argv = ["run", "--profile", "theorem1", "--n", *map(str, ns),
                "--out", str(out)]
        units.append(("theorem1", spec("theorem1", kind="cli", argv=argv), out,
                      lambda report: gate.check_theorem1_report(
                          report, reference, ns)))
    elif workload == "random-profiles":
        from betaforms import profile_violations

        for i, cfg in enumerate(workloads.random_profiles(seed,
                                                          profile_violations)):
            label = f"profile{i:02d}"
            path = workdir / f"{label}.json"
            path.write_text(json.dumps(cfg))
            out = workdir / f"{label}.report.json"
            argv = ["run", "--profile", str(path), "--out", str(out)]
            units.append((label, spec(label, kind="cli", argv=argv), out,
                          lambda report, ns=cfg["n"]:
                          gate.check_profile_report(
                              report, ns, references["section2"])))
    elif workload == "exact-forms":
        ns = workloads.EXACT_FORMS_NS
        out = workdir / "exact.report.json"
        units.append(("exact", spec("exact", kind="exact", ns=list(ns),
                                    out=str(out)), out,
                      lambda report: gate.check_exact_forms(
                          report, reference, ns)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return units


def run_pass(units, deadline: float) -> dict:
    results, attempted, failures = [], 0, []
    for label, spec, out, check in units:
        out.unlink(missing_ok=True)
        res = run_unit(spec, max(deadline - time.monotonic(), 1.0))
        try:
            certs = check(json.loads(out.read_text()) if out.exists()
                          else None)
        except (ValueError, KeyError, TypeError) as exc:
            certs = {c: [f"malformed report: {exc!r}"] for c in check(None)}
        if not res["ok"]:
            reason = res.get("error") or f"exit code {res['rc']}"
            certs = {c: p + [reason] for c, p in certs.items()}
        attempted += len(certs)
        failures += [f"{label} {c}: {'; '.join(p)}"
                     for c, p in certs.items() if p]
        results.append({"label": label, **res})
    return {"units": results, "attempted": attempted, "failures": failures,
            "wall_s": sum(r["wall_s"] for r in results),
            "raw_wall_s": sum(r["raw_wall_s"] for r in results)}


def _layer_values(units) -> dict:
    """Per-layer metrics of one traced pass."""
    self_s = dict.fromkeys(spans.SPAN_NAMES, 0.0)
    counts: dict = {}
    overhead = 0.0
    for res in units:
        tr = res["trace"]
        for name, v in tr["self_s"].items():
            self_s[name] += v / res["slowdown"]
        for key, v in tr["counts"].items():
            if key == "numerics.min_gap_bits":
                counts[key] = min(counts.get(key, v), v)
            elif key == "rationalfn.max_coeff_bits":
                counts[key] = max(counts.get(key, v), v)
            else:
                counts[key] = counts.get(key, 0) + v
        overhead += tr["overhead_s"] / res["slowdown"]
    wall = sum(r["wall_s"] for r in units)
    out = {f"{name}_s": v for name, v in self_s.items()}
    out["trace.raw_wall_s"] = sum(r["raw_wall_s"] for r in units)
    out["probe.slowdown"] = statistics.median(r["slowdown"] for r in units)
    for key in ("numerics.tail_calls", "numerics.direct_terms",
                "numerics.tail_order", "numerics.beta_cache_hits",
                "series.divide_trunc_calls", "numtheory.carry_table_misses",
                "numtheory.carry_table_hits", "numtheory.carry_table_pieces",
                "rationalfn.table_entries", "rationalfn.max_coeff_bits",
                "decomposition.inclusions_checked", "decomposition.violations",
                "numerics.min_gap_bits"):
        out[key] = counts.get(key, 0)
    tails = counts.get("numerics.tail_calls", 0)
    # 0 where no tail is summed at all (exact-forms): no attempt, no use
    out["numerics.tail_useful_ratio"] = (
        counts.get("numerics.r_n_series_calls", 0) / tails if tails else 0.0)
    out["numtheory.carry_min_table_share"] = (
        self_s["numtheory.carry_min_table"] / wall)
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = overhead
    return out


def metrics(passes, trace: bool, spec: dict) -> dict:
    """Medians over the passes; empty when no unit of any pass succeeded."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    # a failed unit has no measurements beyond its wall time
    done = [[r for r in p["units"] if r["ok"]] for p in passes]
    if not any(done):
        return {}
    if trace:
        per_pass = [_layer_values(p) for p in done if p]
        values = {k: statistics.median(v[k] for v in per_pass) for k in units}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(r["setup_s"] for p in done
                                         for r in p),
            "peak_rss_mib": statistics.median(
                max(r["rss_mib"] for r in p) for p in done if p),
        }
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not (SRC / "betaforms" / "cli.py").is_file():
        print(f"error: no betaforms sources under {SRC}", file=sys.stderr)
        return 2
    # Fails fast on a broken checkout, and leaves compiled bytecode behind
    # as an installed package has, so the first timed unit does not pay it.
    probe = subprocess.run([sys.executable, "-c", "import betaforms.cli"],
                           env=child_env(), cwd=ROOT, capture_output=True,
                           text=True, timeout=60)
    if probe.returncode != 0:
        print(f"error: cannot import betaforms.cli:\n{probe.stderr}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = {name: gate.load_reference(name)
                  for name in ("theorem1", "section2")}
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    units = pass_units(args.workload, args.seed, workdir, bool(args.trace),
                       references)

    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(units, deadline))
        longest = max(p["raw_wall_s"] for p in passes)
        if time.monotonic() - start + longest > args.seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": metrics(passes, bool(args.trace), spec)}
    print(f"environment: {json.dumps(environment())}")
    print(f"{args.workload}: {len(passes)} passes in "
          f"{time.monotonic() - start:.1f} s, {len(units)} units per pass, "
          f"{len(failures)} of {attempted} certificates failed")
    print("  pass wall times: "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + " s at reference speed; "
          + " ".join(f"{p['raw_wall_s']:.3f}" for p in passes)
          + " s as measured")
    for failure in failures:
        print(f"  FAILED {failure}")
    if not result["metrics"]:
        print("  no unit succeeded: no metrics")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    # Every unit's raw wall time and slowdown, so the speed correction can
    # be checked afterwards (baseline.py keeps them).
    (workdir / "passes.json").write_text(json.dumps(
        [{k: p[k] for k in ("wall_s", "raw_wall_s")}
         | {"units": [{k: r.get(k) for k in UNIT_FIELDS} for r in p["units"]]}
         for p in passes], indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
