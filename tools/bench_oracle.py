"""Time start-up, partial fractions, assembly, the real constants and the
series oracle on theorem1, for one or more source trees side by side.

Usage (from the repository root)::

    python tools/bench_oracle.py --tree change=src --repeat 3
    python tools/bench_oracle.py --tree parent=../parent/src \\
        --tree change=src --repeat 5

Each ``--tree LABEL=SRC`` names a directory holding the ``betaforms``
package.  The run is ``--repeat`` rounds; in each round every tree runs
once, in the given order on even rounds and reversed on odd ones, so two
trees alternate within seconds of each other instead of running minutes
apart (the host's speed drifts by up to a fifth at that scale).  A tree's
run is three fresh interpreters with ``PYTHONPATH=SRC``:

* ``startup``: the seconds of ``import betaforms.cli`` inside a fresh
  interpreter, and the wall seconds, spawn to exit, of ``python -m
  betaforms.cli run --profile theorem1 --n 2``;
* the stages (this script with ``--one``): for theorem1 at (n, precision)
  = (2, 256), (4, 256), (6, 64), (8, 256) and (12, 256),
  ``rationalfn.partial_fractions`` and ``decomposition.beta_coefficients``;
  then the real constants: ``numtheory.phi_exponent`` (carry table warm),
  ``asymptotics.r_exponent`` and ``numerics.decomposition_value`` (cold
  ``beta_value`` cache).  It then times ``numerics.r_n_series`` alone and
  ``numerics.consistency_check``, and records every
  ``numerics.alternating_series_tail`` call either makes as (tbits, N, P):
  the target 2**-tbits, the size N of the Chebyshev scheme and the
  fixed-point bits P of its pass (``numerics._chebyshev_pass``; null for
  a tree without that kernel, where N is the old direct-sum length).
  Last comes the ledger ``asymptotics.exponent_ledger`` of section2-s17
  at 256 bits.

Every timing is recorded as the median, min and max over the rounds.  The
result, with the machine and Python, goes under ``runs[label]`` of the
output file; other labels already there are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (n, precision)
CASES = ((2, 256), (4, 256), (6, 64), (8, 256), (12, 256))
IMPORT_CODE = ("import time; t = time.perf_counter(); import betaforms.cli; "
               "print(time.perf_counter() - t)")
RUN_ARGV = ("-m", "betaforms.cli", "run", "--profile", "theorem1", "--n", "2",
            "--out", os.devnull)


def machine() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def seconds(fn, before=None):
    """The seconds of one run of ``fn()`` (after ``before()``, untimed), and
    its result."""
    if before:
        before()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def timed_with_tail_calls(numerics, fn) -> tuple[float, list]:
    """``seconds(fn)`` and the (tbits, N, P) of the series calls it makes."""
    calls, bits = [], []
    tail = numerics.alternating_series_tail
    chebyshev_pass = getattr(numerics, "_chebyshev_pass", None)

    def recording_tail(*args, **kwargs):
        bits.clear()
        ev = tail(*args, **kwargs)
        target = args[4]
        calls.append([target.denominator.bit_length() - 1, ev.direct_terms,
                      bits[0] if bits else None])
        return ev

    def recording_pass(first, ratios, weights, p):
        bits.append(p)
        return chebyshev_pass(first, ratios, weights, p)

    numerics.alternating_series_tail = recording_tail
    if chebyshev_pass:
        numerics._chebyshev_pass = recording_pass
    try:
        elapsed, _ = seconds(fn)
    finally:
        numerics.alternating_series_tail = tail
        if chebyshev_pass:
            numerics._chebyshev_pass = chebyshev_pass
    return elapsed, calls


def run_case(n: int, precision: int) -> dict:
    from betaforms import numerics
    from betaforms.asymptotics import r_exponent
    from betaforms.decomposition import beta_coefficients
    from betaforms.numtheory import carry_min_table, phi_exponent
    from betaforms.profiles import THEOREM1_ETA, general
    from betaforms.rationalfn import partial_fractions

    profile = general(THEOREM1_ETA, n)
    rep = numerics.build_profile_rep(profile)
    table_s, table = seconds(lambda: partial_fractions(rep))
    dec_s, dec = seconds(lambda: beta_coefficients(table, profile))
    carry_min_table(profile.carry_spec)
    case = {"profile": "theorem1", "n": n, "precision": precision,
            "partial_fractions_s": table_s, "beta_coefficients_s": dec_s,
            "phi_exponent_s": seconds(
                lambda: phi_exponent(profile, precision))[0],
            "r_exponent_s": seconds(lambda: r_exponent(profile, precision))[0],
            "decomposition_value_s": seconds(
                lambda: numerics.decomposition_value(dec, precision),
                numerics.beta_value.cache_clear)[0]}
    series_s, series_calls = timed_with_tail_calls(
        numerics, lambda: numerics.r_n_series(profile, precision, rep=rep,
                                              table=table))
    check_s, check_calls = timed_with_tail_calls(
        numerics, lambda: numerics.consistency_check(
            profile, precision, rep=rep, table=table, decomposition=dec))
    return {**case, "r_n_series_s": series_s,
            "r_n_series_tail_calls": series_calls,
            "consistency_check_s": check_s,
            "consistency_check_tail_calls": check_calls}


def ledger_case() -> dict:
    from betaforms.asymptotics import exponent_ledger
    from betaforms.numtheory import carry_min_table
    from betaforms.profiles import section2

    profile = section2(17, 2)
    carry_min_table(profile.carry_spec)
    return {"profile": "section2-s17", "precision": 256,
            "exponent_ledger_s": seconds(
                lambda: exponent_ledger(profile, 256))[0]}


def run_stages() -> list[dict]:
    """One run of every stage in this interpreter."""
    return ([run_case(n, precision) for n, precision in CASES]
            + [ledger_case()])


def run_tree(src: Path) -> list[dict]:
    """One run of the start-up stage and of every stage for one tree."""
    env = {**os.environ, "PYTHONPATH": str(src)}

    def child(*argv) -> str:
        done = subprocess.run([sys.executable, *argv], env=env, check=True,
                              capture_output=True, text=True)
        return done.stdout

    import_s = float(child("-c", IMPORT_CODE))
    t0 = time.perf_counter()
    child(*RUN_ARGV)
    run_s = time.perf_counter() - t0
    startup = {"stage": "startup", "import_cli_s": import_s,
               "run_theorem1_n2_s": run_s}
    stages = child(str(Path(__file__).resolve()), "--one")
    return [startup] + json.loads(stages)


def summarize(runs: list[list[dict]]) -> list[dict]:
    """The cases of the first run, each ``*_s`` field replaced by the
    median, min and max of that field over all runs."""
    out = []
    for i, case in enumerate(runs[0]):
        merged = dict(case)
        for key in case:
            if key.endswith("_s"):
                times = [run[i][key] for run in runs]
                merged[key] = {"median": round(statistics.median(times), 4),
                               "min": round(min(times), 4),
                               "max": round(max(times), 4)}
        out.append(merged)
    return out


def parse_tree(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not sep or not label or not (Path(src) / "betaforms").is_dir():
        raise argparse.ArgumentTypeError(
            f"expected LABEL=SRC with SRC/betaforms a directory, got {text!r}")
    return label, Path(src).resolve()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=parse_tree, action="append",
                        help="LABEL=SRC, a source tree to time; repeatable")
    parser.add_argument("--out", type=Path, default=Path("BENCH_oracle.json"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="rounds; median, min and max are kept")
    parser.add_argument("--one", action="store_true",
                        help=argparse.SUPPRESS)  # one stage run, as JSON
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_stages()))
        return
    if not args.tree:
        parser.error("give at least one --tree LABEL=SRC")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    runs = {label: [] for label, _ in args.tree}
    for round_ in range(args.repeat):
        order = args.tree if round_ % 2 == 0 else args.tree[::-1]
        for label, src in order:
            runs[label].append(run_tree(src))
            startup = runs[label][-1][0]
            print(f"round {round_} {label}: import "
                  f"{startup['import_cli_s']:.3f} s, run "
                  f"{startup['run_theorem1_n2_s']:.3f} s", flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, src in args.tree:
        record.setdefault("runs", {})[label] = {
            "machine": machine(), "repeat": args.repeat,
            "cases": summarize(runs[label])}
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
