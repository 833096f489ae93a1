"""Time partial fractions, assembly, the real constants and the series
oracle on theorem1.

Usage (from the repository root)::

    PYTHONPATH=src python tools/bench_oracle.py --label change --repeat 3

For theorem1 at (n, precision) = (2, 256), (4, 256), (6, 64), (8, 256) and
(12, 256) it times ``rationalfn.partial_fractions`` and
``decomposition.beta_coefficients``; then the real constants:
``numtheory.phi_exponent`` (carry table warm), ``asymptotics.r_exponent``
and ``numerics.decomposition_value`` with the ``beta_value`` cache
cleared before each run.  Except at n = 12 it then times
``numerics.r_n_series`` alone and ``numerics.consistency_check``, and
records every ``numerics.alternating_series_tail`` call either makes as
(tbits, cutoff a, order m), the target being 2**-tbits.  Last comes the
ledger ``asymptotics.exponent_ledger`` of section2-s17 at 256 bits.

Each stage runs ``--repeat`` times in a row and is recorded as the
median, min and max of its seconds; a single timing on a shared host
drifts by up to a fifth between runs.  The result, with the machine,
Python, mpmath version and backend, goes under ``runs[label]`` of the
output file; other labels already there are kept, so two source trees
(say a parent commit and a change, each put on PYTHONPATH in turn) can
be recorded side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import mpmath
from mpmath.libmp import BACKEND

from betaforms import numerics
from betaforms.asymptotics import exponent_ledger, r_exponent
from betaforms.decomposition import beta_coefficients
from betaforms.numtheory import carry_min_table, phi_exponent
from betaforms.profiles import THEOREM1_ETA, general, section2
from betaforms.rationalfn import partial_fractions

# (n, precision, whether to run the series oracle)
CASES = ((2, 256, True), (4, 256, True), (6, 64, True), (8, 256, True),
         (12, 256, False))


def machine() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__, "mpmath_backend": BACKEND}


def timed(fn, repeat: int = 1, before=None):
    """The median, min and max seconds of ``repeat`` runs of ``fn()`` (each
    after ``before()``, untimed), and the last result."""
    times = []
    for _ in range(repeat):
        if before:
            before()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return {"median": round(statistics.median(times), 4),
            "min": round(min(times), 4), "max": round(max(times), 4)}, result


def timed_with_tail_calls(fn, start: int, repeat: int) -> tuple[dict, list]:
    """``timed(fn, repeat)`` and the (tbits, a, m) of the tail calls of its
    first run (every run makes the same calls)."""
    runs = []
    original = numerics.alternating_series_tail

    def recording(*args, **kwargs):
        ev = original(*args, **kwargs)
        target = args[4]
        runs[-1].append([target.denominator.bit_length() - 1,
                         start + ev.direct_terms, ev.tail_order])
        return ev

    numerics.alternating_series_tail = recording
    try:
        seconds, _ = timed(fn, repeat, before=lambda: runs.append([]))
    finally:
        numerics.alternating_series_tail = original
    return seconds, runs[0]


def run_case(n: int, precision: int, series: bool, repeat: int) -> dict:
    profile = general(THEOREM1_ETA, n)
    rep = numerics.build_profile_rep(profile)
    cold_beta = numerics.beta_value.cache_clear
    table_s, table = timed(lambda: partial_fractions(rep), repeat)
    dec_s, dec = timed(lambda: beta_coefficients(table, profile), repeat)
    carry_min_table(profile.carry_spec)
    case = {"profile": "theorem1", "n": n, "precision": precision,
            "partial_fractions_s": table_s, "beta_coefficients_s": dec_s,
            "phi_exponent_s": timed(lambda: phi_exponent(profile, precision),
                                    repeat)[0],
            "r_exponent_s": timed(lambda: r_exponent(profile, precision),
                                  repeat)[0],
            "decomposition_value_s": timed(
                lambda: numerics.decomposition_value(dec, precision),
                repeat, cold_beta)[0]}
    if not series:
        return case
    start = profile.series_start
    series_s, series_calls = timed_with_tail_calls(
        lambda: numerics.r_n_series(profile, precision, rep=rep, table=table),
        start, repeat)
    check_s, check_calls = timed_with_tail_calls(
        lambda: numerics.consistency_check(profile, precision, rep=rep,
                                           table=table, decomposition=dec),
        start, repeat)
    return {**case, "r_n_series_s": series_s,
            "r_n_series_tail_calls": series_calls,
            "consistency_check_s": check_s,
            "consistency_check_tail_calls": check_calls}


def ledger_case(repeat: int) -> dict:
    profile = section2(17, 2)
    carry_min_table(profile.carry_spec)
    seconds, _ = timed(lambda: exponent_ledger(profile, 256), repeat)
    return {"profile": "section2-s17", "precision": 256,
            "exponent_ledger_s": seconds}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="key of this run in the output, e.g. parent or change")
    parser.add_argument("--out", type=Path, default=Path("BENCH_oracle.json"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per stage; median, min and max are kept")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    cases = []
    for n, precision, series in CASES:
        cases.append(run_case(n, precision, series, args.repeat))
        print(json.dumps(cases[-1]), flush=True)
    cases.append(ledger_case(args.repeat))
    print(json.dumps(cases[-1]), flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[args.label] = {
        "machine": machine(), "repeat": args.repeat, "cases": cases}
    args.out.write_text(json.dumps(record, indent=2) + "\n")

if __name__ == "__main__":
    main()
