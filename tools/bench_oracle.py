"""Time partial fractions, assembly and the series oracle on theorem1.

Usage (from the repository root)::

    PYTHONPATH=src python tools/bench_oracle.py --label change

For theorem1 at (n, precision) = (2, 256), (4, 256), (6, 64) and (8, 256)
it times ``rationalfn.partial_fractions`` and
``decomposition.beta_coefficients``, then ``numerics.r_n_series`` alone
and ``numerics.consistency_check``, once each, and records every
``numerics.alternating_series_tail`` call either makes as (tbits, cutoff
a, order m), the target being 2**-tbits.  Theorem1 at n = 12 times the
two exact stages only.  The result, with the machine, Python, mpmath
version and backend, goes under ``runs[label]`` of the output file; other
labels already there are kept, so two source trees (say a parent commit
and a change, each put on PYTHONPATH in turn) can be recorded side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import mpmath
from mpmath.libmp import BACKEND

from betaforms import numerics
from betaforms.decomposition import beta_coefficients
from betaforms.profiles import THEOREM1_ETA, general
from betaforms.rationalfn import partial_fractions

# (n, precision); no precision: the exact stages only
CASES = ((2, 256), (4, 256), (6, 64), (8, 256), (12, None))


def machine() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__, "mpmath_backend": BACKEND}


def timed(fn):
    """Seconds taken by ``fn()``, and its result."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def timed_with_tail_calls(fn, start: int) -> tuple[float, list]:
    """Seconds taken by ``fn()`` and the (tbits, a, m) of its tail calls."""
    calls = []
    original = numerics.alternating_series_tail

    def recording(*args, **kwargs):
        ev = original(*args, **kwargs)
        target = args[4]
        calls.append([target.denominator.bit_length() - 1,
                      start + ev.direct_terms, ev.tail_order])
        return ev

    numerics.alternating_series_tail = recording
    try:
        seconds, _ = timed(fn)
    finally:
        numerics.alternating_series_tail = original
    return seconds, calls


def run_case(n: int, precision: int | None) -> dict:
    profile = general(THEOREM1_ETA, n)
    rep = numerics.build_profile_rep(profile)
    table_s, table = timed(lambda: partial_fractions(rep))
    dec_s, dec = timed(lambda: beta_coefficients(table, profile))
    case = {"profile": "theorem1", "n": n, "precision": precision,
            "partial_fractions_s": round(table_s, 3),
            "beta_coefficients_s": round(dec_s, 3)}
    if precision is None:
        return case
    start = profile.series_start
    series_s, series_calls = timed_with_tail_calls(
        lambda: numerics.r_n_series(profile, precision, rep=rep, table=table),
        start)
    check_s, check_calls = timed_with_tail_calls(
        lambda: numerics.consistency_check(profile, precision, rep=rep,
                                           table=table, decomposition=dec),
        start)
    return {**case, "r_n_series_s": round(series_s, 3),
            "r_n_series_tail_calls": series_calls,
            "consistency_check_s": round(check_s, 3),
            "consistency_check_tail_calls": check_calls}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="key of this run in the output, e.g. parent or change")
    parser.add_argument("--out", type=Path, default=Path("BENCH_oracle.json"))
    args = parser.parse_args(argv)
    cases = []
    for n, precision in CASES:
        cases.append(run_case(n, precision))
        print(json.dumps(cases[-1]), flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("runs", {})[args.label] = {"machine": machine(),
                                                 "cases": cases}
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
