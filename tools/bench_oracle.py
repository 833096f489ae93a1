"""Time start-up, partial fractions, assembly, the real constants and the
series oracle on theorem1, for one or more source trees side by side.

Usage (from the repository root)::

    python tools/bench_oracle.py --tree change=src --repeat 3
    python tools/bench_oracle.py --tree parent=../parent/src \\
        --tree change=src --repeat 5
    python tools/bench_oracle.py --tree change=src --large

Each ``--tree LABEL=SRC`` names a directory holding the ``betaforms``
package.  The tool times trees whose series oracle reads the rep alone,
``r_n_series(rep, precision)``, ``consistency_check(decomposition, rep,
precision)`` and ``alternating_series_tail(rep, target, precision)``,
whose ``decomposition_value(decomposition, tbits)`` takes target bits,
and that have ``numtheory.carry_min_table(shape)``,
``asymptotics.phi_exponent(profile, precision)``,
``numerics._chebyshev_pass`` and ``numerics._rung``; on an older tree its
``--one`` child fails.
The ``--one`` child is this script, so every tree is timed through this
tree's copy of the tool and its API: to time a parent tree, run the
parent's own copy of the tool on it, and store its rows under their own
label.  A comparison that claims no change is read against an A/A pair,
one SRC timed under two labels in one run, and not against the parent's
min-max over its rounds, which a few rounds make narrower than the host's
drift between rounds.  The run is ``--repeat`` rounds; in each round
every tree runs once, in the given order on even rounds and reversed on
odd ones, so two trees alternate within seconds of each other instead of
running minutes apart (the host's speed drifts by up to a fifth at that
scale).
A tree's run is three fresh interpreters with ``PYTHONPATH=SRC``:

* ``startup``: the seconds of ``import betaforms.cli`` inside a fresh
  interpreter, and the wall seconds, spawn to exit, of ``python -m
  betaforms.cli run --profile theorem1 --n 2``;
* the stages (this script with ``--one``): for theorem1 at (n, precision)
  = (2, 256), (4, 256), (6, 64), (8, 256), (12, 256) and (24, 256), the
  exact certificate stage by stage (``exact_stages``):
  ``decomposition.ArithmeticFactors.for_profile`` (the lcm and the
  cancellation factor), ``numerics.build_profile_rep``,
  ``rationalfn.partial_fractions``, ``decomposition.beta_coefficients``,
  both inclusion checks and
  ``decomposition.integer_linear_form`` (n = 24 is where partial
  fractions dominate a certificate); then the real constants:
  ``asymptotics.phi_exponent`` (carry table warm) and
  ``asymptotics.r_exponent``.  Then come the oracle stages
  (``oracle_stages``): ``numerics.r_n_series`` alone, then
  ``numerics.consistency_check`` on a rep rebuilt untimed by
  ``numerics.build_profile_rep``, as each n of ``betaforms run`` builds
  one, so that the check pays for f(0) and the moment bound as ``run``
  does (a tree that memoizes them by the rep's value still serves the
  rebuilt rep from that memo).  Older rows of ``BENCH_oracle.json`` timed
  the check on the rep the series had just read.  Every
  ``numerics.alternating_series_tail`` call either makes is recorded as
  (tbits, N, P): the target 2**-tbits, the size N of the Chebyshev scheme
  and the fixed-point bits P of its pass (``numerics._chebyshev_pass``).
  Then it times ``numerics.decomposition_value`` at the target bits that
  ``consistency_check`` gives it, 16 bits below the rung of the series
  ball's least |x|; it makes its beta values itself and reads no cache.
  Last come the ledger ``asymptotics.exponent_ledger`` of section2-s17
  at 256 bits, a cold ``numtheory.carry_min_table`` of theorem1 (its
  cache cleared first; ``phi_exponent`` above runs with the table warm)
  and theorem1's ledger at 64 bits from a cold carry table, the work of
  ranking one eta candidate.
  With ``--large`` the exact certificate of theorem1 at n = 48 and 96
  follows, stage by stage (5 to 10 s a tree at n = 96), and then the
  oracle stages at 256 bits, ``decomposition_value`` included (older rows
  of ``BENCH_oracle.json`` have it only up to n = 24).  The series there
  runs on a rep whose moment bound no call has made yet.  It takes its
  first rung from f(0), its first term, so it is not the cold descent
  from 2**-(precision + 16) that older rows record; the field keeps its
  name, ``cold_r_n_series_s``.
  Without ``--large`` the run keeps its length.

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
CASES = ((2, 256), (4, 256), (6, 64), (8, 256), (12, 256), (24, 256))
# the opt-in exact certificates (``--large``)
LARGE_NS = (48, 96)
IMPORT_CODE = ("import time; t = time.perf_counter(); import betaforms.cli; "
               "print(time.perf_counter() - t)")
RUN_ARGV = ("-m", "betaforms.cli", "run", "--profile", "theorem1", "--n", "2",
            "--out", os.devnull)


def machine() -> dict:
    """The host, and whether the children may write bytecode caches: the
    ``startup`` stage about doubles when they may not, so rows taken with
    and without ``PYTHONDONTWRITEBYTECODE`` do not compare."""
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "system": platform.system(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def seconds(fn, before=None):
    """The seconds of one run of ``fn()`` (after ``before()``, untimed), and
    its result."""
    if before:
        before()
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def timed_with_tail_calls(numerics, fn) -> tuple[float, list, object]:
    """``seconds(fn)``, the (tbits, N, P) of the series calls it makes, and
    its result."""
    calls, bits = [], []
    tail, chebyshev_pass = (numerics.alternating_series_tail,
                            numerics._chebyshev_pass)

    def recording_tail(rep, target, precision):
        bits.clear()
        ev = tail(rep, target, precision)
        calls.append([target.denominator.bit_length() - 1, ev.direct_terms,
                      bits[0]])
        return ev

    def recording_pass(first, ratios, weights, p):
        bits.append(p)
        return chebyshev_pass(first, ratios, weights, p)

    numerics.alternating_series_tail = recording_tail
    numerics._chebyshev_pass = recording_pass
    try:
        elapsed, result = seconds(fn)
    finally:
        numerics.alternating_series_tail = tail
        numerics._chebyshev_pass = chebyshev_pass
    return elapsed, calls, result


def exact_stages(n: int) -> tuple[dict, tuple]:
    """Seconds of each exact stage of the theorem1 certificate at n, the
    lcm and phi factors first; and the profile, rep, table and
    decomposition."""
    from betaforms import decomposition, numerics, rationalfn
    from betaforms.profiles import THEOREM1_ETA, general

    profile = general(THEOREM1_ETA, n)
    times = {}
    times["factors_s"], factors = seconds(
        lambda: decomposition.ArithmeticFactors.for_profile(profile))
    times["build_s"], rep = seconds(
        lambda: numerics.build_profile_rep(profile))
    times["partial_fractions_s"], table = seconds(
        lambda: rationalfn.partial_fractions(rep))
    times["beta_coefficients_s"], dec = seconds(
        lambda: decomposition.beta_coefficients(table, profile))
    times["coefficient_inclusions_s"], _ = seconds(
        lambda: decomposition.verify_coefficient_inclusions(table, factors))
    times["form_inclusions_s"], _ = seconds(
        lambda: decomposition.verify_form_inclusions(dec, factors))
    times["integer_form_s"], _ = seconds(
        lambda: decomposition.integer_linear_form(dec, factors))
    times["exact_s"] = sum(times.values())
    return times, (profile, rep, table, dec)


def oracle_stages(profile, rep, dec, precision: int) -> tuple:
    """``r_n_series`` on ``rep`` and ``consistency_check`` on a rep rebuilt
    untimed, each with its series calls, then ``decomposition_value`` at
    the target bits the check gave it: (series seconds, series calls,
    check seconds, check calls, value seconds)."""
    from betaforms import numerics

    series_s, series_calls, _ = timed_with_tail_calls(
        numerics, lambda: numerics.r_n_series(rep, precision=precision))
    # as each n of ``run`` builds one: the check makes f(0) and the bound
    fresh = numerics.build_profile_rep(profile)
    check_s, check_calls, report = timed_with_tail_calls(
        numerics, lambda: numerics.consistency_check(dec, fresh,
                                                     precision=precision))
    tbits = numerics._rung(precision, abs(report.series).lower) + 16
    value_s = seconds(lambda: numerics.decomposition_value(dec, tbits))[0]
    return series_s, series_calls, check_s, check_calls, value_s


def run_case(n: int, precision: int) -> dict:
    from betaforms.asymptotics import phi_exponent, r_exponent
    from betaforms.numtheory import carry_min_table

    times, (profile, rep, _, dec) = exact_stages(n)
    carry_min_table(profile.shape)
    case = {"profile": "theorem1", "n": n, "precision": precision, **times,
            "phi_exponent_s": seconds(
                lambda: phi_exponent(profile, precision))[0],
            "r_exponent_s": seconds(lambda: r_exponent(profile, precision))[0]}
    series_s, series_calls, check_s, check_calls, value_s = oracle_stages(
        profile, rep, dec, precision)
    return {**case, "decomposition_value_s": value_s,
            "r_n_series_s": series_s,
            "r_n_series_tail_calls": series_calls,
            "consistency_check_s": check_s,
            "consistency_check_tail_calls": check_calls}


def ledger_case() -> dict:
    from betaforms.asymptotics import exponent_ledger
    from betaforms.numtheory import carry_min_table
    from betaforms.profiles import section2

    profile = section2(17, 2)
    carry_min_table(profile.shape)
    return {"profile": "section2-s17", "precision": 256,
            "exponent_ledger_s": seconds(
                lambda: exponent_ledger(profile, 256))[0]}


def carry_case() -> dict:
    from betaforms.numtheory import carry_min_table
    from betaforms.profiles import THEOREM1_ETA

    return {"profile": "theorem1", "carry_min_table_s": seconds(
        lambda: carry_min_table(THEOREM1_ETA), carry_min_table.cache_clear)[0]}


def ranking_case() -> dict:
    from betaforms.asymptotics import exponent_ledger
    from betaforms.numtheory import carry_min_table
    from betaforms.profiles import THEOREM1_ETA, general

    profile = general(THEOREM1_ETA, 2)
    return {"profile": "theorem1", "precision": 64, "carry_table": "cold",
            "exponent_ledger_s": seconds(
                lambda: exponent_ledger(profile, 64),
                carry_min_table.cache_clear)[0]}


def large_case(n: int) -> dict:
    """The exact stages of theorem1 at n, then ``oracle_stages`` at 256
    bits."""
    times, (profile, rep, _, dec) = exact_stages(n)
    series_s, series_calls, check_s, check_calls, value_s = oracle_stages(
        profile, rep, dec, 256)
    return {"profile": "theorem1", "n": n, **times,
            "cold_r_n_series_s": series_s,
            "cold_r_n_series_tail_calls": series_calls,
            "consistency_check_s": check_s,
            "consistency_check_tail_calls": check_calls,
            "decomposition_value_s": value_s}


def run_stages(large: bool) -> list[dict]:
    """One run of every stage in this interpreter."""
    return ([run_case(n, precision) for n, precision in CASES]
            + [ledger_case(), carry_case(), ranking_case()]
            + [large_case(n) for n in (LARGE_NS if large else ())])


def run_tree(src: Path, large: bool) -> list[dict]:
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
    stages = child(str(Path(__file__).resolve()), "--one",
                   *(["--large"] if large else []))
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
    parser.add_argument("--large", action="store_true",
                        help="also time the exact certificate of theorem1 "
                             f"at n = {' and '.join(map(str, LARGE_NS))}, "
                             "then the oracle stages there")
    parser.add_argument("--one", action="store_true",
                        help=argparse.SUPPRESS)  # one stage run, as JSON
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(run_stages(args.large)))
        return
    if not args.tree:
        parser.error("give at least one --tree LABEL=SRC")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    runs = {label: [] for label, _ in args.tree}
    for round_ in range(args.repeat):
        order = args.tree if round_ % 2 == 0 else args.tree[::-1]
        for label, src in order:
            runs[label].append(run_tree(src, args.large))
            startup = runs[label][-1][0]
            print(f"round {round_} {label}: import "
                  f"{startup['import_cli_s']:.3f} s, run "
                  f"{startup['run_theorem1_n2_s']:.3f} s", flush=True)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label, src in args.tree:
        record.setdefault("runs", {})[label] = {
            "machine": machine(), "repeat": args.repeat,
            "large": args.large, "cases": summarize(runs[label])}
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
