"""One benchmark unit in a fresh interpreter.

    python3 perfbench/worker.py '<spec JSON>'

The spec names what to run:

* ``{"kind": "cli", "argv": [...]}`` -- ``betaforms.cli.main(argv)``;
* ``{"kind": "exact", "ns": [...], "out": path}`` -- the exact-forms
  certificate for theorem1 at each n, by library calls, written to ``out``;

and ``"trace"``: a path for the span file, or null for an untraced unit.
The last line of standard output is a JSON object with the CLI exit code,
the ``time.monotonic()`` reading at the first stage call (the parent
subtracts its spawn time to get the set-up time), the peak resident set
size, the speed probe's slowdown, and, when traced, the per-layer summary.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans

SRC = Path(__file__).resolve().parent.parent / "src"


class SpeedProbe:
    """Samples how fast this host runs Python while the unit runs.

    The host's speed drifts by up to half at the scale of seconds to
    minutes (other tenants share the hardware), so the same unit takes
    6 s in one minute and 9 s in the next.  Every ``INTERVAL_S`` of CPU
    time a SIGPROF handler times a fixed job of the kind the package is
    made of: a sum of big-denominator fractions.  The mean job time over
    the unit measures the speed the unit ran at, on the same CPU at the
    same moments, for about 1 % of its time.  ``slowdown`` is that mean
    over ``REFERENCE_S``, the job's time on an undisturbed host.

    The mean, not the median: the host flips between a fast and a slow
    state many times within one unit, and the unit's time is the integral
    of its speed over those states.  Samples taken at even steps of CPU
    time estimate that integral by their mean; their median picks one of
    the two states.  The job shares the unit's heap, so the collector is
    off while it runs: a collection of the unit's objects must not land in
    a sample.
    """

    INTERVAL_S = 0.03
    REFERENCE_S = 2.0e-4

    def __init__(self):
        self.terms = [Fraction(1, 2 * k + 1) ** 3 for k in range(60)]
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        total = Fraction(0)
        for term in self.terms:
            total += term
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> float | None:
        """Stop sampling; the slowdown, or None without a sample."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if not self.samples:
            return None
        return statistics.mean(self.samples) / self.REFERENCE_S


def _exact_forms(ns, mark) -> list[dict]:
    """Build rep -> partial fractions -> coefficients -> factors ->
    inclusions -> integer form, as ``tests/conftest.py::bundle`` does."""
    from betaforms import decomposition, numerics, profiles, rationalfn

    entries = []
    for n in ns:
        profile = profiles.preset("theorem1", n)
        mark()
        rep = numerics.build_profile_rep(profile)
        table = rationalfn.partial_fractions(rep)
        dec = decomposition.beta_coefficients(table, profile)
        factors = decomposition.ArithmeticFactors.for_profile(profile)
        reports = {
            "coefficients": decomposition.verify_coefficient_inclusions(
                table, factors),
            "form": decomposition.verify_form_inclusions(dec, factors),
        }
        ints, scale = decomposition.integer_linear_form(dec, factors)
        entries.append({
            "n": n,
            "a": {str(i): str(ai) for i, ai in enumerate(dec.a) if ai},
            "d": {"index": profile.d_index, "factorization": str(factors.d)},
            "phi": str(factors.phi),
            "inclusions": {k: {"checked": r.checked, "ok": r.ok,
                               "violations": [str(v) for v in r.violations]}
                           for k, r in reports.items()},
            "integer_form": {"scale": scale,
                             "coefficients": [str(v) for v in ints]},
        })
    return entries


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    spec = json.loads(sys.argv[1])
    import betaforms
    from betaforms import cli

    if Path(betaforms.__file__).resolve().parent.parent != SRC:
        print(f"betaforms imported from {betaforms.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    first_stage = []

    def mark():
        if not first_stage:
            first_stage.append(time.monotonic())

    tracer = spans.Tracer() if spec["trace"] else None
    with spans.installed(tracer) if tracer else contextlib.nullcontext():
        if spec["kind"] == "cli":
            build = cli.build_profile_rep

            def marked_build(profile):
                mark()
                return build(profile)

            cli.build_profile_rep = marked_build
            try:
                rc = cli.main(spec["argv"])
            finally:
                cli.build_profile_rep = build
        else:
            entries = _exact_forms(spec["ns"], mark)
            Path(spec["out"]).write_text(json.dumps(entries))
            rc = 0
    slowdown = probe.stop()
    result = {
        "rc": rc,
        "slowdown": slowdown,
        "first_stage": first_stage[0] if first_stage else None,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.write(spec["trace"])
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
