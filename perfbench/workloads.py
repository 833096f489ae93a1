"""The three benchmark workloads and the seeded profile generator.

Each workload is one *pass*: the list of certificate units that together
finish every certificate of the workload.  A unit runs in a fresh
interpreter, so every pass pays what separate ``betaforms run``
invocations pay (cold ``carry_min_table`` and ``beta_value`` caches).

Why each workload exists, and the layer it loads (shares measured with
the seed code on 2 cores, CPython 3.11, pure-Python mpmath):

* ``theorem1-preset`` -- the headline certificate, ``betaforms run
  --profile theorem1`` at n = 2, 256 bits, with inclusions, consistency
  and the ledger.  The series oracle (``numerics`` and ``series``) takes
  48 % and the carry table (``numtheory``) 38 %.  One of the oracle's two
  ``alternating_series_tail`` calls is a probe whose result is thrown
  away, so ``numerics.tail_useful_ratio`` is 1/2.  This is where a faster
  series oracle must show.  The shipped preset also runs n = 4, whose
  oracle alone takes about a minute; that does not fit the benchmark's
  per-run time budget, so the preset is run at n = 2 only.
* ``random-profiles`` -- sixteen admissible profiles run in full through
  ``betaforms run`` from generated profile JSON at 256 bits.  The eight
  general-family members (s in {5, 7}, n = 2) each have a different
  ``CarrySpec`` and so pay a cold ``carry_min_table`` (``numtheory``,
  20 % of the pass) and one ledger each (``asymptotics``); the oracle
  takes about half of the pass.  The eight basic-family members are the
  diagonal (s, n) = (3, 2), (5, 4), ..., (17, 16); most take one oracle
  pass, s = 17, n = 16 takes the straddling two-pass route.
* ``exact-forms`` -- the arithmetic certificate with no numerical oracle,
  built from library calls in the order of ``tests/conftest.py::bundle``
  for theorem1 at n = 2, 4, 6.  ``rationalfn.partial_fractions`` is about
  70 % of it and the carry table most of the rest; the series oracle does
  not run at all (the CLI cannot express this: ``run`` always evaluates
  the series), so a change to the oracle predicts no change here.
"""

from __future__ import annotations

import random

WORKLOADS = ("theorem1-preset", "random-profiles", "exact-forms")

PRECISION = 256
THEOREM1_PRESET_NS = (2,)
EXACT_FORMS_NS = (2, 4, 6)

# (s, eta_0) of the general-family slots.  eta_0 runs over [8, 22] in fixed
# steps and the seed draws eta_1..eta_s: drawing eta_0 too would let the
# cost of one pass swing with the seed (the carry table grows with the
# square of eta_0), which the benchmark would report as noise.
GENERAL_SLOTS = tuple((5 if i % 2 == 0 else 7, 8 + 2 * i) for i in range(8))
GENERAL_N = 2
# Basic-family members, fixed for the same reason: their cost ranges over
# a factor of forty across (s, n).
BASIC_PROFILES = tuple((2 * j + 1, 2 * j) for j in range(1, 9))


def random_profiles(seed: int, violations) -> list[dict]:
    """The ``random-profiles`` pass for ``seed`` as profile JSON objects.

    ``violations`` is ``betaforms.profile_violations``; every eta draw it
    rejects is drawn again, so only admissible profiles come out.
    """
    rng = random.Random(seed)
    out = []
    for s, e0 in GENERAL_SLOTS:
        lo, hi = -(-e0 // 6), (e0 - 1) // 2
        while True:
            inner = sorted(rng.randint(lo, hi) for _ in range(s - 2))
            eta = (e0, lo, *inner, hi)
            if not violations("general", s, GENERAL_N, eta):
                break
        out.append({"family": "general", "s": s, "eta": list(eta),
                    "n": [GENERAL_N], "precision": PRECISION})
    out += [section2_profile(s, n) for s, n in BASIC_PROFILES]
    return out


def section2_profile(s: int, n: int) -> dict:
    return {"family": "section2", "s": s, "n": [n], "precision": PRECISION}
