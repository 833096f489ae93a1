"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import random
import time
from fractions import Fraction

import pytest

from betaforms.asymptotics import exponent_ledger, phi_exponent, r_exponent
from betaforms.balls import working_precision
from betaforms.decomposition import (verify_coefficient_inclusions,
                                     verify_form_inclusions)
from betaforms.numerics import consistency_check, r_n_series
from betaforms.numtheory import carry_min_table, phi_exponent_sieved
from betaforms.profiles import THEOREM1_ETA, general, section2

from tests.conftest import SECTION2_SUITE, THEOREM1_NS, suite_profiles
from tests.reference import (digamma_rational, fraction_table,
                             full_sweep_partial_fractions, mc_integral,
                             remark1_denominator_probe, remark1_identity_check,
                             section2_top_coefficient, symmetry_check)


def report(num, ok, desc, t0):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc} ({time.time() - t0:.1f}s)"
    print(line)
    assert ok, line


def test_criterion_01_kappa():
    t0 = time.time()
    with working_precision(160):
        kappa = ((digamma_rational(1, 2, 160) - digamma_rational(1, 3, 160) - 1)
                 + 2 * (digamma_rational(1, 1, 160)
                        - digamma_rational(1, 2, 160) - 1))
    ok = abs(kappa.mid - Fraction("0.9411124762")) < 1e-10
    ok = ok and time.time() - t0 < 1.0
    report(1, ok, "digamma combination reproduces 0.9411124762 to 1e-10", t0)


def test_criterion_02_section2_exponent():
    t0 = time.time()
    val = r_exponent(section2(17, 2), 192)
    ok = abs(val.mid - Fraction("-16.1123070755")) < 1e-9
    ok = ok and time.time() - t0 < 5.0
    report(2, ok, "s=17 decay rate equals -16.1123070755 to 1e-9", t0)


def test_criterion_03_theorem1_exponents():
    t0 = time.time()
    profile = general(THEOREM1_ETA, 2)
    r_val = r_exponent(profile, 192)
    ok = abs(r_val.mid - Fraction("-100.73966317")) < 1e-7
    phi_val = phi_exponent(profile, 192)
    ok = ok and abs((143 - phi_val.mid) - Fraction("100.23354349")) < 1e-6
    ok = ok and time.time() - t0 < 30.0
    report(3, ok, "theorem-1 rates: -100.73966317 (1e-7) and 143-phi = "
                  "100.23354349 (1e-6)", t0)


def test_criterion_04_ledger_verdicts():
    t0 = time.time()
    sat1 = exponent_ledger(general(THEOREM1_ETA, 2), 160)
    sat2 = exponent_ledger(section2(17, 2), 160)
    neg = exponent_ledger(section2(3, 2), 160)
    ok = (sat1.total.strictly_negative() and sat1.verdict == "satisfied"
          and sat2.total.strictly_negative() and sat2.verdict == "satisfied"
          and neg.total.strictly_positive() and neg.verdict == "fails")
    ok = ok and time.time() - t0 < 10.0
    report(4, ok, "criterion certified: theorem-1 and s=17 negative, "
                  "s=3 positive control", t0)


def _reference_phi0_intervals():
    F = Fraction
    by_value = {
        8: [(F(7, 24), F(3, 10))],
        7: [(F(3, 31), F(1, 10)), (F(6, 31), F(1, 5)), (F(9, 31), F(7, 24)),
            (F(19, 24), F(4, 5)), (F(8, 9), F(9, 10))],
        6: [(F(1, 11), F(3, 31)), (F(2, 11), F(6, 31)), (F(3, 11), F(9, 31)),
            (F(7, 20), F(2, 5)), (F(9, 20), F(1, 2)), (F(11, 20), F(3, 5)),
            (F(13, 20), F(7, 10)), (F(3, 4), F(19, 24)), (F(6, 7), F(8, 9))],
        5: [(F(7, 31), F(1, 4)), (F(7, 22), F(7, 20)), (F(3, 7), F(9, 20)),
            (F(17, 31), F(11, 20)), (F(19, 31), F(5, 8)), (F(20, 31), F(13, 20)),
            (F(5, 7), F(8, 11)), (F(23, 31), F(3, 4))],
        4: [(F(1, 10), F(1, 8)), (F(1, 5), F(7, 31)), (F(3, 10), F(7, 22)),
            (F(6, 11), F(17, 31)), (F(3, 5), F(19, 31)), (F(7, 11), F(20, 31)),
            (F(8, 11), F(23, 31))],
        2: [(F(1, 24), F(1, 11)), (F(3, 22), F(2, 11)), (F(1, 4), F(3, 11)),
            (F(13, 24), F(6, 11)), (F(5, 8), F(7, 11)), (F(17, 20), F(6, 7)),
            (F(19, 20), F(1))],
        1: [(F(1, 31), F(1, 24)), (F(1, 8), F(3, 22)), (F(9, 22), F(3, 7)),
            (F(1, 2), F(13, 24)), (F(7, 10), F(5, 7)), (F(4, 5), F(9, 11)),
            (F(26, 31), F(17, 20)), (F(9, 10), F(10, 11)),
            (F(29, 31), F(19, 20))],
    }
    listed = sorted((lo, hi, v) for v, ivs in by_value.items() for lo, hi in ivs)
    # fill the complement with zeros
    full = []
    cursor = F(0)
    for lo, hi, v in listed:
        assert lo >= cursor, "reference intervals overlap"
        if lo > cursor:
            full.append((cursor, lo, 0))
        full.append((lo, hi, v))
        cursor = hi
    if cursor < 1:
        full.append((cursor, F(1), 0))
    return full


def test_criterion_05_phi0_table_exact():
    t0 = time.time()
    table = carry_min_table(general(THEOREM1_ETA, 2).shape)
    expected = _reference_phi0_intervals()
    got = table.intervals()
    ok = got == expected
    ok = ok and table.value_at(Fraction(7, 24)) == 8
    ok = ok and table.value_at(Fraction(1, 100)) == 0
    ok = ok and time.time() - t0 < 60.0
    report(5, ok, "theorem-1 carry-minimum table matches the expected "
                  "piecewise table exactly", t0)


def test_criterion_06_closed_form_coefficients(bundle):
    t0 = time.time()
    ok = True
    for s, n in [(3, 2), (5, 2), (5, 4), (17, 2)]:
        # the paper's pole k is pole k + n here
        table = bundle(section2(s, n)).table
        for k in range(n + 1):
            ok = ok and table.a(s, k + n) == section2_top_coefficient(s, n, k)
    ok = ok and time.time() - t0 < 60.0
    report(6, ok, "top-order closed form matches exact partial fractions "
                  "on the s in {3,5,17} suite", t0)


def test_criterion_07_integrality_suite(bundle):
    t0 = time.time()
    ok = True
    for profile in suite_profiles():
        b = bundle(profile)
        ok = ok and verify_coefficient_inclusions(b.table, b.factors).ok
        ok = ok and verify_form_inclusions(b.decomposition, b.factors).ok
    ok = ok and time.time() - t0 < 600.0
    report(7, ok, "every divisibility inclusion holds exactly on the full "
                  "suite (five basic + two theorem-1 instances)", t0)


def test_criterion_08_decomposition_oracle(bundle):
    t0 = time.time()
    ok = True
    for profile in suite_profiles():
        b = bundle(profile)
        check = consistency_check(b.decomposition, b.rep, 256)
        disc = abs(check.series.mid - check.decomposition.mid) \
            + check.series.rad + check.decomposition.rad
        ok = ok and check.passed and disc < Fraction("1e-40")
        # the stronger working-precision identity: within 2^-(P-8)
        ok = ok and check.gap_bits >= 256 - 8
    ok = ok and time.time() - t0 < 300.0
    report(8, ok, "series and linear-form evaluations agree below 1e-40 "
                  "at 256 bits on the full suite", t0)


def test_criterion_09_symmetry_and_vanishing(bundle):
    t0 = time.time()
    ok = True
    for profile in suite_profiles():
        b = bundle(profile)
        # the full sweep: a mirrored table holds the identity by construction
        table = full_sweep_partial_fractions(b.rep)
        ok = ok and table == fraction_table(b.table)
        ok = ok and symmetry_check(table, profile.h0 - 1)
        ok = ok and all(b.decomposition.a[i] == 0
                        for i in range(1, profile.s + 1, 2))
    report(9, ok, "reflection identity and odd-coefficient vanishing hold "
                  "exactly on the full suite", t0)


def test_criterion_10_sieve_anchor():
    t0 = time.time()
    approx = phi_exponent_sieved(section2(3, 10 ** 6))
    exact = phi_exponent(section2(3, 2), 96)
    ok = abs(approx - float(exact.mid)) < 5e-3
    ok = ok and time.time() - t0 < 60.0
    report(10, ok, "sieved growth rate at n=10^6 within 5e-3 of the "
                   "digamma-formula value", t0)


def test_criterion_11_monte_carlo(bundle):
    t0 = time.time()
    profile = general((5, 1, 1, 1, 1, 1), 2)
    est = mc_integral(profile, 10 ** 6, seed=12345)
    b = bundle(profile)
    series = r_n_series(b.rep, 128)
    ok = est.mid > 0 and est.overlaps(series)
    ok = ok and time.time() - t0 < 60.0
    report(11, ok, "10^6-sample integral estimate positive and within 3 "
                   "standard errors of the series value", t0)


def test_criterion_12_remark_variant():
    t0 = time.time()
    rng = random.Random(20180418)
    ok = True
    for s, n in [(3, 2), (5, 2)]:
        for _ in range(10):
            t = Fraction(rng.randrange(1, 200), rng.choice([3, 4, 5, 7, 9]))
            ok = ok and remark1_identity_check(s, n, t)
        probe = remark1_denominator_probe(s, n)
        ok = ok and probe.d_2n_clears
    ok = ok and time.time() - t0 < 60.0
    report(12, ok, "variant construction identity at 10 random points and "
                   "its doubled-index denominator clearing", t0)
