#!/usr/bin/env python3
"""The s = 17 computation: positive integer forms in beta(2), ..., beta(16)
that shrink geometrically, so the eight even beta values cannot all be
rational.

Shows the normalized integer coefficients at n = 2 and the certified
exponent ledger that drives the conclusion.
"""

from betaforms import (ArithmeticFactors, BallReal, beta_coefficients,
                       beta_value, exponent_ledger, integer_linear_form,
                       partial_fractions, r_n_series, section2,
                       working_precision)
from betaforms.balls import nstr
from betaforms.numerics import build_profile_rep

profile = section2(17, 2)
rep = build_profile_rep(profile)
table = partial_fractions(rep)
dec = beta_coefficients(table, profile)
factors = ArithmeticFactors.for_profile(profile)

ints, scale = integer_linear_form(dec, factors)
print(f"scaled form ({scale}):")
print(f"  A_0 = {ints[0]}")
for pos, i in enumerate(dec.beta_indices, start=1):
    print(f"  A_{i} = {ints[pos]}")

with working_precision(160):
    value = BallReal(ints[0])
    for pos, i in enumerate(dec.beta_indices, start=1):
        value = value + ints[pos] * beta_value(i, 160)
print(f"\nvalue of the integer form: {nstr(value.mid, 15)}")
print("  (positive and below 1, as the decay makes inevitable)")

r2 = r_n_series(rep, 128)
print(f"r_2 itself: {nstr(r2.mid, 15)}")

ledger = exponent_ledger(profile, 160)
print("\nexponent ledger (per n, as n grows):")
print(f"  lcm power grows like e^{ledger.d_exponent}")
print(f"  cancellation factor grows like e^{nstr(ledger.phi_exponent.mid, 15)}")
print(f"  the form decays like e^{nstr(ledger.r_exponent.mid, 15)}")
print(f"  total: {nstr(ledger.total.mid, 15)}  ->  {ledger.verdict}")
