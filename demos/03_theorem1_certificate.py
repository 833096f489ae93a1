#!/usr/bin/env python3
"""The main six-value result, end to end at n = 2.

The tuned parameter tuple eta = (31, 10,...,12) trades a slightly slower
decay for a much larger cancellation factor; the certificate is the
negative total exponent together with exact divisibility at finite n.
"""

from fractions import Fraction

from betaforms import (ArithmeticFactors, THEOREM1_ETA, beta_coefficients,
                       capital_phi, carry_min_table, exponent_ledger, general,
                       integer_linear_form, partial_fractions,
                       verify_coefficient_inclusions, verify_form_inclusions)
from betaforms.balls import nstr
from betaforms.numerics import build_profile_rep, consistency_check

profile = general(THEOREM1_ETA, 2)
print(f"profile: {profile.label()}")
print(f"  shift data: h_0 = {profile.h0}, pole window "
      f"[{profile.N}, {profile.h0 - profile.N - 1}], "
      f"lcm index M = {profile.d_index}")

table_phi = carry_min_table(profile.shape)
print(f"\ncarry-minimum table: {len(table_phi.values)} pieces, "
      f"values {sorted(set(table_phi.values))}")
print(f"  peak value {table_phi.max_value()} on the piece at [7/24, 3/10): "
      f"{table_phi.value_at(Fraction(7, 24))}")

phi = capital_phi(profile)
print(f"cancellation factor at n=2: {phi} = {int(phi)}")

rep = build_profile_rep(profile)
table = partial_fractions(rep)
dec = beta_coefficients(table, profile)
factors = ArithmeticFactors.for_profile(profile)

print(f"\ncoefficient inclusions: {verify_coefficient_inclusions(table, factors)}")
print(f"form inclusions:        {verify_form_inclusions(dec, factors)}")

ints, _ = integer_linear_form(dec, factors)
print(f"integer form: {len(ints)} coefficients "
      f"(constant plus beta(2), beta(4), ..., beta(12))")

check = consistency_check(dec, rep, 256)
print(f"series vs decomposition: agree to {check.gap_bits} bits; "
      f"r_2 = {nstr(check.series.mid, 15)}")

ledger = exponent_ledger(profile, 192)
print(f"\nledger: 13 * 11 - {nstr(ledger.phi_exponent.mid, 15)} + "
      f"({nstr(ledger.r_exponent.mid, 15)})")
print(f"  total = {nstr(ledger.total.mid, 15)} -> {ledger.verdict}")
print("so at least one of beta(2), beta(4), ..., beta(12) is irrational.")
