#!/usr/bin/env python3
"""Smallest end-to-end example: a rational linear form in Catalan's constant.

Builds the basic construction at (s, n) = (3, 2), the general family's
function at eta = (3, 1, 1, 1), so its poles sit at t = -(k + 1/2) for
k = n..2n = 2..4 (the paper's section 2 writes the same function with
poles at t = 0..-n).  Expands it into exact partial fractions, resums the
alternating series into r = a_0 + a_2 * beta(2), and verifies the
divisibility normalization and the numeric identity.
"""

from fractions import Fraction

from betaforms import (ArithmeticFactors, beta_coefficients, beta_value,
                       build_section2, consistency_check, integer_linear_form,
                       partial_fractions, section2, working_precision)
from betaforms.balls import nstr

profile = section2(3, 2)
rep = build_section2(3, 2)
print("rational function:")
print(f"  scalar {rep.scalar}, numerator degree {rep.num_degree}, "
      f"denominator degree {rep.den_degree}")

table = partial_fractions(rep)
print("\npartial-fraction coefficients a_{i,k}:")
for k in table.pole_ks:
    row = ", ".join(f"a_{i},{k} = {table.a(i, k)}" for i in range(1, 4))
    print("  " + row)

dec = beta_coefficients(table, profile)
print(f"\nlinear form: r_2 = {dec.a[0]} + ({dec.a[2]}) * beta(2)")

with working_precision(80):
    value = dec.a[0] + dec.a[2] * beta_value(2, 80)
print(f"numeric value: {nstr(value.mid, 15)}")

check = consistency_check(dec, rep, 128)
print(f"independent series evaluation agrees to {check.gap_bits} bits")

factors = ArithmeticFactors.for_profile(profile)
ints, scale = integer_linear_form(dec, factors)
print(f"\ninteger form ({scale}):")
print(f"  {ints[0]} + ({ints[1]}) * beta(2)")
d3 = factors.d.value() ** 3
print(f"  check: d^3 * r_2 = {d3 * float(value.mid):.6f}")
