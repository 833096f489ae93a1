#!/usr/bin/env python3
"""A closer look at the floor-sum carry functions.

These integer-valued, doubly periodic sums lower-bound the p-adic order
of every partial-fraction coefficient at primes p with x = n/p in the
right window; their minimum over the second argument is what each prime
contributes to the cancellation factor.  The basic function is written
out here as the paper gives it, six floor terms; the package builds every
carry function from a profile's shape, and at the basic family's shape
(3, 1, ..., 1) that sum has the same minimum over y.
"""

import math
from fractions import Fraction

from betaforms import (THEOREM1_ETA, carry_min_table, phi_exponent,
                       phi_exponent_sieved, section2)
from betaforms.balls import nstr
from betaforms.numtheory import carry_min_value


def basic(x, y):
    """The paper's section-2 carry function: six floor terms."""
    fl = math.floor
    return (fl(2 * x + 2 * y) + fl(4 * x - 2 * y) - fl(x + y)
            - fl(2 * x - y) - 3 * fl(y) - 3 * fl(x - y))


print("basic carry function samples:")
for x, y in [(Fraction(2, 5), Fraction(1, 5)), (Fraction(1, 2), Fraction(1, 4)),
             (Fraction(5, 12), Fraction(1, 3))]:
    print(f"  phi({x}, {y}) = {basic(x, y)}"
          f"   (same at x+1: {basic(x + 1, y)})")

print("\nits minimum over y is the three-step table:")
for lo, hi, v in carry_min_table(section2(3, 2).shape).intervals():
    print(f"  [{lo}, {hi}) -> {v}")

table = carry_min_table(THEOREM1_ETA)
print(f"\nthe tuned carry minimum has {len(table.values)} pieces; "
      f"a few spot values with witnesses:")
for x in [Fraction(7, 24), Fraction(2, 13), Fraction(2, 17), Fraction(1, 100)]:
    val, witness = carry_min_value(THEOREM1_ETA, x)
    print(f"  min_y phi({x}, y) = {val}, attained at y = {witness}")

print("\ngrowth rate of the cancellation product (digamma formula vs sieve):")
exact = phi_exponent(section2(3, 2), 96)
print(f"  formula: {nstr(exact.mid, 15)}")
for n in (10 ** 4, 10 ** 5, 10 ** 6):
    print(f"  sieved at n = {n:>9,}: {phi_exponent_sieved(section2(3, n)):.6f}")
