"""Truncated power-series helpers.

Series are plain lists of coefficients, ``c[j]`` multiplying ``u**j``.
The routines are generic over the coefficient ring: exact ``Fraction``
values for the partial-fraction tables, mpmath intervals for the
high-order Taylor tails.  Every routine truncates to a fixed order and
never allocates beyond it.
"""

from __future__ import annotations

from fractions import Fraction


def mul_linear(coeffs: list, c, order: int) -> list:
    """Multiply a series by the linear factor ``(c + u)``, truncated."""
    zero = coeffs[0] * 0
    out = [zero] * min(len(coeffs) + 1, order)
    for j, a in enumerate(coeffs):
        if j < order:
            out[j] = out[j] + a * c
        if j + 1 < order:
            out[j + 1] = out[j + 1] + a
    return out


def divide_trunc(num: list, den: list, order: int) -> list:
    """Series quotient ``num/den`` to the given order; ``den[0]`` must be nonzero."""
    inv0 = 1 / den[0]
    out = []
    for j in range(order):
        acc = num[j] if j < len(num) else num[0] * 0
        for k in range(1, min(j, len(den) - 1) + 1):
            acc = acc - den[k] * out[j - k]
        out.append(acc * inv0)
    return out


def euler_numbers_at_zero(count: int) -> list[Fraction]:
    """Euler polynomial values E_k(0) for k = 0..count-1, exact.

    Taylor coefficients of 2/(e^t + 1): E_k(0) = k! [t^k] 2/(e^t+1).
    """
    den = [Fraction(1)]
    fact = 1
    for j in range(1, count):
        fact *= j
        den.append(Fraction(1, 2 * fact))
    # constant term of (e^t+1)/2 is 1
    coeffs = divide_trunc([Fraction(1)], den, count)
    out = []
    fact = 1
    for k, c in enumerate(coeffs):
        if k >= 1:
            fact *= k
        out.append(c * fact)
    return out
