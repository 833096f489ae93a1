"""Truncated power-series helpers and the Euler numbers.

Series are plain lists of coefficients, ``c[j]`` multiplying ``u**j``.
``divide_trunc`` divides over a field; it is the exact ``Fraction``
reference the tests hold the integer partial-fraction kernel to.
``euler_numbers_at_zero`` gives E_k(0), checked against that division.

No code path of the package calls either since the Chebyshev series
kernel replaced the Boole tail.  ``numerics`` still imports both names,
because the benchmark (``perfbench/spans.py``) traces them at
``numerics.divide_trunc`` and ``numerics.euler_numbers_at_zero``; they
can go once the pipeline records its own stages (ROADMAP item 1).
"""

from __future__ import annotations

from fractions import Fraction


def divide_trunc(num: list, den: list, order: int) -> list:
    """Series quotient ``num/den`` to the given order; ``den[0]`` must be nonzero.

    Meant for a field such as ``Fraction``: it multiplies by
    ``1 / den[0]``, which turns integer input into floats.
    """
    inv0 = 1 / den[0]
    out = []
    for j in range(order):
        acc = num[j] if j < len(num) else num[0] * 0
        for k in range(1, min(j, len(den) - 1) + 1):
            acc = acc - den[k] * out[j - k]
        out.append(acc * inv0)
    return out


def _tangent_numbers(h: int) -> list[int]:
    """T_1..T_h with tan x = sum T_k x**(2k-1)/(2k-1)!.

    The in-place integer recurrence of Brent & Zimmermann, *Modern
    Computer Arithmetic* (CUP 2010), section 4.7.2.
    """
    t = [0, 1] + [0] * (h - 1)
    for k in range(2, h + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:h + 1]


def euler_numbers_at_zero(count: int) -> list[Fraction]:
    """Euler polynomial values E_k(0) for k = 0..count-1, exact.

    E_k(0) = k! [t^k] 2/(e^t+1): E_0(0) = 1, E_{2j}(0) = 0 for j >= 1 and
    E_{2h-1}(0) = (-1)**h T_h / 2**(2h-1) with T_h the tangent numbers.
    """
    tangents = _tangent_numbers(count // 2)
    values = [Fraction(1)][:count]
    for k in range(1, count):
        h = (k + 1) // 2
        values.append(Fraction((-1) ** h * tangents[h - 1], 2 ** k)
                      if k % 2 else Fraction(0))
    return values
