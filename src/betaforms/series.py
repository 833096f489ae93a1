"""Truncated power-series helpers.

Series are plain lists of coefficients, ``c[j]`` multiplying ``u**j``.
Every routine truncates to a fixed order and never allocates beyond it.
The package's series are integer series: ``mul_linear`` builds the
numerator product of the integer Boole pass in ``numerics``.
``divide_trunc`` divides over a field; it is the exact ``Fraction``
reference the tests hold the integer kernels to.
"""

from __future__ import annotations

from fractions import Fraction


def mul_linear(coeffs: list, c, order: int) -> list:
    """Multiply a series by the linear factor ``(c + u)``, truncated."""
    out = [0] * min(len(coeffs) + 1, order)
    for j, a in enumerate(coeffs):
        if j < order:
            out[j] = out[j] + a * c
        if j + 1 < order:
            out[j + 1] = out[j + 1] + a
    return out


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


# E_k(0) for k < len(_EULER), extended on demand by euler_numbers_at_zero.
_EULER: list[Fraction] = []


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
    The values are computed once, up to the largest count asked for.
    """
    if count > len(_EULER):
        tangents = _tangent_numbers(count // 2)
        values = [Fraction(1)]
        for k in range(1, count):
            if k % 2 == 0:
                values.append(Fraction(0))
            else:
                h = (k + 1) // 2
                values.append(Fraction((-1) ** h * tangents[h - 1], 2 ** k))
        _EULER[:] = values
    return _EULER[:count]
