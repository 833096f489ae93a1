"""Arbitrary-precision reals with a rigorous error radius.

A ``BallReal`` encloses one exact real number.  Internally it is an
mpmath interval (directed outward rounding), exposed through the
midpoint/radius view used everywhere else in the package.  All
operations are conservative: the true value of the result is contained
in the result ball whenever the true inputs are contained in the input
balls.

mpmath interval precision is a context attribute, so computations that
produce balls should run inside ``with working_precision(bits):``.
That context is process-global (mpmath's design); the library itself
never mutates it outside the context manager.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction

from mpmath import iv, mp, mpf

# Extra bits carried internally so that user-facing radii land at the
# requested precision even after a moderate number of operations.
GUARD_BITS = 16


@contextlib.contextmanager
def working_precision(bits: int):
    """Temporarily set the interval-arithmetic precision (plus guard bits)."""
    old = iv.prec
    iv.prec = bits + GUARD_BITS
    try:
        yield
    finally:
        iv.prec = old


def _to_interval(value):
    """Convert int / Fraction / str / mpf / interval to an enclosing interval."""
    if isinstance(value, BallReal):
        return value._v
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return iv.mpf(value.numerator)
        return iv.mpf(value.numerator) / iv.mpf(value.denominator)
    return iv.mpf(value)


def _raw_to_fraction(raw) -> Fraction:
    """Exact rational value of a finite raw mpf tuple."""
    sign, man, exp, _ = raw
    if man == 0:
        if exp != 0:
            raise ValueError("endpoint is not finite")
        return Fraction(0)
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


class BallReal:
    """Midpoint-radius enclosure of a real number."""

    __slots__ = ("_v",)

    def __init__(self, value, radius=None):
        v = _to_interval(value)
        if radius is not None:
            v = v + _to_interval(radius) * iv.mpf([-1, 1])
        self._v = v

    @classmethod
    def from_interval(cls, lo, hi) -> "BallReal":
        b = cls.__new__(cls)
        b._v = iv.mpf([_to_interval(lo).a, _to_interval(hi).b])
        return b

    # -- views ---------------------------------------------------------------

    @property
    def mid(self) -> mpf:
        """Midpoint at the interval's own precision (ambient-context free)."""
        from mpmath.libmp import mpf_add, mpf_shift

        lo, hi = self._v._mpi_
        prec = max(lo[3], hi[3], 53) + 8
        return mp.make_mpf(mpf_shift(mpf_add(lo, hi, prec, "n"), -1))

    @property
    def rad(self) -> mpf:
        """Radius covering both endpoints from the (rounded) midpoint."""
        from mpmath.libmp import mpf_sub

        lo, hi = self._v._mpi_
        m = self.mid._mpf_
        r1 = mp.make_mpf(mpf_sub(hi, m, 64, "c"))
        r2 = mp.make_mpf(mpf_sub(m, lo, 64, "c"))
        return r1 if r1 >= r2 else r2

    @property
    def lower(self) -> mpf:
        return mp.make_mpf(self._v._mpi_[0])

    @property
    def upper(self) -> mpf:
        return mp.make_mpf(self._v._mpi_[1])

    def __repr__(self):
        return f"BallReal({iv.nstr(self._v, 12)})"

    # -- arithmetic ----------------------------------------------------------

    def _wrap(self, v) -> "BallReal":
        b = BallReal.__new__(BallReal)
        b._v = v
        return b

    def __add__(self, other):
        return self._wrap(self._v + _to_interval(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._wrap(self._v - _to_interval(other))

    def __rsub__(self, other):
        return self._wrap(_to_interval(other) - self._v)

    def __mul__(self, other):
        return self._wrap(self._v * _to_interval(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._wrap(self._v / _to_interval(other))

    def __rtruediv__(self, other):
        return self._wrap(_to_interval(other) / self._v)

    def __pow__(self, k: int):
        return self._wrap(self._v ** k)

    def __neg__(self):
        # exact: swap and negate raw endpoints, no context rounding
        from mpmath.libmp import mpf_neg

        lo, hi = self._v._mpi_
        return self._wrap(iv.make_mpf((mpf_neg(hi), mpf_neg(lo))))

    def __abs__(self):
        v = self._v
        if v.a >= 0:
            return self._wrap(v)
        if v.b <= 0:
            return -self
        from mpmath.libmp import fzero, mpf_neg

        lo, hi = v._mpi_
        nlo = mpf_neg(lo)
        top = hi if mp.make_mpf(hi) >= mp.make_mpf(nlo) else nlo
        return self._wrap(iv.make_mpf((fzero, top)))

    def log(self) -> "BallReal":
        return self._wrap(iv.log(self._v))

    def exp(self) -> "BallReal":
        return self._wrap(iv.exp(self._v))

    def sqrt(self) -> "BallReal":
        return self._wrap(iv.sqrt(self._v))

    def cos(self) -> "BallReal":
        return self._wrap(iv.cos(self._v))

    def sin(self) -> "BallReal":
        return self._wrap(iv.sin(self._v))

    # -- predicates ----------------------------------------------------------

    def contains(self, q) -> bool:
        """Exact membership for rationals; interval containment otherwise."""
        if isinstance(q, (int, Fraction)):
            q = Fraction(q)
            lo, hi = self._v._mpi_
            return _raw_to_fraction(lo) <= q <= _raw_to_fraction(hi)
        x = _to_interval(q)
        return self._v.a <= x.a and x.b <= self._v.b

    def overlaps(self, other: "BallReal") -> bool:
        return not (self._v.b < other._v.a or other._v.b < self._v.a)

    def strictly_negative(self) -> bool:
        return self._v.b < 0

    def strictly_positive(self) -> bool:
        return self._v.a > 0

    def contains_zero(self) -> bool:
        return self._v.a <= 0 <= self._v.b


def ball_pi() -> BallReal:
    b = BallReal.__new__(BallReal)
    b._v = iv.pi
    return b


def ball_euler_gamma() -> BallReal:
    b = BallReal.__new__(BallReal)
    b._v = iv.euler
    return b
