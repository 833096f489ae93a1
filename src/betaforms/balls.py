"""Certified reals as exact dyadic midpoint-radius balls on Python ints.

A ``BallReal`` is three ints (m, r, e) with r >= 0; it encloses one real
number in [(m - r) 2**e, (m + r) 2**e].  Every operation is conservative:
whenever the true inputs lie in the input balls, the true result lies in
the result ball.  The views ``mid``, ``rad``, ``lower`` and ``upper`` are
exact ``Fraction``s, and every comparison is exact.

The working precision p is process-global: ``with working_precision(bits)``
sets p = bits + GUARD_BITS, and p = 53 outside any such block.  Arithmetic
is exact on the ints; the result's midpoint is then rounded to p
significant bits and its radius to ``RADIUS_BITS``, and every unit the
rounding drops is added to the radius (``_ball``).

``BallReal.log`` evaluates at the midpoint in fixed point, at scale
2**-wp with wp a little above p, then widens by a bound on the
derivative over the whole ball times the radius.  The fixed-point
kernels (log, atanh, cos and sin, and pi by Machin and ln 2, cached per
scale) return an integer with an error bound in units of 2**-wp derived
in each docstring; ``digamma_sum`` runs the zero-sum digamma sums of the
cancellation factor's growth rate on them directly.

``nstr`` prints a dyadic rational as mpmath's ``nstr`` prints the same
value, so the decimal strings of reports read as they always have.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from functools import lru_cache

# Extra bits carried internally so that user-facing radii land at the
# requested precision even after a moderate number of operations.
GUARD_BITS = 16
# Significant bits a radius keeps: rounding it up costs 2**-29 of itself.
RADIUS_BITS = 30

_prec = 53


@contextlib.contextmanager
def working_precision(bits: int):
    """Temporarily set the working precision to bits + GUARD_BITS."""
    global _prec
    old, _prec = _prec, bits + GUARD_BITS
    try:
        yield
    finally:
        _prec = old


def floor_log2(q) -> int:
    """The exact floor of log2 q for a rational q > 0."""
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    if n <= 0:
        raise ValueError("floor_log2 needs a positive rational")
    k = n.bit_length() - d.bit_length()
    return k - (n < d << k if k >= 0 else n << -k < d)


def _dyadic(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _shift_div(a: int, k: int, b: int) -> int:
    """floor(a 2**k / b) for b > 0."""
    return (a << k) // b if k >= 0 else a // (b << -k)


def _ceil_shift_div(a: int, k: int, b: int) -> int:
    """ceil(a 2**k / b) for b > 0."""
    return -_shift_div(-a, k, b)


def _new(m: int, r: int, e: int) -> "BallReal":
    b = object.__new__(BallReal)
    b.m, b.r, b.e = m, r, e
    return b


def _ball(m: int, r: int, e: int) -> "BallReal":
    return _new(*_rounded(m, r, e))


def _rounded(m: int, r: int, e: int) -> tuple[int, int, int]:
    """The ball (m, r, e) rounded to the working precision.

    With s > 0 bits to drop, the new midpoint q is m / 2**s rounded to
    nearest, and the new radius r' = ceil((r + |m - q 2**s|) / 2**s): every
    x with |x - m| <= r has |x - q 2**s| <= r + |m - q 2**s| <= 2**s r'.
    s keeps p bits of m and RADIUS_BITS bits of r, whichever drops more:
    bits of m far below the radius carry no information.
    """
    s = max(abs(m).bit_length() - _prec, r.bit_length() - RADIUS_BITS)
    if s <= 0:
        return m, r, e
    q = (m + (1 << (s - 1))) >> s
    return q, -(-(r + abs(m - (q << s))) >> s), e + s


def _parts(x) -> tuple[int, int, int]:
    """(m, r, e) of a ball, or of a ball enclosing the rational x: exact
    when x is dyadic, else floor(x 2**k) with radius 1 at p bits."""
    if isinstance(x, BallReal):
        return x.m, x.r, x.e
    if isinstance(x, int):
        return x, 0, 0
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    if d & (d - 1) == 0:
        return n, 0, 1 - d.bit_length()
    k = _prec - 1 - abs(n).bit_length() + d.bit_length()
    return _shift_div(n, k, d), 1, -k


def _coerce(x) -> "BallReal":
    return x if isinstance(x, BallReal) else _ball(*_parts(x))


def _align(a: "BallReal", b: "BallReal") -> tuple[int, int, int, int, int]:
    """(m1, r1, m2, r2, e): both balls over the smaller exponent, exactly."""
    if a.e <= b.e:
        s = b.e - a.e
        return a.m, a.r, b.m << s, b.r << s, a.e
    s = a.e - b.e
    return a.m << s, a.r << s, b.m, b.r, b.e


def _fixed_guard() -> int:
    """Bits of fixed point beyond p: the kernels' error bounds are a few
    units per series term, and a series has fewer than 2p terms."""
    return 8 + _prec.bit_length()


class BallReal:
    """Midpoint-radius enclosure [(m - r) 2**e, (m + r) 2**e] of a real."""

    __slots__ = ("m", "r", "e")

    def __init__(self, value, radius=None):
        m, r, e = _parts(value)
        if radius is not None:
            radius = Fraction(radius)
            if radius < 0:
                raise ValueError("radius must be >= 0")
            if radius:
                # an exponent fine enough to hold RADIUS_BITS of the radius
                s = e - min(e, floor_log2(radius) + 1 - RADIUS_BITS)
                m, r, e = m << s, r << s, e - s
                r += _ceil_shift_div(radius.numerator, -e, radius.denominator)
        self.m, self.r, self.e = _rounded(m, r, e)

    @classmethod
    def from_interval(cls, lo, hi) -> "BallReal":
        """The ball [lower of lo, upper of hi]; lo, hi are balls or rationals."""
        lo, hi = _coerce(lo), _coerce(hi)
        lm, lr, hm, hr, e = _align(lo, hi)
        a, b = lm - lr, hm + hr
        if a > b:
            raise ValueError("interval lower end exceeds its upper end")
        return _ball(a + b, b - a, e - 1)

    # -- views ---------------------------------------------------------------

    @property
    def mid(self) -> Fraction:
        return _dyadic(self.m, self.e)

    @property
    def rad(self) -> Fraction:
        return _dyadic(self.r, self.e)

    @property
    def lower(self) -> Fraction:
        return _dyadic(self.m - self.r, self.e)

    @property
    def upper(self) -> Fraction:
        return _dyadic(self.m + self.r, self.e)

    def __repr__(self):
        return f"BallReal({nstr(self.mid, 12)} +- {nstr(self.rad, 3)})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        """Exact sum of the aligned midpoints and of the radii, rounded once."""
        m1, r1, m2, r2, e = _align(self, _coerce(other))
        return _ball(m1 + m2, r1 + r2, e)

    __radd__ = __add__

    def __sub__(self, other):
        m1, r1, m2, r2, e = _align(self, _coerce(other))
        return _ball(m1 - m2, r1 + r2, e)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        """(m1 +- r1)(m2 +- r2) lies in m1 m2 +- (|m1| r2 + |m2| r1 + r1 r2),
        exactly; then rounded once."""
        o = _coerce(other)
        m1, r1, m2, r2 = self.m, self.r, o.m, o.r
        return _ball(m1 * m2, abs(m1) * r2 + abs(m2) * r1 + r1 * r2,
                     self.e + o.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """For |m2| > r2 and a, b in the balls,
            |a/b - m1/m2| = |a m2 - m1 b| / |b m2|
                          <= (r1 |m2| + |m1| r2) / ((|m2| - r2) |m2|).
        The quotient is floor(m1 2**k / m2), off by under one unit (none
        when the division is exact), with k giving it p + 2 bits.
        """
        o = _coerce(other)
        m1, r1, m2, r2 = self.m, self.r, o.m, o.r
        a2 = abs(m2)
        if a2 <= r2:
            raise ZeroDivisionError("division by a ball that contains zero")
        k = _prec + 2 + a2.bit_length() - max(abs(m1).bit_length(),
                                               r1.bit_length())
        if k >= 0:
            q, rem = divmod(m1 << k, m2)
        else:
            q, rem = divmod(m1, m2 << -k)
        rad = _ceil_shift_div(r1 * a2 + abs(m1) * r2, k, (a2 - r2) * a2)
        return _ball(q, rad + (rem != 0), self.e - o.e - k)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k: int):
        """Binary powering: every product is a rigorous ball product."""
        if k < 0:
            return 1 / self ** -k
        result, base = _new(1, 0, 0), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __neg__(self):
        return _new(-self.m, self.r, self.e)

    def __abs__(self):
        m, r, e = self.m, self.r, self.e
        if m - r >= 0:
            return self
        if m + r <= 0:
            return -self
        # straddles zero: [0, |m| + r]
        top = abs(m) + r
        return _ball(top, top, e - 1)

    # -- transcendentals -----------------------------------------------------

    def log(self) -> "BallReal":
        """log x for a ball with lower end > 0.

        At the midpoint c, exactly: ``_log_fixed``.  Every x in the ball
        has |log x - log c| <= |x - c| / lower <= r / (m - r), in units
        of the ball's exponent, which cancels.
        """
        m, r, e = self.m, self.r, self.e
        if m - r <= 0:
            raise ValueError("log of a ball that is not positive")
        wp = max(_prec, m.bit_length()) + _fixed_guard()
        value, err = _log_fixed(m, e, wp)
        return _ball(value, err + _ceil_shift_div(r, wp, m - r), -wp)

    # -- predicates ----------------------------------------------------------

    def overlaps(self, other: "BallReal") -> bool:
        m1, r1, m2, r2, _ = _align(self, other)
        return abs(m1 - m2) <= r1 + r2

    def strictly_negative(self) -> bool:
        return self.m + self.r < 0

    def strictly_positive(self) -> bool:
        return self.m - self.r > 0

    def contains_zero(self) -> bool:
        return abs(self.m) <= self.r


# ---------------------------------------------------------------------------
# Fixed-point kernels: (value, err) with |value - f 2**wp| <= err
# ---------------------------------------------------------------------------

def _log_fixed(m: int, e: int, wp: int) -> tuple[int, int]:
    """log(m 2**e) for m > 0 with m.bit_length() <= wp.

    m 2**e = 2**k y with Y = y 2**wp exact and y in [1/sqrt 2, sqrt 2],
    log y = 2 atanh t with t = (y - 1)/(y + 1), |t| <= 0.172.  T =
    floor(t 2**wp) is off by under one unit, which moves 2 atanh t by
    under 2/(1 - t**2) < 2.1 units; ``_atanh_fixed`` errs by under
    2.25 N + 1.3 units over N terms, doubled here; k L errs by |k| err(L).
    """
    n = m.bit_length()
    k = e + n - 1
    one = 1 << wp
    y = m << (wp - n + 1)
    if y * y > one * one << 1:
        y >>= 1
        k += 1
    atanh, terms = _atanh_fixed(((y - one) << wp) // (y + one), wp)
    ln2, ln2_err = _ln2(wp)
    return k * ln2 + 2 * atanh, 5 * terms + 5 + abs(k) * ln2_err


def _atanh_fixed(t: int, wp: int) -> tuple[int, int]:
    """(sum_j t**(2j+1)/(2j+1) at scale 2**-wp, number of terms N), for
    |t| <= 0.18 2**wp.

    On |t|: t2 = floor(t**2 / 2**wp) is under one unit low, so each power
    P_j = floor(P_(j-1) t2 / 2**wp) errs by under 0.03 e_(j-1) + 0.18 + 1
    < 1.25 units, and its floor division by 2j+1 by one more.  The sum
    stops at the first P_N = 0, where the exact power is under 1.25 units
    and the rest of the series under 1.3.  Total: under 2.25 N + 1.3.
    """
    sign = -1 if t < 0 else 1
    t = abs(t)
    t2 = t * t >> wp
    total, power, j = 0, t, 0
    while power:
        total += power // (2 * j + 1)
        power = power * t2 >> wp
        j += 1
    return sign * total, j


def _cos_sin_fixed(s: int, wp: int, odd: int) -> tuple[int, int]:
    """cos (odd = 0) or sin (odd = 1) of s 2**-wp at scale 2**-wp, for
    |s| <= 0.8 2**wp.

    On |s|, s2 = floor(s**2 / 2**wp) is under one unit low; each term
    t_j = floor(floor(t_(j-1) s2 / 2**wp) / ((i+1)(i+2))) errs by under
    (0.64 e_(j-1) + 2)/2 + 1 < 3 units.  The series alternates with
    decreasing terms, so past the first t_N = 0 (exact term under 3
    units) the tail is under 3.  Total: under 3 N + 3.
    """
    sign = -1 if s < 0 and odd else 1
    s = abs(s)
    s2 = s * s >> wp
    total, term, i, n = 0, s if odd else 1 << wp, odd, 0
    while term:
        total += -term if n & 1 else term
        term = (term * s2 >> wp) // ((i + 1) * (i + 2))
        i += 2
        n += 1
    return sign * total, 3 * n + 3


@lru_cache(maxsize=64)
def _ln2(wp: int) -> tuple[int, int]:
    """ln 2 = 2 atanh(1/3) = 2 sum_j 1/((2j+1) 3**(2j+1)).

    q_j = q_(j-1) // 9 is exactly floor(2**wp / 3**(2j+1)), so each term
    q_j // (2j+1) is the exact term's floor, under one unit low.  Past
    the first q_N = 0 the exact terms sum to under 1.2 units.  Doubled:
    under 2 N + 2.4.
    """
    total, q, j = 0, (1 << wp) // 3, 0
    while q:
        total += q // (2 * j + 1)
        q //= 9
        j += 1
    return 2 * total, 2 * j + 3


def _atan_inv(x: int, wp: int) -> tuple[int, int]:
    """atan(1/x) = sum_j (-1)**j / ((2j+1) x**(2j+1)) for an int x >= 2.

    As in ``_ln2`` each term is its exact value's floor; the signs
    alternate and the terms decrease, so past the first zero term the
    tail is under one unit.  Total: under N + 1.
    """
    total, q, j, x2 = 0, (1 << wp) // x, 0, x * x
    while q:
        term = q // (2 * j + 1)
        total += -term if j & 1 else term
        q //= x2
        j += 1
    return total, j + 1


@lru_cache(maxsize=64)
def _pi(wp: int) -> tuple[int, int]:
    """Machin: pi = 16 atan(1/5) - 4 atan(1/239)."""
    a, a_err = _atan_inv(5, wp)
    b, b_err = _atan_inv(239, wp)
    return 16 * a - 4 * b, 16 * a_err + 4 * b_err


# ---------------------------------------------------------------------------
# Digamma at positive rationals
# ---------------------------------------------------------------------------

def digamma_sum(weights: dict[Fraction, int], precision: int,
                exact: Fraction) -> BallReal:
    """exact + sum w psi(x) over rationals x > 0 with integer weights w
    that sum to 0 (else ``ValueError``), within about 2**-precision.

    x = k + a/b, a/b in lowest terms: psi(x) = psi(a/b) + sum_{j<k}
    b/(a + j b), psi(k) = -gamma + H_(k-1), and by Gauss's theorem, with
    c_j = cos(2 pi j/b) and L_m = log sin(pi m/b)**2 = log((1 - c_m)/2),
        psi(a/b) = -gamma - log 2b - (pi/2) cot(pi a/b)
                   + sum_{0<m<b/2} c_(m a mod b) L_m,
    where cot(pi a/b) = +-sqrt((1 + c_a)/(1 - c_a)), the sign of b - 2a.
    The -gamma cancel, and as the sines at m/b, 0 < m < b, multiply to
    b 2**(1-b), log 2b = b log 2 + sum_{0<m<b/2} L_m: its part joins the
    L_m as c_(m a) - 1.

    One fixed-point pass at scale 2**-wp, wp = precision + guard, makes the
    sum M 2**-F, F = 2 wp + 2, within R 2**-F.  The weights fold first: the
    shifts into one fraction, the b log 2 into one weight g of log 2, the
    cots of a/b and 1 - a/b into one, the c_(m a) - 1 into one coefficient
    S per reduced angle m/b; each kernel runs once per reduced angle.
    R adds up:

    * c_j, from P within e of pi 2**(wp + 8): with n = round(4j/b) and
      t = 4j - n b, c_j = cos s, -sin s, -cos s (n = 0, 1, 2) at s = (pi/2)
      t/b, |s| <= pi/4; u = floor(P |t| / (b 2**9)) is within e/2**10 + 1
      of |s| 2**wp, which |cos'|, |sin'| <= 1 add to ``_cos_sin_fixed``'s
      bound: E_c.  The kernel sees only |t|/b and n mod 2, so j/b and
      1/2 - j/b share it, and c_(b-j) = c_j;
    * the shifts: one floor over their common denominator, 1 unit;
    * g log 2: |g| times ``_log_fixed``'s error, at scale 2**-(wp + 1);
    * S (scale 2**-wp, within E_S, E_c sum |w| per row it gathers) times
      L_m (scale 2**-(wp + 1), within E_L): |S| E_L + |L| E_S + E_S E_L,
      doubled to scale 2**-F.  D = 2**wp - C_m is within E_c of (1 - c_m)
      2**wp, so E_L is ``_log_fixed``'s error plus E_c 2**(wp + 1)/(D - E_c)
      (|log' x| <= 1/x on [D - E_c, D + E_c]);
    * cot is increasing in c: isqrt of its square at C - E_c rounded down
      and at C + E_c rounded up bound it, so the weighted cots make 2T
      2**wp within R_T; with P' = P/2**8 (floored) within e' = e/2**8 + 2
      of pi 2**wp, -(pi/2) T = -P' (2T 2**wp) 2**-F within
      P' R_T + e' (|2T| + R_T).

    E_c, a few wp units, grows near c = 1 by up to (b/pi)**2 in a log and
    (b/pi)**3 in a cot; the guard covers that, the weights and 32 bits
    more, which keep D - E_c and 1 + C - E_c positive.
    """
    if sum(weights.values()):
        raise ValueError("digamma weights must sum to 0")
    shifts, rows = {}, {}
    for x, w in weights.items():
        b = x.denominator
        k, a = divmod(x.numerator, b)
        for j in range(not a, k):
            shifts[a + j * b] = shifts.get(a + j * b, 0) + w * b
        if a:
            row = rows.setdefault(b, {})
            row[a] = row.get(a, 0) + w
    wp = (precision + 32 + 3 * max(rows, default=1).bit_length()
          + precision.bit_length() + sum(map(abs, weights.values())).bit_length())
    one, shift, (pi, e_pi) = 1 << wp, 2 * wp + 2, _pi(wp + 8)
    den = math.lcm(exact.denominator, *shifts)
    mid, rem = divmod((exact.numerator * (den // exact.denominator) + sum(
        n * (den // d) for d, n in shifts.items())) << shift, den)
    rad, t2, r2 = int(rem != 0), 0, 0
    twos, kernels, logs = 0, {}, {}
    for b, row in rows.items():
        twos += b * sum(row.values())
        turns = [(0, 0)] * b
        for j in range(1, b // 2 + 1):
            n = (8 * j + b) // (2 * b)
            t = 4 * j - n * b
            key = abs(t) // (g := math.gcd(t, b)), b // g, n & 1
            if key not in kernels:
                value, err = _cos_sin_fixed(pi * key[0] // (key[1] << 9), wp, n & 1)
                kernels[key] = value, err + (e_pi >> 10) + 2
            value, err = kernels[key]
            turns[j] = turns[b - j] = (
                -value if n == 2 or n == 1 and t > 0 else value, err)
        e_s = max(e for _, e in turns) * sum(map(abs, row.values()))
        for m in range(1, (b + 1) // 2):
            log = logs.setdefault((m // (g := math.gcd(m, b)), b // g),
                                  [0, 0, *turns[m]])
            log[0] += sum([w * (turns[m * a % b][0] - one) for a, w in row.items()])
            log[1] += e_s
        cots = {}
        for a, w in row.items():
            if 2 * a != b:
                k = min(a, b - a)
                cots[k] = cots.get(k, 0) + (w if 2 * a < b else -w)
        for k, w in cots.items():
            c, e = turns[k]
            lo = math.isqrt((one + c - e << 2 * wp) // (one - c + e))
            hi = math.isqrt(-(-(one + c + e << 2 * wp) // (one - c - e)) - 1) + 1
            t2 += w * (lo + hi)
            r2 += abs(w) * (hi - lo)
    for s, e_s, c, e in logs.values():
        value, err = _log_fixed(one - c, -wp - 1, wp + 1)
        err -= (-e << wp + 1) // (one - c - e)
        mid += s * value << 1
        rad += abs(s) * err + (abs(value) + err) * e_s << 1
    value, err = _log_fixed(2, 0, wp + 1)
    mid -= twos * value << wp + 1
    rad += abs(twos) * err << wp + 1
    mid -= (pi >> 8) * t2
    rad += (pi >> 8) * r2 + ((e_pi >> 8) + 2) * (abs(t2) + r2)
    with working_precision(wp):
        return _ball(mid, rad, -shift)


# ---------------------------------------------------------------------------
# Decimal strings
# ---------------------------------------------------------------------------

_LOG2_10 = math.log(10, 2)  # as mpmath computes it


def nstr(x, digits: int) -> str:
    """A dyadic rational x (an int, or a Fraction whose denominator is a
    power of 2) as mpmath's ``nstr(x, digits)`` prints it.

    The digits follow mpmath's ``to_str``: the value is truncated to a
    fixed-point number of about digits + 3 decimals, which is rounded
    half up at its digits-th significant digit, printed in fixed point
    when the leading digit's exponent lies strictly between
    min(-(digits // 3), -5) and digits, trailing zeros stripped.  For
    |x| outside 2**+-3500 mpmath first divides by a power of ten rounded
    to the working bits; here the decimal truncation stays exact, which
    gives the same digits unless the value's decimals digits + 1 to
    about digits + 6 are all 0 or all 9.
    """
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    if d & (d - 1):
        raise ValueError("nstr needs a dyadic rational")
    if n == 0:
        return "0.0"
    sign = "-" if n < 0 else ""
    man, exp = abs(n), 1 - d.bit_length()
    dps = digits + 3
    bitprec = int(dps * _LOG2_10) + 10
    size = exp + man.bit_length()
    if abs(size) > 3500:
        # the leading decimal exponent, exactly
        lead = math.floor((size - 1) / _LOG2_10)
        while _dyadic(man, exp) >= Fraction(10) ** (lead + 1):
            lead += 1
        while _dyadic(man, exp) < Fraction(10) ** lead:
            lead -= 1
        scaled = _dyadic(man, exp) / Fraction(10) ** lead
        fixdps = dps + 3
        sd = scaled.numerator * 10 ** fixdps // scaled.denominator
        text = str(sd)
        exponent = lead + len(text) - fixdps - 1
    else:
        fixprec = max(bitprec - size, 0)
        fixdps = int(fixprec / _LOG2_10 + 0.5)
        sf = man << (exp + fixprec) if exp + fixprec >= 0 else \
            man >> -(exp + fixprec)
        text = str(sf * 10 ** fixdps >> fixprec)
        exponent = len(text) - fixdps - 1
    return sign + _to_str(text, exponent, digits)


def _to_str(text: str, exponent: int, dps: int) -> str:
    """mpmath's ``to_str`` layout of the truncated digits ``text``, whose
    first digit has decimal exponent ``exponent``."""
    if len(text) > dps and text[dps] in "56789":
        text = text[:dps]
        i = dps - 1
        while i >= 0 and text[i] == "9":
            i -= 1
        if i >= 0:
            text = text[:i] + str(int(text[i]) + 1) + "0" * (dps - i - 1)
        else:
            text = "1" + "0" * (dps - 1)
            exponent += 1
    else:
        text = text[:dps]
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            text = "0" * -exponent + text
            split = 1
        else:
            split = exponent + 1
            if split > dps:
                text += "0" * (split - dps)
        exponent = 0
    else:
        split = 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text[-1] == ".":
        text += "0"
    if exponent == 0:
        return text
    return f"{text}e{'+' if exponent > 0 else ''}{exponent}"
