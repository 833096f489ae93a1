"""High-precision rigorous evaluation: the alternating beta values, the
linear-form series, the series-vs-decomposition consistency oracle, and a
Monte Carlo estimate of the multidimensional integral form.

Everything except the Monte Carlo routine returns balls whose radii are
honest bounds:

* beta values use the Chebyshev-weight acceleration scheme for alternating
  series of moments; its error is at most 1/d with d the integer Chebyshev
  normalizer, since 1/(2k+1)**i is a moment sequence of a positive measure.
  The weights are integers, and the sum runs in fixed point with a
  rounding bound of n units that is added to the radius.
* the linear-form series is summed exactly up to a cutoff by binary
  splitting, and the tail by Boole summation: Taylor coefficients at the
  cutoff weighted by Euler-polynomial constants, in fixed-point integers
  with a rounding bound derived before the pass, plus a remainder bound
  through the partial-fraction coefficients.  Of the rungs of doubling
  accuracy, those that cannot certify the sign are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .balls import BallReal, floor_log2, working_precision
from .decomposition import DecompositionResult, beta_coefficients
from .profiles import Profile
from .rationalfn import (LinearProductRep, PartialFractionTable,
                         build_general, build_section2, partial_fractions)
# divide_trunc is unused here; perfbench traces numerics.divide_trunc by name
from .series import divide_trunc, euler_numbers_at_zero, mul_linear

_LOG2_ACCEL = 2.5431  # log2(3 + sqrt 8), the per-term gain of the scheme
_PI_LOWER = Fraction(333, 106)  # rational lower bound on pi


def _chebyshev_normalizer(n: int) -> int:
    """T_n(3), the integer ((3+sqrt8)^n + (3-sqrt8)^n)/2."""
    a, b = 1, 3
    for _ in range(n - 1):
        a, b = b, 6 * b - a
    return b if n >= 1 else 1


@lru_cache(maxsize=None)
def beta_value(i: int, precision: int = 256) -> BallReal:
    """The alternating sum of odd reciprocal i-th powers, radius <= 2**(1-precision)."""
    if i < 1:
        raise ValueError("beta index must be >= 1")
    with working_precision(precision + 16):
        return BallReal(*_beta_enclosure(i, precision))


def _beta_enclosure(i: int, precision: int) -> tuple[Fraction, Fraction]:
    """Exact (mid, radius) of the ball ``beta_value`` returns."""
    n = int((precision + 4) / _LOG2_ACCEL) + 3
    d = _chebyshev_normalizer(n)
    # s in units of 2**-p: each floor loses under a unit, so s/2**p <= sum
    # c_k/(2k+1)**i < (s + n)/2**p, and n/2**(p+1) < 2**-(precision+17)
    p = precision + 16 + n.bit_length()
    b, c, s = -1, -d, 0
    for k in range(n):
        c = b - c
        s += (c << p) // (2 * k + 1) ** i
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))  # exact
    # moment-sequence error bound: |S - sum/d| <= S/d < 1/d
    return (Fraction(2 * s + n, d << (p + 1)),
            Fraction((1 << (p + 1)) + n, d << (p + 1)))


def build_profile_rep(profile: Profile) -> LinearProductRep:
    if profile.is_section2:
        return build_section2(profile.s, profile.n)
    return build_general(profile)


# ---------------------------------------------------------------------------
# Boole tail machinery
# ---------------------------------------------------------------------------

def _tail_remainder_bound(table: PartialFractionTable, shift: Fraction,
                          a: int, m: int) -> Fraction:
    """Rigorous bound on the Boole remainder for the tail starting at a.

    Integrates the m-th derivative bound of the partial-fraction form
    termwise; the periodic-Euler-polynomial envelope contributes 3/pi**m
    (Fourier bound with margin).  Everything is exact rational arithmetic
    with a rational lower bound for pi.
    """
    base = a + shift + table.pole_offset
    # i(i+1)...(i+m-1) / (i+m-1), one integer per order i
    rising = [math.prod(range(i, i + m - 1)) for i in range(1, table.s + 1)]
    total = Fraction(0)
    for row, k in zip(table.rows, table.pole_ks):
        if not any(row):
            continue
        dist = base + k
        if dist <= 0:
            raise ValueError("tail cutoff does not clear the poles")
        # the pole's terms |c| rising / dist**(i+m-1) over one denominator
        p, q = dist.numerator, dist.denominator
        den = math.lcm(*(c.denominator for c in row))
        num = 0
        for i, c in enumerate(row, 1):
            if c:
                num += (abs(c.numerator) * (den // c.denominator) * rising[i - 1]
                        * q ** (i + m - 1) * p ** (table.s - i))
        total += Fraction(num, den * p ** (table.s + m - 1))
    return 3 * total / _PI_LOWER ** m


def _log2_largest_term(table: PartialFractionTable, shift: Fraction,
                       a: int, m: int) -> float:
    """log2 of the largest single term of ``_tail_remainder_bound``, with
    each |c| rounded down to a power of 2; floats move it far less than a bit."""
    base = a + shift + table.pole_offset
    return max(abs(c.numerator).bit_length() - c.denominator.bit_length() - 1
               + (math.lgamma(i + m - 1) - math.lgamma(i)) / math.log(2)
               - (i + m - 1) * math.log2(base + k)
               for row, k in zip(table.rows, table.pole_ks)
               for i, c in enumerate(row, 1) if c
               ) + math.log2(3) - m * math.log2(_PI_LOWER)


def _choose_tail_parameters(table, shift, start, target: Fraction,
                            m: int = 32) -> tuple[int, int, Fraction]:
    """Smallest workable (cutoff a, order m) with remainder bound <= target,
    and that bound.

    The order climbs the ladder 32, 48, 72, ... from ``m`` (a caller that
    starts higher knows the lower rungs fail); a rung whose largest single
    remainder term, less a 2-bit margin, exceeds the target is passed over
    without its exact bound.
    """
    while m <= 4096:
        a = max(start, 1) + 2 * m
        if _log2_largest_term(table, shift, a, m) - 2 <= _ceil_log2(target):
            bound = _tail_remainder_bound(table, shift, a, m)
            if bound <= target:
                return a, m, bound
        m = m * 3 // 2
    raise ArithmeticError("tail order limit exceeded; raise the target radius")


def _ceil_log2(q: Fraction) -> int:
    """The least integer P with 2**P >= q, for q >= 0."""
    p = q.numerator.bit_length() - q.denominator.bit_length()
    return p if Fraction(2) ** p >= q else p + 1


def _boole_sum(rep: LinearProductRep, x0: Fraction, m: int,
               tolerance: Fraction) -> tuple[Fraction, Fraction]:
    """sum_{k<m} E_k(0) s_k for the Taylor coefficients s_k at the
    half-integer x0, and a bound on its error that is at most ``tolerance``.

    Each factor x0 - r + u is (A + v)/2 with the integer A = 2(x0 - r) and
    v = 2u, so s_k = scalar 2**(gap+k) g_k, where g = N/D and N, D are the
    integer products of (A + v); E_k(0) 2**k is an integer too.  N is
    exact, and D is divided out one factor at a time in units of 2**-P:
    with A >= 2 a step halves the error it is given and rounds by less
    than a unit, so each factor adds at most 2 units to every g_k (the
    fixed-point style of Brent & Zimmermann, *Modern Computer Arithmetic*).
    """
    if (2 * x0).denominator != 1:
        raise ValueError("the cutoff must be a half-integer")
    x2 = int(2 * x0)
    den = []
    for r, mult in rep.den_roots:
        a = x2 - int(2 * r)
        if a < 2:
            raise ValueError("tail cutoff does not clear the poles")
        den += [a] * mult
    euler = [int(e * 2 ** k) for k, e in enumerate(euler_numbers_at_zero(m))]
    scale = (abs(rep.scalar) * Fraction(2) ** rep.degree_gap
             * 2 * len(den) * sum(map(abs, euler)))
    p = max(0, _ceil_log2(scale / tolerance))
    num = [1]
    for r, mult in rep.num_roots:
        for _ in range(mult):
            num = mul_linear(num, x2 - int(2 * r), m)
    q = [c << p for c in num] + [0] * (m - len(num))
    for a in den:
        prev = 0
        for j in range(m):
            q[j] = prev = (q[j] - prev) // a
    total = sum(e * c for e, c in zip(euler, q) if e)
    unit = Fraction(2) ** (rep.degree_gap - p)
    return rep.scalar * total * unit, scale / 2 ** p


def _direct_sum(rep: LinearProductRep, shift: Fraction, start: int,
                stop: int) -> Fraction:
    """sum_{start <= nu < stop} (-1)**nu rep(nu + shift), exact, by binary
    splitting (Brent & Zimmermann, *Modern Computer Arithmetic*, 4.9.1)
    over the term ratio -p(nu)/q(nu), p and q the products of
    2(nu + shift - x) over the roots x of ``rep.step_ratio()``; T/Q is the
    sum on [lo, hi) over the term at lo.  A zero of q raises.
    """
    ups, downs = ([int(2 * (shift - x)) for x in roots]
                  for roots in rep.step_ratio())

    def split(lo, hi):
        if hi - lo == 1:
            if lo == start:
                return 1, 1, 1
            nu2 = 2 * (lo - 1)
            q = math.prod(nu2 + c for c in downs)
            if q == 0:
                raise ValueError(f"the term ratio has a pole at nu = {lo - 1}")
            p = -math.prod(nu2 + c for c in ups)
            return p, q, p
        mid = (lo + hi) // 2
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, q, t = split(start, stop)
    first = rep.evaluate(start + shift) * (-1) ** start
    return Fraction(first.numerator * t, first.denominator * q)


@dataclass(frozen=True)
class SeriesEvaluation:
    """One tail evaluation and the parameters it settled on."""

    value: BallReal
    direct_terms: int
    tail_order: int
    tail_bound: Fraction


def alternating_series_tail(rep: LinearProductRep, table: PartialFractionTable,
                            shift: Fraction, start: int, target: Fraction,
                            precision: int, *, params=None) -> SeriesEvaluation:
    """sum_{nu >= start} (-1)**nu f(nu) with f(nu) = rep(nu + shift).

    Exact partial sum to a cutoff by binary splitting, then Boole
    summation for the tail: the alternating tail equals
    (-1)**a/2 * sum_k E_k(0) s_k up to a remainder bounded by
    ``_tail_remainder_bound``; s_k are the Taylor coefficients of f at the
    cutoff, and ``params`` the search's (cutoff, order, bound) if known.
    The Boole sum's rounding is at most half that bound and the ball is
    formed with enough bits to keep its own rounding far below it, so the
    radius is at most twice the remainder bound.
    """
    a, m, bound = params or _choose_tail_parameters(table, shift, start, target)
    direct = _direct_sum(rep, shift, start, a)
    boole, error = _boole_sum(rep, a + shift, m, bound)
    total = direct + (boole if a % 2 == 0 else -boole) / 2
    with working_precision(max(precision, _ceil_log2(abs(total) / bound))):
        value = BallReal(total, radius=bound + error / 2)
    return SeriesEvaluation(value, a - start, m, bound)


def _magnitude(ball: BallReal) -> Fraction:
    """The larger endpoint magnitude: an upper bound on |x| over the ball."""
    return max(-ball.lower, ball.upper)


def r_n_series(profile: Profile, precision: int = 256,
               rep: LinearProductRep | None = None,
               table: PartialFractionTable | None = None, *,
               upper_bound: Fraction | float = math.inf) -> BallReal:
    """The linear-form value by direct series summation (independent of the
    decomposition), with rigorous radius.

    The rungs have target 2**-tbits, tbits = (precision + 16) * 2**k, at
    working precision tbits - 16; the first ball that excludes zero is
    returned, so the radius is at most twice its target.  A rung takes
    (cutoff, order, bound B) from the search resumed at the last order,
    and is skipped if B >= U, the least known bound on |r| (``upper_bound``,
    say from the decomposition, and each straddling ball), or if it repeats
    the last straddling (cutoff, order).  U only picks rungs, never the
    value: a skipped rung that would have decided leaves it to a smaller
    radius.  The tail order limit ends the descent.
    """
    rep = rep or build_profile_rep(profile)
    table = table or partial_fractions(rep)
    shift, start = profile.series_argument_shift, profile.series_start
    tbits, m, bound, last = precision + 16, 32, math.inf, None
    while True:
        target = Fraction(2) ** -tbits
        if bound > target:
            a, m, bound = _choose_tail_parameters(table, shift, start, target, m)
        if bound < upper_bound and (a, m) != last:
            ev = alternating_series_tail(rep, table, shift, start, target,
                                         tbits - 16, params=(a, m, bound))
            if not ev.value.contains_zero():
                break
            last = (a, m)
            upper_bound = min(upper_bound, _magnitude(ev.value))
        tbits *= 2
    return ev.value if profile.series_sign == 1 else -ev.value


# ---------------------------------------------------------------------------
# Consistency oracle
# ---------------------------------------------------------------------------

def decomposition_value(result: DecompositionResult, precision: int = 256) -> BallReal:
    """a_0 + sum a_i beta(i) as a ball, at precision adapted to the a_i sizes."""
    bits = max(max(abs(ai.numerator).bit_length(), ai.denominator.bit_length())
               for ai in result.a)
    p2 = 256 * math.ceil((precision + bits + 48) / 256)
    with working_precision(p2):
        total = BallReal(result.a[0])
        for i in result.beta_indices:
            ai = result.a[i]
            if ai:
                total = total + BallReal(ai) * beta_value(i, p2)
    return total


@dataclass(frozen=True)
class ConsistencyReport:
    profile: Profile
    series: BallReal
    decomposition: BallReal
    passed: bool
    gap_bits: int

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"{self.profile.label()}: series vs decomposition {verdict} "
                f"(gap {self.gap_bits} bits)")


def consistency_check(profile: Profile, precision: int = 256,
                      rep: LinearProductRep | None = None,
                      table: PartialFractionTable | None = None,
                      decomposition: DecompositionResult | None = None) -> ConsistencyReport:
    """Evaluate the linear form two independent ways and compare.

    Passes iff the two balls overlap; the gap counts the bits below 1 of
    the total discrepancy (midpoint distance plus both radii).
    """
    rep = rep or build_profile_rep(profile)
    table = table or partial_fractions(rep)
    dec = decomposition or beta_coefficients(table, profile)
    direct = decomposition_value(dec, precision)
    series = r_n_series(profile, precision, rep=rep, table=table,
                        upper_bound=math.inf if direct.contains_zero()
                        else _magnitude(direct))
    disc = abs(series.mid - direct.mid) + series.rad + direct.rad
    gap = (precision + 64) if disc <= 0 else -floor_log2(disc) - 1
    return ConsistencyReport(profile, series, direct,
                             series.overlaps(direct), gap)


# ---------------------------------------------------------------------------
# Monte Carlo integral
# ---------------------------------------------------------------------------

def mc_integral(profile: Profile, samples: int, seed: int) -> BallReal:
    """Monte Carlo estimate of the s-dimensional integral form (general family).

    Radius is three standard errors: statistical, not rigorous; never used
    in acceptance-critical arithmetic.  Deterministic for a fixed seed.
    """
    import numpy as np

    if samples <= 0:
        raise ValueError("samples must be positive")
    e0, e1, n = profile.eta[0], profile.eta[1], profile.n
    h0 = profile.h0
    pref = Fraction(4 ** (e0 * n) * math.factorial(h0),
                    math.factorial(e1 * n) ** 2
                    * math.factorial((e0 - 2 * e1) * n))
    x_exps = [float(ej * n) - 0.5 for ej in profile.eta[1:]]
    y_exps = [float((e0 - 2 * ej) * n) for ej in profile.eta[1:]]

    rng = np.random.default_rng(seed)
    chunk = 1 << 16
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        t = rng.random((size, profile.s))
        w = np.ones(size)
        for j in range(profile.s):
            w *= t[:, j] ** x_exps[j] * (1.0 - t[:, j]) ** y_exps[j]
        prod = t.prod(axis=1)
        f = w * (1.0 - prod) / (1.0 + prod) ** (h0 + 1)
        total += float(f.sum())
        total_sq += float((f * f).sum())
        done += size
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    sem = math.sqrt(var / samples)
    with working_precision(64):
        return BallReal(Fraction(mean) * pref, radius=Fraction(3 * sem) * pref)
