"""High-precision rigorous evaluation: the alternating beta values, the
linear-form series, the series-vs-decomposition consistency oracle, and a
Monte Carlo estimate of the multidimensional integral form.

Everything except the Monte Carlo routine returns balls with honest radii.
Both alternating sums use the Chebyshev acceleration of Cohen, Rodriguez
Villegas and Zagier (*Experimental Math.* 9, 2000): with d = T_N(3) and
the integer weights c_k of ``_chebyshev_weights``, sum c_k a_k / d misses
sum (-1)**k a_k by at most B/d when a_k = int_0^1 t**k w(t) dt and
B >= int_0^1 |w|, and ``_least_size`` finds the least N with
B/d <= target/2.  For beta(i), a_k = (2k + 1)**-i, B = 1 and the target is
2**-(precision + 7).  The series term a_j = f(start + shift + j) =
sum c_ik (j + X_k)**-i over the pole table, X_k = start + shift + k +
pole_offset > 0, is the moment of w(t) = sum c_ik t**(X_k - 1)
(-log t)**(i - 1) / (i - 1)!, so B = sum |c_ik| / X_k**i
(``_moment_bound``).  The terms run in fixed point at scale 2**P, each the
last times the integer step ratio, floored; each floor's error is carried
as an integer bound that does not depend on P, so the whole fixed-point
error is known before the pass and P is chosen to keep it at most
target/4.  The table enters only B, the radius, so the series value stays
independent of the decomposition.  ``r_n_series`` meets the radius
2**-(precision + 64) min(1, |r|).
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
# Unused here: the benchmark traces numerics.divide_trunc and
# numerics.euler_numbers_at_zero by these names.
from .series import divide_trunc, euler_numbers_at_zero

# The series descent gives up below this target, 2**-65536: a ball that
# still straddles zero there says only that |r| is smaller.
_MAX_SERIES_BITS = 1 << 16


def _least_size(b: int, e: int, target: Fraction) -> tuple[int, int]:
    """The least size n, and d = T_n(3), with B/d <= target/2 for
    B = b / 2**e."""
    tn, td = target.as_integer_ratio()
    scale, bound = tn << max(e, 0), (2 * b * td) << max(-e, 0)
    n, a, d = 1, 1, 3  # T_0(3), T_1(3): up to the least n that meets B
    while d * scale < bound:
        n, a, d = n + 1, d, 6 * d - a
    return n, d


def _chebyshev_weights(n: int, d: int):
    """The integer weights c_0..c_{n-1} of the scheme of size n, with
    d = T_n(3): sum c_k a_k / d approximates sum (-1)**k a_k."""
    b, c = -1, -d
    for k in range(n):
        c = b - c
        yield c
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))  # exact


@lru_cache(maxsize=None)
def beta_value(i: int, precision: int = 256) -> BallReal:
    """The alternating sum of odd reciprocal i-th powers, radius <= 2**(1-precision)."""
    if i < 1:
        raise ValueError("beta index must be >= 1")
    with working_precision(precision + 16):
        return BallReal(*_beta_enclosure(i, precision))


def _beta_enclosure(i: int, precision: int) -> tuple[Fraction, Fraction]:
    """Exact (mid, radius) of the ball ``beta_value`` returns."""
    n, d = _least_size(1, 0, Fraction(1, 1 << (precision + 7)))
    # s in units of 2**-p: each floor loses under a unit, so s/2**p <= sum
    # c_k/(2k+1)**i < (s + n)/2**p, and n/2**(p+1) < 2**-(precision+17)
    p = precision + 16 + n.bit_length()
    s = 0
    for k, c in enumerate(_chebyshev_weights(n, d)):
        if i * ((2 * k + 1).bit_length() - 1) >= abs(c).bit_length() + p:
            # (2k+1)**i > |c| 2**p, so the floor is 0 or -1: skip the power
            s -= c < 0
        else:
            s += (c << p) // (2 * k + 1) ** i
    # moment-sequence error bound: |S - sum/d| <= S/d < 1/d
    return (Fraction(2 * s + n, d << (p + 1)),
            Fraction((1 << (p + 1)) + n, d << (p + 1)))


def build_profile_rep(profile: Profile) -> LinearProductRep:
    if profile.is_section2:
        return build_section2(profile.s, profile.n)
    return build_general(profile)


# ---------------------------------------------------------------------------
# Linear-form series
# ---------------------------------------------------------------------------

def _moment_bound(table: PartialFractionTable, x0: Fraction) -> tuple[int, int]:
    """(b, e) with B = sum |c_ik| / (x0 + k)**i <= b / 2**e: one ceiling
    division per entry |c| 2**i / y**i, y = 2(x0 + k), at the scale e that
    puts the largest near 2**64 units by bit lengths.  No Fraction sums;
    a pole at or right of x0 raises."""
    x2, terms = int(2 * x0), []
    for row, k in zip(table.rows, table.pole_ks):
        y = x2 + 2 * k
        if y <= 0 and any(row):
            raise ValueError("the series must start right of every pole")
        terms += [(abs(c.numerator) << i, c.denominator * y ** i)
                  for i, c in enumerate(row, 1) if c]
    e = 64 - max((u.bit_length() - v.bit_length() for u, v in terms),
                 default=0)
    return sum(-(-(u << max(e, 0)) // (v << max(-e, 0))) for u, v in terms), e


def _term_ratios(rep: LinearProductRep, shift: Fraction, start: int,
                 weights: list[int]) -> tuple[list[tuple[int, int]], int]:
    """The ratios (u_j, v_j), v_j > 0, with a_{j+1} = a_j u_j / v_j for the
    terms a_j = rep(start + j + shift), j < len(weights) - 1, and
    E >= sum |c_k| |A_k - a_k 2**p| for the floored terms A_k of
    ``_chebyshev_pass`` at every p.

    u and v are the products of 2(nu + shift - x) over the roots x of
    ``rep.step_ratio()``; a zero of either, where the terms meet a root of
    f, raises.  A_0 errs by under 1, and floor(A_k u / v) by |u|/v times
    A_k's error plus under 1, so e_0 = 1 and e_{k+1} = ceil(e_k |u| / v)
    + 1 bound the errors, whatever p is.
    """
    ups, downs = ([int(2 * (shift - x)) for x in roots]
                  for roots in rep.step_ratio())
    ratios, e, error = [], 1, abs(weights[0])
    for nu2, c in zip(range(2 * start, 2 * (start + len(weights)), 2),
                      weights[1:]):
        u = math.prod(nu2 + a for a in ups)
        v = math.prod(nu2 + a for a in downs)
        if not u or not v:
            raise ValueError(f"the series terms meet a root of f near "
                             f"nu = {nu2 // 2}")
        ratios.append((u, v) if v > 0 else (-u, -v))
        e = -(-e * abs(u) // abs(v)) + 1
        error += abs(c) * e
    return ratios, error


def _chebyshev_pass(first: Fraction, ratios: list[tuple[int, int]],
                    weights: list[int], p: int) -> int:
    """sum c_k A_k, the weighted sum in units of 2**-p, with
    A_0 = floor(first 2**p) and A_{k+1} = floor(A_k u_k / v_k)."""
    a = (first.numerator << p) // first.denominator
    total = weights[0] * a
    for (u, v), c in zip(ratios, weights[1:]):
        a = a * u // v
        total += c * a
    return total


@dataclass(frozen=True)
class SeriesEvaluation:
    """One series pass: its ball, the scheme's size N (``direct_terms``)
    and bound B/d (``tail_bound``).  No tail is summed apart, so
    ``tail_order`` is 0."""

    value: BallReal
    direct_terms: int
    tail_order: int
    tail_bound: Fraction


def alternating_series_tail(rep: LinearProductRep, table: PartialFractionTable,
                            shift: Fraction, start: int, target: Fraction,
                            precision: int) -> SeriesEvaluation:
    """sum_{nu >= start} (-1)**nu rep(nu + shift) as a ball of radius at
    most ``target``, by the scheme of the module docstring: N is the least
    size with B/d <= target/2, and P the least, to a bit, with fixed-point
    error E/(d 2**P) <= target/4.  The ball keeps at least ``precision``
    bits, and enough to round its midpoint far below the target.
    """
    tn, td = Fraction(target).as_integer_ratio()
    b, e = _moment_bound(table, start + shift + table.pole_offset)
    n, d = _least_size(b, e, target)
    weights = list(_chebyshev_weights(n, d))
    ratios, error = _term_ratios(rep, shift, start, weights)
    p = max(0, (4 * error * td).bit_length() - (tn * d).bit_length() + 1)
    total = _chebyshev_pass(rep.evaluate(start + shift), ratios, weights, p)
    bound = Fraction(b, d << e) if e >= 0 else Fraction(b << -e, d)
    # log2 |sum / target|, from above
    bits = (abs(total).bit_length() - d.bit_length() - p
            + td.bit_length() - tn.bit_length() + 2)
    with working_precision(max(precision, bits + 8)):
        value = BallReal(Fraction(-total if start % 2 else total, d << p),
                         radius=bound + Fraction(error, d << p))
    return SeriesEvaluation(value, n, 0, bound)


def _least_magnitude(ball: BallReal) -> Fraction:
    """The least |x| over a ball that excludes zero."""
    return min(abs(ball.lower), abs(ball.upper))


def r_n_series(profile: Profile, precision: int = 256,
               rep: LinearProductRep | None = None,
               table: PartialFractionTable | None = None, *,
               lower_bound: Fraction | None = None) -> BallReal:
    """The linear-form value by direct series summation (independent of the
    decomposition), as a ball of radius at most
    2**-(precision + 64) min(1, |r|).

    Rungs of target 2**-tbits, tbits = (precision + 16) 2**k, run until a
    ball excludes zero; unless it already meets the radius, one pass at
    2**-(precision + 64) min(1, L) follows, L the ball's least |x|.  A
    positive ``lower_bound`` on |r| known elsewhere (say from the
    decomposition) replaces the descent by that pass with L = lower_bound;
    it picks the target only, and a ball that misses the radius for its own
    least |x| falls back to the descent.  The descent gives up with
    ``ArithmeticError`` past a target of 2**-``_MAX_SERIES_BITS``.
    """
    rep = rep or build_profile_rep(profile)
    table = table or partial_fractions(rep)

    def ball(tbits: int) -> BallReal:
        return alternating_series_tail(
            rep, table, profile.series_argument_shift, profile.series_start,
            Fraction(1, 1 << tbits), precision).value

    def relative(least: Fraction) -> BallReal:
        return ball(precision + 64 + max(0, -floor_log2(least)))

    def meets(value: BallReal) -> bool:
        return (not value.contains_zero() and value.rad * 2 ** (precision + 64)
                <= min(1, _least_magnitude(value)))

    value = relative(lower_bound) if lower_bound else None
    if value is None or not meets(value):
        tbits = precision + 16
        while (value := ball(tbits)).contains_zero():
            tbits *= 2
            if tbits > _MAX_SERIES_BITS:
                raise ArithmeticError("the series certifies no sign down to "
                                      f"2**-{_MAX_SERIES_BITS}")
        if not meets(value):
            value = relative(_least_magnitude(value))
    return value if profile.series_sign == 1 else -value


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
                        lower_bound=None if direct.contains_zero()
                        else _least_magnitude(direct))
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
