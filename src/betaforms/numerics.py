"""High-precision rigorous evaluation: the alternating beta values, the
linear-form series and the series-vs-decomposition consistency oracle.

Every value is a ball with an honest radius.
Both alternating sums use the Chebyshev acceleration of Cohen, Rodriguez
Villegas and Zagier (*Experimental Math.* 9, 2000): with d = T_N(3) and
the integer weights c_k of ``_chebyshev_weights``, sum c_k a_k / d misses
sum (-1)**k a_k by at most B/d when a_k = int_0^1 t**k w(t) dt and
B >= int_0^1 |w|, and ``_least_size`` finds the least N with
B/d <= target/2.  For beta(i), a_k = (2k + 1)**-i, B = 1 and the target is
2**-(precision + 7); the indices one decomposition needs share one pass
(``_beta_enclosures``).  The series term a_j = f(j) = sum c_ik
(j + X_k)**-i, in partial fractions with every pole -X_k < 0, is the
moment of w(t) = sum c_ik t**(X_k - 1) (-log t)**(i - 1) / (i - 1)!, so
B = sum |c_ik| / X_k**i will do; the rep bounds it by Cauchy's estimate,
once, as it keeps its f(0) (``LinearProductRep.moment_bound`` and
``first_term``).  The terms run in fixed point at scale 2**P with an
error bound known before the pass (``_term_ratios``), so P keeps it at
most target/4.  The series reads the rep only, never the
decomposition.  One rule, ``_rung``, sizes both sides of the oracle from
a lower bound on |r|: the series from its first term |f(0)|, and the
decomposition from the series ball's least |x|.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from ._records import frozen
from .balls import BallReal, floor_log2, working_precision
from .decomposition import DecompositionResult
from .profiles import Profile
from .rationalfn import LinearProductRep, build_general
# Unused here: the benchmark traces beta_coefficients, build_section2,
# partial_fractions, divide_trunc and euler_numbers_at_zero in numerics.
from .decomposition import beta_coefficients
from .rationalfn import build_section2, partial_fractions
from .series import divide_trunc, euler_numbers_at_zero

# The descent doubles its target to 2**-65536 at most (its first rung has no
# cap): a ball that still straddles zero there says only that |r| is less.
_MAX_SERIES_BITS = 1 << 16


def _least_size(b: int, e: int, target: Fraction) -> tuple[int, int]:
    """The least n, and d = T_n(3), with B/d <= target/2, B = b / 2**e.
    As T_n(3) < 2**(2.544 n), the walk starts below that n, from T_(n-1)(3)
    and T_n(3) by T_2k = 2 T_k**2 - 1 and T_(2k+1) = 2 T_k T_(k+1) - 3."""
    tn, td = target.as_integer_ratio()
    scale, bound = tn << max(e, 0), (2 * b * td) << max(-e, 0)
    n = max(1, (bound.bit_length() - scale.bit_length() - 1) * 1000 // 2544)
    a, d = 1, 3  # T_0(3), T_1(3), then along the bits of n
    for bit in bin(n)[3:]:
        a, d = ((2 * d * d - 1, 2 * d * (6 * d - a) - 3) if bit == "1"
                else (2 * a * d - 3, 2 * d * d - 1))
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
        b = b * (2 * (k + n) * (k - n)) // ((2 * k + 1) * (k + 1))  # exact


@lru_cache(maxsize=None)
def beta_value(i: int, precision: int = 256) -> BallReal:
    """The alternating sum of odd reciprocal i-th powers, radius <= 2**(1-precision).

    One index alone; ``decomposition_value`` makes its whole row in one
    ``_beta_enclosures`` pass instead.
    """
    if i < 1:
        raise ValueError("beta index must be >= 1")
    with working_precision(precision + 16):
        return BallReal(*_beta_enclosures([i], precision)[0])


def _beta_enclosures(indices: list[int],
                     precision: int) -> list[tuple[Fraction, Fraction]]:
    """Exact (mid, radius) of the ball ``beta_value`` returns, for each of
    the ascending indices, in one pass.

    For integers b, c > 0, floor(floor(a/b)/c) = floor(a/(bc)), so the
    chain t = floor(c 2**p / (2k+1)**i_0), t //= (2k+1)**(i_(r+1) - i_r)
    gives every floor of every index exactly; the weights are made once.
    A power above |c| 2**p floors to 0 or -1, and 0 and -1 are fixed
    points of //, so a chain divides no more once it reaches either.
    """
    n, d = _least_size(1, 0, Fraction(1, 1 << (precision + 7)))
    # s in units of 2**-p: each floor loses under a unit, so s/2**p <= sum
    # c_k/(2k+1)**i < (s + n)/2**p, and n/2**(p+1) < 2**-(precision+17)
    p = precision + 16 + n.bit_length()
    first, gaps = indices[0], [j - i for i, j in zip(indices, indices[1:])]
    sums = [0] * len(indices)
    for k, c in enumerate(_chebyshev_weights(n, d)):
        m = 2 * k + 1
        if first * (m.bit_length() - 1) >= abs(c).bit_length() + p:
            # m**first > |c| 2**p: the floor is 0 or -1, no power formed
            t = -(c < 0)
        else:
            t = (c << p) // m ** first
        sums[0] += t
        for r, gap in enumerate(gaps, 1):
            if t not in (0, -1):
                t //= m ** gap
            sums[r] += t
    # moment-sequence error bound: |S - sum/d| <= S/d < 1/d
    return [(Fraction(2 * s + n, d << (p + 1)),
             Fraction((1 << (p + 1)) + n, d << (p + 1))) for s in sums]


def build_profile_rep(profile: Profile) -> LinearProductRep:
    return build_general(profile)


# ---------------------------------------------------------------------------
# Linear-form series
# ---------------------------------------------------------------------------

def _term_ratios(rep: LinearProductRep,
                 weights: list[int]) -> tuple[list[tuple[int, int]], int]:
    """The ratios (u_j, v_j), v_j > 0, with a_{j+1} = a_j u_j / v_j for the
    terms a_j = rep(j), j < len(weights) - 1, and
    E >= sum |c_k| |A_k - a_k 2**p| for the floored terms A_k of
    ``_chebyshev_pass`` at every p.

    u and v are the products of 2 nu - X over the doubled roots X of
    ``rep.step_ratio()``, a power per distinct X; a zero of either, where
    the terms meet a root of f, raises.  A_0 errs by under 1, and
    floor(A_k u / v) by |u|/v times A_k's error plus under 1, so e_0 = 1
    and e_{k+1} = ceil(e_k |u| / v) + 1 bound the errors, whatever p is.
    """
    ups, downs = (Counter(-x for x in xs).items() for xs in rep.step_ratio())
    ratios, e, error = [], 1, abs(weights[0])
    for nu2, c in zip(range(0, 2 * len(weights), 2), weights[1:]):
        u = math.prod([(nu2 + a) ** m for a, m in ups])
        v = math.prod([(nu2 + a) ** m for a, m in downs])
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


@frozen
class SeriesEvaluation:
    """One series pass: its ball, the scheme's size N (``direct_terms``),
    its bound B/d (``tail_bound``) and 0 (``tail_order``: no tail apart)."""

    value: BallReal
    direct_terms: int
    tail_order: int
    tail_bound: Fraction


def alternating_series_tail(rep: LinearProductRep, target: Fraction,
                            precision: int) -> SeriesEvaluation:
    """sum_{nu >= 0} (-1)**nu rep(nu) from ``rep`` alone, as a ball of
    radius at most ``target``, by the scheme of the module docstring: N is
    the least size with B/d <= target/2, and P the least, to a bit, with
    fixed-point error E/(d 2**P) <= target/4.  The ball keeps at least
    ``precision`` bits, and enough to round its midpoint far below it."""
    tn, td = Fraction(target).as_integer_ratio()
    b, e = rep.moment_bound
    n, d = _least_size(b, e, target)
    weights = list(_chebyshev_weights(n, d))
    ratios, error = _term_ratios(rep, weights)
    p = max(0, (4 * error * td).bit_length() - (tn * d).bit_length() + 1)
    total = _chebyshev_pass(rep.first_term, ratios, weights, p)
    bound = Fraction(b, d << e) if e >= 0 else Fraction(b << -e, d)
    # log2 |sum / target|, from above
    bits = (abs(total).bit_length() - d.bit_length() - p
            + td.bit_length() - tn.bit_length() + 2)
    with working_precision(max(precision, bits + 8)):
        value = BallReal(Fraction(total, d << p),
                         radius=bound + Fraction(error, d << p))
    return SeriesEvaluation(value, n, 0, bound)


def _rung(precision: int, least: Fraction) -> int:
    """The target bits for 2**-(precision + 64) min(1, |r|), |r| >= least."""
    return precision + 64 + max(0, -floor_log2(least))


def r_n_series(rep: LinearProductRep, precision: int = 256) -> BallReal:
    """sum_{nu >= 0} (-1)**nu rep(nu), summed from ``rep`` alone, as a ball
    of radius at most 2**-(precision + 64) min(1, |r|).

    The target bits start at the rung of |f(0)|, the first term, and
    double until a ball excludes zero, up to ``_MAX_SERIES_BITS`` (then
    ``ArithmeticError``); unless that ball meets the radius, one pass
    follows at the rung of its own least |x|.  f(0) picks targets only.
    """
    def ball(tbits: int) -> BallReal:
        return alternating_series_tail(rep, Fraction(1, 1 << tbits),
                                       precision).value

    # f(0) = 0 picks no rung; the pass then raises, naming the root
    tbits = _rung(precision, abs(rep.first_term) or 1)
    while (value := ball(tbits)).contains_zero():
        tbits *= 2
        if tbits > _MAX_SERIES_BITS:
            raise ArithmeticError("the series certifies no sign down to "
                                  f"2**-{_MAX_SERIES_BITS}")
    if value.rad * 2 ** (precision + 64) > min(1, abs(value).lower):
        value = ball(_rung(precision, abs(value).lower))
    return value


# ---------------------------------------------------------------------------
# Consistency oracle
# ---------------------------------------------------------------------------

def decomposition_value(result: DecompositionResult, tbits: int) -> BallReal:
    """a_0 + sum a_i beta(i), radius <= 2**-tbits, its beta row in one pass.
    With L = max(0, floor log2 max |a_i|), b = (m + 1).bit_length() for m
    beta terms and w = tbits + L + 2b, all runs at p = w + 32 bits, as
    ``working_precision(w + 16)`` adds GUARD_BITS = 16: an a_i ball errs by
    2**(L + 2 - p), a beta(i) < 1 by 2**-(w + 6), a product by under
    2**(L - w - 4) with its rounding; each of the m partial sums is under
    2**(L + 1 + b) and rounds by two units of 2**(L + 1 + b - p).  In all,
    2**(L + b - w - 4) + 2**(L + 2b - w - 30) < 2**-tbits."""
    indices = [i for i in result.beta_indices if result.a[i]]
    top = max(map(abs, result.a)) or 1
    w = tbits + max(0, floor_log2(top)) + 2 * (len(indices) + 1).bit_length()
    with working_precision(w + 16):  # as beta_value(i, w) makes each ball
        betas = indices and _beta_enclosures(indices, w)
        return sum((BallReal(result.a[i]) * BallReal(*e)
                    for i, e in zip(indices, betas)), BallReal(result.a[0]))


@frozen
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


def consistency_check(decomposition: DecompositionResult,
                      rep: LinearProductRep,
                      precision: int = 256) -> ConsistencyReport:
    """Evaluate the linear form two independent ways, the series of
    ``rep``, then the certificate ``decomposition`` 16 bits below the rung
    of the series ball's least |x|, so the series sets the gap.

    Passes iff the two balls overlap; the gap counts the bits below 1 of
    the total discrepancy (midpoint distance plus both radii).
    """
    series = r_n_series(rep, precision)
    direct = decomposition_value(
        decomposition, _rung(precision, abs(series).lower) + 16)
    disc = abs(series.mid - direct.mid) + series.rad + direct.rad
    gap = (precision + 64) if disc <= 0 else -floor_log2(disc) - 1
    return ConsistencyReport(decomposition.profile, series, direct,
                             series.overlaps(direct), gap)
