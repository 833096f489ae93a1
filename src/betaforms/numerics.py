"""High-precision rigorous evaluation: the alternating beta values, the
linear-form series and the series-vs-decomposition consistency oracle.

Every value is a ball with an honest radius.
Both alternating sums use the Chebyshev acceleration of Cohen, Rodriguez
Villegas and Zagier (*Experimental Math.* 9, 2000): with d = T_N(3) and
the integer weights c_k of ``_chebyshev_weights``, sum c_k a_k / d misses
sum (-1)**k a_k by at most B/d when a_k = int_0^1 t**k w(t) dt and
B >= int_0^1 |w|, and ``_least_size`` finds the least N with
B/d <= target/2.  For beta(i), a_k = (2k + 1)**-i, B = 1 and the target is
2**-(precision + 7).  The indices one decomposition needs share one pass
(``_beta_enclosures``): floor(floor(a/b)/c) = floor(a/(bc)) for integers
b, c > 0, so dividing the last floor by (2k + 1)**(i' - i) gives each
next index's floor exactly, and a chain stops at 0 or -1, the fixed points
of floor division.  The series term a_j = f(j) =
sum c_ik (j + X_k)**-i over the pole table, X_k = k + pole_offset > 0
(k + 1/2 for every profile), is the moment of w(t) = sum c_ik t**(X_k - 1)
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
from fractions import Fraction
from functools import lru_cache

from ._records import frozen
from .balls import BallReal, floor_log2, working_precision
from .decomposition import DecompositionResult
from .profiles import Profile
from .rationalfn import LinearProductRep, PartialFractionTable, build_general
# Unused here: the benchmark traces numerics.beta_coefficients,
# numerics.build_section2, numerics.partial_fractions,
# numerics.divide_trunc and numerics.euler_numbers_at_zero by these names.
from .decomposition import beta_coefficients
from .rationalfn import build_section2, partial_fractions
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

def _moment_bound(table: PartialFractionTable) -> tuple[int, int]:
    """(b, e) with B = sum |c_ik| / X_k**i <= b / 2**e: one ceiling
    division per entry |c| 2**i / y**i, y = 2 X_k, at the scale e that
    puts the largest near 2**64 units by its exact floor(log2), so that
    (b, e) does not depend on how the entries are reduced.  No Fraction
    sums; a pole at t >= 0 raises."""
    x2, terms, powers = int(2 * table.pole_offset), [], table.lcm_powers
    for k, scale, cofactor, order, row in zip(
            table.pole_ks, table.scales, table.cofactors, table.orders,
            table.rows):
        y = x2 + 2 * k
        if y <= 0 and any(row):
            raise ValueError("the series must start right of every pole")
        # |c| 2**i / y**i = |scale row| / (cofactor L**(order - i) y**i)
        terms += [(abs(scale * c), cofactor * powers[order - i] * y ** i)
                  for i, c in enumerate(row[:order], 1) if c]
    # floor(log2(u/v)) is the bit-length gap g or g - 1
    gaps = [u.bit_length() - v.bit_length() for u, v in terms]
    top = max(gaps, default=-1)
    if terms and not any(g == top and (u >> g if g >= 0 else u << -g) >= v
                         for (u, v), g in zip(terms, gaps)):
        top -= 1
    e = 63 - top
    return sum(-(-(u << max(e, 0)) // (v << max(-e, 0))) for u, v in terms), e


def _term_ratios(rep: LinearProductRep,
                 weights: list[int]) -> tuple[list[tuple[int, int]], int]:
    """The ratios (u_j, v_j), v_j > 0, with a_{j+1} = a_j u_j / v_j for the
    terms a_j = rep(j), j < len(weights) - 1, and
    E >= sum |c_k| |A_k - a_k 2**p| for the floored terms A_k of
    ``_chebyshev_pass`` at every p.

    u and v are the products of 2 nu - X over the doubled roots X of
    ``rep.step_ratio()``; a zero of either, where the terms meet a root of
    f, raises.  A_0 errs by under 1, and floor(A_k u / v) by |u|/v times
    A_k's error plus under 1, so e_0 = 1 and e_{k+1} = ceil(e_k |u| / v)
    + 1 bound the errors, whatever p is.
    """
    ups, downs = ([-x for x in roots] for roots in rep.step_ratio())
    ratios, e, error = [], 1, abs(weights[0])
    for nu2, c in zip(range(0, 2 * len(weights), 2), weights[1:]):
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


@frozen
class SeriesEvaluation:
    """One series pass: its ball, the scheme's size N (``direct_terms``)
    and bound B/d (``tail_bound``).  No tail is summed apart, so
    ``tail_order`` is 0."""

    value: BallReal
    direct_terms: int
    tail_order: int
    tail_bound: Fraction


def alternating_series_tail(rep: LinearProductRep, table: PartialFractionTable,
                            target: Fraction,
                            precision: int) -> SeriesEvaluation:
    """sum_{nu >= 0} (-1)**nu rep(nu) as a ball of radius at
    most ``target``, by the scheme of the module docstring: N is the least
    size with B/d <= target/2, and P the least, to a bit, with fixed-point
    error E/(d 2**P) <= target/4.  The ball keeps at least ``precision``
    bits, and enough to round its midpoint far below the target.
    """
    tn, td = Fraction(target).as_integer_ratio()
    b, e = _moment_bound(table)
    n, d = _least_size(b, e, target)
    weights = list(_chebyshev_weights(n, d))
    ratios, error = _term_ratios(rep, weights)
    p = max(0, (4 * error * td).bit_length() - (tn * d).bit_length() + 1)
    total = _chebyshev_pass(rep.evaluate(0), ratios, weights, p)
    bound = Fraction(b, d << e) if e >= 0 else Fraction(b << -e, d)
    # log2 |sum / target|, from above
    bits = (abs(total).bit_length() - d.bit_length() - p
            + td.bit_length() - tn.bit_length() + 2)
    with working_precision(max(precision, bits + 8)):
        value = BallReal(Fraction(total, d << p),
                         radius=bound + Fraction(error, d << p))
    return SeriesEvaluation(value, n, 0, bound)


def _least_magnitude(ball: BallReal) -> Fraction:
    """The least |x| over a ball that excludes zero."""
    return min(abs(ball.lower), abs(ball.upper))


def r_n_series(rep: LinearProductRep, table: PartialFractionTable,
               precision: int = 256, *,
               lower_bound: Fraction | None = None) -> BallReal:
    """sum_{nu >= 0} (-1)**nu rep(nu) by direct series summation (the
    table, independent of the decomposition, enters only the radius), as a
    ball of radius at most 2**-(precision + 64) min(1, |r|).

    Rungs of target 2**-tbits, tbits = (precision + 16) 2**k, run until a
    ball excludes zero; unless it already meets the radius, one pass at
    2**-(precision + 64) min(1, L) follows, L the ball's least |x|.  A
    positive ``lower_bound`` on |r| known elsewhere (say from the
    decomposition) replaces the descent by that pass with L = lower_bound;
    it picks the target only, and a ball that misses the radius for its own
    least |x| falls back to the descent.  The descent gives up with
    ``ArithmeticError`` past a target of 2**-``_MAX_SERIES_BITS``.
    """
    def ball(tbits: int) -> BallReal:
        return alternating_series_tail(rep, table, Fraction(1, 1 << tbits),
                                       precision).value

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
    return value


# ---------------------------------------------------------------------------
# Consistency oracle
# ---------------------------------------------------------------------------

def decomposition_value(result: DecompositionResult, precision: int = 256) -> BallReal:
    """a_0 + sum a_i beta(i) as a ball, at precision adapted to the a_i sizes."""
    bits = max(max(abs(ai.numerator).bit_length(), ai.denominator.bit_length())
               for ai in result.a)
    p2 = 256 * math.ceil((precision + bits + 48) / 256)
    indices = [i for i in result.beta_indices if result.a[i]]
    # each ball as ``beta_value(i, p2)`` makes it, the row in one pass
    with working_precision(p2 + 16):
        betas = [BallReal(*e) for e in
                 (_beta_enclosures(indices, p2) if indices else [])]
    with working_precision(p2):
        total = BallReal(result.a[0])
        for i, beta in zip(indices, betas):
            total = total + BallReal(result.a[i]) * beta
    return total


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
                      rep: LinearProductRep, table: PartialFractionTable,
                      precision: int = 256) -> ConsistencyReport:
    """Evaluate the linear form two independent ways, the certificate
    ``decomposition`` and the series of ``rep``, and compare.

    Passes iff the two balls overlap; the gap counts the bits below 1 of
    the total discrepancy (midpoint distance plus both radii).
    """
    direct = decomposition_value(decomposition, precision)
    series = r_n_series(rep, table, precision,
                        lower_bound=None if direct.contains_zero()
                        else _least_magnitude(direct))
    disc = abs(series.mid - direct.mid) + series.rad + direct.rad
    gap = (precision + 64) if disc <= 0 else -floor_log2(disc) - 1
    return ConsistencyReport(decomposition.profile, series, direct,
                             series.overlaps(direct), gap)
