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
B = sum |c_ik| / X_k**i will do; ``_moment_bound`` bounds it from the rep
alone, by Cauchy's estimate.  The terms run in fixed point at scale 2**P
with an error bound known before the pass (``_term_ratios``), so P keeps
it at most target/4.  The series reads the rep only, never the
decomposition; ``r_n_series`` meets the radius 2**-(precision + 64)
min(1, |r|).
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
from .rationalfn import LinearProductRep, _layers, build_general
# Unused here: the benchmark traces beta_coefficients, build_section2,
# partial_fractions, divide_trunc and euler_numbers_at_zero in numerics.
from .decomposition import beta_coefficients
from .rationalfn import build_section2, partial_fractions
from .series import divide_trunc, euler_numbers_at_zero

# The series descent gives up below this target, 2**-65536: a ball that
# still straddles zero there says only that |r| is smaller.
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

def _cauchy_products(rep: LinearProductRep):
    """(|P|, order, U, V) for each pole P of ``rep`` of order >= 1, highest
    first (see ``_moment_bound``); a zero or improper rep, poles of both
    parities or one at t >= 0 raise ValueError.  From P + 2 to P a product
    changes only at the ends of the runs (``_layers``) of its part of c;
    V's factor at the grid position itself, |0| - 1, only flips its sign."""
    den = dict(rep.den_roots)
    if not rep.scalar or rep.degree_gap < 1 or len({q % 2 for q in den}) > 1:
        raise ValueError("need a nonzero proper rep, its poles of one parity")
    net, top, sides = Counter(dict(rep.num_roots)), max(den), []
    net.subtract(den)
    for pm in (1, -1):  # U's factors |P - R| + 1, then V's |P - R| - 1
        part = {r: pm * c for r, c in net.items() if pm * c > 0}
        sides.append([math.prod((abs(top - r) + pm) ** c
                                for r, c in part.items()), pm, _layers(part)])
    for p in range(top, min(den) - 1, -2):
        if net[p] < 0:
            if p >= 0:
                raise ValueError("the series must start right of every pole")
            yield -p, -net[p], sides[0][0], abs(sides[1][0])
        for side in sides:  # on to P - 2: R = hi + 2 enters, R = lo leaves
            x, pm, runs = side
            side[0] = (x * math.prod([abs(p - 2 - hi) + pm for _, hi in runs])
                       // math.prod([abs(p - lo) + pm for lo, _ in runs]))


@lru_cache(maxsize=16)
def _moment_bound(rep: LinearProductRep) -> tuple[int, int]:
    """(b, e) with B = sum |c_ik| / X_k**i <= b / 2**e, read off ``rep``.

    P and the roots R doubled, the circle |t - P/2| = 1/2 meets no pole but
    P, so |c_ik| <= 2**-i max |f| on it (Cauchy).  There |t - R/2| is at
    most (|P - R| + 1)/2 and at least (|P - R| - 1)/2, and P's own factors
    give 2**order: max |f| <= |scalar| 2**gap U/V, c(R) the numerator's
    multiplicity less the denominator's, U = prod (|P - R| + 1)**c(R) over
    c(R) > 0, V = prod (|P - R| - 1)**-c(R) over c(R) < 0, R != P.  With
    X = |P|/2, B <= |scalar| 2**gap sum_P U/V sum_{i <= order} |P|**-i: a
    ceiling division per pole, at the e that puts the top near 2**64."""
    terms = [(u * sum(y ** j for j in range(o)), v * y ** o)
             for y, o, u, v in _cauchy_products(rep)]
    e = 63 - max(u.bit_length() - v.bit_length() for u, v in terms)
    b = sum(-(-(u << max(e, 0)) // (v << max(-e, 0))) for u, v in terms)
    num, den = rep.scalar.as_integer_ratio()
    return -(-abs(num) * b // den), e - rep.degree_gap


@lru_cache(maxsize=16)
def _first_term(rep: LinearProductRep) -> Fraction:
    """f(0), an exact product over every root: once per rep, not per rung."""
    return rep.evaluate(0)


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
    b, e = _moment_bound(rep)
    n, d = _least_size(b, e, target)
    weights = list(_chebyshev_weights(n, d))
    ratios, error = _term_ratios(rep, weights)
    p = max(0, (4 * error * td).bit_length() - (tn * d).bit_length() + 1)
    total = _chebyshev_pass(_first_term(rep), ratios, weights, p)
    bound = Fraction(b, d << e) if e >= 0 else Fraction(b << -e, d)
    # log2 |sum / target|, from above
    bits = (abs(total).bit_length() - d.bit_length() - p
            + td.bit_length() - tn.bit_length() + 2)
    with working_precision(max(precision, bits + 8)):
        value = BallReal(Fraction(total, d << p),
                         radius=bound + Fraction(error, d << p))
    return SeriesEvaluation(value, n, 0, bound)


def r_n_series(rep: LinearProductRep, precision: int = 256, *,
               lower_bound: Fraction | None = None) -> BallReal:
    """sum_{nu >= 0} (-1)**nu rep(nu), summed from ``rep`` alone, as a ball
    of radius at most 2**-(precision + 64) min(1, |r|).

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
        return alternating_series_tail(rep, Fraction(1, 1 << tbits),
                                       precision).value

    def relative(least: Fraction) -> BallReal:
        return ball(precision + 64 + max(0, -floor_log2(least)))

    def meets(value: BallReal) -> bool:
        return (not value.contains_zero() and value.rad * 2 ** (precision + 64)
                <= min(1, abs(value).lower))

    value = relative(lower_bound) if lower_bound else None
    if value is None or not meets(value):
        tbits = precision + 16
        while (value := ball(tbits)).contains_zero():
            tbits *= 2
            if tbits > _MAX_SERIES_BITS:
                raise ArithmeticError("the series certifies no sign down to "
                                      f"2**-{_MAX_SERIES_BITS}")
        if not meets(value):
            value = relative(abs(value).lower)
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
                      rep: LinearProductRep,
                      precision: int = 256) -> ConsistencyReport:
    """Evaluate the linear form two independent ways, the certificate
    ``decomposition`` and the series of ``rep``, and compare.

    Passes iff the two balls overlap; the gap counts the bits below 1 of
    the total discrepancy (midpoint distance plus both radii).
    """
    direct = decomposition_value(decomposition, precision)
    series = r_n_series(rep, precision,
                        lower_bound=None if direct.contains_zero()
                        else abs(direct).lower)
    disc = abs(series.mid - direct.mid) + series.rad + direct.rad
    gap = (precision + 64) if disc <= 0 else -floor_log2(disc) - 1
    return ConsistencyReport(decomposition.profile, series, direct,
                             series.overlaps(direct), gap)
