"""Exponential growth and decay rates, and the irrationality-criterion ledger.

The decay rate of the linear forms reduces to maximizing a product over
the unit cube, which in turn reduces to the unique root of an explicit
integer polynomial in (0, 1).  Root isolation is exact and runs on
integer signs: a polynomial is scaled once to integer coefficients, each
sign is an integer Horner evaluation of q**deg p(a/q), and the Sturm
chain, a primitive pseudo-remainder sequence, certifies that the given
interval holds exactly one root.  Bisection keeps the bracket's ends as
integers over one power-of-2 denominator, and Newton steps jump along
bisection's own grid, checked by exact signs, so the refined bracket is
bisection's.  Only the final logarithms run in ball arithmetic.  The
verdict compares certified enclosures, never bare floats.

The growth rate of the cancellation factor is an integer-weighted sum of
digamma values at the breakpoints of the carry-minimum table, the
weights summing to 0 so that Euler's gamma cancels; ``balls.digamma_sum``
takes it by Gauss's digamma theorem in one fixed-point pass, each cosine
and logarithm once per reduced angle, under one integer error bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import numtheory
from ._records import frozen
from .balls import BallReal, digamma_sum, nstr, working_precision
from .profiles import Profile

# ---------------------------------------------------------------------------
# Root isolation on integer signs (coefficient lists, ascending powers)
# ---------------------------------------------------------------------------

def _integer_poly(p) -> list[int]:
    """p times the lcm of its denominators (> 0: the same signs), trimmed."""
    p = [Fraction(c) for c in p]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    scale = math.lcm(*(c.denominator for c in p))
    return [int(c * scale) for c in p]


def _sign_at(p: list[int], num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0, by Horner on den**deg p(num/den)."""
    acc, power = p[-1], 1
    for c in reversed(p[:-1]):
        power *= den
        acc = acc * num + c * power
    return (acc > 0) - (acc < 0)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm sequence p, p', -rem, ... as a primitive pseudo-remainder
    sequence; its steps scale by |lead| > 0, so each member is a positive
    multiple of the classical one and every sign sequence is the same."""
    chain = [p, [i * c for i, c in enumerate(p)][1:]] if len(p) > 1 else [p]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) >= len(b) and any(a):
            f = a[-1] * sign
            a = [lead * c for c in a[:-1]]
            for i, c in enumerate(b[:-1], len(a) + 1 - len(b)):
                a[i] -= f * c
            while a and a[-1] == 0:
                a.pop()
        if not a:
            break
        g = math.gcd(*a)
        chain.append([-c // g for c in a])
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = [s for p in chain if (s := _sign_at(p, *x.as_integer_ratio()))]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _count(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi) by the Sturm chain of
    ``chain[0]``; neither end may be one."""
    if not (_sign_at(chain[0], *lo.as_integer_ratio())
            and _sign_at(chain[0], *hi.as_integer_ratio())):
        raise ValueError("endpoint is a root; perturb the interval")
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def _newton_cell(p: list[int], a: int, w: int, den: int, jump: int) -> int:
    """The index j of the cell [a 2**jump + j w, a 2**jump + (j+1) w] over
    den 2**jump that one Newton step from the midpoint of [a, a + w] over
    den lands in, the step taken in fixed point finer than the cells; -1
    when the step fails or leaves the bracket."""
    f = (den << jump).bit_length() - w.bit_length() + 8
    x = ((2 * a + w) << f) // (2 * den)
    value, slope = p[-1] << f, 0
    for c in reversed(p[:-1]):
        slope = (slope * x >> f) + value
        value = (value * x >> f) + (c << f)
    if not slope:
        return -1
    x -= (value << f) // slope
    j = ((x * den - (a << f)) << jump) // (w << f)
    return j if 0 <= j < 1 << jump else -1


def _refine(p: list[int], lo: Fraction, hi: Fraction,
            width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink a bracket of ``p`` that holds exactly one root, neither end a
    root, below the given width, exactly, to the bracket bisection
    returns: the ends are integers over one denominator den 2**k, on the
    grid a + j (b - a) of bisection's k-th step.

    A step may instead jump ``jump`` levels at once to the cell that one
    Newton step from the midpoint lands in (``_newton_cell``).  The jump
    is taken only when the exact signs at both ends of that cell are those
    of the bracket's ends.  The one root is then inside the cell, not on
    its ends, and bisection's own path, which keeps the sign-change half
    that holds the root, passes through the same cell; a zero sign at a
    cell end is the root itself, where bisection stops too.  No jump goes
    past bisection's last level.  A taken jump doubles the next one; a
    refused one halves it (to no less than 2), and a bisection step
    follows.  A root of even multiplicity, with no sign change, raises.
    """
    den = lo.denominator * hi.denominator
    a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    sa, sb = _sign_at(p, a, den), _sign_at(p, b, den)
    if sa == sb:
        raise ValueError("interval is not a sign-change bracket")
    w, levels, jump = b - a, 0, 2  # w: the width in units of 1/den
    while w * width.denominator > (width.numerator * den) << levels:
        levels += 1
    while levels:
        step = min(jump, levels)
        j = _newton_cell(p, a, w, den, step)
        if j >= 0:
            a2, den2 = (a << step) + j * w, den << step
            s1, s2 = _sign_at(p, a2, den2), _sign_at(p, a2 + w, den2)
            if s1 == 0 or s2 == 0:
                root = Fraction(a2 if s1 == 0 else a2 + w, den2)
                return root, root
            if s1 == sa and s2 == sb:
                a, den, levels, jump = a2, den2, levels - step, 2 * jump
                continue
        jump = max(2, jump // 2)
        mid, a, den = 2 * a + w, 2 * a, 2 * den
        sm = _sign_at(p, mid, den)
        if sm == 0:
            return Fraction(mid, den), Fraction(mid, den)
        a, levels = mid if sm == sa else a, levels - 1
    return Fraction(a, den), Fraction(a + w, den)


class RootCertificationError(ArithmeticError):
    """A polynomial does not have exactly one zero where one is required."""


def isolate_root(p: list[Fraction], lo: Fraction, hi: Fraction,
                 width: Fraction) -> tuple[Fraction, Fraction]:
    """The bracket of the one root of ``p`` in (lo, hi), narrowed below
    ``width`` by ``_refine``.  Raises ``RootCertificationError`` unless
    the Sturm count there is exactly 1."""
    p = _integer_poly(p)
    count = _count(_sturm_chain(p), lo, hi)
    if count != 1:
        raise RootCertificationError("expected a unique zero in "
                                     f"({lo}, {hi}), Sturm count gives {count}")
    return _refine(p, lo, hi, width)


# ---------------------------------------------------------------------------
# The cube-maximum reduction
# ---------------------------------------------------------------------------

@frozen
class Lemma3Data:
    """Certified root data for the cube maximization.

    ``poly`` are exact integer coefficients (ascending); (x0_lo, x0_hi) is a
    refined isolating interval for the unique interior root; xj are the
    per-coordinate maximizers; log_max encloses the log of the maximum.
    """

    poly: tuple[Fraction, ...]
    x0_lo: Fraction
    x0_hi: Fraction
    xj: tuple[BallReal, ...]
    log_max: BallReal


def _maximizer_polynomial(eta) -> list[int]:
    """x prod (e0 - ej - ej x) - prod (ej - (e0 - ej) x), j = 1..s."""
    e0, left, right = eta[0], [0, 1], [1]
    for ej in eta[1:]:
        left = [(e0 - ej) * u - ej * v for u, v in zip(left + [0], [0] + left)]
        right = [ej * u - (e0 - ej) * v
                 for u, v in zip(right + [0], [0] + right)]
    return [u - v for u, v in zip(left, right + [0])]


def lemma3_solve(eta, precision: int = 256) -> Lemma3Data:
    """Certify and refine the unique root of the maximizer polynomial.

    Raises RootCertificationError when the root count in (0, 1) is not
    exactly one: the reduction's hypothesis would be violated and no value
    is guessed.
    """
    eta = tuple(int(e) for e in eta)
    e0 = eta[0]
    poly = _maximizer_polynomial(eta)
    lo, hi = isolate_root(poly, Fraction(0), Fraction(1),
                          Fraction(2) ** (-(precision + 8)))
    with working_precision(precision + 16):
        x0 = BallReal.from_interval(BallReal(lo), BallReal(hi))
        xj = []
        for ej in eta[1:]:
            xj.append((ej - (e0 - ej) * x0) / ((e0 - ej) - ej * x0))
        prod = BallReal(1)
        log_max = BallReal(0)
        for ej, x in zip(eta[1:], xj):
            if not (x.lower > 0 and x.upper < 1):
                raise RootCertificationError("coordinate maximizer left (0,1)")
            log_max = log_max + ej * x.log() + (e0 - 2 * ej) * (1 - x).log()
            prod = prod * x
        log_max = log_max - e0 * (1 + prod).log()
        return Lemma3Data(tuple(map(Fraction, poly)), lo, hi, tuple(xj),
                          log_max)


def _log_prefactor(eta) -> Fraction:
    """(4 eta0)^eta0 / (eta1^(2 eta1) (eta0-2 eta1)^(eta0-2 eta1)), exact."""
    e0, e1 = eta[0], eta[1]
    return Fraction((4 * e0) ** e0, e1 ** (2 * e1) * (e0 - 2 * e1) ** (e0 - 2 * e1))


def _r_exponent_eta(eta, precision: int) -> BallReal:
    data = lemma3_solve(eta, precision)
    with working_precision(precision + 16):
        return BallReal(_log_prefactor(eta)).log() + data.log_max


def _section2_onedim(s: int, precision: int) -> BallReal:
    """log(1728 * max t^s (1-t)^s / (1+t^s)^3) by exact critical-point isolation."""
    # stationarity of the log-objective clears to t^(s+1) - 2 t^s - 2 t + 1,
    # invariant under t -> 1/t with two sign changes: at most two positive
    # roots, t and 1/t, and p(0) = 1 > 0 > p(1) = -2, so one lies in (0, 1)
    poly = [1, -2] + [0] * (s - 2) + [-2, 1]
    lo, hi = isolate_root(poly, Fraction(0), Fraction(1),
                          Fraction(2) ** (-(precision + 8)))
    with working_precision(precision + 16):
        t = BallReal.from_interval(BallReal(lo), BallReal(hi))
        return (s * t.log() + s * (1 - t).log()
                - 3 * (1 + t ** s).log() + BallReal(1728).log())


def r_exponent(profile: Profile, precision: int = 256) -> BallReal:
    """lim (1/n) log of the linear form, as a certified enclosure.

    Both families go through the cube-maximum reduction at the profile's
    shape.  The basic family, shape (3, 1, ..., 1), is cross-checked
    against the one-dimensional form; disagreement is a hard failure.
    """
    value = _r_exponent_eta(profile.shape, precision)
    if profile.is_section2:
        one_dim = _section2_onedim(profile.s, precision)
        if not value.overlaps(one_dim):
            raise ArithmeticError(
                "cube-maximum route disagrees with the one-dimensional form")
    return value


# ---------------------------------------------------------------------------
# Exponential growth rate of the cancellation factor
# ---------------------------------------------------------------------------

def phi_exponent_from_table(table: numtheory.StepFunction, mu: Fraction,
                            precision: int = 256) -> BallReal:
    """lim (1/n) log of the factored product, from its exact value table.

    Standard prime-counting heuristic: with the table value c on [u, v),
    the primes p ~ n/x contribute c * [psi(1+v) - psi(1+u)] from each
    period window above 1, plus a clipped 1/x**2-integral term on the
    window [1/mu, 1) when the prime range extends above n (mu > 1).  The
    psi terms fold into one integer weight per point 1 + x, summing to 0;
    the clipped terms c (min(1/u, mu) - 1/v) into one integer over the lcm
    of mu's denominator and the breakpoints' numerators.
    """
    mu = Fraction(mu)
    points = table.breakpoints + (Fraction(1),)
    den = math.lcm(mu.denominator, *(x.numerator for x in points[1:]))
    inverse = [None] + [den // x.numerator * x.denominator for x in points[1:]]
    top = den // mu.denominator * mu.numerator
    clipped, weights, left = 0, {}, 0
    for i, c in enumerate(table.values + (0,)):
        if c != left:
            weights[1 + points[i]] = left - c
        if c and (part := min(inverse[i] or top, top) - inverse[i + 1]) > 0:
            clipped += c * part
        left = c
    return digamma_sum(weights, precision + 32, Fraction(clipped, den))


def phi_exponent(profile, precision: int = 256) -> BallReal:
    # looked up on the module, where perfbench's tracer patches it
    table = numtheory.carry_min_table(profile.shape)
    return phi_exponent_from_table(table, profile.mu, precision)


# ---------------------------------------------------------------------------
# The criterion ledger
# ---------------------------------------------------------------------------

@frozen
class ExponentLedger:
    """All exponential rates feeding the small-linear-forms criterion.

    total = s*mu - phi_exponent + r_exponent; the scaled integer forms tend
    to zero iff total < 0 with the whole enclosure below zero.
    """

    profile: Profile
    r_exponent: BallReal
    d_exponent: Fraction
    phi_exponent: BallReal
    total: BallReal

    @property
    def verdict(self) -> str:
        if self.total.strictly_negative():
            return "satisfied"
        if self.total.strictly_positive():
            return "fails"
        return "inconclusive"

    def __str__(self):
        return (f"{self.profile.label()}: total = {nstr(self.total.mid, 12)} "
                f"+- {nstr(self.total.rad, 3)} -> {self.verdict}")


def exponent_ledger(profile: Profile, precision: int = 256) -> ExponentLedger:
    r_exp = r_exponent(profile, precision)
    phi_exp = phi_exponent(profile, precision)
    d_exp = profile.s * profile.mu
    with working_precision(precision + 16):
        total = BallReal(d_exp) - phi_exp + r_exp
    return ExponentLedger(profile, r_exp, d_exp, phi_exp, total)
