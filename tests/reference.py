"""Reference constructions and checks that only the tests use.

The package ships what ``betaforms run`` and the library calls need.  What
is here serves the tests as closed forms, identities and independent
estimates to hold the package to: a rep from rational roots, the paper's
section-2 function in its own coordinates, the remark-1 variant and its
denominator probe, the elementary binomial blocks, the top-coefficient
closed form, the reflection symmetry of a table, tables of reduced
Fractions and the full pole sweep that mirrored tables are held to, a
rep's scalar multiple and shift, the per-pole Cauchy products that the
series' moment bound slides, the hypergeometric parameters, pointwise
reconstruction of a table, the Fraction integrality kernel that the
exponent kernel is held to, the per-pole assembly and coefficient
inclusion check that the orbit-wise ones are held to, the paper's
six-term section-2 carry function that the basic family's carry tables
are held to, exact carry values, the carry table's breakpoint candidates
over the full crossing denominators, the Fraction inner sum, a Sturm root
count, ball membership, the ball pi, sqrt and cos and the ball-operation
digamma sum that the fixed-point pass is held to, Euler's gamma from
mpmath, the one-point digamma, a Monte Carlo estimate of the integral
form, and the argparse parser that the command table of ``cli`` is held
to."""

from __future__ import annotations

import argparse
import math
from fractions import Fraction

from mpmath import iv
from mpmath.libmp import to_rational

from betaforms import __version__, numtheory
from betaforms._records import frozen
from betaforms.asymptotics import _count, _integer_poly, _sturm_chain
from betaforms import balls
from betaforms.balls import (BallReal, _ball, _ceil_shift_div, _cos_sin_fixed,
                             _fixed_guard, _new, _pi, floor_log2,
                             working_precision)
from betaforms.cli import (_cmd_asymptotics, _cmd_beta, _cmd_phi_table,
                           _cmd_run, _cmd_validate)
from betaforms.decomposition import (ArithmeticFactors, DecompositionResult,
                                     InclusionReport, Violation, _assemble,
                                     _scaled, _violation)
from betaforms.numtheory import capital_phi, factorize, lcm_up_to, valuation
from betaforms.profiles import PRESETS, Profile, section2
from betaforms.rationalfn import (LinearProductRep, PartialFractionTable,
                                  _layers, partial_fractions)

_HALF = Fraction(1, 2)


@frozen
class FractionTable:
    """A partial-fraction table as reduced Fractions, ``rows[idx][i-1]``
    = a_{i, pole_ks[idx]}: what the reference expansions build, and what
    ``fraction_table`` reads a package table as."""

    s: int
    pole_ks: tuple[int, ...]
    pole_offset: Fraction
    rows: tuple[tuple[Fraction, ...], ...]

    def a(self, i: int, k: int) -> Fraction:
        return self.rows[self.pole_ks.index(k)][i - 1]

    def entries(self):
        for idx, k in enumerate(self.pole_ks):
            for i in range(1, self.s + 1):
                yield i, k, self.rows[idx][i - 1]


def fraction_table(table: PartialFractionTable) -> FractionTable:
    """The package table's entries, reduced."""
    return FractionTable(table.s, table.pole_ks, table.pole_offset, tuple(
        tuple(table.a(i, k) for i in range(1, table.s + 1))
        for k in table.pole_ks))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

def linear_product_rep(scalar, num_roots, den_roots) -> LinearProductRep:
    """The rep of (root, mult) pairs whose roots are rationals with
    denominator 1 or 2; equal roots merge."""
    def merge(pairs):
        acc: dict[int, int] = {}
        for r, m in pairs:
            r2 = 2 * Fraction(r)
            if r2.denominator != 1:
                raise ValueError(f"root {r} is not a half-integer")
            acc[r2.numerator] = acc.get(r2.numerator, 0) + m
        return tuple(sorted(acc.items()))
    return LinearProductRep(Fraction(scalar), merge(num_roots),
                            merge(den_roots))


def reconstruct(table, t) -> Fraction:
    """The table's partial-fraction sum at a non-pole rational t, exactly."""
    t = Fraction(t)
    return sum((c / (t + k + table.pole_offset) ** i
                for i, k, c in table.entries() if c), Fraction(0))


def scaled(rep: LinearProductRep, c) -> LinearProductRep:
    """The rep of c times the function."""
    return LinearProductRep(rep.scalar * Fraction(c), rep.num_roots,
                            rep.den_roots)


def shifted(rep: LinearProductRep, c) -> LinearProductRep:
    """The rep of t -> f(t + c), for a half-integer c."""
    c2 = 2 * Fraction(c)
    if c2.denominator != 1:
        raise ValueError(f"shift {c} is not a half-integer")
    c2 = c2.numerator
    return LinearProductRep(rep.scalar,
                            tuple((r - c2, m) for r, m in rep.num_roots),
                            tuple((r - c2, m) for r, m in rep.den_roots))


def cauchy_products(rep: LinearProductRep) -> list[tuple[int, int, int, int]]:
    """(|P|, order, U, V) for each pole P of order >= 1, the highest first,
    each product formed afresh over every root: with c(R) the numerator's
    multiplicity less the denominator's, U = prod (|P - R| + 1)**c(R) over
    c(R) > 0 and V = prod (|P - R| - 1)**-c(R) over c(R) < 0, R != P."""
    net = dict(rep.num_roots)
    for r, m in rep.den_roots:
        net[r] = net.get(r, 0) - m
    return [(-p, -net[p],
             math.prod((abs(p - r) + 1) ** c for r, c in net.items() if c > 0),
             math.prod((abs(p - r) - 1) ** -c for r, c in net.items()
                       if c < 0 and r != p))
            for p, _ in sorted(rep.den_roots, reverse=True) if net[p] < 0]


def _power_sums(sums: list[int], pole: int, weights, lcm: int) -> Fraction:
    """``sums[k] += w (lcm / (pole - R))**k`` for k >= 1 and every ``(R, w)``
    with ``R != pole``; returns ``prod (pole - R)**w`` over the same terms."""
    up = down = 1
    for r, w in weights:
        a = pole - r
        if a == 0 or w == 0:
            continue
        q = lcm // a
        power = w
        for k in range(1, len(sums)):
            power *= q
            sums[k] += power
        if w > 0:
            up *= a ** w
        else:
            down *= a ** -w
    return Fraction(up, down)


def full_sweep_partial_fractions(rep: LinearProductRep) -> FractionTable:
    """``rationalfn.partial_fractions`` as it was before the reflection
    check, in Fractions: every pole computed by the top-down sweep, none
    mirrored, over the lcm of every root distance.  A mirrored table
    satisfies the reflection identity by construction, so the symmetry
    tests hold the package's tables to this one.
    """
    degree_gap = rep.degree_gap
    if degree_gap < 1:
        raise ValueError("representation must be proper (gap >= 1)")
    offset = _HALF if any(r % 2 for r, _ in rep.den_roots) else Fraction(0)
    num, den = dict(rep.num_roots), dict(rep.den_roots)
    net = dict(num)
    for r, m in den.items():
        net[r] = net.get(r, 0) - m
    # c(R) - c(R + 2), the window's change from pole P + 2 to P at the term R
    steps: dict[int, int] = {}
    for side, c in ((num, 1), (den, -1)):
        for lo, hi in _layers(side):
            steps[lo - 2] = steps.get(lo - 2, 0) - c
            steps[hi] = steps.get(hi, 0) + c
    lcm = math.lcm(*range(1, max(net) - min(net) + 1))
    s = max(den.values())
    scales = [1]  # j! L**j
    for j in range(1, s):
        scales.append(scales[-1] * j * lcm)
    pole_ks = []
    rows = []
    prev = None
    for pole, mult in sorted(den.items(), reverse=True):
        k = -Fraction(pole, 2) - offset
        if k.denominator != 1:
            raise ValueError("pole grid mixes integer and half-integer roots")
        if prev is not None and pole == prev - 2:
            # P + 2 is a root, so each boundary term has |P - R| <= span
            scaled_g0 *= _power_sums(sums, pole, steps.items(), lcm)
        else:
            sums = [0] * s  # sums[k] = T_k for k = 1..s-1
            scaled_g0 = rep.scalar * _power_sums(sums, pole, net.items(), lcm)
        prev = pole
        z = num.get(pole, 0)
        h = [1] if z < mult else []
        for j in range(1, mult - z):
            acc = 0
            falling = 1  # (j-1)!/(j-i)!
            for i in range(1, j + 1):
                term = sums[i] * h[j - i] * falling
                acc += term if i % 2 else -term
                falling *= j - i
            h.append(acc)
        gap = degree_gap - mult
        coeffs = [Fraction(0)] * s
        for j, hj in enumerate(h):
            e = gap + j + z  # the power of 2; a negative one divides
            coeffs[mult - 1 - j - z] = Fraction(
                scaled_g0.numerator * hj << max(e, 0),
                scales[j] * scaled_g0.denominator << max(-e, 0))
        pole_ks.append(int(k))
        rows.append(tuple(coeffs))
    return FractionTable(s, tuple(pole_ks), offset, tuple(rows))


def paper_section2_rep(s: int, n: int) -> LinearProductRep:
    """The basic construction of section 2 as the paper writes it, odd
    s >= 3 and even n: the triple half-integer run over poles at the
    integers 0..-n, whose series starts at nu = n + 1 with terms at
    nu - 1/2.  ``build_section2`` is this function shifted by n + 1/2."""
    section2(s, n)  # parameter validation
    scalar = Fraction(2 ** (6 * n + 1) * math.factorial(n) ** (s - 3))
    num = [(Fraction(-n, 2), 1)]
    num += [(Fraction(2 * (n - j) + 1, 2), 1) for j in range(1, 3 * n + 1)]
    den = [(Fraction(-j), s) for j in range(n + 1)]
    return linear_product_rep(scalar, num, den)


def build_remark1(s: int, n: int) -> LinearProductRep:
    """The earlier variant with two half-integer runs of length n."""
    section2(s, n)
    scalar = Fraction(2 ** (4 * n + 1) * math.factorial(n) ** (s - 2))
    num = [(Fraction(-n, 2), 1)]
    num += [(Fraction(2 * (n - j) + 1, 2), 1) for j in range(1, n + 1)]
    num += [(Fraction(-2 * (n + j) + 1, 2), 1) for j in range(1, n + 1)]
    den = [(Fraction(-j), s) for j in range(n + 1)]
    return linear_product_rep(scalar, num, den)


def remark1_identity_check(s: int, n: int, t) -> bool:
    """Does the main function equal the variant times its completing factor at t?"""
    t = Fraction(t)
    main = paper_section2_rep(s, n).evaluate(t)
    variant = build_remark1(s, n).evaluate(t)
    extra = Fraction(2 ** (2 * n), math.factorial(n))
    for j in range(1, n + 1):
        extra *= t + j - _HALF
    return main == variant * extra


def symmetry_check(table, reflect_const: int) -> bool:
    """Check a_{i,k} == (-1)**i * a_{i, reflect_const - k} exactly, all i, k."""
    for i, k, c in table.entries():
        k_ref = reflect_const - k
        if k_ref not in table.pole_ks:
            if c != 0:
                return False
            continue
        mirrored = table.a(i, k_ref)
        if c != (mirrored if i % 2 == 0 else -mirrored):
            return False
    return True


def binomial_block_coefficients(kind: int, n: int) -> list[Fraction]:
    """Closed-form simple-pole coefficients of the four elementary quotients."""
    if n < 1:
        raise ValueError("n must be >= 1")
    C = math.comb
    if kind == 1:
        return [Fraction((-1) ** k * C(n, k)) for k in range(n + 1)]
    if kind == 2:
        return [Fraction((-1) ** (n + k) * C(2 * n + 2 * k, 2 * n) * C(2 * n, n + k))
                for k in range(n + 1)]
    if kind == 3:
        return [Fraction(C(2 * k, k) * C(2 * n - 2 * k, n - k)) for k in range(n + 1)]
    if kind == 4:
        return [Fraction((-1) ** k * C(4 * n - 2 * k, 2 * n) * C(2 * n, k))
                for k in range(n + 1)]
    raise ValueError("kind must be 1..4")


def binomial_block_product(kind: int, n: int) -> LinearProductRep:
    """The product form each closed-form coefficient list decomposes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    den = [(Fraction(-j), 1) for j in range(n + 1)]
    if kind == 1:
        return linear_product_rep(math.factorial(n), [], den)
    if kind == 2:
        num = [(Fraction(2 * (n - j) + 1, 2), 1) for j in range(1, n + 1)]
    elif kind == 3:
        num = [(Fraction(1 - 2 * j, 2), 1) for j in range(1, n + 1)]
    elif kind == 4:
        num = [(Fraction(-2 * (n + j) + 1, 2), 1) for j in range(1, n + 1)]
    else:
        raise ValueError("kind must be 1..4")
    return linear_product_rep(2 ** (2 * n), num, den)


def section2_top_coefficient(s: int, n: int, k: int) -> Fraction:
    """Closed form for the order-s coefficient at the pole t = -k of
    ``paper_section2_rep``, k = 0..n."""
    f = math.factorial
    num = f(2 * n + 2 * k) * f(4 * n - 2 * k)
    den = f(n + k) * f(2 * n - k) * f(k) ** 3 * f(n - k) ** 3
    return Fraction(num, den) * (n - 2 * k) * Fraction(math.comb(n, k)) ** (s - 3)


def hypergeometric_parameters(profile: Profile):
    """Upper/lower parameter lists and argument of the series form."""
    h0 = Fraction(profile.h0)
    h = (h0,) + tuple(ej * profile.n + _HALF for ej in profile.shape[1:])
    upper = (h0, 1 + h0 / 2) + tuple(h[1:])
    lower = (h0 / 2,) + tuple(1 + h0 - hj for hj in h[1:])
    return upper, lower, -1


# ---------------------------------------------------------------------------
# The Fraction integrality kernel
# ---------------------------------------------------------------------------

def _prime_deficits(denominator: int) -> tuple[tuple[int, int], ...]:
    out = {}
    d = denominator
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1 if p == 2 else 2
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return tuple(out.items())  # found in ascending order


def fraction_scaled(factors: ArithmeticFactors, pairs) -> list[Fraction]:
    """phi**-1 d**e v for each (e, v) pair, in Fractions: the package's
    integrality kernel as it was before it worked from exponents."""
    d, phi = factors.d.value(), factors.phi.value()
    scales = {e: Fraction(d) ** e / phi for e in {e for e, _ in pairs}}
    return [v * scales[e] for e, v in pairs]


def fraction_inclusion_report(factors: ArithmeticFactors,
                              entries) -> InclusionReport:
    """Check phi**-1 d**(s-i) v in Z for each (i, k, v) entry by
    ``fraction_scaled``, each violation's deficits by trial division of its
    denominator; zero entries count as checked and hold."""
    entries = list(entries)
    nonzero = [t for t in entries if t[2]]
    scaled = fraction_scaled(factors, [(factors.s - i, v)
                                       for i, _, v in nonzero])
    return InclusionReport(len(entries), tuple(
        Violation(i, k, v, _prime_deficits(v.denominator))
        for (i, k, _), v in zip(nonzero, scaled) if v.denominator != 1))


# ---------------------------------------------------------------------------
# Per-pole assembly and coefficient inclusions
# ---------------------------------------------------------------------------

def per_pole_tail_sum(i: int, terms) -> tuple[int, int]:
    """(u, D) with the sum of w * c_o over the pairs (o, w) equal to
    u / D**i, c_o as in ``decomposition._tail_coefficients``, D the lcm of
    the odd numbers up to 2 max|o| - 1 over the nonzero origins: the tail
    kernel as it was before the powers were shared between columns."""
    terms = [(o, w) for o, w in terms if o]
    if not terms:
        return 0, 1
    top = max(abs(o) for o, _ in terms)
    d = math.lcm(*range(1, 2 * top, 2))
    running = [0]
    for m in range(1, top + 1):
        u = (d // (2 * m - 1)) ** i
        running.append(running[-1] + u if m % 2 else running[-1] - u)
    flip = -1 if i % 2 else 1
    merged: dict[int, int] = {}  # origins o and -o share U_|o|
    for o, w in terms:
        merged[abs(o)] = merged.get(abs(o), 0) + (w if o > 0 else flip * w)
    return -sum(w * running[m] for m, w in merged.items()) * 2 ** i, d


def per_pole_assemble(table: PartialFractionTable, s: int,
                      origins) -> tuple[Fraction, ...]:
    """``decomposition._assemble`` as it was before it read the table's
    reflection: one product of weight and row per pole and column, and
    the tail sums per column."""
    a = [Fraction(0)] * (s + 1)
    top = max(table.orders)
    if not top:
        return tuple(a)
    powers = table.lcm_powers
    lcm = math.prod(p ** -v for p, v in zip(
        table.primes, map(min, zip(*table.valuations))) if v < 0)
    quotients = {c: lcm // c for c in set(table.cofactors)}
    weights = [(-scale if k % 2 else scale) * quotients[c]
               * powers[top - order]
               for k, scale, c, order in zip(table.pole_ks, table.scales,
                                             table.cofactors, table.orders)]
    tail_num = 0
    for i in range(1, top + 1):
        column = [w * row[i - 1] for w, row in zip(weights, table.rows)]
        a[i] = Fraction(sum(column), lcm * powers[top - i])
        u, d = per_pole_tail_sum(i, zip(origins, column))
        # u / (d**i lcm L**(top - i) 2**i), over the denominator at i = top
        tail_num += u * d ** (top - i) * powers[i - 1] << top - i
    a[0] = Fraction(tail_num, d ** top * lcm * powers[top - 1] << top)
    return tuple(a)


def per_pole_coefficient_inclusions(table: PartialFractionTable,
                                    factors: ArithmeticFactors
                                    ) -> InclusionReport:
    """``decomposition.verify_coefficient_inclusions`` as it was before it
    read the table's reflection: one ``_scaled`` call per pole."""
    known = set(table.primes)
    beyond = tuple(sorted({p for p, _ in factors.d.factors + factors.phi.factors
                           if p not in known}))
    primes = table.primes + beyond
    violations = []
    for idx, k in enumerate(table.pole_ks):
        scale, order, row = (table.scales[idx], table.orders[idx],
                             table.rows[idx])
        exps = table.valuations[idx]
        if beyond:
            exps += tuple(valuation(scale, p) for p in beyond)
        items = [(factors.s - i, order - i, i, row[i - 1])
                 for i in range(1, order + 1) if row[i - 1]]
        for (e, _, _, _), deficits in zip(items, _scaled(
                factors, primes, exps, table.lcm, items)):
            if deficits:
                i = factors.s - e
                violations.append(_violation(
                    factors, i, k, table.a(i, k), e, deficits))
    return InclusionReport(len(table.pole_ks) * table.s, tuple(violations))


# ---------------------------------------------------------------------------
# Carry functions
# ---------------------------------------------------------------------------

# The paper's section-2 carry function in its own coordinates, as the
# (sign, a, e) of sum sign * floor(a x + e y); the package takes the basic
# family's carry minimum from the general sum at shape (3, 1, ..., 1).
SIX_TERMS = ((1, 2, 2), (1, 4, -2), (-1, 1, 1), (-1, 2, -1),
             (-3, 0, 1), (-3, 1, -1))


def floor_sum(terms, x, y) -> int:
    """sum sign * floor(a x + e y) over (sign, a, e) terms, exactly."""
    x, y = Fraction(x), Fraction(y)
    return sum(sign * math.floor(a * x + e * y) for sign, a, e in terms)


def carry_value(eta, x, y) -> int:
    """The package's carry function at shape eta, exactly at (x, y)."""
    return floor_sum(numtheory._terms(eta), x, y)


def full_breakpoint_candidates(terms) -> list[tuple[int, int]]:
    """``numtheory._breakpoint_candidates`` as it was before the crossings
    were taken from (g/D)Z: (1/D)Z for D = |a1 e2 - a2 e1| over pairs of
    sloped terms, and (1/|a|)Z for the y-free terms."""
    sloped = {(a, e) for _, a, e in terms if e}
    dens = {abs(a) for _, a, e in terms if not e and a}
    dens |= {abs(a1 * e2 - a2 * e1) for a1, e1 in sloped for a2, e2 in sloped}
    dens.discard(0)
    dens = {d for top in dens for d in range(2, top + 1) if top % d == 0}
    shift = 2 * max(dens, default=1).bit_length()
    return [(0, 1)] + [(j, d) for _, j, d in sorted(
        ((j << shift) // d, j, d) for d in dens for j in range(1, d)
        if math.gcd(j, d) == 1)]


# ---------------------------------------------------------------------------
# Inner sums
# ---------------------------------------------------------------------------

def decomposition(profile: Profile, a) -> DecompositionResult:
    """A ``DecompositionResult`` of arbitrary coefficients, each denominator
    factored by trial division."""
    a = tuple(a)
    return DecompositionResult(profile, a, tuple(
        tuple(sorted(factorize(x.denominator).items())) for x in a))


def inner_sum(i: int, start: int, stop: int) -> Fraction:
    """sum_{l=start}^{stop} (-1)**l / (l + 1/2)**i, exact; empty gives 0."""
    if i < 1:
        raise ValueError("order i must be >= 1")
    total = Fraction(0)
    for ell in range(start, stop + 1):
        term = 1 / (ell + _HALF) ** i
        total += term if ell % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# The earlier-variant denominator probe
# ---------------------------------------------------------------------------

@frozen
class Remark1Report:
    s: int
    n: int
    a0: Fraction
    d_n_clears: bool
    d_2n_clears: bool
    smallest_clearing_index: int | None

    def __str__(self):
        return (f"variant a_0 for (s={self.s}, n={self.n}): d_n^s clears: "
                f"{self.d_n_clears}; d_2n^s clears: {self.d_2n_clears}")


def remark1_denominator_probe(s: int, n: int) -> Remark1Report:
    """Decompose the earlier variant and test which lcm power clears a_0.

    The variant's series starts at index 1, so each pole's inner-sum origin
    is the pole index itself; the constant term then needs odd denominators
    up to 2n-1, hence the d_2n power.
    """
    profile = section2(s, n)
    table = partial_fractions(build_remark1(s, n))
    a0 = _assemble(table, s, table.pole_ks)[0]
    phi = capital_phi(profile)

    def clears(index: int) -> bool:
        factors = ArithmeticFactors(lcm_up_to(index), phi, s)
        return fraction_inclusion_report(factors, [(0, None, a0)]).ok

    dn = clears(n)
    d2n = clears(2 * n)
    smallest = n if dn else (2 * n if d2n else None)
    return Remark1Report(s, n, a0, dn, d2n, smallest)


# ---------------------------------------------------------------------------
# Roots and digamma
# ---------------------------------------------------------------------------

def contains(ball: BallReal, q) -> bool:
    """Exact membership of the rational q in the ball."""
    return ball.lower <= q <= ball.upper


def ball_pi() -> BallReal:
    """pi at the working precision, from the fixed-point Machin kernel."""
    wp = balls._prec + _fixed_guard()
    return _ball(*_pi(wp), -wp)


def ball_sqrt(x: BallReal) -> BallReal:
    """sqrt x for a ball with lower end >= 0 (after clipping at 0).

    M = m 2**j with e - j even, so sqrt c = sqrt(M) 2**((e-j)/2)
    exactly, and sqrt(M) lies in [S, S + 1) for S = isqrt(M).  Every x
    in the ball has |sqrt x - sqrt c| <= |x - c| / (2 sqrt lower), and
    sqrt lower >= isqrt((m - r) 2**j) 2**((e-j)/2).  A ball that
    reaches 0 gives [0, sqrt upper].
    """
    m, r, e = x.m, x.r, x.e
    if m + r < 0:
        raise ValueError("sqrt of a negative ball")
    if m + r == 0:
        return _new(0, 0, 0)
    if m - r <= 0:
        return BallReal.from_interval(0, ball_sqrt(_new(m + r, 0, e)))
    wp = max(balls._prec, m.bit_length()) + _fixed_guard()
    j = 2 * wp - m.bit_length()
    j += (e - j) & 1
    s = math.isqrt(m << j)
    widen = _ceil_shift_div(r, j, 2 * math.isqrt((m - r) << j))
    # in half units: midpoint S + 1/2, radius 1/2 + widen
    return _ball(2 * s + 1, 1 + 2 * widen, (e - j) // 2 - 1)


def ball_cos(x: BallReal) -> BallReal:
    """cos x.

    c' = floor(c 2**wp) 2**-wp is within d 2**-wp of the midpoint c (d = 1
    if the floor dropped bits, else 0).  With P the fixed pi/2,
    n = round(c' / (pi/2)) and S = c' 2**wp - n P, |S| 2**-wp <= pi/4 +
    tiny, and cos evaluates at the point n pi/2 + S 2**-wp, within
    |n| err(P) 2**-wp of c'; there cos = cos s, -sin s, -cos s, sin s for
    n = 0, 1, 2, 3 mod 4.  |cos'| <= 1, so the radius widens by
    r 2**e + (d + |n| err(P)) 2**-wp.
    """
    m, r, e = x.m, x.r, x.e
    wp = balls._prec + _fixed_guard() + max(0, m.bit_length() + e)
    if e + wp >= 0:
        c, d = m << (e + wp), 0
    else:
        c = m >> -(e + wp)
        d = int(c << -(e + wp) != m)
    half_pi, pi_err = _pi(wp - 1)
    n = (2 * c + half_pi) // (2 * half_pi)
    s = c - n * half_pi
    quadrant = n % 4
    value, err = _cos_sin_fixed(s, wp, quadrant % 2)
    if quadrant in (1, 2):
        value = -value
    widen = _ceil_shift_div(r, e + wp, 1) + d + abs(n) * pi_err
    return _ball(value, err + widen, -wp)


def digamma_sum(weights: dict[Fraction, int], precision: int,
                exact: Fraction) -> BallReal:
    """``balls.digamma_sum`` as a pass of ball operations: the same
    Gauss sums, each cosine a ``ball_cos``, each cot a ``ball_sqrt`` of
    (1 + c_k)/(1 - c_k), and the weights on each summed as integers first,
    at guard bits that cover the weights and the cancellation in
    1 - c_1 ~ (2 pi/b)**2."""
    if sum(weights.values()):
        raise ValueError("digamma weights must sum to 0")
    rows: dict[int, dict[int, int]] = {}
    for x, w in weights.items():
        k = math.floor(x)
        f = x - k
        exact += w * sum(1 / (f + j) for j in range(k) if f + j)
        if f:
            row = rows.setdefault(f.denominator, {})
            row[f.numerator] = row.get(f.numerator, 0) + w
    guard = (16 + 2 * max(rows, default=1).bit_length()
             + sum(map(abs, weights.values())).bit_length())
    with working_precision(precision + guard):
        pi = ball_pi()
        total = BallReal(exact)
        for b, row in rows.items():
            c = [None] + [ball_cos(pi * Fraction(2 * j, b))
                          for j in range(1, (b + 1) // 2)]
            total -= sum(row.values()) * BallReal(2 * b).log()
            for m in range(1, len(c)):
                total += _merged_sum(c.__getitem__, (
                    (min(m * a % b, -m * a % b), w) for a, w in row.items())
                ) * ((1 - c[m]) / 2).log()
            total -= pi / 2 * _merged_sum(
                lambda k: ball_sqrt((1 + c[k]) / (1 - c[k])),
                ((min(a, b - a), w if 2 * a < b else -w)
                 for a, w in row.items() if 2 * a != b))
        return total


def _merged_sum(value, pairs) -> BallReal:
    """sum w value(j) over (j, w) pairs, the w of equal j added first."""
    merged: dict[int, int] = {}
    for j, w in pairs:
        merged[j] = merged.get(j, 0) + w
    return sum((w * value(j) for j, w in merged.items() if w), BallReal(0))


def count_roots(p: list[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi); neither end may be one."""
    return _count(_sturm_chain(_integer_poly(p)), lo, hi)


def euler_gamma(bits: int) -> BallReal:
    """Euler's gamma enclosed by ``mpmath.iv`` at ``bits``, its ends
    converted to Fractions exactly; the ball rounds them outward at the
    working precision."""
    old, iv.prec = iv.prec, bits
    try:
        lo, hi = (Fraction(*to_rational(raw)) for raw in iv.euler._mpi_)
    finally:
        iv.prec = old
    return BallReal.from_interval(lo, hi)


def _digamma_pass(x: Fraction, precision: int) -> BallReal:
    """psi(x) = (psi(x) - psi(1)) + psi(1): the zero-sum two-point
    ``balls.digamma_sum``, looked up at each call, and psi(1) = -gamma."""
    weights = {x: 1}
    weights[Fraction(1)] = weights.get(Fraction(1), 0) - 1
    total = balls.digamma_sum(weights, precision, Fraction(0))
    with working_precision(precision + 32):
        return total - euler_gamma(precision + 64)


def digamma_rational(p: int, q: int, precision: int = 256) -> BallReal:
    """psi(p/q) for p, q > 0 with relative radius <= 2**(1-precision), by
    ``_digamma_pass``.  Near the zero of psi a first ball that misses it
    bounds |psi| below, and a second pass adds the bits it lacks.
    """
    if q == 0:
        raise ZeroDivisionError("digamma_rational: q must be nonzero")
    x = Fraction(p, q)
    if x <= 0:
        raise ValueError("argument must be positive")
    tol = Fraction(2) ** (1 - precision)
    val = _digamma_pass(x, precision)
    if val.rad > tol * abs(val.mid) and not val.contains_zero():
        least = min(abs(val.lower), abs(val.upper))
        val = _digamma_pass(x, precision + 1 - floor_log2(least))
    if val.rad <= tol * abs(val.mid) or (
            val.rad <= Fraction(2) ** (-precision) and val.contains_zero()):
        return val
    raise ArithmeticError("digamma_rational failed to reach target radius")


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


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli`` read its command line with before
    the command table: the parity reference of ``cli._parse_args``."""
    parser = argparse.ArgumentParser(
        prog="betaforms",
        description="Exact linear forms in even beta values: construction, "
                    "verification, and asymptotic certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, profile=True, precision=True):
        if profile:
            p.add_argument("--profile", required=True,
                           help="profile JSON path or preset name "
                                f"({', '.join(sorted(PRESETS))})")
            p.add_argument("--n", nargs="+", type=int,
                           help="override the profile's n list")
        if precision:
            p.add_argument("--precision", type=int,
                           help="working precision, bits")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("validate", help="check profile conditions")
    p.add_argument("--profile", required=True)
    p.add_argument("--n", nargs="+", type=int)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "run", help="full verification run + report; exit 0 means every "
                    "check ran and decided, and asymptotics.verdict says "
                    "whether the criterion holds")
    add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("asymptotics", help="exponent ledger only")
    add_common(p)
    p.set_defaults(func=_cmd_asymptotics)

    # the table and the factors are exact: no precision to set
    p = sub.add_parser("phi-table", help="carry-minimum table and factors")
    add_common(p, precision=False)
    p.set_defaults(func=_cmd_phi_table)

    p = sub.add_parser("beta", help="one beta value as a ball")
    p.add_argument("--index", "--n", dest="index", type=int, required=True)
    add_common(p, profile=False)
    p.set_defaults(func=_cmd_beta)
    return parser
