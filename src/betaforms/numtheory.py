"""Prime sieving, lcm sequences, floor-sum carry functions and their minima,
the prime-power cancellation factor, digamma at rationals, and the
exponential growth rate of the cancellation factor.

The cancellation factor runs over one prime window per profile: the
primes p <= d_index with p*p > phi_lower_sq, each with the exponent
phi(n/p) = min_y carry(n/p, y), taken pointwise by one sweep over y.
``_prime_window`` is its one copy; ``capital_phi`` takes the exact
product over it and ``phi_exponent_sieved`` the double-precision log.
Neither builds the carry-minimum table, which serves the growth rate.

The growth rate is an integer-weighted sum of digamma values at the
table's breakpoints, the weights summing to 0 so that Euler's gamma
cancels; ``_digamma_sum`` takes it by Gauss's digamma theorem in one
fixed-point pass on the kernels of ``balls``, each cosine and logarithm
once per reduced angle, under one integer error bound.

The carry functions are integer-valued sums of floors of linear forms in
(x, y), periodic with period 1 in both arguments.  Their minimum over y
is piecewise constant in x with rational breakpoints; the table of that
minimum drives the cancellation factor's asymptotic exponent.

Where the breakpoints can lie follows from the line arrangement.  A term
floor(a x + e y) with e != 0 jumps on the lines a x + e y in Z; the
lines a1 x + e1 y = m1 and a2 x + e2 y = m2 cross at
x = (e2 m1 - e1 m2)/D with D = |a1 e2 - a2 e1|, and e2 m1 - e1 m2 runs
over gZ with g = gcd(e1, e2), so only at x in (g/D)Z (parallel lines,
D = 0, never cross or coincide for all x); a y-free term floor(a x)
jumps only at x in (1/|a|)Z.  On an
open x-interval that avoids all of these, the jump points in y move
without passing one another, so the cyclic order of the cells in y and
the value on each cell stay fixed; min over y is then constant.  The
candidate set is therefore complete, and ``carry_min_table`` evaluates
each candidate and each gap between them exactly once.

The floor sum is linear in the signs, so the table is built from the
merged sum: terms with equal (a, e) become one term carrying the sum of
their signs, and a term whose signs cancel is identically 0, has no jump
lines and adds no candidates.  The merged sum is the same function, so
its table is the same step function.
"""

from __future__ import annotations

import bisect
import math
from itertools import starmap
from fractions import Fraction
from functools import lru_cache

from ._records import frozen
from .balls import (BallReal, _ball, _cos_sin_fixed, _log_fixed, _pi,
                    working_precision)


# ---------------------------------------------------------------------------
# Primes and lcm
# ---------------------------------------------------------------------------

def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start:limit + 1:p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, f in enumerate(flags) if f]


@frozen
class FactoredInteger:
    """A positive integer kept in factored form: sorted (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last or factorize(p) != {p: 1}:
                raise ValueError(f"factor keys must be increasing primes, got {p}")
            if e < 1:
                raise ValueError(f"exponent for {p} must be >= 1, got {e}")
            last = p

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "FactoredInteger":
        return cls(tuple(sorted((p, e) for p, e in d.items() if e != 0)))

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out

    __int__ = value

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def lcm_up_to(m: int) -> FactoredInteger:
    """d_m = lcm(1, 2, ..., m) as a product of maximal prime powers <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    factors = {}
    for p in sieve_primes(m):
        pe, e = p, 1
        while pe * p <= m:
            pe *= p
            e += 1
        factors[p] = e
    return FactoredInteger.from_dict(factors)


def valuation(m: int, p: int) -> int:
    """The exponent of the prime p in the integer m != 0: binary digits
    from the largest p**(2**k) dividing m down."""
    if not m:
        raise ValueError("0 has no valuation")
    powers = []
    q = p
    while m % q == 0:
        powers.append(q)
        q *= q
    v = 0
    for k in range(len(powers) - 1, -1, -1):
        q, r = divmod(m, powers[k])
        if not r:
            m, v = q, v + (1 << k)
    return v


def factorize(m: int) -> dict[int, int]:
    """The prime factorization of m >= 1 by trial division, ascending."""
    out = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = 1
    return out


# ---------------------------------------------------------------------------
# Carry functions
# ---------------------------------------------------------------------------

def eta_violations(eta) -> list[str]:
    """Violated shape conditions on eta = (eta_0, ..., eta_s): the one copy
    of the rules that ``CarrySpec`` and ``profiles.profile_violations`` apply."""
    bad = []
    e0, rest = eta[0], eta[1:]
    for j, ej in enumerate(rest, start=1):
        if ej <= 0:
            bad.append(f"eta_{j} must be positive, got {ej}")
        elif not 2 * ej < e0:
            bad.append(f"need eta_{j} < eta_0/2, got {ej} vs {e0}/2")
    if 2 * sum(rest) > (len(rest) - 1) * e0:
        bad.append("need sum(eta_j) <= (s-1) eta_0 / 2")
    return bad


@frozen
class CarrySpec:
    """Which floor-sum carry function to use.

    ``family`` is "section2" (fixed six-term sum) or "general" (built from
    the positive integer tuple eta = (eta_0, ..., eta_s)).
    """

    family: str
    eta: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.family == "section2":
            if self.eta is not None:
                raise ValueError("section2 carry takes no eta")
        elif self.family == "general":
            if self.eta is None or len(self.eta) < 3:
                raise ValueError("general carry needs eta = (eta_0, ..., eta_s)")
            bad = eta_violations(self.eta)
            if bad:
                raise ValueError("; ".join(bad))
        else:
            raise ValueError(f"unknown carry family {self.family!r}")

    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """The sum as (sign, x-coefficient, y-coefficient) floor terms."""
        if self.family == "section2":
            return (
                (1, 2, 2), (1, 4, -2),
                (-1, 1, 1), (-1, 2, -1),
                (-3, 0, 1), (-3, 1, -1),
            )
        e0 = self.eta[0]
        e1 = self.eta[1]
        terms = [
            (1, 2 * e0, -2), (1, 0, 2),
            (-1, e0, -1), (-1, 0, 1),
            (-2, e1, 0), (-1, e0 - 2 * e1, 0),
        ]
        for ej in self.eta[1:]:
            terms.append((1, e0 - 2 * ej, 0))
            terms.append((-1, -ej, 1))
            terms.append((-1, e0 - ej, -1))
        return tuple(terms)


def carry_value(spec: CarrySpec, x, y) -> int:
    """Exact value of the carry function at (x, y); both arguments mod 1."""
    x, y = Fraction(x), Fraction(y)
    total = 0
    for sign, ax, ey in spec.terms():
        total += sign * math.floor(ax * x + ey * y)
    return total


def _merged_terms(terms) -> tuple[tuple[int, int, int], ...]:
    """The floor terms with equal (a, e) merged by adding their signs; a
    term whose signs cancel is dropped."""
    merged: dict[tuple[int, int], int] = {}
    for sign, a, e in terms:
        merged[a, e] = merged.get((a, e), 0) + sign
    return tuple((sign, a, e) for (a, e), sign in merged.items() if sign)


def _sweep_plan(terms):
    """The constants of ``_min_over_y`` for a sum of floor terms, taken once
    per table: L = lcm |e|; the (sign, a) of the sum at y = 0, merged by a;
    and per term with e != 0 its spacing factor L/|e|, -(L/e) a, the parity
    of its keys and its delta."""
    lcm = math.lcm(*(abs(e) for _, _, e in terms if e))
    at_zero: dict[int, int] = {}
    for sign, a, _ in terms:
        at_zero[a] = at_zero.get(a, 0) + sign
    jumps = tuple((lcm // abs(e), -(lcm // e) * a, e < 0,
                   sign if e > 0 else -sign) for sign, a, e in terms if e)
    return (lcm, tuple((sign, a) for a, sign in at_zero.items() if sign and a),
            jumps)


def _min_over_y(plan, p: int, q: int) -> tuple[int, int]:
    """Minimum of the floor sum over y in [0, 1) at x = p/q in [0, 1), with
    q > 0 and p/q not necessarily reduced, and the key K of the first y =
    K / (2 L q) attaining it; ``plan`` is the sum's ``_sweep_plan``.

    With y = Y/(L q), a term (a, e) with e != 0 jumps at the integers Y =
    -(L/e) a p mod (L/|e|) q, |e| of them per period.  The sum is taken
    once at Y = 0; then, in increasing Y, a term with e > 0 adds its sign
    at the jump point itself (floor is right-continuous) and one with e < 0
    subtracts its sign just after it.  On the doubled grid K = 2Y (the
    point) and 2Y + 1 (the open interval after it) the running sum takes
    every value of the function, so its least value is the minimum.
    """
    lcm, at_zero, jumps = plan
    end = 2 * lcm * q
    total = 0
    for sign, a in at_zero:
        total += sign * (a * p // q)
    steps: dict[int, int] = {}
    for factor, coef, parity, delta in jumps:
        spacing = factor * q
        # a jump at the point Y = 0 is already in the sum at Y = 0
        for k in range(2 * (coef * p % spacing) + parity or 2 * spacing, end,
                       2 * spacing):
            steps[k] = steps.get(k, 0) + delta
    best, best_key = total, 0
    for k in sorted(steps):
        total += steps[k]
        if total < best:
            best, best_key = total, k
    return best, best_key


@frozen
class StepFunction:
    """Piecewise-constant integer function on [0, 1), canonical form.

    ``breakpoints[0] == 0``; ``values[r]`` holds on [breakpoints[r],
    breakpoints[r+1]) and the final value on [breakpoints[-1], 1).
    Adjacent pieces always carry distinct values.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ValueError("breakpoints and values must align")
        if self.breakpoints[0] != 0:
            raise ValueError("first breakpoint must be 0")
        for i in range(1, len(self.breakpoints)):
            if not 0 < self.breakpoints[i] < 1:
                raise ValueError("breakpoints must lie in [0, 1)")
            if self.breakpoints[i] <= self.breakpoints[i - 1]:
                raise ValueError("breakpoints must increase")
            if self.values[i] == self.values[i - 1]:
                raise ValueError("adjacent equal values must be merged")

    @classmethod
    def build(cls, breakpoints, values) -> "StepFunction":
        bs, vs = [], []
        for b, v in zip(breakpoints, values):
            if vs and v == vs[-1]:
                continue
            bs.append(Fraction(b))
            vs.append(int(v))
        return cls(tuple(bs), tuple(vs))

    def value_at(self, x) -> int:
        x = Fraction(x)
        x -= math.floor(x)
        idx = bisect.bisect_right(self.breakpoints, x) - 1
        return self.values[idx]

    def intervals(self) -> list[tuple[Fraction, Fraction, int]]:
        """(lo, hi, value) triples covering [0, 1); the last hi equals 1."""
        out = []
        for r, lo in enumerate(self.breakpoints):
            hi = self.breakpoints[r + 1] if r + 1 < len(self.breakpoints) else Fraction(1)
            out.append((lo, hi, self.values[r]))
        return out

    def max_value(self) -> int:
        return max(self.values)


def _breakpoint_candidates(terms) -> list[tuple[int, int]]:
    """Every x in [0, 1) where min over y of the floor sum can change, as
    reduced (p, q) in increasing order: (1/(D/g))Z for D = |a1 e2 - a2 e1|
    > 0 and g = gcd(e1, e2) over pairs of terms with e != 0, where two jump
    lines cross (g divides D), and (1/|a|)Z for the y-free terms.  Distinct
    points j/d differ by at least 1/(d1 d2), so the integer keys
    floor(j 2**k / d), 2**k >= the largest d squared, order them exactly."""
    sloped = {(a, e) for _, a, e in terms if e}
    dens = {abs(a) for _, a, e in terms if not e}
    dens |= {abs(a1 * e2 - a2 * e1) // math.gcd(e1, e2)
             for a1, e1 in sloped for a2, e2 in sloped}
    # the reduced denominators of (1/m)Z are the divisors of m (none for
    # m = 0: parallel lines, or a y-free term with a = 0)
    dens = {d for top in dens for d in range(2, top + 1) if top % d == 0}
    shift = 2 * max(dens, default=1).bit_length()
    return [(0, 1)] + [(j, d) for _, j, d in sorted(
        ((j << shift) // d, j, d) for d in dens for j in range(1, d)
        if math.gcd(j, d) == 1)]


@lru_cache(maxsize=None)
def carry_min_table(spec: CarrySpec) -> StepFunction:
    """Exact table of min_y carry(x, y) as a step function of x.

    It is built from the merged sum of the module docstring, the same
    function with fewer terms (45 become 14 for theorem1).

    Completeness: every breakpoint lies in ``_breakpoint_candidates``.  On
    an open gap between consecutive candidates no two jump lines in the
    (x, y) torus cross and no y-free term jumps, so the jump points in y
    keep their cyclic order, every cell keeps its value, and min over y is
    constant; the gap midpoint gives that constant.  Each candidate is
    evaluated once as well.  The table is stored as right-continuous
    pieces [lo, hi), so the value at each candidate must equal the value
    on the gap to its right; this is checked, and a sum for which it fails
    raises instead of being tabulated wrongly.
    """
    terms = _merged_terms(spec.terms())
    plan = _sweep_plan(terms)
    grid = _breakpoint_candidates(terms)
    values = []
    for (p1, q1), (p2, q2) in zip(grid, grid[1:] + [(1, 1)]):
        v_left = _min_over_y(plan, p1, q1)[0]
        v_gap = _min_over_y(plan, p1 * q2 + p2 * q1, 2 * q1 * q2)[0]
        if v_left != v_gap:
            lo, hi = Fraction(p1, q1), Fraction(p2, q2)
            raise ValueError(f"carry minimum {v_left} at {lo} differs from "
                             f"its value {v_gap} on ({lo}, {hi})")
        values.append(v_left)
    return StepFunction.build(starmap(Fraction, grid), values)


def carry_min_value(spec: CarrySpec, x) -> tuple[int, Fraction]:
    """Pointwise min over y at a single x, with a witness y (no table)."""
    x = Fraction(x)
    x -= math.floor(x)
    p, q = x.as_integer_ratio()
    plan = _sweep_plan(_merged_terms(spec.terms()))
    value, key = _min_over_y(plan, p, q)
    return value, Fraction(key, 2 * plan[0] * q)


# ---------------------------------------------------------------------------
# The prime-power cancellation factor
# ---------------------------------------------------------------------------

def _prime_window(profile):
    """(p, phi(n/p)) for each prime p of the cancellation factor's window,
    p <= d_index with p*p > phi_lower_sq (strict, compared exactly): one
    sweep over y at x = (n mod p)/p each, on the merged sum's plan."""
    plan = _sweep_plan(_merged_terms(profile.carry_spec.terms()))
    for p in sieve_primes(profile.d_index):
        if p * p > profile.phi_lower_sq:
            yield p, _min_over_y(plan, profile.n % p, p)[0]


def capital_phi(profile) -> FactoredInteger:
    """Product of p**phi(n/p) over the primes of ``_prime_window``; no
    carry table is built."""
    factors = {}
    for p, e in _prime_window(profile):
        if e < 0:
            raise ValueError(f"negative carry minimum at p={p}")
        factors[p] = e
    return FactoredInteger.from_dict(factors)


# ---------------------------------------------------------------------------
# Digamma at positive rationals
# ---------------------------------------------------------------------------

def _digamma_sum(weights: dict[Fraction, int], precision: int,
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
# Exponential growth rate of the cancellation factor
# ---------------------------------------------------------------------------

def phi_exponent_from_table(table: StepFunction, mu: Fraction,
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
    return _digamma_sum(weights, precision + 32, Fraction(clipped, den))


def phi_exponent(profile, precision: int = 256) -> BallReal:
    table = carry_min_table(profile.carry_spec)
    return phi_exponent_from_table(table, profile.mu, precision)


def phi_exponent_sieved(profile) -> float:
    """(1/n) log of the factored product by direct sieving, double precision.

    Empirical anchor for ``phi_exponent`` at large n; not a rigorous bound.
    """
    return math.fsum(e * math.log(p) for p, e in _prime_window(profile)
                     if e) / profile.n
