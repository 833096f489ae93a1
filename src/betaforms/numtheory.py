"""Prime sieving, lcm sequences, floor-sum carry functions and their minima,
the prime-power cancellation factor, digamma at rationals, and the
exponential growth rate of the cancellation factor.

The cancellation factor runs over one prime window per profile: the
primes p <= d_index with p*p > phi_lower_sq, each with the exponent
table(n/p) of the carry-minimum table.  ``_prime_window`` is its one
copy; ``capital_phi`` takes the exact product over it and
``phi_exponent_sieved`` the double-precision log.

The growth rate is an integer-weighted sum of digamma values at the
table's breakpoints, the weights summing to 0 so that Euler's gamma
cancels; ``_digamma_sum`` evaluates such a sum by Gauss's digamma theorem
once per reduced denominator, so each cosine and each logarithm is taken
once however many points share it.

The carry functions are integer-valued sums of floors of linear forms in
(x, y), periodic with period 1 in both arguments.  Their minimum over y
is piecewise constant in x with rational breakpoints; the table of that
minimum drives both the exact prime-power factor and its asymptotic
exponent.

Where the breakpoints can lie follows from the line arrangement.  A term
floor(a x + e y) with e != 0 jumps on the lines a x + e y in Z; two such
lines from terms (a1, e1), (a2, e2) cross only at x in (1/D)Z with
D = |a1 e2 - a2 e1| (parallel lines, D = 0, never cross or coincide for
all x), and a y-free term floor(a x) jumps only at x in (1/|a|)Z.  On an
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
from .balls import BallReal, ball_pi, working_precision


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d = 17
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@frozen
class FactoredInteger:
    """A positive integer kept in factored form: sorted (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if p <= last or not _is_prime(p):
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
    reduced (p, q) in increasing order: (1/D)Z for D = |a1 e2 - a2 e1| > 0
    over pairs of terms with e != 0, where two jump lines cross, and
    (1/|a|)Z for the y-free terms.  Distinct points j/d differ by at least
    1/(d1 d2), so the integer keys floor(j 2**k / d), 2**k >= the largest
    D squared, order them exactly."""
    sloped = {(a, e) for _, a, e in terms if e}
    dens = {abs(a) for _, a, e in terms if not e and a}
    dens |= {abs(a1 * e2 - a2 * e1) for a1, e1 in sloped for a2, e2 in sloped}
    dens.discard(0)
    # the reduced denominators of (1/D)Z are the divisors of D
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
    """(p, table(n/p)) for each prime p of the cancellation factor's window,
    p <= d_index with p*p > phi_lower_sq (strict, compared exactly)."""
    table = carry_min_table(profile.carry_spec)
    for p in sieve_primes(profile.d_index):
        if p * p > profile.phi_lower_sq:
            yield p, table.value_at(Fraction(profile.n, p))


def capital_phi(profile) -> FactoredInteger:
    """Product of p**table(n/p) over the primes of ``_prime_window``."""
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
    that sum to 0, to an absolute radius of about 2**-precision.

    x = k + a/b with a/b in lowest terms: psi(x) = psi(a/b) + sum_{j<k}
    1/(a/b + j), psi(k) = -gamma + H_(k-1), and by Gauss's digamma theorem,
    with c_j = cos(2 pi j/b) and log sin(pi m/b) = log((1 - c_m)/2)/2,
        psi(a/b) = -gamma - log 2b - (pi/2) cot(pi a/b)
                   + sum_{0<m<b/2} c_(m a mod b) log((1 - c_m)/2).
    Every psi carries one -gamma, so zero-sum weights cancel it; any
    other weights raise ``ValueError``.  Per denominator b each c_j
    (c_j = c_(b-j)) and each log is taken once,
    cot(pi k/b) = sqrt((1 + c_k)/(1 - c_k)) for 0 < k < b/2, and the weights
    on each are summed as integers first.  The guard bits cover the
    weights and the cancellation in 1 - c_1 ~ (2 pi/b)**2.
    """
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
            c = [None] + [(pi * Fraction(2 * j, b)).cos()
                          for j in range(1, (b + 1) // 2)]
            total -= sum(row.values()) * BallReal(2 * b).log()
            for m in range(1, len(c)):
                total += _merged_sum(c.__getitem__, (
                    (min(m * a % b, -m * a % b), w) for a, w in row.items())
                ) * ((1 - c[m]) / 2).log()
            total -= pi / 2 * _merged_sum(
                lambda k: ((1 + c[k]) / (1 - c[k])).sqrt(),
                ((min(a, b - a), w if 2 * a < b else -w)
                 for a, w in row.items() if 2 * a != b))
        return total


def _merged_sum(value, pairs) -> BallReal:
    """sum w value(j) over (j, w) pairs, the w of equal j added first."""
    merged: dict[int, int] = {}
    for j, w in pairs:
        merged[j] = merged.get(j, 0) + w
    return sum((w * value(j) for j, w in merged.items() if w), BallReal(0))


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
    pieces share endpoints, so the psi terms fold into one integer weight
    per point 1 + x, each piece adding +c and -c, so the weights sum to 0;
    the clipped terms fold into one rational.
    """
    mu, clipped, weights = Fraction(mu), Fraction(0), {}
    for lo, hi, c in table.intervals():
        if c == 0:
            continue
        weights[1 + hi] = weights.get(1 + hi, 0) + c
        weights[1 + lo] = weights.get(1 + lo, 0) - c
        top = mu if lo == 0 else min(1 / lo, mu)
        part = top - 1 / hi
        if part > 0:
            clipped += c * part
    return _digamma_sum(weights, precision + 32, clipped)


def phi_exponent(profile, precision: int = 256) -> BallReal:
    table = carry_min_table(profile.carry_spec)
    return phi_exponent_from_table(table, profile.mu, precision)


def phi_exponent_sieved(profile) -> float:
    """(1/n) log of the factored product by direct sieving, double precision.

    Empirical anchor for ``phi_exponent`` at large n; not a rigorous bound.
    """
    return math.fsum(e * math.log(p) for p, e in _prime_window(profile)
                     if e) / profile.n
